"""The windowed time-series recorder, cross-shard merge, and exporters.

The bit-identity tests are the contract the live plane's sharded
aggregation stands on: per-window snapshots merged in shard-index
order reproduce identical :meth:`WindowSnapshot.state` tuples whether
the shard streams were produced in this process or in worker
processes (the ``repro.parallel --workers N`` path).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.observe.timeseries import (
    TimeseriesRecorder,
    TimeseriesTailer,
    WindowSnapshot,
    merge_window_streams,
    read_timeseries_jsonl,
    render_prometheus,
    write_timeseries_jsonl,
)
from repro.telemetry import MetricsRegistry


def _shard_stream(shard: int) -> list[dict]:
    """One shard's deterministic window stream, as JSON dicts.

    Module-level so worker processes can import it by reference; the
    dict form crosses the process boundary at full fidelity
    (:meth:`WindowSnapshot.to_dict` keeps every histogram bucket).
    """
    registry = MetricsRegistry()
    recorder = TimeseriesRecorder(registry, window_ms=100.0)
    for window in range(4):
        for i in range(6):
            registry.counter("completions").inc()
            registry.histogram("latency_ms").record(
                1.0 + 13.7 * shard + 3.1 * window + 0.71 * i
            )
        registry.gauge("queue_depth").set(float(shard + window))
        recorder.snapshot((window + 1) * 100.0 - 50.0)
    return [w.to_dict() for w in recorder.windows()]


class TestRecorder:
    def test_windows_hold_deltas_not_cumulatives(self):
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(registry, window_ms=100.0)
        registry.counter("arrivals").inc(5)
        recorder.snapshot(50.0)
        registry.counter("arrivals").inc(2)
        second = recorder.snapshot(150.0)
        assert second.counters["arrivals"] == 2
        assert recorder.cumulative.counters["arrivals"] == 7

    def test_zero_counters_and_empty_histograms_dropped(self):
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(registry, window_ms=100.0)
        registry.counter("arrivals").inc()
        registry.histogram("latency_ms")  # created, never recorded
        window = recorder.snapshot(50.0)
        registry.counter("sheds")  # exists but stays zero
        window2 = recorder.snapshot(150.0)
        assert "latency_ms" not in window.histograms
        assert window2.counters == {}

    def test_ring_is_bounded(self):
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(registry, window_ms=10.0, capacity=3)
        for i in range(8):
            registry.counter("ticks").inc()
            recorder.snapshot(10.0 * i + 5.0)
        windows = recorder.windows()
        assert len(windows) == 3
        assert [w.index for w in windows] == [5, 6, 7]

    def test_snapshots_must_advance(self):
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(registry, window_ms=100.0)
        recorder.snapshot(50.0)
        with pytest.raises(ConfigurationError):
            recorder.snapshot(60.0)

    def test_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            TimeseriesRecorder(registry, window_ms=0.0)
        with pytest.raises(ConfigurationError):
            TimeseriesRecorder(registry, window_ms=10.0, capacity=0)


class TestMerge:
    def test_merge_adds_counters_and_histograms(self):
        streams = [
            [WindowSnapshot.from_dict(d) for d in _shard_stream(shard)]
            for shard in range(3)
        ]
        merged = merge_window_streams(streams)
        assert [w.index for w in merged] == [0, 1, 2, 3]
        assert merged[0].counters["completions"] == 18
        assert merged[0].histograms["latency_ms"].count == 18
        # Gauges merge by max (exact in floats).
        assert merged[3].gauges["queue_depth"] == 5.0

    def test_mismatched_window_indexes_refuse_to_merge(self):
        a = WindowSnapshot(index=1, start_ms=100.0, end_ms=200.0)
        b = WindowSnapshot(index=2, start_ms=200.0, end_ms=300.0)
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merge_is_bit_identical_across_processes(self):
        """The acceptance criterion: shard streams produced by worker
        processes merge to the same state() tuples as streams produced
        serially in this process."""
        serial = [
            [WindowSnapshot.from_dict(d) for d in _shard_stream(s)]
            for s in range(3)
        ]
        with ProcessPoolExecutor(max_workers=2) as pool:
            shipped = [
                [WindowSnapshot.from_dict(d) for d in dicts]
                for dicts in pool.map(_shard_stream, range(3))
            ]
        merged_serial = merge_window_streams(serial)
        merged_shipped = merge_window_streams(shipped)
        assert [w.state() for w in merged_serial] == [
            w.state() for w in merged_shipped
        ]

    def test_fold_order_is_the_contract(self):
        """Reversing shard order may change the float sum — which is
        exactly why merge_window_streams requires shard-index order."""
        streams = [
            [WindowSnapshot.from_dict(d) for d in _shard_stream(s)]
            for s in range(3)
        ]
        forward = merge_window_streams(streams)
        backward = merge_window_streams(list(reversed(streams)))
        # Counts always agree; the full state may not (float sums).
        assert [w.counters for w in forward] == [w.counters for w in backward]


class TestPrometheus:
    def test_registry_exposition(self):
        registry = MetricsRegistry()
        registry.counter("sim.completions").inc(7)
        registry.gauge("sim.queue_depth").set(3.0)
        registry.histogram("sim.latency_ms").record_many([5.0, 10.0, 20.0])
        text = render_prometheus(registry)
        assert "# TYPE repro_sim_completions counter" in text
        assert "repro_sim_completions 7" in text
        assert "# TYPE repro_sim_queue_depth gauge" in text
        assert "# TYPE repro_sim_latency_ms summary" in text
        assert 'repro_sim_latency_ms{quantile="0.99"}' in text
        assert "repro_sim_latency_ms_count 3" in text

    def test_timestamped_exposition(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        text = render_prometheus(registry, at_ms=1234.9)
        assert "repro_x 1 1234" in text

    def test_render_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        assert render_prometheus(registry) == render_prometheus(registry)


class TestJsonl:
    def test_round_trip_preserves_state(self, tmp_path):
        windows = [
            WindowSnapshot.from_dict(d) for d in _shard_stream(1)
        ]
        path = tmp_path / "ts.jsonl"
        write_timeseries_jsonl(path, windows)
        back = read_timeseries_jsonl(path)
        assert [w.state() for w in back] == [w.state() for w in windows]

    def test_append_mode_tails(self, tmp_path):
        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(0)]
        path = tmp_path / "ts.jsonl"
        write_timeseries_jsonl(path, windows[:2])
        write_timeseries_jsonl(path, windows[2:], append=True)
        assert len(read_timeseries_jsonl(path)) == len(windows)

    def test_gzip_read(self, tmp_path):
        import gzip

        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(2)]
        plain = tmp_path / "ts.jsonl"
        write_timeseries_jsonl(plain, windows)
        gz = tmp_path / "ts.jsonl.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        assert [w.state() for w in read_timeseries_jsonl(gz)] == [
            w.state() for w in windows
        ]

    def test_gzip_write_round_trip_with_append(self, tmp_path):
        import gzip

        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(0)]
        path = tmp_path / "ts.jsonl.gz"
        write_timeseries_jsonl(path, windows[:2])
        write_timeseries_jsonl(path, windows[2:], append=True)
        lines = gzip.decompress(path.read_bytes()).decode("utf-8").splitlines()
        assert len(lines) == len(windows)
        assert [w.state() for w in read_timeseries_jsonl(path)] == [
            w.state() for w in windows
        ]


class TestTailer:
    """Incremental tailing: a live writer may leave torn last lines."""

    def test_tails_completed_lines(self, tmp_path):
        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(0)]
        path = tmp_path / "ts.jsonl"
        tailer = TimeseriesTailer(path)
        assert tailer.poll() == []  # file does not exist yet
        write_timeseries_jsonl(path, windows[:2])
        assert [w.index for w in tailer.poll()] == [0, 1]
        write_timeseries_jsonl(path, windows[2:], append=True)
        assert [w.index for w in tailer.poll()] == [2, 3]
        assert [w.state() for w in tailer.windows] == [
            w.state() for w in windows
        ]

    def test_split_record_buffered_across_polls(self, tmp_path):
        """A record written in two OS writes parses once terminated."""
        import json

        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(1)]
        line = json.dumps(windows[0].to_dict(), sort_keys=True) + "\n"
        path = tmp_path / "ts.jsonl"
        tailer = TimeseriesTailer(path)
        # First half of the record: mid-write poll must not choke on
        # the torn JSON, and must not emit anything.
        path.write_bytes(line[: len(line) // 2].encode("utf-8"))
        assert tailer.poll() == []
        # Writer finishes the line: the buffered fragment completes.
        with path.open("ab") as handle:
            handle.write(line[len(line) // 2 :].encode("utf-8"))
        fresh = tailer.poll()
        assert len(fresh) == 1
        assert fresh[0].state() == windows[0].state()

    def test_unterminated_tail_held_until_newline(self, tmp_path):
        import json

        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(2)]
        lines = [json.dumps(w.to_dict(), sort_keys=True) for w in windows]
        path = tmp_path / "ts.jsonl"
        # A complete first record plus a complete-but-unterminated
        # second: only the newline-terminated one is consumed.
        path.write_text(lines[0] + "\n" + lines[1])
        tailer = TimeseriesTailer(path)
        assert [w.index for w in tailer.poll()] == [windows[0].index]
        with path.open("a") as handle:
            handle.write("\n")
        assert [w.index for w in tailer.poll()] == [windows[1].index]

    def _half_written_gzip(self, tmp_path):
        """Two gzip members (windows 0-1, then 2-3) with the second
        member cut in half, as a poll mid-append sees it."""
        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(0)]
        path = tmp_path / "ts.jsonl.gz"
        write_timeseries_jsonl(path, windows[:2])
        first_member = path.stat().st_size
        write_timeseries_jsonl(path, windows[2:], append=True)
        data = path.read_bytes()
        cut = first_member + (len(data) - first_member) // 2
        path.write_bytes(data[:cut])
        return windows, path, data[cut:]

    def test_half_written_gzip_member_waits_for_the_rest(self, tmp_path):
        windows, path, rest = self._half_written_gzip(tmp_path)
        tailer = TimeseriesTailer(path)
        first = [w.index for w in tailer.poll()]
        assert first[:2] == [0, 1]
        with path.open("ab") as handle:
            handle.write(rest)
        second = [w.index for w in tailer.poll()]
        assert first + second == [w.index for w in windows]
        assert [w.state() for w in tailer.windows] == [
            w.state() for w in windows
        ]

    def test_gzip_stream_tailed_a_few_bytes_at_a_time(self, tmp_path):
        """Polls that land anywhere in a member, header included, yield
        every window exactly once and in order."""
        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(1)]
        source = tmp_path / "source.jsonl.gz"
        for i, window in enumerate(windows):
            write_timeseries_jsonl(source, [window], append=i > 0)
        data = source.read_bytes()
        path = tmp_path / "ts.jsonl.gz"
        tailer = TimeseriesTailer(path)
        seen = []
        for end in range(0, len(data) + 7, 7):
            path.write_bytes(data[:end])
            seen.extend(w.state() for w in tailer.poll())
        assert seen == [w.state() for w in windows]

    def test_gzip_truncation_resets(self, tmp_path):
        windows, path, _ = self._half_written_gzip(tmp_path)
        tailer = TimeseriesTailer(path)
        tailer.poll()
        write_timeseries_jsonl(path, windows[:1])
        assert [w.index for w in tailer.poll()] == [windows[0].index]
        assert len(tailer.windows) == 1

    def test_truncation_resets(self, tmp_path):
        windows = [WindowSnapshot.from_dict(d) for d in _shard_stream(0)]
        path = tmp_path / "ts.jsonl"
        write_timeseries_jsonl(path, windows)
        tailer = TimeseriesTailer(path)
        assert len(tailer.poll()) == len(windows)
        # Rotation: the file restarts smaller; the tailer re-reads it.
        write_timeseries_jsonl(path, windows[:1])
        assert [w.index for w in tailer.poll()] == [windows[0].index]
        assert len(tailer.windows) == 1
