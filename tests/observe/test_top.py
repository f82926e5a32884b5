"""The ``repro top`` CLI: replay and follow modes, gzip ingestion.

Exercises the dashboard end to end through ``main`` the way the CI
smoke job does — replay a traced run (plain and gzipped), follow a
window-snapshot stream for one frame, and check the error paths exit 2
rather than traceback.
"""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro.observe.analyze import load_trace
from repro.observe.live import LivePlane, replay_spans
from repro.observe.top import main as top_main
from repro.observe.timeseries import (
    TimeseriesRecorder,
    write_timeseries_jsonl,
)
from repro.schedulers import FMScheduler
from repro.sim.engine import simulate
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.export import write_chrome_trace, write_spans_jsonl
from repro.workloads.arrivals import PoissonProcess


@pytest.fixture
def traced(tmp_path, tiny_workload, small_table):
    telemetry = Telemetry()
    rng = np.random.default_rng(31)
    arrivals = tiny_workload.arrivals(120, PoissonProcess(250.0), rng)
    simulate(arrivals, FMScheduler(small_table), cores=4, telemetry=telemetry)
    path = tmp_path / "trace.jsonl"
    write_spans_jsonl(path, telemetry.tracer.spans)
    return telemetry, path


class TestReplayMode:
    def test_text_dashboard(self, traced, capsys):
        _, path = traced
        assert top_main(["--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "attribution" in out
        assert "bar legend" in out

    def test_json_payload(self, traced, capsys):
        _, path = traced
        assert top_main(["--replay", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"windows", "attribution_totals_ms", "events"}
        assert sum(w["count"] for w in payload["windows"]) > 0
        assert "service_ms" in payload["attribution_totals_ms"]

    def test_gzip_trace_matches_plain(self, traced, capsys):
        telemetry, path = traced
        gz = path.with_suffix(".jsonl.gz")
        gz.write_bytes(gzip.compress(path.read_bytes()))
        assert top_main(["--replay", str(gz), "--json"]) == 0
        from_gz = json.loads(capsys.readouterr().out)
        assert top_main(["--replay", str(path), "--json"]) == 0
        from_plain = json.loads(capsys.readouterr().out)
        assert from_gz == from_plain

    def test_window_flag_changes_partition(self, traced, capsys):
        _, path = traced
        assert top_main(["--replay", str(path), "--window", "50", "--json"]) == 0
        fine = json.loads(capsys.readouterr().out)
        assert top_main(["--replay", str(path), "--window", "400", "--json"]) == 0
        coarse = json.loads(capsys.readouterr().out)
        assert len(fine["windows"]) > len(coarse["windows"])
        # The partition changes; the attribution totals do not.
        for component, value in fine["attribution_totals_ms"].items():
            assert coarse["attribution_totals_ms"][component] == pytest.approx(
                value, abs=1e-9
            )


class TestFollowMode:
    def _stream(self, tmp_path):
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(registry, window_ms=100.0)
        for window in range(3):
            registry.counter("runtime.completions").inc(4)
            registry.histogram("runtime.latency_ms").record_many(
                [5.0 + window, 10.0 + window]
            )
            recorder.snapshot((window + 1) * 100.0 - 50.0)
        path = tmp_path / "ts.jsonl"
        write_timeseries_jsonl(path, recorder.windows())
        return path

    def test_single_frame(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        assert top_main(["--follow", str(path), "--frames", "1"]) == 0
        out = capsys.readouterr().out
        assert "latency p99 ms" in out
        assert "runtime.completions=4" in out

    def test_json_frames_emit_each_window_once(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        assert (
            top_main(
                [
                    "--follow",
                    str(path),
                    "--frames",
                    "2",
                    "--interval",
                    "0.01",
                    "--json",
                ]
            )
            == 0
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        # Frame 1 prints all three windows; frame 2 sees nothing new.
        assert len(lines) == 1
        assert [w["index"] for w in json.loads(lines[0])] == [0, 1, 2]

    def test_missing_stream_renders_empty(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        assert top_main(["--follow", str(path), "--frames", "1"]) == 0
        assert "latency p99 ms" in capsys.readouterr().out

    def test_torn_last_line_does_not_crash_follow(self, tmp_path, capsys):
        """A writer caught mid-``write()`` leaves half a JSON record;
        the follow loop must render the complete windows and pick up
        the torn one on a later frame, once terminated."""
        path = self._stream(tmp_path)
        whole = path.read_text().splitlines()
        torn = json.dumps({"index": 3, "start_ms": 300.0})[: 20]
        path.write_text("\n".join(whole) + "\n" + torn)
        assert (
            top_main(
                ["--follow", str(path), "--frames", "2", "--interval", "0.01",
                 "--json"]
            )
            == 0
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert [w["index"] for w in json.loads(lines[0])] == [0, 1, 2]


    def test_half_written_gzip_member_does_not_crash_follow(self, tmp_path, capsys):
        """``--follow`` on a ``.gz`` stream polled mid-append: the last
        gzip member is half written.  The frame renders the windows of
        the complete member instead of dying with ``EOFError``."""
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(registry, window_ms=100.0)
        for window in range(5):
            registry.counter("runtime.completions").inc(4)
            registry.histogram("runtime.latency_ms").record(5.0 + window)
            recorder.snapshot((window + 1) * 100.0 - 50.0)
        windows = recorder.windows()
        path = tmp_path / "ts.jsonl.gz"
        write_timeseries_jsonl(path, windows[:3])
        first_member = path.stat().st_size
        write_timeseries_jsonl(path, windows[3:], append=True)
        data = path.read_bytes()
        path.write_bytes(data[: first_member + (len(data) - first_member) // 2])
        assert top_main(["--follow", str(path), "--frames", "1", "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert [w["index"] for w in shown][:3] == [0, 1, 2]
        assert top_main(["--follow", str(path), "--frames", "1"]) == 0
        assert "runtime.completions=4" in capsys.readouterr().out


class TestErrors:
    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert top_main(["--replay", str(tmp_path / "nope.json")]) == 2
        assert "repro top:" in capsys.readouterr().out

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert top_main(["--replay", str(empty)]) == 2

    def test_source_is_required_and_exclusive(self, traced):
        _, path = traced
        with pytest.raises(SystemExit):
            top_main([])
        with pytest.raises(SystemExit):
            top_main(["--replay", str(path), "--follow", str(path)])


class TestCliDispatch:
    def test_repro_top_routes_through_cli(self, traced, capsys):
        from repro.cli import main as cli_main

        _, path = traced
        assert cli_main(["top", "--replay", str(path)]) == 0
        assert "attribution" in capsys.readouterr().out


class TestGzipIngestion:
    """Satellite: load_trace reads .json.gz / .jsonl.gz transparently."""

    def test_chrome_trace_gz(self, tmp_path, traced):
        telemetry, _ = traced
        plain = tmp_path / "trace.json"
        write_chrome_trace(plain, telemetry)
        gz = tmp_path / "trace.json.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        a = load_trace(plain)
        b = load_trace(gz)
        assert len(a.spans) == len(b.spans) == len(telemetry.tracer.spans)

    def test_replay_equivalence_through_gzip(self, traced):
        telemetry, path = traced
        gz = path.with_suffix(".jsonl.gz")
        gz.write_bytes(gzip.compress(path.read_bytes()))
        direct = replay_spans(telemetry.tracer.spans)
        loaded = replay_spans(load_trace(gz).spans)
        assert [w.to_dict() for w in direct.windows()] == [
            w.to_dict() for w in loaded.windows()
        ]

    def test_plane_type_sanity(self, traced):
        telemetry, _ = traced
        plane = replay_spans(telemetry.tracer.spans)
        assert isinstance(plane, LivePlane)
