"""Tests for the exporters: Chrome trace JSON, JSONL, text dashboard."""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro.observe.analyze import load_trace
from repro.sim.engine import simulate
from repro.telemetry import (
    Telemetry,
    Tracer,
    read_spans_jsonl,
    render_summary,
    span_from_dict,
    span_to_dict,
    to_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.telemetry.clock import ManualClock
from repro.telemetry.export import _jsonable
from repro.telemetry.spans import INSTANT
from tests.observe.test_attribution_property import (
    _arrivals,
    _fault_plan,
    _fm_scheduler,
)


def _reference_chrome_trace(spans, metrics=None) -> dict:
    """The document builder as first written: a key function over span
    properties, every attr through ``_jsonable``.  The exporter must
    stay dict-equal to it."""
    pids = {track: pid for pid, track in enumerate(sorted({s.track for s in spans}), 1)}
    events: list[dict] = []
    for track, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": track},
            }
        )
    lanes = sorted({(pids[s.track], s.lane) for s in spans})
    for pid, lane in lanes:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": lane,
                "args": {"name": f"lane {lane}"},
            }
        )
    ordered = sorted(
        (s for s in spans if not s.is_open),
        key=lambda s: (pids[s.track], s.lane, s.start_ms, -s.duration_ms),
    )
    for span in ordered:
        event = {
            "name": span.name,
            "ph": "i" if span.kind == INSTANT else "X",
            "pid": pids[span.track],
            "tid": span.lane,
            "ts": span.start_ms * 1000.0,
            "args": {k: _jsonable(v) for k, v in span.attrs.items()},
        }
        if span.kind == INSTANT:
            event["s"] = "t"
        else:
            event["dur"] = span.duration_ms * 1000.0
        events.append(event)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics is not None:
        document["otherData"] = {"metrics": metrics}
    return document


def _sample_tracer() -> Tracer:
    tracer = Tracer(clock=ManualClock())
    outer = tracer.complete("query", 0.0, 30.0, track="search", lane=1, top_k=10)
    tracer.complete(
        "segment", 0.0, 12.0, track="search", lane=1, parent=outer, segment=0
    )
    tracer.complete("run", 5.0, 25.0, track="sim", lane=7, degree=2)
    tracer.instant("boost", track="sim", lane=7, at_ms=15.0, degree=3)
    tracer.complete("shard0", 2.0, 40.0, track="cluster", lane=3, server=0)
    return tracer


class TestChromeTrace:
    def test_document_is_valid_json(self, tmp_path):
        telemetry = Telemetry()
        telemetry.tracer.spans.extend(_sample_tracer().spans)
        telemetry.metrics.counter("sim.arrivals").inc(3)
        path = write_chrome_trace(tmp_path / "trace.json", telemetry)
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["metrics"]["counters"] == {"sim.arrivals": 3}

    def test_tracks_become_processes_with_metadata(self):
        document = to_chrome_trace(_sample_tracer().spans)
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        processes = [e for e in meta if e["name"] == "process_name"]
        names = {e["args"]["name"] for e in processes}
        assert names == {"search", "sim", "cluster"}
        # distinct pids per track
        assert len({e["pid"] for e in processes}) == 3
        # every (pid, tid) lane carries a thread_name label
        threads = [e for e in meta if e["name"] == "thread_name"]
        span_lanes = {
            (e["pid"], e["tid"])
            for e in document["traceEvents"]
            if e["ph"] != "M"
        }
        assert {(e["pid"], e["tid"]) for e in threads} >= span_lanes

    def test_events_have_consistent_ts_dur(self):
        document = to_chrome_trace(_sample_tracer().spans)
        events = [e for e in document["traceEvents"] if e["ph"] in ("X", "i")]
        assert events, "no span events exported"
        for event in events:
            assert event["ts"] >= 0.0
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            else:
                assert event["s"] == "t"

    def test_ts_monotone_per_lane(self):
        document = to_chrome_trace(_sample_tracer().spans)
        last: dict[tuple[int, int], float] = {}
        for event in document["traceEvents"]:
            if event["ph"] not in ("X", "i"):
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, float("-inf"))
            last[key] = event["ts"]

    def test_equal_start_spans_nest_longest_first(self):
        document = to_chrome_trace(_sample_tracer().spans)
        search = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 1 and e["name"] in ("query", "segment")
        ]
        assert [e["name"] for e in search] == ["query", "segment"]

    def test_open_spans_are_excluded(self):
        tracer = Tracer(clock=ManualClock())
        tracer.begin("never-ended", track="t", at_ms=0.0)
        tracer.complete("done", 0.0, 1.0, track="t")
        document = to_chrome_trace(tracer.spans + [tracer.begin("open", at_ms=2.0)])
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert names == ["done"]

    def test_nonjson_attrs_are_coerced(self):
        tracer = Tracer(clock=ManualClock())
        tracer.complete("x", 0.0, 1.0, track="t", obj=object(), inf=float("inf"))
        document = to_chrome_trace(tracer.spans)
        json.dumps(document)  # must not raise


def _edge_case_tracer() -> Tracer:
    """Spans that stress the order and the attr coercion."""
    tracer = Tracer(clock=ManualClock())
    # Equal starts, different lengths, on one lane and out of order.
    tracer.complete("short", 1.0, 2.0, track="a", lane=0)
    tracer.complete("long", 1.0, 9.0, track="a", lane=0)
    tracer.complete("middle", 1.0, 4.5, track="a", lane=0)
    # Equal (start, duration) keys: input order must survive.
    tracer.complete("tie-first", 3.0, 4.0, track="a", lane=0)
    tracer.complete("tie-second", 3.0, 4.0, track="a", lane=0)
    # A zero-length span next to an instant at the same time.
    tracer.complete("empty", 5.0, 5.0, track="a", lane=0)
    tracer.instant("point", track="a", lane=0, at_ms=5.0, degree=2)
    tracer.instant("other-lane", track="b", lane=3, at_ms=0.25)
    tracer.complete(
        "odd-attrs", 0.1, 0.30000000000000004, track="b", lane=3,
        nan=float("nan"), inf=float("inf"), ninf=float("-inf"),
        np_nan=np.float64("nan"), np_finite=np.float64(2.5),
        np_int=np.int64(7), pair=(1, 2), nothing=None, flag=True,
        text="x", neg_zero=-0.0, obj=object(),
    )
    # Non-finite floats among otherwise plain attrs.
    tracer.complete("nan-only", 0.1, 0.2, track="b", lane=3, x=float("nan"), n=1)
    tracer.complete("inf-only", 0.1, 0.2, track="b", lane=3, x=float("-inf"))
    tracer.complete("np-nan-only", 0.1, 0.2, track="b", lane=3, x=np.float64("nan"))
    tracer.complete(
        "plain-attrs", 0.1, 0.2, track="b", lane=3,
        queue_ms=0.5, degree=3, pool="big", boosted=False, nothing=None,
    )
    return tracer


def _traced_fm_run() -> Telemetry:
    """A real engine trace: FM with boosting and every fault kind
    (fault events are instants with mixed attrs)."""
    telemetry = Telemetry()
    simulate(
        _arrivals(200, rps=45.0, seed=5),
        _fm_scheduler(),
        cores=4,
        fault_plan=_fault_plan(),
        telemetry=telemetry,
    )
    return telemetry


class TestMatchesReference:
    """The exporter's document equals the reference builder's."""

    def test_edge_cases(self):
        tracer = _edge_case_tracer()
        # An open span (begun, never ended) is left out of the document.
        spans = tracer.spans + [tracer.begin("open", track="b", lane=3, at_ms=0.0)]
        document = to_chrome_trace(spans, {"counters": {"n": 1}})
        reference = _reference_chrome_trace(spans, {"counters": {"n": 1}})
        assert document == reference
        # Equal as text too: catches a -0.0 ``dur`` and key order.
        assert json.dumps(document) == json.dumps(reference)
        names = [e["name"] for e in document["traceEvents"] if e["ph"] != "M"]
        assert names[:7] == [
            "long", "middle", "short", "tie-first", "tie-second", "empty", "point",
        ]
        args = next(
            e["args"] for e in document["traceEvents"] if e["name"] == "odd-attrs"
        )
        assert args["nan"] == "nan" and args["inf"] == "inf"
        assert args["np_nan"] == repr(np.float64("nan"))
        assert args["pair"] == "(1, 2)"

    def test_engine_trace(self):
        telemetry = _traced_fm_run()
        spans = telemetry.tracer.spans
        metrics = telemetry.metrics.as_dict()
        assert {s.name for s in spans} >= {"queue", "run", "observe.event"}
        document = to_chrome_trace(spans, metrics)
        reference = _reference_chrome_trace(spans, metrics)
        assert document == reference
        assert json.dumps(document) == json.dumps(reference)

    def test_attrs_are_copied_not_shared(self):
        tracer = Tracer(clock=ManualClock())
        span = tracer.complete("x", 0.0, 1.0, track="t", degree=1)
        event = to_chrome_trace(tracer.spans)["traceEvents"][-1]
        event["args"]["degree"] = 99
        assert span.attrs == {"degree": 1}


class TestWrittenTrace:
    """What ``load_trace`` reads back from the file is the document."""

    @pytest.mark.parametrize("name", ["trace.json", "trace.json.gz"])
    def test_load_trace_reads_the_document(self, tmp_path, name):
        telemetry = Telemetry()
        telemetry.tracer.spans.extend(_edge_case_tracer().spans)
        telemetry.tracer.spans.extend(_traced_fm_run().tracer.spans)
        document = to_chrome_trace(
            telemetry.tracer.spans, telemetry.metrics.as_dict()
        )
        path = write_chrome_trace(tmp_path / name, telemetry)
        loaded = load_trace(path)
        tracks = {
            e["pid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e["name"] == "process_name"
        }
        events = [e for e in document["traceEvents"] if e["ph"] != "M"]
        assert len(loaded.spans) == len(events)
        for span, event in zip(loaded.spans, events):
            start_ms = event["ts"] / 1000.0
            instant = event["ph"] == "i"
            assert span.name == event["name"]
            assert span.track == tracks[event["pid"]]
            assert span.lane == event["tid"]
            assert span.start_ms == start_ms
            assert span.end_ms == (
                start_ms if instant else start_ms + event["dur"] / 1000.0
            )
            assert span.kind == (INSTANT if instant else "span")
            assert span.attrs == event["args"]

    def test_file_is_compact_single_line_json(self, tmp_path):
        telemetry = Telemetry()
        telemetry.tracer.spans.extend(_sample_tracer().spans)
        text = write_chrome_trace(tmp_path / "trace.json", telemetry).read_text()
        assert "\n" not in text and ", " not in text and ": " not in text
        assert json.loads(text) == to_chrome_trace(
            telemetry.tracer.spans, telemetry.metrics.as_dict()
        )


class TestJsonl:
    def test_round_trip_preserves_everything(self, tmp_path):
        spans = _sample_tracer().spans
        path = write_spans_jsonl(tmp_path / "spans.jsonl", spans)
        loaded = read_spans_jsonl(path)
        assert len(loaded) == len(spans)
        for original, restored in zip(spans, loaded):
            assert span_to_dict(original) == span_to_dict(restored)

    def test_span_dict_round_trip(self):
        span = _sample_tracer().spans[0]
        assert span_to_dict(span_from_dict(span_to_dict(span))) == span_to_dict(span)

    def test_empty_file_round_trips(self, tmp_path):
        path = write_spans_jsonl(tmp_path / "empty.jsonl", [])
        assert read_spans_jsonl(path) == []

    def test_gz_round_trip(self, tmp_path):
        spans = _sample_tracer().spans
        path = write_spans_jsonl(tmp_path / "spans.jsonl.gz", spans)
        assert gzip.decompress(path.read_bytes()).count(b"\n") == len(spans)
        for loaded in (read_spans_jsonl(path), load_trace(path).spans):
            assert [span_to_dict(s) for s in loaded] == [
                span_to_dict(s) for s in spans
            ]


class TestSummary:
    def test_renders_all_instrument_kinds(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("sim.arrivals").inc(5)
        telemetry.metrics.gauge("sim.queue_depth").set(3)
        telemetry.metrics.histogram("sim.latency_ms").record_many([1.0, 2.0, 50.0])
        telemetry.tracer.spans.extend(_sample_tracer().spans)
        text = render_summary(telemetry)
        assert "sim.arrivals" in text
        assert "sim.queue_depth" in text
        assert "sim.latency_ms" in text
        assert "cluster" in text
        assert "p99" in text

    def test_empty_pipeline_renders_header_only(self):
        assert render_summary(Telemetry()).startswith("=== telemetry summary ===")
