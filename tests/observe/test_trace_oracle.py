"""The Chrome-trace round trip and the tail report against the loops
they replace.

``write_chrome_trace`` builds and encodes with the cyclic GC paused,
``load_trace`` rebuilds spans in one pass that hands each span its
event's ``args`` dict, and ``analyze_spans`` reads per-field columns
instead of one :class:`RequestView` per request.  None of that changes
an operation on a float, so the loops kept here are oracles and every
comparison is exact: bytes, ``float.hex`` and rendered text.
"""

from __future__ import annotations

import enum
import gzip
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.observe import analyze as analyze_mod
from repro.observe.analyze import (
    AnalysisReport,
    RequestView,
    TraceData,
    TrackReport,
    analyze_spans,
    load_trace,
    requests_from_spans,
)
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry import Telemetry
from repro.telemetry.export import (
    open_text,
    span_from_dict,
    to_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.telemetry.spans import INSTANT, Span

PHIS = (0.5, 0.9, 0.99)
TOPS = (0, 1, 3, 50)


# ----------------------------------------------------------------------
# Oracles: the writer, loader and report loops before the columns
# ----------------------------------------------------------------------
def ref_write_chrome_trace(path: Path, telemetry: Telemetry) -> Path:
    document = to_chrome_trace(telemetry.tracer.spans, telemetry.metrics.as_dict())
    with open_text(path, "w") as handle:
        handle.write(json.dumps(document, separators=(",", ":")))
    return path


def ref_from_chrome(document: dict) -> TraceData:
    events = document.get("traceEvents", [])
    track_of_pid: dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            track_of_pid[event["pid"]] = event.get("args", {}).get("name", "")
    spans: list[Span] = []
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase not in ("X", "i"):
            continue
        start_ms = float(event.get("ts", 0.0)) / 1000.0
        duration_ms = float(event.get("dur", 0.0)) / 1000.0
        spans.append(
            Span(
                name=event.get("name", ""),
                track=track_of_pid.get(event.get("pid"), str(event.get("pid"))),
                lane=int(event.get("tid", 0)),
                span_id=index + 1,
                parent_id=None,
                start_ms=start_ms,
                end_ms=start_ms if phase == "i" else start_ms + duration_ms,
                kind=INSTANT if phase == "i" else "span",
                attrs=dict(event.get("args", {})),
            )
        )
    if not spans:
        raise ConfigurationError("trace document holds no span events")
    metrics = (document.get("otherData") or {}).get("metrics")
    return TraceData(spans=spans, metrics=metrics)


def ref_request_track_views(track: str, spans: list[Span]) -> list[RequestView]:
    queue_ms: dict[int, float] = {}
    for span in spans:
        if span.name == "queue" and span.kind != INSTANT:
            queue_ms[span.lane] = queue_ms.get(span.lane, 0.0) + span.duration_ms
    views: list[RequestView] = []
    for span in spans:
        if span.kind == INSTANT:
            continue
        if span.name == "run":
            waited = float(span.attrs.get("queue_ms", queue_ms.get(span.lane, 0.0)))
            latency = float(span.attrs.get("latency_ms", waited + span.duration_ms))
            if "service_ms" in span.attrs:
                components = {
                    name: float(span.attrs.get(name, 0.0))
                    for name in ATTRIBUTION_COMPONENTS
                }
            else:
                components = {"queue_ms": waited, "execute_ms": span.duration_ms}
            views.append(
                RequestView(
                    track=track,
                    lane=span.lane,
                    start_ms=span.start_ms - waited,
                    end_ms=span.end_ms,
                    latency_ms=latency,
                    components=components,
                    boosted=bool(span.attrs.get("boosted", False)),
                    energy_j=float(span.attrs.get("energy_j", math.nan)),
                    pool=str(span.attrs.get("pool", "")),
                )
            )
        elif span.name == "shed":
            views.append(
                RequestView(
                    track=track,
                    lane=span.lane,
                    start_ms=span.start_ms,
                    end_ms=span.end_ms,
                    latency_ms=span.duration_ms,
                    components={"queue_ms": span.duration_ms},
                    shed=True,
                )
            )
    return views


def ref_requests_from_spans(spans: list[Span]) -> dict[str, list[RequestView]]:
    by_track: dict[str, list[Span]] = {}
    for span in spans:
        by_track.setdefault(span.track, []).append(span)
    out: dict[str, list[RequestView]] = {}
    for track in ("sim", "runtime"):
        views = ref_request_track_views(track, by_track.get(track, []))
        if views:
            out[track] = views
    if "cluster" in by_track:
        hedged_lanes = {s.lane for s in by_track.get("cluster.hedge", [])}
        views = analyze_mod._cluster_views(by_track["cluster"], hedged_lanes)
        if views:
            out["cluster"] = views
    return out


def ref_membership_rate(tail: list[RequestView], rest: list[RequestView], flag: str):
    def rate(views: list[RequestView]) -> float:
        if not views:
            return math.nan
        return sum(1 for v in views if getattr(v, flag)) / len(views)

    return rate(tail), rate(rest)


def ref_report_track(
    track: str, views: list[RequestView], phi: float, top: int
) -> TrackReport:
    completed = [v for v in views if not v.shed]
    sheds = len(views) - len(completed)
    if not completed:
        raise ConfigurationError(
            f"track {track!r}: every request was shed; no latency to attribute"
        )
    latencies = [v.latency_ms for v in completed]
    threshold = analyze_mod._tail_threshold(latencies, phi)
    tail = [v for v in completed if v.latency_ms >= threshold]
    rest = [v for v in completed if v.latency_ms < threshold]
    component_names: list[str] = []
    for view in completed:
        for name in view.components:
            if name not in component_names:
                component_names.append(name)
    tail_mean_latency = sum(v.latency_ms for v in tail) / len(tail)
    components = {}
    for name in component_names:
        overall = sum(v.components.get(name, 0.0) for v in completed) / len(completed)
        tail_mean = sum(v.components.get(name, 0.0) for v in tail) / len(tail)
        components[name] = {
            "overall_mean_ms": overall,
            "tail_mean_ms": tail_mean,
            "tail_share": tail_mean / tail_mean_latency
            if tail_mean_latency > 0
            else math.nan,
        }
    report = TrackReport(
        track=track,
        phi=phi,
        count=len(completed),
        shed_count=sheds,
        mean_ms=sum(latencies) / len(latencies),
        tail_threshold_ms=threshold,
        tail_count=len(tail),
        components=components,
        slowest=sorted(completed, key=lambda v: -v.latency_ms)[:top],
    )
    energetic = [v for v in completed if v.energy_j == v.energy_j]
    if energetic:
        report.joules_per_query = sum(v.energy_j for v in energetic) / len(energetic)
        tail_energetic = [v for v in tail if v.energy_j == v.energy_j]
        if tail_energetic:
            report.tail_joules_per_query = sum(
                v.energy_j for v in tail_energetic
            ) / len(tail_energetic)
    if any(v.boosted for v in completed):
        report.boosted_rate = ref_membership_rate(tail, rest, "boosted")
    if any(v.hedged for v in completed):
        report.hedged_rate = ref_membership_rate(tail, rest, "hedged")
    return report


def ref_analyze_spans(spans, phi=0.99, counters=None, track=None, top=5):
    if not 0.0 < phi < 1.0:
        raise ConfigurationError(f"phi must be in (0, 1): {phi}")
    per_track = ref_requests_from_spans(spans)
    if track is not None:
        if track not in per_track:
            raise ConfigurationError(
                f"track {track!r} not in trace (have: {sorted(per_track) or 'none'})"
            )
        per_track = {track: per_track[track]}
    if not per_track:
        raise ConfigurationError("no request tracks (sim/runtime/cluster) in trace")
    context = {
        name: value
        for name, value in (counters or {}).items()
        if name in analyze_mod._CONTEXT_COUNTERS
    }
    return AnalysisReport(
        phi=phi,
        tracks={
            name: ref_report_track(name, views, phi, top)
            for name, views in per_track.items()
        },
        counters=context,
    )


# ----------------------------------------------------------------------
# Exact comparisons
# ----------------------------------------------------------------------
def _hex(value):
    return value.hex() if type(value) is float else value


def span_key(span: Span) -> tuple:
    return (
        span.name,
        span.track,
        span.lane,
        span.span_id,
        span.parent_id,
        _hex(span.start_ms),
        _hex(span.end_ms),
        span.kind,
        [(name, type(value), _hex(value)) for name, value in span.attrs.items()],
    )


def view_key(view: RequestView) -> tuple:
    return (
        view.track,
        view.lane,
        _hex(view.start_ms),
        _hex(view.end_ms),
        _hex(view.latency_ms),
        [(name, _hex(value)) for name, value in view.components.items()],
        view.boosted,
        view.hedged,
        view.shed,
        _hex(view.energy_j),
        view.pool,
    )


def outcome(fn, *args, **kwargs):
    """``fn``'s report as (JSON text, rendered text), or its error."""
    try:
        report = fn(*args, **kwargs)
    except (ConfigurationError, ZeroDivisionError) as error:
        return type(error).__name__, str(error)
    return json.dumps(report.to_json()), report.render()


def assert_reports_match(spans: list[Span], counters: dict | None = None) -> None:
    new_views = requests_from_spans(spans)
    old_views = ref_requests_from_spans(spans)
    assert list(new_views) == list(old_views)
    for track in old_views:
        assert [view_key(v) for v in new_views[track]] == [
            view_key(v) for v in old_views[track]
        ]
    for track in (None, *old_views, "nope"):
        for phi in PHIS:
            for top in TOPS:
                assert outcome(
                    analyze_spans, spans, phi=phi, counters=counters, track=track, top=top
                ) == outcome(
                    ref_analyze_spans, spans, phi=phi, counters=counters, track=track, top=top
                ), (track, phi, top)


# ----------------------------------------------------------------------
# Random span sets
# ----------------------------------------------------------------------
class _Mode(enum.Enum):
    FAST = "fast"


#: A small pool of values, so latencies (and components) tie at the
#: threshold, next to arbitrary positive floats.
_TIES = (0.0, 12.5, 40.0, 97.25)
ms = st.one_of(
    st.sampled_from(_TIES),
    st.floats(1e-3, 500.0, allow_nan=False, allow_infinity=False),
)
energy = st.one_of(
    st.floats(0.0, 5.0, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
#: Attr values ``_jsonable`` coerces on the way out.
odd_attr = st.sampled_from(
    [np.float64(1.25), np.int64(3), _Mode.FAST, (1, 2), None, math.nan, "e1"]
)


@st.composite
def request_spans(draw, track: str, lane: int) -> list[Span]:
    """The spans of one request on a ``sim``/``runtime`` track."""
    spans: list[Span] = []
    clock = draw(ms)
    for _ in range(draw(st.integers(0, 2))):
        end = clock + draw(ms)
        spans.append(Span("queue", track, lane, 0, None, clock, end, "span", {"wait": "e1"}))
        clock = end
    if draw(st.integers(0, 5)) == 0:
        spans.append(
            Span("shed", track, lane, 0, None, clock, clock + draw(ms), "span", {"deadline": 50.0})
        )
        return spans
    if draw(st.booleans()):
        spans.append(Span("boost", track, lane, 0, None, clock, clock, INSTANT, {"degree": 2}))
    attrs: dict = {"degree": draw(st.integers(1, 4))}
    mode = draw(st.sampled_from(["full", "partial", "coarse"]))
    names = list(ATTRIBUTION_COMPONENTS)
    if mode == "partial":
        names = ["service_ms"] + draw(st.lists(st.sampled_from(names), unique=True))
    elif mode == "coarse":
        names = draw(st.lists(st.sampled_from(["queue_ms", "latency_ms"]), unique=True))
    for name in names:
        attrs[name] = draw(ms)
    if mode != "coarse" and draw(st.booleans()):
        attrs["latency_ms"] = draw(ms)
    if draw(st.booleans()):
        attrs["boosted"] = draw(st.booleans())
    if draw(st.booleans()):
        attrs["energy_j"] = draw(energy)
        attrs["pool"] = draw(st.sampled_from(["big", "little", ""]))
    if draw(st.booleans()):
        attrs["note"] = draw(odd_attr)
    spans.append(Span("run", track, lane, 0, None, clock, clock + draw(ms), "span", attrs))
    return spans


@st.composite
def cluster_spans(draw, lane: int) -> list[Span]:
    spans = []
    start = draw(ms)
    for shard in range(draw(st.integers(1, 3))):
        spans.append(
            Span(f"shard{shard}", "cluster", lane, 0, None, start, start + draw(ms), "span", {})
        )
    if draw(st.booleans()):
        spans.append(Span("cluster.hedge", "cluster.hedge", lane, 0, None, start, start + 1.0, "span", {}))
    if draw(st.booleans()):
        spans.append(Span("fanout", "cluster", lane, 0, None, start, start, INSTANT, {}))
    return spans


@st.composite
def span_sets(draw) -> list[Span]:
    spans: list[Span] = []
    for track in draw(st.lists(st.sampled_from(["sim", "runtime"]), unique=True, max_size=2)):
        for lane in range(draw(st.integers(1, 12))):
            spans += draw(request_spans(track, lane))
    if draw(st.booleans()):
        for lane in range(draw(st.integers(1, 5))):
            spans += draw(cluster_spans(lane))
    if draw(st.booleans()):
        spans.append(Span("observe.event", "observe", 0, 0, None, 5.0, 5.0, INSTANT, {"kind": "fault"}))
    spans = draw(st.permutations(spans))
    for span_id, span in enumerate(spans, 1):
        span.span_id = span_id
    return spans


def _telemetry(spans: list[Span]) -> Telemetry:
    telemetry = Telemetry()
    telemetry.tracer.spans = spans
    telemetry.metrics.counter("sim.arrivals").inc(len(spans))
    telemetry.metrics.counter("sim.sheds").inc(1)
    telemetry.metrics.counter("unrelated").inc(2)
    return telemetry


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(spans=span_sets(), gz=st.booleans())
def test_round_trip_matches_the_loops(spans, gz):
    suffix = ".json.gz" if gz else ".json"
    telemetry = _telemetry(spans)
    with tempfile.TemporaryDirectory() as directory:
        written = write_chrome_trace(Path(directory) / f"new{suffix}", telemetry)
        reference = ref_write_chrome_trace(Path(directory) / f"old{suffix}", telemetry)
        raw = written.read_bytes()
        if gz:
            raw = gzip.decompress(raw)
            assert raw == gzip.decompress(reference.read_bytes())
        else:
            assert raw == reference.read_bytes()
        try:
            loaded = load_trace(written)
        except ConfigurationError as error:
            with pytest.raises(ConfigurationError, match=str(error)):
                ref_from_chrome(json.loads(raw))
            return
    expected = ref_from_chrome(json.loads(raw))
    assert [span_key(s) for s in loaded.spans] == [span_key(s) for s in expected.spans]
    assert loaded.metrics == expected.metrics
    assert_reports_match(loaded.spans, loaded.counters())


@settings(max_examples=150, deadline=None)
@given(spans=span_sets())
def test_in_memory_spans_match_the_loops(spans):
    # In-memory attrs keep NaN/inf floats and odd types the file coerces.
    assert_reports_match(spans)


@settings(max_examples=50, deadline=None)
@given(spans=span_sets())
def test_jsonl_spans_load_as_before(spans):
    with tempfile.TemporaryDirectory() as directory:
        path = write_spans_jsonl(Path(directory) / "spans.jsonl.gz", spans)
        if not spans:
            with pytest.raises(ConfigurationError, match="no spans found"):
                load_trace(path)
            return
        loaded = load_trace(path)
        text = gzip.decompress(path.read_bytes()).decode("utf-8")
    expected = [span_from_dict(json.loads(line)) for line in text.splitlines() if line]
    assert [span_key(s) for s in loaded.spans] == [span_key(s) for s in expected]


def _document(events: list[dict]) -> dict:
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class TestLoaderEdges:
    def _both(self, tmp_path, document):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(document))
        return load_trace(path), ref_from_chrome(json.loads(path.read_text()))

    def test_process_named_after_its_spans(self, tmp_path):
        events = [
            {"name": "run", "ph": "X", "pid": 1, "tid": 3, "ts": 1000.0, "dur": 5000.0, "args": {}},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "early"}},
            {"name": "boost", "ph": "i", "pid": 2, "tid": 3, "ts": 2000.0, "s": "t"},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "sim"}},
            {"name": "run", "ph": "X", "pid": 1, "tid": 4, "ts": 1500.0, "dur": 1.0, "args": {}},
        ]
        loaded, expected = self._both(tmp_path, _document(events))
        assert [s.track for s in loaded.spans] == ["sim", "2", "sim"]
        assert [span_key(s) for s in loaded.spans] == [span_key(s) for s in expected.spans]

    @pytest.mark.parametrize(
        "event, error",
        [
            ({"name": "process_name", "ph": "M", "args": {"name": "x"}}, KeyError),
            ({"name": "run", "ph": "X", "pid": 1, "ts": "soon"}, ValueError),
            ({"name": "run", "ph": "X", "pid": 1, "args": None}, TypeError),
            ({"name": "run", "ph": "X", "pid": 1, "tid": "lane"}, ValueError),
        ],
    )
    def test_malformed_events_raise_as_before(self, tmp_path, event, error):
        ok = {"name": "run", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1.0}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(_document([ok, event])))
        with pytest.raises(error):
            ref_from_chrome(json.loads(path.read_text()))
        with pytest.raises(error):
            load_trace(path)

    def test_args_given_as_pairs_are_copied_as_before(self, tmp_path):
        event = {"name": "run", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "args": [["k", 1]]}
        loaded, expected = self._both(tmp_path, _document([event]))
        assert loaded.spans[0].attrs == expected.spans[0].attrs == {"k": 1}

    def test_empty_trace_raises(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(_document([])))
        with pytest.raises(ConfigurationError, match="no span events"):
            load_trace(path)
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n")
        with pytest.raises(ConfigurationError, match="no spans found"):
            load_trace(blank)


class TestReportErrors:
    def _run(self, lane, latency, track="sim"):
        return Span(
            "run", track, lane, lane + 1, None, 0.0, latency, "span",
            {"latency_ms": latency, "service_ms": latency},
        )

    def test_no_request_track(self):
        spans = [Span("observe.event", "observe", 0, 1, None, 1.0, 1.0, INSTANT, {})]
        assert outcome(analyze_spans, spans) == outcome(ref_analyze_spans, spans)
        assert outcome(analyze_spans, spans)[1].startswith("no request tracks")

    def test_unknown_track(self):
        spans = [self._run(0, 4.0)]
        new = outcome(analyze_spans, spans, track="cluster")
        assert new == outcome(ref_analyze_spans, spans, track="cluster")
        assert "not in trace" in new[1]

    def test_every_request_shed(self):
        spans = [
            Span("shed", "sim", lane, lane + 1, None, 0.0, 3.0, "span", {})
            for lane in range(3)
        ]
        new = outcome(analyze_spans, spans)
        assert new == outcome(ref_analyze_spans, spans)
        assert "every request was shed" in new[1]

    def test_shed_rows_are_left_out_of_the_sums(self):
        spans = [self._run(lane, 1.0 + lane / 7) for lane in range(9)]
        spans.insert(4, Span("shed", "sim", 99, 50, None, 0.0, 1e6, "span", {}))
        assert_reports_match(spans)
        report = analyze_spans(spans, phi=0.5)
        assert report.tracks["sim"].shed_count == 1
        assert report.tracks["sim"].count == 9

    def test_nan_latencies_name_the_track(self):
        # The loops divide by the empty tail; the report refuses the
        # track instead, which ``repro analyze`` turns into exit 2.
        spans = [
            Span("run", "sim", 0, 1, None, 0.0, 1.0, "span", {"latency_ms": "nan"})
        ]
        assert outcome(ref_analyze_spans, spans)[0] == "ZeroDivisionError"
        error, message = outcome(analyze_spans, spans)
        assert error == "ConfigurationError"
        assert message.startswith("track 'sim': the tail is empty")
