"""The streaming trace reader against the loaders it replaced.

``load_trace`` and ``analyze_trace`` read a file a piece at a time and
decode each piece's run of Chrome events in one call (one event per
call where the run does not decode whole) or one JSONL line at a
time.  The reference here
is the loader before that: the whole text parsed first, the Chrome loop
of ``test_trace_oracle`` (``ref_from_chrome``) when it is one object
with ``traceEvents``, else one span per line; and the report loops of
that module over its spans.  Every comparison is exact: span keys with
``float.hex``, metrics, request views, report JSON and text, and the
type and message of every error.  The read size is patched down to a
few characters, so pieces end inside strings, escapes, numbers such as
``1e-07`` and between tokens.
"""

from __future__ import annotations

import gzip
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.observe import analyze as analyze_mod
from repro.observe.analyze import (
    TraceData,
    analyze_spans,
    analyze_trace,
    load_trace,
)
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry import Telemetry
from repro.telemetry import export as export_mod
from repro.telemetry.export import (
    open_text,
    span_from_dict,
    span_to_dict,
    to_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.telemetry.spans import INSTANT, Span
from tests.observe.test_trace_oracle import (
    ref_analyze_spans,
    ref_from_chrome,
    ref_requests_from_spans,
    span_key,
    span_sets,
    view_key,
)

#: Read sizes: a character, a few, and more than a small file holds.
READS = (1, 2, 7, 64, 1 << 16)
#: Events the writer encodes per ``json`` call.
CHUNK = export_mod._WRITE_EVENTS


# ----------------------------------------------------------------------
# The loader before streaming, and exact outcomes
# ----------------------------------------------------------------------
def ref_load_trace(path: Path) -> TraceData:
    if path.suffix == ".gz":
        text = gzip.decompress(path.read_bytes()).decode("utf-8")
    else:
        text = path.read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and "traceEvents" in document:
        return ref_from_chrome(document)
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(span_from_dict(json.loads(line)))
    if not spans:
        raise ConfigurationError(f"{path}: no spans found (empty trace?)")
    return TraceData(spans=spans)


def _error(error: Exception) -> tuple:
    return "error", type(error).__name__, str(error)


def loaded(load, path: Path) -> tuple:
    """The spans and metrics ``load(path)`` gives, or its error."""
    try:
        trace = load(path)
    except Exception as error:  # every error must match, whatever it is
        return _error(error)
    return [span_key(s) for s in trace.spans], trace.metrics


def views(per_track: dict) -> dict:
    return {track: [view_key(v) for v in rows] for track, rows in per_track.items()}


def reported(path: Path, phi: float, top: int) -> tuple:
    """``analyze_trace``'s request views and report, or its error."""
    try:
        rows, _ = analyze_mod._read_trace(path, analyze_mod._TrackRows)
        per_track = {t: c.views() for t, c in rows.columns().items()}
        report = analyze_trace(path, phi=phi, top=top)
    except Exception as error:
        return _error(error)
    return views(per_track), json.dumps(report.to_json()), report.render()


def ref_reported(path: Path, phi: float, top: int) -> tuple:
    try:
        trace = ref_load_trace(path)
        per_track = ref_requests_from_spans(trace.spans)
        report = ref_analyze_spans(trace.spans, phi=phi, counters=trace.counters(), top=top)
    except Exception as error:
        return _error(error)
    return views(per_track), json.dumps(report.to_json()), report.render()


def assert_streams_as_before(path: Path, phi: float = 0.9, top: int = 50) -> None:
    expected = loaded(ref_load_trace, path)
    for read in READS:
        with mock.patch.object(analyze_mod, "_READ_CHARS", read):
            assert loaded(load_trace, path) == expected, read
            assert reported(path, phi, top) == ref_reported(path, phi, top), read


# ----------------------------------------------------------------------
# Random traces with escapes and exponent floats
# ----------------------------------------------------------------------
#: Strings whose JSON form is mostly escapes: quotes, backslashes,
#: control characters and non-ASCII (``\\uXXXX``, surrogate pairs), or
#: that look like the boundary between two events.
escaped = st.one_of(
    st.text(alphabet=st.sampled_from('"\\\n\t\x00\x1fé€😀aZ0 /{},[]'), max_size=10),
    st.sampled_from(["},{", "}, {", '"},{"', "}],[{", "]},{", "},\n{"]),
)
#: Floats whose shortest repr has an exponent: ``1e-07``, ``2.5e+16``.
exponent = st.one_of(st.floats(1e-12, 1e-5), st.floats(1e16, 1e20))


@st.composite
def traces(draw) -> list[Span]:
    spans = draw(span_sets())
    for span in spans:
        if draw(st.booleans()):
            span.attrs["text"] = draw(escaped)
        if draw(st.booleans()):
            span.attrs["tiny"] = draw(exponent)
    for lane in range(draw(st.integers(0, 3))):
        at = draw(exponent) / 1e3
        spans.append(
            Span(draw(escaped), draw(escaped) or "x", lane, 0, None, at, at, INSTANT, {})
        )
    for span_id, span in enumerate(spans, 1):
        span.span_id = span_id
    return spans


def _telemetry(spans: list[Span]) -> Telemetry:
    telemetry = Telemetry()
    telemetry.tracer.spans = spans
    telemetry.metrics.counter("sim.arrivals").inc(len(spans))
    telemetry.metrics.counter("sim.sheds").inc(1)
    return telemetry


@settings(max_examples=60, deadline=None)
@given(
    spans=traces(),
    read=st.integers(1, 9),
    gz=st.booleans(),
    indent=st.sampled_from([None, 1]),
)
def test_streamed_round_trip_matches_the_loaders(spans, read, gz, indent):
    telemetry = _telemetry(spans)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / ("trace.json.gz" if gz else "trace.json")
        if indent is None:
            write_chrome_trace(path, telemetry)
        else:
            document = to_chrome_trace(telemetry.tracer.spans, telemetry.metrics.as_dict())
            with open_text(path, "w") as handle:
                handle.write(json.dumps(document, indent=indent))
        expected = loaded(ref_load_trace, path)
        with mock.patch.object(analyze_mod, "_READ_CHARS", read):
            assert loaded(load_trace, path) == expected
            for phi in (0.5, 0.99):
                assert reported(path, phi, 3) == ref_reported(path, phi, 3)


@settings(max_examples=30, deadline=None)
@given(spans=traces(), read=st.integers(1, 9), lines=st.sampled_from(["\n", "\r\n", "\n\n"]))
def test_streamed_jsonl_matches_the_loaders(spans, read, lines):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "spans.jsonl"
        path.write_bytes(
            lines.join(json.dumps(span_to_dict(s)) for s in spans).encode("utf-8")
        )
        expected = loaded(ref_load_trace, path)
        with mock.patch.object(analyze_mod, "_READ_CHARS", read):
            assert loaded(load_trace, path) == expected
            assert reported(path, 0.9, 3) == ref_reported(path, 0.9, 3)


# ----------------------------------------------------------------------
# Foreign formatting, foreign documents, broken files
# ----------------------------------------------------------------------
def _run(lane: int, track: str = "sim", **attrs) -> Span:
    start = 10.0 + lane
    end = start + 2.5 + lane / 3
    attrs = {name: 0.5 + lane / 7 for name in ATTRIBUTION_COMPONENTS} | attrs
    attrs.setdefault("latency_ms", end - start + 0.5 + lane / 7)
    return Span("run", track, lane, 0, None, start, end, "span", attrs)


def _spans() -> list[Span]:
    spans = [_run(lane, boosted=lane % 2 == 0, pool="big") for lane in range(6)]
    spans += [
        Span("queue", "sim", 9, 0, None, 1.0, 4.5, "span", {"wait": "e1"}),
        Span("run", "sim", 9, 0, None, 4.5, 7.0, "span", {"degree": 1}),
        Span("queue", "sim", 9, 0, None, 0.25, 1.0, "span", {"wait": "d"}),
        Span("shed", "sim", 10, 0, None, 2.0, 9.0, "span", {}),
        Span("boost", "sim", 3, 0, None, 11.0, 11.0, INSTANT, {"degree": 2}),
        _run(1, "runtime", energy_j=math.nan, note='say "hi"\\'),
        Span("shard0", "cluster", 0, 0, None, 1.0, 5.0, "span", {}),
        Span("shard1", "cluster", 0, 0, None, 1.0, 3.0, "span", {}),
        Span("hedge0", "cluster.hedge", 0, 0, None, 2.0, 3.0, "span", {}),
        Span("admit", "sim.sched", 4, 0, None, 1e-10, 1e-10, INSTANT, {"load": 1e-7}),
    ]
    for span_id, span in enumerate(spans, 1):
        span.span_id = span_id
    return spans


def _document() -> dict:
    telemetry = _telemetry(_spans())
    return to_chrome_trace(telemetry.tracer.spans, telemetry.metrics.as_dict())


def _write(path: Path, text: str) -> Path:
    with open_text(path, "w") as handle:
        handle.write(text)
    return path


def _compact(document) -> str:
    return json.dumps(document, separators=(",", ":"))


def _late_names(document: dict) -> dict:
    """Every span event first, then the metadata; pid 1 is named twice,
    the first time among its own spans."""
    events = document["traceEvents"]
    spans = [e for e in events if e["ph"] != "M"]
    names = [e for e in events if e["name"] == "process_name"]
    threads = [e for e in events if e["name"] == "thread_name"]
    early = dict(names[0], args={"name": "early"})
    return dict(document, traceEvents=spans[:2] + [early] + spans[2:] + names + threads)


def _variants() -> dict[str, str]:
    document = _document()
    events = document["traceEvents"]
    return {
        "compact": _compact(document),
        "indented": json.dumps(document, indent=1),
        "four-space json.tool": json.dumps(document, indent=4) + "\n",
        "trace-events-last": _compact(
            {"otherData": document["otherData"], "displayTimeUnit": "ms", "traceEvents": events}
        ),
        "metadata-after-spans": _compact(_late_names(document)),
        "metadata-after-spans-indented": json.dumps(_late_names(document), indent=2),
        "trace-events-twice": (
            '{"traceEvents":' + _compact(events[:3]) + ',"otherData":{"metrics":null},'
            + _compact(document)[1:]
        ),
        "escaped-key": _compact(document).replace('"traceEvents"', '"trace\\u0045vents"', 1),
        "crlf-whitespace": json.dumps(document, indent="\t").replace("\n", "\r\n"),
        "no-metrics": _compact({"traceEvents": events}),
        "no-events": _compact({"traceEvents": []}),
        "metadata-only": _compact({"traceEvents": events[:3]}),
        "events-not-a-list": '{"traceEvents": {"a": 1}}',
        "events-null": '{"traceEvents": null}',
        "events-number": '{"traceEvents": 12}',
        "events-string": '{"traceEvents": "X"}',
        "other-data-list": _compact({"traceEvents": events, "otherData": [1]}),
        "no-trace-events": '{"displayTimeUnit": "ms"}',
        "top-level-list": _compact(events),
        "empty": "",
        "whitespace": " \n\t ",
        "trailing-whitespace": _compact(document) + " \r\n\t\n",
        "trailing-garbage": _compact(document) + "x",
        "trailing-object": _compact(document) + "\n{}",
        "trailing-bracket": _compact(document) + "]",
        "indented-trailing-garbage": json.dumps(document, indent=1) + "\n}",
        "trailing-comma": _compact(document)[:-1] + ",}",
        "event-trailing-comma": _compact(document).replace("]", ",]", 1),
        "malformed-event-then-truncated": _compact(
            {"traceEvents": [{"ph": "X", "ts": "soon"}] + events}
        )[:-20],
        "malformed-event": _compact({"traceEvents": events + [{"ph": "X", "pid": 1, "ts": "soon"}]}),
        "malformed-metadata": _compact({"traceEvents": [{"ph": "M", "name": "process_name"}] + events}),
        "nested-objects-in-args": _compact(
            {
                "traceEvents": [
                    dict(e, args={"list": [{"a": 1}, {"b": [{}, {}]}], "s": "},{"})
                    for e in events
                ]
            }
        ),
        "elements-not-objects": _compact({"traceEvents": events[:5] + [1, "x"] + events[5:]}),
        "args-as-pairs": _compact({"traceEvents": [dict(events[-1], args=[["k", 1]])]}),
        "args-null": _compact({"traceEvents": [dict(events[-1], args=None)]}),
        "unhashable-pid": _compact({"traceEvents": [dict(events[-1], pid=[1])]}),
        "jsonl-one-line": json.dumps(span_to_dict(_spans()[0])),
        "jsonl-many-lines": "\n".join(json.dumps(span_to_dict(s)) for s in _spans()) + "\n",
        "jsonl-blank-lines": "\n\n".join(json.dumps(span_to_dict(s)) for s in _spans()),
        "jsonl-bad-line": json.dumps(span_to_dict(_spans()[0])) + "\n{nope}\n",
        "jsonl-missing-field": '{"name": "run"}\n',
    }


@pytest.mark.parametrize("name", sorted(_variants()))
@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_foreign_files_stream_as_before(tmp_path, name, suffix):
    path = _write(tmp_path / f"trace{suffix}", _variants()[name])
    assert_streams_as_before(path)


def test_late_names_put_spans_on_their_final_tracks(tmp_path):
    path = _write(tmp_path / "trace.json", _variants()["metadata-after-spans"])
    spans = load_trace(path).spans
    assert spans[0].track == "cluster" and "early" not in {s.track for s in spans}
    assert {s.track for s in spans} == {"sim", "sim.sched", "runtime", "cluster", "cluster.hedge"}
    assert set(analyze_trace(path).tracks) == {"sim", "runtime", "cluster"}


@pytest.mark.parametrize("indent", [None, 1])
def test_truncated_files_stream_as_before(tmp_path, indent):
    document = _document()
    text = _compact(document) if indent is None else json.dumps(document, indent=indent)
    # Cuts spread over the text, plus cuts inside an exponent, an escape
    # and a key.
    cuts = set(range(0, len(text), max(1, len(text) // 40)))
    for token in ("e-07", '\\"hi', '"traceEvents"', '"otherData"'):
        at = text.index(token)
        cuts.update(range(at, at + len(token)))
    for cut in sorted(cuts):
        path = _write(tmp_path / "trace.json", text[:cut])
        expected = loaded(ref_load_trace, path)
        with mock.patch.object(analyze_mod, "_READ_CHARS", 7):
            assert loaded(load_trace, path) == expected, cut
            assert reported(path, 0.9, 3) == ref_reported(path, 0.9, 3), cut


def test_truncated_gzip_raises_as_before(tmp_path):
    path = tmp_path / "trace.json.gz"
    path.write_bytes(gzip.compress(_compact(_document()).encode())[:-30])
    expected = loaded(ref_load_trace, path)
    assert expected[:2] == ("error", "EOFError")
    assert loaded(load_trace, path) == expected


def test_analyze_trace_is_analyze_spans_over_load_trace(tmp_path):
    path = _write(tmp_path / "trace.json", _variants()["compact"])
    trace = load_trace(path)

    def outcome(fn, *args) -> tuple:
        try:
            report = fn(*args)
        except ConfigurationError as error:
            return _error(error)
        return json.dumps(report.to_json()), report.render()

    for track in (None, "sim", "runtime", "cluster", "nope"):
        for phi in (0.5, 0.99, 1.5):
            for top in (0, 3):
                assert outcome(analyze_trace, path, phi, track, top) == outcome(
                    analyze_spans, trace.spans, phi, trace.counters(), track, top
                )


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------
class TestAtomicWriter:
    def test_gzip_target_is_compressed_and_named_as_before(self, tmp_path):
        telemetry = _telemetry(_spans())
        path = write_chrome_trace(tmp_path / "trace.json.gz", telemetry)
        raw = path.read_bytes()
        assert raw[:2] == b"\x1f\x8b"
        # The gzip header names the target, as gzip.open(path) would.
        assert raw[10 : 10 + len(b"trace.json\x00")] == b"trace.json\x00"
        assert gzip.decompress(raw).decode() == _compact(
            to_chrome_trace(telemetry.tracer.spans, telemetry.metrics.as_dict())
        )
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json.gz"]

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        telemetry = _telemetry(_spans())
        path = write_chrome_trace(tmp_path / "trace.json", telemetry)
        before = path.read_bytes()

        def broken(spans):
            yield {"name": "half"}
            raise ValueError("unencodable")

        monkeypatch.setattr(export_mod, "_chrome_events", broken)
        with pytest.raises(ValueError, match="unencodable"):
            write_chrome_trace(path, telemetry)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    @pytest.mark.parametrize(
        "events", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + CHUNK // 3]
    )
    def test_chunk_edges_write_the_document_text(self, tmp_path, events):
        spans = [
            Span("run", "sim", lane, lane + 1, None, float(lane), lane + 0.5, "span", {"k": lane})
            for lane in range(events)
        ]
        telemetry = _telemetry(spans)
        text = write_chrome_trace(tmp_path / "t.json", telemetry).read_text()
        assert text == _compact(
            to_chrome_trace(telemetry.tracer.spans, telemetry.metrics.as_dict())
        )


def test_jsonl_gz_stream_matches(tmp_path):
    path = write_spans_jsonl(tmp_path / "spans.jsonl.gz", _spans())
    assert_streams_as_before(path)
