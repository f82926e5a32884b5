"""Exporters: Chrome ``trace_event`` JSON, JSONL, and text dashboards.

Three consumers, three formats:

* :func:`to_chrome_trace` — the Trace Event Format understood by
  ``chrome://tracing`` and Perfetto.  Tracks become processes, lanes
  become threads, spans become complete (``"X"``) events and instants
  become ``"i"`` events; timestamps are microseconds.  Within one
  (process, thread) lane events are emitted sorted by start time with
  longer spans first on ties, which is exactly the nesting order the
  viewers expect.  The event order is deterministic;
  :func:`write_chrome_trace` writes the same document as compact
  single-line JSON, encoded a chunk of events at a time
  (``python -m json.tool`` pretty-prints it).
* :func:`write_spans_jsonl` / :func:`read_spans_jsonl` — one span per
  line, loss-free round-trip, for offline analysis (pandas, jq).
* :func:`render_summary` — the plain-text dashboard: counters, gauges,
  histogram percentiles, and per-track span counts, in the same aligned
  style as the experiment tables.

Every file writer and reader here goes through :func:`open_text`, so a
``.gz`` suffix means gzip on both sides.
"""

from __future__ import annotations

import gc
import gzip
import io
import json
import math
import os
import threading
from itertools import islice
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.telemetry.spans import INSTANT, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

__all__ = [
    "open_text",
    "to_chrome_trace",
    "write_chrome_trace",
    "span_to_dict",
    "span_from_dict",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "render_summary",
]

#: Attr value types JSON holds as they are (floats only when finite).
_JSON_SCALARS = frozenset({str, int, bool, float, type(None)})
#: Events :func:`write_chrome_trace` encodes per ``json`` call: enough
#: to keep the per-call cost negligible, few enough that a chunk's
#: dicts, the encoder's fragments and the text stay near a megabyte.
_WRITE_EVENTS = 256
#: ``json.dumps(..., separators=(",", ":"))`` as a reusable encoder.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def open_text(path: str | Path, mode: str = "r") -> IO[str]:
    """Open a trace or time-series file as UTF-8 text.

    A ``.gz`` suffix means gzip, for writers and readers alike.
    Appending to a ``.gz`` file adds a new gzip member, which
    :func:`gzip.decompress` and :func:`gzip.open` read as one stream.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")


class _collector_paused:
    """Run a bulk build of acyclic data with the cyclic GC paused.

    The trace writer and the trace loader allocate tens of thousands of
    dicts, lists, strs and floats that stay alive until the build
    returns, so every collection that lands inside it walks them and
    frees nothing.  Reference counting still frees everything they drop.

    The pause is process-wide (:func:`gc.disable`).  The collector is
    re-enabled on exit only if it was enabled on entry: a caller that
    disabled it keeps it disabled, and two threads pausing at once can
    only leave it enabled.  A class rather than a generator, so that
    nothing is allocated between re-enabling and returning to the
    caller.
    """

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self._enabled:
            gc.enable()


def _jsonable(value: object) -> object:
    """Coerce attr values to something JSON can hold."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    return str(value)


def _json_args(attrs: dict) -> dict:
    """A span's attrs as event args: a plain copy when every value is a
    JSON scalar already (the common case), else coerced value by value.

    ``value - value`` is 0.0 exactly for finite floats and NaN for NaN
    and infinities.  Subclasses (``numpy.float64``, enums) take the
    coercing path, so :func:`_jsonable` alone decides their form.
    """
    for value in attrs.values():
        kind = type(value)
        if kind not in _JSON_SCALARS or (kind is float and value - value != 0.0):
            return {k: _jsonable(v) for k, v in attrs.items()}
    return dict(attrs)


# ----------------------------------------------------------------------
# Chrome trace_event format
# ----------------------------------------------------------------------
def _chrome_events(spans: Sequence[Span]) -> Iterator[dict]:
    """The trace's events in document order, one at a time (see
    :func:`to_chrome_trace`): only the pid table, the lane list and the
    sort keys are held for the whole trace."""
    pids = {track: pid for pid, track in enumerate(sorted({s.track for s in spans}), 1)}
    for track, pid in pids.items():
        yield {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": track},
        }
    lanes = sorted({(pids[s.track], s.lane) for s in spans})
    for pid, lane in lanes:
        yield {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": lane,
            "args": {"name": f"lane {lane}"},
        }
    del lanes
    # Viewer-friendly order: per lane, by start time, longest first on
    # ties — equal-start spans then nest outermost-first.  ``start - end``
    # is exactly ``-duration_ms`` (subtraction rounds the same either way
    # and negation is exact), and the trailing index keeps equal keys in
    # input order as a stable sort would, so plain tuples sort without a
    # key function.
    order = sorted(
        (pids[s.track], s.lane, s.start_ms, s.start_ms - s.end_ms, index)
        for index, s in enumerate(spans)
        if s.end_ms is not None
    )
    for pid, lane, start_ms, _, index in order:
        span = spans[index]
        event = {
            "name": span.name,
            "ph": "i" if span.kind == INSTANT else "X",
            "pid": pid,
            "tid": lane,
            "ts": start_ms * 1000.0,  # trace_event wants microseconds
            "args": _json_args(span.attrs),
        }
        if span.kind == INSTANT:
            event["s"] = "t"  # instant scoped to its thread lane
        else:
            event["dur"] = (span.end_ms - start_ms) * 1000.0
        yield event


def to_chrome_trace(
    spans: Sequence[Span], metrics: dict | None = None
) -> dict:
    """Build a Trace-Event-Format document from finished spans.

    ``metrics`` (a :meth:`MetricsRegistry.as_dict` snapshot) rides along
    under ``otherData`` so one file carries the whole story.

    The document is fully deterministic: all metadata ("M") events come
    first — ``process_name`` per track in sorted-track order, then
    ``thread_name`` per (track, lane) in (track, lane) order — followed
    by the span events in (pid, tid, start, -duration) order, ties kept
    in input order.  Identical runs therefore give identical documents,
    and the analyzer can rely on metadata preceding the events it
    describes.
    """
    document = {"traceEvents": list(_chrome_events(spans)), "displayTimeUnit": "ms"}
    if metrics is not None:
        document["otherData"] = {"metrics": metrics}
    return document


def _chrome_text(spans: Sequence[Span], metrics: dict) -> Iterator[str]:
    """``json.dumps(to_chrome_trace(spans, metrics), separators=(",",
    ":"))`` in pieces: the events are encoded ``_WRITE_EVENTS`` at a
    time, and a compact list's items are joined by bare commas, so the
    pieces concatenate to exactly that text."""
    yield '{"traceEvents":['
    events = _chrome_events(spans)
    separator = ""
    while chunk := list(islice(events, _WRITE_EVENTS)):
        yield separator
        yield _ENCODE(chunk)[1:-1]
        separator = ","
    yield '],"displayTimeUnit":"ms","otherData":'
    yield _ENCODE({"metrics": metrics})
    yield "}"


def _replace_atomically(path: Path, pieces: Iterable[str]) -> None:
    """Write ``pieces`` as UTF-8 text to a temporary sibling of
    ``path`` (gzip-compressed when ``path`` ends in ``.gz``, as
    :func:`open_text` would), then rename it over ``path``: a write that
    raises leaves neither a partial file nor the temporary behind, and
    an existing ``path`` untouched.

    The temporary's name carries the process and thread, so concurrent
    writers never share one, and it is created with the permissions a
    plain ``open`` gives.
    """
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temporary, "wb") as raw:
            binary = (
                gzip.GzipFile(filename=path, mode="wb", fileobj=raw)
                if path.suffix == ".gz"
                else raw
            )
            with io.TextIOWrapper(binary, encoding="utf-8") as handle:
                handle.writelines(pieces)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def write_chrome_trace(
    path: str | Path, telemetry: "Telemetry"
) -> Path:
    """Write one telemetry pipeline's spans + metrics as a Chrome trace.

    The file is compact single-line JSON, byte for byte
    ``json.dumps(to_chrome_trace(...), separators=(",", ":"))``: ``json``
    uses its C encoder only without ``indent``, and the pure-Python one
    costs several times more on a long traced run.  It is encoded
    ``_WRITE_EVENTS`` events at a time, so besides the spans only their
    sort keys and one chunk are held, not the document or its text.
    The file appears only once it is complete (a temporary sibling is
    renamed over ``path``).  The write runs with the cyclic GC paused
    (:class:`_collector_paused`): its bulk data are sort-key tuples and
    plain dicts, lists, strs and floats, none of which refers back to
    another.
    """
    path = Path(path)
    with _collector_paused():
        _replace_atomically(
            path, _chrome_text(telemetry.tracer.spans, telemetry.metrics.as_dict())
        )
    return path


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
def span_to_dict(span: Span) -> dict:
    """Loss-free dict form of a finished span."""
    return {
        "name": span.name,
        "track": span.track,
        "lane": span.lane,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_ms": span.start_ms,
        "end_ms": span.end_ms,
        "kind": span.kind,
        "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
    }


def _span_fields(data: dict) -> tuple:
    """A :func:`span_to_dict` dict's :class:`Span` fields, in order."""
    return (
        data["name"],
        data["track"],
        data["lane"],
        data["span_id"],
        data["parent_id"],
        data["start_ms"],
        data["end_ms"],
        data["kind"],
        dict(data.get("attrs", {})),
    )


def span_from_dict(data: dict) -> Span:
    """Inverse of :func:`span_to_dict`."""
    return Span(*_span_fields(data))


def write_spans_jsonl(path: str | Path, spans: Iterable[Span]) -> Path:
    """One span per line; streams without building the document."""
    path = Path(path)
    with open_text(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span_to_dict(span)))
            handle.write("\n")
    return path


def read_spans_jsonl(path: str | Path) -> list[Span]:
    """Load spans written by :func:`write_spans_jsonl`."""
    spans: list[Span] = []
    with open_text(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(span_from_dict(json.loads(line)))
    return spans


# ----------------------------------------------------------------------
# Text dashboard
# ----------------------------------------------------------------------
def _format(value: float) -> str:
    if value != value:  # NaN
        return "nan"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _aligned(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    widths = [
        max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(w) if i == 0 else cell.rjust(w)
                for i, (cell, w) in enumerate(zip(row, widths))
            )
        )
    return lines


def render_summary(telemetry: "Telemetry") -> str:
    """The plain-text dashboard for one telemetry pipeline."""
    metrics = telemetry.metrics
    parts: list[str] = ["=== telemetry summary ==="]

    counters = sorted(metrics.counters.items())
    if counters:
        parts.append("")
        parts.extend(
            _aligned(
                ["counter", "value"],
                [[name, str(c.value)] for name, c in counters],
            )
        )

    gauges = sorted(metrics.gauges.items())
    if gauges:
        parts.append("")
        parts.extend(
            _aligned(
                ["gauge", "value", "max"],
                [[name, _format(g.value), _format(g.max_value)] for name, g in gauges],
            )
        )

    histograms = sorted(metrics.histograms.items())
    if histograms:
        parts.append("")
        rows = []
        for name, hist in histograms:
            rows.append(
                [
                    name,
                    str(hist.count),
                    _format(hist.mean()),
                    _format(hist.percentile(0.50)),
                    _format(hist.percentile(0.90)),
                    _format(hist.percentile(0.99)),
                    _format(hist.max),
                ]
            )
        parts.extend(
            _aligned(["histogram", "count", "mean", "p50", "p90", "p99", "max"], rows)
        )

    spans = telemetry.tracer.spans
    if spans:
        per_track: dict[str, int] = {}
        for span in spans:
            per_track[span.track] = per_track.get(span.track, 0) + 1
        parts.append("")
        parts.extend(
            _aligned(
                ["track", "spans"],
                [[track, str(n)] for track, n in sorted(per_track.items())],
            )
        )
    return "\n".join(parts)
