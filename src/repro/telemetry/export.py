"""Exporters: Chrome ``trace_event`` JSON, JSONL, and text dashboards.

Three consumers, three formats:

* :func:`to_chrome_trace` — the Trace Event Format understood by
  ``chrome://tracing`` and Perfetto.  Tracks become processes, lanes
  become threads, spans become complete (``"X"``) events and instants
  become ``"i"`` events; timestamps are microseconds.  Within one
  (process, thread) lane events are emitted sorted by start time with
  longer spans first on ties, which is exactly the nesting order the
  viewers expect.  The event order is deterministic;
  :func:`write_chrome_trace` writes the document as compact
  single-line JSON (``python -m json.tool`` pretty-prints it).
* :func:`write_spans_jsonl` / :func:`read_spans_jsonl` — one span per
  line, loss-free round-trip, for offline analysis (pandas, jq).
* :func:`render_summary` — the plain-text dashboard: counters, gauges,
  histogram percentiles, and per-track span counts, in the same aligned
  style as the experiment tables.

Every file writer and reader here goes through :func:`open_text`, so a
``.gz`` suffix means gzip on both sides.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Sequence

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
        events.append(event)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics is not None:
        document["otherData"] = {"metrics": metrics}
    return document


def write_chrome_trace(
    path: str | Path, telemetry: "Telemetry"
) -> Path:
    """Write one telemetry pipeline's spans + metrics as a Chrome trace.

    The file is compact single-line JSON: ``json`` uses its C encoder
    only without ``indent``, and the pure-Python one costs several
    times more on a long traced run.
    """
    path = Path(path)
    document = to_chrome_trace(telemetry.tracer.spans, telemetry.metrics.as_dict())
    with open_text(path, "w") as handle:
        handle.write(json.dumps(document, separators=(",", ":")))
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


def span_from_dict(data: dict) -> Span:
    """Inverse of :func:`span_to_dict`."""
    return Span(
        name=data["name"],
        track=data["track"],
        lane=data["lane"],
        span_id=data["span_id"],
        parent_id=data["parent_id"],
        start_ms=data["start_ms"],
        end_ms=data["end_ms"],
        kind=data["kind"],
        attrs=dict(data.get("attrs", {})),
    )


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
