"""Offline trace analysis: who is the p99, and why?

Ingests a trace written by any experiment's ``--trace`` flag — Chrome
``trace_event`` JSON (:func:`repro.telemetry.export.write_chrome_trace`)
or span JSONL (:func:`~repro.telemetry.export.write_spans_jsonl`) —
reconstructs per-request views, identifies the requests composing the
φ-tail, and attributes their latency to the flight recorder's additive
components (queue wait, service, contention, boost wait, stall; see
DESIGN.md §9).  For cluster tracks it correlates tail membership with
hedging, and it echoes the run's fault/shed/hedge counters so a tail
report carries its context.

Used as a library (:func:`analyze_trace`) and as the ``repro analyze``
CLI::

    repro-fm tail-attribution --trace trace.json
    repro analyze trace.json --phi 0.99 --json report.json
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path
from typing import IO, Callable, Iterator

from repro.errors import ConfigurationError
from repro.experiments.report import render_table
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry.export import _collector_paused, _span_fields, open_text
from repro.telemetry.spans import INSTANT, Span

__all__ = [
    "RequestView",
    "TraceData",
    "TrackReport",
    "AnalysisReport",
    "load_trace",
    "requests_from_spans",
    "analyze_spans",
    "analyze_trace",
    "main",
]

#: Tracks holding one request per lane with queue/run/shed spans.
_REQUEST_TRACKS = ("sim", "runtime")
#: Tracks whose spans the cluster views are built from.
_CLUSTER_TRACKS = ("cluster", "cluster.hedge")
#: Counters worth echoing into a tail report, when present.
_CONTEXT_COUNTERS = (
    "sim.arrivals",
    "sim.completions",
    "sim.sheds",
    "sim.boosts",
    "sim.degree_raises",
    "sim.migrations",
    "runtime.arrivals",
    "runtime.completions",
    "runtime.sheds",
    "runtime.deadline_sheds",
    "cluster.queries",
    "cluster.hedges",
    "cluster.retries",
    "cluster.retry.injected_work",
    "cluster.deadline_misses",
)
#: The components a row carries: a run span with flight-recorder attrs,
#: a pre-attribution run span (coarse two-way split), a shed span.
_COARSE = ("queue_ms", "execute_ms")
_SHED = ("queue_ms",)
#: Characters the trace reader takes from the file per read (at least;
#: a value longer than the text held doubles the next read).
_READ_CHARS = 1 << 16
#: The errors a malformed event or span raises while it is read or
#: turned into a row.
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)
#: ``json``'s whitespace between tokens.
_WHITESPACE = re.compile(r"[ \t\n\r]*").match
#: The end of one object and the start of the next in an array.
_BOUNDARY = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{").match
_DECODE = json.JSONDecoder().raw_decode


@dataclass
class RequestView:
    """One reconstructed request: latency plus its additive components."""

    track: str
    lane: int
    start_ms: float
    end_ms: float
    latency_ms: float
    #: Additive decomposition (sums to ``latency_ms`` when the trace
    #: carries flight-recorder attrs; coarse queue/execute otherwise).
    components: dict[str, float] = field(default_factory=dict)
    boosted: bool = False
    hedged: bool = False
    shed: bool = False
    #: Joules this request burned (``nan`` when the trace predates
    #: energy accounting or the run was homogeneous-legacy).
    energy_j: float = math.nan
    #: Core pool the request finished on (``""`` when untracked).
    pool: str = ""

    def dominant_component(self) -> str:
        """The component contributing the most latency."""
        if not self.components:
            return "unknown"
        return max(self.components.items(), key=lambda kv: kv[1])[0]


@dataclass
class TraceData:
    """A loaded trace: reconstructed spans plus the metrics snapshot."""

    spans: list[Span]
    metrics: dict | None = None

    def counters(self) -> dict[str, int]:
        if not self.metrics:
            return {}
        return dict(self.metrics.get("counters", {}))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
class _NotChrome(Exception):
    """The file is not one JSON object with a ``traceEvents`` key."""


class _Text:
    """A text file read a piece at a time: ``text[pos:]`` is read and
    not yet consumed."""

    def __init__(self, handle: IO[str]) -> None:
        self._read = handle.read
        self.text = ""
        self.pos = 0
        self.done = False

    def more(self) -> bool:
        """Drop the consumed text and append the next piece; False at
        the end of the file."""
        if self.done:
            return False
        rest = self.text[self.pos :]
        piece = self._read(max(_READ_CHARS, len(rest)))
        if not piece:
            self.done = True
            return False
        self.text = rest + piece
        self.pos = 0
        return True

    def peek(self) -> str:
        """Skip whitespace: the next character, ``""`` at the end."""
        while True:
            self.pos = _WHITESPACE(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            if not self.more():
                return ""

    def take(self, allowed: str) -> str:
        """Consume the next character, which must be one of ``allowed``."""
        char = self.peek()
        if not char or char not in allowed:
            raise _NotChrome
        self.pos += 1
        return char

    def value(self) -> object:
        """Decode the JSON value at the next character."""
        self.peek()
        while True:
            try:
                value, end = _DECODE(self.text, self.pos)
            except json.JSONDecodeError:
                if self.more():  # cut off at the end of what was read
                    continue
                raise _NotChrome from None
            # A number can run on into the next piece ("1e" + "-7").
            if len(self.text) - end < 3 and self.more():
                continue
            self.pos = end
            return value

    def elements(self) -> Iterator[object]:
        """The values of the array whose ``[`` was just consumed.

        The values up to the last ``},{`` of the text read are decoded
        in one call, wrapped in brackets: ``json`` shares key strings
        within a call, and the per-call cost is paid once per run.  The
        wrapped text decodes, to its last character, only when the cut
        falls between two elements of this array: a cut inside a string
        or a nested value leaves it unbalanced, and one past the array's
        ``]`` ends the decode early.  Otherwise (a run is tried once per
        text read), and for the values after the cut, each is decoded
        by :meth:`value`, whose read on brings the next run.
        """
        if self.peek() == "]":
            self.pos += 1
            return
        text = cut = None
        while True:
            if self.text is not text:
                text = self.text
                cut = _last_boundary(text, self.pos)
            if cut is not None and self.pos < cut.start():
                run = "[" + text[self.pos : cut.start() + 1] + "]"
                try:
                    values, end = _DECODE(run)
                except json.JSONDecodeError:  # the cut is inside an element
                    end = -1
                if end == len(run):
                    self.pos = cut.end() - 1
                    yield from values
                    continue
                cut = None
            value = self.value()
            last = self.take(",]") == "]"
            yield value
            if last:
                return


def _last_boundary(text: str, start: int) -> re.Match | None:
    """The last ``},{`` (whitespace allowed) in ``text[start:]``."""
    end = len(text)
    while (end := text.rfind("}", start, end)) >= 0:
        if boundary := _BOUNDARY(text, end):
            return boundary
    return None


class _ChromePass:
    """One pass over a Chrome trace-event document, handing each span
    event to a sink as :class:`Span` fields.

    It reads what ``json.loads`` followed by the old per-event loop
    read, a piece of text at a time (:meth:`_Text.elements`): the last
    ``traceEvents`` and ``otherData`` keys win, a span's id is its
    event's position plus one, and an event's error is raised only once
    the whole text is known to parse (a text that does not parse is
    read as JSONL).
    ``names``, when given, are the final pid names of an earlier pass,
    for documents that name a process after its first span event.
    """

    def __init__(self, new_sink: Callable, names: dict | None = None) -> None:
        self._new_sink = new_sink
        self._fixed = names
        self._events = False
        self._other = None

    def read(self, handle: IO[str]) -> "_ChromePass":
        text = _Text(handle)
        text.take("{")
        if text.peek() == "}":
            text.pos += 1
        else:
            while True:
                if text.peek() != '"':
                    raise _NotChrome
                key = text.value()
                text.take(":")
                if key == "traceEvents":
                    if text.peek() == "[":
                        text.pos += 1
                        self._take(text.elements())
                    else:
                        self._take(text.value())
                else:
                    value = text.value()
                    if key == "otherData":
                        self._other = value
                if text.take(",}") == "}":
                    break
        if text.peek() or not self._events:
            raise _NotChrome
        if self.failure is not None:
            raise self.failure
        if not self.count:
            raise ConfigurationError("trace document holds no span events")
        self.metrics = (self._other or {}).get("metrics")
        return self

    def _take(self, events: object) -> None:
        """Feed one ``traceEvents`` value's events to a new sink."""
        self._events = True
        self.sink = sink = self._new_sink()
        add = sink.add
        self.names = names = {} if self._fixed is None else self._fixed
        learn = self._fixed is None
        self.count = count = 0
        self.late = False
        self.failure: Exception | None = None
        try:
            numbered = enumerate(events)
        except TypeError as error:  # traceEvents is no container
            self.failure = error
            return
        for index, event in numbered:
            try:
                get = event.get
                phase = get("ph")
                if phase == "X" or phase == "i":
                    start_ms = float(get("ts", 0.0)) / 1000.0
                    duration_ms = float(get("dur", 0.0)) / 1000.0
                    pid = get("pid")
                    instant = phase == "i"
                    args = get("args")
                    add(
                        get("name", ""),
                        names.get(pid, str(pid)),
                        int(get("tid", 0)),
                        index + 1,
                        None,
                        start_ms,
                        start_ms if instant else start_ms + duration_ms,
                        INSTANT if instant else "span",
                        args if type(args) is dict else dict(get("args", {})),
                    )
                    count += 1
                elif phase == "M" and learn and get("name") == "process_name":
                    names[event["pid"]] = get("args", {}).get("name", "")
                    self.late = self.late or count > 0
            except _MALFORMED as error:
                self.failure = error
                break
        for _ in numbered:  # the rest of the text must still parse
            pass
        self.count = count


class _SpanList:
    """The sink :func:`load_trace` reads into: the spans themselves."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, *fields) -> None:
        self.spans.append(Span(*fields))


def _read_trace(path: Path, new_sink: Callable) -> tuple:
    """Read a Chrome trace or span JSONL file into a sink made by
    ``new_sink()``: ``(sink, metrics)``, ``metrics`` ``None`` for JSONL.

    The file is read ``_READ_CHARS`` characters at a time, through
    :func:`open_text` (so ``.gz`` is decompressed), and a Chrome
    document's events are decoded a piece at a time, so besides the
    sink only one piece of text and its events are held.  A file is
    Chrome when it parses as one JSON object with a ``traceEvents``
    key, else it is read as JSONL, one line at a time: the detection,
    the span ids and the errors are those of parsing the whole text
    first.  A document
    that names a process after its first span event is read a second
    time, so that the last name given to a pid names all of its spans.
    Callers read with the cyclic GC paused (:class:`_collector_paused`):
    the sinks hold only acyclic data, and what they keep lives until
    the caller returns.
    """
    try:
        with open_text(path) as handle:
            chrome = _ChromePass(new_sink).read(handle)
        if chrome.late:
            with open_text(path) as handle:
                chrome = _ChromePass(new_sink, chrome.names).read(handle)
        return chrome.sink, chrome.metrics
    except _NotChrome:
        pass
    sink = new_sink()
    count = 0
    with open_text(path) as handle:
        for text in handle:
            for line in text.splitlines():
                line = line.strip()
                if line:
                    sink.add(*_span_fields(json.loads(line)))
                    count += 1
    if not count:
        raise ConfigurationError(f"{path}: no spans found (empty trace?)")
    return sink, None


def load_trace(path: str | Path) -> TraceData:
    """Load Chrome trace-event JSON or span JSONL (auto-detected).

    ``.gz``-suffixed paths (``trace.json.gz`` / ``spans.jsonl.gz``) are
    decompressed transparently — long traced runs compress ~20x, so
    archived experiment traces ship gzipped.

    The file is streamed (:func:`_read_trace`): no text or document is
    held beyond one piece and one event.  The read runs with the cyclic
    GC paused (:class:`repro.telemetry.export._collector_paused`): the
    spans and their attr dicts are acyclic and all survive the call.
    """
    with _collector_paused():
        sink, metrics = _read_trace(Path(path), _SpanList)
        return TraceData(spans=sink.spans, metrics=metrics)


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------
@dataclass
class _TrackColumns:
    """One request track as per-field columns: one row per request, in
    span order (DESIGN.md §9).

    ``kinds[row]`` names the components the row carries, in its view's
    order; ``components[name]`` is that component's column, 0.0 where a
    row does not carry it (the value ``view.components.get(name, 0.0)``
    reads).  The report sums these columns directly and builds a
    :class:`RequestView` only for the rows it lists.
    """

    track: str
    lane: list[int] = field(default_factory=list)
    start_ms: list[float] = field(default_factory=list)
    end_ms: list[float] = field(default_factory=list)
    latency_ms: list[float] = field(default_factory=list)
    kinds: list[tuple[str, ...]] = field(default_factory=list)
    components: dict[str, list[float]] = field(default_factory=dict)
    boosted: list[bool] = field(default_factory=list)
    hedged: list[bool] = field(default_factory=list)
    shed: list[bool] = field(default_factory=list)
    energy_j: list[float] = field(default_factory=list)
    pool: list[str] = field(default_factory=list)

    def view(self, row: int) -> RequestView:
        components = self.components
        return RequestView(
            track=self.track,
            lane=self.lane[row],
            start_ms=self.start_ms[row],
            end_ms=self.end_ms[row],
            latency_ms=self.latency_ms[row],
            components={name: components[name][row] for name in self.kinds[row]},
            boosted=self.boosted[row],
            hedged=self.hedged[row],
            shed=self.shed[row],
            energy_j=self.energy_j[row],
            pool=self.pool[row],
        )

    def views(self) -> list[RequestView]:
        return [self.view(row) for row in range(len(self.lane))]

    @classmethod
    def from_views(cls, track: str, views: list[RequestView]) -> "_TrackColumns":
        columns = cls(
            track=track,
            lane=[v.lane for v in views],
            start_ms=[v.start_ms for v in views],
            end_ms=[v.end_ms for v in views],
            latency_ms=[v.latency_ms for v in views],
            kinds=[tuple(v.components) for v in views],
            boosted=[v.boosted for v in views],
            hedged=[v.hedged for v in views],
            shed=[v.shed for v in views],
            energy_j=[v.energy_j for v in views],
            pool=[v.pool for v in views],
        )
        columns.components = _component_columns(
            columns.kinds, [value for v in views for value in v.components.values()]
        )
        return columns


def _component_columns(
    kinds: list[tuple[str, ...]], flat: list[float]
) -> dict[str, list[float]]:
    """Split the rows' component values (``flat``: each row's values in
    its kind's order, row after row) into one column per component."""
    distinct = dict.fromkeys(kinds)
    if len(distinct) == 1:  # every row carries the same components
        (kind,) = distinct
        return {name: flat[i :: len(kind)] for i, name in enumerate(kind)}
    columns: dict[str, list[float]] = {
        name: [] for kind in distinct for name in kind
    }
    position = 0
    for kind in kinds:
        row = dict(zip(kind, flat[position : position + len(kind)]))
        position += len(kind)
        for name, column in columns.items():
            column.append(row.get(name, 0.0))
    return columns


class _RequestRows:
    """One ``sim``/``runtime`` track's rows, built span by span in span
    order: a row per ``run`` span (its attrs, else queue time from the
    lane's ``queue`` spans) and per ``shed`` span.

    A ``run`` span without a ``queue_ms`` attr waits on every ``queue``
    span of its lane, later ones included, so :meth:`columns` fills in
    its queue-dependent fields from the finished per-lane sums.
    """

    def __init__(self, track: str) -> None:
        self.table = table = _TrackColumns(track)
        self.append_row = (
            table.lane.append,
            table.start_ms.append,
            table.end_ms.append,
            table.latency_ms.append,
            table.kinds.append,
            table.boosted.append,
            table.shed.append,
            table.energy_j.append,
            table.pool.append,
        )
        #: Each row's component values in its kind's order, row after row.
        self.flat: list[float] = []
        self.queue_ms: dict[int, float] = {}
        #: ``(row, flat position or -1, lane, start, duration, latency
        #: is the wait plus the duration)`` per row awaiting its lane's sum.
        self.pending: list[tuple] = []
        #: One string per distinct pool name, as the rows keep them.
        self.pools: dict[str, str] = {}
        #: The first error one of the track's spans raised.
        self.error: Exception | None = None

    def add(self, name, lane, start_ms, end_ms, attrs: dict) -> None:
        """Take one non-instant span of the track."""
        if name == "queue":
            duration = end_ms - start_ms if end_ms is not None else 0.0
            self.queue_ms[lane] = self.queue_ms.get(lane, 0.0) + duration
            return
        if name == "run":
            duration = end_ms - start_ms if end_ms is not None else 0.0
            get = attrs.get
            waited = get("queue_ms")
            pending = waited is None and "queue_ms" not in attrs
            if pending:
                latency = get("latency_ms")
                waits = latency is None and "latency_ms" not in attrs
                latency = math.nan if waits else float(latency)
                start = math.nan
            else:
                waited = float(waited)
                latency = float(get("latency_ms", waited + duration))
                start = start_ms - waited
            if "service_ms" in attrs:
                kind = ATTRIBUTION_COMPONENTS
                position = -1
                self.flat += map(float, map(get, ATTRIBUTION_COMPONENTS, repeat(0.0)))
            else:  # pre-attribution trace: coarse two-way split
                kind = _COARSE
                position = len(self.flat)
                self.flat += (waited, duration)
            boosted = bool(get("boosted", False))
            energy = float(get("energy_j", math.nan))
            pool = str(get("pool", ""))
            pool = self.pools.setdefault(pool, pool)
            if pending:
                self.pending.append(
                    (len(self.table.lane), position, lane, start_ms, duration, waits)
                )
            shed = False
        elif name == "shed":
            latency = end_ms - start_ms if end_ms is not None else 0.0
            self.flat.append(latency)
            start, kind, boosted, shed, energy, pool = start_ms, _SHED, False, True, math.nan, ""
        else:
            return
        lanes, starts, ends, latencies, kinds, boosts, sheds, energies, pools = self.append_row
        lanes(lane)
        starts(start)
        ends(end_ms)
        latencies(latency)
        kinds(kind)
        boosts(boosted)
        sheds(shed)
        energies(energy)
        pools(pool)

    def columns(self) -> _TrackColumns:
        table, flat = self.table, self.flat
        for row, position, lane, start_ms, duration, waits in self.pending:
            waited = float(self.queue_ms.get(lane, 0.0))
            if waits:
                table.latency_ms[row] = float(waited + duration)
            table.start_ms[row] = start_ms - waited
            if position >= 0:
                flat[position] = waited
        table.hedged = [False] * len(table.lane)
        table.components = _component_columns(table.kinds, flat)
        return table


class _TrackRows:
    """The sink :func:`analyze_spans` and :func:`analyze_trace` feed
    span by span (as :class:`Span` fields): rows for the request
    tracks, and the spans of the cluster tracks.

    Spans of other tracks are dropped.  A span's error is kept, not
    raised, and :meth:`columns` raises the first one in the order the
    tracks are built, so a trace streamed in file order fails as its
    span list would: an unhashable track first, then ``sim``, then
    ``runtime``.
    """

    def __init__(self) -> None:
        self.rows = {track: _RequestRows(track) for track in _REQUEST_TRACKS}
        self.cluster: dict[str, list[Span]] = {track: [] for track in _CLUSTER_TRACKS}
        self.error: Exception | None = None

    def add(self, name, track, lane, span_id, parent_id, start_ms, end_ms, kind, attrs) -> None:
        try:
            rows = self.rows.get(track)
        except TypeError as error:  # an unhashable track
            if self.error is None:
                self.error = error
            return
        if rows is not None:
            if kind != INSTANT and rows.error is None:
                try:
                    rows.add(name, lane, start_ms, end_ms, attrs)
                except _MALFORMED as error:
                    rows.error = error
        elif track in self.cluster:
            self.cluster[track].append(
                Span(name, track, lane, span_id, parent_id, start_ms, end_ms, kind, attrs)
            )

    def columns(self) -> dict[str, _TrackColumns]:
        """Per-track columns of every request track seen (see
        :func:`requests_from_spans`), tracks in the order it returns them."""
        if self.error is not None:
            raise self.error
        out: dict[str, _TrackColumns] = {}
        for track, rows in self.rows.items():
            if rows.error is not None:
                raise rows.error
            columns = rows.columns()
            if columns.lane:
                out[track] = columns
        if self.cluster["cluster"]:
            hedged_lanes = {s.lane for s in self.cluster["cluster.hedge"]}
            views = _cluster_views(self.cluster["cluster"], hedged_lanes)
            if views:
                out["cluster"] = _TrackColumns.from_views("cluster", views)
        return out


def _track_columns(spans: list[Span]) -> dict[str, _TrackColumns]:
    """Per-track columns of every request track in ``spans``."""
    rows = _TrackRows()
    add = rows.add
    for s in spans:
        add(s.name, s.track, s.lane, s.span_id, s.parent_id, s.start_ms, s.end_ms, s.kind, s.attrs)
    return rows.columns()


def requests_from_spans(spans: list[Span]) -> dict[str, list[RequestView]]:
    """Per-track request views reconstructed from raw spans.

    ``sim`` / ``runtime`` tracks yield one view per ``run`` span (its
    flight-recorder attrs when present, else a coarse queue/execute
    split) plus a view per ``shed`` span.  ``cluster`` yields one view
    per query lane — latency is the slowest shard — flagged ``hedged``
    when a ``cluster.hedge`` span exists for the lane.
    """
    return {track: columns.views() for track, columns in _track_columns(spans).items()}


def _cluster_views(
    spans: list[Span], hedged_lanes: set[int]
) -> list[RequestView]:
    by_lane: dict[int, list[Span]] = {}
    for span in spans:
        if span.kind != INSTANT and span.name.startswith("shard"):
            by_lane.setdefault(span.lane, []).append(span)
    views = []
    for lane, shard_spans in sorted(by_lane.items()):
        slowest = max(shard_spans, key=lambda s: s.duration_ms)
        views.append(
            RequestView(
                track="cluster",
                lane=lane,
                start_ms=min(s.start_ms for s in shard_spans),
                end_ms=max(s.end_ms for s in shard_spans),
                latency_ms=slowest.duration_ms,
                components={
                    "slowest_shard_ms": slowest.duration_ms,
                    "fanout_spread_ms": slowest.duration_ms
                    - min(s.duration_ms for s in shard_spans),
                },
                hedged=lane in hedged_lanes,
            )
        )
    return views


# ----------------------------------------------------------------------
# Tail analysis
# ----------------------------------------------------------------------
@dataclass
class TrackReport:
    """Tail attribution for one track."""

    track: str
    phi: float
    count: int
    shed_count: int
    mean_ms: float
    tail_threshold_ms: float
    tail_count: int
    #: component -> {overall_mean_ms, tail_mean_ms, tail_share}.
    components: dict[str, dict[str, float]]
    #: Correlates (tail vs rest): boosted / hedged membership rates.
    boosted_rate: tuple[float, float] | None = None
    hedged_rate: tuple[float, float] | None = None
    #: The slowest requests, worst first.
    slowest: list[RequestView] = field(default_factory=list)
    #: Mean joules per request overall and over the tail (``nan`` when
    #: the trace carries no energy attrs — pre-hetero traces).
    joules_per_query: float = math.nan
    tail_joules_per_query: float = math.nan

    @property
    def has_energy(self) -> bool:
        return self.joules_per_query == self.joules_per_query

    def to_json(self) -> dict:
        out = {
            "track": self.track,
            "phi": self.phi,
            "count": self.count,
            "shed_count": self.shed_count,
            "mean_ms": self.mean_ms,
            "tail_threshold_ms": self.tail_threshold_ms,
            "tail_count": self.tail_count,
            "components": self.components,
            "slowest": [
                {
                    "lane": v.lane,
                    "latency_ms": v.latency_ms,
                    "dominant": v.dominant_component(),
                    "boosted": v.boosted,
                    "hedged": v.hedged,
                }
                for v in self.slowest
            ],
        }
        if self.boosted_rate is not None:
            out["boosted_rate"] = {
                "tail": self.boosted_rate[0], "rest": self.boosted_rate[1]
            }
        if self.hedged_rate is not None:
            out["hedged_rate"] = {
                "tail": self.hedged_rate[0], "rest": self.hedged_rate[1]
            }
        if self.has_energy:
            out["joules_per_query"] = self.joules_per_query
            out["tail_joules_per_query"] = self.tail_joules_per_query
            for view, entry in zip(self.slowest, out["slowest"]):
                entry["energy_j"] = view.energy_j
                if view.pool:
                    entry["pool"] = view.pool
        return out

    def render(self) -> str:
        parts = [
            f"--- track {self.track}: {self.count} requests, "
            f"p{self.phi * 100:g} >= {self.tail_threshold_ms:.2f} ms "
            f"({self.tail_count} in tail"
            + (f", {self.shed_count} shed" if self.shed_count else "")
            + ") ---"
        ]
        rows = [
            [
                name,
                stats["overall_mean_ms"],
                stats["tail_mean_ms"],
                f"{stats['tail_share']:.1%}"
                if stats["tail_share"] == stats["tail_share"]
                else "nan",
            ]
            for name, stats in self.components.items()
        ]
        parts.append(
            render_table(
                ["component", "mean (ms)", "tail mean (ms)", "tail share"], rows
            )
        )
        if self.has_energy:
            parts.append(
                f"energy: {self.joules_per_query:.4g} J/query "
                f"(tail mean {self.tail_joules_per_query:.4g} J)"
            )
        correlates = []
        if self.boosted_rate is not None:
            correlates.append(
                ["boosted", f"{self.boosted_rate[0]:.1%}", f"{self.boosted_rate[1]:.1%}"]
            )
        if self.hedged_rate is not None:
            correlates.append(
                ["hedged", f"{self.hedged_rate[0]:.1%}", f"{self.hedged_rate[1]:.1%}"]
            )
        if correlates:
            parts.append("")
            parts.append(render_table(["signal", "tail", "rest"], correlates))
        if self.slowest:
            parts.append("")
            columns = ["lane", "latency (ms)", "dominant component"]
            rows = [
                [v.lane, v.latency_ms, v.dominant_component()]
                for v in self.slowest
            ]
            if self.has_energy:
                columns += ["energy (J)", "pool"]
                for row, view in zip(rows, self.slowest):
                    row.append(view.energy_j)
                    row.append(view.pool or "-")
            parts.append(render_table(columns, rows))
        return "\n".join(parts)


@dataclass
class AnalysisReport:
    """The whole trace's tail story: per-track reports plus context."""

    phi: float
    tracks: dict[str, TrackReport]
    counters: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "phi": self.phi,
            "tracks": {name: report.to_json() for name, report in self.tracks.items()},
            "counters": self.counters,
        }

    def render(self) -> str:
        parts = [f"=== tail attribution report (phi={self.phi}) ==="]
        for name in sorted(self.tracks):
            parts.append("")
            parts.append(self.tracks[name].render())
        if self.counters:
            parts.append("")
            parts.append("run context (counters):")
            parts.append(
                render_table(
                    ["counter", "value"],
                    [[k, v] for k, v in sorted(self.counters.items())],
                )
            )
        return "\n".join(parts)


def _tail_threshold(latencies: list[float], phi: float) -> float:
    """Order-statistic φ-percentile (``ceil(phi*n)`` rank)."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(phi * len(ordered)) - 1)]


def _membership_rate(
    flags: list[bool], tail: list[bool], rest: list[bool]
) -> tuple[float, float]:
    """Share of flagged rows among the tail rows and the rest."""

    def rate(members: list[bool]) -> float:
        count = sum(members)
        if not count:
            return math.nan
        return sum(compress(flags, members)) / count

    return rate(tail), rate(rest)


def _report_track(
    track: str, columns: _TrackColumns, phi: float, top: int
) -> TrackReport:
    """Tail attribution for one track, read off its columns.

    Every mean is the builtin ``sum`` over the same floats, in the same
    (span) order, that a loop over the completed requests' views would
    add: Python 3.12's ``sum`` compensates, so a hand-written loop or
    ``math.fsum`` would round differently there.
    """
    sheds = sum(columns.shed)
    keep = [not shed for shed in columns.shed]

    def completed(column: list) -> list:
        return list(compress(column, keep)) if sheds else column

    latencies = completed(columns.latency_ms)
    if not latencies:
        raise ConfigurationError(
            f"track {track!r}: every request was shed; no latency to attribute"
        )
    count = len(latencies)
    threshold = _tail_threshold(latencies, phi)
    tail = [latency >= threshold for latency in latencies]
    rest = [latency < threshold for latency in latencies]
    tail_count = sum(tail)
    if not tail_count:
        # Only a NaN threshold compares false against every latency.
        raise ConfigurationError(
            f"track {track!r}: the tail is empty (threshold {threshold} ms); "
            "its completed latencies are not numbers"
        )
    component_names = dict.fromkeys(
        name for kind in dict.fromkeys(completed(columns.kinds)) for name in kind
    )
    tail_mean_latency = sum(compress(latencies, tail)) / tail_count
    components = {}
    for name in component_names:
        column = completed(columns.components[name])
        tail_mean = sum(compress(column, tail)) / tail_count
        components[name] = {
            "overall_mean_ms": sum(column) / count,
            "tail_mean_ms": tail_mean,
            "tail_share": tail_mean / tail_mean_latency
            if tail_mean_latency > 0
            else math.nan,
        }
    # Worst first, ties in span order (a stable sort on -latency).
    keys = [-latency for latency in latencies]
    slowest = sorted(range(count), key=keys.__getitem__)[:top]
    rows = completed(range(len(columns.lane)))
    report = TrackReport(
        track=track,
        phi=phi,
        count=count,
        shed_count=sheds,
        mean_ms=sum(latencies) / count,
        tail_threshold_ms=threshold,
        tail_count=tail_count,
        components=components,
        slowest=[columns.view(rows[i]) for i in slowest],
    )
    # Energy is NaN-safe: traces predating energy accounting (or from
    # the homogeneous-legacy engine) carry no energy_j attrs, every
    # view is nan, and the report simply omits the energy lines.
    energies = completed(columns.energy_j)
    energetic = [energy for energy in energies if energy == energy]
    if energetic:
        report.joules_per_query = sum(energetic) / len(energetic)
        tail_energetic = [
            energy for energy in compress(energies, tail) if energy == energy
        ]
        if tail_energetic:
            report.tail_joules_per_query = sum(tail_energetic) / len(tail_energetic)
    boosted = completed(columns.boosted)
    if any(boosted):
        report.boosted_rate = _membership_rate(boosted, tail, rest)
    hedged = completed(columns.hedged)
    if any(hedged):
        report.hedged_rate = _membership_rate(hedged, tail, rest)
    return report


def analyze_spans(
    spans: list[Span],
    phi: float = 0.99,
    counters: dict[str, int] | None = None,
    track: str | None = None,
    top: int = 5,
) -> AnalysisReport:
    """Tail-attribution report over reconstructed spans."""
    return _analysis(lambda: _track_columns(spans), phi, counters, track, top)


def _analysis(
    build: Callable[[], dict[str, _TrackColumns]],
    phi: float,
    counters: dict[str, int] | None,
    track: str | None,
    top: int,
) -> AnalysisReport:
    """The report over the per-track columns ``build()`` returns, built
    once ``phi`` is known to be valid."""
    if not 0.0 < phi < 1.0:
        raise ConfigurationError(f"phi must be in (0, 1): {phi}")
    per_track = build()
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
        if name in _CONTEXT_COUNTERS
    }
    return AnalysisReport(
        phi=phi,
        tracks={
            name: _report_track(name, columns, phi, top)
            for name, columns in per_track.items()
        },
        counters=context,
    )


def analyze_trace(
    path: str | Path, phi: float = 0.99, track: str | None = None, top: int = 5
) -> AnalysisReport:
    """Load a trace file and produce its tail-attribution report.

    The report is ``analyze_spans(load_trace(path).spans, ...)``'s, but
    the file's spans go straight from the stream (:func:`_read_trace`)
    into the rows :func:`analyze_spans` builds: the request tracks are
    held as columns and only the cluster tracks as spans.
    """
    with _collector_paused():
        rows, metrics = _read_trace(Path(path), _TrackRows)
        counters = TraceData(spans=[], metrics=metrics).counters()
        return _analysis(rows.columns, phi, counters, track, top)


# ----------------------------------------------------------------------
# CLI (`repro analyze`)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Attribute tail latency from a --trace output: identify the "
            "requests composing the p-phi tail and decompose their latency "
            "into queue / service / contention / boost-wait / stall."
        ),
    )
    parser.add_argument("trace", help="Chrome trace JSON or span JSONL file")
    parser.add_argument(
        "--phi", type=float, default=0.99, help="tail percentile (default 0.99)"
    )
    parser.add_argument(
        "--track", default=None, help="restrict to one track (sim/runtime/cluster)"
    )
    parser.add_argument(
        "--top", type=int, default=5, help="slowest requests to list (default 5)"
    )
    parser.add_argument(
        "--json", metavar="OUT.json", default=None,
        help="also write the report as JSON",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = analyze_trace(args.trace, phi=args.phi, track=args.track, top=args.top)
    except (ConfigurationError, FileNotFoundError) as error:
        print(f"repro analyze: {error}")
        return 2
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_json(), indent=1) + "\n")
    try:
        print(report.render())
        if args.json:
            print(f"\n[report JSON -> {args.json}]")
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: the JSON (if any) is
        # already on disk, so exit quietly like a well-behaved filter.
        sys.stderr.close()
    return 0
