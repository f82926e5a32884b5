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
import gzip
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments.report import render_table
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry.export import _collector_paused, span_from_dict
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
def load_trace(path: str | Path) -> TraceData:
    """Load Chrome trace-event JSON or span JSONL (auto-detected).

    ``.gz``-suffixed paths (``trace.json.gz`` / ``spans.jsonl.gz``) are
    decompressed transparently — long traced runs compress ~20x, so
    archived experiment traces ship gzipped.

    The parse and the span rebuild run with the cyclic GC paused
    (:class:`repro.telemetry.export._collector_paused`): both build only
    acyclic data (the JSON document, spans and their attr dicts).
    """
    path = Path(path)
    if path.suffix == ".gz":
        text = gzip.decompress(path.read_bytes()).decode("utf-8")
    else:
        text = path.read_text()
    with _collector_paused():
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict) and "traceEvents" in document:
            return _from_chrome(document)
        # JSONL: one span dict per line.
        spans = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                spans.append(span_from_dict(json.loads(line)))
    if not spans:
        raise ConfigurationError(f"{path}: no spans found (empty trace?)")
    return TraceData(spans=spans)


def _from_chrome(document: dict) -> TraceData:
    """Rebuild spans from a Chrome trace-event document, in one pass.

    A span's id is its event's position plus one, and its attrs are its
    event's ``args`` dict itself: the document is private to
    :func:`load_trace`.  Tracks are named by the ``process_name``
    metadata, which the writer emits before every span event; a
    document that names a process after its first span event is
    re-resolved at the end, so the last name given to a pid names all
    of its spans.
    """
    events = document.get("traceEvents", [])
    track_of_pid: dict[int, str] = {}
    spans: list[Span] = []
    append = spans.append
    named_late = False
    for index, event in enumerate(events):
        get = event.get
        phase = get("ph")
        if phase == "X" or phase == "i":
            start_ms = float(get("ts", 0.0)) / 1000.0
            duration_ms = float(get("dur", 0.0)) / 1000.0
            pid = get("pid")
            instant = phase == "i"
            args = get("args")
            append(
                Span(
                    get("name", ""),
                    track_of_pid.get(pid, str(pid)),
                    int(get("tid", 0)),
                    index + 1,
                    None,
                    start_ms,
                    start_ms if instant else start_ms + duration_ms,
                    INSTANT if instant else "span",
                    args if type(args) is dict else dict(get("args", {})),
                )
            )
        elif phase == "M" and get("name") == "process_name":
            track_of_pid[event["pid"]] = get("args", {}).get("name", "")
            named_late = named_late or bool(spans)
    if not spans:
        raise ConfigurationError("trace document holds no span events")
    if named_late:
        pids = [event.get("pid") for event in events if event.get("ph") in ("X", "i")]
        for span, pid in zip(spans, pids):
            span.track = track_of_pid.get(pid, str(pid))
    metrics = (document.get("otherData") or {}).get("metrics")
    return TraceData(spans=spans, metrics=metrics)


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


def _track_columns(spans: list[Span]) -> dict[str, _TrackColumns]:
    """Per-track columns of every request track in ``spans`` (see
    :func:`requests_from_spans`), tracks in the order it returns them."""
    by_track: dict[str, list[Span]] = {}
    for span in spans:
        by_track.setdefault(span.track, []).append(span)

    out: dict[str, _TrackColumns] = {}
    for track in _REQUEST_TRACKS:
        columns = _request_track_columns(track, by_track.get(track, []))
        if columns.lane:
            out[track] = columns
    if "cluster" in by_track:
        hedged_lanes = {s.lane for s in by_track.get("cluster.hedge", [])}
        views = _cluster_views(by_track["cluster"], hedged_lanes)
        if views:
            out["cluster"] = _TrackColumns.from_views("cluster", views)
    return out


def requests_from_spans(spans: list[Span]) -> dict[str, list[RequestView]]:
    """Per-track request views reconstructed from raw spans.

    ``sim`` / ``runtime`` tracks yield one view per ``run`` span (its
    flight-recorder attrs when present, else a coarse queue/execute
    split) plus a view per ``shed`` span.  ``cluster`` yields one view
    per query lane — latency is the slowest shard — flagged ``hedged``
    when a ``cluster.hedge`` span exists for the lane.
    """
    return {track: columns.views() for track, columns in _track_columns(spans).items()}


def _request_track_columns(track: str, spans: list[Span]) -> _TrackColumns:
    """One ``sim``/``runtime`` track's rows, in span order: a row per
    ``run`` span (its attrs, else queue time from the lane's ``queue``
    spans) and per ``shed`` span."""
    queue_ms: dict[int, float] = {}
    for span in spans:
        if span.name == "queue" and span.kind != INSTANT:
            queue_ms[span.lane] = queue_ms.get(span.lane, 0.0) + span.duration_ms
    columns = _TrackColumns(track)
    lanes, starts, ends = columns.lane, columns.start_ms, columns.end_ms
    latencies, kinds, boosted = columns.latency_ms, columns.kinds, columns.boosted
    sheds, energies, pools = columns.shed, columns.energy_j, columns.pool
    flat: list[float] = []
    nan = math.nan
    zeros = repeat(0.0)
    for span in spans:
        if span.kind == INSTANT:
            continue
        name = span.name
        if name == "run":
            attrs = span.attrs
            get = attrs.get
            lane = span.lane
            duration = span.duration_ms
            waited = float(get("queue_ms", queue_ms.get(lane, 0.0)))
            latencies.append(float(get("latency_ms", waited + duration)))
            if "service_ms" in attrs:
                kinds.append(ATTRIBUTION_COMPONENTS)
                flat += map(float, map(get, ATTRIBUTION_COMPONENTS, zeros))
            else:  # pre-attribution trace: coarse two-way split
                kinds.append(_COARSE)
                flat += (waited, duration)
            lanes.append(lane)
            starts.append(span.start_ms - waited)
            ends.append(span.end_ms)
            boosted.append(bool(get("boosted", False)))
            sheds.append(False)
            energies.append(float(get("energy_j", nan)))
            pools.append(str(get("pool", "")))
        elif name == "shed":
            duration = span.duration_ms
            latencies.append(duration)
            kinds.append(_SHED)
            flat.append(duration)
            lanes.append(span.lane)
            starts.append(span.start_ms)
            ends.append(span.end_ms)
            boosted.append(False)
            sheds.append(True)
            energies.append(nan)
            pools.append("")
    columns.hedged = [False] * len(lanes)
    columns.components = _component_columns(kinds, flat)
    return columns


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
    if not 0.0 < phi < 1.0:
        raise ConfigurationError(f"phi must be in (0, 1): {phi}")
    per_track = _track_columns(spans)
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
    """Load a trace file and produce its tail-attribution report."""
    trace = load_trace(path)
    return analyze_spans(
        trace.spans, phi=phi, counters=trace.counters(), track=track, top=top
    )


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
