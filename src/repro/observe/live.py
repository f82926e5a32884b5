"""The live observability plane: windowed tail attribution, events,
exemplars, and anomaly detection — while the system runs.

:mod:`repro.observe.analyze` answers "who is the p99 and why" after the
run, from an exported trace.  :class:`LivePlane` answers it *during*
the run, from the same flight-recorder signals, without retaining full
traces (DESIGN.md §13):

* every completion lands in the current **window** (a fixed grid,
  anchored so sharded runs align): a per-window latency histogram
  slice, additive component sums (queue / service / contention /
  boost-wait / stall), per-pool joules, and a worst-k **exemplar**
  reservoir linking the window back to concrete request ids (= span
  lanes, so an operator can jump from a breach window to its span
  trees in any exported trace);
* component subsystems annotate the same stream with first-class
  **events** — adaptive-controller mode flips, reprofiling rebuilds,
  fault injections, SLO breach onsets — and the plane's deterministic
  :class:`~repro.observe.anomaly.ChangepointDetector` adds anomaly
  events over burn rate, window p99, and joules/query as each window
  closes;
* when a telemetry pipeline is attached, a
  :class:`~repro.observe.timeseries.TimeseriesRecorder` snapshots the
  MetricsRegistry deltas per window into the same bounded ring, and
  detector flags are emitted as ``observe.event`` instants so they
  ride ``--trace`` exports.

Everything is **zero-cost when disabled**: the engine and live server
guard their single hook on ``live is not None``, matching the
telemetry precedent (<3% disabled-path overhead).

Determinism: windows, attribution sums, exemplars, events, and
anomaly flags are pure functions of the observation stream and the
grid — the ``live-tail`` experiment pins the flagged window index of
the ``overload_flip`` onset across runs.

Offline **replay**: :func:`replay_spans` drives a fresh plane from any
exported trace (run spans become observations, ``observe.event``
instants become annotations), which is what ``repro top --replay``
renders — its per-window attribution totals match ``repro analyze`` on
the same trace to float residue.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError
from repro.observe.anomaly import ChangepointDetector
from repro.observe.slo import SLOMonitor
from repro.observe.timeseries import TimeseriesRecorder, WindowSnapshot
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry import Telemetry, resolve_telemetry
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.spans import INSTANT, Span

__all__ = [
    "ObserveEvent",
    "Exemplar",
    "WindowStats",
    "LivePlane",
    "events_from_spans",
    "replay_spans",
]

#: Signals the changepoint detector watches at every window close.
DETECTOR_SIGNALS = ("p99_ms", "burn_rate", "joules_per_query")

#: Single-letter legend for attribution bars, in component order.
_BAR_LETTERS = {
    "queue_ms": "q",
    "service_ms": "s",
    "contention_ms": "c",
    "boost_wait_ms": "b",
    "stall_ms": "t",
}


@dataclass(frozen=True)
class ObserveEvent:
    """One structured event on the observability stream.

    ``kind`` is open-ended but the built-in emitters use:
    ``mode_transition`` (adaptive replication controller),
    ``reprofile`` (scheduler rebuild), ``fault`` (injected core loss /
    restore / stall), ``slo_breach`` / ``slo_clear`` (server degraded
    mode), and ``anomaly`` (changepoint detector).  ``detail`` holds
    flat JSON-able scalars.
    """

    at_ms: float
    kind: str
    window: int
    detail: dict = field(default_factory=dict)

    def as_tuple(self) -> tuple:
        """Hashable view for determinism audits."""
        return (
            self.at_ms,
            self.kind,
            self.window,
            tuple(sorted((k, v) for k, v in self.detail.items())),
        )

    def to_dict(self) -> dict:
        return {
            "at_ms": self.at_ms,
            "kind": self.kind,
            "window": self.window,
            "detail": dict(sorted(self.detail.items())),
        }


@dataclass(frozen=True)
class Exemplar:
    """A worst-k tail request pinned to its window.

    ``rid`` doubles as the span *lane*: with a ``--trace`` export of
    the same run, ``rid`` looks up the request's queue/run span tree.
    """

    rid: int
    latency_ms: float
    components: dict[str, float] = field(default_factory=dict)
    energy_j: float = 0.0
    pool: str = ""

    def dominant_component(self) -> str:
        if not self.components:
            return "unknown"
        return max(self.components.items(), key=lambda kv: kv[1])[0]


@dataclass
class WindowStats:
    """One closed window of the live plane's stream."""

    index: int
    start_ms: float
    end_ms: float
    count: int
    #: Per-window latency slice (mergeable; ``relative_error`` as
    #: configured on the plane).
    latency: LogHistogram
    #: Additive component sums over the window's completions (ms).
    components: dict[str, float]
    #: Per-pool joules ("" pools collapse into "total").
    energy_j: dict[str, float]
    #: SLO verdicts at window close (NaN burn when no monitor).
    breached: bool = False
    burn_rate: float = math.nan
    #: Last known controller mode ("" = no controller annotated yet).
    mode: str = ""
    events: list[ObserveEvent] = field(default_factory=list)
    exemplars: list[Exemplar] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        return self.latency.percentile(0.50)

    @property
    def p99_ms(self) -> float:
        return self.latency.percentile(0.99)

    @property
    def joules_per_query(self) -> float:
        if not self.count or not self.energy_j:
            return math.nan
        return sum(self.energy_j.values()) / self.count

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "count": self.count,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "components": dict(sorted(self.components.items())),
            "energy_j": dict(sorted(self.energy_j.items())),
            "breached": self.breached,
            "burn_rate": self.burn_rate,
            "mode": self.mode,
            "events": [event.to_dict() for event in self.events],
            "exemplars": [
                {
                    "rid": e.rid,
                    "latency_ms": e.latency_ms,
                    "dominant": e.dominant_component(),
                    "energy_j": e.energy_j,
                    "pool": e.pool,
                }
                for e in self.exemplars
            ],
        }


class LivePlane:
    """Windowed streaming observability over a completion stream.

    Parameters
    ----------
    window_ms:
        Grid span (100 ms default — fine enough to catch the
        overload-flip ramp, coarse enough to hold p99s).
    capacity:
        Ring bound: windows retained (and, when telemetry is attached,
        registry snapshots retained by the piggybacked
        :class:`TimeseriesRecorder`).
    anchor_ms:
        Grid origin.  ``0.0`` (default) suits the simulator's virtual
        clock and keeps sharded runs aligned; ``None`` anchors at the
        first observation (wall clocks must not replay an idle epoch).
    slo:
        Optional :class:`~repro.observe.slo.SLOMonitor` read at every
        window close for breach/burn columns and the detector's
        burn-rate signal.
    feed_slo:
        Whether :meth:`observe` feeds the monitor.  ``True`` when the
        plane owns the monitor (engine wiring); ``False`` when the
        serving layer already feeds the same monitor
        (:class:`~repro.runtime.server.LiveFMServer` does) and the
        plane must only *read* it — double-feeding would double-count
        the error budget.
    detector:
        The changepoint detector; ``None`` builds the default.  Runs at
        window closes over :data:`DETECTOR_SIGNALS`.
    exemplars:
        Worst-k reservoir size per window.
    telemetry:
        Optional pipeline: wires the per-window
        :class:`TimeseriesRecorder` over its MetricsRegistry and emits
        detector flags as ``observe.event`` instants (component
        subsystems emit their own kinds).  Resolved like every other
        instrumented component.
    """

    def __init__(
        self,
        window_ms: float = 100.0,
        capacity: int = 512,
        anchor_ms: float | None = 0.0,
        slo: SLOMonitor | None = None,
        feed_slo: bool = True,
        detector: ChangepointDetector | None = None,
        exemplars: int = 3,
        telemetry: Telemetry | None = None,
        relative_error: float = 0.01,
    ) -> None:
        if window_ms <= 0:
            raise ConfigurationError(f"window_ms must be positive: {window_ms}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1: {capacity}")
        if exemplars < 0:
            raise ConfigurationError(f"exemplars must be >= 0: {exemplars}")
        self.window_ms = window_ms
        self.capacity = capacity
        self.slo = slo
        self.feed_slo = feed_slo
        self.detector = detector or ChangepointDetector()
        self.exemplar_k = exemplars
        self.relative_error = relative_error
        self.telemetry = resolve_telemetry(telemetry)
        self.timeseries: TimeseriesRecorder | None = None
        self._anchor_ms = anchor_ms
        self._ring: deque[WindowStats] = deque(maxlen=capacity)
        #: Every event observed or raised, in stream order (bounded by
        #: the same capacity discipline: events of evicted windows are
        #: pruned lazily when the list doubles the ring's span).
        self.events: list[ObserveEvent] = []
        self._window_end: float | None = None
        #: Whether the last close left the SLO monitor's windows empty,
        #: so that windows closed after it with nothing observed or
        #: annotated are all alike (:attr:`_drained`).
        self._slo_drained = slo is None
        self._mode = ""
        self._reset_accumulators()
        if self.telemetry is not None:
            self.timeseries = TimeseriesRecorder(
                self.telemetry.metrics,
                window_ms,
                capacity=capacity,
                anchor_ms=anchor_ms or 0.0,
            )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(
        self,
        at_ms: float,
        latency_ms: float,
        components: dict[str, float] | None = None,
        energy_j: float = 0.0,
        pool: str = "",
        rid: int = -1,
    ) -> None:
        """Feed one completion (timestamps must be non-decreasing).

        ``components`` is the flight recorder's additive decomposition
        (any subset of :data:`ATTRIBUTION_COMPONENTS`; omitted
        components accumulate nothing).  Crossing a window boundary
        closes windows, runs the detector, and may append events.
        """
        self.observe_many(
            (at_ms,),
            (latency_ms,),
            {name: (value,) for name, value in components.items()} if components else None,
            (energy_j,),
            (pool,),
            (rid,),
        )

    def observe_many(
        self,
        at_ms: Sequence[float],
        latency_ms: Sequence[float],
        components: dict[str, Sequence[float]] | None,
        energy_j: Sequence[float] | None,
        pool: Sequence[str],
        rid: Sequence[int],
    ) -> None:
        """Feed completions as columns, in non-decreasing time order:
        the same windows, events, exemplars and SLO feed, bit for bit,
        as :meth:`observe` per completion, in a handful of calls per
        window.

        ``components`` maps each component to its column (every
        completion carries the same components), or is ``None`` for
        none; ``energy_j`` is ``None`` for no energy.  Each
        accumulator adds a window's values in row order, as it would
        one completion at a time, and nothing reads an accumulator
        between two completions of one window, so the order in which
        the accumulators take a window's rows changes no bit.
        """
        n = len(at_ms)
        start = 0
        while start < n:
            self.advance(at_ms[start])
            # The rows inside the open window (advance leaves it past
            # at_ms[start]).
            stop = bisect_left(at_ms, self._window_end, start)
            if components:
                window_components = {
                    name: column[start:stop] for name, column in components.items()
                }
            else:
                window_components = None
            self._accumulate(
                at_ms[start:stop],
                latency_ms[start:stop],
                window_components,
                energy_j[start:stop] if energy_j is not None else None,
                pool[start:stop],
                rid[start:stop],
            )
            start = stop

    def annotate(self, at_ms: float, kind: str, **detail: object) -> ObserveEvent:
        """Attach a structured event to the stream (mode flips,
        reprofiles, faults, breach onsets...).  Returns the recorded
        event.  Advances the window grid like :meth:`observe`."""
        self.advance(at_ms)
        event = ObserveEvent(
            at_ms=at_ms,
            kind=kind,
            window=self._index_of(at_ms),
            detail=dict(detail),
        )
        self._pending_events.append(event)
        self.events.append(event)
        if kind == "mode_transition":
            self._mode = str(detail.get("to_mode", self._mode))
        return event

    @property
    def window_end_ms(self) -> float:
        """End of the open window: the first time at which
        :meth:`advance` closes a window (``-inf`` before the plane's
        first activity)."""
        return -math.inf if self._window_end is None else self._window_end

    def advance(self, at_ms: float) -> None:
        """Roll the window grid to ``at_ms`` without observing anything:
        close every window that ends at or before it (on first activity,
        open the window containing it).  :meth:`observe`,
        :meth:`annotate` and :meth:`flush` start with this step.  A
        producer that writes the attached registry calls it first, so
        each window's registry snapshot holds exactly the writes made
        inside the window (the engine does, DESIGN.md §13)."""
        if self._window_end is None:
            anchor = self._anchor_ms
            if anchor is None:
                self._anchor_ms = anchor = at_ms
            # First activity: open the window containing at_ms.
            self._window_end = (
                anchor + (self._index_of(at_ms) + 1) * self.window_ms
            )
            return
        while at_ms >= self._window_end:
            self._close_window(self._window_end)
            self._window_end += self.window_ms
            if at_ms >= self._window_end and self._drained:
                # Every window left in the gap closes empty and alike:
                # close only the last ``capacity``, the windows the
                # window ring and the registry window ring keep.
                end = self._window_end
                kept: deque[float] = deque(maxlen=self.capacity)
                while at_ms >= end:
                    kept.append(end)
                    end += self.window_ms
                for end_ms in kept:
                    self._close_window(end_ms)
                self._window_end = end
                return

    def flush(self, at_ms: float) -> None:
        """Close every window ending at or before ``at_ms``, then fold
        any remaining partial window (end of run)."""
        if self._window_end is None:
            return
        self.advance(at_ms)
        if self._count or self._pending_events:
            self._close_window(self._window_end)
            self._window_end += self.window_ms

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def windows(self) -> list[WindowStats]:
        """Closed windows retained by the ring, oldest first."""
        return list(self._ring)

    def anomalies(self) -> list[ObserveEvent]:
        """The detector's flags as events, stream order."""
        return [e for e in self.events if e.kind == "anomaly"]

    def attribution_totals(self) -> dict[str, float]:
        """Component sums over every retained window (ms) — the totals
        ``repro top --replay`` cross-checks against ``repro analyze``."""
        totals: dict[str, float] = {}
        for window in self._ring:
            for name, value in window.components.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def window_snapshots(self) -> list[WindowSnapshot]:
        """The piggybacked registry snapshots (empty without telemetry)."""
        return self.timeseries.windows() if self.timeseries is not None else []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reset_accumulators(self) -> None:
        self._count = 0
        self._latency = LogHistogram(self.relative_error)
        self._component_sums: dict[str, float] = {}
        self._energy: dict[str, float] = {}
        self._exemplars: list[Exemplar] = []
        self._exemplar_floor = math.inf  # weakest retained latency
        self._pending_events: list[ObserveEvent] = []

    def _accumulate(
        self,
        at_ms: Sequence[float],
        latency_ms: Sequence[float],
        components: dict[str, Sequence[float]] | None,
        energy_j: Sequence[float] | None,
        pool: Sequence[str],
        rid: Sequence[int],
    ) -> None:
        """Add one window's completions to its accumulators and feed
        them to the SLO monitor (:meth:`observe_many`)."""
        if self.slo is not None and self.feed_slo:
            observe = self.slo.observe
            for at, latency in zip(at_ms, latency_ms):
                observe(latency, at_ms=at)
        self._count += len(latency_ms)
        self._latency.record_many(latency_ms)
        if components:
            sums = self._component_sums
            for name, column in components.items():
                total = sums.get(name, 0.0)
                for value in column:
                    total += value
                sums[name] = total
        if energy_j is not None:
            energy = self._energy
            for i, value in enumerate(energy_j):
                if value:
                    key = pool[i] or "total"
                    energy[key] = energy.get(key, 0.0) + value
        k = self.exemplar_k
        if k:
            # Most completions fall below the weakest retained exemplar:
            # one float compare each, no reservoir call.
            reservoir = self._exemplars
            for i, latency in enumerate(latency_ms):
                if len(reservoir) < k or latency > self._exemplar_floor:
                    self._reserve_exemplar(
                        rid[i],
                        latency,
                        {name: column[i] for name, column in components.items()}
                        if components
                        else None,
                        energy_j[i] if energy_j is not None else 0.0,
                        pool[i],
                    )

    def _index_of(self, at_ms: float) -> int:
        anchor = self._anchor_ms if self._anchor_ms is not None else at_ms
        return int(math.floor((at_ms - anchor) / self.window_ms))

    @property
    def _drained(self) -> bool:
        """Whether every window closed from now on, until something is
        observed or annotated, is an empty one: the SLO monitor's
        windows held no sample at the last close and no close can prune
        the event list.

        Such a window has no completion, event or exemplar, no SLO
        breach and a NaN burn rate; its NaN signals leave the detector
        as it was, and no registry write falls between two of these
        closes, so the windows the rings evict again change nothing
        when skipped.  :meth:`advance` still steps their ends one
        addition at a time, so the grid keeps its bits.
        """
        return self._slo_drained and len(self.events) <= 2 * self.capacity + 16

    def _close_window(self, end_ms: float) -> None:
        index = self._index_of(end_ms - self.window_ms / 2)
        breached = False
        burn = math.nan
        if self.slo is not None:
            status = self.slo.status(at_ms=end_ms)
            breached = status.breached
            burn = status.long_burn_rate
            self._slo_drained = not (status.short_count or status.long_count)
        stats = WindowStats(
            index=index,
            start_ms=end_ms - self.window_ms,
            end_ms=end_ms,
            count=self._count,
            latency=self._latency,
            components=self._component_sums,
            energy_j=self._energy,
            breached=breached,
            burn_rate=burn,
            mode=self._mode,
            events=self._pending_events,
            exemplars=sorted(
                self._exemplars, key=lambda e: (-e.latency_ms, e.rid)
            ),
        )
        self._detect(stats)
        self._ring.append(stats)
        if self.timeseries is not None:
            self.timeseries.snapshot(end_ms - self.window_ms / 2)
        self._reset_accumulators()
        self._prune_events()

    def _detect(self, stats: WindowStats) -> None:
        """Run the changepoint detector over this window's signals and
        append any flags as anomaly events."""
        signals = (
            ("p99_ms", stats.p99_ms),
            ("burn_rate", stats.burn_rate),
            ("joules_per_query", stats.joules_per_query),
        )
        for signal, value in signals:
            flag = self.detector.observe(signal, stats.index, value)
            if flag is None:
                continue
            event = ObserveEvent(
                at_ms=stats.end_ms,
                kind="anomaly",
                window=stats.index,
                detail={
                    "signal": flag.signal,
                    "direction": flag.direction,
                    "value": flag.value,
                    "baseline_mean": flag.baseline_mean,
                    "z_score": flag.z_score,
                },
            )
            stats.events.append(event)
            self.events.append(event)
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "observe.event",
                    track="observe",
                    at_ms=stats.end_ms,
                    kind="anomaly",
                    signal=flag.signal,
                    direction=flag.direction,
                    value=flag.value,
                    window=stats.index,
                )

    def _prune_events(self) -> None:
        """Drop events older than the ring's oldest retained window
        once the list doubles the ring span (lazy, amortized O(1))."""
        if len(self.events) <= 2 * self.capacity + 16:
            return
        if not self._ring:
            return
        floor_index = self._ring[0].index
        self.events = [e for e in self.events if e.window >= floor_index]

    def _reserve_exemplar(
        self,
        rid: int,
        latency_ms: float,
        components: dict[str, float] | None,
        energy_j: float,
        pool: str,
    ) -> None:
        """Keep a completion the caller found above the reservoir's
        floor (or while the reservoir is not full)."""
        reservoir = self._exemplars
        if len(reservoir) < self.exemplar_k:
            reservoir.append(
                Exemplar(rid, latency_ms, dict(components or {}), energy_j, pool)
            )
            if latency_ms < self._exemplar_floor:
                self._exemplar_floor = latency_ms
            return
        weakest = min(range(len(reservoir)), key=lambda i: reservoir[i].latency_ms)
        reservoir[weakest] = Exemplar(
            rid, latency_ms, dict(components or {}), energy_j, pool
        )
        self._exemplar_floor = min(e.latency_ms for e in reservoir)

    # ------------------------------------------------------------------
    # Rendering (the `repro top` surface)
    # ------------------------------------------------------------------
    def render(self, last: int = 20, bar_width: int = 24) -> str:
        """A text dashboard of the most recent ``last`` windows:
        per-window p99, an attribution bar, controller mode, energy,
        and event markers.  Bar legend: q=queue s=service c=contention
        b=boost-wait t=stall."""
        windows = self.windows()[-last:]
        header = (
            f"{'win':>5}  {'span (ms)':>17}  {'n':>5}  {'p99 ms':>9}  "
            f"{'attribution':<{bar_width}}  {'mode':<10} {'J/q':>8}  events"
        )
        lines = [header, "-" * len(header)]
        for window in windows:
            lines.append(_render_window_row(window, bar_width))
        totals = self.attribution_totals()
        if totals:
            parts = ", ".join(
                f"{name.removesuffix('_ms')}={totals[name]:.6f}"
                for name in ATTRIBUTION_COMPONENTS
                if name in totals
            )
            lines.append(f"attribution totals (ms): {parts}")
        lines.append(
            "bar legend: q=queue s=service c=contention b=boost_wait t=stall"
            " | * = breached window"
        )
        return "\n".join(lines)


def _render_window_row(window: WindowStats, bar_width: int) -> str:
    total = sum(window.components.values())
    bar = ""
    if total > 0:
        for name in ATTRIBUTION_COMPONENTS:
            share = window.components.get(name, 0.0) / total
            bar += _BAR_LETTERS.get(name, "?") * int(round(share * bar_width))
        bar = bar[:bar_width]
    p99 = window.p99_ms
    joules = window.joules_per_query
    markers = " ".join(
        f"{event.kind}[{event.detail.get('signal', event.detail.get('to_mode', ''))}]"
        if event.detail
        else event.kind
        for event in window.events
    )
    flag = "*" if window.breached else " "
    p99_cell = f"{p99:>9.2f}" if p99 == p99 else f"{'-':>9}"
    joules_cell = f"{joules:>8.4f}" if joules == joules else f"{'-':>8}"
    return (
        f"{window.index:>4}{flag} "
        f"{window.start_ms:>8.0f}-{window.end_ms:<8.0f} "
        f"{window.count:>5}  {p99_cell}  "
        f"{bar:<{bar_width}}  {window.mode or '-':<10} "
        f"{joules_cell}  {markers}"
    ).rstrip()


# ----------------------------------------------------------------------
# Trace replay (the `repro top --replay` path)
# ----------------------------------------------------------------------
def events_from_spans(spans: Sequence[Span]) -> list[ObserveEvent]:
    """Reconstruct the ``observe.event`` stream from exported spans.

    Every emitter writes instants named ``observe.event`` on the
    ``observe`` track with a ``kind`` attr; remaining attrs become the
    event detail.  Window indexes are not resolved here (the plane
    re-derives them on replay)."""
    events = []
    for span in spans:
        if span.kind != INSTANT or span.name != "observe.event":
            continue
        detail = dict(span.attrs)
        kind = str(detail.pop("kind", "unknown"))
        events.append(
            ObserveEvent(
                at_ms=span.start_ms,
                kind=kind,
                window=int(detail.pop("window", -1)),
                detail=detail,
            )
        )
    events.sort(key=lambda e: e.at_ms)
    return events


def replay_spans(
    spans: Sequence[Span],
    window_ms: float = 100.0,
    track: str | None = None,
    slo: SLOMonitor | None = None,
    detector: ChangepointDetector | None = None,
    exemplars: int = 3,
    capacity: int | None = None,
) -> LivePlane:
    """Drive a fresh :class:`LivePlane` from an exported trace.

    Run spans become completions (flight-recorder attrs preserved, so
    attribution totals match ``repro analyze`` to float residue);
    ``observe.event`` instants become annotations — except ``anomaly``
    events, which the replayed detector re-derives itself (feeding the
    recorded ones back would double-flag).  ``track`` picks the
    request track (default: ``sim`` if present, else ``runtime``).
    ``capacity=None`` sizes the ring to hold the whole trace.
    """
    from repro.observe.analyze import requests_from_spans

    per_track = requests_from_spans(list(spans))
    request_tracks = [t for t in ("sim", "runtime") if t in per_track]
    if track is None:
        if not request_tracks:
            raise ConfigurationError(
                "trace holds no sim/runtime request track to replay"
            )
        track = request_tracks[0]
    elif track not in per_track:
        raise ConfigurationError(
            f"track {track!r} not in trace (have: {sorted(per_track) or 'none'})"
        )
    views = [v for v in per_track[track] if not v.shed]
    events = [e for e in events_from_spans(spans) if e.kind != "anomaly"]

    # One time-sorted stream of observations and annotations, so the
    # plane's window grid advances monotonically.  Annotations at the
    # same timestamp sort before completions (a fault fires before the
    # completions it delays).
    stream: list[tuple[float, int, object]] = [
        (event.at_ms, 0, event) for event in events
    ]
    stream.extend((view.end_ms, 1, view) for view in views)
    stream.sort(key=lambda item: (item[0], item[1]))

    if capacity is None:
        if stream:
            span_ms = stream[-1][0] - min(item[0] for item in stream)
            capacity = max(16, int(math.ceil(span_ms / window_ms)) + 2)
        else:
            capacity = 16
    plane = LivePlane(
        window_ms=window_ms,
        capacity=capacity,
        anchor_ms=0.0,
        slo=slo,
        feed_slo=slo is not None,
        detector=detector,
        exemplars=exemplars,
    )
    last_ms = 0.0
    for at_ms, order, item in stream:
        last_ms = at_ms
        if order == 0:
            event: ObserveEvent = item  # type: ignore[assignment]
            plane.annotate(at_ms, event.kind, **event.detail)
        else:
            view = item  # RequestView
            energy = view.energy_j if view.energy_j == view.energy_j else 0.0
            plane.observe(
                at_ms=at_ms,
                latency_ms=view.latency_ms,
                components=view.components,
                energy_j=energy,
                pool=view.pool,
                rid=view.lane,
            )
    plane.flush(last_ms + window_ms)
    return plane
