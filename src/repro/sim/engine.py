"""The virtual-time multicore server engine.

A fluid discrete-event simulation: between state-change events every
request's work-depletion rate is constant, so the engine only touches
state when something happens — an arrival, an admission-delay expiry, a
self-scheduling quantum, or a completion.  The next completion is
*tentative*, computed from the current rates, and only one is ever live:
every rate refresh (degree raise, boost, arrival, exit) overwrites one
slot with its time, the queue sequence number it drew and the request it
was scheduled for, so a superseded completion is never allocated, heaped
or drained.  At that time the engine finishes every running request with
no work left and the slot's request, whose residue can exceed the
absolute finish bound once the clock is large.  Arrivals come from a
cursor over the sorted specs (or the stream, one spec ahead) that wins
every time tie, the order of the reference engine
(:mod:`repro.sim._baseline`), which heaps every arrival before any other
event; so the heap holds only quantum ticks, delay expiries and faults
(DESIGN.md §10).

Determinism: given identical arrival specs and scheduler state the run
is bit-for-bit reproducible — time ties break by arrival first, then by
queue sequence number (insertion order), and no wall-clock or
randomness enters the engine.

Hot-path structure (DESIGN.md §10): the engine is the inner loop of
every load sweep, so the per-event work is kept incremental.  Per-degree
speedup and occupancy are cached on the request and refreshed only when
the degree changes; each rate refresh is two tight passes over the
running set (re-accumulate the two demand sums, then rescale factors,
rates, and the earliest tentative completion in one sweep) with no dict
or allocation churn; the commit loop inlines
:meth:`~repro.sim.request.SimRequest.advance`; the backlog is a
``deque`` and delayed ids a sorted list.  Every optimization preserves
bit-for-bit identity with the frozen reference implementation in
:mod:`repro.sim._baseline` — in particular the demand sums are
re-accumulated in running-set order rather than maintained by
add/subtract, because float addition is non-associative and
incrementally-maintained sums would drift from the reference.

Quantum ticks are cheap (DESIGN.md §10).  On the per-request loops a
tick does not commit: it appends its interval to a pending log, and the
log is replayed request by request, with the commit loop's operations
in its order, before the next commit that is not a tick, before a
recompute the tick caused, and at the end of the run.  A tick's hook
first brings only its own request up to date (the ``on_quantum`` read
contract in :mod:`repro.sim.api`).  A tick whose request has not yet
progressed to its scheduler's
:meth:`~repro.sim.api.Scheduler.tick_horizon` (cached on the request
while its degree and the load hold) skips the sync and the hook and is
simply re-armed; the progress is read as the hook would read it, so the
loops and the batch kernels skip the same hooks.  Every tick stays in
the heap, so the commit times, the event order and every simulated bit
are unchanged.  The batch kernels, topology runs and fault-plan runs
commit ticks eagerly.

Core pools (DESIGN.md §12): a run without a
:class:`~repro.hetero.pools.Topology` is one pool of every core at speed
1.0 with no energy model, so every run shares one commit loop and one
rate refresh.

Kernel choice by running-set size (DESIGN.md §14): the commit and the
rate refresh each exist twice, as the per-request loops above and as
numpy *batch kernels* over a slot table.  Per event, the loops cost O(n)
Python work and the batch kernels a near-fixed ~40-80 µs of array
calls, so the engine picks by ``n`` as it changes.  Measured on the
overloaded Bing FIX-4 cell's arrivals (8 cores, 900 RPS, 3000 requests;
2 vCPU; best of 9 runs for the kernels, 18 for the loops, taken together),
µs per event for commit + recompute:

==================  ====  =====  =====  ======  =======  =======  ========
running set n       1-31  32-63  64-95  96-127  128-255  256-511  512-1023
==================  ====  =====  =====  ======  =======  =======  ========
loop, attr on       16    34     59     75      134      263      565
batch, attr on      45    42     43     44      48       55       67
loop, attr off      18    32     55     74      135      251      466
batch, attr off     51    50     51     53      55       65       79
==================  ====  =====  =====  ======  =======  =======  ========

Below n = 64 the loops are 1.2-3x faster; from n = 64 the batch
kernels win (narrowly in 64-95 without attribution), by more as n
grows.  A start that brings the running set to :data:`BATCH_ENTRY`
moves it into the slot table; the completions that drain it below
:data:`BATCH_EXIT` store the slots back onto the request objects and
return to the loops.  The
crossover thus lies at the low end of the 64-127 band between the two
sizes, and the band keeps a running set that hovers near one size from
copying itself on every start and exit.  Each switch is bit-identical:
slot order is running-set order and the order-sensitive sums are
left-to-right ``np.cumsum``, so no simulated float changes, only wall
time.  Runs with a topology stay on the per-request loops, because the
slot table has no pool row.

The slot table is two 2-D arrays with one lane per slot: a float64 block
with a row per hot request field plus a *ones* row (1.0 on active
lanes), and a bool block (active, boosted, boost pending, *unboosted* =
active and not boosted).  Free lanes are exactly +0.0 and False, so a
row masked to the active lanes equals the row itself and the kernels
mask only where a mask changes a value: with no lane boosted the
recompute sums the unmasked demand row and scales three rows by one
scalar factor.  The commit updates ``rem`` in place and clamps behind
one ``rem.min() < 0.0`` guard; the loop's ``<= 0.0`` clamp changes
nothing more, as ``rem`` never holds -0.0.  The next completion is
``now + min(rem / rate)``, equal to the loop's ``min(now + rem / rate)``
because rounded addition is monotone.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.speedup import SpeedupCurve
from repro.errors import SimulationError
from repro.faults.plan import CoreFault, FaultPlan, StallFault
from repro.hetero.energy import EnergyReport, PoolEnergy
from repro.hetero.pools import Topology
from repro.sim.api import Admission, AdmissionAction, Scheduler, SchedulerContext
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.metrics import ATTRIBUTION_COMPONENTS, MetricsCollector, SimulationResult
from repro.sim.processor import BoostController, occupancy, share_factors
from repro.sim.request import RequestState, SimRequest
from repro.telemetry import Telemetry, resolve_telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SPAN, Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (observe -> sim)
    from repro.observe.live import LivePlane

__all__ = ["ArrivalSpec", "Engine", "simulate"]

# FAULT event payload tags (internal).
_CORE_LOSS = "core_loss"
_CORE_RESTORE = "core_restore"
_STALL = "stall"
_STALL_END = "stall_end"

_FINISH_EPS = 1e-6  # ms — one nanosecond of slack for float residue
#: Pending completion rows at which :class:`Engine` folds them even
#: with no window to close (streamed runs stay O(running set)).
_FOLD_ROWS = 4096
_INF = float("inf")
#: The completion slot when no completion is scheduled: it compares
#: above every heap entry (``(time, sequence, event)``).
_NO_COMPLETION = (_INF, -1)

#: Running-set sizes at which :class:`Engine` enters and leaves the
#: batch kernels (see the module docstring for the measured crossover).
BATCH_ENTRY = 128
BATCH_EXIT = 64

#: Slot-table rows (module docstring), in ``_load_slot`` order: remaining
#: work, rate, degree speedup and demand, share factor and cores,
#: float(degree), effective/thread/core time, the four attribution
#: components, stall end, the current degree's residency, ones.
(_REM, _RATE, _DSPEED, _DDEMAND, _SFACTOR, _SCORE, _DEGF, _EFF, _TTHREAD, _TCORE,
 _A_SERV, _A_CONT, _A_BWAIT, _A_STALL, _STALL_UNTIL, _RESID, _ONES) = range(17)
_ACT, _BOOSTED, _BPENDING, _UNBOOSTED = range(4)  # rows of the flag block


@dataclass(frozen=True)
class ArrivalSpec:
    """One request the open-loop client will submit."""

    time_ms: float
    seq_ms: float
    speedup: SpeedupCurve
    tag: Any = None


class Engine:
    """Simulates one multicore server under a scheduling policy.

    An engine runs **once**: :meth:`run` raises on a second call rather
    than silently mixing stale clocks, requests, and metrics into a new
    simulation — construct a fresh engine (or use :func:`simulate`) per
    run.

    Parameters
    ----------
    cores:
        Hardware parallelism (15 for the Lucene testbed, 12 for Bing).
    scheduler:
        The policy deciding admission, degrees, and boosting.
    quantum_ms:
        Self-scheduling period (Section 6.1 uses 5 ms).
    spin_fraction:
        Fraction of lost parallelism (``d - s(d)``) that burns CPU
        rather than blocking (see :mod:`repro.sim.processor`).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injecting core
        loss/restore events, per-request straggler inflation, and
        transient worker stalls.  Plans are fully materialized and
        seeded, so injection preserves bit-for-bit reproducibility.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` pipeline.  When
        resolved (explicitly or via an installed ambient pipeline) the
        engine emits per-request spans on the ``"sim"`` track — a
        retroactive ``queue`` span covering any admission wait, a
        ``run`` span from start to completion (with a ``boost``
        instant when priority boosting fires), and a ``shed`` span for
        rejected requests — plus counters and a latency histogram,
        all timestamped in *virtual* milliseconds.  When absent (the
        default) no telemetry code runs at all.
    attribution:
        The per-request flight recorder (on by default): every
        committed interval is charged to one of the additive latency
        components — queue wait, full-speed-equivalent service,
        contention inflation, boost wait, stall — which surface on
        :class:`~repro.sim.metrics.RequestRecord`, as ``sim.attr.*``
        histograms, and as attrs on the ``run`` span.  Disable to shave
        the accounting from the hot loop.  With telemetry or a live
        plane attached, each finished request leaves one completion
        row (DESIGN.md §9): finish time, latency, the five components,
        energy, pool and id.  The run span is built from the row and
        the request at once; the registry's completion instruments and
        the plane's window accumulators take the rows in time order,
        folded before the plane closes a window, before any other
        registry write or annotation, every few thousand rows and at
        the end of the run.  Each observer takes its values in
        the order it took them one completion at a time, so every
        registry value, window and trace byte is bit-identical to
        feeding each completion to each observer.  On traced-session's
        big/little cells attribution adds 2-3% to a bare run and about
        11% with telemetry and a live plane: the five components'
        histograms, span attrs and window sums, not the commit loop.
    topology:
        Optional :class:`~repro.hetero.pools.Topology` of typed core
        pools (big/little, DVFS-resolved speeds and powers).  When set,
        processor sharing runs *per pool* (a request's threads occupy
        exactly one pool), rates scale by the pool speed, and a
        deterministic energy accumulator tracks active/spin/idle joules
        per pool (DESIGN.md §12).  ``topology.total_cores`` must equal
        ``cores``.  When ``None`` (the default) the machine is one pool
        of ``cores`` cores at speed 1.0 with no energy model.  Both run
        the same loops, so a single-pool topology at speed 1.0 gives
        the same bits by construction: ``x * 1.0`` is exact in IEEE 754
        and the one pool's demand sums run in running-set order.

    Runs without a topology pick their commit/recompute kernels by
    running-set size (:data:`BATCH_ENTRY` / :data:`BATCH_EXIT`, module
    docstring); nothing for the caller to set.
    """

    #: Kernel crossover sizes; subclasses override them to pin a kernel
    #: (:class:`repro.sim.vector.VectorEngine` batches from the first
    #: request).
    _batch_entry: float = BATCH_ENTRY
    _batch_exit: float = BATCH_EXIT

    def __init__(
        self,
        cores: int,
        scheduler: Scheduler,
        quantum_ms: float = 5.0,
        spin_fraction: float = 0.25,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
        attribution: bool = True,
        topology: Topology | None = None,
        live: "LivePlane | None" = None,
        collector: MetricsCollector | None = None,
    ) -> None:
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        if quantum_ms <= 0:
            raise SimulationError(f"quantum_ms must be positive, got {quantum_ms}")
        if not 0.0 <= spin_fraction <= 1.0:
            raise SimulationError(f"spin_fraction must be in [0, 1]: {spin_fraction}")
        if topology is not None and topology.total_cores != cores:
            raise SimulationError(
                f"topology has {topology.total_cores} cores, engine asked for {cores}"
            )
        self.cores = cores
        self.scheduler = scheduler
        self.quantum_ms = quantum_ms
        self.spin_fraction = spin_fraction
        self.fault_plan = fault_plan
        self.boost = BoostController(cores)

        self.now_ms = 0.0
        self._queue = EventQueue()
        self._requests: dict[int, SimRequest] = {}
        self._running: dict[int, SimRequest] = {}
        self._waiting_fifo: deque[int] = deque()  # e1-queued request ids, FIFO
        self._delayed: list[int] = []  # mid-delay request ids, sorted (= arrival order)
        self._candidate = 0  # requests mid-admission (counted in the load)
        self._rates_dirty = False
        #: The one live tentative completion, as ``(time, sequence)``
        #: (:data:`_NO_COMPLETION` when none), and the request it was
        #: scheduled for; every rate refresh replaces both.
        self._completion = _NO_COMPLETION
        self._completion_target: SimRequest | None = None
        #: The pending-tick log (DESIGN.md §10): on the per-request loops
        #: a quantum tick appends its interval here (:meth:`_defer`)
        #: instead of committing it, and :meth:`_replay_ticks` commits
        #: the log before the next commit that is not a tick.
        #: ``_tick_sums`` holds the gauges over the logged intervals
        #: (threads, busy cores, requests in the system).
        self._dts: list[float] = []
        self._tick_sums: tuple[int, float, int] = (0, 0.0, 0)
        #: True while the batch kernels run over the slot table (whose
        #: columns :meth:`_enter_batch` allocates).
        self._batch = False
        #: Streaming mode (DESIGN.md §14): when :meth:`run` is handed an
        #: iterator instead of a sequence, arrivals are generated lazily
        #: (one ahead of the clock) and finished requests are dropped
        #: from the table, so memory is O(running set) instead of
        #: O(total requests).
        self._discard_done = False
        self._submitted = 0
        #: ``collector`` swaps the record-keeping strategy: the default
        #: :class:`MetricsCollector` keeps every RequestRecord (full
        #: SimulationResult); a streaming collector (repro.sim.stream)
        #: folds completions into mergeable histograms instead.
        self._metrics = collector if collector is not None else MetricsCollector(cores)
        self._ctx = SchedulerContext(self)
        self._completed = 0
        self._shed = 0
        self._ran = False
        #: Events the run scheduled: arrivals, quantum ticks, delay
        #: expiries, faults and tentative completions, each completion
        #: counted when scheduled, whether handled or superseded by the
        #: next rate refresh — the numerator of events/sec benches.
        self.events_processed = 0
        #: The run's work by kind, flushed once at its end: ``arrivals``,
        #: ``completions`` (handled), ``superseded_completions``,
        #: ``ticks``, ``tick_hooks`` (ticks that reached ``on_quantum``),
        #: ``horizon_evaluations`` (``tick_horizon`` calls),
        #: ``delay_expiries`` and ``faults``.  ``events_processed`` is the
        #: sum of every kind but the hooks and the evaluations.
        self.work: dict[str, int] = {}
        self.telemetry = resolve_telemetry(telemetry)
        self.attribution = attribution
        #: Optional live observability plane (repro.observe.live): the
        #: completion rows and each fault feed its window stream.  Costs
        #: one attribute check per completion when absent.
        self._live = live
        #: The run span id and parent id each running request reserved
        #: at its start; its span is built at completion.
        self._run_spans: dict[int, tuple[int, int | None]] = {}
        #: Completion rows (DESIGN.md §9): with telemetry or a live plane
        #: attached, each finished request leaves one row, and
        #: :meth:`_fold` feeds the pending rows, in time order, to the
        #: registry's completion instruments and the plane's window
        #: accumulators; arrivals are counted until the same fold.
        self._rows: list[tuple] = []
        self._arrivals_pending = 0
        #: The clock time from which a row or an arrival first folds
        #: and rolls the plane: the end of the plane's open window
        #: (``-inf`` before its first activity, ``inf`` without one).
        self._roll_at = _INF if live is None else -_INF
        #: The arrival counter and the completion counter and
        #: histograms, resolved at their first fold.
        self._arrival_counter = None
        self._instruments: tuple | None = None

        #: Core pools (repro.hetero), by position.  A run without a
        #: topology is one pool of every core at speed 1.0; a topology
        #: run adds the energy model (``_hetero``), in W·ms = mJ until
        #: the final :class:`~repro.hetero.energy.EnergyReport`.
        self.topology = topology
        self._hetero = topology is not None
        self._npools = 1
        self._pool_online = [cores]
        self._pool_speeds = [1.0]
        if topology is not None:
            npools = len(topology)
            self._npools = npools
            self._pool_names = [pool.name for pool in topology]
            self._pool_speeds = [pool.effective_speed for pool in topology]
            self._pool_active_w = [pool.effective_active_power_w for pool in topology]
            self._pool_idle_w = [pool.effective_idle_power_w for pool in topology]
            self._pool_online = [pool.count for pool in topology]
            self._pools_by_speed = sorted(
                range(npools), key=lambda i: (-self._pool_speeds[i], i)
            )
            self._e_active = [0.0] * npools
            self._e_spin = [0.0] * npools
            self._e_idle = [0.0] * npools
            # The slot table has no pool row: stay on the loops.
            self._batch_entry = _INF
        if topology is not None or fault_plan is not None:
            # Ticks commit eagerly: the per-pool energy sums interleave
            # requests within each interval, and stalledness is tested
            # at each interval's start (DESIGN.md §10).
            self._defer = self._commit  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Observable state (SchedulerContext reads these)
    # ------------------------------------------------------------------
    @property
    def system_count(self) -> int:
        """The interval-table load index: requests *admitted* to the
        system (running or waiting out an admission delay), plus the
        candidate currently being evaluated.

        Requests queued behind the ``e1`` marker are outside the system
        — they have not been admitted — so they do not inflate the
        index (otherwise a transient backlog would pin every later
        lookup at the ``e1`` row and starve the server).
        """
        return len(self._running) + len(self._delayed) + self._candidate

    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def total_threads(self) -> int:
        return sum(r.degree for r in self._running.values())

    @property
    def queued_count(self) -> int:
        """Size of the ``e1`` backlog (the quantity shedding bounds)."""
        return len(self._waiting_fifo)

    @property
    def cores_online(self) -> int:
        """Cores currently available (reduced while a core fault is live)."""
        return sum(self._pool_online)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self, arrivals: Sequence[ArrivalSpec] | Iterable[ArrivalSpec]
    ) -> SimulationResult:
        """Execute all arrivals to completion and return the metrics.

        Engines are single-shot: a second call raises
        :class:`~repro.errors.SimulationError` instead of reusing the
        first run's clock, request table, and metric integrals.

        ``arrivals`` may be a materialized sequence (the classic path:
        sorted up front, every request kept for the final records) or
        any other iterable (the *streaming* path, DESIGN.md §14): specs
        are consumed lazily in non-decreasing time order, one arrival
        event in flight ahead of the clock, and completed or shed
        requests are discarded — memory stays O(running set) for
        million-request runs.  Both paths feed one arrival cursor that
        wins every time tie, so the same trace replays bit-identically
        through either path.

        A finished run frees itself, also when it raises: the engine
        drops its :class:`SchedulerContext` (which points back at it)
        and the kernels bound on the instance (bound methods of it), so
        its requests, records and event heap are freed when the caller
        drops the engine, not at the next full collection (DESIGN.md
        §10).
        """
        if self._ran:
            raise SimulationError(
                "engine already ran; construct a new Engine per simulation"
            )
        self._ran = True
        try:
            return self._run(arrivals)
        finally:
            self._ctx = None
            for name in ("_defer", "_commit", "_recompute_rates"):
                self.__dict__.pop(name, None)

    def _run(
        self, arrivals: Sequence[ArrivalSpec] | Iterable[ArrivalSpec]
    ) -> SimulationResult:
        self.scheduler.reset()
        self.boost.reset()
        if isinstance(arrivals, Sequence):
            if not arrivals:
                raise SimulationError("no arrivals to simulate")
            ordered = sorted(arrivals, key=lambda s: s.time_ms)
            if ordered[0].time_ms < 0:
                raise ValueError(f"event time must be >= 0, got {ordered[0].time_ms}")
            pending = [
                SimRequest(rid, spec.time_ms, spec.seq_ms, spec.speedup, tag=spec.tag)
                for rid, spec in enumerate(ordered)
            ]
            self._requests.update(enumerate(pending))
            self._submitted = len(pending)
            source: Iterator[SimRequest] = iter(pending)
        else:
            self._discard_done = True
            source = self._streamed_requests(iter(arrivals))
        arrival = next(source, None)
        if arrival is None:
            raise SimulationError("no arrivals to simulate")
        if self.fault_plan is not None:
            for core_fault in self.fault_plan.core_faults:
                self._queue.push(
                    core_fault.time_ms,
                    Event(EventKind.FAULT, payload=(_CORE_LOSS, core_fault)),
                )
            for stall in self.fault_plan.stalls:
                self._queue.push(
                    stall.time_ms, Event(EventKind.FAULT, payload=(_STALL, stall))
                )

        # The run loop: hot enough that the event choice and the kind
        # dispatch are inlined here, with enum members and the heap
        # hoisted to locals (a few % per lookup at this call count).
        # Three sources feed it: the arrival cursor, which wins every
        # time tie (the reference engine heaps every arrival before any
        # other event); the completion slot; and the heap of ticks,
        # delay expiries and faults, the slot and the heap ordered by
        # ``(time, sequence)``.  Among heaped events ticks dominate, so
        # they are tested first.  Work is counted in locals and flushed
        # once at the end.
        heap = self._queue.heap
        sequence = self._queue.sequence
        requests = self._requests
        running = self._running
        delayed = self._delayed
        ctx = self._ctx
        tick_horizon = self.scheduler.tick_horizon
        if getattr(tick_horizon, "__func__", None) is Scheduler.tick_horizon:
            tick_horizon = None  # the default: every tick may act, never ask
        quantum_ms = self.quantum_ms
        running_state = RequestState.RUNNING
        quantum_kind = EventKind.QUANTUM
        delay_kind = EventKind.DELAY_EXPIRED
        finish_eps = _FINISH_EPS
        inf = _INF
        neg_inf = -_INF
        no_completion = _NO_COMPLETION
        completion = no_completion
        arrival_ms = arrival.arrival_ms
        arrivals_n = completions = superseded = ticks = hooks = 0
        horizons = delays = faults = 0
        while True:
            if heap:
                entry = heap[0]
                if completion < entry:
                    time_ms = completion[0]
                    entry = None
                else:
                    time_ms = entry[0]
            else:
                entry = None
                time_ms = completion[0]
            if arrival_ms <= time_ms:
                if arrival is None:
                    break  # no arrival, completion or heaped event left
                now = self.now_ms
                self._commit(arrival_ms if arrival_ms > now else now)
                arrivals_n += 1
                request = arrival
                # Streaming mode pulls the next spec as its predecessor
                # is delivered, one arrival ahead of the clock.
                arrival = next(source, None)
                arrival_ms = inf if arrival is None else arrival.arrival_ms
                self._handle_arrival(request)
                if self._rates_dirty:
                    if completion is not no_completion:
                        superseded += 1
                    self._recompute_rates()
                    completion = self._completion
                continue
            now = self.now_ms
            if time_ms < now - finish_eps:
                raise SimulationError(
                    f"time went backwards: {time_ms} < {now}"
                )
            if entry is None:
                # The live tentative completion.
                completions += 1
                completion = no_completion
                self._commit(time_ms if time_ms > now else now)
                self._handle_completion()
                self._recompute_rates()  # an exit always dirties the rates
                completion = self._completion
                continue
            heappop(heap)
            event = entry[2]
            kind = event.kind
            if kind is quantum_kind:
                # The tick's interval goes to the pending log (or is
                # committed, where ticks stay eager).
                ticks += 1
                self._defer(time_ms if time_ms > now else now)
                try:
                    request = requests[event.request_id]
                except KeyError:
                    continue  # finished + discarded (streaming mode)
                if request.state is not running_state:
                    continue  # finished: the tick is not re-armed
                if tick_horizon is not None:
                    horizon = request.horizon
                    if horizon < inf:  # inf holds at every later tick
                        load = len(running) + len(delayed)
                        if (
                            request.horizon_load != load
                            or request.horizon_degree != request.degree
                        ):
                            horizons += 1
                            horizon = request.horizon = tick_horizon(ctx, request)
                            request.horizon_load = load
                            request.horizon_degree = request.degree
                    if horizon > neg_inf and (
                        horizon == inf or self._tick_progress(request) < horizon
                    ):
                        # The hook could change nothing: skip it and the
                        # request's sync, and re-arm (a push, inlined).
                        heappush(heap, (self.now_ms + quantum_ms, next(sequence), event))
                        continue
                hooks += 1
                self._handle_quantum(request, event)
                if self._rates_dirty:
                    self._commit(self.now_ms)  # the log, at the old rates
                    if completion is not no_completion:
                        superseded += 1
                    self._recompute_rates()
                    completion = self._completion
                continue
            self._commit(time_ms if time_ms > now else now)
            if kind is delay_kind:
                delays += 1
                try:
                    request = requests[event.request_id]
                except KeyError:
                    continue  # shed + discarded (streaming mode)
                self._handle_delay_expired(request)
            else:  # EventKind.FAULT — arrivals and completions never heap
                faults += 1
                self._handle_fault(event.payload)
            if self._rates_dirty:
                if completion is not no_completion:
                    superseded += 1
                self._recompute_rates()
                completion = self._completion
        self._commit(self.now_ms)  # ticks that popped after the last other event
        self.work = {
            "arrivals": arrivals_n,
            "completions": completions,
            "superseded_completions": superseded,
            "ticks": ticks,
            "tick_hooks": hooks,
            "horizon_evaluations": horizons,
            "delay_expiries": delays,
            "faults": faults,
        }
        self.events_processed = (
            arrivals_n + completions + superseded + ticks + delays + faults
        )
        self._fold()
        if self._live is not None:
            self._live.flush(self.now_ms)

        if self._completed + self._shed != self._submitted:
            stuck = self._submitted - self._completed - self._shed
            raise SimulationError(
                f"{stuck} requests never completed (scheduler deadlock?)"
            )
        if self._hetero:
            self._metrics.energy_report = self._build_energy_report()
        return self._metrics.finalize()

    def _streamed_requests(
        self, specs: Iterator[ArrivalSpec]
    ) -> Iterator[SimRequest]:
        """Streaming mode's arrival source: each spec becomes a request
        in the table, and counts as submitted, only when the cursor
        pulls it."""
        requests = self._requests
        last_ms = 0.0
        for rid, spec in enumerate(specs):
            time_ms = spec.time_ms
            if time_ms < last_ms:
                raise SimulationError(
                    "streamed arrivals must be non-decreasing in time: "
                    f"{time_ms} after {last_ms}"
                )
            last_ms = time_ms
            request = SimRequest(rid, time_ms, spec.seq_ms, spec.speedup, tag=spec.tag)
            requests[rid] = request
            self._submitted += 1
            yield request

    def _tick_progress(self, request: SimRequest) -> float:
        """The effective progress ``on_quantum`` would read at this
        tick, without syncing the request: its slot-table lane, or its
        ``effective_ms`` plus its pending-tick intervals, added in the
        replay's order with the replay's arithmetic (eager-tick runs
        keep no log)."""
        if self._batch:
            return self._tab[_EFF, self._slot_of[request.rid]]
        progress = request.effective_ms
        dts = self._dts
        mark = request.tick_mark
        if mark < len(dts):
            factor = request.share_factor
            for dt in dts[mark:] if mark else dts:
                progress += factor * dt
        return progress

    # ------------------------------------------------------------------
    # Event handlers (dispatched inline by the run loop)
    # ------------------------------------------------------------------
    def _handle_arrival(self, request: SimRequest) -> None:
        if self.fault_plan is not None:
            inflation = self.fault_plan.straggler_inflation(request.rid)
            if inflation > 1.0:
                # A straggler: the request carries more work than its
                # nominal demand (slow replica, cold cache).  seq_ms
                # stays nominal — the scheduler and the demand-band
                # metrics see the demand the request *claimed*.
                request.remaining_work *= inflation
                request.impaired = True
                self._metrics.fault_stats.stragglers_injected += 1
        if self.telemetry is not None:
            if self.now_ms >= self._roll_at:
                self._roll()
            self._arrivals_pending += 1  # into sim.arrivals at the next fold
        # The request counts toward the load its own admission sees
        # (the interval table is indexed by the count including it).
        self._candidate = 1
        decision = self.scheduler.on_arrival(self._ctx, request)
        self._candidate = 0
        self._apply_admission(request, decision)

    def _handle_delay_expired(self, request: SimRequest) -> None:
        if request.state is not RequestState.DELAYED:
            return  # already started by a wait-check wake-up
        self._delayed_discard(request.rid)
        self._candidate = 1
        decision = self.scheduler.on_wait_check(self._ctx, request)
        self._candidate = 0
        self._apply_admission(request, decision)

    def _handle_quantum(self, request: SimRequest, event: Event) -> None:
        if request.state is not RequestState.RUNNING:
            return
        batch = self._batch
        # The hook reads progress off the object (FM climbs its interval
        # table on effective_ms) and may change the degree or boost
        # state: bring the object up to date from the slot table, or
        # over the pending-tick log.
        if batch:
            slot = self._slot_of[request.rid]
            self._store_slot(slot, request)
        elif self._dts:
            self._commit_ticked(request)
        telemetry = self.telemetry
        was_boosted = request.boosted
        desired = self.scheduler.on_quantum(self._ctx, request)
        if desired > request.degree:
            request.raise_degree(desired)
            self._refresh_degree_cache(request)
            self._rates_dirty = True
            if telemetry is not None:
                self._registry().counter("sim.degree_raises").inc()
        if batch:
            self._load_slot(slot, request)
        if request.boosted and not was_boosted:
            # A boost changes the request's contention factor even
            # without a raise (FIX-N's age-based boosting).
            self._rates_dirty = True
            if telemetry is not None:
                self._registry().counter("sim.boosts").inc()
                telemetry.tracer.instant(
                    "boost", track="sim", lane=request.rid, at_ms=self.now_ms,
                    degree=request.degree,
                )
        # Requests have at most one quantum tick in flight, so the event
        # object just popped is simply re-armed — no allocation per tick.
        self._queue.push(self.now_ms + self.quantum_ms, event)

    def _handle_completion(self) -> None:
        """Finish the requests the live tentative completion retires:
        every running request with no work left, and the one it was
        scheduled for, whose residue can exceed the absolute finish
        bound once the clock's float spacing times its rate does (past
        a few million ms of virtual time)."""
        target = self._completion_target
        if self._batch:
            finished = self._take_finished_slots(target)
        else:
            finished = [
                r for r in self._running.values() if r is target or r.is_finished
            ]
        observed = self.telemetry is not None or self._live is not None
        for request in finished:
            request.finish(self.now_ms)
            del self._running[request.rid]
            self._metrics.record(request)  # snapshot before boost release
            if observed:
                # before the release: the run span records the boosted flag
                self._observe_completion(request)
            self.boost.release(request)
            self._completed += 1
            self.scheduler.on_exit(self._ctx, request)
        if self._batch and len(self._running) < self._batch_exit:
            self._exit_batch()
        if self._discard_done:
            # Streaming mode: the record (or histogram sample) is taken;
            # drop the object so memory tracks the running set.  Any
            # quantum tick still in the heap finds the id missing and is
            # skipped by the run loop.
            requests = self._requests
            for request in finished:
                del requests[request.rid]
        self._rates_dirty = True
        self._wake_waiters(exits=len(finished))

    def _observe_completion(self, request: SimRequest) -> None:
        """Leave a finished request's completion row and, with
        telemetry, store its run span.

        The row holds the floats its :class:`RequestRecord` carries
        (read off the request, as a streaming collector keeps no
        records): finish time, latency, the five attribution
        components, energy, pool and the id.  The run span, under the
        id and parent it reserved at its start, gets the attrs
        :meth:`Tracer.end` gave it, in the same order: the final
        degree, the latency, the boosted flag, the components with
        attribution on, and energy, pool and migrations on a topology
        run.
        """
        now = self.now_ms
        if now >= self._roll_at:
            self._roll()
        rid = request.rid
        latency = now - request.arrival_ms
        components = (
            request.start_ms - request.arrival_ms,
            request.attr_service_ms,
            request.attr_contention_ms,
            request.attr_boost_wait_ms,
            request.attr_stall_ms,
        )
        energy_j = request.energy_mj / 1000.0
        pool = self._pool_names[request.pool] if self._hetero else ""
        rows = self._rows
        rows.append((now, latency, *components, energy_j, pool, rid))
        if self.telemetry is not None:
            attrs = {"degree": request.degree, "latency_ms": latency, "boosted": request.boosted}
            if self.attribution:
                attrs.update(zip(ATTRIBUTION_COMPONENTS, components))
            if self._hetero:
                attrs.update(energy_j=energy_j, pool=pool, migrations=request.migrations)
            span_id, parent_id = self._run_spans.pop(rid)
            self.telemetry.tracer.record(
                Span("run", "sim", rid, span_id, parent_id, request.start_ms, now,
                     SPAN, attrs)
            )
        if len(rows) >= _FOLD_ROWS:
            self._fold()

    def _fold(self) -> None:
        """Feed the pending rows and arrivals to their observers, in
        time order: ``sim.arrivals``, ``sim.completions``,
        ``sim.latency_ms``, ``sim.attr.*`` and ``sim.energy.request_j``
        through ``inc(k)`` and ``record_many``, and the live plane's
        window accumulators through :meth:`LivePlane.observe_many`.

        Each instrument and accumulator takes the rows' values in the
        order it took them one completion at a time, and instruments
        are created in that order too, so every registry value, window
        and exemplar is bit-identical (DESIGN.md §9).  Folds come before
        the plane closes a window, before any other registry write or
        annotation (:meth:`_roll`), every :data:`_FOLD_ROWS` rows and at
        the end of the run, so no observer is read while rows of the
        window it reports are pending.
        """
        telemetry = self.telemetry
        if self._arrivals_pending:
            counter = self._arrival_counter
            if counter is None:
                counter = self._arrival_counter = telemetry.metrics.counter(
                    "sim.arrivals"
                )
            counter.inc(self._arrivals_pending)
            self._arrivals_pending = 0
        rows = self._rows
        if not rows:
            return
        self._rows = []
        (times, latencies, queues, services, contentions, boost_waits, stalls,
         energies, pools, rids) = zip(*rows)
        components = (queues, services, contentions, boost_waits, stalls)
        if telemetry is not None:
            instruments = self._instruments
            if instruments is None:
                metrics = telemetry.metrics
                instruments = self._instruments = (
                    metrics.counter("sim.completions"),
                    metrics.histogram("sim.latency_ms"),
                    [
                        metrics.histogram("sim.attr." + name)
                        for name in (ATTRIBUTION_COMPONENTS if self.attribution else ())
                    ],
                    metrics.histogram("sim.energy.request_j") if self._hetero else None,
                )
            completions, latency, by_component, energy = instruments
            completions.inc(len(rows))
            latency.record_many(latencies)
            for histogram, column in zip(by_component, components):
                histogram.record_many(column)
            if energy is not None:
                energy.record_many(energies)
        if self._live is not None:
            self._live.observe_many(
                times,
                latencies,
                dict(zip(ATTRIBUTION_COMPONENTS, components)) if self.attribution else None,
                energies if self._hetero else None,
                pools,
                rids,
            )

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------
    def _handle_fault(self, payload: object) -> None:
        kind, detail = payload  # type: ignore[misc]
        stats = self._metrics.fault_stats
        if kind == _CORE_LOSS:
            fault: CoreFault = detail
            online = sum(self._pool_online)
            removed = online - max(1, online - fault.cores)
            # Take cores from the highest-index pools first (the little
            # cluster in the canonical big/little ordering),
            # deterministically; individual pools may go to zero as long
            # as the machine keeps one core somewhere.
            remaining = removed
            taken = [0] * self._npools
            for pool in range(self._npools - 1, -1, -1):
                take = min(remaining, self._pool_online[pool])
                self._pool_online[pool] -= take
                taken[pool] = take
                remaining -= take
                if remaining == 0:
                    break
            stats.core_faults_applied += 1
            stats.faults_fired += 1
            self._observe_fault("core_loss", cores=removed)
            self._queue.push(
                self.now_ms + fault.duration_ms,
                Event(EventKind.FAULT, payload=(_CORE_RESTORE, tuple(taken))),
            )
            self._rates_dirty = True
        elif kind == _CORE_RESTORE:
            for pool, count in enumerate(detail):  # the loss's per-pool counts
                self._pool_online[pool] += count
            self._observe_fault("core_restore", cores_online=self.cores_online)
            self._rates_dirty = True
        elif kind == _STALL:
            stall: StallFault = detail
            if self._batch:
                self._store_slots()  # the victim is chosen by remaining work
            victim = self._stall_victim()
            if victim is None:
                return  # nothing running; the stall is a no-op
            victim.stalled_until_ms = self.now_ms + stall.duration_ms
            if self._batch:
                self._load_slot(self._slot_of[victim.rid], victim)
            victim.impaired = True
            stats.stalls_injected += 1
            stats.faults_fired += 1
            self._observe_fault(
                "stall", rid=victim.rid, duration_ms=stall.duration_ms
            )
            self._queue.push(
                victim.stalled_until_ms,
                Event(EventKind.FAULT, payload=(_STALL_END, victim.rid)),
            )
            self._rates_dirty = True
        elif kind == _STALL_END:
            # The victim may have been re-stalled or already finished;
            # recomputing rates handles every case.
            self._rates_dirty = True
        else:  # pragma: no cover - payload tags are closed
            raise SimulationError(f"unknown fault payload {payload!r}")

    def _observe_fault(self, fault: str, **detail: object) -> None:
        """Surface an injected fault as a first-class observability
        event: an ``observe.event`` instant on the trace and an
        annotation on the live plane's window stream.  Cold path —
        faults are orders of magnitude rarer than completions."""
        if self.telemetry is not None:
            self.telemetry.tracer.instant(
                "observe.event",
                track="observe",
                at_ms=self.now_ms,
                kind="fault",
                fault=fault,
                **detail,
            )
        if self._live is not None:
            self._roll()
            self._live.annotate(self.now_ms, "fault", fault=fault, **detail)

    def _stall_victim(self) -> SimRequest | None:
        """Deterministic stall target: the running request with the most
        remaining work (ties broken by lowest rid)."""
        candidates = [
            r
            for r in self._running.values()
            if not r.is_stalled(self.now_ms) and not r.is_finished
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: (r.remaining_work, -r.rid))

    # ------------------------------------------------------------------
    # Admission machinery
    # ------------------------------------------------------------------
    def _apply_admission(self, request: SimRequest, decision: Admission) -> None:
        if decision.action is AdmissionAction.START or (
            decision.action is AdmissionAction.DELAY and decision.delay_ms <= 0
        ):
            self._start_request(request, decision.degree, decision.pool)
        elif decision.action is AdmissionAction.DELAY:
            request.state = RequestState.DELAYED
            insort(self._delayed, request.rid)
            self._queue.push(
                self.now_ms + decision.delay_ms,
                Event(EventKind.DELAY_EXPIRED, request_id=request.rid),
            )
        elif decision.action is AdmissionAction.WAIT_FOR_EXIT:
            if not self._running and not self._delayed:
                # Nothing will ever exit; queuing would deadlock.  Start
                # sequentially — matches FM's behaviour, where the e1 row
                # admits one request per exit and an idle system admits
                # immediately.
                self._start_request(request, 1)
            else:
                request.state = RequestState.QUEUED
                self._waiting_fifo.append(request.rid)
                if self.telemetry is not None:
                    self._registry().gauge("sim.queue_depth").set(
                        len(self._waiting_fifo)
                    )
        elif decision.action is AdmissionAction.SHED:
            # Fail fast: the request never runs; it is recorded (never
            # silently dropped) and leaves the system immediately.
            request.shed(self.now_ms)
            self._metrics.record_shed(request, decision.deadline)
            self._shed += 1
            if self._discard_done:
                # Streaming mode: shed requests leave the table too (a
                # pending DELAY_EXPIRED for them is skipped on pop).
                del self._requests[request.rid]
            if self.telemetry is not None:
                self._registry().counter("sim.sheds").inc()
                self.telemetry.tracer.complete(
                    "shed", request.arrival_ms, self.now_ms,
                    track="sim", lane=request.rid, deadline=decision.deadline,
                )
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown admission {decision}")

    def _start_request(
        self, request: SimRequest, degree: int, pool: int | None = None
    ) -> None:
        """Begin executing an admitted request (the one place requests
        transition into the running set).

        With several core pools the request is placed on ``pool``
        when the policy pinned one, else on the engine default: the
        fastest pool with occupancy headroom for it (falling back to
        the freest pool) — so policies that never mention pools still
        get sensible big-first placement.
        """
        waited_as = request.state  # pre-start state names the wait kind
        request.start(self.now_ms, max(1, degree))
        self._refresh_degree_cache(request)
        if self._npools > 1:
            if pool is not None and 0 <= pool < self._npools:
                request.pool = pool
            else:
                request.pool = self._default_pool(request)
        self._running[request.rid] = request
        if self._batch:
            self._add_slot(request)
        elif len(self._running) >= self._batch_entry:
            self._enter_batch()
        self._rates_dirty = True
        if self.scheduler.uses_quantum:
            self._queue.push(
                self.now_ms + self.quantum_ms,
                Event(EventKind.QUANTUM, request_id=request.rid),
            )
        self.scheduler.on_start(self._ctx, request)
        if self.telemetry is not None:
            tracer = self.telemetry.tracer
            if self.now_ms > request.arrival_ms:
                tracer.complete(
                    "queue", request.arrival_ms, self.now_ms,
                    track="sim", lane=request.rid,
                    wait=waited_as.value,
                )
            self._run_spans[request.rid] = tracer.reserve()

    def _roll(self) -> None:
        """Fold the pending rows, then roll the live plane's grid to now,
        so a write made now lands in the registry window that contains
        it rather than in whichever window the plane closes next
        (DESIGN.md §13)."""
        self._fold()
        live = self._live
        if live is not None:
            live.advance(self.now_ms)
            self._roll_at = live.window_end_ms

    def _registry(self) -> MetricsRegistry:
        """The telemetry registry, for a write at the current time
        (after :meth:`_roll`)."""
        self._roll()
        return self.telemetry.metrics

    def _wake_waiters(self, exits: int) -> None:
        """Re-evaluate waiting requests after ``exits`` completions
        (Section 4.2: "When a request leaves, FM computes the load and
        starts a queued request (if one exists)").

        Queued (``e1``) requests are admitted in FIFO order for as long
        as the policy's current row allows; at saturation the ``e1``
        contract applies — "wait until another request exits and then
        start executing sequentially" — one forced admission per exit.
        The backlog is a deque, so each admission is an O(1)
        ``popleft`` even when overload has queued thousands.
        """
        forced = 0
        waiting = self._waiting_fifo
        while waiting:
            request = self._requests[waiting[0]]
            self._candidate = 1
            decision = self.scheduler.on_wait_check(self._ctx, request)
            self._candidate = 0
            if decision.action is AdmissionAction.WAIT_FOR_EXIT:
                if forced >= exits:
                    break
                decision = Admission.start(1)
                forced += 1
            waiting.popleft()
            if self.telemetry is not None:
                self._registry().gauge("sim.queue_depth").set(len(waiting))
            self._apply_admission(request, decision)
        # Delayed requests may start early when load drops — or be shed
        # if their deadline budget expired while they waited.  The list
        # is kept sorted by rid (= arrival order), so the snapshot needs
        # no per-wake sort.
        for rid in tuple(self._delayed):
            request = self._requests[rid]
            decision = self.scheduler.on_wait_check(self._ctx, request)
            if decision.action is AdmissionAction.START or (
                decision.action is AdmissionAction.DELAY and decision.delay_ms <= 0
            ):
                self._delayed_discard(rid)
                self._apply_admission(
                    request, Admission.start(decision.degree, decision.pool)
                )
            elif decision.action is AdmissionAction.SHED:
                self._delayed_discard(rid)
                self._apply_admission(request, decision)
            # A longer delay keeps the original timer: the pending
            # DELAY_EXPIRED event will re-check anyway.

    def _delayed_discard(self, rid: int) -> None:
        """Remove ``rid`` from the sorted delayed-id list, if present."""
        ids = self._delayed
        i = bisect_left(ids, rid)
        if i < len(ids) and ids[i] == rid:
            del ids[i]

    # ------------------------------------------------------------------
    # Fluid-rate machinery
    # ------------------------------------------------------------------
    def _refresh_degree_cache(self, request: SimRequest) -> None:
        """Refresh the per-degree caches after a degree change.

        ``s(degree)`` and the occupancy ``o(degree)`` depend only on the
        request's curve, its degree, and the engine's spin fraction —
        recomputing them here (degree changes are rare) is what lets the
        per-event rate refresh touch no speedup curves at all.
        """
        s = request.speedup.speedup(request.degree)
        request.degree_speedup = s
        request.degree_demand = occupancy(s, request.degree, self.spin_fraction)

    def _commit(self, t: float) -> None:
        """Advance work and metric integrals from ``now`` to ``t`` under
        the current (constant) rates.

        This is the hottest loop in the simulator — it visits every
        running request on every event that is not a deferred tick — so
        the body of :meth:`SimRequest.advance` is inlined here (same
        operations, in the same order, so results stay bit-identical to
        the method).  The pending-tick log is committed first; a
        topology run then charges the interval to the energy model.
        """
        if self._dts:
            self._replay_ticks()
        dt = t - self.now_ms
        if dt > 0:
            now = self.now_ms
            attribution = self.attribution
            have_faults = self.fault_plan is not None
            busy_cores = 0.0
            total_threads = 0
            for request in self._running.values():
                factor = request.share_factor
                core_alloc = request.share_cores
                # Stall boundaries coincide with commit boundaries (the
                # STALL / STALL_END events force commits), so stalledness
                # is constant across [now, t).  Without a fault plan no
                # request is ever stalled — skip the check entirely.
                stalled = have_faults and request.is_stalled(now)
                useful = factor * dt
                if attribution:
                    if stalled:
                        request.attr_stall_ms += dt
                    else:
                        request.attr_service_ms += useful
                        slowdown = dt - useful
                        if request.boost_pending and not request.boosted:
                            request.attr_boost_wait_ms += slowdown
                        else:
                            request.attr_contention_ms += slowdown
                request.effective_ms += useful
                remaining = request.remaining_work - request.rate * dt
                if remaining <= 0.0:
                    if remaining < -1e-6:
                        raise SimulationError(
                            f"request {request.rid}: overshoot {remaining}"
                        )
                    remaining = 0.0
                request.remaining_work = remaining
                degree = request.degree
                request.thread_time_ms += degree * dt
                request.core_time_ms += core_alloc * dt
                residency = request.degree_residency
                try:
                    residency[degree] += dt
                except KeyError:
                    residency[degree] = dt
                busy_cores += core_alloc
                total_threads += degree
            if self._hetero:
                self._account_energy(now, dt)
            in_system = (
                len(self._running) + len(self._delayed) + len(self._waiting_fifo)
            )
            self._metrics.observe_interval(dt, total_threads, busy_cores, in_system)
        self.now_ms = t

    def _account_energy(self, now: float, dt: float) -> None:
        """Charge the committed interval ``[now, now + dt)`` to the
        per-pool energy accumulators (topology runs only), in W·ms = mJ.

        A request's threads occupy ``share_cores`` cores of its pool at
        active power: the useful ``degree_speedup * factor`` part is
        active (nothing while stalled), the rest spin.  Online cores
        with no thread accrue idle energy.  The pass runs in running-set
        order, so each accumulator adds what a fused loop would add.
        """
        have_faults = self.fault_plan is not None
        active_w = self._pool_active_w
        e_active = self._e_active
        e_spin = self._e_spin
        pool_busy = [0.0] * self._npools
        for request in self._running.values():
            pool = request.pool
            core_alloc = request.share_cores
            occupied_ms = core_alloc * dt
            if have_faults and request.is_stalled(now):
                active_ms = 0.0
            else:
                active_ms = request.degree_speedup * request.share_factor * dt
            power = active_w[pool]
            e_active[pool] += power * active_ms
            e_spin[pool] += power * (occupied_ms - active_ms)
            request.energy_mj += power * occupied_ms
            pool_busy[pool] += core_alloc
        idle_w = self._pool_idle_w
        online = self._pool_online
        e_idle = self._e_idle
        for pool in range(self._npools):
            idle_cores = online[pool] - pool_busy[pool]
            if idle_cores > 0.0:
                e_idle[pool] += idle_w[pool] * idle_cores * dt

    # ------------------------------------------------------------------
    # Deferred tick commits (DESIGN.md §10).  On the per-request loops a
    # quantum tick only logs its interval; the log is replayed request
    # by request, with :meth:`_commit`'s operations in its order, before
    # the next commit that is not a tick, before a recompute a tick
    # caused, and at the end of the run.  Each request's accumulators
    # are its own, so advancing one request over k intervals and then
    # the next gives the same bits as k passes over the running set.
    # Nothing the replay reads can change inside the log: rates, shares
    # and the gauges change only at a recompute (which replays first),
    # and a tick's hook changes only its own request, which is brought
    # up to date before the hook runs (the on_quantum read contract in
    # repro.sim.api).  Runs with a fault plan or a topology, and the
    # batch kernels, commit every tick eagerly (``_defer`` is rebound).
    # The replay runs under exactly one ``_commit*`` frame (``_commit``
    # or ``_commit_ticked``), so a profile's commit share counts it once.
    # ------------------------------------------------------------------
    def _defer(self, t: float) -> None:
        """A quantum tick's commit: log the interval and advance ``now``."""
        dt = t - self.now_ms
        if dt > 0:
            dts = self._dts
            if not dts:
                # The gauges hold over the whole log; take them before
                # this tick's hook can raise a degree.
                busy_cores = 0.0
                total_threads = 0
                for request in self._running.values():
                    busy_cores += request.share_cores
                    total_threads += request.degree
                in_system = (
                    len(self._running) + len(self._delayed) + len(self._waiting_fifo)
                )
                self._tick_sums = (total_threads, busy_cores, in_system)
            dts.append(dt)
        self.now_ms = t

    def _commit_ticked(self, request: SimRequest) -> None:
        """Advance the ticked request over the log before its hook."""
        self._replay((request,), len(self._dts))

    def _replay_ticks(self) -> None:
        """Commit the pending-tick log: every running request over the
        intervals it has not seen yet, then the metric integrals."""
        self._replay(self._running.values(), 0)
        dts = self._dts
        self._metrics.observe_intervals(dts, *self._tick_sums)
        dts.clear()

    def _replay(self, requests: Iterable[SimRequest], mark: int) -> None:
        """:meth:`_commit`'s per-request body over the logged intervals
        each request has not seen (from its ``tick_mark`` on), in
        locals, stored once; the marks are then set to ``mark``.  No
        logged interval is stalled: fault-plan runs never defer."""
        log = self._dts
        logged = len(log)
        attribution = self.attribution
        for request in requests:
            start = request.tick_mark
            request.tick_mark = mark
            if start == logged:
                continue
            dts = log[start:] if start else log
            factor = request.share_factor
            rate = request.rate
            degree = request.degree
            threads = float(degree)  # threads * dt is degree * dt, on floats
            core_alloc = request.share_cores
            boost_wait = request.boost_pending and not request.boosted
            service = request.attr_service_ms
            slowdowns = (
                request.attr_boost_wait_ms if boost_wait else request.attr_contention_ms
            )
            effective = request.effective_ms
            remaining_work = request.remaining_work
            thread_time = request.thread_time_ms
            core_time = request.core_time_ms
            residency = request.degree_residency
            try:
                resident = residency[degree]
            except KeyError:
                resident = 0.0  # 0.0 + dt == dt: the loop's first entry
            for dt in dts:
                useful = factor * dt
                if attribution:
                    service += useful
                    slowdowns += dt - useful
                effective += useful
                remaining = remaining_work - rate * dt
                if remaining <= 0.0:
                    if remaining < -1e-6:
                        raise SimulationError(
                            f"request {request.rid}: overshoot {remaining}"
                        )
                    remaining = 0.0
                remaining_work = remaining
                thread_time += threads * dt
                core_time += core_alloc * dt
                resident += dt
            if attribution:
                request.attr_service_ms = service
                if boost_wait:
                    request.attr_boost_wait_ms = slowdowns
                else:
                    request.attr_contention_ms = slowdowns
            request.effective_ms = effective
            request.remaining_work = remaining_work
            request.thread_time_ms = thread_time
            request.core_time_ms = core_time
            residency[degree] = resident

    def _recompute_rates(self) -> None:
        """Refresh per-request rates and schedule the next tentative
        completion; called after any state change.

        Pool by pool (a run without a topology is one pool; several
        pools split the running set, keeping its order within each),
        two tight passes over the pool's requests:

        1. re-accumulate the boosted / unboosted occupancy sums from the
           cached per-degree demands (re-accumulated, not incrementally
           adjusted: float addition is non-associative, and the sums
           must stay bit-identical to the reference engine's);
        2. take the two contention factors from :func:`share_factors`,
           then store each request's factor, core share, and rate
           (scaled by the pool speed; ``x * 1.0`` is exact) inline and
           track the earliest tentative completion in the same sweep.
        """
        self._rates_dirty = False
        running = self._running.values()
        if self._npools == 1:
            pools: Sequence[Iterable[SimRequest]] = (running,)
        else:
            pools = [[] for _ in range(self._npools)]
            for request in running:
                pools[request.pool].append(request)

        now = self.now_ms
        have_faults = self.fault_plan is not None
        online = self._pool_online
        speeds = self._pool_speeds
        earliest = _INF
        target = None
        for pool, members in enumerate(pools):
            boosted_demand = 0.0
            unboosted_demand = 0.0
            for request in members:
                if request.boosted:
                    boosted_demand += request.degree_demand
                else:
                    unboosted_demand += request.degree_demand
            boosted_factor, unboosted_factor = share_factors(
                online[pool], boosted_demand, unboosted_demand
            )
            speed = speeds[pool]
            for request in members:
                factor = boosted_factor if request.boosted else unboosted_factor
                request.share_factor = factor
                request.share_cores = request.degree_demand * factor
                rate = request.degree_speedup * factor * speed
                if have_faults and request.is_stalled(now):
                    # An injected worker stall: the request's threads keep
                    # their cores (hung workers occupy, not yield) but
                    # retire no work until the stall expires.
                    rate = 0.0
                request.rate = rate
                if rate > 0.0:
                    eta = now + request.remaining_work / rate
                    if eta < earliest:
                        earliest = eta
                        target = request
        if target is None:
            self._completion = _NO_COMPLETION
        else:
            self._completion = (max(earliest, now), next(self._queue.sequence))
            self._completion_target = target

    # ------------------------------------------------------------------
    # Batch kernels over the slot table (DESIGN.md §14).  While
    # ``_batch`` is set, _commit/_recompute_rates are rebound to the
    # row kernels below and the table, not the request objects, holds
    # the hot state.  Objects are brought up to date (_store_slot)
    # before every scheduler hook that reads one, at completion, on a
    # stall fault and at mode exit; slots are reloaded (_load_slot)
    # wherever a hook or a fault changed the object.  Bookkeeping moves
    # whole lanes; arithmetic stays on single rows ``tab[ROW, :n]``,
    # which are contiguous (multi-row slices are strided, and slower).
    #
    # Bit identity with the loops: slots append in start order and
    # compaction keeps their order, so active slots in index order are
    # the ``_running`` dict's order; order-sensitive sums use
    # ``np.cumsum(...)[-1]`` (left to right, unlike pairwise ``sum``);
    # elementwise ops are the loops' expressions one for one, and free
    # lanes stay exactly +0.0 / False so that unmasked rows are exact.
    # ------------------------------------------------------------------
    def _enter_batch(self) -> None:
        """Move the running set into a fresh slot table and switch to
        the batch kernels."""
        capacity = 256
        while capacity < 2 * len(self._running):
            capacity *= 2
        self._tab = np.zeros((_ONES + 1, capacity))
        self._flags = np.zeros((_UNBOOSTED + 1, capacity), dtype=bool)
        self._slot_req: list[SimRequest | None] = [None] * capacity
        self._slot_of: dict[int, int] = {}
        self._n_slots = 0  # append high-water mark (active slots + holes)
        self._n_active = 0
        for request in self._running.values():
            self._add_slot(request)
        self._batch = True
        self._commit = self._commit_batch  # type: ignore[method-assign]
        self._defer = self._commit_batch  # type: ignore[method-assign]
        self._recompute_rates = (  # type: ignore[method-assign]
            self._recompute_rates_batch
        )

    def _exit_batch(self) -> None:
        """Store every slot back onto its request and return to the
        per-request loops."""
        self._store_slots()
        self._batch = False
        del self._commit, self._defer, self._recompute_rates  # back to the class loops
        if self.fault_plan is not None:
            self._defer = self._commit  # type: ignore[method-assign]
        self._slot_req = []
        self._slot_of = {}

    def _grow(self) -> None:
        capacity = self._tab.shape[1]
        self._tab = np.pad(self._tab, ((0, 0), (0, capacity)))
        self._flags = np.pad(self._flags, ((0, 0), (0, capacity)))
        self._slot_req.extend([None] * capacity)

    def _compact(self) -> None:
        """Squeeze out the holes, preserving slot order (and with it the
        equality with the ``_running`` dict's order)."""
        n = self._n_slots
        keep = np.flatnonzero(self._flags[_ACT, :n])
        k = len(keep)
        for table in (self._tab, self._flags):
            table[:, :k] = table[:, keep]
            table[:, k:n] = 0
        kept = [self._slot_req[i] for i in keep]
        self._slot_req[:n] = kept + [None] * (n - k)
        self._slot_of = {request.rid: i for i, request in enumerate(kept)}
        self._n_slots = k

    def _add_slot(self, request: SimRequest) -> None:
        if self._n_slots == self._tab.shape[1]:
            if self._n_slots >= 64 and self._n_active * 2 < self._n_slots:
                self._compact()
            else:
                self._grow()
        slot = self._n_slots
        self._n_slots = slot + 1
        self._n_active += 1
        self._slot_of[request.rid] = slot
        self._slot_req[slot] = request
        self._load_slot(slot, request)

    def _remove_slot(self, rid: int) -> None:
        slot = self._slot_of.pop(rid)
        self._slot_req[slot] = None
        self._tab[:, slot] = 0.0
        self._flags[:, slot] = False
        self._n_active -= 1
        if self._n_slots >= 64 and self._n_active * 2 < self._n_slots:
            self._compact()

    def _load_slot(self, slot: int, request: SimRequest) -> None:
        """Copy a request's state into its lane (values in row order)."""
        r = request
        self._tab[:, slot] = (
            r.remaining_work, r.rate, r.degree_speedup, r.degree_demand,
            r.share_factor, r.share_cores, r.degree, r.effective_ms,
            r.thread_time_ms, r.core_time_ms, r.attr_service_ms,
            r.attr_contention_ms, r.attr_boost_wait_ms, r.attr_stall_ms,
            r.stalled_until_ms, r.degree_residency.get(r.degree, 0.0), 1.0,
        )
        self._flags[:, slot] = (True, r.boosted, r.boost_pending, not r.boosted)

    def _store_slot(self, slot: int, request: SimRequest) -> None:
        """Copy a lane's accumulated state back onto its request."""
        r = request
        (
            r.remaining_work, r.rate, _, _, r.share_factor, r.share_cores, _,
            r.effective_ms, r.thread_time_ms, r.core_time_ms, r.attr_service_ms,
            r.attr_contention_ms, r.attr_boost_wait_ms, r.attr_stall_ms, _,
            residency, _,
        ) = self._tab[:, slot].tolist()
        # The loop creates the entry on the degree's first dt > 0, so
        # a zero lane means "no entry yet", never "entry of 0.0".
        if residency > 0.0:
            r.degree_residency[r.degree] = residency

    def _store_slots(self) -> None:
        for slot in np.flatnonzero(self._flags[_ACT, : self._n_slots]):
            self._store_slot(slot, self._slot_req[slot])

    def _take_finished_slots(self, target: SimRequest) -> list[SimRequest]:
        """The finished requests and ``target`` in running-set order,
        each stored back onto its object and its slot freed."""
        n = self._n_slots
        finished = []
        done = self._flags[_ACT, :n] & (self._tab[_REM, :n] <= 1e-9)
        done[self._slot_of[target.rid]] = True
        for slot in np.flatnonzero(done):
            request = self._slot_req[slot]
            self._store_slot(slot, request)
            finished.append(request)
        for request in finished:  # by rid: a removal may compact
            self._remove_slot(request.rid)
        return finished

    def _commit_batch(self, t: float) -> None:
        """:meth:`_commit` as row arithmetic over the slot table."""
        dt = t - self.now_ms
        if dt > 0:
            n = self._n_slots
            busy_cores = 0.0
            total_threads = 0
            if n:
                tab = self._tab
                flags = self._flags
                lanes_dt = tab[_ONES, :n] * dt  # dt on active lanes, +0.0 on free
                useful = tab[_SFACTOR, :n] * dt
                stalled = None
                if self.fault_plan is not None:
                    stalled = flags[_ACT, :n] & (
                        self.now_ms < tab[_STALL_UNTIL, :n] - 1e-9
                    )
                if self.attribution:
                    # As the loop: stalled lanes charge dt to stall, the
                    # others useful to service and dt - useful to boost
                    # wait or contention; free lanes add +0.0 everywhere.
                    slowdown = lanes_dt - useful
                    served = useful
                    waiting = flags[_BPENDING, :n] & flags[_UNBOOSTED, :n]
                    if stalled is not None:
                        tab[_A_STALL, :n] += np.where(stalled, dt, 0.0)
                        served = np.where(stalled, 0.0, useful)
                        slowdown[stalled] = 0.0
                        waiting &= ~stalled
                    tab[_A_SERV, :n] += served
                    if waiting.any():
                        tab[_A_BWAIT, :n] += np.where(waiting, slowdown, 0.0)
                        slowdown[waiting] = 0.0
                    tab[_A_CONT, :n] += slowdown
                tab[_EFF, :n] += useful  # accrues while stalled, as the loop does
                # In place: the loop's ``remaining <= 0.0`` clamp can
                # only change negatives here, because a difference is
                # -0.0 only as -0.0 - (+0.0) and rem never holds -0.0
                # (free lanes give 0.0 - 0.0 = +0.0).
                rem = tab[_REM, :n]
                rem -= tab[_RATE, :n] * dt
                if rem.min() < 0.0:
                    overshoot = np.flatnonzero(rem < -1e-6)
                    if len(overshoot):
                        slot = overshoot[0]
                        raise SimulationError(
                            f"request {self._slot_req[slot].rid}: "
                            f"overshoot {rem[slot]}"
                        )
                    rem[rem < 0.0] = 0.0
                degf = tab[_DEGF, :n]
                tab[_TTHREAD, :n] += degf * dt
                score = tab[_SCORE, :n]
                tab[_TCORE, :n] += score * dt
                tab[_RESID, :n] += lanes_dt
                busy_cores = float(score.cumsum()[-1])
                total_threads = int(degf.sum())  # small integers: exact
            in_system = (
                len(self._running) + len(self._delayed) + len(self._waiting_fifo)
            )
            self._metrics.observe_interval(dt, total_threads, busy_cores, in_system)
        self.now_ms = t

    def _recompute_rates_batch(self) -> None:
        """:meth:`_recompute_rates` as row arithmetic over the slot
        table."""
        self._rates_dirty = False
        if self._n_active == 0:
            self._completion = _NO_COMPLETION  # as the loop: zero sums
            return
        n = self._n_slots
        tab = self._tab
        boosted = self._flags[_BOOSTED, :n]
        demand = tab[_DDEMAND, :n]
        any_boosted = boosted.any()
        if any_boosted:
            boosted_demand = float(np.where(boosted, demand, 0.0).cumsum()[-1])
            unboosted = self._flags[_UNBOOSTED, :n]
            unboosted_demand = float(np.where(unboosted, demand, 0.0).cumsum()[-1])
        else:  # every active lane is unboosted, and free lanes add +0.0
            boosted_demand = 0.0
            unboosted_demand = float(demand.cumsum()[-1])
        boosted_factor, unboosted_factor = share_factors(
            self._pool_online[0], boosted_demand, unboosted_demand
        )

        # Factors are finite and >= 0, so a free lane's 0.0 * factor is
        # +0.0 and only share_factor needs the ones row to stay zero.
        factor = unboosted_factor
        if any_boosted:
            factor = np.where(boosted, boosted_factor, unboosted_factor)
        np.multiply(tab[_ONES, :n], factor, out=tab[_SFACTOR, :n])
        np.multiply(demand, factor, out=tab[_SCORE, :n])
        rate = np.multiply(tab[_DSPEED, :n], factor, out=tab[_RATE, :n])
        now = self.now_ms
        if self.fault_plan is not None:
            rate[self._flags[_ACT, :n] & (now < tab[_STALL_UNTIL, :n] - 1e-9)] = 0.0

        # The loop's etas, elementwise; argmin takes the first least
        # one, the request the loop's strict ``<`` keeps.
        lanes = np.flatnonzero(rate > 0.0)
        if len(lanes):
            etas = now + tab[_REM, lanes] / rate[lanes]
            soonest = int(etas.argmin())
            self._completion = (
                max(float(etas[soonest]), now), next(self._queue.sequence)
            )
            self._completion_target = self._slot_req[lanes[soonest]]
        else:
            self._completion = _NO_COMPLETION

    # ------------------------------------------------------------------
    # Core pools (repro.hetero, DESIGN.md §12)
    # ------------------------------------------------------------------
    def pool_free_cores(self, pool: int) -> float:
        """Occupancy headroom of ``pool``: online cores minus the summed
        occupancy demand of the requests currently placed there (the
        whole machine without a topology)."""
        if not 0 <= pool < self._npools:
            raise SimulationError(f"no pool {pool}: the engine has {self._npools}")
        if not self._hetero:
            # cores - (d1 + d2 + ...): a different rounding from the
            # pooled ((cores - d1) - d2) - ..., kept for its bits.
            demand = 0.0
            for request in self._running.values():
                demand += request.degree_demand
            return self._pool_online[0] - demand
        free = float(self._pool_online[pool])
        for request in self._running.values():
            if request.pool == pool:
                free -= request.degree_demand
        return free

    def migrate(self, request: SimRequest, pool: int) -> bool:
        """Move a running request's threads to another pool (the
        Hurry-up actuator); returns True when the placement changed.
        Migration cost is modeled as zero — rates simply refresh under
        the new placement at the next recomputation."""
        if (
            not 0 <= pool < self._npools
            or request.state is not RequestState.RUNNING
            or request.pool == pool
        ):
            return False
        source = request.pool
        request.pool = pool
        request.migrations += 1
        self._rates_dirty = True
        if self.telemetry is not None:
            self._registry().counter("sim.migrations").inc()
            self.telemetry.tracer.instant(
                "migrate", track="sim", lane=request.rid, at_ms=self.now_ms,
                source=self._pool_names[source], target=self._pool_names[pool],
            )
        return True

    def _default_pool(self, request: SimRequest) -> int:
        """Engine placement: the fastest pool whose occupancy headroom
        fits the request's demand, else the freest pool (faster pools
        win headroom ties).  Deterministic — depends only on the
        running set and the fixed speed ordering."""
        free = [float(count) for count in self._pool_online]
        for running in self._running.values():
            free[running.pool] -= running.degree_demand
        demand = request.degree_demand
        best = self._pools_by_speed[0]
        for pool in self._pools_by_speed:
            if free[pool] >= demand - 1e-9:
                return pool
            if free[pool] > free[best] + 1e-12:
                best = pool
        return best

    def _build_energy_report(self) -> EnergyReport:
        """Convert the W·ms accumulators into the per-pool report and
        export the ``sim.energy.*`` gauges."""
        pools = [
            PoolEnergy(
                name=self._pool_names[pool],
                cores=self.topology[pool].count,
                speed=self._pool_speeds[pool],
                active_j=self._e_active[pool] / 1000.0,
                spin_j=self._e_spin[pool] / 1000.0,
                idle_j=self._e_idle[pool] / 1000.0,
            )
            for pool in range(self._npools)
        ]
        report = EnergyReport(pools, duration_ms=self.now_ms)
        if self.telemetry is not None:
            metrics = self._registry()
            metrics.gauge("sim.energy.total_j").set(report.total_j)
            for entry in report.pools:
                prefix = f"sim.energy.pool.{entry.name}"
                metrics.gauge(f"{prefix}.active_j").set(entry.active_j)
                metrics.gauge(f"{prefix}.spin_j").set(entry.spin_j)
                metrics.gauge(f"{prefix}.idle_j").set(entry.idle_j)
        return report


def simulate(
    arrivals: Sequence[ArrivalSpec] | Iterable[ArrivalSpec],
    scheduler: Scheduler,
    cores: int,
    quantum_ms: float = 5.0,
    spin_fraction: float = 0.25,
    fault_plan: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
    attribution: bool = True,
    topology: Topology | None = None,
    live: "LivePlane | None" = None,
    vectorized: bool = False,
) -> SimulationResult:
    """Convenience wrapper: build an :class:`Engine` and run it.

    ``vectorized=True`` runs :class:`repro.sim.vector.VectorEngine`, the
    engine with the numpy batch kernels on from the first request.  It
    is for attestation (showing the kernels match the per-request loops
    at any running-set size), not speed: the default engine already
    batches large running sets (DESIGN.md §14).
    """
    if vectorized:
        from repro.sim.vector import VectorEngine

        engine_cls: type[Engine] = VectorEngine
    else:
        engine_cls = Engine
    engine = engine_cls(
        cores=cores,
        scheduler=scheduler,
        quantum_ms=quantum_ms,
        spin_fraction=spin_fraction,
        fault_plan=fault_plan,
        telemetry=telemetry,
        attribution=attribution,
        topology=topology,
        live=live,
    )
    return engine.run(arrivals)
