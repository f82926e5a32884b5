"""The virtual-time multicore server engine.

A fluid discrete-event simulation: between state-change events every
request's work-depletion rate is constant, so the engine only touches
state when something happens — an arrival, an admission-delay expiry, a
self-scheduling quantum, or a completion.  Completions are *tentative*
events computed from current rates and carry a generation number; any
rate change (degree raise, boost, arrival, exit) bumps the generation,
invalidating stale completions still in the heap.

Determinism: given identical arrival specs and scheduler state the run
is bit-for-bit reproducible — the event queue breaks time ties by
insertion order and no wall-clock or randomness enters the engine.

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

Kernel choice by running-set size (DESIGN.md §14): the commit and the
rate refresh each exist twice, as the per-request loops above and as
numpy *batch kernels* over a slot table (one column per hot request
field).  Per event, the loops cost O(n) Python work and the batch
kernels a near-fixed ~75-170 µs of array calls, so the engine picks by
``n`` as it changes.  Measured on the overloaded Bing FIX-4 cell's
arrivals (8 cores, 900 RPS, 3000 requests; 2 vCPU, best of 3 runs),
µs per event for commit + recompute:

==================  ====  =====  =====  ======  =======  =======  ========
running set n       1-31  32-63  64-95  96-127  128-255  256-511  512-1023
==================  ====  =====  =====  ======  =======  =======  ========
loop, attr on       18    41     57     78      171      350      759
batch, attr on      111   109    97     100     114      135      169
loop, attr off      21    41     62     87      152      309      725
batch, attr off     82    82     76     77      94       113      150
==================  ====  =====  =====  ======  =======  =======  ========

Below n = 64 the loops are 2-6x faster; from n = 128 the batch kernels
win, by more as n grows.  A start that brings the running set to
:data:`BATCH_ENTRY` moves it into the slot table; the completions that
drain it below :data:`BATCH_EXIT` store the slots back onto the request
objects and return to the loops.  In the 64-127 band between the two
sizes the kernels are within 1.7x of each other, and the gap keeps a
running set that hovers near one size from copying itself on every
start and exit.  Each switch is bit-identical: slot order is
running-set order and the order-sensitive sums are left-to-right
``np.cumsum``, so no simulated float changes, only wall time.  Runs
with a :class:`~repro.hetero.pools.Topology` stay on the per-pool
loops, because the slot table has no pool column.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from heapq import heappop
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
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.processor import BoostController, occupancy
from repro.sim.request import RequestState, SimRequest
from repro.telemetry import Telemetry, resolve_telemetry
from repro.telemetry.spans import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (observe -> sim)
    from repro.observe.live import LivePlane

__all__ = ["ArrivalSpec", "Engine", "simulate"]

# FAULT event payload tags (internal).
_CORE_LOSS = "core_loss"
_CORE_RESTORE = "core_restore"
_STALL = "stall"
_STALL_END = "stall_end"

_FINISH_EPS = 1e-6  # ms — one nanosecond of slack for float residue
_INF = float("inf")

#: Running-set sizes at which :class:`Engine` enters and leaves the
#: batch kernels (see the module docstring for the measured crossover).
BATCH_ENTRY = 128
BATCH_EXIT = 64

#: Slot-table columns holding float64 per-request state (zero on free
#: lanes, so left-to-right sums over a column see exact ``+ 0.0``).
_FLOAT_COLS = (
    "_rem",  # remaining_work
    "_rate",
    "_dspeed",  # degree_speedup
    "_ddemand",  # degree_demand (occupancy)
    "_sfactor",  # share_factor
    "_score",  # share_cores
    "_degf",  # float(degree)
    "_eff",  # effective_ms
    "_tthread",  # thread_time_ms
    "_tcore",  # core_time_ms
    "_a_serv",
    "_a_cont",
    "_a_bwait",
    "_a_stall",
    "_stall_until",
    "_resid",  # degree_residency[degree] for the current degree
)
_BOOL_COLS = ("_act", "_boosted_col", "_bpending_col")


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
        the accounting from the hot loop (``BENCH_observe.json``
        quantifies the cost).
    topology:
        Optional :class:`~repro.hetero.pools.Topology` of typed core
        pools (big/little, DVFS-resolved speeds and powers).  When set,
        processor sharing runs *per pool* (a request's threads occupy
        exactly one pool), rates scale by the pool speed, and a
        deterministic energy accumulator tracks active/spin/idle joules
        per pool (DESIGN.md §12).  ``topology.total_cores`` must equal
        ``cores``.  When ``None`` (the default) the legacy homogeneous
        path runs untouched — and a single-pool topology at speed 1.0
        is attested bit-identical to it, because every hetero-path
        float operation reduces to the legacy one (``x * 1.0`` is exact
        in IEEE 754 and the per-pool demand sums accumulate in the same
        running-set order).

    Homogeneous runs pick their commit/recompute kernels by running-set
    size (:data:`BATCH_ENTRY` / :data:`BATCH_EXIT`, module docstring);
    nothing for the caller to set.
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
        self._cores_online = cores
        self._queue = EventQueue()
        self._requests: dict[int, SimRequest] = {}
        self._running: dict[int, SimRequest] = {}
        self._waiting_fifo: deque[int] = deque()  # e1-queued request ids, FIFO
        self._delayed: list[int] = []  # mid-delay request ids, sorted (= arrival order)
        self._candidate = 0  # requests mid-admission (counted in the load)
        self._generation = 0
        self._rates_dirty = False
        #: True while the batch kernels run over the slot table (whose
        #: columns :meth:`_enter_batch` allocates).
        self._batch = False
        #: Streaming-mode state (DESIGN.md §14): when :meth:`run` is
        #: handed an iterator instead of a sequence, arrivals are
        #: generated lazily (one in flight ahead of the clock) and
        #: finished requests are dropped from the table, so memory is
        #: O(running set) instead of O(total requests).
        self._stream: Iterator[ArrivalSpec] | None = None
        self._discard_done = False
        self._submitted = 0
        self._next_rid = 0
        self._last_stream_ms = 0.0
        #: ``collector`` swaps the record-keeping strategy: the default
        #: :class:`MetricsCollector` keeps every RequestRecord (full
        #: SimulationResult); a streaming collector (repro.sim.stream)
        #: folds completions into mergeable histograms instead.
        self._metrics = collector if collector is not None else MetricsCollector(cores)
        self._ctx = SchedulerContext(self)
        self._completed = 0
        self._shed = 0
        self._ran = False
        #: Events drained from the queue by :meth:`run` (including stale
        #: tentative completions) — the numerator of events/sec benches.
        self.events_processed = 0
        self.telemetry = resolve_telemetry(telemetry)
        self.attribution = attribution
        #: Optional live observability plane (repro.observe.live): each
        #: completion and fault feeds its window stream.  Costs one
        #: attribute check per completion when absent.
        self._live = live
        self._run_spans: dict[int, Span] = {}

        #: Heterogeneous-topology state (repro.hetero).  The per-pool
        #: arrays are indexed by pool position; energy accumulates in
        #: watt-milliseconds (= millijoules) and converts to joules in
        #: the final :class:`~repro.hetero.energy.EnergyReport`.  The
        #: hot-path entry points are rebound per instance so the legacy
        #: run loop never pays a single ``if`` for the hetero feature.
        self.topology = topology
        self._hetero = topology is not None
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
            self._commit = self._commit_hetero  # type: ignore[method-assign]
            self._recompute_rates = (  # type: ignore[method-assign]
                self._recompute_rates_hetero
            )
            # The slot table has no pool column: stay on the per-pool loops.
            self._batch_entry = _INF

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
        return self._cores_online

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
        million-request runs.  Streamed arrivals enter the event heap
        through a dedicated sequence band that preserves the batch
        path's tie-breaking, so the same trace replays bit-identically
        through either path.
        """
        if self._ran:
            raise SimulationError(
                "engine already ran; construct a new Engine per simulation"
            )
        self._ran = True
        self.scheduler.reset()
        self.boost.reset()
        if isinstance(arrivals, Sequence):
            if not arrivals:
                raise SimulationError("no arrivals to simulate")
            for rid, spec in enumerate(sorted(arrivals, key=lambda s: s.time_ms)):
                request = SimRequest(
                    rid, spec.time_ms, spec.seq_ms, spec.speedup, tag=spec.tag
                )
                self._requests[rid] = request
                self._queue.push(spec.time_ms, Event(EventKind.ARRIVAL, request_id=rid))
            self._submitted = len(self._requests)
        else:
            self._stream = iter(arrivals)
            self._discard_done = True
            if not self._push_next_arrival():
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

        # The run loop: hot enough that the queue pop and the kind
        # dispatch are inlined here, with enum members and the heap
        # hoisted to locals (a few % per lookup at this call count).
        # Branches are ordered by event frequency: quantum ticks
        # dominate, then completions, then arrivals.
        heap = self._queue.heap
        requests = self._requests
        streaming = self._stream is not None
        quantum_kind = EventKind.QUANTUM
        completion_kind = EventKind.COMPLETION
        arrival_kind = EventKind.ARRIVAL
        delay_kind = EventKind.DELAY_EXPIRED
        finish_eps = _FINISH_EPS
        events = 0
        while heap:
            time_ms, _, event = heappop(heap)
            events += 1
            kind = event.kind
            if kind is completion_kind and event.generation != self._generation:
                continue  # stale rate snapshot
            now = self.now_ms
            if time_ms < now - finish_eps:
                raise SimulationError(
                    f"time went backwards: {time_ms} < {now}"
                )
            self._commit(time_ms if time_ms > now else now)
            if kind is quantum_kind:
                try:
                    request = requests[event.request_id]
                except KeyError:
                    continue  # finished + discarded (streaming mode)
                self._handle_quantum(request, event)
            elif kind is completion_kind:
                self._handle_completion()
            elif kind is arrival_kind:
                if streaming:
                    # Keep exactly one future arrival in the heap: pull
                    # the next spec as its predecessor is delivered.
                    self._push_next_arrival()
                self._handle_arrival(requests[event.request_id])
            elif kind is delay_kind:
                try:
                    request = requests[event.request_id]
                except KeyError:
                    continue  # shed + discarded (streaming mode)
                self._handle_delay_expired(request)
            else:  # EventKind.FAULT — the enum is closed
                self._handle_fault(event.payload)
            if self._rates_dirty:
                self._recompute_rates()
        self.events_processed = events
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

    def _push_next_arrival(self) -> bool:
        """Pull the next spec off the arrival stream and schedule it;
        returns False when the stream is exhausted (streaming mode)."""
        spec = next(self._stream, None)
        if spec is None:
            return False
        time_ms = spec.time_ms
        if time_ms < self._last_stream_ms:
            raise SimulationError(
                "streamed arrivals must be non-decreasing in time: "
                f"{time_ms} after {self._last_stream_ms}"
            )
        self._last_stream_ms = time_ms
        rid = self._next_rid
        self._next_rid = rid + 1
        self._requests[rid] = SimRequest(
            rid, time_ms, spec.seq_ms, spec.speedup, tag=spec.tag
        )
        self._queue.push_streamed_arrival(
            time_ms, Event(EventKind.ARRIVAL, request_id=rid)
        )
        self._submitted += 1
        return True

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
            self.telemetry.metrics.counter("sim.arrivals").inc()
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
        if batch:
            # The hook reads progress off the object (FM climbs its
            # interval table on effective_ms) and may change the degree
            # or boost state the columns hold.
            slot = self._slot_of[request.rid]
            self._store_slot(slot, request)
        telemetry = self.telemetry
        if telemetry is not None:
            was_boosted = request.boosted
        desired = self.scheduler.on_quantum(self._ctx, request)
        if desired > request.degree:
            request.raise_degree(desired)
            self._refresh_degree_cache(request)
            self._rates_dirty = True
            if telemetry is not None:
                telemetry.metrics.counter("sim.degree_raises").inc()
        if batch:
            self._load_slot(slot, request)
        if telemetry is not None and request.boosted and not was_boosted:
            telemetry.metrics.counter("sim.boosts").inc()
            telemetry.tracer.instant(
                "boost", track="sim", lane=request.rid, at_ms=self.now_ms,
                degree=request.degree,
            )
        # Requests have at most one quantum tick in flight, so the event
        # object just popped is simply re-armed — no allocation per tick.
        self._queue.push(self.now_ms + self.quantum_ms, event)

    def _handle_completion(self) -> None:
        if self._batch:
            finished = self._take_finished_slots()
        else:
            finished = [r for r in self._running.values() if r.is_finished]
        if not finished:
            raise SimulationError("completion event with no finished request")
        for request in finished:
            request.finish(self.now_ms)
            del self._running[request.rid]
            self._metrics.record(request)  # snapshot before boost release
            if self.telemetry is not None:
                self._finish_telemetry(request)  # span needs boosted flag too
            if self._live is not None:
                self._feed_live()
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

    def _feed_live(self) -> None:
        """Feed the just-recorded completion into the live plane's
        window stream (components/energy/pool from the same
        :class:`RequestRecord` the collector keeps)."""
        record = self._metrics.records[-1]
        self._live.observe(
            at_ms=record.finish_ms,
            latency_ms=record.latency_ms,
            components=record.attribution() if self.attribution else None,
            energy_j=record.energy_j,
            pool=self._pool_names[record.pool] if self._hetero else "",
            rid=record.rid,
        )

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------
    def _handle_fault(self, payload: object) -> None:
        kind, detail = payload  # type: ignore[misc]
        stats = self._metrics.fault_stats
        if kind == _CORE_LOSS:
            fault: CoreFault = detail
            removed = self._cores_online - max(1, self._cores_online - fault.cores)
            self._cores_online -= removed
            if self._hetero:
                # Take cores from the highest-index pools first (the
                # little cluster in the canonical big/little ordering),
                # deterministically; individual pools may go to zero as
                # long as the machine keeps one core somewhere.
                remaining = removed
                taken = [0] * self._npools
                for pool in range(self._npools - 1, -1, -1):
                    take = min(remaining, self._pool_online[pool])
                    self._pool_online[pool] -= take
                    taken[pool] = take
                    remaining -= take
                    if remaining == 0:
                        break
                restore_detail: object = tuple(taken)
            else:
                restore_detail = removed
            stats.core_faults_applied += 1
            stats.faults_fired += 1
            self._observe_fault("core_loss", cores=removed)
            self._queue.push(
                self.now_ms + fault.duration_ms,
                Event(EventKind.FAULT, payload=(_CORE_RESTORE, restore_detail)),
            )
            self._rates_dirty = True
        elif kind == _CORE_RESTORE:
            if self._hetero:
                taken = detail  # per-pool removal counts from the loss
                for pool, count in enumerate(taken):
                    self._pool_online[pool] += count
                self._cores_online = min(self.cores, sum(self._pool_online))
            else:
                self._cores_online = min(self.cores, self._cores_online + int(detail))
            self._observe_fault("core_restore", cores_online=self._cores_online)
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
                    self.telemetry.metrics.gauge("sim.queue_depth").set(
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
                self.telemetry.metrics.counter("sim.sheds").inc()
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

        On a heterogeneous topology the request is placed on ``pool``
        when the policy pinned one, else on the engine default: the
        fastest pool with occupancy headroom for it (falling back to
        the freest pool) — so policies that never mention pools still
        get sensible big-first placement.
        """
        waited_as = request.state  # pre-start state names the wait kind
        request.start(self.now_ms, max(1, degree))
        self._refresh_degree_cache(request)
        if self._hetero:
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
        if self.telemetry is not None:
            tracer = self.telemetry.tracer
            if self.now_ms > request.arrival_ms:
                tracer.complete(
                    "queue", request.arrival_ms, self.now_ms,
                    track="sim", lane=request.rid,
                    wait=waited_as.value,
                )
            self._run_spans[request.rid] = tracer.begin(
                "run", track="sim", lane=request.rid, at_ms=self.now_ms,
                degree=request.degree,
            )

    def _finish_telemetry(self, request: SimRequest) -> None:
        """Close a completed request's run span and update metrics."""
        telemetry = self.telemetry
        telemetry.metrics.counter("sim.completions").inc()
        telemetry.metrics.histogram("sim.latency_ms").record(request.latency_ms)
        attrs: dict[str, object] = {}
        if self.attribution:
            metrics = telemetry.metrics
            queue_ms = (request.start_ms or request.arrival_ms) - request.arrival_ms
            metrics.histogram("sim.attr.queue_ms").record(queue_ms)
            metrics.histogram("sim.attr.service_ms").record(request.attr_service_ms)
            metrics.histogram("sim.attr.contention_ms").record(
                request.attr_contention_ms
            )
            metrics.histogram("sim.attr.boost_wait_ms").record(
                request.attr_boost_wait_ms
            )
            metrics.histogram("sim.attr.stall_ms").record(request.attr_stall_ms)
            # The run span carries the full decomposition so offline
            # trace analysis (`repro analyze`) can attribute the tail
            # without the RequestRecords.
            attrs = {
                "queue_ms": queue_ms,
                "service_ms": request.attr_service_ms,
                "contention_ms": request.attr_contention_ms,
                "boost_wait_ms": request.attr_boost_wait_ms,
                "stall_ms": request.attr_stall_ms,
            }
        if self._hetero:
            energy_j = request.energy_mj / 1000.0
            telemetry.metrics.histogram("sim.energy.request_j").record(energy_j)
            attrs["energy_j"] = energy_j
            attrs["pool"] = self._pool_names[request.pool]
            attrs["migrations"] = request.migrations
        span = self._run_spans.pop(request.rid, None)
        if span is not None:
            telemetry.tracer.end(
                span, at_ms=self.now_ms,
                latency_ms=request.latency_ms,
                degree=request.degree,
                boosted=request.boosted,
                **attrs,
            )

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
                self.telemetry.metrics.gauge("sim.queue_depth").set(len(waiting))
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
        running request on every event — so the body of
        :meth:`SimRequest.advance` is inlined here (same operations, in
        the same order, so results stay bit-identical to the method).
        """
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
            in_system = (
                len(self._running) + len(self._delayed) + len(self._waiting_fifo)
            )
            self._metrics.observe_interval(dt, total_threads, busy_cores, in_system)
        self.now_ms = t

    def _recompute_rates(self) -> None:
        """Refresh per-request rates and schedule the next tentative
        completion; called after any state change.

        Two tight passes over the running set, no allocations:

        1. re-accumulate the boosted / unboosted occupancy sums from the
           cached per-degree demands (re-accumulated, not incrementally
           adjusted: float addition is non-associative, and the sums
           must stay bit-identical to the reference engine's);
        2. derive the two contention factors, then store each request's
           factor, core share, and rate inline and track the earliest
           tentative completion in the same sweep.
        """
        self._rates_dirty = False
        self._generation += 1
        running = self._running
        boosted_demand = 0.0
        unboosted_demand = 0.0
        for request in running.values():
            if request.boosted:
                boosted_demand += request.degree_demand
            else:
                unboosted_demand += request.degree_demand

        cores = self._cores_online
        boosted_factor = min(1.0, cores / boosted_demand) if boosted_demand > 0 else 1.0
        remaining_cores = cores - boosted_demand * boosted_factor
        if unboosted_demand > 0:
            unboosted_factor = min(1.0, max(0.0, remaining_cores) / unboosted_demand)
        else:
            unboosted_factor = 1.0

        now = self.now_ms
        have_faults = self.fault_plan is not None
        earliest = _INF
        for request in running.values():
            factor = boosted_factor if request.boosted else unboosted_factor
            request.share_factor = factor
            request.share_cores = request.degree_demand * factor
            rate = request.degree_speedup * factor
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
        if earliest < _INF:
            self._queue.push(
                max(earliest, now),
                Event(EventKind.COMPLETION, generation=self._generation),
            )

    # ------------------------------------------------------------------
    # Batch kernels over the slot table (DESIGN.md §14).  While
    # ``_batch`` is set, _commit/_recompute_rates are rebound to the
    # column kernels below and the columns, not the request objects,
    # hold the hot state.  Objects are brought up to date (_store_slot)
    # before every scheduler hook that reads one, at completion, on a
    # stall fault and at mode exit; columns are reloaded (_load_slot)
    # wherever a hook or a fault changed the object.
    #
    # Bit identity with the loops: slots append in start order and
    # compaction keeps their order, so active slots in index order are
    # the ``_running`` dict's order; order-sensitive sums use
    # ``np.cumsum(...)[-1]`` (left to right, unlike pairwise ``sum``);
    # elementwise ops are the loops' expressions one for one.
    # ------------------------------------------------------------------
    def _enter_batch(self) -> None:
        """Move the running set into a fresh slot table and switch to
        the batch kernels."""
        capacity = 256
        while capacity < 2 * len(self._running):
            capacity *= 2
        for name in _FLOAT_COLS:
            setattr(self, name, np.zeros(capacity))
        for name in _BOOL_COLS:
            setattr(self, name, np.zeros(capacity, dtype=bool))
        self._slot_req: list[SimRequest | None] = [None] * capacity
        self._slot_of: dict[int, int] = {}
        self._n_slots = 0  # append high-water mark (active slots + holes)
        self._n_active = 0
        for request in self._running.values():
            self._add_slot(request)
        self._batch = True
        self._commit = self._commit_batch  # type: ignore[method-assign]
        self._recompute_rates = (  # type: ignore[method-assign]
            self._recompute_rates_batch
        )

    def _exit_batch(self) -> None:
        """Store every slot back onto its request and return to the
        per-request loops."""
        self._store_slots()
        self._batch = False
        del self._commit, self._recompute_rates  # back to the class loops
        self._slot_req = []
        self._slot_of = {}

    def _grow(self) -> None:
        capacity = len(self._act)
        for name in _FLOAT_COLS + _BOOL_COLS:
            old = getattr(self, name)
            new = np.zeros(2 * capacity, dtype=old.dtype)
            new[:capacity] = old
            setattr(self, name, new)
        self._slot_req.extend([None] * capacity)

    def _compact(self) -> None:
        """Squeeze out the holes, preserving slot order (and with it the
        equality with the ``_running`` dict's order)."""
        n = self._n_slots
        keep = np.nonzero(self._act[:n])[0]
        k = len(keep)
        for name in _FLOAT_COLS + _BOOL_COLS:
            col = getattr(self, name)
            col[:k] = col[keep]
            col[k:n] = 0
        kept = [self._slot_req[i] for i in keep]
        self._slot_req[:n] = kept + [None] * (n - k)
        self._slot_of = {request.rid: i for i, request in enumerate(kept)}
        self._n_slots = k

    def _add_slot(self, request: SimRequest) -> None:
        if self._n_slots == len(self._act):
            if self._n_slots >= 64 and self._n_active * 2 < self._n_slots:
                self._compact()
            else:
                self._grow()
        slot = self._n_slots
        self._n_slots = slot + 1
        self._n_active += 1
        self._slot_of[request.rid] = slot
        self._slot_req[slot] = request
        self._act[slot] = True
        self._load_slot(slot, request)

    def _remove_slot(self, rid: int) -> None:
        slot = self._slot_of.pop(rid)
        self._slot_req[slot] = None
        for name in _FLOAT_COLS + _BOOL_COLS:
            getattr(self, name)[slot] = 0
        self._n_active -= 1
        if self._n_slots >= 64 and self._n_active * 2 < self._n_slots:
            self._compact()

    def _load_slot(self, slot: int, request: SimRequest) -> None:
        """Copy a request's state into its slot."""
        self._rem[slot] = request.remaining_work
        self._rate[slot] = request.rate
        self._dspeed[slot] = request.degree_speedup
        self._ddemand[slot] = request.degree_demand
        self._sfactor[slot] = request.share_factor
        self._score[slot] = request.share_cores
        self._degf[slot] = request.degree
        self._eff[slot] = request.effective_ms
        self._tthread[slot] = request.thread_time_ms
        self._tcore[slot] = request.core_time_ms
        self._a_serv[slot] = request.attr_service_ms
        self._a_cont[slot] = request.attr_contention_ms
        self._a_bwait[slot] = request.attr_boost_wait_ms
        self._a_stall[slot] = request.attr_stall_ms
        self._stall_until[slot] = request.stalled_until_ms
        self._resid[slot] = request.degree_residency.get(request.degree, 0.0)
        self._boosted_col[slot] = request.boosted
        self._bpending_col[slot] = request.boost_pending

    def _store_slot(self, slot: int, request: SimRequest) -> None:
        """Copy a slot's accumulated state back onto its request."""
        request.remaining_work = float(self._rem[slot])
        request.rate = float(self._rate[slot])
        request.share_factor = float(self._sfactor[slot])
        request.share_cores = float(self._score[slot])
        request.effective_ms = float(self._eff[slot])
        request.thread_time_ms = float(self._tthread[slot])
        request.core_time_ms = float(self._tcore[slot])
        request.attr_service_ms = float(self._a_serv[slot])
        request.attr_contention_ms = float(self._a_cont[slot])
        request.attr_boost_wait_ms = float(self._a_bwait[slot])
        request.attr_stall_ms = float(self._a_stall[slot])
        residency = float(self._resid[slot])
        # The loop creates the entry on the degree's first dt > 0, so
        # a zero column means "no entry yet", never "entry of 0.0".
        if residency > 0.0:
            request.degree_residency[request.degree] = residency

    def _store_slots(self) -> None:
        n = self._n_slots
        for slot in np.nonzero(self._act[:n])[0]:
            self._store_slot(slot, self._slot_req[slot])

    def _take_finished_slots(self) -> list[SimRequest]:
        """The finished requests in running-set order, each stored back
        onto its object and its slot freed."""
        n = self._n_slots
        finished = []
        for slot in np.nonzero(self._act[:n] & (self._rem[:n] <= 1e-9))[0]:
            request = self._slot_req[slot]
            self._store_slot(slot, request)
            finished.append(request)
        for request in finished:  # by rid: a removal may compact
            self._remove_slot(request.rid)
        return finished

    def _commit_batch(self, t: float) -> None:
        """:meth:`_commit` as column arithmetic over the slot table."""
        dt = t - self.now_ms
        if dt > 0:
            n = self._n_slots
            busy_cores = 0.0
            total_threads = 0
            if n:
                now = self.now_ms
                active = self._act[:n]
                useful = self._sfactor[:n] * dt  # zero on free lanes
                if self.fault_plan is not None:
                    stalled = active & (now < self._stall_until[:n] - 1e-9)
                    not_stalled = active & ~stalled
                else:
                    stalled = None
                    not_stalled = active
                if self.attribution:
                    if stalled is not None:
                        self._a_stall[:n] += np.where(stalled, dt, 0.0)
                    self._a_serv[:n] += np.where(not_stalled, useful, 0.0)
                    slowdown = dt - useful
                    boost_wait = (
                        not_stalled & self._bpending_col[:n] & ~self._boosted_col[:n]
                    )
                    self._a_bwait[:n] += np.where(boost_wait, slowdown, 0.0)
                    self._a_cont[:n] += np.where(
                        not_stalled & ~boost_wait, slowdown, 0.0
                    )
                self._eff[:n] += useful  # accrues while stalled, as the loop does
                rem = self._rem[:n]
                remaining = rem - self._rate[:n] * dt
                overshoot = active & (remaining < -1e-6)
                if overshoot.any():
                    slot = int(np.argmax(overshoot))
                    raise SimulationError(
                        f"request {self._slot_req[slot].rid}: "
                        f"overshoot {remaining[slot]}"
                    )
                remaining[remaining <= 0.0] = 0.0
                rem[:] = remaining
                degf = self._degf[:n]
                self._tthread[:n] += degf * dt
                score = self._score[:n]
                self._tcore[:n] += score * dt
                resid = self._resid[:n]
                np.add(resid, dt, out=resid, where=active)
                busy_cores = float(np.cumsum(score)[-1])
                total_threads = int(degf.sum())  # small integers: exact
            in_system = (
                len(self._running) + len(self._delayed) + len(self._waiting_fifo)
            )
            self._metrics.observe_interval(dt, total_threads, busy_cores, in_system)
        self.now_ms = t

    def _recompute_rates_batch(self) -> None:
        """:meth:`_recompute_rates` as column arithmetic over the slot
        table."""
        self._rates_dirty = False
        self._generation += 1
        if self._n_active == 0:
            return  # as the loop: zero sums, no completion event
        n = self._n_slots
        active = self._act[:n]
        boosted = self._boosted_col[:n]
        demand = self._ddemand[:n]
        boosted_demand = float(np.cumsum(np.where(boosted, demand, 0.0))[-1])
        unboosted_demand = float(np.cumsum(np.where(active & ~boosted, demand, 0.0))[-1])

        cores = self._cores_online
        boosted_factor = min(1.0, cores / boosted_demand) if boosted_demand > 0 else 1.0
        remaining_cores = cores - boosted_demand * boosted_factor
        if unboosted_demand > 0:
            unboosted_factor = min(1.0, max(0.0, remaining_cores) / unboosted_demand)
        else:
            unboosted_factor = 1.0

        factor = np.where(boosted, boosted_factor, unboosted_factor)
        factor[~active] = 0.0  # free lanes stay zero
        rate = self._dspeed[:n] * factor
        now = self.now_ms
        if self.fault_plan is not None:
            rate[active & (now < self._stall_until[:n] - 1e-9)] = 0.0
        self._sfactor[:n] = factor
        self._score[:n] = demand * factor
        self._rate[:n] = rate

        positive = rate > 0.0
        if positive.any():
            etas = now + self._rem[:n][positive] / rate[positive]
            self._queue.push(
                max(float(etas.min()), now),
                Event(EventKind.COMPLETION, generation=self._generation),
            )

    # ------------------------------------------------------------------
    # Heterogeneous-topology machinery (repro.hetero, DESIGN.md §12).
    # These entry points replace _commit/_recompute_rates via instance
    # rebinding in __init__ when a topology is supplied; the legacy
    # homogeneous path never reaches any of this code.
    # ------------------------------------------------------------------
    def pool_free_cores(self, pool: int) -> float:
        """Occupancy headroom of ``pool``: online cores minus the summed
        occupancy demand of the requests currently placed there (the
        whole machine on the homogeneous path)."""
        if not self._hetero:
            if pool != 0:
                raise SimulationError(f"homogeneous engine has no pool {pool}")
            demand = 0.0
            for request in self._running.values():
                demand += request.degree_demand
            return self._cores_online - demand
        if not 0 <= pool < self._npools:
            raise SimulationError(f"no pool {pool} in {self.topology!r}")
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
            not self._hetero
            or not 0 <= pool < self._npools
            or request.state is not RequestState.RUNNING
            or request.pool == pool
        ):
            return False
        source = request.pool
        request.pool = pool
        request.migrations += 1
        self._rates_dirty = True
        if self.telemetry is not None:
            self.telemetry.metrics.counter("sim.migrations").inc()
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

    def _commit_hetero(self, t: float) -> None:
        """The heterogeneous commit: the legacy :meth:`_commit` loop
        (same operations in the same order, so the single-pool case
        stays bit-identical) plus the energy accumulator.

        Within the interval each request's threads occupy
        ``share_cores`` physical cores on its pool at active power;
        the useful part is ``degree_speedup * factor`` core-equivalents
        (zero while stalled) and the rest is spin.  Online cores with
        no thread accrue idle energy.  Accumulation is in W·ms = mJ.
        """
        dt = t - self.now_ms
        if dt > 0:
            now = self.now_ms
            attribution = self.attribution
            have_faults = self.fault_plan is not None
            busy_cores = 0.0
            total_threads = 0
            active_w = self._pool_active_w
            e_active = self._e_active
            e_spin = self._e_spin
            pool_busy = [0.0] * self._npools
            for request in self._running.values():
                factor = request.share_factor
                core_alloc = request.share_cores
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
                # --- energy: occupied cores burn active power; the
                # useful share is active, the remainder spin (a stalled
                # request's threads hold their cores but retire nothing,
                # so its whole occupancy is spin).
                pool = request.pool
                occupied_ms = core_alloc * dt
                active_ms = 0.0 if stalled else request.degree_speedup * factor * dt
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
            in_system = (
                len(self._running) + len(self._delayed) + len(self._waiting_fifo)
            )
            self._metrics.observe_interval(dt, total_threads, busy_cores, in_system)
        self.now_ms = t

    def _recompute_rates_hetero(self) -> None:
        """Per-pool fluid rates: the legacy two-pass refresh with the
        demand sums and contention factors computed pool-by-pool, and
        each rate scaled by its pool's speed multiplier.

        The sums accumulate in running-set order (like the legacy
        pass), so with one pool at speed 1.0 every operation — the
        division, the min/max clamps, ``rate = s * factor * 1.0`` —
        reduces bitwise to the homogeneous engine's.
        """
        self._rates_dirty = False
        self._generation += 1
        running = self._running
        npools = self._npools
        boosted_demand = [0.0] * npools
        unboosted_demand = [0.0] * npools
        for request in running.values():
            if request.boosted:
                boosted_demand[request.pool] += request.degree_demand
            else:
                unboosted_demand[request.pool] += request.degree_demand

        online = self._pool_online
        boosted_factor = [1.0] * npools
        unboosted_factor = [1.0] * npools
        for pool in range(npools):
            cores = online[pool]
            demand = boosted_demand[pool]
            factor = min(1.0, cores / demand) if demand > 0 else 1.0
            boosted_factor[pool] = factor
            remaining_cores = cores - demand * factor
            demand = unboosted_demand[pool]
            if demand > 0:
                unboosted_factor[pool] = min(
                    1.0, max(0.0, remaining_cores) / demand
                )

        now = self.now_ms
        have_faults = self.fault_plan is not None
        speeds = self._pool_speeds
        earliest = _INF
        for request in running.values():
            pool = request.pool
            factor = (
                boosted_factor[pool] if request.boosted else unboosted_factor[pool]
            )
            request.share_factor = factor
            request.share_cores = request.degree_demand * factor
            rate = request.degree_speedup * factor * speeds[pool]
            if have_faults and request.is_stalled(now):
                rate = 0.0
            request.rate = rate
            if rate > 0.0:
                eta = now + request.remaining_work / rate
                if eta < earliest:
                    earliest = eta
        if earliest < _INF:
            self._queue.push(
                max(earliest, now),
                Event(EventKind.COMPLETION, generation=self._generation),
            )

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
            metrics = self.telemetry.metrics
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
