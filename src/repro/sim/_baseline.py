"""Frozen reference engine — the pre-overhaul hot path, verbatim.

This module vendors the simulator core exactly as it stood before the
incremental-rate / O(1)-queue overhaul of :mod:`repro.sim.engine`:
per-event dict rebuilds in ``compute_shares``, ``list.pop(0)`` backlog
drains, ``sorted(set)`` delayed rescans, and a dataclass-item event
heap.  It exists for one purpose: **bit-for-bit equivalence checks**.
The optimized engine must produce byte-identical
:class:`~repro.sim.metrics.SimulationResult` metrics on fixed seeds,
and the equivalence tests (``tests/sim/test_engine_equivalence``, which
also time the engine against it on a saturated Bing cell, and
``tests/hetero/test_hetero_engine``) diff against this implementation.

Do **not** optimize, extend, or "clean up" this file — its value is
that it never changes.  It shares :class:`~repro.sim.request.SimRequest`
and the metrics layer with the live engine, so behavioural drift in
those shared pieces is caught by the same equivalence tests.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.faults.plan import CoreFault, FaultPlan, StallFault
from repro.sim.api import Admission, AdmissionAction, Scheduler, SchedulerContext
from repro.sim.engine import ArrivalSpec
from repro.sim.events import Event, EventKind
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.processor import occupancy
from repro.sim.request import RequestState, SimRequest

__all__ = ["BaselineEngine", "simulate_baseline"]

_CORE_LOSS = "core_loss"
_CORE_RESTORE = "core_restore"
_STALL = "stall"
_STALL_END = "stall_end"

_FINISH_EPS = 1e-6  # ms — one nanosecond of slack for float residue


@dataclass(frozen=True, slots=True)
class ThreadAllocation:
    """Per-request outcome of one allocation round: the factor on the
    speedup (1.0 = no contention) and the physical-core share."""

    progress_factor: float
    core_alloc: float


@dataclass(order=True)
class _HeapItem:
    time_ms: float
    sequence: int
    event: Event = field(compare=False)


class _BaselineEventQueue:
    """The pre-overhaul event queue: a min-heap of dataclass items."""

    def __init__(self) -> None:
        self._heap: list[_HeapItem] = []
        self._counter = itertools.count()

    def push(self, time_ms: float, event: Event) -> None:
        if time_ms < 0:
            raise ValueError(f"event time must be >= 0, got {time_ms}")
        heapq.heappush(self._heap, _HeapItem(time_ms, next(self._counter), event))

    def pop(self) -> tuple[float, Event]:
        item = heapq.heappop(self._heap)
        return item.time_ms, item.event

    def __bool__(self) -> bool:
        return bool(self._heap)


def _baseline_compute_shares(
    running: Iterable[SimRequest], cores: int, spin_fraction: float = 0.25
) -> dict[int, ThreadAllocation]:
    """The pre-overhaul allocator: rebuilds every dict per call."""
    if not 0.0 <= spin_fraction <= 1.0:
        raise SimulationError(f"spin_fraction must be in [0, 1]: {spin_fraction}")
    requests = list(running)
    demands = {
        r.rid: occupancy(r.speedup.speedup(r.degree), r.degree, spin_fraction)
        for r in requests
    }
    boosted_demand = sum(demands[r.rid] for r in requests if r.boosted)
    unboosted_demand = sum(demands[r.rid] for r in requests if not r.boosted)

    boosted_factor = min(1.0, cores / boosted_demand) if boosted_demand > 0 else 1.0
    remaining = cores - boosted_demand * boosted_factor
    if unboosted_demand > 0:
        unboosted_factor = min(1.0, max(0.0, remaining) / unboosted_demand)
    else:
        unboosted_factor = 1.0

    out: dict[int, ThreadAllocation] = {}
    for request in requests:
        factor = boosted_factor if request.boosted else unboosted_factor
        out[request.rid] = ThreadAllocation(
            progress_factor=factor, core_alloc=demands[request.rid] * factor
        )
    return out


class BaselineEngine:
    """The pre-overhaul :class:`~repro.sim.engine.Engine`, kept verbatim.

    Telemetry hooks are omitted (the reference is only ever run bare —
    equivalence is checked on the returned metrics, and the pre-overhaul
    telemetry emission never influenced simulation state).
    """

    def __init__(
        self,
        cores: int,
        scheduler: Scheduler,
        quantum_ms: float = 5.0,
        spin_fraction: float = 0.25,
        fault_plan: FaultPlan | None = None,
        attribution: bool = True,
    ) -> None:
        from repro.sim.processor import BoostController

        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        if quantum_ms <= 0:
            raise SimulationError(f"quantum_ms must be positive, got {quantum_ms}")
        self.cores = cores
        self.scheduler = scheduler
        self.quantum_ms = quantum_ms
        self.spin_fraction = spin_fraction
        self.fault_plan = fault_plan
        self.boost = BoostController(cores)

        self.now_ms = 0.0
        self._cores_online = cores
        self._queue = _BaselineEventQueue()
        self._requests: dict[int, SimRequest] = {}
        self._running: dict[int, SimRequest] = {}
        self._waiting_fifo: list[int] = []  # e1-queued request ids, FIFO
        self._delayed: set[int] = set()
        self._candidate = 0
        self._shares: dict[int, ThreadAllocation] = {}
        self._generation = 0
        self._rates_dirty = False
        self._metrics = MetricsCollector(cores)
        self._ctx = SchedulerContext(self)
        self._completed = 0
        self._shed = 0
        self.attribution = attribution

    # ------------------------------------------------------------------
    @property
    def system_count(self) -> int:
        return len(self._running) + len(self._delayed) + self._candidate

    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def total_threads(self) -> int:
        return sum(r.degree for r in self._running.values())

    @property
    def queued_count(self) -> int:
        return len(self._waiting_fifo)

    @property
    def cores_online(self) -> int:
        return self._cores_online

    # ------------------------------------------------------------------
    def run(self, arrivals: Sequence[ArrivalSpec]) -> SimulationResult:
        if not arrivals:
            raise SimulationError("no arrivals to simulate")
        self.scheduler.reset()
        self.boost.reset()
        for rid, spec in enumerate(sorted(arrivals, key=lambda s: s.time_ms)):
            request = SimRequest(rid, spec.time_ms, spec.seq_ms, spec.speedup, tag=spec.tag)
            self._requests[rid] = request
            self._queue.push(spec.time_ms, Event(EventKind.ARRIVAL, request_id=rid))
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

        while self._queue:
            time_ms, event = self._queue.pop()
            if event.kind is EventKind.COMPLETION and event.generation != self._generation:
                continue  # stale rate snapshot
            if time_ms < self.now_ms - _FINISH_EPS:
                raise SimulationError(
                    f"time went backwards: {time_ms} < {self.now_ms}"
                )
            self._commit(max(time_ms, self.now_ms))
            self._dispatch(event)
            if self._rates_dirty:
                self._recompute_rates()

        if self._completed + self._shed != len(self._requests):
            stuck = len(self._requests) - self._completed - self._shed
            raise SimulationError(
                f"{stuck} requests never completed (scheduler deadlock?)"
            )
        return self._metrics.finalize()

    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        if event.kind is EventKind.ARRIVAL:
            self._handle_arrival(self._requests[event.request_id])
        elif event.kind is EventKind.DELAY_EXPIRED:
            self._handle_delay_expired(self._requests[event.request_id])
        elif event.kind is EventKind.QUANTUM:
            self._handle_quantum(self._requests[event.request_id])
        elif event.kind is EventKind.COMPLETION:
            self._handle_completion()
        elif event.kind is EventKind.FAULT:
            self._handle_fault(event.payload)
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown event {event}")

    def _handle_arrival(self, request: SimRequest) -> None:
        if self.fault_plan is not None:
            inflation = self.fault_plan.straggler_inflation(request.rid)
            if inflation > 1.0:
                request.remaining_work *= inflation
                request.impaired = True
                self._metrics.fault_stats.stragglers_injected += 1
        self._candidate = 1
        decision = self.scheduler.on_arrival(self._ctx, request)
        self._candidate = 0
        self._apply_admission(request, decision)

    def _handle_delay_expired(self, request: SimRequest) -> None:
        if request.state is not RequestState.DELAYED:
            return
        self._delayed.discard(request.rid)
        self._candidate = 1
        decision = self.scheduler.on_wait_check(self._ctx, request)
        self._candidate = 0
        self._apply_admission(request, decision)

    def _handle_quantum(self, request: SimRequest) -> None:
        if request.state is not RequestState.RUNNING:
            return
        was_boosted = request.boosted
        desired = self.scheduler.on_quantum(self._ctx, request)
        new_degree = max(desired, request.degree)
        if request.raise_degree(new_degree) or (request.boosted and not was_boosted):
            self._rates_dirty = True
        self._queue.push(
            self.now_ms + self.quantum_ms,
            Event(EventKind.QUANTUM, request_id=request.rid),
        )

    def _handle_completion(self) -> None:
        finished = [r for r in self._running.values() if r.is_finished]
        if not finished:
            raise SimulationError("completion event with no finished request")
        for request in finished:
            request.finish(self.now_ms)
            del self._running[request.rid]
            self._metrics.record(request)
            self.boost.release(request)
            self._completed += 1
            self.scheduler.on_exit(self._ctx, request)
        self._rates_dirty = True
        self._wake_waiters(exits=len(finished))

    # ------------------------------------------------------------------
    def _handle_fault(self, payload: object) -> None:
        kind, detail = payload  # type: ignore[misc]
        stats = self._metrics.fault_stats
        if kind == _CORE_LOSS:
            fault: CoreFault = detail
            removed = self._cores_online - max(1, self._cores_online - fault.cores)
            self._cores_online -= removed
            stats.core_faults_applied += 1
            stats.faults_fired += 1
            self._queue.push(
                self.now_ms + fault.duration_ms,
                Event(EventKind.FAULT, payload=(_CORE_RESTORE, removed)),
            )
            self._rates_dirty = True
        elif kind == _CORE_RESTORE:
            self._cores_online = min(self.cores, self._cores_online + int(detail))
            self._rates_dirty = True
        elif kind == _STALL:
            stall: StallFault = detail
            victim = self._stall_victim()
            if victim is None:
                return
            victim.stalled_until_ms = self.now_ms + stall.duration_ms
            victim.impaired = True
            stats.stalls_injected += 1
            stats.faults_fired += 1
            self._queue.push(
                victim.stalled_until_ms,
                Event(EventKind.FAULT, payload=(_STALL_END, victim.rid)),
            )
            self._rates_dirty = True
        elif kind == _STALL_END:
            self._rates_dirty = True
        else:  # pragma: no cover - payload tags are closed
            raise SimulationError(f"unknown fault payload {payload!r}")

    def _stall_victim(self) -> SimRequest | None:
        candidates = [
            r
            for r in self._running.values()
            if not r.is_stalled(self.now_ms) and not r.is_finished
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: (r.remaining_work, -r.rid))

    # ------------------------------------------------------------------
    def _apply_admission(self, request: SimRequest, decision: Admission) -> None:
        if decision.action is AdmissionAction.START or (
            decision.action is AdmissionAction.DELAY and decision.delay_ms <= 0
        ):
            self._start_request(request, decision.degree)
        elif decision.action is AdmissionAction.DELAY:
            request.state = RequestState.DELAYED
            self._delayed.add(request.rid)
            self._queue.push(
                self.now_ms + decision.delay_ms,
                Event(EventKind.DELAY_EXPIRED, request_id=request.rid),
            )
        elif decision.action is AdmissionAction.WAIT_FOR_EXIT:
            if not self._running and not self._delayed:
                self._start_request(request, 1)
            else:
                request.state = RequestState.QUEUED
                self._waiting_fifo.append(request.rid)
        elif decision.action is AdmissionAction.SHED:
            request.shed(self.now_ms)
            self._metrics.record_shed(request, decision.deadline)
            self._shed += 1
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown admission {decision}")

    def _start_request(self, request: SimRequest, degree: int) -> None:
        request.start(self.now_ms, max(1, degree))
        self._running[request.rid] = request
        self._rates_dirty = True
        if self.scheduler.uses_quantum:
            self._queue.push(
                self.now_ms + self.quantum_ms,
                Event(EventKind.QUANTUM, request_id=request.rid),
            )

    def _wake_waiters(self, exits: int) -> None:
        forced = 0
        while self._waiting_fifo:
            request = self._requests[self._waiting_fifo[0]]
            self._candidate = 1
            decision = self.scheduler.on_wait_check(self._ctx, request)
            self._candidate = 0
            if decision.action is AdmissionAction.WAIT_FOR_EXIT:
                if forced >= exits:
                    break
                decision = Admission.start(1)
                forced += 1
            self._waiting_fifo.pop(0)
            self._apply_admission(request, decision)
        for rid in sorted(self._delayed):
            request = self._requests[rid]
            decision = self.scheduler.on_wait_check(self._ctx, request)
            if decision.action is AdmissionAction.START or (
                decision.action is AdmissionAction.DELAY and decision.delay_ms <= 0
            ):
                self._delayed.discard(rid)
                self._apply_admission(request, Admission.start(decision.degree))
            elif decision.action is AdmissionAction.SHED:
                self._delayed.discard(rid)
                self._apply_admission(request, decision)

    # ------------------------------------------------------------------
    def _commit(self, t: float) -> None:
        dt = t - self.now_ms
        if dt > 0:
            busy_cores = 0.0
            total_threads = 0
            for request in self._running.values():
                alloc = self._shares.get(request.rid)
                core_alloc = alloc.core_alloc if alloc is not None else 0.0
                factor = alloc.progress_factor if alloc is not None else 0.0
                request.advance(
                    dt,
                    core_alloc,
                    factor,
                    stalled=request.is_stalled(self.now_ms),
                    attribution=self.attribution,
                )
                busy_cores += core_alloc
                total_threads += request.degree
            in_system = (
                len(self._running) + len(self._delayed) + len(self._waiting_fifo)
            )
            self._metrics.observe_interval(dt, total_threads, busy_cores, in_system)
        self.now_ms = t

    def _recompute_rates(self) -> None:
        self._rates_dirty = False
        self._generation += 1
        self._shares = _baseline_compute_shares(
            self._running.values(), self._cores_online, self.spin_fraction
        )
        earliest: float | None = None
        for request in self._running.values():
            factor = self._shares[request.rid].progress_factor
            request.rate = request.speedup.speedup(request.degree) * factor
            if request.is_stalled(self.now_ms):
                request.rate = 0.0
            if request.rate > 0:
                eta = self.now_ms + request.remaining_work / request.rate
                if earliest is None or eta < earliest:
                    earliest = eta
        if earliest is not None:
            self._queue.push(
                max(earliest, self.now_ms),
                Event(EventKind.COMPLETION, generation=self._generation),
            )


def simulate_baseline(
    arrivals: Sequence[ArrivalSpec],
    scheduler: Scheduler,
    cores: int,
    quantum_ms: float = 5.0,
    spin_fraction: float = 0.25,
    fault_plan: FaultPlan | None = None,
    attribution: bool = True,
) -> SimulationResult:
    """Run the frozen reference engine (for equivalence checks only)."""
    engine = BaselineEngine(
        cores=cores,
        scheduler=scheduler,
        quantum_ms=quantum_ms,
        spin_fraction=spin_fraction,
        fault_plan=fault_plan,
        attribution=attribution,
    )
    return engine.run(arrivals)
