"""Request lifecycle state for the simulator.

A :class:`SimRequest` tracks one request from arrival to completion:
its remaining *sequential work* (milliseconds of single-core compute),
its current parallelism degree, boost status, and the accounting needed
for the paper's metrics (thread-time for average parallelism, Figure 9;
per-degree residency for the degree distributions, Figures 9(b)/12(b)).

It also carries the *flight recorder*: an additive decomposition of the
request's eventual latency into queue wait, full-speed-equivalent
service, processor-sharing contention inflation, boost wait (contention
suffered while a requested boost was denied), and injected-stall time.
Within each constant-rate interval the engine commits, the wall time
``dt`` splits exactly — stalled intervals are all stall, and running
intervals split into ``factor*dt`` service plus ``(1-factor)*dt``
slowdown — so the components telescope to the measured latency (see
DESIGN.md §9).
"""

from __future__ import annotations

import enum

from repro.core.speedup import SpeedupCurve
from repro.errors import SimulationError

__all__ = ["RequestState", "SimRequest"]

_EPS = 1e-9
#: ``SimRequest.horizon`` before the engine first asks (one shared
#: float, not one per request).
_UNASKED = float("-inf")


class RequestState(enum.Enum):
    """Lifecycle phases of a request inside the server."""

    QUEUED = "queued"  # waiting for an exit (e1 admission)
    DELAYED = "delayed"  # waiting out a t0 > 0 admission delay
    RUNNING = "running"
    DONE = "done"
    SHED = "shed"  # rejected by overload load shedding (never ran)


class SimRequest:
    """One in-flight request."""

    __slots__ = (
        "rid",
        "arrival_ms",
        "seq_ms",
        "speedup",
        "state",
        "remaining_work",
        "degree",
        "boosted",
        "start_ms",
        "finish_ms",
        "thread_time_ms",
        "core_time_ms",
        "effective_ms",
        "degree_residency",
        "rate",
        "tag",
        "stalled_until_ms",
        "impaired",
        "shed_ms",
        "boost_pending",
        "attr_service_ms",
        "attr_contention_ms",
        "attr_boost_wait_ms",
        "attr_stall_ms",
        "share_factor",
        "share_cores",
        "degree_speedup",
        "degree_demand",
        "pool",
        "energy_mj",
        "migrations",
        "tick_mark",
        "horizon",
        "horizon_degree",
        "horizon_load",
    )

    def __init__(
        self, rid: int, arrival_ms: float, seq_ms: float, speedup: SpeedupCurve,
        tag: object = None,
    ) -> None:
        if seq_ms <= 0:
            raise SimulationError(f"request {rid}: seq_ms must be positive, got {seq_ms}")
        self.rid = rid
        self.arrival_ms = arrival_ms
        self.seq_ms = seq_ms
        self.speedup = speedup
        self.state = RequestState.QUEUED
        self.remaining_work = seq_ms
        self.degree = 0
        self.boosted = False
        self.start_ms: float | None = None
        self.finish_ms: float | None = None
        #: Integral of software-thread count over execution time.
        self.thread_time_ms = 0.0
        #: Integral of physical-core usage (threads x share) over time.
        self.core_time_ms = 0.0
        #: Full-speed-equivalent execution time: wall time weighted by
        #: the contention factor.  Equals wall time when uncontended.
        self.effective_ms = 0.0
        #: Wall-time spent at each degree, ``{degree: ms}``.
        self.degree_residency: dict[int, float] = {}
        #: Current work-depletion rate (sequential-ms per wall-ms).
        self.rate = 0.0
        #: Opaque caller payload (e.g. the originating query).
        self.tag = tag
        #: While ``now < stalled_until_ms`` the request retires no work
        #: (an injected worker stall); its threads keep their cores.
        self.stalled_until_ms = 0.0
        #: Whether any fault touched this request (straggler inflation
        #: or a stall) — completions of impaired requests are counted
        #: as *degraded* in the fault stats.
        self.impaired = False
        #: When load shedding rejected this request (None = not shed).
        self.shed_ms: float | None = None
        #: True between a denied boost attempt and the eventual grant —
        #: contention suffered in this state is attributed to boost
        #: wait (the slowdown a granted boost would have eliminated).
        self.boost_pending = False
        #: Flight-recorder integrals (additive latency attribution):
        #: full-speed-equivalent execution time while not stalled.
        self.attr_service_ms = 0.0
        #: Processor-sharing slowdown while not stalled or boost-denied.
        self.attr_contention_ms = 0.0
        #: Processor-sharing slowdown while a requested boost was denied.
        self.attr_boost_wait_ms = 0.0
        #: Wall time frozen by injected worker stalls.
        self.attr_stall_ms = 0.0
        #: Engine-managed allocation state, refreshed by the fluid-rate
        #: machinery: the current contention factor (from
        #: :func:`~repro.sim.processor.share_factors`) and physical-core
        #: share, stored inline to avoid per-event dict churn ...
        self.share_factor = 0.0
        self.share_cores = 0.0
        #: ... and the per-degree caches — ``s(degree)`` and occupancy
        #: ``o(degree)`` are pure in the degree, so the engine
        #: recomputes them only when the degree changes instead of on
        #: every allocation round.
        self.degree_speedup = 0.0
        self.degree_demand = 0.0
        #: Heterogeneous-topology state (``repro.hetero``): the core
        #: pool this request's threads currently occupy, the energy its
        #: execution has drawn (accumulated in watt-ms = millijoules),
        #: and how many times a policy migrated it between pools.  All
        #: stay at their zeros on a run without a topology.
        self.pool = 0
        self.energy_mj = 0.0
        self.migrations = 0
        #: Engine bookkeeping for deferred quantum ticks (DESIGN.md §10):
        #: how many of the engine's logged tick intervals this request
        #: has already been advanced over.
        self.tick_mark = 0
        #: The scheduler's :meth:`~repro.sim.api.Scheduler.tick_horizon`
        #: as the engine last asked it, and the degree and load it was
        #: asked at (the answer holds while both are unchanged).
        self.horizon = _UNASKED
        self.horizon_degree = 0
        self.horizon_load = -1

    # ------------------------------------------------------------------
    def start(self, now_ms: float, degree: int) -> None:
        """Transition to RUNNING with ``degree`` worker threads."""
        if self.state is RequestState.RUNNING or self.state is RequestState.DONE:
            raise SimulationError(f"request {self.rid}: cannot start from {self.state}")
        if degree < 1:
            raise SimulationError(f"request {self.rid}: start degree must be >= 1")
        self.state = RequestState.RUNNING
        self.start_ms = now_ms
        self.degree = degree

    def raise_degree(self, degree: int) -> bool:
        """Increase parallelism; returns True when the degree changed.

        FM property: degrees never decrease — a lower request is a
        programming error in the policy, not a runtime condition.
        """
        if self.state is not RequestState.RUNNING:
            raise SimulationError(f"request {self.rid}: not running")
        if degree < self.degree:
            raise SimulationError(
                f"request {self.rid}: degree may not decrease "
                f"({self.degree} -> {degree})"
            )
        if degree == self.degree:
            return False
        self.degree = degree
        return True

    def progress_ms(self, now_ms: float) -> float:
        """Wall time spent executing.

        Requests run continuously once started, so this is simply
        ``now - start`` (the paper's implementation timestamps request
        start and compares elapsed time against interval thresholds).
        """
        if self.start_ms is None:
            return 0.0
        return now_ms - self.start_ms

    def effective_progress_ms(self) -> float:
        """Contention-normalized execution time: how long the request
        *would* have been running at full speed to reach its current
        work state.  Climbing the interval table on this index instead
        of wall time avoids over-parallelizing when the server is
        oversubscribed (wall time keeps passing while work stalls)."""
        return self.effective_ms

    def advance(
        self,
        dt_ms: float,
        core_alloc: float,
        progress_factor: float = 1.0,
        stalled: bool = False,
        attribution: bool = True,
    ) -> None:
        """Deplete work for ``dt_ms`` of wall time at the current rate
        and accumulate the metric integrals.

        ``core_alloc`` is the total physical-core share this request's
        threads are consuming and ``progress_factor`` the contention
        slowdown (both from the allocator).  ``stalled`` marks an
        interval frozen by an injected worker stall (the engine knows;
        stall boundaries always coincide with commit boundaries).  With
        ``attribution`` enabled the interval is also charged to the
        flight-recorder components, which stay exactly additive: every
        committed ``dt_ms`` lands in stall, service, contention, or
        boost wait.
        """
        if self.state is not RequestState.RUNNING or dt_ms <= 0:
            return
        if attribution:
            if stalled:
                self.attr_stall_ms += dt_ms
            else:
                useful = progress_factor * dt_ms
                self.attr_service_ms += useful
                slowdown = dt_ms - useful
                if self.boost_pending and not self.boosted:
                    self.attr_boost_wait_ms += slowdown
                else:
                    self.attr_contention_ms += slowdown
        self.effective_ms += progress_factor * dt_ms
        self.remaining_work -= self.rate * dt_ms
        if self.remaining_work < -1e-6:
            raise SimulationError(
                f"request {self.rid}: overshoot {self.remaining_work}"
            )
        self.remaining_work = max(self.remaining_work, 0.0)
        self.thread_time_ms += self.degree * dt_ms
        self.core_time_ms += core_alloc * dt_ms
        self.degree_residency[self.degree] = (
            self.degree_residency.get(self.degree, 0.0) + dt_ms
        )

    @property
    def is_finished(self) -> bool:
        """Whether all sequential work has been retired."""
        return self.remaining_work <= _EPS

    def finish(self, now_ms: float) -> None:
        """Transition to DONE."""
        if self.state is not RequestState.RUNNING:
            raise SimulationError(f"request {self.rid}: cannot finish from {self.state}")
        self.state = RequestState.DONE
        self.finish_ms = now_ms

    def shed(self, now_ms: float) -> None:
        """Transition to SHED (fail-fast rejection; the request never ran)."""
        if self.state is RequestState.RUNNING or self.state is RequestState.DONE:
            raise SimulationError(f"request {self.rid}: cannot shed from {self.state}")
        self.state = RequestState.SHED
        self.shed_ms = now_ms

    def is_stalled(self, now_ms: float) -> bool:
        """Whether an injected worker stall is freezing the request."""
        return now_ms < self.stalled_until_ms - _EPS

    # ------------------------------------------------------------------
    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion response time (queueing included)."""
        if self.finish_ms is None:
            raise SimulationError(f"request {self.rid}: not finished")
        return self.finish_ms - self.arrival_ms

    @property
    def execution_ms(self) -> float:
        """Start-to-completion wall time."""
        if self.finish_ms is None or self.start_ms is None:
            raise SimulationError(f"request {self.rid}: not finished")
        return self.finish_ms - self.start_ms

    @property
    def average_parallelism(self) -> float:
        """Time-averaged software-thread count while executing."""
        exec_ms = self.execution_ms
        return self.thread_time_ms / exec_ms if exec_ms > 0 else float(self.degree)

    def __repr__(self) -> str:
        return (
            f"SimRequest(rid={self.rid}, state={self.state.value}, "
            f"seq={self.seq_ms:g}, degree={self.degree})"
        )
