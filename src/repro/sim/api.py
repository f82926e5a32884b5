"""The contract between the simulator engine and scheduling policies.

A :class:`Scheduler` decides, for each request, when it starts and with
how many worker threads — the engine owns time, cores, and bookkeeping.
The interface mirrors the hooks the paper's runtime exposes:

* ``on_arrival`` — called when a request enters; the policy admits it
  (with an initial degree), delays it (FM admission control, ``t0 > 0``),
  or queues it until an exit (``t0 = e1``).
* ``on_wait_check`` — re-evaluation hook for waiting requests, invoked
  when load drops (request exits) so policies can self-correct, and on
  expiry of a requested delay.
* ``on_quantum`` — the self-scheduling hook (Section 4.2): every
  scheduling quantum a running request re-reads the instantaneous load
  and may raise its parallelism.  Degrees never decrease (Theorem 1).
  ``tick_horizon`` lets a policy say how far a request must progress
  before a tick can act, so the engine skips the hook until then.
* ``on_start`` — notification that a request began executing, for
  every start: the policy's own admissions and the ones the engine
  forces (one ``e1`` request per exit at saturation, and a
  ``wait_for_exit`` on an idle system).
* ``on_exit`` — called when a request completes.

Policies that never change degree mid-flight (SEQ, FIX-N, Adaptive, RC)
set :attr:`Scheduler.uses_quantum` to ``False`` so the engine skips
quantum events entirely.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.request import SimRequest

__all__ = ["ANY_TICK", "AdmissionAction", "Admission", "SchedulerContext", "Scheduler"]

#: The tick horizon of a policy whose every tick may act
#: (:meth:`Scheduler.tick_horizon`'s default): ``-inf``, one shared float.
ANY_TICK = -math.inf


class AdmissionAction(enum.Enum):
    """What to do with a request that is not yet running."""

    START = "start"
    DELAY = "delay"
    WAIT_FOR_EXIT = "wait_for_exit"
    #: Reject the request immediately — overload load shedding.  A shed
    #: request never runs; it is recorded (never silently dropped) and
    #: the client fails fast instead of queueing into a hopeless tail.
    SHED = "shed"


@dataclass(frozen=True)
class Admission:
    """A policy's decision for a waiting request."""

    action: AdmissionAction
    degree: int = 1
    delay_ms: float = 0.0
    #: For SHED decisions: whether the rejection was deadline-caused
    #: (as opposed to a backlog-bound breach).
    deadline: bool = False
    #: For START decisions on a heterogeneous topology: the core-pool
    #: index to place the request on.  ``None`` lets the engine pick
    #: (fastest pool with headroom).  Ignored on the homogeneous path.
    pool: int | None = None

    @classmethod
    def start(cls, degree: int, pool: int | None = None) -> "Admission":
        """Start executing now with ``degree`` worker threads.

        ``pool`` optionally pins the request to a core pool on a
        heterogeneous topology (default: engine placement).
        """
        return cls(AdmissionAction.START, degree=degree, pool=pool)

    @classmethod
    def delay(cls, delay_ms: float) -> "Admission":
        """Re-evaluate after ``delay_ms`` (FM's ``t0 > 0`` admission)."""
        return cls(AdmissionAction.DELAY, delay_ms=delay_ms)

    @classmethod
    def wait_for_exit(cls) -> "Admission":
        """Queue until another request exits (FM's ``e1`` marker)."""
        return cls(AdmissionAction.WAIT_FOR_EXIT)

    @classmethod
    def shed(cls, deadline: bool = False) -> "Admission":
        """Reject the request now (fail fast under overload).

        ``deadline=True`` marks the rejection as caused by a
        deadline-budget breach rather than a backlog bound — the
        metrics layer accounts the two separately.
        """
        return cls(AdmissionAction.SHED, deadline=deadline)


class SchedulerContext:
    """The system state a policy may observe, plus its one actuator
    besides degrees: selective thread-priority boosting.

    The engine implements this interface; policies receive it on every
    hook call.  ``system_count`` is the paper's load metric — "the
    number of requests in the system", waiting or running.
    """

    def __init__(self, engine) -> None:
        self._engine = engine

    @property
    def now_ms(self) -> float:
        """Current virtual time."""
        return self._engine.now_ms

    @property
    def cores(self) -> int:
        """Hardware parallelism of the simulated server."""
        return self._engine.cores

    @property
    def system_count(self) -> int:
        """Instantaneous number of requests in the system (running,
        delayed, or queued) — the interval-table index."""
        return self._engine.system_count

    @property
    def running_count(self) -> int:
        """Requests actively executing."""
        return self._engine.running_count

    @property
    def total_threads(self) -> int:
        """Total software threads of all running requests."""
        return self._engine.total_threads

    @property
    def queued_count(self) -> int:
        """Requests in the ``e1`` backlog (queued, not yet admitted) —
        the quantity overload shedding bounds."""
        return self._engine.queued_count

    @property
    def cores_online(self) -> int:
        """Cores currently serving requests (may be below ``cores``
        while an injected core fault is active)."""
        return self._engine.cores_online

    @property
    def boosted_threads(self) -> int:
        """Threads currently holding boosted priority."""
        return self._engine.boost.boosted_threads

    def try_boost(self, request: "SimRequest", degree: int) -> bool:
        """Request boosted priority for all of ``request``'s threads.

        Succeeds only while the boosted-thread total stays strictly
        below the core count (Section 4.2).  Idempotent for an
        already-boosted request.
        """
        return self._engine.boost.try_boost(request, degree)

    # -- heterogeneous-topology surface (repro.hetero) -----------------
    @property
    def topology(self):
        """The :class:`~repro.hetero.pools.Topology`, or ``None`` on
        a homogeneous run."""
        return self._engine.topology

    @property
    def pool_count(self) -> int:
        """Number of core pools (1 on the homogeneous path)."""
        topology = self._engine.topology
        return len(topology) if topology is not None else 1

    @property
    def fastest_pool(self) -> int:
        """Index of the highest-speed pool (0 when homogeneous)."""
        topology = self._engine.topology
        return topology.fastest_pool if topology is not None else 0

    @property
    def slowest_pool(self) -> int:
        """Index of the lowest-speed pool (0 when homogeneous)."""
        topology = self._engine.topology
        return topology.slowest_pool if topology is not None else 0

    def pool_free_cores(self, pool: int) -> float:
        """Occupancy headroom of ``pool``: online cores minus the
        summed occupancy demand of requests currently placed there.
        May be negative when the pool is oversubscribed."""
        return self._engine.pool_free_cores(pool)

    def migrate(self, request: "SimRequest", pool: int) -> bool:
        """Move a *running* request's threads to another core pool.

        Returns True when the placement changed.  No-op (False) on the
        homogeneous path, for an invalid index, or when the request is
        already there.  This is the Hurry-up actuator: threads resume
        on the target pool at the next rate recomputation — migration
        cost is modeled as zero (the paper's queries are orders of
        magnitude longer than a cross-cluster migration).
        """
        return self._engine.migrate(request, pool)


class Scheduler(ABC):
    """Base class for all scheduling policies."""

    #: Whether the engine should deliver ``on_quantum`` ticks.
    uses_quantum: bool = True

    #: Display name used in experiment reports.
    name: str = "scheduler"

    @abstractmethod
    def on_arrival(self, ctx: SchedulerContext, request: "SimRequest") -> Admission:
        """Decide what happens to a newly arrived request."""

    def on_wait_check(self, ctx: SchedulerContext, request: "SimRequest") -> Admission:
        """Re-evaluate a waiting (delayed or queued) request.

        Default: start sequentially — policies with admission control
        override this.
        """
        return Admission.start(1)

    def on_quantum(self, ctx: SchedulerContext, request: "SimRequest") -> int:
        """Return the degree the running request should use from now on.

        The engine clamps the result to never decrease.  Default keeps
        the current degree.

        Read contract: the hook may read ``request`` and the engine-level
        counts on ``ctx``, and act on ``request`` only.  The engine
        brings just the ticked request's progress fields up to date
        before the call; other running requests' ``effective_ms``,
        ``remaining_work`` and the other accumulators may lag by the
        ticks since the last non-tick event (DESIGN.md §10).
        """
        return request.degree

    def tick_horizon(self, ctx: SchedulerContext, request: "SimRequest") -> float:
        """The least effective progress (``request.effective_ms``) at
        which :meth:`on_quantum` may act on this running request.

        Below it the hook would return ``request.degree`` and touch no
        boost, placement or policy state, so the engine skips the hook
        and the request's sync for a tick whose progress, read as the
        hook would read it, is below the horizon; the tick still fires
        and is re-armed, so event order and timing are unchanged.  The
        answer must hold for every later tick while the request's
        degree and ``ctx.system_count`` are unchanged (the engine asks
        again when either moves), and must be exact: at the horizon
        itself the hook may act.  ``inf`` means no later tick can act,
        whatever the load, and the engine stops asking.  The default,
        ``-inf``, means any tick may act; the engine never asks a
        policy that keeps it, so such a policy pays nothing per tick.
        A subclass that changes what a tick does must not inherit a
        finite or infinite answer.
        """
        return ANY_TICK

    def on_start(self, ctx: SchedulerContext, request: "SimRequest") -> None:
        """Notification that a request began executing, at
        ``request.start_ms`` with ``request.degree`` threads (optional
        hook; the engine's forced ``e1`` starts reach it too)."""

    def on_exit(self, ctx: SchedulerContext, request: "SimRequest") -> None:
        """Notification that a request completed (optional hook)."""

    def reset(self) -> None:
        """Clear any per-run mutable state (optional hook)."""
