"""EA-FM: energy-aware Few-to-Many on heterogeneous core pools.

The degree policy is exactly FM's (interval table, incremental raises,
selective boosting) — what changes is *placement*:

* every request is admitted onto the *slowest* (little) pool, where a
  millisecond of work costs the fewest joules;
* a request is migrated to the *fastest* (big) pool only when it is
  deadline-endangered: FM has boosted it, or it has aged past
  ``rescue_age_ms`` while the big pool has occupancy headroom.

The crucial *negative* choice is what does **not** promote: a request
FM decides to widen.  Wide requests are the long, work-heavy ones — in
a heavy-tailed workload they carry most of the total work-milliseconds
— so "promote whatever FM parallelizes" moves the bulk of the offered
work onto the power-hungry pool and loses the energy race against a
policy that never migrates at all.  Parallelism on little cores is
cheap; big-core speed is reserved for requests that are already late.
Age, not width, is the promotion signal (the same endangerment test
Hurry-up uses), which keeps the big pool's work share to the tail
slice that actually buys 99th-percentile latency.

Short requests therefore live and die on little cores, wide-but-young
requests fan out across little cores, and only the aging tail climbs
onto big silicon — spending big-core joules exactly where they move
the tail.

On a single-pool topology every placement decision is the identity, so
EA-FM is bit-identical to plain FM (attested in the test suite); it
composes unchanged with FM's shedding (``max_backlog``/``deadline_ms``)
and the fault machinery because it only wraps admissions with a pool
and adds migrations.
"""

from __future__ import annotations

from repro.core.table import IntervalTable
from repro.errors import ConfigurationError
from repro.schedulers.fm import FMScheduler
from repro.sim.api import ANY_TICK, Admission, AdmissionAction, SchedulerContext
from repro.sim.request import SimRequest

__all__ = ["EnergyAwareFMScheduler"]


class EnergyAwareFMScheduler(FMScheduler):
    """FM with little-first placement and endangered-only big rescue.

    Parameters
    ----------
    table, boosting, progress, max_backlog, deadline_ms:
        Passed through to :class:`~repro.schedulers.fm.FMScheduler`.
    rescue_age_ms:
        A request older than this is deadline-endangered and migrates
        to the fastest pool — provided the pool has headroom.
    min_free_cores:
        Occupancy headroom the fastest pool must have for an age-based
        rescue.  The default (2.2) approximates one max-degree
        request's occupancy under the Bing spin fraction, i.e. "room
        for the migrant".  Boosted requests skip this gate: FM only
        boosts the extreme tail, and those always get the fast
        silicon.
    """

    def __init__(
        self,
        table: IntervalTable,
        boosting: bool = True,
        progress: str = "effective",
        max_backlog: int | None = None,
        deadline_ms: float | None = None,
        rescue_age_ms: float = 50.0,
        min_free_cores: float = 2.2,
    ) -> None:
        super().__init__(
            table,
            boosting=boosting,
            progress=progress,
            max_backlog=max_backlog,
            deadline_ms=deadline_ms,
        )
        if rescue_age_ms <= 0:
            raise ConfigurationError(f"rescue_age_ms must be positive: {rescue_age_ms}")
        if min_free_cores < 0:
            raise ConfigurationError(f"min_free_cores must be >= 0: {min_free_cores}")
        self.rescue_age_ms = rescue_age_ms
        self.min_free_cores = min_free_cores
        self.name = "EA-" + self.name

    # ------------------------------------------------------------------
    def _park_on_little(
        self, ctx: SchedulerContext, decision: Admission
    ) -> Admission:
        """Pin START admissions to the slowest pool — while it has
        occupancy headroom.  When the little cluster is saturated the
        decision is left unplaced and the engine default (fastest pool
        with headroom) applies, so EA-FM degrades into plain FM
        placement at saturation instead of piling arrivals onto an
        already-overloaded little pool."""
        if decision.action is AdmissionAction.START and decision.pool is None:
            slowest = ctx.slowest_pool
            if ctx.pool_free_cores(slowest) > 0.0:
                return Admission.start(decision.degree, pool=slowest)
        return decision

    def on_arrival(self, ctx: SchedulerContext, request: SimRequest) -> Admission:
        return self._park_on_little(ctx, super().on_arrival(ctx, request))

    def on_wait_check(self, ctx: SchedulerContext, request: SimRequest) -> Admission:
        return self._park_on_little(ctx, super().on_wait_check(ctx, request))

    def on_quantum(self, ctx: SchedulerContext, request: SimRequest) -> int:
        desired = super().on_quantum(ctx, request)
        fastest = ctx.fastest_pool
        if request.pool != fastest and (
            request.boosted
            or (
                ctx.now_ms - request.arrival_ms >= self.rescue_age_ms
                and ctx.pool_free_cores(fastest) >= self.min_free_cores
            )
        ):
            ctx.migrate(request, fastest)
        return desired

    def tick_horizon(self, ctx: SchedulerContext, request: SimRequest) -> float:
        """Any tick may act: below the next raise it may still migrate
        the request."""
        return ANY_TICK
