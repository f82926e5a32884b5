"""FM — Few-to-Many incremental parallelization (Section 4.2).

The online half of the paper's contribution.  Each request:

1. On arrival, indexes the interval table by the instantaneous load
   ``q_r`` (number of requests in the system, itself included).  The
   row's ``t0`` decides admission: 0 starts immediately at the row's
   initial degree; ``t0 > 0`` delays the start; ``e1`` queues the
   request until another exits.
2. While running, self-schedules every quantum: re-reads the load,
   re-indexes the table, and raises its degree to the row's prescription
   for its current execution progress.  Degrees never decrease; when
   load spikes the request simply stops climbing (higher rows have
   longer intervals), and when load drops it climbs faster — the
   self-correction of Section 4.2.
3. When stepping to the row's maximum degree, it requests selective
   thread priority boosting, granted while the global boosted-thread
   count stays below the core count.
"""

from __future__ import annotations

import math
import sys

from repro.core.table import IntervalTable
from repro.errors import ConfigurationError
from repro.sim.api import ANY_TICK, Admission, Scheduler, SchedulerContext
from repro.sim.request import SimRequest

__all__ = ["FMScheduler"]


class FMScheduler(Scheduler):
    """Interval-table-driven incremental parallelism.

    Parameters
    ----------
    table:
        The offline phase's output (:func:`repro.core.build_interval_table`).
    boosting:
        Enable selective thread priority boosting (Section 4.2).  The
        paper's Bing deployment runs without it; Lucene with it.
    progress:
        Which execution-progress index drives the interval thresholds:
        ``"effective"`` (default) uses contention-normalized time, so a
        request slowed by oversubscription climbs the table in
        proportion to work actually done; ``"wall"`` uses elapsed wall
        time, the paper's literal implementation.  Wall-clock indexing
        over-parallelizes under sustained contention (requests age
        without progressing); the ablation bench quantifies the gap.
    max_backlog:
        Overload load shedding: when an arrival lands on the ``e1`` row
        and the backlog already holds this many requests, reject it
        immediately (fail fast) instead of letting the queue destroy
        every later request's tail.  ``None`` disables the bound.
    deadline_ms:
        Deadline budget: a request whose *queueing* delay exceeds this
        budget is shed at its next wait-check — by then the client has
        given up, so executing it would only burn cores.  ``None``
        disables deadline shedding.
    """

    name = "FM"

    def __init__(
        self,
        table: IntervalTable,
        boosting: bool = True,
        progress: str = "effective",
        max_backlog: int | None = None,
        deadline_ms: float | None = None,
    ) -> None:
        if len(table) < 1:
            raise ConfigurationError("FM needs a non-empty interval table")
        if progress not in ("effective", "wall"):
            raise ConfigurationError(f"progress must be effective|wall: {progress}")
        if max_backlog is not None and max_backlog < 0:
            raise ConfigurationError(f"max_backlog must be >= 0: {max_backlog}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError(f"deadline_ms must be positive: {deadline_ms}")
        self.table = table
        # The largest degree any row prescribes (rows raise degrees
        # strictly, so each row's last step is its largest).
        self._top_degree = max(row.max_degree for row in table)
        self.boosting = boosting
        self.progress = progress
        self.max_backlog = max_backlog
        self.deadline_ms = deadline_ms
        if not boosting:
            self.name = "FM-noboost"
        if progress == "wall":
            self.name += "/wall"
        if max_backlog is not None or deadline_ms is not None:
            self.name += "+shed"

    # ------------------------------------------------------------------
    def on_arrival(self, ctx: SchedulerContext, request: SimRequest) -> Admission:
        row = self.table.lookup(ctx.system_count)
        if row.wait_for_exit:
            if self.max_backlog is not None and ctx.queued_count >= self.max_backlog:
                return Admission.shed()
            return Admission.wait_for_exit()
        if row.admission_delay_ms > 0:
            return Admission.delay(row.admission_delay_ms)
        return Admission.start(row.initial_degree)

    def on_wait_check(self, ctx: SchedulerContext, request: SimRequest) -> Admission:
        """Re-evaluate a waiting request against the *current* load row.

        The required wait is the row's ``t0`` measured from arrival; if
        the request has already waited that long it starts now,
        otherwise it keeps waiting for the remainder.  A row that says
        ``e1`` keeps it queued.  A request whose queueing delay has
        blown its deadline budget is shed (fail fast).
        """
        waited = ctx.now_ms - request.arrival_ms
        if self.deadline_ms is not None and waited > self.deadline_ms:
            return Admission.shed(deadline=True)
        row = self.table.lookup(ctx.system_count)
        if row.wait_for_exit:
            return Admission.wait_for_exit()
        remaining = row.admission_delay_ms - waited
        if remaining > 1e-9:
            return Admission.delay(remaining)
        return Admission.start(row.initial_degree)

    def on_quantum(self, ctx: SchedulerContext, request: SimRequest) -> int:
        row = self.table.lookup(ctx.system_count)
        if self.progress == "effective":
            progress = request.effective_progress_ms()
        else:
            progress = request.progress_ms(ctx.now_ms)
        desired = max(row.degree_at_progress(progress), request.degree)
        if (
            self.boosting
            and desired > request.degree
            and desired >= row.max_degree
            and not request.boosted
        ):
            # Boost only when stepping to the maximum degree and only
            # within the global budget (Section 4.2).
            ctx.try_boost(request, desired)
        return desired

    def tick_horizon(self, ctx: SchedulerContext, request: SimRequest) -> float:
        """The progress of the current row's first step above the
        request's degree: below it :meth:`on_quantum` returns the degree
        and, as FM boosts only on a raise, asks no boost.  A row with no
        step above the degree gives the largest finite float, which no
        progress reaches (a lighter row may still raise, so this holds
        only at this load); at the table's top degree no row raises
        (``inf``).  Wall-clock progress is not the engine's effective
        progress, so ``progress="wall"`` skips no tick below the top.
        Subclasses that swap tables or act on ticks return ``-inf``."""
        degree = request.degree
        if degree >= self._top_degree:
            return math.inf
        if self.progress != "effective":
            return ANY_TICK
        horizon = self.table.lookup(ctx.system_count).raise_progress(degree)
        return horizon if horizon < math.inf else sys.float_info.max
