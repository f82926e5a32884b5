"""Online re-profiling FM — the paper's periodic-analysis loop, closed.

Section 2: "Although the individual requests submitted to a service
change frequently, the demand profile of these requests changes slowly,
making periodic offline or online processing practical", and §4.1: "The
offline analysis can run daily, weekly, or at any other coarse
granularity, as dictated by the characteristics of the workload."

:class:`ReprofilingFMScheduler` implements that loop inside the server:
it runs FM off a current interval table while collecting the sequential
demands of completed requests into a sliding window; every
``rebuild_every_ms`` of virtual time it rebuilds the demand profile
from the window (attaching the standing speedup model — parallelism
efficiency is a property of the engine and hardware, which do not
drift), re-runs the interval search, and swaps the table atomically.

When the workload drifts (e.g. a new query mix doubles the tail), the
static table's intervals are mis-calibrated; the re-profiling variant
converges to the new optimum within one rebuild period.  The
``ext-reprofile`` experiment quantifies this.

With an :class:`~repro.observe.slo.SLOMonitor` attached, the loop also
closes on *latency* rather than just the timer: when the monitor's
short-window percentile drifts away from its long-window baseline —
the mix shifted — the scheduler rebuilds immediately (subject to
``drift_cooldown_ms``) instead of waiting out the period.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.demand import DemandProfile
from repro.core.search import SearchConfig, build_interval_table
from repro.core.speedup import SpeedupModel
from repro.core.table import IntervalTable
from repro.errors import ConfigurationError
from repro.schedulers.fm import FMScheduler
from repro.sim.api import ANY_TICK, SchedulerContext
from repro.sim.request import SimRequest
from repro.telemetry import resolve_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.slo import SLOMonitor

__all__ = ["ReprofilingFMScheduler"]


class ReprofilingFMScheduler(FMScheduler):
    """FM with a periodic profile-and-rebuild loop.

    Parameters
    ----------
    initial_table:
        The table to start from (built from whatever profile was
        available at deploy time).
    speedup_model:
        Maps observed sequential demands to speedup curves when
        rebuilding the profile.
    search_config:
        Search parameters for rebuilds.  ``num_bins`` should be set —
        rebuilds run inline with the simulation.
    window:
        Number of most-recent completions the rolling profile keeps.
    rebuild_every_ms:
        Virtual-time period between rebuilds (the paper's "daily or
        weekly", compressed to simulation scale).
    min_samples:
        Don't rebuild until this many completions were observed.
    slo_monitor:
        Optional :class:`~repro.observe.slo.SLOMonitor`.  Every
        completion is fed to it; a drift verdict triggers an immediate
        rebuild (recorded in ``drift_rebuilds``) without waiting for
        the timer.
    drift_cooldown_ms:
        Minimum virtual time between drift-triggered rebuilds, so a
        sustained drift doesn't rebuild on every completion while the
        windows converge.
    """

    def __init__(
        self,
        initial_table: IntervalTable,
        speedup_model: SpeedupModel,
        search_config: SearchConfig,
        window: int = 2000,
        rebuild_every_ms: float = 10_000.0,
        min_samples: int = 200,
        boosting: bool = True,
        slo_monitor: "SLOMonitor | None" = None,
        drift_cooldown_ms: float = 2_000.0,
    ) -> None:
        super().__init__(initial_table, boosting=boosting)
        if window < 10:
            raise ConfigurationError(f"window must be >= 10: {window}")
        if rebuild_every_ms <= 0:
            raise ConfigurationError(
                f"rebuild_every_ms must be positive: {rebuild_every_ms}"
            )
        if min_samples < 10:
            raise ConfigurationError(f"min_samples must be >= 10: {min_samples}")
        self.name = "FM-reprofile"
        self._initial_table = initial_table
        self.speedup_model = speedup_model
        self.search_config = search_config
        self.window = window
        self.rebuild_every_ms = rebuild_every_ms
        self.min_samples = min_samples
        if drift_cooldown_ms <= 0:
            raise ConfigurationError(
                f"drift_cooldown_ms must be positive: {drift_cooldown_ms}"
            )
        self.slo_monitor = slo_monitor
        self.drift_cooldown_ms = drift_cooldown_ms
        self._samples: list[float] = []
        self._last_rebuild_ms = 0.0
        #: Rebuild timestamps, for observability and tests.
        self.rebuilds: list[float] = []
        #: Subset of ``rebuilds`` that the SLO monitor's drift signal
        #: triggered ahead of the timer.
        self.drift_rebuilds: list[float] = []

    def reset(self) -> None:
        self.table = self._initial_table
        self._samples = []
        self._last_rebuild_ms = 0.0
        self.rebuilds = []
        self.drift_rebuilds = []
        if self.slo_monitor is not None:
            self.slo_monitor.reset()

    def tick_horizon(self, ctx: SchedulerContext, request: SimRequest) -> float:
        """Any tick may act: a rebuilt table moves every step."""
        return ANY_TICK

    def on_exit(self, ctx: SchedulerContext, request: SimRequest) -> None:
        self._samples.append(request.seq_ms)
        if len(self._samples) > self.window:
            del self._samples[: len(self._samples) - self.window]
        enough = len(self._samples) >= self.min_samples
        due = ctx.now_ms - self._last_rebuild_ms >= self.rebuild_every_ms
        monitor = self.slo_monitor
        if monitor is not None:
            monitor.observe(request.latency_ms, at_ms=ctx.now_ms)
            cooled = ctx.now_ms - self._last_rebuild_ms >= self.drift_cooldown_ms
            if enough and cooled and not due and monitor.drifted():
                self._rebuild(ctx.now_ms)
                self.drift_rebuilds.append(ctx.now_ms)
                return
        if due and enough:
            self._rebuild(ctx.now_ms)

    def _rebuild(self, now_ms: float) -> None:
        """Re-run the offline analysis on the observed window."""
        profile = DemandProfile.from_model(
            self._samples, self.speedup_model, self.search_config.max_degree
        )
        self.table = build_interval_table(profile, self.search_config)
        self._last_rebuild_ms = now_ms
        self.rebuilds.append(now_ms)
        # Rebuilds are rare and load-bearing: surface each as an
        # observability event.  The scheduler holds no telemetry handle
        # (SchedulerContext exposes none), so the ambient pipeline —
        # installed by --trace — is resolved on this cold path only.
        telemetry = resolve_telemetry(None)
        if telemetry is not None:
            telemetry.tracer.instant(
                "observe.event",
                track="observe",
                at_ms=now_ms,
                kind="reprofile",
                samples=len(self._samples),
                rebuilds=len(self.rebuilds),
            )
