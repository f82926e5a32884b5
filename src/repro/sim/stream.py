"""Streaming measurement for million-request runs (DESIGN.md §14).

The default :class:`~repro.sim.metrics.MetricsCollector` keeps one
:class:`~repro.sim.metrics.RequestRecord` per completion — perfect for
the paper figures at 2K requests, fatal at 10M.  This module provides
the O(1)-per-completion alternative: :class:`StreamingCollector` folds
each completion straight into a mergeable
:class:`~repro.telemetry.histogram.LogHistogram` (plus scalar counters
and the usual time-weighted integrals), and :func:`simulate_stream`
wires it to a lazily generated arrival stream so a whole run holds
O(running set) memory regardless of request count.

The resulting :class:`StreamSummary` is *mergeable*: summaries of
disjoint arrival shards combine exactly (histogram bucket counts and
scalar sums are order-insensitive integers/floats-of-sums), which is
what lets :mod:`repro.parallel.shards` split one huge sweep cell across
worker processes and reduce the pieces bit-identically regardless of
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, FaultStats
from repro.sim.api import Scheduler
from repro.sim.engine import ArrivalSpec, Engine
from repro.sim.request import SimRequest
from repro.telemetry.histogram import LogHistogram

__all__ = ["StreamingCollector", "StreamSummary", "simulate_stream"]


@dataclass
class StreamSummary:
    """Constant-size result of a streamed run (or a merge of several).

    Latency statistics come from the log-bucketed histogram:
    :meth:`mean_latency_ms` is exact (the histogram tracks the true
    sum), percentiles are within the histogram's configured relative
    error (1 % by default).  ``duration_ms`` and the integrals sum
    across merges — for a sharded cell they total *simulated* virtual
    time over all shards, so the time-averaged gauges remain averages
    over everything simulated.
    """

    cores: int
    histogram: LogHistogram = field(default_factory=LogHistogram)
    count: int = 0
    shed_count: int = 0
    duration_ms: float = 0.0
    thread_integral: float = 0.0
    core_busy_integral: float = 0.0
    system_count_integral: float = 0.0
    fault_stats: FaultStats = field(default_factory=FaultStats)

    # -- latency views ------------------------------------------------
    def mean_latency_ms(self) -> float:
        return self.histogram.mean()

    def tail_latency_ms(self, phi: float = 0.99) -> float:
        return self.histogram.percentile(phi)

    # -- system gauges ------------------------------------------------
    def average_threads(self) -> float:
        return self.thread_integral / self.duration_ms if self.duration_ms else 0.0

    def cpu_utilization(self) -> float:
        capacity = self.cores * self.duration_ms
        return self.core_busy_integral / capacity if capacity else 0.0

    def average_system_count(self) -> float:
        return (
            self.system_count_integral / self.duration_ms if self.duration_ms else 0.0
        )

    @property
    def admitted_fraction(self) -> float:
        total = self.count + self.shed_count
        return self.count / total if total else 0.0

    # -- merging ------------------------------------------------------
    def update(self, other: "StreamSummary") -> None:
        """Fold ``other`` into this summary in place."""
        if other.cores != self.cores:
            raise SimulationError(
                f"cannot merge summaries from different machines: "
                f"{self.cores} vs {other.cores} cores"
            )
        self.histogram.update(other.histogram)
        self.count += other.count
        self.shed_count += other.shed_count
        self.duration_ms += other.duration_ms
        self.thread_integral += other.thread_integral
        self.core_busy_integral += other.core_busy_integral
        self.system_count_integral += other.system_count_integral
        stats, theirs = self.fault_stats, other.fault_stats
        stats.faults_fired += theirs.faults_fired
        stats.stragglers_injected += theirs.stragglers_injected
        stats.stalls_injected += theirs.stalls_injected
        stats.core_faults_applied += theirs.core_faults_applied
        stats.degraded_completions += theirs.degraded_completions
        stats.shed_requests += theirs.shed_requests
        stats.deadline_sheds += theirs.deadline_sheds

    def merge(self, other: "StreamSummary") -> "StreamSummary":
        """Non-destructive merge returning a new summary."""
        out = replace(
            self,
            histogram=self.histogram.copy(),
            fault_stats=replace(self.fault_stats),
        )
        out.update(other)
        return out

    def as_dict(self) -> dict:
        """Plain-dict view for JSON reports."""
        return {
            "cores": self.cores,
            "count": self.count,
            "shed_count": self.shed_count,
            "duration_ms": self.duration_ms,
            "mean_ms": self.mean_latency_ms(),
            "p50_ms": self.histogram.percentile(0.50),
            "p99_ms": self.histogram.percentile(0.99),
            "average_threads": self.average_threads(),
            "cpu_utilization": self.cpu_utilization(),
            "fault_stats": self.fault_stats.as_dict(),
        }


class StreamingCollector:
    """Duck-typed drop-in for :class:`MetricsCollector` that keeps no
    per-request records: each completion folds into the histogram and
    the counters, so collector memory is O(1) in request count."""

    def __init__(self, cores: int) -> None:
        self.cores = cores
        self.histogram = LogHistogram()
        self.completions = 0
        self.sheds = 0
        self.fault_stats = FaultStats()
        self._thread_integral = 0.0
        self._core_busy_integral = 0.0
        self._system_count_integral = 0.0
        self._observed_ms = 0.0
        #: Engine contract parity (set at end of heterogeneous runs;
        #: streamed runs are homogeneous so it stays ``None``).
        self.energy_report = None

    def observe_interval(
        self, dt_ms: float, total_threads: int, busy_cores: float, system_count: int
    ) -> None:
        if dt_ms < 0:
            raise SimulationError(f"negative interval {dt_ms}")
        self._thread_integral += total_threads * dt_ms
        self._core_busy_integral += busy_cores * dt_ms
        self._system_count_integral += system_count * dt_ms
        self._observed_ms += dt_ms

    def record(self, request: SimRequest) -> None:
        if request.finish_ms is None:
            raise SimulationError(f"request {request.rid} not finished")
        self.histogram.record(request.finish_ms - request.arrival_ms)
        self.completions += 1
        if request.impaired:
            self.fault_stats.degraded_completions += 1

    def record_shed(self, request: SimRequest, deadline: bool) -> None:
        self.sheds += 1
        self.fault_stats.shed_requests += 1
        if deadline:
            self.fault_stats.deadline_sheds += 1

    def finalize(self) -> StreamSummary:
        if self.completions == 0:
            raise SimulationError("simulation produced no completed requests")
        return StreamSummary(
            cores=self.cores,
            histogram=self.histogram,
            count=self.completions,
            shed_count=self.sheds,
            duration_ms=self._observed_ms,
            thread_integral=self._thread_integral,
            core_busy_integral=self._core_busy_integral,
            system_count_integral=self._system_count_integral,
            fault_stats=self.fault_stats,
        )


def simulate_stream(
    arrivals: Iterable[ArrivalSpec],
    scheduler: Scheduler,
    cores: int,
    quantum_ms: float = 5.0,
    spin_fraction: float = 0.25,
    fault_plan: FaultPlan | None = None,
    attribution: bool = False,
    vectorized: bool = False,
) -> StreamSummary:
    """Run one streamed simulation end to end in O(running set) memory.

    ``arrivals`` is consumed lazily (pair with
    :meth:`~repro.workloads.workload.Workload.arrival_stream`); every
    completion folds into the returned :class:`StreamSummary`.  The
    latency histogram holds the exact multiset of latencies a batch run
    of the same arrivals records — every bucket count, min, and max is
    bit-identical; only the histogram's true-sum accumulator can differ
    in the last ulp, because it adds samples in completion order while
    a batch result's records are re-sorted by arrival at finalize.

    ``attribution`` defaults off here (unlike :func:`simulate`): the
    flight recorder's per-request components are never read back in
    streamed runs, and skipping them trims the hot loop.
    ``vectorized=True`` runs :class:`repro.sim.vector.VectorEngine`
    (batch kernels from the first request) for attestation; the default
    engine already batches large running sets.
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
        attribution=attribution,
        collector=StreamingCollector(cores),
    )
    return engine.run(iter(arrivals))
