"""Measurement: per-request records and time-weighted system integrals.

Provides everything the paper's evaluation plots need:

* response-time percentiles and means (all latency figures) — latency
  includes queueing delay, as in Section 6.1;
* time-averaged software-thread count and CPU utilization
  (Figures 9(c), 12(c));
* per-request average parallelism split by demand class (Figure 9(a));
* final-degree distributions (Figures 9(b), 12(b));
* the flight recorder's additive latency attribution (DESIGN.md §9):
  queue wait + service + contention + boost wait + stall == latency,
  per request and exactly (to float residue).

Empty-quantile contract (shared with :mod:`repro.telemetry.histogram`):
*streaming / monitoring* surfaces return ``nan`` on empty data — a
dashboard must render, not crash — while *completed-run analysis*
raises: a :class:`SimulationResult` with zero completions is rejected
at construction, so its quantile views never see an empty sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.formulas import weighted_order_statistic
from repro.errors import SimulationError
from repro.faults.plan import FaultStats
from repro.hetero.energy import EnergyReport
from repro.sim.request import SimRequest

__all__ = [
    "ATTRIBUTION_COMPONENTS",
    "attribution_columns",
    "RequestRecord",
    "ShedRecord",
    "MetricsCollector",
    "SimulationResult",
]

#: The additive latency components, in reporting order.  For every
#: completed request they sum to ``latency_ms`` (within float residue).
ATTRIBUTION_COMPONENTS = (
    "queue_ms",
    "service_ms",
    "contention_ms",
    "boost_wait_ms",
    "stall_ms",
)


@dataclass(frozen=True)
class RequestRecord:
    """Immutable completion record of one request."""

    rid: int
    arrival_ms: float
    start_ms: float
    finish_ms: float
    seq_ms: float
    final_degree: int
    average_parallelism: float
    thread_time_ms: float
    core_time_ms: float
    boosted: bool
    #: Flight-recorder components (0.0 when the engine ran with
    #: ``attribution=False``): full-speed-equivalent service time,
    #: processor-sharing contention inflation, contention suffered
    #: while a requested boost was denied, and injected-stall time.
    service_ms: float = 0.0
    contention_ms: float = 0.0
    boost_wait_ms: float = 0.0
    stall_ms: float = 0.0
    #: Heterogeneous-topology accounting (``repro.hetero``): the pool
    #: the request finished on, the joules its execution drew, and how
    #: many cross-pool migrations it took.  All zero on the legacy
    #: homogeneous path (no energy model is defined there).
    pool: int = 0
    energy_j: float = 0.0
    migrations: int = 0
    tag: Any = None

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion response time."""
        return self.finish_ms - self.arrival_ms

    @property
    def execution_ms(self) -> float:
        """Start-to-completion wall time (excludes admission waits)."""
        return self.finish_ms - self.start_ms

    @property
    def queueing_ms(self) -> float:
        """Time spent waiting for admission."""
        return self.start_ms - self.arrival_ms

    def attribution(self) -> dict[str, float]:
        """The additive latency decomposition, in component order.

        ``sum(attribution().values()) == latency_ms`` to within float
        residue when the engine's flight recorder was enabled.
        """
        return {
            "queue_ms": self.queueing_ms,
            "service_ms": self.service_ms,
            "contention_ms": self.contention_ms,
            "boost_wait_ms": self.boost_wait_ms,
            "stall_ms": self.stall_ms,
        }

    @property
    def attributed_ms(self) -> float:
        """Sum of the flight-recorder components (should equal
        :attr:`latency_ms`; the property test pins the residue)."""
        return (
            self.queueing_ms
            + self.service_ms
            + self.contention_ms
            + self.boost_wait_ms
            + self.stall_ms
        )


def attribution_columns(records: Sequence[RequestRecord]) -> dict[str, list[float]]:
    """``latency_ms`` and every attribution component as one list per
    field, in record order.

    Each value is computed exactly as :attr:`RequestRecord.latency_ms`
    and :meth:`RequestRecord.attribution` compute it, so a sum or a
    histogram over these lists sees the same floats in the same order
    as one fed record by record, without a dict per record.
    """
    return {
        "latency_ms": [r.finish_ms - r.arrival_ms for r in records],
        "queue_ms": [r.start_ms - r.arrival_ms for r in records],
        "service_ms": [r.service_ms for r in records],
        "contention_ms": [r.contention_ms for r in records],
        "boost_wait_ms": [r.boost_wait_ms for r in records],
        "stall_ms": [r.stall_ms for r in records],
    }


@dataclass(frozen=True)
class ShedRecord:
    """A request rejected by load shedding — recorded, never dropped."""

    rid: int
    arrival_ms: float
    shed_ms: float
    seq_ms: float
    #: True when the shed was deadline-caused (queueing delay exceeded
    #: the deadline budget) rather than a backlog-bound breach.
    deadline: bool
    tag: Any = None

    @property
    def waited_ms(self) -> float:
        """How long the request waited before being rejected."""
        return self.shed_ms - self.arrival_ms


class MetricsCollector:
    """Accumulates records and time-weighted integrals during a run."""

    def __init__(self, cores: int) -> None:
        self.cores = cores
        self.records: list[RequestRecord] = []
        self.shed_records: list[ShedRecord] = []
        self.fault_stats = FaultStats()
        self._thread_integral = 0.0
        self._core_busy_integral = 0.0
        self._system_count_integral = 0.0
        self._observed_ms = 0.0
        self._thread_residency: dict[int, float] = {}
        #: Set by the engine at end of run on a heterogeneous topology;
        #: stays ``None`` on the legacy homogeneous path.
        self.energy_report: EnergyReport | None = None

    def observe_interval(
        self, dt_ms: float, total_threads: int, busy_cores: float, system_count: int
    ) -> None:
        """Integrate system-level gauges over a constant-rate interval."""
        if dt_ms < 0:
            raise SimulationError(f"negative interval {dt_ms}")
        self._thread_integral += total_threads * dt_ms
        self._core_busy_integral += busy_cores * dt_ms
        self._system_count_integral += system_count * dt_ms
        self._observed_ms += dt_ms
        self._thread_residency[total_threads] = (
            self._thread_residency.get(total_threads, 0.0) + dt_ms
        )

    def record(self, request: SimRequest) -> None:
        """Snapshot a completed request."""
        if request.start_ms is None or request.finish_ms is None:
            raise SimulationError(f"request {request.rid} not finished")
        self.records.append(
            RequestRecord(
                rid=request.rid,
                arrival_ms=request.arrival_ms,
                start_ms=request.start_ms,
                finish_ms=request.finish_ms,
                seq_ms=request.seq_ms,
                final_degree=request.degree,
                average_parallelism=request.average_parallelism,
                thread_time_ms=request.thread_time_ms,
                core_time_ms=request.core_time_ms,
                boosted=request.boosted,
                service_ms=request.attr_service_ms,
                contention_ms=request.attr_contention_ms,
                boost_wait_ms=request.attr_boost_wait_ms,
                stall_ms=request.attr_stall_ms,
                pool=request.pool,
                energy_j=request.energy_mj / 1000.0,
                migrations=request.migrations,
                tag=request.tag,
            )
        )
        if request.impaired:
            self.fault_stats.degraded_completions += 1

    def record_shed(self, request: SimRequest, deadline: bool) -> None:
        """Account a load-shed (fail-fast rejected) request."""
        if request.shed_ms is None:
            raise SimulationError(f"request {request.rid} not shed")
        self.shed_records.append(
            ShedRecord(
                rid=request.rid,
                arrival_ms=request.arrival_ms,
                shed_ms=request.shed_ms,
                seq_ms=request.seq_ms,
                deadline=deadline,
                tag=request.tag,
            )
        )
        self.fault_stats.shed_requests += 1
        if deadline:
            self.fault_stats.deadline_sheds += 1

    def finalize(self) -> "SimulationResult":
        """Produce the immutable result object."""
        return SimulationResult(
            records=sorted(self.records, key=lambda r: r.arrival_ms),
            cores=self.cores,
            duration_ms=self._observed_ms,
            thread_integral=self._thread_integral,
            core_busy_integral=self._core_busy_integral,
            system_count_integral=self._system_count_integral,
            thread_residency=dict(self._thread_residency),
            shed_records=sorted(self.shed_records, key=lambda r: r.arrival_ms),
            fault_stats=self.fault_stats,
            energy=self.energy_report,
        )


class SimulationResult:
    """Completed-run measurements with the paper's metric views."""

    def __init__(
        self,
        records: list[RequestRecord],
        cores: int,
        duration_ms: float,
        thread_integral: float,
        core_busy_integral: float,
        system_count_integral: float,
        thread_residency: dict[int, float] | None = None,
        shed_records: list[ShedRecord] | None = None,
        fault_stats: FaultStats | None = None,
        energy: EnergyReport | None = None,
    ) -> None:
        if not records:
            raise SimulationError("simulation produced no completed requests")
        self.records = records
        self.cores = cores
        self.duration_ms = duration_ms
        self._thread_integral = thread_integral
        self._core_busy_integral = core_busy_integral
        self._system_count_integral = system_count_integral
        self._thread_residency = thread_residency or {}
        #: Fail-fast rejections (empty when shedding is off).
        self.shed_records = shed_records or []
        #: Fault-injection and shedding counters for the whole run.
        self.fault_stats = fault_stats or FaultStats()
        #: Per-pool energy totals (``None`` on the homogeneous path).
        self.energy = energy

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Latency views
    # ------------------------------------------------------------------
    def latencies_ms(self) -> np.ndarray:
        """Response times in arrival order."""
        return np.array([r.latency_ms for r in self.records], dtype=float)

    def tail_latency_ms(self, phi: float = 0.99) -> float:
        """φ-percentile response time (Eq. 5 order statistic)."""
        lats = self.latencies_ms()
        return weighted_order_statistic(lats, np.ones_like(lats), phi)

    def mean_latency_ms(self) -> float:
        """Mean response time."""
        return float(self.latencies_ms().mean())

    # ------------------------------------------------------------------
    # Tail attribution views (DESIGN.md §9)
    # ------------------------------------------------------------------
    def tail_records(self, phi: float = 0.99) -> list[RequestRecord]:
        """The requests composing the φ-tail: every completion whose
        latency is at least the φ-percentile order statistic."""
        threshold = self.tail_latency_ms(phi)
        return [r for r in self.records if r.latency_ms >= threshold]

    def attribution_summary(self, phi: float = 0.99) -> dict[str, dict[str, float]]:
        """Mean additive latency components, overall and over the φ-tail.

        Returns ``{"overall": {...}, "tail": {...}}`` where each inner
        dict maps component name to its mean milliseconds plus
        ``latency_ms`` (the mean total) — the numbers behind the
        ``tail-attribution`` experiment's table.
        """

        def means(records: list[RequestRecord]) -> dict[str, float]:
            n = len(records)
            columns = attribution_columns(records)
            out = {
                name: float(np.sum(columns[name]) / n)
                for name in ATTRIBUTION_COMPONENTS
            }
            out["latency_ms"] = float(np.mean(columns["latency_ms"]))
            return out

        return {"overall": means(self.records), "tail": means(self.tail_records(phi))}

    # ------------------------------------------------------------------
    # Energy views (repro.hetero)
    # ------------------------------------------------------------------
    def joules_per_query(self) -> float:
        """Total platform energy per completed request (NaN when the
        run had no energy model, i.e. the homogeneous path)."""
        if self.energy is None:
            return float("nan")
        return self.energy.joules_per_query(len(self.records))

    # ------------------------------------------------------------------
    # Robustness views (load shedding / fault injection)
    # ------------------------------------------------------------------
    @property
    def shed_count(self) -> int:
        """Requests rejected by load shedding during the run."""
        return len(self.shed_records)

    @property
    def admitted_fraction(self) -> float:
        """Fraction of offered requests that were admitted (completed
        over completed + shed) — the goodput denominator under shedding."""
        total = len(self.records) + len(self.shed_records)
        return len(self.records) / total if total else 0.0

    # ------------------------------------------------------------------
    # System gauges (Figures 9(c), 12(c))
    # ------------------------------------------------------------------
    def average_threads(self) -> float:
        """Time-averaged software-thread count."""
        return self._thread_integral / self.duration_ms if self.duration_ms else 0.0

    def cpu_utilization(self) -> float:
        """Fraction of core-time spent executing request threads."""
        capacity = self.cores * self.duration_ms
        return self._core_busy_integral / capacity if capacity else 0.0

    def average_system_count(self) -> float:
        """Time-averaged number of requests in the system."""
        return self._system_count_integral / self.duration_ms if self.duration_ms else 0.0

    def thread_count_distribution(self, bins: list[tuple[int, int]]) -> dict[str, float]:
        """Fraction of wall time spent with the total thread count in
        each inclusive ``(lo, hi)`` bin (Figure 12(c)'s <11 / 11-20 /
        21-23 breakdown)."""
        total = sum(self._thread_residency.values())
        out: dict[str, float] = {}
        for lo, hi in bins:
            label = f"{lo}-{hi}"
            mass = sum(
                ms for count, ms in self._thread_residency.items() if lo <= count <= hi
            )
            out[label] = mass / total if total else 0.0
        return out

    # ------------------------------------------------------------------
    # Parallelism views (Figures 9(a,b), 12(b))
    # ------------------------------------------------------------------
    def average_parallelism(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Mean per-request average parallelism over the demand-percentile
        band ``[lo, hi)`` — e.g. ``(0.95, 1.0)`` for the longest 5 %."""
        selected = self._demand_band(lo, hi)
        return float(np.mean([r.average_parallelism for r in selected]))

    def final_degree_histogram(self, lo: float = 0.0, hi: float = 1.0) -> dict[int, float]:
        """Fraction of requests finishing at each parallelism degree."""
        selected = self._demand_band(lo, hi)
        counts: dict[int, int] = {}
        for record in selected:
            counts[record.final_degree] = counts.get(record.final_degree, 0) + 1
        total = len(selected)
        return {degree: count / total for degree, count in sorted(counts.items())}

    def _demand_band(self, lo: float, hi: float) -> list[RequestRecord]:
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"need 0 <= lo < hi <= 1, got [{lo}, {hi})")
        ordered = sorted(self.records, key=lambda r: r.seq_ms)
        n = len(ordered)
        start = int(np.floor(lo * n))
        stop = max(start + 1, int(np.ceil(hi * n)))
        return ordered[start:stop]

    # ------------------------------------------------------------------
    # Slicing (warmup discard; Figure 11's per-quantum windows)
    # ------------------------------------------------------------------
    def slice_by_arrival(self, start: int, stop: int | None = None) -> "SimulationResult":
        """Sub-result over records ``start:stop`` in arrival order.

        System-level integrals are scaled by the retained fraction —
        they remain whole-run averages, which is what the paper reports.
        Shed records are kept only for the slice's arrival window; fault
        counters remain whole-run (faults are not per-record).
        """
        subset = self.records[start:stop]
        if not subset:
            raise ValueError(f"empty slice [{start}:{stop}]")
        fraction = len(subset) / len(self.records)
        lo = subset[0].arrival_ms
        hi = subset[-1].arrival_ms
        return SimulationResult(
            records=subset,
            cores=self.cores,
            duration_ms=self.duration_ms * fraction,
            thread_integral=self._thread_integral * fraction,
            core_busy_integral=self._core_busy_integral * fraction,
            system_count_integral=self._system_count_integral * fraction,
            thread_residency={
                count: ms * fraction for count, ms in self._thread_residency.items()
            },
            shed_records=[r for r in self.shed_records if lo <= r.arrival_ms <= hi],
            fault_stats=self.fault_stats,
            energy=self.energy.scaled(fraction) if self.energy is not None else None,
        )
