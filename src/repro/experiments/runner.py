"""Experiment runner: single runs and load sweeps.

Mirrors the paper's methodology: an open-loop client replays a request
trace at a configured RPS against one simulated server; each plotted
point is the 99th-percentile / mean response time over the run
(optionally averaged over independent seeds).

A load sweep is a grid of independent seeded ``(policy, rps, repeat)``
cells: :func:`run_sweep` runs them through
:func:`repro.parallel.map_cells` (in-process, or across a process pool
with ``workers > 1``) and reduces the per-cell summaries once, in grid
order, so the worker count never changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hetero.pools import Topology
from repro.sim.api import Scheduler
from repro.sim.engine import simulate
from repro.sim.metrics import SimulationResult
from repro.telemetry import Telemetry
from repro.telemetry.histogram import LogHistogram
from repro.workloads.arrivals import ArrivalProcess, PoissonProcess
from repro.workloads.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults.plan import FaultPlan
    from repro.observe.live import LivePlane

__all__ = [
    "run_policy",
    "stream_policy",
    "run_sweep",
    "SweepResult",
    "PolicySeries",
    "cell_seed",
    "latency_histogram",
]


def cell_seed(seed: int, rps_index: int, repeat: int) -> int:
    """The RNG seed for one ``(rps, repeat)`` sweep cell.

    Depends only on the base seed and the cell coordinates — *not* on
    the policy — so every policy sees identical traces at each load
    point (the paired-comparison discipline), and so a cell replays the
    same run in whichever process executes it.
    """
    return seed + 7919 * rps_index + 104729 * repeat


def latency_histogram(result: SimulationResult) -> LogHistogram:
    """One run's completion latencies as a mergeable log histogram.

    Built per run and merged across repeats (rather than recorded
    straight into an accumulating histogram) so a sweep performs the
    identical sequence of float operations at any worker count.
    """
    histogram = LogHistogram()
    for record in result.records:
        histogram.record(record.latency_ms)
    return histogram


def _named_schedulers(
    schedulers: Sequence[Scheduler] | dict[str, Scheduler],
) -> list[tuple[str, Scheduler]]:
    """Normalize a scheduler collection to unique ``(name, scheduler)``."""
    if isinstance(schedulers, dict):
        named = list(schedulers.items())
    else:
        named = [(s.name, s) for s in schedulers]
    if len({name for name, _ in named}) != len(named):
        raise ConfigurationError("duplicate policy names in sweep")
    return named


def run_policy(
    scheduler: Scheduler,
    workload: Workload,
    rps: float,
    cores: int,
    num_requests: int = 2000,
    quantum_ms: float = 5.0,
    seed: int = 42,
    process: ArrivalProcess | None = None,
    spin_fraction: float = 0.25,
    telemetry: Telemetry | None = None,
    topology: Topology | None = None,
    fault_plan: "FaultPlan | None" = None,
    live: "LivePlane | None" = None,
) -> SimulationResult:
    """One experiment run: ``num_requests`` open-loop arrivals at
    ``rps`` against a ``cores``-core server under ``scheduler``.

    ``topology`` switches the server to heterogeneous core pools with
    energy accounting (``topology.total_cores`` must equal ``cores``).
    ``fault_plan`` injects canned faults (``repro.faults``), and
    ``live`` attaches a live observability plane
    (:class:`~repro.observe.live.LivePlane`) fed by every completion.
    """
    rng = np.random.default_rng(seed)
    arrivals = workload.arrivals(num_requests, process or PoissonProcess(rps), rng)
    return simulate(
        arrivals,
        scheduler,
        cores=cores,
        quantum_ms=quantum_ms,
        spin_fraction=spin_fraction,
        telemetry=telemetry,
        topology=topology,
        fault_plan=fault_plan,
        live=live,
    )


def stream_policy(
    scheduler: Scheduler,
    workload: Workload,
    rps: float,
    cores: int,
    num_requests: int,
    quantum_ms: float = 5.0,
    seed: int = 42,
    spin_fraction: float = 0.25,
):
    """:func:`run_policy` for million-request runs: Poisson arrivals are
    generated lazily and completions fold into a
    :class:`~repro.sim.stream.StreamSummary`, so memory stays
    O(running set) regardless of ``num_requests`` (DESIGN.md §14).

    Note the seeded universe differs from :func:`run_policy`'s —
    :meth:`~repro.workloads.workload.Workload.arrival_stream` splits
    the demand and time RNG streams (that split is what makes the
    trace chunk-size invariant), so the same seed denotes different
    traces in the two APIs.
    """
    from repro.sim.stream import simulate_stream

    arrivals = workload.arrival_stream(num_requests, PoissonProcess(rps), seed=seed)
    return simulate_stream(
        arrivals,
        scheduler,
        cores=cores,
        quantum_ms=quantum_ms,
        spin_fraction=spin_fraction,
    )


@dataclass
class PolicySeries:
    """One policy's measurements across the swept loads."""

    policy: str
    rps_values: list[float]
    tail_ms: list[float]
    mean_ms: list[float]
    results: list[list[SimulationResult]] = field(default_factory=list)
    #: Per-load-point completion-latency histograms, merged across
    #: repeats — the mergeable summary that lets a pooled sweep
    #: combine worker results without shipping full records.
    histograms: list[LogHistogram] = field(default_factory=list)

    def tail_points(self) -> list[tuple[float, float]]:
        """``(rps, 99th-percentile latency)`` pairs."""
        return list(zip(self.rps_values, self.tail_ms))

    def mean_points(self) -> list[tuple[float, float]]:
        """``(rps, mean latency)`` pairs."""
        return list(zip(self.rps_values, self.mean_ms))


@dataclass
class SweepResult:
    """All policies' series over one load sweep."""

    series: dict[str, PolicySeries]

    def __getitem__(self, policy: str) -> PolicySeries:
        return self.series[policy]

    def policies(self) -> list[str]:
        return list(self.series)

    def improvement(self, baseline: str, improved: str, rps: float) -> float:
        """Relative 99th-percentile reduction of ``improved`` over
        ``baseline`` at the given load: ``1 - improved/baseline``."""
        base = dict(self.series[baseline].tail_points())[rps]
        new = dict(self.series[improved].tail_points())[rps]
        return 1.0 - new / base


def _run_cell(
    cell: tuple[int, int, int],
    *,
    schedulers: list[Scheduler],
    workload: Workload,
    rps_values: list[float],
    cores: int,
    num_requests: int,
    quantum_ms: float,
    seed: int,
    phi: float,
    keep_results: bool,
    spin_fraction: float,
    topology: Topology | None,
) -> tuple[float, float, LogHistogram, SimulationResult | None]:
    """Run one ``(policy, rps, repeat)`` sweep cell and summarize it."""
    policy_index, rps_index, repeat = cell
    result = run_policy(
        schedulers[policy_index],
        workload,
        rps=rps_values[rps_index],
        cores=cores,
        num_requests=num_requests,
        quantum_ms=quantum_ms,
        seed=cell_seed(seed, rps_index, repeat),
        spin_fraction=spin_fraction,
        topology=topology,
    )
    return (
        result.tail_latency_ms(phi),
        result.mean_latency_ms(),
        latency_histogram(result),
        result if keep_results else None,
    )


def run_sweep(
    schedulers: Sequence[Scheduler] | dict[str, Scheduler],
    workload: Workload,
    rps_values: Sequence[float],
    cores: int,
    num_requests: int = 2000,
    quantum_ms: float = 5.0,
    seed: int = 42,
    repeats: int = 1,
    phi: float = 0.99,
    keep_results: bool = False,
    spin_fraction: float = 0.25,
    workers: int | None = None,
    topology: Topology | None = None,
) -> SweepResult:
    """Sweep load for every policy.

    Each (policy, rps, repeat) run draws its trace from a seed that
    depends only on ``(seed, rps, repeat)`` — all policies see
    *identical traces* at each point, the paired-comparison discipline
    that makes relative improvements meaningful at small run counts.

    ``workers`` fans the cells across a process pool
    (:func:`repro.parallel.map_cells`); ``None`` uses the ambient
    default installed by :func:`repro.parallel.default_workers` (1 —
    in-process — unless something like the CLI's ``--workers`` raised
    it), ``0`` all CPUs.  Results are identical for any worker count:
    the cells come back in grid order and reduce in that order.
    In-process cells record into the ambient telemetry pipeline; pool
    workers record nothing.
    """
    from repro.parallel import map_cells, resolve_workers

    named = _named_schedulers(schedulers)
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1: {repeats}")
    # An empty grid would otherwise surface as a bare ValueError from
    # multiprocessing (Pool(processes=0)) or an empty result — reject
    # it at every worker count with a message that names the axis.
    if not named:
        raise ConfigurationError("run_sweep needs at least one scheduler")
    if not rps_values:
        raise ConfigurationError("run_sweep needs at least one rps value")
    rps_values = [float(r) for r in rps_values]
    run = partial(
        _run_cell,
        schedulers=[scheduler for _, scheduler in named],
        workload=workload,
        rps_values=rps_values,
        cores=cores,
        num_requests=num_requests,
        quantum_ms=quantum_ms,
        seed=seed,
        phi=phi,
        keep_results=keep_results,
        spin_fraction=spin_fraction,
        topology=topology,
    )
    cells = [
        (policy_index, rps_index, repeat)
        for policy_index in range(len(named))
        for rps_index in range(len(rps_values))
        for repeat in range(repeats)
    ]
    summaries = iter(map_cells(run, cells, resolve_workers(workers)))
    series: dict[str, PolicySeries] = {}
    for name, _ in named:
        tails: list[float] = []
        means: list[float] = []
        kept: list[list[SimulationResult]] = []
        histograms: list[LogHistogram] = []
        for _ in rps_values:
            # One load point's repeats, in repeat order whatever order
            # the pool ran them in.
            run_tails, run_means, run_histograms, run_results = zip(
                *(next(summaries) for _ in range(repeats))
            )
            tails.append(float(np.mean(run_tails)))
            means.append(float(np.mean(run_means)))
            point_histogram = LogHistogram()
            for histogram in run_histograms:
                point_histogram.update(histogram)
            histograms.append(point_histogram)
            if keep_results:
                kept.append(list(run_results))
        series[name] = PolicySeries(
            policy=name,
            rps_values=list(rps_values),
            tail_ms=tails,
            mean_ms=means,
            results=kept,
            histograms=histograms,
        )
    return SweepResult(series=series)
