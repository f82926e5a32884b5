"""Sharded sweep orchestration for million-request cells (DESIGN.md §14).

A plain load sweep parallelizes across its ``(policy, rps, repeat)``
cells — fine when the grid is large and each cell is small.  A
mega-sweep inverts that: a few ``(policy, rps)`` cells of 10^6–10^7
requests each.  This module splits every cell into arrival *shards* —
independent streamed simulations of ``num_requests / shards`` requests
each — maps the ``(policy, rps, shard)`` grid through
:func:`repro.parallel.map_cells` (the same in-process/pool path
:func:`~repro.experiments.runner.run_sweep` uses), and reduces each
cell's shards into one mergeable :class:`~repro.sim.stream.StreamSummary`.
Shards run with no telemetry installed, in-process too: a streamed
cell must not hold a span per request.

Determinism contract:

* Shard ``k`` of load point ``rps_index`` draws its trace from
  ``cell_seed(seed, rps_index, k)`` — policy-independent, so every
  policy sees identical shard traces (the paired-comparison discipline),
  and reusing :func:`~repro.experiments.runner.cell_seed` means a
  shard's trace is exactly the trace a ``repeats=shards`` sweep's
  repeat ``k`` would replay.
* Shards merge in shard-index order, whatever order the pool finishes
  them in — so the merged histogram (and every scalar on the summary)
  is bit-identical for any ``--workers`` count, including the
  in-process path.
* One shard (``shards=1``) is definitionally a plain
  :func:`~repro.sim.stream.simulate_stream` run of the whole cell.

A shard boundary is a *statistical* cut, not a temporal one: each shard
replays its own open-loop trace from an empty server, so a sharded cell
is ``shards`` independent samples of the same arrival law rather than
one long sample (the same trade :mod:`repro.experiments.runner` makes
with ``repeats``).  Queue carry-over across boundaries is lost; for
tail estimation at the paper's loads the error is the repeat-sampling
error, and halving ``shards`` at fixed ``num_requests`` quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.runner import _named_schedulers, cell_seed
from repro.parallel import map_cells, resolve_shards, resolve_workers
from repro.sim.api import Scheduler
from repro.sim.stream import StreamSummary, simulate_stream
from repro.telemetry import install
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.workload import Workload

__all__ = ["run_sharded_sweep", "shard_sizes", "ShardedSweepResult"]


def shard_sizes(total: int, shards: int) -> list[int]:
    """Split ``total`` requests into ``shards`` near-equal positive
    sizes, deterministically (the first ``total % shards`` shards take
    the extra request)."""
    if total < 1:
        raise ConfigurationError(f"total must be >= 1: {total}")
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1: {shards}")
    if shards > total:
        raise ConfigurationError(
            f"cannot split {total} requests into {shards} non-empty shards"
        )
    base, extra = divmod(total, shards)
    return [base + (1 if k < extra else 0) for k in range(shards)]


def _run_shard(
    cell: tuple[int, int, int],
    *,
    schedulers: list[Scheduler],
    workload: Workload,
    rps_values: list[float],
    sizes: list[int],
    cores: int,
    quantum_ms: float,
    seed: int,
    spin_fraction: float,
    vectorized: bool,
) -> StreamSummary:
    """Simulate one ``(policy, rps, shard)`` slice as a streamed run."""
    policy_index, rps_index, shard_index = cell
    arrivals = workload.arrival_stream(
        sizes[shard_index],
        PoissonProcess(rps_values[rps_index]),
        seed=cell_seed(seed, rps_index, shard_index),
    )
    # No telemetry, in-process too: a streamed cell holds O(running
    # set) memory, which one span per request would break.
    with install(None):
        return simulate_stream(
            arrivals,
            schedulers[policy_index],
            cores=cores,
            quantum_ms=quantum_ms,
            spin_fraction=spin_fraction,
            vectorized=vectorized,
        )


@dataclass
class ShardedSweepResult:
    """Per-policy, per-load-point merged shard summaries."""

    series: dict[str, list[StreamSummary]]
    rps_values: list[float]
    shards: int
    num_requests: int

    def __getitem__(self, policy: str) -> list[StreamSummary]:
        return self.series[policy]

    def policies(self) -> list[str]:
        return list(self.series)

    def tail_points(self, policy: str, phi: float = 0.99) -> list[tuple[float, float]]:
        """``(rps, φ-percentile latency)`` pairs for one policy."""
        return [
            (rps, summary.tail_latency_ms(phi))
            for rps, summary in zip(self.rps_values, self.series[policy])
        ]

    def mean_points(self, policy: str) -> list[tuple[float, float]]:
        return [
            (rps, summary.mean_latency_ms())
            for rps, summary in zip(self.rps_values, self.series[policy])
        ]


def run_sharded_sweep(
    schedulers: Sequence[Scheduler] | dict[str, Scheduler],
    workload: Workload,
    rps_values: Sequence[float],
    cores: int,
    num_requests: int,
    shards: int | None = None,
    workers: int | None = None,
    quantum_ms: float = 5.0,
    seed: int = 42,
    spin_fraction: float = 0.25,
    vectorized: bool = False,
) -> ShardedSweepResult:
    """Sweep load with each ``(policy, rps)`` cell split into streamed
    arrival shards across a process pool.

    ``num_requests`` is the *total* per cell; ``shards`` (``None`` ->
    ambient default via :func:`~repro.parallel.default_shards`, ``0`` ->
    one per worker) controls the split and — unlike ``workers`` — is a
    results knob: different shard counts simulate different trace
    decompositions.  ``workers`` remains purely a wall-clock knob: the
    merged summaries are bit-identical for any worker count.
    ``vectorized=True`` runs every shard on
    :class:`repro.sim.vector.VectorEngine` (batch kernels from the first
    request) for attestation; the default engine already batches large
    running sets.
    """
    named = _named_schedulers(schedulers)
    if not named:
        raise ConfigurationError("run_sharded_sweep needs at least one scheduler")
    if not rps_values:
        raise ConfigurationError("run_sharded_sweep needs at least one rps value")
    workers = resolve_workers(workers)
    shards = resolve_shards(shards, workers)
    rps_values = [float(r) for r in rps_values]
    run = partial(
        _run_shard,
        schedulers=[scheduler for _, scheduler in named],
        workload=workload,
        rps_values=rps_values,
        sizes=shard_sizes(num_requests, shards),
        cores=cores,
        quantum_ms=quantum_ms,
        seed=seed,
        spin_fraction=spin_fraction,
        vectorized=vectorized,
    )
    cells = [
        (policy_index, rps_index, shard_index)
        for policy_index in range(len(named))
        for rps_index in range(len(rps_values))
        for shard_index in range(shards)
    ]
    summaries = iter(map_cells(run, cells, workers))
    series: dict[str, list[StreamSummary]] = {}
    for name, _ in named:
        points: list[StreamSummary] = []
        for _ in rps_values:
            # Merge in shard-index order — pool completion order must
            # not leak into the result (histogram merge is exact, but
            # the float integrals sum sequentially).
            merged = next(summaries)
            for _ in range(1, shards):
                merged.update(next(summaries))
            points.append(merged)
        series[name] = points
    return ShardedSweepResult(
        series=series,
        rps_values=rps_values,
        shards=shards,
        num_requests=num_requests,
    )
