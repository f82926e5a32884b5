"""Sharded sweep orchestration for million-request cells (DESIGN.md §14).

:mod:`repro.parallel` parallelizes across sweep *cells* — fine when the
grid is large and each cell is small.  A mega-sweep inverts that: a few
``(policy, rps)`` cells of 10^6–10^7 requests each.  This module splits
every cell into arrival *shards* — independent streamed simulations of
``num_requests / shards`` requests each — fans the ``(policy, rps,
shard)`` grid across a process pool, and reduces each cell's shards
into one mergeable :class:`~repro.sim.stream.StreamSummary`.

Determinism contract:

* Shard ``k`` of load point ``rps_index`` draws its trace from
  ``cell_seed(seed, rps_index, k)`` — policy-independent, so every
  policy sees identical shard traces (the paired-comparison discipline),
  and reusing :func:`~repro.experiments.runner.cell_seed` means a
  shard's trace is exactly the trace a ``repeats=shards`` sweep's
  repeat ``k`` would replay.
* Shards merge in shard-index order, whatever order the pool finishes
  them in — so the merged histogram (and every scalar on the summary)
  is bit-identical for any ``--workers`` count, including the serial
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

import contextlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.experiments.runner import _named_schedulers, cell_seed
from repro.faults.plan import FaultPlan
from repro.parallel import _pool_context, resolve_workers
from repro.sim.api import Scheduler
from repro.sim.stream import StreamSummary, simulate_stream
from repro.telemetry import install
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.workload import Workload

__all__ = [
    "run_sharded_sweep",
    "shard_sizes",
    "ShardedSweepResult",
    "default_shards",
    "get_default_shards",
    "set_default_shards",
    "resolve_shards",
]

_DEFAULT_SHARDS = 1


def get_default_shards() -> int:
    """The ambient shard count (default 1 — unsharded).  Raw, like
    :func:`repro.parallel.get_default_workers`: ``0`` ("one shard per
    worker") resolves at use time in :func:`resolve_shards`."""
    return _DEFAULT_SHARDS


def set_default_shards(shards: int) -> None:
    """Set the ambient shard count for subsequent sharded sweeps.
    ``0`` means "match the resolved worker count" and is stored raw."""
    global _DEFAULT_SHARDS
    if shards < 0:
        raise ConfigurationError(f"shards must be >= 0: {shards}")
    _DEFAULT_SHARDS = shards


@contextlib.contextmanager
def default_shards(shards: int) -> Iterator[int]:
    """Scoped :func:`set_default_shards` (restores the raw value)."""
    previous = _DEFAULT_SHARDS
    set_default_shards(shards)
    try:
        yield _DEFAULT_SHARDS
    finally:
        set_default_shards(previous)


def resolve_shards(shards: int | None, workers: int) -> int:
    """Normalize a shard count: ``None`` -> ambient default, ``0`` ->
    one shard per (resolved) worker, otherwise the count itself."""
    if shards is None:
        shards = _DEFAULT_SHARDS
    if shards == 0:
        return max(1, workers)
    if shards < 0:
        raise ConfigurationError(f"shards must be >= 0: {shards}")
    return shards


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


@dataclass
class _ShardSpec:
    """Everything a shard worker needs, shipped once per pool."""

    named: list[tuple[str, Scheduler]]
    workload: Workload
    rps_values: list[float]
    sizes: list[int]
    cores: int
    quantum_ms: float
    seed: int
    spin_fraction: float
    vectorized: bool
    chunk_size: int
    fault_plan: FaultPlan | None = None


_SPEC: _ShardSpec | None = None


def _init_worker(spec: _ShardSpec) -> None:
    global _SPEC
    _SPEC = spec


def _run_shard_pooled(cell: tuple[int, int, int]) -> StreamSummary:
    spec = _SPEC
    assert spec is not None, "worker used before initialization"
    return _run_shard(cell, spec)


def _run_shard(cell: tuple[int, int, int], spec: _ShardSpec) -> StreamSummary:
    """Simulate one ``(policy, rps, shard)`` slice as a streamed run."""
    policy_index, rps_index, shard_index = cell
    _, scheduler = spec.named[policy_index]
    arrivals = spec.workload.arrival_stream(
        spec.sizes[shard_index],
        PoissonProcess(spec.rps_values[rps_index]),
        seed=cell_seed(spec.seed, rps_index, shard_index),
        chunk_size=spec.chunk_size,
    )
    # Same telemetry discipline as repro.parallel._run_cell: spans
    # recorded in a worker could never reach the parent's exporter.
    with install(None):
        return simulate_stream(
            arrivals,
            scheduler,
            cores=spec.cores,
            quantum_ms=spec.quantum_ms,
            spin_fraction=spec.spin_fraction,
            fault_plan=spec.fault_plan,
            vectorized=spec.vectorized,
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
    chunk_size: int = 8192,
    fault_plan: FaultPlan | None = None,
) -> ShardedSweepResult:
    """Sweep load with each ``(policy, rps)`` cell split into streamed
    arrival shards across a process pool.

    ``num_requests`` is the *total* per cell; ``shards`` (``None`` ->
    ambient default via :func:`default_shards`, ``0`` -> one per
    worker) controls the split and — unlike ``workers`` — is a results
    knob: different shard counts simulate different trace
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
    sizes = shard_sizes(num_requests, shards)

    cells = [
        (policy_index, rps_index, shard_index)
        for policy_index in range(len(named))
        for rps_index in range(len(rps_values))
        for shard_index in range(shards)
    ]
    spec = _ShardSpec(
        named=named,
        workload=workload,
        rps_values=[float(r) for r in rps_values],
        sizes=sizes,
        cores=cores,
        quantum_ms=quantum_ms,
        seed=seed,
        spin_fraction=spin_fraction,
        vectorized=vectorized,
        chunk_size=chunk_size,
        fault_plan=fault_plan,
    )
    if workers <= 1 or len(cells) == 1:
        # In-process through the same shard path, spec threaded
        # explicitly (safe under nesting, like repro.parallel).
        summaries = [_run_shard(cell, spec) for cell in cells]
    else:
        context = _pool_context()
        with context.Pool(
            processes=min(workers, len(cells)),
            initializer=_init_worker,
            initargs=(spec,),
        ) as pool:
            summaries = pool.map(_run_shard_pooled, cells, chunksize=1)

    by_cell = dict(zip(cells, summaries))
    series: dict[str, list[StreamSummary]] = {}
    for policy_index, (name, _) in enumerate(named):
        points: list[StreamSummary] = []
        for rps_index in range(len(rps_values)):
            merged = by_cell[(policy_index, rps_index, 0)]
            # Merge in shard-index order — pool completion order must
            # not leak into the result (histogram merge is exact, but
            # the float integrals sum sequentially).
            for shard_index in range(1, shards):
                merged.update(by_cell[(policy_index, rps_index, shard_index)])
            points.append(merged)
        series[name] = points
    return ShardedSweepResult(
        series=series,
        rps_values=list(spec.rps_values),
        shards=shards,
        num_requests=num_requests,
    )
