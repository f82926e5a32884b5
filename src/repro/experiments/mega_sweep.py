"""Mega-sweep: million-request load points via sharded streaming.

The paper's evaluation plots each load point from 2K-request runs; at
that size the 99.9th percentile rests on two requests and run-to-run
repeat variance swamps policy differences deep in the tail.  This
experiment scales one Lucene FM-vs-FIX comparison to mega-cells —
``num_requests`` per load point growing with scale up to 10^6 at
``full`` — using the DESIGN.md §14 machinery end to end: lazily
generated arrival streams (O(running set) memory),
:class:`~repro.sim.stream.StreamSummary` histograms instead of
per-request records, and :func:`~repro.parallel.shards.run_sharded_sweep`
splitting each cell into arrival shards across the ambient worker pool
(``repro-fm mega-sweep --shards 0 --workers 0`` saturates the machine).

The shard/worker split is attested in ``tests/experiments/test_shards.py``:
this experiment's merged histograms are bit-identical for any
``--workers``, and ``--shards 1`` equals a plain streamed run of the
whole cell.
"""

from __future__ import annotations

from repro.experiments.config import Scale, default_scale
from repro.experiments.report import FigureResult
from repro.experiments.tables import lucene_table
from repro.parallel import get_default_shards, get_default_workers, run_sharded_sweep
from repro.parallel.shards import ShardedSweepResult
from repro.schedulers import FixedScheduler, FMScheduler
from repro.workloads import lucene as lucene_mod

__all__ = ["experiment_mega_sweep", "run_mega_sweep", "MEGA_SWEEP"]

SEED = 4242
#: Lucene loads spanning moderate to near-saturation (paper Figure 8
#: plots 30-48 RPS; the tail gap is widest at the top of that band).
RPS_VALUES = [36.0, 42.0, 46.0]
#: Requests per load point = scale.num_requests x this (150 -> 75K at
#: tiny, 2000 -> 10^6 at full) — big enough that p99.9 rests on
#: hundreds of samples even at tiny.
REQUESTS_PER_SCALE_UNIT = 500


def run_mega_sweep(
    scale: Scale | None = None,
    shards: int | None = None,
    workers: int | None = None,
) -> ShardedSweepResult:
    """The sharded sweep itself (also the worker-identity test's entry point)."""
    scale = scale or default_scale()
    table = lucene_table(scale)
    workload = lucene_mod.lucene_workload(profile_size=scale.profile_size)
    return run_sharded_sweep(
        {"FM": FMScheduler(table), "FIX-4": FixedScheduler(4)},
        workload,
        RPS_VALUES,
        cores=lucene_mod.CORES,
        num_requests=scale.num_requests * REQUESTS_PER_SCALE_UNIT,
        shards=shards,
        workers=workers,
        quantum_ms=lucene_mod.QUANTUM_MS,
        seed=SEED,
        spin_fraction=lucene_mod.SPIN_FRACTION,
    )


def experiment_mega_sweep(scale: Scale | None = None) -> FigureResult:
    """FM vs FIX-4 at mega-cell resolution: deep-tail percentiles that
    2K-request runs cannot estimate."""
    scale = scale or default_scale()
    sweep = run_mega_sweep(scale)

    result = FigureResult(
        "mega-sweep",
        "Million-request load points: sharded streamed sweep "
        "(FM vs FIX-4, Lucene)",
    )
    rows = []
    for policy in sweep.policies():
        for rps, summary in zip(sweep.rps_values, sweep.series[policy]):
            rows.append(
                [
                    policy,
                    f"{rps:g}",
                    summary.count,
                    f"{summary.mean_latency_ms():.1f}",
                    f"{summary.tail_latency_ms(0.99):.1f}",
                    f"{summary.tail_latency_ms(0.999):.1f}",
                    f"{100 * summary.cpu_utilization():.1f}%",
                ]
            )
    result.add_table(
        "Per-load-point merged shard summaries",
        ["policy", "rps", "completed", "mean ms", "p99 ms", "p99.9 ms", "cpu"],
        rows,
    )
    result.add_note(
        f"{sweep.num_requests} requests per (policy, rps) cell in "
        f"{sweep.shards} shard(s); ambient shards="
        f"{get_default_shards()}, workers={get_default_workers()} "
        "(raise with --shards/--workers; results depend on shards, "
        "never on workers)"
    )
    result.add_note(
        "percentiles read from merged LogHistograms (1% relative "
        "error); memory stays O(running set) per shard at any "
        "request count"
    )
    return result


MEGA_SWEEP = {"mega-sweep": experiment_mega_sweep}
