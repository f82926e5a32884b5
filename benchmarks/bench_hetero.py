"""Heterogeneous-engine benches -> ``BENCH_hetero.json``.

Four sections, two purposes:

* ``bit_identity`` attests the acceptance gate of the hetero subsystem:
  a single-pool speed-1.0 topology must reproduce the frozen
  ``repro.sim._baseline`` reference bit for bit — energy accounting is
  an observer, never a perturbation.
* ``frontier`` re-runs the ``hetero-energy`` big/little sweep and
  records, per load point, whether EA-FM strictly dominates FIX-3
  (lower p99 AND fewer joules/query).  Seeded, so the dominated-point
  count is *hardware-independent*; the regression gate
  (``check_regression.py``) pins it ``>= 1``.
* ``determinism`` runs the same sweep serially and across 2 worker
  processes and attests identical tails and energy bills.
* ``engine_throughput`` times a saturated big/little run (events/sec,
  hardware-dependent, wide regression band) and the hetero bookkeeping
  overhead vs the same trace on the legacy homogeneous path.

Usage::

    PYTHONPATH=src python benchmarks/bench_hetero.py [--scale quick]
    PYTHONPATH=src python benchmarks/run_all.py --scale quick --only hetero
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.experiments.config import FULL, QUICK, TINY, Scale, default_scale
from repro.experiments.hetero_energy import (
    RPS_SWEEP,
    big_little_topology,
    hetero_policies,
    run_hetero_sweep,
)
from repro.experiments.tables import bing_table
from repro.hetero import Topology
from repro.parallel import default_workers
from repro.schedulers import FMScheduler
from repro.sim._baseline import simulate_baseline
from repro.sim.engine import Engine, simulate
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess

REPO_ROOT = Path(__file__).resolve().parent.parent
TIMING_REPEATS = 3


def best_of(fn, repeats: int = TIMING_REPEATS) -> float:
    """Best wall time over ``repeats`` calls (sheds scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _arrivals(scale: Scale, rps: float, seed: int):
    workload = bing_mod.bing_workload(profile_size=scale.profile_size)
    return workload.arrivals(
        scale.num_requests * 2, PoissonProcess(rps), np.random.default_rng(seed)
    )


def bench_bit_identity(scale: Scale) -> dict:
    """Single-pool hetero run vs the frozen baseline: bit for bit."""
    table = bing_table(scale)
    arrivals = _arrivals(scale, 180.0, seed=42)
    kwargs = dict(
        cores=bing_mod.CORES,
        quantum_ms=bing_mod.QUANTUM_MS,
        spin_fraction=bing_mod.SPIN_FRACTION,
    )
    hetero = simulate(
        arrivals, FMScheduler(table),
        topology=Topology.homogeneous(bing_mod.CORES), **kwargs,
    )
    reference = simulate_baseline(arrivals, FMScheduler(table), **kwargs)
    identical = len(hetero.records) == len(reference.records) and all(
        a.finish_ms == b.finish_ms
        and a.core_time_ms == b.core_time_ms
        and a.final_degree == b.final_degree
        for a, b in zip(hetero.records, reference.records)
    )
    if not identical:
        raise AssertionError(
            "hetero engine diverged from repro.sim._baseline on the "
            "degenerate single-pool topology — the energy/pool machinery "
            "is perturbing the homogeneous hot path"
        )
    return {
        "num_requests": len(arrivals),
        "bit_identical_to_baseline": identical,
        "energy_accounted": hetero.energy is not None,
    }


def bench_frontier(scale: Scale) -> dict:
    """EA-FM vs FIX-3 on the big/little latency-energy frontier."""
    sweep = run_hetero_sweep(scale, big_little_topology())
    fix, ea = sweep["FIX-3"], sweep["EA-FM"]

    def jpq(series, i: int) -> float:
        values = [r.joules_per_query() for r in series.results[i]]
        return float(sum(values) / len(values))

    points = []
    for i, rps in enumerate(RPS_SWEEP):
        fix_jpq, ea_jpq = jpq(fix, i), jpq(ea, i)
        points.append(
            {
                "rps": rps,
                "fix3_p99_ms": round(fix.tail_ms[i], 2),
                "eafm_p99_ms": round(ea.tail_ms[i], 2),
                "fix3_j_per_query": round(fix_jpq, 5),
                "eafm_j_per_query": round(ea_jpq, 5),
                "dominates": bool(
                    ea.tail_ms[i] <= fix.tail_ms[i] and ea_jpq <= fix_jpq
                ),
            }
        )
    return {
        "topology": "4 big (2x) + 12 little",
        "points": points,
        "dominated_points": sum(1 for p in points if p["dominates"]),
    }


def bench_determinism(scale: Scale) -> dict:
    """The big/little sweep must not depend on the worker count."""
    topology = big_little_topology()
    with default_workers(1):
        serial = run_hetero_sweep(scale, topology)
    with default_workers(2):
        parallel = run_hetero_sweep(scale, topology)
    identical = all(
        serial[name].tail_ms == parallel[name].tail_ms
        and [
            r.energy.total_j for kept in serial[name].results for r in kept
        ]
        == [r.energy.total_j for kept in parallel[name].results for r in kept]
        for name in serial.policies()
    )
    if not identical:
        raise AssertionError("hetero sweep diverged across worker counts")
    return {
        "policies": sorted(serial.policies()),
        "load_points": len(RPS_SWEEP),
        "workers_compared": [1, 2],
        "results_identical": identical,
    }


def bench_engine_throughput(scale: Scale) -> dict:
    """Saturated big/little EA-FM run: events/sec and hetero overhead."""
    topology = big_little_topology()
    table = bing_table(scale)
    arrivals = _arrivals(scale, 600.0, seed=7)
    policies = hetero_policies(scale, topology)
    kwargs = dict(
        quantum_ms=bing_mod.QUANTUM_MS,
        spin_fraction=bing_mod.SPIN_FRACTION,
    )

    state: dict = {}

    def hetero_run():
        engine = Engine(
            cores=topology.total_cores,
            scheduler=hetero_policies(scale, topology)["EA-FM"],
            topology=topology,
            **kwargs,
        )
        engine.run(arrivals)
        state["events"] = engine.events_processed

    def legacy_run():
        simulate(
            arrivals, FMScheduler(table), cores=bing_mod.CORES, **kwargs
        )

    hetero_s = best_of(hetero_run)
    legacy_s = best_of(legacy_run)
    return {
        "num_requests": len(arrivals),
        "rps": 600.0,
        "policy": policies["EA-FM"].name,
        "events_processed": state["events"],
        "wall_s": round(hetero_s, 6),
        "events_per_s": round(state["events"] / hetero_s, 1),
        "requests_per_s": round(len(arrivals) / hetero_s, 1),
        "legacy_wall_s": round(legacy_s, 6),
        "hetero_overhead_pct": round(100.0 * (hetero_s / legacy_s - 1.0), 2),
    }


def build_report(scale: Scale) -> dict:
    return {
        "benchmark": "hetero",
        "scale": scale.name,
        "python": platform.python_version(),
        "timing_repeats": TIMING_REPEATS,
        "bit_identity": bench_bit_identity(scale),
        "frontier": bench_frontier(scale),
        "determinism": bench_determinism(scale),
        "engine_throughput": bench_engine_throughput(scale),
        "notes": (
            "bit_identity, frontier, and determinism are fully seeded "
            "simulations: their attestations and the dominated-point "
            "count are hardware-independent and gated by "
            "check_regression.py (single-pool runs must stay "
            "bit-identical to repro.sim._baseline; EA-FM must dominate "
            "FIX-3 at >= 1 big/little load point; worker counts must "
            "not change results). engine_throughput varies with "
            "hardware; the gate gives it a wide band. The legacy "
            "comparison runs 16 homogeneous cores vs the 16-core "
            "big/little box on the same trace, so hetero_overhead_pct "
            "includes both the pool bookkeeping and the different "
            "schedule it produces."
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=["tiny", "quick", "full"], default=None,
        help="fidelity preset (default: $REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_hetero.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.scale:
        scale = {"tiny": TINY, "quick": QUICK, "full": FULL}[args.scale]
    else:
        scale = default_scale()

    print(f"running hetero benches at scale={scale.name} ...")
    report = build_report(scale)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
