"""Adaptive replication controller benches -> ``BENCH_replication.json``.

Four sections, two purposes:

* ``observe_path`` times the controller's per-completion hot path
  (``observe`` + window rolls) on a synthetic heavy-tailed stream —
  the number that regresses if someone fattens the observation loop.
* ``controller_overhead`` compares a shared-replica cluster run driven
  by the controller against the same run under a static hedge: the
  adaptive machinery must stay a small multiple of the static path.
* ``phase_diagram`` re-runs the ``replication-phase`` sweep and records
  the adaptive-vs-best-static p99 ratio per load point.  Simulation is
  seeded, so these ratios are *hardware-independent* — the regression
  gate (``check_regression.py``) pins them ``<= 1.10``.
* ``flip`` replays the deterministic overload→underload scenario twice
  and attests that both runs produced bit-identical mode-transition
  signatures (and at least one brownout).

Usage::

    PYTHONPATH=src python benchmarks/bench_replication.py [--scale quick]
    PYTHONPATH=src python benchmarks/run_all.py --scale quick --only replication
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.cluster.adaptive import AdaptiveReplicationController, ControllerConfig
from repro.experiments.config import FULL, QUICK, TINY, Scale, default_scale
from repro.experiments.replication_phase import (
    RHO_SWEEP,
    SATURATION_RPS,
    STATIC_POLICIES,
    _controller,
    _phase_point,
    _stragglers,
)
from repro.faults.scenarios import overload_flip
from repro.workloads import bing as bing_mod

REPO_ROOT = Path(__file__).resolve().parent.parent
TIMING_REPEATS = 3
#: Synthetic completions pushed through ``observe`` per timing run.
OBSERVE_STREAM = 100_000


def best_of(fn, repeats: int = TIMING_REPEATS) -> float:
    """Best wall time over ``repeats`` calls (sheds scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_observe_path() -> dict:
    """Throughput of the per-shard observation hot path."""
    rng = np.random.default_rng(7)
    n = OBSERVE_STREAM
    latencies = rng.lognormal(mean=3.0, sigma=1.0, size=n)
    busy = latencies / 3.0
    times = np.cumsum(rng.exponential(scale=0.05, size=n))
    controller = AdaptiveReplicationController(
        ControllerConfig(window_ms=100.0, cores=bing_mod.CORES)
    )
    observe = controller.observe

    def run() -> None:
        controller.reset()
        for i in range(n):
            observe(
                latencies[i], at_ms=times[i], busy_ms=busy[i], queue_depth=4.0
            )
        controller.flush(float(times[-1]))

    wall_s = best_of(run)
    return {
        "observations": n,
        "wall_s": round(wall_s, 6),
        "observations_per_s": round(n / wall_s, 1),
        "windows_closed": controller.windows_observed,
        "transitions": len(controller.transitions),
    }


def bench_controller_overhead(scale: Scale) -> dict:
    """Adaptive-driven cluster run vs the same run under a static hedge."""
    rps = 0.5 * SATURATION_RPS
    _, static_hedge = STATIC_POLICIES[-1]

    def static_run() -> None:
        _phase_point(scale, rps, hedge=static_hedge, fault_plan_factory=_stragglers())

    def adaptive_run() -> None:
        _phase_point(
            scale, rps, controller=_controller(), fault_plan_factory=_stragglers()
        )

    static_s = best_of(static_run)
    adaptive_s = best_of(adaptive_run)
    return {
        "rho": 0.5,
        "static_wall_s": round(static_s, 6),
        "adaptive_wall_s": round(adaptive_s, 6),
        "overhead_pct": round(100.0 * (adaptive_s / static_s - 1.0), 2),
    }


def bench_phase_diagram(scale: Scale) -> dict:
    """Seeded sweep: adaptive p99 over the best static per load point."""
    points = []
    for rho in RHO_SWEEP:
        rps = rho * SATURATION_RPS
        baseline = _phase_point(scale, rps, fault_plan_factory=_stragglers())
        static_p99 = []
        for _, hedge in STATIC_POLICIES:
            run = _phase_point(scale, rps, hedge=hedge, fault_plan_factory=_stragglers())
            static_p99.append(run.cluster_tail_ms(0.99))
        controller = _controller()
        adaptive = _phase_point(
            scale, rps, controller=controller, fault_plan_factory=_stragglers()
        )
        adaptive_p99 = adaptive.cluster_tail_ms(0.99)
        best_static = min(static_p99)
        points.append(
            {
                "rho": rho,
                "baseline_p99_ms": round(baseline.cluster_tail_ms(0.99), 2),
                "best_static_p99_ms": round(best_static, 2),
                "adaptive_p99_ms": round(adaptive_p99, 2),
                "adaptive_vs_best_static": round(adaptive_p99 / best_static, 4),
                "transitions": len(controller.transitions),
            }
        )
    return {
        "num_servers": 3,
        "points": points,
        "worst_ratio": max(p["adaptive_vs_best_static"] for p in points),
    }


def bench_flip(scale: Scale) -> dict:
    """Replay the overload flip twice; attest bit-identical transitions."""
    rho = 0.40
    rps = rho * SATURATION_RPS
    num_queries = scale.num_requests * 2
    horizon_ms = num_queries / rps * 1000.0
    signatures = []
    brownouts = 0
    for _ in range(2):
        scenario = overload_flip(
            seed=131,
            horizon_ms=horizon_ms,
            cores_lost=bing_mod.CORES - 2,
            stall_ms=2 * bing_mod.QUANTUM_MS,
        )
        controller = _controller()
        _phase_point(scale, rps, controller=controller, fault_plan_factory=scenario)
        signatures.append(controller.transition_signature())
        brownouts = controller.brownout_entries
    return {
        "rho": rho,
        "cores_lost": bing_mod.CORES - 2,
        "transitions": len(signatures[0]),
        "brownouts": brownouts,
        "deterministic_replay": signatures[0] == signatures[1],
    }


def build_report(scale: Scale) -> dict:
    return {
        "benchmark": "replication",
        "scale": scale.name,
        "python": platform.python_version(),
        "timing_repeats": TIMING_REPEATS,
        "observe_path": bench_observe_path(),
        "controller_overhead": bench_controller_overhead(scale),
        "phase_diagram": bench_phase_diagram(scale),
        "flip": bench_flip(scale),
        "notes": (
            "observe_path streams synthetic lognormal completions through "
            "AdaptiveReplicationController.observe. phase_diagram and flip "
            "are fully seeded simulations: their ratios and attestations "
            "are hardware-independent and gated by "
            "check_regression.py (adaptive p99 must stay "
            "within 10% of the best static policy at every load point, "
            "and the flip replay must be bit-identical with >= 1 "
            "brownout). controller_overhead and observations_per_s vary "
            "with hardware; the gate gives them a wide band."
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=["tiny", "quick", "full"], default=None,
        help="fidelity preset (default: $REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_replication.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.scale:
        scale = {"tiny": TINY, "quick": QUICK, "full": FULL}[args.scale]
    else:
        scale = default_scale()

    print(f"running replication benches at scale={scale.name} ...")
    report = build_report(scale)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
