"""The repository benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig8-sweep --seed 42 --seconds 35 --trace 0

``--trace 0`` repeats the workload's timed body for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` runs one untraced pass,
one pass with the benchmark's own spans around every layer boundary and
one cProfile pass, and prints the per-layer metrics with the
layer-share table.  Every run checks the program's outputs.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Workload name -> module in this directory.
WORKLOADS = {
    "fig8-sweep": "fig8_sweep",
    "mega-overload": "mega_overload",
    "traced-session": "traced_session",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input size; tiny is for the benchmark's own smoke tests",
    )
    parser.add_argument(
        "--write-pins",
        action="store_true",
        help="store this run's default-seed digests and p99s in pinned.json",
    )
    return parser


def _json_metrics(metrics: dict) -> dict:
    out = {}
    for name, (value, unit) in metrics.items():
        if value is None:
            out[name] = {"value": None, "unit": unit, "note": "not measurable here"}
        else:
            out[name] = {"value": float(value), "unit": unit}
    return out


def _print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        shown = "not measurable" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown} {unit}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: program sources not found at {SRC_DIR}", file=sys.stderr)
        return 2
    for path in (str(SRC_DIR), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import checks
    import harness
    from layers import per_layer, render_table
    from probes import SpanLog

    module_name = WORKLOADS[args.workload]
    workload = importlib.import_module(module_name)
    ops = harness.Ops()
    repeats = harness.SETUP_REPEATS if args.size == "full" else 1
    state, setup_s, setup_parts = harness.timed_setup(
        module_name, lambda: workload.build(args.seed, args.size), repeats
    )
    if args.write_pins:
        state.pins = None
    print(f"# {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("# hardware " + json.dumps(harness.hardware(workload.workers()), sort_keys=True))

    if args.trace:
        log = SpanLog()
        outcome = workload.trace(state, ops, log)
        metrics, bases = per_layer(log, outcome, setup_parts)
        print(render_table(args.workload, log, outcome, metrics, bases))
        log.dump(harness.WORK_DIR / f"{args.workload}-spans.npz")
        passes = [outcome.untraced]
    else:
        passes = workload.measure(state, ops, args.seconds)
        metrics = harness.end_to_end(passes, setup_s)
        print(f"# {len(passes)} passes in the timed loop; unscaled wall_s per pass: "
              + " ".join(f"{p.wall_s:.4f}" for p in passes))
        print(f"# reference kernel per pass (ms): "
              + " ".join(f"{1000 * p.reference_s:.2f}" for p in passes)
              + f"; timings scaled by {harness.host_scale(passes):.4f} to the nominal"
              f" {1000 * harness.NOMINAL_REFERENCE_S:g} ms")

    for line in passes[-1].extras.get("claims", []):
        print(f"# {line}")
    if args.write_pins:
        checks.write_pins(workload.NAME, passes[-1].digests)
        print(f"# pinned {len(passes[-1].digests)} cells to {checks.PINNED_PATH.name}")
    print(f"# ops: {ops.attempted} attempted, {ops.failed} failed "
          f"(error_rate {ops.failed / max(ops.attempted, 1):.4g})")
    _print_metrics(metrics)
    print(
        json.dumps(
            {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": _json_metrics(metrics),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
