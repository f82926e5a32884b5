"""Regression gate: check a fresh ``run_all.py`` section report.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --scale quick --only engine --output-dir fresh
    python benchmarks/check_regression.py fresh/BENCH_engine.json

The report's ``benchmark`` key names its section, and the section's
rows in ``CHECKS`` are its checks.  A row is ``(dotted path, op,
bound)``; ``*`` in a path stands for every item of a list.  The ops:

- ``true`` / ``false``: the value is truthy / falsy;
- ``==``: the value equals the bound;
- ``>=`` / ``<=``: the value is at least / at most the bound, the bound
  itself passing;
- ``floor``: the cross-run hardware band, fresh >= committed x (1 -
  bound), committed being the same path in the baseline (by default the
  repo-root ``BENCH_<section>.json``).

Every other row is seeded or same-machine, so it needs no baseline.
The largest metric deltas between the two reports' embedded ledger
entries (DESIGN.md §15) are printed for the record and gate nothing.

Exit code 0 = pass, 1 = a check failed, 2 = bad input (unreadable
report, a section without checks, a missing path).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CHECKS = {
    "engine": (
        ("single_process.events_per_s", "floor", 0.25),
        # Same machine, same run: the hot path against the frozen
        # repro.sim._baseline, which it must match bit for bit.
        ("single_process.speedup_vs_reference", ">=", 1.5),
        ("single_process.bit_identical_to_reference", "true", None),
        # DESIGN.md §14: batch kernels >= 3x the loops on the overloaded
        # FIX-4 cell with no drift, O(running set) streamed memory, and
        # sharded sweeps identical for any worker count.
        ("mega.cell.vector_speedup", ">=", 3.0),
        ("mega.cell.max_abs_latency_diff_ms", "<=", 1e-9),
        ("mega.cell.default_speedup", ">=", 3.0),
        ("mega.cell.default_max_abs_latency_diff_ms", "<=", 1e-9),
        ("mega.stream.peak_traced_mb", "<=", 64.0),
        ("mega.sharded.workers_identical", "true", None),
    ),
    "replication": (
        # Adaptive p99 within 1.10x of the best static policy at every load.
        ("phase_diagram.points.*.adaptive_vs_best_static", "<=", 1.10),
        ("flip.deterministic_replay", "true", None),
        # A flip that never browns out means burn-rate escalation is dead.
        ("flip.brownouts", ">=", 1),
        ("observe_path.observations_per_s", "floor", 0.30),
    ),
    "hetero": (
        ("bit_identity.bit_identical_to_baseline", "true", None),
        ("bit_identity.energy_accounted", "true", None),
        # EA-FM beats FIX-3 on p99 and joules/query at >= 1 load point.
        ("frontier.dominated_points", ">=", 1),
        ("determinism.results_identical", "true", None),
        ("engine_throughput.events_per_s", "floor", 0.30),
    ),
    "observe": (
        ("live_tail.flag_leads_breach", "true", None),
        ("live_tail.replay_matches_analyze", "true", None),
        # The armed plane's honest cost is 25-35%; this catches an O(n) scan.
        ("live_plane.overhead_enabled_pct", "<=", 40.0),
        ("analyzer.spans_per_s", "floor", 0.30),
        ("live_plane.off_events_per_s", "floor", 0.30),
    ),
    "diff": (
        ("null_test.self_identical", "true", None),
        ("null_test.self_null", "true", None),
        ("null_test.cross_identical", "false", None),
        ("versus.p99_significant", "true", None),
        ("versus.top_phase", "==", "contention_ms"),
        ("determinism.repeat_identical", "true", None),
        ("determinism.workers_identical", "true", None),
        ("determinism.workers_diff_identical", "true", None),
        ("throughput.diffs_per_s", "floor", 0.40),
        ("throughput.ledger_roundtrips_per_s", "floor", 0.40),
    ),
}

OPS = {
    "true": lambda value, bound: bool(value),
    "false": lambda value, bound: not value,
    "==": lambda value, bound: value == bound,
    ">=": lambda value, bound: value >= bound,
    "<=": lambda value, bound: value <= bound,
}


def lookup(document: dict, path: str, name: Path) -> list[tuple[str, object]]:
    """``(path, value)`` for every node ``path`` names in ``document``;
    raises ``LookupError`` naming the first absent key."""
    found = [("", document)]
    for key in path.split("."):
        step = []
        for where, node in found:
            if key == "*" and isinstance(node, list):
                step += [(f"{where}{i}.", item) for i, item in enumerate(node)]
            elif isinstance(node, dict) and key in node:
                step.append((f"{where}{key}.", node[key]))
            else:
                raise LookupError(f"{name} has no {where}{key}")
        found = step
    return [(where[:-1], node) for where, node in found]


def show(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:,.6g}"
    return repr(value)


def print_deltas(report: dict, baseline: dict, label: str) -> None:
    """The ten largest relative metric deltas between the embedded
    ledger entries, for the run-over-run record."""
    fresh_entry, committed_entry = report.get("ledger"), baseline.get("ledger")
    if not fresh_entry or not committed_entry:
        missing = "fresh report" if not fresh_entry else "baseline"
        print(f"{label}: no ledger entry in {missing}; skipping diff")
        return
    fresh = fresh_entry.get("artifacts", {}).get("metrics", {})
    committed = committed_entry.get("artifacts", {}).get("metrics", {})
    deltas = []
    for name in sorted(fresh.keys() & committed.keys()):
        a, b = float(fresh[name]), float(committed[name])
        if a != b:
            deltas.append((abs(a - b) / max(abs(a), abs(b)), name, a, b))
    if not deltas:
        print(f"{label}: no metric deltas vs committed baseline")
        return
    deltas.sort(reverse=True)
    print(f"{label}: top metric deltas vs committed baseline:")
    for _, name, a, b in deltas[:10]:
        print(f"  {name}: {a:g} vs {b:g} ({(a - b) / max(abs(b), 1e-12):+.1%})")
    if len(deltas) > 10:
        print(f"  ... and {len(deltas) - 10} more changed metrics")


def run_checks(args: argparse.Namespace) -> int:
    report = json.loads(args.report.read_text())
    section = report.get("benchmark")
    if section not in CHECKS:
        raise LookupError(
            f"{args.report}: no checks for benchmark {section!r} "
            f"(sections: {', '.join(CHECKS)})"
        )
    baseline_path = args.baseline or REPO_ROOT / f"BENCH_{section}.json"
    baseline = json.loads(baseline_path.read_text())
    failed = 0
    for path, op, bound in CHECKS[section]:
        detail = op if bound is None else f"{op} {show(bound)}"
        if op == "floor":
            committed = float(lookup(baseline, path, baseline_path)[0][1])
            op, bound = ">=", committed * (1.0 - bound)
            detail = f"{detail}: >= {show(bound)} of committed {show(committed)}"
        for where, value in lookup(report, path, args.report):
            ok = OPS[op](value, bound)
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {where} = {show(value)} ({detail})")
    print_deltas(report, baseline, f"{section} run-over-run")
    if failed:
        print(f"FAIL: {failed} check(s) of {section} failed", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="fresh BENCH_<section>.json")
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="committed report (default: repo-root BENCH_<section>.json)",
    )
    args = parser.parse_args(argv)
    try:
        return run_checks(args)
    except (OSError, ValueError, LookupError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
