"""Diff-engine benches -> ``BENCH_diff.json``.

Four sections, two purposes (DESIGN.md §15):

* ``null_test`` (seeded, hardware-independent): the contract the whole
  diff plane rests on.  A run self-diffed through a ledger round-trip
  must be an *exact* null (bit-identical histogram state, zero deltas,
  zero significant verdicts), and two runs with different seeds must
  NOT short-circuit to the identical path.
* ``versus`` (seeded, hardware-independent): FM vs FIX-3 on an
  identical Lucene trace at 45 RPS with 500 requests — fixed size
  regardless of ``--scale``, because the attestation is about
  statistical power, not speed.  The p99 delta must be significant and
  the explanation ranking must put the over-subscription phase
  (contention — the simulator books FIX's overload there) first.
* ``determinism`` (seeded, hardware-independent): the same two ledger
  entries diffed twice, and entries rebuilt from a ``--workers 2``
  sweep, must serialize byte-identically — diffs are functions of
  (entries, seed), never of wall clock or process count.
* ``throughput`` (same-machine trajectory): ``diff_runs`` calls per
  second on realistic entries, and ledger append+get round-trips per
  second.  Gated with a wide cross-run band by
  ``check_regression.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_diff.py [--scale quick]
    PYTHONPATH=src python benchmarks/run_all.py --scale quick --only diff
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

from repro.experiments.config import FULL, QUICK, TINY, Scale, default_scale
from repro.experiments.runner import run_sweep
from repro.experiments.tables import lucene_table
from repro.observe.diff import diff_runs
from repro.observe.ledger import RunEntry, RunLedger, entry_from_result
from repro.schedulers import FixedScheduler, FMScheduler
from repro.workloads import lucene as lucene_mod

REPO_ROOT = Path(__file__).resolve().parent.parent
TIMING_REPEATS = 3

#: The attestation runs are fixed-size (the statistical-power claims
#: depend on sample count, so scaling them with --scale would move the
#: attested facts around); throughput cells scale normally.
ATTEST_REQUESTS = 500
ATTEST_RPS = 45.0
ATTEST_SEED = 4100


def best_of(fn, repeats: int = TIMING_REPEATS) -> float:
    """Best wall time over ``repeats`` calls (sheds scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _attest_entries(workers: int = 1) -> dict[str, RunEntry]:
    """FM and FIX-3 entries on the identical 45 RPS Lucene trace."""
    scale = Scale(
        "attest",
        num_requests=ATTEST_REQUESTS,
        profile_size=QUICK.profile_size,
        num_bins=QUICK.num_bins,
        step_ms=QUICK.step_ms,
    )
    table = lucene_table(scale)
    workload = lucene_mod.lucene_workload(profile_size=scale.profile_size)
    policies = {"FM": FMScheduler(table), "FIX-3": FixedScheduler(3)}
    sweep = run_sweep(
        policies,
        workload,
        rps_values=[ATTEST_RPS],
        cores=lucene_mod.CORES,
        num_requests=scale.num_requests,
        quantum_ms=lucene_mod.QUANTUM_MS,
        seed=ATTEST_SEED,
        repeats=1,
        keep_results=True,
        spin_fraction=lucene_mod.SPIN_FRACTION,
        workers=workers,
    )
    return {
        policy: entry_from_result(
            f"bench:{policy}",
            sweep[policy].results[0][0],
            config={"policy": policy, "rps": ATTEST_RPS, "seed": ATTEST_SEED},
            seed=ATTEST_SEED,
            scheduler=policy,
            workload=workload,
            scale=scale.name,
        )
        for policy in policies
    }


def bench_null_test(entries: dict[str, RunEntry]) -> dict:
    """The self-diff null attestation."""
    fm = entries["FM"]
    round_trip = RunEntry.from_dict(fm.to_dict())
    self_diff = diff_runs(fm, round_trip)
    cross = diff_runs(fm, entries["FIX-3"])
    return {
        "self_identical": self_diff.identical,
        "self_null": self_diff.is_null(),
        "self_max_abs_delta_ms": max(
            abs(q.delta_ms) for q in self_diff.quantiles
        ),
        "cross_identical": cross.identical,
    }


def bench_versus(entries: dict[str, RunEntry]) -> dict:
    """FM vs FIX-3 significance + explanation-ranking attestation."""
    diff = diff_runs(entries["FM"], entries["FIX-3"])
    p99 = diff.quantile(0.99)
    top = diff.phases[0] if diff.phases else None
    return {
        "num_requests": ATTEST_REQUESTS,
        "rps": ATTEST_RPS,
        "p99_delta_ms": p99.delta_ms,
        "p99_ci_ms": [p99.ci_lo, p99.ci_hi],
        "p99_significant": p99.significant,
        "top_phase": top.component if top else "",
        "top_phase_share": top.share_of_p99_delta if top else 0.0,
        "explanation": diff.explanation(),
    }


def bench_determinism(entries: dict[str, RunEntry]) -> dict:
    """Diffs must be pure functions of (entries, seed) — repeated calls
    and worker-pooled entry construction change nothing."""
    first = diff_runs(entries["FM"], entries["FIX-3"]).to_dict()
    second = diff_runs(entries["FM"], entries["FIX-3"]).to_dict()
    pooled = _attest_entries(workers=2)
    pooled_identical = all(
        entries[policy].to_dict() == pooled[policy].to_dict()
        for policy in entries
    )
    pooled_diff = diff_runs(pooled["FM"], pooled["FIX-3"]).to_dict()
    return {
        "repeat_identical": first == second,
        "workers_identical": pooled_identical,
        "workers_diff_identical": first == pooled_diff,
    }


def bench_throughput(entries: dict[str, RunEntry]) -> dict:
    """Same-machine trajectory: diffs/sec and ledger round-trips/sec."""
    diff_calls = 20

    def diffs() -> None:
        for _ in range(diff_calls):
            diff_runs(entries["FM"], entries["FIX-3"])

    diff_s = best_of(diffs)

    ledger_ops = 50
    with tempfile.TemporaryDirectory() as tmp:
        ledger = RunLedger(Path(tmp) / "runs")

        def roundtrips() -> None:
            for _ in range(ledger_ops):
                run_id = ledger.append(entries["FM"])
                ledger.get(run_id)

        ledger_s = best_of(roundtrips, repeats=1)
        entry_bytes = len(json.dumps(entries["FM"].to_dict()))

    return {
        "diff_calls": diff_calls,
        "diffs_per_s": round(diff_calls / diff_s, 1),
        "ledger_roundtrips": ledger_ops,
        "ledger_roundtrips_per_s": round(ledger_ops / ledger_s, 1),
        "entry_bytes": entry_bytes,
    }


def build_report(scale: Scale) -> dict:
    """The full ``BENCH_diff.json`` payload."""
    from repro.observe.ledger import config_fingerprint

    entries = _attest_entries()
    null_test = bench_null_test(entries)
    versus = bench_versus(entries)
    determinism = bench_determinism(entries)
    throughput = bench_throughput(entries)
    report = {
        "benchmark": "diff",
        "scale": scale.name,
        "python": platform.python_version(),
        "timing_repeats": TIMING_REPEATS,
        "null_test": null_test,
        "versus": versus,
        "determinism": determinism,
        "throughput": throughput,
        "notes": (
            "null_test, versus, and determinism are seeded and "
            "hardware-independent: the self-diff must be an exact null, "
            "the FM-vs-FIX-3 p99 delta at 45 RPS x 500 requests must be "
            "significant with the over-subscription phase ranked first "
            "(contention — this simulator books FIX's overload there; "
            "only FM's admission control produces queue spans, see "
            "DESIGN.md §15), and diffs must be byte-identical across "
            "repeats and --workers counts. throughput is the "
            "same-machine trajectory gated with a wide band by "
            "check_regression.py."
        ),
    }
    # The embedded run-over-run entry (consumed by
    # check_regression.py's delta printout): the report's own scalars as a
    # metrics-only ledger entry.
    metrics = {
        "diffs_per_s": throughput["diffs_per_s"],
        "ledger_roundtrips_per_s": throughput["ledger_roundtrips_per_s"],
        "entry_bytes": throughput["entry_bytes"],
        "p99_delta_ms": versus["p99_delta_ms"],
        "top_phase_share": versus["top_phase_share"],
    }
    config = {"benchmark": "diff", "scale": scale.name}
    report["ledger"] = {
        "run_id": "",
        "card": {
            "name": "bench:diff",
            "fingerprint": config_fingerprint(config),
            "seed": ATTEST_SEED,
            "scheduler": "",
            "workload": "",
            "scale": scale.name,
            "config": config,
            "git_rev": "",
            "created_s": 0.0,
        },
        "artifacts": {
            "histograms": {},
            "attribution": {},
            "metrics": metrics,
            "energy": {},
            "events": [],
        },
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=["tiny", "quick", "full"], default=None,
        help="fidelity preset (default: $REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_diff.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    scale = (
        {"tiny": TINY, "quick": QUICK, "full": FULL}[args.scale]
        if args.scale
        else default_scale()
    )
    report = build_report(scale)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
