"""Differential observability demo: ledgered runs + `repro diff`.

Three comparisons exercise the whole diff plane (DESIGN.md §15) at a
Fig. 8 load point:

* **Self-diff attestation** — an FM run diffed against its own
  ledger round-trip: the histogram state restores bit-identically, so
  every delta is *exactly* zero and the verdict is a certain null
  (``tests/experiments/test_run_diff.py`` also attests it on the
  500-request FM and FIX-3 runs at the compare load).
* **FM vs FIX-3** — the paper's headline comparison with error bars:
  the p99 delta carries a bootstrap CI and a significance verdict
  instead of a bare point gap.  The explanation ranking attributes the
  gap to the over-subscription phase — in this simulator FIX's
  overload cost is booked as processor-sharing *contention* (FIX
  admits immediately; only FM's admission control produces queue
  spans), the analogue of the real system's thread-pool queueing.
* **FM overload regression** — FM at the sweep's highest load vs the
  headline load: a significant p99 regression whose explanation
  ranking puts *queue* first, because FM's admission delays are
  exactly where extra load lands.  This is the "automatic regression
  explanation" shape: same config, one knob moved, the diff names the
  phase that pays.

Every run is offered as a ledger entry, so ``--ledger runs/`` makes
each of these diffs reproducible offline::

    repro-fm run-diff --ledger runs/
    repro diff 'FM@45#1' 'FIX-3@45#4' --runs runs/
"""

from __future__ import annotations

from repro.experiments.config import Scale, default_scale
from repro.experiments.report import FigureResult
from repro.experiments.runner import run_sweep
from repro.experiments.tables import lucene_table
from repro.observe.diff import (
    PHASE_COLUMNS,
    QUANTILE_COLUMNS,
    diff_runs,
    phase_rows,
    quantile_rows,
)
from repro.observe.ledger import RunEntry, entry_from_result
from repro.schedulers import FixedScheduler, FMScheduler
from repro.workloads import lucene as lucene_mod

__all__ = ["experiment_run_diff", "RUN_DIFF"]

#: Fig. 8 load points: the paper's headline 40 RPS, the significance
#: point 45, and the overload point 47 for the regression diff.
LOAD_POINTS = (40.0, 45.0, 47.0)
#: The FM-vs-FIX comparison load (significant at quick scale and up).
COMPARE_RPS = 45.0
SEED = 4100
FIX_DEGREE = 3

def experiment_run_diff(scale: Scale | None = None) -> FigureResult:
    """Self-diff null, FM-vs-FIX-3 with CIs, and a queue-explained FM
    overload regression — all through :func:`diff_runs`."""
    scale = scale or default_scale()
    table = lucene_table(scale)
    workload = lucene_mod.lucene_workload(profile_size=scale.profile_size)
    policies = {"FM": FMScheduler(table), f"FIX-{FIX_DEGREE}": FixedScheduler(FIX_DEGREE)}

    # repeats=1 regardless of scale: each ledger entry is ONE run (a
    # ledger records executions), and the paired-comparison seed grid
    # keeps serial and --workers sweeps bit-identical.
    sweep = run_sweep(
        policies,
        workload,
        rps_values=LOAD_POINTS,
        cores=lucene_mod.CORES,
        num_requests=scale.num_requests,
        quantum_ms=lucene_mod.QUANTUM_MS,
        seed=SEED,
        repeats=1,
        keep_results=True,
        spin_fraction=lucene_mod.SPIN_FRACTION,
    )

    entries: dict[tuple[str, float], RunEntry] = {}
    for policy in policies:
        for rps_index, rps in enumerate(LOAD_POINTS):
            run = sweep[policy].results[rps_index][0]
            entries[(policy, rps)] = entry_from_result(
                f"{policy}@{rps:g}",
                run,
                config={
                    "experiment": "run-diff",
                    "policy": policy,
                    "rps": rps,
                    "num_requests": scale.num_requests,
                    "cores": lucene_mod.CORES,
                    "quantum_ms": lucene_mod.QUANTUM_MS,
                    "seed": SEED,
                },
                seed=SEED,
                scheduler=policy,
                workload=workload,
                scale=scale.name,
            )

    result = FigureResult(
        "run-diff",
        "Differential observability: ledgered runs compared with CIs",
    )
    for entry in entries.values():
        result.add_entry(entry)

    # Panel 1: self-diff — ledger round-trip must be an exact null.
    fm_mid = entries[("FM", COMPARE_RPS)]
    round_trip = RunEntry.from_dict(fm_mid.to_dict())
    self_diff = diff_runs(fm_mid, round_trip)
    result.add_table(
        f"self-diff: FM@{COMPARE_RPS:g} vs its ledger round-trip "
        f"(identical={self_diff.identical})",
        QUANTILE_COLUMNS,
        quantile_rows(self_diff),
    )
    result.add_note(
        "self-diff verdict: "
        + ("NULL (exact)" if self_diff.is_null() and self_diff.identical
           else "UNEXPECTED DELTAS — ledger round-trip is lossy")
    )

    # Panel 2: FM vs FIX-3 on the identical trace at the compare load.
    versus = diff_runs(entries[("FM", COMPARE_RPS)], entries[(f"FIX-{FIX_DEGREE}", COMPARE_RPS)])
    result.add_table(
        f"FM vs FIX-{FIX_DEGREE} at {COMPARE_RPS:g} RPS: quantile deltas "
        "(negative = FM faster)",
        QUANTILE_COLUMNS,
        quantile_rows(versus),
    )
    result.add_table(
        f"FM vs FIX-{FIX_DEGREE} at {COMPARE_RPS:g} RPS: explanation ranking",
        PHASE_COLUMNS,
        phase_rows(versus),
    )
    result.add_note(f"FM vs FIX-{FIX_DEGREE}: {versus.explanation()}")
    result.add_note(
        "FIX admits every request immediately, so its over-subscription "
        "cost is booked as processor-sharing contention — the "
        "simulator's analogue of thread-pool queueing (DESIGN.md §15)"
    )

    # Panel 3: FM overload regression — highest load vs headline load.
    high, low = LOAD_POINTS[-1], LOAD_POINTS[0]
    regression = diff_runs(entries[("FM", high)], entries[("FM", low)])
    result.add_table(
        f"FM regression: {high:g} RPS vs {low:g} RPS, explanation ranking",
        PHASE_COLUMNS,
        phase_rows(regression),
    )
    result.add_note(f"FM {high:g} vs {low:g} RPS: {regression.explanation()}")
    result.add_note(
        "rerun any of these offline: `repro-fm run-diff --ledger runs/` "
        "then `repro diff 'FM@45' 'FIX-3@45' --runs runs/`"
    )
    return result


#: Registry (merged into the CLI's experiment list).
RUN_DIFF = {"run-diff": experiment_run_diff}
