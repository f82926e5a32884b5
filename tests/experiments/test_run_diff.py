"""The run-diff experiment: ledgered panels through the diff engine.

The self-diff panel must attest an exact null at ANY scale; the
FM-vs-FIX-3 significance claim is a quick-scale-and-up fact (tiny's
150 requests lack the power), so the experiment's panels are checked
to exist at TINY and the claim itself on one 500-request trace.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import QUICK, TINY
from repro.experiments.run_diff import (
    COMPARE_RPS,
    FIX_DEGREE,
    LOAD_POINTS,
    SEED,
    experiment_run_diff,
)
from repro.experiments.runner import run_sweep
from repro.experiments.tables import lucene_table
from repro.observe.diff import diff_runs
from repro.observe.ledger import RunEntry, entry_from_result
from repro.schedulers import FixedScheduler, FMScheduler
from repro.workloads import lucene as lucene_mod


@pytest.fixture(scope="module")
def result():
    return experiment_run_diff(TINY)


class TestRunDiffExperiment:
    def test_offers_one_entry_per_policy_and_load(self, result):
        names = sorted(entry.card.name for entry in result.entries)
        expected = sorted(
            f"{policy}@{rps:g}"
            for policy in ("FM", f"FIX-{FIX_DEGREE}")
            for rps in LOAD_POINTS
        )
        assert names == expected

    def test_self_diff_attests_exact_null(self, result):
        assert any("NULL (exact)" in note for note in result.notes)
        self_tables = [
            t for t in result.tables if t.caption.startswith("self-diff")
        ]
        assert len(self_tables) == 1
        assert "identical=True" in self_tables[0].caption
        # Every quantile row reports a zero delta and no significance.
        for row in self_tables[0].rows:
            assert row[3] == "+0"
            assert row[-1] == "no"

    def test_versus_and_regression_panels_present(self, result):
        titles = [t.caption for t in result.tables]
        assert any(
            f"FM vs FIX-{FIX_DEGREE} at {COMPARE_RPS:g}" in t for t in titles
        )
        assert any("FM regression" in t for t in titles)
        # The FIX-contention framing note rides along (DESIGN.md §15).
        assert any("processor-sharing contention" in n for n in result.notes)

    def test_entries_are_renderable(self, result):
        text = result.render()
        assert "self-diff" in text
        assert "explanation ranking" in text


def _compare_entries(workers: int) -> dict[str, RunEntry]:
    """FM and FIX-3 ledger entries on one 500-request Lucene trace at
    the compare load (QUICK table, seed 4100), swept on ``workers``."""
    workload = lucene_mod.lucene_workload(profile_size=QUICK.profile_size)
    policies = {"FM": FMScheduler(lucene_table(QUICK)), "FIX-3": FixedScheduler(3)}
    sweep = run_sweep(
        policies,
        workload,
        rps_values=[COMPARE_RPS],
        cores=lucene_mod.CORES,
        num_requests=QUICK.num_requests,
        quantum_ms=lucene_mod.QUANTUM_MS,
        seed=SEED,
        repeats=1,
        keep_results=True,
        spin_fraction=lucene_mod.SPIN_FRACTION,
        workers=workers,
    )
    return {
        policy: entry_from_result(
            policy,
            sweep[policy].results[0][0],
            config={"policy": policy, "rps": COMPARE_RPS, "seed": SEED},
            seed=SEED,
            scheduler=policy,
            workload=workload,
            scale=QUICK.name,
        )
        for policy in policies
    }


@pytest.fixture(scope="module")
def compare_entries():
    return _compare_entries(workers=1)


class TestFMVersusFIX3:
    def test_self_diff_is_an_exact_null(self, compare_entries):
        fm = compare_entries["FM"]
        self_diff = diff_runs(fm, RunEntry.from_dict(fm.to_dict()))
        assert self_diff.identical and self_diff.is_null()
        assert max(abs(q.delta_ms) for q in self_diff.quantiles) == 0.0
        assert not diff_runs(fm, compare_entries["FIX-3"]).identical

    def test_p99_delta_is_significant_and_contention_ranks_first(
        self, compare_entries
    ):
        """FIX admits at once, so the simulator books its overload as
        processor-sharing contention (DESIGN.md §15)."""
        diff = diff_runs(compare_entries["FM"], compare_entries["FIX-3"])
        assert diff.quantile(0.99).significant
        assert diff.phases[0].component == "contention_ms"

    def test_diff_is_a_function_of_entries_and_seed(self, compare_entries):
        """Repeated calls, and entries rebuilt from a 2-worker sweep,
        give the same report."""
        first = diff_runs(compare_entries["FM"], compare_entries["FIX-3"]).to_dict()
        assert diff_runs(compare_entries["FM"], compare_entries["FIX-3"]).to_dict() == first
        pooled = _compare_entries(workers=2)
        for policy, entry in compare_entries.items():
            assert pooled[policy].to_dict() == entry.to_dict()
        assert diff_runs(pooled["FM"], pooled["FIX-3"]).to_dict() == first
