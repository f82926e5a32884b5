"""The hetero-energy experiment: frontier claim, wiring, determinism."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.config import QUICK, TINY
from repro.experiments.hetero_energy import (
    CORES,
    RPS_SWEEP,
    _point_energy,
    big_little_topology,
    experiment_hetero_energy,
    hetero_policies,
    homogeneous_topology,
    run_hetero_sweep,
)
from repro.parallel import default_workers


class TestWiring:
    def test_topologies(self):
        homo = homogeneous_topology()
        assert homo.total_cores == CORES
        assert homo.is_single_pool
        bl = big_little_topology()
        assert bl.total_cores == CORES
        assert bl.equivalent_capacity() == 20.0
        assert bl.index_of("big") == 0

    def test_policies_are_table_tuned_to_capacity(self):
        policies = hetero_policies(TINY, big_little_topology())
        assert set(policies) == {"FIX-3", "FM", "Hurry-up", "EA-FM"}
        # The big/little box has 20 equivalent cores; FM's table must be
        # built for that capacity, not the 16 physical cores.
        assert policies["FM"].table.metadata.target_parallelism == 20.0
        assert policies["EA-FM"].table.metadata.target_parallelism == 20.0
        homo = hetero_policies(TINY, homogeneous_topology())
        assert homo["FM"].table.metadata.target_parallelism == 16.0

    def test_cli_registration(self):
        from repro.cli import EXPERIMENTS

        assert "hetero-energy" in EXPERIMENTS

    def test_traced_run_carries_energy_into_analyze(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "hetero-trace.json"
        report = tmp_path / "hetero-report.json"
        assert main(["hetero-energy", "--scale", "tiny", "--trace", str(trace)]) == 0
        metrics = json.loads(trace.read_text())["otherData"]["metrics"]
        names = {*metrics["counters"], *metrics["gauges"]}
        assert any(name.startswith("sim.energy.") for name in names)
        assert main(["analyze", str(trace), "--json", str(report)]) == 0
        assert "joules_per_query" in json.loads(report.read_text())["tracks"]["sim"]
        capsys.readouterr()


@pytest.fixture(scope="module")
def tiny_figure():
    return experiment_hetero_energy(TINY)


class TestExperiment:
    def test_structure(self, tiny_figure):
        assert tiny_figure.figure_id == "hetero-energy"
        # One panel per topology, the energy decomposition, and the
        # EA-FM vs FIX-3 diff panel (DESIGN.md §15).
        assert len(tiny_figure.tables) == 4
        assert tiny_figure.tables[3].caption.startswith("repro diff")
        assert len(tiny_figure.notes) >= 4
        assert any("strictly dominates FIX-3" in note for note in tiny_figure.notes)
        # Ledger entries offered for --ledger persistence: one per
        # big/little policy at the decomposition load.
        names = {entry.card.name for entry in tiny_figure.entries}
        assert {"hetero:EA-FM@250", "hetero:FIX-3@250"} <= names
        for table in tiny_figure.tables[:2]:
            assert len(table.rows) == len(RPS_SWEEP) * 4

    def test_energy_columns_are_finite(self, tiny_figure):
        for table in tiny_figure.tables[:2]:
            jpq_col = table.columns.index("J/query")
            for row in table.rows:
                assert math.isfinite(row[jpq_col])

    def test_frontier_claim_holds(self, big_little_sweeps):
        """The acceptance gate: EA-FM dominates FIX-3 (lower p99 AND
        lower J/query) at >= 1 load point on the big/little topology."""
        sweep, _ = big_little_sweeps
        fix, ea = sweep["FIX-3"], sweep["EA-FM"]

        def joules_per_query(policy, i):
            return _point_energy(sweep, policy, i)[0]

        assert any(
            ea.tail_ms[i] <= fix.tail_ms[i]
            and joules_per_query("EA-FM", i) <= joules_per_query("FIX-3", i)
            for i in range(len(RPS_SWEEP))
        )

    def test_decomposition_adds_up(self, tiny_figure):
        decomp = tiny_figure.tables[2]
        total_col = decomp.columns.index("total J")
        for row in decomp.rows:
            parts = sum(row[1:total_col])
            assert parts == pytest.approx(row[total_col], rel=1e-9)


@pytest.fixture(scope="module", params=[TINY, QUICK], ids=lambda s: s.name)
def big_little_sweeps(request):
    """The big/little sweep run serially and across 2 workers."""
    topology = big_little_topology()
    with default_workers(1):
        serial = run_hetero_sweep(request.param, topology)
    with default_workers(2):
        parallel = run_hetero_sweep(request.param, topology)
    return serial, parallel


class TestDeterminism:
    def test_sweep_is_identical_across_worker_counts(self, big_little_sweeps):
        serial, parallel = big_little_sweeps
        assert serial.policies() == parallel.policies()
        for name in serial.policies():
            assert serial[name].tail_ms == parallel[name].tail_ms
            assert serial[name].mean_ms == parallel[name].mean_ms
            for kept_s, kept_p in zip(serial[name].results, parallel[name].results):
                assert [r.energy.total_j for r in kept_s] == [
                    r.energy.total_j for r in kept_p
                ]

    def test_homogeneous_panel_collapses_to_fm(self):
        """On one pool EA-FM *is* FM — same bits, same bill."""
        sweep = run_hetero_sweep(TINY, homogeneous_topology())
        assert sweep["EA-FM"].tail_ms == sweep["FM"].tail_ms
        for kept_fm, kept_ea in zip(
            sweep["FM"].results, sweep["EA-FM"].results
        ):
            assert [r.energy.total_j for r in kept_fm] == [
                r.energy.total_j for r in kept_ea
            ]
