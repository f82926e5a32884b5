"""The replication-phase experiment and the controller determinism pin.

The determinism tests are the regression the adaptive controller is
held to: the same seed plus the same canned fault scenario must replay
a bit-identical mode-transition signature — across repeated in-process
runs *and* across worker processes (the ``--workers N`` sweep path
runs simulations in subprocesses; controller behavior must not depend
on which process hosts the run).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cluster.adaptive import AdaptiveReplicationController, ControllerConfig
from repro.cluster.hedging import HedgePolicy
from repro.errors import ConfigurationError
from repro.experiments.config import QUICK, TINY, Scale
from repro.experiments.replication_phase import (
    SATURATION_RPS,
    _controller,
    _phase_point,
    experiment_replication_phase,
)
from repro.faults.scenarios import overload_flip
from repro.schedulers import FMScheduler
from repro.telemetry import Telemetry, install
from repro.telemetry.export import write_chrome_trace
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess


def _flip_signature(scale: Scale = TINY) -> tuple[tuple, ...]:
    """One overload-flip run at ``scale`` -> transition signature.

    Module-level so worker processes can import it by reference.
    """
    rps = 0.40 * SATURATION_RPS
    num_queries = scale.num_requests * 2
    scenario = overload_flip(
        seed=131,
        horizon_ms=num_queries / rps * 1000.0,
        cores_lost=bing_mod.CORES - 2,
        stall_ms=2 * bing_mod.QUANTUM_MS,
    )
    controller = _controller()
    run = _phase_point(
        scale, rps, controller=controller, fault_plan_factory=scenario
    )
    assert run.controller is controller
    assert run.mode_transitions == controller.transition_signature()
    return controller.transition_signature()


class TestControllerWiring:
    def test_controller_excludes_static_policies(self, tiny_workload):
        from repro.cluster.simulation import simulate_cluster_robust
        from repro.experiments.tables import bing_table

        with pytest.raises(ConfigurationError):
            simulate_cluster_robust(
                scheduler_factory=lambda: FMScheduler(bing_table(TINY)),
                workload=tiny_workload,
                num_servers=2,
                num_queries=4,
                process=PoissonProcess(100.0),
                cores=4,
                controller=AdaptiveReplicationController(
                    ControllerConfig(cores=4)
                ),
                hedge=HedgePolicy(delay_percentile=0.95),
            )

    def test_controller_capacity_must_match_servers(self, tiny_workload):
        from repro.cluster.simulation import simulate_cluster_robust
        from repro.experiments.tables import bing_table

        with pytest.raises(ConfigurationError):
            simulate_cluster_robust(
                scheduler_factory=lambda: FMScheduler(bing_table(TINY)),
                workload=tiny_workload,
                num_servers=2,
                num_queries=4,
                process=PoissonProcess(100.0),
                cores=4,
                controller=AdaptiveReplicationController(
                    ControllerConfig(cores=12)  # != 4 simulated cores
                ),
            )

    def test_cli_registration(self):
        from repro.cli import EXPERIMENTS

        assert "replication-phase" in EXPERIMENTS


class TestFlipDeterminism:
    @pytest.mark.parametrize("scale", [TINY, QUICK], ids=lambda s: s.name)
    def test_replay_is_bit_identical_across_runs(self, scale):
        first = _flip_signature(scale)
        assert first  # the flip actually transitions
        # The scenario must exercise the recovery path end to end:
        # at least one brownout entry and at least one recovery edge.
        assert any(t[3] == "brownout" for t in first)
        assert any(t[4] == "recovery" for t in first)
        assert _flip_signature(scale) == first

    def test_replay_is_bit_identical_across_worker_processes(self):
        in_process = _flip_signature()
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_flip_signature) for _ in range(2)]
            from_workers = [f.result() for f in futures]
        assert from_workers[0] == from_workers[1] == in_process


@pytest.fixture(scope="module")
def traced_experiment(tmp_path_factory):
    """The experiment at TINY with a pipeline installed, as
    ``repro-fm replication-phase --trace`` runs it: (result, trace)."""
    telemetry = Telemetry()
    with install(telemetry):
        result = experiment_replication_phase(TINY)
    trace = tmp_path_factory.mktemp("replication") / "trace.json"
    return result, write_chrome_trace(trace, telemetry)


@pytest.fixture(scope="module")
def quick_experiment():
    """The experiment at QUICK, untraced: 1000 queries a run."""
    return experiment_replication_phase(QUICK), None


@pytest.mark.slow
class TestExperimentSmoke:
    def test_trace_exports_controller_metrics(self, traced_experiment):
        _, trace = traced_experiment
        metrics = json.loads(trace.read_text())["otherData"]["metrics"]
        names = {*metrics["counters"], *metrics["gauges"]}
        assert {
            "cluster.adaptive.mode",
            "cluster.adaptive.windows",
            "cluster.adaptive.brownouts",
        } <= names

    @pytest.mark.parametrize(
        "experiment", ["traced_experiment", "quick_experiment"], ids=["tiny", "quick"]
    )
    def test_structure_and_acceptance(self, request, experiment):
        result, _ = request.getfixturevalue(experiment)
        # Phase diagram, the past-the-knee diff panel (DESIGN.md §15),
        # and the flip timeline.
        assert len(result.tables) == 3
        assert result.tables[1].caption.startswith("repro diff")
        assert len(result.notes) >= 3
        # Every (policy, rho) run plus the flip run is offered for
        # --ledger persistence.
        assert any(
            e.card.name.startswith("repl:adaptive@") for e in result.entries
        )
        assert any(
            e.card.name == "repl:flip-adaptive@0.4" for e in result.entries
        )

        phase_rows = result.tables[0].rows
        adaptive_rows = [r for r in phase_rows if r[1] == "adaptive"]
        assert len(adaptive_rows) == 4  # one per load point
        # Acceptance bound: adaptive tracks the best static policy at
        # every load point (within 10%), with a stable mode sequence
        # (<= a handful of transitions) at the highest load.
        for row in adaptive_rows:
            assert row[5] <= 1.10
        assert adaptive_rows[-1][6] <= 3

        transitions = result.tables[2].rows
        assert transitions and transitions[0][2] != "(no transition)"
        assert "brownout" in result.tables[2].caption

    @pytest.mark.parametrize(
        "experiment", ["traced_experiment", "quick_experiment"], ids=["tiny", "quick"]
    )
    def test_adaptive_hedges_at_low_load_and_browns_out_past_the_knee(
        self, request, experiment
    ):
        result, _ = request.getfixturevalue(experiment)
        adaptive_rows = [r for r in result.tables[0].rows if r[1] == "adaptive"]
        lowest, highest = adaptive_rows[0], adaptive_rows[-1]
        # Eager mode hedges at the lowest load; the 1.10x bound above
        # also passes a controller that only ever retries.
        assert lowest[3] > 0
        # Brownout at the highest load: no hedges, no retries.
        assert highest[3] == highest[4] == 0
