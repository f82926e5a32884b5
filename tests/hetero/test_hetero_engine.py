"""The hetero engine's correctness bar.

Two claims, attested here:

1. **Bit-identity on the degenerate topology** — a single-pool,
   speed-1.0 topology must reproduce the legacy homogeneous engine
   *and* the frozen :mod:`repro.sim._baseline` reference bit for bit,
   across schedulers, load levels, and fault injection.  Energy
   accounting rides along without perturbing a single float.
2. **Energy model invariants** — the per-request energy attribution
   sums to the pool accumulators' active+spin, the three-way
   decomposition adds up to the total, and slicing scales the report.
"""

from __future__ import annotations

import zlib

import pytest

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.hetero import Topology
from repro.schedulers import FixedScheduler, FMScheduler
from repro.sim import Engine, simulate
from repro.sim._baseline import simulate_baseline
from repro.sim.api import Admission, Scheduler
from repro.sim.processor import occupancy
from tests.sim.test_engine import _CURVE, _arrivals
from tests.sim.test_engine_equivalence import (
    _SCHEDULER_FACTORIES,
    _assert_identical,
    _interval_table,
    _sweep_arrivals,
)


def _single_pool(cores: int = 6) -> Topology:
    return Topology.homogeneous(cores)


class TestSinglePoolBitIdentity:
    """The acceptance gate: homogeneous config stays bit-identical."""

    @pytest.mark.parametrize("policy", sorted(_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("load", ["light", "saturated"])
    def test_matches_legacy_and_baseline(self, policy, load):
        rps, n = (15.0, 300) if load == "light" else (70.0, 600)
        arrivals = _sweep_arrivals(
            rps, n, seed=zlib.crc32(f"hetero/{policy}/{load}".encode())
        )
        factory = _SCHEDULER_FACTORIES[policy]
        hetero = simulate(arrivals, factory(), cores=6, topology=_single_pool())
        legacy = simulate(arrivals, factory(), cores=6)
        reference = simulate_baseline(arrivals, factory(), cores=6)
        _assert_identical(hetero, legacy)
        _assert_identical(hetero, reference)
        # Energy rides along on the hetero path only.
        assert hetero.energy is not None
        assert legacy.energy is None

    def test_matches_under_faults(self):
        arrivals = _sweep_arrivals(40.0, 400, seed=99)
        plan = FaultPlan.generate(
            seed=5,
            horizon_ms=arrivals[-1].time_ms + 5_000,
            core_fault_rate_hz=0.5,
            stall_rate_hz=1.0,
            straggler_rate=0.1,
            straggler_mu=0.7,
        )
        factory = _SCHEDULER_FACTORIES["fm"]
        hetero = simulate(
            arrivals, factory(), cores=6, fault_plan=plan,
            topology=_single_pool(),
        )
        reference = simulate_baseline(arrivals, factory(), cores=6, fault_plan=plan)
        _assert_identical(hetero, reference)

    def test_speed_one_multiplication_is_exact(self):
        # The reduction relies on x * 1.0 == x bitwise; spot-check the
        # measured latencies, not just the invariant.
        arrivals = _sweep_arrivals(30.0, 200, seed=11)
        hetero = simulate(
            arrivals, FMScheduler(_interval_table()), cores=6,
            topology=_single_pool(),
        )
        legacy = simulate(arrivals, FMScheduler(_interval_table()), cores=6)
        assert [r.finish_ms for r in hetero.records] == [
            r.finish_ms for r in legacy.records
        ]


class _FreeCoresProbe(Scheduler):
    """Starts every request at degree 4 and records pool 0's headroom
    as each arrival sees it."""

    name = "free-cores-probe"
    uses_quantum = False

    def __init__(self):
        self.seen = []

    def on_arrival(self, ctx, request):
        self.seen.append(ctx.pool_free_cores(0))
        return Admission.start(4)

    def on_wait_check(self, ctx, request):
        return Admission.start(4)


class TestPoolFreeCores:
    """Each kind of run keeps its own sum order: ``cores - (d1 + d2 + d3)``
    without a topology, ``((cores - d1) - d2) - d3`` on a pool.  The two
    round differently for three requests of occupancy 2.8."""

    @pytest.mark.parametrize("topology", [None, Topology.homogeneous(6)])
    def test_headroom_keeps_its_sum_order(self, topology):
        demand = occupancy(_CURVE.speedup(4), 4, 0.25)
        homogeneous = 6 - (demand + demand + demand)
        pooled = ((6.0 - demand) - demand) - demand
        assert homogeneous != pooled
        probe = _FreeCoresProbe()
        simulate(
            _arrivals([(float(t), 1_000.0) for t in range(4)]), probe,
            cores=6, topology=topology,
        )
        assert probe.seen[3] == (homogeneous if topology is None else pooled)

    def test_homogeneous_engine_has_one_pool(self):
        engine = Engine(cores=6, scheduler=FixedScheduler(2))
        with pytest.raises(SimulationError):
            engine.pool_free_cores(1)


class TestTopologyValidation:
    def test_core_count_mismatch_raises(self):
        with pytest.raises(SimulationError):
            Engine(
                cores=8,
                scheduler=FixedScheduler(2),
                topology=Topology.big_little(big=4, little=12),
            )


class TestEnergyInvariants:
    def _run(self, topology, rps=40.0, n=300, seed=17):
        arrivals = _sweep_arrivals(rps, n, seed=seed)
        return simulate(
            arrivals, FixedScheduler(2), cores=topology.total_cores,
            topology=topology,
        )

    @pytest.mark.parametrize(
        "topology",
        [
            Topology.homogeneous(6),
            Topology.big_little(big=2, little=4),
        ],
        ids=["homogeneous", "big_little"],
    )
    def test_request_energy_sums_to_active_plus_spin(self, topology):
        result = self._run(topology)
        per_request = sum(record.energy_j for record in result.records)
        assert per_request == pytest.approx(
            result.energy.active_j + result.energy.spin_j, abs=1e-6
        )

    def test_three_way_decomposition_is_additive(self):
        result = self._run(Topology.big_little(big=2, little=4))
        report = result.energy
        assert report.total_j == pytest.approx(
            report.active_j + report.spin_j + report.idle_j, rel=1e-12
        )
        for pool in report.pools:
            assert pool.total_j == pool.active_j + pool.spin_j + pool.idle_j

    def test_joules_per_query_matches_report(self):
        result = self._run(Topology.big_little(big=2, little=4))
        assert result.joules_per_query() == pytest.approx(
            result.energy.total_j / len(result.records)
        )

    def test_legacy_run_reports_nan(self):
        arrivals = _sweep_arrivals(40.0, 50, seed=3)
        result = simulate(arrivals, FixedScheduler(2), cores=6)
        assert result.energy is None
        assert result.joules_per_query() != result.joules_per_query()  # NaN

    def test_slicing_scales_the_report(self):
        result = self._run(Topology.big_little(big=2, little=4), n=200)
        half = result.slice_by_arrival(0, 100)
        fraction = 100 / 200
        assert half.energy is not None
        assert half.energy.total_j == pytest.approx(
            result.energy.total_j * fraction
        )

    def test_idle_machine_burns_idle_power(self):
        # Two tiny requests a second apart: the machine idles through
        # the gap, so idle energy must dominate the bill.
        topo = Topology.big_little(big=2, little=4)
        result = simulate(
            _arrivals([(0.0, 1.0), (1_000.0, 1.0)]),
            FixedScheduler(1), cores=6, topology=topo,
        )
        report = result.energy
        assert report.idle_j > report.active_j + report.spin_j


class TestDefaultPlacement:
    def test_single_request_lands_on_fastest_pool(self):
        topo = Topology.big_little(big=2, little=4)
        result = simulate(
            _arrivals([(0.0, 50.0)]), FixedScheduler(2), cores=6, topology=topo
        )
        assert result.records[0].pool == 0  # big

    def test_overflow_spills_to_little(self):
        topo = Topology.big_little(big=2, little=4)
        # Six simultaneous degree-2 requests cannot all fit the 2-core
        # big pool; some must start on little.
        result = simulate(
            _arrivals([(0.0, 50.0)] * 6), FixedScheduler(2), cores=6,
            topology=topo,
        )
        pools = {record.pool for record in result.records}
        assert pools == {0, 1}


class _MigrateOnceScheduler(Scheduler):
    """Starts everything on pool 1, migrates to pool 0 on first quantum."""

    name = "migrate-probe"
    uses_quantum = True

    def on_arrival(self, ctx, request):
        return Admission.start(1, pool=ctx.slowest_pool)

    def on_quantum(self, ctx, request):
        if request.pool != ctx.fastest_pool:
            assert ctx.migrate(request, ctx.fastest_pool)
        return request.degree

    def on_wait_check(self, ctx, request):
        return Admission.start(1, pool=ctx.slowest_pool)


class TestMigration:
    def test_migration_moves_and_counts(self):
        topo = Topology.big_little(big=2, little=4)
        result = simulate(
            _arrivals([(0.0, 60.0), (1.0, 60.0)]),
            _MigrateOnceScheduler(),
            cores=6,
            quantum_ms=5.0,
            topology=topo,
        )
        for record in result.records:
            assert record.pool == 0  # finished on big
            assert record.migrations == 1

    def test_migration_to_faster_pool_speeds_completion(self):
        topo = Topology.big_little(big=2, little=4, big_speed=2.0)
        stay = simulate(
            _arrivals([(0.0, 100.0)]), FixedScheduler(1), cores=6,
            quantum_ms=5.0, topology=Topology.homogeneous(6),
        )
        move = simulate(
            _arrivals([(0.0, 100.0)]), _MigrateOnceScheduler(), cores=6,
            quantum_ms=5.0, topology=topo,
        )
        assert move.records[0].latency_ms < stay.records[0].latency_ms


class TestPerPoolFaults:
    def test_core_loss_and_restore_rebalance_pools(self):
        topo = Topology.big_little(big=2, little=4)
        arrivals = _sweep_arrivals(30.0, 200, seed=23)
        plan = FaultPlan.generate(
            seed=7,
            horizon_ms=arrivals[-1].time_ms + 5_000,
            core_fault_rate_hz=1.0,
        )
        engine = Engine(
            cores=6, scheduler=FixedScheduler(2), fault_plan=plan,
            topology=topo,
        )
        result = engine.run(arrivals)
        assert len(result.records) == 200
        # Every lost core must have been restored by the drained plan.
        assert sum(engine._pool_online) == 6
        assert result.fault_stats.as_dict()["core_faults_applied"] > 0
