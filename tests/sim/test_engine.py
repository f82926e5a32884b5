"""Engine fidelity tests: single-request analytics, conservation,
determinism, admission control, and contention behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.demand import RequestProfile
from repro.core.formulas import completion_time
from repro.core.schedule import IntervalSchedule
from repro.core.speedup import TabulatedSpeedup
from repro.core.table import IntervalTable
from repro.errors import SimulationError
from repro.schedulers import (
    FixedScheduler,
    FMScheduler,
    SequentialScheduler,
    SimpleIntervalScheduler,
)
from repro.sim.engine import ArrivalSpec, Engine, simulate

_CURVE = TabulatedSpeedup([1.0, 1.5, 2.0, 2.4])


def _arrivals(specs) -> list[ArrivalSpec]:
    return [ArrivalSpec(t, s, _CURVE) for t, s in specs]


class TestSingleRequestFidelity:
    """An isolated request must match the Figure 6 analytics exactly."""

    def test_sequential_request(self):
        result = simulate(_arrivals([(0.0, 100.0)]), SequentialScheduler(), cores=4)
        record = result.records[0]
        assert record.latency_ms == pytest.approx(100.0)
        assert record.final_degree == 1
        assert record.average_parallelism == pytest.approx(1.0)

    def test_fixed_degree_request(self):
        result = simulate(_arrivals([(0.0, 100.0)]), FixedScheduler(3), cores=4)
        assert result.records[0].latency_ms == pytest.approx(100.0 / 2.0)

    @given(
        seq=st.floats(min_value=5.0, max_value=800.0),
        interval=st.sampled_from([10.0, 40.0, 160.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_simple_interval_matches_equation_one(self, seq, interval):
        """Uncontended, a request under the +1-thread-per-interval policy
        completes exactly as Eq. (1) predicts for the equivalent
        S-schedule — up to one scheduling quantum per degree step."""
        quantum = 1.0
        result = simulate(
            _arrivals([(0.0, seq)]),
            SimpleIntervalScheduler(interval, max_degree=4),
            cores=8,
            quantum_ms=quantum,
        )
        request = RequestProfile(seq, _CURVE)
        predicted = completion_time(
            request, IntervalSchedule([0.0, interval, interval, interval])
        )
        # Each of the up to 3 degree steps may be observed up to one
        # quantum late.
        got = result.records[0].latency_ms
        assert predicted - 1e-6 <= got <= predicted + 3 * quantum + 1e-6

    def test_latency_includes_queueing(self):
        table = IntervalTable.from_dict(
            {
                "metadata": None,
                "schedules": [
                    {"wait_for_exit": False, "steps": [[25.0, 1]]},
                ],
            }
        )
        result = simulate(
            _arrivals([(0.0, 50.0)]), FMScheduler(table), cores=4
        )
        assert result.records[0].latency_ms == pytest.approx(75.0)
        assert result.records[0].queueing_ms == pytest.approx(25.0)


class TestConservation:
    def test_all_work_is_retired(self, tiny_workload):
        rng = np.random.default_rng(0)
        from repro.workloads.arrivals import PoissonProcess

        arrivals = tiny_workload.arrivals(100, PoissonProcess(50.0), rng)
        result = simulate(arrivals, FixedScheduler(2), cores=4, spin_fraction=0.5)
        assert len(result) == 100

    def test_core_time_equals_busy_integral(self):
        specs = _arrivals([(0.0, 100.0), (5.0, 60.0), (11.0, 200.0)])
        result = simulate(specs, FixedScheduler(2), cores=3, spin_fraction=0.25)
        per_request = sum(r.core_time_ms for r in result.records)
        system = result.cpu_utilization() * result.cores * result.duration_ms
        assert per_request == pytest.approx(system, rel=1e-6)

    def test_utilization_bounded(self):
        specs = _arrivals([(i * 2.0, 80.0) for i in range(50)])
        result = simulate(specs, FixedScheduler(4), cores=4, spin_fraction=1.0)
        assert 0.0 < result.cpu_utilization() <= 1.0 + 1e-9

    def test_sequential_uncontended_core_time_equals_work(self):
        specs = _arrivals([(0.0, 100.0)])
        result = simulate(specs, SequentialScheduler(), cores=4)
        assert result.records[0].core_time_ms == pytest.approx(100.0)


class TestContention:
    def test_oversubscription_slows_everyone(self):
        # 4 sequential requests on 2 cores: each occupies 1 core, so
        # they run at factor 1/2 and finish together at 200 ms.
        specs = _arrivals([(0.0, 100.0)] * 4)
        result = simulate(specs, SequentialScheduler(), cores=2, spin_fraction=1.0)
        for record in result.records:
            assert record.latency_ms == pytest.approx(200.0)

    def test_spin_zero_harvests_idle_threads(self):
        # Degree-4 requests with s(4) = 2.4 occupy only 2.4 cores at
        # spin 0: two of them fit on 5 cores without slowdown.
        specs = _arrivals([(0.0, 100.0), (0.0, 100.0)])
        result = simulate(specs, FixedScheduler(4), cores=5, spin_fraction=0.0)
        for record in result.records:
            assert record.latency_ms == pytest.approx(100.0 / 2.4)

    def test_spin_one_contends_fully(self):
        specs = _arrivals([(0.0, 100.0), (0.0, 100.0)])
        result = simulate(specs, FixedScheduler(4), cores=5, spin_fraction=1.0)
        # 8 threads on 5 cores: factor 5/8.
        expected = (100.0 / 2.4) / (5.0 / 8.0)
        for record in result.records:
            assert record.latency_ms == pytest.approx(expected)

    def test_completion_order_respects_rates(self):
        specs = _arrivals([(0.0, 100.0), (0.0, 30.0)])
        result = simulate(specs, SequentialScheduler(), cores=1, spin_fraction=1.0)
        by_rid = sorted(result.records, key=lambda r: r.rid)
        # Processor sharing: short (30) finishes at 60, long at 130.
        assert by_rid[1].latency_ms == pytest.approx(60.0)
        assert by_rid[0].latency_ms == pytest.approx(130.0)

    @pytest.mark.parametrize("vectorized", [False, True], ids=["loop", "batch"])
    def test_boost_granted_at_a_tick_takes_effect_at_once(self, vectorized):
        """FIX-N's age-based boost raises no degree, yet the boosted
        request must get the boosted factor right away, not at the next
        arrival or completion.  Six degree-2 requests on 6 cores
        oversubscribe them; at 10 ms two boosts fit the budget, and no
        other event fires before the next tick."""
        from repro.sim.vector import VectorEngine

        scheduler = FixedScheduler(2, boost_after_ms=10.0)
        seen = []
        original = scheduler.on_quantum

        def on_quantum(ctx, request):
            seen.append((ctx.now_ms, request.rid, request.boosted, request.share_factor))
            return original(ctx, request)

        scheduler.on_quantum = on_quantum
        engine_cls = VectorEngine if vectorized else Engine
        engine = engine_cls(cores=6, scheduler=scheduler, spin_fraction=0.25)
        engine.run(_arrivals([(0.0, 500.0)] * 6))
        early = [entry for entry in seen if entry[0] < 100.0]
        assert {rid for _, rid, was, _ in early if was} == {0, 1}
        assert all(factor == 1.0 for _, _, was, factor in early if was)
        assert max(factor for _, _, was, factor in early if not was) < 1.0


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self, tiny_workload):
        from repro.workloads.arrivals import PoissonProcess

        def run():
            rng = np.random.default_rng(42)
            arrivals = tiny_workload.arrivals(80, PoissonProcess(60.0), rng)
            return simulate(arrivals, FixedScheduler(2), cores=4)

        a, b = run(), run()
        assert [r.finish_ms for r in a.records] == [r.finish_ms for r in b.records]
        assert a.tail_latency_ms() == b.tail_latency_ms()


class TestAdmissionControl:
    def _table_with_e1(self) -> IntervalTable:
        return IntervalTable.from_dict(
            {
                "metadata": None,
                "schedules": [
                    {"wait_for_exit": False, "steps": [[0.0, 1]]},
                    {"wait_for_exit": False, "steps": [[0.0, 1]]},
                    {"wait_for_exit": True, "steps": [[0.0, 1]]},
                ],
            }
        )

    def test_e1_row_bounds_concurrency(self):
        # 5 simultaneous requests, capacity 3 (rows 1, 2 then e1):
        # at most 2 admitted immediately + forced admissions per exit.
        specs = _arrivals([(0.0, 100.0)] * 5)
        result = simulate(specs, FMScheduler(self._table_with_e1()), cores=8)
        starts = sorted(r.start_ms for r in result.records)
        # first two start immediately; the rest serialize behind exits
        assert starts[0] == 0.0
        assert starts[1] == 0.0
        assert starts[2] > 0.0
        assert len(result) == 5

    def test_empty_system_never_deadlocks_on_e1(self):
        table = IntervalTable.from_dict(
            {
                "metadata": None,
                "schedules": [{"wait_for_exit": True, "steps": [[0.0, 1]]}],
            }
        )
        result = simulate(_arrivals([(0.0, 50.0)]), FMScheduler(table), cores=2)
        assert result.records[0].latency_ms == pytest.approx(50.0)

    def test_delay_admission(self):
        table = IntervalTable.from_dict(
            {
                "metadata": None,
                "schedules": [{"wait_for_exit": False, "steps": [[40.0, 2]]}],
            }
        )
        result = simulate(_arrivals([(0.0, 60.0)]), FMScheduler(table), cores=4)
        record = result.records[0]
        assert record.queueing_ms == pytest.approx(40.0)
        assert record.latency_ms == pytest.approx(40.0 + 60.0 / 1.5)

    def test_delayed_request_starts_early_when_load_drops(self):
        """Self-correction (Section 4.2): an exit re-evaluates waiters."""
        table = IntervalTable.from_dict(
            {
                "metadata": None,
                "schedules": [
                    {"wait_for_exit": False, "steps": [[0.0, 1]]},
                    {"wait_for_exit": False, "steps": [[500.0, 1]]},
                ],
            }
        )
        # Request A (20 ms) occupies the system; B arrives at load 2 and
        # is told to wait 500 ms — but A exits at 20 ms, and the row for
        # load 1 admits B immediately.
        specs = _arrivals([(0.0, 20.0), (1.0, 30.0)])
        result = simulate(specs, FMScheduler(table), cores=4)
        b = [r for r in result.records if r.rid == 1][0]
        assert b.start_ms == pytest.approx(20.0)


class TestEngineValidation:
    def test_rejects_empty_arrivals(self):
        with pytest.raises(SimulationError):
            simulate([], SequentialScheduler(), cores=2)

    def test_rejects_bad_cores(self):
        with pytest.raises(SimulationError):
            Engine(cores=0, scheduler=SequentialScheduler())

    def test_rejects_bad_quantum(self):
        with pytest.raises(SimulationError):
            Engine(cores=2, scheduler=SequentialScheduler(), quantum_ms=0.0)

    @pytest.mark.parametrize("spin", [1.5, -0.1])
    def test_rejects_bad_spin(self, spin):
        with pytest.raises(SimulationError):
            Engine(cores=4, scheduler=SequentialScheduler(), spin_fraction=spin)

    def test_unsorted_arrivals_accepted(self):
        specs = _arrivals([(50.0, 10.0), (0.0, 10.0)])
        result = simulate(specs, SequentialScheduler(), cores=2)
        assert len(result) == 2
        assert result.records[0].arrival_ms == 0.0
