"""The hot-path overhaul's correctness bar: the optimized engine must
produce **bit-for-bit identical** results to the frozen reference
implementation (:mod:`repro.sim._baseline`) on fixed seeds — across
schedulers, boosting, load shedding, fault injection, and saturation —
plus regression tests for the latent bugs fixed alongside it (O(n^2)
backlog drains, per-wake delayed-set sorts, silent engine reuse)."""

from __future__ import annotations

import math
import time
import zlib

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments.config import QUICK
from repro.experiments.tables import bing_table
from repro.faults.plan import FaultPlan
from repro.hetero import Topology
from repro.schedulers import (
    AdaptiveScheduler,
    FixedScheduler,
    FMScheduler,
    SequentialScheduler,
)
from repro.sim import ArrivalSpec, Engine, simulate
from repro.sim._baseline import simulate_baseline
from repro.sim.api import Admission, Scheduler
from repro.sim.request import RequestState
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess
from tests.sim.test_engine import _CURVE, _arrivals  # shared fixtures


def _sweep_arrivals(rps: float, n: int, seed: int) -> list[ArrivalSpec]:
    """A reproducible Poisson trace with lognormal demand."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1000.0 / rps, size=n))
    demands = np.maximum(rng.lognormal(3.0, 0.8, size=n), 1.0)
    return [ArrivalSpec(float(t), float(s), _CURVE) for t, s in zip(times, demands)]


def _bing_cell(rps: float) -> tuple[list[ArrivalSpec], object, dict]:
    """(arrivals, FM table, machine kwargs): 1000 Poisson arrivals at
    ``rps`` (seed 42) on the Bing workload and its QUICK FM table."""
    workload = bing_mod.bing_workload(profile_size=QUICK.profile_size)
    arrivals = workload.arrivals(
        2 * QUICK.num_requests, PoissonProcess(rps), np.random.default_rng(42)
    )
    machine = dict(
        cores=bing_mod.CORES,
        quantum_ms=bing_mod.QUANTUM_MS,
        spin_fraction=bing_mod.SPIN_FRACTION,
    )
    return arrivals, bing_table(QUICK), machine


def _interleaved_best(runs: dict, rounds: int) -> dict[str, float]:
    """Best wall seconds of each zero-argument run, the runs taking
    turns ``rounds`` times so that a slow spell of the host hits them
    alike."""
    best = dict.fromkeys(runs, math.inf)
    for _ in range(rounds):
        for name, run in runs.items():
            started = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def _record_key(record):
    return (
        record.rid,
        record.arrival_ms,
        record.start_ms,
        record.finish_ms,
        record.seq_ms,
        record.final_degree,
        record.average_parallelism,
        record.thread_time_ms,
        record.core_time_ms,
        record.boosted,
        record.service_ms,
        record.contention_ms,
        record.boost_wait_ms,
        record.stall_ms,
    )


def _assert_identical(result, reference):
    """Every observable metric must match with ``==`` on raw floats —
    no tolerances: the optimizations claim bit-identity, not closeness."""
    assert len(result.records) == len(reference.records)
    for ours, theirs in zip(result.records, reference.records):
        assert _record_key(ours) == _record_key(theirs)
    assert [(s.rid, s.arrival_ms, s.shed_ms) for s in result.shed_records] == [
        (s.rid, s.arrival_ms, s.shed_ms) for s in reference.shed_records
    ]
    if result.records:
        assert result.tail_latency_ms(0.99) == reference.tail_latency_ms(0.99)
        assert result.mean_latency_ms() == reference.mean_latency_ms()
    assert result.cpu_utilization() == reference.cpu_utilization()
    assert result.fault_stats.as_dict() == reference.fault_stats.as_dict()


def _interval_table():
    from repro.core.schedule import Schedule, ScheduleStep
    from repro.core.table import IntervalTable

    # A hand-built FM table exercising immediate starts, admission
    # delays (v0 > 0), e1 queueing, and incremental degree raises,
    # without the profiling machinery.  Row i is the schedule at load
    # i + 1; loads past the end clamp to the e1 row.
    step = ScheduleStep
    return IntervalTable(
        [
            Schedule([step(0.0, 4)]),
            Schedule([step(0.0, 2), step(30.0, 4)]),
            Schedule([step(0.0, 2), step(30.0, 4)]),
            Schedule([step(0.0, 1), step(20.0, 2), step(60.0, 4)]),
            Schedule([step(0.0, 1), step(20.0, 2), step(60.0, 4)]),
            Schedule([step(10.0, 1), step(40.0, 2)]),
            Schedule([step(10.0, 1), step(40.0, 2)]),
            Schedule([step(0.0, 1)], wait_for_exit=True),
        ]
    )


class _LoopOnly(Engine):
    """The engine with its batch-kernel entry disabled: the per-request
    loops at every running-set size."""

    _batch_entry = float("inf")


class _SwitchCounting(Engine):
    """The default engine, counting its kernel switches and tracking its
    peak running-set size."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entries = 0
        self.exits = 0
        self.peak = 0

    def _start_request(self, *args, **kwargs):
        super()._start_request(*args, **kwargs)
        self.peak = max(self.peak, len(self._running))

    def _enter_batch(self):
        self.entries += 1
        super()._enter_batch()

    def _exit_batch(self):
        self.exits += 1
        super()._exit_batch()


_SCHEDULER_FACTORIES = {
    "seq": lambda: SequentialScheduler(),
    "fix4": lambda: FixedScheduler(4),
    "fix4-protected": lambda: FixedScheduler(4, load_protection=8, boost_after_ms=30.0),
    "adaptive": lambda: AdaptiveScheduler(max_degree=4, target_parallelism=6.0),
    "fm": lambda: FMScheduler(_interval_table()),
    "fm-noboost": lambda: FMScheduler(_interval_table(), boosting=False),
}


class TestBitIdentityWithBaseline:
    @pytest.mark.parametrize("policy", sorted(_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("load", ["light", "saturated"])
    def test_matches_reference_engine(self, policy, load):
        rps, n = (15.0, 300) if load == "light" else (70.0, 600)
        arrivals = _sweep_arrivals(
            rps, n, seed=zlib.crc32(f"{policy}/{load}".encode())
        )
        factory = _SCHEDULER_FACTORIES[policy]
        result = simulate(arrivals, factory(), cores=6)
        reference = simulate_baseline(arrivals, factory(), cores=6)
        _assert_identical(result, reference)

    @pytest.mark.parametrize("policy", ["fm", "fix4-protected"])
    def test_matches_reference_engine_under_faults(self, policy):
        arrivals = _sweep_arrivals(40.0, 400, seed=99)
        plan = FaultPlan.generate(
            seed=5,
            horizon_ms=arrivals[-1].time_ms + 5_000,
            core_fault_rate_hz=0.5,
            stall_rate_hz=1.0,
            straggler_rate=0.1,
            straggler_mu=0.7,
        )
        factory = _SCHEDULER_FACTORIES[policy]
        result = simulate(arrivals, factory(), cores=6, fault_plan=plan)
        reference = simulate_baseline(arrivals, factory(), cores=6, fault_plan=plan)
        _assert_identical(result, reference)

    def test_matches_reference_without_attribution(self):
        arrivals = _sweep_arrivals(50.0, 300, seed=3)
        result = simulate(
            arrivals, FMScheduler(_interval_table()), cores=6, attribution=False
        )
        reference = simulate_baseline(
            arrivals, FMScheduler(_interval_table()), cores=6, attribution=False
        )
        _assert_identical(result, reference)

    @pytest.mark.parametrize(
        "rps, topology",
        [(600.0, None), (180.0, Topology.homogeneous(bing_mod.CORES))],
        ids=["saturated", "single-pool"],
    )
    def test_matches_reference_on_quick_bing_cells(self, rps, topology):
        """FM on its QUICK Bing table, 1000 requests: saturated at 600
        RPS, where backlogs are deep, and at 180 RPS on a one-pool
        speed-1.0 topology, whose energy accounting must ride along
        without moving a bit."""
        arrivals, table, machine = _bing_cell(rps)
        result = simulate(arrivals, FMScheduler(table), topology=topology, **machine)
        reference = simulate_baseline(arrivals, FMScheduler(table), **machine)
        _assert_identical(result, reference)
        assert (result.energy is not None) == (topology is not None)

    def test_matches_reference_across_kernel_switches(self):
        """FIX-4 at 400 RPS on 4 cores grows the running set to ~390:
        past BATCH_ENTRY onto the batch kernels and, as it drains, back
        below BATCH_EXIT onto the loops — bit-identical throughout."""
        arrivals = _sweep_arrivals(400.0, 500, seed=77)
        engine = _SwitchCounting(cores=4, scheduler=FixedScheduler(4))
        result = engine.run(arrivals)
        reference = simulate_baseline(arrivals, FixedScheduler(4), cores=4)
        _assert_identical(result, reference)
        assert engine.peak > 300 and (engine.entries, engine.exits) == (1, 1)


class TestSpeedOverReference:
    def test_saturated_bing_cell_runs_at_least_1_5x_faster(self):
        """Same host, same trace: the engine against the frozen
        reference it matches bit for bit, best of three interleaved
        runs each (about 2.5x on a 2-vCPU host)."""
        arrivals, table, machine = _bing_cell(600.0)
        best = _interleaved_best(
            {
                "engine": lambda: simulate(arrivals, FMScheduler(table), **machine),
                "reference": lambda: simulate_baseline(
                    arrivals, FMScheduler(table), **machine
                ),
            },
            rounds=3,
        )
        assert best["reference"] / best["engine"] >= 1.5


class TestEngineReentrancy:
    def test_second_run_raises(self):
        engine = Engine(cores=2, scheduler=SequentialScheduler())
        engine.run(_arrivals([(0.0, 10.0)]))
        with pytest.raises(SimulationError, match="already ran"):
            engine.run(_arrivals([(0.0, 10.0)]))

    def test_failed_run_still_consumes_the_engine(self):
        engine = Engine(cores=2, scheduler=SequentialScheduler())
        with pytest.raises(SimulationError):
            engine.run([])  # no arrivals
        with pytest.raises(SimulationError, match="already ran"):
            engine.run(_arrivals([(0.0, 10.0)]))

    def test_simulate_builds_a_fresh_engine_per_call(self):
        arrivals = _arrivals([(0.0, 10.0), (1.0, 20.0)])
        first = simulate(arrivals, SequentialScheduler(), cores=2)
        second = simulate(arrivals, SequentialScheduler(), cores=2)
        assert [r.finish_ms for r in first.records] == [
            r.finish_ms for r in second.records
        ]


class _PureE1Scheduler(Scheduler):
    """Admission control only: every request waits for an exit."""

    name = "e1-probe"
    uses_quantum = False

    def on_arrival(self, ctx, request):
        return Admission.wait_for_exit()

    def on_wait_check(self, ctx, request):
        return Admission.wait_for_exit()


class TestDeepBacklogDrain:
    """The e1 backlog was a ``list`` drained with ``pop(0)`` — O(n^2)
    once overload queued thousands.  Now a deque: verify the drain stays
    FIFO and completes promptly at a backlog depth that made the
    quadratic path crawl."""

    def test_burst_backlog_drains_fifo(self):
        # Everyone arrives at once and queues behind the e1 marker; each
        # exit forces exactly one admission, so start order must be
        # strict arrival (rid) order all the way down the backlog.
        n = 3_000
        arrivals = [ArrivalSpec(0.0, 5.0, _CURVE) for _ in range(n)]
        result = simulate(arrivals, _PureE1Scheduler(), cores=2)
        assert len(result.records) == n
        starts = sorted(result.records, key=lambda r: (r.start_ms, r.rid))
        assert [r.rid for r in starts] == sorted(r.rid for r in result.records)

    def test_deep_backlog_matches_reference(self):
        arrivals = [ArrivalSpec(float(i % 3), 4.0, _CURVE) for i in range(800)]
        result = simulate(arrivals, FMScheduler(_interval_table()), cores=2)
        reference = simulate_baseline(
            arrivals, FMScheduler(_interval_table()), cores=2
        )
        _assert_identical(result, reference)


class _DelayingScheduler(Scheduler):
    """Delays every arrival, then admits on wake; records wake order."""

    name = "delay-probe"
    uses_quantum = False

    def __init__(self, delay_ms: float = 200.0) -> None:
        self.delay_ms = delay_ms
        self.wake_order: list[int] = []

    def on_arrival(self, ctx, request):
        return Admission.delay(self.delay_ms)

    def on_wait_check(self, ctx, request):
        if request.state is RequestState.DELAYED:
            self.wake_order.append(request.rid)
        return Admission.start(1)

    def reset(self) -> None:
        self.wake_order.clear()


class TestDelayedWakeOrder:
    """The delayed set was rescanned with ``sorted(set)`` on every wake;
    it is now a sorted list.  Wake order must remain arrival order."""

    def test_wakes_scan_in_arrival_order(self):
        # Interleave arrivals so insertion order into the delayed set
        # differs from a naive "latest first" ordering, then let exits
        # wake them: the scan must visit rids ascending (= arrival
        # order, since rids are assigned by sorted arrival time).
        scheduler = _DelayingScheduler(delay_ms=500.0)
        specs = [(0.0, 30.0)] + [(1.0 + 0.01 * i, 10.0) for i in range(20)]
        simulate(_arrivals(specs), scheduler, cores=2)
        waves: list[int] = scheduler.wake_order
        assert waves, "delayed requests never woke"
        # Within any single wake sweep rids must be non-decreasing
        # relative to the previous entry unless a new sweep started
        # (which restarts from the lowest still-delayed rid).
        sweeps: list[list[int]] = [[waves[0]]]
        for rid in waves[1:]:
            if rid > sweeps[-1][-1]:
                sweeps[-1].append(rid)
            else:
                sweeps.append([rid])
        for sweep in sweeps:
            assert sweep == sorted(sweep)

    def test_delay_heavy_run_matches_reference(self):
        scheduler_new = _DelayingScheduler(delay_ms=50.0)
        scheduler_old = _DelayingScheduler(delay_ms=50.0)
        specs = [(float(i % 7) * 3.0, 8.0 + i % 5) for i in range(200)]
        result = simulate(_arrivals(specs), scheduler_new, cores=2)
        reference = simulate_baseline(_arrivals(specs), scheduler_old, cores=2)
        _assert_identical(result, reference)


class TestEventsProcessedCounter:
    def test_counts_all_drained_events(self):
        engine = Engine(cores=4, scheduler=FixedScheduler(2))
        engine.run(_arrivals([(0.0, 50.0), (5.0, 50.0), (10.0, 50.0)]))
        # At minimum: one arrival per request, one completion event per
        # rate generation that fired, plus quantum ticks.
        assert engine.events_processed >= 6
