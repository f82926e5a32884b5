"""Streamed simulation (DESIGN.md §14): a streamed run must measure the
exact same completions as the record-keeping batch run, its summaries
must merge exactly, and the engine must hold only the running set when
fed a generator."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.errors import SimulationError
from repro.experiments.config import QUICK
from repro.experiments.runner import latency_histogram, stream_policy
from repro.faults.plan import FaultPlan
from repro.schedulers import FixedScheduler, FMScheduler, SequentialScheduler
from repro.sim import simulate, simulate_stream
from repro.sim.stream import StreamingCollector, StreamSummary
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess
from tests.sim.test_engine_equivalence import _SCHEDULER_FACTORIES, _sweep_arrivals
from tests.workloads.test_streaming import _workload


class TestStreamEqualsBatch:
    @pytest.mark.parametrize("policy", ["seq", "fm", "fix4-protected"])
    def test_histogram_bit_identical_to_batch_records(self, policy):
        """Streaming changes where samples go, not what they are: the
        streamed histogram holds the batch run's exact latency multiset
        — every bucket count, min, and max bit-identical.  (Only the
        true-sum accumulator may differ in the last ulp: it adds in
        completion order, while batch records are re-sorted by arrival
        at finalize.)"""
        arrivals = _sweep_arrivals(50.0, 400, seed=21)
        factory = _SCHEDULER_FACTORIES[policy]
        batch = simulate(arrivals, factory(), cores=6)
        summary = simulate_stream(iter(arrivals), factory(), cores=6)
        got, want = summary.histogram.state(), latency_histogram(batch).state()
        assert got[:5] == want[:5]  # grid, buckets, zero_count, count
        assert got[6:] == want[6:]  # min, max
        assert got[5] == pytest.approx(want[5], rel=1e-12)  # sum, reassociated
        assert summary.count == len(batch.records)
        assert summary.shed_count == len(batch.shed_records)
        assert summary.cpu_utilization() == batch.cpu_utilization()

    def test_vectorized_stream_equals_scalar_stream(self):
        arrivals = _sweep_arrivals(70.0, 400, seed=8)
        scalar = simulate_stream(
            iter(arrivals), _SCHEDULER_FACTORIES["fm"](), cores=6
        )
        vector = simulate_stream(
            iter(arrivals), _SCHEDULER_FACTORIES["fm"](), cores=6, vectorized=True
        )
        assert vector.histogram.state() == scalar.histogram.state()
        assert vector.as_dict() == scalar.as_dict()

    def test_generator_input_consumed_lazily(self):
        """The engine keeps O(running set) request objects when fed a
        generator — completed requests are discarded as they finish."""
        workload = _workload()
        stream = workload.arrival_stream(2000, PoissonProcess(40.0), seed=6)
        summary = simulate_stream(stream, FixedScheduler(2), cores=8)
        assert summary.count == 2000

    def test_faults_accounted(self):
        arrivals = _sweep_arrivals(40.0, 300, seed=55)
        plan = FaultPlan.generate(
            seed=5,
            horizon_ms=arrivals[-1].time_ms + 5_000,
            core_fault_rate_hz=0.5,
            stall_rate_hz=1.0,
            straggler_rate=0.1,
            straggler_mu=0.7,
        )
        batch = simulate(
            arrivals, _SCHEDULER_FACTORIES["fm"](), cores=6, fault_plan=plan
        )
        summary = simulate_stream(
            iter(arrivals), _SCHEDULER_FACTORIES["fm"](), cores=6, fault_plan=plan
        )
        got = summary.fault_stats.as_dict()
        want = batch.fault_stats.as_dict()
        # The streamed collector owns only completion/shed accounting;
        # injection counters come from the shared fault plan machinery.
        assert got["degraded_completions"] == want["degraded_completions"]
        assert got["shed_requests"] == want["shed_requests"]

    def test_shedding_summarized(self):
        from tests.sim.test_engine_equivalence import _interval_table

        arrivals = _sweep_arrivals(200.0, 300, seed=2)
        summary = simulate_stream(
            iter(arrivals),
            FMScheduler(_interval_table(), max_backlog=6),
            cores=4,
        )
        assert summary.shed_count > 0
        assert summary.count + summary.shed_count == 300
        assert 0.0 < summary.admitted_fraction < 1.0
        assert summary.fault_stats.shed_requests == summary.shed_count


class TestStreamedMemory:
    def _traced_peak_bytes(self, num_requests: int) -> int:
        """Peak traced allocation of one streamed FIX-4 run on the Bing
        workload at 120 RPS (seed 42)."""
        workload = bing_mod.bing_workload(profile_size=QUICK.profile_size)
        tracemalloc.start()
        try:
            summary = stream_policy(
                FixedScheduler(4),
                workload,
                rps=120.0,
                cores=bing_mod.CORES,
                num_requests=num_requests,
                quantum_ms=bing_mod.QUANTUM_MS,
                seed=42,
                spin_fraction=bing_mod.SPIN_FRACTION,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.count == num_requests
        return peak

    def test_peak_stays_flat_over_a_5x_longer_stream(self):
        """Memory is O(running set), not O(requests): 5x the requests
        at most doubles the traced peak (about 0.4 MB here, where a
        materialized trace grows with the stream)."""
        small = self._traced_peak_bytes(10_000)
        large = self._traced_peak_bytes(50_000)
        assert large <= 64 * 2**20
        assert large / small <= 2.0


class TestStreamSummaryMerge:
    def _two_summaries(self):
        a = simulate_stream(
            iter(_sweep_arrivals(40.0, 200, seed=1)), SequentialScheduler(), cores=4
        )
        b = simulate_stream(
            iter(_sweep_arrivals(40.0, 300, seed=2)), FixedScheduler(2), cores=4
        )
        return a, b

    def test_update_is_exact(self):
        a, b = self._two_summaries()
        merged = a.merge(b)
        assert merged.count == a.count + b.count == 500
        assert merged.duration_ms == a.duration_ms + b.duration_ms
        assert merged.histogram.count == a.histogram.count + b.histogram.count
        # Histogram bucket merge is integer addition — mean stays the
        # exact pooled mean (the histogram tracks the true sum).
        pooled = (
            a.mean_latency_ms() * a.count + b.mean_latency_ms() * b.count
        ) / 500
        assert merged.mean_latency_ms() == pytest.approx(pooled, rel=1e-12)

    def test_merge_is_nondestructive(self):
        a, b = self._two_summaries()
        before = (a.count, a.histogram.state(), a.fault_stats.as_dict())
        a.merge(b)
        assert (a.count, a.histogram.state(), a.fault_stats.as_dict()) == before

    def test_merge_is_order_sensitive_only_in_identity(self):
        a, b = self._two_summaries()
        assert a.merge(b).histogram.state() == b.merge(a).histogram.state()
        assert a.merge(b).as_dict() == b.merge(a).as_dict()

    def test_cores_mismatch_rejected(self):
        a, _ = self._two_summaries()
        other = StreamSummary(cores=8)
        with pytest.raises(SimulationError, match="different machines"):
            a.update(other)


class TestStreamingCollector:
    def test_zero_completions_rejected(self):
        collector = StreamingCollector(cores=4)
        with pytest.raises(SimulationError, match="no completed"):
            collector.finalize()

    def test_negative_interval_rejected(self):
        collector = StreamingCollector(cores=4)
        with pytest.raises(SimulationError, match="negative interval"):
            collector.observe_interval(-1.0, 0, 0.0, 0)

    def test_attribution_defaults_off_but_can_be_enabled(self):
        arrivals = _sweep_arrivals(40.0, 100, seed=3)
        default = simulate_stream(iter(arrivals), SequentialScheduler(), cores=4)
        explicit = simulate_stream(
            iter(arrivals), SequentialScheduler(), cores=4, attribution=True
        )
        # Attribution feeds per-request component records only; the
        # streamed summary is identical either way.
        assert default.histogram.state() == explicit.histogram.state()
