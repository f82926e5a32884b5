"""Tests for metrics collection and result views."""

from __future__ import annotations

import pytest

from repro.core.speedup import TabulatedSpeedup
from repro.errors import SimulationError
from repro.sim.metrics import MetricsCollector, RequestRecord, SimulationResult
from repro.sim.request import SimRequest
from repro.sim.stream import StreamingCollector

_CURVE = TabulatedSpeedup([1.0, 1.5, 2.0])


def _record(rid: int, arrival: float, latency: float, seq: float,
            degree: int = 1, avg_par: float = 1.0) -> RequestRecord:
    return RequestRecord(
        rid=rid,
        arrival_ms=arrival,
        start_ms=arrival,
        finish_ms=arrival + latency,
        seq_ms=seq,
        final_degree=degree,
        average_parallelism=avg_par,
        thread_time_ms=latency * avg_par,
        core_time_ms=latency,
        boosted=False,
    )


def _result(records, cores=4, duration=1000.0) -> SimulationResult:
    return SimulationResult(
        records=records,
        cores=cores,
        duration_ms=duration,
        thread_integral=2000.0,
        core_busy_integral=1600.0,
        system_count_integral=3000.0,
        thread_residency={2: 600.0, 8: 400.0},
    )


class TestCollector:
    def test_collects_and_finalizes(self):
        collector = MetricsCollector(cores=4)
        req = SimRequest(0, 0.0, 50.0, _CURVE)
        req.start(10.0, 1)
        req.rate = 1.0
        req.advance(50.0, 1.0)
        req.finish(60.0)
        collector.record(req)
        collector.observe_interval(60.0, 1, 1.0, 1)
        result = collector.finalize()
        assert len(result) == 1
        assert result.records[0].latency_ms == pytest.approx(60.0)

    def test_rejects_unfinished(self):
        collector = MetricsCollector(cores=4)
        with pytest.raises(SimulationError):
            collector.record(SimRequest(0, 0.0, 50.0, _CURVE))

    def test_rejects_negative_interval(self):
        with pytest.raises(SimulationError):
            MetricsCollector(cores=4).observe_interval(-1.0, 0, 0.0, 0)

    @pytest.mark.parametrize("collector_cls", [MetricsCollector, StreamingCollector])
    def test_interval_runs_equal_single_intervals_bitwise(self, collector_cls):
        """``observe_intervals`` is the deferred-tick replay of the
        integrals: the same additions as one call per interval."""
        def integrals(collector):
            return {k: v for k, v in vars(collector).items() if k.startswith("_")}

        dts = [0.1, 1e-3, 7.3, 0.1, 2.0 / 3.0]
        one, many = collector_cls(cores=4), collector_cls(cores=4)
        for collector in (one, many):
            collector.observe_interval(0.7, 2, 1.9, 3)
        for dt in dts:
            one.observe_interval(dt, 5, 3.3, 6)
        many.observe_intervals(dts, 5, 3.3, 6)
        assert integrals(one) == integrals(many)
        with pytest.raises(SimulationError):
            many.observe_intervals([1.0, -1.0], 5, 3.3, 6)
        assert integrals(one) == integrals(many)  # rejected before any change

    def test_empty_result_rejected(self):
        with pytest.raises(SimulationError):
            MetricsCollector(cores=4).finalize()


class TestResultViews:
    def test_latency_stats(self):
        records = [_record(i, float(i), 10.0 + i, seq=10.0) for i in range(100)]
        result = _result(records)
        assert result.mean_latency_ms() == pytest.approx(10.0 + 49.5)
        assert result.tail_latency_ms(0.99) == pytest.approx(10.0 + 98.0)
        assert result.tail_latency_ms(1.0) == pytest.approx(10.0 + 99.0)

    def test_system_gauges(self):
        result = _result([_record(0, 0.0, 10.0, 10.0)])
        assert result.average_threads() == pytest.approx(2.0)
        assert result.cpu_utilization() == pytest.approx(1600.0 / 4000.0)
        assert result.average_system_count() == pytest.approx(3.0)

    def test_thread_count_distribution(self):
        result = _result([_record(0, 0.0, 10.0, 10.0)])
        dist = result.thread_count_distribution([(0, 5), (6, 10)])
        assert dist["0-5"] == pytest.approx(0.6)
        assert dist["6-10"] == pytest.approx(0.4)

    def test_demand_band_parallelism(self):
        records = [
            _record(0, 0.0, 5.0, seq=10.0, avg_par=1.0),
            _record(1, 1.0, 5.0, seq=20.0, avg_par=2.0),
            _record(2, 2.0, 5.0, seq=900.0, avg_par=4.0),
        ]
        result = _result(records)
        assert result.average_parallelism(0.67, 1.0) == pytest.approx(4.0)
        assert result.average_parallelism(0.0, 0.33) == pytest.approx(1.0)
        assert result.average_parallelism() == pytest.approx(7.0 / 3.0)

    def test_final_degree_histogram(self):
        records = [
            _record(0, 0.0, 5.0, 10.0, degree=1),
            _record(1, 1.0, 5.0, 10.0, degree=1),
            _record(2, 2.0, 5.0, 10.0, degree=4),
            _record(3, 3.0, 5.0, 10.0, degree=4),
        ]
        hist = _result(records).final_degree_histogram()
        assert hist == {1: 0.5, 4: 0.5}

    def test_band_validation(self):
        result = _result([_record(0, 0.0, 5.0, 10.0)])
        with pytest.raises(ValueError):
            result.average_parallelism(0.5, 0.5)


class TestSlicing:
    def test_slice_by_arrival(self):
        records = [_record(i, float(i), 10.0, 10.0) for i in range(10)]
        result = _result(records)
        tail_slice = result.slice_by_arrival(8, 10)
        assert len(tail_slice) == 2
        assert tail_slice.records[0].rid == 8
        # integrals scale with the retained fraction
        assert tail_slice.duration_ms == pytest.approx(200.0)
        assert tail_slice.average_threads() == pytest.approx(result.average_threads())

    def test_empty_slice_rejected(self):
        result = _result([_record(0, 0.0, 5.0, 10.0)])
        with pytest.raises(ValueError):
            result.slice_by_arrival(5, 6)

    def test_records_sorted_by_arrival(self):
        collector = MetricsCollector(cores=2)
        for rid, arrival in [(0, 50.0), (1, 10.0)]:
            req = SimRequest(rid, arrival, 5.0, _CURVE)
            req.start(arrival, 1)
            req.rate = 1.0
            req.advance(5.0, 1.0)
            req.finish(arrival + 5.0)
            collector.record(req)
        collector.observe_interval(10.0, 1, 1.0, 1)
        result = collector.finalize()
        assert [r.rid for r in result.records] == [1, 0]
