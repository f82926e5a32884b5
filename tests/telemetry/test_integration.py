"""End-to-end telemetry wiring: sim engine, trace recorder, search
executor, live runtime, and cluster simulation all report into one
pipeline — and report nothing when disabled."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import Schedule, ScheduleStep
from repro.core.speedup import TabulatedSpeedup, UniformSpeedupModel
from repro.core.table import IntervalTable
from repro.cluster.simulation import simulate_cluster
from repro.runtime import LiveFMServer, LiveRequest, make_slices
from repro.schedulers import FMScheduler, SequentialScheduler
from repro.search.corpus import generate_corpus, generate_query_log
from repro.search.executor import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import parse_query
from repro.sim.engine import ArrivalSpec, Engine, simulate
from repro.sim.stream import StreamingCollector
from repro.sim.trace import SCHED_TRACK, TraceRecorder
from repro.telemetry import Telemetry, install
from repro.workloads.arrivals import UniformProcess
from repro.workloads.workload import Workload

_CURVE = TabulatedSpeedup([1.0, 1.5, 2.0, 2.4])


def _specs(pairs) -> list[ArrivalSpec]:
    return [ArrivalSpec(t, s, _CURVE) for t, s in pairs]


def _capacity_table(rows: int = 2) -> IntervalTable:
    """``rows`` immediate-start rows, then e1 (queue for an exit)."""
    return IntervalTable(
        [Schedule([ScheduleStep(0.0, 1)])] * rows
        + [Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True)]
    )


class TestSimEngine:
    def test_run_spans_match_records(self):
        telemetry = Telemetry()
        result = simulate(
            _specs([(0.0, 50.0), (10.0, 80.0), (20.0, 30.0)]),
            SequentialScheduler(),
            cores=4,
            telemetry=telemetry,
        )
        runs = [s for s in telemetry.tracer.by_track("sim") if s.name == "run"]
        assert len(runs) == 3
        by_lane = {s.lane: s for s in runs}
        for record in result.records:
            span = by_lane[record.rid]
            assert span.start_ms == pytest.approx(record.start_ms)
            assert span.end_ms == pytest.approx(record.finish_ms)
            assert span.attrs["latency_ms"] == pytest.approx(record.latency_ms)
        metrics = telemetry.metrics
        assert metrics.counters["sim.arrivals"].value == 3
        assert metrics.counters["sim.completions"].value == 3
        assert metrics.histograms["sim.latency_ms"].count == 3

    def test_streamed_run_folds_its_rows_as_it_goes(self, monkeypatch):
        """With telemetry and no live plane, completion rows fold every
        4096 rows: a streamed run of 10 000 requests holds no more, and
        its registry reads as the full-record run's."""
        pending = []
        fold = Engine._fold

        def watched(engine):
            pending.append(len(engine._rows))
            fold(engine)

        monkeypatch.setattr(Engine, "_fold", watched)
        specs = _specs([(2.0 * i, 1.0 + i % 7) for i in range(10_000)])
        registries = []
        for streamed in (False, True):
            telemetry = Telemetry()
            Engine(
                4,
                SequentialScheduler(),
                telemetry=telemetry,
                collector=StreamingCollector(4) if streamed else None,
            ).run(iter(specs) if streamed else specs)
            registries.append(telemetry.metrics.as_dict())
        assert registries[1] == registries[0]
        assert registries[0]["counters"]["sim.completions"] == 10_000
        assert max(pending) == 4096
        assert pending.count(4096) == 4  # two per run

    def test_queue_span_precedes_run(self):
        telemetry = Telemetry()
        simulate(
            _specs([(0.0, 100.0)] * 3),
            FMScheduler(_capacity_table(rows=2)),
            cores=8,
            telemetry=telemetry,
        )
        spans = telemetry.tracer.by_track("sim")
        queues = [s for s in spans if s.name == "queue"]
        assert queues, "third simultaneous arrival must record queueing"
        for queue_span in queues:
            run = next(
                s for s in spans if s.name == "run" and s.lane == queue_span.lane
            )
            assert queue_span.end_ms == pytest.approx(run.start_ms)
            assert queue_span.attrs["wait"] == "queued"
        assert telemetry.metrics.gauges["sim.queue_depth"].max_value >= 1

    def test_degree_raises_counted(self):
        climbing = Schedule(
            [ScheduleStep(0.0, 1), ScheduleStep(50.0, 2), ScheduleStep(100.0, 4)]
        )
        telemetry = Telemetry()
        simulate(
            _specs([(0.0, 400.0)]),
            FMScheduler(IntervalTable([climbing])),
            cores=8,
            quantum_ms=5.0,
            telemetry=telemetry,
        )
        assert telemetry.metrics.counters["sim.degree_raises"].value >= 2

    def test_shed_spans_and_counters(self):
        telemetry = Telemetry()
        result = simulate(
            _specs([(0.0, 200.0)] * 6),
            FMScheduler(_capacity_table(rows=1), max_backlog=1),
            cores=8,
            telemetry=telemetry,
        )
        assert result.shed_count > 0
        sheds = [s for s in telemetry.tracer.by_track("sim") if s.name == "shed"]
        assert len(sheds) == result.shed_count
        assert telemetry.metrics.counters["sim.sheds"].value == result.shed_count
        # shed requests never enter the latency histogram
        assert telemetry.metrics.histograms["sim.latency_ms"].count == len(
            result.records
        )

    def test_disabled_telemetry_records_nothing(self):
        ambient = Telemetry()
        with install(ambient):
            simulate(
                _specs([(0.0, 50.0)]),
                SequentialScheduler(),
                cores=4,
                telemetry=Telemetry(enabled=False),
            )
        assert ambient.tracer.spans == []
        assert ambient.metrics.as_dict()["counters"] == {}

    def test_ambient_telemetry_is_picked_up(self):
        ambient = Telemetry()
        with install(ambient):
            simulate(_specs([(0.0, 50.0)]), SequentialScheduler(), cores=4)
        assert any(s.name == "run" for s in ambient.tracer.by_track("sim"))

    def test_identical_results_with_and_without_telemetry(self):
        specs = [(i * 7.0, 40.0 + 11.0 * (i % 5)) for i in range(30)]
        plain = simulate(_specs(specs), SequentialScheduler(), cores=4)
        traced = simulate(
            _specs(specs), SequentialScheduler(), cores=4, telemetry=Telemetry()
        )
        assert [r.finish_ms for r in plain.records] == [
            r.finish_ms for r in traced.records
        ]


class TestTraceRecorderIntegration:
    def test_shared_pipeline_holds_engine_and_scheduler_spans(self):
        telemetry = Telemetry()
        recorder = TraceRecorder(SequentialScheduler(), telemetry=telemetry)
        simulate(
            _specs([(0.0, 50.0), (5.0, 50.0)]),
            recorder,
            cores=4,
            telemetry=telemetry,
        )
        tracks = set(telemetry.tracer.tracks())
        assert {"sim", SCHED_TRACK} <= tracks
        assert recorder.tracer is telemetry.tracer

    def test_decisions_land_on_the_shared_tracer(self):
        telemetry = Telemetry()
        recorder = TraceRecorder(SequentialScheduler(), telemetry=telemetry)
        simulate(_specs([(0.0, 50.0)]), recorder, cores=4, telemetry=telemetry)
        decisions = telemetry.tracer.by_track(SCHED_TRACK)
        assert [span.name for span in decisions] == ["admit", "exit"]

    def test_reset_shared_removes_only_scheduler_track(self):
        telemetry = Telemetry()
        recorder = TraceRecorder(SequentialScheduler(), telemetry=telemetry)
        simulate(_specs([(0.0, 50.0)]), recorder, cores=4, telemetry=telemetry)
        recorder.reset()
        assert telemetry.tracer.by_track(SCHED_TRACK) == []
        assert telemetry.tracer.by_track("sim"), "engine spans must survive"


class TestSearchEngine:
    @pytest.fixture(scope="class")
    def index(self):
        return InvertedIndex.build(generate_corpus(150, seed=3), num_segments=4)

    def test_query_and_segment_spans(self, index):
        telemetry = Telemetry()
        engine = SearchEngine(index, telemetry=telemetry)
        engine.execute(parse_query(generate_query_log(1, seed=5)[0]))
        spans = telemetry.tracer.by_track("search")
        query_spans = [s for s in spans if s.name == "query"]
        segment_spans = [s for s in spans if s.name == "segment"]
        assert len(query_spans) == 1
        assert len(segment_spans) == 4
        for segment_span in segment_spans:
            assert segment_span.parent_id == query_spans[0].span_id
        assert telemetry.metrics.counters["search.queries"].value == 1
        assert telemetry.metrics.counters["search.segments"].value == 4
        assert telemetry.metrics.histograms["search.coverage"].count == 1

    def test_deadline_skips_are_counted(self, index):
        telemetry = Telemetry()
        engine = SearchEngine(index, telemetry=telemetry)
        execution = engine.execute(
            parse_query(generate_query_log(1, seed=5)[0]), deadline_units=1e-6
        )
        assert execution.is_partial
        metrics = telemetry.metrics
        assert metrics.counters["search.segments_skipped"].value == len(
            execution.skipped_segments
        )
        assert metrics.counters["search.deadline_hits"].value == 1

    def test_results_unchanged_by_telemetry(self, index):
        query = parse_query(generate_query_log(1, seed=9)[0])
        plain = SearchEngine(index).execute(query)
        traced = SearchEngine(index, telemetry=Telemetry()).execute(query)
        assert [h.doc_id for h in plain.hits] == [h.doc_id for h in traced.hits]


class TestLiveRuntime:
    def _table(self) -> IntervalTable:
        return IntervalTable(
            [Schedule([ScheduleStep(0.0, 1), ScheduleStep(60.0, 2)])] * 4
            + [Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True)]
        )

    def test_wall_clock_spans_and_latency_histogram(self):
        telemetry = Telemetry()
        server = LiveFMServer(
            self._table(), workers=4, quantum_ms=5.0, telemetry=telemetry
        )
        for rid in range(3):
            server.submit(LiveRequest(rid, make_slices(30.0, 10.0)))
        stats = server.drain(timeout_s=10.0)
        assert stats.completed == 3
        runs = [s for s in telemetry.tracer.by_track("runtime") if s.name == "run"]
        assert len(runs) == 3
        for span in runs:
            assert span.duration_ms > 0.0
        metrics = telemetry.metrics
        assert metrics.counters["runtime.arrivals"].value == 3
        assert metrics.counters["runtime.completions"].value == 3
        assert metrics.histograms["runtime.latency_ms"].count == 3

    def test_queue_shed_records_shed_span(self):
        telemetry = Telemetry()
        server = LiveFMServer(
            self._table(), workers=2, quantum_ms=5.0, max_queue=0,
            telemetry=telemetry,
        )
        submitted = 0
        for rid in range(8):
            try:
                server.submit(LiveRequest(rid, make_slices(60.0, 10.0)))
                submitted += 1
            except Exception:
                pass
        server.drain(timeout_s=15.0)
        sheds = telemetry.metrics.counters.get("runtime.sheds")
        if sheds is not None and sheds.value:
            shed_spans = [
                s for s in telemetry.tracer.by_track("runtime") if s.name == "shed"
            ]
            assert len(shed_spans) == sheds.value


class TestCluster:
    def _workload(self) -> Workload:
        curve = TabulatedSpeedup([1.0, 1.7, 2.2, 2.5])

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            return rng.uniform(10.0, 60.0, size=n)

        return Workload(
            name="test",
            sampler=sampler,
            speedup_model=UniformSpeedupModel(curve),
            max_degree=4,
            profile_size=100,
        )

    def test_shard_spans_one_per_server_query(self):
        telemetry = Telemetry()
        simulate_cluster(
            scheduler_factory=SequentialScheduler,
            workload=self._workload(),
            num_servers=3,
            num_queries=10,
            process=UniformProcess(30.0),
            cores=4,
            seed=2,
            telemetry=telemetry,
        )
        shard_spans = telemetry.tracer.by_track("cluster")
        assert len(shard_spans) == 30
        assert {s.lane for s in shard_spans} == set(range(10))
        assert {s.attrs["server"] for s in shard_spans} == {0, 1, 2}
        assert telemetry.metrics.histograms["cluster.query_latency_ms"].count == 10

    def test_inner_engines_do_not_leak_into_ambient(self):
        ambient = Telemetry()
        with install(ambient):
            simulate_cluster(
                scheduler_factory=SequentialScheduler,
                workload=self._workload(),
                num_servers=2,
                num_queries=5,
                process=UniformProcess(30.0),
                cores=4,
                seed=2,
            )
        tracks = set(ambient.tracer.tracks())
        assert "cluster" in tracks
        assert "sim" not in tracks, "per-server engines must stay suppressed"
