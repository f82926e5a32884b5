"""Tests for the tracing wrapper."""

from __future__ import annotations

from collections import Counter

from repro.core.schedule import Schedule, ScheduleStep
from repro.core.speedup import TabulatedSpeedup
from repro.core.table import IntervalTable
from repro.schedulers import FMScheduler, SequentialScheduler
from repro.sim.engine import ArrivalSpec, simulate
from repro.sim.trace import SCHED_TRACK, TraceEventKind, TraceRecorder

_CURVE = TabulatedSpeedup([1.0, 1.5, 2.0, 2.4])


def _spec(t: float, seq: float) -> ArrivalSpec:
    return ArrivalSpec(t, seq, _CURVE)


def _fm_table() -> IntervalTable:
    return IntervalTable(
        [
            Schedule([ScheduleStep(0.0, 1), ScheduleStep(50.0, 2), ScheduleStep(100.0, 4)]),
            Schedule([ScheduleStep(0.0, 1), ScheduleStep(50.0, 2), ScheduleStep(100.0, 4)]),
            Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True),
        ]
    )


def _decisions(recorder: TraceRecorder):
    return recorder.tracer.by_track(SCHED_TRACK)


def _counts(recorder: TraceRecorder) -> Counter:
    return Counter(TraceEventKind(span.name) for span in _decisions(recorder))


class TestTraceRecorder:
    def test_transparent_results(self):
        """Tracing must not change the simulation outcome."""
        specs = [_spec(0.0, 100.0), _spec(10.0, 300.0)]
        plain = simulate(specs, SequentialScheduler(), cores=4)
        traced = simulate(specs, TraceRecorder(SequentialScheduler()), cores=4)
        assert [r.finish_ms for r in plain.records] == [
            r.finish_ms for r in traced.records
        ]

    def test_records_admissions_and_exits(self):
        recorder = TraceRecorder(SequentialScheduler())
        simulate([_spec(0.0, 50.0), _spec(5.0, 50.0)], recorder, cores=4)
        counts = _counts(recorder)
        assert counts[TraceEventKind.ADMIT] == 2
        assert counts[TraceEventKind.EXIT] == 2

    def test_records_degree_climbs_and_boosts(self):
        recorder = TraceRecorder(FMScheduler(_fm_table()))
        simulate([_spec(0.0, 400.0)], recorder, cores=8, quantum_ms=5.0)
        assert _counts(recorder)[TraceEventKind.DEGREE_UP] >= 2  # d1->d2->d4
        timeline = [span for span in _decisions(recorder) if span.lane == 0]
        kinds = [TraceEventKind(span.name) for span in timeline]
        assert kinds[0] is TraceEventKind.ADMIT
        assert kinds[-1] is TraceEventKind.EXIT

    def test_records_queueing(self):
        recorder = TraceRecorder(FMScheduler(_fm_table()))
        simulate([_spec(0.0, 100.0)] * 3, recorder, cores=8, quantum_ms=5.0)
        assert _counts(recorder)[TraceEventKind.QUEUE] >= 1

        # d1 at load 1, e1 from load 2: requests 1 and 2 queue behind
        # request 0.  At its exit the table admits request 1, and the
        # engine itself starts request 2 (one forced e1 start per exit).
        # That forced start is an admit too, at its record's start_ms.
        table = IntervalTable(
            [
                Schedule([ScheduleStep(0.0, 1)]),
                Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True),
            ]
        )
        recorder = TraceRecorder(FMScheduler(table))
        result = simulate([_spec(0.0, 100.0)] * 3, recorder, cores=8, quantum_ms=5.0)
        counts = _counts(recorder)
        assert counts[TraceEventKind.ADMIT] == counts[TraceEventKind.EXIT] == 3
        admits = {
            span.lane: span
            for span in _decisions(recorder)
            if span.name == TraceEventKind.ADMIT.value
        }
        for record in result.records:
            assert admits[record.rid].start_ms == record.start_ms
            assert admits[record.rid].attrs["detail"] == f"d{record.final_degree}"
        assert max(r.start_ms for r in result.records) == 100.0

    def test_sheds_are_not_recorded_as_queueing(self):
        # The same two-row table with a backlog bound of one: request 1
        # queues (e1), requests 2-4 find the backlog full and are shed.
        table = IntervalTable(
            [
                Schedule([ScheduleStep(0.0, 1)]),
                Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True),
            ]
        )
        recorder = TraceRecorder(FMScheduler(table, max_backlog=1))
        result = simulate([_spec(0.0, 100.0)] * 5, recorder, cores=8, quantum_ms=5.0)
        assert len(result.records) == 2 and len(result.shed_records) == 3
        counts = _counts(recorder)
        assert counts[TraceEventKind.QUEUE] == 1
        assert counts[TraceEventKind.SHED] == 3
        shed = [s for s in _decisions(recorder) if s.name == TraceEventKind.SHED.value]
        assert sorted(s.lane for s in shed) == sorted(r.rid for r in result.shed_records)
        assert {s.attrs["detail"] for s in shed} == {"backlog"}

    def test_deadline_sheds_name_their_cause(self):
        table = IntervalTable(
            [
                Schedule([ScheduleStep(0.0, 1)]),
                Schedule([ScheduleStep(0.0, 1)], wait_for_exit=True),
            ]
        )
        recorder = TraceRecorder(FMScheduler(table, deadline_ms=50.0))
        result = simulate([_spec(0.0, 100.0)] * 3, recorder, cores=8, quantum_ms=5.0)
        assert result.shed_records
        shed = [s for s in _decisions(recorder) if s.name == TraceEventKind.SHED.value]
        assert len(shed) == len(result.shed_records)
        assert {s.attrs["detail"] for s in shed} == {"deadline"}

    def test_decisions_are_instants_with_load_and_detail(self):
        recorder = TraceRecorder(SequentialScheduler())
        simulate([_spec(0.0, 50.0)] * 4, recorder, cores=8)
        decisions = _decisions(recorder)
        assert len(decisions) == 8  # an admit and an exit per request
        for span in decisions:
            assert span.kind == "instant" and span.duration_ms == 0.0
            assert span.attrs["detail"]
            if span.name == TraceEventKind.ADMIT.value:
                assert span.attrs["load"] >= 1  # the candidate counts itself

    def test_reset_clears_decisions(self):
        recorder = TraceRecorder(SequentialScheduler())
        simulate([_spec(0.0, 50.0)], recorder, cores=4)
        assert _decisions(recorder)
        recorder.reset()
        assert recorder.tracer.spans == []

    def test_name_and_quantum_passthrough(self):
        recorder = TraceRecorder(SequentialScheduler())
        assert recorder.uses_quantum is False
        assert "SEQ" in recorder.name
