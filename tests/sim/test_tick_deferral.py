"""Deferred and skipped quantum ticks change no simulated bit
(DESIGN.md §10).

On its per-request loops the engine logs a tick's interval instead of
committing it and replays the log, request by request, before the next
commit that is not a tick; and it skips the hook of a tick whose
request's progress is below its scheduler's tick horizon.  The
reference is the same engine with both off: ``_EagerTicks`` commits
every tick on the spot and ``_EveryHook`` forwards every hook and
answers ``-inf`` for the horizon, so no tick is skipped.  Records, shed
records, fault stats, the result integrals and streamed summaries must
all be ``==``, with fewer hook calls wherever FM's horizon applies.
The horizon itself is checked against ``on_quantum`` over random
interval tables.
"""

from __future__ import annotations

import math
import sys
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.schedule import Schedule, ScheduleStep
from repro.core.search import SearchConfig
from repro.core.speedup import UniformSpeedupModel
from repro.core.table import IntervalTable
from repro.experiments.ablations import _StaleLoadFM
from repro.faults.plan import FaultPlan
from repro.hetero.pools import Topology
from repro.schedulers import (
    EnergyAwareFMScheduler,
    FixedScheduler,
    FMScheduler,
    ReprofilingFMScheduler,
)
from repro.sim.api import Scheduler
from repro.sim.engine import Engine
from repro.sim.request import SimRequest
from repro.sim.stream import StreamingCollector, StreamSummary
from repro.sim.trace import SCHED_TRACK, TraceEventKind, TraceRecorder
from repro.sim.vector import VectorEngine
from tests.sim.test_engine import _CURVE
from tests.sim.test_engine_equivalence import (
    _LoopOnly,
    _assert_identical,
    _interval_table,
    _sweep_arrivals,
)

_CORES = 6


class _EagerTicks(Engine):
    """The engine with every tick committed when it fires: the loop
    ``_commit`` in place of the pending-tick log (batch mode still
    binds its own kernel, as in the engine)."""

    _defer = Engine._commit


class _EagerLoopOnly(_EagerTicks):
    _batch_entry = float("inf")


class _EveryHook(Scheduler):
    """Forwards every hook to ``inner`` and answers ``-inf`` for the
    tick horizon, so no tick is ever skipped."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.uses_quantum = inner.uses_quantum
        self.name = inner.name

    def on_arrival(self, ctx, request):
        return self.inner.on_arrival(ctx, request)

    def on_wait_check(self, ctx, request):
        return self.inner.on_wait_check(ctx, request)

    def on_quantum(self, ctx, request):
        return self.inner.on_quantum(ctx, request)

    def on_exit(self, ctx, request):
        self.inner.on_exit(ctx, request)

    def tick_horizon(self, ctx, request):
        return -math.inf

    def reset(self) -> None:
        self.inner.reset()


def _reprofiling() -> ReprofilingFMScheduler:
    return ReprofilingFMScheduler(
        _interval_table(),
        UniformSpeedupModel(_CURVE),
        SearchConfig(max_degree=4, target_parallelism=6.0, step_ms=40.0, num_bins=8),
        window=60,
        rebuild_every_ms=1_500.0,
        min_samples=20,
    )


_SCHEDULERS = {
    "fm": lambda: FMScheduler(_interval_table()),
    "fm-noboost": lambda: FMScheduler(_interval_table(), boosting=False),
    "fm-wall": lambda: FMScheduler(_interval_table(), progress="wall"),
    "fix-boost": lambda: FixedScheduler(2, boost_after_ms=30.0),
    "fm-reprofile": _reprofiling,
    "trace-fm": lambda: TraceRecorder(FMScheduler(_interval_table())),
}

#: The policies whose horizon skips hooks: FM below its row's next step
#: (effective progress) or at its table's top degree (either progress).
_SKIPPING = {"fm", "fm-noboost", "fm-wall", "trace-fm"}

#: (engine under test, reference engine, streamed arrivals, streaming
#: collector, kernel switch sizes).  The batch kernels commit every tick
#: anyway, so on ``VectorEngine`` only the skipped ticks differ.
_MODES = {
    "loop": (_LoopOnly, _EagerLoopOnly, False, False, None),
    "loop-streamed-summary": (_LoopOnly, _EagerLoopOnly, True, True, None),
    "vector": (VectorEngine, VectorEngine, False, False, None),
    "switching-streamed": (Engine, _EagerTicks, True, False, (3, 2)),
}


def _arrivals(load: str, key: str):
    rps, n = (15.0, 150) if load == "light" else (70.0, 240)
    return _sweep_arrivals(rps, n, seed=zlib.crc32(f"{key}/{load}".encode()))


def _fault_plan(arrivals) -> FaultPlan:
    return FaultPlan.generate(
        seed=5,
        horizon_ms=arrivals[-1].time_ms + 5_000,
        core_fault_rate_hz=0.5,
        stall_rate_hz=1.0,
        straggler_rate=0.1,
        straggler_mu=0.7,
    )


def _counting(scheduler: Scheduler) -> dict:
    """Count ``scheduler.on_quantum`` calls (an instance-level wrapper;
    ``tick_horizon`` is left alone, so the engine still asks it)."""
    calls = {"on_quantum": 0}
    original = scheduler.on_quantum

    def on_quantum(ctx, request):
        calls["on_quantum"] += 1
        return original(ctx, request)

    scheduler.on_quantum = on_quantum
    return calls


def _run(engine_cls, scheduler, arrivals, *, plan=None, streamed=False,
         summary=False, sizes=None, topology=None):
    engine = engine_cls(
        cores=_CORES,
        scheduler=scheduler,
        fault_plan=plan,
        topology=topology,
        collector=StreamingCollector(_CORES) if summary else None,
    )
    if sizes is not None:
        engine._batch_entry, engine._batch_exit = sizes
    result = engine.run(iter(arrivals) if streamed else arrivals)
    return engine, result


def _integrals(result) -> tuple:
    if isinstance(result, StreamSummary):
        return (
            result.count,
            result.shed_count,
            result.duration_ms,
            result.thread_integral,
            result.core_busy_integral,
            result.system_count_integral,
            result.histogram.state(),
            result.fault_stats.as_dict(),
        )
    return (
        result.duration_ms,
        result._thread_integral,
        result._core_busy_integral,
        result._system_count_integral,
        sorted(result._thread_residency.items()),
    )


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("faults", [False, True], ids=["no-faults", "faults"])
@pytest.mark.parametrize("load", ["light", "saturated"])
@pytest.mark.parametrize("policy", sorted(_SCHEDULERS))
def test_deferred_and_skipped_ticks_match_eager_ticking(policy, load, faults, mode):
    engine_cls, reference_cls, streamed, summary, sizes = _MODES[mode]
    arrivals = _arrivals(load, policy)
    plan = _fault_plan(arrivals) if faults else None
    options = dict(plan=plan, streamed=streamed, summary=summary, sizes=sizes)
    factory = _SCHEDULERS[policy]
    scheduler = factory()
    calls = _counting(scheduler)
    engine, result = _run(engine_cls, scheduler, arrivals, **options)
    inner = factory()
    reference_calls = _counting(inner)
    reference_engine, reference = _run(
        reference_cls, _EveryHook(inner), arrivals, **options
    )
    if not summary:
        _assert_identical(result, reference)
    assert _integrals(result) == _integrals(reference)
    assert engine.events_processed == reference_engine.events_processed
    assert engine.work["tick_hooks"] == calls["on_quantum"]
    assert reference_engine.work["tick_hooks"] == reference_calls["on_quantum"] > 0
    if policy in _SKIPPING:
        assert calls["on_quantum"] < reference_calls["on_quantum"]
    else:
        assert calls["on_quantum"] == reference_calls["on_quantum"]


@pytest.mark.parametrize(
    "factory, topology",
    [
        (lambda: EnergyAwareFMScheduler(_interval_table()),
         Topology.big_little(big=2, little=4)),
        (_reprofiling, None),
        (lambda: _StaleLoadFM(_interval_table(), 40.0), None),
    ],
    ids=["ea-fm-big-little", "fm-reprofile", "fm-stale-load"],
)
@pytest.mark.parametrize("load", ["light", "saturated"])
def test_policies_that_act_on_ticks_keep_every_hook(factory, topology, load):
    """EA-FM migrates on ticks, re-profiling FM swaps tables and the
    stale-load ablation FM samples the load on ticks, so each answers
    ``-inf`` and no tick of theirs is skipped: same hook calls, same
    results."""
    arrivals = _arrivals(load, "acting")
    scheduler = factory()
    calls = _counting(scheduler)
    _, result = _run(Engine, scheduler, arrivals, topology=topology)
    inner = factory()
    reference_calls = _counting(inner)
    _, reference = _run(
        _EagerTicks, _EveryHook(inner), arrivals, topology=topology
    )
    assert calls["on_quantum"] == reference_calls["on_quantum"] > 0
    _assert_identical(result, reference)
    assert _integrals(result) == _integrals(reference)
    assert [r.migrations for r in result.records] == [
        r.migrations for r in reference.records
    ]


def test_trace_recorder_forwards_the_tick_horizon():
    inner = FMScheduler(_interval_table())
    recorder = TraceRecorder(inner)
    request = SimRequest(0, 0.0, 50.0, _CURVE)
    request.start(0.0, 4)
    ctx = _Context(load=2)
    assert recorder.tick_horizon(ctx, request) == inner.tick_horizon(ctx, request)
    assert recorder.tick_horizon(ctx, request) == math.inf
    request.degree = 2
    assert recorder.tick_horizon(ctx, request) == inner.tick_horizon(ctx, request)
    assert recorder.tick_horizon(ctx, request) < math.inf


@pytest.mark.parametrize("load", ["light", "saturated"])
def test_trace_recorder_records_the_same_raises_and_boosts(load):
    """Skipped ticks would have recorded nothing: the recorder's
    ``degree_up`` and ``boost`` instants are the same with skipping on
    (the recorder forwards FM's horizon) and off."""
    arrivals = _arrivals(load, "trace")
    recorders = [TraceRecorder(FMScheduler(_interval_table())) for _ in range(2)]
    _run(Engine, recorders[0], arrivals)
    _run(Engine, _EveryHook(recorders[1]), arrivals)
    seen = [
        [
            (span.name, span.start_ms, span.lane, span.attrs)
            for span in recorder.tracer.by_track(SCHED_TRACK)
            if span.name in (TraceEventKind.DEGREE_UP.value, TraceEventKind.BOOST.value)
        ]
        for recorder in recorders
    ]
    assert seen[0] == seen[1]
    assert {name for name, *_ in seen[0]} == {"degree_up", "boost"}


class _Context:
    """The context reads FM's hooks make: the load, the clock and the
    boost actuator (which records its calls and grants nothing)."""

    def __init__(self, load: int) -> None:
        self.system_count = load
        self.now_ms = 0.0
        self.boosts = 0

    def try_boost(self, request, degree) -> bool:
        self.boosts += 1
        return False


@st.composite
def _tables(draw) -> IntervalTable:
    """Random interval tables: rows of strictly increasing step times
    (any magnitude, so ``time - start`` and the threshold slack round)
    and strictly increasing degrees, some rows marked ``e1``."""
    times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        steps = draw(st.integers(1, 4))
        degrees = sorted(draw(st.sets(st.integers(1, 8), min_size=steps, max_size=steps)))
        starts = sorted(draw(st.sets(times, min_size=steps, max_size=steps)))
        rows.append(
            Schedule(
                [ScheduleStep(t, d) for t, d in zip(starts, degrees)],
                wait_for_exit=draw(st.booleans()),
            )
        )
    return IntervalTable(rows)


@given(
    table=_tables(),
    load=st.integers(1, 7),
    degree=st.integers(1, 8),
    boosting=st.booleans(),
)
@example(  # a threshold of about the slack: every p near zero adds to it
    table=IntervalTable([Schedule([ScheduleStep(0.0, 1), ScheduleStep(1e-12, 2)])]),
    load=1,
    degree=1,
    boosting=False,
)
@settings(max_examples=300, deadline=None)
def test_fm_tick_horizon_is_the_least_progress_that_raises(table, load, degree, boosting):
    """Below FM's horizon ``on_quantum`` returns the degree and asks no
    boost; at the horizon itself it raises.  A row whose first step is
    above the degree raises at any progress (``-inf``), a row with no
    step above the degree answers the largest finite float (no progress
    reaches it), and the table's top degree answers ``inf``."""
    scheduler = FMScheduler(table, boosting=boosting)
    ctx = _Context(load)
    request = SimRequest(0, 0.0, 50.0, _CURVE)
    request.start(0.0, degree)
    horizon = scheduler.tick_horizon(ctx, request)
    if degree >= max(row.max_degree for row in table):
        assert horizon == math.inf
        return
    if table.lookup(load).max_degree <= degree:
        assert horizon == sys.float_info.max
        request.effective_ms = horizon
        assert scheduler.on_quantum(ctx, request) == degree
        assert ctx.boosts == 0
        return
    if horizon > -math.inf:
        request.effective_ms = math.nextafter(horizon, -math.inf)
        assert scheduler.on_quantum(ctx, request) == degree
        assert ctx.boosts == 0
    else:
        assert table.lookup(load).initial_degree > degree
    request.effective_ms = horizon
    assert scheduler.on_quantum(ctx, request) > degree


def test_wall_clock_fm_skips_only_at_the_top_degree():
    scheduler = FMScheduler(_interval_table(), progress="wall")
    request = SimRequest(0, 0.0, 50.0, _CURVE)
    request.start(0.0, 2)
    assert scheduler.tick_horizon(_Context(load=2), request) == -math.inf
    request.degree = 4
    assert scheduler.tick_horizon(_Context(load=2), request) == math.inf
