"""Deferred and quiescent quantum ticks change no simulated bit
(DESIGN.md §10).

On its per-request loops the engine logs a tick's interval instead of
committing it and replays the log, request by request, before the next
commit that is not a tick; and it skips the hook of a tick whose
scheduler calls the request quiescent.  The reference is the same
engine with both off: ``_EagerTicks`` commits every tick on the spot
and ``_NeverQuiescent`` forwards every hook but never skips a tick.
Records, shed records, fault stats, the result integrals and streamed
summaries must all be ``==``.
"""

from __future__ import annotations

import zlib

import pytest

from repro.core.search import SearchConfig
from repro.core.speedup import UniformSpeedupModel
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
from repro.sim.trace import TraceRecorder
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


class _NeverQuiescent(Scheduler):
    """Forwards every hook to ``inner``; no tick is ever skipped."""

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

#: (engine under test, reference engine, streamed arrivals, streaming
#: collector, kernel switch sizes).  The batch kernels commit every tick
#: anyway, so on ``VectorEngine`` only the quiescent ticks differ.
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
    """Count ``scheduler.on_quantum`` calls (an instance-level wrapper)."""
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
    engine, result = _run(engine_cls, factory(), arrivals, **options)
    reference_engine, reference = _run(
        reference_cls, _NeverQuiescent(factory()), arrivals, **options
    )
    if not summary:
        _assert_identical(result, reference)
    assert _integrals(result) == _integrals(reference)
    assert engine.events_processed == reference_engine.events_processed


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
def test_policies_that_act_on_ticks_are_never_quiescent(factory, topology, load):
    """EA-FM migrates on ticks, re-profiling FM swaps tables and the
    stale-load ablation FM samples the load on ticks, so no tick of
    theirs may be skipped: same hook calls, same results."""
    arrivals = _arrivals(load, "acting")
    scheduler = factory()
    calls = _counting(scheduler)
    _, result = _run(Engine, scheduler, arrivals, topology=topology)
    inner = factory()
    reference_calls = _counting(inner)
    _, reference = _run(
        _EagerTicks, _NeverQuiescent(inner), arrivals, topology=topology
    )
    assert calls["on_quantum"] == reference_calls["on_quantum"] > 0
    _assert_identical(result, reference)
    assert _integrals(result) == _integrals(reference)
    assert [r.migrations for r in result.records] == [
        r.migrations for r in reference.records
    ]


def test_trace_recorder_forwards_quiescence():
    inner = FMScheduler(_interval_table())
    recorder = TraceRecorder(inner)
    request = SimRequest(0, 0.0, 50.0, _CURVE)
    request.start(0.0, 4)
    assert recorder.quiescent(request) and inner.quiescent(request)
    request.degree = 3
    assert not recorder.quiescent(request)
