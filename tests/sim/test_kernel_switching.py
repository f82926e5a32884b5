"""Kernel switching by running-set size (DESIGN.md §14).

The default :class:`~repro.sim.engine.Engine` moves its running set onto
the numpy batch kernels at ``BATCH_ENTRY`` requests and back onto the
per-request loops below ``BATCH_EXIT``.  No paper-sized cell reaches
those sizes, so the property test shrinks them until one run switches
hundreds of times, and requires everything observable to match the
loop-only engine bit for bit: records, fault stats, streamed summaries,
drained events, the live plane, degree residency, and the request state
every scheduler hook sees.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.experiments.config import TINY
from repro.experiments.tables import lucene_table
from repro.faults.plan import FaultPlan
from repro.hetero.pools import Topology
from repro.observe.live import LivePlane
from repro.schedulers import FixedScheduler, FMScheduler
from repro.sim.engine import BATCH_ENTRY, BATCH_EXIT
from repro.sim.stream import StreamingCollector
from repro.workloads import bing as bing_mod
from repro.workloads import lucene as lucene_mod
from repro.workloads.arrivals import PoissonProcess
from tests.sim.test_engine_equivalence import (
    _SCHEDULER_FACTORIES,
    _LoopOnly,
    _SwitchCounting,
    _assert_identical,
    _sweep_arrivals,
)

_VIEW_FIELDS = (
    "remaining_work",
    "rate",
    "share_factor",
    "share_cores",
    "effective_ms",
    "thread_time_ms",
    "core_time_ms",
    "attr_service_ms",
    "attr_contention_ms",
    "attr_boost_wait_ms",
    "attr_stall_ms",
    "stalled_until_ms",
    "degree",
    "boosted",
    "boost_pending",
)


def _watch(scheduler) -> list:
    """Record the request as each ``on_quantum``/``on_exit`` hook sees
    it (the hooks that read a running request's progress)."""
    seen: list = []
    for hook in ("on_quantum", "on_exit"):
        original = getattr(scheduler, hook)

        def watched(ctx, request, _original=original, _hook=hook):
            seen.append(
                (_hook, ctx.now_ms, request.rid)
                + tuple(getattr(request, name) for name in _VIEW_FIELDS)
                + (tuple(sorted(request.degree_residency.items())),)
            )
            return _original(ctx, request)

        setattr(scheduler, hook, watched)
    return seen


def _summary_state(summary) -> tuple:
    return (
        summary.histogram.state(),
        summary.as_dict(),
        summary.thread_integral,
        summary.core_busy_integral,
        summary.system_count_integral,
    )


def _run(engine_cls, policy, arrivals, plan, *, streamed, summary, attribution,
         live, entry=None, exit_=None):
    scheduler = _SCHEDULER_FACTORIES[policy]()
    seen = _watch(scheduler)
    plane = LivePlane(window_ms=40.0) if live else None
    engine = engine_cls(
        cores=6,
        scheduler=scheduler,
        fault_plan=plan,
        attribution=attribution,
        live=plane,
        collector=StreamingCollector(6) if summary else None,
    )
    if entry is not None:
        engine._batch_entry, engine._batch_exit = entry, exit_
    result = engine.run(iter(arrivals) if streamed else arrivals)
    windows = [repr(w.to_dict()) for w in plane.windows()] if live else None
    return engine, result, seen, windows


@given(
    policy=st.sampled_from(sorted(_SCHEDULER_FACTORIES)),
    rps=st.sampled_from([40.0, 70.0, 120.0]),
    seed=st.integers(min_value=0, max_value=2**16),
    faults=st.booleans(),
    streamed=st.booleans(),
    collect=st.sampled_from(["records", "records+live", "summary"]),
    attribution=st.booleans(),
    sizes=st.integers(min_value=1, max_value=5).flatmap(
        lambda entry: st.tuples(st.just(entry), st.integers(1, entry))
    ),
)
@settings(max_examples=40, deadline=None)
def test_switching_engine_matches_loop_engine(
    policy, rps, seed, faults, streamed, collect, attribution, sizes
):
    arrivals = _sweep_arrivals(rps, 150, seed=seed)
    plan = (
        FaultPlan.generate(
            seed=seed,
            horizon_ms=arrivals[-1].time_ms + 5_000,
            core_fault_rate_hz=0.5,
            stall_rate_hz=2.0,
            straggler_rate=0.1,
            straggler_mu=0.7,
        )
        if faults
        else None
    )
    options = dict(
        streamed=streamed,
        summary=collect == "summary",
        attribution=attribution,
        live=collect == "records+live",
    )
    entry, exit_ = sizes
    loop, loop_result, loop_seen, loop_windows = _run(
        _LoopOnly, policy, arrivals, plan, **options
    )
    switching, result, seen, windows = _run(
        _SwitchCounting, policy, arrivals, plan, entry=entry, exit_=exit_, **options
    )
    if options["summary"]:
        assert _summary_state(result) == _summary_state(loop_result)
        assert result.fault_stats.as_dict() == loop_result.fault_stats.as_dict()
    else:
        _assert_identical(result, loop_result)
    assert switching.events_processed == loop.events_processed
    assert seen == loop_seen
    assert windows == loop_windows


def test_one_run_switches_hundreds_of_times():
    arrivals = _sweep_arrivals(40.0, 1200, seed=5)
    options = dict(streamed=False, summary=False, attribution=True, live=False)
    _, loop_result, loop_seen, _ = _run(_LoopOnly, "fm", arrivals, None, **options)
    switching, result, seen, _ = _run(
        _SwitchCounting, "fm", arrivals, None, entry=2, exit_=1, **options
    )
    assert switching.entries >= 200 and switching.exits >= 200
    _assert_identical(result, loop_result)
    assert seen == loop_seen


class TestWhereTheDefaultEngineBatches:
    def test_fig8_sized_fm_cell_stays_on_the_loops(self):
        """Figure 8's top load (Lucene FM, 47 RPS, 1000 requests) peaks
        far below the exit size."""
        workload = lucene_mod.lucene_workload(profile_size=TINY.profile_size)
        arrivals = workload.arrivals(
            1000, PoissonProcess(47.0), np.random.default_rng(42)
        )
        engine = _SwitchCounting(
            cores=lucene_mod.CORES,
            scheduler=FMScheduler(lucene_table(TINY)),
            quantum_ms=lucene_mod.QUANTUM_MS,
            spin_fraction=lucene_mod.SPIN_FRACTION,
        )
        engine.run(arrivals)
        assert engine.peak < BATCH_EXIT and engine.entries == 0

    def test_overloaded_mega_cell_batches(self):
        """The overloaded Bing FIX-4 cell (8 cores, 900 RPS) grows its
        running set into the hundreds and moves onto the batch kernels."""
        workload = bing_mod.bing_workload(profile_size=TINY.profile_size)
        arrivals = workload.arrivals(
            600, PoissonProcess(900.0), np.random.default_rng(7)
        )

        def engine(cls):
            return cls(
                cores=8,
                scheduler=FixedScheduler(4),
                quantum_ms=bing_mod.QUANTUM_MS,
                spin_fraction=bing_mod.SPIN_FRACTION,
            )

        switching = engine(_SwitchCounting)
        result = switching.run(arrivals)
        assert switching.peak > 2 * BATCH_ENTRY and switching.entries == 1
        _assert_identical(result, engine(_LoopOnly).run(arrivals))

    def test_topologies_stay_on_the_per_pool_loops(self):
        topology = Topology.big_little(big=2, little=2)
        arrivals = _sweep_arrivals(400.0, 400, seed=77)
        engine = _SwitchCounting(
            cores=4, scheduler=FixedScheduler(4), topology=topology
        )
        engine.run(arrivals)
        assert engine.peak >= BATCH_ENTRY and engine.entries == 0
