"""Gunther's P = FS (PAPERS.md) as an oracle across the engine's paths.

Under processor sharing, N cores with perfect linear speedup are one
core N times as fast: FIX-N with :class:`LinearSpeedup` on N
homogeneous cores must time every request exactly as SEQ on a one-core
:class:`Topology` pool of speed N.  The two sides run different code:
FIX-N takes the engine's homogeneous path (and its batch kernels once
the running set reaches :data:`BATCH_ENTRY`), SEQ the pooled path with
a speed multiplier.  The relation is exact in floating point, not just
in the limit: both sides see demand sums of equal integers, so the
contention factor is ``fl(1/k)`` on either, and a rate of
``N * fl(1/k)`` is the same product whichever side multiplies it.

Fields bound to the degree differ by construction (``thread_time_ms``,
``core_time_ms``, ``final_degree``).  Core faults are left out: they
take different shares of one core and of N cores.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.speedup import LinearSpeedup
from repro.faults.plan import FaultPlan
from repro.hetero import Topology
from repro.schedulers import FixedScheduler, SequentialScheduler
from repro.sim.engine import BATCH_ENTRY, ArrivalSpec, Engine
from tests.sim.test_engine_equivalence import _SwitchCounting

_CURVE = LinearSpeedup()
_MEAN_DEMAND_MS = 20.0 * np.exp(0.8**2 / 2)  # lognormal(ln 20, 0.8)

#: Offered load as a multiple of the machine's capacity.
_LOADS = {"light": 0.3, "busy": 0.9, "saturated": 1.2, "overloaded": 2.5}


def _arrivals(n: int, load: float, requests: int, seed: int) -> list[ArrivalSpec]:
    rng = np.random.default_rng(seed)
    rps = load * n / _MEAN_DEMAND_MS * 1000.0
    times = np.cumsum(rng.exponential(1000.0 / rps, size=requests))
    demands = np.maximum(rng.lognormal(np.log(20.0), 0.8, size=requests), 0.5)
    return [ArrivalSpec(float(t), float(s), _CURVE) for t, s in zip(times, demands)]


def _stall_straggler_plan(seed: int, horizon_ms: float) -> FaultPlan:
    return FaultPlan.generate(
        seed=seed,
        horizon_ms=horizon_ms,
        stall_rate_hz=20.0,
        stall_duration_ms=15.0,
        straggler_rate=0.1,
        straggler_mu=0.7,
    )


def _key(record):
    return (
        record.rid,
        record.arrival_ms,
        record.start_ms,
        record.finish_ms,
        record.seq_ms,
        record.service_ms,
        record.contention_ms,
        record.boost_wait_ms,
        record.stall_ms,
    )


@given(
    n=st.integers(min_value=2, max_value=8),
    spin=st.sampled_from([0.0, 0.25]),
    load=st.sampled_from(sorted(_LOADS)),
    faults=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_fix_n_on_n_cores_equals_seq_on_one_core_of_speed_n(n, spin, load, faults, seed):
    arrivals = _arrivals(n, _LOADS[load], requests=400, seed=seed)
    plan = (
        _stall_straggler_plan(seed, arrivals[-1].time_ms + 1_000.0) if faults else None
    )
    wide = _SwitchCounting(n, FixedScheduler(n), spin_fraction=spin, fault_plan=plan)
    fix_n = wide.run(arrivals)
    seq = Engine(
        1, SequentialScheduler(), spin_fraction=spin, fault_plan=plan,
        topology=Topology.homogeneous(1, speed=float(n)),
    ).run(arrivals)

    assert [_key(r) for r in fix_n.records] == [_key(r) for r in seq.records]
    assert fix_n.duration_ms == seq.duration_ms
    assert fix_n.average_system_count() == seq.average_system_count()
    assert fix_n.fault_stats.as_dict() == seq.fault_stats.as_dict()
    if load == "overloaded":
        # The batch kernels on one side meet the pooled loops on the other.
        assert wide.peak >= BATCH_ENTRY and wide.entries >= 1

