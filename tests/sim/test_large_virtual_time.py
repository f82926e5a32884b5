"""Finish detection at large virtual times (DESIGN.md §10).

``SimRequest.is_finished`` and the slot table's finish test compare the
work left with an absolute 1e-9 ms, but a completion scheduled at
``now + remaining / rate`` leaves a residue of about ``rate`` times the
float spacing of the clock, which passes that bound once the clock
passes a few million ms.  The engine therefore also finishes the request
its live tentative completion was scheduled for.  Two relations check
it on the per-request loops and on the batch kernels, for SEQ and FIX-4
on the Lucene set-up (15 cores, 40 RPS, 1000 requests, arrival seed 7):

- multiplying every input time by a power of two is exact in binary
  floating point, so every time field of every record must come out
  multiplied by the same factor, bit for bit, with equal final degrees,
  boost flags and average parallelism;
- shifting every arrival by 1e7 ms may round each time to the spacing
  of the offset, so latencies must agree within a few ulps of it.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.experiments.config import TINY
from repro.schedulers import FixedScheduler, SequentialScheduler
from repro.sim import ArrivalSpec
from repro.sim.vector import VectorEngine
from repro.workloads import lucene as lucene_mod
from repro.workloads.arrivals import PoissonProcess
from tests.sim.test_engine_equivalence import _LoopOnly

_ENGINES = {"loops": _LoopOnly, "batch": VectorEngine}
_POLICIES = {"SEQ": SequentialScheduler, "FIX-4": lambda: FixedScheduler(4)}
_TIME_FIELDS = (
    "arrival_ms",
    "start_ms",
    "finish_ms",
    "seq_ms",
    "thread_time_ms",
    "core_time_ms",
    "service_ms",
    "contention_ms",
    "boost_wait_ms",
    "stall_ms",
)
#: Without the target finish, FIX-4 raises from 2^8 and SEQ from 2^10.
_SCALES = {"2^-8": 2.0**-8, "2^8": 2.0**8, "2^12": 2.0**12}


@functools.lru_cache(maxsize=None)
def _arrivals() -> tuple[ArrivalSpec, ...]:
    workload = lucene_mod.lucene_workload(profile_size=TINY.profile_size)
    return tuple(
        workload.arrivals(1000, PoissonProcess(40.0), np.random.default_rng(7))
    )


def _run(engine: str, policy: str, scale: float = 1.0, shift: float = 0.0):
    arrivals = [
        ArrivalSpec(spec.time_ms * scale + shift, spec.seq_ms * scale, spec.speedup)
        for spec in _arrivals()
    ]
    return _ENGINES[engine](
        cores=lucene_mod.CORES,
        scheduler=_POLICIES[policy](),
        quantum_ms=lucene_mod.QUANTUM_MS * scale,
        spin_fraction=lucene_mod.SPIN_FRACTION,
    ).run(arrivals)


@functools.lru_cache(maxsize=None)
def _reference(engine: str, policy: str):
    return _run(engine, policy)


@pytest.mark.parametrize("scale", sorted(_SCALES))
@pytest.mark.parametrize("policy", sorted(_POLICIES))
@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_scaled_times_scale_every_record_exactly(engine, policy, scale):
    factor = _SCALES[scale]
    reference = _reference(engine, policy)
    result = _run(engine, policy, scale=factor)
    assert len(result.records) == len(reference.records) == 1000
    for ours, theirs in zip(result.records, reference.records):
        assert tuple(getattr(ours, name) for name in _TIME_FIELDS) == tuple(
            getattr(theirs, name) * factor for name in _TIME_FIELDS
        )
        assert (ours.final_degree, ours.boosted, ours.average_parallelism) == (
            theirs.final_degree,
            theirs.boosted,
            theirs.average_parallelism,
        )


@pytest.mark.parametrize("policy", sorted(_POLICIES))
@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_shifted_times_keep_latencies_within_ulps_of_the_offset(engine, policy):
    offset = 1e7
    reference = _reference(engine, policy)
    result = _run(engine, policy, shift=offset)
    assert len(result.records) == len(reference.records) == 1000
    bound = 4 * math.ulp(offset)
    for ours, theirs in zip(result.records, reference.records):
        assert ours.final_degree == theirs.final_degree
        assert abs(ours.latency_ms - theirs.latency_ms) <= bound
