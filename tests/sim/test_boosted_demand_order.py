"""The boosted demand sum's order is observable.

The batch recompute sums the boosted and the unboosted occupancy left to
right (``np.cumsum(...)[-1]``), as the per-request loop does.  A
pairwise ``np.sum`` rounds differently once enough lanes are summed, but
most runs have only a few boosted requests at a time, so they cannot
tell the two apart.  This cell keeps dozens boosted at once: Bing
demand on 48 cores with FIX-2 boosting every request after 1 ms, at a
load that holds hundreds in the system.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import TINY
from repro.schedulers import FixedScheduler
from repro.sim.engine import _BOOSTED
from repro.sim.vector import VectorEngine
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess
from tests.sim.test_engine_equivalence import _LoopOnly, _assert_identical


class _BoostCounting(VectorEngine):
    """The vector engine, tracking the most lanes boosted at one
    recompute."""

    peak_boosted = 0

    def _recompute_rates_batch(self):
        if self._n_slots:
            boosted = int(np.count_nonzero(self._flags[_BOOSTED, : self._n_slots]))
            self.peak_boosted = max(self.peak_boosted, boosted)
        super()._recompute_rates_batch()


def _run(engine_cls, arrivals):
    engine = engine_cls(
        cores=48,
        scheduler=FixedScheduler(2, boost_after_ms=1.0),
        quantum_ms=bing_mod.QUANTUM_MS,
        spin_fraction=bing_mod.SPIN_FRACTION,
    )
    return engine, engine.run(arrivals)


def test_many_boosted_lanes_match_the_loop_engine():
    workload = bing_mod.bing_workload(profile_size=TINY.profile_size)
    arrivals = workload.arrivals(1500, PoissonProcess(1000.0), np.random.default_rng(42))
    vector, result = _run(_BoostCounting, arrivals)
    _, reference = _run(_LoopOnly, arrivals)
    assert vector.peak_boosted >= 16
    _assert_identical(result, reference)
