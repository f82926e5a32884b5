"""The batch kernels' slot table and the commit's overshoot guard.

The kernels skip masks wherever a mask cannot change a value, which
rests on two invariants of the slot table (DESIGN.md §14): every free
lane is exactly +0.0 in every float row and False in every flag row,
and the unboosted flag row is active-and-not-boosted on every lane.
The first test checks both after every event of a run that grows the
table, compacts it, and leaves and re-enters batch mode.  The others
drive each kernel's overshoot guard: a request that retires more work
than it has left raises, and a residue within float slack clamps to
exactly 0.0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.schedulers import FixedScheduler, SequentialScheduler
from repro.sim import ArrivalSpec
from repro.sim.engine import _ACT, _BOOSTED, _BPENDING, _ONES, _RATE, _UNBOOSTED
from repro.sim.vector import VectorEngine
from tests.sim.test_engine import _CURVE
from tests.sim.test_engine_equivalence import (
    _LoopOnly,
    _SwitchCounting,
    _assert_identical,
    _sweep_arrivals,
)


class _Checked(_SwitchCounting):
    """The switching engine, checking the slot table around every
    event and counting growths and compactions."""

    _batch_entry = 3
    _batch_exit = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grows = 0
        self.compactions = 0
        self.checks = 0
        self.flags_seen = set()

    def _grow(self):
        self.grows += 1
        super()._grow()

    def _compact(self):
        self.compactions += 1
        super()._compact()

    def _commit_batch(self, t):
        self._check_table()  # as the previous event left it
        super()._commit_batch(t)

    def _recompute_rates_batch(self):
        super()._recompute_rates_batch()
        self._check_table()

    def _check_table(self):
        tab, flags = self._tab, self._flags
        active = flags[_ACT]
        free = tab[:, ~active]
        assert not free.any() and not np.signbit(free).any(), "free lane not +0.0"
        assert not flags[:, ~active].any(), "free lane flag set"
        assert np.array_equal(flags[_UNBOOSTED], active & ~flags[_BOOSTED])
        assert np.array_equal(tab[_ONES], active.astype(float))
        assert np.count_nonzero(active) == self._n_active == len(self._running)
        assert not active[self._n_slots :].any()
        self.checks += 1
        self.flags_seen.update(
            name for name, row in (("boosted", _BOOSTED), ("pending", _BPENDING))
            if flags[row].any()
        )


def _two_bursts() -> list[ArrivalSpec]:
    """Two overload bursts with a quiet gap between them, so the
    running set grows past the table's first capacity, drains out of
    batch mode, and comes back."""
    first = _sweep_arrivals(400.0, 300, seed=77)
    second = _sweep_arrivals(400.0, 150, seed=78)
    gap = first[-1].time_ms + 30_000.0
    return first + [
        ArrivalSpec(spec.time_ms + gap, spec.seq_ms, spec.speedup) for spec in second
    ]


def test_free_lanes_stay_zero_and_unboosted_row_tracks_boosts():
    arrivals = _two_bursts()
    plan = FaultPlan.generate(
        seed=3,
        horizon_ms=arrivals[-1].time_ms,
        core_fault_rate_hz=0.1,
        stall_rate_hz=1.0,
    )

    def run(cls):
        engine = cls(
            cores=4,
            scheduler=FixedScheduler(2, boost_after_ms=5.0),
            quantum_ms=50.0,
            fault_plan=plan,
        )
        return engine, engine.run(arrivals)

    checked, result = run(_Checked)
    assert checked.grows >= 1 and checked.compactions >= 1
    assert checked.entries >= 2 and checked.exits >= 2
    assert checked.flags_seen == {"boosted", "pending"}
    assert checked.checks > 1000
    _assert_identical(result, run(_LoopOnly)[1])


class _InflateRid0:
    """Scale request 0's rate after every recompute, so it retires
    ``scale`` times the work its completion time was computed for."""

    scale = 1.0

    def _recompute_rates(self):
        super()._recompute_rates()
        request = self._running.get(0)
        if request is not None:
            request.rate *= self.scale

    def _recompute_rates_batch(self):
        super()._recompute_rates_batch()
        slot = self._slot_of.get(0)
        if slot is not None:
            self._tab[_RATE, slot] *= self.scale


class _LoopInflating(_InflateRid0, _LoopOnly):
    pass


class _BatchInflating(_InflateRid0, VectorEngine):
    pass


def _inflated_run(engine_cls, scale):
    """Two sequential requests on 4 cores: request 0 needs 10 ms of
    work at rate 1.0, request 1 needs 100 ms."""
    engine = engine_cls(cores=4, scheduler=SequentialScheduler())
    engine.scale = scale
    arrivals = [ArrivalSpec(0.0, 10.0, _CURVE), ArrivalSpec(0.0, 100.0, _CURVE)]
    return engine, arrivals


@pytest.mark.parametrize("engine_cls", [_LoopInflating, _BatchInflating])
def test_overshoot_raises_naming_the_request(engine_cls):
    engine, arrivals = _inflated_run(engine_cls, scale=2.0)
    with pytest.raises(SimulationError, match=r"^request 0: overshoot -10\.0$"):
        engine.run(arrivals)


@pytest.mark.parametrize("engine_cls", [_LoopInflating, _BatchInflating])
def test_residue_within_slack_clamps_to_exact_zero(engine_cls):
    engine, arrivals = _inflated_run(engine_cls, scale=1.0 + 1e-9)
    result = engine.run(arrivals)
    request = engine._requests[0]
    assert request.remaining_work == 0.0 and not np.signbit(request.remaining_work)
    assert result.records[0].finish_ms == 10.0
