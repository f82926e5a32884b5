"""Tests for occupancy-based core allocation and the boost budget."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.speedup import TabulatedSpeedup
from repro.errors import SimulationError
from repro.sim.processor import BoostController, occupancy, share_factors
from repro.sim.request import SimRequest

_CURVE = TabulatedSpeedup([1.0, 1.6, 2.0, 2.4])


def _running(degree: int, rid: int = 0, boosted: bool = False) -> SimRequest:
    req = SimRequest(rid, 0.0, 100.0, _CURVE)
    req.start(0.0, degree)
    req.boosted = boosted
    return req


class TestOccupancy:
    def test_sequential_occupies_one_core(self):
        assert occupancy(1.0, 1, 0.5) == pytest.approx(1.0)

    def test_spin_zero_occupies_useful_only(self):
        assert occupancy(2.0, 4, 0.0) == pytest.approx(2.0)

    def test_spin_one_occupies_all_threads(self):
        assert occupancy(2.0, 4, 1.0) == pytest.approx(4.0)

    def test_interpolates(self):
        assert occupancy(2.0, 4, 0.25) == pytest.approx(2.5)

    def test_rejects_bad_speedup(self):
        with pytest.raises(SimulationError):
            occupancy(5.0, 4, 0.25)
        with pytest.raises(SimulationError):
            occupancy(0.5, 1, 0.25)


def _shares(requests, cores, spin):
    """``(factor, core share)`` per request, under the engine's rule:
    occupancy demands summed per class, factors from share_factors."""
    demands = [occupancy(r.speedup.speedup(r.degree), r.degree, spin) for r in requests]
    boosted = sum(d for r, d in zip(requests, demands) if r.boosted)
    unboosted = sum(d for r, d in zip(requests, demands) if not r.boosted)
    boosted_factor, unboosted_factor = share_factors(cores, boosted, unboosted)
    factors = [boosted_factor if r.boosted else unboosted_factor for r in requests]
    return [(f, d * f) for f, d in zip(factors, demands)]


class TestShareFactors:
    def test_uncontended_runs_full_speed(self):
        reqs = [_running(1, 0), _running(2, 1)]
        shares = _shares(reqs, cores=8, spin=0.25)
        assert all(factor == pytest.approx(1.0) for factor, _ in shares)

    def test_oversubscription_scales_down_proportionally(self):
        # occupancy per request = 2.4 + 0.25 * (4 - 2.4) = 2.8
        reqs = [_running(4, rid) for rid in range(4)]
        for factor, share in _shares(reqs, cores=5, spin=0.25):
            assert factor == pytest.approx(5.0 / 11.2)
            assert share == pytest.approx(2.8 * 5.0 / 11.2)

    def test_total_core_alloc_never_exceeds_cores(self):
        reqs = [_running(4, rid) for rid in range(10)]
        shares = _shares(reqs, cores=6, spin=0.25)
        assert sum(share for _, share in shares) <= 6.0 + 1e-9

    def test_boosted_requests_keep_full_speed(self):
        boosted = _running(4, 0, boosted=True)
        others = [_running(4, rid) for rid in range(1, 8)]
        shares = _shares([boosted, *others], cores=6, spin=0.25)
        assert shares[0][0] == pytest.approx(1.0)
        assert shares[1][0] < 1.0

    def test_boosted_capacity_comes_off_the_top(self):
        boosted = _running(4, 0, boosted=True)  # occupancy 2.8
        other = _running(4, 1)
        shares = _shares([boosted, other], cores=4, spin=0.25)
        assert shares[1][0] == pytest.approx(1.2 / 2.8)

    def test_empty_system(self):
        assert share_factors(4, 0.0, 0.0) == (1.0, 1.0)

    @given(
        degrees=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12),
        cores=st.integers(min_value=1, max_value=16),
        spin=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_invariants(self, degrees, cores, spin):
        reqs = [_running(d, rid) for rid, d in enumerate(degrees)]
        shares = _shares(reqs, cores=cores, spin=spin)
        assert sum(share for _, share in shares) <= cores + 1e-9
        for factor, _ in shares:
            assert 0.0 <= factor <= 1.0 + 1e-9


class TestBoostController:
    def test_grant_and_release(self):
        ctl = BoostController(cores=8)
        req = _running(4, 0)
        req.boosted = False
        assert ctl.try_boost(req, 4)
        assert req.boosted
        assert ctl.boosted_threads == 4
        ctl.release(req)
        assert ctl.boosted_threads == 0
        assert not req.boosted

    def test_budget_strictly_below_cores(self):
        """Section 4.2: boosted threads stay < cores."""
        ctl = BoostController(cores=8)
        a, b = _running(4, 0), _running(4, 1)
        a.boosted = b.boosted = False
        assert ctl.try_boost(a, 4)
        assert not ctl.try_boost(b, 4)  # 4 + 4 >= 8
        assert ctl.try_boost(b, 3)

    def test_idempotent_grant(self):
        ctl = BoostController(cores=8)
        req = _running(4, 0)
        req.boosted = False
        assert ctl.try_boost(req, 4)
        assert ctl.try_boost(req, 4)
        assert ctl.boosted_threads == 4

    def test_release_unboosted_is_noop(self):
        ctl = BoostController(cores=8)
        ctl.release(_running(2, 5))
        assert ctl.boosted_threads == 0

    def test_reset(self):
        ctl = BoostController(cores=8)
        req = _running(2, 0)
        req.boosted = False
        ctl.try_boost(req, 2)
        ctl.reset()
        assert ctl.boosted_threads == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            BoostController(cores=0)
        ctl = BoostController(cores=4)
        with pytest.raises(SimulationError):
            ctl.try_boost(_running(1, 0), 0)
