"""EnergyAwareFMScheduler: FM degrees, little-first placement, aged rescue."""

from __future__ import annotations

import pytest

from repro.core.speedup import TabulatedSpeedup
from repro.errors import ConfigurationError
from repro.hetero import Topology
from repro.schedulers import EnergyAwareFMScheduler, FMScheduler
from repro.sim.engine import ArrivalSpec, simulate
from tests.sim.test_engine_equivalence import (
    _assert_identical,
    _interval_table,
    _sweep_arrivals,
)

_CURVE = TabulatedSpeedup([1.0, 1.6, 2.1, 2.5])


def _arrivals(specs):
    return [ArrivalSpec(t, s, _CURVE) for t, s in specs]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rescue_age_ms": 0.0},
            {"rescue_age_ms": -10.0},
            {"min_free_cores": -0.5},
        ],
    )
    def test_bad_config_raises(self, kwargs):
        with pytest.raises(ConfigurationError):
            EnergyAwareFMScheduler(_interval_table(), **kwargs)

    def test_name_prefixes_fm(self):
        scheduler = EnergyAwareFMScheduler(_interval_table())
        assert scheduler.name.startswith("EA-FM")


class TestSinglePoolBitIdentity:
    """The docstring's promise: EA-FM == FM when there is one pool."""

    @pytest.mark.parametrize("load", ["light", "saturated"])
    def test_identical_to_plain_fm(self, load):
        rps, n = (15.0, 300) if load == "light" else (70.0, 600)
        arrivals = _sweep_arrivals(rps, n, seed=hash(load) & 0xFFFF)
        topo = Topology.homogeneous(6)
        plain = simulate(
            arrivals, FMScheduler(_interval_table()), cores=6, topology=topo
        )
        energy_aware = simulate(
            arrivals, EnergyAwareFMScheduler(_interval_table()), cores=6,
            topology=topo,
        )
        _assert_identical(plain, energy_aware)
        assert all(r.migrations == 0 for r in energy_aware.records)

    def test_identical_with_shedding(self):
        arrivals = _sweep_arrivals(80.0, 400, seed=41)
        topo = Topology.homogeneous(6)
        plain = simulate(
            arrivals,
            FMScheduler(_interval_table(), max_backlog=10, deadline_ms=200.0),
            cores=6, topology=topo,
        )
        energy_aware = simulate(
            arrivals,
            EnergyAwareFMScheduler(
                _interval_table(), max_backlog=10, deadline_ms=200.0
            ),
            cores=6, topology=topo,
        )
        _assert_identical(plain, energy_aware)


class TestPlacement:
    def test_short_requests_live_and_die_on_little(self):
        topo = Topology.big_little(big=2, little=4, big_speed=2.0)
        # Two 10 ms requests: done long before the 50 ms rescue age.
        result = simulate(
            _arrivals([(0.0, 10.0), (5.0, 10.0)]),
            EnergyAwareFMScheduler(_interval_table()),
            cores=6, quantum_ms=5.0, topology=topo,
        )
        for record in result.records:
            assert record.pool == 1
            assert record.migrations == 0

    def test_aged_request_is_rescued_onto_big(self):
        topo = Topology.big_little(big=2, little=4, big_speed=2.0)
        # One long request on an otherwise idle machine: crosses the
        # 50 ms age with the big pool entirely free.
        result = simulate(
            _arrivals([(0.0, 300.0)]),
            EnergyAwareFMScheduler(_interval_table(), boosting=False,
                                   min_free_cores=1.0),
            cores=6, quantum_ms=5.0, topology=topo,
        )
        record = result.records[0]
        assert record.pool == 0
        assert record.migrations == 1

    def test_equal_speed_pools_park_on_little(self):
        # Equal speeds: the short request is parked on the last pool and
        # stays there; the aged one is rescued onto the first.
        topo = Topology.big_little(big=2, little=4, big_speed=1.0)
        result = simulate(
            _arrivals([(0.0, 10.0), (5.0, 300.0)]),
            EnergyAwareFMScheduler(_interval_table(), boosting=False,
                                   min_free_cores=1.0),
            cores=6, quantum_ms=5.0, topology=topo,
        )
        placements = [(r.pool, r.migrations) for r in result.records]
        assert placements == [(1, 0), (0, 1)]

    def test_headroom_gate_blocks_rescue(self):
        topo = Topology.big_little(big=2, little=4, big_speed=2.0)
        # An impossible headroom demand: no age-based rescue can fire,
        # so even a long request stays on little.
        result = simulate(
            _arrivals([(0.0, 300.0)]),
            EnergyAwareFMScheduler(_interval_table(), boosting=False,
                                   min_free_cores=100.0),
            cores=6, quantum_ms=5.0, topology=topo,
        )
        record = result.records[0]
        assert record.pool == 1
        assert record.migrations == 0

    def test_rescue_is_cheaper_on_latency(self):
        topo = Topology.big_little(big=2, little=4, big_speed=2.0)
        spec = _arrivals([(0.0, 300.0)])
        gated = simulate(
            spec,
            EnergyAwareFMScheduler(_interval_table(), boosting=False,
                                   min_free_cores=100.0),
            cores=6, quantum_ms=5.0, topology=topo,
        )
        rescued = simulate(
            spec,
            EnergyAwareFMScheduler(_interval_table(), boosting=False,
                                   min_free_cores=1.0),
            cores=6, quantum_ms=5.0, topology=topo,
        )
        assert rescued.records[0].latency_ms < gated.records[0].latency_ms
