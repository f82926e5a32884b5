"""Topology / CorePool / DVFS construction and validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hetero import CorePool, DVFSState, Topology


class TestCorePool:
    def test_defaults(self):
        pool = CorePool("p", 4)
        assert pool.count == 4
        assert pool.effective_speed == 1.0
        assert pool.effective_active_power_w == 1.0
        assert pool.effective_idle_power_w == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"count": 0},
            {"count": -1},
            {"speed": 0.0},
            {"speed": -1.0},
            {"active_power_w": -0.5},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        base = {"count": 2}
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            CorePool("p", **base)

    def test_dvfs_state_resolution(self):
        states = (
            DVFSState("nominal", speed=2.0, active_power_w=3.5, idle_power_w=0.6),
            DVFSState("eco", speed=1.4, active_power_w=1.8, idle_power_w=0.3),
        )
        pool = CorePool("big", 4, speed=2.0, dvfs_states=states, dvfs="eco")
        assert pool.effective_speed == 1.4
        assert pool.effective_active_power_w == 1.8
        assert pool.effective_idle_power_w == 0.3

    def test_at_dvfs_returns_retuned_pool(self):
        states = (
            DVFSState("nominal", speed=2.0, active_power_w=3.5, idle_power_w=0.6),
            DVFSState("eco", speed=1.4, active_power_w=1.8, idle_power_w=0.3),
        )
        pool = CorePool("big", 4, speed=2.0, dvfs_states=states)
        eco = pool.at_dvfs("eco")
        assert eco.effective_speed == 1.4
        assert pool.effective_speed == 2.0  # original untouched
        with pytest.raises(ConfigurationError):
            pool.at_dvfs("turbo")

    def test_unknown_dvfs_name_raises(self):
        with pytest.raises(ConfigurationError):
            CorePool("big", 4, dvfs="missing")


class TestTopology:
    def test_homogeneous(self):
        topo = Topology.homogeneous(12)
        assert topo.is_single_pool
        assert topo.total_cores == 12
        assert topo.equivalent_capacity() == 12.0
        assert len(topo) == 1
        assert topo[0].name == "pool0"

    def test_big_little(self):
        topo = Topology.big_little(big=4, little=12, big_speed=2.0)
        assert not topo.is_single_pool
        assert topo.total_cores == 16
        assert topo.equivalent_capacity() == 4 * 2.0 + 12 * 1.0
        assert topo.index_of("big") == 0
        assert topo.index_of("little") == 1
        assert topo.fastest_pool == 0
        assert topo.slowest_pool == 1

    def test_fastest_ties_break_first(self):
        topo = Topology(
            (CorePool("a", 2, speed=1.5), CorePool("b", 2, speed=1.5))
        )
        assert topo.fastest_pool == 0
        # The slowest pool breaks ties the other way, so equal speeds
        # still name a big (first) and a little (last) pool.
        assert topo.slowest_pool == 1

    def test_slowest_ties_break_last(self):
        topo = Topology(
            (
                CorePool("a", 2, speed=1.0),
                CorePool("b", 2, speed=2.0),
                CorePool("c", 2, speed=1.0),
                CorePool("d", 2, speed=2.0),
            )
        )
        assert topo.fastest_pool == 1
        assert topo.slowest_pool == 2

    def test_duplicate_names_raise(self):
        with pytest.raises(ConfigurationError):
            Topology((CorePool("x", 2), CorePool("x", 3)))

    def test_empty_topology_raises(self):
        with pytest.raises(ConfigurationError):
            Topology(())

    def test_index_of_unknown_raises(self):
        topo = Topology.homogeneous(4)
        with pytest.raises(ConfigurationError):
            topo.index_of("big")

    def test_equality_and_hash(self):
        a = Topology.big_little(big=4, little=12)
        b = Topology.big_little(big=4, little=12)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Topology.big_little(big=2, little=14)
