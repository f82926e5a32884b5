"""The batch kernels' correctness bar: :class:`repro.sim.vector.
VectorEngine` (batch kernels from the first request) must produce
**bit-for-bit identical** results to the engine's per-request loops
(an :class:`~repro.sim.engine.Engine` whose batch entry is disabled)
on fixed seeds — the design (slot-order invariant + strictly
sequential ``np.cumsum`` reductions) claims exact equality, strictly
stronger than the 1e-9 gate the benchmark regression check enforces."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.hetero.pools import Topology
from repro.schedulers import FixedScheduler, SequentialScheduler
from repro.sim import simulate
from repro.sim.vector import VectorEngine
from tests.sim.test_engine_equivalence import (
    _SCHEDULER_FACTORIES,
    _LoopOnly,
    _assert_identical,
    _sweep_arrivals,
)


def _run_both(arrivals, factory, cores=6, **kwargs):
    scalar = _LoopOnly(cores=cores, scheduler=factory(), **kwargs).run(arrivals)
    vector = simulate(arrivals, factory(), cores=cores, vectorized=True, **kwargs)
    return scalar, vector


class TestBitIdentityWithScalarEngine:
    @pytest.mark.parametrize("policy", sorted(_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("load", ["light", "saturated"])
    def test_matches_scalar_engine(self, policy, load):
        rps, n = (15.0, 300) if load == "light" else (70.0, 600)
        arrivals = _sweep_arrivals(
            rps, n, seed=zlib.crc32(f"vec/{policy}/{load}".encode())
        )
        scalar, vector = _run_both(arrivals, _SCHEDULER_FACTORIES[policy])
        _assert_identical(vector, scalar)

    @pytest.mark.parametrize("policy", ["fm", "fix4-protected"])
    def test_matches_scalar_engine_under_faults(self, policy):
        arrivals = _sweep_arrivals(40.0, 400, seed=1234)
        plan = FaultPlan.generate(
            seed=5,
            horizon_ms=arrivals[-1].time_ms + 5_000,
            core_fault_rate_hz=0.5,
            stall_rate_hz=1.0,
            straggler_rate=0.1,
            straggler_mu=0.7,
        )
        scalar, vector = _run_both(
            arrivals, _SCHEDULER_FACTORIES[policy], fault_plan=plan
        )
        _assert_identical(vector, scalar)
        assert vector.fault_stats.as_dict() == scalar.fault_stats.as_dict()

    def test_matches_through_overload_drain_compaction(self):
        """A burst far beyond capacity grows the running set past the
        compaction threshold (64 slots), then drains it below half
        occupancy — exercising ``_compact()``'s order-preserving squeeze
        repeatedly while results must stay exact."""
        arrivals = _sweep_arrivals(400.0, 500, seed=77)
        scalar, vector = _run_both(arrivals, lambda: FixedScheduler(4), cores=4)
        _assert_identical(vector, scalar)

    def test_matches_without_attribution(self):
        arrivals = _sweep_arrivals(50.0, 300, seed=31)
        scalar, vector = _run_both(
            arrivals, _SCHEDULER_FACTORIES["fm"], attribution=False
        )
        _assert_identical(vector, scalar)

    def test_degree_residency_matches_values(self):
        """The batch kernels keep the current degree's residency in a
        column that receives the loop's additions in the loop's order,
        so every entry is bit-identical.  Captured via an ``on_exit``
        wrapper since records keep only the derived
        ``average_parallelism``."""
        from repro.schedulers import AdaptiveScheduler

        class Capturing(AdaptiveScheduler):
            def __init__(self):
                super().__init__(max_degree=4, target_parallelism=6.0)
                self.residency = {}

            def on_exit(self, ctx, request):
                self.residency[request.rid] = dict(request.degree_residency)
                return super().on_exit(ctx, request)

        arrivals = _sweep_arrivals(60.0, 300, seed=9)
        scalar_sched, vector_sched = Capturing(), Capturing()
        scalar = _LoopOnly(cores=6, scheduler=scalar_sched).run(arrivals)
        vector = simulate(arrivals, vector_sched, cores=6, vectorized=True)
        _assert_identical(vector, scalar)
        assert vector_sched.residency == scalar_sched.residency


class TestUnsupportedFeatures:
    def test_topology_rejected(self):
        topology = Topology.big_little(big=2, little=2)
        with pytest.raises(SimulationError, match="topolog"):
            VectorEngine(
                cores=4, scheduler=SequentialScheduler(), topology=topology
            )


class TestLivePlane:
    def test_live_plane_windows_match_scalar_engine(self):
        """Completions on the batch kernels feed the live plane through
        the engine's one completion path."""
        from repro.observe.live import LivePlane

        arrivals = _sweep_arrivals(70.0, 400, seed=21)
        planes = LivePlane(window_ms=50.0), LivePlane(window_ms=50.0)
        scalar = _LoopOnly(
            cores=6, scheduler=_SCHEDULER_FACTORIES["fm"](), live=planes[0]
        ).run(arrivals)
        vector = simulate(
            arrivals, _SCHEDULER_FACTORIES["fm"](), cores=6, live=planes[1],
            vectorized=True,
        )
        _assert_identical(vector, scalar)
        windows = [[repr(w.to_dict()) for w in plane.windows()] for plane in planes]
        assert windows[0] and windows[0] == windows[1]


class TestVectorizedPerformanceShape:
    def test_identical_generation_counts(self):
        """Sanity: the vector engine processes the same event stream
        (completion count and simulated horizon), not a re-derived one."""
        arrivals = _sweep_arrivals(70.0, 400, seed=13)
        scalar, vector = _run_both(arrivals, _SCHEDULER_FACTORIES["fix4"])
        assert len(vector.records) == len(scalar.records) == 400
        assert vector.records[-1].finish_ms == scalar.records[-1].finish_ms
        assert np.array_equal(
            np.array([r.latency_ms for r in vector.records]),
            np.array([r.latency_ms for r in scalar.records]),
        )
