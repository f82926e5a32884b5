"""Regression tests for the parallel-runner bugs fixed alongside the
mega-sweep work: the empty-grid ``Pool(processes=0)`` crash, the
in-process path clobbering the pool workers' global, and ambient
``workers=0`` resolving "all CPUs" at set time instead of use time."""

from __future__ import annotations

import os
from unittest import mock

import pytest

import repro.parallel as parallel_mod
from repro.errors import ConfigurationError
from repro.experiments.runner import _run_cell, run_sweep
from repro.parallel import (
    default_workers,
    get_default_workers,
    resolve_workers,
    set_default_workers,
)
from repro.core.speedup import TabulatedSpeedup, UniformSpeedupModel
from repro.schedulers import FixedScheduler, SequentialScheduler
from repro.workloads.synthetic import DemandDistribution
from repro.workloads.workload import Workload


def _workload():
    return Workload(
        name="bugfix-test",
        sampler=DemandDistribution([(1.0, 3.0, 0.6)], floor_ms=1.0),
        speedup_model=UniformSpeedupModel(TabulatedSpeedup([1.0, 1.8, 2.4, 2.9])),
        max_degree=4,
    )


@pytest.mark.parametrize("workers", [1, 2])
class TestEmptyGridValidation:
    """An empty scheduler or rps axis used to reach
    ``Pool(processes=0)`` and die with a bare ValueError from
    multiprocessing; now it's a ConfigurationError naming the axis, at
    every worker count (the validation is grid-shape, not pool-size)."""

    def test_no_schedulers_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="at least one scheduler"):
            run_sweep({}, _workload(), [50.0], cores=4, workers=workers)

    def test_no_rps_values_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="at least one rps"):
            run_sweep(
                {"SEQ": SequentialScheduler()}, _workload(), [], cores=4, workers=workers
            )

    def test_rejected_before_any_pool_is_created(self, workers):
        with mock.patch.object(parallel_mod, "_pool_context") as ctx:
            with pytest.raises(ConfigurationError):
                run_sweep({}, _workload(), [50.0], cores=4, workers=workers)
        ctx.assert_not_called()


class TestInProcessWorkerGlobalIsolation:
    """The in-process path used to write the module-global spec and
    tear it down afterwards — so a nested sweep (e.g. one running
    inside a sharded-sweep worker) would observe a foreign or torn-down
    spec.  Cell functions now take their arguments explicitly and the
    one worker global (the pool's cell function) belongs to pool
    workers only."""

    def test_in_process_path_leaves_global_untouched(self):
        sentinel = object()
        with mock.patch.object(parallel_mod, "_RUN", sentinel):
            result = run_sweep(
                {"SEQ": SequentialScheduler(), "FIX-2": FixedScheduler(2)},
                _workload(),
                [40.0, 80.0],
                cores=4,
                num_requests=40,
                workers=1,
            )
            assert parallel_mod._RUN is sentinel
        assert result.policies() == ["SEQ", "FIX-2"]

    def test_run_cell_takes_its_arguments_explicitly(self):
        # The in-process path must be callable with no global at all.
        assert parallel_mod._RUN is None
        tail, mean, histogram, result = _run_cell(
            (0, 0, 0),
            schedulers=[SequentialScheduler()],
            workload=_workload(),
            rps_values=[60.0],
            cores=4,
            num_requests=30,
            quantum_ms=5.0,
            seed=7,
            phi=0.99,
            keep_results=False,
            spin_fraction=0.25,
            topology=None,
        )
        assert parallel_mod._RUN is None
        assert histogram.count == 30
        assert tail >= mean > 0.0
        assert result is None


class TestAmbientWorkerResolution:
    """``workers=0`` ("all CPUs") must be stored raw and resolved
    against ``os.cpu_count()`` at *use* time, not frozen to the CPU
    count of whatever machine happened to call ``set_default_workers``."""

    def test_zero_is_stored_raw(self):
        with default_workers(0):
            assert get_default_workers() == 0

    def test_zero_resolves_at_use_time(self):
        with default_workers(0):
            with mock.patch.object(os, "cpu_count", return_value=7):
                assert resolve_workers(None) == 7
            with mock.patch.object(os, "cpu_count", return_value=3):
                assert resolve_workers(None) == 3

    def test_explicit_zero_resolves_at_use_time(self):
        with mock.patch.object(os, "cpu_count", return_value=5):
            assert resolve_workers(0) == 5

    def test_cpu_count_none_falls_back_to_one(self):
        with mock.patch.object(os, "cpu_count", return_value=None):
            assert resolve_workers(0) == 1

    def test_nested_context_restores_raw_sentinel(self):
        with default_workers(0):
            with default_workers(4):
                assert get_default_workers() == 4
            assert get_default_workers() == 0  # not a resolved CPU count

    def test_negative_rejected_everywhere(self):
        with pytest.raises(ConfigurationError):
            set_default_workers(-1)
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)
