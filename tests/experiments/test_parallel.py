"""Sweep executor equivalence: ``--workers`` must be a pure wall-clock
knob.  For any fixed seed :func:`run_sweep` has to produce, at every
worker count, the same per-load-point tails, means, p50/p99, merged
latency histograms and kept records as a plain serial loop over the
grid — float for float, bucket for bucket."""

from __future__ import annotations

import multiprocessing
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.parallel as parallel_mod
from repro.errors import ConfigurationError
from repro.experiments.config import QUICK
from repro.experiments.runner import (
    PolicySeries,
    SweepResult,
    cell_seed,
    latency_histogram,
    run_policy,
    run_sweep,
)
from repro.experiments.tables import bing_table
from repro.parallel import (
    default_workers,
    get_default_workers,
    resolve_workers,
    run_sharded_sweep,
    set_default_workers,
)
from repro.core.speedup import TabulatedSpeedup, UniformSpeedupModel
from repro.schedulers import FixedScheduler, FMScheduler, SequentialScheduler
from repro.telemetry import Telemetry, install
from repro.telemetry.histogram import LogHistogram
from repro.workloads import bing as bing_mod
from repro.workloads.synthetic import DemandDistribution
from repro.workloads.workload import Workload


def _workload():
    return Workload(
        name="parallel-test",
        sampler=DemandDistribution([(1.0, 3.0, 0.6)], floor_ms=1.0),
        speedup_model=UniformSpeedupModel(TabulatedSpeedup([1.0, 1.8, 2.4, 2.9])),
        max_degree=4,
    )


def _schedulers():
    return {"SEQ": SequentialScheduler(), "FIX-2": FixedScheduler(2)}


#: Pooled sweeps against the serial oracle: (schedulers, workload, loads,
#: sweep kwargs, workers).  The Bing grid is FIX-4 and FM on its QUICK
#: table from light load to saturation, 500 requests a cell, 4 workers.
_GRIDS = {
    "synthetic": lambda: (
        _schedulers(), _workload(), [40.0, 100.0],
        dict(num_requests=150, cores=4, seed=1234, repeats=2), 2,
    ),
    "bing-quick": lambda: (
        {"FIX-4": FixedScheduler(4), "FM": FMScheduler(bing_table(QUICK))},
        bing_mod.bing_workload(profile_size=QUICK.profile_size),
        [120.0, 240.0, 420.0, 600.0],
        dict(
            num_requests=QUICK.num_requests, cores=bing_mod.CORES,
            quantum_ms=bing_mod.QUANTUM_MS, spin_fraction=bing_mod.SPIN_FRACTION,
            seed=42, repeats=2,
        ),
        4,
    ),
}


def _serial_sweep(
    schedulers, workload, rps_values, cores, num_requests=2000, quantum_ms=5.0,
    seed=42, repeats=1, phi=0.99, keep_results=False, spin_fraction=0.25,
):
    """The oracle: a plain loop over policies, loads and repeats, one
    run at a time, accumulating as it goes."""
    series = {}
    for name, scheduler in schedulers.items():
        tails, means, kept, histograms = [], [], [], []
        for rps_index, rps in enumerate(rps_values):
            run_tails, run_means, point_results = [], [], []
            point_histogram = LogHistogram()
            for repeat in range(repeats):
                result = run_policy(
                    scheduler,
                    workload,
                    rps=rps,
                    cores=cores,
                    num_requests=num_requests,
                    quantum_ms=quantum_ms,
                    seed=cell_seed(seed, rps_index, repeat),
                    spin_fraction=spin_fraction,
                )
                run_tails.append(result.tail_latency_ms(phi))
                run_means.append(result.mean_latency_ms())
                point_histogram.update(latency_histogram(result))
                if keep_results:
                    point_results.append(result)
            tails.append(float(np.mean(run_tails)))
            means.append(float(np.mean(run_means)))
            histograms.append(point_histogram)
            if keep_results:
                kept.append(point_results)
        series[name] = PolicySeries(
            policy=name,
            rps_values=[float(r) for r in rps_values],
            tail_ms=tails,
            mean_ms=means,
            results=kept,
            histograms=histograms,
        )
    return SweepResult(series=series)


def _assert_sweeps_identical(serial, parallel):
    assert serial.policies() == parallel.policies()
    for name in serial.policies():
        ours, theirs = serial[name], parallel[name]
        assert ours.rps_values == theirs.rps_values
        assert ours.tail_ms == theirs.tail_ms  # raw float equality
        assert ours.mean_ms == theirs.mean_ms
        assert len(ours.histograms) == len(theirs.histograms)
        for hs, hp in zip(ours.histograms, theirs.histograms):
            assert hs.count == hp.count
            assert hs.sum == hp.sum
            assert hs._buckets == hp._buckets  # identical merged buckets
            assert hs.percentile(0.50) == hp.percentile(0.50)
            assert hs.percentile(0.99) == hp.percentile(0.99)
        assert len(ours.results) == len(theirs.results)
        for kept_s, kept_p in zip(ours.results, theirs.results):
            assert [res.records for res in kept_s] == [res.records for res in kept_p]


class TestSweepMatchesSerialOracle:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        repeats=st.integers(min_value=1, max_value=2),
        rps_values=st.lists(
            st.sampled_from([20.0, 60.0, 120.0]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        keep_results=st.booleans(),
    )
    def test_property_matches_oracle_at_workers_1_and_2(
        self, seed, repeats, rps_values, keep_results
    ):
        """In-process and pooled sweeps both reproduce the serial loop
        for arbitrary sweep shapes."""
        kwargs = dict(
            num_requests=60,
            cores=4,
            seed=seed,
            repeats=repeats,
            keep_results=keep_results,
        )
        oracle = _serial_sweep(_schedulers(), _workload(), rps_values, **kwargs)
        for workers in (1, 2):
            _assert_sweeps_identical(
                oracle,
                run_sweep(
                    _schedulers(), _workload(), rps_values, workers=workers, **kwargs
                ),
            )

    @pytest.mark.parametrize("grid", sorted(_GRIDS))
    def test_multiprocess_pool_matches_serial(self, grid):
        """The real pool: identical results across worker processes."""
        schedulers, workload, rps_values, kwargs, workers = _GRIDS[grid]()
        serial = _serial_sweep(schedulers, workload, rps_values, **kwargs)
        parallel = run_sweep(
            schedulers, workload, rps_values, workers=workers, **kwargs
        )
        _assert_sweeps_identical(serial, parallel)

    def test_keep_results_round_trips_records(self):
        kwargs = dict(num_requests=40, cores=4, seed=7, repeats=1, keep_results=True)
        serial = run_sweep(_schedulers(), _workload(), [50.0], workers=1, **kwargs)
        parallel = run_sweep(_schedulers(), _workload(), [50.0], workers=2, **kwargs)
        for name in serial.policies():
            for kept_s, kept_p in zip(serial[name].results, parallel[name].results):
                assert [r.finish_ms for res in kept_s for r in res.records] == [
                    r.finish_ms for res in kept_p for r in res.records
                ]

    def test_ambient_workers_default_reaches_the_pool(self):
        kwargs = dict(num_requests=60, cores=4, seed=3, repeats=1)
        serial = run_sweep(_schedulers(), _workload(), [30.0], workers=1, **kwargs)
        with default_workers(2), mock.patch.object(
            parallel_mod, "_pool_context", wraps=parallel_mod._pool_context
        ) as ctx:
            pooled = run_sweep(_schedulers(), _workload(), [30.0], **kwargs)
        ctx.assert_called_once()
        _assert_sweeps_identical(serial, pooled)


class TestExecutorContract:
    """Where a sweep's cells run decides what they can record, and a
    pool must work without ``fork`` (macOS and Windows spawn)."""

    def _run_spans(self, telemetry):
        return [s for s in telemetry.tracer.by_track("sim") if s.name == "run"]

    def test_in_process_cells_record_into_the_ambient_pipeline(self):
        telemetry = Telemetry()
        with install(telemetry):
            sweep = run_sweep(
                _schedulers(), _workload(), [40.0, 80.0], cores=4,
                num_requests=30, repeats=2, keep_results=True, workers=1,
            )
        completed = sum(
            len(result.records)
            for name in sweep.policies()
            for point in sweep[name].results
            for result in point
        )
        assert completed == 2 * 2 * 2 * 30
        assert len(self._run_spans(telemetry)) == completed

    def test_pool_workers_and_shards_record_nothing(self):
        telemetry = Telemetry()
        with install(telemetry):
            run_sweep(
                _schedulers(), _workload(), [40.0, 80.0], cores=4,
                num_requests=30, workers=2,
            )
            for workers in (1, 2):
                run_sharded_sweep(
                    _schedulers(), _workload(), [40.0, 80.0], cores=4,
                    num_requests=60, shards=2, workers=workers,
                )
        assert self._run_spans(telemetry) == []

    def test_spawned_pools_return_the_in_process_results(self):
        """The only check that cell functions and their bound arguments
        pickle, which a ``spawn`` start method needs."""
        from tests.experiments.test_shards import _assert_sweeps_identical as same_shards

        sweep_kwargs = dict(cores=4, num_requests=40, seed=5, repeats=2)
        shard_kwargs = dict(cores=4, num_requests=80, shards=2, seed=5)
        in_process = (
            run_sweep(_schedulers(), _workload(), [40.0], workers=1, **sweep_kwargs),
            run_sharded_sweep(_schedulers(), _workload(), [40.0], workers=1, **shard_kwargs),
        )
        spawn = multiprocessing.get_context("spawn")
        with mock.patch.object(parallel_mod, "_pool_context", return_value=spawn):
            sweep = run_sweep(_schedulers(), _workload(), [40.0], workers=2, **sweep_kwargs)
            shards = run_sharded_sweep(
                _schedulers(), _workload(), [40.0], workers=2, **shard_kwargs
            )
        _assert_sweeps_identical(in_process[0], sweep)
        same_shards(in_process[1], shards)


class TestHistogramMergePath:
    def test_point_histogram_merges_repeats(self):
        sweep = run_sweep(
            _schedulers(),
            _workload(),
            [40.0],
            cores=4,
            num_requests=30,
            seed=11,
            repeats=3,
        )
        series = sweep["SEQ"]
        assert len(series.histograms) == 1
        assert series.histograms[0].count == 3 * 30

    def test_latency_histogram_counts_completions(self):
        result = run_policy(
            SequentialScheduler(), _workload(), rps=40.0, cores=4, num_requests=25
        )
        histogram = latency_histogram(result)
        assert histogram.count == len(result.records)
        assert histogram.percentile(0.99) <= max(r.latency_ms for r in result.records)


class TestWorkerConfiguration:
    def test_cell_seed_is_policy_independent(self):
        assert cell_seed(42, 0, 0) == 42
        assert cell_seed(42, 1, 0) == 42 + 7919
        assert cell_seed(42, 0, 1) == 42 + 104729
        # distinct cells -> distinct seeds within a realistic grid
        seeds = {cell_seed(42, i, r) for i in range(12) for r in range(5)}
        assert len(seeds) == 60

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # all CPUs
        assert resolve_workers(None) == get_default_workers()
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)

    def test_default_workers_context(self):
        baseline = get_default_workers()
        with default_workers(4) as workers:
            assert workers == 4
            assert get_default_workers() == 4
        assert get_default_workers() == baseline

    def test_set_default_workers_validates(self):
        baseline = get_default_workers()
        try:
            with pytest.raises(ConfigurationError):
                set_default_workers(-2)
        finally:
            set_default_workers(baseline)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeats_validated(self, workers):
        with pytest.raises(ConfigurationError):
            run_sweep(
                _schedulers(), _workload(), [30.0], cores=4, repeats=0, workers=workers
            )
