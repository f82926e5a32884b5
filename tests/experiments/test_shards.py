"""Sharded sweep orchestration (DESIGN.md §14): ``workers`` must be a
pure wall-clock knob (bit-identical merges for any worker count),
``shards=1`` must equal a plain streamed run, and the shard/worker
resolution machinery must keep its raw-value semantics."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel as parallel_mod
from repro.errors import ConfigurationError
from repro.experiments import mega_sweep
from repro.experiments.config import QUICK, Scale
from repro.experiments.runner import cell_seed, stream_policy
from repro.experiments.tables import bing_table
from repro.parallel import (
    default_shards,
    default_workers,
    get_default_shards,
    resolve_shards,
    run_sharded_sweep,
    set_default_shards,
    shard_sizes,
)
from repro.schedulers import FixedScheduler, FMScheduler, SequentialScheduler
from repro.workloads import bing as bing_mod
from tests.experiments.test_parallel_bugfixes import _workload

_RPS = [40.0, 80.0]


def _schedulers():
    return {"SEQ": SequentialScheduler(), "FIX-2": FixedScheduler(2)}


def _sweep(workers, shards=3, vectorized=False):
    return run_sharded_sweep(
        _schedulers(),
        _workload(),
        _RPS,
        cores=4,
        num_requests=120,
        shards=shards,
        workers=workers,
        seed=7,
        vectorized=vectorized,
    )


def _bing_sweep(workers):
    """FIX-4 and FM on its QUICK Bing table at 240 and 600 RPS, 500
    requests a cell in 4 shards."""
    return run_sharded_sweep(
        {"FIX-4": FixedScheduler(4), "FM": FMScheduler(bing_table(QUICK))},
        bing_mod.bing_workload(profile_size=QUICK.profile_size),
        [240.0, 600.0],
        cores=bing_mod.CORES,
        num_requests=QUICK.num_requests,
        shards=4,
        workers=workers,
        quantum_ms=bing_mod.QUANTUM_MS,
        seed=42,
        spin_fraction=bing_mod.SPIN_FRACTION,
    )


_SWEEPS = {"synthetic": _sweep, "bing-quick": _bing_sweep}


def _assert_sweeps_identical(a, b):
    assert a.policies() == b.policies()
    assert a.rps_values == b.rps_values
    assert a.shards == b.shards
    for policy in a.policies():
        for sa, sb in zip(a[policy], b[policy]):
            assert sa.histogram.state() == sb.histogram.state()
            assert sa.as_dict() == sb.as_dict()
            assert sa.duration_ms == sb.duration_ms
            assert sa.thread_integral == sb.thread_integral
            assert sa.system_count_integral == sb.system_count_integral


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("grid", sorted(_SWEEPS))
    def test_workers_is_not_a_results_knob(self, grid):
        sweep = _SWEEPS[grid]
        serial = sweep(workers=1)
        _assert_sweeps_identical(serial, sweep(workers=2))
        _assert_sweeps_identical(serial, sweep(workers=4))

    def test_mega_sweep_experiment_is_identical_across_workers(self, monkeypatch):
        # The experiment's own grid (FM on its Lucene table, FIX-4, three
        # loads) with 1000-request cells: four shards of 250 still cross
        # shard boundaries, in about a second instead of the CLI's 35 s.
        monkeypatch.setattr(mega_sweep, "REQUESTS_PER_SCALE_UNIT", 100)
        scale = Scale("smoke", num_requests=10, profile_size=300, num_bins=24, step_ms=100.0)
        serial = mega_sweep.run_mega_sweep(scale, shards=4, workers=1)
        assert serial.num_requests == 1000
        for workers in (2, 4):
            _assert_sweeps_identical(
                serial, mega_sweep.run_mega_sweep(scale, shards=4, workers=workers)
            )

    def test_vectorized_shards_match_scalar_shards(self):
        _assert_sweeps_identical(
            _sweep(workers=1, vectorized=False), _sweep(workers=2, vectorized=True)
        )

    def test_all_requests_accounted(self):
        sweep = _sweep(workers=2)
        for policy in sweep.policies():
            for summary in sweep[policy]:
                assert summary.count + summary.shed_count == 120

    def test_tail_and_mean_views(self):
        sweep = _sweep(workers=1)
        points = sweep.tail_points("SEQ")
        assert [rps for rps, _ in points] == _RPS
        assert all(tail > 0 for _, tail in points)
        assert all(
            mean <= tail
            for (_, mean), (_, tail) in zip(sweep.mean_points("SEQ"), points)
        )


class TestShardSemantics:
    def test_one_shard_is_a_plain_streamed_run(self):
        sweep = _sweep(workers=1, shards=1)
        for rps_index, rps in enumerate(_RPS):
            direct = stream_policy(
                SequentialScheduler(),
                _workload(),
                rps=rps,
                cores=4,
                num_requests=120,
                seed=cell_seed(7, rps_index, 0),
            )
            assert sweep["SEQ"][rps_index].histogram.state() == direct.histogram.state()
            assert sweep["SEQ"][rps_index].as_dict() == direct.as_dict()

    def test_shard_seeds_are_policy_independent(self):
        """Every policy replays the same shard traces (the paired
        comparison discipline): total trace durations match exactly."""
        sweep = _sweep(workers=1)
        # Shard traces are policy-independent; completed counts are a
        # trace property under non-shedding policies.
        for a, b in zip(sweep["SEQ"], sweep["FIX-2"]):
            assert a.count == b.count

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_axes_rejected_before_any_pool_is_created(self, workers):
        with mock.patch.object(parallel_mod, "_pool_context") as ctx:
            with pytest.raises(ConfigurationError, match="at least one scheduler"):
                run_sharded_sweep(
                    {}, _workload(), _RPS, cores=4, num_requests=10, workers=workers
                )
            with pytest.raises(ConfigurationError, match="at least one rps"):
                run_sharded_sweep(
                    _schedulers(), _workload(), [], cores=4, num_requests=10,
                    workers=workers,
                )
        ctx.assert_not_called()

    def test_in_process_path_leaves_worker_global_untouched(self):
        sentinel = object()
        with mock.patch.object(parallel_mod, "_RUN", sentinel):
            _sweep(workers=1)
            assert parallel_mod._RUN is sentinel


class TestShardSizes:
    def test_exact_split(self):
        assert shard_sizes(120, 3) == [40, 40, 40]

    def test_remainder_goes_to_first_shards(self):
        assert shard_sizes(10, 4) == [3, 3, 2, 2]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            shard_sizes(0, 1)
        with pytest.raises(ConfigurationError):
            shard_sizes(10, 0)
        with pytest.raises(ConfigurationError, match="non-empty"):
            shard_sizes(3, 5)

    @given(
        total=st.integers(min_value=1, max_value=10_000),
        shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, total, shards):
        if shards > total:
            with pytest.raises(ConfigurationError):
                shard_sizes(total, shards)
            return
        sizes = shard_sizes(total, shards)
        assert sum(sizes) == total
        assert len(sizes) == shards
        assert all(s >= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # extras go first


class TestShardResolution:
    def test_zero_stored_raw(self):
        with default_shards(0):
            assert get_default_shards() == 0

    def test_zero_resolves_against_workers_at_use_time(self):
        assert resolve_shards(0, workers=6) == 6
        assert resolve_shards(0, workers=1) == 1
        with default_shards(0):
            assert resolve_shards(None, workers=3) == 3

    def test_nested_context_restores_raw_sentinel(self):
        with default_shards(0):
            with default_shards(5):
                assert get_default_shards() == 5
            assert get_default_shards() == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            set_default_shards(-1)
        with pytest.raises(ConfigurationError):
            resolve_shards(-2, workers=1)

    def test_shards_zero_follows_workers_in_sweep(self):
        with default_workers(1):
            sweep = run_sharded_sweep(
                {"SEQ": SequentialScheduler()},
                _workload(),
                [50.0],
                cores=4,
                num_requests=30,
                shards=0,
            )
        assert sweep.shards == 1


class TestCliShardsFlag:
    def test_flag_parses_with_default_one(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["mega-sweep"])
        assert args.shards == 1
        args = build_parser().parse_args(["mega-sweep", "--shards", "4"])
        assert args.shards == 4
