"""The histogram read kernels against the per-bucket loops they replace.

``LogHistogram`` answers quantiles from a cached cumulative order,
slices consecutive copies over the buckets touched in between, records
bulk input in one inlined loop and round-trips its state through
``zip``/``map``; ``observe.diff.bootstrap_quantiles`` reads every
replicate's ranks in one array op.  Each is an optimization of a loop
kept here as the oracle, so every comparison is ``==`` (floats through
``float.hex`` where a sign or type could hide): the arithmetic did not
change, only how often it runs.
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.observe.diff import bootstrap_quantiles
from repro.telemetry.histogram import LogHistogram

QS = (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0)


# ----------------------------------------------------------------------
# Oracles: the loops the kernels replace
# ----------------------------------------------------------------------
def ref_percentile(h: LogHistogram, q: float) -> float:
    if h._count == 0:
        return math.nan
    rank = max(1, math.ceil(q * h._count))
    cumulative = h._zero_count
    if rank <= cumulative:
        return 0.0
    for index in sorted(h._buckets):
        cumulative += h._buckets[index]
        if rank <= cumulative:
            representative = h._gamma**index * h._rep_factor
            return min(max(representative, h._min), h._max)
    raise AssertionError("counts do not sum to the sample count")


def ref_bucket_points(h: LogHistogram) -> list[tuple[float, int]]:
    points = []
    if h._zero_count:
        points.append((0.0, h._zero_count))
    for index in sorted(h._buckets):
        representative = h._gamma**index * h._rep_factor
        points.append((min(max(representative, h._min), h._max), h._buckets[index]))
    return points


def ref_state(h: LogHistogram) -> tuple:
    return (
        h.relative_error,
        h.min_trackable,
        tuple(sorted(h._buckets.items())),
        h._zero_count,
        h._count,
        h._sum,
        h._min,
        h._max,
    )


def ref_dump_state(h: LogHistogram) -> dict:
    return {
        "relative_error": h.relative_error,
        "min_trackable": h.min_trackable,
        "buckets": {str(index): count for index, count in sorted(h._buckets.items())},
        "zero_count": h._zero_count,
        "count": h._count,
        "sum": h._sum,
        "min": h._min if math.isfinite(h._min) else None,
        "max": h._max if math.isfinite(h._max) else None,
    }


def ref_from_state(data: dict) -> LogHistogram:
    out = LogHistogram(data["relative_error"], data["min_trackable"])
    out._buckets = {int(index): count for index, count in data["buckets"].items()}
    out._zero_count = data["zero_count"]
    out._count = data["count"]
    out._sum = data["sum"]
    out._min = math.inf if data["min"] is None else data["min"]
    out._max = -math.inf if data["max"] is None else data["max"]
    return out


def ref_slice(later: LogHistogram, earlier: LogHistogram) -> LogHistogram:
    """The full scan ``slice_since`` ran on every pair."""
    if earlier.relative_error != later.relative_error:
        raise ConfigurationError("grid")
    if earlier._count > later._count:
        raise ConfigurationError("count")
    out = LogHistogram(later.relative_error, later.min_trackable)
    for index, count in later._buckets.items():
        delta = count - earlier._buckets.get(index, 0)
        if delta < 0:
            raise ConfigurationError("shrank")
        if delta:
            out._buckets[index] = delta
    for index, count in earlier._buckets.items():
        if count and index not in later._buckets:
            raise ConfigurationError("vanished")
    out._zero_count = later._zero_count - earlier._zero_count
    if out._zero_count < 0:
        raise ConfigurationError("zero")
    out._count = later._count - earlier._count
    out._sum = later._sum - earlier._sum
    if out._count:
        if out._buckets:
            indexes = out._buckets.keys()
            out._min = 0.0 if out._zero_count else later._gamma ** min(indexes)
            out._max = later._gamma ** (max(indexes) + 1)
        else:
            out._min = 0.0
            out._max = 0.0
    return out


def ref_record_many(h: LogHistogram, values) -> None:
    for value in values:
        h.record(value)


def ref_bootstrap(h: LogHistogram, phis, resamples: int, rng) -> np.ndarray:
    """The per-row ``searchsorted`` loop."""
    points = h.bucket_points()
    reps = np.array([value for value, _ in points], dtype=float)
    counts = np.array([count for _, count in points], dtype=np.int64)
    n = int(counts.sum())
    draws = rng.multinomial(n, counts / n, size=resamples)
    cumulative = np.cumsum(draws, axis=1)
    ranks = np.maximum(1, np.ceil(np.asarray(phis, dtype=float) * n)).astype(np.int64)
    out = np.empty((resamples, len(ranks)), dtype=float)
    for row in range(resamples):
        indexes = np.searchsorted(cumulative[row], ranks, side="left")
        out[row] = reps[np.minimum(indexes, len(reps) - 1)]
    return out


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def _bits(value):
    """Floats by their bits (and type), so -0.0, nan and a numpy float
    that differs from a Python float all show."""
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    if isinstance(value, list):
        return [_bits(item) for item in value]
    return value


def assert_reads_match(h: LogHistogram) -> None:
    """Every read kernel equals its oracle on ``h``, twice over (the
    second pass reads the cached order)."""
    for _ in range(2):
        assert _bits(h.percentiles(QS)) == _bits([ref_percentile(h, q) for q in QS])
        assert _bits(h.bucket_points()) == _bits(ref_bucket_points(h))
        assert _bits(h.state()) == _bits(ref_state(h))
        assert json.dumps(h.dump_state()) == json.dumps(ref_dump_state(h))


def assert_slice_matches(later: LogHistogram, earlier: LogHistogram) -> None:
    """``slice_since`` equals the full scan, or both raise."""
    try:
        expected = ref_slice(later, earlier)
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            later.slice_since(earlier)
        return
    got = later.slice_since(earlier)
    assert got._buckets == expected._buckets
    assert _bits(got.state()) == _bits(ref_state(expected))
    assert_reads_match(got)


# ----------------------------------------------------------------------
# Random interleavings
# ----------------------------------------------------------------------
_value = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-9, exclude_max=True),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
)
_values = st.lists(_value, max_size=12)
_pick = st.integers(min_value=0, max_value=1000)
_op = st.one_of(
    st.tuples(st.just("record"), _value, st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("record_many"), _values),
    st.tuples(st.just("update"), _values),
    st.tuples(st.just("merge"), _values),
    st.tuples(st.just("copy")),
    st.tuples(st.just("copy_of_copy"), _pick),
    st.tuples(st.just("record_into_copy"), _pick, _value),
    st.tuples(st.just("slice"), _pick, _pick),
    st.tuples(st.just("rebuild"), _pick),
)


def _from(values) -> LogHistogram:
    other = LogHistogram()
    ref_record_many(other, values)
    return other


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=40))
def test_random_interleavings_match_the_loops(ops):
    source = LogHistogram()
    copies: list[LogHistogram] = []
    for op in ops:
        kind = op[0]
        if kind == "record":
            source.record(op[1], op[2])
        elif kind == "record_many":
            source.record_many(op[1])
        elif kind == "update":
            source.update(_from(op[1]))
        elif kind == "merge":
            merged = source.merge(_from(op[1]))
            assert_reads_match(merged)
            source.update(_from(op[1]))
            assert _bits(merged.state()) == _bits(ref_state(source))
        elif kind == "copy":
            copies.append(source.copy())
            assert _bits(copies[-1].state()) == _bits(ref_state(source))
        elif copies and kind == "copy_of_copy":
            copies.append(copies[op[1] % len(copies)].copy())
        elif copies and kind == "record_into_copy":
            copies[op[1] % len(copies)].record(op[2])
        elif copies and kind == "slice":
            first, second = sorted((op[1] % len(copies), op[2] % len(copies)))
            assert_slice_matches(copies[second], copies[first])
            # The source against any copy: never linked, always scanned.
            assert_slice_matches(source, copies[first])
        elif copies and kind == "rebuild":
            index = op[1] % len(copies)
            data = json.loads(json.dumps(copies[index].dump_state()))
            rebuilt = LogHistogram.from_state(data)
            assert _bits(rebuilt.state()) == _bits(ref_state(ref_from_state(data)))
            copies.append(rebuilt)
        # Queries after every step; the second pass of each reads the
        # cached order.
        assert_reads_match(source)
    # Every consecutive pair of copies, at the end as well.
    for earlier, later in zip(copies, copies[1:]):
        assert_slice_matches(later, earlier)


# ----------------------------------------------------------------------
# Slices: each kind of pair
# ----------------------------------------------------------------------
class TestSlicePairs:
    def _stream(self):
        source = LogHistogram()
        source.record_many([1.0, 2.0, 0.0, 40.0])
        first = source.copy()
        source.record_many([2.0, 300.0])
        second = source.copy()
        source.record(0.0)
        source.update(_from([7.0, 7.0, 5000.0]))
        third = source.copy()
        return source, first, second, third

    def test_newest_copy(self):
        _, _, second, third = self._stream()
        assert_slice_matches(third, second)

    def test_older_copy(self):
        _, first, _, third = self._stream()
        assert_slice_matches(third, first)

    def test_copy_of_a_copy(self):
        source, first, second, _ = self._stream()
        again = second.copy()
        assert_slice_matches(again, first)
        assert_slice_matches(source.copy(), again)

    def test_from_state_rebuild(self):
        source, _, second, _ = self._stream()
        rebuilt = LogHistogram.from_state(json.loads(json.dumps(second.dump_state())))
        assert_slice_matches(source.copy(), rebuilt)

    def test_stale_carried_set_falls_back(self):
        source = LogHistogram()
        source.record_many([1.0, 50.0])
        first = source.copy()
        source.record_many([50.0, 900.0])
        second = source.copy()
        # Drop a moved bucket from the carried set, as a record racing
        # the copy would: only the total check can notice.
        second._link[2].discard(next(iter(second._link[2])))
        assert_slice_matches(second, first)

    def test_copy_recorded_into_falls_back(self):
        source = LogHistogram()
        source.record(1.0)
        first = source.copy()
        source.record(2.0)
        second = source.copy()
        second.record(123.0)  # not in the carried set
        assert_slice_matches(second, first)

    def test_previous_recorded_into_falls_back(self):
        source = LogHistogram()
        source.record(1.0)
        first = source.copy()
        source.record(2.0)
        second = source.copy()
        first.record(64.0)
        second.record(128.0)
        with pytest.raises(ConfigurationError):
            second.slice_since(first)

    def test_copies_do_not_keep_older_copies_alive(self):
        source = LogHistogram()
        source.record(1.0)
        first = source.copy()
        probe = weakref.ref(first)
        source.record(2.0)
        second = source.copy()
        del first
        gc.collect()
        assert probe() is None
        assert second.count == 2

    def test_pickled_copy_slices_by_scan(self):
        import pickle

        source = LogHistogram()
        source.record(1.0)
        first = source.copy()
        source.record(2.0)
        second = pickle.loads(pickle.dumps(source.copy()))
        assert second._link is None
        assert_slice_matches(second, first)
        source.record(3.0)
        assert_reads_match(pickle.loads(pickle.dumps(source)))


# ----------------------------------------------------------------------
# record_many
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(_value, max_size=60),
    prefix=st.lists(_value, max_size=5),
    tracked=st.booleans(),
)
def test_record_many_equals_per_value_record(values, prefix, tracked):
    bulk, loop = LogHistogram(), LogHistogram()
    for h in (bulk, loop):
        ref_record_many(h, prefix)
        if tracked:
            h.copy()
    bulk.record_many(values)
    ref_record_many(loop, values)
    assert _bits(bulk.state()) == _bits(loop.state())
    assert bulk._touched == loop._touched


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 0.0, 5e-10, 3.0, -2.0, 7.0],
        [-0.5],
        [0.0, 1e-12, -1e-12],
        np.array([4.0, 8.0, -1.0, 9.0]),
    ],
)
def test_negative_value_part_way_leaves_the_same_partial_state(values):
    bulk, loop = LogHistogram(), LogHistogram()
    bulk.copy()
    loop.copy()
    with pytest.raises(ConfigurationError) as bulk_error:
        bulk.record_many(values)
    with pytest.raises(ConfigurationError) as loop_error:
        ref_record_many(loop, values)
    assert str(bulk_error.value) == str(loop_error.value)
    assert _bits(bulk.state()) == _bits(loop.state())
    assert bulk._touched == loop._touched


def test_record_many_of_numpy_floats_keeps_the_sum_type():
    values = np.random.default_rng(3).lognormal(2.0, 1.0, size=500)
    bulk, loop = LogHistogram(), LogHistogram()
    bulk.record_many(values)
    ref_record_many(loop, values)
    assert _bits(bulk.state()) == _bits(loop.state())


# ----------------------------------------------------------------------
# State round trip and bootstrap
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(values=st.lists(_value, max_size=80))
def test_state_round_trip_is_byte_identical_to_the_comprehensions(values):
    h = LogHistogram()
    h.record_many(values)
    text = json.dumps(h.dump_state())
    assert text == json.dumps(ref_dump_state(h))
    rebuilt = LogHistogram.from_state(json.loads(text))
    expected = ref_from_state(json.loads(text))
    assert _bits(rebuilt.state()) == _bits(ref_state(expected))
    assert json.dumps(rebuilt.dump_state()) == text


@pytest.mark.parametrize("seed", [0, 1, 2718])
@pytest.mark.parametrize("size", [1, 7, 3000])
def test_bootstrap_equals_the_per_row_loop(seed, size):
    data = np.random.default_rng(seed).lognormal(3.0, 1.2, size=size)
    h = LogHistogram()
    h.record_many(np.concatenate([data, np.zeros(size // 7)]))
    phis = (0.0, 0.5, 0.9, 0.99, 0.999, 1.0)
    got = bootstrap_quantiles(h, phis, 150, np.random.default_rng(seed))
    want = ref_bootstrap(h, phis, 150, np.random.default_rng(seed))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


# ----------------------------------------------------------------------
# The work gate: reads cost per query and per new sample
# ----------------------------------------------------------------------
class TestWorkGate:
    """Counts, not times, so a change that brings back per-bucket reads
    fails on every host."""

    def _wide(self) -> LogHistogram:
        h = LogHistogram()
        # 1 200 distinct buckets: gamma**i for i in 0..1199.
        h.record_many(h._gamma ** (i + 0.5) for i in range(1200))
        assert h.bucket_count >= 1000
        return h

    def test_slice_against_the_latest_copy_skips_the_full_scan(self, monkeypatch):
        scans = []
        scan = LogHistogram._scanned_deltas
        monkeypatch.setattr(
            LogHistogram,
            "_scanned_deltas",
            lambda self, previous: scans.append(1) or scan(self, previous),
        )
        h = self._wide()
        first = previous = h.copy()
        for k in (1, 5, 40):
            h.record(3.0)
            h.record_many([0.0, 17.0] * k)
            h.update(_from([250.0] * k))
            current = h.copy()
            window = current.slice_since(previous)
            assert window.count == 1 + 2 * k + k
            assert_slice_matches(current, previous)
            previous = current
        assert scans == []
        # The check is live: an older copy takes the scan.
        h.record(9.0)
        h.copy().slice_since(first)
        assert scans == [1]

    def test_repeated_queries_build_the_order_once(self, monkeypatch):
        builds = []
        build = LogHistogram._build_order
        monkeypatch.setattr(
            LogHistogram,
            "_build_order",
            lambda self, count: builds.append(count) or build(self, count),
        )
        h = self._wide()
        for _ in range(50):
            h.percentiles(QS)
            h.bucket_points()
            h.state()
            h.dump_state()
            h.as_dict()
        assert builds == [h.count]
        h.record(5.0)
        h.percentile(0.5)
        h.percentile(0.99)
        assert builds == [h.count - 1, h.count]
