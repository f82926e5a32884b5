"""Streaming log-bucketed latency histograms (HDR/DDSketch-style).

A :class:`LogHistogram` records non-negative samples into geometrically
spaced buckets: bucket ``i`` covers ``[gamma**i, gamma**(i+1))`` with
``gamma = (1 + eps) / (1 - eps)``.  Reporting the relative-error-optimal
representative ``gamma**i * 2*gamma / (1 + gamma)`` makes every quantile
answer accurate to a *relative* error of at most ``eps`` — the guarantee
that matters for latency tails, where p99 may be 1000x the median and a
fixed absolute bin width would be either useless or enormous.

Properties the rest of the system relies on:

* **Streaming** — O(1) per sample, memory proportional to the *dynamic
  range* of the data (buckets actually hit), not the sample count.
* **Mergeable** — histograms with the same ``eps`` merge by adding
  bucket counts; merging is associative and commutative, so per-shard
  histograms roll up to cluster totals exactly (the Dapper/Monarch
  aggregation model).
* **Bounded error** — ``percentile(q)`` agrees with
  ``numpy.percentile(data, 100*q, method="inverted_cdf")`` to within
  the documented relative error ``eps`` (plus float rounding at bucket
  boundaries), for every ``q``.

Percentiles use the order-statistic rank ``ceil(q * n)`` — the same
convention as :func:`repro.core.formulas.weighted_order_statistic` and
the paper's tail-latency definition.

**Reads cost per query, not per bucket.**  The sorted bucket indexes
and their running counts are cached, keyed on the sample count they
were built at; every mutation raises the count, so recording never
invalidates anything and a query on an unchanged histogram is one
``bisect``.  A :meth:`~LogHistogram.copy` *marks its source*: from
then on the source keeps the set of buckets touched since its newest
copy, and the next copy carries that set plus a weak link to the copy
it follows, so :meth:`~LogHistogram.slice_since` between consecutive
copies walks only the touched buckets.  A C-level total check proves
the set covers every change; any other pair falls back to the full
scan.

**Empty-quantile contract.** Monitoring surfaces — this class,
:class:`repro.runtime.server.LiveServerStats`, and
:class:`repro.observe.slo.SLOMonitor` — return ``math.nan`` from
quantile/mean queries over zero samples: dashboards poll them mid-run
(possibly before the first completion, or after an all-shed drain) and
must render "no data" rather than crash.  *Completed-run analysis*
surfaces — :meth:`repro.sim.metrics.SimulationResult.tail_latency_ms`
and :func:`repro.core.formulas.weighted_order_statistic` — raise
instead: a finished experiment with zero completions is a broken
experiment, and a silent ``nan`` would propagate into tables and
benchmark JSON as a mysterious blank.  When adding a quantile surface,
pick the side that matches how it is read, and say so in its docstring.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable

from repro.errors import ConfigurationError

__all__ = ["LogHistogram"]

#: The slots that make up a histogram's value; the rest are caches and
#: copy links, rebuilt or dropped on unpickling.
_STATE_SLOTS = (
    "relative_error",
    "min_trackable",
    "_gamma",
    "_log_gamma",
    "_rep_factor",
    "_buckets",
    "_zero_count",
    "_count",
    "_sum",
    "_min",
    "_max",
)


class LogHistogram:
    """A mergeable log-bucketed histogram with bounded relative error.

    Parameters
    ----------
    relative_error:
        Maximum relative error of :meth:`percentile` answers (default
        1%).  Smaller values mean more, narrower buckets.
    min_trackable:
        Values in ``[0, min_trackable)`` collapse into a dedicated zero
        bucket whose representative is 0.0 — they are counted, not
        resolved (a latency below a nanosecond is noise, not signal).
    """

    __slots__ = _STATE_SLOTS + (
        # (count, sorted indexes, their counts, running counts from the
        # zero bucket's): the cumulative order, valid while _count
        # equals its first field.
        "_order",
        # Bucket indexes touched since the newest copy; None until the
        # first copy, so a never-copied histogram tracks nothing.
        "_touched",
        # (weak reference to the newest copy, its count at the copy),
        # for the next copy's link.
        "_last_copy",
        # On a copy: (weak reference to the copy it follows, that copy's
        # count, the indexes the source touched in between), else None.
        "_link",
        "__weakref__",
    )

    def __init__(
        self, relative_error: float = 0.01, min_trackable: float = 1e-9
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ConfigurationError(
                f"relative_error must be in (0, 1): {relative_error}"
            )
        if min_trackable <= 0.0:
            raise ConfigurationError(
                f"min_trackable must be positive: {min_trackable}"
            )
        self.relative_error = relative_error
        self.min_trackable = min_trackable
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        # Midpoint (in relative terms) of a bucket: the representative
        # minimizing the worst-case relative error over [g^i, g^(i+1)).
        self._rep_factor = 2.0 * self._gamma / (1.0 + self._gamma)
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._order = None
        self._touched = None
        self._last_copy = None
        self._link = None

    def __getstate__(self) -> dict:
        # Weak references do not pickle; an unpickled histogram starts
        # unmarked and unlinked, so its first slice takes the full scan.
        return {name: getattr(self, name) for name in _STATE_SLOTS}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._order = None
        self._touched = None
        self._last_copy = None
        self._link = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value`` (must be >= 0)."""
        if value < 0:
            raise ConfigurationError(f"histogram values must be >= 0: {value}")
        if count < 1:
            raise ConfigurationError(f"count must be >= 1: {count}")
        if value < self.min_trackable:
            self._zero_count += count
        else:
            index = math.floor(math.log(value) / self._log_gamma)
            self._buckets[index] = self._buckets.get(index, 0) + count
            touched = self._touched
            if touched is not None:
                touched.add(index)
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def record_many(self, values: Iterable[float]) -> None:
        """Record every value in an iterable.

        The same result as :meth:`record` per value, bit for bit: each
        value's operations run in :meth:`record`'s order (``sum`` adds
        every value in turn), and a value that raises leaves the
        values before it recorded.
        """
        buckets = self._buckets
        touched = self._touched
        log = math.log
        floor = math.floor
        log_gamma = self._log_gamma
        min_trackable = self.min_trackable
        zero = self._zero_count
        count = self._count
        total = self._sum
        low = self._min
        high = self._max
        try:
            for value in values:
                if value < 0:
                    raise ConfigurationError(
                        f"histogram values must be >= 0: {value}"
                    )
                if value < min_trackable:
                    zero += 1
                else:
                    index = floor(log(value) / log_gamma)
                    buckets[index] = buckets.get(index, 0) + 1
                    if touched is not None:
                        touched.add(index)
                count += 1
                total += value
                if value < low:
                    low = value
                if value > high:
                    high = value
        finally:
            # The zero bucket before the count, as in record(): a
            # concurrent reader never sees a count its buckets lack.
            self._zero_count = zero
            self._count = count
            self._sum = total
            self._min = low
            self._max = high

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values (exact, not bucketed)."""
        return self._sum

    @property
    def min(self) -> float:
        """Smallest observed value (exact); ``nan`` when empty."""
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        """Largest observed value (exact); ``nan`` when empty."""
        return self._max if self._count else math.nan

    def mean(self) -> float:
        """Exact mean of observations; ``nan`` when empty."""
        return self._sum / self._count if self._count else math.nan

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) to within the configured
        relative error; ``nan`` when the histogram is empty.

        Uses the order-statistic rank ``ceil(q * count)`` (clamped to at
        least 1), matching ``numpy.percentile(..., method="inverted_cdf")``.
        The answer is clamped to the exact observed ``[min, max]`` so
        extreme quantiles never overshoot the data.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1]: {q}")
        if self._count == 0:
            return math.nan
        count, indexes, _, running = self._cumulative()
        rank = max(1, math.ceil(q * count))
        position = bisect_left(running, rank)
        if position == 0:
            return 0.0  # the rank falls in the zero bucket
        if position > len(indexes):  # pragma: no cover - a copy raced by a record
            return self._max
        representative = self._gamma ** indexes[position - 1] * self._rep_factor
        return min(max(representative, self._min), self._max)

    def percentiles(self, qs: Iterable[float]) -> list[float]:
        """Vectorized :meth:`percentile`."""
        return [self.percentile(q) for q in qs]

    def _cumulative(self) -> tuple:
        """The cached cumulative order for the current ``_count``."""
        count = self._count
        order = self._order
        if order is None or order[0] != count:
            order = self._order = self._build_order(count)
        return order

    def _build_order(self, count: int) -> tuple:
        # ``count`` is read before the buckets, and record() adds to a
        # bucket before the count, so under a concurrent record the
        # buckets hold at least ``count`` samples: a rank never runs
        # off the end of the running counts.
        zero = self._zero_count
        buckets = self._buckets
        indexes = sorted(buckets)
        counts = list(map(buckets.__getitem__, indexes))
        return (count, indexes, counts, list(accumulate(counts, initial=zero)))

    # ------------------------------------------------------------------
    # Snapshots and window slices (the live-plane surface, DESIGN.md §13)
    # ------------------------------------------------------------------
    def copy(self) -> "LogHistogram":
        """An independent deep copy (same grid, same contents).

        Snapshot-and-subtract is how the live observability plane cuts
        a cumulative histogram into per-window slices without touching
        the recording hot path: :meth:`copy` at each window boundary,
        :meth:`slice_since` the previous snapshot.

        A copy marks its source: the source then keeps the set of
        bucket indexes touched since this copy, and its next copy
        carries that set and a weak link to this one, so slicing the
        next copy against this one costs per touched bucket.  The link
        is weak: a copy never keeps an older copy alive.
        """
        out = LogHistogram(self.relative_error, self.min_trackable)
        out._buckets = dict(self._buckets)
        out._zero_count = self._zero_count
        out._count = self._count
        out._sum = self._sum
        out._min = self._min
        out._max = self._max
        touched, self._touched = self._touched, set()
        if touched is not None:
            out._link = (*self._last_copy, touched)
        self._last_copy = (weakref.ref(out), out._count)
        return out

    def state(self) -> tuple:
        """The full internal state as a hashable tuple.

        Two histograms compare equal under :meth:`state` iff every
        bucket count, the exact sum, and the min/max bounds are
        bit-identical — the comparison the cross-shard merge contract
        (windows merged in shard-index order reproduce the same state
        regardless of worker count) is audited against.
        """
        _, indexes, counts, _ = self._cumulative()
        return (
            self.relative_error,
            self.min_trackable,
            tuple(zip(indexes, counts)),
            self._zero_count,
            self._count,
            self._sum,
            self._min,
            self._max,
        )

    def slice_since(self, previous: "LogHistogram") -> "LogHistogram":
        """The window slice: observations recorded in ``self`` but not
        in ``previous`` (an earlier :meth:`copy` of the *same* stream).

        Bucket counts subtract exactly (they are integers), so slices
        merge back to the cumulative histogram bucket-for-bucket and
        every quantile keeps the ``relative_error`` guarantee: a
        slice's min/max are *bucket bounds* (``gamma**i`` edges) rather
        than exact observed values — the bounds of the smallest and
        largest non-empty delta buckets — which never clamp a
        representative outside its own bucket.  The slice ``sum`` is
        the float difference of the cumulative sums: deterministic,
        but carrying the usual accumulated-rounding residue relative
        to summing the window's values directly (bounded by a few ULPs
        of the cumulative sum).

        When ``previous`` is the copy this one's link names (consecutive
        :meth:`copy` calls of one source), unchanged since, only the
        buckets the source touched in between are walked, once a
        C-level total check proves they hold every change; any other
        pair takes the full scan, with the same result.
        """
        if previous.relative_error != self.relative_error:
            raise ConfigurationError(
                "cannot slice histograms with different relative errors: "
                f"{self.relative_error} vs {previous.relative_error}"
            )
        if previous._count > self._count:
            raise ConfigurationError(
                "slice_since requires an earlier snapshot of the same "
                f"stream: previous count {previous._count} > {self._count}"
            )
        out = LogHistogram(self.relative_error, self.min_trackable)
        deltas = None
        link = self._link
        if link is not None and link[0]() is previous and link[1] == previous._count:
            deltas = self._carried_deltas(previous, link[2])
        out._buckets = self._scanned_deltas(previous) if deltas is None else deltas
        out._zero_count = self._zero_count - previous._zero_count
        if out._zero_count < 0:
            raise ConfigurationError(
                "zero bucket shrank: not a snapshot of the same stream"
            )
        out._count = self._count - previous._count
        out._sum = self._sum - previous._sum
        if out._count:
            if out._buckets:
                indexes = out._buckets.keys()
                out._min = 0.0 if out._zero_count else self._gamma ** min(indexes)
                out._max = self._gamma ** (max(indexes) + 1)
            else:  # only zero-bucket observations in the window
                out._min = 0.0
                out._max = 0.0
        return out

    def _carried_deltas(
        self, previous: "LogHistogram", carried: set[int]
    ) -> dict[int, int] | None:
        """Bucket deltas over the carried indexes, or ``None`` when the
        total check cannot prove they hold every change (a record that
        raced the copy, a copy recorded into since)."""
        buckets = self._buckets
        before = previous._buckets.get
        deltas: dict[int, int] = {}
        moved = 0
        for index in carried:
            delta = buckets.get(index, 0) - before(index, 0)
            if delta:
                deltas[index] = delta
                moved += delta
        # Any uncarried bucket that moved changes this difference.
        if sum(buckets.values()) - sum(previous._buckets.values()) != moved:
            return None
        return deltas

    def _scanned_deltas(self, previous: "LogHistogram") -> dict[int, int]:
        """Bucket deltas by a scan of every bucket of both histograms."""
        deltas: dict[int, int] = {}
        for index, count in self._buckets.items():
            delta = count - previous._buckets.get(index, 0)
            if delta < 0:
                raise ConfigurationError(
                    f"bucket {index} shrank from {previous._buckets[index]} "
                    f"to {count}: not a snapshot of the same stream"
                )
            if delta:
                deltas[index] = delta
        for index, count in previous._buckets.items():
            if count and index not in self._buckets:
                raise ConfigurationError(
                    f"bucket {index} shrank from {count} to 0: not a "
                    "snapshot of the same stream"
                )
        return deltas

    def bucket_points(self) -> list[tuple[float, int]]:
        """The discrete distribution :meth:`percentile` answers from:
        sorted ``(representative, count)`` pairs, zero bucket first,
        representatives clamped to the observed ``[min, max]`` exactly
        as :meth:`percentile` clamps them.

        Read-only export for resampling consumers (the bootstrap CIs in
        :mod:`repro.observe.diff`): drawing ranks against these points
        with the total :attr:`count` reproduces every quantile answer
        bit for bit, so a bootstrap built on them is consistent with
        the point estimates it brackets.
        """
        _, indexes, counts, running = self._cumulative()
        gamma, factor, low, high = self._gamma, self._rep_factor, self._min, self._max
        zero = running[0]
        points: list[tuple[float, int]] = [(0.0, zero)] if zero else []
        points += [
            (min(max(gamma**index * factor, low), high), count)
            for index, count in zip(indexes, counts)
        ]
        return points

    def dump_state(self) -> dict:
        """Full-fidelity JSON-ready state (every bucket, not a summary).

        Unlike :meth:`as_dict` this round-trips: :meth:`from_state`
        rebuilds a histogram whose :meth:`state` matches, so window
        slices can ship across processes (the JSONL time-series
        exporter) and still merge bit-identically.  Non-finite min/max
        (the empty histogram) serialize as ``None``.
        """
        _, indexes, counts, _ = self._cumulative()
        return {
            "relative_error": self.relative_error,
            "min_trackable": self.min_trackable,
            "buckets": dict(zip(map(str, indexes), counts)),
            "zero_count": self._zero_count,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if math.isfinite(self._min) else None,
            "max": self._max if math.isfinite(self._max) else None,
        }

    @classmethod
    def from_state(cls, data: dict) -> "LogHistogram":
        """Rebuild a histogram from :meth:`dump_state` output."""
        out = cls(data["relative_error"], data["min_trackable"])
        buckets = data["buckets"]
        out._buckets = dict(zip(map(int, buckets), buckets.values()))
        out._zero_count = data["zero_count"]
        out._count = data["count"]
        out._sum = data["sum"]
        out._min = math.inf if data["min"] is None else data["min"]
        out._max = -math.inf if data["max"] is None else data["max"]
        return out

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Return a new histogram holding both inputs' observations.

        Associative and commutative; both inputs are left untouched.
        Requires identical ``relative_error`` (bucket grids must line
        up for counts to add).
        """
        merged = LogHistogram(self.relative_error, self.min_trackable)
        merged.update(self)
        merged.update(other)
        return merged

    def update(self, other: "LogHistogram") -> None:
        """In-place merge of ``other`` into ``self``."""
        if other.relative_error != self.relative_error:
            raise ConfigurationError(
                "cannot merge histograms with different relative errors: "
                f"{self.relative_error} vs {other.relative_error}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        if self._touched is not None:
            self._touched.update(other._buckets)
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        """Distinct buckets in use (memory footprint proxy)."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def as_dict(self) -> dict:
        """Summary snapshot used by exporters and dashboards."""
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "relative_error": self.relative_error,
            "buckets": self.bucket_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogHistogram(count={self._count}, mean={self.mean():.4g}, "
            f"p99={self.percentile(0.99):.4g}, eps={self.relative_error})"
        )
