"""Windowed metric time series: the live plane's storage layer.

The rest of the telemetry stack is *cumulative* — counters only grow,
histograms only fill.  Operators and controllers need *windows*: what
happened in the last 100 ms, not since boot.  This module turns the
cumulative instruments into a bounded stream of
:class:`WindowSnapshot`\\ s:

* :class:`TimeseriesRecorder` snapshots a
  :class:`~repro.telemetry.metrics.MetricsRegistry` at window
  boundaries (:meth:`MetricsRegistry.snapshot` +
  :meth:`RegistrySnapshot.delta_since`) and keeps the last ``capacity``
  windows in a ring buffer — O(instruments) per snapshot, O(capacity)
  memory, zero cost on the recording hot path;
* :func:`merge_window_streams` folds per-shard window streams into one
  (the ``repro.parallel --workers N`` reduction) — **bit-identically**,
  provided the caller passes streams in shard-index order, because the
  fold visits shards left to right in one level (no tree reduction:
  float addition is non-associative, so a two-level merge would drift);
* :func:`render_prometheus` exposes any snapshot (or a whole registry)
  in the Prometheus text exposition format;
* :func:`write_timeseries_jsonl` / :func:`read_timeseries_jsonl`
  round-trip window streams through JSONL with full histogram bucket
  state (:meth:`LogHistogram.dump_state`), so ``repro top --follow``
  can tail a file another process appends to.

Determinism contract (DESIGN.md §13): a window snapshot is a pure
function of the instrument stream and the window grid, both of which
are deterministic per shard; merging in shard-index order is therefore
reproducible across any worker count.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.export import open_text
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.metrics import MetricsRegistry, RegistrySnapshot

__all__ = [
    "WindowSnapshot",
    "TimeseriesRecorder",
    "TimeseriesTailer",
    "merge_window_streams",
    "render_prometheus",
    "write_timeseries_jsonl",
    "read_timeseries_jsonl",
]


@dataclass(frozen=True)
class WindowSnapshot:
    """One window of metric activity on a fixed grid.

    ``index`` is the window's position on the grid (``start_ms = index
    * window_ms`` relative to the recorder's anchor), so snapshots from
    different shards of the same run align by index.  ``counters`` are
    in-window increments, ``gauges`` last-in-window point readings,
    ``histograms`` per-window slices (exact bucket deltas).
    """

    index: int
    start_ms: float
    end_ms: float
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, LogHistogram] = field(default_factory=dict)

    def merge(self, other: "WindowSnapshot") -> "WindowSnapshot":
        """Combine two shards' views of the *same* window.

        Counters add, histogram slices merge bucket-wise, gauges take
        the max (high-water semantics: queue depths and breach flags
        from any shard should surface, and ``max`` is exact in floats
        so the merge stays bit-identical whatever the shard count).
        """
        if other.index != self.index:
            raise ConfigurationError(
                f"cannot merge window {self.index} with window {other.index}"
            )
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        histograms = {name: h.copy() for name, h in self.histograms.items()}
        for name, histogram in other.histograms.items():
            if name in histograms:
                histograms[name].update(histogram)
            else:
                histograms[name] = histogram.copy()
        return WindowSnapshot(
            index=self.index,
            start_ms=min(self.start_ms, other.start_ms),
            end_ms=max(self.end_ms, other.end_ms),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
        )

    def state(self) -> tuple:
        """Hashable full state (histograms via
        :meth:`LogHistogram.state`) — the bit-identity comparison
        object for cross-shard merge audits."""
        return (
            self.index,
            self.start_ms,
            self.end_ms,
            tuple(sorted(self.counters.items())),
            tuple(sorted(self.gauges.items())),
            tuple(
                (name, histogram.state())
                for name, histogram in sorted(self.histograms.items())
            ),
        )

    def to_dict(self) -> dict:
        """JSON-ready full-fidelity form (see the JSONL exporters)."""
        return {
            "index": self.index,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "counters": dict(sorted(self.counters.items())),
            "gauges": {
                name: _jsonable_float(value)
                for name, value in sorted(self.gauges.items())
            },
            "histograms": {
                name: histogram.dump_state()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WindowSnapshot":
        return cls(
            index=data["index"],
            start_ms=data["start_ms"],
            end_ms=data["end_ms"],
            counters=dict(data.get("counters", {})),
            gauges={
                name: _parse_float(value)
                for name, value in data.get("gauges", {}).items()
            },
            histograms={
                name: LogHistogram.from_state(state)
                for name, state in data.get("histograms", {}).items()
            },
        )


def _jsonable_float(value: float) -> float | str:
    """JSON has no NaN/Inf literal; ship them as strings like the
    Chrome-trace exporter does."""
    return value if math.isfinite(value) else repr(value)


def _parse_float(value: float | str) -> float:
    return float(value)


class TimeseriesRecorder:
    """Snapshot a registry's deltas into a bounded window ring.

    Parameters
    ----------
    registry:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` to watch.
        The recorder only ever *reads* it — recording call sites pay
        nothing for the recorder's existence.
    window_ms:
        Grid span.  Windows are keyed by ``floor((at_ms - anchor) /
        window_ms)``.
    capacity:
        Ring size: only the most recent ``capacity`` windows are
        retained (an operator tool wants recent history, not the whole
        run; exporters can drain the ring incrementally).
    anchor_ms:
        Grid origin.  The simulator's virtual clock starts at 0, so the
        default anchors there and every shard of a sharded run shares
        the grid; wall-clock users pass their epoch.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        window_ms: float,
        capacity: int = 512,
        anchor_ms: float = 0.0,
    ) -> None:
        if window_ms <= 0:
            raise ConfigurationError(f"window_ms must be positive: {window_ms}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1: {capacity}")
        self.registry = registry
        self.window_ms = window_ms
        self.anchor_ms = anchor_ms
        self._ring: deque[WindowSnapshot] = deque(maxlen=capacity)
        self._previous = registry.snapshot()
        self._last_index: int | None = None

    def snapshot(self, at_ms: float) -> WindowSnapshot:
        """Close the window containing ``at_ms``: delta the registry
        against the previous snapshot, append to the ring, return the
        new window.  Call at (or just past) window boundaries; windows
        with no snapshot call simply do not appear in the ring (an
        all-idle window has nothing to say)."""
        index = int(math.floor((at_ms - self.anchor_ms) / self.window_ms))
        if self._last_index is not None and index <= self._last_index:
            raise ConfigurationError(
                f"snapshot at window {index} after window {self._last_index}: "
                "snapshots must advance the grid"
            )
        current = self.registry.snapshot()
        delta = current.delta_since(self._previous)
        self._previous = current
        self._last_index = index
        window = WindowSnapshot(
            index=index,
            start_ms=self.anchor_ms + index * self.window_ms,
            end_ms=self.anchor_ms + (index + 1) * self.window_ms,
            counters={k: v for k, v in delta.counters.items() if v},
            gauges=dict(delta.gauges),
            histograms={
                name: histogram
                for name, histogram in delta.histograms.items()
                if histogram.count
            },
        )
        self._ring.append(window)
        return window

    def windows(self) -> list[WindowSnapshot]:
        """The retained windows, oldest first."""
        return list(self._ring)

    @property
    def cumulative(self) -> RegistrySnapshot:
        """The registry state as of the last snapshot."""
        return self._previous


def merge_window_streams(
    streams: Sequence[Sequence[WindowSnapshot]],
) -> list[WindowSnapshot]:
    """Fold per-shard window streams into one stream, by window index.

    **Order is the contract**: pass streams sorted by shard index.  The
    fold is a single left-to-right pass per window — never reduce
    shard subsets separately and merge the partials, because histogram
    sums are floats and float addition is non-associative.  Followed,
    this reproduces bit-identical merged windows for any worker count
    (each shard's stream is deterministic, so only fold order could
    differ — and it doesn't).
    """
    merged: dict[int, WindowSnapshot] = {}
    for stream in streams:
        for window in stream:
            existing = merged.get(window.index)
            merged[window.index] = (
                window if existing is None else existing.merge(window)
            )
    return [merged[index] for index in sorted(merged)]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """Dotted metric names -> Prometheus-legal (dots become underscores)."""
    return "repro_" + "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def _prom_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(
    source: MetricsRegistry | RegistrySnapshot | WindowSnapshot,
    at_ms: float | None = None,
) -> str:
    """The Prometheus text exposition format (version 0.0.4) for a
    registry, a registry snapshot, or one window.

    Counters render as ``counter``, gauges as ``gauge``, histograms as
    ``summary`` (quantile series plus ``_sum``/``_count``) — the
    idiomatic mapping for quantile-sketch instruments.  Output is
    sorted by metric name, so two renders of equal state are equal
    text.  ``at_ms`` appends the optional sample timestamp (Prometheus
    wants integer milliseconds).
    """
    if isinstance(source, MetricsRegistry):
        source = source.snapshot()
    stamp = "" if at_ms is None else f" {int(at_ms)}"
    lines: list[str] = []
    for name, value in sorted(source.counters.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}{stamp}")
    for name, value in sorted(source.gauges.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}{stamp}")
    for name, histogram in sorted(source.histograms.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        for q in (0.5, 0.9, 0.99):
            lines.append(
                f'{prom}{{quantile="{q}"}} '
                f"{_prom_value(histogram.percentile(q))}{stamp}"
            )
        lines.append(f"{prom}_sum {_prom_value(histogram.sum)}{stamp}")
        lines.append(f"{prom}_count {histogram.count}{stamp}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSONL time-series exporters
# ----------------------------------------------------------------------
def write_timeseries_jsonl(
    path: str | Path, windows: Iterable[WindowSnapshot], append: bool = False
) -> Path:
    """Write window snapshots one JSON object per line (full histogram
    bucket state, so readers can merge bit-identically).  ``append``
    lets a live exporter emit windows as they close and a
    ``repro top --follow`` reader tail the file.  A ``.gz`` path is
    gzip-compressed; each append adds a gzip member."""
    path = Path(path)
    with open_text(path, "a" if append else "w") as handle:
        for window in windows:
            handle.write(json.dumps(window.to_dict(), sort_keys=True) + "\n")
    return path


def read_timeseries_jsonl(path: str | Path) -> list[WindowSnapshot]:
    """Read a JSONL window stream written by
    :func:`write_timeseries_jsonl` (gzip-transparent: ``.gz`` paths
    decompress, matching the trace loaders)."""
    windows = []
    with open_text(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                windows.append(WindowSnapshot.from_dict(json.loads(line)))
    return windows


class TimeseriesTailer:
    """Incremental reader for a live JSONL window stream.

    ``repro top --follow`` polls a file another process is still
    appending to, so a poll can land mid-``write()`` and see a torn
    last line — half a JSON record, or even half a UTF-8 character.
    The tailer therefore consumes only newline-*terminated* lines and
    carries the unterminated byte fragment to the next poll, where the
    writer's flush completes it.  Each poll reads only the bytes
    appended since the last one; a file that shrank (truncated or
    rotated) resets the tailer and re-reads from the start.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.windows: list[WindowSnapshot] = []
        self._offset = 0
        self._fragment = b""

    def poll(self) -> list[WindowSnapshot]:
        """Consume newly completed records; returns just the fresh ones
        (``self.windows`` accumulates everything seen so far)."""
        if not self.path.exists():
            return []
        with self.path.open("rb") as handle:
            handle.seek(0, 2)
            if handle.tell() < self._offset:
                self._offset = 0
                self._fragment = b""
                self.windows = []
            handle.seek(self._offset)
            chunk = handle.read()
            self._offset = handle.tell()
        lines = (self._fragment + chunk).split(b"\n")
        self._fragment = lines.pop()
        fresh = []
        for raw in lines:
            line = raw.decode("utf-8").strip()
            if line:
                fresh.append(WindowSnapshot.from_dict(json.loads(line)))
        self.windows.extend(fresh)
        return fresh
