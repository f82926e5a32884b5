"""Cell-parallel execution for load sweeps.

A load sweep is embarrassingly parallel: every cell — a
``(policy, rps, repeat)`` run of :func:`repro.experiments.runner.run_sweep`
or a ``(policy, rps, shard)`` slice of
:func:`repro.parallel.shards.run_sharded_sweep` — is an independent
simulation whose trace is fully determined by
:func:`repro.experiments.runner.cell_seed`.  :func:`map_cells` runs a
cell function over a sweep's cells, in-process or across a process
pool, and returns the results in cell order either way; each sweep
reduces them in that fixed order, so ``--workers`` is purely a
wall-clock knob, never a results knob.

What crosses the process boundary:

* *once per worker, at pool start*: the cell function with its bound
  sweep arguments (schedulers, workload, grid), via the pool
  initializer — not per cell;
* *once per cell*: the cell coordinates out, and the cell's summary
  back to the parent.

Caveats: cell functions and their bound arguments must be picklable
under the ``spawn`` start method (``fork``, the default where
available, only needs the *returned* values to pickle); and ambient
telemetry pipelines are deliberately not propagated into pool workers —
spans recorded in a child process could never reach the parent's
exporter, so workers run with telemetry uninstalled rather than
silently dropping data.  In-process cells record into the caller's
ambient pipeline.

The ambient defaults (:func:`default_workers`, :func:`default_shards`
and their get/set/resolve functions) let an entry point such as the
experiment CLI's ``--workers N`` parallelize *every* sweep an
experiment performs without threading a parameter through each figure
function.  Both are stored raw: ``0`` ("all CPUs", "one shard per
worker") resolves at use time, so the value tracks the machine it runs
on rather than the machine it was set on.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from typing import Callable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.telemetry import install

__all__ = [
    "map_cells",
    "default_workers",
    "get_default_workers",
    "set_default_workers",
    "resolve_workers",
    "default_shards",
    "get_default_shards",
    "set_default_shards",
    "resolve_shards",
    # re-exported from repro.parallel.shards (imported at module end)
    "run_sharded_sweep",
    "shard_sizes",
    "ShardedSweepResult",
]

#: The raw ambient defaults, ``0`` included (resolved at use time).
_DEFAULTS = {"workers": 1, "shards": 1}


def _checked(kind: str, value: int) -> int:
    if value < 0:
        raise ConfigurationError(f"{kind} must be >= 0: {value}")
    return value


def _set_default(kind: str, value: int) -> None:
    _DEFAULTS[kind] = _checked(kind, value)


@contextlib.contextmanager
def _scoped_default(kind: str, value: int) -> Iterator[int]:
    """Set an ambient default for the block, then restore the *raw*
    previous value (a nested scope inside ``0`` restores ``0``, not
    whatever it once resolved to)."""
    previous = _DEFAULTS[kind]
    _set_default(kind, value)
    try:
        yield value
    finally:
        _DEFAULTS[kind] = previous


def get_default_workers() -> int:
    """The ambient worker count sweeps consult (default 1), raw: ``0``
    means "all CPUs" and stays ``0`` here."""
    return _DEFAULTS["workers"]


def set_default_workers(workers: int) -> None:
    """Set the ambient worker count for subsequent sweeps (``0`` = all
    CPUs, stored raw).  Prefer the scoped :func:`default_workers` unless
    the process is single-purpose (like the CLI)."""
    _set_default("workers", workers)


def default_workers(workers: int) -> contextlib.AbstractContextManager[int]:
    """Scoped :func:`set_default_workers`: every sweep in the block runs
    with ``workers`` processes unless it passes an explicit count."""
    return _scoped_default("workers", workers)


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker count: ``None`` -> the ambient default,
    ``0`` -> all CPUs (resolved now, at use time), otherwise the
    (positive) count itself."""
    workers = _checked("workers", _DEFAULTS["workers"] if workers is None else workers)
    return workers or os.cpu_count() or 1


def get_default_shards() -> int:
    """The ambient shard count (default 1 — unsharded), raw: ``0``
    means "one shard per worker" and stays ``0`` here."""
    return _DEFAULTS["shards"]


def set_default_shards(shards: int) -> None:
    """Set the ambient shard count for subsequent sharded sweeps
    (``0`` = match the resolved worker count, stored raw)."""
    _set_default("shards", shards)


def default_shards(shards: int) -> contextlib.AbstractContextManager[int]:
    """Scoped :func:`set_default_shards`."""
    return _scoped_default("shards", shards)


def resolve_shards(shards: int | None, workers: int) -> int:
    """Normalize a shard count: ``None`` -> ambient default, ``0`` ->
    one shard per (resolved) worker, otherwise the count itself."""
    shards = _checked("shards", _DEFAULTS["shards"] if shards is None else shards)
    return shards or max(1, workers)


# The cell function of a pool worker process, set by the pool
# initializer.  Only pool workers touch it: the in-process path calls
# the function directly, so a sweep nested inside another sweep's cell
# never observes a foreign or torn-down function.
_RUN: Callable | None = None


def _init_worker(run: Callable) -> None:
    global _RUN
    _RUN = run


def _run_pooled(cell):
    assert _RUN is not None, "worker used before initialization"
    # Telemetry recorded in a worker could never reach the parent's
    # pipeline; run with none installed instead of dropping data
    # silently (an inherited ambient pipeline would otherwise resolve).
    with install(None):
        return _RUN(cell)


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap, no pickling of the cell
    function's schedulers/workload), ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def map_cells(run: Callable, cells: Sequence, workers: int) -> list:
    """``[run(cell) for cell in cells]``, in cell order.

    In-process when ``workers <= 1`` or there is at most one cell;
    otherwise across a pool of ``min(workers, len(cells))`` processes.
    ``workers`` is a resolved count (see :func:`resolve_workers`).
    """
    if workers <= 1 or len(cells) < 2:
        return [run(cell) for cell in cells]
    with _pool_context().Pool(
        processes=min(workers, len(cells)),
        initializer=_init_worker,
        initargs=(run,),
    ) as pool:
        # chunksize=1: cells are heterogeneous (high-RPS cells simulate
        # far more events), so fine-grained dispatch is what makes the
        # speedup near-linear.
        return pool.map(_run_pooled, cells, chunksize=1)


# Sharded mega-sweep orchestration (imports from this module, so the
# import sits below everything it needs — DESIGN.md §14).
from repro.parallel.shards import (  # noqa: E402
    ShardedSweepResult,
    run_sharded_sweep,
    shard_sizes,
)
