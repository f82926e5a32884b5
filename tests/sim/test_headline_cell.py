"""The headline Fig. 8 cell, pinned bit for bit and by its work.

FM at 43 RPS on the Lucene set-up (15 cores, 5 ms quantum, QUICK
interval-table search, the seed-42 grid's arrivals for that load) is
rebuilt from ``src/`` alone.  Its completion records must hash to the
repository benchmark's seed-42 pin for ``FM@43`` and its p99 must equal
the pinned value, so any change to a simulated bit fails here on any
host.  The engine's work is pinned too: its events, its work by kind
and the ``on_quantum`` calls left after ticks below the tick horizon
are skipped (DESIGN.md §10) are deterministic counts.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.core.search import SearchConfig, build_interval_table
from repro.experiments.config import QUICK
from repro.experiments.runner import cell_seed
from repro.schedulers import FMScheduler
from repro.sim.engine import Engine
from repro.workloads import lucene as lucene_mod
from repro.workloads.arrivals import PoissonProcess

#: The Fig. 8 grid's loads; a cell's arrival seed is its load's index.
_GRID_RPS = (30, 33, 36, 38, 40, 43, 45, 47)
_RPS = 43
_REQUESTS = 1000

_DIGEST = "b291848995d66f2b78d9bcc6144a6b876ffe415f53dced0735e90b0f9270a1e6"
_P99_MS = 477.1732008761719
_EVENTS = 33590
#: Ticks that reach the hook: FM skips every tick below its row's next
#: step and every tick at its table's top degree, so each call left
#: raises the degree (29 652 ticks fire in this cell).
_HOOK_CALLS = 897
#: ``Engine.work``: the scheduled kinds sum to ``_EVENTS``.
_WORK = {
    "arrivals": 1000,
    "completions": 1000,
    "superseded_completions": 1820,
    "ticks": 29652,
    "tick_hooks": _HOOK_CALLS,
    "horizon_evaluations": 5803,
    "delay_expiries": 118,
    "faults": 0,
}


def _record_digest(result) -> str:
    """SHA-256 over ``(finish_ms, core_time_ms)`` of every completion,
    in arrival order, as exact IEEE-754 doubles."""
    digest = hashlib.sha256()
    for record in result.records:
        digest.update(struct.pack("<dd", record.finish_ms, record.core_time_ms))
    return digest.hexdigest()


def test_fm_at_43_rps_matches_its_pins():
    workload = lucene_mod.lucene_workload(profile_size=QUICK.profile_size)
    table = build_interval_table(
        workload.profile,
        SearchConfig(
            max_degree=lucene_mod.MAX_DEGREE,
            target_parallelism=lucene_mod.TARGET_PARALLELISM,
            step_ms=QUICK.step_ms,
            num_bins=QUICK.num_bins,
        ),
    )
    arrivals = workload.arrivals(
        _REQUESTS,
        PoissonProcess(_RPS),
        np.random.default_rng(cell_seed(42, _GRID_RPS.index(_RPS), 0)),
    )
    scheduler = FMScheduler(table)
    calls = {"n": 0, "raises": 0}
    on_quantum = scheduler.on_quantum

    def counting(ctx, request):
        calls["n"] += 1
        desired = on_quantum(ctx, request)
        calls["raises"] += desired > request.degree
        return desired

    scheduler.on_quantum = counting
    engine = Engine(
        cores=lucene_mod.CORES,
        scheduler=scheduler,
        quantum_ms=lucene_mod.QUANTUM_MS,
        spin_fraction=lucene_mod.SPIN_FRACTION,
    )
    result = engine.run(arrivals)
    assert len(result.records) == _REQUESTS
    assert _record_digest(result) == _DIGEST
    assert result.tail_latency_ms(0.99) == _P99_MS
    assert engine.events_processed == _EVENTS
    assert calls["n"] == calls["raises"] == _HOOK_CALLS
    assert engine.work == _WORK
