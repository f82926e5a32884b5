"""Perf trajectory benches -> the repo-root ``BENCH_<section>.json`` reports.

Each section writes one report (``--list`` shows them):

- ``engine``: the engine hot path — single-process events/sec on a
  saturated run, an A/B against the frozen reference engine in
  ``repro.sim._baseline`` (which must be *bit-identical*, not just
  close), serial-vs-parallel sweep wall clock at 4 workers, and the
  mega-sweep machinery (DESIGN.md §14);
- ``replication`` (``bench_replication.py``): the adaptive-controller
  observe-path throughput, controller-vs-static overhead, the seeded
  adaptive-vs-best-static phase-diagram ratios and the deterministic
  flip-replay attestation;
- ``hetero`` (``bench_hetero.py``): the single-pool bit-identity
  attestation against ``repro.sim._baseline``, the EA-FM vs FIX-3
  latency-energy frontier on big/little cores, the worker-count
  determinism attestation and the hetero engine's events/sec;
- ``telemetry``: the simulator, search-executor and cluster benches
  with telemetry explicitly disabled vs enabled, plus the telemetry
  primitives (acceptance bound: <3% simulator slowdown when disabled);
- ``observe``: trace analyzer throughput, the attribution flight
  recorder's and the live plane's overhead, and the seeded live-tail
  attestations;
- ``diff`` (``bench_diff.py``): the self-diff exact null, the
  FM-vs-FIX-3 significance + explanation-ranking attestation, diff
  determinism across repeats and ``--workers``, and diff/ledger
  throughput.

``benchmarks/check_regression.py`` gates every section but telemetry
against its committed report.  The assertions made here while a section
runs (bit identity against ``_baseline``; sweep, kernel and shard
identity; flat streamed memory) hold on any host.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--scale quick]
    PYTHONPATH=src python benchmarks/run_all.py --scale quick --only engine,diff --output-dir fresh
    PYTHONPATH=src python benchmarks/run_all.py --list
    PYTHONPATH=src python benchmarks/run_all.py --scale quick --ledger runs

``--only`` takes a comma-separated subset of the sections.  Every
section report embeds a ``"ledger"`` entry — a
``repro.observe.ledger.RunEntry`` whose metrics are the report's
numeric scalars — so committed ``BENCH_*`` baselines are diffable run
over run (the gate prints the largest deltas, DESIGN.md §15);
``--ledger DIR`` additionally appends each section's entry to that run
ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.cluster.hedging import HedgePolicy
from repro.cluster.simulation import simulate_cluster_robust
from repro.experiments.config import Scale, default_scale
from repro.experiments.tables import bing_table
from repro.experiments.runner import run_policy
from repro.schedulers import FMScheduler
from repro.search.corpus import generate_corpus, generate_query_log
from repro.search.executor import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import parse_query
from repro.sim.engine import Engine
from repro.telemetry import LogHistogram, MetricsRegistry, Telemetry, Tracer
from repro.telemetry.clock import ManualClock
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess

REPO_ROOT = Path(__file__).resolve().parent.parent
TIMING_REPEATS = 3


class LoopEngine(Engine):
    """The default engine with its batch-kernel entry disabled: the
    per-request loops at every running-set size, the scalar side of the
    ``mega.cell`` A/B."""

    _batch_entry = float("inf")


def pooled_speedup(serial_s: float, pooled_s: float, workers: int) -> float | str:
    """``serial_s / pooled_s``, or why it cannot be measured: with more
    workers than CPUs the pool only time-slices the host."""
    cpus = os.cpu_count() or 1
    if workers > cpus:
        return f"not measurable: {workers} workers > {cpus} CPUs"
    return round(serial_s / pooled_s, 3)


def best_of(fn, repeats: int = TIMING_REPEATS) -> float:
    """Best wall time over ``repeats`` calls (sheds scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def off_on_cell(make_run, units: int) -> dict:
    """Time ``make_run(telemetry)`` with telemetry off vs on.

    ``make_run`` returns a zero-arg runner bound to the given pipeline;
    ``units`` is the work count (requests/queries) per run.
    """
    off_tel = Telemetry(enabled=False)
    on_tel = Telemetry()
    off_s = best_of(make_run(off_tel))
    on_s = best_of(make_run(on_tel))
    spans = len(on_tel.tracer.spans)
    cell = {
        "off_wall_s": round(off_s, 6),
        "on_wall_s": round(on_s, 6),
        "off_units_per_s": round(units / off_s, 1),
        "on_units_per_s": round(units / on_s, 1),
        "overhead_enabled_pct": round(100.0 * (on_s / off_s - 1.0), 2),
        "spans": spans,
        "span_events_per_s": round(spans / on_s, 1),
    }
    for name, histogram in on_tel.metrics.histograms.items():
        if name.endswith("latency_ms"):
            cell["p50_ms"] = round(histogram.percentile(0.50), 3)
            cell["p99_ms"] = round(histogram.percentile(0.99), 3)
    return cell


def bench_sim(scale: Scale) -> dict:
    table = bing_table(scale)
    workload = bing_mod.bing_workload(profile_size=scale.profile_size)
    num_requests = scale.num_requests * 2

    def make_run(telemetry: Telemetry):
        def run():
            telemetry.reset()
            run_policy(
                FMScheduler(table),
                workload,
                rps=180.0,
                cores=bing_mod.CORES,
                num_requests=num_requests,
                quantum_ms=bing_mod.QUANTUM_MS,
                spin_fraction=bing_mod.SPIN_FRACTION,
                telemetry=telemetry,
            )

        return run

    return {"num_requests": num_requests, **off_on_cell(make_run, num_requests)}


def bench_search(scale: Scale) -> dict:
    documents = generate_corpus(max(200, scale.num_requests), seed=7)
    index = InvertedIndex.build(documents, num_segments=8)
    queries = [
        parse_query(text)
        for text in generate_query_log(max(100, scale.num_requests // 2), seed=11)
    ]

    def make_run(telemetry: Telemetry):
        engine = SearchEngine(index, telemetry=telemetry)

        def run():
            telemetry.reset()
            for query in queries:
                engine.execute(query)

        return run

    return {"num_queries": len(queries), **off_on_cell(make_run, len(queries))}


def bench_cluster(scale: Scale) -> dict:
    table = bing_table(scale)
    workload = bing_mod.bing_workload(profile_size=scale.profile_size)
    num_queries = scale.num_requests

    def make_run(telemetry: Telemetry):
        def run():
            telemetry.reset()
            simulate_cluster_robust(
                scheduler_factory=lambda: FMScheduler(table, boosting=False),
                workload=workload,
                num_servers=4,
                num_queries=num_queries,
                process=PoissonProcess(180.0),
                cores=bing_mod.CORES,
                quantum_ms=bing_mod.QUANTUM_MS,
                spin_fraction=bing_mod.SPIN_FRACTION,
                seed=71,
                hedge=HedgePolicy(delay_percentile=0.9),
                deadline_ms=bing_mod.TERMINATION_MS,
                telemetry=telemetry,
            )

        return run

    return {"num_queries": num_queries, **off_on_cell(make_run, num_queries)}


def bench_primitives() -> dict:
    """Raw telemetry-primitive throughput (events/sec)."""
    n = 200_000
    values = [1.0 + (i % 997) for i in range(n)]

    histogram = LogHistogram()
    hist_s = best_of(lambda: [histogram.record(v) for v in values])

    registry = MetricsRegistry()
    counter = registry.counter("bench.counter")
    counter_s = best_of(lambda: [counter.inc() for _ in range(n)])

    def spans():
        tracer = Tracer(clock=ManualClock())
        for i in range(n // 10):
            tracer.complete("bench", float(i), float(i + 1), track="bench", lane=i)

    span_s = best_of(spans)
    return {
        "histogram_record_per_s": round(n / hist_s, 0),
        "counter_inc_per_s": round(n / counter_s, 0),
        "span_complete_per_s": round((n // 10) / span_s, 0),
    }


def bench_analyzer(num_spans: int = 100_000) -> dict:
    """Trace-analyzer throughput on a synthetic ``num_spans``-span trace.

    The trace mimics the sim track's shape (queue + attributed run span
    per request) so the analyzer exercises its full reconstruction path,
    and is written to disk first so the measurement includes parsing.
    """
    import tempfile

    from repro.observe import analyze_trace
    from repro.telemetry.export import write_spans_jsonl

    num_requests = num_spans // 2  # one queue + one run span each
    tracer = Tracer(clock=ManualClock())
    for i in range(num_requests):
        arrival = float(i)
        queue = 0.5 + (i % 13) * 0.25
        service = 20.0 + (i % 997) * 0.1
        contention = (i % 29) * 0.5
        start = arrival + queue
        finish = start + service + contention
        tracer.complete("queue", arrival, start, track="sim", lane=i % 64)
        tracer.complete(
            "run", start, finish, track="sim", lane=i % 64,
            queue_ms=queue, service_ms=service, contention_ms=contention,
            boost_wait_ms=0.0, stall_ms=0.0, latency_ms=finish - arrival,
            degree=1 + i % 4, boosted=i % 17 == 0,
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = write_spans_jsonl(Path(tmp) / "bench.jsonl", tracer.spans)
        trace_bytes = path.stat().st_size
        analyze_s = best_of(lambda: analyze_trace(path, phi=0.99))
    return {
        "num_spans": len(tracer.spans),
        "trace_bytes": trace_bytes,
        "analyze_wall_s": round(analyze_s, 6),
        "spans_per_s": round(len(tracer.spans) / analyze_s, 0),
        "requests_per_s": round(num_requests / analyze_s, 0),
    }


def bench_attribution(scale: Scale) -> dict:
    """Simulator cost of the attribution flight recorder (on vs. off).

    No telemetry pipeline in either run — this isolates the per-quantum
    interval accounting itself, the cost paid by every instrumented run.
    """
    import numpy as np

    from repro.sim.engine import simulate

    table = bing_table(scale)
    workload = bing_mod.bing_workload(profile_size=scale.profile_size)
    num_requests = scale.num_requests * 2
    arrivals = workload.arrivals(
        num_requests, PoissonProcess(180.0), np.random.default_rng(23)
    )

    def make_run(attribution: bool):
        def run():
            simulate(
                arrivals,
                FMScheduler(table),
                cores=bing_mod.CORES,
                quantum_ms=bing_mod.QUANTUM_MS,
                spin_fraction=bing_mod.SPIN_FRACTION,
                attribution=attribution,
            )

        return run

    off_s = best_of(make_run(False))
    on_s = best_of(make_run(True))
    return {
        "num_requests": num_requests,
        "off_wall_s": round(off_s, 6),
        "on_wall_s": round(on_s, 6),
        "off_requests_per_s": round(num_requests / off_s, 1),
        "on_requests_per_s": round(num_requests / on_s, 1),
        "overhead_enabled_pct": round(100.0 * (on_s / off_s - 1.0), 2),
    }


def bench_live_plane(scale: Scale) -> dict:
    """Engine cost of the live observability plane (attached vs. not),
    plus the raw window-snapshot primitive.

    The off run is the exact seed-path engine (``live=None`` leaves one
    pointer check per completion); the acceptance bound is that the
    off cell's events/sec stays inside the committed band — i.e. the
    hook is free when the plane is absent.  The on cell prices a fully
    armed plane (windows, exemplars, detector, SLO) per completion.
    """
    import numpy as np

    from repro.observe.anomaly import ChangepointDetector
    from repro.observe.live import LivePlane
    from repro.observe.slo import SLOMonitor, SLOTarget
    from repro.observe.timeseries import TimeseriesRecorder

    table = bing_table(scale)
    workload = bing_mod.bing_workload(profile_size=scale.profile_size)
    num_requests = scale.num_requests * 2
    arrivals = workload.arrivals(
        num_requests, PoissonProcess(180.0), np.random.default_rng(23)
    )

    state: dict = {}

    def make_run(with_plane: bool):
        def run():
            plane = None
            if with_plane:
                plane = LivePlane(
                    window_ms=100.0,
                    capacity=4096,
                    slo=SLOMonitor(
                        SLOTarget(percentile=0.99, threshold_ms=120.0),
                        short_window_ms=200.0,
                        long_window_ms=800.0,
                        min_samples=20,
                    ),
                    detector=ChangepointDetector(warmup=4, threshold=3.5),
                )
            engine = Engine(
                cores=bing_mod.CORES,
                scheduler=FMScheduler(table),
                quantum_ms=bing_mod.QUANTUM_MS,
                spin_fraction=bing_mod.SPIN_FRACTION,
                live=plane,
            )
            engine.run(arrivals)
            state["events"] = engine.events_processed
            if plane is not None:
                state["windows"] = len(plane.windows())

        return run

    off_s = best_of(make_run(False))
    on_s = best_of(make_run(True))

    def snapshots():
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(registry, window_ms=1.0, capacity=512)
        counter = registry.counter("bench.completions")
        histogram = registry.histogram("bench.latency_ms")
        for i in range(2000):
            counter.inc()
            histogram.record(1.0 + i % 50)
            recorder.snapshot(i + 0.5)

    snap_s = best_of(snapshots)

    return {
        "num_requests": num_requests,
        "events_processed": state["events"],
        "off_wall_s": round(off_s, 6),
        "on_wall_s": round(on_s, 6),
        "off_events_per_s": round(state["events"] / off_s, 1),
        "on_events_per_s": round(state["events"] / on_s, 1),
        "overhead_enabled_pct": round(100.0 * (on_s / off_s - 1.0), 2),
        "windows_closed": state["windows"],
        "snapshots_per_s": round(2000 / snap_s, 0),
    }


def bench_live_tail() -> dict:
    """Seeded live-tail attestations (hardware-independent).

    Two facts the observe gate pins: the overload-flip onset signature
    (the detector must flag at a stable window before the SLO breach
    floor), and replay equivalence (a plane replayed from a trace
    reproduces the live plane's attribution totals to analyze's
    numbers within 1e-6 ms).
    """
    import numpy as np

    from repro.experiments.config import TINY
    from repro.experiments.live_tail import onset_signature, run_live_tail
    from repro.observe.analyze import analyze_spans
    from repro.observe.live import LivePlane, replay_spans
    from repro.sim.engine import simulate

    plane, _ = run_live_tail(TINY)
    fault_window, flagged, breach_floor = onset_signature(plane)

    telemetry = Telemetry()
    table = bing_table(TINY)
    workload = bing_mod.bing_workload(profile_size=TINY.profile_size)
    arrivals = workload.arrivals(
        TINY.num_requests, PoissonProcess(250.0), np.random.default_rng(23)
    )
    live = LivePlane(window_ms=100.0, capacity=4096)
    simulate(
        arrivals,
        FMScheduler(table),
        cores=bing_mod.CORES,
        quantum_ms=bing_mod.QUANTUM_MS,
        spin_fraction=bing_mod.SPIN_FRACTION,
        telemetry=telemetry,
        live=live,
    )
    spans = telemetry.tracer.spans
    replayed = replay_spans(spans)
    track = analyze_spans(spans, phi=0.99).tracks["sim"]
    totals = replayed.attribution_totals()
    max_diff = max(
        abs(totals[component] - entry["overall_mean_ms"] * track.count)
        for component, entry in track.components.items()
    )
    return {
        "scale": "tiny",
        "fault_window": fault_window,
        "flagged_window": flagged,
        "breach_floor_window": breach_floor,
        "flag_leads_breach": (
            fault_window is not None
            and flagged is not None
            and breach_floor is not None
            and fault_window <= flagged < breach_floor
        ),
        "replay_max_abs_diff_ms": max_diff,
        "replay_matches_analyze": max_diff < 1e-6,
    }


def bench_engine(scale: Scale) -> dict:
    """Engine hot-path trajectory: events/sec, reference A/B, sweep scaling.

    The A/B against :mod:`repro.sim._baseline` asserts bit-identical
    results before reporting any speedup — a fast engine that drifts is
    a broken engine.  The sweep cell fans a small policy x load grid
    across 4 worker processes; its speedup is reported only when the
    host has a CPU per worker (see :func:`pooled_speedup`).
    """
    import numpy as np

    from repro.experiments.runner import run_sweep
    from repro.schedulers import FixedScheduler
    from repro.sim._baseline import simulate_baseline

    table = bing_table(scale)
    workload = bing_mod.bing_workload(profile_size=scale.profile_size)
    num_requests = scale.num_requests * 2
    # Saturating load: deep backlogs and large running sets are where
    # the hot path earns (or loses) its keep.
    rps = 600.0
    arrivals = workload.arrivals(
        num_requests, PoissonProcess(rps), np.random.default_rng(42)
    )

    state: dict = {}

    def run_optimized():
        engine = Engine(
            cores=bing_mod.CORES,
            scheduler=FMScheduler(table),
            quantum_ms=bing_mod.QUANTUM_MS,
            spin_fraction=bing_mod.SPIN_FRACTION,
        )
        state["result"] = engine.run(arrivals)
        state["events"] = engine.events_processed

    def run_reference():
        state["reference"] = simulate_baseline(
            arrivals,
            FMScheduler(table),
            cores=bing_mod.CORES,
            quantum_ms=bing_mod.QUANTUM_MS,
            spin_fraction=bing_mod.SPIN_FRACTION,
        )

    new_s = best_of(run_optimized)
    old_s = best_of(run_reference)
    result, reference = state["result"], state["reference"]
    bit_identical = (
        len(result.records) == len(reference.records)
        and all(
            a.finish_ms == b.finish_ms and a.core_time_ms == b.core_time_ms
            for a, b in zip(result.records, reference.records)
        )
        and result.tail_latency_ms(0.99) == reference.tail_latency_ms(0.99)
        and result.mean_latency_ms() == reference.mean_latency_ms()
    )
    if not bit_identical:
        raise AssertionError(
            "optimized engine diverged from repro.sim._baseline — "
            "speedups are meaningless until results match bit for bit"
        )

    sweep_schedulers = {"FIX-4": FixedScheduler(4), "FM": FMScheduler(table)}
    sweep_rps = [120.0, 240.0, 420.0, 600.0]
    sweep_workers = 4
    sweep_kwargs = dict(
        cores=bing_mod.CORES,
        num_requests=scale.num_requests,
        quantum_ms=bing_mod.QUANTUM_MS,
        spin_fraction=bing_mod.SPIN_FRACTION,
        seed=42,
        repeats=2,
    )
    started = time.perf_counter()
    serial = run_sweep(sweep_schedulers, workload, sweep_rps, workers=1, **sweep_kwargs)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_sweep(
        sweep_schedulers, workload, sweep_rps, workers=sweep_workers, **sweep_kwargs
    )
    parallel_s = time.perf_counter() - started
    sweep_identical = all(
        serial[name].tail_ms == parallel[name].tail_ms
        and serial[name].mean_ms == parallel[name].mean_ms
        and [h._buckets for h in serial[name].histograms]
        == [h._buckets for h in parallel[name].histograms]
        for name in serial.policies()
    )
    if not sweep_identical:
        raise AssertionError("pooled sweep diverged from the in-process sweep")

    # --- mega-sweep machinery (DESIGN.md §14) -------------------------
    # (a) Kernel A/B on an overloaded FIX-4 cell, where the running set
    # reaches the hundreds and numpy batching pays: the loop-only engine
    # against the vector engine (batch kernels throughout) and the
    # default engine (batch kernels past BATCH_ENTRY).  The gate demands
    # >= 3x over loop-only for both and a max per-record latency
    # divergence <= 1e-9 ms (it is 0.0).
    import tracemalloc

    from repro.experiments.runner import stream_policy
    from repro.parallel import run_sharded_sweep
    from repro.sim.vector import VectorEngine

    # Fixed-size cell (not scale-dependent): the speedup is a function
    # of running-set size, and this configuration drives it deep into
    # the hundreds where the numpy batches dominate; scaling it with
    # --scale would just move the measured ratio around.
    cell_requests, cell_rps, cell_cores = 3000, 900.0, 8
    cell_arrivals = workload.arrivals(
        cell_requests, PoissonProcess(cell_rps), np.random.default_rng(7)
    )

    def run_cell(engine_cls, key):
        engine = engine_cls(
            cores=cell_cores,
            scheduler=FixedScheduler(4),
            quantum_ms=bing_mod.QUANTUM_MS,
            spin_fraction=bing_mod.SPIN_FRACTION,
        )
        state[key] = engine.run(cell_arrivals)
        state[key + "_events"] = engine.events_processed

    def latency_diff(key_a, key_b):
        return max(
            abs(a.latency_ms - b.latency_ms)
            for a, b in zip(state[key_a].records, state[key_b].records)
        )

    cell_scalar_s = best_of(lambda: run_cell(LoopEngine, "cell_scalar"), repeats=2)
    cell_vector_s = best_of(lambda: run_cell(VectorEngine, "cell_vector"), repeats=2)
    cell_default_s = best_of(lambda: run_cell(Engine, "cell_default"), repeats=2)
    cell_diff = latency_diff("cell_scalar", "cell_vector")
    default_diff = max(
        latency_diff("cell_default", "cell_scalar"),
        latency_diff("cell_default", "cell_vector"),
    )
    if max(cell_diff, default_diff) > 1e-9:
        raise AssertionError(
            f"batch kernels diverged from the loops by "
            f"{max(cell_diff, default_diff)} ms (> 1e-9) — speedups are "
            "meaningless until results match"
        )

    # (b) Streamed mega-run memory: arrivals generated lazily and
    # completions folded into a StreamSummary, so traced peak memory
    # must stay O(running set) — megabytes, not the O(n) hundreds a
    # materialized trace plus records would need.  Traced at two sizes:
    # a flat peak across a 5x request-count jump is the O(1)-in-n
    # attestation (tracemalloc costs ~6x wall, so the peaks come from
    # bounded runs rather than one giant one).
    def traced_stream(n):
        tracemalloc.start()
        started = time.perf_counter()
        summary = stream_policy(
            FixedScheduler(4),
            workload,
            rps=120.0,
            cores=bing_mod.CORES,
            num_requests=n,
            quantum_ms=bing_mod.QUANTUM_MS,
            seed=42,
            spin_fraction=bing_mod.SPIN_FRACTION,
        )
        wall = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert summary.count == n
        return wall, peak

    stream_small = scale.num_requests * 20
    stream_requests = scale.num_requests * 100
    _, stream_small_peak = traced_stream(stream_small)
    stream_s, stream_peak = traced_stream(stream_requests)
    peak_growth = stream_peak / stream_small_peak
    if peak_growth > 2.0:
        raise AssertionError(
            f"streamed peak memory grew {peak_growth:.1f}x over a 5x "
            "request-count jump — no longer O(running set)"
        )

    # (c) Sharded orchestration: the merged per-cell summaries must be
    # bit-identical for any worker count (workers is a wall-clock knob;
    # shards is the results knob).
    shard_kwargs = dict(
        cores=bing_mod.CORES,
        num_requests=scale.num_requests,
        shards=4,
        quantum_ms=bing_mod.QUANTUM_MS,
        seed=42,
        spin_fraction=bing_mod.SPIN_FRACTION,
    )
    started = time.perf_counter()
    sharded_serial = run_sharded_sweep(
        sweep_schedulers, workload, [240.0, 600.0], workers=1, **shard_kwargs
    )
    sharded_serial_s = time.perf_counter() - started
    started = time.perf_counter()
    sharded_pooled = run_sharded_sweep(
        sweep_schedulers, workload, [240.0, 600.0], workers=sweep_workers,
        **shard_kwargs,
    )
    sharded_pooled_s = time.perf_counter() - started
    shards_identical = all(
        a.histogram.state() == b.histogram.state() and a.as_dict() == b.as_dict()
        for name in sharded_serial.policies()
        for a, b in zip(sharded_serial[name], sharded_pooled[name])
    )
    if not shards_identical:
        raise AssertionError("sharded sweep results depend on worker count")

    return {
        "num_requests": num_requests,
        "rps": rps,
        "cores": bing_mod.CORES,
        "cpu_count": os.cpu_count(),
        "single_process": {
            "events_processed": state["events"],
            "wall_s": round(new_s, 6),
            "events_per_s": round(state["events"] / new_s, 1),
            "requests_per_s": round(num_requests / new_s, 1),
            "reference_wall_s": round(old_s, 6),
            "reference_events_per_s": round(state["events"] / old_s, 1),
            "speedup_vs_reference": round(old_s / new_s, 3),
            "bit_identical_to_reference": bit_identical,
        },
        "sweep": {
            "policies": sorted(sweep_schedulers),
            "rps_values": sweep_rps,
            "repeats": sweep_kwargs["repeats"],
            "cells": len(sweep_schedulers) * len(sweep_rps) * sweep_kwargs["repeats"],
            "workers": sweep_workers,
            "serial_wall_s": round(serial_s, 6),
            "parallel_wall_s": round(parallel_s, 6),
            "parallel_speedup": pooled_speedup(serial_s, parallel_s, sweep_workers),
            "results_identical": sweep_identical,
        },
        "mega": {
            "cell": {
                "num_requests": cell_requests,
                "rps": cell_rps,
                "cores": cell_cores,
                "scheduler": "FIX-4",
                "scalar_wall_s": round(cell_scalar_s, 6),
                "scalar_events_per_s": round(
                    state["cell_scalar_events"] / cell_scalar_s, 1
                ),
                "vector_wall_s": round(cell_vector_s, 6),
                "vector_events_per_s": round(
                    state["cell_vector_events"] / cell_vector_s, 1
                ),
                "vector_speedup": round(cell_scalar_s / cell_vector_s, 3),
                "max_abs_latency_diff_ms": cell_diff,
                "vector_identical": cell_diff == 0.0,
                "default_wall_s": round(cell_default_s, 6),
                "default_events_per_s": round(
                    state["cell_default_events"] / cell_default_s, 1
                ),
                "default_speedup": round(cell_scalar_s / cell_default_s, 3),
                "default_max_abs_latency_diff_ms": default_diff,
                "default_identical": default_diff == 0.0,
            },
            "stream": {
                "num_requests": stream_requests,
                "rps": 120.0,
                "wall_s": round(stream_s, 6),
                "requests_per_s": round(stream_requests / stream_s, 1),
                "peak_traced_mb": round(stream_peak / 2**20, 3),
                "small_run_requests": stream_small,
                "small_run_peak_traced_mb": round(stream_small_peak / 2**20, 3),
                "peak_growth_over_5x_requests": round(peak_growth, 3),
            },
            "sharded": {
                "policies": sorted(sweep_schedulers),
                "rps_values": [240.0, 600.0],
                "num_requests": shard_kwargs["num_requests"],
                "shards": shard_kwargs["shards"],
                "serial_wall_s": round(sharded_serial_s, 6),
                "pooled_wall_s": round(sharded_pooled_s, 6),
                "workers": sweep_workers,
                "pooled_speedup": pooled_speedup(
                    sharded_serial_s, sharded_pooled_s, sweep_workers
                ),
                "workers_identical": shards_identical,
            },
        },
    }


def build_engine_report(scale: Scale) -> dict:
    return {
        "benchmark": "engine",
        "scale": scale.name,
        "python": platform.python_version(),
        "timing_repeats": TIMING_REPEATS,
        **bench_engine(scale),
        "notes": (
            "single_process is a saturated FM/Bing run; events_per_s "
            "counts the events the engine scheduled (events_processed: "
            "arrivals, ticks, delay expiries, faults and every "
            "tentative completion, superseded or not, which is the "
            "count the reference drains from its queue). reference is "
            "the frozen pre-optimization engine (repro.sim._baseline) "
            "run on the "
            "same trace — results are asserted bit-identical before "
            "any speedup is reported. sweep compares run_sweep at 1 "
            "worker (in-process) vs 4 on the same grid; parallel_speedup "
            "(like mega.sharded.pooled_speedup) reads 'not "
            "measurable' when workers exceed cpu_count. mega is the "
            "DESIGN.md §14 machinery: mega.cell A/Bs the loop-only "
            "engine (scalar_*) against the vector engine (batch "
            "kernels throughout, vector_*) and the default engine "
            "(batch kernels past BATCH_ENTRY, default_*) on an "
            "overloaded FIX-4 cell (both gated >= 3x over loop-only, "
            "<= 1e-9 ms divergence), mega.stream traces peak memory of "
            "streamed runs at two sizes (a flat peak across the 5x "
            "jump attests O(running set) memory), and mega.sharded "
            "attests the sharded sweep is bit-identical for any "
            "worker count."
        ),
    }


def build_replication_report(scale: Scale) -> dict:
    # Local import: the module reuses the replication-phase experiment
    # helpers, which nothing else here needs.
    from bench_replication import build_report

    return build_report(scale)


def build_hetero_report(scale: Scale) -> dict:
    # Local import: the module reuses the hetero-energy experiment
    # helpers, which nothing else here needs.
    from bench_hetero import build_report

    return build_report(scale)


def build_diff_report(scale: Scale) -> dict:
    # Local import: the module reuses the run-diff experiment helpers.
    from bench_diff import build_report

    return build_report(scale)


def build_telemetry_report(scale: Scale) -> dict:
    return {
        "benchmark": "telemetry",
        "scale": scale.name,
        "python": platform.python_version(),
        "timing_repeats": TIMING_REPEATS,
        "sim": bench_sim(scale),
        "search": bench_search(scale),
        "cluster": bench_cluster(scale),
        "primitives": bench_primitives(),
        "notes": (
            "off runs pass an explicit Telemetry(enabled=False): the disabled "
            "path is the instrumented build with every pipeline resolved to "
            "None. Acceptance bound: sim off_units_per_s within 3% of the "
            "pre-telemetry baseline."
        ),
    }


def build_observe_report(scale: Scale) -> dict:
    return {
        "benchmark": "observe",
        "scale": scale.name,
        "python": platform.python_version(),
        "timing_repeats": TIMING_REPEATS,
        "analyzer": bench_analyzer(),
        "attribution": bench_attribution(scale),
        "live_plane": bench_live_plane(scale),
        "live_tail": bench_live_tail(),
        "notes": (
            "analyzer times load_trace + analyze on a synthetic JSONL "
            "trace shaped like the sim track (attributed run spans). "
            "attribution compares full simulate() runs with the flight "
            "recorder on vs. off, no telemetry pipeline in either. "
            "live_plane compares engine runs with a fully armed "
            "LivePlane attached vs. live=None (the seed path), plus the "
            "raw TimeseriesRecorder.snapshot primitive. live_tail is "
            "seeded and hardware-independent: the overload-flip onset "
            "signature and the replay-vs-analyze attribution "
            "equivalence, both gated by check_regression.py."
        ),
    }


#: The bench sections, in ``--only all`` execution order: name ->
#: (description, builder).  Section ``name`` writes ``BENCH_<name>.json``.
SECTIONS = {
    "engine": ("engine hot path + mega-sweep machinery", build_engine_report),
    "replication": ("adaptive replication controller", build_replication_report),
    "hetero": ("big/little pools + energy accounting", build_hetero_report),
    "telemetry": ("telemetry on/off overhead + primitives", build_telemetry_report),
    "observe": ("trace analyzer, flight recorder, live plane", build_observe_report),
    "diff": ("run ledger + repro diff attestations", build_diff_report),
}


def embed_ledger_entry(report: dict, section: str) -> None:
    """Attach the run-over-run ``"ledger"`` entry (DESIGN.md §15).

    The entry's metrics are the report's numeric scalars flattened to
    dotted paths (booleans as 0/1, so attestation flips surface as
    deltas); sections that curate their own entry are left alone.
    """
    if "ledger" in report:
        return
    import math

    from repro.observe.ledger import config_fingerprint

    metrics: dict[str, float] = {}

    def walk(node, prefix: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{prefix}{key}.")
        elif isinstance(node, bool):
            metrics[prefix[:-1]] = 1.0 if node else 0.0
        elif isinstance(node, (int, float)) and math.isfinite(node):
            metrics[prefix[:-1]] = float(node)

    walk(report, "")
    config = {"benchmark": section, "scale": report.get("scale", "")}
    report["ledger"] = {
        "run_id": "",
        "card": {
            "name": f"bench:{section}",
            "fingerprint": config_fingerprint(config),
            "seed": 0,
            "scheduler": "",
            "workload": "",
            "scale": report.get("scale", ""),
            "config": config,
            "git_rev": "",
            "created_s": 0.0,
        },
        "artifacts": {
            "histograms": {},
            "attribution": {},
            "metrics": metrics,
            "energy": {},
            "events": [],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=["tiny", "quick", "full"], default=None,
        help="fidelity preset (default: $REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--output-dir", type=Path, default=REPO_ROOT,
        help="where to write BENCH_<section>.json (default: the repo root)",
    )
    parser.add_argument(
        "--only",
        default="all",
        help=(
            "comma-separated bench sections to run, or 'all' "
            f"(sections: {', '.join(SECTIONS)}; default: all)"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the bench sections and exit",
    )
    parser.add_argument(
        "--ledger", type=Path, default=None, metavar="DIR",
        help="append each section's run entry to this run ledger",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name, (description, _) in SECTIONS.items():
            print(f"{name:12s} {description} -> BENCH_{name}.json")
        return 0
    if args.scale:
        from repro.experiments.config import FULL, QUICK, TINY

        scale = {"tiny": TINY, "quick": QUICK, "full": FULL}[args.scale]
    else:
        scale = default_scale()

    if args.only.strip() == "all":
        selected = list(SECTIONS)
    else:
        selected = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in selected if name not in SECTIONS]
        if unknown:
            parser.error(
                f"unknown section(s): {', '.join(unknown)} "
                f"(choose from: {', '.join(SECTIONS)}, all)"
            )

    args.output_dir.mkdir(parents=True, exist_ok=True)
    for name in selected:
        _, build = SECTIONS[name]
        print(f"\nrunning {name} benches at scale={scale.name} ...")
        report = build(scale)
        embed_ledger_entry(report, name)
        output = args.output_dir / f"BENCH_{name}.json"
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        print(f"\nwrote {output}")
        if args.ledger is not None:
            from repro.observe.ledger import RunEntry, RunLedger

            run_id = RunLedger(args.ledger).append(
                RunEntry.from_dict(report["ledger"])
            )
            print(f"[ledger: {run_id} -> {args.ledger}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
