"""Workload ``mega-overload``: an overloaded Bing FIX-4 cell through the
sharded sweep.

Bing demand, FIX-4 on 8 cores at 900 RPS — far past capacity, so the
running set grows to hundreds of requests and no quantum tick fires.
The cell runs through the public sharded-sweep entry with a fixed
shard count, streamed arrivals, ``StreamSummary`` results and one
worker per CPU; every pass times it on the scalar engine and on the
vectorized one.  This is where ``_commit``/``_recompute_rates``, the
streaming collector and ``repro.parallel`` do the work, and where the
scheduler hooks do almost none.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import dataclass

from repro.experiments.config import QUICK
from repro.observe import diff as diff_mod
from repro.observe import ledger as ledger_mod
from repro.parallel import shards as shards_mod
from repro.schedulers import FixedScheduler
from repro.workloads import bing as bing_mod

import checks
from harness import (
    DEFAULT_SEED,
    CheckFailed,
    Ops,
    Pass,
    measure_passes,
    nproc,
    timed_report,
)
from layers import TraceOutcome, bracketed
from probes import profile_shares

NAME = "mega-overload"
RPS = 900.0
CORES = 8
SHARDS = 2
POLICY = "FIX-4"
LABEL = f"{POLICY}@{RPS:g}"
ENGINES = ("scalar", "vector")
#: The report step takes about a millisecond; a pass repeats it for
#: roughly half a second.
REPORT_REPEATS = 400
SIZES = {"full": 6000, "tiny": 200}


@dataclass
class State:
    seed: int
    requests: int
    workload: object
    scheduler: FixedScheduler
    pins: dict | None


def workers() -> int:
    return nproc()


def build(seed: int, size: str) -> tuple[State, dict[str, float]]:
    """Workload and profile only: arrivals are streamed inside the
    timed body, and FIX-4 needs no interval table."""
    workload = bing_mod.bing_workload(profile_size=QUICK.profile_size)
    workload.profile
    state = State(
        seed=seed,
        requests=SIZES[size],
        workload=workload,
        scheduler=FixedScheduler(4),
        pins=checks.load_pins(NAME) if seed == DEFAULT_SEED and size == "full" else None,
    )
    return state, {}


def run_cell(state: State, engine: str, workers: int):
    """One sharded streamed run of the cell; returns (summary, seconds)."""
    started = time.perf_counter()
    sweep = shards_mod.run_sharded_sweep(
        {POLICY: state.scheduler},
        state.workload,
        [RPS],
        cores=CORES,
        num_requests=state.requests,
        shards=SHARDS,
        workers=workers,
        quantum_ms=bing_mod.QUANTUM_MS,
        seed=state.seed,
        spin_fraction=bing_mod.SPIN_FRACTION,
        vectorized=engine == "vector",
    )
    return sweep[POLICY][0], time.perf_counter() - started


def one_pass(state: State, ops: Ops, workers: int, engines=ENGINES) -> Pass:
    result = Pass()
    summaries = {}
    for engine in engines:
        label = f"{LABEL} {engine}"

        def cell(engine=engine, label=label):
            summary, sim_s = run_cell(state, engine, workers)
            checks.summary_exactly_once(summary, state.requests)
            digest = checks.summary_digest(summary)
            p99 = summary.tail_latency_ms(0.99)
            if state.pins is not None:
                checks.matches_pin(state.pins, label, digest, p99)
            return summary, sim_s, digest, p99

        done = ops.run(label, cell)
        if done is None:
            continue
        summary, sim_s, digest, p99 = done
        summaries[engine] = summary
        result.sim_s += sim_s
        result.sim_s_by_engine[engine] = sim_s
        result.requests += summary.count + summary.shed_count
        result.digests[label] = (digest, p99)
    result.extras["summaries"] = summaries
    if len(summaries) == 2:
        ops.check("scalar vs vector", checks.summaries_identical,
                  summaries["scalar"], summaries["vector"], "scalar vs vector")
        timed_report(result, lambda: report(state, summaries, ops), REPORT_REPEATS)
    return result


def report(state: State, summaries: dict, ops: Ops) -> None:
    """Ledger entries for both engine paths; their diff must be an
    exact null."""
    entries = ops.run(
        "ledger scalar/vector",
        lambda: {
            engine: ledger_mod.entry_from_summary(
                f"mega:{engine}",
                summary,
                config={"workload": NAME, "rps": RPS, "shards": SHARDS},
                seed=state.seed,
                scheduler=POLICY,
            )
            for engine, summary in summaries.items()
        },
    )
    if entries is not None:
        ops.run(
            "diff scalar vs vector",
            lambda: checks.exact_null(
                diff_mod.diff_runs(entries["scalar"], entries["vector"]),
                "scalar vs vector",
            ),
        )


def serial_matches_pooled(state: State, pooled: dict) -> None:
    """The vector cell run in-process equals the pooled run."""
    if "vector" not in pooled:
        raise CheckFailed("no pooled vector summary to compare")
    serial, _ = run_cell(state, "vector", workers=1)
    checks.summaries_identical(serial, pooled["vector"], "serial vs pooled")


def measure(state: State, ops: Ops, seconds: float) -> list[Pass]:
    passes = measure_passes(lambda: one_pass(state, ops, workers()), ops, seconds)
    ops.check("serial vs pooled", serial_matches_pooled,
              state, passes[-1].extras["summaries"])
    return passes


def trace(state: State, ops: Ops, log) -> TraceOutcome:
    # Spans are taken in-process, so the traced pass and its untraced
    # baseline run serially; the pooled pass is the variant.
    pool = workers()
    serial, traced, (pooled,) = bracketed(
        log,
        [state.scheduler],
        lambda: one_pass(state, ops, 1),
        ops,
        lambda: one_pass(state, ops, pool),
    )
    shares = profile_shares(lambda: one_pass(state, ops, 1, engines=("scalar",)))
    tracemalloc.start()
    try:
        one_pass(state, ops, 1, engines=("vector",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cpu_count = os.cpu_count() or 1
    extras = {
        "sim.stream.peak_traced_mb": (peak / 2**20, "MB"),
        "parallel.workers": (pool, "count"),
        "parallel.cpu_count": (cpu_count, "count"),
        "parallel.serial_s": (serial.wall_s, "s"),
        "parallel.pooled_s": (pooled.wall_s, "s"),
    }
    bases = {}
    if pool <= cpu_count:
        extras["parallel.efficiency"] = (serial.wall_s / (pooled.wall_s * pool), "ratio")
        bases["parallel.efficiency"] = (
            f"{serial.wall_s:.3f} s serial / ({pooled.wall_s:.3f} s pooled x {pool} workers)"
        )
    else:
        extras["parallel.efficiency"] = (None, "ratio")
        bases["parallel.efficiency"] = (
            f"not measurable: {pool} workers > {cpu_count} CPUs"
        )
    return TraceOutcome(
        untraced=serial,
        traced=traced,
        shares=shares,
        extras=extras,
        bases=bases,
        baseline=(
            "mean of the serial untraced passes before and after the traced "
            f"one (the timed runs use {pool} workers)"
        ),
    )
