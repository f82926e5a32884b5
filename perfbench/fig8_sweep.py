"""Workload ``fig8-sweep``: the paper's Figure 8 grid.

Lucene demand on 15 cores with a 5 ms quantum; SEQ, FIX-2, FIX-4 and FM
across 30-47 RPS, open-loop Poisson in virtual time.  FM's interval
table is built by ``core.search`` during set-up.  Cells run serially
with full per-request records (``MetricsCollector``), attribution on
and telemetry off — the headline result and the most common run, where
quantum ticks, dispatch and the scheduler hooks do the work.  The
report step builds ledger entries for FM and FIX-2 at the paper's
claim loads and diffs them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import search as search_mod
from repro.experiments.config import QUICK
from repro.experiments.runner import cell_seed
from repro.observe import diff as diff_mod
from repro.observe import ledger as ledger_mod
from repro.schedulers import FixedScheduler, FMScheduler, SequentialScheduler
from repro.sim import engine as engine_mod
from repro.workloads import lucene as lucene_mod
from repro.workloads.arrivals import PoissonProcess

import checks
from harness import DEFAULT_SEED, Ops, Pass, measure_passes, timed_report
from layers import TraceOutcome, bracketed
from probes import profile_shares

NAME = "fig8-sweep"
RPS = (30, 33, 36, 38, 40, 43, 45, 47)
#: Loads where the paper states FM's tail reduction over FIX-2.
PAPER_REDUCTION = {40: "33%", 43: "40%"}
SIZES = {
    "full": {"requests": 1000, "rps": RPS},
    "tiny": {"requests": 60, "rps": (30, 43)},
}


@dataclass
class State:
    seed: int
    requests: int
    rps: tuple[int, ...]
    schedulers: dict
    arrivals: dict
    pins: dict | None


def workers() -> int:
    return 1


def build(seed: int, size: str) -> tuple[State, dict[str, float]]:
    """Workload and profile, the interval-table search, and the
    materialized arrivals of every load point."""
    spec = SIZES[size]
    workload = lucene_mod.lucene_workload(profile_size=QUICK.profile_size)
    profile = workload.profile
    started = time.perf_counter()
    table = search_mod.build_interval_table(
        profile,
        search_mod.SearchConfig(
            max_degree=lucene_mod.MAX_DEGREE,
            target_parallelism=lucene_mod.TARGET_PARALLELISM,
            step_ms=QUICK.step_ms,
            num_bins=QUICK.num_bins,
        ),
    )
    search_s = time.perf_counter() - started
    started = time.perf_counter()
    arrivals = {
        rps: workload.arrivals(
            spec["requests"],
            PoissonProcess(rps),
            np.random.default_rng(cell_seed(seed, index, 0)),
        )
        for index, rps in enumerate(spec["rps"])
    }
    arrivals_s = time.perf_counter() - started
    state = State(
        seed=seed,
        requests=spec["requests"],
        rps=spec["rps"],
        schedulers={
            "SEQ": SequentialScheduler(),
            "FIX-2": FixedScheduler(2),
            "FIX-4": FixedScheduler(4),
            "FM": FMScheduler(table),
        },
        arrivals=arrivals,
        pins=checks.load_pins(NAME) if seed == DEFAULT_SEED and size == "full" else None,
    )
    return state, {
        "workloads.arrivals_s": arrivals_s,
        "workloads.requests": spec["requests"] * len(spec["rps"]),
        "core.search.build_s": search_s,
        "core.search.tables": 1,
    }


def one_pass(state: State, ops: Ops, attribution: bool = True) -> Pass:
    """Every cell of the grid, then the report step."""
    result = Pass()
    kept = {}
    for name, scheduler in state.schedulers.items():
        for rps in state.rps:
            label = f"{name}@{rps}"

            def cell(arrivals=state.arrivals[rps], scheduler=scheduler, label=label):
                started = time.perf_counter()
                outcome = engine_mod.simulate(
                    arrivals,
                    scheduler,
                    cores=lucene_mod.CORES,
                    quantum_ms=lucene_mod.QUANTUM_MS,
                    spin_fraction=lucene_mod.SPIN_FRACTION,
                    attribution=attribution,
                )
                sim_s = time.perf_counter() - started
                checks.exactly_once(outcome, state.requests)
                digest = checks.record_digest(outcome)
                p99 = outcome.tail_latency_ms(0.99)
                if state.pins is not None:
                    checks.matches_pin(state.pins, label, digest, p99)
                return outcome, sim_s, digest, p99

            done = ops.run(label, cell)
            if done is None:
                continue
            outcome, sim_s, digest, p99 = done
            result.sim_s += sim_s
            result.requests += len(outcome.records) + len(outcome.shed_records)
            result.digests[label] = (digest, p99)
            if name in ("FM", "FIX-2") and rps in PAPER_REDUCTION:
                kept[(name, rps)] = outcome
    result.sim_s_by_engine["scalar"] = result.sim_s
    result.extras["claims"] = timed_report(result, lambda: report(state, kept, ops))
    return result


def report(state: State, kept: dict, ops: Ops) -> list[str]:
    """FM vs FIX-2 at the claim loads through the ledger and diff."""
    lines = []
    for rps in PAPER_REDUCTION:
        if ("FM", rps) not in kept or ("FIX-2", rps) not in kept:
            continue
        entries = ops.run(
            f"ledger FM/FIX-2@{rps}",
            lambda rps=rps: {
                name: ledger_mod.entry_from_result(
                    f"fig8:{name}@{rps}",
                    kept[(name, rps)],
                    config={"workload": NAME, "policy": name, "rps": rps},
                    seed=state.seed,
                    scheduler=name,
                )
                for name in ("FM", "FIX-2")
            },
        )
        if entries is None:
            continue
        diff = ops.run(
            f"diff FM vs FIX-2@{rps}", diff_mod.diff_runs, entries["FM"], entries["FIX-2"]
        )
        if diff is not None:
            p99 = diff.quantile(0.99)
            lines.append(
                f"FM vs FIX-2 at {rps} RPS: p99 {p99.a_ms:.1f} vs {p99.b_ms:.1f} ms "
                f"({1 - p99.a_ms / p99.b_ms:.0%} reduction; paper: "
                f"{PAPER_REDUCTION[rps]}); {diff.explanation()}"
            )
    return lines


def measure(state: State, ops: Ops, seconds: float) -> list[Pass]:
    return measure_passes(lambda: one_pass(state, ops), ops, seconds)


def trace(state: State, ops: Ops, log) -> TraceOutcome:
    untraced, traced, (plain,) = bracketed(
        log,
        state.schedulers.values(),
        lambda: one_pass(state, ops),
        ops,
        lambda: one_pass(state, ops, attribution=False),
    )
    shares = profile_shares(lambda: one_pass(state, ops))
    return TraceOutcome(
        untraced=untraced,
        traced=traced,
        shares=shares,
        extras={
            "sim.engine.attribution_overhead_ratio": (
                untraced.sim_s / plain.sim_s - 1.0,
                "ratio",
            ),
        },
        bases={
            "sim.engine.attribution_overhead_ratio": (
                f"{untraced.sim_s:.3f} s attribution on / {plain.sim_s:.3f} s off, untraced"
            ),
        },
    )
