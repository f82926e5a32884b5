"""Workload ``traced-session``: an operator session on big/little cores.

The ``hetero-energy`` topology (4 big + 12 little cores) runs EA-FM and
FIX-3 at a mid load on one seed, with the program's own ``Telemetry``,
a ``LivePlane`` and attribution switched on, as ``--trace --ledger``
does.  The session then writes the Chrome trace, runs
``analyze_trace``, appends both ledger entries and calls ``diff_runs``.
It exercises the hetero commit path, the per-completion observability
sinks and the offline observe tools: a change that speeds the plain
path by slowing the instrumented or hetero path shows up here.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.core import search as search_mod
from repro.experiments.config import QUICK
from repro.experiments.hetero_energy import CORES, big_little_topology
from repro.observe import analyze as analyze_mod
from repro.observe import diff as diff_mod
from repro.observe import ledger as ledger_mod
from repro.observe.live import LivePlane
from repro.schedulers import EnergyAwareFMScheduler, FixedScheduler
from repro.sim import engine as engine_mod
from repro.telemetry import Telemetry
from repro.telemetry import export as export_mod
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess

import checks
from harness import DEFAULT_SEED, WORK_DIR, Ops, Pass, measure_passes
from layers import TraceOutcome, bracketed
from probes import profile_shares

NAME = "traced-session"
#: Mid load on the 20-capacity big/little box (its knee is near 500).
RPS = 250.0
SIZES = {"full": 10_000, "tiny": 300}
PHI = 0.99


@dataclass
class State:
    seed: int
    requests: int
    topology: object
    schedulers: dict
    arrivals: list
    pins: dict | None


def workers() -> int:
    return 1


def build(seed: int, size: str) -> tuple[State, dict[str, float]]:
    """Workload, profile and topology, the interval-table search at the
    topology's equivalent capacity, and the materialized arrivals."""
    workload = bing_mod.bing_workload(profile_size=QUICK.profile_size)
    topology = big_little_topology()
    profile = workload.profile
    started = time.perf_counter()
    table = search_mod.build_interval_table(
        profile,
        search_mod.SearchConfig(
            max_degree=bing_mod.MAX_DEGREE,
            target_parallelism=topology.equivalent_capacity(),
            step_ms=max(1.0, QUICK.step_ms / 10),
            num_bins=QUICK.num_bins,
        ),
    )
    search_s = time.perf_counter() - started
    started = time.perf_counter()
    arrivals = workload.arrivals(
        SIZES[size], PoissonProcess(RPS), np.random.default_rng(seed)
    )
    arrivals_s = time.perf_counter() - started
    state = State(
        seed=seed,
        requests=SIZES[size],
        topology=topology,
        schedulers={
            "EA-FM": EnergyAwareFMScheduler(table),
            "FIX-3": FixedScheduler(3),
        },
        arrivals=arrivals,
        pins=checks.load_pins(NAME) if seed == DEFAULT_SEED and size == "full" else None,
    )
    return state, {
        "workloads.arrivals_s": arrivals_s,
        "workloads.requests": SIZES[size],
        "core.search.build_s": search_s,
        "core.search.tables": 1,
    }


def one_pass(state: State, ops: Ops, attribution: bool = True, session: bool = True) -> Pass:
    """Both policies' instrumented runs, then (``session``) the
    operator steps: export, ledger, analysis and diff."""
    result = Pass()
    telemetry = Telemetry()
    results = {}
    windows = 0
    for name, scheduler in state.schedulers.items():
        label = f"{name}@{RPS:g}"

        def cell(scheduler=scheduler, label=label):
            live = LivePlane(window_ms=100.0, capacity=4096, telemetry=telemetry)
            started = time.perf_counter()
            outcome = engine_mod.simulate(
                state.arrivals,
                scheduler,
                cores=CORES,
                quantum_ms=bing_mod.QUANTUM_MS,
                spin_fraction=bing_mod.SPIN_FRACTION,
                telemetry=telemetry,
                attribution=attribution,
                topology=state.topology,
                live=live,
            )
            sim_s = time.perf_counter() - started
            checks.exactly_once(outcome, state.requests)
            digest = checks.record_digest(outcome)
            p99 = outcome.tail_latency_ms(PHI)
            if state.pins is not None:
                checks.matches_pin(state.pins, label, digest, p99)
            return outcome, sim_s, digest, p99, len(live.windows())

        done = ops.run(label, cell)
        if done is None:
            continue
        outcome, sim_s, digest, p99, closed = done
        results[name] = outcome
        windows += closed
        result.sim_s += sim_s
        result.requests += len(outcome.records) + len(outcome.shed_records)
        result.digests[label] = (digest, p99)
    result.sim_s_by_engine["scalar"] = result.sim_s
    result.extras.update(spans=len(telemetry.tracer.spans), windows=windows)
    if session and len(results) == len(state.schedulers):
        directory = WORK_DIR / NAME
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        try:
            operator_steps(state, ops, telemetry, results, directory, result)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return result


def operator_steps(state, ops, telemetry, results, directory, result: Pass) -> None:
    """Export the trace and append both ledger entries; ``report_s`` is
    the time from those files on disk to the analysis report and diff."""
    trace_path = ops.run(
        "export chrome trace",
        export_mod.write_chrome_trace, directory / "trace.json", telemetry,
    )
    ledger = ledger_mod.RunLedger(directory / "ledger")

    def append():
        entries = {
            name: ledger_mod.entry_from_result(
                f"session:{name}@{RPS:g}",
                outcome,
                config={"workload": NAME, "policy": name, "rps": RPS},
                seed=state.seed,
                scheduler=name,
            )
            for name, outcome in results.items()
        }
        return entries, {name: ledger.append(entry) for name, entry in entries.items()}

    appended = ops.run("ledger append", append)
    if trace_path is None or appended is None:
        return
    entries, run_ids = appended
    result.extras["trace_bytes"] = trace_path.stat().st_size
    result.extras["entry_bytes"] = ledger.path.stat().st_size / len(entries)

    started = time.perf_counter()
    ops.run(
        "analyze trace",
        lambda: checks.attribution_matches(
            analyze_mod.analyze_trace(trace_path, phi=PHI), results.values()
        ),
    )
    stored = ops.run(
        "ledger read", lambda: {name: ledger.get(rid) for name, rid in run_ids.items()}
    )
    if stored is not None:
        ops.run(
            "ledger round-trip self-diff",
            lambda: checks.exact_null(
                diff_mod.diff_runs(entries["EA-FM"], stored["EA-FM"]),
                "ledger round trip",
            ),
        )
        diff = ops.run("diff EA-FM vs FIX-3", diff_mod.diff_runs, stored["EA-FM"], stored["FIX-3"])
        if diff is not None:
            result.extras["claims"] = [f"EA-FM vs FIX-3 at {RPS:g} RPS: {diff.explanation()}"]
    result.report_s += time.perf_counter() - started
    result.reports += 1


def measure(state: State, ops: Ops, seconds: float) -> list[Pass]:
    return measure_passes(lambda: one_pass(state, ops), ops, seconds)


def trace(state: State, ops: Ops, log) -> TraceOutcome:
    untraced, traced, (plain,) = bracketed(
        log,
        state.schedulers.values(),
        lambda: one_pass(state, ops),
        ops,
        lambda: one_pass(state, ops, attribution=False, session=False),
    )
    shares = profile_shares(lambda: one_pass(state, ops, session=False))
    extras = traced.extras
    return TraceOutcome(
        untraced=untraced,
        traced=traced,
        shares=shares,
        extras={
            "sim.engine.attribution_overhead_ratio": (
                untraced.sim_s / plain.sim_s - 1.0,
                "ratio",
            ),
            "telemetry.spans": (extras.get("spans", 0), "count"),
            "telemetry.trace_bytes": (extras.get("trace_bytes", 0), "bytes"),
            "observe.live.windows": (extras.get("windows", 0), "count"),
            "observe.ledger.entry_bytes": (extras.get("entry_bytes", 0), "bytes"),
        },
        bases={
            "sim.engine.attribution_overhead_ratio": (
                f"{untraced.sim_s:.3f} s attribution on / {plain.sim_s:.3f} s off, untraced"
            ),
        },
    )
