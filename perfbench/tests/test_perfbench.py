"""The benchmark's own tests: tiny smoke runs of every workload in both
modes, and each output check rejecting a perturbed result.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from layers import traced_pass  # noqa: E402
from probes import SpanLog, stale_events  # noqa: E402
from repro.observe.analyze import analyze_trace  # noqa: E402
from repro.observe.diff import diff_runs  # noqa: E402
from repro.observe.ledger import entry_from_result  # noqa: E402
from repro.schedulers import FixedScheduler, FMScheduler  # noqa: E402
from repro.sim import engine as engine_mod  # noqa: E402
from repro.sim.request import RequestState  # noqa: E402
from repro.sim.stream import simulate_stream  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.telemetry.export import write_chrome_trace  # noqa: E402
from repro.workloads import bing as bing_mod  # noqa: E402
from repro.workloads.arrivals import PoissonProcess  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, trace):
    original_run = engine_mod.Engine.run
    result = _run(
        capsys, "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert engine_mod.Engine.run is original_run  # probes removed
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)


def test_end_to_end_scales_timings_to_the_nominal_host():
    slow_host = harness.Pass(
        wall_s=2.0, cpu_s=2.0, sim_s=1.0, requests=100, report_s=0.5, reports=1,
        reference_s=2 * harness.NOMINAL_REFERENCE_S,
    )
    metrics = harness.end_to_end([slow_host], setup_s=0.4)
    assert metrics["wall_s"][0] == pytest.approx(1.0)
    assert metrics["cpu_s"][0] == pytest.approx(1.0)
    assert metrics["report_s"][0] == pytest.approx(0.25)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert metrics["sim_requests_per_s"][0] == pytest.approx(200.0)


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC_DIR", tmp_path / "src")
    assert run.main(["--workload", "fig8-sweep"]) != 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# Output checks reject perturbed results
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lucene_result():
    import fig8_sweep

    state, _ = fig8_sweep.build(seed=3, size="tiny")
    arrivals = state.arrivals[state.rps[-1]]
    result = engine_mod.simulate(arrivals, state.schedulers["FM"], cores=15)
    return result, len(arrivals)


def test_exactly_once_rejects_dropped_and_duplicated_requests(lucene_result):
    result, submitted = lucene_result
    checks.exactly_once(result, submitted)
    dropped = SimpleNamespace(records=result.records[:-1], shed_records=[])
    with pytest.raises(harness.CheckFailed):
        checks.exactly_once(dropped, submitted)
    duplicated = SimpleNamespace(
        records=result.records[:-1] + result.records[:1], shed_records=[]
    )
    with pytest.raises(harness.CheckFailed):
        checks.exactly_once(duplicated, submitted)


def test_pin_rejects_mutated_digest_and_p99(lucene_result):
    result, _ = lucene_result
    digest, p99 = checks.record_digest(result), result.tail_latency_ms(0.99)
    pins = {"cell": [digest, p99]}
    checks.matches_pin(pins, "cell", digest, p99)
    flipped = ("1" if digest[0] == "0" else "0") + digest[1:]
    with pytest.raises(harness.CheckFailed):
        checks.matches_pin(pins, "cell", flipped, p99)
    with pytest.raises(harness.CheckFailed):
        checks.matches_pin(pins, "cell", digest, np.nextafter(p99, np.inf))
    with pytest.raises(harness.CheckFailed):
        checks.matches_pin(pins, "other cell", digest, p99)
    moved = SimpleNamespace(
        records=[dataclasses.replace(result.records[0], finish_ms=result.records[0].finish_ms + 1e-9)]
        + result.records[1:]
    )
    assert checks.record_digest(moved) != digest


def _summary(requests=120, seed=5):
    workload = bing_mod.bing_workload(profile_size=200)
    return simulate_stream(
        workload.arrival_stream(requests, PoissonProcess(900.0), seed=seed),
        FixedScheduler(4),
        cores=8,
    )


def test_stream_checks_reject_perturbed_summaries():
    summary, other = _summary(), _summary()
    checks.summary_exactly_once(summary, 120)
    checks.summaries_identical(summary, other, "same")
    assert checks.summary_digest(summary) == checks.summary_digest(other)
    with pytest.raises(harness.CheckFailed):
        checks.summary_exactly_once(summary, 121)
    other.histogram.record(1.0)
    with pytest.raises(harness.CheckFailed):
        checks.summaries_identical(summary, other, "perturbed")
    assert checks.summary_digest(summary) != checks.summary_digest(other)


def test_attribution_and_self_diff_checks_reject_perturbations(tmp_path):
    workload = bing_mod.bing_workload(profile_size=200)
    arrivals = workload.arrivals(200, PoissonProcess(250.0), np.random.default_rng(4))
    telemetry = Telemetry()
    result = engine_mod.simulate(arrivals, FixedScheduler(3), cores=16, telemetry=telemetry)
    report = analyze_trace(write_chrome_trace(tmp_path / "t.json", telemetry))
    checks.attribution_matches(report, [result])
    bent = SimpleNamespace(
        records=[dataclasses.replace(result.records[0], service_ms=result.records[0].service_ms + 1e-3)]
        + result.records[1:]
    )
    with pytest.raises(harness.CheckFailed):
        checks.attribution_matches(report, [bent])

    entry = entry_from_result("a", result, config={}, seed=4)
    checks.exact_null(diff_runs(entry, entry_from_result("a", result, config={}, seed=4)), "self")
    shorter = result.slice_by_arrival(0, len(result.records) - 1)
    with pytest.raises(harness.CheckFailed):
        checks.exact_null(diff_runs(entry, entry_from_result("b", shorter, config={}, seed=4)), "perturbed")


def test_digests_agree_rejects_a_changed_cell():
    harness.digests_agree({"a": ("x", 1.0)}, {"a": ("x", 1.0)}, "same")
    with pytest.raises(harness.CheckFailed):
        harness.digests_agree({"a": ("x", 1.0)}, {"a": ("y", 1.0)}, "changed")
    with pytest.raises(harness.CheckFailed):
        harness.digests_agree({"a": ("x", 1.0)}, {}, "dropped")


def test_outside_stale_count_matches_the_engine_handlers(monkeypatch):
    """The probes infer live events from hook calls; the engine's own
    handlers (private, read only here) must agree."""
    import fig8_sweep

    state, _ = fig8_sweep.build(seed=11, size="tiny")
    live = {"n": 0}

    def counting(name, is_live):
        original = getattr(engine_mod.Engine, name)

        def handler(engine, *args):
            if is_live(*args):
                live["n"] += 1
            return original(engine, *args)

        monkeypatch.setattr(engine_mod.Engine, name, handler)

    counting("_handle_arrival", lambda request: True)
    counting("_handle_completion", lambda: True)
    counting("_handle_quantum", lambda request, event: request.state is RequestState.RUNNING)
    counting("_handle_delay_expired", lambda request: request.state is RequestState.DELAYED)
    log = SpanLog()
    schedulers = {"FM": state.schedulers["FM"]}
    state.schedulers = schedulers
    traced_pass(log, schedulers.values(), lambda: fig8_sweep.one_pass(state, harness.Ops()))
    stale, drained = stale_events(log.counts, "sim.engine")
    assert drained - stale == live["n"]
    assert stale > 0 and isinstance(state.schedulers["FM"], FMScheduler)
