"""Trace analyzer tests: loading, reconstruction, and the ground-truth
cross-check (analyzer output vs RequestRecord flight-recorder data)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.hedging import HedgePolicy
from repro.cluster.simulation import simulate_cluster_robust
from repro.core.search import SearchConfig, build_interval_table
from repro.core.speedup import TabulatedSpeedup, UniformSpeedupModel
from repro.errors import ConfigurationError
from repro.observe import analyze_spans, analyze_trace, load_trace, requests_from_spans
from repro.schedulers import FMScheduler
from repro.sim.engine import simulate
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry import Telemetry
from repro.telemetry.export import write_chrome_trace, write_spans_jsonl
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.workload import Workload

PHI = 0.9

_CURVE = TabulatedSpeedup([1.0, 1.8, 2.4, 2.8])
_MODEL = UniformSpeedupModel(_CURVE)
_SEARCH = SearchConfig(max_degree=4, target_parallelism=6.0, step_ms=50.0, num_bins=16)


def _workload() -> Workload:
    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(np.log(60.0), 0.8, size=n)

    return Workload(
        name="analyze-test", sampler=sampler, speedup_model=_MODEL,
        max_degree=4, profile_size=300,
    )


@pytest.fixture(scope="module")
def sim_run():
    """One traced FM run shared by the module's tests."""
    workload = _workload()
    table = build_interval_table(workload.profile, _SEARCH)
    telemetry = Telemetry()
    rng = np.random.default_rng(21)
    arrivals = workload.arrivals(300, PoissonProcess(45.0), rng)
    result = simulate(
        arrivals, FMScheduler(table), cores=4, telemetry=telemetry
    )
    return result, telemetry


class TestLoading:
    def test_chrome_round_trip(self, sim_run, tmp_path):
        _, telemetry = sim_run
        path = write_chrome_trace(tmp_path / "trace.json", telemetry)
        trace = load_trace(path)
        assert len(trace.spans) == len(telemetry.tracer.spans)
        assert trace.counters()["sim.completions"] == 300
        tracks = {s.track for s in trace.spans}
        assert "sim" in tracks

    def test_jsonl_round_trip(self, sim_run, tmp_path):
        _, telemetry = sim_run
        path = write_spans_jsonl(tmp_path / "spans.jsonl", telemetry.tracer.spans)
        trace = load_trace(path)
        assert len(trace.spans) == len(telemetry.tracer.spans)
        assert trace.metrics is None  # JSONL carries no metrics block

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_metadata_events_come_first_and_deterministic(self, sim_run, tmp_path):
        _, telemetry = sim_run
        from repro.telemetry.export import to_chrome_trace

        document = to_chrome_trace(telemetry.tracer.spans)
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        # All metadata precedes all span events.
        first_span = next(i for i, e in enumerate(events) if e["ph"] != "M")
        assert all(e["ph"] == "M" for e in events[:first_span])
        assert not any(e["ph"] == "M" for e in events[first_span:])
        names = {e["name"] for e in metadata}
        assert names == {"process_name", "thread_name"}
        thread_names = [e for e in metadata if e["name"] == "thread_name"]
        assert thread_names[0]["args"]["name"].startswith("lane ")
        # Every (pid, tid) with span events has a thread_name.
        span_lanes = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
        named_lanes = {(e["pid"], e["tid"]) for e in thread_names}
        assert span_lanes <= named_lanes
        # Determinism: a second export is byte-identical.
        assert json.dumps(document) == json.dumps(
            to_chrome_trace(telemetry.tracer.spans)
        )


class TestGroundTruthCrossCheck:
    """ISSUE acceptance: `repro analyze` output on a recorded trace must
    match the RequestRecord ground truth."""

    def test_chrome_trace_matches_records(self, sim_run, tmp_path):
        result, telemetry = sim_run
        path = write_chrome_trace(tmp_path / "trace.json", telemetry)
        report = analyze_trace(path, phi=PHI).tracks["sim"]

        assert report.count == len(result.records)
        assert report.tail_threshold_ms == pytest.approx(
            result.tail_latency_ms(PHI), rel=1e-12
        )
        assert report.tail_count == len(result.tail_records(PHI))

        truth = result.attribution_summary(PHI)
        for name in ATTRIBUTION_COMPONENTS:
            assert report.components[name]["overall_mean_ms"] == pytest.approx(
                truth["overall"][name], rel=1e-9, abs=1e-9
            )
            assert report.components[name]["tail_mean_ms"] == pytest.approx(
                truth["tail"][name], rel=1e-9, abs=1e-9
            )
        assert report.mean_ms == pytest.approx(result.mean_latency_ms(), rel=1e-9)
        # Tail shares sum to 1 (the decomposition is additive).
        assert sum(
            report.components[name]["tail_share"]
            for name in ATTRIBUTION_COMPONENTS
        ) == pytest.approx(1.0, abs=1e-6)

    def test_jsonl_agrees_with_chrome(self, sim_run, tmp_path):
        _, telemetry = sim_run
        chrome = write_chrome_trace(tmp_path / "t.json", telemetry)
        jsonl = write_spans_jsonl(tmp_path / "t.jsonl", telemetry.tracer.spans)
        a = analyze_trace(chrome, phi=PHI).tracks["sim"]
        b = analyze_trace(jsonl, phi=PHI).tracks["sim"]
        assert a.tail_threshold_ms == pytest.approx(b.tail_threshold_ms)
        assert a.components.keys() == b.components.keys()


class TestReconstruction:
    def test_pre_attribution_traces_fall_back_to_coarse_split(self, sim_run):
        """Traces from attribution=False runs still analyze (coarse)."""
        workload = _workload()
        table = build_interval_table(workload.profile, _SEARCH)
        telemetry = Telemetry()
        rng = np.random.default_rng(5)
        simulate(
            workload.arrivals(100, PoissonProcess(45.0), rng),
            FMScheduler(table),
            cores=4,
            telemetry=telemetry,
            attribution=False,
        )
        views = requests_from_spans(telemetry.tracer.spans)["sim"]
        assert views
        assert all("execute_ms" in v.components for v in views)

    def test_cluster_track(self, tmp_path):
        workload = _workload()
        table = build_interval_table(workload.profile, _SEARCH)
        telemetry = Telemetry()
        simulate_cluster_robust(
            scheduler_factory=lambda: FMScheduler(table, boosting=False),
            workload=workload,
            num_servers=3,
            num_queries=60,
            process=PoissonProcess(40.0),
            cores=4,
            seed=31,
            hedge=HedgePolicy(delay_percentile=0.7),
            telemetry=telemetry,
        )
        path = write_chrome_trace(tmp_path / "cluster.json", telemetry)
        report = analyze_trace(path, phi=PHI)
        cluster = report.tracks["cluster"]
        assert cluster.count == 60
        assert "slowest_shard_ms" in cluster.components
        # Hedge correlate present (the run hedged aggressively at p70).
        assert cluster.hedged_rate is not None
        assert report.counters["cluster.hedges"] > 0

    def test_track_filter_and_unknown_track(self, sim_run, tmp_path):
        _, telemetry = sim_run
        path = write_chrome_trace(tmp_path / "t.json", telemetry)
        report = analyze_trace(path, phi=PHI, track="sim")
        assert set(report.tracks) == {"sim"}
        with pytest.raises(ConfigurationError):
            analyze_trace(path, phi=PHI, track="runtime")

    def test_bad_phi_rejected(self, sim_run):
        _, telemetry = sim_run
        with pytest.raises(ConfigurationError):
            analyze_spans(telemetry.tracer.spans, phi=1.0)


class TestCLI:
    def test_repro_analyze_subcommand(self, sim_run, tmp_path, capsys):
        from repro.cli import main

        _, telemetry = sim_run
        path = write_chrome_trace(tmp_path / "t.json", telemetry)
        out_json = tmp_path / "report.json"
        code = main(["analyze", str(path), "--phi", str(PHI), "--json", str(out_json)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "tail attribution report" in printed
        assert "track sim" in printed
        report = json.loads(out_json.read_text())
        assert report["phi"] == PHI
        assert "sim" in report["tracks"]

    def test_missing_file_is_graceful(self, capsys):
        from repro.cli import main

        assert main(["analyze", "/nonexistent/trace.json"]) == 2
        assert "repro analyze" in capsys.readouterr().out

    def test_all_nan_latencies_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "nan.jsonl"
        span = {
            "name": "run", "track": "sim", "lane": 0, "span_id": 1,
            "parent_id": None, "start_ms": 0.0, "end_ms": 1.0, "kind": "span",
            "attrs": {"latency_ms": "nan"},
        }
        path.write_text(json.dumps(span) + "\n")
        assert main(["analyze", str(path)]) == 2
        assert "track 'sim': the tail is empty" in capsys.readouterr().out

    def test_render_includes_slowest_and_context(self, sim_run, tmp_path):
        _, telemetry = sim_run
        path = write_chrome_trace(tmp_path / "t.json", telemetry)
        text = analyze_trace(path, phi=PHI, top=3).render()
        assert "dominant component" in text
        assert "sim.completions" in text


@pytest.fixture(scope="module")
def hetero_run():
    """One traced run on a big/little topology: spans carry energy."""
    from repro.hetero import Topology

    workload = _workload()
    table = build_interval_table(workload.profile, _SEARCH)
    telemetry = Telemetry()
    rng = np.random.default_rng(33)
    arrivals = workload.arrivals(200, PoissonProcess(45.0), rng)
    result = simulate(
        arrivals, FMScheduler(table), cores=4, telemetry=telemetry,
        topology=Topology.big_little(big=1, little=3),
    )
    return result, telemetry


class TestEnergySurfacing:
    def test_hetero_trace_reports_energy(self, hetero_run, tmp_path):
        result, telemetry = hetero_run
        path = write_chrome_trace(tmp_path / "t.json", telemetry)
        report = analyze_trace(path, phi=PHI)
        track = report.tracks["sim"]
        assert track.has_energy
        # The analyzer's per-query mean must re-add to the flight
        # recorder's per-request attribution.
        expected = sum(r.energy_j for r in result.records) / len(result.records)
        assert track.joules_per_query == pytest.approx(expected)
        assert track.tail_joules_per_query >= track.joules_per_query

    def test_render_and_json_carry_energy(self, hetero_run, tmp_path):
        _, telemetry = hetero_run
        path = write_chrome_trace(tmp_path / "t.json", telemetry)
        report = analyze_trace(path, phi=PHI, top=3)
        text = report.render()
        assert "J/query" in text
        assert "energy (J)" in text  # slowest-requests column
        data = report.tracks["sim"].to_json()
        assert data["joules_per_query"] == report.tracks["sim"].joules_per_query
        assert all("energy_j" in e and "pool" in e for e in data["slowest"])

    def test_legacy_trace_is_nan_safe(self, sim_run, tmp_path):
        """A trace that predates energy accounting renders cleanly."""
        _, telemetry = sim_run
        path = write_chrome_trace(tmp_path / "t.json", telemetry)
        report = analyze_trace(path, phi=PHI)
        track = report.tracks["sim"]
        assert not track.has_energy
        text = report.render()
        assert "J/query" not in text
        assert "joules_per_query" not in track.to_json()
