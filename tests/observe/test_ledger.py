"""The run ledger: cards, artifacts, append-only store, entry builders.

The determinism tests are the contract ``repro diff`` stands on: an
entry built twice from identical (config, seed) runs must serialize
byte-identically (``stamp=False`` keeps wall clocks and git out), and
a JSONL round-trip must restore every histogram to bit-identical
:meth:`LogHistogram.state`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_policy, stream_policy
from repro.experiments.tables import lucene_table
from repro.observe.ledger import (
    QUANTILE_GRID,
    RunArtifacts,
    RunEntry,
    RunLedger,
    _card,
    _finite_metrics,
    config_fingerprint,
    entry_from_result,
    entry_from_summary,
    workload_digest,
)
from repro.experiments.config import TINY as TEST_SCALE
from repro.observe.diff import bootstrap_quantiles, diff_runs
from repro.schedulers import FMScheduler
from repro.sim.engine import simulate
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry.histogram import LogHistogram
from repro.workloads import lucene as lucene_mod
from tests.observe.test_attribution_property import (
    _arrivals,
    _fault_plan,
    _fm_scheduler,
)


def _run(seed: int = 321):
    table = lucene_table(TEST_SCALE)
    workload = lucene_mod.lucene_workload(profile_size=TEST_SCALE.profile_size)
    result = run_policy(
        FMScheduler(table),
        workload,
        rps=45.0,
        cores=lucene_mod.CORES,
        num_requests=TEST_SCALE.num_requests,
        quantum_ms=lucene_mod.QUANTUM_MS,
        seed=seed,
        spin_fraction=lucene_mod.SPIN_FRACTION,
    )
    return result, workload


@pytest.fixture(scope="module")
def run_and_workload():
    return _run()


@pytest.fixture(scope="module")
def entry(run_and_workload):
    result, workload = run_and_workload
    return entry_from_result(
        "fm@45",
        result,
        config={"policy": "FM", "rps": 45.0, "seed": 321},
        seed=321,
        scheduler="FM",
        workload=workload,
        scale=TEST_SCALE.name,
    )


class TestFingerprints:
    def test_fingerprint_ignores_key_order(self):
        a = config_fingerprint({"rps": 45.0, "policy": "FM"})
        b = config_fingerprint({"policy": "FM", "rps": 45.0})
        assert a == b
        assert len(a) == 12

    def test_fingerprint_separates_values(self):
        assert config_fingerprint({"rps": 45.0}) != config_fingerprint(
            {"rps": 47.0}
        )

    def test_workload_digest_is_stable(self, run_and_workload):
        _, workload = run_and_workload
        assert workload_digest(workload) == workload_digest(workload)


class TestEntryFromResult:
    def test_latency_and_component_histograms(self, entry, run_and_workload):
        result, _ = run_and_workload
        names = set(entry.artifacts.histograms)
        assert "latency_ms" in names
        for component in ATTRIBUTION_COMPONENTS:
            assert f"attr.{component}" in names
        restored = entry.artifacts.histogram("latency_ms")
        assert restored.count == len(result.records)
        # The stored quantile point estimates match the histogram.
        for phi in QUANTILE_GRID:
            key = f"p{phi * 100:g}_ms".replace(".", "_")
            assert entry.artifacts.metrics[key] == pytest.approx(
                restored.percentile(phi)
            )

    def test_attribution_summary_stored(self, entry):
        tail = entry.artifacts.attribution["tail"]
        for component in ATTRIBUTION_COMPONENTS:
            assert component in tail

    def test_unstamped_entries_are_byte_deterministic(self, run_and_workload):
        result, workload = run_and_workload
        build = lambda: entry_from_result(  # noqa: E731
            "fm@45",
            result,
            config={"policy": "FM", "rps": 45.0, "seed": 321},
            seed=321,
            scheduler="FM",
            workload=workload,
            scale=TEST_SCALE.name,
        )
        a, b = build().to_dict(), build().to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["card"]["git_rev"] == ""
        assert a["card"]["created_s"] == 0.0

    def test_round_trip_restores_bit_identical_state(self, entry):
        clone = RunEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        for name in entry.artifacts.histograms:
            assert (
                clone.artifacts.histogram(name).state()
                == entry.artifacts.histogram(name).state()
            )
        assert clone.card == entry.card


def _reference_attribution_summary(result, phi):
    """``attribution_summary`` as first written: one ``attribution()``
    dict per record and component."""

    def means(records):
        n = len(records)
        out = {
            name: float(np.sum([r.attribution()[name] for r in records]) / n)
            for name in ATTRIBUTION_COMPONENTS
        }
        out["latency_ms"] = float(np.mean([r.latency_ms for r in records]))
        return out

    return {"overall": means(result.records), "tail": means(result.tail_records(phi))}


def _reference_entry(name, result, *, config, seed, scheduler, phi=0.99):
    """``entry_from_result`` as first written: histograms fed record by
    record from ``latency_ms`` and ``attribution()``."""
    artifacts = RunArtifacts()
    latency = LogHistogram()
    components = {c: LogHistogram() for c in ATTRIBUTION_COMPONENTS}
    for record in result.records:
        latency.record(record.latency_ms)
        attribution = record.attribution()
        for component, histogram in components.items():
            histogram.record(attribution[component])
    artifacts.add_histogram("latency_ms", latency)
    for component, histogram in components.items():
        artifacts.add_histogram(f"attr.{component}", histogram)
    artifacts.attribution = _reference_attribution_summary(result, phi)
    artifacts.metrics = _finite_metrics(
        {
            "count": len(result.records),
            "shed_count": result.shed_count,
            "duration_ms": result.duration_ms,
            "cpu_utilization": result.cpu_utilization(),
            "average_threads": result.average_threads(),
            "joules_per_query": result.joules_per_query(),
            **{
                f"p{q * 100:g}_ms".replace(".", "_"): latency.percentile(q)
                for q in QUANTILE_GRID
            },
        }
    )
    if result.energy is not None:
        artifacts.energy = result.energy.as_dict()
    return RunEntry(
        card=_card(name, config, seed, scheduler, None, "", False),
        artifacts=artifacts,
    )


class TestMatchesPerRecordReference:
    """Summaries built from field lists equal the per-record builders,
    float for float, on a run where every component accrues."""

    @pytest.fixture(scope="class")
    def faulted_run(self):
        result = simulate(
            _arrivals(400, rps=45.0, seed=3),
            _fm_scheduler(),
            cores=4,
            fault_plan=_fault_plan(),
        )
        for name in ATTRIBUTION_COMPONENTS:
            assert any(r.attribution()[name] > 0.0 for r in result.records), name
        return result

    @pytest.mark.parametrize("phi", [0.5, 0.9, 0.99, 0.999])
    def test_attribution_summary(self, faulted_run, phi):
        assert faulted_run.attribution_summary(phi) == (
            _reference_attribution_summary(faulted_run, phi)
        )

    @pytest.mark.parametrize("phi", [0.9, 0.99])
    def test_entry_serializes_byte_identically(self, faulted_run, phi):
        kwargs = dict(config={"policy": "FM", "faults": True}, seed=3, scheduler="FM")
        entry = entry_from_result("fm:faults", faulted_run, phi=phi, **kwargs)
        reference = _reference_entry("fm:faults", faulted_run, phi=phi, **kwargs)
        assert json.dumps(entry.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )


class TestEntryFromSummary:
    def test_streamed_runs_are_ledgerable(self):
        workload = lucene_mod.lucene_workload(
            profile_size=TEST_SCALE.profile_size
        )
        summary = stream_policy(
            FMScheduler(lucene_table(TEST_SCALE)),
            workload,
            rps=45.0,
            cores=lucene_mod.CORES,
            num_requests=TEST_SCALE.num_requests,
            quantum_ms=lucene_mod.QUANTUM_MS,
            seed=321,
            spin_fraction=lucene_mod.SPIN_FRACTION,
        )
        entry = entry_from_summary(
            "fm@45:stream",
            summary,
            config={"policy": "FM", "rps": 45.0},
            seed=321,
        )
        assert entry.artifacts.histogram("latency_ms").count == summary.count
        # No per-request attribution on the streamed path.
        assert "attr.queue_ms" not in entry.artifacts.histograms


class TestLedgerStore:
    def test_append_assigns_positional_ids(self, tmp_path, entry):
        ledger = RunLedger(tmp_path / "runs")
        assert ledger.append(entry) == "fm@45#0"
        assert ledger.append(entry) == "fm@45#1"
        assert len(ledger.entries()) == 2

    def test_get_by_id_position_and_name(self, tmp_path, entry):
        ledger = RunLedger(tmp_path / "runs")
        first = ledger.append(entry)
        second = ledger.append(entry)
        assert ledger.get(first).run_id == first
        assert ledger.get("0").run_id == first
        assert ledger.get("-1").run_id == second
        # A bare name resolves to the LATEST entry with that name.
        assert ledger.get("fm@45").run_id == second

    def test_get_round_trips_artifacts(self, tmp_path, entry):
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.append(entry)
        back = ledger.get(run_id)
        assert (
            back.artifacts.histogram("latency_ms").state()
            == entry.artifacts.histogram("latency_ms").state()
        )

    def test_index_written_alongside(self, tmp_path, entry):
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.append(entry)
        index = json.loads(ledger.index_path.read_text())
        assert index[run_id]["line"] == 0
        assert index[run_id]["seed"] == entry.card.seed

    def test_errors(self, tmp_path, entry):
        ledger = RunLedger(tmp_path / "runs")
        with pytest.raises(ConfigurationError):
            ledger.get("anything")  # empty ledger
        ledger.append(entry)
        with pytest.raises(ConfigurationError):
            ledger.get("no-such-run")
        with pytest.raises(ConfigurationError):
            ledger.get("7")  # out of range
        with pytest.raises(ConfigurationError):
            entry.artifacts.histogram("no-such-histogram")


class TestLiveHistograms:
    """``RunArtifacts`` hands back copies of the histograms it was given
    while their payloads stand, so ``diff_runs`` on entries built in
    this process must equal the diff of the same entries read back from
    a ledger, float for float."""

    def test_in_process_diff_equals_the_ledger_round_trip(
        self, tmp_path, run_and_workload
    ):
        entries = []
        for seed, (result, _) in ((321, run_and_workload), (322, _run(322))):
            entries.append(
                entry_from_result(
                    f"fm@45:{seed}",
                    result,
                    config={"policy": "FM", "rps": 45.0, "seed": seed},
                    seed=seed,
                    scheduler="FM",
                )
            )
        ledger = RunLedger(tmp_path / "runs")
        stored = [ledger.get(ledger.append(entry)) for entry in entries]
        assert repr(diff_runs(*entries)) == repr(diff_runs(*stored))
        assert repr(diff_runs(entries[0], stored[0])) == repr(diff_runs(*stored[:1] * 2))
        for live, back in zip(entries, stored):
            assert live.artifacts == back.artifacts
            for name in live.artifacts.histograms:
                ours, theirs = live.artifacts.histogram(name), back.artifacts.histogram(name)
                assert ours.state() == theirs.state()
                assert ours.bucket_points() == theirs.bucket_points()
                replicates = [
                    bootstrap_quantiles(h, QUANTILE_GRID, 64, np.random.default_rng(9))
                    for h in (ours, theirs)
                ]
                assert np.array_equal(*replicates)

    def test_each_read_is_a_fresh_copy(self):
        artifacts = RunArtifacts()
        given = LogHistogram()
        given.record_many([1.0, 2.0, 4.0])
        artifacts.add_histogram("latency_ms", given)
        given.record(100.0)
        first = artifacts.histogram("latency_ms")
        first.record(50.0)
        assert artifacts.histogram("latency_ms").count == 3
        assert RunArtifacts.from_dict(artifacts.to_dict()) == artifacts

    def test_a_replaced_payload_is_honoured(self):
        artifacts = RunArtifacts()
        first, second = LogHistogram(), LogHistogram()
        first.record_many([1.0, 2.0])
        second.record_many([5.0, 7.0, 9.0])
        artifacts.add_histogram("latency_ms", first)
        assert artifacts.histogram("latency_ms").state() == first.state()
        artifacts.histograms["latency_ms"] = second.dump_state()
        assert artifacts.histogram("latency_ms").state() == second.state()
