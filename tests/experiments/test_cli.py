"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.experiments.figures import ALL_EXPERIMENTS


class TestParser:
    def test_accepts_every_experiment(self):
        parser = build_parser()
        for name in ALL_EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_every_experiment_accepts_trace_flag(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name, "--trace", "out.json"])
            assert args.experiment == name
            assert args.trace == "out.json"

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
        assert "--trace" in capsys.readouterr().out

    def test_accepts_all_keyword(self):
        args = build_parser().parse_args(["all", "--scale", "tiny"])
        assert args.experiment == "all"
        assert args.scale == "tiny"

    def test_accepts_robustness_experiment(self):
        args = build_parser().parse_args(["robustness"])
        assert args.experiment == "robustness"

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--scale", "huge"])


class TestMain:
    def test_runs_fig5(self, capsys):
        assert main(["fig5", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "interval table" in out

    def test_runs_thm1(self, capsys):
        assert main(["thm1", "--scale", "tiny"]) == 0
        assert "few-to-many" in capsys.readouterr().out

    def test_runs_telemetry_experiment(self, capsys):
        assert main(["telemetry", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out

    def test_telemetry_note_reports_panel_one_ratio(self):
        from repro.experiments.config import TINY
        from repro.experiments.telemetry import experiment_telemetry

        result = experiment_telemetry(TINY)
        off, on = result.tables[0].rows
        ratio = f"off/on wall-time ratio is {off[1] / on[1]:.3f}"
        assert any(ratio in note for note in result.notes)

    def test_trace_writes_chrome_json_with_layer_spans(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["telemetry", "--scale", "tiny", "--trace", str(trace_path)]) == 0
        assert "spans" in capsys.readouterr().out
        document = json.loads(trace_path.read_text())
        events = document["traceEvents"]
        tracks = {
            event["args"]["name"]
            for event in events
            if event.get("ph") == "M" and event["name"] == "process_name"
        }
        # the acceptance criterion: sim, search, AND cluster spans in
        # one CLI-produced trace file
        assert {"sim", "search", "cluster"} <= tracks
        assert any(event.get("ph") == "X" for event in events)
        assert document["otherData"]["metrics"]["counters"]

    def test_trace_flag_on_plain_experiment(self, tmp_path):
        trace_path = tmp_path / "fig5.json"
        assert main(["fig5", "--scale", "tiny", "--trace", str(trace_path)]) == 0
        json.loads(trace_path.read_text())  # valid JSON even if few spans

    def test_gz_trace_is_compressed_and_analyzable(self, tmp_path, capsys):
        trace_path = tmp_path / "run.json.gz"
        assert main(["telemetry", "--scale", "tiny", "--trace", str(trace_path)]) == 0
        assert trace_path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        capsys.readouterr()
        assert main(["analyze", str(trace_path)]) == 0
        assert "sim" in capsys.readouterr().out


class TestDiffPlane:
    """The `repro diff` dispatch and the `--ledger` flag (DESIGN.md §15)."""

    def test_ledger_flag_persists_offered_entries(self, tmp_path, capsys):
        from repro.observe.ledger import RunLedger

        runs = tmp_path / "runs"
        assert (
            main(["tail-attribution", "--scale", "tiny", "--ledger", str(runs)])
            == 0
        )
        out = capsys.readouterr().out
        assert "[ledger:" in out
        entries = RunLedger(runs).entries()
        # One entry per (policy, load point): 3 policies x 3 loads.
        assert len(entries) == 9
        assert all(e.run_id for e in entries)

    def test_diff_subcommand_end_to_end(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert (
            main(["run-diff", "--scale", "tiny", "--ledger", str(runs)]) == 0
        )
        capsys.readouterr()
        assert main(["diff", "FM@45", "FIX-3@45", "--runs", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "repro diff" in out
        assert "verdict:" in out
        assert main(["diff", "FM@45", "FM@45", "--runs", str(runs), "--json"]) == 0
        self_diff = json.loads(capsys.readouterr().out)
        assert self_diff["identical"] is True
        assert self_diff["null"] is True
        deltas = [q["delta_ms"] for q in self_diff["quantiles"]]
        assert deltas == [0.0] * len(deltas)
        assert main(["diff", "FM@45", "FIX-3@45", "--runs", str(runs), "--json"]) == 0
        versus = json.loads(capsys.readouterr().out)
        assert versus["identical"] is False
        assert versus["quantiles"]

    def test_diff_subcommand_bad_ref_exits_2(self, tmp_path, capsys):
        assert main(["diff", "a", "b", "--runs", str(tmp_path / "none")]) == 2
        assert "repro diff:" in capsys.readouterr().err

    def test_ledger_entries_identical_across_workers(self, tmp_path):
        from repro.observe.ledger import RunLedger

        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        assert main(["run-diff", "--scale", "tiny", "--ledger", str(serial)]) == 0
        assert (
            main(
                ["run-diff", "--scale", "tiny", "--workers", "2",
                 "--ledger", str(pooled)]
            )
            == 0
        )
        a = [e.to_dict() for e in RunLedger(serial).entries()]
        b = [e.to_dict() for e in RunLedger(pooled).entries()]
        assert a == b
