"""The live-tail experiment: deterministic early detection.

Pins the acceptance criterion: the overload-flip onset is flagged by
the changepoint detector at a stable window index, strictly before the
SLO monitor's breach floor — in-process, across repeat runs, and
across worker processes.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.config import TINY
from repro.experiments.live_tail import (
    LIVE_TAIL,
    experiment_live_tail,
    onset_signature,
    run_live_tail,
)


def _signature_in_subprocess(_: int) -> tuple:
    """Module-level so worker processes can import it by reference."""
    plane, _result = run_live_tail(TINY)
    return onset_signature(plane)


@pytest.fixture(scope="module")
def tiny_run():
    return run_live_tail(TINY)


class TestOnset:
    def test_detector_flags_before_breach_floor(self, tiny_run):
        plane, _ = tiny_run
        fault_window, flagged, breach_floor = onset_signature(plane)
        assert fault_window is not None
        assert flagged is not None
        assert breach_floor is not None
        assert fault_window <= flagged < breach_floor

    def test_faults_actually_fired(self, tiny_run):
        _, result = tiny_run
        stats = result.fault_stats
        assert stats.faults_fired > 0
        assert stats.core_faults_applied >= 1

    def test_signature_is_stable_in_process(self, tiny_run):
        plane, _ = tiny_run
        again, _ = run_live_tail(TINY)
        assert onset_signature(again) == onset_signature(plane)

    def test_signature_is_stable_across_processes(self, tiny_run):
        plane, _ = tiny_run
        want = onset_signature(plane)
        with ProcessPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(_signature_in_subprocess, range(2)))
        assert got == [want, want]


class TestFigure:
    def test_figure_reports_the_lead(self, tiny_run):
        result = experiment_live_tail(TINY)
        assert result.figure_id == "live-tail"
        notes = "\n".join(result.notes)
        assert "changepoint" in notes
        assert "before the SLO breach floor" in notes
        (table,) = result.tables
        assert table.columns[0] == "window"
        assert any(row[5] == "yes" for row in table.rows)  # a breached window
        assert any("fault" in row[6] for row in table.rows)

    def test_traced_run_replays_through_top(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "live-tail-trace.json"
        assert main(["live-tail", "--scale", "tiny", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["top", "--replay", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(window["count"] for window in payload["windows"]) > 0
        assert "fault" in {event["kind"] for event in payload["events"]}

    def test_registered_in_cli(self):
        from repro.cli import EXPERIMENTS

        assert "live-tail" in LIVE_TAIL
        assert EXPERIMENTS["live-tail"] is experiment_live_tail
