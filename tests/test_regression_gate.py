"""Coverage map for ``benchmarks/check_regression.py``, the bench gate.

``ASSERTIONS`` is written out by hand, not read from the checker: it is
every assertion the per-section gate scripts made before one table-driven
checker replaced them, with the bound and the edge each one had.  For
each, a copy of the committed ``BENCH_<section>.json`` must pass with
the value moved exactly onto the bound, fail (exit 1) with the value one
float past it, and be refused (exit 2) with the key gone.  The CI
workflow is checked against the same files: every script and test path
it names exists, and the ``bench-gate`` matrix runs every gated section.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from collections import Counter
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _load_checker():
    path = REPO_ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()

_ENGINE = "check_engine_regression.py"
_REPLICATION = "check_replication_regression.py"
_HETERO = "check_hetero_regression.py"
_OBSERVE = "check_observe_regression.py"
_DIFF = "check_diff_regression.py"

#: (section, dotted path, comparison, bound, script that made it).
#: ``floor`` means fresh >= committed x (1 - bound); ``>=`` and ``<=``
#: pass on the bound itself.
ASSERTIONS = [
    ("engine", "single_process.events_per_s", "floor", 0.25, _ENGINE),
    ("engine", "single_process.speedup_vs_reference", ">=", 1.5, _ENGINE),
    ("engine", "single_process.bit_identical_to_reference", "true", None, _ENGINE),
    ("engine", "mega.cell.vector_speedup", ">=", 3.0, _ENGINE),
    ("engine", "mega.cell.max_abs_latency_diff_ms", "<=", 1e-9, _ENGINE),
    ("engine", "mega.cell.default_speedup", ">=", 3.0, _ENGINE),
    ("engine", "mega.cell.default_max_abs_latency_diff_ms", "<=", 1e-9, _ENGINE),
    ("engine", "mega.stream.peak_traced_mb", "<=", 64.0, _ENGINE),
    ("engine", "mega.sharded.workers_identical", "true", None, _ENGINE),
    ("replication", "phase_diagram.points.*.adaptive_vs_best_static", "<=", 1.10,
     _REPLICATION),
    ("replication", "flip.deterministic_replay", "true", None, _REPLICATION),
    ("replication", "flip.brownouts", ">=", 1, _REPLICATION),
    ("replication", "observe_path.observations_per_s", "floor", 0.30, _REPLICATION),
    ("hetero", "bit_identity.bit_identical_to_baseline", "true", None, _HETERO),
    ("hetero", "bit_identity.energy_accounted", "true", None, _HETERO),
    ("hetero", "frontier.dominated_points", ">=", 1, _HETERO),
    ("hetero", "determinism.results_identical", "true", None, _HETERO),
    ("hetero", "engine_throughput.events_per_s", "floor", 0.30, _HETERO),
    ("observe", "live_tail.flag_leads_breach", "true", None, _OBSERVE),
    ("observe", "live_tail.replay_matches_analyze", "true", None, _OBSERVE),
    ("observe", "live_plane.overhead_enabled_pct", "<=", 40.0, _OBSERVE),
    ("observe", "analyzer.spans_per_s", "floor", 0.30, _OBSERVE),
    ("observe", "live_plane.off_events_per_s", "floor", 0.30, _OBSERVE),
    ("diff", "null_test.self_identical", "true", None, _DIFF),
    ("diff", "null_test.self_null", "true", None, _DIFF),
    ("diff", "null_test.cross_identical", "false", None, _DIFF),
    ("diff", "versus.p99_significant", "true", None, _DIFF),
    ("diff", "versus.top_phase", "==", "contention_ms", _DIFF),
    ("diff", "determinism.repeat_identical", "true", None, _DIFF),
    ("diff", "determinism.workers_identical", "true", None, _DIFF),
    ("diff", "determinism.workers_diff_identical", "true", None, _DIFF),
    ("diff", "throughput.diffs_per_s", "floor", 0.40, _DIFF),
    ("diff", "throughput.ledger_roundtrips_per_s", "floor", 0.40, _DIFF),
]

SECTIONS = sorted({row[0] for row in ASSERTIONS})
_REMOVED = object()


def _committed(section: str) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{section}.json").read_text())


def _parents(document: dict, path: str) -> list[dict]:
    """The dicts holding ``path``'s last key (every list item at ``*``)."""
    nodes = [document]
    for key in path.split(".")[:-1]:
        nodes = [item for node in nodes for item in (node if key == "*" else [node[key]])]
    return nodes


def _edges(section: str, path: str, comparison: str, bound) -> tuple:
    """(the value on the bound, the value just past it)."""
    if comparison == "floor":
        (parent,) = _parents(_committed(section), path)
        bound = float(parent[path.rsplit(".", 1)[1]]) * (1.0 - bound)
        comparison = ">="
    if comparison in ("true", "false"):
        return comparison == "true", comparison != "true"
    if comparison == "==":
        return bound, bound + "-"
    return bound, math.nextafter(bound, -math.inf if comparison == ">=" else math.inf)


def _exit_code(tmp_path: Path, report: dict) -> int:
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(report))
    return checker.main([str(path)])


@pytest.mark.parametrize(
    "section, path, comparison, bound, script",
    ASSERTIONS,
    ids=[f"{row[0]}:{row[1]}" for row in ASSERTIONS],
)
def test_each_assertion_holds_its_bound_and_edge(
    tmp_path, capsys, section, path, comparison, bound, script
):
    key = path.rsplit(".", 1)[1]
    on_bound, past_bound = _edges(section, path, comparison, bound)
    for value, code in ((on_bound, 0), (past_bound, 1), (_REMOVED, 2)):
        report = _committed(section)
        for parent in _parents(report, path):
            if value is _REMOVED:
                del parent[key]
            else:
                parent[key] = value
        assert _exit_code(tmp_path, report) == code, (script, value)
    capsys.readouterr()


@pytest.mark.parametrize("section", SECTIONS)
def test_committed_baseline_passes_unchanged(tmp_path, capsys, section):
    assert _exit_code(tmp_path, _committed(section)) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_checker_table_is_exactly_the_mapped_assertions():
    rows = Counter(
        (section, path, op, bound)
        for section, checks in checker.CHECKS.items()
        for path, op, bound in checks
    )
    assert rows == Counter(row[:4] for row in ASSERTIONS)
    assert sum(rows.values()) == 33


@pytest.mark.parametrize("section", ["telemetry", "no-such-section", None])
def test_sections_without_checks_are_refused(tmp_path, capsys, section):
    report = _committed("telemetry")
    report["benchmark"] = section
    assert _exit_code(tmp_path, report) == 2
    assert "no checks for benchmark" in capsys.readouterr().err


def test_unreadable_report_is_refused(tmp_path, capsys):
    assert checker.main([str(tmp_path / "missing.json")]) == 2
    (tmp_path / "bad.json").write_text("{")
    assert checker.main([str(tmp_path / "bad.json")]) == 2


def test_workflow_names_only_existing_scripts_and_tests():
    text = CI_WORKFLOW.read_text()
    paths = set(re.findall(r"\b(?:benchmarks|tests)/[\w/.-]*\w", text))
    assert {"benchmarks/check_regression.py", "benchmarks/run_all.py"} <= paths
    assert [p for p in sorted(paths) if not (REPO_ROOT / p).exists()] == []


def test_bench_gate_matrix_runs_every_gated_section():
    text = CI_WORKFLOW.read_text()
    job = text[text.index("\n  bench-gate:"):]
    (listed,) = re.findall(r"section: \[([^\]]*)\]", job)
    assert sorted(s.strip() for s in listed.split(",")) == sorted(checker.CHECKS)
