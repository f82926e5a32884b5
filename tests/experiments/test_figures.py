"""Smoke tests: every paper experiment runs end-to-end at TINY scale
and produces the expected panels, plus spot checks of the headline
orderings that must hold even at small scale."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.config import TINY, Scale, default_scale
from repro.experiments.ablations import ABLATIONS
from repro.experiments.extensions import EXTENSIONS
from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    fig1_bing_workload,
    fig2_lucene_workload,
    fig5_example_table,
    theorem1_check,
)
from repro.experiments.robustness import ROBUSTNESS
from repro.errors import ConfigurationError

#: Where ``benchmarks/bench_figures.py`` writes each experiment's
#: render, which EXPERIMENTS.md cites.
RENDERS = Path(__file__).resolve().parents[2] / "benchmarks" / "output"


class TestScaleConfig:
    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert default_scale().name == "tiny"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ConfigurationError):
            default_scale()

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            Scale("bad", num_requests=1, profile_size=10, num_bins=None, step_ms=5.0)


class TestCommittedRenders:
    def test_renders_are_exactly_the_registered_experiments(self):
        renders = {path.stem: path for path in RENDERS.glob("*.txt")}
        figures = {**ALL_EXPERIMENTS, **ABLATIONS, **EXTENSIONS, **ROBUSTNESS}
        assert sorted(renders) == sorted(figures)
        for figure_id, path in renders.items():
            assert path.read_text().startswith(f"=== {figure_id}: ")


class TestWorkloadFigures:
    def test_fig1_panels(self):
        result = fig1_bing_workload(TINY)
        captions = [t.caption for t in result.tables]
        assert any("histogram" in c for c in captions)
        assert any("speedup" in c for c in captions)

    def test_fig2_panels(self):
        result = fig2_lucene_workload(TINY)
        assert len(result.tables) == 3
        assert result.notes


class TestFig5:
    def test_structure_matches_paper(self):
        result = fig5_example_table()
        rows = result.tables[0].rows
        # Low load: immediate degree 3; capacity row is e1.
        assert "d3" in rows[0][1]
        assert rows[-1][1].startswith("e1")


class TestTheorem1:
    def test_few_to_many_is_minimal(self):
        result = theorem1_check(TINY)
        rows = result.tables[0].rows
        fm_usage = rows[0][1]
        assert rows[0][0] == "few-to-many"
        assert all(fm_usage <= usage + 1e-9 for _, usage, _, _ in rows)
        # processing time identical for all orderings
        times = [t for _, _, t, _ in rows]
        assert max(times) - min(times) < 1e-6


@pytest.mark.slow
class TestAllExperimentsSmoke:
    @pytest.mark.parametrize(
        "name", sorted({**ALL_EXPERIMENTS, **ABLATIONS, **EXTENSIONS})
    )
    def test_runs_and_renders(self, name):
        experiments = {**ALL_EXPERIMENTS, **ABLATIONS, **EXTENSIONS}
        result = experiments[name](TINY)
        text = result.render()
        assert result.figure_id
        assert result.tables
        assert len(text) > 50
