"""Every paper figure and table, ablation, extension and the robustness
study, one case per experiment id.

Each case regenerates its experiment at ``REPRO_SCALE`` (default
quick) under pytest-benchmark (one round: these are experiments, not
microbenchmarks), prints the rendered tables and notes, and writes the
tables to ``benchmarks/output/<id>.txt`` for EXPERIMENTS.md::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -q
    PYTHONPATH=src REPRO_SCALE=tiny python -m pytest benchmarks/bench_figures.py -k fig8

These are renders, not timings: perfbench (``BENCHMARK.json``) times
the engine, and tier-1 holds the correctness checks.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.ablations import ABLATIONS
from repro.experiments.extensions import EXTENSIONS
from repro.experiments.figures import ALL_EXPERIMENTS
from repro.experiments.robustness import ROBUSTNESS

OUTPUT_DIR = Path(__file__).parent / "output"
FIGURES = {**ALL_EXPERIMENTS, **ABLATIONS, **EXTENSIONS, **ROBUSTNESS}


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_figure(benchmark, scale, figure_id):
    result = benchmark.pedantic(
        FIGURES[figure_id], args=(scale,), rounds=1, iterations=1
    )
    benchmark.extra_info["scale"] = scale.name
    benchmark.extra_info["figure"] = result.figure_id
    for note in result.notes:
        print(f"note: {note}")
    text = result.render()
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{result.figure_id}.txt").write_text(text + "\n")
    print()
    print(text)
    assert result.figure_id == figure_id
    if figure_id == "robustness":
        # Stragglers x hedging, deadlines, and shedding past saturation.
        assert len(result.tables) == 3
    else:
        assert result.tables
