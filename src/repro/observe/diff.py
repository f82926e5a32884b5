"""``repro diff`` — statistically rigorous comparison of two runs.

Every headline claim in this repo is *differential* ("FM reduces the
99th percentile by 30%"), and the replication phase diagram is
non-monotone exactly where naive point comparisons mislead: a 5 ms p99
gap between two 500-request runs is usually seed noise, not signal.
This module turns two ledger entries (:mod:`repro.observe.ledger`)
into a :class:`RunDiff` whose every delta carries a confidence
interval and a significance verdict:

* **Quantile deltas** (p50/p95/p99/p99.9 by default) with CIs from
  *bucket-level bootstrap resampling* of the stored
  :class:`~repro.telemetry.histogram.LogHistogram` state: each
  replicate draws a multinomial over the histogram's bucket points
  (:meth:`LogHistogram.bucket_points`) with a seeded RNG, so the
  bootstrap distribution is a deterministic function of (histogram
  state, seed).  A delta is significant only when the CI excludes zero
  **and** the point delta clears the documented relative-error floor
  ``eps_a * |q_a| + eps_b * |q_b|`` — the histogram's own resolution
  bound, below which any "difference" is bucketing noise.
* **Per-phase attribution deltas** (queue / service / contention /
  boost-wait / stall, plus per-pool energy) with bootstrap CIs over
  the per-component histograms when both entries stored them.
* **Explanation ranking**: phases ordered by their contribution to the
  p99 delta — the tail-mean delta of each component, signed toward the
  p99 change — rendered as "queue explains 78% of the +120 ms p99
  regression".
* **Event-timeline diffs**: ``observe.event`` records aligned by
  (kind, salient detail) multisets — mode flips, faults, SLO onsets
  that exist in A but not B.

**Exact-null short circuit.**  When both entries' histograms restore
to bit-identical :meth:`LogHistogram.state`, every delta is exactly
zero and reported non-significant without resampling — a self-diff of
two identical-config identical-seed runs is a *certain* null, not a
95%-confident one (and the CI job asserts exactly that).

Determinism: the bootstrap RNG is seeded per diff, resampling order is
fixed by sorted bucket points, and nothing reads clocks — the same two
entries diff to byte-identical reports on any machine and under any
``--workers`` count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.report import render_table
from repro.observe.ledger import RunEntry, RunLedger
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.telemetry.histogram import LogHistogram

__all__ = [
    "QuantileDelta",
    "PhaseDelta",
    "EventDelta",
    "RunDiff",
    "bootstrap_quantiles",
    "bootstrap_means",
    "diff_runs",
    "quantile_rows",
    "phase_rows",
    "QUANTILE_COLUMNS",
    "PHASE_COLUMNS",
    "main",
]

#: Default quantile grid (matches the paper's reporting points).
DEFAULT_PHIS = (0.50, 0.95, 0.99, 0.999)
#: Bootstrap replicates: enough for stable 95% interval endpoints on
#: the bucketed distributions, cheap enough to run in gates.
DEFAULT_RESAMPLES = 200
#: The diff engine's own RNG seed (per-diff, not global state).
DEFAULT_SEED = 2718


# ----------------------------------------------------------------------
# Bootstrap primitives
# ----------------------------------------------------------------------
def _points_arrays(histogram: LogHistogram) -> tuple[np.ndarray, np.ndarray]:
    points = histogram.bucket_points()
    if not points:
        raise ConfigurationError("cannot bootstrap an empty histogram")
    reps = np.array([value for value, _ in points], dtype=float)
    counts = np.array([count for _, count in points], dtype=np.int64)
    return reps, counts


def bootstrap_quantiles(
    histogram: LogHistogram,
    phis: Sequence[float],
    resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(resamples, len(phis))`` bootstrap quantile replicates.

    Each replicate redraws the histogram's ``count`` observations as a
    multinomial over its bucket points and reads the order-statistic
    rank ``ceil(phi * n)`` — the same convention as
    :meth:`LogHistogram.percentile`, so replicate values live on the
    exact representative grid the point estimate does.

    Every replicate's ranks are read in one ``searchsorted``: a row's
    running counts lie in ``[0, n]``, so shifting row ``r`` and its
    ranks by ``r * (n + 1)`` lays the rows end to end as one sorted
    array, and a rank's index there, less ``r`` rows of buckets, is
    that row's own ``searchsorted(..., side="left")`` index.
    """
    reps, counts = _points_arrays(histogram)
    n = int(counts.sum())
    draws = rng.multinomial(n, counts / n, size=resamples)
    cumulative = np.cumsum(draws, axis=1)
    ranks = np.maximum(1, np.ceil(np.asarray(phis, dtype=float) * n)).astype(np.int64)
    rows = np.arange(resamples, dtype=np.int64)[:, None]
    shift = rows * (n + 1)
    indexes = np.searchsorted(
        (cumulative + shift).ravel(), ranks + shift, side="left"
    ) - rows * len(reps)
    return reps[np.minimum(indexes, len(reps) - 1)]


def bootstrap_means(
    histogram: LogHistogram, resamples: int, rng: np.random.Generator
) -> np.ndarray:
    """``(resamples,)`` bootstrap replicates of the bucketed mean."""
    reps, counts = _points_arrays(histogram)
    n = int(counts.sum())
    draws = rng.multinomial(n, counts / n, size=resamples)
    return draws @ reps / n


def _interval(deltas: np.ndarray, confidence: float) -> tuple[float, float]:
    """Percentile CI endpoints of a bootstrap delta distribution."""
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(deltas, [tail, 100.0 - tail])
    return float(lo), float(hi)


# ----------------------------------------------------------------------
# Delta records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuantileDelta:
    """One quantile's A-vs-B comparison."""

    phi: float
    a_ms: float
    b_ms: float
    ci_lo: float
    ci_hi: float
    #: The histogram-resolution floor: deltas inside it are bucketing
    #: noise regardless of what the bootstrap says.
    floor_ms: float
    significant: bool

    @property
    def delta_ms(self) -> float:
        return self.a_ms - self.b_ms

    def to_dict(self) -> dict:
        return {
            "phi": self.phi,
            "a_ms": self.a_ms,
            "b_ms": self.b_ms,
            "delta_ms": self.delta_ms,
            "ci_lo_ms": self.ci_lo,
            "ci_hi_ms": self.ci_hi,
            "floor_ms": self.floor_ms,
            "significant": self.significant,
        }


@dataclass(frozen=True)
class PhaseDelta:
    """One attribution phase's A-vs-B comparison (per-request means)."""

    component: str
    a_ms: float
    b_ms: float
    ci_lo: float
    ci_hi: float
    significant: bool
    #: Fraction of the p99 delta this phase's tail-mean delta explains
    #: (0.0 when the p99 delta is ~zero); the explanation ranking sorts
    #: on this.
    share_of_p99_delta: float = 0.0

    @property
    def delta_ms(self) -> float:
        return self.a_ms - self.b_ms

    def to_dict(self) -> dict:
        return {
            "component": self.component,
            "a_ms": self.a_ms,
            "b_ms": self.b_ms,
            "delta_ms": self.delta_ms,
            "ci_lo_ms": self.ci_lo,
            "ci_hi_ms": self.ci_hi,
            "significant": self.significant,
            "share_of_p99_delta": self.share_of_p99_delta,
        }


@dataclass(frozen=True)
class EventDelta:
    """One event signature's count in each timeline."""

    kind: str
    signature: str
    count_a: int
    count_b: int
    first_window_a: int = -1
    first_window_b: int = -1

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "signature": self.signature,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "first_window_a": self.first_window_a,
            "first_window_b": self.first_window_b,
        }


@dataclass
class RunDiff:
    """The full A-vs-B comparison report."""

    run_a: str
    run_b: str
    histogram_name: str
    count_a: int
    count_b: int
    identical: bool
    quantiles: list[QuantileDelta] = field(default_factory=list)
    #: Attribution phases in explanation-ranking order (largest
    #: contribution to the p99 delta first).
    phases: list[PhaseDelta] = field(default_factory=list)
    #: Per-pool energy deltas in joules (deterministic accounting — no
    #: CI; empty unless both runs carried an energy report).
    energy_j: dict[str, float] = field(default_factory=dict)
    #: Event signatures whose counts differ between the timelines.
    events: list[EventDelta] = field(default_factory=list)
    #: Scalar metric deltas over keys both entries recorded.
    metrics: dict[str, dict] = field(default_factory=dict)
    confidence: float = 0.95
    resamples: int = DEFAULT_RESAMPLES
    seed: int = DEFAULT_SEED

    # -- verdict views -------------------------------------------------
    def significant_quantiles(self) -> list[QuantileDelta]:
        return [q for q in self.quantiles if q.significant]

    def significant_phases(self) -> list[PhaseDelta]:
        return [p for p in self.phases if p.significant]

    def is_null(self) -> bool:
        """True when nothing significant separates the runs."""
        return not self.significant_quantiles() and not self.significant_phases()

    def quantile(self, phi: float) -> QuantileDelta:
        for entry in self.quantiles:
            if entry.phi == phi:
                return entry
        raise ConfigurationError(f"phi {phi} not in diff grid")

    def explanation(self) -> str:
        """One-line explanation of the p99 delta, led by the
        top-ranked phase."""
        try:
            p99 = self.quantile(0.99)
        except ConfigurationError:
            return "no p99 in the diff grid"
        if not p99.significant:
            return (
                f"p99 delta {p99.delta_ms:+.3g} ms is not significant "
                f"(CI [{p99.ci_lo:+.3g}, {p99.ci_hi:+.3g}] ms, "
                f"floor {p99.floor_ms:.3g} ms) — the runs are "
                "statistically indistinguishable at the tail"
            )
        if not self.phases:
            return (
                f"p99 delta {p99.delta_ms:+.3g} ms is significant but "
                "neither run carries attribution phases to explain it"
            )
        top = self.phases[0]
        return (
            f"{top.component.removesuffix('_ms')} explains "
            f"{top.share_of_p99_delta:.0%} of the {p99.delta_ms:+.3g} ms "
            f"p99 delta ({top.delta_ms:+.3g} ms of tail-mean shift)"
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "histogram": self.histogram_name,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "identical": self.identical,
            "confidence": self.confidence,
            "resamples": self.resamples,
            "seed": self.seed,
            "null": self.is_null(),
            "explanation": self.explanation(),
            "quantiles": [q.to_dict() for q in self.quantiles],
            "phases": [p.to_dict() for p in self.phases],
            "energy_j": dict(sorted(self.energy_j.items())),
            "events": [e.to_dict() for e in self.events],
            "metrics": {k: dict(v) for k, v in sorted(self.metrics.items())},
        }

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        parts = [
            f"=== repro diff: {self.run_a or 'A'} vs {self.run_b or 'B'} "
            f"({self.histogram_name}; n={self.count_a} vs {self.count_b}; "
            f"{self.confidence:.0%} CIs from {self.resamples} bucket "
            f"bootstraps, seed {self.seed}) ==="
        ]
        if self.identical:
            parts.append(
                "histogram state is bit-identical: every delta is exactly "
                "zero (no resampling needed)"
            )
        rows = [
            [
                f"p{q.phi * 100:g}",
                q.a_ms,
                q.b_ms,
                f"{q.delta_ms:+.4g}",
                f"[{q.ci_lo:+.4g}, {q.ci_hi:+.4g}]",
                q.floor_ms,
                "YES" if q.significant else "no",
            ]
            for q in self.quantiles
        ]
        parts.append("")
        parts.append(
            render_table(
                ["quantile", "A (ms)", "B (ms)", "delta", "95% CI (ms)",
                 "floor", "significant"],
                rows,
            )
        )
        if self.phases:
            rows = [
                [
                    p.component.removesuffix("_ms"),
                    p.a_ms,
                    p.b_ms,
                    f"{p.delta_ms:+.4g}",
                    f"[{p.ci_lo:+.4g}, {p.ci_hi:+.4g}]",
                    f"{p.share_of_p99_delta:.0%}",
                    "YES" if p.significant else "no",
                ]
                for p in self.phases
            ]
            parts.append("")
            parts.append(
                render_table(
                    ["phase (tail mean)", "A (ms)", "B (ms)", "delta",
                     "95% CI (ms)", "of p99 delta", "significant"],
                    rows,
                )
            )
        if self.energy_j:
            parts.append("")
            parts.append(
                "energy deltas (J): "
                + ", ".join(
                    f"{pool}={delta:+.4g}"
                    for pool, delta in sorted(self.energy_j.items())
                )
            )
        if self.events:
            rows = [
                [e.kind, e.signature or "-", e.count_a, e.count_b,
                 e.first_window_a if e.first_window_a >= 0 else "-",
                 e.first_window_b if e.first_window_b >= 0 else "-"]
                for e in self.events
            ]
            parts.append("")
            parts.append(
                render_table(
                    ["event", "signature", "A", "B", "first win A",
                     "first win B"],
                    rows,
                )
            )
        if self.metrics:
            rows = [
                [name, cell["a"], cell["b"], f"{cell['delta']:+.4g}"]
                for name, cell in sorted(self.metrics.items())
            ]
            parts.append("")
            parts.append(render_table(["metric", "A", "B", "delta"], rows))
        parts.append("")
        parts.append(f"explanation: {self.explanation()}")
        parts.append(
            "verdict: "
            + (
                "NULL — no significant deltas"
                if self.is_null()
                else f"{len(self.significant_quantiles())} significant "
                f"quantile delta(s), {len(self.significant_phases())} "
                "significant phase delta(s)"
            )
        )
        return "\n".join(parts)


# ----------------------------------------------------------------------
# Table adapters (for experiments embedding diff panels in a
# FigureResult rather than printing the full render())
# ----------------------------------------------------------------------
QUANTILE_COLUMNS = [
    "quantile",
    "A (ms)",
    "B (ms)",
    "delta (ms)",
    "95% CI (ms)",
    "floor (ms)",
    "significant",
]
PHASE_COLUMNS = [
    "phase (tail mean)",
    "A (ms)",
    "B (ms)",
    "delta (ms)",
    "95% CI (ms)",
    "of p99 delta",
    "significant",
]


def quantile_rows(diff: "RunDiff") -> list[list[object]]:
    """``diff.quantiles`` as :data:`QUANTILE_COLUMNS` table rows."""
    return [
        [
            f"p{q.phi * 100:g}",
            q.a_ms,
            q.b_ms,
            f"{q.delta_ms:+.4g}",
            f"[{q.ci_lo:+.4g}, {q.ci_hi:+.4g}]",
            q.floor_ms,
            "YES" if q.significant else "no",
        ]
        for q in diff.quantiles
    ]


def phase_rows(diff: "RunDiff") -> list[list[object]]:
    """``diff.phases`` as :data:`PHASE_COLUMNS` table rows."""
    return [
        [
            p.component.removesuffix("_ms"),
            p.a_ms,
            p.b_ms,
            f"{p.delta_ms:+.4g}",
            f"[{p.ci_lo:+.4g}, {p.ci_hi:+.4g}]",
            f"{p.share_of_p99_delta:.0%}",
            "YES" if p.significant else "no",
        ]
        for p in diff.phases
    ]


# ----------------------------------------------------------------------
# The diff engine
# ----------------------------------------------------------------------
def _event_signature(event: dict) -> tuple[str, str]:
    detail = event.get("detail", {})
    salient = (
        detail.get("signal")
        or detail.get("to_mode")
        or detail.get("fault")
        or detail.get("reason")
        or ""
    )
    return str(event.get("kind", "unknown")), str(salient)


def _diff_events(a: list[dict], b: list[dict]) -> list[EventDelta]:
    keys: dict[tuple[str, str], dict] = {}
    for source, events in (("a", a), ("b", b)):
        for event in events:
            key = _event_signature(event)
            cell = keys.setdefault(
                key, {"a": 0, "b": 0, "first_a": -1, "first_b": -1}
            )
            cell[source] += 1
            first = f"first_{source}"
            if cell[first] < 0:
                cell[first] = int(event.get("window", -1))
    out = []
    for (kind, signature), cell in sorted(keys.items()):
        if cell["a"] != cell["b"]:
            out.append(
                EventDelta(
                    kind=kind,
                    signature=signature,
                    count_a=cell["a"],
                    count_b=cell["b"],
                    first_window_a=cell["first_a"],
                    first_window_b=cell["first_b"],
                )
            )
    return out


def _diff_scalar_metrics(a: dict, b: dict) -> dict[str, dict]:
    out = {}
    for name in sorted(set(a) & set(b)):
        va, vb = float(a[name]), float(b[name])
        if va != vb:
            out[name] = {"a": va, "b": vb, "delta": va - vb}
    return out


def _phase_deltas(
    entry_a: RunEntry,
    entry_b: RunEntry,
    p99_delta: float,
    resamples: int,
    confidence: float,
    rng: np.random.Generator,
) -> list[PhaseDelta]:
    """Attribution-phase deltas + the explanation ranking.

    Point estimates come from the stored *exact* tail attribution
    summaries; CIs from bootstrap means of the per-component
    histograms (overall, since the ledger stores marginals).  Phases
    sort by signed contribution to the p99 delta, largest first.
    """
    tail_a = entry_a.artifacts.attribution.get("tail", {})
    tail_b = entry_b.artifacts.attribution.get("tail", {})
    if not tail_a or not tail_b:
        return []
    deltas: list[PhaseDelta] = []
    total_shift = sum(
        abs(tail_a.get(c, 0.0) - tail_b.get(c, 0.0))
        for c in ATTRIBUTION_COMPONENTS
    )
    for component in ATTRIBUTION_COMPONENTS:
        a_ms = float(tail_a.get(component, 0.0))
        b_ms = float(tail_b.get(component, 0.0))
        delta = a_ms - b_ms
        name = f"attr.{component}"
        ci_lo = ci_hi = delta
        significant = False
        has_hists = (
            name in entry_a.artifacts.histograms
            and name in entry_b.artifacts.histograms
        )
        if has_hists:
            hist_a = entry_a.artifacts.histogram(name)
            hist_b = entry_b.artifacts.histogram(name)
            if hist_a.state() == hist_b.state():
                ci_lo = ci_hi = 0.0
                significant = False
            else:
                means_a = bootstrap_means(hist_a, resamples, rng)
                means_b = bootstrap_means(hist_b, resamples, rng)
                # Overall-mean bootstrap shifted to the tail-mean point
                # estimate: the marginal histograms carry the sampling
                # noise, the exact summary carries the location.
                spread = (means_a - means_a.mean()) - (means_b - means_b.mean())
                lo, hi = _interval(spread, confidence)
                ci_lo, ci_hi = delta + lo, delta + hi
                floor = hist_a.relative_error * abs(a_ms) + (
                    hist_b.relative_error * abs(b_ms)
                )
                significant = (
                    (ci_lo > 0.0 or ci_hi < 0.0) and abs(delta) > floor
                )
        share = 0.0
        if total_shift > 0.0 and p99_delta != 0.0:
            # Signed share: positive when this phase moves with the
            # p99 delta, negative when it offsets it.
            share = delta * math.copysign(1.0, p99_delta) / total_shift
        deltas.append(
            PhaseDelta(
                component=component,
                a_ms=a_ms,
                b_ms=b_ms,
                ci_lo=ci_lo,
                ci_hi=ci_hi,
                significant=significant,
                share_of_p99_delta=share,
            )
        )
    deltas.sort(key=lambda p: (-p.share_of_p99_delta, p.component))
    return deltas


def _energy_deltas(entry_a: RunEntry, entry_b: RunEntry) -> dict[str, float]:
    energy_a = entry_a.artifacts.energy
    energy_b = entry_b.artifacts.energy
    if not energy_a or not energy_b:
        return {}
    out = {"total": float(energy_a["total_j"]) - float(energy_b["total_j"])}
    pools_a = energy_a.get("pools", {})
    pools_b = energy_b.get("pools", {})
    for pool in sorted(set(pools_a) | set(pools_b)):
        out[pool] = float(pools_a.get(pool, {}).get("total_j", 0.0)) - float(
            pools_b.get(pool, {}).get("total_j", 0.0)
        )
    return out


def diff_runs(
    entry_a: RunEntry,
    entry_b: RunEntry,
    *,
    phis: Sequence[float] = DEFAULT_PHIS,
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = 0.95,
    seed: int = DEFAULT_SEED,
    histogram: str = "latency_ms",
) -> RunDiff:
    """Compare two ledger entries; see the module docstring for the
    methodology.  Deterministic for fixed inputs and ``seed``."""
    if resamples < 2:
        raise ConfigurationError(f"resamples must be >= 2: {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1): {confidence}")
    hist_a = entry_a.artifacts.histogram(histogram)
    hist_b = entry_b.artifacts.histogram(histogram)
    identical = hist_a.state() == hist_b.state()
    rng = np.random.default_rng(seed)

    quantiles: list[QuantileDelta] = []
    if identical:
        for phi in phis:
            value = hist_a.percentile(phi)
            quantiles.append(
                QuantileDelta(
                    phi=phi,
                    a_ms=value,
                    b_ms=value,
                    ci_lo=0.0,
                    ci_hi=0.0,
                    floor_ms=2.0 * hist_a.relative_error * abs(value),
                    significant=False,
                )
            )
    else:
        reps_a = bootstrap_quantiles(hist_a, phis, resamples, rng)
        reps_b = bootstrap_quantiles(hist_b, phis, resamples, rng)
        for column, phi in enumerate(phis):
            a_ms = hist_a.percentile(phi)
            b_ms = hist_b.percentile(phi)
            delta = a_ms - b_ms
            lo, hi = _interval(reps_a[:, column] - reps_b[:, column], confidence)
            floor = hist_a.relative_error * abs(a_ms) + (
                hist_b.relative_error * abs(b_ms)
            )
            significant = (lo > 0.0 or hi < 0.0) and abs(delta) > floor
            quantiles.append(
                QuantileDelta(
                    phi=phi,
                    a_ms=a_ms,
                    b_ms=b_ms,
                    ci_lo=lo,
                    ci_hi=hi,
                    floor_ms=floor,
                    significant=significant,
                )
            )

    try:
        p99_delta = next(q.delta_ms for q in quantiles if q.phi == 0.99)
    except StopIteration:
        p99_delta = quantiles[-1].delta_ms if quantiles else 0.0
    if identical:
        phases = []
        tail_a = entry_a.artifacts.attribution.get("tail", {})
        for component in ATTRIBUTION_COMPONENTS:
            if component not in tail_a:
                continue
            value = float(tail_a[component])
            phases.append(
                PhaseDelta(
                    component=component,
                    a_ms=value,
                    b_ms=value,
                    ci_lo=0.0,
                    ci_hi=0.0,
                    significant=False,
                )
            )
    else:
        phases = _phase_deltas(
            entry_a, entry_b, p99_delta, resamples, confidence, rng
        )

    return RunDiff(
        run_a=entry_a.run_id or entry_a.card.name,
        run_b=entry_b.run_id or entry_b.card.name,
        histogram_name=histogram,
        count_a=hist_a.count,
        count_b=hist_b.count,
        identical=identical,
        quantiles=quantiles,
        phases=phases,
        energy_j=_energy_deltas(entry_a, entry_b),
        events=_diff_events(entry_a.artifacts.events, entry_b.artifacts.events),
        metrics=_diff_scalar_metrics(
            entry_a.artifacts.metrics, entry_b.artifacts.metrics
        ),
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )


# ----------------------------------------------------------------------
# CLI (`repro diff`)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description=(
            "Compare two ledgered runs: quantile and attribution-phase "
            "deltas with bootstrap confidence intervals, event-timeline "
            "diffs, and an explanation ranking of the p99 delta."
        ),
    )
    parser.add_argument("run_a", help="run id, position, or name (A side)")
    parser.add_argument("run_b", help="run id, position, or name (B side)")
    parser.add_argument(
        "--runs",
        default="runs",
        metavar="DIR",
        help="ledger directory (default: runs/)",
    )
    parser.add_argument(
        "--phi",
        type=float,
        action="append",
        default=None,
        metavar="Q",
        help="quantile(s) to diff (repeatable; default 0.5 0.95 0.99 0.999)",
    )
    parser.add_argument(
        "--resamples",
        type=int,
        default=DEFAULT_RESAMPLES,
        metavar="B",
        help=f"bootstrap replicates (default {DEFAULT_RESAMPLES})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        metavar="N",
        help=f"bootstrap RNG seed (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        metavar="C",
        help="CI confidence level (default 0.95)",
    )
    parser.add_argument(
        "--histogram",
        default="latency_ms",
        metavar="NAME",
        help="artifact histogram to diff (default latency_ms)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the diff as JSON instead of text",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ledger = RunLedger(args.runs)
        entry_a = ledger.get(args.run_a)
        entry_b = ledger.get(args.run_b)
        diff = diff_runs(
            entry_a,
            entry_b,
            phis=tuple(args.phi) if args.phi else DEFAULT_PHIS,
            resamples=args.resamples,
            confidence=args.confidence,
            seed=args.seed,
            histogram=args.histogram,
        )
    except ConfigurationError as error:
        print(f"repro diff: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.to_dict(), indent=1, sort_keys=True))
    else:
        print(diff.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
