"""Run-provenance ledger: persistent, mergeable artifacts per run.

Every comparison this repo cares about — FM vs FIX-N, adaptive vs
static hedging, before/after a perf PR — starts from two *runs*.  Until
now each experiment and each CI gate hand-rolled its own pair of runs
and its own formatting; nothing recorded what was actually run, so
"diff these two results" required re-running both.  The ledger fixes
the provenance half (DESIGN.md §15); :mod:`repro.observe.diff` fixes
the comparison half.

A ledger entry is a :class:`RunCard` (what was run: config fingerprint,
seed, scheduler, workload digest, git revision) bundled with
:class:`RunArtifacts` (what it produced: full-state
:class:`~repro.telemetry.histogram.LogHistogram` dumps, attribution
totals, scalar metrics, an energy report, and the ``observe.event``
timeline).  Artifacts are *mergeable state*, not rendered tables —
histograms round-trip through :meth:`LogHistogram.dump_state`, so a
restored entry supports the same bootstrap resampling and bucket-exact
equality checks as the live object.

Storage is an append-only ``runs/`` directory: one JSON object per
line in ``ledger.jsonl`` plus a rewritten ``index.json`` mapping run
ids to line numbers (the JSONL is the source of truth; the index is a
cache and is rebuilt when missing or stale).  Run ids are
``<name>#<n>`` where ``n`` is the entry's position in the file —
stable, greppable, and safe under concurrent readers.

Determinism: nothing in an entry's *diffable* payload depends on wall
clocks or host state.  ``created_s`` and ``git_rev`` are provenance
breadcrumbs only; :func:`repro.observe.diff.diff_runs` never reads
them, which is what keeps a diff bit-identical across machines and
``--workers`` counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.telemetry.histogram import LogHistogram

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cluster.simulation import RobustClusterResult
    from repro.sim.metrics import SimulationResult
    from repro.sim.stream import StreamSummary
    from repro.workloads.workload import Workload

__all__ = [
    "RunCard",
    "RunArtifacts",
    "RunEntry",
    "RunLedger",
    "config_fingerprint",
    "workload_digest",
    "git_revision",
    "entry_from_result",
    "entry_from_summary",
    "entry_from_cluster",
]

#: Default ledger directory (relative to the invoking process's cwd).
DEFAULT_LEDGER_DIR = "runs"

#: The quantile grid every entry records point estimates for.
QUANTILE_GRID = (0.50, 0.95, 0.99, 0.999)


def config_fingerprint(config: dict) -> str:
    """A stable 12-hex-digit digest of a JSON-able config dict.

    Canonical JSON (sorted keys, no whitespace variance) hashed with
    SHA-256 — two runs share a fingerprint iff their configs are
    value-identical, regardless of dict insertion order.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def workload_digest(workload: "Workload") -> str:
    """Digest of a workload's deterministic identity.

    Hashes the declared shape (name, max degree, profile size) plus a
    fixed-seed demand sample, so two workloads digest equal iff they
    would hand the same traces to a run.
    """
    import numpy as np

    sample = workload.sampler(np.random.default_rng(90001), 64)
    payload = {
        "name": workload.name,
        "max_degree": workload.max_degree,
        "profile_size": workload.profile_size,
        "sample": [round(float(v), 9) for v in np.asarray(sample).ravel()],
    }
    return config_fingerprint(payload)


def git_revision() -> str:
    """The repo's HEAD revision, or ``"unknown"`` outside a checkout.

    Provenance only — excluded from fingerprints and diffs.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - env
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@dataclass(frozen=True)
class RunCard:
    """What was run: the provenance half of a ledger entry."""

    name: str
    fingerprint: str
    seed: int
    scheduler: str = ""
    workload: str = ""
    scale: str = ""
    config: dict = field(default_factory=dict)
    git_rev: str = ""
    #: Wall-clock stamp (seconds since epoch); provenance only, never
    #: read by the diff engine.
    created_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "workload": self.workload,
            "scale": self.scale,
            "config": self.config,
            "git_rev": self.git_rev,
            "created_s": self.created_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunCard":
        return cls(
            name=data["name"],
            fingerprint=data["fingerprint"],
            seed=int(data["seed"]),
            scheduler=data.get("scheduler", ""),
            workload=data.get("workload", ""),
            scale=data.get("scale", ""),
            config=data.get("config", {}),
            git_rev=data.get("git_rev", ""),
            created_s=float(data.get("created_s", 0.0)),
        )


@dataclass
class RunArtifacts:
    """What a run produced: the mergeable, diffable half of an entry.

    ``histograms`` maps instrument name to full
    :meth:`LogHistogram.dump_state` payloads; ``"latency_ms"`` is the
    conventional primary series the quantile diff reads.
    ``attribution`` is :meth:`SimulationResult.attribution_summary`
    output (``{"overall": {...}, "tail": {...}}``); ``metrics`` holds
    flat scalars (counts, utilizations, bench numbers); ``energy`` an
    :meth:`EnergyReport.as_dict`; ``events`` the ``observe.event``
    timeline as dicts.
    """

    histograms: dict[str, dict] = field(default_factory=dict)
    attribution: dict = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    energy: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    #: name -> (the payload :meth:`add_histogram` stored, a private copy
    #: of the histogram it was given).  Not part of the entry: equality,
    #: :meth:`to_dict` and the ledger never see it.
    _live: dict[str, tuple[dict, LogHistogram]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def histogram(self, name: str) -> LogHistogram:
        """Restore one stored histogram to a live object.

        While ``histograms[name]`` is still the payload
        :meth:`add_histogram` stored, this is a fresh copy of the
        histogram kept with it (DESIGN.md §15): same state, without
        parsing every bucket key again.  Entries read from a ledger,
        and replaced payloads, are rebuilt from the payload.
        """
        if name not in self.histograms:
            raise ConfigurationError(
                f"no histogram {name!r} in artifacts "
                f"(have: {sorted(self.histograms) or 'none'})"
            )
        payload = self.histograms[name]
        live = self._live.get(name)
        if live is not None and live[0] is payload:
            return live[1].copy()
        return LogHistogram.from_state(payload)

    def add_histogram(self, name: str, histogram: LogHistogram) -> None:
        payload = self.histograms[name] = histogram.dump_state()
        self._live[name] = (payload, histogram.copy())

    def to_dict(self) -> dict:
        return {
            "histograms": self.histograms,
            "attribution": self.attribution,
            "metrics": self.metrics,
            "energy": self.energy,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunArtifacts":
        return cls(
            histograms=data.get("histograms", {}),
            attribution=data.get("attribution", {}),
            metrics=data.get("metrics", {}),
            energy=data.get("energy", {}),
            events=data.get("events", []),
        )


@dataclass
class RunEntry:
    """One ledger line: provenance card + artifacts."""

    card: RunCard
    artifacts: RunArtifacts
    #: Assigned at append time (``<name>#<n>``); empty for in-memory
    #: entries that were never persisted.
    run_id: str = ""

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "card": self.card.to_dict(),
            "artifacts": self.artifacts.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunEntry":
        return cls(
            card=RunCard.from_dict(data["card"]),
            artifacts=RunArtifacts.from_dict(data.get("artifacts", {})),
            run_id=data.get("run_id", ""),
        )


class RunLedger:
    """Append-only run store: ``<root>/ledger.jsonl`` + ``index.json``."""

    def __init__(self, root: str | Path = DEFAULT_LEDGER_DIR) -> None:
        self.root = Path(root)
        self.path = self.root / "ledger.jsonl"
        self.index_path = self.root / "index.json"

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def append(self, entry: RunEntry) -> str:
        """Persist ``entry``; returns the assigned run id.

        The entry's ``run_id`` is (re)assigned from its position in the
        file — appending the same in-memory entry twice yields two
        distinct runs, by design (a ledger records executions, not
        configurations).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        position = self._line_count()
        entry.run_id = f"{entry.card.name}#{position}"
        with self.path.open("a") as handle:
            handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
        self._write_index()
        return entry.run_id

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def entries(self) -> list[RunEntry]:
        """Every entry, file order (oldest first)."""
        if not self.path.exists():
            return []
        out = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if line:
                out.append(RunEntry.from_dict(json.loads(line)))
        return out

    def get(self, ref: str) -> RunEntry:
        """Resolve ``ref`` to an entry.

        Accepts an exact run id (``name#3``), a bare integer position
        (``"3"`` or ``"-1"`` for the latest), or a run name (resolves
        to the *latest* entry with that name).
        """
        entries = self.entries()
        if not entries:
            raise ConfigurationError(f"ledger at {self.root} is empty")
        try:
            position = int(ref)
        except ValueError:
            position = None
        if position is not None:
            try:
                return entries[position]
            except IndexError:
                raise ConfigurationError(
                    f"run position {position} out of range "
                    f"(ledger holds {len(entries)} entries)"
                )
        for entry in entries:
            if entry.run_id == ref:
                return entry
        named = [entry for entry in entries if entry.card.name == ref]
        if named:
            return named[-1]
        raise ConfigurationError(
            f"no run {ref!r} in ledger at {self.root} "
            f"(have: {', '.join(e.run_id for e in entries[-8:])})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _line_count(self) -> int:
        if not self.path.exists():
            return 0
        return sum(
            1 for line in self.path.read_text().splitlines() if line.strip()
        )

    def _write_index(self) -> None:
        """Rewrite the index cache from the JSONL source of truth."""
        index = {}
        for position, entry in enumerate(self.entries()):
            index[entry.run_id] = {
                "line": position,
                "name": entry.card.name,
                "fingerprint": entry.card.fingerprint,
                "seed": entry.card.seed,
            }
        self.index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Entry builders
# ----------------------------------------------------------------------
def _finite_metrics(pairs: dict[str, float]) -> dict[str, float]:
    """Drop NaN/inf scalars — JSON round-trips them inconsistently and
    a diff over them is meaningless."""
    return {
        name: float(value)
        for name, value in pairs.items()
        if isinstance(value, (int, float)) and math.isfinite(value)
    }


def _card(
    name: str,
    config: dict,
    seed: int,
    scheduler: str,
    workload: "Workload | None",
    scale: str,
    stamp: bool,
) -> RunCard:
    return RunCard(
        name=name,
        fingerprint=config_fingerprint(config),
        seed=seed,
        scheduler=scheduler,
        workload=workload_digest(workload) if workload is not None else "",
        scale=scale,
        config=config,
        git_rev=git_revision() if stamp else "",
        created_s=time.time() if stamp else 0.0,
    )


def entry_from_result(
    name: str,
    result: "SimulationResult",
    *,
    config: dict,
    seed: int,
    scheduler: str = "",
    workload: "Workload | None" = None,
    scale: str = "",
    phi: float = 0.99,
    stamp: bool = False,
) -> RunEntry:
    """Build a ledger entry from a completed :class:`SimulationResult`.

    Records the latency histogram plus one histogram per additive
    attribution component (``attr.queue_ms`` ...), the exact
    attribution summary at ``phi``, scalar run metrics, and the energy
    report when the run had one.  ``stamp=False`` (the default) leaves
    wall-clock/git provenance blank so tests and determinism
    attestations get byte-identical entries.
    """
    from repro.sim.metrics import ATTRIBUTION_COMPONENTS, attribution_columns

    artifacts = RunArtifacts()
    columns = attribution_columns(result.records)
    latency = LogHistogram()
    latency.record_many(columns["latency_ms"])
    artifacts.add_histogram("latency_ms", latency)
    for component in ATTRIBUTION_COMPONENTS:
        histogram = LogHistogram()
        histogram.record_many(columns[component])
        artifacts.add_histogram(f"attr.{component}", histogram)
    artifacts.attribution = result.attribution_summary(phi)
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
        card=_card(name, config, seed, scheduler, workload, scale, stamp),
        artifacts=artifacts,
    )


def entry_from_summary(
    name: str,
    summary: "StreamSummary",
    *,
    config: dict,
    seed: int,
    scheduler: str = "",
    workload: "Workload | None" = None,
    scale: str = "",
    stamp: bool = False,
) -> RunEntry:
    """Build a ledger entry from a streamed :class:`StreamSummary`
    (latency histogram + scalar gauges; no per-request attribution —
    streamed runs do not retain it)."""
    artifacts = RunArtifacts()
    artifacts.add_histogram("latency_ms", summary.histogram)
    artifacts.metrics = _finite_metrics(
        {
            "count": summary.count,
            "shed_count": summary.shed_count,
            "duration_ms": summary.duration_ms,
            "cpu_utilization": summary.cpu_utilization(),
            "average_threads": summary.average_threads(),
            **{
                f"p{q * 100:g}_ms".replace(".", "_"): summary.histogram.percentile(q)
                for q in QUANTILE_GRID
            },
        }
    )
    return RunEntry(
        card=_card(name, config, seed, scheduler, workload, scale, stamp),
        artifacts=artifacts,
    )


def entry_from_cluster(
    name: str,
    result: "RobustClusterResult",
    *,
    config: dict,
    seed: int,
    scheduler: str = "",
    workload: "Workload | None" = None,
    scale: str = "",
    stamp: bool = False,
) -> RunEntry:
    """Build a ledger entry from a robust cluster run: query-latency
    and redundancy-wait histograms, redundancy counters, and the
    controller's mode transitions as ``observe.event`` records."""
    artifacts = RunArtifacts()
    latency = LogHistogram()
    for value in result.query_latencies_ms:
        latency.record(float(value))
    artifacts.add_histogram("latency_ms", latency)
    if len(result.query_redundancy_wait_ms):
        waits = LogHistogram()
        for value in result.query_redundancy_wait_ms:
            waits.record(float(value))
        artifacts.add_histogram("redundancy_wait_ms", waits)
    artifacts.metrics = _finite_metrics(
        {
            "count": len(result.query_latencies_ms),
            "hedges_sent": result.hedges_sent,
            "retries_sent": result.retries_sent,
            "timeouts": result.timeouts,
            "injected_work_ms": result.injected_work_ms,
            "mean_quality": float(result.quality.mean()),
            **{
                f"p{q * 100:g}_ms".replace(".", "_"): latency.percentile(q)
                for q in QUANTILE_GRID
            },
        }
    )
    for transition in result.mode_transitions:
        at_ms, window, from_mode, to_mode, reason = transition[:5]
        artifacts.events.append(
            {
                "at_ms": float(at_ms),
                "kind": "mode_transition",
                "window": int(window),
                "detail": {
                    "from_mode": from_mode,
                    "to_mode": to_mode,
                    "reason": reason,
                },
            }
        )
    return RunEntry(
        card=_card(name, config, seed, scheduler, workload, scale, stamp),
        artifacts=artifacts,
    )
