"""Output checks.  Each raises :class:`~harness.CheckFailed` on a bad
result, so the op that ran it counts as failed.

Pinned values (``pinned.json``) exist only for the default seed at the
default size; any other seed gets the invariant checks alone, so a
held-out seed can still be run.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

from harness import BENCH_DIR, CheckFailed

PINNED_PATH = BENCH_DIR / "pinned.json"

#: Analysis totals must match the RequestRecords to this many ms.
ATTRIBUTION_TOLERANCE_MS = 1e-6


def record_digest(result) -> str:
    """SHA-256 over ``(finish_ms, core_time_ms)`` of every completed
    request, in arrival order, as exact IEEE-754 doubles."""
    digest = hashlib.sha256()
    for record in result.records:
        digest.update(struct.pack("<dd", record.finish_ms, record.core_time_ms))
    return digest.hexdigest()


def summary_digest(summary) -> str:
    """SHA-256 over a streamed cell's mergeable state: histogram
    buckets, counts and the time integrals (streamed runs keep no
    per-request records)."""
    state = {
        "histogram": summary.histogram.dump_state(),
        "count": summary.count,
        "shed": summary.shed_count,
        "floats": [
            summary.duration_ms.hex(),
            summary.thread_integral.hex(),
            summary.core_busy_integral.hex(),
            summary.system_count_integral.hex(),
        ],
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def exactly_once(result, submitted: int) -> None:
    """Every submitted request is completed or shed exactly once."""
    rids = [r.rid for r in result.records] + [r.rid for r in result.shed_records]
    if len(rids) != submitted or set(rids) != set(range(submitted)):
        missing = sorted(set(range(submitted)) - set(rids))[:5]
        raise CheckFailed(
            f"{len(rids)} outcomes for {submitted} requests "
            f"({len(set(rids))} distinct; missing e.g. {missing})"
        )


def summary_exactly_once(summary, submitted: int) -> None:
    """Streamed form: completions plus sheds equal submissions, and the
    histogram holds one sample per completion."""
    if summary.count + summary.shed_count != submitted:
        raise CheckFailed(
            f"{summary.count} completed + {summary.shed_count} shed "
            f"!= {submitted} submitted"
        )
    if summary.histogram.count != summary.count:
        raise CheckFailed(
            f"histogram holds {summary.histogram.count} samples for "
            f"{summary.count} completions"
        )


def load_pins(workload: str) -> dict[str, list]:
    """Pinned ``label -> [digest, p99_ms]`` for the default seed."""
    if not PINNED_PATH.exists():
        return {}
    return json.loads(PINNED_PATH.read_text()).get(workload, {})


def matches_pin(pins: dict, label: str, digest: str, p99_ms: float) -> None:
    """The cell's digest and simulated p99 equal the pinned values."""
    if label not in pins:
        raise CheckFailed(f"{label}: no pinned value for the default seed")
    want_digest, want_p99 = pins[label]
    if digest != want_digest:
        raise CheckFailed(f"{label}: digest {digest[:12]} != pinned {want_digest[:12]}")
    if p99_ms != want_p99:
        raise CheckFailed(f"{label}: p99 {p99_ms!r} != pinned {want_p99!r}")


def write_pins(workload: str, pins: dict[str, tuple[str, float]]) -> None:
    """Store one workload's default-seed pins (keeps the others)."""
    data = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}
    data[workload] = {label: list(value) for label, value in sorted(pins.items())}
    PINNED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def summaries_identical(a, b, what: str) -> None:
    """Two streamed cell summaries are bit-identical."""
    if a.histogram.state() != b.histogram.state() or a.as_dict() != b.as_dict():
        raise CheckFailed(f"{what}: summaries differ")


def attribution_matches(report, results) -> None:
    """``analyze_trace`` totals on the sim track equal the summed
    RequestRecord attribution, component by component."""
    track = report.tracks.get("sim")
    records = [record for result in results for record in result.records]
    if track is None or track.count != len(records):
        raise CheckFailed(
            f"analysis saw {track.count if track else 0} requests, "
            f"records hold {len(records)}"
        )
    for component, entry in track.components.items():
        analyzed = entry["overall_mean_ms"] * track.count
        recorded = math.fsum(r.attribution()[component] for r in records)
        if abs(analyzed - recorded) > ATTRIBUTION_TOLERANCE_MS:
            raise CheckFailed(
                f"{component}: analyze total {analyzed!r} ms vs records "
                f"{recorded!r} ms"
            )


def exact_null(diff, what: str) -> None:
    """A diff of a run against itself is an exact null: identical
    histograms, nothing significant, every delta exactly zero."""
    if not diff.identical or not diff.is_null():
        raise CheckFailed(f"{what}: diff is not an exact null")
    if any(q.delta_ms != 0.0 for q in diff.quantiles) or any(
        p.delta_ms != 0.0 for p in diff.phases
    ):
        raise CheckFailed(f"{what}: diff has non-zero deltas")
