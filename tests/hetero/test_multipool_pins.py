"""Bit-level pins of runs on more than one core pool.

A single-pool topology has references to equal (the homogeneous engine
and the frozen reference, ``test_hetero_engine.py``); a big/little run
has none.  These digests fix such runs' outcomes: every
:class:`~repro.sim.metrics.RequestRecord` field, each pool's
active/spin/idle joules as ``float.hex`` and the fault counters.  They
were taken from the engine while pooled runs still had their own
commit loop and rate refresh, so an edit that moves any bit of a pooled
run or of its energy bill fails here.

The same runs with a :class:`~repro.telemetry.Telemetry` pipeline and a
:class:`~repro.observe.live.LivePlane` (with an SLO monitor) attached
must keep those record pins, and their observers' outputs are pinned
too: the Chrome trace and JSONL span files, the registry, the live
windows and the registry's window stream, byte for byte.  Those pins
were taken while every completion still fed each observer one call at a
time, so batching the observers' feed may move no byte of them.  One
homogeneous FM run with faults joins the observed cases.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.faults.plan import FaultPlan
from repro.hetero import Topology
from repro.observe.live import LivePlane
from repro.observe.slo import SLOMonitor, SLOTarget
from repro.observe.timeseries import write_timeseries_jsonl
from repro.schedulers import (
    EnergyAwareFMScheduler,
    FixedScheduler,
    FMScheduler,
    HurryUpScheduler,
)
from repro.sim.engine import simulate
from repro.telemetry import Telemetry, write_chrome_trace, write_spans_jsonl
from tests.sim.test_engine_equivalence import _interval_table, _sweep_arrivals

_POLICIES = {
    "fix2-boost": lambda: FixedScheduler(2, boost_after_ms=30.0),
    "fm": lambda: FMScheduler(_interval_table()),
    "ea-fm": lambda: EnergyAwareFMScheduler(
        _interval_table(), rescue_age_ms=40.0, min_free_cores=1.0
    ),
    "hurryup": lambda: HurryUpScheduler(degree=2, deadline_ms=100.0),
}

#: sha256 of each case's fingerprint (see :func:`_fingerprint`).
_PINS = {
    "big1x/ea-fm/clean": "7c68ed1247b848f77ababe37d78cb5556d6277d1f250b2b5b1ba53095c293822",
    "big1x/ea-fm/faults": "72d5ff6c353ee2603e6db1a59891e4cdd3471c9ffa287dd590c163b145322038",
    "big1x/fix2-boost/clean": "afa848f91de5c1be245f928051823003e57163047efd12f90bdeeac15f9ac144",
    "big1x/fix2-boost/faults": "0a4252a0888f33ad1620c1df6875c980e33dc71d8050ade4492bcdeaa75d5001",
    "big1x/fm/clean": "78fbd19815747eb00cffdbb6336c8adcbf6bb93ecb081502c2aef1b939a7f88d",
    "big1x/fm/faults": "5c7890f499fd060a1d119234fcddbbf2f735a2397ad91abe209f36cc20ad71b6",
    "big1x/hurryup/clean": "6d27afc9cd79c6e5315d1e0cbc1e0284566c5272f8d77ed557db7f7b6b9352f8",
    "big1x/hurryup/faults": "311f382b8210237afbfbc4a3d392c7fe018b3de4f8996ae3149f79c29e6e7f12",
    "big2x/ea-fm/clean": "376c37315cb031e60ada7f89399fc4cdc307630e103b3b81a93b1243c1d9f6c5",
    "big2x/ea-fm/faults": "d65b260964e78e92d73b13790cfa9ca57468d6c66f30def5e80dee815b02f8bf",
    "big2x/fix2-boost/clean": "0cce238e124ecd4e2945f31a033fc7914f4dd3b8a0384ef3e3f1ac66d62c4184",
    "big2x/fix2-boost/faults": "d44cbb5f3edf5bbae89a23a6d6c4452c9515e0cb5d4bf78289b0faa0f70db15c",
    "big2x/fm/clean": "76fcae094af41854d29f45835735554b46a607242943e7d60617663be8256492",
    "big2x/fm/faults": "20f046fc948abc518d1f27cea9f1150170bdbd82b855d6ee9da60753d5f720b9",
    "big2x/hurryup/clean": "467ac90da09cecd5cf539f8ade69a02b4dfb9e291bb1c800d01c948822268de5",
    "big2x/hurryup/faults": "1e2e912815412c9348a596b7e6eedd8386449e8fe90adad495e6348c3e46d8e0",
    "homogeneous/fm/faults": "38c906560613e5b691a28e481d0116f72378c7efa2c85babb5119319bb2fbf98",
}


def _fingerprint(result) -> bytes:
    lines = []
    for record in result.records:
        values = (getattr(record, f.name) for f in dataclasses.fields(record))
        lines.append(
            " ".join(v.hex() if isinstance(v, float) else repr(v) for v in values)
        )
    for pool in result.energy.pools if result.energy is not None else ():
        lines.append(
            f"{pool.name} {pool.active_j.hex()} {pool.spin_j.hex()} {pool.idle_j.hex()}"
        )
    lines.append(repr(sorted(result.fault_stats.as_dict().items())))
    return "\n".join(lines).encode()


def _run(big_speed: float | None, policy: str, faults: bool, **observers):
    """One pinned run; ``big_speed=None`` is the homogeneous machine."""
    arrivals = _sweep_arrivals(110.0, 300, seed=2024)
    plan = None
    if faults:
        plan = FaultPlan.generate(
            seed=31,
            horizon_ms=arrivals[-1].time_ms + 1_000.0,
            core_fault_rate_hz=2.0,
            core_fault_duration_ms=150.0,
            cores_per_fault=2,
            stall_rate_hz=5.0,
            straggler_rate=0.1,
            straggler_mu=0.7,
        )
    # Big is the faster pool in both cases, so every policy places work
    # on both; at big speed 1.0 the little pool runs at half speed.
    topology = None
    if big_speed is not None:
        topology = Topology.big_little(
            big=2, little=4, big_speed=big_speed, little_speed=big_speed / 2.0
        )
    return simulate(
        arrivals, _POLICIES[policy](), cores=6, fault_plan=plan, topology=topology,
        **observers,
    )


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("policy", sorted(_POLICIES))
@pytest.mark.parametrize("big_speed", [1.0, 2.0], ids=["big1x", "big2x"])
def test_multipool_run_matches_its_pin(big_speed, policy, faults):
    result = _run(big_speed, policy, faults)
    case = f"big{big_speed:g}x/{policy}/{'faults' if faults else 'clean'}"
    assert {record.pool for record in result.records} == {0, 1}
    if faults:
        stats = result.fault_stats.as_dict()
        assert stats["core_faults_applied"] and stats["stalls_injected"]
        assert stats["stragglers_injected"]
    assert hashlib.sha256(_fingerprint(result)).hexdigest() == _PINS[case]


#: sha256 of each observed case's observer outputs (see
#: :func:`_observed_digest`), taken while every completion fed each
#: observer one call at a time.
_OBSERVED_PINS = {
    "big1x/ea-fm/clean": "d7419406dcc66d18f179688691d78df5964f3b393b90b1ab09057ba3916bbd57",
    "big1x/ea-fm/faults": "d5822f23621cb73f97fc0d330cb032600467d7844a9dc46c8ff824804c47fff8",
    "big1x/fix2-boost/clean": "42dde4d2f9873e1d74a47b59e03d21d6adb60f810c7462c03227bde8a40434c7",
    "big1x/fix2-boost/faults": "b2321efecd9e1ef013b6a46aa9c7ee9aa82bf2552632c6d1708353c37d994372",
    "big1x/fm/clean": "82c826864c8315e7184f3626bacd18f36d046fb090293dbcf78b74f088411e55",
    "big1x/fm/faults": "32c097d8615a67b0d5940e18b3cd40adec86bc596a126cf18cdffd0a8103857f",
    "big1x/hurryup/clean": "ca9edb3224a037dd5e98093348c2fdccc673b25d58020606fb8b623973efda92",
    "big1x/hurryup/faults": "25edda76762ff2778671f1130adae0835d696f056a10eaa8bae712b432c8cb78",
    "big2x/ea-fm/clean": "8789e215bd0dacc5ff3d1f9c25bfd070980faa2c46ef1b1e0ed731b4e2e06bd9",
    "big2x/ea-fm/faults": "c0715e6ff64963affe53b60179beb1a829969b8962b19704559aae5ceaef6472",
    "big2x/fix2-boost/clean": "ac2aaccac33c5d86ec2993cc2aedc15bc9c8465ac501e2c1268b82b093730ac5",
    "big2x/fix2-boost/faults": "29d0d4aa24ca6be519d9b5438b9fa8eba5d846bb51340507a9251c0f697d6bf1",
    "big2x/fm/clean": "72203187f7979ddcd0cc340a8cc386e0fba0b73070f21591469cad1f0e0fad7c",
    "big2x/fm/faults": "60a00b04d19d44d92b5043ce8a6d59d296e2148e7739508fba778f5fa97cb3e5",
    "big2x/hurryup/clean": "a044dde3b6c35f1147a3c32db9a6a652d889fc09769f19a35e6ddce821a25375",
    "big2x/hurryup/faults": "58217c791532a38bf4e7c890edcd81f92537b945e86befd829e62dfa1f8d6caf",
    "homogeneous/fm/faults": "cc816ca65b58abbd9b1619669338b7d3282dac0071facc338019061d07023a73",
}

_OBSERVED_CASES = [
    (big_speed, policy, faults)
    for big_speed in (1.0, 2.0)
    for policy in sorted(_POLICIES)
    for faults in (False, True)
] + [(None, "fm", True)]


def _case_id(big_speed: float | None, policy: str, faults: bool) -> str:
    machine = "homogeneous" if big_speed is None else f"big{big_speed:g}x"
    return f"{machine}/{policy}/{'faults' if faults else 'clean'}"


def _observed_digest(telemetry: Telemetry, plane: LivePlane, directory) -> str:
    """One sha256 over every observer output, each section's bytes
    prefixed by its length."""
    digest = hashlib.sha256()
    sections = [
        write_chrome_trace(directory / "trace.json", telemetry).read_bytes(),
        write_spans_jsonl(directory / "spans.jsonl", telemetry.tracer.spans).read_bytes(),
        json.dumps(telemetry.metrics.as_dict()).encode(),
        json.dumps([window.to_dict() for window in plane.windows()]).encode(),
        write_timeseries_jsonl(
            directory / "windows.jsonl", plane.window_snapshots()
        ).read_bytes(),
    ]
    for section in sections:
        digest.update(len(section).to_bytes(8, "little"))
        digest.update(section)
    return digest.hexdigest()


def _observed_run(big_speed: float | None, policy: str, faults: bool):
    telemetry = Telemetry()
    slo = SLOMonitor(
        SLOTarget(percentile=0.9, threshold_ms=60.0),
        short_window_ms=150.0,
        long_window_ms=600.0,
        min_samples=5,
    )
    plane = LivePlane(
        window_ms=50.0, capacity=4096, slo=slo, exemplars=3, telemetry=telemetry
    )
    result = _run(big_speed, policy, faults, telemetry=telemetry, live=plane)
    return result, telemetry, plane


@pytest.mark.parametrize(
    ("big_speed", "policy", "faults"),
    _OBSERVED_CASES,
    ids=[_case_id(*case) for case in _OBSERVED_CASES],
)
def test_observed_run_keeps_its_pins(big_speed, policy, faults, tmp_path):
    """Observers change no simulated bit, and their outputs are the
    pinned bytes."""
    result, telemetry, plane = _observed_run(big_speed, policy, faults)
    case = _case_id(big_speed, policy, faults)
    assert hashlib.sha256(_fingerprint(result)).hexdigest() == _PINS[case]
    # The pins cover each observer's fed state, not empty documents.
    assert len(telemetry.tracer.spans) > len(result.records)
    assert sum(window.count for window in plane.windows()) == len(result.records)
    assert plane.window_snapshots()
    if faults:
        assert any(event.kind == "fault" for event in plane.events)
    assert _observed_digest(telemetry, plane, tmp_path) == _OBSERVED_PINS[case]
