"""Bit-level pins of runs on more than one core pool.

A single-pool topology has references to equal (the homogeneous engine
and the frozen reference, ``test_hetero_engine.py``); a big/little run
has none.  These digests fix such runs' outcomes: every
:class:`~repro.sim.metrics.RequestRecord` field, each pool's
active/spin/idle joules as ``float.hex`` and the fault counters.  They
were taken from the engine while pooled runs still had their own
commit loop and rate refresh, so an edit that moves any bit of a pooled
run or of its energy bill fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.faults.plan import FaultPlan
from repro.hetero import Topology
from repro.schedulers import (
    EnergyAwareFMScheduler,
    FixedScheduler,
    FMScheduler,
    HurryUpScheduler,
)
from repro.sim.engine import simulate
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
}


def _fingerprint(result) -> bytes:
    lines = []
    for record in result.records:
        values = (getattr(record, f.name) for f in dataclasses.fields(record))
        lines.append(
            " ".join(v.hex() if isinstance(v, float) else repr(v) for v in values)
        )
    for pool in result.energy.pools:
        lines.append(
            f"{pool.name} {pool.active_j.hex()} {pool.spin_j.hex()} {pool.idle_j.hex()}"
        )
    lines.append(repr(sorted(result.fault_stats.as_dict().items())))
    return "\n".join(lines).encode()


def _run(big_speed: float, policy: str, faults: bool):
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
    topology = Topology.big_little(
        big=2, little=4, big_speed=big_speed, little_speed=big_speed / 2.0
    )
    return simulate(
        arrivals, _POLICIES[policy](), cores=6, fault_plan=plan, topology=topology
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
