"""Deterministic per-pool energy accounting.

Energy is integrated alongside the fluid work model: between any two
engine events every request's core share is constant, so power is
piecewise-constant and the integral is exact — no sampling, no clock
reads, bit-reproducible under a fixed seed.  Within each interval of
length ``dt`` ms, a pool's cores split three ways:

* **active** — cores doing useful work: each request contributes
  ``degree_speedup * factor`` core-equivalents (its progress rate
  before the pool speed multiplier is applied).
* **spin** — occupied-but-wasted share: ``share_cores - active``,
  i.e. the spin-fraction overhead of partially-parallel execution plus
  contention losses.  Spin burns active power (the core is busy) but
  retires no work, which is exactly why it matters on an energy axis.
* **idle** — online cores with no thread on them, at idle power.

Accumulation is in watt-milliseconds (numerically = millijoules);
:class:`PoolEnergy` converts to joules at report time.  Stalled
requests (fault injection) hold their cores in spin — the thread is
occupied but making no progress.

The report is attached to :class:`repro.sim.metrics.SimulationResult`
as ``result.energy`` (``None`` for runs without a topology, keeping
every existing experiment byte-identical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PoolEnergy", "EnergyReport"]


@dataclass(frozen=True)
class PoolEnergy:
    """Energy decomposition for one core pool over a run."""

    name: str
    cores: int
    speed: float
    active_j: float
    spin_j: float
    idle_j: float

    @property
    def total_j(self) -> float:
        return self.active_j + self.spin_j + self.idle_j

    def scaled(self, fraction: float) -> "PoolEnergy":
        """This pool's energy scaled by a duration fraction (slicing)."""
        return PoolEnergy(
            name=self.name,
            cores=self.cores,
            speed=self.speed,
            active_j=self.active_j * fraction,
            spin_j=self.spin_j * fraction,
            idle_j=self.idle_j * fraction,
        )


class EnergyReport:
    """Per-pool energy totals for one simulation run."""

    def __init__(self, pools, duration_ms: float) -> None:
        self.pools: tuple[PoolEnergy, ...] = tuple(pools)
        self.duration_ms = duration_ms

    @property
    def total_j(self) -> float:
        return sum(pool.total_j for pool in self.pools)

    @property
    def active_j(self) -> float:
        return sum(pool.active_j for pool in self.pools)

    @property
    def spin_j(self) -> float:
        return sum(pool.spin_j for pool in self.pools)

    @property
    def idle_j(self) -> float:
        return sum(pool.idle_j for pool in self.pools)

    def joules_per_query(self, completed: int) -> float:
        """Total joules divided by completed queries (NaN when none)."""
        if completed <= 0:
            return math.nan
        return self.total_j / completed

    def average_power_w(self) -> float:
        """Mean platform power over the run (NaN for zero duration)."""
        if self.duration_ms <= 0:
            return math.nan
        return self.total_j / (self.duration_ms / 1000.0)

    def pool(self, name: str) -> PoolEnergy:
        for entry in self.pools:
            if entry.name == name:
                return entry
        raise KeyError(f"no pool named {name!r} in energy report")

    def scaled(self, fraction: float) -> "EnergyReport":
        """Report scaled to a fraction of the run (arrival slicing)."""
        return EnergyReport(
            (pool.scaled(fraction) for pool in self.pools),
            duration_ms=self.duration_ms * fraction,
        )

    def as_dict(self) -> dict:
        return {
            "duration_ms": self.duration_ms,
            "total_j": self.total_j,
            "active_j": self.active_j,
            "spin_j": self.spin_j,
            "idle_j": self.idle_j,
            "pools": {
                pool.name: {
                    "cores": pool.cores,
                    "speed": pool.speed,
                    "active_j": pool.active_j,
                    "spin_j": pool.spin_j,
                    "idle_j": pool.idle_j,
                    "total_j": pool.total_j,
                }
                for pool in self.pools
            },
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.name}={p.total_j:.3f}J" for p in self.pools)
        return f"EnergyReport({inner}, total={self.total_j:.3f}J)"
