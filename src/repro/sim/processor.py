"""Core allocation: occupancy-based processor sharing with boosting.

How many cores does a degree-``d`` request occupy?  Its threads deliver
``s(d)`` cores' worth of useful work (the measured speedup), and the
shortfall ``d - s(d)`` splits two ways:

* a *spin* share — parallelization overhead that burns CPU (partition
  and merge work, synchronization spinning): occupies cores;
* a *blocked* share — workers idling at synchronization points, e.g.
  waiting for the slowest index segment: occupies nothing, so other
  requests can use those cores.  This harvestable idleness is exactly
  why the paper sets the thread target *above* the core count ("threads
  may occasionally block for synchronization or more rarely I/O" —
  24 threads on 15 cores for Lucene, 16 on 12 for Bing).

Occupancy is therefore ``o(d) = s(d) + spin * (d - s(d))`` with
``spin`` in [0, 1] a workload property.  A sequential request occupies
exactly one core (``o(1) = 1``).  While total occupancy fits within the
``M`` cores every request runs at full speed; beyond that the OS
round-robins and unboosted requests scale down proportionally — except
*boosted* threads (Section 4.2's selective priority boosting), which
are scheduled whenever ready and therefore keep full speed (the boost
budget keeps boosted threads below the core count).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.request import SimRequest

__all__ = ["occupancy", "share_factors", "BoostController"]


def occupancy(speedup: float, degree: int, spin_fraction: float) -> float:
    """Cores a degree-``degree`` request occupies when unconstrained."""
    if degree < 1:
        raise SimulationError(f"degree must be >= 1, got {degree}")
    if speedup < 1.0 - 1e-9 or speedup > degree + 1e-9:
        raise SimulationError(f"speedup {speedup} out of [1, {degree}]")
    return speedup + spin_fraction * (degree - speedup)


def share_factors(
    cores: float, boosted_demand: float, unboosted_demand: float
) -> tuple[float, float]:
    """The contention factors ``(boosted, unboosted)`` of one pool of
    ``cores`` cores: each request's speed is its speedup times its
    class's factor, and its core share its occupancy times the factor.

    Boosted occupancy is satisfied first (boosted requests never slow
    down while the boost invariant holds); unboosted requests share the
    remaining capacity, scaling down proportionally when
    oversubscribed.  A class with no demand gets factor 1.0.
    """
    boosted_factor = min(1.0, cores / boosted_demand) if boosted_demand > 0 else 1.0
    remaining_cores = cores - boosted_demand * boosted_factor
    if unboosted_demand > 0:
        unboosted_factor = min(1.0, max(0.0, remaining_cores) / unboosted_demand)
    else:
        unboosted_factor = 1.0
    return boosted_factor, unboosted_factor


class BoostController:
    """Tracks the global boosted-thread budget (Section 4.2).

    The paper: "We only boost a request when increasing its parallelism
    to the maximum degree and when the resulting total number of boosted
    threads will be less than the number of cores."  The *when* is the
    policy's call; this controller enforces the budget and keeps the
    synchronized count the paper implements with a shared variable.
    """

    def __init__(self, cores: int) -> None:
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        self.cores = cores
        self.boosted_threads = 0
        self._held: dict[int, int] = {}

    def try_boost(self, request: "SimRequest", degree: int) -> bool:
        """Grant boosted priority to all ``degree`` threads of ``request``
        if the budget allows; returns whether the request is boosted."""
        if request.rid in self._held:
            return True
        if degree < 1:
            raise SimulationError(f"boost degree must be >= 1, got {degree}")
        if self.boosted_threads + degree >= self.cores:
            # Denied: mark the request so the flight recorder charges
            # subsequent contention slowdown to boost wait — the
            # latency component this denial creates.
            request.boost_pending = True
            return False
        self.boosted_threads += degree
        self._held[request.rid] = degree
        request.boosted = True
        request.boost_pending = False
        return True

    def release(self, request: "SimRequest") -> None:
        """Return a completed request's boosted threads to the budget."""
        held = self._held.pop(request.rid, 0)
        self.boosted_threads -= held
        request.boosted = False
        if self.boosted_threads < 0:
            raise SimulationError("boosted thread count went negative")

    def reset(self) -> None:
        """Clear all grants (between simulation runs)."""
        self.boosted_threads = 0
        self._held.clear()
