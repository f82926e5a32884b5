"""Typed core pools: the heterogeneous-silicon substrate model.

The paper's simulator assumes ``N`` identical cores; modern interactive
services run on big/little multicores where the parallelism-vs-tail
tradeoff is also an energy tradeoff (Hurry-up, Nishtala et al. — see
PAPERS.md).  A :class:`Topology` is an ordered list of
:class:`CorePool`\\ s, each a set of identical cores with a *speed
multiplier* (work retired per core-millisecond, relative to the 1.0x
reference core) and an active/idle power draw in watts.  A request's
threads live in exactly one pool at a time — the Hurry-up execution
model, where a query runs on the big or the little cluster and
*migrates* between them — and processor sharing applies within each
pool independently.

Optional :class:`DVFSState`\\ s model frequency scaling: a pool built
with ``dvfs_states`` and a selected ``dvfs`` name takes that state's
speed and power in place of its nominal values.  States are fixed for a
run (the energy accumulator integrates a piecewise-constant power
model; per-run DVFS selection is the granularity the ``hetero-energy``
experiment sweeps).

The single-pool, speed-1.0 topology is the degenerate case: the engine
must produce **bit-identical** results to the homogeneous engine (and
its frozen ``repro.sim._baseline`` reference) under it — attested in
``tests/hetero/test_hetero_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["DVFSState", "CorePool", "Topology"]


@dataclass(frozen=True)
class DVFSState:
    """One frequency/voltage operating point of a pool."""

    name: str
    speed: float
    active_power_w: float
    idle_power_w: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("DVFS state needs a name")
        if self.speed <= 0:
            raise ConfigurationError(f"DVFS speed must be positive: {self.speed}")
        if self.active_power_w < 0 or self.idle_power_w < 0:
            raise ConfigurationError(
                f"DVFS powers must be >= 0: {self.active_power_w}/{self.idle_power_w}"
            )


@dataclass(frozen=True)
class CorePool:
    """A set of identical cores.

    Parameters
    ----------
    name:
        Pool label (``"big"``, ``"little"``), unique within a topology.
    count:
        Physical cores in the pool.
    speed:
        Work retired per core-ms relative to the 1.0x reference core.
    active_power_w:
        Power of one core while occupied by request threads (useful
        work and spin alike burn this).
    idle_power_w:
        Power of one online-but-unoccupied core.
    dvfs_states:
        Optional operating points; selecting one via ``dvfs`` replaces
        the nominal speed/power with the state's.
    dvfs:
        Name of the selected DVFS state (``None`` = nominal values).
    """

    name: str
    count: int
    speed: float = 1.0
    active_power_w: float = 1.0
    idle_power_w: float = 0.1
    dvfs_states: tuple[DVFSState, ...] = field(default_factory=tuple)
    dvfs: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("core pool needs a name")
        if self.count < 1:
            raise ConfigurationError(f"pool {self.name}: count must be >= 1")
        if self.speed <= 0:
            raise ConfigurationError(f"pool {self.name}: speed must be positive")
        if self.active_power_w < 0 or self.idle_power_w < 0:
            raise ConfigurationError(f"pool {self.name}: powers must be >= 0")
        names = [state.name for state in self.dvfs_states]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"pool {self.name}: duplicate DVFS state names")
        if self.dvfs is not None and self.dvfs not in names:
            raise ConfigurationError(
                f"pool {self.name}: unknown DVFS state {self.dvfs!r} "
                f"(have: {names or 'none'})"
            )

    # The *operative* values (DVFS-resolved) the engine and the energy
    # accumulator actually use.
    def _state(self) -> DVFSState | None:
        if self.dvfs is None:
            return None
        for state in self.dvfs_states:
            if state.name == self.dvfs:
                return state
        raise ConfigurationError(  # pragma: no cover - blocked in __post_init__
            f"pool {self.name}: unknown DVFS state {self.dvfs!r}"
        )

    @property
    def effective_speed(self) -> float:
        """Speed multiplier after DVFS resolution."""
        state = self._state()
        return self.speed if state is None else state.speed

    @property
    def effective_active_power_w(self) -> float:
        """Per-core active power after DVFS resolution."""
        state = self._state()
        return self.active_power_w if state is None else state.active_power_w

    @property
    def effective_idle_power_w(self) -> float:
        """Per-core idle power after DVFS resolution."""
        state = self._state()
        return self.idle_power_w if state is None else state.idle_power_w

    def at_dvfs(self, state_name: str | None) -> "CorePool":
        """This pool with a different DVFS state selected."""
        return CorePool(
            name=self.name,
            count=self.count,
            speed=self.speed,
            active_power_w=self.active_power_w,
            idle_power_w=self.idle_power_w,
            dvfs_states=self.dvfs_states,
            dvfs=state_name,
        )


class Topology:
    """An ordered, immutable collection of core pools."""

    def __init__(self, pools) -> None:
        pools = tuple(pools)
        if not pools:
            raise ConfigurationError("topology needs at least one pool")
        names = [pool.name for pool in pools]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate pool names: {names}")
        self.pools: tuple[CorePool, ...] = pools
        # Pools are frozen, so their speeds are read once, not on every
        # scheduler tick that asks for the fastest pool.
        speeds = [pool.effective_speed for pool in pools]
        self._fastest = speeds.index(max(speeds))
        self._slowest = len(speeds) - 1 - speeds[::-1].index(min(speeds))

    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        cores: int,
        name: str = "pool0",
        speed: float = 1.0,
        active_power_w: float = 1.0,
        idle_power_w: float = 0.1,
    ) -> "Topology":
        """A single-pool topology (the paper's identical-core model)."""
        return cls(
            [
                CorePool(
                    name=name,
                    count=cores,
                    speed=speed,
                    active_power_w=active_power_w,
                    idle_power_w=idle_power_w,
                )
            ]
        )

    @classmethod
    def big_little(
        cls,
        big: int = 4,
        little: int = 12,
        big_speed: float = 2.0,
        little_speed: float = 1.0,
        big_active_power_w: float = 3.5,
        big_idle_power_w: float = 0.6,
        little_active_power_w: float = 1.0,
        little_idle_power_w: float = 0.15,
    ) -> "Topology":
        """The canonical two-pool big/little topology (big pool first)."""
        return cls(
            [
                CorePool(
                    "big", big, big_speed,
                    active_power_w=big_active_power_w,
                    idle_power_w=big_idle_power_w,
                ),
                CorePool(
                    "little", little, little_speed,
                    active_power_w=little_active_power_w,
                    idle_power_w=little_idle_power_w,
                ),
            ]
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pools)

    def __iter__(self):
        return iter(self.pools)

    def __getitem__(self, index: int) -> CorePool:
        return self.pools[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Topology) and self.pools == other.pools

    def __hash__(self) -> int:
        return hash(self.pools)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{p.name}:{p.count}@{p.effective_speed:g}x" for p in self.pools
        )
        return f"Topology({inner})"

    @property
    def total_cores(self) -> int:
        """Physical cores across all pools."""
        return sum(pool.count for pool in self.pools)

    @property
    def is_single_pool(self) -> bool:
        """Whether this is the degenerate (homogeneous) configuration."""
        return len(self.pools) == 1

    def index_of(self, name: str) -> int:
        """Pool index by name."""
        for index, pool in enumerate(self.pools):
            if pool.name == name:
                return index
        raise ConfigurationError(f"no pool named {name!r} in {self!r}")

    @property
    def fastest_pool(self) -> int:
        """Index of the highest-speed pool (first wins ties)."""
        return self._fastest

    @property
    def slowest_pool(self) -> int:
        """Index of the lowest-speed pool (last wins ties: the little
        cluster in the big-first order, so equal-speed pools still split
        into a big and a little one)."""
        return self._slowest

    def equivalent_capacity(self) -> float:
        """Total speed-weighted core capacity (1.0x core equivalents)."""
        return sum(pool.count * pool.effective_speed for pool in self.pools)
