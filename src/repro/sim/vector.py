"""The engine pinned to its numpy batch kernels (DESIGN.md §14).

:class:`~repro.sim.engine.Engine` already runs the two O(running set)
per-event loops — the commit that advances every running request and
the rate recompute that re-shares the cores — as numpy column kernels
once the running set reaches :data:`~repro.sim.engine.BATCH_ENTRY`
requests, and returns to the loops below
:data:`~repro.sim.engine.BATCH_EXIT`.  The crossover table behind those
sizes is in the :mod:`repro.sim.engine` docstring.

:class:`VectorEngine` is that engine with the batch kernels on from the
first request and never off.  It exists for attestation, not speed:
tests and benchmarks run it next to a loop-only engine to show the
kernels agree bit for bit at every running-set size, including the
small ones the default engine never batches.  ``simulate(...,
vectorized=True)`` and its siblings select it.

The equality is exact by construction (slot order is running-set order,
order-sensitive sums are left-to-right ``np.cumsum``, elementwise ops
mirror the loops), and that covers per-request ``degree_residency``
too: a per-slot column holds the current degree's running sum, seeded
from the request's dict and written back on a degree change, at finish
and at mode exit.

Heterogeneous topologies are rejected: the slot table has no pool
column, so they run on the engine's per-pool loops.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.sim.api import Scheduler
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector
from repro.telemetry import Telemetry

__all__ = ["VectorEngine"]


class VectorEngine(Engine):
    """:class:`~repro.sim.engine.Engine` on the batch kernels at every
    running-set size.

    Drop-in: same constructor (minus heterogeneous topologies), same
    :meth:`run` contract including streamed arrivals and the live plane.
    """

    _batch_entry = 1
    _batch_exit = 0

    def __init__(
        self,
        cores: int,
        scheduler: Scheduler,
        quantum_ms: float = 5.0,
        spin_fraction: float = 0.25,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
        attribution: bool = True,
        topology: object | None = None,
        live: object | None = None,
        collector: MetricsCollector | None = None,
    ) -> None:
        if topology is not None:
            raise SimulationError(
                "VectorEngine does not support heterogeneous topologies; "
                "use the scalar Engine for repro.hetero runs"
            )
        super().__init__(
            cores=cores,
            scheduler=scheduler,
            quantum_ms=quantum_ms,
            spin_fraction=spin_fraction,
            fault_plan=fault_plan,
            telemetry=telemetry,
            attribution=attribution,
            live=live,  # type: ignore[arg-type]
            collector=collector,
        )
