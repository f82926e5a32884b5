"""Virtual-time multicore server simulator.

The hardware substrate substitution for the paper's Xeon testbeds: a
fluid discrete-event model of cores, software threads, processor
sharing, and selective priority boosting (see DESIGN.md §4).
"""

from repro.sim.api import Admission, AdmissionAction, Scheduler, SchedulerContext
from repro.sim.engine import ArrivalSpec, Engine, simulate
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.metrics import MetricsCollector, RequestRecord, ShedRecord, SimulationResult
from repro.sim.processor import BoostController
from repro.sim.request import RequestState, SimRequest
from repro.sim.stream import StreamingCollector, StreamSummary, simulate_stream
from repro.sim.trace import TraceEventKind, TraceRecorder
from repro.sim.vector import VectorEngine

__all__ = [
    "Admission",
    "AdmissionAction",
    "ArrivalSpec",
    "BoostController",
    "Engine",
    "Event",
    "EventKind",
    "EventQueue",
    "MetricsCollector",
    "RequestRecord",
    "RequestState",
    "Scheduler",
    "SchedulerContext",
    "ShedRecord",
    "SimRequest",
    "SimulationResult",
    "StreamSummary",
    "StreamingCollector",
    "TraceEventKind",
    "TraceRecorder",
    "VectorEngine",
    "simulate",
    "simulate_stream",
]
