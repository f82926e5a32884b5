"""Work gates for observing a run without the cyclic GC.

Counts and reference lifetimes, not times, so they hold on any host:

* a finished :class:`Engine` is freed by reference counting the moment
  its caller drops it (with the collector off), whichever kernels the
  run ended on and also when the run raises;
* a warm ``simulate()`` leaves no cyclic garbage behind;
* the Chrome-trace writer and loader build their acyclic bulk data with
  the collector paused, and the columnar report allocates so little
  that none of the three triggers a collection on a trace of thousands
  of spans;
* the pause gives the collector back in the state it found it.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import CoreFault, FaultPlan, StallFault
from repro.hetero import Topology
from repro.observe.analyze import analyze_spans, load_trace
from repro.observe.live import LivePlane
from repro.schedulers import FixedScheduler, HurryUpScheduler
from repro.sim.api import Admission
from repro.sim.engine import Engine, simulate
from repro.sim.metrics import ATTRIBUTION_COMPONENTS
from repro.sim.vector import VectorEngine
from repro.telemetry import Telemetry
from repro.telemetry import export as export_mod
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.spans import INSTANT, Span
from repro.workloads.arrivals import PoissonProcess


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def collector_on():
    enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not enabled:
            gc.disable()


def collections(fn, *args, **kwargs) -> list[int]:
    """The generations of every collection that starts inside ``fn``."""
    started: list[int] = []

    def callback(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(callback)
    try:
        fn(*args, **kwargs)
    finally:
        gc.callbacks.remove(callback)
    return started


def _arrivals(workload, n=200, rps=180.0, seed=3):
    return workload.arrivals(n, PoissonProcess(rps), np.random.default_rng(seed))


class _FailingScheduler(FixedScheduler):
    """FIX-2 whose 50th arrival hook raises mid-run."""

    def __init__(self) -> None:
        super().__init__(2)
        self.arrived = 0

    def on_arrival(self, ctx, request) -> Admission:
        self.arrived += 1
        if self.arrived == 50:
            raise RuntimeError("hook failed")
        return super().on_arrival(ctx, request)


# ----------------------------------------------------------------------
# A finished run frees itself
# ----------------------------------------------------------------------
class TestEngineLifetime:
    def _dies_on_drop(self, engine: Engine, arrivals) -> None:
        ref = weakref.ref(engine)
        engine.run(arrivals)
        del engine
        assert ref() is None, "the finished engine is still alive (a reference cycle)"

    def test_per_request_loops(self, collector_off, tiny_workload):
        self._dies_on_drop(Engine(4, FixedScheduler(2)), _arrivals(tiny_workload))

    def test_run_ending_in_the_batch_kernels(self, collector_off, tiny_workload):
        self._dies_on_drop(VectorEngine(4, FixedScheduler(2)), _arrivals(tiny_workload))

    def test_topology_run(self, collector_off, tiny_workload):
        topology = Topology.big_little(big=2, little=2)
        self._dies_on_drop(
            Engine(4, HurryUpScheduler(), topology=topology), _arrivals(tiny_workload)
        )

    def test_fault_plan_run(self, collector_off, tiny_workload):
        plan = FaultPlan(
            core_faults=[CoreFault(time_ms=50.0, cores=2, duration_ms=100.0)],
            stalls=[StallFault(time_ms=80.0, duration_ms=40.0)],
        )
        self._dies_on_drop(
            Engine(4, FixedScheduler(2), fault_plan=plan), _arrivals(tiny_workload)
        )

    def test_streamed_run_with_telemetry_and_a_plane(self, collector_off, tiny_workload):
        telemetry = Telemetry()
        plane = LivePlane(window_ms=50.0, telemetry=telemetry)
        self._dies_on_drop(
            Engine(4, FixedScheduler(2), telemetry=telemetry, live=plane),
            iter(_arrivals(tiny_workload)),
        )

    def test_run_that_raises(self, collector_off, tiny_workload):
        engine = Engine(4, _FailingScheduler())
        ref = weakref.ref(engine)
        try:
            engine.run(_arrivals(tiny_workload))
        except RuntimeError:
            pass
        else:  # pragma: no cover - the hook always raises
            pytest.fail("the run did not raise")
        del engine
        assert ref() is None

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_warm_simulate_leaves_no_cyclic_garbage(
        self, collector_off, tiny_workload, vectorized
    ):
        arrivals = _arrivals(tiny_workload)
        simulate(arrivals, FixedScheduler(2), cores=4, vectorized=vectorized)
        gc.collect()
        telemetry = Telemetry()
        simulate(
            arrivals,
            FixedScheduler(2),
            cores=4,
            telemetry=telemetry,
            live=LivePlane(window_ms=50.0, telemetry=telemetry),
            vectorized=vectorized,
        )
        assert gc.collect() == 0


# ----------------------------------------------------------------------
# The trace round trip triggers no collection
# ----------------------------------------------------------------------
def _trace_spans(requests: int = 2600) -> list[Span]:
    """Queue and run spans with flight-recorder attrs, plus boost
    instants: ``2 * requests`` spans and a few more."""
    spans: list[Span] = []
    for lane in range(requests):
        arrival = lane * 1.5
        start = arrival + (lane % 7) * 0.25
        end = start + 3.0 + (lane % 11)
        attrs = {name: 0.5 + (lane % 5) for name in ATTRIBUTION_COMPONENTS}
        attrs.update(latency_ms=end - arrival, degree=2, boosted=lane % 3 == 0)
        spans.append(Span("queue", "sim", lane, 0, None, arrival, start, "span", {"wait": "e1"}))
        spans.append(Span("run", "sim", lane, 0, None, start, end, "span", attrs))
        if lane % 50 == 0:
            spans.append(Span("boost", "sim", lane, 0, None, start, start, INSTANT, {}))
    for span_id, span in enumerate(spans, 1):
        span.span_id = span_id
    return spans


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    telemetry = Telemetry()
    telemetry.tracer.spans = _trace_spans()
    telemetry.metrics.counter("sim.arrivals").inc(2600)
    path = write_chrome_trace(tmp_path_factory.mktemp("trace") / "trace.json", telemetry)
    return telemetry, path


class TestTraceRoundTripCollections:
    def test_write_triggers_no_collection(self, collector_on, traced, tmp_path):
        telemetry, _ = traced
        assert len(telemetry.tracer.spans) >= 5000
        assert collections(write_chrome_trace, tmp_path / "again.json", telemetry) == []

    def test_load_triggers_no_collection(self, collector_on, traced):
        _, path = traced
        assert collections(load_trace, path) == []

    def test_analyze_triggers_no_collection(self, collector_on, traced):
        _, path = traced
        spans = load_trace(path).spans
        assert len(spans) >= 5000
        assert collections(analyze_spans, spans, phi=0.99) == []


# ----------------------------------------------------------------------
# The pause leaves the collector as it found it
# ----------------------------------------------------------------------
def _empty_trace(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"traceEvents": []}))
    return path


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_round_trip_keeps_the_collector_state(self, traced, tmp_path, enabled):
        telemetry, path = traced
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            write_chrome_trace(tmp_path / "again.json", telemetry)
            assert gc.isenabled() is enabled
            spans = load_trace(path).spans
            assert gc.isenabled() is enabled
            analyze_spans(spans)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_raising_keeps_the_collector_state(
        self, tmp_path, monkeypatch, traced, enabled
    ):
        telemetry, _ = traced
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(ConfigurationError, match="no span events"):
                load_trace(_empty_trace(tmp_path))
            assert gc.isenabled() is enabled
            with pytest.raises(ConfigurationError, match="no request tracks"):
                analyze_spans([])
            assert gc.isenabled() is enabled

            events = export_mod._chrome_events

            def broken(spans):
                # Fail after more than one chunk has been written.
                for index, event in enumerate(events(spans)):
                    if index == 3 * export_mod._WRITE_EVENTS:
                        raise ValueError("unencodable")
                    yield event

            monkeypatch.setattr(export_mod, "_chrome_events", broken)
            directory = tmp_path / "out"
            directory.mkdir()
            with pytest.raises(ValueError, match="unencodable"):
                write_chrome_trace(directory / "never.json", telemetry)
            assert gc.isenabled() is enabled
            # The write is atomic: no partial trace, no temporary left.
            assert not (directory / "never.json").exists()
            assert list(directory.iterdir()) == []
        finally:
            (gc.enable if was else gc.disable)()
