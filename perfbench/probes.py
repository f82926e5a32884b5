"""The benchmark's own tracing: spans recorded around calls into the
program's public functions, plus a cProfile pass.

Nothing in the program changes.  :class:`Probes` wraps, for the length
of one traced pass, the boundaries each layer exposes: ``Engine.run``,
the scheduler hooks, the collector methods the engine calls, the live
plane, the telemetry primitives the engine calls, the arrival
generators, the sharded-sweep entry and the observe tools.  A span
records its name, start, end, parent and the ``rid`` of the simulated
request it belongs to (``-1`` when none).  Spans stay in flat in-memory
arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import cProfile
import pstats
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

from repro.observe import analyze as analyze_mod
from repro.observe import diff as diff_mod
from repro.observe import ledger as ledger_mod
from repro.observe.live import LivePlane
from repro.parallel import shards as shards_mod
from repro.sim import engine as engine_mod
from repro.sim.api import AdmissionAction
from repro.sim.metrics import MetricsCollector
from repro.sim.request import RequestState
from repro.sim.stream import StreamingCollector
from repro.sim.vector import VectorEngine
from repro.telemetry import export as export_mod
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry
from repro.telemetry.spans import Tracer
from repro.workloads.workload import Workload

_MISSING = object()
_DELAY = AdmissionAction.DELAY
_DELAYED = RequestState.DELAYED
_QUEUED = RequestState.QUEUED

#: Span-name prefix -> layer, first match wins (the layer-share table's
#: rows).  ``sim.simulate`` is the public wrapper that builds an engine.
LAYER_OF_PREFIX = (
    ("sim.engine.", "sim.engine"),
    ("sim.simulate", "sim.engine"),
    ("sim.vector.", "sim.vector"),
    ("schedulers.", "schedulers"),
    ("sim.metrics.", "sim.metrics"),
    ("sim.stream.", "sim.stream"),
    ("parallel.", "parallel"),
    ("telemetry.", "telemetry"),
    ("observe.live.", "observe.live"),
    ("observe.analyze.", "observe.analyze"),
    ("observe.ledger.", "observe.ledger"),
    ("observe.diff", "observe.diff"),
    ("workloads.", "workloads"),
    ("core.search.", "core.search"),
    ("bench.", "bench"),
)

HOOKS = ("on_arrival", "on_quantum", "on_wait_check", "on_exit")


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    return name


class SpanLog:
    """Flat span arrays plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.rid = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        #: Name ids of engine-run spans: telemetry primitives are only
        #: attributed to the telemetry layer when the engine calls them.
        self.engine_ids: set[int] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, nid: int, rid: int, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` inside a span."""
        stack = self.stack
        index = len(self.start)
        self.start.append(0)
        self.end.append(0)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.rid.append(rid)
        stack.append(index)
        started = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter_ns()
            self.start[index] = started
            stack.pop()

    def in_engine(self) -> bool:
        return bool(self.stack) and self.name[self.stack[-1]] in self.engine_ids

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, inclusive s, self s)``.  Self time is the
        span's duration minus the durations of its direct children."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.int64) - start).astype(float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(start)
        )
        own = duration - children
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        inclusive = np.bincount(names, weights=duration, minlength=size)
        exclusive = np.bincount(names, weights=own, minlength=size)
        return {
            name: (int(calls[i]), inclusive[i] / 1e9, exclusive[i] / 1e9)
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, own) in self.totals().items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        """Write every span to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            rid=np.frombuffer(self.rid, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


class Probes:
    """Installs span wrappers at the layer boundaries; :meth:`remove`
    restores every patched attribute."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[object, str, object]] = []
        #: Per engine run: requests with a pending admission-delay timer
        #: (rid -> expiry) and the finish time of the last completion.
        self._delays: dict[int, float] = {}
        self._last_finish: float | None = None
        self._kind = "sim.engine"

    # -- generic patching ---------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def span(self, owner, attr: str, name: str, rid_arg: int | None = None,
             engine_only: bool = False) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.  ``rid_arg`` is
        the positional index of the request whose ``rid`` the span
        carries; a ``rid=`` keyword is used otherwise."""
        log = self.log
        nid = log.name_id(name)
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if engine_only and not log.in_engine():
                return original(*args, **kwargs)
            rid = kwargs.get("rid", -1)
            if rid_arg is not None and len(args) > rid_arg:
                rid = getattr(args[rid_arg], "rid", -1)
            return log.call(nid, rid, original, *args, **kwargs)

        self._set(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- installation ---------------------------------------------------
    def install(self, schedulers) -> None:
        """Wrap every boundary, plus the hooks of ``schedulers``."""
        self._engine_run()
        self._collectors()
        self._arrivals()
        for scheduler in schedulers:
            self._scheduler(scheduler)
        self.span(engine_mod, "simulate", "sim.simulate")
        self.span(shards_mod, "run_sharded_sweep", "parallel.sharded_sweep")
        for method in ("observe", "flush", "annotate"):
            self.span(LivePlane, method, f"observe.live.{method}")
        for method in ("begin", "end", "complete", "instant"):
            self.span(Tracer, method, "telemetry.tracer", engine_only=True)
        for method in ("counter", "gauge", "histogram"):
            self.span(MetricsRegistry, method, "telemetry.registry", engine_only=True)
        self.span(Counter, "inc", "telemetry.metric", engine_only=True)
        self.span(Gauge, "set", "telemetry.metric", engine_only=True)
        self.span(LogHistogram, "record", "telemetry.metric", engine_only=True)
        self.span(export_mod, "write_chrome_trace", "telemetry.export")
        self.span(analyze_mod, "load_trace", "observe.analyze.load")
        self.span(analyze_mod, "analyze_spans", "observe.analyze.analyze")
        self.span(ledger_mod, "entry_from_result", "observe.ledger.entry")
        self.span(ledger_mod, "entry_from_summary", "observe.ledger.entry")
        self.span(ledger_mod.RunLedger, "append", "observe.ledger.append")
        self.span(ledger_mod.RunLedger, "get", "observe.ledger.read")
        self.span(diff_mod, "diff_runs", "observe.diff")

    def _engine_run(self) -> None:
        log = self.log
        scalar = log.name_id("sim.engine.run")
        vector = log.name_id("sim.vector.run")
        log.engine_ids.update((scalar, vector))
        original = engine_mod.Engine.run

        def run(engine, arrivals):
            kind = "sim.vector" if isinstance(engine, VectorEngine) else "sim.engine"
            self._kind = kind
            self._delays = {}
            self._last_finish = None
            result = log.call(
                vector if kind == "sim.vector" else scalar, -1, original, engine, arrivals
            )
            log.count(f"{kind}.events", engine.events_processed)
            log.count(f"{kind}.system_ms", result.average_system_count() * result.duration_ms)
            log.count(f"{kind}.duration_ms", result.duration_ms)
            return result

        self._set(engine_mod.Engine, "run", run)

    def _collectors(self) -> None:
        log = self.log
        for cls, prefix in ((MetricsCollector, "sim.metrics"), (StreamingCollector, "sim.stream")):
            self.span(cls, "observe_interval", f"{prefix}.observe_interval")
            self.span(cls, "record_shed", f"{prefix}.record_shed", rid_arg=1)
            self.span(cls, "finalize", f"{prefix}.finalize")
            nid = log.name_id(f"{prefix}.record")
            original = cls.record

            def record(collector, request, _nid=nid, _original=original):
                # Requests finishing at one instant complete in one
                # event: count distinct finish times as live completions.
                if request.finish_ms != self._last_finish:
                    self._last_finish = request.finish_ms
                    log.count(f"{self._kind}.completion_events")
                return log.call(_nid, request.rid, _original, collector, request)

            self._set(cls, "record", record)

    def _arrivals(self) -> None:
        log = self.log
        nid = log.name_id("workloads.arrivals")
        batch = Workload.arrivals
        stream = Workload.arrival_stream

        def arrivals(workload, n, process, rng):
            specs = log.call(nid, -1, batch, workload, n, process, rng)
            log.count("workloads.requests", len(specs))
            return specs

        def arrival_stream(workload, *args, **kwargs):
            source = stream(workload, *args, **kwargs)

            def timed():
                while True:
                    spec = log.call(nid, -1, next, source, None)
                    if spec is None:
                        return
                    log.count("workloads.requests")
                    yield spec

            return timed()

        self._set(Workload, "arrivals", arrivals)
        self._set(Workload, "arrival_stream", arrival_stream)

    def _scheduler(self, scheduler) -> None:
        """Per-instance hook wrappers (``super()`` calls inside a policy
        stay unwrapped).  Besides the spans they count quantum ticks
        that raised a degree and admission-delay expiries that reached
        a hook, for the stale-event ratio."""
        log = self.log
        ids = {hook: log.name_id(f"schedulers.{hook}") for hook in HOOKS}
        on_arrival = scheduler.on_arrival
        on_quantum = scheduler.on_quantum
        on_wait_check = scheduler.on_wait_check
        on_exit = scheduler.on_exit

        def arrival(ctx, request):
            decision = log.call(ids["on_arrival"], request.rid, on_arrival, ctx, request)
            log.count(f"{self._kind}.arrivals")
            if decision.action is _DELAY and decision.delay_ms > 0:
                self._delays[request.rid] = ctx.now_ms + decision.delay_ms
            return decision

        def quantum(ctx, request):
            before = request.degree
            desired = log.call(ids["on_quantum"], request.rid, on_quantum, ctx, request)
            log.count(f"{self._kind}.quantum_ticks")
            if desired > before:
                log.count(f"{self._kind}.quantum_raises")
            return desired

        def wait_check(ctx, request):
            # The engine pushes a DELAY_EXPIRED event for every delay it
            # applies; the event reached a hook iff this call happens at
            # that expiry while the request still waits.
            state, now = request.state, ctx.now_ms
            expired = state is _DELAYED and self._delays.get(request.rid) == now
            if expired:
                del self._delays[request.rid]
                log.count(f"{self._kind}.delay_expiries")
            decision = log.call(
                ids["on_wait_check"], request.rid, on_wait_check, ctx, request
            )
            if (
                decision.action is _DELAY
                and decision.delay_ms > 0
                and (expired or state is _QUEUED)
            ):
                self._delays[request.rid] = now + decision.delay_ms
            return decision

        def exit_(ctx, request):
            return log.call(ids["on_exit"], request.rid, on_exit, ctx, request)

        for hook, wrapper in zip(HOOKS, (arrival, quantum, wait_check, exit_)):
            self._set(scheduler, hook, wrapper)


def stale_events(counts: dict[str, float], kind: str) -> tuple[float, float]:
    """``(stale, drained)`` events for one engine path: drained events
    that reached no scheduler hook and completed nothing."""
    drained = counts.get(f"{kind}.events", 0)
    live = sum(
        counts.get(f"{kind}.{key}", 0)
        for key in ("arrivals", "quantum_ticks", "completion_events", "delay_expiries")
    )
    return drained - live, drained


# ----------------------------------------------------------------------
# cProfile shares
# ----------------------------------------------------------------------
_ENGINE_FILES = ("sim/engine.py", "sim/vector.py")
_HEAP_BUILTINS = (
    "<built-in method _heapq.heappop>",
    "<built-in method _heapq.heappush>",
)


def profile_shares(body: Callable[[], object]) -> dict[str, float]:
    """Run ``body`` under cProfile; return the engine-internal shares of
    the time inside ``Engine.run``: commit, rate recompute, event
    dispatch (the run loop and the ``_handle_*`` handlers' own time)
    and the event queue (``sim.events`` plus the heap operations)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        body()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    run = commit = recompute = dispatch = queue = 0.0
    for (filename, _, function), (_, _, tottime, cumtime, _) in stats.items():
        filename = filename.replace("\\", "/")
        if filename.endswith(_ENGINE_FILES):
            if function == "run":
                run += cumtime
                dispatch += tottime
            elif function.startswith("_handle_"):
                dispatch += tottime
            elif function.startswith("_commit"):
                commit += cumtime
            elif function.startswith("_recompute_rates"):
                recompute += cumtime
        elif filename.endswith("sim/events.py"):
            queue += tottime
        elif function in _HEAP_BUILTINS:
            queue += tottime
    if run <= 0:
        return {"commit": 0.0, "recompute": 0.0, "dispatch": 0.0, "queue": 0.0}
    return {
        "commit": commit / run,
        "recompute": recompute / run,
        "dispatch": dispatch / run,
        "queue": queue / run,
    }
