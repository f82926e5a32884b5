"""Structured event tracing for simulator runs.

A :class:`TraceRecorder` wraps any :class:`~repro.sim.api.Scheduler`
and records every decision the policy makes — admissions, delays,
queueing, sheds, degree changes, boosts, exits — with timestamps and
the load observed at each decision.  Traces make scheduler behaviour inspectable
("why did request 17 climb to degree 3 at t = 210 ms?"): a request's
decisions are the spans of its lane (``examples/request_timeline.py``).

The recorder is transparent: it forwards every hook to the wrapped
policy and never changes decisions.  Admissions are recorded when the
request starts (the ``on_start`` hook), so the starts the engine forces
— an ``e1`` request admitted at an exit, a ``wait_for_exit`` on an idle
system — get their ``admit`` too, at the request's ``start_ms``.

Decisions are recorded as *instant spans* on the ``"sim.sched"`` track
of a :class:`~repro.telemetry.Tracer` — the unified span model shared
with the engine's per-request spans, so a scheduler-decision trace
exports to Chrome/Perfetto and JSONL like everything else.  Each span
is named by its :class:`TraceEventKind` value, sits on the request's
lane and carries the observed ``load`` and a ``detail`` attr.  Pass a
:class:`~repro.telemetry.Telemetry` (or install one ambiently) to emit
into a shared pipeline; without one the recorder owns a private tracer.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.sim.api import Admission, AdmissionAction, Scheduler, SchedulerContext
from repro.sim.request import SimRequest
from repro.telemetry import Telemetry, Tracer, resolve_telemetry
from repro.telemetry.clock import ManualClock

__all__ = ["TraceEventKind", "TraceRecorder"]

#: Track name the recorder's decision instants live on.
SCHED_TRACK = "sim.sched"


class TraceEventKind(enum.Enum):
    """Decision points captured by the recorder; the values name its
    instant spans."""

    ADMIT = "admit"
    DELAY = "delay"
    QUEUE = "queue"
    #: A rejected request; its detail is ``deadline`` or ``backlog``.
    SHED = "shed"
    DEGREE_UP = "degree_up"
    BOOST = "boost"
    EXIT = "exit"


class TraceRecorder(Scheduler):
    """Transparent tracing wrapper around another scheduler."""

    def __init__(self, inner: Scheduler, telemetry: Telemetry | None = None) -> None:
        self.inner = inner
        self.uses_quantum = inner.uses_quantum
        self.name = f"trace({inner.name})"
        resolved = resolve_telemetry(telemetry)
        #: Whether the tracer is private (reset clears it wholesale) or
        #: shared with a wider pipeline (reset removes only our track).
        self._owns_tracer = resolved is None
        # Timestamps always come from the scheduler context, so a
        # private tracer needs no real clock.
        self.tracer: Tracer = (
            Tracer(clock=ManualClock()) if resolved is None else resolved.tracer
        )

    def reset(self) -> None:
        if self._owns_tracer:
            self.tracer.reset()
        else:
            self.tracer.spans[:] = [
                s for s in self.tracer.spans if s.track != SCHED_TRACK
            ]
        self.inner.reset()

    # ------------------------------------------------------------------
    def _emit(
        self,
        ctx: SchedulerContext,
        kind: TraceEventKind,
        request_id: int,
        detail: Any = None,
    ) -> None:
        self.tracer.instant(
            kind.value,
            track=SCHED_TRACK,
            lane=request_id,
            at_ms=ctx.now_ms,
            load=ctx.system_count,
            detail=detail,
        )

    def _record_admission(
        self, ctx: SchedulerContext, request: SimRequest, decision: Admission
    ) -> Admission:
        # A START is recorded by on_start, which every start reaches.
        action = decision.action
        if action is AdmissionAction.DELAY:
            self._emit(ctx, TraceEventKind.DELAY, request.rid, f"{decision.delay_ms:g}ms")
        elif action is AdmissionAction.WAIT_FOR_EXIT:
            self._emit(ctx, TraceEventKind.QUEUE, request.rid, "e1")
        elif action is AdmissionAction.SHED:
            detail = "deadline" if decision.deadline else "backlog"
            self._emit(ctx, TraceEventKind.SHED, request.rid, detail)
        return decision

    def on_arrival(self, ctx: SchedulerContext, request: SimRequest) -> Admission:
        return self._record_admission(ctx, request, self.inner.on_arrival(ctx, request))

    def on_wait_check(self, ctx: SchedulerContext, request: SimRequest) -> Admission:
        return self._record_admission(
            ctx, request, self.inner.on_wait_check(ctx, request)
        )

    def on_quantum(self, ctx: SchedulerContext, request: SimRequest) -> int:
        was_boosted = request.boosted
        desired = self.inner.on_quantum(ctx, request)
        if desired > request.degree:
            self._emit(
                ctx,
                TraceEventKind.DEGREE_UP,
                request.rid,
                f"d{request.degree}->d{desired}",
            )
        if request.boosted and not was_boosted:
            self._emit(ctx, TraceEventKind.BOOST, request.rid)
        return desired

    def tick_horizon(self, ctx: SchedulerContext, request: SimRequest) -> float:
        # A skipped tick changes nothing, so it would record nothing.
        return self.inner.tick_horizon(ctx, request)

    def on_start(self, ctx: SchedulerContext, request: SimRequest) -> None:
        self._emit(ctx, TraceEventKind.ADMIT, request.rid, f"d{request.degree}")
        self.inner.on_start(ctx, request)

    def on_exit(self, ctx: SchedulerContext, request: SimRequest) -> None:
        self._emit(
            ctx,
            TraceEventKind.EXIT,
            request.rid,
            f"latency={request.latency_ms:.1f}ms d{request.degree}",
        )
        self.inner.on_exit(ctx, request)
