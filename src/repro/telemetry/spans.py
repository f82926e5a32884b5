"""Span-based request tracing with parent/child links.

A :class:`Span` is one timed operation on a named *track* (the layer
that emitted it: ``"sim"``, ``"search"``, ``"runtime"``, ``"cluster"``)
and an integer *lane* within the track (request id, server id) — the
two axes Chrome's trace viewer renders as process and thread.  Spans
link to parents either explicitly (event-driven code like the simulator
passes timestamps and parents by hand) or implicitly through
``contextvars`` (lexically nested code like the search executor uses
:meth:`Tracer.span` and gets parentage for free, across threads and
asyncio tasks).

The :class:`Tracer` collects finished spans in memory; exporters in
:mod:`repro.telemetry.export` turn them into Chrome ``trace_event``
JSON, JSONL, or text.  :class:`NullTracer` implements the same surface
as no-ops so instrumented code needs no conditionals — though hot loops
(the simulator engine) guard on ``telemetry is None`` instead, which is
the truly zero-cost path.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ConfigurationError
from repro.telemetry.clock import Clock, WallClock

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: Kind tags: a ``span`` has duration; an ``instant`` is a point event.
SPAN = "span"
INSTANT = "instant"

#: The innermost open span of the current execution context, shared by
#: every tracer (only one telemetry pipeline is active at a time).
_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_current_span", default=None
)


@dataclass
class Span:
    """One traced operation (or point event, when ``kind == "instant"``)."""

    name: str
    track: str
    lane: int
    span_id: int
    parent_id: int | None
    start_ms: float
    end_ms: float | None = None
    kind: str = SPAN
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        """Span length; 0.0 while still open and for instants."""
        return (self.end_ms - self.start_ms) if self.end_ms is not None else 0.0

    @property
    def is_open(self) -> bool:
        return self.end_ms is None


class Tracer:
    """Creates, finishes, and stores spans.

    Appending finished spans to a list is atomic under the GIL, so the
    live runtime's worker threads may share one tracer without locks.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or WallClock()
        self.spans: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Core span lifecycle (event-driven callers: explicit timestamps)
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        track: str = "default",
        lane: int = 0,
        parent: Span | None = None,
        at_ms: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.  Without an explicit ``parent`` the innermost
        context-propagated span (if any) is used."""
        span_id, parent_id = self.reserve(parent)
        return Span(
            name=name,
            track=track,
            lane=lane,
            span_id=span_id,
            parent_id=parent_id,
            start_ms=self.clock.now_ms() if at_ms is None else float(at_ms),
            attrs=attrs,
        )

    def end(self, span: Span, at_ms: float | None = None, **attrs: Any) -> Span:
        """Close a span and record it."""
        if not span.is_open:
            raise ConfigurationError(f"span {span.span_id} already ended")
        span.end_ms = self.clock.now_ms() if at_ms is None else float(at_ms)
        if span.end_ms < span.start_ms:
            raise ConfigurationError(
                f"span {span.name!r} ends before it starts: "
                f"{span.end_ms} < {span.start_ms}"
            )
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        return span

    def reserve(self, parent: Span | None = None) -> tuple[int, int | None]:
        """Take the next span id, with the parent id a span opened now
        gets: ``parent``'s, else the innermost context-propagated
        span's.  A caller that builds a finished :class:`Span` itself
        (the simulator's run spans, built once at completion) stores it
        with :meth:`record`."""
        if parent is None:
            parent = _CURRENT_SPAN.get()
        span_id = self._next_id
        self._next_id += 1
        return span_id, parent.span_id if parent is not None else None

    def record(self, span: Span) -> Span:
        """Store a finished span the caller built (see :meth:`reserve`)."""
        self.spans.append(span)
        return span

    def complete(
        self,
        name: str,
        start_ms: float,
        end_ms: float,
        track: str = "default",
        lane: int = 0,
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span in one call (retroactive
        spans, e.g. "this request queued from t1 to t2")."""
        span = self.begin(
            name, track=track, lane=lane, parent=parent, at_ms=start_ms, **attrs
        )
        return self.end(span, at_ms=end_ms)

    def instant(
        self,
        name: str,
        track: str = "default",
        lane: int = 0,
        at_ms: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Record a point event (a decision, a boost, a shed)."""
        at = self.clock.now_ms() if at_ms is None else float(at_ms)
        span_id, parent_id = self.reserve()
        return self.record(
            Span(
                name=name,
                track=track,
                lane=lane,
                span_id=span_id,
                parent_id=parent_id,
                start_ms=at,
                end_ms=at,
                kind=INSTANT,
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------
    # Context-propagated nesting (lexical callers)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(
        self,
        name: str,
        track: str = "default",
        lane: int = 0,
        **attrs: Any,
    ) -> Iterator[Span]:
        """``with tracer.span("execute"):`` — opens a span, makes it the
        context parent for anything opened inside, closes it on exit."""
        opened = self.begin(name, track=track, lane=lane, **attrs)
        token = _CURRENT_SPAN.set(opened)
        try:
            yield opened
        finally:
            _CURRENT_SPAN.reset(token)
            self.end(opened)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def by_track(self, track: str) -> list[Span]:
        """Finished spans of one track, in completion order."""
        return [s for s in self.spans if s.track == track]

    def tracks(self) -> list[str]:
        """Every track that has at least one finished span."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        return list(seen)

    def reset(self) -> None:
        """Drop every recorded span."""
        self.spans.clear()


class NullTracer(Tracer):
    """A tracer that records nothing (the disabled pipeline).

    Returned spans are real objects (callers may set attrs on them) but
    never stored; ``spans`` stays empty.
    """

    def __init__(self) -> None:
        super().__init__(clock=_FROZEN_CLOCK)

    def end(self, span: Span, at_ms: float | None = None, **attrs: Any) -> Span:
        span.end_ms = span.start_ms if at_ms is None else float(at_ms)
        return span

    def record(self, span: Span) -> Span:
        return span

    def instant(
        self,
        name: str,
        track: str = "default",
        lane: int = 0,
        at_ms: float | None = None,
        **attrs: Any,
    ) -> Span:
        return Span(
            name=name,
            track=track,
            lane=lane,
            span_id=0,
            parent_id=None,
            start_ms=0.0,
            end_ms=0.0,
            kind=INSTANT,
        )


class _ZeroClock(Clock):
    """Clock of the null tracer: no syscalls, always zero."""

    def now_ms(self) -> float:
        return 0.0


_FROZEN_CLOCK = _ZeroClock()

#: Shared no-op tracer for disabled telemetry.
NULL_TRACER = NullTracer()
