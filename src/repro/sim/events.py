"""Typed events and the time-ordered event queue.

The engine is a discrete-event simulator: every state change is an
event ordered by ``(time, sequence)``.  The sequence number makes
ordering of simultaneous events deterministic (FIFO in insertion
order), which keeps whole simulations reproducible.  The engine's heap
holds quantum ticks, admission-delay expiries and faults; arrivals come
from a cursor and the one live tentative completion from a slot
(:mod:`repro.sim.engine`), which draws its sequence number from the
same counter (:attr:`EventQueue.sequence`).

Hot-path notes: heap entries are plain ``(time_ms, sequence, event)``
tuples — tuple comparison is C-level and the unique sequence number
guarantees the :class:`Event` payload itself is never compared — and
:class:`Event` is a ``__slots__`` class rather than a dataclass.
"""

from __future__ import annotations

import enum
import heapq
import itertools

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.Enum):
    """All event types the engine understands."""

    #: An arrival (the engine feeds arrivals from a cursor; the frozen
    #: reference engine, :mod:`repro.sim._baseline`, heaps them).
    ARRIVAL = "arrival"
    #: Expiry of an FM admission delay (``t0 > 0``).
    DELAY_EXPIRED = "delay_expired"
    #: Self-scheduling tick for one running request (Section 4.2).
    QUANTUM = "quantum"
    #: Tentative completion; ``generation`` stale-checks it (in the
    #: reference engine's heap; the engine keeps its live one in a slot).
    COMPLETION = "completion"
    #: An injected fault firing (core loss/restore, worker stall) —
    #: see :mod:`repro.faults`.
    FAULT = "fault"


class Event:
    """One scheduled occurrence.

    ``request_id`` identifies the subject for all kinds but COMPLETION,
    which instead carries the rate ``generation`` it was computed under:
    any later rate change invalidates it.  FAULT events carry their
    fault description in ``payload``.
    """

    __slots__ = ("kind", "request_id", "generation", "payload")

    def __init__(
        self,
        kind: EventKind,
        request_id: int = -1,
        generation: int = -1,
        payload: object = None,
    ) -> None:
        self.kind = kind
        self.request_id = request_id
        self.generation = generation
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event({self.kind.name}, request_id={self.request_id}, "
            f"generation={self.generation})"
        )


class EventQueue:
    """Deterministic min-heap of :class:`Event` keyed by time.

    The backing heap (:attr:`heap`) holds raw ``(time_ms, sequence,
    event)`` tuples and :attr:`sequence` draws the sequence numbers; the
    engine's run loop reads the heap and re-arms ticks through both
    directly, to skip a method call per event, and draws its completion
    slot's number from the same counter, so the slot orders against the
    heap exactly as a pushed event would.
    """

    __slots__ = ("heap", "sequence")

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, Event]] = []
        self.sequence = itertools.count()

    def push(self, time_ms: float, event: Event) -> None:
        """Schedule ``event`` at ``time_ms``."""
        if time_ms < 0:
            raise ValueError(f"event time must be >= 0, got {time_ms}")
        heapq.heappush(self.heap, (time_ms, next(self.sequence), event))

    def pop(self) -> tuple[float, Event]:
        """Remove and return the earliest ``(time, event)``."""
        time_ms, _, event = heapq.heappop(self.heap)
        return time_ms, event

    def peek_time(self) -> float | None:
        """Earliest scheduled time, or ``None`` when empty."""
        return self.heap[0][0] if self.heap else None

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)
