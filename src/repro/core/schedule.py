"""Schedule representations for FM incremental parallelism (Section 4.1).

The paper uses two equivalent representations:

* **σ (sigma) form** — :class:`Schedule`: a list of ``(t_i, d_j)`` steps,
  "at load q_r, when a request reaches time t_i, execute it with
  parallelism degree d_j".  ``t_0`` may be the admission-control
  sentinel ``e1`` ("wait until another request exits").
* **S form** — :class:`IntervalSchedule`: ``{v0, v1, ..., v_{n-1}}``,
  "start the request at time v0 and add parallelism from d_i to d_{i+1}
  after interval v_{i+1}".  The final degree ``n`` runs to completion.

The offline search enumerates S-form schedules (Figure 7); the interval
table stores and displays σ form (Table 2).  Conversions here are exact
and lossless up to collapsing zero-length phases, mirroring the paper's
example ``σ = {(0, d1), (50, d3)}  ⇔  S = {0, 50, 0}`` for ``n = 3``.

Time convention: σ step times are measured **from request arrival**
(so ``t_i = v0 + v1 + ... + v_i``), matching Eq. (1)'s total-latency
accounting.  The online scheduler instead needs thresholds relative to
*execution* start, provided by :meth:`Schedule.progress_steps`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any

from repro.errors import InvalidScheduleError

__all__ = ["WAIT_FOR_EXIT", "ScheduleStep", "Schedule", "IntervalSchedule"]


class _WaitForExit:
    """Singleton sentinel for the ``e1`` admission-control marker."""

    _instance: "_WaitForExit | None" = None

    def __new__(cls) -> "_WaitForExit":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "e1"


#: The ``e1`` marker: a new request must wait until another exits.
WAIT_FOR_EXIT = _WaitForExit()

#: Slack of :meth:`Schedule.degree_at_progress`'s threshold test (ms).
_PROGRESS_SLACK = 1e-12


def _float_rank(x: float) -> int:
    """``x``'s position in float order, as an integer (both zeros are 0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _float_at_rank(rank: int) -> float:
    bits = rank if rank >= 0 else -rank | 1 << 63
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _least_progress(threshold: float) -> float:
    """The least float ``p`` with ``p + _PROGRESS_SLACK >= threshold``.

    Rounded addition is monotone, so the floats that pass are an upper
    set: bisect the float order between one that fails and
    ``threshold``, which passes.  (A walk by ulps would not end near
    zero, where floats crowd: every ``p`` below about 1e-28 in
    magnitude adds to exactly the slack.)
    """
    gap = max(_PROGRESS_SLACK, math.ulp(threshold))
    while threshold - gap + _PROGRESS_SLACK >= threshold:
        gap *= 2.0
    low, high = _float_rank(threshold - gap), _float_rank(threshold)
    while high - low > 1:
        mid = (low + high) // 2
        if _float_at_rank(mid) + _PROGRESS_SLACK >= threshold:
            high = mid
        else:
            low = mid
    return _float_at_rank(high)


@dataclass(frozen=True)
class ScheduleStep:
    """One σ entry: at arrival-relative time ``time_ms`` switch to
    ``degree`` worker threads."""

    time_ms: float
    degree: int

    def __post_init__(self) -> None:
        if self.time_ms < 0 or not math.isfinite(self.time_ms):
            raise InvalidScheduleError(f"step time must be finite and >= 0: {self}")
        if self.degree < 1:
            raise InvalidScheduleError(f"step degree must be >= 1: {self}")


class Schedule:
    """σ-form schedule: ordered degree steps plus optional admission control.

    Parameters
    ----------
    steps:
        Non-empty sequence of :class:`ScheduleStep` with strictly
        increasing times and strictly increasing degrees (the FM
        non-decreasing-parallelism property of Theorem 1).
    wait_for_exit:
        When True, the request may not start until another request
        leaves the system (``t0 = e1`` in the paper); the first step's
        time then counts from the moment admission is granted.
    """

    def __init__(
        self, steps: list[ScheduleStep] | tuple[ScheduleStep, ...],
        wait_for_exit: bool = False,
    ) -> None:
        if not steps:
            raise InvalidScheduleError("schedule needs at least one step")
        for prev, cur in zip(steps, steps[1:]):
            if cur.time_ms <= prev.time_ms:
                raise InvalidScheduleError(
                    f"step times must strictly increase: {prev} -> {cur}"
                )
            if cur.degree <= prev.degree:
                raise InvalidScheduleError(
                    f"degrees must strictly increase (few-to-many): {prev} -> {cur}"
                )
        self.steps: tuple[ScheduleStep, ...] = tuple(steps)
        self.wait_for_exit = bool(wait_for_exit)
        #: Per step, the least progress that reaches it (built on the
        #: first :meth:`raise_progress` call).
        self._reach: tuple[float, ...] | None = None

    @property
    def admission_delay_ms(self) -> float:
        """Arrival-to-start delay (``v0``); 0 when the request starts
        immediately.  Meaningless when :attr:`wait_for_exit` is set."""
        return self.steps[0].time_ms

    @property
    def initial_degree(self) -> int:
        """Parallelism degree the request starts executing with."""
        return self.steps[0].degree

    @property
    def max_degree(self) -> int:
        """Final (largest) parallelism degree of the schedule."""
        return self.steps[-1].degree

    def progress_steps(self) -> list[tuple[float, int]]:
        """Degree thresholds relative to *execution start*.

        Returns ``[(progress_ms, degree), ...]``: once a request has
        executed for ``progress_ms``, it should run with ``degree``
        threads.  The first entry is always ``(0.0, initial_degree)``.
        """
        start = self.admission_delay_ms
        return [(step.time_ms - start, step.degree) for step in self.steps]

    def degree_at_progress(self, progress_ms: float) -> int:
        """Degree a request should use after ``progress_ms`` of execution."""
        degree = self.steps[0].degree
        start = self.admission_delay_ms
        for step in self.steps:
            if step.time_ms - start <= progress_ms + _PROGRESS_SLACK:
                degree = step.degree
            else:
                break
        return degree

    def raise_progress(self, degree: int) -> float:
        """The least progress at which :meth:`degree_at_progress`
        returns more than ``degree``, exactly (``inf`` when no step
        does).  Step thresholds never decrease, so the steps a progress
        reaches are a prefix, and the degree rises past ``degree``
        exactly when the first step above it is reached; the first step
        applies at any progress."""
        reach = self._reach
        if reach is None:
            start = self.admission_delay_ms
            reach = self._reach = (-math.inf,) + tuple(
                _least_progress(step.time_ms - start) for step in self.steps[1:]
            )
        for step, progress in zip(self.steps, reach):
            if step.degree > degree:
                return progress
        return math.inf

    # ------------------------------------------------------------------
    def to_intervals(self, max_degree: int) -> "IntervalSchedule":
        """Convert to S form with ``n = max_degree`` (inverse of
        :meth:`IntervalSchedule.to_schedule`)."""
        if max_degree < self.max_degree:
            raise InvalidScheduleError(
                f"max_degree {max_degree} < schedule's top degree {self.max_degree}"
            )
        intervals = [0.0] * max_degree
        intervals[0] = 0.0 if self.wait_for_exit else self.admission_delay_ms
        for step, nxt in zip(self.steps, self.steps[1:]):
            # Phase at step.degree lasts until the next step; phases for
            # skipped degrees stay 0.
            intervals[step.degree] = nxt.time_ms - step.time_ms
        return IntervalSchedule(intervals, wait_for_exit=self.wait_for_exit)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation."""
        return {
            "wait_for_exit": self.wait_for_exit,
            "steps": [[step.time_ms, step.degree] for step in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Schedule":
        """Inverse of :meth:`to_dict`."""
        steps = [ScheduleStep(float(t), int(d)) for t, d in data["steps"]]
        return cls(steps, wait_for_exit=bool(data.get("wait_for_exit", False)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Schedule)
            and self.steps == other.steps
            and self.wait_for_exit == other.wait_for_exit
        )

    def __hash__(self) -> int:
        return hash((self.steps, self.wait_for_exit))

    def __repr__(self) -> str:
        parts = []
        for i, step in enumerate(self.steps):
            if self.wait_for_exit and i == 0:
                parts.append(f"(e1, d{step.degree})")
            else:
                parts.append(f"({step.time_ms:g}, d{step.degree})")
        return "Schedule{" + ", ".join(parts) + "}"

    def describe(self) -> str:
        """Human-readable one-liner in the paper's Table 2 style, e.g.
        ``"0, d1  50, d3"`` or ``"e1, d1  315, d2"``."""
        parts = []
        for i, step in enumerate(self.steps):
            time_txt = "e1" if (self.wait_for_exit and i == 0) else f"{step.time_ms:g}"
            parts.append(f"{time_txt}, d{step.degree}")
        return "  ".join(parts)


class IntervalSchedule:
    """S-form schedule: ``{v0, v1, ..., v_{n-1}}`` phase durations.

    ``v0`` is the admission delay; ``v_i`` (``1 <= i <= n-1``) is the
    time spent at degree ``i`` before stepping to degree ``i + 1``; the
    final degree ``n = len(intervals)`` runs until completion.  A zero
    ``v_i`` skips degree ``i`` entirely.
    """

    def __init__(
        self, intervals: list[float] | tuple[float, ...],
        wait_for_exit: bool = False,
    ) -> None:
        if not intervals:
            raise InvalidScheduleError("interval schedule needs at least v0")
        values = tuple(float(v) for v in intervals)
        for v in values:
            if v < 0 or not math.isfinite(v):
                raise InvalidScheduleError(f"intervals must be finite and >= 0: {values}")
        self.intervals: tuple[float, ...] = values
        self.wait_for_exit = bool(wait_for_exit)

    @property
    def v0(self) -> float:
        """Admission delay in milliseconds."""
        return self.intervals[0]

    @property
    def max_degree(self) -> int:
        """The schedule's final parallelism degree ``n``."""
        return len(self.intervals)

    def phase_duration(self, degree: int) -> float:
        """Time spent at ``degree`` before stepping up; ``inf`` for the
        final degree."""
        if not 1 <= degree <= self.max_degree:
            raise ValueError(f"degree must be in [1, {self.max_degree}]")
        if degree == self.max_degree:
            return math.inf
        return self.intervals[degree]

    def to_schedule(self) -> Schedule:
        """Convert to σ form, collapsing zero-length phases."""
        steps: list[ScheduleStep] = []
        t = 0.0 if self.wait_for_exit else self.v0
        n = self.max_degree
        for degree in range(1, n + 1):
            duration = self.intervals[degree] if degree < n else math.inf
            if duration > 0:
                steps.append(ScheduleStep(t, degree))
                if math.isfinite(duration):
                    t += duration
        return Schedule(steps, wait_for_exit=self.wait_for_exit)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation."""
        return {"wait_for_exit": self.wait_for_exit, "intervals": list(self.intervals)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IntervalSchedule":
        """Inverse of :meth:`to_dict`."""
        return cls([float(v) for v in data["intervals"]],
                   wait_for_exit=bool(data.get("wait_for_exit", False)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalSchedule)
            and self.intervals == other.intervals
            and self.wait_for_exit == other.wait_for_exit
        )

    def __hash__(self) -> int:
        return hash((self.intervals, self.wait_for_exit))

    def __repr__(self) -> str:
        head = "e1, " if self.wait_for_exit else ""
        return f"IntervalSchedule{{{head}{', '.join(f'{v:g}' for v in self.intervals)}}}"
