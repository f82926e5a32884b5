"""Shared measurement machinery: ops accounting, the timed pass loop,
set-up timing, process resources and the hardware record.

Every workload module drives its own passes through :class:`Ops` (so a
raised exception or a failed output check is one failed op, never a
crash) and reports each pass as a :class:`Pass`.  End-to-end timings
are means over all passes of one run (:func:`end_to_end`).
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
#: Scratch space for trace files, ledgers and span dumps, inside the
#: checkout the benchmark runs from.
WORK_DIR = Path.cwd() / ".perfbench-work"

DEFAULT_SEED = 42
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Iterations of the reference kernel, and its duration in seconds on
#: the nominal host (the faster of the two states the development
#: machine alternates between).  Every end-to-end timing is scaled by
#: ``NOMINAL_REFERENCE_S / mean measured kernel time`` of its run.
REFERENCE_LOOPS = 200_000
NOMINAL_REFERENCE_S = 0.015


class CheckFailed(Exception):
    """An output check rejected a result."""


@dataclass
class Ops:
    """Counts attempted and failed ops.  An op is one simulation cell or
    one analysis, ledger or diff step; it fails if it raises, which
    includes a failed output check."""

    attempted: int = 0
    failed: int = 0

    def run(self, label: str, fn: Callable, *args, **kwargs):
        """Run one op; returns its value, or ``None`` when it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the harness must keep running
            self.failed += 1
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            print(f"FAILED op {label}: {exc}", file=sys.stderr)
            return None

    def check(self, label: str, fn: Callable, *args) -> bool:
        """Run a stand-alone output check as its own op."""
        return self.run(label, lambda: fn(*args) or True) is not None


@dataclass
class Pass:
    """One execution of a workload's timed body."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Seconds inside simulation calls and the requests they completed
    #: or shed.
    sim_s: float = 0.0
    requests: int = 0
    #: Seconds spent in the pass's report step, over ``reports``
    #: executions of it.
    report_s: float = 0.0
    reports: int = 0
    #: Duration of the reference kernel timed just before the pass.
    reference_s: float = 0.0
    #: Seconds inside simulation calls, by engine path (``scalar`` /
    #: ``vector``), for the per-layer events/s.
    sim_s_by_engine: dict[str, float] = field(default_factory=dict)
    #: Cell label -> (digest, p99 ms): compared across passes and
    #: between the traced and untraced runs.
    digests: dict[str, tuple[str, float]] = field(default_factory=dict)
    #: Workload-specific by-products (report lines, span counts, sizes).
    extras: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def timed_pass(body: Callable[[], Pass]) -> Pass:
    """Run ``body`` once, filling in its wall and CPU seconds."""
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    result = body()
    result.wall_s = time.perf_counter() - started
    result.cpu_s = cpu_seconds() - cpu0
    return result


def mean_pass(a: Pass, b: Pass) -> Pass:
    """The average of two untraced passes of the same body."""
    return Pass(
        wall_s=(a.wall_s + b.wall_s) / 2,
        cpu_s=(a.cpu_s + b.cpu_s) / 2,
        sim_s=(a.sim_s + b.sim_s) / 2,
        requests=a.requests,
        report_s=(a.report_s + b.report_s) / 2,
        reports=a.reports,
        sim_s_by_engine={
            engine: (seconds + b.sim_s_by_engine[engine]) / 2
            for engine, seconds in a.sim_s_by_engine.items()
        },
        digests=a.digests,
        extras=a.extras,
    )


def reference_seconds() -> float:
    """Time a fixed pure-Python kernel that runs no program code: a
    probe of how fast the host runs the interpreter right now."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def measure_passes(body: Callable[[], Pass], ops: Ops, seconds: float) -> list[Pass]:
    """The timed loop: repeat ``body`` until ``seconds`` of wall time
    are spent (at least once), timing the reference kernel before each
    pass; every pass must reproduce the first pass's cell digests."""
    passes: list[Pass] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        reference = reference_seconds()
        passes.append(timed_pass(body))
        passes[-1].reference_s = reference
    for index, later in enumerate(passes[1:], 1):
        ops.check(f"pass {index} repeats pass 0", digests_agree,
                  passes[0].digests, later.digests, "repeat pass")
    return passes


def timed_report(result: Pass, step: Callable[[], object], repeats: int = 1):
    """Run a pass's report step ``repeats`` times, adding the time and
    the number of executions to ``result``; returns the last value.  A
    step of a few milliseconds is repeated so that each pass times it
    over a window long enough to span the host's second-scale swings in
    speed."""
    started = time.perf_counter()
    for _ in range(repeats):
        value = step()
    result.report_s += time.perf_counter() - started
    result.reports += repeats
    return value


def median(values) -> float:
    return float(statistics.median(list(values)))


def import_seconds(module: str) -> float:
    """Wall time to import a workload module (and with it the program)
    in a fresh interpreter; the child is waited for before returning."""
    code = (
        "import time\n"
        "started = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - started)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(module: str, build: Callable[[], tuple[object, dict]], repeats: int):
    """Set up ``repeats`` times; returns the last state, the median
    set-up seconds (import + build) and the median of each per-layer
    set-up timing the build reported."""
    totals: list[float] = []
    layers: dict[str, list[float]] = {}
    state = None
    for _ in range(repeats):
        imported = import_seconds(module)
        started = time.perf_counter()
        state, parts = build()
        totals.append(imported + time.perf_counter() - started)
        for name, value in parts.items():
            layers.setdefault(name, []).append(value)
    return state, median(totals), {k: median(v) for k, v in layers.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child
    (forked workers share the parent's pages, so the larger of the two
    bounds what the run held at once)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def nproc() -> int:
    """CPUs this process may run on (``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def hardware(workers: int) -> dict:
    """The hardware record printed with every run."""
    import numpy

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def host_scale(passes: list[Pass]) -> float:
    """``NOMINAL_REFERENCE_S`` over the run's mean reference-kernel
    time: the factor that converts this run's timings to the nominal
    host speed."""
    return NOMINAL_REFERENCE_S / (sum(p.reference_s for p in passes) / len(passes))


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run.

    Timings are means over the whole timed loop (total time over passes
    or executions), scaled by :func:`host_scale`.  The host this was
    built on alternates between two speeds, for seconds and for minutes
    at a time: a median of a few passes flips between the states, while
    the loop's mean, divided by the reference kernel's mean over the
    same loop, cancels them (see README.md, "Run-to-run spread").
    """
    scale = host_scale(passes)

    def per(field_name: str, base: float) -> float:
        total = sum(getattr(p, field_name) for p in passes)
        return total / base if base else 0.0  # 0 only when every op failed

    return {
        "wall_s": (per("wall_s", len(passes)) * scale, "s"),
        "sim_requests_per_s": (
            per("requests", sum(p.sim_s for p in passes)) / scale,
            "1/s",
        ),
        "report_s": (per("report_s", sum(p.reports for p in passes)) * scale, "s"),
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cpu_s": (per("cpu_s", len(passes)) * scale, "s"),
    }


def digests_agree(reference: dict, other: dict, what: str) -> None:
    """Raise unless two passes produced identical cell digests."""
    if reference != other:
        differing = sorted(
            label
            for label in set(reference) | set(other)
            if reference.get(label) != other.get(label)
        )
        raise CheckFailed(f"{what}: digests differ for {differing[:5]}")
