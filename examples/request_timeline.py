"""Watch FM make its decisions: a traced request timeline.

Wraps the FM scheduler in a :class:`~repro.sim.trace.TraceRecorder` and
replays a short bursty trace, then prints (a) the full decision log of
the slowest request — when it was admitted, at what loads it climbed
each degree, whether it got boosted — and (b) a behavioural fingerprint
of the whole run (how many admissions were immediate vs delayed vs
queued, how many degree climbs and boosts happened).  Both read the
recorder's decision spans: one instant per decision on the
``sim.sched`` track, on the request's lane.

Run:  python examples/request_timeline.py
"""

from __future__ import annotations

from collections import Counter

from repro.core import SearchConfig, build_interval_table
from repro.experiments import run_policy
from repro.schedulers import FMScheduler
from repro.sim.trace import SCHED_TRACK, TraceRecorder
from repro.workloads import lucene
from repro.workloads.arrivals import PiecewiseRateProcess


def main() -> None:
    workload = lucene.lucene_workload(profile_size=3000)
    table = build_interval_table(
        workload.profile,
        SearchConfig(
            max_degree=lucene.MAX_DEGREE,
            target_parallelism=lucene.TARGET_PARALLELISM,
            step_ms=25.0,
            num_bins=40,
        ),
    )

    recorder = TraceRecorder(FMScheduler(table))
    # A burst (60 RPS) then calm (25 RPS): admissions and climbs under
    # pressure, aggressive parallelism once it clears.
    process = PiecewiseRateProcess([(60.0, 150), (25.0, 150)])
    result = run_policy(
        recorder, workload, rps=60.0, cores=lucene.CORES,
        num_requests=300, quantum_ms=lucene.QUANTUM_MS, seed=5,
        process=process, spin_fraction=lucene.SPIN_FRACTION,
    )

    slowest = max(result.records, key=lambda r: r.latency_ms)
    print(f"slowest request: r{slowest.rid}  "
          f"seq demand {slowest.seq_ms:.0f} ms, latency {slowest.latency_ms:.0f} ms, "
          f"final degree {slowest.final_degree}, boosted={slowest.boosted}")
    decisions = recorder.tracer.by_track(SCHED_TRACK)
    print("\nits decision timeline:")
    for span in decisions:
        if span.lane == slowest.rid:
            detail = span.attrs["detail"]
            print(f"  t={span.start_ms:9.2f}ms  q={span.attrs['load']:3d}  "
                  f"r{span.lane:<5d} {span.name}" + (f" {detail}" if detail else ""))

    print("\nrun fingerprint (event counts):")
    for name, count in sorted(Counter(span.name for span in decisions).items()):
        print(f"  {name:10s} {count}")

    print(f"\np99 latency {result.tail_latency_ms():.0f} ms, "
          f"avg threads {result.average_threads():.1f}, "
          f"CPU {100 * result.cpu_utilization():.0f}%")


if __name__ == "__main__":
    main()
