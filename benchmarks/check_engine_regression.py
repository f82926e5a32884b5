"""CI gate: fail when engine events/sec regresses vs the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --quick --only engine \
        --engine-output bench_engine_new.json
    python benchmarks/check_engine_regression.py bench_engine_new.json

Two checks, two purposes:

1. **Cross-run**: the fresh report's single-process ``events_per_s``
   must be within ``--threshold`` (default 25%) of the committed
   ``BENCH_engine.json``.  Catches hot-path regressions, with enough
   slack to absorb runner-to-runner hardware variance.
2. **Same-machine**: the fresh report's ``speedup_vs_reference`` (the
   optimized engine vs the frozen ``repro.sim._baseline`` on the *same*
   host, same run) must stay >= ``--min-speedup`` (default 1.5).  This
   one is hardware-independent — if it decays, someone slowed the hot
   path relative to the vendored reference.

Plus the mega-sweep gates (DESIGN.md §14), all same-machine /
absolute so no baseline entry is needed:

3. ``mega.cell.vector_speedup`` and ``mega.cell.default_speedup`` >=
   ``--min-vector-speedup`` (default 3.0): on the overloaded FIX-4 cell
   where batching pays, both the vector engine (batch kernels
   throughout) and the default engine (batch kernels past its entry
   size) must stay >= 3x the loop-only engine.
4. ``mega.cell.max_abs_latency_diff_ms`` and
   ``mega.cell.default_max_abs_latency_diff_ms`` <= ``--max-vector-diff``
   (default 1e-9): neither may drift from the loops, and the default
   engine may not drift from the vector one (in practice every
   divergence is exactly 0.0).
5. ``mega.stream.peak_traced_mb`` <= ``--max-stream-peak-mb`` (default
   64): a streamed mega-run must hold O(running set) memory, not O(n).
6. ``mega.sharded.workers_identical`` must attest that the sharded
   sweep's merged summaries are bit-identical for any worker count.

Exit code 0 = pass, 1 = regression, 2 = bad input.
"""

from __future__ import annotations

from gatelib import (
    compare_to_baseline,
    fail,
    get_path,
    load_report_pair,
    make_parser,
    throughput_floor_check,
    verdict,
)


def main(argv: list[str] | None = None) -> int:
    parser = make_parser(__doc__, "BENCH_engine.json", threshold=0.25)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="min same-machine speedup vs the frozen reference engine",
    )
    parser.add_argument(
        "--min-vector-speedup",
        type=float,
        default=3.0,
        help="min same-machine batch-vs-loop-only speedup on the mega cell",
    )
    parser.add_argument(
        "--max-vector-diff",
        type=float,
        default=1e-9,
        help="max per-record latency divergence (ms) of the batch kernels",
    )
    parser.add_argument(
        "--max-stream-peak-mb",
        type=float,
        default=64.0,
        help="max traced peak memory (MiB) of the streamed mega-run",
    )
    args = parser.parse_args(argv)
    report, baseline = load_report_pair(args.report, args.baseline)

    fresh = float(
        get_path(report, args.report, "single_process", "events_per_s")
    )
    committed = float(
        get_path(baseline, args.baseline, "single_process", "events_per_s")
    )
    failed = throughput_floor_check("events/sec", fresh, committed, args.threshold, unit="")

    speedup = float(report["single_process"].get("speedup_vs_reference", 0.0))
    print(f"same-machine speedup vs frozen reference: {speedup:.2f}x")
    if speedup < args.min_speedup:
        failed = fail(
            f"speedup vs repro.sim._baseline fell to {speedup:.2f}x "
            f"(< {args.min_speedup:.2f}x)"
        )

    if not report["single_process"].get("bit_identical_to_reference", False):
        failed = fail("report does not attest bit-identity")

    for engine, speedup_key, diff_key in (
        ("vector", "vector_speedup", "max_abs_latency_diff_ms"),
        ("default", "default_speedup", "default_max_abs_latency_diff_ms"),
    ):
        speedup = float(get_path(report, args.report, "mega", "cell", speedup_key))
        print(f"{engine} engine speedup vs loop-only (mega cell): {speedup:.2f}x")
        if speedup < args.min_vector_speedup:
            failed = fail(
                f"{engine} engine speedup fell to {speedup:.2f}x "
                f"(< {args.min_vector_speedup:.2f}x)"
            )
        diff = float(get_path(report, args.report, "mega", "cell", diff_key))
        print(f"{engine} engine max per-record latency divergence: {diff:g} ms")
        if diff > args.max_vector_diff:
            failed = fail(
                f"{engine} engine diverges from the loops by {diff:g} ms "
                f"(> {args.max_vector_diff:g})"
            )

    stream_peak = float(
        get_path(report, args.report, "mega", "stream", "peak_traced_mb")
    )
    stream_n = get_path(report, args.report, "mega", "stream", "num_requests")
    print(f"streamed run peak memory: {stream_peak:.1f} MiB for {stream_n} requests")
    if stream_peak > args.max_stream_peak_mb:
        failed = fail(
            f"streamed mega-run peaked at {stream_peak:.1f} MiB "
            f"(> {args.max_stream_peak_mb:.0f} MiB) — memory is no "
            "longer O(running set)"
        )

    if not get_path(report, args.report, "mega", "sharded", "workers_identical"):
        failed = fail(
            "report does not attest sharded-sweep worker-count identity"
        )

    failed |= compare_to_baseline(report, baseline, label="engine run-over-run")

    return verdict(failed)


if __name__ == "__main__":
    raise SystemExit(main())
