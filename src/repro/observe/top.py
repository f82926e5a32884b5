"""``repro top`` — a live/replay dashboard over the observability plane.

Two modes:

* ``repro top --replay trace.json[.gz]`` rebuilds the live plane from
  an exported trace (:func:`repro.observe.live.replay_spans`) and
  renders per-window p99, attribution bars, controller mode, energy,
  and events — exactly what an operator would have seen live.  The
  attribution totals line matches ``repro analyze`` on the same trace
  to float residue (a tested contract).
* ``repro top --follow timeseries.jsonl[.gz]`` tails a window stream a
  running :class:`~repro.runtime.server.LiveFMServer` (or traced
  simulation) exports via
  :func:`repro.observe.timeseries.write_timeseries_jsonl`, re-rendering
  as new windows land.  ``--frames N`` bounds the refresh loop (N=1 =
  render once and exit, the CI smoke path); ``--interval`` sets the
  poll cadence.

``--json`` dumps the rendered windows as JSON instead of text, for
scripting either mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.errors import ConfigurationError
from repro.observe.timeseries import TimeseriesTailer, WindowSnapshot

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description=(
            "Live-tail or replay the observability plane: per-window "
            "p99, tail attribution bars, controller mode, energy, and "
            "anomaly/mode/fault events."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--replay",
        metavar="TRACE",
        default=None,
        help="rebuild the plane from a --trace export (.json/.jsonl, .gz ok)",
    )
    source.add_argument(
        "--follow",
        metavar="TS.jsonl",
        default=None,
        help="tail a window-snapshot JSONL stream as it grows (.gz ok)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=100.0,
        metavar="MS",
        help="replay window span in ms (default 100)",
    )
    parser.add_argument(
        "--track",
        default=None,
        help="replay: request track to follow (default: sim, else runtime)",
    )
    parser.add_argument(
        "--last",
        type=int,
        default=20,
        metavar="N",
        help="windows to render (default 20)",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=0,
        metavar="N",
        help="follow: refresh N times then exit (0 = until interrupted)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SEC",
        help="follow: poll cadence in seconds (default 1)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit windows as JSON instead of the text dashboard",
    )
    return parser


def _replay(args: argparse.Namespace) -> int:
    from repro.observe.analyze import load_trace
    from repro.observe.live import replay_spans

    trace = load_trace(args.replay)
    plane = replay_spans(trace.spans, window_ms=args.window, track=args.track)
    if args.json:
        payload = {
            "windows": [w.to_dict() for w in plane.windows()[-args.last :]],
            "attribution_totals_ms": dict(
                sorted(plane.attribution_totals().items())
            ),
            "events": [e.to_dict() for e in plane.events],
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(plane.render(last=args.last))
        anomalies = plane.anomalies()
        if anomalies:
            print(f"\n{len(anomalies)} anomaly flag(s):")
            for event in anomalies:
                detail = event.detail
                print(
                    f"  window {event.window:>4} @ {event.at_ms:>9.1f} ms  "
                    f"{detail.get('signal', '?'):<18} "
                    f"{'up' if detail.get('direction', 0) > 0 else 'down':<5} "
                    f"z={detail.get('z_score', float('nan')):.1f}"
                )
    return 0


def _render_follow_frame(windows: list[WindowSnapshot], last: int) -> str:
    lines = [
        f"{'win':>5}  {'span (ms)':>17}  {'latency p99 ms':>15}  "
        f"{'completions':>12}  counters"
    ]
    lines.append("-" * len(lines[0]))
    for window in windows[-last:]:
        p99 = float("nan")
        count = 0
        for name, histogram in window.histograms.items():
            if name.endswith("latency_ms"):
                p99 = histogram.percentile(0.99)
                count = histogram.count
                break
        busiest = sorted(
            window.counters.items(), key=lambda kv: (-kv[1], kv[0])
        )[:3]
        counters = " ".join(f"{name}={value}" for name, value in busiest)
        p99_cell = f"{p99:>15.2f}" if p99 == p99 else f"{'-':>15}"
        lines.append(
            f"{window.index:>5}  "
            f"{window.start_ms:>8.0f}-{window.end_ms:<8.0f} "
            f"{p99_cell}  {count:>12}  {counters}"
        )
    return "\n".join(lines)


def _follow(args: argparse.Namespace) -> int:
    path = Path(args.follow)
    frames = 0
    seen = -1
    # Tailed incrementally, plain or .gz: torn last lines and
    # half-written gzip members wait until the writer completes them.
    tailer = TimeseriesTailer(path)
    while True:
        tailer.poll()
        windows = tailer.windows
        if args.json:
            fresh = [w.to_dict() for w in windows if w.index > seen]
            if fresh:
                print(json.dumps(fresh, sort_keys=True))
        else:
            print(_render_follow_frame(windows, args.last))
        if windows:
            seen = max(seen, windows[-1].index)
        frames += 1
        if args.frames and frames >= args.frames:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.replay is not None:
            return _replay(args)
        return _follow(args)
    except (ConfigurationError, FileNotFoundError) as error:
        print(f"repro top: {error}")
        return 2
    except BrokenPipeError:
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
