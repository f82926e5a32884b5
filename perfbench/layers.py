"""Per-layer metrics and the layer-share table, derived from one traced
pass (spans and counts), the untraced pass it is compared against, the
cProfile shares and the workload's own extras."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from harness import Ops, Pass, digests_agree, mean_pass, timed_pass
from probes import HOOKS, Probes, SpanLog, stale_events


@dataclass
class TraceOutcome:
    """What a workload's traced run hands back."""

    untraced: Pass
    traced: Pass
    shares: dict[str, float]
    #: Workload-specific per-layer values (``name -> (value, unit)``).
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The base each extra ratio was computed from.
    bases: dict[str, str] = field(default_factory=dict)
    #: What the table's baseline was (untraced runs of the same body the
    #: traced pass ran).
    baseline: str = "mean of the untraced passes before and after the traced one"


def traced_pass(log: SpanLog, schedulers, body: Callable[[], Pass]) -> Pass:
    """Run ``body`` once with every probe installed, inside a
    ``bench.pass`` span; the probes are removed afterwards."""
    probes = Probes(log)
    probes.install(schedulers)
    pass_id = log.name_id("bench.pass")
    try:
        return timed_pass(lambda: log.call(pass_id, -1, body))
    finally:
        probes.remove()


def bracketed(log: SpanLog, schedulers, body: Callable[[], Pass], ops: Ops,
              *variants: Callable[[], Pass]) -> tuple[Pass, Pass, list[Pass]]:
    """An untraced pass, one pass per variant, the traced pass and a
    second untraced pass.  The untraced baseline is the mean of the two
    untraced passes, so a drift in host speed across the sequence
    cancels to first order.  Every pass must produce the same digests."""
    before = timed_pass(body)
    others = [timed_pass(variant) for variant in variants]
    traced = traced_pass(log, schedulers, body)
    after = timed_pass(body)
    for label, other in [("untraced repeat", after), ("traced", traced)] + [
        (f"variant {index}", other) for index, other in enumerate(others)
    ]:
        ops.check(f"{label} digests equal untraced", digests_agree,
                  before.digests, other.digests, label)
    return mean_pass(before, after), traced, others


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(log: SpanLog, outcome: TraceOutcome, setup: dict[str, float]):
    """Every per-layer metric, ``name -> (value, unit)``, plus the
    ratio bases the table prints next to them."""
    totals = log.totals()
    counts = log.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    untraced = outcome.untraced
    metrics: dict[str, tuple[float, str]] = {}
    bases: dict[str, str] = {}

    # -- workloads / core.search ---------------------------------------
    metrics["workloads.arrivals_s"] = (
        setup.get("workloads.arrivals_s", inclusive("workloads.arrivals")),
        "s",
    )
    metrics["workloads.requests"] = (
        setup.get("workloads.requests", counts.get("workloads.requests", 0)),
        "count",
    )
    metrics["core.search.build_s"] = (setup.get("core.search.build_s", 0.0), "s")
    metrics["core.search.tables"] = (setup.get("core.search.tables", 0), "count")

    # -- schedulers ----------------------------------------------------
    for hook in HOOKS:
        name = f"schedulers.{hook}"
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.s"] = (inclusive(name), "s")
    ticks = sum(counts.get(f"{k}.quantum_ticks", 0) for k in ("sim.engine", "sim.vector"))
    raises = sum(counts.get(f"{k}.quantum_raises", 0) for k in ("sim.engine", "sim.vector"))
    metrics["schedulers.quantum_raise_ratio"] = (_ratio(raises, ticks), "ratio")
    bases["schedulers.quantum_raise_ratio"] = f"{raises:.0f} raises / {ticks:.0f} ticks"

    # -- sim.engine (scalar) -------------------------------------------
    stale, drained = stale_events(counts, "sim.engine")
    scalar_sim_s = untraced.sim_s_by_engine.get("scalar", 0.0)
    metrics["sim.engine.run_s"] = (inclusive("sim.engine.run"), "s")
    metrics["sim.engine.self_s"] = (own("sim.engine.run"), "s")
    metrics["sim.engine.events"] = (drained, "count")
    metrics["sim.engine.events_per_s"] = (_ratio(drained - stale, scalar_sim_s), "1/s")
    bases["sim.engine.events_per_s"] = (
        f"{drained - stale:.0f} live events / {scalar_sim_s:.3f} s untraced"
    )
    metrics["sim.engine.stale_event_ratio"] = (_ratio(stale, drained), "ratio")
    bases["sim.engine.stale_event_ratio"] = f"{stale:.0f} stale / {drained:.0f} drained"
    system_ms = sum(counts.get(f"{k}.system_ms", 0.0) for k in ("sim.engine", "sim.vector"))
    duration_ms = sum(counts.get(f"{k}.duration_ms", 0.0) for k in ("sim.engine", "sim.vector"))
    metrics["sim.engine.mean_system_count"] = (_ratio(system_ms, duration_ms), "count")
    bases["sim.engine.mean_system_count"] = f"time-weighted over {duration_ms:.0f} virtual ms"
    for key in ("commit", "recompute", "dispatch"):
        metrics[f"sim.engine.{key}_share"] = (outcome.shares.get(key, 0.0), "ratio")
    metrics["sim.events.queue_share"] = (outcome.shares.get("queue", 0.0), "ratio")

    # -- sim.vector ----------------------------------------------------
    v_stale, v_drained = stale_events(counts, "sim.vector")
    vector_sim_s = untraced.sim_s_by_engine.get("vector", 0.0)
    metrics["sim.vector.run_s"] = (inclusive("sim.vector.run"), "s")
    metrics["sim.vector.events_per_s"] = (_ratio(v_drained - v_stale, vector_sim_s), "1/s")
    metrics["sim.vector.speedup_vs_scalar"] = (
        _ratio(scalar_sim_s, vector_sim_s) if vector_sim_s else 0.0,
        "ratio",
    )
    if vector_sim_s:
        bases["sim.vector.speedup_vs_scalar"] = (
            f"{scalar_sim_s:.3f} s scalar / {vector_sim_s:.3f} s vector, untraced"
        )

    # -- collectors ----------------------------------------------------
    for method in ("observe_interval", "record"):
        name = f"sim.metrics.{method}"
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.s"] = (inclusive(name), "s")
    metrics["sim.metrics.finalize_s"] = (inclusive("sim.metrics.finalize"), "s")
    metrics["sim.stream.record.calls"] = (calls("sim.stream.record"), "count")
    metrics["sim.stream.record.s"] = (inclusive("sim.stream.record"), "s")

    # -- telemetry / live plane (in-engine cost relative to the rest of
    #    the engine run) ---------------------------------------------
    engine_s = inclusive("sim.engine.run", "sim.vector.run")
    in_engine_telemetry = inclusive("telemetry.tracer", "telemetry.registry", "telemetry.metric")
    live_s = inclusive("observe.live.observe", "observe.live.flush", "observe.live.annotate")
    rest = engine_s - in_engine_telemetry - live_s
    metrics["telemetry.export_s"] = (inclusive("telemetry.export"), "s")
    metrics["telemetry.overhead_ratio"] = (_ratio(in_engine_telemetry, rest), "ratio")
    bases["telemetry.overhead_ratio"] = (
        f"{in_engine_telemetry:.3f} s in-engine telemetry / {rest:.3f} s other engine time"
    )
    metrics["observe.live.s"] = (live_s, "s")
    metrics["observe.live.overhead_ratio"] = (_ratio(live_s, rest), "ratio")
    bases["observe.live.overhead_ratio"] = (
        f"{live_s:.3f} s live plane / {rest:.3f} s other engine time"
    )

    # -- observe tools -------------------------------------------------
    load_s = inclusive("observe.analyze.load")
    analyze_s = inclusive("observe.analyze.analyze")
    metrics["observe.analyze.load_s"] = (load_s, "s")
    metrics["observe.analyze.analyze_s"] = (analyze_s, "s")
    spans = outcome.extras.get("telemetry.spans", (0, "count"))[0]
    metrics["observe.analyze.spans_per_s"] = (_ratio(spans, load_s + analyze_s), "1/s")
    metrics["observe.ledger.append_s"] = (
        inclusive("observe.ledger.entry", "observe.ledger.append"),
        "s",
    )
    metrics["observe.ledger.read_s"] = (inclusive("observe.ledger.read"), "s")
    metrics["observe.diff.s"] = (inclusive("observe.diff"), "s")

    # Defaults for the extras a workload may not have, then the extras.
    for name, unit in (
        ("sim.engine.attribution_overhead_ratio", "ratio"),
        ("sim.stream.peak_traced_mb", "MB"),
        ("parallel.workers", "count"),
        ("parallel.cpu_count", "count"),
        ("parallel.serial_s", "s"),
        ("parallel.pooled_s", "s"),
        ("parallel.efficiency", "ratio"),
        ("telemetry.spans", "count"),
        ("telemetry.trace_bytes", "bytes"),
        ("observe.live.windows", "count"),
        ("observe.ledger.entry_bytes", "bytes"),
    ):
        metrics[name] = (0, unit)
    metrics.update(outcome.extras)
    bases.update(outcome.bases)

    # -- the benchmark's own tracing -----------------------------------
    traced_wall = outcome.traced.wall_s
    untraced_wall = outcome.untraced.wall_s
    self_total = sum(log.layer_self_s().values())
    metrics["bench.untraced_wall_s"] = (untraced_wall, "s")
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.tracing_overhead_ratio"] = (
        _ratio(traced_wall - untraced_wall, untraced_wall),
        "ratio",
    )
    metrics["bench.layer_coverage"] = (_ratio(self_total, untraced_wall), "ratio")
    return metrics, bases


def render_table(workload: str, log: SpanLog, outcome: TraceOutcome, metrics, bases) -> str:
    """The layer-share table in the playbook form: the untraced pass is
    one unit; each layer's self time is a share of it."""
    untraced = outcome.untraced.wall_s
    traced = outcome.traced.wall_s
    layer_s = log.layer_self_s()
    accounted = sum(layer_s.values())
    overhead = traced - untraced
    lines = [
        f"## Layer shares: {workload}",
        "",
        f"- Baseline: {outcome.baseline} wall_s = {untraced:.3f} s = 1.00 unit (100%).",
        "",
        f"  {'layer':<18}{'self s':>10}{'share':>9}",
    ]
    for layer, seconds in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<18}{seconds:>10.4f}{100 * seconds / untraced:>8.1f}%")
    unattributed = traced - accounted
    lines.append(f"  {'(outside spans)':<18}{unattributed:>10.4f}{100 * unattributed / untraced:>8.1f}%")
    lines.append(f"  {'traced total':<18}{traced:>10.4f}{100 * traced / untraced:>8.1f}%")
    lines += [
        "",
        f"- Tracing overhead: {traced:.3f} s traced - {untraced:.3f} s untraced"
        f" = {overhead:+.3f} s ({100 * overhead / untraced:+.1f}% of wall_s)"
        + (": below the host's speed noise." if overhead < 0 else "."),
        f"- The layers' self times sum to {accounted:.3f} s: wall_s plus"
        f" {accounted - untraced:+.3f} s, against the overhead of {overhead:+.3f} s"
        f" ({unattributed:.4f} s of the traced pass fell outside every span).",
        "- Ratios, with their bases:",
    ]
    for name in sorted(bases):
        value = metrics[name][0]
        shown = "not measurable" if value is None else f"{value:.4g}"
        lines.append(f"  - {name} = {shown} ({bases[name]})")
    shares = outcome.shares
    if shares:
        lines.append(
            "- cProfile shares of time inside Engine.run: "
            + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())
        )
    return "\n".join(lines)
