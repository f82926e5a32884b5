"""The live plane: windowing, exemplars, events, engine wiring, replay.

The replay-equivalence tests are the PR's headline contract: a plane
attached to a live engine run and a plane replayed from that run's
trace see the same windows, and ``repro top --replay``'s attribution
totals match ``repro analyze`` to 1e-6 ms.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.observe.slo as slo_mod
from repro.errors import ConfigurationError
from repro.experiments.config import QUICK, TINY
from repro.experiments.hetero_energy import CORES as HETERO_CORES
from repro.experiments.hetero_energy import big_little_topology
from repro.experiments.tables import bing_table, bing_table_for_capacity
from repro.hetero import Topology
from repro.observe.analyze import analyze_spans
from repro.observe.anomaly import ChangepointDetector
from repro.observe.live import LivePlane, events_from_spans, replay_spans
from repro.observe.slo import SLOMonitor, SLOTarget
from repro.schedulers import (
    EnergyAwareFMScheduler,
    FixedScheduler,
    FMScheduler,
    HurryUpScheduler,
)
from repro.sim.engine import Engine, simulate
from repro.sim.stream import StreamingCollector
from repro.telemetry import LogHistogram, MetricsRegistry, Telemetry, Tracer
from repro.workloads import bing as bing_mod
from repro.workloads.arrivals import PoissonProcess


def _observe_n(plane, n, window_ms=50.0, latency=10.0):
    for i in range(n):
        plane.observe(
            at_ms=i * window_ms / 4,
            latency_ms=latency,
            components={"queue_ms": 2.0, "service_ms": latency - 2.0},
            rid=i,
        )


class TestWindowing:
    def test_completions_partition_into_windows(self):
        plane = LivePlane(window_ms=50.0)
        _observe_n(plane, 20)
        plane.flush(20 * 12.5 + 50.0)
        windows = plane.windows()
        assert sum(w.count for w in windows) == 20
        assert [w.index for w in windows] == sorted(w.index for w in windows)

    def test_component_sums_are_additive(self):
        plane = LivePlane(window_ms=50.0)
        _observe_n(plane, 16, latency=8.0)
        plane.flush(1000.0)
        totals = plane.attribution_totals()
        assert totals["queue_ms"] == pytest.approx(32.0)
        assert totals["service_ms"] == pytest.approx(96.0)

    def test_window_p99_comes_from_the_slice(self):
        plane = LivePlane(window_ms=1000.0)
        for i in range(100):
            plane.observe(at_ms=float(i), latency_ms=1.0 + i)
        plane.flush(1000.0)
        (window,) = plane.windows()
        assert window.p99_ms == pytest.approx(100.0, rel=0.05)

    def test_ring_is_bounded(self):
        plane = LivePlane(window_ms=10.0, capacity=4)
        for i in range(200):
            plane.observe(at_ms=float(i), latency_ms=1.0)
        plane.flush(300.0)
        assert len(plane.windows()) == 4

    def test_out_of_order_annotation_does_not_roll_back(self):
        plane = LivePlane(window_ms=50.0)
        plane.observe(at_ms=120.0, latency_ms=1.0)
        event = plane.annotate(60.0, "fault", fault="stall")
        assert event.window == 1  # indexed where it happened

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LivePlane(window_ms=0.0)
        with pytest.raises(ConfigurationError):
            LivePlane(capacity=0)
        with pytest.raises(ConfigurationError):
            LivePlane(exemplars=-1)


class TestExemplars:
    def test_worst_k_survive(self):
        plane = LivePlane(window_ms=1000.0, exemplars=3)
        latencies = [5.0, 90.0, 12.0, 300.0, 7.0, 150.0]
        for i, latency in enumerate(latencies):
            plane.observe(at_ms=float(i), latency_ms=latency, rid=i)
        plane.flush(1000.0)
        (window,) = plane.windows()
        assert [e.latency_ms for e in window.exemplars] == [300.0, 150.0, 90.0]
        assert [e.rid for e in window.exemplars] == [3, 5, 1]

    def test_exemplar_links_components(self):
        plane = LivePlane(window_ms=1000.0, exemplars=1)
        plane.observe(
            at_ms=1.0,
            latency_ms=50.0,
            components={"queue_ms": 40.0, "service_ms": 10.0},
            rid=7,
        )
        plane.flush(1000.0)
        (window,) = plane.windows()
        assert window.exemplars[0].dominant_component() == "queue_ms"


class TestEventsAndAnomalies:
    def test_mode_transition_updates_window_mode(self):
        plane = LivePlane(window_ms=50.0)
        plane.observe(at_ms=10.0, latency_ms=1.0)
        plane.annotate(60.0, "mode_transition", from_mode="eager", to_mode="steady")
        plane.observe(at_ms=110.0, latency_ms=1.0)
        plane.flush(500.0)
        windows = plane.windows()
        assert windows[0].mode == ""
        assert windows[-1].mode == "steady"

    def test_latency_step_raises_anomaly_event(self):
        plane = LivePlane(
            window_ms=10.0,
            detector=ChangepointDetector(warmup=4, threshold=4.0),
        )
        for window in range(12):
            latency = 5.0 if window < 8 else 80.0
            for i in range(5):
                plane.observe(
                    at_ms=window * 10.0 + i, latency_ms=latency + 0.1 * i
                )
        plane.flush(200.0)
        anomalies = plane.anomalies()
        assert anomalies
        assert anomalies[0].detail["signal"] == "p99_ms"
        assert anomalies[0].window == 8
        # The flag also lands inside its window's event list.
        flagged = next(w for w in plane.windows() if w.index == 8)
        assert any(e.kind == "anomaly" for e in flagged.events)

    def test_slo_breach_column(self):
        slo = SLOMonitor(
            SLOTarget(percentile=0.5, threshold_ms=10.0),
            short_window_ms=100.0,
            long_window_ms=200.0,
            min_samples=3,
        )
        plane = LivePlane(window_ms=50.0, slo=slo)
        for i in range(20):
            plane.observe(at_ms=10.0 * i, latency_ms=50.0)
        plane.flush(400.0)
        assert any(w.breached for w in plane.windows())
        assert all(
            w.burn_rate >= 1.0 for w in plane.windows() if w.breached
        )


class _CountingCloses(LivePlane):
    """Counts the windows closed one by one and keeps each of them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.closed = []

    @property
    def closes(self):
        return len(self.closed)

    def _close_window(self, end_ms):
        super()._close_window(end_ms)
        self.closed.append(self._ring[-1])


class _OneByOne(_CountingCloses):
    """The plane as it rolled its grid before idle gaps were bounded:
    every window of a gap closed one at a time."""

    def advance(self, at_ms):
        if self._window_end is None:
            super().advance(at_ms)
            return
        while at_ms >= self._window_end:
            self._close_window(self._window_end)
            self._window_end += self.window_ms


def _gap_stream(window_ms, start_ms, capacity):
    """A script of plane calls: busy windows with breaches, a burst of
    annotations past the event list's prune bound, then idle gaps of
    ``2 * capacity + 5``, ``capacity // 2`` and ``10 * capacity``
    windows, each followed by more traffic, and a flush past one more
    gap.  Every registry write rolls the plane first, as the engine
    does."""
    rng = np.random.default_rng(3)
    steps = []
    t = start_ms
    for gap in (0, 2 * capacity + 5, capacity // 2, 10 * capacity):
        t += gap * window_ms
        for i in range(60):
            t += float(rng.exponential(window_ms / 6))
            latency = float(rng.lognormal(3.0, 0.9)) * (4.0 if i > 40 else 1.0)
            steps.append(("write", t, latency))
            steps.append(("observe", t, latency, i))
        if gap == 0:
            steps.extend(("annotate", t, j) for j in range(2 * capacity + 20))
    steps.append(("flush", t + (3 * capacity + 7) * window_ms))
    return steps


def _drive(plane, telemetry, steps):
    for step in steps:
        kind, at = step[0], step[1]
        if kind == "write":
            plane.advance(at)
            telemetry.metrics.counter("test.arrivals").inc()
            telemetry.metrics.histogram("test.latency_ms").record(step[2])
        elif kind == "observe":
            plane.observe(
                at_ms=at,
                latency_ms=step[2],
                components={"queue_ms": 1.0, "service_ms": step[2]},
                energy_j=0.5,
                pool="big" if step[3] % 3 else "little",
                rid=step[3],
            )
        elif kind == "annotate":
            plane.annotate(at, "fault", fault="stall", rid=step[2])
        else:
            plane.flush(at)


class TestIdleGaps:
    """An idle gap costs one float addition per window plus closing the
    windows the rings keep, and its windows are those of one-by-one
    closes."""

    @pytest.mark.parametrize(
        ("window_ms", "anchor_ms", "start_ms"),
        [(50.0, 0.0, 0.0), (0.7, None, 1234.5678)],
        ids=["exact-grid", "rounded-grid"],
    )
    def test_gaps_close_as_one_by_one(self, window_ms, anchor_ms, start_ms):
        capacity = 8
        steps = _gap_stream(window_ms, start_ms, capacity)
        planes = []
        for cls in (_OneByOne, _CountingCloses):
            telemetry = Telemetry()
            slo = SLOMonitor(
                SLOTarget(percentile=0.9, threshold_ms=40.0),
                short_window_ms=2 * window_ms,
                long_window_ms=6 * window_ms,
                min_samples=3,
            )
            plane = cls(
                window_ms=window_ms,
                capacity=capacity,
                anchor_ms=anchor_ms,
                slo=slo,
                detector=ChangepointDetector(warmup=3, threshold=2.0),
                telemetry=telemetry,
            )
            _drive(plane, telemetry, steps)
            planes.append(plane)
        reference, bounded = planes

        def view(plane):
            return (
                repr([w.to_dict() for w in plane.windows()]),
                [w.latency.state() for w in plane.windows()],
                [e.as_tuple() for e in plane.events],
                [e.as_tuple() for e in plane.anomalies()],
                repr([s.to_dict() for s in plane.window_snapshots()]),
                [s.state() for s in plane.window_snapshots()],
                repr(plane.slo.status().as_dict()),
                plane.window_end_ms,
            )

        assert view(bounded) == view(reference)
        assert any(w.breached for w in reference.closed)
        assert reference.anomalies()
        # The last gap alone spans the ring ten times: the bounded plane
        # closed one by one only the windows while the SLO monitor
        # drained, and closed at most a ring of the rest.
        assert bounded.closes <= reference.closes - 9 * capacity

    def test_a_day_idle_costs_a_ring(self):
        """One observation, then a day of 50 ms windows: about 1.7 M
        windows to roll, of which only the first and the ring close."""
        plane = _CountingCloses(window_ms=50.0, capacity=16, telemetry=Telemetry())
        plane.observe(at_ms=10.0, latency_ms=5.0)
        plane.observe(at_ms=86_400_000.0, latency_ms=7.0)
        windows = plane.windows()
        assert plane.closes == 1 + 16
        assert len(windows) == 16
        assert windows[-1].end_ms == 86_400_000.0
        assert [w.index for w in windows] == list(range(1_727_984, 1_728_000))
        assert len(plane.window_snapshots()) == 16


class _PerCompletion(LivePlane):
    """The plane as it took completions before ``observe_many``: every
    accumulator updated once per completion."""

    def observe(self, at_ms, latency_ms, components=None, energy_j=0.0, pool="", rid=-1):
        self.advance(at_ms)
        if self.slo is not None and self.feed_slo:
            self.slo.observe(latency_ms, at_ms=at_ms)
        self._count += 1
        self._latency.record(latency_ms)
        if components:
            sums = self._component_sums
            for name, value in components.items():
                sums[name] = sums.get(name, 0.0) + value
        if energy_j:
            key = pool or "total"
            self._energy[key] = self._energy.get(key, 0.0) + energy_j
        if self.exemplar_k and (
            len(self._exemplars) < self.exemplar_k
            or latency_ms > self._exemplar_floor
        ):
            self._reserve_exemplar(rid, latency_ms, components, energy_j, pool)


class TestObserveMany:
    def test_columns_feed_the_plane_as_single_completions(self):
        """``observe_many`` over columns that cross windows, and
        ``observe`` over one row, give the windows, exemplars, events
        and SLO state of a plane that updates every accumulator per
        completion.  Latencies are multiples of 5 ms, so exemplars
        tie."""
        rng = np.random.default_rng(9)
        n = 400
        at = np.cumsum(rng.exponential(3.0, size=n)).tolist()
        latency = (5.0 * np.round(rng.lognormal(1.5, 1.0, size=n))).tolist()
        components = {
            "queue_ms": rng.exponential(2.0, size=n).tolist(),
            "service_ms": rng.exponential(9.0, size=n).tolist(),
        }
        energy = [0.0 if i % 7 == 0 else 0.25 * (i % 5) for i in range(n)]
        pools = ["" if i % 4 == 0 else "big" if i % 2 else "little" for i in range(n)]
        rids = list(range(n))
        views = []
        for cls, batched in ((_PerCompletion, False), (LivePlane, False), (LivePlane, True)):
            plane = cls(
                window_ms=40.0,
                capacity=64,
                slo=SLOMonitor(SLOTarget(0.9, 60.0), 80.0, 200.0, min_samples=3),
                exemplars=4,
            )
            if batched:
                for lo in range(0, n, 37):
                    hi = lo + 37
                    plane.observe_many(
                        at[lo:hi],
                        latency[lo:hi],
                        {k: v[lo:hi] for k, v in components.items()},
                        energy[lo:hi],
                        pools[lo:hi],
                        rids[lo:hi],
                    )
            else:
                for i in range(n):
                    plane.observe(
                        at_ms=at[i],
                        latency_ms=latency[i],
                        components={k: v[i] for k, v in components.items()},
                        energy_j=energy[i],
                        pool=pools[i],
                        rid=rids[i],
                    )
            plane.flush(at[-1] + 40.0)
            assert len(plane.windows()) > 20
            views.append(
                (
                    repr([w.to_dict() for w in plane.windows()]),
                    [w.latency.state() for w in plane.windows()],
                    [
                        (e.rid, e.latency_ms, e.components, e.energy_j, e.pool)
                        for w in plane.windows()
                        for e in w.exemplars
                    ],
                    [e.as_tuple() for e in plane.events],
                    repr(plane.slo.status().as_dict()),
                )
            )
        reference, single, batched = views
        assert single == reference
        assert batched == reference


class TestEngineWiring:
    def _arrivals(self, tiny_workload, n=120, rps=200.0, seed=11):
        rng = np.random.default_rng(seed)
        return tiny_workload.arrivals(n, PoissonProcess(rps), rng)

    def test_live_plane_sees_every_completion(self, tiny_workload):
        plane = LivePlane(window_ms=100.0, capacity=4096)
        result = simulate(
            self._arrivals(tiny_workload),
            FixedScheduler(2),
            cores=4,
            live=plane,
        )
        assert sum(w.count for w in plane.windows()) == len(result.records)
        totals = plane.attribution_totals()
        for component in ("queue_ms", "service_ms", "contention_ms"):
            want = sum(r.attribution()[component] for r in result.records)
            assert totals.get(component, 0.0) == pytest.approx(want, abs=1e-9)

    def test_faults_become_events(self, tiny_workload):
        from repro.faults.plan import CoreFault, FaultPlan, StallFault

        plan = FaultPlan(
            core_faults=[CoreFault(time_ms=50.0, cores=2, duration_ms=100.0)],
            stalls=[StallFault(time_ms=80.0, duration_ms=40.0)],
        )
        plane = LivePlane(window_ms=100.0, capacity=4096)
        simulate(
            self._arrivals(tiny_workload),
            FixedScheduler(2),
            cores=4,
            fault_plan=plan,
            live=plane,
        )
        kinds = {e.detail.get("fault") for e in plane.events if e.kind == "fault"}
        assert "core_loss" in kinds
        assert "core_restore" in kinds

    def test_plane_does_not_perturb_the_simulation(self, tiny_workload):
        """Bit-identical results with and without a plane attached."""
        bare = simulate(self._arrivals(tiny_workload), FixedScheduler(2), cores=4)
        plane = LivePlane(window_ms=100.0, capacity=4096)
        observed = simulate(
            self._arrivals(tiny_workload), FixedScheduler(2), cores=4, live=plane
        )
        assert [r.finish_ms for r in bare.records] == [
            r.finish_ms for r in observed.records
        ]

    @pytest.mark.parametrize("placement", ["homogeneous", "big_little"])
    def test_streaming_collector_feeds_the_same_windows(
        self, tiny_workload, placement
    ):
        """A plane on a streamed run, whose collector keeps no records,
        sees exactly the windows of a full-record run."""
        arrivals = self._arrivals(tiny_workload)
        if placement == "big_little":
            scheduler, topology = HurryUpScheduler, Topology.big_little(big=2, little=2)
        else:
            scheduler, topology = lambda: FixedScheduler(2), None
        runs = []
        for streamed in (False, True):
            plane = LivePlane(window_ms=100.0, capacity=4096, exemplars=4)
            result = Engine(
                4, scheduler(), topology=topology, live=plane,
                collector=StreamingCollector(4) if streamed else None,
            ).run(iter(arrivals) if streamed else arrivals)
            runs.append(plane.windows())
            if not streamed:
                records = {record.rid: record for record in result.records}
        full, streamed = (
            [(repr(w.to_dict()), w.latency.state()) for w in windows]
            for windows in runs
        )
        assert streamed == full
        # The exemplars carry a completion's floats as fed: its record's.
        exemplars = [e for window in runs[0] for e in window.exemplars]
        assert exemplars
        for exemplar in exemplars:
            record = records[exemplar.rid]
            assert exemplar.latency_ms == record.latency_ms
            assert exemplar.components == record.attribution()
            assert exemplar.energy_j == record.energy_j
            if topology is not None:
                assert exemplar.energy_j > 0.0
                assert exemplar.pool == topology[record.pool].name


class TestRegistryWindows:
    """With telemetry and a plane attached, each registry window holds
    exactly the engine's writes made inside it: the engine rolls the
    plane's grid before every registry write, not only at completions."""

    @pytest.mark.parametrize("placement", ["homogeneous", "big_little"])
    def test_windows_hold_the_writes_made_inside_them(
        self, tiny_workload, small_table, placement
    ):
        rng = np.random.default_rng(5)
        arrivals = tiny_workload.arrivals(300, PoissonProcess(220.0), rng)
        if placement == "big_little":
            scheduler, topology = HurryUpScheduler(), Topology.big_little(big=2, little=2)
        else:
            scheduler, topology = FMScheduler(small_table), None
        telemetry = Telemetry()
        plane = LivePlane(window_ms=50.0, capacity=4096, telemetry=telemetry)
        result = Engine(4, scheduler, topology=topology, telemetry=telemetry, live=plane).run(
            arrivals
        )
        snapshots = plane.window_snapshots()
        live = plane.windows()
        assert [s.index for s in snapshots] == [w.index for w in live]
        assert len(snapshots) > 10
        records = result.records
        for snapshot, window in zip(snapshots, live):
            start, end = snapshot.start_ms, snapshot.end_ms
            arrived = sum(1 for r in records if start <= r.arrival_ms < end)
            finished = sum(1 for r in records if start <= r.finish_ms < end)
            assert snapshot.counters.get("sim.arrivals", 0) == arrived, snapshot.index
            assert snapshot.counters.get("sim.completions", 0) == finished, snapshot.index
            assert window.count == finished
            latency = snapshot.histograms.get("sim.latency_ms")
            if latency is None:
                assert window.count == 0
                continue
            sliced, observed = latency.dump_state(), window.latency.dump_state()
            for key in ("buckets", "zero_count", "count"):
                assert sliced[key] == observed[key], (snapshot.index, key)
        assert sum(s.counters.get("sim.arrivals", 0) for s in snapshots) == len(records)


class TestReplay:
    def _traced_run(self, workload, table, cores=4, **machine):
        telemetry = Telemetry()
        rng = np.random.default_rng(23)
        arrivals = workload.arrivals(150, PoissonProcess(250.0), rng)
        plane = LivePlane(window_ms=100.0, capacity=4096)
        result = simulate(
            arrivals,
            FMScheduler(table),
            cores=cores,
            telemetry=telemetry,
            live=plane,
            **machine,
        )
        return telemetry, plane, result

    def test_replay_matches_live_windows(self, tiny_workload, small_table):
        telemetry, live, _ = self._traced_run(tiny_workload, small_table)
        replayed = replay_spans(telemetry.tracer.spans, window_ms=100.0)
        live_windows = {w.index: w for w in live.windows()}
        replay_windows = {w.index: w for w in replayed.windows()}
        busy = {i for i, w in live_windows.items() if w.count}
        assert busy == {i for i, w in replay_windows.items() if w.count}
        for index in busy:
            assert replay_windows[index].count == live_windows[index].count
            for component, value in live_windows[index].components.items():
                assert replay_windows[index].components[
                    component
                ] == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("cell", ["small", "bing-tiny"])
    def test_replay_totals_match_analyze_to_1e6(
        self, tiny_workload, small_table, cell
    ):
        if cell == "small":
            telemetry, _, _ = self._traced_run(tiny_workload, small_table)
        else:
            telemetry, _, _ = self._traced_run(
                bing_mod.bing_workload(profile_size=TINY.profile_size),
                bing_table(TINY),
                cores=bing_mod.CORES,
                quantum_ms=bing_mod.QUANTUM_MS,
                spin_fraction=bing_mod.SPIN_FRACTION,
            )
        spans = telemetry.tracer.spans
        plane = replay_spans(spans)
        report = analyze_spans(spans, phi=0.99)
        track = report.tracks["sim"]
        totals = plane.attribution_totals()
        for component, entry in track.components.items():
            want = entry["overall_mean_ms"] * track.count
            assert abs(totals[component] - want) < 1e-6

    def test_events_round_trip_through_spans(self, tiny_workload, small_table):
        telemetry = Telemetry()
        telemetry.tracer.instant(
            "observe.event",
            track="observe",
            at_ms=42.0,
            kind="mode_transition",
            from_mode="eager",
            to_mode="steady",
        )
        events = events_from_spans(telemetry.tracer.spans)
        assert len(events) == 1
        assert events[0].kind == "mode_transition"
        assert events[0].detail["to_mode"] == "steady"

    def test_replay_rederives_anomalies_instead_of_echoing(self):
        """Recorded anomaly instants are skipped on replay — the
        detector re-runs, so flags appear exactly once."""
        telemetry = Telemetry()
        tracer = telemetry.tracer
        for i in range(60):
            latency = 5.0 if i < 40 else 90.0
            start = 10.0 * i
            tracer.complete(
                "run",
                start,
                start + latency,
                track="sim",
                lane=i,
                latency_ms=latency,
                service_ms=latency,
                queue_ms=0.0,
                contention_ms=0.0,
                boost_wait_ms=0.0,
                stall_ms=0.0,
            )
        tracer.instant(
            "observe.event",
            track="observe",
            at_ms=410.0,
            kind="anomaly",
            signal="p99_ms",
            direction=1,
        )
        plane = replay_spans(
            telemetry.tracer.spans,
            window_ms=50.0,
            detector=ChangepointDetector(warmup=3, threshold=4.0),
        )
        anomalies = plane.anomalies()
        # One re-derived upward flag; the recorded instant is not echoed.
        up = [e for e in anomalies if e.detail.get("direction") == 1]
        assert len(up) == 1

    def test_empty_trace_refuses_replay(self):
        with pytest.raises(ConfigurationError):
            replay_spans([])

    def test_render_smoke(self, tiny_workload, small_table):
        _, plane, _ = self._traced_run(tiny_workload, small_table)
        text = plane.render()
        assert "attribution" in text
        assert "bar legend" in text


class TestWorkGate:
    """Counts, not times, so a plane that rescans its history per
    window or per completion fails on every host."""

    def test_closed_windows_take_no_full_histogram_scan(self, monkeypatch):
        """An armed plane (SLO, detector, registry windows) on FM's
        QUICK Bing table, 1000 requests at 180 RPS: each closed window
        slices the registry against the snapshot taken at the window
        before, which reads only the buckets written since, and polls
        the SLO monitor's two windows at most twice."""
        scans, sorts = [], []
        scan = LogHistogram._scanned_deltas
        monkeypatch.setattr(
            LogHistogram,
            "_scanned_deltas",
            lambda self, previous: scans.append(1) or scan(self, previous),
        )
        monkeypatch.setattr(
            slo_mod, "sorted", lambda values: sorts.append(1) or sorted(values),
            raising=False,
        )
        workload = bing_mod.bing_workload(profile_size=QUICK.profile_size)
        arrivals = workload.arrivals(
            1000, PoissonProcess(180.0), np.random.default_rng(23)
        )
        telemetry = Telemetry()
        plane = LivePlane(
            window_ms=100.0,
            capacity=4096,
            slo=SLOMonitor(
                SLOTarget(percentile=0.99, threshold_ms=120.0),
                short_window_ms=200.0,
                long_window_ms=800.0,
                min_samples=20,
            ),
            detector=ChangepointDetector(warmup=4, threshold=3.5),
            telemetry=telemetry,
        )
        Engine(
            cores=bing_mod.CORES,
            scheduler=FMScheduler(bing_table(QUICK)),
            quantum_ms=bing_mod.QUANTUM_MS,
            spin_fraction=bing_mod.SPIN_FRACTION,
            telemetry=telemetry,
            live=plane,
        ).run(arrivals)
        windows = len(plane.windows())
        assert windows == len(plane.window_snapshots()) > 50
        assert scans == []
        assert len(sorts) <= 4 * windows

    def test_completions_reach_the_observers_in_batches(self, monkeypatch):
        """A big/little EA-FM run with telemetry and a plane attached
        (1000 requests at 250 RPS, traced-session's machine and table):
        inside ``Engine.run``, the per-call observer entry points —
        ``LogHistogram.record``, ``LivePlane.observe``,
        ``Tracer.begin``/``end`` and ``MetricsRegistry.counter``/
        ``histogram`` — take at most 1.5 calls per completion.  Feeding
        each completion to every observer took 12.2 here (8 records, an
        observe, a span's begin and end, and the arrival's counter
        lookup); the completion rows leave the degree-raise counters
        and the instruments' first lookups."""
        calls = []
        inside = []
        for owner, name in (
            (LogHistogram, "record"),
            (LivePlane, "observe"),
            (Tracer, "begin"),
            (Tracer, "end"),
            (MetricsRegistry, "counter"),
            (MetricsRegistry, "histogram"),
        ):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                if inside:
                    calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        run = Engine.run

        def engine_run(engine, arrivals):
            inside.append(True)
            try:
                return run(engine, arrivals)
            finally:
                inside.pop()

        monkeypatch.setattr(Engine, "run", engine_run)
        topology = big_little_topology()
        workload = bing_mod.bing_workload(profile_size=QUICK.profile_size)
        arrivals = workload.arrivals(
            1000, PoissonProcess(250.0), np.random.default_rng(42)
        )
        telemetry = Telemetry()
        plane = LivePlane(window_ms=100.0, capacity=4096, telemetry=telemetry)
        result = Engine(
            HETERO_CORES,
            EnergyAwareFMScheduler(
                bing_table_for_capacity(QUICK, topology.equivalent_capacity())
            ),
            quantum_ms=bing_mod.QUANTUM_MS,
            spin_fraction=bing_mod.SPIN_FRACTION,
            topology=topology,
            telemetry=telemetry,
            live=plane,
        ).run(arrivals)
        completed = len(result.records)
        assert completed == 1000
        assert sum(window.count for window in plane.windows()) == completed
        assert telemetry.metrics.histogram("sim.latency_ms").count == completed
        assert len(calls) <= 1.5 * completed, sorted(set(calls))
