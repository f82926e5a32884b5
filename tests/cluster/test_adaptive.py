"""Adaptive replication controller: mode machine, hysteresis, signals.

The controller is clock-free and pure in its observation stream, so
every behavior here is asserted by feeding synthetic completions with
explicit timestamps — no simulator, no threads, no wall clock.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.observe.slo as slo_mod
from repro.cluster.adaptive import (
    MODES,
    AdaptiveReplicationController,
    ControllerConfig,
)
from repro.errors import ConfigurationError
from repro.observe import SLOMonitor, SLOTarget


def _controller(**overrides) -> AdaptiveReplicationController:
    """A 1-core, 100 ms-window controller (utilization arithmetic in
    the tests is then ``busy_ms / 100``)."""
    config = dict(window_ms=100.0, cores=1)
    config.update(overrides)
    return AdaptiveReplicationController(ControllerConfig(**config))


def _feed_window(
    controller: AdaptiveReplicationController,
    utilization: float,
    start_ms: float,
    latency_ms: float = 10.0,
    samples: int = 4,
) -> None:
    """Observations spanning one window at the requested utilization.

    The window *closes* when a later observation (or flush) crosses its
    end — feeding windows back to back steps the state machine once per
    window.  Latency defaults far under the private 250 ms SLO target
    and ``samples`` under ``min_samples`` so the SLO signal stays cold
    unless a test wants it hot.
    """
    cfg = controller.config
    busy = utilization * cfg.cores * cfg.window_ms / samples
    for i in range(samples):
        controller.observe(
            latency_ms,
            at_ms=start_ms + i * cfg.window_ms / samples,
            busy_ms=busy,
        )


class TestConfigValidation:
    def test_threshold_ordering(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(steady_at=0.7, hedge_shed_at=0.5)
        with pytest.raises(ConfigurationError):
            ControllerConfig(brownout_at=0.6, hedge_shed_at=0.7)

    def test_basic_knobs(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(window_ms=0.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(cores=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(hold_windows=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(hysteresis=-0.1)

    def test_mode_maps(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(hedge_percentile={"bogus": 0.5})
        with pytest.raises(ConfigurationError):
            ControllerConfig(hedge_percentile={"eager": 1.5})
        with pytest.raises(ConfigurationError):
            ControllerConfig(max_retries={"eager": 1})  # missing modes
        with pytest.raises(ConfigurationError):
            ControllerConfig(breach_floor="panic")

    def test_smoothing_range(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(utilization_smoothing=1.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(utilization_smoothing=-0.2)
        ControllerConfig(utilization_smoothing=0.75)  # valid

    def test_observation_validation(self):
        controller = _controller()
        with pytest.raises(ConfigurationError):
            controller.observe(-1.0, at_ms=0.0)
        with pytest.raises(ConfigurationError):
            controller.observe(1.0, at_ms=0.0, busy_ms=-1.0)


class TestColdStart:
    def test_no_redundancy_before_first_window(self):
        controller = _controller()
        decision = controller.decision
        assert controller.mode == "steady"
        assert decision.hedge_delay_ms is None
        assert decision.retry is None
        assert decision.hedge_budget == 0.0
        assert not decision.redundancy_enabled
        assert controller.windows_observed == 0
        assert math.isnan(controller.last_utilization)

    def test_flush_without_observations_is_noop(self):
        controller = _controller()
        controller.flush(1e6)
        assert controller.windows_observed == 0
        assert controller.transition_signature() == ()


class TestEscalation:
    def test_utilization_ramp_climbs_the_modes(self):
        controller = _controller()
        for i, util in enumerate((0.5, 0.75, 0.95)):
            _feed_window(controller, util, start_ms=i * 100.0)
        controller.flush(300.0)
        assert controller.mode == "brownout"
        reasons = [t.reason for t in controller.transitions]
        assert reasons == ["utilization", "utilization"]
        assert [t.to_mode for t in controller.transitions] == [
            "hedge_shed", "brownout",
        ]
        assert controller.brownout_entries == 1

    def test_escalation_can_jump_modes(self):
        controller = _controller()
        # Two calm windows recover steady -> eager first.
        _feed_window(controller, 0.1, 0.0)
        _feed_window(controller, 0.1, 100.0)
        _feed_window(controller, 0.1, 200.0)
        assert controller.mode == "eager"
        # One saturated window jumps straight to brownout.
        _feed_window(controller, 1.2, 300.0)
        controller.flush(400.0)
        last = controller.transitions[-1]
        assert (last.from_mode, last.to_mode) == ("eager", "brownout")

    def test_decisions_track_modes(self):
        controller = _controller()
        _feed_window(controller, 0.1, 0.0)
        _feed_window(controller, 0.1, 100.0)
        _feed_window(controller, 0.1, 200.0)
        assert controller.mode == "eager"
        decision = controller.decision
        assert decision.hedge_delay_ms is not None
        assert decision.hedge_percentile == pytest.approx(0.80)
        assert decision.hedge_budget == pytest.approx(0.20)
        assert decision.retry is not None and decision.retry.max_retries == 2
        _feed_window(controller, 1.2, 300.0)
        controller.flush(400.0)
        decision = controller.decision
        assert decision.mode == "brownout"
        assert decision.hedge_delay_ms is None
        assert decision.retry is not None
        assert decision.retry.max_retries == 0  # timeout accounting only
        assert not decision.redundancy_enabled


class TestHysteresis:
    def _escalated(self) -> AdaptiveReplicationController:
        controller = _controller()
        _feed_window(controller, 0.75, 0.0)
        _feed_window(controller, 0.75, 100.0)
        assert controller.mode == "hedge_shed"
        return controller

    def test_inside_the_hysteresis_band_never_recovers(self):
        controller = self._escalated()
        # 0.65 is below the 0.70 entry threshold but above 0.70 - 0.08.
        for i in range(2, 8):
            _feed_window(controller, 0.65, i * 100.0)
        controller.flush(800.0)
        assert controller.mode == "hedge_shed"

    def test_recovery_steps_one_mode_after_hold_windows(self):
        controller = self._escalated()
        _feed_window(controller, 0.55, 200.0)
        _feed_window(controller, 0.55, 300.0)
        controller.flush(400.0)  # second qualifying window closes here
        assert controller.mode == "steady"  # one step, not straight to eager
        assert controller.transitions[-1].reason == "recovery"

    def test_oscillation_across_the_band_resets_the_hold(self):
        controller = self._escalated()
        # Alternate qualifying / non-qualifying windows: the hold
        # counter never reaches hold_windows=2, so no recovery.
        for i, util in enumerate((0.55, 0.65, 0.55, 0.65, 0.55, 0.65)):
            _feed_window(controller, util, (i + 2) * 100.0)
        controller.flush(800.0)
        assert controller.mode == "hedge_shed"


class TestSLOSignals:
    def test_burn_rate_trips_brownout_at_low_utilization(self):
        # Latencies 4x over the private 250 ms p99 target; offered-work
        # utilization is tiny (the capacity was reclaimed, not filled).
        controller = _controller()
        _feed_window(controller, 0.1, 0.0, latency_ms=1000.0, samples=12)
        controller.flush(100.0)
        assert controller.mode == "brownout"
        assert controller.transitions[-1].reason == "burn_rate"

    def test_breach_without_page_rate_floors_at_hedge_shed(self):
        controller = _controller(brownout_burn_rate=1e9)
        _feed_window(controller, 0.1, 0.0, latency_ms=1000.0, samples=12)
        controller.flush(100.0)
        assert controller.mode == "hedge_shed"
        assert controller.transitions[-1].reason == "breach"

    def test_shared_monitor_is_fed_by_observe(self):
        slo = SLOMonitor(
            SLOTarget(percentile=0.99, threshold_ms=250.0),
            short_window_ms=200.0,
            long_window_ms=800.0,
            min_samples=3,
        )
        controller = AdaptiveReplicationController(
            ControllerConfig(window_ms=100.0, cores=1), slo=slo
        )
        _feed_window(controller, 0.1, 0.0, samples=6)
        assert slo.status(at_ms=90.0).long_count == 6


class TestSignalConditioning:
    def test_window_grid_anchors_at_first_observation(self):
        controller = _controller()
        _feed_window(controller, 0.2, 1e9)
        _feed_window(controller, 0.2, 1e9 + 100.0)
        controller.flush(1e9 + 200.0)
        # A wall-clock-sized origin must not replay ten million idle
        # windows before the first real one.
        assert controller.windows_observed == 2

    def test_smoothing_absorbs_a_single_spike_window(self):
        raw = _controller()
        smoothed = _controller(utilization_smoothing=0.9)
        for controller in (raw, smoothed):
            _feed_window(controller, 0.2, 0.0)
            _feed_window(controller, 0.2, 100.0)
            _feed_window(controller, 5.0, 200.0)  # one heavy-tailed burst
            controller.flush(300.0)
        assert raw.mode == "brownout"
        assert smoothed.mode in ("eager", "steady")
        assert smoothed.last_utilization < raw.last_utilization

    def test_sustained_overload_crosses_despite_smoothing(self):
        controller = _controller(utilization_smoothing=0.5)
        for i in range(6):
            _feed_window(controller, 1.2, i * 100.0)
        controller.flush(600.0)
        assert controller.mode == "brownout"


class TestDeterminismAndReset:
    def _drive(self, controller: AdaptiveReplicationController) -> None:
        for i, util in enumerate((0.2, 0.5, 0.8, 1.1, 0.3, 0.3, 0.3, 0.3)):
            _feed_window(controller, util, i * 100.0)
        controller.flush(800.0)

    def test_replay_is_bit_identical(self):
        controller = _controller()
        self._drive(controller)
        first = controller.transition_signature()
        assert first  # the drive actually transitions
        controller.reset()
        self._drive(controller)
        assert controller.transition_signature() == first

    def test_reset_clears_all_state(self):
        controller = _controller()
        self._drive(controller)
        controller.reset()
        assert controller.mode == "steady"
        assert controller.windows_observed == 0
        assert controller.transitions == []
        assert math.isnan(controller.last_utilization)
        assert controller.decision.hedge_delay_ms is None


class TestTelemetry:
    def test_counters_and_gauges(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        controller = AdaptiveReplicationController(
            ControllerConfig(window_ms=100.0, cores=1), telemetry=telemetry
        )
        _feed_window(controller, 0.95, 0.0)
        _feed_window(controller, 0.95, 100.0)
        controller.flush(200.0)
        metrics = telemetry.metrics
        assert metrics.counter("cluster.adaptive.windows").value == 2
        assert metrics.counter("cluster.adaptive.mode_transitions").value >= 1
        assert metrics.counter("cluster.adaptive.brownouts").value == 1
        gauges = metrics.gauges
        assert gauges["cluster.adaptive.mode"].value == float(
            MODES.index("brownout")
        )
        assert gauges["cluster.adaptive.hedge_budget"].value == 0.0
        assert gauges["cluster.adaptive.utilization"].value > 0.9


class TestWorkGate:
    """Counts, not times, so a change that sorts per observation fails
    on every host."""

    def test_slo_windows_sort_a_bounded_number_of_times_per_closed_window(
        self, monkeypatch
    ):
        """100 000 heavy-tailed completions over 50 control windows: a
        closed window reads the short and long SLO percentiles for its
        status and again for drift, four sorts in all."""
        sorts = []
        monkeypatch.setattr(
            slo_mod, "sorted", lambda values: sorts.append(1) or sorted(values),
            raising=False,
        )
        rng = np.random.default_rng(7)
        latencies = rng.lognormal(mean=3.0, sigma=1.0, size=100_000)
        times = np.cumsum(rng.exponential(scale=0.05, size=latencies.size))
        controller = AdaptiveReplicationController(
            ControllerConfig(window_ms=100.0, cores=12)
        )
        for latency, at_ms in zip(latencies.tolist(), times.tolist()):
            controller.observe(latency, at_ms=at_ms, busy_ms=latency / 3.0, queue_depth=4.0)
        controller.flush(float(times[-1]))
        assert controller.windows_observed == 50
        assert len(sorts) <= 4 * controller.windows_observed
