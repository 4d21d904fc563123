"""Phase-noise traces, windowed statistics, and drift referencing."""

import math

import numpy as np
import pytest

from ionstrobe.errors import ConfigError
from ionstrobe.stability import (
    PhaseNoiseModel,
    apply_reference_correction,
    simulate_phase_trace,
    windowed_phase_stat,
)


class TestTraceGeneration:
    def test_all_zero_coefficients(self):
        model = PhaseNoiseModel(sample_interval=0.1)
        trace = simulate_phase_trace(model, 20.0, seed=5)
        assert np.all(trace.phase == 0.0)

    def test_white_noise_std(self):
        model = PhaseNoiseModel(white_sigma=0.1, sample_interval=0.01)
        trace = simulate_phase_trace(model, 100.0, seed=7)
        assert trace.phase.size == 10001
        assert np.std(trace.phase) == pytest.approx(0.1, abs=0.005)

    def test_linear_drift_endpoint(self):
        model = PhaseNoiseModel(drift_rate=0.01, sample_interval=0.5)
        trace = simulate_phase_trace(model, 200.0, seed=0)
        assert trace.phase[-1] == pytest.approx(2.0, abs=1e-12)

    def test_determinism_and_seed_independence(self):
        model = PhaseNoiseModel(white_sigma=0.05, rw_sigma=0.02, sample_interval=0.01)
        a = simulate_phase_trace(model, 100.0, seed=3)
        b = simulate_phase_trace(model, 100.0, seed=3)
        np.testing.assert_array_equal(a.phase, b.phase)
        # independence is checked on stationary series: white traces and
        # random-walk increments (raw walks correlate spuriously)
        white = PhaseNoiseModel(white_sigma=0.05, sample_interval=0.01)
        corrs = []
        for s in range(20):
            u = simulate_phase_trace(white, 100.0, seed=100 + 2 * s)
            v = simulate_phase_trace(white, 100.0, seed=101 + 2 * s)
            corrs.append(abs(np.corrcoef(u.phase, v.phase)[0, 1]))
            uw = simulate_phase_trace(model, 100.0, seed=100 + 2 * s)
            vw = simulate_phase_trace(model, 100.0, seed=101 + 2 * s)
            corrs.append(abs(np.corrcoef(np.diff(uw.phase), np.diff(vw.phase))[0, 1]))
        assert np.mean(corrs) < 0.05

    def test_duration_guard(self):
        with pytest.raises(ConfigError):
            simulate_phase_trace(PhaseNoiseModel(sample_interval=1.0), 5.0, seed=0)


class TestWindowedStats:
    def test_zero_trace(self):
        model = PhaseNoiseModel(sample_interval=0.1)
        trace = simulate_phase_trace(model, 60.0, seed=0)
        assert windowed_phase_stat(trace, 2.0, "window_std") == 0.0
        assert windowed_phase_stat(trace, 2.0, "two_sample") == 0.0

    def test_white_noise_window_independent(self):
        model = PhaseNoiseModel(white_sigma=0.1, sample_interval=0.05)
        trace = simulate_phase_trace(model, 600.0, seed=2)
        short = windowed_phase_stat(trace, 2.0, "window_std")
        long = windowed_phase_stat(trace, 200.0, "window_std")
        assert abs(short - long) / long < 0.10

    def test_window_std_converges_to_white_sigma(self):
        model = PhaseNoiseModel(white_sigma=0.1, sample_interval=0.01)
        trace = simulate_phase_trace(model, 1000.0, seed=4)
        stat = windowed_phase_stat(trace, 100.0, "window_std")
        assert abs(stat - 0.1) / 0.1 < 0.02

    def test_random_walk_two_sample_scaling(self):
        model = PhaseNoiseModel(rw_sigma=0.05, sample_interval=0.05)
        ratios = []
        for seed in range(12):
            trace = simulate_phase_trace(model, 2400.0, seed=30 + seed)
            s2 = windowed_phase_stat(trace, 2.0, "two_sample")
            s200 = windowed_phase_stat(trace, 200.0, "two_sample")
            ratios.append(s200 / s2)
        expected = math.sqrt(200.0 / 2.0)
        assert abs(np.mean(ratios) / expected - 1.0) < 0.15

    def test_too_few_windows(self):
        model = PhaseNoiseModel(white_sigma=0.1, sample_interval=0.1)
        trace = simulate_phase_trace(model, 30.0, seed=1)
        with pytest.raises(ConfigError):
            windowed_phase_stat(trace, 15.0, "window_std")

    def test_unknown_estimator(self):
        model = PhaseNoiseModel(white_sigma=0.1, sample_interval=0.1)
        trace = simulate_phase_trace(model, 30.0, seed=1)
        with pytest.raises(ConfigError):
            windowed_phase_stat(trace, 2.0, "variance")


class TestReferenceCorrection:
    def test_linear_drift_removed_exactly(self):
        model = PhaseNoiseModel(drift_rate=0.05, sample_interval=0.1)
        trace = simulate_phase_trace(model, 100.0, seed=0)
        corrected = apply_reference_correction(trace, 10.0)
        assert np.max(np.abs(corrected.phase)) < 1e-12

    def test_residual_zero_at_reference_times(self):
        model = PhaseNoiseModel(white_sigma=0.1, rw_sigma=0.05, sample_interval=0.1)
        trace = simulate_phase_trace(model, 100.0, seed=9)
        corrected = apply_reference_correction(trace, 5.0)
        stride = int(round(5.0 / 0.1))
        assert np.max(np.abs(corrected.phase[::stride])) < 1e-12

    def test_random_walk_long_term_improvement(self):
        model = PhaseNoiseModel(rw_sigma=0.05, sample_interval=0.1)
        gains = []
        for seed in range(50):
            trace = simulate_phase_trace(model, 650.0, seed=200 + seed)
            raw = windowed_phase_stat(trace, 200.0, "two_sample")
            corrected = apply_reference_correction(trace, 10.0)
            ref = windowed_phase_stat(corrected, 200.0, "two_sample")
            gains.append(raw / ref)
        assert np.mean(gains) >= 5.0

    def test_white_noise_penalty_bound(self):
        model = PhaseNoiseModel(white_sigma=0.1, sample_interval=0.1)
        stats = []
        for seed in range(20):
            trace = simulate_phase_trace(model, 300.0, seed=400 + seed)
            corrected = apply_reference_correction(trace, 2.0)
            stats.append(np.std(corrected.phase))
        assert np.mean(stats) <= math.sqrt(2) * 0.1

    def test_interval_past_the_trace_reads_the_endpoints(self):
        # a stride past int64 once made np.arange return float indices
        model = PhaseNoiseModel(white_sigma=0.1, rw_sigma=0.05, sample_interval=0.1)
        trace = simulate_phase_trace(model, 650.0, seed=3)
        endpoints = apply_reference_correction(trace, trace.duration)
        for interval in (1.0e300, 700.0):
            corrected = apply_reference_correction(trace, interval)
            np.testing.assert_array_equal(corrected.phase, endpoints.phase)
        assert endpoints.phase[0] == endpoints.phase[-1] == 0.0

    def test_interval_guard(self):
        model = PhaseNoiseModel(white_sigma=0.1, sample_interval=0.5)
        trace = simulate_phase_trace(model, 50.0, seed=0)
        with pytest.raises(ConfigError):
            apply_reference_correction(trace, 0.5)


class TestBenchmarkPattern:
    """A stable (white-dominated) row decreases with window; a drifting row dips then rises."""

    def test_mw_like_row_monotone_decrease(self):
        model = PhaseNoiseModel(white_sigma=math.radians(12.0), sample_interval=0.2)
        trace = simulate_phase_trace(model, 650.0, seed=21)
        stats = [
            math.degrees(windowed_phase_stat(trace, w, "two_sample")) for w in (2.0, 40.0, 200.0)
        ]
        assert stats[0] > stats[1] > stats[2]

    def test_ac_like_row_dips_then_rises(self):
        model = PhaseNoiseModel(
            white_sigma=math.radians(17.0),
            drift_rate=math.radians(0.039),
            sample_interval=0.2,
        )
        trace = simulate_phase_trace(model, 650.0, seed=22)
        stats = [
            math.degrees(windowed_phase_stat(trace, w, "two_sample")) for w in (2.0, 40.0, 200.0)
        ]
        assert stats[1] < stats[0]
        assert stats[2] > stats[1]
