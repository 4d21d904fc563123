"""Classical phase noise: trace generation, windowed statistics, referencing.

The apparatus phase between the traveling-wave pattern and the MW
reference is modeled as white noise plus a random walk plus linear drift,
sampled on a uniform grid. Two windowed dispersion estimators are
provided because the experimental benchmark statistic is ambiguous:
`window_std` (mean within-window standard deviation) and `two_sample`
(Allan-style deviation of consecutive window means).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class PhaseNoiseModel:
    """White + random-walk + linear-drift phase noise coefficients."""

    white_sigma: float = 0.0  # rad per sample
    rw_sigma: float = 0.0  # rad / sqrt(s)
    drift_rate: float = 0.0  # rad / s
    sample_interval: float = 1.0  # s

    def __post_init__(self):
        if min(self.white_sigma, self.rw_sigma) < 0 or self.sample_interval <= 0:
            raise ConfigError("noise coefficients must be >= 0 and sample_interval > 0")


@dataclass(frozen=True)
class PhaseTrace:
    """Uniformly sampled phase time series."""

    t: np.ndarray
    phase: np.ndarray
    model: PhaseNoiseModel

    def __post_init__(self):
        if self.t.shape != self.phase.shape:
            raise ConfigError("time and phase arrays must have equal length")
        dt = np.diff(self.t)
        if self.t.size >= 2 and not np.allclose(dt, dt[0], rtol=1e-9):
            raise ConfigError("trace must be uniformly sampled")

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])


def simulate_phase_trace(model: PhaseNoiseModel, duration: float, seed: int) -> PhaseTrace:
    """Sample drift + random walk + white noise over `duration`, deterministically."""
    if duration < 10.0 * model.sample_interval:
        raise ConfigError("duration must cover at least 10 samples")
    n = int(round(duration / model.sample_interval)) + 1
    t = np.arange(n) * model.sample_interval
    rng = np.random.default_rng(seed)
    phase = model.drift_rate * t
    if model.rw_sigma > 0:
        increments = rng.normal(
            0.0, model.rw_sigma * math.sqrt(model.sample_interval), size=n - 1
        )
        phase = phase + np.concatenate([[0.0], np.cumsum(increments)])
    if model.white_sigma > 0:
        phase = phase + rng.normal(0.0, model.white_sigma, size=n)
    return PhaseTrace(t=t, phase=phase, model=model)


def windowed_phase_stat(trace: PhaseTrace, window: float, estimator: str = "window_std") -> float:
    """Windowed dispersion of the phase, in radians.

    window_std: mean over non-overlapping windows of the within-window
    sample standard deviation. two_sample: sqrt(<(mu_{k+1} - mu_k)^2>/2)
    over consecutive non-overlapping window means.
    """
    if estimator not in ("window_std", "two_sample"):
        raise ConfigError(f"unknown estimator '{estimator}'")
    if window > trace.duration / 3.0:
        raise ConfigError("window must not exceed a third of the trace duration")
    m = int(round(window / trace.model.sample_interval))
    if m < 2:
        raise ConfigError("window must cover at least 2 samples")
    n_win = trace.phase.size // m
    if n_win < 3:
        raise ConfigError("need at least 3 complete windows")
    chunks = trace.phase[: n_win * m].reshape(n_win, m)
    if estimator == "window_std":
        return float(np.mean(np.std(chunks, axis=1, ddof=1)))
    means = chunks.mean(axis=1)
    return float(np.sqrt(0.5 * np.mean(np.diff(means) ** 2)))


def apply_reference_correction(trace: PhaseTrace, reference_interval: float) -> PhaseTrace:
    """Subtract a piecewise-linear interpolation through reference samples.

    Emulates interleaved alpha = 0 referencing: the phase is read out every
    `reference_interval` and the interpolated drift is removed, leaving
    exactly zero residual at the reference times.
    """
    if reference_interval < 2.0 * trace.model.sample_interval:
        raise ConfigError("reference interval must cover at least 2 samples")
    # a stride past the trace reads the endpoints only, as one of its length does
    stride = int(round(min(reference_interval / trace.model.sample_interval, trace.t.size)))
    idx = np.arange(0, trace.t.size, stride)
    if idx[-1] != trace.t.size - 1:
        idx = np.append(idx, trace.t.size - 1)
    interp = np.interp(trace.t, trace.t[idx], trace.phase[idx])
    return PhaseTrace(t=trace.t, phase=trace.phase - interp, model=trace.model)
