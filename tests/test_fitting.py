"""Fringe and wave-pattern fits on planted data."""

import math

import numpy as np
import pytest

from ionstrobe import fitting
from ionstrobe.errors import FitError
from ionstrobe.fitting import (
    bootstrap_pattern_uncertainty,
    fit_cosine,
    fit_wave_pattern,
)


def fringe_samples(offset, contrast, phase, n=24, span=2 * math.pi, sem=0.0, start=0.0):
    phi = start + np.linspace(0.0, span, n, endpoint=False)
    p = offset + 0.5 * contrast * np.cos(phi - phase)
    return list(zip(phi, p, np.full(n, sem)))


class TestCosineFit:
    def test_recovers_planted_parameters(self):
        fit = fit_cosine(fringe_samples(0.5, 0.76, 1.0))
        assert fit.offset == pytest.approx(0.5, abs=1e-8)
        assert fit.contrast == pytest.approx(0.76, abs=1e-8)
        assert fit.phase == pytest.approx(1.0, abs=1e-8)
        assert fit.residual_rms < 1e-10

    @pytest.mark.parametrize("offset", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("contrast", [0.05, 0.4, 1.0])
    @pytest.mark.parametrize("phase", [-3.0, -1.0, 0.0, 1.5, math.pi])
    def test_exact_on_own_model(self, offset, contrast, phase):
        fit = fit_cosine(fringe_samples(offset, contrast, phase, n=17))
        assert fit.residual_rms < 1e-10
        assert fit.contrast == pytest.approx(contrast, abs=1e-8)
        # phases compare on the circle
        dphi = math.remainder(fit.phase - phase, 2 * math.pi)
        assert abs(dphi) < 1e-8

    def test_shift_by_two_pi_invariant(self):
        base = fit_cosine(fringe_samples(0.5, 0.6, 0.7))
        shifted = fit_cosine(fringe_samples(0.5, 0.6, 0.7, start=4 * math.pi))
        assert shifted.offset == pytest.approx(base.offset, abs=1e-10)
        assert shifted.contrast == pytest.approx(base.contrast, abs=1e-10)
        assert shifted.phase == pytest.approx(base.phase, abs=1e-10)

    def test_zero_contrast_floor_and_flag(self):
        # The quadrature-projection noise floor is Rayleigh distributed, so
        # the 2/sqrt(shots*points) scale is checked on the mean over repeats.
        shots, n = 250, 24
        rng = np.random.default_rng(11)
        phi = np.linspace(0, 2 * math.pi, n, endpoint=False)
        contrasts, flags = [], []
        for _ in range(100):
            counts = rng.binomial(shots, 0.5, size=n)
            p = counts / shots
            sem = np.sqrt(p * (1 - p) / shots)
            fit = fit_cosine(list(zip(phi, p, sem)), sem_floor=1.0 / (2 * shots))
            contrasts.append(fit.contrast)
            flags.append(fit.phase_identifiable)
        assert np.mean(contrasts) < 2.0 / math.sqrt(shots * n)
        # a pure-noise fringe should essentially never claim an identifiable phase
        assert np.mean(flags) < 0.1

    def test_degenerate_span_rejected(self):
        with pytest.raises(FitError, match="span"):
            fit_cosine(fringe_samples(0.5, 0.5, 0.0, n=8, span=1.0))

    def test_too_few_samples(self):
        with pytest.raises(FitError, match="at least 5"):
            fit_cosine(fringe_samples(0.5, 0.5, 0.0, n=4))

    def test_weighted_fit_uses_sems(self):
        samples = fringe_samples(0.5, 0.8, 0.3, n=20, sem=0.01)
        # corrupt one point but give it a huge sem; the fit should ignore it
        phi, p, _ = samples[3]
        samples[3] = (phi, p + 0.3, 10.0)
        fit = fit_cosine(samples)
        assert fit.contrast == pytest.approx(0.8, abs=1e-3)
        assert fit.phase == pytest.approx(0.3, abs=1e-3)

    def test_phase_range(self):
        fit = fit_cosine(fringe_samples(0.5, 0.5, -math.pi))
        assert -math.pi < fit.phase <= math.pi

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lstsq_on_scaled_design(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        phi = np.sort(rng.uniform(0.0, 2 * math.pi, n))
        phi[-1] = phi[0] + math.pi + rng.uniform(0.0, math.pi)
        p = rng.uniform(0.0, 1.0, n)
        sem = rng.uniform(0.002, 0.05, n)
        fit = fit_cosine(list(zip(phi, p, sem)), sem_floor=0.004)
        root_w = 1.0 / np.maximum(sem, 0.004)
        design = np.column_stack([np.ones(n), np.cos(phi), np.sin(phi)])
        ref, *_ = np.linalg.lstsq(design * root_w[:, None], p * root_w, rcond=None)
        half = 0.5 * fit.contrast
        got = [fit.offset, half * math.cos(fit.phase), half * math.sin(fit.phase)]
        assert np.max(np.abs(np.array(got) - ref)) < 1e-12


def pattern_points(wavelength, rotation, amplitude, extent=200e-9, n=26, sem=0.0, phase=0.4):
    grid = np.linspace(-extent, extent, n)
    xs, zs = np.meshgrid(grid, grid, indexing="ij")
    u = 2 * math.pi * (xs * math.sin(rotation) + zs * math.cos(rotation)) / wavelength
    p = 0.5 + 0.5 * amplitude * np.cos(u + phase)
    return np.column_stack([xs.ravel(), zs.ravel(), p.ravel(), np.full(n * n, sem)])


class TestPatternFit:
    def test_noiseless_recovery(self):
        pts = pattern_points(138e-9, 0.840, 0.76)
        fit = fit_wave_pattern(pts)
        assert fit.wavelength == pytest.approx(138e-9, abs=0.1e-9)
        assert fit.rotation == pytest.approx(0.840, abs=0.002)
        assert fit.amplitude == pytest.approx(0.76, abs=1e-6)
        assert fit.residual_rms < 1e-10

    def test_shot_noise_recovery(self):
        shots = 250
        pts = pattern_points(138e-9, 0.840, 0.76)
        rng = np.random.default_rng(5)
        counts = rng.binomial(shots, np.clip(pts[:, 2], 0, 1))
        p_hat = counts / shots
        sem = np.sqrt(p_hat * (1 - p_hat) / shots)
        noisy = np.column_stack([pts[:, 0], pts[:, 1], p_hat, sem])
        fit = fit_wave_pattern(noisy, sem_floor=1.0 / (2 * shots))
        assert fit.wavelength == pytest.approx(138e-9, abs=2e-9)
        assert fit.rotation == pytest.approx(0.840, abs=0.03)

    def test_axis_aligned_pattern(self):
        pts = pattern_points(150e-9, 0.0, 0.6)
        fit = fit_wave_pattern(pts)
        assert abs(fit.rotation) < 1e-6
        # fringes independent of x: moving along x changes nothing
        sample = fit.model(np.array([0.0, 50e-9]), np.array([10e-9, 10e-9]))
        assert sample[0] == pytest.approx(sample[1], abs=1e-12)

    def test_extent_insufficient(self):
        pts = pattern_points(138e-9, 0.840, 0.76, extent=25e-9)
        with pytest.raises(FitError, match="extent insufficient"):
            fit_wave_pattern(pts)

    def test_too_few_points(self):
        pts = pattern_points(138e-9, 0.840, 0.76, n=5)
        with pytest.raises(FitError, match="at least 30"):
            fit_wave_pattern(pts)

    def test_bootstrap_uncertainty(self):
        shots = 250
        pts = pattern_points(138e-9, 0.840, 0.76)
        rng = np.random.default_rng(9)
        counts = rng.binomial(shots, np.clip(pts[:, 2], 0, 1))
        p_hat = counts / shots
        sem = np.sqrt(p_hat * (1 - p_hat) / shots)
        noisy = np.column_stack([pts[:, 0], pts[:, 1], p_hat, sem])
        fit = fit_wave_pattern(noisy, sem_floor=1.0 / (2 * shots))
        unc = bootstrap_pattern_uncertainty(noisy, fit, n_boot=16, seed=3, sem_floor=1.0 / (2 * shots))
        # 95% interval should bracket the plant at the experimental scale
        assert unc["wavelength_std"] < 2e-9
        assert unc["rotation_std"] < 0.03
        assert abs(fit.wavelength - 138e-9) < 2 * unc["wavelength_std"] + 1e-9


def shot_noised(pts, seed, shots=250):
    rng = np.random.default_rng(seed)
    p_hat = rng.binomial(shots, np.clip(pts[:, 2], 0, 1)) / shots
    sem = np.sqrt(p_hat * (1 - p_hat) / shots)
    return np.column_stack([pts[:, 0], pts[:, 1], p_hat, sem])


def scattered_points(n, seed, shared_x=0):
    """Shot-noised pattern at n random (x, z); the first shared_x points share one x."""
    rng = np.random.default_rng(seed)
    x, z = rng.uniform(-200e-9, 200e-9, (2, n))
    x[:shared_x] = x[0]
    u = 2 * math.pi * (x * math.sin(0.840) + z * math.cos(0.840)) / 138e-9
    return shot_noised(np.column_stack([x, z, 0.5 + 0.38 * np.cos(u + 0.4), np.zeros(n)]), seed)


def reference_grid(x, z, p, w):
    """The coarse grid cell by cell, one 2x2 solve each: [(sse, b, c, lambda, theta)]."""
    diag = math.hypot(np.ptp(x), np.ptp(z))
    lambdas = np.geomspace(diag / 20.0, 2.0 * diag, fitting.GRID_N_LAMBDA)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, fitting.GRID_N_THETA, endpoint=False)
    cells = []
    for lam in lambdas:
        for th in thetas:
            u = 2.0 * math.pi * (x * math.sin(th) + z * math.cos(th)) / lam
            jac = np.column_stack([np.cos(u), np.sin(u)])
            jtw = jac.T * w
            coef = np.linalg.solve(jtw @ jac, jtw @ (p - 0.5))
            resid = (p - 0.5) - jac @ coef
            cells.append((float(np.dot(w * resid, resid)), coef[0], coef[1], lam, th))
    return cells


GRID_INPUTS = {
    "grid noiseless": (pattern_points(138e-9, 0.840, 0.76), None),
    "grid shot-noised": (shot_noised(pattern_points(138e-9, 0.840, 0.76), 5), 1.0 / 500),
    "scattered distinct": (scattered_points(200, 7), 1.0 / 500),
    "scattered, one x row": (scattered_points(200, 8, shared_x=26), 1.0 / 500),
    "grid plus a repeated x row": (
        np.vstack([pattern_points(138e-9, 0.840, 0.76), pattern_points(138e-9, 0.840, 0.76)[:26]]),
        None,
    ),
}


class TestBatchedGrid:
    @pytest.mark.parametrize("name", GRID_INPUTS)
    def test_matches_per_cell_reference(self, name):
        points, sem_floor = GRID_INPUTS[name]
        x, z, p, sem = points.T
        w = fitting._weights_from_sems(sem, sem_floor)
        cells = reference_grid(x, z, p, w)
        sses = np.array([cell[0] for cell in cells])
        best = int(np.argmin(sses))  # the first minimum, as the loop kept it
        _, b, c, lam, th = cells[best]
        seed = fitting._grid_seeds(x, z, w, (p - 0.5)[:, None])[0]
        ties = np.flatnonzero(sses <= sses[best] * (1.0 + 1e-12))
        if ties.size == 1:
            assert (seed[2], seed[3]) == (lam, th)
            assert np.max(np.abs(seed[:2] - [b, c])) <= 1e-9 * math.hypot(b, c)
        ref_fit = fitting._refine_pattern(x, z, p, w, np.array([b, c, lam, th]))
        fit = fit_wave_pattern(points, sem_floor=sem_floor)
        assert fit.wavelength == pytest.approx(ref_fit.wavelength, rel=1e-9)
        assert fit.rotation == pytest.approx(ref_fit.rotation, rel=1e-9, abs=1e-12)
        assert fit.amplitude == pytest.approx(ref_fit.amplitude, rel=1e-9)

    def test_bootstrap_matches_independent_refits(self):
        floor = 1.0 / 500
        points = shot_noised(pattern_points(138e-9, 0.840, 0.76), 9)
        fit = fit_wave_pattern(points, sem_floor=floor)
        unc = bootstrap_pattern_uncertainty(points, fit, n_boot=32, seed=3, sem_floor=floor)
        x, z, _, sem = points.T
        model_p = fit.model(x, z)
        rng = np.random.default_rng(3)
        lams, ths = [], []
        for _ in range(32):
            p_star = np.clip(model_p + rng.normal(0.0, np.maximum(sem, floor)), 0.0, 1.0)
            try:
                refit = fit_wave_pattern(np.column_stack([x, z, p_star, sem]), sem_floor=floor)
            except FitError:
                continue
            lams.append(refit.wavelength)
            ths.append(refit.rotation)
        assert unc["n_successful"] == len(lams)
        assert unc["wavelength_std"] == pytest.approx(np.std(lams, ddof=1), rel=1e-9)
        assert unc["rotation_std"] == pytest.approx(np.std(ths, ddof=1), rel=1e-9)
