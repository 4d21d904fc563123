"""Weighted least-squares fringe and wave-pattern fits.

Both fits work internally in a parameterization that is linear in the
oscillating part (offset, C cos phi0, C sin phi0), which sidesteps phase
wrapping, and convert to (contrast, phase) at the boundary. Contrast is
reported non-negative with the sign absorbed into the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError

GN_STEP_TOL = 1e-10
GN_MAX_ITER = 100
# coarse (wavelength, rotation) grid that seeds the pattern fit's refinement
GRID_N_LAMBDA = 48
GRID_N_THETA = 60


@dataclass
class CosineFit:
    """Fringe fit p = offset + (contrast/2) cos(phi - phase)."""

    offset: float
    contrast: float
    phase: float
    residual_rms: float
    covariance: np.ndarray
    phase_identifiable: bool = True

    @property
    def offset_err(self) -> float:
        return float(np.sqrt(self.covariance[0, 0]))

    @property
    def contrast_err(self) -> float:
        return float(np.sqrt(self.covariance[1, 1]))

    @property
    def phase_err(self) -> float:
        return float(np.sqrt(self.covariance[2, 2]))

    def model(self, phi):
        return self.offset + 0.5 * self.contrast * np.cos(np.asarray(phi) - self.phase)


@dataclass
class PatternFit:
    """Planar wave fit p = 1/2 + (A/2) cos(2 pi (x sin th + z cos th)/lam + phase)."""

    amplitude: float
    wavelength: float
    phase_origin: float
    rotation: float
    residual_rms: float

    def model(self, x, z):
        u = 2.0 * math.pi * (
            np.asarray(x) * math.sin(self.rotation) + np.asarray(z) * math.cos(self.rotation)
        ) / self.wavelength
        return 0.5 + 0.5 * self.amplitude * np.cos(u + self.phase_origin)


def _wrap_phase(phi: float) -> float:
    """Map to (-pi, pi]."""
    out = math.remainder(phi, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


def _unpack_samples(samples):
    arr = np.asarray([tuple(s) for s in samples], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise FitError("samples must be (phi, p_down, sem) triples")
    return arr[:, 0], arr[:, 1], arr[:, 2]


def _weights_from_sems(sem: np.ndarray, sem_floor: float | None) -> np.ndarray:
    if sem_floor is None:
        positive = sem[sem > 0]
        sem_floor = float(positive.min()) if positive.size else 1.0
    eff = np.maximum(sem, sem_floor)
    return 1.0 / eff**2


def fit_cosine(samples, sem_floor: float | None = None) -> CosineFit:
    """Weighted fit of a Ramsey fringe p = offset + (C/2) cos(phi - phi0).

    Parameters
    ----------
    samples : sequence of (phi, p_down, sem)
        At least 5 points spanning at least pi of phase. Points with zero
        sem are floored; with all sems zero the fit is unweighted.
    sem_floor : float, optional
        Lower bound on the per-point sem, typically 1/(2 shots).

    The model is linear in (offset, C cos phi0, C sin phi0), so the fit is
    one weighted least-squares solve of the normal equations.
    """
    phi, p, sem = _unpack_samples(samples)
    if phi.size < 5:
        raise FitError(f"need at least 5 samples, got {phi.size}")
    span = float(phi.max() - phi.min())
    if span < math.pi:
        raise FitError(f"phase span {span:.3f} rad is degenerate (< pi)")
    w = _weights_from_sems(sem, sem_floor)

    jac = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    jtw = jac.T * w
    normal = jtw @ jac
    beta = np.linalg.solve(normal, jtw @ p)

    resid = p - jac @ beta
    residual_rms = float(np.sqrt(np.mean(resid**2)))
    cov_lin = np.linalg.inv(normal)
    if np.all(sem <= 0):
        # analytic data: scale covariance by the residual variance
        dof = max(phi.size - 3, 1)
        cov_lin = cov_lin * float(np.dot(w * resid, resid)) / dof

    offset, b, c = beta
    amp = math.hypot(b, c)
    contrast = 2.0 * amp
    phase = math.atan2(c, b) if amp > 0 else 0.0
    phase = _wrap_phase(phase)

    # delta-method transform of the covariance to (offset, contrast, phase)
    if amp > 1e-300:
        jac_out = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 2.0 * b / amp, 2.0 * c / amp],
                [0.0, -c / amp**2, b / amp**2],
            ]
        )
        cov = jac_out @ cov_lin @ jac_out.T
    else:
        cov = np.full((3, 3), np.inf)
        cov[0, 0] = cov_lin[0, 0]

    sigma_c = math.sqrt(max(cov[1, 1], 0.0)) if np.isfinite(cov[1, 1]) else math.inf
    identifiable = contrast > max(4.0 * sigma_c, 1e-12)
    return CosineFit(
        offset=float(offset),
        contrast=float(contrast),
        phase=float(phase),
        residual_rms=residual_rms,
        covariance=cov,
        phase_identifiable=bool(identifiable),
    )


def _pattern_design(x, z, wavelength, rotation):
    u = 2.0 * math.pi * (x * math.sin(rotation) + z * math.cos(rotation)) / wavelength
    return u, np.cos(u), np.sin(u)


def _pattern_arrays(points):
    arr = np.asarray([tuple(s) for s in points], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise FitError("points must be (x, z, p_down, sem) quadruples")
    if arr.shape[0] < 30:
        raise FitError(f"need at least 30 points, got {arr.shape[0]}")
    return arr.T


def _phase_filler(x, z, thetas):
    """Return fill(k, out), which writes exp(i k (x sin th + z cos th)) into out[th, point].

    When the coordinates repeat, as on a scan grid, exp(i k x sin th) and
    exp(i k z cos th) are tabulated over the distinct x and z and multiplied
    per point; otherwise each point gets its own cos and sin. Either way a
    call costs at most one cos and sin per point and rotation.
    """
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)
    ux, ix = np.unique(x, return_inverse=True)
    uz, iz = np.unique(z, return_inverse=True)
    if ux.size + uz.size < x.size:
        factor = np.empty((thetas.size, x.size), dtype=complex)

        def fill(k, out):
            np.take(np.exp(1j * np.outer(k * sin_t, ux)), ix, axis=1, out=out)
            np.take(np.exp(1j * np.outer(k * cos_t, uz)), iz, axis=1, out=factor)
            np.multiply(out, factor, out=out)
    else:
        u = np.empty((thetas.size, x.size))

        def fill(k, out):
            np.multiply.outer(k * sin_t, x, out=u)
            np.multiply.outer(k * cos_t, z, out=out.real)  # out.real as scratch
            np.add(u, out.real, out=u)
            np.cos(u, out=out.real)
            np.sin(u, out=out.imag)

    return fill


def _grid_seeds(x, z, w, y):
    """Best coarse-grid cell (b, c, wavelength, rotation) for each column of y = p - 1/2.

    At a fixed (wavelength, rotation) the model b cos u + c sin u is linear,
    and (b, c) solve its 2x2 weighted normal equations in closed form; the
    least-squares SSE is sum w y^2 - b r1 - c r2 with (r1, r2) their right-
    hand side. The grid is evaluated one wavelength row at a time into
    preallocated buffers, one (2 x N) product per rotation: batching per
    rotation keeps each product on one BLAS thread, since waking a second
    thread costs more than a product this small. The columns of y share the
    normal matrices, so each extra column costs one more right-hand side.
    Ties go to the first cell in (wavelength, rotation) order.
    """
    diag_extent = math.hypot(x.max() - x.min(), z.max() - z.min())
    if diag_extent <= 0:
        raise FitError("degenerate scan extent")
    lambdas = np.geomspace(diag_extent / 20.0, 2.0 * diag_extent, GRID_N_LAMBDA)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, GRID_N_THETA, endpoint=False)
    fill = _phase_filler(x, z, thetas)

    n_cols = y.shape[1]
    cols = np.arange(n_cols)
    sse_zero = np.einsum("n,nm->m", w, y * y)
    e_iu = np.empty((GRID_N_THETA, x.size), dtype=complex)
    # (rotation, cos u | sin u, point), a view of e_iu
    cs = e_iu.view(float).reshape(GRID_N_THETA, x.size, 2).transpose(0, 2, 1)
    w_cs = np.empty(cs.shape)
    row_sse = np.empty((GRID_N_LAMBDA, n_cols))
    row_seeds = np.empty((GRID_N_LAMBDA, n_cols, 4))
    for i, lam in enumerate(lambdas):
        fill(2.0 * math.pi / lam, e_iu)
        np.multiply(cs, w, out=w_cs)
        normal = w_cs @ cs.transpose(0, 2, 1)
        rhs = w_cs @ y
        r1, r2 = rhs[:, 0], rhs[:, 1]
        a11, a12, a22 = normal[:, 0, 0, None], normal[:, 0, 1, None], normal[:, 1, 1, None]
        det = a11 * a22 - a12 * a12
        with np.errstate(divide="ignore", invalid="ignore"):
            b = (a22 * r1 - a12 * r2) / det
            c = (a11 * r2 - a12 * r1) / det
            sse = sse_zero - b * r1 - c * r2
        sse[~((det > 0) & np.isfinite(sse))] = math.inf
        row = np.argmin(sse, axis=0)
        row_sse[i] = sse[row, cols]
        row_seeds[i] = np.column_stack(
            [b[row, cols], c[row, cols], np.full(n_cols, lam), thetas[row]]
        )
    return row_seeds[np.argmin(row_sse, axis=0), cols]


def _refine_pattern(x, z, p, w, seed) -> PatternFit:
    """Damped Gauss-Newton on (b, c, lambda, theta) from a coarse-grid seed."""
    params = np.array(seed)

    def model_resid(q):
        bb, cc, ll, tt = q
        u, cos_u, sin_u = _pattern_design(x, z, ll, tt)
        r = (0.5 + bb * cos_u + cc * sin_u) - p
        du_dl = -u / ll
        du_dt = 2.0 * math.pi * (x * math.cos(tt) - z * math.sin(tt)) / ll
        d_osc = -bb * sin_u + cc * cos_u
        jac = np.column_stack([cos_u, sin_u, d_osc * du_dl, d_osc * du_dt])
        return r, jac

    resid, jac = model_resid(params)
    sse = float(np.dot(w * resid, resid))
    converged = False
    for _ in range(GN_MAX_ITER):
        jtw = jac.T * w
        try:
            step = np.linalg.solve(jtw @ jac, jtw @ resid)
        except np.linalg.LinAlgError:
            raise FitError("singular normal equations in pattern fit")
        scale = 1.0
        for _ in range(20):
            trial = params - scale * step
            trial_resid, trial_jac = model_resid(trial)
            trial_sse = float(np.dot(w * trial_resid, trial_resid))
            if trial_sse <= sse or scale < 1e-6:
                break
            scale *= 0.5
        rel_step = np.linalg.norm(scale * step) / max(np.linalg.norm(params), 1e-30)
        params, resid, jac, sse = trial, trial_resid, trial_jac, trial_sse
        if rel_step < GN_STEP_TOL:
            converged = True
            break
    if not converged:
        raise FitError("pattern fit did not converge")

    b, c, lam, th = params
    lam = abs(lam)
    # normalize rotation into (-pi/2, pi/2]; flipping the wave vector
    # negates the running coordinate, which conjugates the quadratures
    th = _wrap_phase(th)
    if th > math.pi / 2:
        th -= math.pi
        c = -c
    elif th <= -math.pi / 2:
        th += math.pi
        c = -c

    proj = x * math.sin(th) + z * math.cos(th)
    span = float(proj.max() - proj.min())
    if span < lam:
        raise FitError(
            f"extent insufficient: scan covers {span:.3g} m along the wave vector, "
            f"less than one wavelength ({lam:.3g} m)"
        )

    amp = 2.0 * math.hypot(b, c)
    phase = math.atan2(-c, b) if amp > 0 else 0.0
    return PatternFit(
        amplitude=float(amp),
        wavelength=float(lam),
        phase_origin=_wrap_phase(phase),
        rotation=float(th),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def fit_wave_pattern(points, sem_floor: float | None = None) -> PatternFit:
    """Fit the traveling-wave fringe pattern over a 2D displacement scan.

    Parameters
    ----------
    points : sequence of (x, z, p_down, sem)
        At least 30 points; the scan must extend over at least one
        wavelength along the fitted wave vector.
    sem_floor : float, optional
        Per-point sem floor, typically 1/(2 shots).

    A coarse grid of GRID_N_LAMBDA wavelengths (geometric, from 1/20 to 2
    scan diagonals) by GRID_N_THETA rotations seeds a damped Gauss-Newton
    refinement of all four parameters. At each grid cell the oscillation
    quadratures solve a 2x2 weighted normal equation in closed form; the
    cells are evaluated in batches, one wavelength row of rotations at a
    time, and the cell of least SSE is the seed.
    """
    x, z, p, sem = _pattern_arrays(points)
    w = _weights_from_sems(sem, sem_floor)
    seed = _grid_seeds(x, z, w, (p - 0.5)[:, None])[0]
    return _refine_pattern(x, z, p, w, seed)


def bootstrap_pattern_uncertainty(
    points, fit: PatternFit, n_boot: int = 32, seed: int = 0, sem_floor: float | None = None
) -> dict:
    """Parametric bootstrap of the pattern fit: resample p around the model.

    Each resample is refitted as fit_wave_pattern would, but the coarse
    grid is evaluated once for all resamples, since they share the points
    and their weights. Returns standard deviations of wavelength and
    rotation over refits.
    """
    x, z, _, sem = _pattern_arrays(points)
    model_p = fit.model(x, z)
    sigma = np.maximum(sem, 1e-6 if sem_floor is None else sem_floor)
    rng = np.random.default_rng(seed)
    p_star = np.empty((x.size, n_boot))
    for k in range(n_boot):
        p_star[:, k] = np.clip(model_p + rng.normal(0.0, sigma), 0.0, 1.0)
    w = _weights_from_sems(sem, sem_floor)
    lams, ths = [], []
    for p_k, grid_seed in zip(p_star.T, _grid_seeds(x, z, w, p_star - 0.5)):
        try:
            refit = _refine_pattern(x, z, p_k, w, grid_seed)
        except FitError:
            continue
        lams.append(refit.wavelength)
        ths.append(refit.rotation)
    if len(lams) < max(4, n_boot // 4):
        raise FitError("bootstrap produced too few successful refits")
    return {
        "wavelength_std": float(np.std(lams, ddof=1)),
        "rotation_std": float(np.std(ths, ddof=1)),
        "n_successful": len(lams),
    }
