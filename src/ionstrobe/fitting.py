"""Weighted least-squares fringe and wave-pattern fits.

Both fits work internally in a parameterization that is linear in the
oscillating part (offset, C cos phi0, C sin phi0), which sidesteps phase
wrapping, and convert to (contrast, phase) at the boundary. Contrast is
reported non-negative with the sign absorbed into the phase.

The wave-pattern fit's coarse grid goes through its rotations in blocks
whose tables (exp(i u), the filler's factor and w (cos u, sin u), 48 bytes
per rotation and point) fit GRID_BLOCK_BYTES, half a MiB: 16 rotations on
a 26 x 26 scan, where the fit's traced peak is 0.72 MiB (2.56 MiB with
tables of all 60 rotations). The bootstrap evaluates no grid: each refit
starts at the fit, and a 32-resample bootstrap's traced peak is 0.35 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .sequence import PatternField, static_pattern_probe

GN_STEP_TOL = 1e-10
GN_MAX_ITER = 100
# coarse (wavelength, rotation) grid that seeds the pattern fit's refinement
GRID_N_LAMBDA = 48
GRID_N_THETA = 60
# bytes of the grid's per-block tables; a block takes as many rotations as fit
GRID_BLOCK_BYTES = 2**19


@dataclass
class CosineFit:
    """Fringe fit p = offset + (contrast/2) cos(phi - phase)."""

    offset: float
    contrast: float
    phase: float
    residual_rms: float
    covariance: np.ndarray
    phase_identifiable: bool = True

    def model(self, phi):
        return self.offset + 0.5 * self.contrast * np.cos(np.asarray(phi) - self.phase)


@dataclass(frozen=True, kw_only=True)
class PatternFit(PatternField):
    """The fitted pattern p = 1/2 + (A/2) cos(2 pi (x sin th + z cos th)/lam + phase)."""

    residual_rms: float

    def model(self, x, z):
        return static_pattern_probe(x, z, self)


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


def _pattern_arrays(points):
    arr = np.asarray([tuple(s) for s in points], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise FitError("points must be (x, z, p_down, sem) quadruples")
    if arr.shape[0] < 30:
        raise FitError(f"need at least 30 points, got {arr.shape[0]}")
    return arr.T


def _phase_filler(x, z, thetas, block):
    """Return fill(k, rots, out), which writes exp(i k (x sin th + z cos th))
    into out[j, point] for th the j-th of thetas[rots], a slice of at most
    `block` rotations.

    exp(i k x sin th) and exp(i k z cos th) are tabulated over the distinct
    x and z and multiplied per point into one reused (block, points)
    buffer, 16 of the 48 bytes per rotation and point that _grid_seeds
    fits in GRID_BLOCK_BYTES. On a scan grid, where the coordinates repeat, a call costs far
    fewer exponentials than points; for scattered points it costs two per
    point and rotation.
    """
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)
    ux, ix = np.unique(x, return_inverse=True)
    uz, iz = np.unique(z, return_inverse=True)
    factor = np.empty((block, x.size), dtype=complex)

    def fill(k, rots, out):
        z_part = factor[:len(out)]
        np.take(np.exp(1j * np.outer(k * sin_t[rots], ux)), ix, axis=1, out=out)
        np.take(np.exp(1j * np.outer(k * cos_t[rots], uz)), iz, axis=1, out=z_part)
        np.multiply(out, z_part, out=out)

    return fill


@np.errstate(all="ignore")
def _grid_seeds(x, z, w, y):
    """Best coarse-grid cell (b, c, wavelength, rotation) for y = p - 1/2.

    At a fixed (wavelength, rotation) the model b cos u + c sin u is linear,
    and (b, c) solve its 2x2 weighted normal equations in closed form; the
    least-squares SSE is sum w y^2 - b r1 - c r2 with (r1, r2) their right-
    hand side. The grid is evaluated one wavelength row at a time and each
    row one block of rotations at a time, into buffers allocated once per
    call: a block takes as many rotations as its tables (48 bytes per
    rotation and point) fit in GRID_BLOCK_BYTES, at least one, and writes
    its normal matrices and right-hand sides into the row's arrays, one
    (2 x N) product per rotation: batching per rotation keeps each product
    on one BLAS thread, since waking a second thread costs more than a
    product this small. Each row is solved whole, and ties go to the first
    cell in (wavelength, rotation) order.
    """
    diag_extent = math.hypot(x.max() - x.min(), z.max() - z.min())
    if diag_extent <= 0:
        raise FitError("degenerate scan extent")
    lambdas = np.geomspace(diag_extent / 20.0, 2.0 * diag_extent, GRID_N_LAMBDA)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, GRID_N_THETA, endpoint=False)
    block = min(GRID_N_THETA, max(1, GRID_BLOCK_BYTES // (48 * x.size)))
    fill = _phase_filler(x, z, thetas, block)

    sse_zero = np.dot(w, y * y)
    e_iu = np.empty((block, x.size), dtype=complex)
    # (rotation, cos u | sin u, point), a view of e_iu
    cs = e_iu.view(float).reshape(block, x.size, 2).transpose(0, 2, 1)
    w_cs = np.empty(cs.shape)
    normal = np.empty((GRID_N_THETA, 2, 2))
    rhs = np.empty((GRID_N_THETA, 2))
    for i, lam in enumerate(lambdas):
        k = 2.0 * math.pi / lam
        for lo in range(0, GRID_N_THETA, block):
            rots = slice(lo, min(lo + block, GRID_N_THETA))
            n_rot = rots.stop - lo
            fill(k, rots, e_iu[:n_rot])
            np.multiply(cs[:n_rot], w, out=w_cs[:n_rot])
            np.matmul(w_cs[:n_rot], cs[:n_rot].transpose(0, 2, 1), out=normal[rots])
            np.matmul(w_cs[:n_rot], y, out=rhs[rots])
        r1, r2 = rhs[:, 0], rhs[:, 1]
        a11, a12, a22 = normal[:, 0, 0], normal[:, 0, 1], normal[:, 1, 1]
        det = a11 * a22 - a12 * a12
        b = (a22 * r1 - a12 * r2) / det
        c = (a11 * r2 - a12 * r1) / det
        sse = sse_zero - b * r1 - c * r2
        sse[~((det > 0) & np.isfinite(sse))] = math.inf
        row = np.argmin(sse)
        if i == 0 or sse[row] < best_sse:
            best_sse, best = sse[row], (b[row], c[row], lam, thetas[row])
    return np.array(best)


@np.errstate(all="ignore")
def _refine_pattern(x, z, p, w, seed) -> PatternFit:
    """Damped Gauss-Newton on (b, c, lambda, theta) from a grid cell or a fit's
    parameters; a non-finite SSE or step (phases that overflow) does not converge."""
    params = np.array(seed)

    def model_resid(q):
        bb, cc, ll, tt = q
        u = 2.0 * math.pi * (x * math.sin(tt) + z * math.cos(tt)) / ll
        cos_u, sin_u = np.cos(u), np.sin(u)
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
        if not (math.isfinite(sse) and np.all(np.isfinite(step))):
            break
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
            converged = math.isfinite(sse)
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
        wavelength=float(lam),
        rotation=float(th),
        phase_origin=_wrap_phase(phase),
        amplitude=float(amp),
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
    cells are evaluated in batches, one wavelength row at a time and each
    row one block of rotations at a time, and the cell of least SSE is the
    seed.
    """
    x, z, p, sem = _pattern_arrays(points)
    w = _weights_from_sems(sem, sem_floor)
    seed = _grid_seeds(x, z, w, p - 0.5)
    return _refine_pattern(x, z, p, w, seed)


def bootstrap_pattern_uncertainty(
    points, fit: PatternFit, n_boot: int = 32, seed: int = 0, sem_floor: float | None = None
) -> dict:
    """Parametric bootstrap of the pattern fit: resample p around the model.

    Each resample is refitted by the Gauss-Newton refinement started at the
    fit's own parameters, so the spread is that of the fit's local minimum;
    no coarse grid is evaluated. Returns standard deviations of wavelength
    and rotation over refits, the rotation taken modulo pi about the fit's,
    since a refit near the (-pi/2, pi/2] cut may land on its other side.
    """
    x, z, _, sem = _pattern_arrays(points)
    model_p = fit.model(x, z)
    sigma = np.maximum(sem, 1e-6 if sem_floor is None else sem_floor)
    rng = np.random.default_rng(seed)
    p_star = np.empty((x.size, n_boot))
    for k in range(n_boot):
        p_star[:, k] = np.clip(model_p + rng.normal(0.0, sigma), 0.0, 1.0)
    w = _weights_from_sems(sem, sem_floor)
    half = 0.5 * fit.amplitude
    start = (half * math.cos(fit.phase_origin), -half * math.sin(fit.phase_origin),
             fit.wavelength, fit.rotation)
    lams, turns = [], []
    for p_k in p_star.T:
        try:
            refit = _refine_pattern(x, z, p_k, w, start)
        except FitError:
            continue
        lams.append(refit.wavelength)
        turns.append(math.remainder(refit.rotation - fit.rotation, math.pi))
    if len(lams) < max(4, n_boot // 4):
        raise FitError("bootstrap produced too few successful refits")
    return {
        "wavelength_std": float(np.std(lams, ddof=1)),
        "rotation_std": float(np.std(turns, ddof=1)),
        "n_successful": len(lams),
    }
