"""Pulse-train tuning, encode/decode calibration, and noise-floor estimation.

The tuner adjusts (per-flash phase step, Rabi scale) of the stroboscopic
train until the bare train acts as a pi/2 rotation on the thermal alpha=0
state. Its search propagates the thermal levels as one block in the
smallest Fock space of 32, 64, 128, ... levels whose tail stays negligible,
and the point it returns is checked once at the configured fock_dim and
tail_tol, state by state through run_pulse_train. Decode tables are then
built from the exact fringes of a grid of displacement amplitudes,
tabulating fringe phase against true position (turning points, theta0 in
{0, pi}) and fringe contrast against true momentum magnitude
(theta0 = pi/2); DecodeTables.decode is the one call that turns a fringe's
(phase, contrast) back into (position, momentum magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PulseTrainSpec, run_pulse_train, run_pulse_train_block
from .errors import CalibrationError, DecodeError, TruncationError
from .fitting import fit_cosine
from .hilbert import (
    HBAR,
    CoherentAmp,
    HilbertSpec,
    UnitScale,
    expect_sigma_z,
    thermal_ground_states,
)
from .sequence import (
    ScanSpec,
    SequenceSpec,
    characterize_reference_fringe,
    run_scan,
    sequence_fringes,
)


@dataclass(frozen=True)
class TrainTuning:
    """Result of the pi/2 train optimization."""

    phase_step: float
    rabi_scale: float
    achieved_sigma_z: float
    n_evaluations: int = 0


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, limited to keep the end piece's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x: np.ndarray, y: np.ndarray):
    """Monotone piecewise cubic Hermite interpolant through (x, y).

    x must be strictly increasing. Interior slopes are the Fritsch-Butland
    weighted harmonic mean of the adjacent secants, or 0 where the secants
    differ in sign or either is 0; end slopes follow `_end_slope` (Moler's
    pchiptx); two knots give the straight line. Beyond the knots the end
    cubics extrapolate. Slopes, coefficients and evaluation follow the
    operation order of scipy.interpolate.PchipInterpolator.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        d = np.array([m[0], m[0]])
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        ends = (_end_slope(h[0], h[1], m[0], m[1]), _end_slope(h[-1], h[-2], m[-1], m[-2]))
        d = np.concatenate(([ends[0]], np.where(flat, 0.0, inner), [ends[1]]))
    t = (d[:-1] + d[1:] - 2 * m) / h
    c3, c2, c1, c0 = y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h

    def interp(v):
        i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, h.size - 1)
        s = v - x[i]
        return c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)

    return interp


@dataclass(frozen=True)
class DecodedPoint:
    x: float
    p_mag: float
    x_clamped: bool = False
    p_clamped: bool = False


@dataclass
class DecodeTables:
    """Monotone maps from fringe observables to motional observables.

    One entry per displacement amplitude, alpha = 0 first: the planted
    position x = 2 x_zpf alpha (m), the fringe phases phi_plus and phi_minus
    at the turning points theta0 = 0 and pi (unwrapped along the amplitudes,
    anchored so the alpha = 0 entry sits at 0), the planted momentum
    magnitude p = 2 p_zpf alpha (kg m/s), and the fringe contrast at
    theta0 = pi/2. The derived position map pos_x / pos_phi0 joins both
    branches, -x at phi_minus and +x at phi_plus; the momentum map is
    mom_p / mom_c, anchored at the alpha = 0 contrast maximum.
    """

    x: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    p: np.ndarray
    contrast: np.ndarray

    def __post_init__(self):
        self.pos_x = np.concatenate([-self.x[:0:-1], self.x])
        self.pos_phi0 = np.concatenate([self.phi_minus[:0:-1], self.phi_plus])
        self.mom_p, self.mom_c = self.p, self.contrast
        self._check_monotone(self.pos_phi0, self.pos_x, "position")
        self._check_monotone(self.mom_c[::-1], self.mom_p[::-1], "momentum")
        self._pos_interp = pchip(self.pos_phi0, self.pos_x)
        self._mom_interp = pchip(self.mom_c[::-1], self.mom_p[::-1])

    @staticmethod
    def _check_monotone(key: np.ndarray, value: np.ndarray, name: str):
        diffs = np.diff(key)
        if np.any(diffs <= 0):
            bad = int(np.argmax(diffs <= 0))
            raise DecodeError(
                f"{name} table is not strictly monotone between entries "
                f"{bad} and {bad + 1} (values {value[bad]:g}, {value[bad + 1]:g})"
            )

    def _lookup(self, interp, lo, hi, value, what, strict):
        margin = 0.10 * (hi - lo)
        if strict and (value < lo - margin or value > hi + margin):
            raise DecodeError(
                f"{what} {value:g} lies outside the decode domain "
                f"[{lo:g}, {hi:g}] by more than 10% of its range"
            )
        clamped = not lo <= value <= hi
        return float(interp(min(max(value, lo), hi))), clamped

    def decode_position(self, phi0: float, strict: bool = True) -> tuple[float, bool]:
        """Position (m) from an anchored, unwrapped fringe phase.

        Values slightly outside the table clamp to the edge with a flag;
        beyond 10% of the domain this raises unless strict=False.
        """
        return self._lookup(
            self._pos_interp, float(self.pos_phi0[0]), float(self.pos_phi0[-1]), phi0,
            "phase", strict,
        )

    def decode_momentum(self, contrast: float, strict: bool = True) -> tuple[float, bool]:
        """Momentum magnitude (kg m/s) from a fitted contrast."""
        return self._lookup(
            self._mom_interp, float(self.mom_c[-1]), float(self.mom_c[0]), contrast,
            "contrast", strict,
        )

    def decode(self, phase: float, contrast: float, strict: bool = True) -> DecodedPoint:
        """Position and momentum magnitude from one fringe.

        The phase must already be relative to the alpha = 0 reference fringe
        (and unwrapped if a sweep crossed +-pi); clamping and strict follow
        decode_position and decode_momentum.
        """
        x, x_clamped = self.decode_position(phase, strict)
        p, p_clamped = self.decode_momentum(contrast, strict)
        return DecodedPoint(x=x, p_mag=p, x_clamped=x_clamped, p_clamped=p_clamped)


def _laguerre(levels: np.ndarray, x: float) -> np.ndarray:
    """Laguerre polynomials L_n(x) for integer levels n >= 0.

    Uses the recurrence of scipy.special.eval_laguerre for integer n
    (d_1 = -x, d_{k+1} = -x p_k / (k+1) + k d_k / (k+1), p_{k+1} = p_k + d_{k+1}),
    so the values agree with it bit for bit.
    """
    vals = [1.0]
    d = -x
    p = 1.0 + d
    for k in range(1, int(np.max(levels)) + 1):
        vals.append(p)
        d = -x / (k + 1.0) * p + (k / (k + 1.0)) * d
        p = p + d
    return np.array(vals)[np.asarray(levels, dtype=int)]


def golden_section(f, lo: float, hi: float, xtol: float = 1e-6, max_iter: int = 100):
    """Minimize a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < xtol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _scaled_train(train: PulseTrainSpec, phase_step: float, rabi_scale: float) -> PulseTrainSpec:
    """The train with this phase step and its Rabi rate times rabi_scale."""
    drive = replace(train.drive, rabi=train.drive.rabi * rabi_scale)
    return replace(train, phase_step=phase_step, drive=drive)


def apply_tuning(spec: SequenceSpec, tuning: TrainTuning) -> SequenceSpec:
    """Sequence with the tuned phase step and Rabi scale folded into the train."""
    train = _scaled_train(spec.analysis, tuning.phase_step, tuning.rabi_scale)
    return replace(spec, analysis=train)


# The tuner searches in Fock spaces of 32, 64, 128, ... levels below the
# configured one. A smaller space is kept only while every evaluation's top-Fock
# tail stays under SEARCH_TAIL_BOUND: truncation then moves |<sigma_z>| by about
# the tail population, far below double rounding, so the search probes the
# same points it would probe at the configured size.
FIRST_SEARCH_DIM = 32
SEARCH_TAIL_BOUND = 1e-20


def _search_spaces(hilbert: HilbertSpec):
    """The spaces to search in, smallest first; the configured space is last."""
    dim = FIRST_SEARCH_DIM
    while dim < hilbert.fock_dim:
        yield HilbertSpec(fock_dim=dim, tail_tol=SEARCH_TAIL_BOUND)
        dim *= 2
    yield hilbert


def _search(
    spec: SequenceSpec,
    hilbert: HilbertSpec,
    start: tuple[float, float],
    tol: float,
    max_sweeps: int,
    xtol: float,
) -> TrainTuning:
    """Coordinate descent on |<sigma_z>| in the Fock space `hilbert`.

    Each evaluation propagates the thermal levels as one block and reads
    sigma_z at base phase offset 0 in closed form. Raises TruncationError
    when the thermal draw or any evaluation's tail exceeds hilbert.tail_tol.
    """
    n = hilbert.fock_dim
    _, weights, states = thermal_ground_states(
        spec.mode.n_th, spec.thermal_samples, spec.thermal_seed, hilbert
    )
    n_evals = 0

    def objective(phase_step: float, rabi_scale: float) -> float:
        nonlocal n_evals
        n_evals += 1
        trial = _scaled_train(spec.analysis, phase_step, rabi_scale)
        down, up, _ = run_pulse_train_block(states, trial, spec.mode, spec.frame, hilbert)
        out = down + up  # each state's image at phi = 0
        sz = np.sum(np.abs(out[n:]) ** 2, axis=0) - np.sum(np.abs(out[:n]) ** 2, axis=0)
        return abs(float(np.dot(weights, sz)))

    step, scale = start
    best = (step, scale, objective(step, scale))
    if best[2] <= tol:
        return TrainTuning(step, scale, best[2], n_evals)

    for _ in range(max_sweeps):
        scale, val = golden_section(lambda s: objective(step, s), 0.5 * scale, 1.5 * scale, xtol)
        if val < best[2]:
            best = (step, scale, val)
        if val <= tol:
            return TrainTuning(step, scale, val, n_evals)
        step, val = golden_section(lambda d: objective(d, scale), step - 0.2, step + 0.2, xtol)
        if val < best[2]:
            best = (step, scale, val)
        if val <= tol:
            return TrainTuning(step, scale, val, n_evals)
    raise CalibrationError(
        f"tuner stalled at |<sigma_z>| = {best[2]:.3e} (tol {tol:g}) "
        f"after {n_evals} evaluations"
    )


def tune_pulse_train(
    spec: SequenceSpec,
    tol: float = 5e-3,
    max_sweeps: int = 6,
    xtol: float = 1e-6,
) -> TrainTuning:
    """Calibrate (phase_step, rabi_scale) so the bare train is a pi/2 pulse.

    Derivative-free coordinate descent with golden-section line searches,
    minimizing |<sigma_z>| of the train applied to |down> with the thermal
    motional ensemble of `spec` (the alpha = 0 sequence). The search stops
    as soon as a probed point satisfies the tolerance.

    The search runs in the smallest of 32, 64, 128, ... Fock levels (below
    spec.hilbert.fock_dim) whose thermal draw fits and whose every evaluation
    keeps its tail under SEARCH_TAIL_BOUND, else at the configured size
    under spec.hilbert.tail_tol. The returned point is then evaluated once
    more at the configured fock_dim, state by state through run_pulse_train
    with the tail_tol watchdog: that check gives achieved_sigma_z, and if it
    misses tol the search moves to the next space. n_evaluations counts the
    probes of the search that returned the point, not the check. A fock_dim
    too small for the tuned train raises TruncationError.
    """
    if spec.excitation is not None and getattr(spec.excitation, "magnitude", 0.0) != 0.0:
        raise CalibrationError("tuning runs on the alpha = 0 sequence")
    if tol <= 0:
        raise CalibrationError("tol must be positive")

    train = spec.analysis
    levels, weights, states = thermal_ground_states(
        spec.mode.n_th, spec.thermal_samples, spec.thermal_seed, spec.hilbert
    )
    # analytic starting point: thermally weighted Debye-Waller carrier rate
    eta = train.drive.eta
    dw = math.exp(-(eta**2) / 2.0) * float(np.dot(weights, _laguerre(levels, eta**2)))
    theta_full = train.n_flashes * train.drive.rabi * train.flash_dur * max(dw, 1e-12)
    start = (train.phase_step, (math.pi / 2.0) / theta_full)

    for hilbert in _search_spaces(spec.hilbert):
        try:
            tuning = _search(spec, hilbert, start, tol, max_sweeps, xtol)
        except TruncationError:
            if hilbert is spec.hilbert:
                raise
            continue
        # the check at the configured size, also leaving its flash unitary cached
        tuned = _scaled_train(train, tuning.phase_step, tuning.rabi_scale)
        sz = 0.0
        for w, st in zip(weights, states):
            out = run_pulse_train(st, tuned, spec.mode, spec.frame, spec.hilbert)
            sz += w * expect_sigma_z(out)
        achieved = abs(sz)
        if achieved <= tol:
            return replace(tuning, achieved_sigma_z=achieved)
    raise CalibrationError(
        f"tuned point reaches |<sigma_z>| = {achieved:.3e} at fock_dim "
        f"{spec.hilbert.fock_dim}, above tol {tol:g}"
    )


def build_decode_tables(spec: SequenceSpec, units: UnitScale, alpha_grid) -> DecodeTables:
    """Tabulate the decode maps from the exact fringes over |alpha|.

    The position branches run at the turning points theta0 in {0, pi} where
    the encoding is a pure fringe shift; phases are unwrapped along the
    amplitude grid and anchored to the alpha = 0 fringe. The momentum
    branch runs at theta0 = pi/2 where only the contrast responds. One
    sequence_fringes call serves all three branches.
    """
    alphas = np.asarray(sorted(set(float(a) for a in alpha_grid)))
    if alphas[0] != 0.0:
        alphas = np.concatenate([[0.0], alphas])
    if len(alphas) < 3:
        raise DecodeError("alpha grid must contain at least 3 amplitudes")

    thetas = (0.0, math.pi, math.pi / 2.0)
    fringes = sequence_fringes(spec, [CoherentAmp(float(a), t) for a in alphas for t in thetas])
    plus, minus, mom = fringes[0::3], fringes[1::3], fringes[2::3]

    anchor = plus[0].phase
    return DecodeTables(
        x=2.0 * units.x_zpf * alphas,
        phi_plus=np.unwrap([f.phase - anchor for f in plus]),
        phi_minus=np.unwrap([f.phase - anchor for f in minus]),
        p=2.0 * units.p_zpf * alphas,
        contrast=np.array([f.contrast for f in mom]),
    )


def derive_lamb_dicke(
    mass: float,
    freq: float,
    eff_wavelength: float,
    projection_angle: float,
    hbar: float = HBAR,
) -> float:
    """Lamb-Dicke parameter of a drive projected onto one motional mode.

    eta = (2 pi / lambda_eff) cos(angle) sqrt(hbar / (2 m w)).
    """
    if mass <= 0 or freq <= 0 or eff_wavelength <= 0:
        raise ValueError("mass, freq, and eff_wavelength must be positive")
    if abs(projection_angle) > math.pi / 2:
        raise ValueError("|projection_angle| must be <= pi/2")
    x_zpf = math.sqrt(hbar / (2.0 * mass * freq))
    return (2.0 * math.pi / eff_wavelength) * math.cos(projection_angle) * x_zpf


def unwrap_sweep_phases(phases) -> np.ndarray:
    """Unwrap a phase sequence along a sweep and pull it to the branch
    whose mean is closest to zero (full-period sweeps average to zero)."""
    out = np.unwrap(np.asarray(phases, dtype=float))
    out -= 2.0 * math.pi * round(float(np.mean(out)) / (2.0 * math.pi))
    return out


def noise_floor_estimate(
    spec: SequenceSpec,
    tables: DecodeTables,
    phi_grid,
    shots: int | None,
    n_repeats: int,
    seed: int,
    drift_phases: np.ndarray | None = None,
) -> tuple[float, float]:
    """Statistical floor of the decoded observables at alpha = 0.

    Repeats the full encode/decode round trip (shot-sampled scan with
    interleaved phase referencing, fringe fit, table lookup) and returns
    the standard deviations of decoded position and momentum magnitude.
    `shots=None` runs the analytic no-noise limit.
    """
    if n_repeats < 20:
        raise CalibrationError(f"need at least 20 repeats, got {n_repeats}")
    base = replace(spec, excitation=CoherentAmp(0.0, 0.0))
    anchor = characterize_reference_fringe(base).phase
    xs, ps = [], []
    for r in range(n_repeats):
        scan = ScanSpec(
            phi_grid=tuple(phi_grid),
            outer_grid=(0.0,),
            outer_var="alpha_abs",
            detection_mode="analytic" if shots is None else "shots",
            shots=shots or 1,
            base_seed=seed + (1 << 24) * r,
            interleave_reference=True,
        )
        records = run_scan(scan, base, drift_phases=drift_phases)
        sem_floor = None if shots is None else 1.0 / (2.0 * shots)
        fit = fit_cosine(
            [(rec.phi, rec.p_down_mean, rec.p_down_sem) for rec in records],
            sem_floor=sem_floor,
        )
        rel_phase = math.remainder(fit.phase - anchor, 2.0 * math.pi)
        point = tables.decode(rel_phase, min(fit.contrast, float(tables.mom_c[0])))
        xs.append(point.x)
        ps.append(point.p_mag)
    return float(np.std(xs)), float(np.std(ps))
