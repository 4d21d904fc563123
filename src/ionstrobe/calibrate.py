"""Pulse-train tuning, encode/decode calibration, and noise-floor estimation.

The tuner adjusts (per-flash phase step, Rabi scale) of the stroboscopic
train until the bare train acts as a pi/2 rotation on the thermal alpha=0
state. Decode tables are then built from the exact fringes of a grid of
displacement amplitudes, tabulating fringe phase against true position
(turning points, theta0 in {0, pi}) and fringe contrast against true
momentum magnitude (theta0 = pi/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import run_pulse_train
from .errors import CalibrationError, DecodeError
from .fitting import CosineFit, fit_cosine
from .hilbert import (
    HBAR,
    CoherentAmp,
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


@dataclass
class DecodeTables:
    """Monotone maps from fringe observables to motional observables.

    pos_x / pos_phi0: planted position (m) against fitted fringe phase,
    anchored so the alpha = 0 entry sits at phi0 = 0. mom_p / mom_c:
    planted momentum magnitude (kg m/s) against fitted contrast, anchored
    at the alpha = 0 contrast maximum.
    """

    pos_x: np.ndarray
    pos_phi0: np.ndarray
    mom_p: np.ndarray
    mom_c: np.ndarray
    build_config: dict

    def __post_init__(self):
        # scipy is imported here, not at module level, to keep it off the CLI's import path
        from scipy.interpolate import PchipInterpolator

        self._check_monotone(self.pos_phi0, self.pos_x, "position")
        self._check_monotone(self.mom_c[::-1], self.mom_p[::-1], "momentum")
        self._pos_interp = PchipInterpolator(self.pos_phi0, self.pos_x)
        self._mom_interp = PchipInterpolator(self.mom_c[::-1], self.mom_p[::-1])

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


@dataclass(frozen=True)
class DecodedPoint:
    x: float
    p_mag: float
    x_clamped: bool = False
    p_clamped: bool = False


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


def apply_tuning(spec: SequenceSpec, tuning: TrainTuning) -> SequenceSpec:
    """Sequence with the tuned phase step and Rabi scale folded into the train."""
    train = spec.analysis
    drive = replace(train.drive, rabi=train.drive.rabi * tuning.rabi_scale)
    return replace(spec, analysis=replace(train, phase_step=tuning.phase_step, drive=drive))


def tune_pulse_train(
    spec: SequenceSpec,
    tol: float = 5e-3,
    max_sweeps: int = 6,
    xtol: float = 1e-6,
) -> TrainTuning:
    """Calibrate (phase_step, rabi_scale) so the bare train is a pi/2 pulse.

    Derivative-free coordinate descent with golden-section line searches,
    minimizing |<sigma_z>| of the train applied to |down> with the thermal
    motional ensemble of `spec` (the alpha = 0 sequence). Returns as soon
    as a probed point satisfies the tolerance.
    """
    if spec.excitation is not None and getattr(spec.excitation, "magnitude", 0.0) != 0.0:
        raise CalibrationError("tuning runs on the alpha = 0 sequence")
    if tol <= 0:
        raise CalibrationError("tol must be positive")

    train = spec.analysis
    levels, weights, states = thermal_ground_states(
        spec.mode.n_th, spec.thermal_samples, spec.thermal_seed, spec.hilbert
    )
    n_evals = 0

    def objective(phase_step: float, rabi_scale: float) -> float:
        nonlocal n_evals
        n_evals += 1
        trial = replace(
            train,
            phase_step=phase_step,
            drive=replace(train.drive, rabi=train.drive.rabi * rabi_scale),
        )
        sz = 0.0
        for w, st in zip(weights, states):
            out = run_pulse_train(st, trial, spec.mode, spec.frame, spec.hilbert)
            sz += w * expect_sigma_z(out)
        return abs(sz)

    # analytic starting point: thermally weighted Debye-Waller carrier rate
    eta = train.drive.eta
    dw = math.exp(-(eta**2) / 2.0) * float(np.dot(weights, _laguerre(levels, eta**2)))
    theta_full = train.n_flashes * train.drive.rabi * train.flash_dur * max(dw, 1e-12)
    scale = (math.pi / 2.0) / theta_full
    step = train.phase_step

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


def build_decode_tables(
    spec: SequenceSpec,
    units: UnitScale,
    alpha_grid,
    config_note: dict | None = None,
) -> DecodeTables:
    """Tabulate the decode maps from the exact fringes over |alpha|.

    The position branch runs at the turning points theta0 in {0, pi} where
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
    phi_plus = np.unwrap([f.phase - anchor for f in plus])
    phi_minus = np.unwrap([f.phase - anchor for f in minus])

    x_plus = 2.0 * units.x_zpf * alphas
    pos_x = np.concatenate([-x_plus[:0:-1], x_plus])
    pos_phi0 = np.concatenate([phi_minus[:0:-1], phi_plus])

    mom_p = 2.0 * units.p_zpf * alphas
    mom_c = np.array([f.contrast for f in mom])

    config = dict(config_note or {})
    config.setdefault("alpha_max", float(alphas[-1]))
    return DecodeTables(
        pos_x=pos_x, pos_phi0=pos_phi0, mom_p=mom_p, mom_c=mom_c, build_config=config
    )


def decode_observables(fit: CosineFit, tables: DecodeTables) -> DecodedPoint:
    """Position and momentum magnitude from one fitted fringe.

    The fit phase must already be expressed relative to the alpha = 0
    reference fringe (and unwrapped if the sweep crossed +-pi).
    """
    x, x_clamped = tables.decode_position(fit.phase)
    p, p_clamped = tables.decode_momentum(fit.contrast)
    return DecodedPoint(x=x, p_mag=p, x_clamped=x_clamped, p_clamped=p_clamped)


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
        x, _ = tables.decode_position(rel_phase)
        p, _ = tables.decode_momentum(min(fit.contrast, float(tables.mom_c[0])))
        xs.append(x)
        ps.append(p)
    return float(np.std(xs)), float(np.std(ps))
