"""Pulse-train tuning and encode/decode calibration.

The tuner makes the bare train a pi/2 rotation on the thermal alpha = 0
state: the root in rabi_scale of the signed, thermally weighted <sigma_z>
in the lowest sign change among 0.5, 1 and 1.5 times the Debye-Waller
start, searched and polished in a small Fock space, then checked at the
configured one against TUNE_TOL. Decode tables are built from the exact
fringes of a grid of displacement amplitudes, tabulating fringe phase
against true position (turning point theta0 = 0, mirrored onto pi) and
fringe contrast against true momentum magnitude (theta0 = pi/2);
DecodeTables.decode is the one call that turns a fringe's (phase,
contrast) back into (position, momentum magnitude), clamped to the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PulseTrainSpec, run_pulse_train, run_pulse_train_block
from .errors import CalibrationError, DecodeError, TruncationError
from .fitting import CosineFit, fit_cosine
from .hilbert import (
    HBAR,
    SPIN_DOWN,
    CoherentAmp,
    HilbertSpec,
    UnitScale,
    _expi_ladder,
    _require_levels,
    expect_sigma_z,
    make_initial_state,
    thermal_ensemble,
)
from .sequence import ScanRecord, ScanSpec, SequenceSpec, sequence_fringes


@dataclass(frozen=True)
class TrainTuning:
    """Result of the pi/2 train tuning."""

    rabi_scale: float
    achieved_sigma_z: float
    n_evaluations: int = 0
    search_fock_dim: int = 0  # the Fock space the root was searched and polished in


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


# A decode key outside its table by at most this fraction of the table's
# range, below the 12 printed digits, is rounding and is not flagged clamped.
CLAMP_SLACK = 1e-12


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
    position x = 2 x_zpf alpha (m), the fringe phase phi_plus at theta0 = 0
    (unwrapped along the amplitudes, anchored so the alpha = 0 entry sits
    at 0), the planted momentum magnitude p = 2 p_zpf alpha (kg m/s), and
    the fringe contrast at theta0 = pi/2. The derived position map pos_x /
    pos_phi0 joins -x at the theta0 = pi phase, its mirror -phi_plus, and
    +x at phi_plus; the momentum map is p / contrast, anchored at the
    alpha = 0 contrast maximum. `alpha`, the amplitudes where known, only
    names them when a map is not monotone.
    """

    x: np.ndarray
    phi_plus: np.ndarray
    p: np.ndarray
    contrast: np.ndarray
    alpha: np.ndarray | None = None

    def __post_init__(self):
        self.pos_x = np.concatenate([-self.x[:0:-1], self.x])
        self.pos_phi0 = np.concatenate([-self.phi_plus[:0:-1], self.phi_plus])
        # the phase must rise from the first amplitude's mirror on: an unanchored one fails at 0
        for what, rising, lead in (
            ("fringe phase at theta0 = 0 does not rise", self.pos_phi0[self.x.size - 2:], 1),
            ("contrast at theta0 = pi/2 does not fall", -self.contrast, 0),
        ):
            turns = np.flatnonzero(~(np.diff(rising) > 0))  # in amplitude order, NaN included
            if turns.size:
                i = max(int(turns[0]) - lead, 0)
                step = (f"|alpha| = {self.alpha[i]:g} to {self.alpha[i + 1]:g}"
                        if self.alpha is not None else f"table entry {i} to {i + 1}")
                raise DecodeError(f"decode tables are not monotone: the {what} from {step}")
        self._pos_interp = pchip(self.pos_phi0, self.pos_x)
        self._mom_interp = pchip(self.contrast[::-1], self.p[::-1])

    def decode(self, phase: float, contrast: float) -> DecodedPoint:
        """Position (m) and momentum magnitude (kg m/s) from one fringe.

        The phase must already be relative to the alpha = 0 reference fringe
        (and unwrapped if a sweep crossed +-pi). A phase or contrast outside
        its table, by any amount, decodes at the table's edge and sets
        x_clamped or p_clamped. Within CLAMP_SLACK of the range it decodes at
        the edge unflagged: the alpha = 0 fringe's refit lands there at
        rounding level.
        """
        values, clamped = [], []
        for interp, key, value in (
            (self._pos_interp, self.pos_phi0, phase),
            (self._mom_interp, self.contrast[::-1], contrast),
        ):
            lo, hi = float(key[0]), float(key[-1])
            values.append(float(interp(min(max(value, lo), hi))))
            slack = CLAMP_SLACK * (hi - lo)
            clamped.append(not lo - slack <= value <= hi + slack)
        return DecodedPoint(*values, *clamped)


def _scaled_train(train: PulseTrainSpec, rabi_scale: float) -> PulseTrainSpec:
    """The train with its Rabi rate times rabi_scale, which must be finite."""
    rabi = train.drive.rabi * rabi_scale
    if not math.isfinite(rabi):
        raise CalibrationError(f"Rabi rate {train.drive.rabi / (2.0 * math.pi):g} Hz times "
                               f"rabi_scale {rabi_scale:g} is not finite")
    return replace(train, drive=replace(train.drive, rabi=rabi))


def apply_tuning(spec: SequenceSpec, tuning: TrainTuning) -> SequenceSpec:
    """Sequence with the tuned Rabi scale folded into the train."""
    return replace(spec, analysis=_scaled_train(spec.analysis, tuning.rabi_scale))


# The tuner searches in Fock spaces of 32, 64, 128, ... levels below the
# configured one. A smaller space is kept only while every evaluation's top-Fock
# tail stays under SEARCH_TAIL_BOUND: truncation then moves <sigma_z> by about
# the tail population, far below double rounding, so the search finds the
# root it would find at the configured size, to rounding.
FIRST_SEARCH_DIM = 32
SEARCH_TAIL_BOUND = 1e-20
# _root holds the search's root to ROOT_RTOL of its bracket within
# MAX_ROOT_STEPS probes; _polish then settles it on a GRID_BITS cell in the
# same space, and at the configured size the tuned train must reach
# |<sigma_z>| <= TUNE_TOL.
ROOT_RTOL = 2.0 ** -36
GRID_BITS = 28
MAX_ROOT_STEPS = 60
TUNE_TOL = 5e-3


def _search_spaces(hilbert: HilbertSpec):
    """The spaces to search in, smallest first; the configured space is last."""
    dim = FIRST_SEARCH_DIM
    while dim < hilbert.fock_dim:
        yield HilbertSpec(fock_dim=dim, tail_tol=SEARCH_TAIL_BOUND)
        dim *= 2
    yield hilbert


def _root(f, a: float, fa: float, b: float, fb: float) -> float:
    """A root of f in [a, b], where a < b and fa = f(a), fb = f(b) differ in sign.

    Illinois regula falsi: each probe is the zero of the chord through the
    ends and replaces the end of its sign; an end kept twice in a row enters
    the chord at half its value. The next chord zero is returned unprobed
    once it lies within ROOT_RTOL max(|a|, |b|) of the last probe, so every
    sign read lies far above f's rounding and f's last bits move neither the
    probes nor their count. MAX_ROOT_STEPS probes short of that raise
    CalibrationError.
    """
    xtol = ROOT_RTOL * max(abs(a), abs(b))
    ga, gb, kept, x = fa, fb, None, math.inf  # chord end values, end kept last, last probe
    for _ in range(MAX_ROOT_STEPS + 1):
        zero = b - gb * (b - a) / (gb - ga)
        if abs(zero - x) <= xtol:
            return zero
        x, fx = zero, f(zero)
        if (fx < 0.0) == (fb < 0.0):
            b, fb, gb = x, fx, fx
            ga, kept = (0.5 * ga if kept == "a" else ga), "a"
        else:
            a, fa, ga = x, fx, fx
            gb, kept = (0.5 * gb if kept == "b" else gb), "b"
    raise CalibrationError(f"pi/2 root finder still bracketing [{a:.17g}, {b:.17g}] "
                           f"after {MAX_ROOT_STEPS} probes")


def _polish(root: float, f) -> float:
    """The zero of f's chord across the cell [g, g + h) that holds root, g
    keeping GRID_BITS significant bits of it. The cell is far wider than the
    rounding of the f that found root, so the result does not depend on it."""
    h = math.ldexp(1.0, math.frexp(root)[1] - GRID_BITS)
    g = math.floor(root / h) * h
    fg, fh = f(g), f(g + h)
    return float(g + h - fh * h / (fh - fg))


def _search(spec: SequenceSpec, hilbert: HilbertSpec, start: float, levels: np.ndarray,
            weights: np.ndarray) -> tuple[float, int]:
    """(root, probes) of the <sigma_z> of the thermal `levels`, weighted by
    `weights`, in rabi_scale, in the Fock space `hilbert`.

    <sigma_z> is probed at 0.5, 1 and 1.5 times `start`, lowest first, and
    _root runs in the lowest pair with a sign change: the smallest rotation
    that reaches the equator; _polish's two probes then settle the root.
    Each probe propagates the thermal levels as one block. Raises
    CalibrationError when no pair changes sign, and TruncationError when
    the levels do not fit the space or a probe's tail exceeds hilbert.tail_tol.
    """
    n = hilbert.fock_dim
    _require_levels(hilbert, levels.size, f"the thermal mixture's Fock level {levels.size - 1}")
    states = np.eye(2 * n, dtype=complex)[:, levels]  # |down>|l>, one column per level
    n_evals = 0

    def sigma_z(rabi_scale: float) -> float:
        nonlocal n_evals
        n_evals += 1
        trial = _scaled_train(spec.analysis, rabi_scale)
        down, up, _ = run_pulse_train_block(states, trial, spec.mode, hilbert)
        out = down + up  # each state's image at phi = 0
        sz = np.sum(np.abs(out[n:]) ** 2, axis=0) - np.sum(np.abs(out[:n]) ** 2, axis=0)
        return float(np.dot(weights, sz))

    probes = [(0.5 * start, sigma_z(0.5 * start))]
    for scale in (start, 1.5 * start):
        probes.append((scale, sigma_z(scale)))
        if probes[-2][1] * probes[-1][1] <= 0.0:
            root = _polish(_root(sigma_z, *probes[-2], *probes[-1]), sigma_z)
            return root, n_evals
    values = ", ".join(f"{sz:.3e} at {scale:.6g}" for scale, sz in probes)
    raise CalibrationError(f"no sign change of <sigma_z> in rabi_scale "
                           f"[{probes[0][0]:.6g}, {probes[-1][0]:.6g}]: {values}")


def tune_pulse_train(spec: SequenceSpec) -> TrainTuning:
    """Calibrate rabi_scale so the bare train is a pi/2 pulse: the root of
    the signed <sigma_z> of the train on |down> with the thermal ensemble of
    `spec`, from the Debye-Waller start; spec.excitation is ignored.

    The search (_search) and its polish (_polish) run in the smallest of
    32, 64, 128, ... Fock levels below spec.hilbert.fock_dim that holds the
    thermal levels, cut at spec.hilbert.tail_tol, and whose every probe keeps
    its tail under SEARCH_TAIL_BOUND, else at the configured size;
    search_fock_dim names that space. The root is then checked once at the
    configured size, state by state through run_pulse_train with the
    tail_tol watchdog. The check gives achieved_sigma_z, and a value above
    TUNE_TOL raises CalibrationError. n_evaluations counts the search's and
    the polish's probes, not the check's. A fock_dim too small for the tuned
    train raises TruncationError.
    """
    train = spec.analysis
    levels, weights = thermal_ensemble(spec.mode.n_th, spec.hilbert)
    # analytic starting point: the thermally weighted Debye-Waller carrier rate,
    # <l|C|l> = e^{-eta^2/2} L_l(eta^2) of the coupling operator every flash is built
    # from, read off the thermal levels' columns C[:, levels] alone
    carrier = _expi_ladder(train.drive.eta, spec.hilbert.fock_dim, 1, levels)[
        levels, np.arange(levels.size)].real
    dw = float(np.dot(weights, carrier))
    theta_full = train.n_flashes * train.drive.rabi * train.flash_dur * max(dw, 1e-12)
    start = (math.pi / 2.0) / theta_full if theta_full > 0.0 else math.inf
    if not 0.0 < start < math.inf:
        raise CalibrationError(f"Rabi rate {train.drive.rabi / (2.0 * math.pi):g} Hz gives the pi/2 "
                               f"tuner the start rabi_scale {start:g}, not finite and positive")

    for hilbert in _search_spaces(spec.hilbert):
        try:
            scale, n_evals = _search(spec, hilbert, start, levels, weights)
            break
        except TruncationError:
            if hilbert is spec.hilbert:
                raise
    tuned = _scaled_train(train, scale)
    grounds = (make_initial_state(SPIN_DOWN, int(level), spec.hilbert) for level in levels)
    achieved = abs(sum(w * expect_sigma_z(run_pulse_train(ground, tuned, spec.mode, spec.hilbert))
                       for w, ground in zip(weights, grounds)))
    if achieved > TUNE_TOL:
        raise CalibrationError(f"tuned point reaches |<sigma_z>| = {achieved:.3e} at fock_dim "
                               f"{spec.hilbert.fock_dim}, above {TUNE_TOL:g}")
    return TrainTuning(scale, achieved, n_evals, hilbert.fock_dim)


def build_decode_tables(spec: SequenceSpec, units: UnitScale, alpha_grid) -> DecodeTables:
    """Tabulate the decode maps from the exact fringes over |alpha|.

    The position branch runs at the turning point theta0 = 0 where the
    encoding is a pure fringe shift; phases are unwrapped along the
    amplitude grid and anchored to the alpha = 0 fringe. The momentum
    branch runs at theta0 = pi/2 where only the contrast responds. One
    sequence_fringes call propagates both. The turning point theta0 = pi
    needs no propagation: the parity sigma_x (x) (-1)^(a_dag a) commutes
    with the train and maps D(alpha) to D(-alpha), so p1 at theta0 = pi is
    conj(p1) at 0 and its phase is -phi_plus (the alpha = 0 anchor's p1 is
    real), which DecodeTables joins in. A TruncationError at an amplitude
    is raised again with the amplitude prefixed, keeping its index (the
    excitation's position, two per amplitude) and phase.
    """
    alphas = np.asarray(sorted(set(float(a) for a in alpha_grid)))
    if alphas[0] != 0.0:
        alphas = np.concatenate([[0.0], alphas])
    if len(alphas) < 3:
        raise DecodeError("alpha grid must contain at least 3 amplitudes")

    kicks = [CoherentAmp(float(a), t) for a in alphas for t in (0.0, math.pi / 2.0)]
    try:
        fringes = sequence_fringes(spec, kicks)
    except TruncationError as exc:
        if exc.index is not None:  # else the thermal mixture, before any amplitude
            exc.args = (f"at decode amplitude |alpha|={kicks[exc.index].magnitude:g}: {exc}",)
        raise
    plus, mom = fringes[0::2], fringes[1::2]

    anchor = plus[0].phase
    return DecodeTables(
        x=2.0 * units.x_zpf * alphas,
        phi_plus=np.unwrap([f.phase - anchor for f in plus]),
        p=2.0 * units.p_zpf * alphas,
        contrast=np.array([f.contrast for f in mom]),
        alpha=alphas,
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


def fit_scan(scan: ScanSpec, records: list[ScanRecord]) -> list[CosineFit]:
    """One fit_cosine per outer value of `scan` over its phi sweep in `records`,
    with the sems floored at 1/(2 shots) under shot detection."""
    n_phi = len(scan.phi_grid)
    sem_floor = None if scan.shots is None else 1.0 / (2.0 * scan.shots)
    return [
        fit_cosine([(r.phi, r.p_down_mean, r.p_down_sem) for r in records[k : k + n_phi]],
                   sem_floor=sem_floor)
        for k in range(0, len(scan.outer_grid) * n_phi, n_phi)
    ]

