"""Experimental sequence composition: excite, synchronize, analyze, detect.

One sequence is: thermal initialization in |down>, an optional coherent
displacement or squeeze kick, a synchronization MW pi/2 pulse, the
stroboscopic analysis train at the scan phase, and projective detection
of P_down. Thermal motion is handled by Monte-Carlo draws over initial
Fock levels, deduplicated into a weighted ensemble.

The excitation phase is referenced to the stroboscopic sampling instants:
a free pre-delay of one motional period minus half a flash aligns every
flash center with the nominal wave-packet phase, so a displacement phase
of zero means "wave packet at maximum position at the sampling times".
Dephasing enters as a classical contrast envelope over the train duration.

Every observable is an exact cosine in the analysis phase phi. Free motion
commutes with V(phi) = exp(-i phi sigma_z / 2), so the train at base phase
phi is V(phi) T V(phi)^dag with T the train at phi = 0. The final V leaves
populations alone and the initial V^dag only puts e^{-i phi/2} and
e^{+i phi/2} on the down and up parts of the pre-train state. Propagating
those two parts through T once therefore gives
p_down(phi) = c0 + 2 Re(c1 e^{i phi}), and the same form for <n> and for
the top-Fock-tail population after every flash, whose supremum over phi,
T0 + 2 |T1|, is what the truncation watchdog checks. SequenceFringe holds
these coefficients, so one propagation serves any phase grid and gives the
offset, contrast and phase in closed form; sequence_fringes propagates many
excitations, each distinct one once, through the shared train as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import (
    DephasingSpec,
    PulseTrainSpec,
    apply_dephasing,
    free_evolve,
    mw_rotation,
    run_pulse_train_block,
)
from .errors import ConfigError, IonstrobeError, TruncationError
from .hilbert import (
    CoherentAmp,
    FrameParams,
    HilbertSpec,
    ModeParams,
    SpinMotionState,
    SqueezeParam,
    check_truncation,
    displacement_operator,
    expect_n,
    squeeze_operator,
    thermal_ground_states,
)

REFERENCE_SEED_OFFSET = 1 << 20  # separates reference from measurement detection streams


@dataclass(frozen=True)
class SequenceSpec:
    """Everything needed to run one encode/analyze sequence."""

    hilbert: HilbertSpec
    mode: ModeParams
    frame: FrameParams
    analysis: PulseTrainSpec
    excitation: CoherentAmp | SqueezeParam | None = None
    dephasing: DephasingSpec = DephasingSpec(envelope="none")
    thermal_samples: int = 200
    thermal_seed: int = 0
    sync_phase: float = math.pi

    def pre_delay(self) -> float:
        """Free evolution that centers the first flash on the nominal phase."""
        return (self.mode.period - self.analysis.flash_dur / 2.0) % self.mode.period


@dataclass(frozen=True)
class ScanSpec:
    """Grid, detection, and referencing layout of one scan."""

    phi_grid: tuple
    outer_grid: tuple = (0.0,)
    outer_var: str = "none"
    detection_mode: str = "analytic"
    shots: int = 250
    base_seed: int = 0
    interleave_reference: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phi_grid", tuple(float(v) for v in self.phi_grid))
        object.__setattr__(self, "outer_grid", tuple(float(v) for v in self.outer_grid))
        if not self.phi_grid or not self.outer_grid:
            raise ConfigError("scan grids must be non-empty")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.outer_var not in ("none", "theta0", "zeta0", "alpha_abs"):
            raise ConfigError(f"unknown outer_var '{self.outer_var}'")
        if self.detection_mode not in ("analytic", "shots"):
            raise ConfigError(f"unknown detection mode '{self.detection_mode}'")


@dataclass(frozen=True)
class ScanRecord:
    """One scan point: corrected phase coordinate and detected observables."""

    phi: float
    outer: float
    p_down_mean: float
    p_down_sem: float
    sigma_z: float
    delta_n: float


@dataclass(frozen=True)
class PatternField:
    """Static traveling-wave pattern probed by displacing the ion."""

    wavelength: float
    rotation: float
    phase_origin: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")


@lru_cache(maxsize=24)
def _excitation_matrix(kind: str, magnitude: float, fock_dim: int) -> np.ndarray:
    spec = HilbertSpec(fock_dim=fock_dim, tail_tol=0.5)
    if kind == "coherent":
        op = displacement_operator(CoherentAmp(magnitude, 0.0), spec)
    else:
        op = squeeze_operator(SqueezeParam(magnitude, 0.0), spec)
    op.setflags(write=False)
    return op


def _apply_excitation(state: SpinMotionState, excitation) -> SpinMotionState:
    """Kick the motion; the phase enters by number-operator conjugation."""
    if excitation is None or excitation.magnitude == 0.0:
        return state
    n = state.fock_dim
    if isinstance(excitation, CoherentAmp):
        op = _excitation_matrix("coherent", excitation.magnitude, n)
        rot = excitation.phase
    elif isinstance(excitation, SqueezeParam):
        op = _excitation_matrix("squeeze", excitation.magnitude, n)
        rot = excitation.phase / 2.0
    else:
        raise ConfigError(f"unsupported excitation {type(excitation).__name__}")
    phases = np.exp(1j * rot * np.arange(n))
    blocks = [phases * (op @ (np.conj(phases) * block)) for block in state.spin_blocks()]
    return SpinMotionState(np.concatenate(blocks), n)


@dataclass(frozen=True)
class SequenceFringe:
    """Thermal-averaged observables of one sequence as exact functions of phi.

    p_down(phi) = p0 + 2 Re(p1 e^{i phi}) with the dephasing envelope folded
    into (p0, p1), and delta_n(phi) = n0 + 2 Re(n1 e^{i phi}). max_tail is
    the largest top-Fock-tail population over every flash, thermal level
    and analysis phase.
    """

    p0: float
    p1: complex
    n0: float
    n1: complex
    max_tail: float

    @property
    def contrast(self) -> float:
        """Peak-to-peak amplitude of p_down over phi."""
        return 4.0 * abs(self.p1)

    @property
    def phase(self) -> float:
        """phi0 of p_down = p0 + (contrast/2) cos(phi - phi0), in (-pi, pi]."""
        phase = math.atan2(-self.p1.imag, self.p1.real)
        return math.pi if phase == -math.pi else phase

    def evaluate(self, phi: float) -> tuple[float, float]:
        """(p_down, delta_n) at analysis phase phi; p_down clamped to [0, 1]."""
        rot = complex(math.cos(phi), math.sin(phi))
        p_down = self.p0 + 2.0 * (self.p1 * rot).real
        delta_n = self.n0 + 2.0 * (self.n1 * rot).real
        return min(max(p_down, 0.0), 1.0), delta_n


def sequence_fringes(spec: SequenceSpec, excitations) -> list[SequenceFringe]:
    """The fringe of `spec` under each of `excitations`, from one block propagation.

    The thermal levels of every distinct excitation (all no-kick ones, None
    or zero magnitude, are one) are split into spin-down and spin-up parts
    and pushed through the train at phi = 0 (see run_pulse_train_block). A
    TruncationError's index is the position of a failing excitation.
    """
    kicks = [None if e is None or e.magnitude == 0.0 else e for e in excitations]
    distinct = list(dict.fromkeys(kicks))
    if not distinct:
        return []
    _, weights, ground = thermal_ground_states(
        spec.mode.n_th, spec.thermal_samples, spec.thermal_seed, spec.hilbert
    )
    envelope = apply_dephasing(1.0, spec.dephasing, spec.analysis.total_duration)
    pre_delay = spec.pre_delay()
    pre_train, n_initial = [], []
    for kick in distinct:
        for st in ground:
            st = _apply_excitation(st, kick)
            n_initial.append(expect_n(st))
            if pre_delay > 0:
                st = free_evolve(st, spec.mode, pre_delay)
            st = mw_rotation(st, math.pi / 2.0, spec.sync_phase)
            rep = check_truncation(st, spec.hilbert)
            if not rep.passed:
                raise TruncationError(
                    f"excitation leaves {rep.tail_population:.3e} in the top "
                    f"{rep.tail_levels} Fock levels (tol {rep.tail_tol:g}); "
                    "increase fock_dim",
                    index=kicks.index(kick),
                )
            pre_train.append(st)
    train = replace(spec.analysis, base_phase=0.0)
    try:
        down, up, max_tail = run_pulse_train_block(
            pre_train, train, spec.mode, spec.frame, spec.hilbert
        )
    except TruncationError as exc:
        exc.index = kicks.index(distinct[exc.index // len(ground)])
        raise
    shape = (len(distinct), len(ground))  # rows: excitations; columns: thermal levels
    pop0 = np.abs(down) ** 2 + np.abs(up) ** 2
    pop1 = np.conj(down) * up
    n = spec.hilbert.fock_dim
    quanta = np.tile(np.arange(n), 2)
    p0 = 0.5 + (np.sum(pop0[:n], axis=0).reshape(shape) @ weights - 0.5) * envelope
    p1 = (np.sum(pop1[:n], axis=0).reshape(shape) @ weights) * envelope
    n0 = (quanta @ pop0 - np.asarray(n_initial)).reshape(shape) @ weights
    n1 = (quanta @ pop1).reshape(shape) @ weights
    tails = max_tail.reshape(shape).max(axis=1)
    columns = (c.tolist() for c in (p0, p1, n0, n1, tails))
    fringes = [SequenceFringe(*coefficients) for coefficients in zip(*columns)]
    return [fringes[distinct.index(kick)] for kick in kicks]


def run_sequence(spec: SequenceSpec, phi: float) -> tuple[float, float]:
    """Run the full sequence once at analysis phase phi.

    Returns the thermal-averaged, envelope-attenuated P_down and the
    back-action delta<n> between the post-excitation and post-analysis
    states.
    """
    return sequence_fringes(spec, [spec.excitation])[0].evaluate(phi)


def sample_detection(p_down: float, shots: int, seed) -> tuple[float, float]:
    """Bernoulli projection of `shots` detections; deterministic per seed."""
    if not 0.0 <= p_down <= 1.0:
        raise ValueError("p_down must lie in [0, 1]")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    mean = float(np.count_nonzero(rng.random(shots) < p_down)) / shots
    sem = math.sqrt(mean * (1.0 - mean) / shots)
    return mean, sem


def _outer_excitation(exc, outer_var: str, value: float):
    """The excitation `exc` with the scan's outer variable (see ScanSpec) set to `value`."""
    if outer_var == "alpha_abs":
        return CoherentAmp(value, exc.phase if isinstance(exc, CoherentAmp) else 0.0)
    if outer_var == "none":
        return exc
    kind, name = (CoherentAmp, "coherent") if outer_var == "theta0" else (SqueezeParam, "squeeze")
    if not isinstance(exc, kind):
        raise ConfigError(f"outer_var '{outer_var}' needs a {name} excitation")
    return replace(exc, phase=value)


def characterize_reference_fringe(spec: SequenceSpec) -> SequenceFringe:
    """Fringe of the alpha = 0 variant of `spec`, the phase reference."""
    return sequence_fringes(spec, [None])[0]


def _invert_reference(p_meas: float, fringe: SequenceFringe) -> float:
    """Drift estimate from one mid-fringe reference detection."""
    if fringe.contrast <= 0:
        return 0.0
    arg = (fringe.p0 - p_meas) * 2.0 / fringe.contrast
    return math.asin(min(max(arg, -1.0), 1.0))


def run_scan(
    scan: ScanSpec,
    spec: SequenceSpec,
    drift_phases: np.ndarray | None = None,
) -> list[ScanRecord]:
    """Evaluate the sequence over (outer, phi) grids, outer-major.

    One sequence_fringes call propagates every outer value and, with
    interleave_reference, the alpha = 0 reference; every phi point is read
    from those fringes. Per-point detection seeds are base_seed + point index.
    When interleave_reference is set, every measurement is preceded by an
    alpha = 0 reference realization at mid-fringe whose inferred drift is
    subtracted from the measurement's phase coordinate. drift_phases, if
    given, supplies one injected apparatus phase per realization.
    """
    n_phi = len(scan.phi_grid)
    n_points = len(scan.outer_grid) * n_phi
    reals_per_point = 2 if scan.interleave_reference else 1
    if drift_phases is not None and len(drift_phases) < n_points * reals_per_point:
        raise ConfigError(
            f"drift trace supplies {len(drift_phases)} phases, "
            f"need {n_points * reals_per_point}"
        )

    def _drift(real_index: int) -> float:
        if drift_phases is None:
            return 0.0
        return float(drift_phases[real_index])

    try:
        kicks = [_outer_excitation(spec.excitation, scan.outer_var, v) for v in scan.outer_grid]
        fringes = sequence_fringes(spec, kicks + [None] * scan.interleave_reference)
    except IonstrobeError as exc:
        index = getattr(exc, "index", None) or 0
        if index < len(scan.outer_grid):
            where = f"at scan point (outer={scan.outer_grid[index]:g})"
        else:
            where = "in the alpha = 0 reference"
        raise type(exc)(f"{where}: {exc}") from exc
    if scan.interleave_reference:
        ref = fringes.pop()
        phi_ref = ref.phase + math.pi / 2.0

    records = []
    for outer_idx, (outer, fringe) in enumerate(zip(scan.outer_grid, fringes)):
        for phi_idx, phi in enumerate(scan.phi_grid):
            idx = outer_idx * n_phi + phi_idx
            if scan.interleave_reference:
                ref_real, meas_real = 2 * idx, 2 * idx + 1
                p_ref = ref.evaluate(phi_ref + _drift(ref_real))[0]
                if scan.detection_mode == "shots":
                    p_ref, _ = sample_detection(
                        p_ref, scan.shots, scan.base_seed + idx + REFERENCE_SEED_OFFSET
                    )
                drift_hat = _invert_reference(p_ref, ref)
                p, dn = fringe.evaluate(phi + _drift(meas_real))
                phi_out = phi + drift_hat
            else:
                p, dn = fringe.evaluate(phi + _drift(idx))
                phi_out = phi
            if scan.detection_mode == "shots":
                mean, sem = sample_detection(p, scan.shots, scan.base_seed + idx)
            else:
                mean, sem = p, 0.0
            records.append(
                ScanRecord(
                    phi=phi_out,
                    outer=outer,
                    p_down_mean=mean,
                    p_down_sem=sem,
                    sigma_z=1.0 - 2.0 * mean,
                    delta_n=dn,
                )
            )
    return records


def static_pattern_probe(x, z, pattern: PatternField, contrast: float | None = None):
    """P_down when the ion sits at (x, z) in the standing phase pattern.

    Used with a fixed analysis phase; the fringe runs along the effective
    wave vector at `pattern.rotation` from the z axis.
    """
    c = pattern.amplitude if contrast is None else contrast
    u = (
        2.0
        * math.pi
        * (np.asarray(x) * math.sin(pattern.rotation) + np.asarray(z) * math.cos(pattern.rotation))
        / pattern.wavelength
    )
    out = 0.5 + 0.5 * c * np.cos(u + pattern.phase_origin)
    return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

