"""Experimental sequence composition: excite, synchronize, analyze, detect.

One sequence is: thermal initialization in |down>, an optional coherent
displacement or squeeze kick, a synchronization MW pi/2 pulse, the
stroboscopic analysis train at the scan phase, and projective detection
of P_down. Thermal motion is the exact thermal mixture over initial Fock
levels (hilbert.thermal_ensemble), cut where its dropped tail falls below
hilbert.tail_tol and renormalised.

The excitation phase is referenced to the stroboscopic sampling instants:
a free pre-delay of one motional period minus half a flash aligns every
flash center with the nominal wave-packet phase, so a displacement phase
of zero means "wave packet at maximum position at the sampling times".
Dephasing enters as a classical contrast envelope over the train duration.

Every observable is an exact cosine in the analysis phase phi, the one
phase of the sequence. The engine runs the train T at phase 0, and free
motion commutes with V(phi) = exp(-i phi sigma_z / 2), so the train at phi
is V(phi) T V(phi)^dag. The final V leaves populations alone and the
initial V^dag only puts e^{-i phi/2} and e^{+i phi/2} on the down and up
parts of the pre-train state. Propagating those two parts through T once
therefore gives p_down(phi) = c0 + 2 Re(c1 e^{i phi}), and the same form
for <n> and for the top-Fock-tail population after every flash, whose
supremum over phi, T0 + 2 |T1|, is what the truncation watchdog checks; a
TruncationError's phase is the worst phi. SequenceFringe holds
these coefficients, so one propagation serves any phase grid and gives the
offset, contrast and phase in closed form; sequence_fringes propagates many
excitations, each distinct one once, through the shared train in blocks of
whole kicks that fit FRINGE_BLOCK_BYTES.

Each block goes through dynamics.propagate_block: flash by flash, or, when
that halves the counted work for the whole evaluation, through the cached
train operator (see the dynamics module docstring). A wide evaluation pays
for building it, and the narrow ones that follow on the same train find it
cached: on fig4 the 185-state decode-table evaluation builds it, and the
anchor and the theta0 scan reuse it. A kick meets only the thermal Fock levels, so just
their columns K|l> are formed (O(N^2 L), not O(N^3)), cached for one
magnitude, which every caller applies in consecutive kicks. The sync pi/2
pulse acts on the spin alone, so it commutes with the kick and the
pre-delay and is applied once: one spinor serves every column.
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
    mw_rotation,
    propagate_block,
)
from .errors import ConfigError, TruncationError
from .hilbert import (
    SPIN_DOWN,
    CoherentAmp,
    HilbertSpec,
    ModeParams,
    SqueezeParam,
    displacement_operator,
    make_initial_state,
    squeeze_operator,
    thermal_ensemble,
)

REFERENCE_SEED_OFFSET = 1 << 20  # separates reference from measurement detection streams
SYNC_PHASE = math.pi  # azimuth of the synchronization MW pi/2 pulse
FRINGE_BLOCK_BYTES = 3 * 2**18  # a fringe block's (2, N, 2S) sector array: 10 kicks on fig4


@dataclass(frozen=True)
class SequenceSpec:
    """Everything needed to run one encode/analyze sequence."""

    hilbert: HilbertSpec
    mode: ModeParams
    analysis: PulseTrainSpec
    excitation: CoherentAmp | SqueezeParam | None = None
    dephasing: DephasingSpec = DephasingSpec(envelope="none")

    def pre_delay(self) -> float:
        """Free evolution that centers the first flash on the nominal phase."""
        return (self.mode.period - self.analysis.flash_dur / 2.0) % self.mode.period


@dataclass(frozen=True)
class ScanSpec:
    """Grid, detection (shots=None: analytic), and referencing layout of one scan."""

    phi_grid: tuple
    outer_grid: tuple = (0.0,)
    outer_var: str = "none"
    shots: int | None = None
    base_seed: int = 0
    interleave_reference: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phi_grid", tuple(float(v) for v in self.phi_grid))
        object.__setattr__(self, "outer_grid", tuple(float(v) for v in self.outer_grid))
        if not self.phi_grid or not self.outer_grid:
            raise ConfigError("scan grids must be non-empty")
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots must be >= 1, or None for analytic detection")
        if self.outer_var not in ("none", "theta0", "zeta0", "alpha_abs"):
            raise ConfigError(f"unknown outer_var '{self.outer_var}'")

    @property
    def n_realizations(self) -> int:
        """Detection realizations: one per (outer, phi) point, two with interleave_reference."""
        return len(self.outer_grid) * len(self.phi_grid) * (2 if self.interleave_reference else 1)


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


@lru_cache(maxsize=1)
def _excitation_matrix(kind: str, magnitude: float, fock_dim: int, levels: tuple) -> np.ndarray:
    """Columns `levels` of the phase-0 kick: the (fock_dim, len(levels)) K|l>."""
    kick = displacement_operator if kind == "coherent" else squeeze_operator
    op = kick(magnitude, HilbertSpec(fock_dim=fock_dim, tail_tol=0.5), levels)
    op.setflags(write=False)
    return op


def _kicked_levels(excitation, levels: tuple, fock_dim: int) -> np.ndarray:
    """K|l> for the Fock levels `levels`, as (fock_dim, L) columns; the phase
    enters by number-operator conjugation, K = R K_0 R^dag, R = e^{i rot n}."""
    if excitation is None:
        return np.eye(fock_dim, dtype=complex)[:, list(levels)]
    kind = {CoherentAmp: "coherent", SqueezeParam: "squeeze"}.get(type(excitation))
    if kind is None:
        raise ConfigError(f"unsupported excitation {type(excitation).__name__}")
    op = _excitation_matrix(kind, excitation.magnitude, fock_dim, levels)
    rot = excitation.phase if kind == "coherent" else excitation.phase / 2.0
    phases = np.exp(1j * rot * np.arange(fock_dim))
    return phases[:, None] * (op * np.conj(phases[list(levels)]))


def _pre_train(spec: SequenceSpec, kicks: list, levels: np.ndarray):
    """The (2N, kicks x levels) pre-train block, kick-major, and each column's
    <n> after its kick: every column is the kicked, pre-delayed level |l> times
    the one sync-rotated spinor of |down>. A tail at tail_tol raises a
    TruncationError with the column as index.
    """
    n, hilbert, thermal = spec.hilbert.fock_dim, spec.hilbert, tuple(levels.tolist())
    motion = np.concatenate([_kicked_levels(kick, thermal, n) for kick in kicks], axis=1)
    n_initial = np.arange(n) @ np.abs(motion) ** 2
    motion *= np.exp(-1j * spec.mode.freq * spec.pre_delay() * np.arange(n))[:, None]
    sync = mw_rotation(make_initial_state(SPIN_DOWN, 0, hilbert), math.pi / 2.0, SYNC_PHASE)
    block = np.concatenate([sync.amplitudes[0] * motion, sync.amplitudes[n] * motion])
    pops = np.abs(block[:n]) ** 2 + np.abs(block[n:]) ** 2
    deviation = np.max(np.abs(np.sqrt(np.sum(pops, axis=0)) - 1.0))
    if not deviation <= 1e-10:  # a NaN fails too
        raise ValueError(f"state norm deviates from 1 by {deviation:.3e}")
    tails = np.sum(pops[-hilbert.tail_levels :], axis=0)
    if np.max(tails) >= hilbert.tail_tol:
        col = int(np.argmax(tails >= hilbert.tail_tol))
        raise TruncationError(
            f"excitation leaves {tails[col]:.3e} in the top {hilbert.tail_levels} Fock levels "
            f"(tol {hilbert.tail_tol:g}); increase fock_dim", index=col)
    return block, n_initial


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


def _block_fringes(spec: SequenceSpec, kicks: list, levels: np.ndarray, weights: np.ndarray,
                   n_states: int) -> list[SequenceFringe]:
    """sequence_fringes for one block of distinct kicks; its temporaries die on return."""
    pre_train, n_initial = _pre_train(spec, kicks, levels)
    down, up, max_tail = propagate_block(pre_train, spec.analysis, spec.mode, spec.hilbert, n_states)
    del pre_train
    envelope = apply_dephasing(spec.dephasing, spec.analysis.total_duration)
    shape = (len(kicks), len(levels))  # rows: excitations; columns: thermal levels
    pop0 = np.abs(down) ** 2 + np.abs(up) ** 2
    pop1 = np.conj(down) * up
    n = spec.hilbert.fock_dim
    quanta = np.tile(np.arange(n), 2)
    p0 = 0.5 + (np.sum(pop0[:n], axis=0).reshape(shape) @ weights - 0.5) * envelope
    p1 = (np.sum(pop1[:n], axis=0).reshape(shape) @ weights) * envelope
    n0 = (quanta @ pop0 - n_initial).reshape(shape) @ weights
    n1 = (quanta @ pop1).reshape(shape) @ weights
    tails = max_tail.reshape(shape).max(axis=1)
    columns = (c.tolist() for c in (p0, p1, n0, n1, tails))
    return [SequenceFringe(*coefficients) for coefficients in zip(*columns)]


def sequence_fringes(spec: SequenceSpec, excitations) -> list[SequenceFringe]:
    """The fringe of `spec` under each of `excitations`.

    The thermal levels of every distinct excitation (all no-kick ones, None
    or zero magnitude, are one) are split into spin-down and spin-up parts
    and pushed through the train at phi = 0 by propagate_block, whole kicks
    at a time: as many as keep a block's (2, N, 2S) sector array within
    FRINGE_BLOCK_BYTES, and at least one. Each block is reduced to its
    fringes before the next is formed, and the path (see the module
    docstring) is decided once, from the whole evaluation's width. A
    TruncationError's index is the position of a failing excitation: a kick
    too large for fock_dim in any block comes first, then the first failing
    block's error, its pre-train tail before a leak in the train.
    """
    kicks = [None if e is None or e.magnitude == 0.0 else e for e in excitations]
    distinct = list(dict.fromkeys(kicks))
    if not distinct:
        return []
    levels, weights = thermal_ensemble(spec.mode.n_th, spec.hilbert)
    per_block = max(1, FRINGE_BLOCK_BYTES // (64 * spec.hilbert.fock_dim * len(levels)))
    fringes = []
    for start in range(0, len(distinct), per_block):
        block = distinct[start : start + per_block]
        try:
            fringes += _block_fringes(spec, block, levels, weights, len(distinct) * len(levels))
        except TruncationError as exc:
            for kick in distinct[start:]:  # a kick too large for fock_dim first, from here on
                try:
                    _kicked_levels(kick, (), spec.hilbert.fock_dim)
                except TruncationError as too_large:
                    raise TruncationError(str(too_large), index=kicks.index(kick)) from None
            exc.index = kicks.index(block[exc.index // len(levels)])  # was a block column
            raise
    return [fringes[distinct.index(kick)] for kick in kicks]


def sample_detection(p_down: float, shots: int | None, seed) -> tuple[float, float]:
    """Bernoulli projection of `shots` detections; deterministic per seed.

    shots=None is analytic detection, the exact limit: (p_down, 0.0).
    """
    if not 0.0 <= p_down <= 1.0:
        raise ValueError("p_down must lie in [0, 1]")
    if shots is None:
        return p_down, 0.0
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    mean = float(np.count_nonzero(rng.random(shots) < p_down)) / shots
    sem = math.sqrt(mean * (1.0 - mean) / shots)
    return mean, sem


def _outer_excitation(exc, outer_var: str, value: float):
    """The excitation `exc` with the scan's outer variable (see ScanSpec) set to
    `value`; alpha_abs sets the magnitude of a coherent kick, or of none."""
    if outer_var == "none":
        return exc
    if outer_var == "alpha_abs" and exc is None:
        exc = CoherentAmp(0.0)
    kind, name = (SqueezeParam, "squeeze") if outer_var == "zeta0" else (CoherentAmp, "coherent")
    if not isinstance(exc, kind):
        raise ConfigError(f"outer_var '{outer_var}' needs a {name} excitation")
    field = "magnitude" if outer_var == "alpha_abs" else "phase"
    return replace(exc, **{field: value})


def characterize_reference_fringe(spec: SequenceSpec) -> SequenceFringe:
    """Fringe of the alpha = 0 variant of `spec`, the phase reference."""
    return sequence_fringes(spec, [None])[0]


def _invert_reference(p_meas: float, fringe: SequenceFringe) -> float:
    """Drift estimate from one mid-fringe reference detection."""
    if fringe.contrast <= 0:
        return 0.0
    arg = (fringe.p0 - p_meas) * 2.0 / fringe.contrast
    return math.asin(min(max(arg, -1.0), 1.0))


def scan_fringes(scan: ScanSpec, spec: SequenceSpec) -> list[SequenceFringe]:
    """The fringe of every outer value of `scan`, then, with
    interleave_reference, the alpha = 0 reference's, from one
    sequence_fringes call. A TruncationError with an index (the position of
    the outer value, or of the reference after them) is raised again, its
    index and phase kept and its message prefixed with that point; one
    without, such as the thermal mixture's, concerns no point.
    """
    kicks = [_outer_excitation(spec.excitation, scan.outer_var, v) for v in scan.outer_grid]
    try:
        return sequence_fringes(spec, kicks + [None] * scan.interleave_reference)
    except TruncationError as exc:
        if exc.index is not None:
            where = (f"at scan point (outer={scan.outer_grid[exc.index]:g})"
                     if exc.index < len(scan.outer_grid) else "in the alpha = 0 reference")
            exc.args = (f"{where}: {exc}",)
        raise


def sample_scan(
    scan: ScanSpec, fringes: list[SequenceFringe], drift_phases: np.ndarray | None = None
) -> list[ScanRecord]:
    """Read the scan's (outer, phi) grid, outer-major, from `fringes`: one per
    outer value, then the alpha = 0 reference (scan_fringes' layout).

    Per-point detection seeds are base_seed + point index. With
    interleave_reference, every measurement is preceded by a reference
    realization at mid-fringe whose inferred drift is subtracted from the
    measurement's phase coordinate. drift_phases, if given, supplies one
    injected apparatus phase per realization.
    """
    n_phi = len(scan.phi_grid)
    n_reals = scan.n_realizations
    if drift_phases is not None and len(drift_phases) < n_reals:
        raise ConfigError(f"drift trace supplies {len(drift_phases)} phases, need {n_reals}")
    drift = np.zeros(n_reals) if drift_phases is None else np.asarray(drift_phases, dtype=float)
    ref = fringes[-1]
    phi_ref = ref.phase + math.pi / 2.0
    records = []
    for outer_idx, (outer, fringe) in enumerate(zip(scan.outer_grid, fringes)):
        for phi_idx, phi in enumerate(scan.phi_grid):
            idx = outer_idx * n_phi + phi_idx
            if scan.interleave_reference:
                ref_real, meas_real = 2 * idx, 2 * idx + 1
                p_ref = ref.evaluate(phi_ref + drift[ref_real])[0]
                p_ref, _ = sample_detection(p_ref, scan.shots,
                                            scan.base_seed + idx + REFERENCE_SEED_OFFSET)
                drift_hat = _invert_reference(p_ref, ref)
                p, dn = fringe.evaluate(phi + drift[meas_real])
                phi_out = phi + drift_hat
            else:
                p, dn = fringe.evaluate(phi + drift[idx])
                phi_out = phi
            mean, sem = sample_detection(p, scan.shots, scan.base_seed + idx)
            records.append(ScanRecord(phi=phi_out, outer=outer, p_down_mean=mean, p_down_sem=sem,
                                      sigma_z=1.0 - 2.0 * mean, delta_n=dn))
    return records


def run_scan(
    scan: ScanSpec, spec: SequenceSpec, drift_phases: np.ndarray | None = None
) -> list[ScanRecord]:
    """Propagate the scan's fringes (scan_fringes) and sample them (sample_scan)."""
    return sample_scan(scan, scan_fringes(scan, spec), drift_phases)


def static_pattern_probe(x, z, pattern: PatternField):
    """P_down when the ion sits at (x, z) in the standing phase pattern,
    elementwise over array coordinates.

    Used with a fixed analysis phase; the fringe runs along the effective
    wave vector at `pattern.rotation` from the z axis, with contrast
    `pattern.amplitude`.
    """
    u = (
        2.0
        * math.pi
        * (np.asarray(x) * math.sin(pattern.rotation) + np.asarray(z) * math.cos(pattern.rotation))
        / pattern.wavelength
    )
    return 0.5 + 0.5 * pattern.amplitude * np.cos(u + pattern.phase_origin)

