"""Truncated spin (x) oscillator Hilbert space.

Ladder operators, displacement and squeeze unitaries, the traveling-wave
coupling operator, basis states, expectation values, and SI unit scales
for a single two-level spin coupled to one harmonic mode.

Basis ordering is spin-major: amplitudes[0:N] is the spin-down block,
amplitudes[N:2N] the spin-up block, each Fock-ascending (n = 0..N-1).
The Pauli-z convention is sigma_z |down> = -|down>, so the bright-state
population is P_down = (1 - <sigma_z>) / 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, TruncationError

# CODATA 2018 values; overridable through UnitScale.
HBAR = 1.054571817e-34  # J s
ATOMIC_MASS = 1.66053906660e-27  # kg

SPIN_DOWN = "down"
SPIN_UP = "up"


@dataclass(frozen=True)
class HilbertSpec:
    """Size and truncation tolerance of the retained Fock space."""

    fock_dim: int
    tail_tol: float = 1e-4

    def __post_init__(self):
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must be in (0, 1), got {self.tail_tol}")

    @property
    def dim(self) -> int:
        return 2 * self.fock_dim

    @property
    def tail_levels(self) -> int:
        """Number of top Fock levels (5% of the space) watched for leakage."""
        return max(1, math.ceil(0.05 * self.fock_dim))


@dataclass
class SpinMotionState:
    """Normalized amplitude vector over the spin-major (down, up) x Fock basis."""

    amplitudes: np.ndarray
    fock_dim: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2 * self.fock_dim,):
            raise DimensionMismatchError(
                f"expected {2 * self.fock_dim} amplitudes, got {self.amplitudes.shape}"
            )
        nrm = self.norm()
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state norm deviates from 1 by {abs(nrm - 1.0):.3e}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "SpinMotionState":
        return SpinMotionState(self.amplitudes.copy(), self.fock_dim)

    def spin_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(down, up) Fock-amplitude blocks, views into the state vector."""
        n = self.fock_dim
        return self.amplitudes[:n], self.amplitudes[n:]

    def fock_populations(self) -> np.ndarray:
        """Motional populations traced over the spin."""
        down, up = self.spin_blocks()
        return np.abs(down) ** 2 + np.abs(up) ** 2


@dataclass(frozen=True)
class ModeParams:
    """One motional mode: angular frequency, thermal occupation, axis angle to z."""

    freq: float
    n_th: float = 0.0
    mode_angle: float = 0.0

    def __post_init__(self):
        if self.freq <= 0:
            raise ValueError("mode frequency must be positive")
        if self.n_th < 0:
            raise ValueError("thermal occupation must be >= 0")
        if abs(self.mode_angle) > math.pi / 2:
            raise ValueError("mode angle must satisfy |angle| <= pi/2")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.freq


@dataclass(frozen=True)
class FrameParams:
    """Rotating-frame bookkeeping: dressed spin frequency and drive detuning."""

    spin_freq: float = 0.0
    detuning: float = 0.0


@dataclass(frozen=True)
class DriveParams:
    """Coupling field: Rabi rate, phase, and Lamb-Dicke parameter.

    eta = 0 models a motion-insensitive (MW or collinear) drive.
    """

    rabi: float
    phase: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.rabi < 0:
            raise ValueError("Rabi rate must be >= 0")
        if self.eta < 0:
            raise ValueError("Lamb-Dicke parameter must be >= 0")


@dataclass(frozen=True)
class CoherentAmp:
    """Coherent displacement magnitude |alpha| and phase."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("|alpha| must be >= 0")

    @property
    def value(self) -> complex:
        return self.magnitude * np.exp(1j * self.phase)


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing magnitude |zeta| and phase."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("|zeta| must be >= 0")

    @property
    def value(self) -> complex:
        return self.magnitude * np.exp(1j * self.phase)


@dataclass(frozen=True)
class UnitScale:
    """SI conversion scales for one mode: hbar, ion mass, zero-point widths."""

    hbar: float
    mass: float
    x_zpf: float
    p_zpf: float

    def __post_init__(self):
        rel = abs(self.x_zpf * self.p_zpf - self.hbar / 2.0) / (self.hbar / 2.0)
        if rel > 1e-12:
            raise ValueError(f"x_zpf * p_zpf must equal hbar/2 (relative error {rel:.3e})")

    @classmethod
    def for_mode(cls, mass: float, freq: float, hbar: float = HBAR) -> "UnitScale":
        """Zero-point scales sqrt(hbar/2m w) and sqrt(hbar m w / 2) for a mode."""
        x = math.sqrt(hbar / (2.0 * mass * freq))
        p = math.sqrt(hbar * mass * freq / 2.0)
        return cls(hbar=hbar, mass=mass, x_zpf=x, p_zpf=p)


@dataclass(frozen=True)
class TruncationReport:
    """Result of a truncation-adequacy check."""

    passed: bool
    tail_population: float
    tail_levels: int
    tail_tol: float


def build_mode_operators(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated lowering, raising, and number matrices (a, a_dag, n)."""
    dim = spec.fock_dim
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    a_dag = a.conj().T
    n = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return a, a_dag, n


def _expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) for Hermitian h via eigendecomposition (exact and deterministic)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def quadrature_gauge(fock_dim: int) -> np.ndarray:
    """Diagonal of the gauge G = diag(i^n).

    G^dag a G = i a, so G^dag (a + a_dag) G = i (a - a_dag): the gauge turns
    exp(i t (a + a_dag)) into the real orthogonal exp(t (a_dag - a)).
    """
    return np.array([1.0, 1j, -1.0, -1j])[np.arange(fock_dim) % 4]


@lru_cache(maxsize=4)
def _quadrature_eigh(fock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Real eigendecomposition (lam, V) of the position quadrature X = a + a_dag."""
    root = np.sqrt(np.arange(1.0, fock_dim))
    lam, v = np.linalg.eigh(np.diag(root, 1) + np.diag(root, -1))
    lam.setflags(write=False)
    v.setflags(write=False)
    return lam, v


def _expi_quadrature(t: float, fock_dim: int) -> np.ndarray:
    """exp(i t X) = V e^{i t lam} V^T from the cached real eigendecomposition of X."""
    lam, v = _quadrature_eigh(fock_dim)
    return (v * np.cos(t * lam)) @ v.T + 1j * ((v * np.sin(t * lam)) @ v.T)


def coupling_operator(eta: float, spec: HilbertSpec) -> np.ndarray:
    """Traveling-wave coupling matrix C = exp[i eta (a + a_dag)] on the Fock space.

    Built as V e^{i eta lam} V^T from one cached real eigendecomposition of
    X = a + a_dag per fock_dim. In the gauge G = diag(i^n), G^dag C G =
    exp[eta (a_dag - a)] is real orthogonal.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return _expi_quadrature(eta, spec.fock_dim)


def displacement_operator(alpha, spec: HilbertSpec) -> np.ndarray:
    """Coherent displacement D(alpha) = exp(alpha a_dag - alpha* a).

    With alpha = r e^{i theta} and R = diag(e^{i theta n}), D(alpha) =
    R G exp(-i r X) G^dag R^dag in the gauge G = diag(i^n), where
    G exp(-i r X) G^dag = exp[r (a_dag - a)]; exp(-i r X) comes from the
    same cached real eigendecomposition of X as coupling_operator.

    Raises TruncationError unless fock_dim >= 4 |alpha|^2 + 20, which keeps
    the Poisson tail of the displaced vacuum below ~1e-6.
    """
    if isinstance(alpha, CoherentAmp):
        alpha = alpha.value
    alpha = complex(alpha)
    needed = 4.0 * abs(alpha) ** 2 + 20.0
    if spec.fock_dim < needed:
        raise TruncationError(
            f"fock_dim={spec.fock_dim} too small for |alpha|={abs(alpha):.3g} "
            f"(need >= {math.ceil(needed)})"
        )
    n = spec.fock_dim
    rot = np.exp(1j * cmath.phase(alpha) * np.arange(n)) * quadrature_gauge(n)
    return rot[:, None] * _expi_quadrature(-abs(alpha), n) * np.conj(rot)


def squeeze_operator(zeta, spec: HilbertSpec) -> np.ndarray:
    """Squeeze unitary S(zeta) = exp[(zeta* a^2 - zeta a_dag^2) / 2].

    For real positive zeta this squeezes the position quadrature.
    Requires fock_dim >= 20 exp(2 |zeta|).
    """
    if isinstance(zeta, SqueezeParam):
        zeta = zeta.value
    zeta = complex(zeta)
    needed = 20.0 * math.exp(2.0 * abs(zeta))
    if spec.fock_dim < needed:
        raise TruncationError(
            f"fock_dim={spec.fock_dim} too small for |zeta|={abs(zeta):.3g} "
            f"(need >= {math.ceil(needed)})"
        )
    a, a_dag, _ = build_mode_operators(spec)
    gen = 0.5 * (np.conj(zeta) * (a @ a) - zeta * (a_dag @ a_dag))
    return _expi_hermitian(-1j * gen)


def make_initial_state(spin: str, fock_index: int, spec: HilbertSpec) -> SpinMotionState:
    """Basis state |spin> (x) |fock_index>."""
    if spin not in (SPIN_DOWN, SPIN_UP):
        raise ValueError(f"spin must be '{SPIN_DOWN}' or '{SPIN_UP}'")
    if not 0 <= fock_index < spec.fock_dim:
        raise ValueError(f"fock_index {fock_index} out of range [0, {spec.fock_dim})")
    amps = np.zeros(spec.dim, dtype=complex)
    offset = 0 if spin == SPIN_DOWN else spec.fock_dim
    amps[offset + fock_index] = 1.0
    return SpinMotionState(amps, spec.fock_dim)


def thermal_sample(n_th: float, rng_seed) -> int:
    """One draw of the geometric thermal law p(n) = n_th^n / (1 + n_th)^(n+1)."""
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    if n_th == 0:
        return 0
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    # Geometric with success probability 1/(1+n_th); numpy counts trials, we count failures.
    return int(rng.geometric(1.0 / (1.0 + n_th)) - 1)


def thermal_ensemble(n_th: float, samples: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo thermal ensemble deduplicated into (levels, weights).

    Weights are draw counts / samples, so observable averages over the
    ensemble reproduce the sampled thermal mixture exactly.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    if n_th == 0:
        return np.array([0]), np.array([1.0])
    draws = rng.geometric(1.0 / (1.0 + n_th), size=samples) - 1
    levels, counts = np.unique(draws, return_counts=True)
    return levels, counts / float(samples)


def thermal_ground_states(
    n_th: float, samples: int, seed, spec: HilbertSpec
) -> tuple[np.ndarray, np.ndarray, list[SpinMotionState]]:
    """thermal_ensemble's (levels, weights) and |down> (x) |n> for each level.

    Raises TruncationError when a drawn level lies outside the Fock space.
    """
    levels, weights = thermal_ensemble(n_th, samples, seed)
    top = int(levels[-1])
    if top >= spec.fock_dim:
        raise TruncationError(
            f"thermal draw reached Fock level {top} at n_th={n_th:g}, outside "
            f"fock_dim={spec.fock_dim}; increase fock_dim"
        )
    return levels, weights, [make_initial_state(SPIN_DOWN, int(n), spec) for n in levels]


def expect(observable: np.ndarray, state: SpinMotionState):
    """<psi| O |psi>; real for Hermitian observables (imaginary part asserted small)."""
    obs = np.asarray(observable)
    if obs.shape != (state.amplitudes.size, state.amplitudes.size):
        raise DimensionMismatchError(
            f"observable shape {obs.shape} does not match state dimension {state.amplitudes.size}"
        )
    val = complex(np.vdot(state.amplitudes, obs @ state.amplitudes))
    if np.allclose(obs, obs.conj().T, atol=1e-12):
        if abs(val.imag) >= 1e-10:
            raise AssertionError(f"Hermitian expectation has imaginary part {val.imag:.3e}")
        return val.real
    return val


def expect_sigma_z(state: SpinMotionState) -> float:
    """<sigma_z> with the sign convention sigma_z |down> = -|down>."""
    down, up = state.spin_blocks()
    return float(np.sum(np.abs(up) ** 2) - np.sum(np.abs(down) ** 2))


def expect_n(state: SpinMotionState) -> float:
    """Mean motional quanta <a_dag a>."""
    pops = state.fock_populations()
    return float(np.dot(pops, np.arange(state.fock_dim)))


def _quadrature_expectations(state: SpinMotionState) -> tuple[float, float]:
    """(<a + a_dag>, <i (a_dag - a)>) without building full-space matrices."""
    n = state.fock_dim
    root = np.sqrt(np.arange(1, n))
    acc = 0.0 + 0.0j
    for block in state.spin_blocks():
        # <a> restricted to one spin block: sum conj(c_n) sqrt(n+1) c_{n+1}
        acc += np.sum(np.conj(block[:-1]) * root * block[1:])
    x = 2.0 * acc.real  # <a + a_dag>
    p = 2.0 * acc.imag  # <i (a_dag - a)> = 2 Im <a>... sign checked in tests
    return float(x), float(p)


def quadratures_si(state: SpinMotionState, units: UnitScale) -> tuple[float, float]:
    """Position and momentum expectations in SI units.

    X = x_zpf <a + a_dag>, P = p_zpf <i (a_dag - a)>.
    """
    x_dimless, p_dimless = _quadrature_expectations(state)
    return units.x_zpf * x_dimless, units.p_zpf * p_dimless


def quadrature_variances_si(state: SpinMotionState, units: UnitScale) -> tuple[float, float]:
    """Var(X) and Var(P) in SI units, for squeezing diagnostics."""
    n = state.fock_dim
    spec = HilbertSpec(fock_dim=n, tail_tol=0.5)
    a, a_dag, _ = build_mode_operators(spec)
    x_op = a + a_dag
    p_op = 1j * (a_dag - a)
    down, up = state.spin_blocks()

    def _block_expect(op):
        val = 0.0 + 0.0j
        for block in (down, up):
            val += np.vdot(block, op @ block)
        return val.real

    x1 = _block_expect(x_op)
    p1 = _block_expect(p_op)
    x2 = _block_expect(x_op @ x_op)
    p2 = _block_expect(p_op @ p_op)
    return units.x_zpf**2 * (x2 - x1**2), units.p_zpf**2 * (p2 - p1**2)


def check_truncation(state: SpinMotionState, spec: HilbertSpec) -> TruncationReport:
    """Report whether population in the top 5% of Fock levels stays below tail_tol."""
    pops = state.fock_populations()
    k = spec.tail_levels
    tail = float(np.sum(pops[-k:]))
    return TruncationReport(
        passed=tail < spec.tail_tol,
        tail_population=tail,
        tail_levels=k,
        tail_tol=spec.tail_tol,
    )
