"""Truncated spin (x) oscillator Hilbert space.

Displacement and squeeze unitaries, the traveling-wave coupling operator,
basis states, <sigma_z>, the exact thermal mixture, the truncation check and SI
unit scales for a single two-level spin coupled to one harmonic mode.

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
from typing import ClassVar

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
        if not abs(nrm - 1.0) <= 1e-10:  # a NaN norm fails too
            raise ValueError(f"state norm deviates from 1 by {abs(nrm - 1.0):.3e}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

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
    """One motional mode: angular frequency and thermal occupation."""

    freq: float
    n_th: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.freq < math.inf:
            raise ValueError("mode frequency must be finite and positive")
        if not 0.0 <= self.n_th < math.inf:
            raise ValueError("thermal occupation must be finite and >= 0")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.freq


@dataclass(frozen=True, kw_only=True)
class DriveParams:
    """Coupling field: Rabi rate and Lamb-Dicke parameter, at drive phase 0.

    eta = 0 models a motion-insensitive (MW or collinear) drive.
    """

    rabi: float
    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rabi < math.inf:
            raise ValueError("Rabi rate must be finite and >= 0")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError("Lamb-Dicke parameter must be finite and >= 0")


@dataclass(frozen=True)
class _Kick:
    """A kick's complex parameter as its magnitude and phase; each kind is a
    subclass naming its symbol, and equals only kicks of its own kind."""

    symbol: ClassVar[str]
    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.magnitude < math.inf:
            raise ValueError(f"|{self.symbol}| must be finite and >= 0")
        if not math.isfinite(self.phase):
            raise ValueError(f"{self.symbol} phase must be finite")

    @property
    def value(self) -> complex:
        return self.magnitude * np.exp(1j * self.phase)


class CoherentAmp(_Kick):
    """Coherent displacement magnitude |alpha| and phase."""

    symbol = "alpha"


class SqueezeParam(_Kick):
    """Squeezing magnitude |zeta| and phase."""

    symbol = "zeta"


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


def quadrature_gauge(fock_dim: int) -> np.ndarray:
    """Diagonal of the gauge G = diag(i^n).

    G^dag a G = i a, so G^dag (a + a_dag) G = i (a - a_dag): the gauge turns
    exp(i t (a + a_dag)) into the real orthogonal exp(t (a_dag - a)).
    """
    return np.array([1.0, 1j, -1.0, -1j])[np.arange(fock_dim) % 4]


@lru_cache(maxsize=4)
def _ladder_eigh(fock_dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Real eigendecomposition (lam, V) of a^k + a_dag^k, k in {1, 2}: the
    position quadrature X = a + a_dag, or Y = a^2 + a_dag^2."""
    n = np.arange(1.0, fock_dim - k + 1)
    band = np.sqrt(n if k == 1 else n * (n + 1.0))  # <m + k| a_dag^k |m>, m = n - 1
    lam, v = np.linalg.eigh(np.diag(band, k) + np.diag(band, -k))
    lam.setflags(write=False)
    v.setflags(write=False)
    return lam, v


def _expi_ladder(t: float, fock_dim: int, k: int, levels=slice(None)) -> np.ndarray:
    """exp(i t (a^k + a_dag^k))[:, levels] = V e^{i t lam} V[levels]^T, from the cached eigh."""
    lam, v = _ladder_eigh(fock_dim, k)
    vt = v[levels].T
    return (v * np.cos(t * lam)) @ vt + 1j * ((v * np.sin(t * lam)) @ vt)


def coupling_operator(eta: float, spec: HilbertSpec) -> np.ndarray:
    """Traveling-wave coupling matrix C = exp[i eta (a + a_dag)] on the Fock space.

    Built as V e^{i eta lam} V^T from one cached real eigendecomposition of
    X = a + a_dag per fock_dim. In the gauge G = diag(i^n), G^dag C G =
    exp[eta (a_dag - a)] is real orthogonal.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return _expi_ladder(eta, spec.fock_dim, 1)


def _require_levels(spec: HilbertSpec, needed: float, kick: str) -> None:
    """Raise TruncationError unless fock_dim >= needed, which may be inf."""
    if spec.fock_dim < needed:
        need = math.ceil(needed) if needed < math.inf else needed
        raise TruncationError(f"fock_dim={spec.fock_dim} too small for {kick} (need >= {need})")


def displacement_operator(alpha, spec: HilbertSpec, levels=None) -> np.ndarray:
    """Coherent displacement D(alpha) = exp(alpha a_dag - alpha* a), or with
    `levels` (a sequence of Fock indices) only its columns D(alpha)[:, levels].

    With alpha = r e^{i theta} and R = diag(e^{i theta n}), D(alpha) =
    R G exp(-i r X) G^dag R^dag in the gauge G = diag(i^n), where
    G exp(-i r X) G^dag = exp[r (a_dag - a)]; exp(-i r X) comes from the
    same cached real eigendecomposition of X as coupling_operator. The
    columns alone cost O(N^2 L) for L levels, the whole matrix O(N^3).

    Raises TruncationError unless fock_dim >= 4 |alpha|^2 + 20, which keeps
    the Poisson tail of the displaced vacuum below ~1e-6.
    """
    if isinstance(alpha, CoherentAmp):
        alpha = alpha.value
    alpha = complex(alpha)
    _require_levels(spec, 4.0 * abs(alpha) * abs(alpha) + 20.0, f"|alpha|={abs(alpha):.3g}")
    n = spec.fock_dim
    rot = np.exp(1j * cmath.phase(alpha) * np.arange(n)) * quadrature_gauge(n)
    cols = slice(None) if levels is None else np.asarray(levels, dtype=int)
    return rot[:, None] * _expi_ladder(-abs(alpha), n, 1, cols) * np.conj(rot[cols])


def squeeze_operator(zeta, spec: HilbertSpec, levels=None) -> np.ndarray:
    """Squeeze unitary S(zeta) = exp[(zeta* a^2 - zeta a_dag^2) / 2], or with
    `levels` (a sequence of Fock indices) only its columns S(zeta)[:, levels].

    For real positive zeta this squeezes the position quadrature.
    Requires fock_dim >= 20 exp(2 |zeta|).

    With zeta = r e^{i psi}, S(zeta) = R W^dag exp(-i (r/2) Y) W R^dag, where
    Y = a^2 + a_dag^2, R = diag(e^{i psi n / 2}) and W = diag(e^{i pi n / 4}),
    since W^dag Y W = i (a^2 - a_dag^2); exp(-i (r/2) Y) comes from one cached
    real eigendecomposition of Y per fock_dim, as D(alpha)'s does from X.
    """
    if isinstance(zeta, SqueezeParam):
        zeta = zeta.value
    zeta = complex(zeta)
    # math.exp overflows a float above 709.78
    needed = 20.0 * math.exp(2.0 * abs(zeta)) if abs(zeta) < 350.0 else math.inf
    _require_levels(spec, needed, f"|zeta|={abs(zeta):.3g}")
    n = spec.fock_dim
    eighth = np.exp(0.25j * math.pi * np.arange(8))  # e^{i pi n / 4} repeats every 8 levels
    rot = np.exp(0.5j * cmath.phase(zeta) * np.arange(n)) * np.conj(eighth[np.arange(n) % 8])
    cols = slice(None) if levels is None else np.asarray(levels, dtype=int)
    return rot[:, None] * _expi_ladder(-abs(zeta) / 2.0, n, 2, cols) * np.conj(rot[cols])


def make_initial_state(spin: str, fock_index: int, spec: HilbertSpec) -> SpinMotionState:
    """Basis state |spin> (x) |fock_index>."""
    if spin not in (SPIN_DOWN, SPIN_UP):
        raise ValueError(f"spin must be '{SPIN_DOWN}' or '{SPIN_UP}'")
    if not 0 <= fock_index < spec.fock_dim:
        raise ValueError(f"fock_index {fock_index} out of range [0, {spec.fock_dim})")
    amps = np.zeros(2 * spec.fock_dim, dtype=complex)
    offset = 0 if spin == SPIN_DOWN else spec.fock_dim
    amps[offset + fock_index] = 1.0
    return SpinMotionState(amps, spec.fock_dim)


def thermal_ensemble(n_th: float, spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """The thermal mixture at mean occupation n_th as (levels, weights) of the
    starting states |down> (x) |n>.

    With q = n_th / (1 + n_th), level n weighs (1 - q) q^n. The levels run
    0 .. L - 1, L the first count whose dropped tail q^L lies below
    spec.tail_tol, and the weights are renormalised to sum to 1: at n_th = 0,
    level 0 with weight 1. A TruncationError names the top level when L
    exceeds fock_dim, or when q rounds to 1 and no L exists; L is known
    before anything is allocated.
    """
    q, tol = n_th / (1.0 + n_th), spec.tail_tol
    count = 1 if q == 0.0 else math.inf if q == 1.0 else math.floor(math.log(tol) / math.log(q)) + 1
    if 1 < count < math.inf:  # the logs round: settle q^L < tol <= q^(L - 1) on the powers
        count -= q ** (count - 1) < tol
        count += q ** count >= tol
    _require_levels(spec, count, f"the thermal mixture's Fock level {count - 1} at n_th={n_th:g}")
    weights = q ** np.arange(count)
    return np.arange(count), weights / weights.sum()


def expect_sigma_z(state: SpinMotionState) -> float:
    """<sigma_z> with the sign convention sigma_z |down> = -|down>."""
    down, up = state.spin_blocks()
    return float(np.sum(np.abs(up) ** 2) - np.sum(np.abs(down) ** 2))


def check_truncation(state: SpinMotionState, spec: HilbertSpec) -> None:
    """Raise TruncationError unless the population in the top 5% of Fock
    levels (spec.tail_levels) stays below spec.tail_tol."""
    tail = float(np.sum(state.fock_populations()[-spec.tail_levels:]))
    if not tail < spec.tail_tol:
        raise TruncationError(f"state leaked {tail:.3e} into the top {spec.tail_levels} "
                              f"Fock levels (tol {spec.tail_tol:g})")
