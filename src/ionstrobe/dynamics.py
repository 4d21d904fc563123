"""Time evolution: free motion, drive flashes, MW rotations, pulse trains.

All dynamics run in the frame rotating at the drive frequency with the
rotating-wave approximation applied; the drive is resonant, so no spin
term remains. One flash is propagated by a single dense matrix exponential
of the piecewise-constant Hamiltonian

    H/hbar = w_m a_dag a + (W/2) (e^{-i phi} C sigma_+ + h.c.)

with C = exp[i eta (a + a_dag)]. Flash unitaries are cached at phase 0;
the drive phase enters through the exact conjugation
H(phi) = V(phi) H(0) V(phi)^dag with V = exp(-i phi sigma_z / 2).

The flash exponential is taken in the i^n gauge G = diag(i^n) on each spin
block. G^dag a G = i a, so G^dag C G = exp[eta (a_dag - a)] is real
orthogonal and H'(0) = diag(G, G)^dag H(0) diag(G, G) is real symmetric:
a real eigendecomposition of H'(0) gives U(0) = diag(G, G) exp(-i H'(0) dt)
diag(G, G)^dag. Both diag(G, G) and V(phi) are diagonal, so they commute
and the drive-phase conjugation is unchanged.

A block of states goes through a train of F flashes at phase step delta
in one of two ways with the same result. run_pulse_train_block applies
flash k, V(k delta) U0 V(k delta)^dag, then the gap's diagonal phases Gap,
one dense matmul per flash. The train operator does it in one: with
M = Gap U0 V(delta)^dag, the train at drive phase 0 is
T = V((F-1) delta) M^F V(delta), and a nonzero drive.phase conjugates it
by V(drive.phase). M^F takes floor(log2 F) + popcount(F) - 1 matmuls
(7 at F = 30). The watchdog's tail rows after flash j are P M^(j+1) V(delta)
on the block, where P picks the top Fock rows: they differ from the
flash-by-flash tail only by per-row phases, which cancel in the supremum
over phi, so the same checks raise the same errors. The operator and its
F 2k_tail stacked rows are cached for one train at a time.
propagate_block, the sequence layer's entry point, takes the operator when
its cost, counted as in _operator_pays with the build only when it is not
cached, is at most half the flash-by-flash cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .hilbert import (
    DriveParams,
    HilbertSpec,
    ModeParams,
    SpinMotionState,
    check_truncation,
    coupling_operator,
    quadrature_gauge,
)


@dataclass(frozen=True)
class PulseTrainSpec:
    """Stroboscopic analysis train: N flashes of length flash_dur, one per cycle.

    The flash phase progresses affinely, drive.phase + k * phase_step for
    flash k, standing in for the experiment's per-pulse synthesizer phase
    re-adjustment.
    """

    n_flashes: int
    flash_dur: float
    cycle_dur: float
    phase_step: float = 0.0
    drive: DriveParams = DriveParams(rabi=0.0)

    def __post_init__(self):
        if self.n_flashes < 1:
            raise ValueError("n_flashes must be >= 1")
        if not 0.0 < self.flash_dur <= self.cycle_dur:
            raise ValueError("need 0 < flash_dur <= cycle_dur")

    @property
    def total_duration(self) -> float:
        return self.n_flashes * self.cycle_dur


@dataclass(frozen=True)
class DephasingSpec:
    """Classical contrast envelope standing in for spin dephasing."""

    tau: float = 70e-6
    envelope: str = "gaussian"

    def __post_init__(self):
        if self.envelope not in ("gaussian", "exponential", "none"):
            raise ValueError(f"unknown envelope '{self.envelope}'")
        if self.envelope != "none" and self.tau <= 0:
            raise ValueError("tau must be positive for a finite envelope")


def free_evolve(state: SpinMotionState, mode: ModeParams, t: float) -> SpinMotionState:
    """Free motional evolution: Fock amplitude n picks up exp(-i n w_m t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    n = state.fock_dim
    phases = np.exp(-1j * mode.freq * t * np.arange(n))
    amps = state.amplitudes * np.tile(phases, 2)
    return SpinMotionState(amps, n)


@lru_cache(maxsize=4)
def _flash_unitary(fock_dim: int, eta: float, rabi: float, freq: float, dt: float) -> np.ndarray:
    """Flash propagator exp(-i H dt) at drive phase zero, cached per parameter set.

    In the gauge diag(G, G), G = diag(i^n), H is real symmetric (see the
    module docstring), so one real eigh gives H' = Q diag(w) Q^T and
    U = diag(G, G) Q e^{-i w dt} Q^T diag(G, G)^dag.

    The cache is small on purpose: the pi/2 tuner tries a new Rabi rate on
    every evaluation. It searches in a small Fock space (a 32-level unitary
    holds 64 KB) and leaves only its final check's configured-size unitary
    (3.4 MB at fock_dim 232) in the cache, where the scans and decode
    tables that follow reuse it, flash by flash or as the one factor the
    train operator M^F is built from (see the module docstring).
    """
    g = quadrature_gauge(fock_dim)
    c = coupling_operator(eta, HilbertSpec(fock_dim=fock_dim, tail_tol=0.5))
    r = (np.conj(g)[:, None] * c * g).real  # G^dag C G = exp[eta (a_dag - a)]
    dim = 2 * fock_dim
    h = np.zeros((dim, dim))
    # spin-major blocks: [dd, du; ud, uu] with sigma_z = diag(-1, +1)
    diag_mode = freq * np.arange(fock_dim)
    h[np.diag_indices(dim)] = np.tile(diag_mode, 2)
    # (W/2) (C sigma_+ + C^dag sigma_-): sigma_+ = |up><down|
    h[fock_dim:, :fock_dim] = (rabi / 2.0) * r
    h[:fock_dim, fock_dim:] = (rabi / 2.0) * r.T
    w, q = np.linalg.eigh(h)
    u = (q * np.cos(w * dt)) @ q.T - 1j * ((q * np.sin(w * dt)) @ q.T)
    gg = np.tile(g, 2)
    u = gg[:, None] * u * np.conj(gg)
    u.setflags(write=False)
    return u


def _drive_frame(fock_dim: int, phi: float) -> np.ndarray:
    """Diagonal of V(phi) = exp(-i phi sigma_z / 2) in the spin-major basis.

    The drive phase sets the rotation azimuth: the sigma_+ term carries
    e^{-i phi}, so the flash propagator at phase phi is V U(0) V^dag.
    """
    return np.concatenate(
        [np.full(fock_dim, np.exp(1j * phi / 2.0)), np.full(fock_dim, np.exp(-1j * phi / 2.0))]
    )


def flash_evolve(
    state: SpinMotionState,
    drive: DriveParams,
    mode: ModeParams,
    dt: float,
    hilbert: HilbertSpec | None = None,
) -> SpinMotionState:
    """Propagate one constant-drive flash of duration dt.

    Includes the motional evolution during the flash; this is what produces
    the finite-flash contrast physics for moving wave packets. When a
    HilbertSpec is supplied, truncation adequacy is checked after the step.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n = state.fock_dim
    u0 = _flash_unitary(n, drive.eta, drive.rabi, mode.freq, dt)
    v = _drive_frame(n, drive.phase)
    out = SpinMotionState(v * (u0 @ (np.conj(v) * state.amplitudes)), n)
    if hilbert is not None:
        report = check_truncation(out, hilbert)
        if not report.passed:
            raise TruncationError(
                f"flash evolution leaked {report.tail_population:.3e} into the "
                f"top {report.tail_levels} Fock levels (tol {report.tail_tol:g})"
            )
    return out


def mw_rotation(state: SpinMotionState, angle: float, phase: float) -> SpinMotionState:
    """Ideal instantaneous spin rotation about the equatorial axis at `phase`.

    Matches the flash drive convention: generator e^{-i phase} sigma_+ + h.c.
    """
    n = state.fock_dim
    half = angle / 2.0
    cos_h, sin_h = math.cos(half), math.sin(half)
    down, up = state.spin_blocks()
    new_down = cos_h * down + (-1j * np.exp(1j * phase) * sin_h) * up
    new_up = (-1j * np.exp(-1j * phase) * sin_h) * down + cos_h * up
    return SpinMotionState(np.concatenate([new_down, new_up]), n)


def run_pulse_train(
    state: SpinMotionState,
    train: PulseTrainSpec,
    mode: ModeParams,
    hilbert: HilbertSpec | None = None,
) -> SpinMotionState:
    """Apply the stroboscopic train: flash k at phase drive.phase + k*step, then a free gap.

    Total wall time is n_flashes * cycle_dur.
    """
    gap = train.cycle_dur - train.flash_dur
    out = state
    for k in range(train.n_flashes):
        drive_k = replace(train.drive, phase=train.drive.phase + k * train.phase_step)
        out = flash_evolve(out, drive_k, mode, train.flash_dur, hilbert)
        out = free_evolve(out, mode, gap)
    return out


def _spin_split(states: list[SpinMotionState], n: int) -> np.ndarray:
    """The (2N, 2L) block of every state's spin-down part, then every spin-up part."""
    n_states = len(states)
    block = np.zeros((2 * n, 2 * n_states), dtype=complex)
    for col, state in enumerate(states):
        down, up = state.spin_blocks()
        block[:n, col] = down
        block[n:, n_states + col] = up
    return block


def _gap_phases(train: PulseTrainSpec, mode: ModeParams, n: int) -> np.ndarray:
    """Diagonal of the free evolution between two flashes, Gap."""
    gap = train.cycle_dur - train.flash_dur
    return np.tile(np.exp(-1j * mode.freq * gap * np.arange(n)), 2)


def _watch_tail(
    tail: np.ndarray, k: int, train: PulseTrainSpec, hilbert: HilbertSpec, max_tail: np.ndarray
) -> None:
    """Truncation watchdog after flash k on the block's 2 k_tail top-Fock rows.

    Raises the supremum over phi of every state's tail population into
    max_tail, or raises a TruncationError naming the flash, the worst base
    phase (also its `phase`) and, as `index`, the worst state. Per-row
    phases of `tail` cancel in the supremum T0 + 2 |T1|.
    """
    n_states = tail.shape[1] // 2
    t0 = np.sum(np.abs(tail) ** 2, axis=0)
    t1 = np.sum(np.conj(tail[:, :n_states]) * tail[:, n_states:], axis=0)
    sup = t0[:n_states] + t0[n_states:] + 2.0 * np.abs(t1)
    np.maximum(max_tail, sup, out=max_tail)
    worst = int(np.argmax(sup))
    if sup[worst] >= hilbert.tail_tol:
        phi_worst = (train.drive.phase - np.angle(t1[worst])) % (2.0 * math.pi)
        error = TruncationError(
            f"flash {k + 1} of {train.n_flashes} leaks up to {sup[worst]:.3e} into "
            f"the top {hilbert.tail_levels} Fock levels at base phase {phi_worst:.4f} rad "
            f"(tol {hilbert.tail_tol:g}); increase fock_dim",
            index=worst,
        )
        error.phase = float(phi_worst)
        raise error


def _checked_split(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (down, up) halves of a propagated block, after checking every state's norm."""
    n_states = block.shape[1] // 2
    down, up = block[:, :n_states], block[:, n_states:]
    norm0 = np.sum(np.abs(block) ** 2, axis=0)
    norm1 = np.sum(np.conj(down) * up, axis=0)
    deviation = np.abs(norm0[:n_states] + norm0[n_states:] - 1.0) + 2.0 * np.abs(norm1)
    if np.max(deviation) > 2e-10:
        raise ValueError(f"train output norm deviates from 1 by up to {np.max(deviation):.3e}")
    return down, up


def run_pulse_train_block(
    states: list[SpinMotionState],
    train: PulseTrainSpec,
    mode: ModeParams,
    hilbert: HilbertSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate the spin-down and spin-up parts of many states as one block.

    Free motion commutes with V(phi), so the train with its first flash at
    phase train.drive.phase + phi maps state l to
    V(phi) (e^{-i phi/2} down[:, l] + e^{i phi/2} up[:, l]), where down and
    up are the returned (2N, L) images of each state's down and up parts
    under the train as given. Every population of the output is therefore
    |down|^2 + |up|^2 + 2 Re(conj(down) up e^{i phi}), exactly, for any phi.

    After every flash the watchdog checks, for every state, the supremum
    over phi of the top-Fock-tail population; the third return value holds
    each state's largest one, and a TruncationError's index the failing state.
    The block goes through the train flash by flash, one dense matmul each;
    propagate_block may take the cached train operator instead.
    """
    n = hilbert.fock_dim
    block = _spin_split(states, n)
    drive = train.drive
    u0 = _flash_unitary(n, drive.eta, drive.rabi, mode.freq, train.flash_dur)
    gap_phases = _gap_phases(train, mode, n)[:, None]
    k_tail = hilbert.tail_levels
    max_tail = np.zeros(len(states))
    spare = np.empty_like(block)  # two reused buffers bound the working set
    for k in range(train.n_flashes):
        v = _drive_frame(n, drive.phase + k * train.phase_step)[:, None]
        block *= np.conj(v)
        np.matmul(u0, block, out=spare)
        block, spare = spare, block
        block *= v
        tail = np.concatenate([block[n - k_tail : n], block[2 * n - k_tail :]])
        _watch_tail(tail, k, train, hilbert, max_tail)
        block *= gap_phases
    return (*_checked_split(block), max_tail)


# The one cached train operator: {key: (T, tail rows)}, see _train_operator.
_operator_cache: dict = {}


def _operator_key(train: PulseTrainSpec, mode: ModeParams, hilbert: HilbertSpec) -> tuple:
    """Every field the train operator is built from; drive.phase is applied per call."""
    drive = train.drive
    return (hilbert.fock_dim, mode.freq, drive.rabi, drive.eta, train.n_flashes,
            train.flash_dur, train.cycle_dur, train.phase_step)


def _build_train_operator(
    train: PulseTrainSpec, mode: ModeParams, hilbert: HilbertSpec
) -> tuple[np.ndarray, np.ndarray]:
    """T = V((F-1) delta) M^F V(delta) and the tail rows P M^(j+1) V(delta), j < F.

    M = Gap U0 V(delta)^dag is never stored: a product X M is formed as
    ((X Gap) U0) V(delta)^dag from the cached flash unitary, with the
    diagonal factors applied in place. M^F is taken by left-to-right binary
    powering, floor(log2 F) squarings and popcount(F) - 1 products by M, in
    two buffers; the tail rows are a chain of thin products.
    """
    n = hilbert.fock_dim
    drive = train.drive
    u0 = _flash_unitary(n, drive.eta, drive.rabi, mode.freq, train.flash_dur)
    gap_phases = _gap_phases(train, mode, n)
    back = np.conj(_drive_frame(n, train.phase_step))
    k_tail = hilbert.tail_levels
    rows = np.empty((train.n_flashes, 2 * k_tail, 2 * n), dtype=complex)
    previous = np.eye(2 * n)[np.r_[n - k_tail : n, 2 * n - k_tail : 2 * n]]  # P
    for row in rows:
        np.matmul(previous * gap_phases, u0, out=row)
        row *= back
        previous = row
    power = np.multiply(gap_phases[:, None], u0)
    power *= back
    spare = np.empty_like(power)
    for bit in bin(train.n_flashes)[3:]:
        np.matmul(power, power, out=spare)
        power, spare = spare, power
        if bit == "1":
            power *= gap_phases
            np.matmul(power, u0, out=spare)
            power, spare = spare, power
            power *= back
    power *= np.conj(back)
    power *= _drive_frame(n, (train.n_flashes - 1) * train.phase_step)[:, None]
    rows *= np.conj(back)
    power.setflags(write=False)
    rows.setflags(write=False)
    return power, rows


def _train_operator(
    train: PulseTrainSpec, mode: ModeParams, hilbert: HilbertSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The train operator at drive phase 0 and its tail rows, cached for one train."""
    key = _operator_key(train, mode, hilbert)
    if key not in _operator_cache:
        _operator_cache.clear()  # drop the old operator before building the new one
        _operator_cache[key] = _build_train_operator(train, mode, hilbert)
    return _operator_cache[key]


def _operator_pays(n_flashes: int, dim: int, width: int, tail_rows: int, cached: bool) -> bool:
    """Whether the train operator at most halves the work of a (dim, width) block.

    Flash by flash costs F D^2 w. The operator costs D^2 w + F 2k D w to
    apply, plus (floor(log2 F) + popcount(F) - 1) D^3 + F 2k D^2 to build
    when it is not cached. It holds about 2.5 flash unitaries that the
    flash-by-flash path never holds, so it must save clearly.
    """
    by_flash = n_flashes * dim * dim * width
    cost = dim * dim * width + n_flashes * tail_rows * dim * width
    if not cached:
        matmuls = n_flashes.bit_length() - 1 + n_flashes.bit_count() - 1
        cost += matmuls * dim**3 + n_flashes * tail_rows * dim * dim
    return 2 * cost <= by_flash


def _operator_block(
    states: list[SpinMotionState],
    train: PulseTrainSpec,
    mode: ModeParams,
    hilbert: HilbertSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """run_pulse_train_block through the cached train operator.

    A nonzero drive.phase conjugates the phase-0 operator by V(drive.phase).
    The watchdog reads every flash's tail from its thin rows before the
    block itself is propagated.
    """
    n, n_states = hilbert.fock_dim, len(states)
    t, rows = _train_operator(train, mode, hilbert)
    v = _drive_frame(n, train.drive.phase)[:, None]
    block = _spin_split(states, n)
    block *= np.conj(v)
    # the products skip the split's zero quarters and overwrite the split block
    down, up = block[:n, :n_states].copy(), block[n:, n_states:].copy()
    max_tail = np.zeros(n_states)
    tail = np.empty((rows.shape[1], 2 * n_states), dtype=complex)
    for k, row in enumerate(rows):
        np.matmul(row[:, :n], down, out=tail[:, :n_states])
        np.matmul(row[:, n:], up, out=tail[:, n_states:])
        _watch_tail(tail, k, train, hilbert, max_tail)
    np.matmul(t[:, :n], down, out=block[:, :n_states])
    np.matmul(t[:, n:], up, out=block[:, n_states:])
    block *= v
    return (*_checked_split(block), max_tail)


def propagate_block(
    states: list[SpinMotionState],
    train: PulseTrainSpec,
    mode: ModeParams,
    hilbert: HilbertSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """run_pulse_train_block's (down, up, max_tail), through the cached train
    operator when that at least halves the work (_operator_pays), else flash
    by flash. Both raise the same TruncationErrors and norm error.
    """
    cached = _operator_key(train, mode, hilbert) in _operator_cache
    if _operator_pays(train.n_flashes, 2 * hilbert.fock_dim, 2 * len(states),
                      2 * hilbert.tail_levels, cached):
        return _operator_block(states, train, mode, hilbert)
    return run_pulse_train_block(states, train, mode, hilbert)


def apply_dephasing(contrast: float, spec: DephasingSpec, elapsed: float) -> float:
    """Scale a fringe contrast by the coherence envelope at `elapsed`."""
    if not 0.0 <= contrast <= 1.0:
        raise ValueError("contrast must lie in [0, 1]")
    if spec.envelope == "none":
        return contrast
    if spec.envelope == "gaussian":
        return contrast * math.exp(-((elapsed / spec.tau) ** 2))
    return contrast * math.exp(-elapsed / spec.tau)
