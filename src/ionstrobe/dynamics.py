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
    tables that follow reuse it.
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
    """
    n = hilbert.fock_dim
    n_states = len(states)
    block = np.zeros((2 * n, 2 * n_states), dtype=complex)
    for col, state in enumerate(states):
        down, up = state.spin_blocks()
        block[:n, col] = down
        block[n:, n_states + col] = up
    drive = train.drive
    u0 = _flash_unitary(n, drive.eta, drive.rabi, mode.freq, train.flash_dur)
    gap = train.cycle_dur - train.flash_dur
    gap_phases = np.tile(np.exp(-1j * mode.freq * gap * np.arange(n)), 2)[:, None]
    k_tail = hilbert.tail_levels
    max_tail = np.zeros(n_states)
    spare = np.empty_like(block)  # two reused buffers bound the working set
    for k in range(train.n_flashes):
        v = _drive_frame(n, drive.phase + k * train.phase_step)[:, None]
        block *= np.conj(v)
        np.matmul(u0, block, out=spare)
        block, spare = spare, block
        block *= v
        tail = np.concatenate([block[n - k_tail : n], block[2 * n - k_tail :]])
        t0 = np.sum(np.abs(tail) ** 2, axis=0)
        t1 = np.sum(np.conj(tail[:, :n_states]) * tail[:, n_states:], axis=0)
        sup = t0[:n_states] + t0[n_states:] + 2.0 * np.abs(t1)
        np.maximum(max_tail, sup, out=max_tail)
        worst = int(np.argmax(sup))
        if sup[worst] >= hilbert.tail_tol:
            phi_worst = (drive.phase - np.angle(t1[worst])) % (2.0 * math.pi)
            raise TruncationError(
                f"flash {k + 1} of {train.n_flashes} leaks up to {sup[worst]:.3e} into "
                f"the top {k_tail} Fock levels at base phase {phi_worst:.4f} rad "
                f"(tol {hilbert.tail_tol:g}); increase fock_dim",
                index=worst,
            )
        block *= gap_phases
    down, up = block[:, :n_states], block[:, n_states:]
    norm0 = np.sum(np.abs(block) ** 2, axis=0)
    norm1 = np.sum(np.conj(down) * up, axis=0)
    deviation = np.abs(norm0[:n_states] + norm0[n_states:] - 1.0) + 2.0 * np.abs(norm1)
    if np.max(deviation) > 2e-10:
        raise ValueError(f"train output norm deviates from 1 by up to {np.max(deviation):.3e}")
    return down, up, max_tail


def apply_dephasing(contrast: float, spec: DephasingSpec, elapsed: float) -> float:
    """Scale a fringe contrast by the coherence envelope at `elapsed`."""
    if not 0.0 <= contrast <= 1.0:
        raise ValueError("contrast must lie in [0, 1]")
    if spec.envelope == "none":
        return contrast
    if spec.envelope == "gaussian":
        return contrast * math.exp(-((elapsed / spec.tau) ** 2))
    return contrast * math.exp(-elapsed / spec.tau)
