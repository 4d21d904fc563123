"""Time evolution: free motion, drive flashes, MW rotations, pulse trains.

All dynamics run in the frame rotating at the drive frequency with the
rotating-wave approximation applied; the drive is resonant, so no spin
term remains. One flash is propagated by the exact exponential of the
piecewise-constant Hamiltonian

    H/hbar = w_m a_dag a + (W/2) (e^{-i phi} C sigma_+ + h.c.)

with C = exp[i eta (a + a_dag)]. The engine runs every flash at phi = 0,
as the experiment's synthesizer re-adjusts each pulse's phase so that
every flash meets the motion at the same phase; H(phi) = V(phi) H(0)
V(phi)^dag with V = exp(-i phi sigma_z / 2).

Gauge. In G = diag(i^n) on each spin block, G^dag a G = i a, so
r = G^dag C G = exp[eta (a_dag - a)] is real orthogonal, and H(0) has the
real symmetric blocks [[D, (W/2) r^T], [(W/2) r, D]] on the gauge-basis
spin parts (a, b), with D = w_m diag(n).

Parity sectors. Pi = sigma_x (x) P, with P = (-1)^(a_dag a), commutes with
H(0): P (a + a_dag) P = -(a + a_dag) gives P C P = C^dag, which in the
gauge reads P r P = r^T. The sector coordinates y_+- = (a +- P b) / sqrt 2
are the Pi = +-1 halves, and in them H(0) is block diagonal with
H_+- = D +- (W/4)(r^T P + P r). A flash is the pair U_+- = exp(-i H_+- dt),
two N x N real eigendecompositions instead of one 2N x 2N (_flash_unitary).
Every propagation, of one state or of a block, enters sector coordinates
through one split (_split_sectors), a change of coordinates with the
gauge and P as row factors, and leaves through one merge (_from_sectors),
written over the propagated block. A block propagation thus holds its
sector block and the watchdog's tail rows, no padded or output copies.
Flash by flash reads the tail rows N // k_tail flashes at a time, at most
one block of them. The train operator's apply reads them N // (2 k_tail)
flashes at a time, about half a block of them, and takes T through a
quarter of the block's columns at a time, so it holds the block plus about
half of it. Both keep only each state's running maximum. Callers bound
the block (sequence.FRINGE_BLOCK_BYTES).

Rotating-frame chain. A train of F flashes is M^F with
M = Gap blockdiag(U_+, U_-), and run_pulse_train_block takes each flash as
one batched (2, N, N) matmul and the gap's phases. The train at phase phi
is V(phi) M^F V(phi)^dag, taken only through the closed form in
run_pulse_train_block's docstring, V(phi) (e^{-i phi/2} down + e^{i phi/2} up).

Watchdog. V, the gap, P and the gauge act within one Fock level, so they
cancel in the supremum over phi of the top-Fock tail: the tail rows of
every flash are read in sector coordinates into one reused buffer of
N // k_tail flashes, and each fill is checked in one pass (_watch_tails),
raising the error of the first failing flash.

Train operator. M is the (2, N, N) stack Gap U_s, which acts on each
sector alone, and M^F is powered per sector in floor(log2 F) +
popcount(F) - 1 products (7 at F = 30); the watchdog's
tail rows after flash j are P_top M^(j+1). M itself is never stored: a
product by M is taken as (x Gap) U with the cached flash pair, each sector
is powered in the unformed rows' buffer, and a build holds U, T and the rows,
then releases U. _train_operator caches the operator and its rows for one
(train, mode, hilbert) at a time.
propagate_block, the sequence layer's entry point, takes the operator when
its cost, counted in sector multiply-adds as in _operator_pays with the
build only when it is not cached, is at most half the flash-by-flash cost,
and when a build's new arrays, which grow with F, are no larger than the
flash-by-flash working set; any other train goes flash by flash.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IonstrobeError, TruncationError
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
    """Stroboscopic analysis train: N flashes of length flash_dur, one per cycle,
    every flash at drive phase 0."""

    n_flashes: int
    flash_dur: float
    cycle_dur: float
    drive: DriveParams = DriveParams(rabi=0.0)

    def __post_init__(self):
        if self.n_flashes < 1:
            raise ValueError("n_flashes must be >= 1")
        if not 0.0 < self.flash_dur <= self.cycle_dur < math.inf:
            raise ValueError("need 0 < flash_dur <= cycle_dur < inf")

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
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
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


def _parity(fock_dim: int) -> np.ndarray:
    """Diagonal of the Fock parity P = (-1)^(a_dag a)."""
    return 1.0 - 2.0 * (np.arange(fock_dim) % 2)


def _mapped(shape) -> np.ndarray:
    """A complex array on pages of its own (mmap), for the flash pair, T and its
    rows: from malloc they fragment the heap or raise the mmap threshold
    (config._reserve), and later arrays stay resident by where they landed."""
    return np.frombuffer(mmap.mmap(-1, 16 * math.prod(shape)), complex).reshape(shape)


class _OneEntryCache:
    """The engine's memo: one entry, on positional arguments, with functools'
    cache_info() and cache_clear(). A miss drops the entry before it builds
    the next (a build that raises leaves none), `args in cache` counts no
    call, and release() drops the entry but keeps the hits and misses."""

    def __init__(self, build):
        functools.update_wrapper(self, build)
        self.cache_clear()

    def __call__(self, *key):
        self._calls += 1
        if key not in self._entry:
            self._misses += 1
            self.release()
            self._entry = {key: self.__wrapped__(*key)}
        return self._entry[key]

    def __contains__(self, key) -> bool:
        return key in self._entry

    def release(self) -> None:
        self._entry = {}

    def cache_info(self):
        return functools._CacheInfo(self._calls - self._misses, self._misses, 1, len(self._entry))

    def cache_clear(self) -> None:
        self._entry, self._calls, self._misses = {}, 0, 0


@_OneEntryCache
def _flash_unitary(fock_dim: int, eta: float, rabi: float, freq: float, dt: float) -> np.ndarray:
    """The flash propagator at drive phase zero as its (2, N, N) pair of sector blocks.

    Block s is U_s = exp(-i H_s dt) with H_+- = w_m diag(n) +- (W/4)(r^T P + P r)
    in the gauge basis (see the module docstring). Each real symmetric H_s
    takes one N x N eigh, H_s = Q diag(w) Q^T, and the block's real and
    imaginary parts, Q cos(w dt) Q^T and -Q sin(w dt) Q^T, are written in
    place. The pair maps to the spin basis only at the engine boundary
    (_split_sectors, _from_sectors).

    The cache holds one pair: the pi/2 tuner tries a new Rabi rate on every
    probe, so its check's configured-size pair (1.7 MB at fock_dim 232) is
    what stays, for the scans and decode tables that follow to reuse, flash
    by flash or as the factor the train operator M^F is built from, until
    _train_operator releases it as the last step of that build; it is _mapped.
    """
    g = quadrature_gauge(fock_dim)
    c = coupling_operator(eta, HilbertSpec(fock_dim=fock_dim, tail_tol=0.5))
    np.multiply(np.conj(g)[:, None], c, out=c)  # r = G^dag C G = exp[eta (a_dag - a)]
    coupling = _parity(fock_dim)[:, None] * np.multiply(c, g, out=c).real  # P r = r^T P
    del c  # so only the real coupling is held beside the eigh calls
    coupling += coupling.T
    coupling *= rabi / 4.0
    diag_mode = freq * np.arange(fock_dim)
    u = _mapped((2, fock_dim, fock_dim))
    for sign, block in zip((1.0, -1.0), u):
        h = sign * coupling
        h[np.diag_indices(fock_dim)] += diag_mode
        w, q = np.linalg.eigh(h)
        np.matmul(q * np.cos(w * dt), q.T, out=block.real)
        np.matmul(q * -np.sin(w * dt), q.T, out=block.imag)
    u.setflags(write=False)
    return u


def _split_sectors(states: np.ndarray, n: int) -> np.ndarray:
    """The (2, N, 2L) sector block of the spin-down part of every column of
    the (2N, L) states (the first L columns), then of every spin-up part: a
    down column is G^dag down / sqrt 2 in both sectors and an up column is
    +-P G^dag up / sqrt 2, so a state's two columns sum to its y_+-."""
    if states.ndim != 2 or states.shape[0] != 2 * n:
        raise DimensionMismatchError(f"expected a ({2 * n}, L) block, got {states.shape}")
    n_states = states.shape[1]
    scale = (np.conj(quadrature_gauge(n)) / math.sqrt(2.0))[:, None]
    block = np.empty((2, n, 2 * n_states), dtype=complex)
    down, up = block[0, :, :n_states], block[0, :, n_states:]
    np.multiply(scale, states[:n], out=down)
    np.multiply(scale * _parity(n)[:, None], states[n:], out=up)
    block[1, :, :n_states] = down
    np.negative(up, out=block[1, :, n_states:])
    return block


def _from_sectors(block: np.ndarray) -> np.ndarray:
    """The (2N, w) spin-major amplitudes (G a, G b) of a contiguous (2, N, w)
    sector block, with a = (y_+ + y_-) / sqrt 2 and b = P (y_+ - y_-) / sqrt 2,
    written over the block and returned as a view of it."""
    n = block.shape[1]
    scale = (quadrature_gauge(n) / math.sqrt(2.0))[:, None]
    plus = block[0] + block[1]
    np.subtract(block[0], block[1], out=block[1])
    np.multiply(scale, plus, out=block[0])
    np.multiply(scale * _parity(n)[:, None], block[1], out=block[1])
    return block.reshape(2 * n, block.shape[2])


def flash_evolve(
    state: SpinMotionState,
    drive: DriveParams,
    mode: ModeParams,
    dt: float,
    hilbert: HilbertSpec | None = None,
) -> SpinMotionState:
    """Propagate one constant-drive flash of duration dt at drive phase 0.

    Includes the motional evolution during the flash; this is what produces
    the finite-flash contrast physics for moving wave packets. When a
    HilbertSpec is supplied, truncation adequacy is checked after the step.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n = state.fock_dim
    u = _flash_unitary(n, drive.eta, drive.rabi, mode.freq, dt)
    block = u @ _split_sectors(state.amplitudes[:, None], n).sum(axis=2, keepdims=True)
    out = SpinMotionState(_from_sectors(block)[:, 0], n)
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
    """Apply the stroboscopic train: each flash at drive phase 0, then a free gap.

    Total wall time is n_flashes * cycle_dur.
    """
    gap = train.cycle_dur - train.flash_dur
    out = state
    for _ in range(train.n_flashes):
        out = flash_evolve(out, train.drive, mode, train.flash_dur, hilbert)
        out = free_evolve(out, mode, gap)
    return out


def _pair_sums(amps: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """The sums over `axis` of |amps|^2 and of conj(x) y, where x and y are the
    first and second halves of the last axis (the down and up images), each
    formed in one temporary."""
    n_states = amps.shape[-1] // 2
    squares = np.abs(amps)
    sums = np.sum(np.square(squares, out=squares), axis=axis)
    del squares  # freed before the cross product's buffer
    cross = np.conj(amps[..., :n_states])
    return sums, np.sum(np.multiply(cross, amps[..., n_states:], out=cross), axis=axis)


def _spin_output(block: np.ndarray, train: PulseTrainSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (down, up) images of a block propagated in the rotating frame,
    written over the block.

    Every state's norm is checked on the way: a deviation over
    2e-10 + F 1e-14, or one that is not a number, raises an IonstrobeError.
    Rounding moves the norm by up to about 2.5e-15 per flash (measured at
    fock_dim 40 and 232 up to F = 10^5), so a train of any length stays well
    inside.
    """
    out = _from_sectors(block)
    n_states = out.shape[1] // 2
    norm0, norm1 = _pair_sums(out, 0)
    deviation = np.abs(norm0[:n_states] + norm0[n_states:] - 1.0) + 2.0 * np.abs(norm1)
    tol = 2e-10 + 1e-14 * train.n_flashes
    if not np.max(deviation) <= tol:
        raise IonstrobeError(f"train output norm deviates from 1 by up to "
                             f"{np.max(deviation):.3e} after {train.n_flashes} flashes (tol {tol:.3g})")
    return out[:, :n_states], out[:, n_states:]


def _gap_phases(train: PulseTrainSpec, mode: ModeParams, n: int) -> np.ndarray:
    """Diagonal of the free evolution between two flashes, Gap, on one sector."""
    gap = train.cycle_dur - train.flash_dur
    return np.exp(-1j * mode.freq * gap * np.arange(n))


def _watch_tails(tails: np.ndarray, offset: int, train: PulseTrainSpec, hilbert: HilbertSpec,
                 max_tail: np.ndarray) -> None:
    """Truncation watchdog over a run of flashes' top-Fock rows at once.

    tails[:, j] is the block's k_tail top-Fock rows of each sector after
    flash offset + j, a (2, k_tail, 2L) array, and (t0[j], t1[j]) are their
    _pair_sums over sectors and rows. Any map that mixes rows only within a
    Fock level cancels in the supremum over phi of each state's tail
    population, T0 + 2 |T1|: the sector coordinates and per-row phases.
    Folds every state's largest supremum into max_tail, or
    raises a TruncationError naming the first failing flash, the worst
    analysis phase (also its `phase`) and, as `index`, the worst state. Runs
    checked in flash order therefore fail where one pass over the train
    would.
    """
    t0, t1 = _pair_sums(tails, (0, 2))
    n_states = t1.shape[1]
    sup = t0[:, :n_states] + t0[:, n_states:] + 2.0 * np.abs(t1)
    failing = np.flatnonzero(np.max(sup, axis=1) >= hilbert.tail_tol)
    if failing.size:
        k = int(failing[0])
        worst = int(np.argmax(sup[k]))
        phi_worst = -np.angle(t1[k, worst]) % (2.0 * math.pi)
        raise TruncationError(
            f"flash {offset + k + 1} of {train.n_flashes} leaks up to {sup[k, worst]:.3e} into "
            f"the top {hilbert.tail_levels} Fock levels at analysis phase {phi_worst:.4f} rad "
            f"(tol {hilbert.tail_tol:g}); increase fock_dim",
            index=worst, phase=float(phi_worst),
        )
    np.maximum(max_tail, np.max(sup, axis=0), out=max_tail)


def run_pulse_train_block(
    states: np.ndarray,
    train: PulseTrainSpec,
    mode: ModeParams,
    hilbert: HilbertSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate the spin-down and spin-up parts of many states as one block.

    states is the (2N, L) spin-major amplitude array, one state per column.

    Free motion commutes with V(phi), so the train with every flash at
    phase phi maps state l to
    V(phi) (e^{-i phi/2} down[:, l] + e^{i phi/2} up[:, l]), where down and
    up are the returned (2N, L) images of each state's down and up parts
    under the train at phase 0. Every population of the output is therefore
    |down|^2 + |up|^2 + 2 Re(conj(down) up e^{i phi}), exactly, for any phi.

    The watchdog checks, for every state and after every flash, the
    supremum over phi of the top-Fock-tail population; the third return
    value holds each state's largest one, and a TruncationError's index the
    failing state. The block goes through the train flash by flash in the
    rotating frame, one batched sector matmul each (see the module
    docstring), and its tail rows go through one reused buffer of
    N // k_tail flashes, no more than the block; propagate_block may take
    the cached train operator instead.
    """
    n, k_tail = hilbert.fock_dim, hilbert.tail_levels
    drive = train.drive
    u = _flash_unitary(n, drive.eta, drive.rabi, mode.freq, train.flash_dur)
    gap = _gap_phases(train, mode, n)[:, None]
    block = _split_sectors(states, n)
    spare = np.empty_like(block)  # two reused buffers bound the working set
    chunk = min(train.n_flashes, max(1, n // k_tail))
    tails = np.empty((2, chunk, k_tail, block.shape[2]), dtype=complex)
    max_tail = np.zeros(states.shape[1])
    for k in range(train.n_flashes):
        np.matmul(u, block, out=spare)
        block, spare = spare, block
        block *= gap
        j = k % chunk
        tails[:, j] = block[:, n - k_tail :]
        if j == chunk - 1 or k == train.n_flashes - 1:
            _watch_tails(tails[:, : j + 1], k - j, train, hilbert, max_tail)
    del spare, tails  # the output is written over the propagated block alone
    return (*_spin_output(block, train), max_tail)


_flash_cache = _flash_unitary  # released by this name, which a patched _flash_unitary leaves


@_OneEntryCache
def _train_operator(
    train: PulseTrainSpec, mode: ModeParams, hilbert: HilbertSpec
) -> tuple[np.ndarray, np.ndarray]:
    """T = M^F and the tail rows P M^(j+1), j < F, as (2, F, k_tail, N), per
    sector, cached for one (train, mode, hilbert).

    M = Gap blockdiag(U_+, U_-) is the (2, N, N) stack Gap U_s, and a
    product by M is taken as (x Gap) U_s with the cached U, so M is never
    stored: the tail rows are a chain of thin products, and M^F is taken
    by left-to-right binary powering, floor(log2 F) squarings and
    popcount(F) - 1 products by M, the power scaled by Gap in place before
    each product by U. Each sector swaps between its slot of T and an N x N
    spare in the unformed rows' buffer, so the build holds U, T and the rows,
    all three _mapped, and releases the flash pair as its last step.
    """
    n, k_tail = hilbert.fock_dim, hilbert.tail_levels
    drive = train.drive
    u = _flash_unitary(n, drive.eta, drive.rabi, mode.freq, train.flash_dur)
    gap = _gap_phases(train, mode, n)
    rows = _mapped((2, train.n_flashes, k_tail, n))
    spare = rows.reshape(-1)[: n * n].reshape(n, n) if rows.size >= n * n else np.empty((n, n), complex)
    power = np.multiply(gap[:, None], u, out=_mapped(u.shape))
    for sector, u_s in zip(power, u):
        out, free = sector, spare
        for bit in bin(train.n_flashes)[3:]:
            np.matmul(out, out, out=free)
            out, free = free, out
            if bit == "1":
                out *= gap
                np.matmul(out, u_s, out=free)
                out, free = free, out
        if out is not sector:  # the one copy
            sector[...] = out
    np.multiply(gap[n - k_tail :, None], u[:, n - k_tail :], out=rows[:, 0])
    for j in range(1, train.n_flashes):
        np.matmul(rows[:, j - 1] * gap, u, out=rows[:, j])
    power.setflags(write=False)
    rows.setflags(write=False)
    _flash_cache.release()  # nothing after the build reads the flash pair
    return power, rows


def _operator_pays(n_flashes: int, dim: int, width: int, tail_rows: int, cached: bool) -> bool:
    """Whether the train operator halves the work of a (dim, width) block,
    and, when it is not cached, its build stays within the flash-by-flash
    working set.

    Counted in sector multiply-adds, with D = dim = 2N,
    w = width = 2L and t = tail_rows = 2 k_tail: flash by flash costs
    F D^2 w / 2, one (2, N, N) matmul per flash. The operator costs
    D^2 w / 2 + F t D w / 2 to apply, plus
    (floor(log2 F) + popcount(F) - 1) D^3 / 4 + F t D^2 / 4 to build when
    it is not cached. The count leaves out the per-product overhead of the
    operator's thin chains and the arrays it holds, so it must save half.

    A build keeps the operator and the tail rows, 2N^2 + 2 F k_tail N
    complex values, which grow with F, and holds one more N x N matrix
    while it powers; the apply then holds the block plus about half of it.
    Flash by flash holds three (2, N, 2L) blocks (the block, its spare
    and at most a block of tail rows). A build whose kept values outgrow
    three blocks of `width`, the whole evaluation's, is refused. So a wide
    enough evaluation still builds for a long train, whose rows grow with
    F; a rule on the block's width would refuse fig4's tables.
    """
    if not cached and (dim * dim + n_flashes * tail_rows * dim) / 2 > 3 * dim * width:
        return False
    by_flash = n_flashes * dim * dim * width / 2
    cost = (dim * dim * width + n_flashes * tail_rows * dim * width) / 2
    if not cached:
        matmuls = n_flashes.bit_length() - 1 + n_flashes.bit_count() - 1
        cost += (matmuls * dim**3 + n_flashes * tail_rows * dim * dim) / 4
    return 2 * cost <= by_flash


def _operator_block(
    states: np.ndarray,
    train: PulseTrainSpec,
    mode: ModeParams,
    hilbert: HilbertSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """run_pulse_train_block through the cached train operator.

    The watchdog reads every flash's tail from its thin rows before the
    block itself is propagated, in one product per sector for each run of
    N // (2 k_tail) flashes, about half a block of tail rows: each product
    reads the whole block, so fewer, taller ones read it less often. T then
    goes through the block a quarter of its columns at a time, each image
    written back over its slice, so the apply holds the block and half.
    One product over the whole block would put the apply's peak above the
    build's.
    """
    t, rows = _train_operator(train, mode, hilbert)
    n, k_tail = hilbert.fock_dim, hilbert.tail_levels
    block = _split_sectors(states, n)
    width = block.shape[2]
    chunk = max(1, n // (2 * k_tail))
    max_tail = np.zeros(states.shape[1])
    for j in range(0, train.n_flashes, chunk):
        _watch_tails((rows[:, j : j + chunk].reshape(2, -1, n) @ block)
                     .reshape(2, -1, k_tail, width), j, train, hilbert, max_tail)
    step = -(-width // 4)
    for c in range(0, width, step):
        block[:, :, c : c + step] = t @ block[:, :, c : c + step]
    return (*_spin_output(block, train), max_tail)


def propagate_block(
    states: np.ndarray,
    train: PulseTrainSpec,
    mode: ModeParams,
    hilbert: HilbertSpec,
    n_states: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """run_pulse_train_block's (down, up, max_tail), through the cached train
    operator when that halves the work (_operator_pays), else flash
    by flash. Both raise the same TruncationErrors and norm error. n_states,
    the width of a whole evaluation sent in blocks, stands in for the
    block's: once (train, mode, hilbert) is in _train_operator the rule no
    longer reads the width, so every block takes the first one's path, and
    builds at most once.
    """
    cached = (train, mode, hilbert) in _train_operator
    if _operator_pays(train.n_flashes, 2 * hilbert.fock_dim, 2 * (n_states or states.shape[1]),
                      2 * hilbert.tail_levels, cached):
        return _operator_block(states, train, mode, hilbert)
    return run_pulse_train_block(states, train, mode, hilbert)


def apply_dephasing(spec: DephasingSpec, elapsed: float) -> float:
    """The coherence envelope at `elapsed`, the factor on a fringe contrast."""
    if spec.envelope == "none":
        return 1.0
    if spec.envelope == "gaussian":
        return math.exp(-(min(elapsed / spec.tau, 40.0) ** 2))  # exp(-1600) is 0.0
    return math.exp(-elapsed / spec.tau)
