"""Shared fixtures: tuned headline-parameter sequences at two space sizes, a
counter of the sequence layer's block propagations, a dense reference train
at any drive phase, a state-by-state reference for the sequence layer's
fringes, the dense ladder operators and the observables built from them,
the decoded noise floor, and a traced-memory probe."""

import math
import os
import tracemalloc
from dataclasses import replace

# One OpenBLAS thread, the package's own rule (ionstrobe/__init__.py): on the
# suite's matrices, at most a few hundred wide, waking a worker on an idle
# second CPU can stall a single eigh or matmul by ~0.3 s, enough to break the
# wall-time bounds of test_acceptance. Repeated here because numpy is
# imported below before ionstrobe is.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from ionstrobe import (
    SPIN_DOWN,
    CoherentAmp,
    DriveParams,
    HilbertSpec,
    ModeParams,
    SpinMotionState,
    SqueezeParam,
    UnitScale,
    ATOMIC_MASS,
    displacement_operator,
    expect_sigma_z,
    make_initial_state,
    squeeze_operator,
    thermal_ensemble,
)
from ionstrobe.calibrate import apply_tuning, build_decode_tables, fit_scan, tune_pulse_train
from ionstrobe.dynamics import (
    DephasingSpec,
    PulseTrainSpec,
    apply_dephasing,
    free_evolve,
    mw_rotation,
)
import ionstrobe.sequence as sequence_module
from ionstrobe.sequence import ScanSpec, SequenceSpec, sample_scan, scan_fringes, sequence_fringes

OMEGA_LF = 2.0 * math.pi * 1.3e6


def traced_call(call, *args):
    """(call(*args), bytes of the traced high-water mark during the call over
    what was held before it); what the call returns counts."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def build_mode_operators(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated lowering, raising, and number matrices (a, a_dag, n)."""
    dim = spec.fock_dim
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    a_dag = a.conj().T
    n = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return a, a_dag, n


def expect_n(state: SpinMotionState) -> float:
    """Mean motional quanta <a_dag a>."""
    pops = state.fock_populations()
    return float(np.dot(pops, np.arange(state.fock_dim)))


def _expect(state: SpinMotionState, op: np.ndarray) -> float:
    """Re <op> over both spin blocks, for a Hermitian op on the Fock space."""
    return float(sum(np.vdot(block, op @ block) for block in state.spin_blocks()).real)


def _quadrature_operators(fock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense X = a + a_dag and P = i (a_dag - a), in zero-point units."""
    a, a_dag, _ = build_mode_operators(HilbertSpec(fock_dim=fock_dim))
    return a + a_dag, 1j * (a_dag - a)


def quadratures(state: SpinMotionState, units: UnitScale) -> tuple[float, float]:
    """Position and momentum expectations in SI units, x_zpf <X> and p_zpf <P>."""
    x, p = _quadrature_operators(state.fock_dim)
    return units.x_zpf * _expect(state, x), units.p_zpf * _expect(state, p)


def quadrature_variances(state: SpinMotionState, units: UnitScale) -> tuple[float, float]:
    """Var(X) and Var(P) in SI units, <O^2> - <O>^2 from the dense products."""
    x, p = _quadrature_operators(state.fock_dim)
    return tuple(scale**2 * (_expect(state, op @ op) - _expect(state, op) ** 2)
                 for scale, op in ((units.x_zpf, x), (units.p_zpf, p)))


def noise_floor(spec: SequenceSpec, tables, phi_grid, shots, n_repeats: int, seed: int,
                drift_phases=None) -> tuple[float, float]:
    """Standard deviations of the decoded position and momentum magnitude at alpha = 0.

    One scan_fringes propagation serves every repeat: each repeat samples the
    alpha = 0 fringe, with interleaved phase referencing, under its own
    detection seeds (sample_scan), fits it (fit_scan) and decodes it through
    `tables` relative to the same fringe's phase, the anchor. `shots=None`
    runs the analytic no-noise limit.
    """
    scan = ScanSpec(phi_grid=tuple(phi_grid), outer_var="alpha_abs", shots=shots,
                    interleave_reference=True)
    fringes = scan_fringes(scan, replace(spec, excitation=CoherentAmp(0.0, 0.0)))
    anchor = fringes[-1].phase
    xs, ps = [], []
    for r in range(n_repeats):
        repeat = replace(scan, base_seed=seed + (1 << 24) * r)
        fit = fit_scan(repeat, sample_scan(repeat, fringes, drift_phases))[0]
        rel_phase = math.remainder(fit.phase - anchor, 2.0 * math.pi)
        point = tables.decode(rel_phase, min(fit.contrast, float(tables.contrast[0])))
        xs.append(point.x)
        ps.append(point.p_mag)
    return float(np.std(xs)), float(np.std(ps))


def run_sequence(spec: SequenceSpec, phi: float) -> tuple[float, float]:
    """(P_down, delta_n) of the full sequence at one analysis phase phi."""
    return sequence_fringes(spec, [spec.excitation])[0].evaluate(phi)


def reference_pre_train(spec: SequenceSpec, level: int) -> tuple[SpinMotionState, float]:
    """The pre-train state of thermal level `level` and its <n> after the kick,
    one state at a time: |down>|level> kicked by the full displacement or
    squeeze unitary of spec.excitation, free_evolve over the pre-delay, then
    the sync mw_rotation."""
    state = make_initial_state(SPIN_DOWN, int(level), spec.hilbert)
    exc = spec.excitation
    if isinstance(exc, CoherentAmp):
        op = displacement_operator(exc, spec.hilbert)
    elif isinstance(exc, SqueezeParam):
        op = squeeze_operator(exc, spec.hilbert)
    else:
        op = np.eye(spec.hilbert.fock_dim)
    state = SpinMotionState(np.concatenate([op @ block for block in state.spin_blocks()]),
                            state.fock_dim)
    n_initial = expect_n(state)
    state = free_evolve(state, spec.mode, spec.pre_delay())
    return mw_rotation(state, math.pi / 2.0, sequence_module.SYNC_PHASE), n_initial


def complex_coupling(fock_dim, eta):
    """C = exp[i eta (a + a_dag)] from one complex eigendecomposition."""
    root = np.sqrt(np.arange(1.0, fock_dim))
    w, v = np.linalg.eigh(eta * (np.diag(root, 1) + np.diag(root, -1)))
    return (v * np.exp(1j * w)) @ v.conj().T


def complex_hamiltonian(fock_dim, eta, rabi, freq, phi=0.0):
    """H(phi)/hbar = w_m a_dag a + (W/2)(e^{-i phi} C sigma_+ + h.c.), spin-major."""
    c = np.exp(-1j * phi) * complex_coupling(fock_dim, eta)
    dim = 2 * fock_dim
    h = np.zeros((dim, dim), dtype=complex)
    diag_mode = freq * np.arange(fock_dim)
    h[:fock_dim, :fock_dim] = np.diag(diag_mode)
    h[fock_dim:, fock_dim:] = np.diag(diag_mode)
    h[fock_dim:, :fock_dim] = (rabi / 2.0) * c
    h[:fock_dim, fock_dim:] = (rabi / 2.0) * c.conj().T
    return h


def complex_flash_unitary(fock_dim, eta, rabi, freq, dt, phi=0.0):
    """Reference flash propagator at drive phase phi: H(phi) and one complex eigh."""
    w, v = np.linalg.eigh(complex_hamiltonian(fock_dim, eta, rabi, freq, phi))
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def dense_train(amplitudes, train: PulseTrainSpec, mode: ModeParams, phi: float):
    """Yield the spin-major `amplitudes`, a vector or (2N, L) columns, after
    each cycle of `train` with every flash at drive phase phi: the dense
    2N x 2N complex_flash_unitary at phi, then the free gap. Shares no
    propagation code with the engine, which runs every train at phase 0."""
    n, drive = amplitudes.shape[0] // 2, train.drive
    flash = complex_flash_unitary(n, drive.eta, drive.rabi, mode.freq, train.flash_dur, phi)
    gap = np.tile(np.exp(-1j * mode.freq * (train.cycle_dur - train.flash_dur) * np.arange(n)), 2)
    cycle = gap[:, None] * flash
    for _ in range(train.n_flashes):
        amplitudes = cycle @ amplitudes
        yield amplitudes


def reference_fringe(spec: SequenceSpec) -> tuple[float, complex, float, complex]:
    """The fringe coefficients (p0, p1, n0, n1) of spec, from dense_train on
    every thermal level's reference_pre_train state at phi = 0, pi/2, pi and
    3 pi/2: an exact cosine in phi is its mean plus 2 Re(c1 e^{i phi}), with
    c1 the mean of its samples times e^{-i phi}."""
    levels, weights = thermal_ensemble(spec.mode.n_th, spec.hilbert)
    envelope = apply_dephasing(spec.dephasing, spec.analysis.total_duration)
    phis = np.arange(4) * (math.pi / 2.0)
    p_down, delta_n = np.zeros(4), np.zeros(4)
    for w, level in zip(weights, levels):
        state, n_initial = reference_pre_train(spec, level)
        for k, phi in enumerate(phis):
            *_, amps = dense_train(state.amplitudes, spec.analysis, spec.mode, phi)
            out = SpinMotionState(amps, state.fock_dim)
            p_down[k] += w * (1.0 - expect_sigma_z(out)) / 2.0
            delta_n[k] += w * (expect_n(out) - n_initial)
    rot = np.exp(-1j * phis)
    p0 = 0.5 + (np.mean(p_down) - 0.5) * envelope
    return p0, np.mean(p_down * rot) * envelope, np.mean(delta_n), np.mean(delta_n * rot)


def headline_sequence_spec(fock_dim: int) -> SequenceSpec:
    """The headline configuration: 30 x 100 ns flashes at eta = 0.4, one per
    1.3 MHz period, thermal n_th = 0.15, 70 us gaussian envelope."""
    train = PulseTrainSpec(
        n_flashes=30,
        flash_dur=100e-9,
        cycle_dur=2.0 * math.pi / OMEGA_LF,
        drive=DriveParams(rabi=2.0 * math.pi * 0.3e6, eta=0.4),
    )
    return SequenceSpec(
        hilbert=HilbertSpec(fock_dim=fock_dim),
        mode=ModeParams(freq=OMEGA_LF, n_th=0.15),
        analysis=train,
        excitation=CoherentAmp(0.0, 0.0),
        dephasing=DephasingSpec(tau=70e-6, envelope="gaussian"),
    )


@pytest.fixture(scope="session")
def headline_units() -> UnitScale:
    return UnitScale.for_mode(25.0 * ATOMIC_MASS, OMEGA_LF)


@pytest.fixture(scope="session")
def tuned_headline_small():
    spec = headline_sequence_spec(64)
    tuning = tune_pulse_train(spec)
    return apply_tuning(spec, tuning), tuning


@pytest.fixture(scope="session")
def tuned_headline_large():
    spec = headline_sequence_spec(232)
    tuning = tune_pulse_train(spec)
    return apply_tuning(spec, tuning), tuning


@pytest.fixture(scope="session")
def headline_decode_tables(tuned_headline_large, headline_units):
    spec, _ = tuned_headline_large
    return build_decode_tables(spec, headline_units, np.arange(0.0, 7.3, 0.4))


@pytest.fixture
def block_calls(monkeypatch):
    """The widths of the block propagations sequence_fringes makes, in call order.

    Only the sequence module's binding of propagate_block, its one dynamics
    entry point, is wrapped, so the tuner's own block propagations are not
    counted, whichever path (flash by flash or train operator) a block takes.
    """
    widths = []
    block = sequence_module.propagate_block

    def counting(states, *args):
        widths.append(states.shape[1])
        return block(states, *args)

    monkeypatch.setattr(sequence_module, "propagate_block", counting)
    return widths


@pytest.fixture
def fringe_evaluations(monkeypatch):
    """The block widths of each fringe evaluation sequence_fringes makes, one
    list per evaluation, in call order.

    Every block of an evaluation passes propagate_block the evaluation's
    whole width, and a new list starts once the last one's blocks add up to
    it; an evaluation that raises part way would run into the next one.
    """
    evaluations, totals = [], []
    block = sequence_module.propagate_block

    def counting(states, train, mode, hilbert, n_states):
        if not evaluations or sum(evaluations[-1]) == totals[-1]:
            evaluations.append([])
            totals.append(n_states)
        evaluations[-1].append(states.shape[1])
        return block(states, train, mode, hilbert, n_states)

    monkeypatch.setattr(sequence_module, "propagate_block", counting)
    return evaluations
