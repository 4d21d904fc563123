"""Free evolution, flashes, MW rotations, and pulse trains."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionstrobe import (
    CoherentAmp,
    DriveParams,
    HilbertSpec,
    ModeParams,
    SPIN_DOWN,
    SpinMotionState,
    UnitScale,
    ATOMIC_MASS,
    coupling_operator,
    displacement_operator,
    expect_sigma_z,
    make_initial_state,
)
from ionstrobe.hilbert import quadrature_gauge
import ionstrobe.dynamics as dynamics_module
import ionstrobe.sequence as sequence_module
from ionstrobe.dynamics import (
    _OneEntryCache,
    _flash_unitary,
    _from_sectors,
    _operator_block,
    _operator_pays,
    _split_sectors,
    _train_operator,
    DephasingSpec,
    PulseTrainSpec,
    apply_dephasing,
    flash_evolve,
    free_evolve,
    mw_rotation,
    propagate_block,
    run_pulse_train,
    run_pulse_train_block,
)
from ionstrobe.errors import IonstrobeError, TruncationError

from conftest import (
    complex_flash_unitary,
    complex_hamiltonian,
    dense_train,
    expect_n,
    quadratures,
    traced_call,
)

OMEGA = 2.0 * math.pi * 1.3e6
MODE = ModeParams(freq=OMEGA, n_th=0.15)
UNITS = UnitScale.for_mode(25.0 * ATOMIC_MASS, OMEGA)


def coherent_state(alpha_mag, alpha_phase, fock_dim):
    spec = HilbertSpec(fock_dim=fock_dim)
    d = displacement_operator(CoherentAmp(alpha_mag, alpha_phase), spec)
    amps = np.zeros(2 * fock_dim, dtype=complex)
    amps[:fock_dim] = d[:, 0]
    return SpinMotionState(amps, fock_dim)


class TestFreeEvolution:
    def test_full_period_identity(self):
        st = coherent_state(2.0, 0.3, 64)
        out = free_evolve(st, MODE, 2.0 * math.pi / OMEGA)
        # global phase is trivial here because the evolution has no constant term
        assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-10

    def test_half_period_flips_position(self):
        st = coherent_state(2.0, 0.0, 64)
        x0, _ = quadratures(st, UNITS)
        out = free_evolve(st, MODE, math.pi / OMEGA)
        x1, _ = quadratures(out, UNITS)
        assert x1 == pytest.approx(-x0, rel=1e-9)

    def test_zero_time_identity(self):
        # t = 0 runs the general path: equal amplitudes, in a new state
        st = coherent_state(1.0, 0.0, 48)
        out = free_evolve(st, MODE, 0.0)
        np.testing.assert_array_equal(out.amplitudes, st.amplitudes)
        assert out is not st and not np.shares_memory(out.amplitudes, st.amplitudes)

    def test_conserves_quanta(self):
        st = coherent_state(2.0, 1.0, 64)
        out = free_evolve(st, MODE, 3.7e-7)
        assert expect_n(out) == pytest.approx(expect_n(st), abs=1e-12)


class TestFlashEvolution:
    def test_zero_phase_is_the_cached_unitary(self):
        # a flash is the cached U(0) between the split and the merge, exactly
        st = coherent_state(1.5, 0.4, 48)
        drive = DriveParams(rabi=2.0 * math.pi * 0.3e6, eta=0.4)
        out = flash_evolve(st, drive, MODE, 1e-7)
        split = _split_sectors(st.amplitudes[:, None], 48)
        u0 = _flash_unitary(48, drive.eta, drive.rabi, MODE.freq, 1e-7)
        direct = _from_sectors(u0 @ (split[..., :1] + split[..., 1:]))[:, 0]
        np.testing.assert_array_equal(out.amplitudes, direct)

    def test_zero_rabi_equals_free(self):
        st = coherent_state(1.5, 0.4, 48)
        dt = 1e-7
        flashed = flash_evolve(st, DriveParams(rabi=0.0, eta=0.4), MODE, dt)
        free = free_evolve(st, MODE, dt)
        assert np.max(np.abs(flashed.amplitudes - free.amplitudes)) < 1e-12

    def test_resonant_carrier_pi_flip(self):
        spec = HilbertSpec(fock_dim=16)
        st = make_initial_state(SPIN_DOWN, 0, spec)
        rabi = 2.0 * math.pi * 0.25e6
        dt = math.pi / rabi
        out = flash_evolve(st, DriveParams(rabi=rabi, eta=0.0), MODE, dt)
        p_up = float(np.sum(np.abs(out.amplitudes[16:]) ** 2))
        assert p_up == pytest.approx(1.0, abs=1e-9)

    def test_lamb_dicke_carrier_suppression(self):
        # vacuum two-level reduction: P_up = sin^2(W e^{-eta^2/2} dt / 2).
        # The reduction describes the carrier subspace {down 0, up 0}; the
        # off-resonant first sideband carries an extra ~1e-3 that the
        # two-level formula does not model.
        spec = HilbertSpec(fock_dim=48)
        st = make_initial_state(SPIN_DOWN, 0, spec)
        rabi = 2.0 * math.pi * 0.3e6
        dt = 100e-9
        out = flash_evolve(st, DriveParams(rabi=rabi, eta=0.4), MODE, dt)
        p_up_carrier = float(np.abs(out.amplitudes[48]) ** 2)
        expected = math.sin(rabi * math.exp(-0.08) * dt / 2.0) ** 2
        assert abs(p_up_carrier - expected) < 1e-3
        p_up_total = float(np.sum(np.abs(out.amplitudes[48:]) ** 2))
        assert abs(p_up_total - expected) < 3e-3

    def test_eta_zero_factorizes(self):
        # spin rotation (x) free motional evolution, exactly: the engine's flash
        # at phase 0, and the dense H(phi) flash at phi, which ties mw_rotation's
        # phase, the sync pulse's, to the analysis phase
        st = coherent_state(1.2, 0.8, 48)
        rabi = 2.0 * math.pi * 0.2e6
        dt = 3.3e-7
        out = flash_evolve(st, DriveParams(rabi=rabi, eta=0.0), MODE, dt)
        manual = mw_rotation(free_evolve(st, MODE, dt), rabi * dt, 0.0)
        assert np.max(np.abs(out.amplitudes - manual.amplitudes)) < 1e-10
        phase = 0.77
        dense = complex_flash_unitary(48, 0.0, rabi, MODE.freq, dt, phase) @ st.amplitudes
        manual = mw_rotation(free_evolve(st, MODE, dt), rabi * dt, phase)
        assert np.max(np.abs(dense - manual.amplitudes)) < 1e-10


class TestMwRotation:
    def test_pi_pulse_inverts(self):
        spec = HilbertSpec(fock_dim=8)
        st = make_initial_state(SPIN_DOWN, 0, spec)
        out = mw_rotation(st, math.pi, 0.3)
        p_up = float(np.sum(np.abs(out.amplitudes[8:]) ** 2))
        assert p_up == pytest.approx(1.0, abs=1e-12)

    def test_ramsey_null(self):
        spec = HilbertSpec(fock_dim=8)
        st = make_initial_state(SPIN_DOWN, 0, spec)
        st = mw_rotation(st, math.pi / 2, 0.0)
        st = mw_rotation(st, math.pi / 2, math.pi)
        p_down = float(np.sum(np.abs(st.amplitudes[:8]) ** 2))
        assert p_down == pytest.approx(1.0, abs=1e-12)

    def test_half_pulse_equator(self):
        spec = HilbertSpec(fock_dim=8)
        st = make_initial_state(SPIN_DOWN, 0, spec)
        out = mw_rotation(st, math.pi / 2, 1.0)
        assert abs(expect_sigma_z(out)) < 1e-12


def headline_train(rabi_scale=1.0):
    return PulseTrainSpec(
        n_flashes=30,
        flash_dur=100e-9,
        cycle_dur=2.0 * math.pi / OMEGA,
        drive=DriveParams(rabi=rabi_scale * 2.0 * math.pi * 0.3e6, eta=0.4),
    )


class TestPulseTrain:
    def test_total_duration(self):
        train = headline_train()
        assert train.total_duration == pytest.approx(23.1e-6, abs=0.05e-6)

    def test_zero_rabi_train_is_free_evolution(self):
        st = coherent_state(1.5, 0.2, 64)
        train = PulseTrainSpec(
            n_flashes=5,
            flash_dur=100e-9,
            cycle_dur=2.0 * math.pi / OMEGA,
            drive=DriveParams(rabi=0.0, eta=0.4),
        )
        out = run_pulse_train(st, train, MODE)
        free = free_evolve(st, MODE, train.total_duration)
        assert np.max(np.abs(out.amplitudes - free.amplitudes)) < 1e-9
        assert expect_n(out) == pytest.approx(expect_n(st), abs=1e-12)

    def test_composition_bit_for_bit(self):
        from dataclasses import replace

        st = coherent_state(1.0, 0.5, 48)
        train = headline_train()
        two = replace(train, n_flashes=2)
        auto = run_pulse_train(st, two, MODE)
        gap = two.cycle_dur - two.flash_dur
        manual = st
        for _ in range(2):
            manual = flash_evolve(manual, two.drive, MODE, two.flash_dur)
            manual = free_evolve(manual, MODE, gap)
        np.testing.assert_array_equal(auto.amplitudes, manual.amplitudes)

    def test_unitarity(self):
        st = coherent_state(2.0, 1.1, 96)
        out = run_pulse_train(st, headline_train(rabi_scale=0.3), MODE)
        assert out.norm() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("propagate, scale", [
        (run_pulse_train_block, 1.0 + 1e-8), (_operator_block, 1.0 + 1e-8),
        (run_pulse_train_block, math.nan), (_operator_block, math.nan),
    ], ids=["run_pulse_train_block", "_operator_block", "run_pulse_train_block-nan",
            "_operator_block-nan"])
    def test_non_unitary_flash_raises(self, monkeypatch, cold_train_operator, propagate, scale):
        # the cached sector pair scaled by 1 + 1e-8 moves every norm by about
        # 2e-8 per flash, far past the 2e-10 + 30e-14 bound of 30 flashes;
        # scaled by NaN it leaves a NaN norm, which must fail the check too
        flash = dynamics_module._flash_unitary
        monkeypatch.setattr(dynamics_module, "_flash_unitary",
                            lambda *args: flash(*args) * scale)
        st = coherent_state(1.0, 0.5, 40)
        message = r"norm deviates from 1 by up to \S+ after 30 flashes \(tol 2e-10\)"
        with pytest.raises(IonstrobeError, match=message):
            propagate(st.amplitudes[:, None], headline_train(rabi_scale=0.3), MODE,
                      HilbertSpec(fock_dim=40))

    def test_stroboscopic_pre_delay_invariance(self):
        # on resonance, adding full motional periods before the train changes nothing
        st = coherent_state(1.5, 0.9, 64)
        train = headline_train(rabi_scale=0.3)
        direct = run_pulse_train(st, train, MODE)
        delayed = run_pulse_train(
            free_evolve(st, MODE, 3 * 2.0 * math.pi / OMEGA), train, MODE
        )
        assert abs(expect_sigma_z(direct) - expect_sigma_z(delayed)) < 1e-10
        assert expect_n(direct) == pytest.approx(expect_n(delayed), abs=1e-10)


class TestBackAction:
    def test_eta_zero_exchanges_nothing(self):
        st = coherent_state(2.0, 0.7, 64)
        train = PulseTrainSpec(
            n_flashes=10,
            flash_dur=100e-9,
            cycle_dur=2.0 * math.pi / OMEGA,
            drive=DriveParams(rabi=2.0 * math.pi * 0.3e6, eta=0.0),
        )
        out = run_pulse_train(st, train, MODE)
        assert abs(expect_n(out) - expect_n(st)) < 1e-9


class TestDephasing:
    def test_none_envelope(self):
        assert apply_dephasing(DephasingSpec(envelope="none"), 1e-3) == 1.0

    def test_gaussian_at_tau(self):
        spec = DephasingSpec(tau=70e-6, envelope="gaussian")
        assert apply_dephasing(spec, 70e-6) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_gaussian_at_train_duration(self):
        spec = DephasingSpec(tau=70e-6, envelope="gaussian")
        factor = apply_dephasing(spec, 23.1e-6)
        assert factor == pytest.approx(0.897, abs=0.001)

    def test_exponential(self):
        spec = DephasingSpec(tau=50e-6, envelope="exponential")
        assert apply_dephasing(spec, 50e-6) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("envelope", ["gaussian", "exponential"])
    @pytest.mark.parametrize("elapsed", [1.0e-140, 1.0, 1.0e10])
    def test_huge_elapsed_over_tau_is_zero(self, envelope, elapsed):
        # elapsed / tau of 1e160, whose square overflows a float, 1e300 and inf
        assert apply_dephasing(DephasingSpec(tau=1.0e-300, envelope=envelope), elapsed) == 0.0


def dense_flash_unitary(pair):
    """The 2N x 2N spin-major unitary that a (2, N, N) pair of parity-sector blocks stands for.

    The sectors are y_+- = (a +- P b) / sqrt 2 of the gauge-basis spin parts
    a = G^dag down, b = G^dag up, with P = diag((-1)^n) and G = diag(i^n).
    """
    n = pair.shape[1]
    eye, parity = np.eye(n), np.diag((-1.0) ** np.arange(n))
    to_sectors = np.block([[eye, parity], [eye, -parity]]) / math.sqrt(2.0)
    sectors = np.zeros((2 * n, 2 * n), dtype=complex)
    sectors[:n, :n], sectors[n:, n:] = pair
    gauge = np.tile(np.array([1, 1j, -1, -1j])[np.arange(n) % 4], 2)
    return gauge[:, None] * (to_sectors.T @ sectors @ to_sectors) * np.conj(gauge)


class TestParitySymmetry:
    @settings(max_examples=30, deadline=None)
    @given(
        fock_dim=st.integers(2, 64),
        eta=st.floats(0.0, 2.0),
        rabi_hz=st.floats(0.0, 1e6),
        freq_hz=st.floats(0.2e6, 2e6),
    )
    def test_parity_commutes_with_the_flash_hamiltonian(self, fock_dim, eta, rabi_hz, freq_hz):
        # Pi = sigma_x (x) (-1)^(a_dag a) maps the coupling C to its adjoint
        h = complex_hamiltonian(fock_dim, eta, 2 * math.pi * rabi_hz, 2 * math.pi * freq_hz)
        parity = np.diag((-1.0) ** np.arange(fock_dim))
        zero = np.zeros((fock_dim, fock_dim))
        pi = np.block([[zero, parity], [parity, zero]])
        assert np.max(np.abs(pi @ h @ pi - h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))

    @settings(max_examples=30, deadline=None)
    @given(fock_dim=st.integers(2, 240), eta=st.floats(0.0, 2.0))
    def test_parity_transposes_the_gauge_coupling(self, fock_dim, eta):
        # P r P = r^T for the real gauge coupling r = G^dag C G
        g = quadrature_gauge(fock_dim)
        c = coupling_operator(eta, HilbertSpec(fock_dim=fock_dim, tail_tol=0.5))
        r = np.conj(g)[:, None] * c * g
        assert np.max(np.abs(r.imag)) < 1e-12
        parity = (-1.0) ** np.arange(fock_dim)
        assert np.max(np.abs(parity[:, None] * r.real * parity - r.real.T)) < 1e-12


class TestGaugeFlashUnitary:
    @settings(max_examples=40, deadline=None)
    @given(
        fock_dim=st.integers(4, 64),
        eta=st.floats(0.0, 1.0),
        rabi_hz=st.floats(0.0, 1e6),
        freq_hz=st.floats(0.2e6, 2e6),
        dt=st.floats(10e-9, 200e-9),
    )
    def test_matches_complex_eigh(self, fock_dim, eta, rabi_hz, freq_hz, dt):
        args = (fock_dim, eta, 2 * math.pi * rabi_hz, 2 * math.pi * freq_hz, dt)
        u = dense_flash_unitary(_flash_unitary(*args))
        ref = complex_flash_unitary(*args)
        assert np.max(np.abs(u - ref)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 * fock_dim))) < 1e-12


def flash_and_phase(error: TruncationError) -> tuple[int, float]:
    return int(str(error).split()[1]), error.phase


def reference_kick(fock_dim, alpha):
    """exp(alpha a_dag - alpha* a) of the truncated ladder operators, by one complex eigh."""
    a = np.diag(np.sqrt(np.arange(1.0, fock_dim)), 1)
    w, v = np.linalg.eigh(1j * (alpha * a.T - np.conj(alpha) * a))
    return (v * np.exp(-1j * w)) @ v.conj().T


def reference_states(fock_dim, levels, alpha, mix):
    """Kicked Fock levels, each in the spin state cos(mix)|down> + i sin(mix)|up>."""
    d = reference_kick(fock_dim, alpha * np.exp(0.7j))
    return [SpinMotionState(np.concatenate([math.cos(mix) * d[:, n], 1j * math.sin(mix) * d[:, n]]),
                            fock_dim) for n in levels]


def drive_frame(phi, fock_dim):
    """Diagonal of V(phi) = exp(-i phi sigma_z / 2): e^{i phi/2} on spin down, e^{-i phi/2} on up."""
    return np.repeat([np.exp(0.5j * phi), np.exp(-0.5j * phi)], fock_dim)


def reference_train(states, train, mode, hilbert, phi):
    """dense_train with every flash at phi, on every state's down and up parts.

    Returns ((down, up, max_tail), None) with the images of every state's
    down and up parts, or (None, (flash, index, t0, t1)) for the first flash
    at which a state's tail supremum over the analysis phase, t0 + 2 |t1|,
    reaches tail_tol.
    """
    n, k_tail, width = hilbert.fock_dim, hilbert.tail_levels, len(states)
    amps = np.array([state.amplitudes for state in states]).T
    parts = np.concatenate([amps, amps], axis=1)
    parts[n:, :width] = 0.0  # the down parts, then the up parts
    parts[:n, width:] = 0.0
    top = np.r_[n - k_tail : n, 2 * n - k_tail : 2 * n]
    max_tail = np.zeros(width)
    for k, out in enumerate(dense_train(parts, train, mode, phi)):
        down, up = out[:, :width], out[:, width:]
        t0 = np.sum(np.abs(down[top]) ** 2 + np.abs(up[top]) ** 2, axis=0)
        t1 = np.sum(np.conj(down[top]) * up[top], axis=0)
        sup = t0 + 2.0 * np.abs(t1)
        if np.max(sup) >= hilbert.tail_tol:
            worst = int(np.argmax(sup))
            return None, (k + 1, worst, t0[worst], t1[worst])
        np.maximum(max_tail, sup, out=max_tail)
    return (down, up, max_tail), None


def assert_matches_reference(states, train, hilbert, phi):
    """Both block propagators, flash by flash and through the train
    operator, run at phase 0 and mapped to phi by the closed form
    V(phi) (e^{-i phi/2} down + e^{i phi/2} up), give reference_train's
    images at phi and its tails to 1e-12, or raise at its flash and index.
    The raised phase is checked through the reference's tail population
    there, t0 + 2 Re(t1 e^{i(phase - phi)}), which must reach its supremum
    t0 + 2 |t1| to 1e-12 relative: the angle of t1 itself is ill-conditioned
    when |t1| << t0. Returns its result."""
    result, failure = reference_train(states, train, MODE, hilbert, phi)
    block = np.stack([state.amplitudes for state in states], axis=1)
    frame = drive_frame(phi, hilbert.fock_dim)[:, None]
    for propagate in (run_pulse_train_block, _operator_block):
        if failure is not None:
            with pytest.raises(TruncationError) as raised:
                propagate(block, train, MODE, hilbert)
            flash, phase = flash_and_phase(raised.value)
            assert (flash, raised.value.index) == failure[:2]
            t0, t1 = failure[2:]
            at_phase = t0 + 2.0 * (t1 * np.exp(1j * (phase - phi))).real
            assert at_phase == pytest.approx(t0 + 2.0 * abs(t1), rel=1e-12)
            continue
        down, up, tail = propagate(block, train, MODE, hilbert)
        assert np.max(np.abs(np.exp(-0.5j * phi) * frame * down - result[0])) < 1e-12
        assert np.max(np.abs(np.exp(0.5j * phi) * frame * up - result[1])) < 1e-12
        np.testing.assert_allclose(tail, result[2], rtol=1e-12, atol=1e-15)
    return result


class TestDenseReference:
    """The sector engine against reference_train, which shares no propagation code with it,
    on both block paths: flash by flash and the per-sector train operator."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_flashes=st.sampled_from([1, 2, 3, 7, 30]),
        fock_dim=st.integers(4, 48),
        phase=st.floats(0.1, 6.2),
        levels=st.sets(st.integers(0, 3), min_size=1, max_size=4),
        alpha=st.floats(0.0, 1.5),
        mix=st.floats(0.2, 1.3),
    )
    def test_every_propagator_matches(self, n_flashes, fock_dim, phase, levels, alpha, mix):
        train = replace(headline_train(rabi_scale=0.3), n_flashes=n_flashes)
        hilbert = HilbertSpec(fock_dim=fock_dim, tail_tol=1e-3)
        states = reference_states(fock_dim, sorted(levels), alpha, mix)
        result = assert_matches_reference(states, train, hilbert, phase)
        if result is not None:
            frame = drive_frame(phase, fock_dim)
            for col, state in enumerate(states):
                # the train at phase, V T V^dag, with T run_pulse_train at phase 0
                framed = SpinMotionState(np.conj(frame) * state.amplitudes, fock_dim)
                whole = frame * run_pulse_train(framed, train, MODE).amplitudes
                assert np.max(np.abs(whole - result[0][:, col] - result[1][:, col])) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        n_flashes=st.sampled_from([1, 2, 3, 7, 30]),
        fock_dim=st.integers(16, 32),
        phase=st.floats(0.1, 6.2),
        levels=st.sets(st.integers(0, 5), max_size=3),
        mix=st.floats(0.2, 1.3),
    )
    # a drawn input where the engine's and the reference's worst phase differ
    # by 1.02e-9 rad, |t1| being 2.4e-3 of t0, while the tail there is the same
    @example(n_flashes=7, fock_dim=32, phase=1.0, levels=set(), mix=0.875)
    def test_too_small_space_fails_alike(self, n_flashes, fock_dim, phase, levels, mix):
        # flashes at eta = 2 push the kicked level 4 into the watched top
        # levels: below 28 levels the first flash fills them past 1e-7, and
        # from 28 up a later flash does, or none
        train = replace(headline_train(), n_flashes=n_flashes,
                        drive=DriveParams(rabi=2.0 * math.pi * 0.3e6, eta=2.0))
        hilbert = HilbertSpec(fock_dim=fock_dim, tail_tol=1e-7)
        assert_matches_reference(reference_states(fock_dim, sorted(levels | {4}), 1.0, mix),
                                 train, hilbert, phase)

    @pytest.mark.parametrize("phase", [0.0, 0.3])
    def test_later_runs_of_flashes_peak_and_fail_alike(self, phase):
        # at 24 levels (2 watched) the watchdog reads 12 flashes at a time: the
        # top level's tail peaks at flash 1 and level 20's in a later run
        hilbert = HilbertSpec(fock_dim=24, tail_tol=0.999)
        train = headline_train()
        states = reference_states(24, [23, 20], 0.0, 0.0)
        (_, _, tails), _ = reference_train(states, train, MODE, hilbert, phase)
        (_, _, first), _ = reference_train(states, replace(train, n_flashes=12), MODE, hilbert, phase)
        assert first[1] < tails[1]
        assert_matches_reference(states, train, hilbert, phase)
        # a tolerance that level 20's tail first reaches after flash 12
        later = replace(hilbert, tail_tol=(first[1] + tails[1]) / 2)
        assert reference_train(states[1:], train, MODE, later, phase)[1][0] > 12
        assert_matches_reference(states[1:], train, later, phase)


class TestRaggedRuns:
    """Both block paths on runs of flashes and column slices that do not divide
    the train or the block: at 48 levels (3 watched) the watchdog reads 16
    flashes at a time flash by flash and 8 through the operator, whose apply
    takes a quarter of the block's columns, rounded up, at a time."""

    hilbert = HilbertSpec(fock_dim=48, tail_tol=0.999)
    train = replace(headline_train(), drive=DriveParams(rabi=2.0 * math.pi * 0.3e6, eta=1.0))

    def block(self, levels):
        states = reference_states(48, levels, 0.5, 0.6)
        return np.stack([state.amplitudes for state in states], axis=1)

    @pytest.mark.parametrize("n_flashes, levels", [
        (30, [30, 36, 41, 44]),  # last runs of 14 and 6 flashes; 8 columns, slices of 2
        (16, [30, 36, 41, 44, 47]),  # whole runs; 10 columns, slices 3, 3, 3 and 1 wide
    ], ids=["partial-last-run", "ragged-slices"])
    def test_paths_agree(self, n_flashes, levels):
        block, train = self.block(levels), replace(self.train, n_flashes=n_flashes)
        down, up, tail = run_pulse_train_block(block, train, MODE, self.hilbert)
        op_down, op_up, op_tail = _operator_block(block, train, MODE, self.hilbert)
        assert np.max(np.abs(op_down - down)) < 1e-12
        assert np.max(np.abs(op_up - up)) < 1e-12
        np.testing.assert_allclose(op_tail, tail, rtol=1e-12, atol=1e-15)

    def test_leak_in_the_last_run_fails_alike(self):
        # level 36's tail passes 0.157 first at flash 29, inside both paths'
        # last, partial run (flashes 17-30 and 25-30)
        block, hilbert = self.block([30, 36]), replace(self.hilbert, tail_tol=0.157)
        raised = []
        for propagate in (run_pulse_train_block, _operator_block):
            with pytest.raises(TruncationError) as error:
                propagate(block, self.train, MODE, hilbert)
            raised.append(error.value)
        (flash, phase), (op_flash, op_phase) = map(flash_and_phase, raised)
        assert (flash, raised[0].index) == (op_flash, raised[1].index) == (29, 1)
        assert op_phase == pytest.approx(phase, abs=1e-9)


class TestOneEntryCache:
    """The engine's one memo type: it holds the flash pair, the train operator
    and the sequence layer's kick columns."""

    def test_engine_memos_are_one_entry_caches(self):
        for memo in (_flash_unitary, _train_operator, sequence_module._excitation_matrix):
            assert isinstance(memo, _OneEntryCache), memo.__name__

    def test_a_miss_drops_the_entry_before_building(self):
        @_OneEntryCache
        def square(x):
            assert square.cache_info().currsize == 0 and (1,) not in square
            return x * x

        assert [square(1), square(1), square(2), square(1)] == [1, 1, 4, 1]
        assert square.cache_info() == (1, 3, 1, 1)

    def test_a_failed_build_leaves_the_cache_empty(self):
        @_OneEntryCache
        def checked(x):
            if x < 0:
                raise ValueError("negative")
            return x

        checked(1)
        with pytest.raises(ValueError, match="negative"):
            checked(-1)
        assert (1,) not in checked and (-1,) not in checked
        assert checked.cache_info() == (0, 2, 1, 0)

    def test_membership_counts_no_call(self):
        memo = _OneEntryCache(lambda x: [x])
        assert (1,) not in memo and memo.cache_info() == (0, 0, 1, 0)
        memo(1)
        assert (1,) in memo and (2,) not in memo
        assert memo.cache_info() == (0, 1, 1, 1)

    def test_release_keeps_the_counts_and_clear_zeroes_them(self):
        memo = _OneEntryCache(lambda x: [x])
        first = memo(1)
        assert memo(1) is first
        memo.release()
        assert (1,) not in memo and memo.cache_info() == (1, 1, 1, 0)
        assert memo(1) == first and memo(1) is not first  # built again
        assert memo.cache_info() == (2, 2, 1, 1)
        memo.cache_clear()
        assert (1,) not in memo and memo.cache_info() == (0, 0, 1, 0)


class TestTrainOperator:
    """When propagate_block takes the cached train operator T = M^F, and what it caches."""

    @pytest.mark.parametrize("shape, cached, takes", [
        ((30, 464, 222, 24), False, True),  # fig4's decode tables: cost ratio 0.38
        ((30, 464, 6, 24), True, True),  # fig4's anchor, with the operator cached
        ((30, 464, 144, 24), True, True),  # fig4's theta0 scan
        ((30, 128, 180, 8), False, True),  # figS2: 0.20
        ((30, 144, 36, 2), False, False),  # a narrow block whose build fits: 0.54
        ((30, 320, 120, 16), False, False),  # figS4: 0.46, but its build is too large
        ((1, 96, 6, 6), False, False),  # fig2b: one flash
        ((30, 416, 12, 22), False, False),  # fig3b and fig3c
        ((30, 144, 66, 8), False, True),  # figS3-compare: 0.40
    ])
    def test_choice_rule_on_demo_shapes(self, shape, cached, takes):
        assert _operator_pays(*shape, cached) is takes

    def test_cache_holds_one_train(self, monkeypatch, cold_train_operator):
        builds = []
        build = cold_train_operator.__wrapped__
        monkeypatch.setattr(cold_train_operator, "__wrapped__",
                            lambda *args: builds.append(args[0]) or build(*args))
        # 48 columns at 48 rows: the operator pays even when it must be built
        hilbert = HilbertSpec(fock_dim=24, tail_tol=0.5)
        amps = np.random.default_rng(1).normal(size=(24, 96)).view(complex)
        states = (amps / np.linalg.norm(amps, axis=1, keepdims=True)).T
        first = headline_train(rabi_scale=0.3)
        second = headline_train(rabi_scale=0.31)
        for train in (first, first, second, first):
            propagate_block(states, train, MODE, hilbert)
        # a new train replaces the old one
        assert builds == [first, second, first]
        assert cold_train_operator.cache_info() == (1, 3, 1, 1)


def traced_peak(propagate, *args) -> int:
    """traced_call's peak of a second call; the first fills the unitary and operator caches."""
    propagate(*args)
    return traced_call(propagate, *args)[1]


class TestWorkingSet:
    """What one block propagation holds at its peak, against the (2, N, 2L) sector
    block B. The split and the merge write their outputs directly: their
    zero-padded and stacked copies took the peak to 4B or more. Neither path
    holds more than one block of tail rows: 80 levels (4 watched) make that 20
    flashes of them flash by flash and 10, half a block, through the
    operator, and from 20
    flashes on the (2, F, k_tail, 2L) rows of the whole train would be B or
    more. 512 states make B 2.6 MB, which dwarfs numpy's fixed-size
    iteration buffers."""

    hilbert = HilbertSpec(fock_dim=80, tail_tol=0.5)
    train = replace(headline_train(rabi_scale=0.3), n_flashes=20)

    def states(self):
        amps = np.random.default_rng(5).normal(size=(512, 320)).view(complex)
        return np.ascontiguousarray((amps / np.linalg.norm(amps, axis=1, keepdims=True)).T)

    @pytest.mark.parametrize("n_flashes", [20, 40])
    def test_operator_path_holds_the_block_and_a_quarter(self, monkeypatch, cold_train_operator,
                                                          n_flashes):
        taken = []
        monkeypatch.setattr(dynamics_module, "_operator_block",
                            lambda *args: taken.append(1) or _operator_block(*args))
        states = self.states()
        train = replace(self.train, n_flashes=n_flashes)
        block = 2 * self.hilbert.fock_dim * 2 * states.shape[1] * 16
        peak = traced_peak(propagate_block, states, train, MODE, self.hilbert)
        assert taken == [1, 1]  # a block wider than N takes the cached operator
        # the sector block, which becomes the (down, up) output pair, and
        # about B / 2 beside it: the tail rows of N // (2 k_tail) flashes at a
        # time with their squares (1.83B), then T's image of a quarter of the
        # block's columns (1.56B at N // (4 k_tail) flashes of tail rows)
        assert peak < 2 * block

    def test_flash_path_holds_two_buffers_output_and_tails(self):
        states = self.states()
        block = 2 * self.hilbert.fock_dim * 2 * states.shape[1] * 16
        for n_flashes in (20, 200):
            train = replace(self.train, n_flashes=n_flashes)
            peak = traced_peak(run_pulse_train_block, states, train, MODE, self.hilbert)
            # the sector block and its spare buffer, the output pair and the tail
            # rows of N // k_tail flashes, B; at 200 flashes the train's rows are 10B
            assert peak < 4 * block, n_flashes

    def test_build_holds_rows_and_two_stacks(self, tuned_headline_large):
        # fig4's tuned train: T and its tail rows, which the build returns, are
        # 2.55 (2, N, N) stacks, and each sector is powered in the rows' buffer
        # before the rows are formed (2.71 with the temporaries of the rows'
        # chain), never beside an N x N spare of its own (3.05; 3.13 with
        # numpy's buffer while it scales by Gap), M = Gap U or a second stack.
        # T and the rows are mapped outside tracemalloc's sight, so they are
        # added (a malloc'd pair of them would be counted twice)
        spec, _ = tuned_headline_large
        n, train = spec.hilbert.fock_dim, spec.analysis
        # the build reads the cached pair and releases it, so the pair is filled here
        _flash_unitary(n, train.drive.eta, train.drive.rabi, spec.mode.freq, train.flash_dur)
        (power, rows), peak = traced_call(_train_operator.__wrapped__, train, spec.mode,
                                          spec.hilbert)
        assert peak + power.nbytes + rows.nbytes < 2.8 * (2 * n * n * 16)

    def test_flash_pair_build_holds_the_pair_and_four_real_matrices(self, tuned_headline_large):
        # at fig4's size: the mapped (2, N, N) pair it returns, one stack, added
        # as for the build, and the real coupling, one sector's H_s, its
        # eigenvectors and one scaled copy of them, a quarter stack each (2.08);
        # the complex C, its real part and P r held beside the coupling as well
        # took 3.29
        spec, _ = tuned_headline_large
        n, train = spec.hilbert.fock_dim, spec.analysis
        args = (n, train.drive.eta, train.drive.rabi, spec.mode.freq, train.flash_dur)
        pair, peak = traced_call(_flash_unitary.__wrapped__, *args)
        assert peak + pair.nbytes < 2.2 * (2 * n * n * 16)

    def test_long_wide_train_goes_flash_by_flash(self, monkeypatch, cold_train_operator):
        # at 100 flashes the count says the operator pays, but a build, 2N^2 +
        # 2 F k_tail N values, would outgrow three sector blocks of 64 states
        monkeypatch.setattr(cold_train_operator, "__wrapped__",
                            lambda *args: pytest.fail("the operator was built"))
        states = self.states()[:, :64]
        train = replace(self.train, n_flashes=100)
        shape = (100, 2 * self.hilbert.fock_dim, 128, 2 * self.hilbert.tail_levels)
        assert _operator_pays(*shape, True) and not _operator_pays(*shape, False)
        result = propagate_block(states, train, MODE, self.hilbert)
        for got, want in zip(result, run_pulse_train_block(states, train, MODE, self.hilbert)):
            np.testing.assert_array_equal(got, want)
