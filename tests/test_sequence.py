"""Sequence composition, scans, detection sampling, and drift referencing."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionstrobe import (
    CoherentAmp,
    DriveParams,
    HilbertSpec,
    ModeParams,
    SpinMotionState,
    SqueezeParam,
    check_truncation,
    expect_sigma_z,
    thermal_ensemble,
)
from ionstrobe.dynamics import DephasingSpec, PulseTrainSpec, apply_dephasing
import ionstrobe.dynamics as dynamics_module
import ionstrobe.sequence as sequence_module
from ionstrobe.calibrate import build_decode_tables
from ionstrobe.errors import ConfigError, TruncationError
from ionstrobe.fitting import fit_cosine
from ionstrobe.sequence import (
    PatternField,
    ScanSpec,
    SequenceFringe,
    SequenceSpec,
    characterize_reference_fringe,
    run_scan,
    sample_detection,
    sample_scan,
    scan_fringes,
    sequence_fringes,
    static_pattern_probe,
)

from conftest import (
    dense_train,
    expect_n,
    reference_fringe,
    reference_pre_train,
    run_sequence,
    traced_call,
)

OMEGA = 2.0 * math.pi * 1.3e6
CYCLE = 2.0 * math.pi / OMEGA


def make_spec(
    fock_dim=64,
    eta=0.4,
    rabi_scale=0.3,
    excitation=None,
    n_th=0.0,
    envelope="none",
    n_flashes=30,
    cycles_per_flash=1,
):
    train = PulseTrainSpec(
        n_flashes=n_flashes,
        flash_dur=100e-9,
        cycle_dur=cycles_per_flash * CYCLE,
        drive=DriveParams(rabi=rabi_scale * 2.0 * math.pi * 0.3e6, eta=eta),
    )
    return SequenceSpec(
        hilbert=HilbertSpec(fock_dim=fock_dim),
        mode=ModeParams(freq=OMEGA, n_th=n_th),
        analysis=train,
        excitation=excitation,
        dephasing=DephasingSpec(tau=70e-6, envelope=envelope),
    )


def mw_ramsey_spec():
    """Both pulses are ideal motion-insensitive pi/2 rotations."""
    rabi = 2.0 * math.pi * 0.1e6
    dt = (math.pi / 2.0) / rabi
    train = PulseTrainSpec(
        n_flashes=1, flash_dur=dt, cycle_dur=CYCLE + dt, drive=DriveParams(rabi=rabi, eta=0.0)
    )
    return SequenceSpec(
        hilbert=HilbertSpec(fock_dim=16),
        mode=ModeParams(freq=OMEGA, n_th=0.0),
        analysis=train,
        excitation=None,
    )


class TestRunSequence:
    def test_plain_ramsey_fringe(self):
        spec = mw_ramsey_spec()
        for phi in (0.0, 0.7, math.pi / 2, math.pi, 4.0):
            p, dn = run_sequence(spec, phi)
            assert p == pytest.approx((1.0 + math.cos(phi)) / 2.0, abs=1e-9)
            assert abs(dn) < 1e-9

    def test_contrast_ordering_displaced(self):
        # moving wave packets (theta0 = pi/2) smear the sampled phase and
        # lower the fringe contrast relative to the turning point (theta0 = 0)
        fits = {}
        for theta0 in (0.0, math.pi / 2):
            spec = make_spec(fock_dim=64, excitation=CoherentAmp(3.0, theta0))
            phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
            samples = [(phi, run_sequence(spec, phi)[0], 0.0) for phi in phis]
            fits[theta0] = fit_cosine(samples)
        assert fits[math.pi / 2].contrast < fits[0.0].contrast
        assert fits[0.0].contrast > 0.9

    def test_position_phase_encoding(self):
        # phase shift ~ 2 eta |alpha| cos(theta0) relative to the reference
        spec = make_spec(excitation=CoherentAmp(2.0, 0.0))
        phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        fit = fit_cosine([(phi, run_sequence(spec, phi)[0], 0.0) for phi in phis])
        ref = characterize_reference_fringe(spec)
        shift = math.remainder(fit.phase - ref.phase, 2 * math.pi)
        assert shift == pytest.approx(2 * 0.4 * 2.0, abs=0.12)

    def test_squeeze_contrast_depends_on_phase(self):
        fits = {}
        for zeta0 in (0.0, math.pi):
            spec = make_spec(
                fock_dim=160,
                excitation=SqueezeParam(1.0, zeta0),
                cycles_per_flash=2,
            )
            phis = np.linspace(0, 2 * math.pi, 12, endpoint=False)
            samples = [(phi, run_sequence(spec, phi)[0], 0.0) for phi in phis]
            fits[zeta0] = fit_cosine(samples)
        assert abs(fits[0.0].contrast - fits[math.pi].contrast) > 0.02

    def test_envelope_scales_probability(self):
        spec = mw_ramsey_spec()
        spec_deph = replace(spec, dephasing=DephasingSpec(tau=70e-6, envelope="gaussian"))
        env = math.exp(-((spec.analysis.total_duration / 70e-6) ** 2))
        p_plain, _ = run_sequence(spec, 0.0)
        p_deph, _ = run_sequence(spec_deph, 0.0)
        assert p_deph == pytest.approx(0.5 + (p_plain - 0.5) * env, abs=1e-12)


def reference_observables(spec, phi):
    """(p_down, delta_n, sigma_z, worst tail) at phi from per-phase train runs.

    Builds the pre-train state of every thermal level with the full
    displacement or squeeze unitary, runs dense_train with every flash at phi,
    and thermal-averages; the tail is the largest top-Fock population seen
    after any flash of any level.
    """
    levels, weights = thermal_ensemble(spec.mode.n_th, spec.hilbert)
    envelope = apply_dephasing(spec.dephasing, spec.analysis.total_duration)
    p_down = delta_n = sigma_z = tail = 0.0
    for w, level in zip(weights, levels):
        state, n_initial = reference_pre_train(spec, level)
        for amps in dense_train(state.amplitudes, spec.analysis, spec.mode, phi):
            out = SpinMotionState(amps, state.fock_dim)
            tail = max(tail, check_truncation(out, spec.hilbert).tail_population)
        p_down += w * (1.0 - expect_sigma_z(out)) / 2.0
        delta_n += w * (expect_n(out) - n_initial)
        sigma_z += w * expect_sigma_z(out)
    return 0.5 + (p_down - 0.5) * envelope, delta_n, envelope * sigma_z, tail


excitations = st.one_of(
    st.none(),
    st.builds(CoherentAmp, st.just(0.0), st.floats(0.0, 2.0 * math.pi)),
    st.builds(CoherentAmp, st.floats(0.1, 1.5), st.floats(0.0, 2.0 * math.pi)),
    st.builds(SqueezeParam, st.floats(0.05, 0.3), st.floats(0.0, 2.0 * math.pi)),
)
# 1-4 excitations drawn from a smaller pool, so repeats are common
excitation_lists = st.lists(excitations, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=4)
)


class TestSequenceFringe:
    @settings(max_examples=50, deadline=None)
    @given(
        batch=excitation_lists,
        rabi_scale=st.floats(0.5, 3.0),
        eta=st.floats(0.0, 0.5),
        n_th=st.floats(0.3, 1.0),
        envelope=st.sampled_from(["gaussian", "exponential"]),
        tau=st.floats(2e-6, 20e-6),
        phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    )
    def test_matches_per_phase_reference(
        self, batch, rabi_scale, eta, n_th, envelope, tau, phis
    ):
        base = make_spec(
            fock_dim=40, eta=eta, rabi_scale=rabi_scale,
            n_th=n_th, envelope=envelope, n_flashes=5,
        )
        # tail_tol 1e-2 keeps 4 to 7 thermal levels, far above the tails of 5 flashes
        spec = replace(
            base,
            hilbert=HilbertSpec(fock_dim=40, tail_tol=1e-2),
            dephasing=DephasingSpec(tau=tau, envelope=envelope),
        )
        levels, _ = thermal_ensemble(n_th, spec.hilbert)
        assert len(levels) >= 4
        fringes = sequence_fringes(spec, batch)
        assert len(fringes) == len(batch)
        for excitation, fringe in zip(batch, fringes):
            alone = sequence_fringes(spec, [excitation])[0]
            # each fringe's own tail, not the largest of the whole block
            assert fringe.max_tail == pytest.approx(alone.max_tail, rel=1e-9, abs=1e-300)
            for phi in phis:
                ref = reference_observables(replace(spec, excitation=excitation), phi)
                p_ref, dn_ref, sz_ref, tail_ref = ref
                p, dn = fringe.evaluate(phi)
                assert abs(p - p_ref) <= 1e-12
                assert abs(dn - dn_ref) <= 1e-12
                assert abs((1.0 - 2.0 * p) - sz_ref) <= 1e-12
                # the reported tail is a supremum over phi; allow only rounding
                assert fringe.max_tail >= tail_ref - 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        p0=st.floats(0.3, 0.7),
        p1_abs=st.floats(1e-3, 0.07),
        p1_arg=st.floats(-4.0, 4.0) | st.sampled_from([0.0, math.pi, -math.pi, math.pi / 2]),
        n_points=st.integers(5, 16),
    )
    def test_closed_form_matches_fit(self, p0, p1_abs, p1_arg, n_points):
        fringe = SequenceFringe(p0=p0, p1=p1_abs * complex(math.cos(p1_arg), math.sin(p1_arg)),
                                n0=0.0, n1=0j, max_tail=0.0)
        phis = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
        fit = fit_cosine([(phi, fringe.evaluate(phi)[0], 0.0) for phi in phis])
        assert abs(fringe.p0 - fit.offset) <= 1e-12
        assert abs(fringe.contrast - fit.contrast) <= 1e-12
        assert abs(math.remainder(fringe.phase - fit.phase, 2.0 * math.pi)) <= 1e-12
        assert -math.pi < fringe.phase <= math.pi

    @settings(max_examples=60, deadline=None)
    @given(
        eta=st.floats(0.05, 0.6),
        n_th=st.sampled_from([0.0, 0.15, 0.5]),
        n_flashes=st.sampled_from([1, 5, 30]),
        detuning=st.floats(-1e-3, 1e-3),
        envelope=st.sampled_from(["none", "gaussian", "exponential"]),
        magnitude=st.floats(0.1, 1.4),
        theta=st.just(0.0) | st.floats(-math.pi, math.pi),
    )
    def test_antipodal_kick_is_the_parity_mirror(
        self, eta, n_th, n_flashes, detuning, envelope, magnitude, theta
    ):
        # Pi = sigma_x (x) (-1)^(a_dag a) commutes with every flash and gap and
        # maps D(alpha) to D(-alpha): the theta + pi fringe mirrors the theta one
        spec = make_spec(fock_dim=32, eta=eta, n_th=n_th, envelope=envelope, n_flashes=n_flashes)
        spec = replace(spec, hilbert=HilbertSpec(fock_dim=32, tail_tol=0.5),
                       analysis=replace(spec.analysis, cycle_dur=CYCLE * (1.0 + detuning)))
        fringe, mirror = sequence_fringes(
            spec, [CoherentAmp(magnitude, theta), CoherentAmp(magnitude, theta + math.pi)])
        assert abs(mirror.p0 - (1.0 - fringe.p0)) <= 1e-12
        assert abs(mirror.p1 - fringe.p1.conjugate()) <= 1e-12
        assert abs(mirror.n0 - fringe.n0) <= 1e-12
        assert abs(mirror.n1 + fringe.n1.conjugate()) <= 1e-12
        assert mirror.max_tail == pytest.approx(fringe.max_tail, rel=1e-9, abs=0.0)

    def test_deduplicates_block_columns(self, block_calls, headline_units):
        widths = block_calls
        # near the tuned pi/2 train, so the decode tables are monotone
        spec = make_spec(fock_dim=40, rabi_scale=0.2795, excitation=CoherentAmp(0.0, 0.0),
                         n_th=0.15, envelope="gaussian")
        levels, _ = thermal_ensemble(0.15, spec.hilbert)
        assert len(levels) >= 2
        assert sequence_fringes(spec, []) == [] and widths == []
        thetas = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
        scan = ScanSpec(phi_grid=[0.0, 1.0], outer_grid=thetas, outer_var="theta0")
        run_scan(scan, spec)
        assert widths == [len(levels)]

        widths.clear()
        kicked = replace(spec, excitation=CoherentAmp(0.5, 0.0))
        run_scan(replace(scan, interleave_reference=True), kicked)
        assert widths == [(len(thetas) + 1) * len(levels)]  # the reference rides along

        widths.clear()
        alphas = [0.0, 0.5, 1.0, 1.5]
        build_decode_tables(spec, headline_units, alphas)
        assert widths == [(2 * len(alphas) - 1) * len(levels)]  # theta0 = pi is not propagated

    def test_excitation_cache_builds_each_run_of_magnitudes_once(self):
        # callers use each magnitude in consecutive kicks, so one entry serves
        # them all; the phase enters by conjugation, not through the cache
        cache = sequence_module._excitation_matrix
        cache.cache_clear()
        for kick in (CoherentAmp(0.5, 0.0), CoherentAmp(0.5, 1.0), CoherentAmp(1.0, 0.0),
                     CoherentAmp(1.0, 2.0)):
            sequence_module._kicked_levels(kick, (0,), 40)
        info = cache.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 1)

    def test_kicks_form_only_thermal_columns(self, headline_units):
        # the sequence path forms no dense kick: the cached kick is K|l> for
        # the thermal levels l alone
        spec = make_spec(fock_dim=40, rabi_scale=0.2795, n_th=0.15, envelope="gaussian")
        levels, _ = thermal_ensemble(0.15, spec.hilbert)
        build_decode_tables(spec, headline_units, [0.0, 0.5, 1.0])
        cache = sequence_module._excitation_matrix
        hits = cache.cache_info().hits
        kick = cache("coherent", 1.0, 40, tuple(levels.tolist()))
        assert cache.cache_info().hits == hits + 1
        assert kick.shape == (40, len(levels))

    @pytest.mark.parametrize("n_th, fock_dim", [(0.15, 48), (2.0, 64)])
    def test_coefficients_match_state_by_state_reference(self, n_th, fock_dim):
        # coherent kicks at nonzero phases, a squeeze and no-kick excitations
        # in one block, each against reference_fringe; the n_th = 2 draw
        # reaches level 21
        spec = make_spec(fock_dim=fock_dim, n_th=n_th, envelope="gaussian")
        batch = [CoherentAmp(0.8, 1.1), SqueezeParam(0.25, 2.3), None, CoherentAmp(0.0, 0.4),
                 CoherentAmp(0.5, 4.0)]
        for excitation, fringe in zip(batch, sequence_fringes(spec, batch)):
            p0, p1, n0, n1 = reference_fringe(replace(spec, excitation=excitation))
            assert abs(fringe.p0 - p0) <= 1e-12
            assert abs(fringe.p1 - p1) <= 1e-12
            assert abs(fringe.n0 - n0) <= 1e-12
            assert abs(fringe.n1 - n1) <= 1e-12

    @pytest.mark.parametrize("excitation", [None, CoherentAmp(0.8, 1.1), SqueezeParam(0.25, 2.3)],
                             ids=["none", "coherent", "squeeze"])
    def test_pre_train_block_matches_state_by_state_reference(self, excitation):
        # one sync spinor for every column: each column of the block is the
        # level's state built alone, with the full kick and its own mw_rotation;
        # the n_th = 2 draw reaches level 21
        spec = make_spec(fock_dim=64, excitation=excitation, n_th=2.0)
        levels, _ = thermal_ensemble(2.0, spec.hilbert)
        block, n_initial = sequence_module._pre_train(spec, [excitation], levels)
        assert block.shape == (2 * spec.hilbert.fock_dim, len(levels))
        for column, level in enumerate(levels):
            state, n_ref = reference_pre_train(spec, level)
            assert np.max(np.abs(block[:, column] - state.amplitudes)) <= 1e-13
            assert abs(n_initial[column] - n_ref) <= 1e-12

    def test_pre_train_truncation_sets_index(self):
        # D(1.5) fits fock_dim 33 (it needs 29 levels) but carries level 21 of
        # the n_th = 2 ensemble into the top Fock levels before the train
        spec = make_spec(fock_dim=33, n_th=2.0)
        small, bad = CoherentAmp(0.1, 0.0), CoherentAmp(1.5, 0.3)
        message = r"^excitation leaves \S+ in the top 2 Fock levels \(tol 0\.0001\); increase"
        with pytest.raises(TruncationError, match=message) as info:
            sequence_fringes(spec, [small, None, bad, small, bad])
        assert info.value.index == 2
        # a kick too large for fock_dim (D(3) needs 56 levels), at 10 thermal levels
        with pytest.raises(TruncationError, match=r"\|alpha\|=3") as info:
            sequence_fringes(spec, [small, None, CoherentAmp(3.0, 0.0)])
        assert info.value.index == 2

    def test_truncation_names_outer_and_flash(self):
        # level 21 of the n_th = 2 ensemble passes the pre-train check at
        # fock_dim 33 and is pushed into the top Fock levels by the flashes
        spec = make_spec(fock_dim=33, excitation=CoherentAmp(0.5, 0.0), n_th=2.0)
        scan = ScanSpec(phi_grid=[0.0, 1.0], outer_grid=[1.25], outer_var="theta0")
        message = r"outer=1\.25\): flash \d+ of 30 .* at analysis phase"
        with pytest.raises(TruncationError, match=message):
            run_scan(scan, spec)

    @pytest.mark.parametrize("layer, prefix", [("sequence_fringes", ""),
                                               ("run_scan", r"at scan point \(outer=1\): ")],
                             ids=["sequence_fringes", "run_scan"])
    def test_watchdog_error_keeps_index_and_phase(self, layer, prefix):
        # at eta = 2 the flashes push the |alpha| = 1 kick of the n_th = 0.05
        # ensemble past 1e-9 in the top levels of a 36-level space (the
        # no-kick states stay near 1.5e-11); the watchdog's error comes up
        # through each layer with its index mapped to the excitation or
        # outer value, and its phase
        spec = make_spec(fock_dim=36, eta=2.0, n_th=0.05)
        spec = replace(spec, hilbert=HilbertSpec(fock_dim=36, tail_tol=1e-9))
        assert sequence_fringes(spec, [None])[0].max_tail < spec.hilbert.tail_tol
        scan = ScanSpec(phi_grid=[0.0, 1.0], outer_grid=[0.0, 1.0], outer_var="alpha_abs",
                        interleave_reference=True)
        calls = {"sequence_fringes": (lambda: sequence_fringes(spec, [None, CoherentAmp(1.0, 1.0), None]),
                                      CoherentAmp(1.0, 1.0)),
                 "run_scan": (lambda: run_scan(scan, spec), CoherentAmp(1.0, 0.0))}
        call, failing = calls[layer]
        message = "^" + prefix + r"flash (\d+) of 30 leaks .* at analysis phase \S+ rad \(tol 1e-09\)"
        with pytest.raises(TruncationError, match=message) as info:
            call()
        assert info.value.index == 1
        # the phase is the worst analysis phase phi: the dense train with every
        # flash at phi brings one thermal level of the failing excitation's
        # tail to tail_tol at the reported flash, and no other phase more
        flash = int(re.search(message, str(info.value)).group(1))
        levels, _ = thermal_ensemble(spec.mode.n_th, spec.hilbert)
        states = [reference_pre_train(replace(spec, excitation=failing), level)[0]
                  for level in levels]

        def worst_tail(phi):  # the largest top-Fock tail over the levels after the flash
            tails = []
            for state in states:
                amps = list(dense_train(state.amplitudes, spec.analysis, spec.mode, phi))[flash - 1]
                out = SpinMotionState(amps, state.fock_dim)
                tails.append(check_truncation(out, spec.hilbert).tail_population)
            return max(tails)

        at_phase = worst_tail(info.value.phase)
        assert at_phase >= spec.hilbert.tail_tol * (1.0 - 1e-12)
        for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            assert worst_tail(phi) <= at_phase * (1.0 + 1e-12)

    def test_excitation_truncation_sets_index(self):
        # D(3) needs 56 levels: the failing excitation's position is the index
        spec = make_spec(fock_dim=40)
        with pytest.raises(TruncationError, match=r"\|alpha\|=3") as info:
            sequence_fringes(spec, [CoherentAmp(0.5, 0.0), None, CoherentAmp(3.0, 0.0)])
        assert info.value.index == 2

    def test_truncation_in_reference_is_named(self, monkeypatch):
        # a failing column past the outer grid is the interleaved reference's
        def failing(states, *args):
            raise TruncationError("flash 1 of 30 leaks", index=states.shape[1] - 1)

        monkeypatch.setattr(sequence_module, "propagate_block", failing)
        spec = make_spec(fock_dim=40, excitation=CoherentAmp(0.5, 0.0))
        scan = ScanSpec(phi_grid=[0.0, 1.0], outer_grid=[0.0, 1.25], outer_var="theta0",
                        interleave_reference=True)
        with pytest.raises(TruncationError, match="in the alpha = 0 reference: flash 1"):
            run_scan(scan, spec)


class TestFringeBlocks:
    """sequence_fringes propagates whole kicks a block at a time, each block's
    sector array within FRINGE_BLOCK_BYTES. A budget of 0 holds one kick per
    block, and ONE_BLOCK holds every evaluation here in one."""

    ONE_BLOCK = 2**40

    def budgets(self, monkeypatch, call):
        """call() with one kick per block, then with one block for everything."""
        results = []
        for budget in (0, self.ONE_BLOCK):
            monkeypatch.setattr(sequence_module, "FRINGE_BLOCK_BYTES", budget)
            monkeypatch.setattr(dynamics_module, "_operator_cache", {})
            results.append(call())
        return results

    @pytest.mark.parametrize("path", ["operator", "flash"])
    def test_blocks_change_no_fringe(self, monkeypatch, path):
        monkeypatch.setattr(dynamics_module, "_operator_pays", lambda *args: path == "operator")
        spec = make_spec(fock_dim=40, excitation=CoherentAmp(0.8, 0.3), n_th=0.4,
                         envelope="gaussian")
        kick, squeeze = CoherentAmp(0.8, 0.3), SqueezeParam(0.3, 1.1)
        excitations = [kick, None, squeeze, kick, CoherentAmp(0.0, 2.0), CoherentAmp(1.2, -0.7),
                       squeeze, kick]
        scan = ScanSpec(phi_grid=[0.0, 1.0], outer_grid=[0.0, 1.25, 2.5], outer_var="theta0",
                        interleave_reference=True)
        for call in (lambda: sequence_fringes(spec, excitations), lambda: scan_fringes(scan, spec)):
            blocked, whole = self.budgets(monkeypatch, call)
            assert len(blocked) == len(whole)
            for got, want in zip(blocked, whole):
                for name in ("p0", "p1", "n0", "n1"):
                    assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13, name
                assert got.max_tail == pytest.approx(want.max_tail, rel=1e-9, abs=0.0)

    def test_every_block_takes_the_evaluation_path(self, monkeypatch):
        # at fock_dim 40 the operator pays from about 17 states on, so four
        # kicks of 5 thermal levels build it and one alone would not: the
        # first block decides for all 20 states, and the rest find it cached
        spec = make_spec(fock_dim=40, n_th=0.15)
        kicks = [CoherentAmp(0.5, theta) for theta in (0.0, 1.0, 2.0, 3.0)]
        levels, _ = thermal_ensemble(0.15, spec.hilbert)
        shape = (spec.analysis.n_flashes, 2 * 40, 2 * len(levels), 2 * spec.hilbert.tail_levels)
        assert len(levels) == 5 and not dynamics_module._operator_pays(*shape, False)
        taken = []
        for name in ("_build_train_operator", "_operator_block", "run_pulse_train_block"):
            real = getattr(dynamics_module, name)
            monkeypatch.setattr(dynamics_module, name,
                                lambda *args, name=name, real=real: taken.append(name) or real(*args))
        self.budgets(monkeypatch, lambda: sequence_fringes(spec, kicks))
        first = ["_operator_block", "_build_train_operator"]  # the apply builds, then reads
        assert taken == first + ["_operator_block"] * 3 + first  # 4 blocks, then 1

    @pytest.mark.parametrize("case", ["leak-then-too-large", "tail-then-too-large",
                                      "two-too-large", "leak-in-a-later-block",
                                      "tail-in-a-later-block"])
    def test_errors_name_a_failing_excitation(self, monkeypatch, case):
        # fock_dim 32 at eta = 2 and tail_tol 1e-6: the flashes push the
        # |alpha| = 1 kick past tail_tol at flash 3, and the no-kick states
        # stay below 6e-9; fock_dim 33 at n_th = 2: D(1.5, 0.3) leaves its tail
        # before the train; D(3) and D(4) are too large for both. A kick too
        # large comes first from any block, and one failing excitation fails
        # in its block as it does in the whole
        leaky = make_spec(fock_dim=32, eta=2.0, n_th=0.15)
        leaky = replace(leaky, hilbert=HilbertSpec(fock_dim=32, tail_tol=1e-6))
        tailed = make_spec(fock_dim=33, n_th=2.0)
        leak, tail = CoherentAmp(1.0, 1.0), CoherentAmp(1.5, 0.3)
        big, bigger = CoherentAmp(3.0, 0.0), CoherentAmp(4.0, 0.0)
        spec, excitations, index, message = {
            "leak-then-too-large": (leaky, [leak, None, big], 2, r"\|alpha\|=3"),
            "tail-then-too-large": (tailed, [tail, None, big], 2, r"\|alpha\|=3"),
            "two-too-large": (tailed, [big, None, bigger], 0, r"\|alpha\|=3"),
            "leak-in-a-later-block": (leaky, [None, None, leak, None], 2, "^flash 3 of 30"),
            "tail-in-a-later-block": (tailed, [None, None, tail, None], 2, "^excitation leaves"),
        }[case]
        errors = []
        for budget in (0, self.ONE_BLOCK):
            monkeypatch.setattr(sequence_module, "FRINGE_BLOCK_BYTES", budget)
            monkeypatch.setattr(dynamics_module, "_operator_cache", {})
            with pytest.raises(TruncationError, match=message) as info:
                sequence_fringes(spec, excitations)
            errors.append((str(info.value), info.value.index, info.value.phase))
        (text, at, phase), (whole_text, whole_at, whole_phase) = errors
        assert text == whole_text and at == whole_at == index
        if case == "leak-in-a-later-block":  # the worst phase, to the blocks' rounding
            assert abs(phase - whole_phase) <= 1e-9
        else:
            assert phase is whole_phase is None

    def test_working_set_does_not_grow_with_the_kicks(self):
        # 8 thermal levels at fock_dim 96 make 16 kicks one full block; 128
        # kicks are 8 of them. Each call builds the train operator. When the
        # evaluation was one block, 128 kicks peaked at 5.7 times 16 kicks
        spec = make_spec(fock_dim=96, n_th=0.4, envelope="gaussian")
        assert len(thermal_ensemble(0.4, spec.hilbert)[0]) == 8
        assert sequence_module.FRINGE_BLOCK_BYTES // (64 * 96 * 8) == 16

        def peak(n_kicks):
            dynamics_module._operator_cache.clear()
            thetas = np.linspace(0.0, 2.0 * math.pi, n_kicks, endpoint=False)
            return traced_call(sequence_fringes, spec, [CoherentAmp(1.0, t) for t in thetas])[1]

        peak(16)  # the flash pair and the kick's columns are cached from here on
        assert peak(128) <= 1.1 * peak(16)


class TestSampleDetection:
    def test_certain_outcome(self):
        assert sample_detection(1.0, 37, seed=0) == (1.0, 0.0)
        assert sample_detection(0.0, 37, seed=0) == (0.0, 0.0)

    def test_determinism(self):
        a = sample_detection(0.5, 250, seed=99)
        b = sample_detection(0.5, 250, seed=99)
        assert a == b

    def test_binomial_spread(self):
        means = [sample_detection(0.5, 250, seed=s)[0] for s in range(200)]
        assert np.mean(means) == pytest.approx(0.5, abs=0.01)
        inside = np.mean([abs(m - 0.5) <= 0.1 for m in means])
        assert inside > 0.99

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            sample_detection(1.2, 10, seed=0)

    def test_analytic_detection_is_exact(self):
        assert sample_detection(0.3125, None, seed=4) == (0.3125, 0.0)
        for p in (-0.1, 1.2):
            with pytest.raises(ValueError, match="p_down"):
                sample_detection(p, None, seed=0)

    def test_scan_spec_detects_analytically_by_default(self):
        assert ScanSpec(phi_grid=[0.0]).shots is None
        with pytest.raises(ConfigError, match="shots"):
            ScanSpec(phi_grid=[0.0], shots=0)


class TestRunScan:
    def test_record_count_and_order(self):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(1.0, 0.0))
        scan = ScanSpec(
            phi_grid=np.linspace(0, 2 * math.pi, 21, endpoint=False),
            outer_grid=np.linspace(0, 2 * math.pi, 11, endpoint=False),
            outer_var="theta0",
        )
        records = run_scan(scan, spec)
        assert len(records) == 231
        # outer-major ordering
        assert records[0].outer == records[20].outer
        assert records[21].outer == scan.outer_grid[1]

    def test_analytic_matches_run_sequence(self):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(1.0, 0.5))
        scan = ScanSpec(phi_grid=[0.3, 1.1], outer_grid=[0.5], outer_var="theta0")
        records = run_scan(scan, spec)
        for rec in records:
            p, dn = run_sequence(spec, rec.phi)
            assert rec.p_down_mean == pytest.approx(p, abs=1e-12)
            assert rec.delta_n == pytest.approx(dn, abs=1e-12)

    def test_alpha_abs_refuses_a_squeeze(self):
        # an alpha_abs scan would replace the squeeze by coherent kicks
        spec = make_spec(fock_dim=48, excitation=SqueezeParam(0.5, 0.0))
        scan = ScanSpec(phi_grid=[0.0, 1.0], outer_grid=[0.0, 1.0], outer_var="alpha_abs")
        with pytest.raises(ConfigError, match="outer_var 'alpha_abs' needs a coherent excitation"):
            run_scan(scan, spec)

    def test_eta_zero_decouples_motion(self):
        base = make_spec(fock_dim=64, eta=0.0, excitation=CoherentAmp(0.0, 0.0))
        scan = ScanSpec(phi_grid=np.linspace(0, 2 * math.pi, 7), outer_grid=[0.0, 1.5, 3.0], outer_var="alpha_abs")
        records = run_scan(scan, base)
        ref = {rec.phi: rec.p_down_mean for rec in records if rec.outer == 0.0}
        for rec in records:
            assert abs(rec.p_down_mean - ref[rec.phi]) < 1e-9
            assert abs(rec.delta_n) < 1e-9

    def test_sigma_z_convention_lock(self):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(1.5, 0.3))
        scan = ScanSpec(phi_grid=[0.0, 2.0], outer_grid=[0.3], outer_var="theta0", shots=100, base_seed=5)
        for rec in run_scan(scan, spec):
            assert rec.sigma_z == pytest.approx(1.0 - 2.0 * rec.p_down_mean, abs=1e-14)
            assert 0.0 <= rec.p_down_mean <= 1.0

    def test_fringe_periodicity(self):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(1.0, 0.0))
        a, _ = run_sequence(spec, 0.8)
        b, _ = run_sequence(spec, 0.8 + 2 * math.pi)
        assert a == pytest.approx(b, abs=1e-12)

    def test_reproducibility_bit_identical(self):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(1.0, 0.0), n_th=0.15)
        scan = ScanSpec(
            phi_grid=np.linspace(0, 2 * math.pi, 5),
            outer_grid=[0.0, 1.0],
            outer_var="theta0",
            shots=120,
            base_seed=77,
        )
        first = run_scan(scan, spec)
        second = run_scan(scan, spec)
        assert first == second

    def test_envelope_only_contrast_motion_insensitive(self):
        # the envelope-only limit is exact when the analysis drive cannot
        # touch the motion (eta = 0, ideal pi/2)
        rabi = 2.0 * math.pi * 0.1e6
        train = PulseTrainSpec(
            n_flashes=1,
            flash_dur=(math.pi / 2.0) / rabi,
            cycle_dur=23.1e-6,
            drive=DriveParams(rabi=rabi, eta=0.0),
        )
        spec = SequenceSpec(
            hilbert=HilbertSpec(fock_dim=32),
            mode=ModeParams(freq=OMEGA, n_th=0.15),
            analysis=train,
            excitation=CoherentAmp(0.0, 0.0),
            dephasing=DephasingSpec(tau=70e-6, envelope="gaussian"),
        )
        scan = ScanSpec(phi_grid=np.linspace(0, 2 * math.pi, 16, endpoint=False), outer_grid=[0.0], outer_var="alpha_abs")
        records = run_scan(scan, spec)
        fit = fit_cosine([(r.phi, r.p_down_mean, 0.0) for r in records])
        env = math.exp(-((23.1e-6 / 70e-6) ** 2))
        assert fit.contrast == pytest.approx(env, abs=1e-6)

    def test_alpha_zero_contrast_includes_drive_recoil(self):
        # with eta = 0.4 the analysis train's own photon recoil displaces the
        # motion by ~i eta on the flipped path, costing the thermally weighted
        # Debye-Waller factor e^{-eta^2 (n_th + 1/2)} on top of the dephasing
        # envelope; the fit reads 0.8074 against 0.8084 (the n = 0 factor
        # e^{-eta^2/2} would give 0.828)
        spec = make_spec(fock_dim=48, excitation=CoherentAmp(0.0, 0.0), n_th=0.15, envelope="gaussian")
        scan = ScanSpec(phi_grid=np.linspace(0, 2 * math.pi, 16, endpoint=False), outer_grid=[0.0], outer_var="alpha_abs")
        records = run_scan(scan, spec)
        fit = fit_cosine([(r.phi, r.p_down_mean, 0.0) for r in records])
        env = math.exp(-((spec.analysis.total_duration / 70e-6) ** 2))
        recoil = math.exp(-0.4 ** 2 * (0.15 + 0.5))
        assert fit.contrast == pytest.approx(env * recoil, abs=2e-3)
        assert fit.contrast < env

    @pytest.mark.parametrize("detection", ["analytic", "shots"])
    def test_sampling_held_fringes_matches_run_scan(self, block_calls, detection):
        # a decimated scan sampled from another scan's fringes is the scan run afresh
        spec = make_spec(fock_dim=40, excitation=CoherentAmp(0.8, 0.0))
        scan = ScanSpec(phi_grid=np.linspace(0, 2 * math.pi, 8, endpoint=False),
                        outer_grid=[0.0, 1.0, 2.5], outer_var="theta0",
                        shots=300 if detection == "shots" else None, base_seed=17, interleave_reference=True)
        ba_scan = replace(scan, phi_grid=scan.phi_grid[::2], base_seed=23)
        drift = np.random.default_rng(4).normal(0.0, 0.1, 2 * 3 * 4)
        fringes = scan_fringes(scan, spec)
        assert len(fringes) == 4 and len(block_calls) == 1
        assert sample_scan(ba_scan, fringes) == run_scan(ba_scan, spec)
        assert sample_scan(ba_scan, fringes, drift) == run_scan(ba_scan, spec, drift)
        if detection == "shots":
            # the last fringe is the reference, whose detections shift every phi
            swapped = fringes[:-1] + [fringes[0]]
            assert sample_scan(ba_scan, swapped) != sample_scan(ba_scan, fringes)

    def test_failure_names_grid_point(self):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(0.0, 0.0))
        scan = ScanSpec(phi_grid=[0.0], outer_grid=[4.0], outer_var="alpha_abs")
        with pytest.raises(Exception, match="outer=4"):
            run_scan(scan, spec)


class TestPatternProbe:
    FIELD = PatternField(wavelength=138e-9, rotation=0.840, phase_origin=0.2, amplitude=0.8)

    def test_along_wavefront_constant(self):
        th = self.FIELD.rotation
        # direction orthogonal to the wave vector
        dx, dz = math.cos(th), -math.sin(th)
        vals = [
            static_pattern_probe(s * dx, s * dz, self.FIELD)
            for s in np.linspace(-100e-9, 100e-9, 7)
        ]
        assert np.ptp(vals) < 1e-12

    def test_full_period_along_z(self):
        lam, th = self.FIELD.wavelength, self.FIELD.rotation
        start = static_pattern_probe(0.0, 0.0, self.FIELD)
        end = static_pattern_probe(0.0, lam / math.cos(th), self.FIELD)
        assert end == pytest.approx(start, abs=1e-12)

    def test_fringe_pattern_range(self):
        grid = np.linspace(-200e-9, 200e-9, 26)
        xs, zs = np.meshgrid(grid, grid)
        p = static_pattern_probe(xs, zs, replace(self.FIELD, amplitude=0.76))
        assert p.min() == pytest.approx(0.5 - 0.38, abs=0.01)
        assert p.max() == pytest.approx(0.5 + 0.38, abs=0.01)

    def test_grid_call_matches_scalar_calls(self):
        # the pattern scan probes its 26 x 26 grid in one call, x-major
        grid = np.linspace(-200e-9, 200e-9, 26)
        xs, zs = np.meshgrid(grid, grid, indexing="ij")
        field = PatternField(wavelength=138e-9, rotation=0.840, phase_origin=0.0, amplitude=0.76)
        scalar = [static_pattern_probe(x, z, field) for x in grid for z in grid]
        assert np.array_equal(static_pattern_probe(xs.ravel(), zs.ravel(), field), scalar)


class TestInterleavedReference:
    def _scan(self, drift, detection="analytic", shots=250, n=20):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(1.5, 0.0), envelope="none")
        scan = ScanSpec(
            phi_grid=np.linspace(0, 2 * math.pi, n, endpoint=False),
            outer_grid=[0.0],
            outer_var="theta0",
            shots=shots if detection == "shots" else None,
            base_seed=31,
            interleave_reference=True,
        )
        return spec, scan, run_scan(scan, spec, drift_phases=drift)

    def test_zero_drift_identity(self):
        spec, scan, records = self._scan(drift=None)
        plain = run_scan(replace(scan, interleave_reference=False), spec)
        for corrected, bare in zip(records, plain):
            assert corrected.phi == pytest.approx(bare.phi, abs=1e-12)
            assert corrected.p_down_mean == pytest.approx(bare.p_down_mean, abs=1e-12)

    def test_linear_drift_removed(self):
        n = 20
        drift = np.linspace(0.0, 0.5, 2 * n)
        spec, scan, corrected = self._scan(drift=drift, n=n)
        baseline = run_scan(replace(scan, interleave_reference=False), spec)
        fit_corr = fit_cosine([(r.phi, r.p_down_mean, 0.0) for r in corrected])
        fit_base = fit_cosine([(r.phi, r.p_down_mean, 0.0) for r in baseline])
        residual = abs(math.remainder(fit_corr.phase - fit_base.phase, 2 * math.pi))
        assert residual < 0.05 * 0.5

    def test_direct_op_zero_mean_residuals(self):
        # the same drift on each reference and its measurement is recovered
        # exactly under analytic detection
        n = 20
        shared = np.repeat(np.linspace(-0.25, 0.5, n), 2)
        _, scan, exact = self._scan(drift=shared, n=n)
        recovered = [rec.phi - phi for rec, phi in zip(exact, scan.phi_grid)]
        np.testing.assert_allclose(recovered, shared[::2], atol=1e-10)

    def test_white_noise_penalty_bound(self):
        n, sigma = 60, 0.1
        rng = np.random.default_rng(8)
        drift = rng.normal(0.0, sigma, size=2 * n)
        spec, scan, corrected = self._scan(drift=drift, n=n)
        # the corrected coordinate should track the effective phase of each
        # measurement with at most the sqrt(2) reference-subtraction penalty
        errors = []
        for idx, rec in enumerate(corrected):
            effective = scan.phi_grid[idx] + drift[2 * idx + 1]
            errors.append(rec.phi - effective)
        assert np.std(errors) <= math.sqrt(2) * sigma * 1.15
