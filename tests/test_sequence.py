"""Sequence composition, scans, detection sampling, and drift referencing."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionstrobe import (
    SPIN_DOWN,
    CoherentAmp,
    DriveParams,
    FrameParams,
    HilbertSpec,
    ModeParams,
    SpinMotionState,
    SqueezeParam,
    check_truncation,
    displacement_operator,
    expect_n,
    expect_sigma_z,
    make_initial_state,
    squeeze_operator,
    thermal_ensemble,
)
from ionstrobe.dynamics import (
    DephasingSpec,
    PulseTrainSpec,
    apply_dephasing,
    free_evolve,
    mw_rotation,
    run_pulse_train,
)
import ionstrobe.sequence as sequence_module
from ionstrobe.calibrate import build_decode_tables
from ionstrobe.errors import TruncationError
from ionstrobe.fitting import fit_cosine
from ionstrobe.sequence import (
    PatternField,
    ScanSpec,
    SequenceFringe,
    SequenceSpec,
    characterize_reference_fringe,
    run_scan,
    run_sequence,
    sample_detection,
    sequence_fringes,
    static_pattern_probe,
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
        frame=FrameParams(),
        analysis=train,
        excitation=excitation,
        dephasing=DephasingSpec(tau=70e-6, envelope=envelope),
        thermal_samples=200,
        thermal_seed=3,
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
        frame=FrameParams(),
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
    displacement or squeeze unitary, runs run_pulse_train at base phase phi,
    and thermal-averages; the tail is the largest top-Fock population seen
    after any flash of any level.
    """
    levels, weights = thermal_ensemble(spec.mode.n_th, spec.thermal_samples, spec.thermal_seed)
    envelope = apply_dephasing(1.0, spec.dephasing, spec.analysis.total_duration)
    train = replace(spec.analysis, base_phase=phi)
    p_down = delta_n = sigma_z = tail = 0.0
    for w, level in zip(weights, levels):
        state = make_initial_state(SPIN_DOWN, int(level), spec.hilbert)
        exc = spec.excitation
        if isinstance(exc, CoherentAmp):
            op = displacement_operator(exc, spec.hilbert)
        elif isinstance(exc, SqueezeParam):
            op = squeeze_operator(exc, spec.hilbert)
        else:
            op = np.eye(spec.hilbert.fock_dim)
        blocks = [op @ block for block in state.spin_blocks()]
        state = SpinMotionState(np.concatenate(blocks), state.fock_dim)
        n_initial = expect_n(state)
        state = free_evolve(state, spec.mode, spec.pre_delay())
        state = mw_rotation(state, math.pi / 2.0, spec.sync_phase)
        for k in range(1, train.n_flashes + 1):
            prefix = run_pulse_train(state, replace(train, n_flashes=k), spec.mode, spec.frame)
            tail = max(tail, check_truncation(prefix, spec.hilbert).tail_population)
        out = run_pulse_train(state, train, spec.mode, spec.frame)
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
        phase_step=st.floats(0.02, 0.6) | st.floats(-0.6, -0.02),
        rabi_scale=st.floats(0.5, 3.0),
        eta=st.floats(0.0, 0.5),
        n_th=st.floats(0.3, 1.0),
        envelope=st.sampled_from(["gaussian", "exponential"]),
        tau=st.floats(2e-6, 20e-6),
        phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    )
    def test_matches_per_phase_reference(
        self, batch, phase_step, rabi_scale, eta, n_th, envelope, tau, phis
    ):
        base = make_spec(
            fock_dim=40, eta=eta, rabi_scale=rabi_scale,
            n_th=n_th, envelope=envelope, n_flashes=5,
        )
        spec = replace(
            base,
            hilbert=HilbertSpec(fock_dim=40, tail_tol=0.5),
            analysis=replace(base.analysis, phase_step=phase_step),
            dephasing=DephasingSpec(tau=tau, envelope=envelope),
        )
        levels, _ = thermal_ensemble(n_th, spec.thermal_samples, spec.thermal_seed)
        assert len(levels) >= 2
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

    def test_deduplicates_block_columns(self, monkeypatch, headline_units):
        widths = []
        block = sequence_module.run_pulse_train_block

        def counting(states, *args):
            widths.append(len(states))
            return block(states, *args)

        monkeypatch.setattr(sequence_module, "run_pulse_train_block", counting)
        # near the tuned pi/2 train, so the decode tables are monotone
        spec = make_spec(fock_dim=40, rabi_scale=0.2795, excitation=CoherentAmp(0.0, 0.0),
                         n_th=0.15, envelope="gaussian")
        levels, _ = thermal_ensemble(0.15, spec.thermal_samples, spec.thermal_seed)
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
        assert widths == [(3 * len(alphas) - 2) * len(levels)]

    def test_truncation_names_outer_and_flash(self):
        # level 21 of the n_th = 2 ensemble passes the pre-train check at
        # fock_dim 33 and is pushed into the top Fock levels by the flashes
        spec = make_spec(fock_dim=33, excitation=CoherentAmp(0.5, 0.0), n_th=2.0)
        scan = ScanSpec(phi_grid=[0.0, 1.0], outer_grid=[1.25], outer_var="theta0")
        message = r"outer=1\.25\): flash \d+ of 30 .* at base phase"
        with pytest.raises(TruncationError, match=message):
            run_scan(scan, spec)

    def test_truncation_in_reference_is_named(self, monkeypatch):
        # a failing column past the outer grid is the interleaved reference's
        def failing(states, *args):
            raise TruncationError("flash 1 of 30 leaks", index=len(states) - 1)

        monkeypatch.setattr(sequence_module, "run_pulse_train_block", failing)
        spec = make_spec(fock_dim=40, excitation=CoherentAmp(0.5, 0.0))
        scan = ScanSpec(phi_grid=[0.0, 1.0], outer_grid=[0.0, 1.25], outer_var="theta0",
                        interleave_reference=True)
        with pytest.raises(TruncationError, match="in the alpha = 0 reference: flash 1"):
            run_scan(scan, spec)


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
        scan = ScanSpec(phi_grid=[0.0, 2.0], outer_grid=[0.3], outer_var="theta0", detection_mode="shots", shots=100, base_seed=5)
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
            detection_mode="shots",
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
            frame=FrameParams(),
            analysis=train,
            excitation=CoherentAmp(0.0, 0.0),
            dephasing=DephasingSpec(tau=70e-6, envelope="gaussian"),
            thermal_seed=3,
        )
        scan = ScanSpec(phi_grid=np.linspace(0, 2 * math.pi, 16, endpoint=False), outer_grid=[0.0], outer_var="alpha_abs")
        records = run_scan(scan, spec)
        fit = fit_cosine([(r.phi, r.p_down_mean, 0.0) for r in records])
        env = math.exp(-((23.1e-6 / 70e-6) ** 2))
        assert fit.contrast == pytest.approx(env, abs=1e-6)

    def test_alpha_zero_contrast_includes_drive_recoil(self):
        # with eta = 0.4 the analysis train's own photon recoil displaces the
        # motion by ~i eta on the flipped path, costing a Debye-Waller factor
        # e^{-eta^2/2} (thermally weighted) on top of the dephasing envelope
        spec = make_spec(fock_dim=48, excitation=CoherentAmp(0.0, 0.0), n_th=0.15, envelope="gaussian")
        scan = ScanSpec(phi_grid=np.linspace(0, 2 * math.pi, 16, endpoint=False), outer_grid=[0.0], outer_var="alpha_abs")
        records = run_scan(scan, spec)
        fit = fit_cosine([(r.phi, r.p_down_mean, 0.0) for r in records])
        env = math.exp(-((spec.analysis.total_duration / 70e-6) ** 2))
        recoil = math.exp(-0.08)
        assert fit.contrast == pytest.approx(env * recoil, abs=0.02)
        assert fit.contrast < env

    def test_failure_names_grid_point(self):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(0.0, 0.0))
        scan = ScanSpec(phi_grid=[0.0], outer_grid=[4.0], outer_var="alpha_abs")
        with pytest.raises(Exception, match="outer=4"):
            run_scan(scan, spec)


class TestPatternProbe:
    FIELD = PatternField(wavelength=138e-9, rotation=0.840, phase_origin=0.2)

    def test_along_wavefront_constant(self):
        th = self.FIELD.rotation
        # direction orthogonal to the wave vector
        dx, dz = math.cos(th), -math.sin(th)
        vals = [
            static_pattern_probe(s * dx, s * dz, self.FIELD, contrast=0.8)
            for s in np.linspace(-100e-9, 100e-9, 7)
        ]
        assert np.ptp(vals) < 1e-12

    def test_full_period_along_z(self):
        lam, th = self.FIELD.wavelength, self.FIELD.rotation
        start = static_pattern_probe(0.0, 0.0, self.FIELD, contrast=0.8)
        end = static_pattern_probe(0.0, lam / math.cos(th), self.FIELD, contrast=0.8)
        assert end == pytest.approx(start, abs=1e-12)

    def test_fringe_pattern_range(self):
        grid = np.linspace(-200e-9, 200e-9, 26)
        xs, zs = np.meshgrid(grid, grid)
        p = static_pattern_probe(xs, zs, self.FIELD, contrast=0.76)
        assert p.min() == pytest.approx(0.5 - 0.38, abs=0.01)
        assert p.max() == pytest.approx(0.5 + 0.38, abs=0.01)


class TestInterleavedReference:
    def _scan(self, drift, detection="analytic", shots=250, n=20):
        spec = make_spec(fock_dim=32, excitation=CoherentAmp(1.5, 0.0), envelope="none")
        scan = ScanSpec(
            phi_grid=np.linspace(0, 2 * math.pi, n, endpoint=False),
            outer_grid=[0.0],
            outer_var="theta0",
            detection_mode=detection,
            shots=shots,
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
