"""Train tuning, decode tables, observable decoding, and noise floors."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.special import eval_laguerre

from ionstrobe import (
    ATOMIC_MASS,
    HBAR,
    CoherentAmp,
    DriveParams,
    FrameParams,
    HilbertSpec,
    ModeParams,
    SPIN_DOWN,
    UnitScale,
    expect_sigma_z,
    make_initial_state,
)
from ionstrobe import calibrate
from ionstrobe.calibrate import (
    FIRST_SEARCH_DIM,
    SEARCH_TAIL_BOUND,
    DecodeTables,
    TrainTuning,
    _laguerre,
    apply_tuning,
    build_decode_tables,
    derive_lamb_dicke,
    golden_section,
    noise_floor_estimate,
    pchip,
    tune_pulse_train,
    unwrap_sweep_phases,
)
from ionstrobe.config import build_train, load_config
from ionstrobe.dynamics import DephasingSpec, PulseTrainSpec, run_pulse_train, run_pulse_train_block
from ionstrobe.errors import CalibrationError, DecodeError, TruncationError
from ionstrobe.fitting import fit_cosine
from ionstrobe.hilbert import thermal_ensemble, thermal_ground_states
from ionstrobe.sequence import SequenceSpec, characterize_reference_fringe, run_sequence

from conftest import headline_sequence_spec

OMEGA = 2.0 * math.pi * 1.3e6
CYCLE = 2.0 * math.pi / OMEGA
RABI = 2.0 * math.pi * 0.3e6
UNITS = UnitScale.for_mode(25.0 * ATOMIC_MASS, OMEGA)


def alpha_zero_spec(fock_dim=64, eta=0.4, n_th=0.15, envelope="gaussian"):
    train = PulseTrainSpec(
        n_flashes=30, flash_dur=100e-9, cycle_dur=CYCLE, drive=DriveParams(rabi=RABI, eta=eta)
    )
    return SequenceSpec(
        hilbert=HilbertSpec(fock_dim=fock_dim),
        mode=ModeParams(freq=OMEGA, n_th=n_th),
        frame=FrameParams(),
        analysis=train,
        excitation=CoherentAmp(0.0, 0.0),
        dephasing=DephasingSpec(tau=70e-6, envelope=envelope),
        thermal_samples=200,
        thermal_seed=3,
    )


@pytest.fixture(scope="module")
def tuned_spec():
    spec = alpha_zero_spec()
    tuning = tune_pulse_train(spec, tol=5e-3)
    return apply_tuning(spec, tuning), tuning


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section(lambda v: (v - 1.3) ** 2, 0.0, 3.0, xtol=1e-8)
        assert x == pytest.approx(1.3, abs=1e-6)

    def test_vee(self):
        x, _ = golden_section(lambda v: abs(v - 0.25), -1.0, 1.0, xtol=1e-8)
        assert x == pytest.approx(0.25, abs=1e-6)


class TestTunePulseTrain:
    def test_motion_insensitive_matches_closed_form(self):
        spec = alpha_zero_spec(fock_dim=16, eta=0.0, n_th=0.0)
        tuning = tune_pulse_train(spec, tol=1e-6)
        analytic = (math.pi / 2.0) / (30 * RABI * 100e-9)
        assert abs(tuning.rabi_scale - analytic) < 1e-4
        assert tuning.achieved_sigma_z < 1e-6

    def test_loose_tolerance_returns_immediately(self):
        spec = alpha_zero_spec(fock_dim=32)
        tuning = tune_pulse_train(spec, tol=0.5)
        assert tuning.n_evaluations <= 2
        assert tuning.achieved_sigma_z <= 0.5

    def test_headline_parameters(self, tuned_spec):
        _, tuning = tuned_spec
        assert tuning.achieved_sigma_z < 0.01

    def test_headline_tuning_reproduced(self, tuned_headline_small):
        # recorded with a complex-eigh flash propagator; the real-gauge build must agree
        _, tuning = tuned_headline_small
        assert tuning.rabi_scale == pytest.approx(0.2794704389395366, abs=1e-12)
        assert tuning.phase_step == pytest.approx(0.0, abs=1e-12)

    def test_tuned_train_on_thermal_state(self, tuned_spec):
        spec, _ = tuned_spec
        p_down, _ = run_sequence(replace(spec, dephasing=DephasingSpec(envelope="none")), 0.0)
        # sanity: the tuned pi/2 train leaves the synchronized spin on a fringe
        assert 0.0 <= p_down <= 1.0
        st = make_initial_state(SPIN_DOWN, 0, spec.hilbert)
        out = run_pulse_train(st, spec.analysis, spec.mode, spec.frame)
        assert abs(expect_sigma_z(out)) < 0.01

    def test_two_trains_make_a_pi_flip(self, tuned_spec):
        spec, _ = tuned_spec
        st = make_initial_state(SPIN_DOWN, 0, spec.hilbert)
        once = run_pulse_train(st, spec.analysis, spec.mode, spec.frame)
        twice = run_pulse_train(once, spec.analysis, spec.mode, spec.frame)
        assert abs(expect_sigma_z(twice) - 1.0) < 0.05

    def test_rejects_displaced_spec(self):
        spec = alpha_zero_spec()
        with pytest.raises(CalibrationError):
            tune_pulse_train(replace(spec, excitation=CoherentAmp(2.0, 0.0)), tol=1e-2)


def reference_tune(spec, tol, max_sweeps=6, xtol=1e-6):
    """The tuner with every probe at the configured size, state by state
    through run_pulse_train: the reference the small-space search must match."""
    train = spec.analysis
    levels, weights, states = thermal_ground_states(
        spec.mode.n_th, spec.thermal_samples, spec.thermal_seed, spec.hilbert
    )
    n_evals = 0

    def objective(phase_step, rabi_scale):
        nonlocal n_evals
        n_evals += 1
        trial = replace(
            train,
            phase_step=phase_step,
            drive=replace(train.drive, rabi=train.drive.rabi * rabi_scale),
        )
        sz = 0.0
        for w, st in zip(weights, states):
            out = run_pulse_train(st, trial, spec.mode, spec.frame, spec.hilbert)
            sz += w * expect_sigma_z(out)
        return abs(sz)

    eta = train.drive.eta
    dw = math.exp(-(eta**2) / 2.0) * float(np.dot(weights, _laguerre(levels, eta**2)))
    theta_full = train.n_flashes * train.drive.rabi * train.flash_dur * max(dw, 1e-12)
    scale = (math.pi / 2.0) / theta_full
    step = train.phase_step

    val = objective(step, scale)
    if val <= tol:
        return TrainTuning(step, scale, val, n_evals)
    for _ in range(max_sweeps):
        scale, val = golden_section(lambda s: objective(step, s), 0.5 * scale, 1.5 * scale, xtol)
        if val <= tol:
            return TrainTuning(step, scale, val, n_evals)
        step, val = golden_section(lambda d: objective(d, scale), step - 0.2, step + 0.2, xtol)
        if val <= tol:
            return TrainTuning(step, scale, val, n_evals)
    raise CalibrationError(f"reference tuner stalled after {n_evals} evaluations")


class TestSmallSpaceSearch:
    """tune_pulse_train searches in a small Fock space on the block propagator;
    its result must equal the reference tuner's bit for bit."""

    @pytest.mark.parametrize("fock_dim", [64, 112])
    def test_headline_matches_reference(self, fock_dim):
        spec = headline_sequence_spec(fock_dim)
        assert tune_pulse_train(spec, tol=5e-3) == reference_tune(spec, 5e-3)

    def test_one_flash_train_matches_reference(self):
        # fig2b: a single 903 ns flash in a 910 ns cycle at fock_dim 48
        spec = alpha_zero_spec(fock_dim=48)
        one_flash = replace(spec.analysis, n_flashes=1, flash_dur=903e-9, cycle_dur=910e-9)
        spec = replace(spec, analysis=one_flash)
        assert tune_pulse_train(spec, tol=5e-3) == reference_tune(spec, 5e-3)

    def test_thermal_draw_above_first_space(self):
        # the draw reaches level 34: the search skips 32 levels and runs at 64
        spec = replace(alpha_zero_spec(fock_dim=96, eta=0.3, n_th=15.0), thermal_samples=5)
        levels, _ = thermal_ensemble(spec.mode.n_th, spec.thermal_samples, spec.thermal_seed)
        assert levels[-1] >= FIRST_SEARCH_DIM
        assert tune_pulse_train(spec, tol=5e-3) == reference_tune(spec, 5e-3)

    def test_drive_tail_above_search_bound(self):
        # at eta = 2 the 32-level space passes the configured watchdog but not
        # the search bound, and a search there lands on a different point
        spec = alpha_zero_spec(fock_dim=64, eta=2.0, n_th=0.0)
        spec = replace(spec, hilbert=HilbertSpec(fock_dim=64, tail_tol=1e-2))
        ref = reference_tune(spec, 5e-3)
        small = HilbertSpec(fock_dim=FIRST_SEARCH_DIM, tail_tol=spec.hilbert.tail_tol)
        _, _, states = thermal_ground_states(
            spec.mode.n_th, spec.thermal_samples, spec.thermal_seed, small
        )
        tuned = apply_tuning(spec, ref).analysis
        _, _, tail = run_pulse_train_block(states, tuned, spec.mode, spec.frame, small)
        assert SEARCH_TAIL_BOUND < tail.max() < spec.hilbert.tail_tol
        assert tune_pulse_train(spec, tol=5e-3) == ref

    def test_check_rejects_point_that_misses_tol(self, monkeypatch):
        # with the search bound opened up, the 32-level search returns a point
        # that misses tol at 64 levels; the tuner must search again there
        monkeypatch.setattr(calibrate, "SEARCH_TAIL_BOUND", 0.5)
        spec = alpha_zero_spec(fock_dim=64, eta=2.0, n_th=0.0)
        spec = replace(spec, hilbert=HilbertSpec(fock_dim=64, tail_tol=1e-2))
        assert tune_pulse_train(spec, tol=3e-7) == reference_tune(spec, 3e-7)

    def test_leaking_configured_space_raises(self):
        spec = alpha_zero_spec(fock_dim=40, eta=2.0)
        with pytest.raises(TruncationError, match=r"top 2 Fock levels .*\(tol 0\.0001\)"):
            tune_pulse_train(spec, tol=5e-3)


@pytest.fixture(scope="module")
def small_tables(tuned_spec):
    spec, _ = tuned_spec
    spec96 = replace(spec, hilbert=HilbertSpec(fock_dim=112))
    return build_decode_tables(spec96, UNITS, np.arange(0.0, 4.51, 0.5)), spec96


class TestDecodeTables:
    def test_alpha_zero_anchor(self, small_tables):
        tables, _ = small_tables
        mid = len(tables.pos_x) // 2
        assert tables.pos_x[mid] == 0.0
        assert tables.pos_phi0[mid] == pytest.approx(0.0, abs=1e-9)
        assert tables.mom_p[0] == 0.0
        assert tables.mom_c[0] == max(tables.mom_c)

    def test_position_slope_near_linear_theory(self, small_tables):
        # d phi0 / dX = eta / x_zpf up to the finite-flash sinc factor
        tables, _ = small_tables
        slope = np.polyfit(tables.pos_x, tables.pos_phi0, 1)[0]
        expected = 0.4 / UNITS.x_zpf
        assert abs(slope / expected - 1.0) < 0.05

    def test_momentum_branch_monotone_decreasing(self, small_tables):
        tables, _ = small_tables
        assert np.all(np.diff(tables.mom_c) < 0)

    def test_round_trip_positions(self, small_tables):
        # simulate -> fit -> decode reproduces the planted position within 3%
        tables, spec = small_tables
        anchor = characterize_reference_fringe(spec).phase
        phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        for alpha in (1.0, 2.5, 4.0):
            for theta0, sign in ((0.0, 1.0), (math.pi, -1.0)):
                probe = replace(spec, excitation=CoherentAmp(alpha, theta0))
                fit = fit_cosine([(p, run_sequence(probe, p)[0], 0.0) for p in phis])
                rel = math.remainder(fit.phase - anchor, 2 * math.pi)
                x, clamped = tables.decode_position(rel)
                planted = sign * 2.0 * UNITS.x_zpf * alpha
                assert not clamped
                assert abs(x - planted) < 0.03 * abs(planted)

    def test_decode_observables_at_alpha_zero(self, small_tables):
        tables, spec = small_tables
        phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        anchor = characterize_reference_fringe(spec).phase
        fit = fit_cosine([(p, run_sequence(spec, p)[0], 0.0) for p in phis])
        phase = math.remainder(fit.phase - anchor, 2 * math.pi)
        decoded = tables.decode(phase, fit.contrast)
        assert abs(decoded.x) < 0.5e-9
        assert abs(decoded.p_mag) / 1e-27 < 2.0

    def test_out_of_domain_rejected(self, small_tables):
        tables, _ = small_tables
        with pytest.raises(DecodeError):
            tables.decode_position(tables.pos_phi0[-1] * 1.5)

    def test_clamp_just_outside_domain(self, small_tables):
        tables, _ = small_tables
        value = tables.pos_phi0[-1] * 1.02
        x, clamped = tables.decode_position(value)
        assert clamped
        assert x == pytest.approx(tables.pos_x[-1])

    def test_non_monotone_table_reports_interval(self):
        with pytest.raises(DecodeError, match="monotone"):
            DecodeTables(
                x=np.array([0.0, 1.0]),
                phi_plus=np.array([0.4, 0.3]),
                phi_minus=np.array([0.4, -0.5]),
                p=np.array([0.0, 1.0]),
                contrast=np.array([0.9, 0.5]),
            )

    def test_mode_angle_shifts_calibration(self, tuned_spec):
        # +-5 deg of mode angle changes eta and therefore the phase-position map
        spec, tuning = tuned_spec
        slopes = {}
        for angle_deg in (0.0, 5.0):
            eta = derive_lamb_dicke(
                25 * ATOMIC_MASS, OMEGA, 140e-9, 0.840 + math.radians(angle_deg)
            )
            base = alpha_zero_spec(fock_dim=64, eta=eta)
            tuned = apply_tuning(base, tune_pulse_train(base, tol=5e-3))
            tables = build_decode_tables(tuned, UNITS, [0.0, 1.0, 2.0])
            slopes[angle_deg] = np.polyfit(tables.pos_x, tables.pos_phi0, 1)[0]
        assert slopes[5.0] < slopes[0.0]


@st.composite
def pchip_knots(draw, shape=None):
    """2-40 strictly increasing knots and values of one shape: increasing,
    decreasing, non-monotone, or with flat runs (zero secants)."""
    n = draw(st.integers(2, 40))
    steps = st.floats(1e-3, 10.0)
    x = draw(st.floats(-100.0, 100.0)) + np.cumsum(draw(st.lists(steps, min_size=n, max_size=n)))
    shape = shape or draw(st.sampled_from(["increasing", "decreasing", "non-monotone", "flat runs"]))
    if shape == "non-monotone":
        # a 1e-5 grid keeps the secants far from overflow in the harmonic mean
        y = np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))) / 1e5
    elif shape == "flat runs":
        jumps = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 0.25])
        y = np.cumsum(draw(st.lists(jumps, min_size=n, max_size=n)))
    else:
        y = np.cumsum(draw(st.lists(steps, min_size=n, max_size=n)))
        y = -y if shape == "decreasing" else y
    return x, y


class TestPchip:
    """The decode tables' monotone cubic Hermite interpolant against scipy's."""

    @settings(max_examples=300, deadline=None)
    @given(pchip_knots(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_matches_scipy(self, knots, fractions):
        x, y = knots
        h = np.diff(x)
        interior = (x[:-1, None] + np.outer(h, fractions)).ravel()
        ends = [x[0] - 0.5 * h[0], x[0], x[-1], x[-1] + 0.5 * h[-1]]
        v = np.concatenate([x, interior, ends])
        expected = PchipInterpolator(x, y)(v)
        np.testing.assert_allclose(
            pchip(x, y)(v), expected, rtol=1e-14, atol=1e-14 * np.max(np.abs(y))
        )

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["increasing", "decreasing"]).flatmap(pchip_knots))
    def test_strictly_monotone_data_gives_monotone_interpolant(self, knots):
        x, y = knots
        steps = np.diff(pchip(x, y)(np.linspace(x[0], x[-1], 4001)))
        sign = 1.0 if y[-1] > y[0] else -1.0
        assert np.all(sign * steps >= -4 * np.finfo(float).eps * np.max(np.abs(y)))

    def test_two_knots_give_a_line(self):
        line = pchip(np.array([1.0, 3.0]), np.array([2.0, -2.0]))
        np.testing.assert_allclose(line(np.array([0.0, 1.0, 2.0, 2.5, 3.0])), [4.0, 2.0, 0.0, -1.0, -2.0])


def test_laguerre_equals_scipy():
    # the tuner's Debye-Waller start point needs L_n(eta^2); take eta from every demo config
    configs = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))
    etas = {build_train(load_config(path)).drive.eta for path in configs}
    levels = np.arange(81)
    for x in sorted({eta**2 for eta in etas} | {0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.7, 10.0, 50.0}):
        assert np.array_equal(_laguerre(levels, x), eval_laguerre(levels, x)), x


class TestUnwrap:
    def test_wraps_back_to_smooth_curve(self):
        theta = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        true = 5.0 * np.cos(theta)
        wrapped = np.array([math.remainder(v, 2 * math.pi) for v in true])
        recovered = unwrap_sweep_phases(wrapped)
        np.testing.assert_allclose(recovered, true, atol=1e-12)


class TestLambDicke:
    def test_headline_geometry(self):
        eta = derive_lamb_dicke(25 * ATOMIC_MASS, OMEGA, 140e-9, 0.840)
        assert eta == pytest.approx(0.374, abs=0.002)
        assert 0.35 <= eta <= 0.42

    def test_orthogonal_mode(self):
        eta = derive_lamb_dicke(25 * ATOMIC_MASS, OMEGA, 140e-9, math.pi / 2)
        assert eta == pytest.approx(0.0, abs=1e-12)

    def test_mw_wavelength_limit(self):
        eta = derive_lamb_dicke(25 * ATOMIC_MASS, OMEGA, 0.10, 0.0)
        assert eta < 1e-5

    def test_monotone_in_arguments(self):
        base = derive_lamb_dicke(25 * ATOMIC_MASS, OMEGA, 140e-9, 0.3)
        assert derive_lamb_dicke(30 * ATOMIC_MASS, OMEGA, 140e-9, 0.3) < base
        assert derive_lamb_dicke(25 * ATOMIC_MASS, 1.2 * OMEGA, 140e-9, 0.3) < base
        assert derive_lamb_dicke(25 * ATOMIC_MASS, OMEGA, 140e-9, 0.5) < base


class TestNoiseFloor:
    def test_analytic_limit_is_exact(self, tuned_spec, small_tables):
        tables, _ = small_tables
        spec, _ = tuned_spec
        small = replace(spec, hilbert=HilbertSpec(fock_dim=32))
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        sx, sp = noise_floor_estimate(small, tables, grid, shots=None, n_repeats=20, seed=1)
        assert sx < 0.1e-9
        assert sp < 1e-28

    def test_repeats_guard(self, tuned_spec, small_tables):
        tables, _ = small_tables
        spec, _ = tuned_spec
        with pytest.raises(CalibrationError):
            noise_floor_estimate(spec, tables, [0, 1, 2, 3, 4], shots=100, n_repeats=5, seed=1)

    def test_scales_with_shots(self, tuned_spec, small_tables):
        tables, _ = small_tables
        spec, _ = tuned_spec
        small = replace(spec, hilbert=HilbertSpec(fock_dim=32))
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        sx_250, _ = noise_floor_estimate(small, tables, grid, shots=250, n_repeats=80, seed=42)
        sx_1000, _ = noise_floor_estimate(small, tables, grid, shots=1000, n_repeats=80, seed=43)
        ratio = sx_250 / sx_1000
        assert abs(ratio - 2.0) < 0.4
