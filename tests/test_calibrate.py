"""Train tuning, decode tables, observable decoding, and noise floors."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from ionstrobe import (
    ATOMIC_MASS,
    CoherentAmp,
    DriveParams,
    HilbertSpec,
    ModeParams,
    SPIN_DOWN,
    SqueezeParam,
    UnitScale,
    coupling_operator,
    expect_sigma_z,
    make_initial_state,
)
from ionstrobe import calibrate
import ionstrobe.dynamics as dynamics_module
from ionstrobe.calibrate import (
    FIRST_SEARCH_DIM,
    SEARCH_TAIL_BOUND,
    DecodeTables,
    TrainTuning,
    apply_tuning,
    build_decode_tables,
    derive_lamb_dicke,
    pchip,
    tune_pulse_train,
    unwrap_sweep_phases,
)
from ionstrobe.dynamics import DephasingSpec, PulseTrainSpec, run_pulse_train, run_pulse_train_block
from ionstrobe.errors import CalibrationError, DecodeError, TruncationError
from ionstrobe.fitting import fit_cosine
from ionstrobe.hilbert import thermal_ensemble
from ionstrobe.sequence import (
    FRINGE_BLOCK_BYTES,
    ScanSpec,
    SequenceSpec,
    characterize_reference_fringe,
    run_scan,
    sequence_fringes,
)

from conftest import headline_sequence_spec, noise_floor, run_sequence

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
        analysis=train,
        excitation=CoherentAmp(0.0, 0.0),
        dephasing=DephasingSpec(tau=70e-6, envelope=envelope),
    )


@pytest.fixture(scope="module")
def tuned_spec():
    spec = alpha_zero_spec()
    tuning = tune_pulse_train(spec)
    return apply_tuning(spec, tuning.rabi_scale), tuning


class TestTunePulseTrain:
    def test_motion_insensitive_matches_closed_form(self):
        spec = alpha_zero_spec(fock_dim=16, eta=0.0, n_th=0.0)
        tuning = tune_pulse_train(spec)
        analytic = (math.pi / 2.0) / (30 * RABI * 100e-9)
        assert abs(tuning.rabi_scale - analytic) < 1e-4
        assert tuning.achieved_sigma_z < 1e-6

    def test_loose_tolerance_gives_the_same_root(self, tuned_spec, monkeypatch):
        # TUNE_TOL gates the configured-size check and does not stop the search early
        monkeypatch.setattr(calibrate, "TUNE_TOL", 0.5)
        assert tune_pulse_train(alpha_zero_spec()) == tuned_spec[1]

    def test_tolerance_below_the_rounding_floor_raises(self, monkeypatch):
        monkeypatch.setattr(calibrate, "TUNE_TOL", 1e-30)
        with pytest.raises(CalibrationError, match=r"at fock_dim 64, above 1e-30$"):
            tune_pulse_train(alpha_zero_spec())

    def test_no_sign_change_names_the_bracket(self):
        # at eta = 2.5 the weighted sigma_z stays below the equator on [0.5, 1.5] x start
        spec = alpha_zero_spec(fock_dim=128, eta=2.5, n_th=0.0)
        spec = replace(spec, hilbert=HilbertSpec(fock_dim=128, tail_tol=1e-2))
        message = (r"^no sign change of <sigma_z> in rabi_scale \[3\.1611, 9\.48329\]: "
                   r"-5\.246e-01 at 3\.1611, -4\.451e-01 at 6\.32219, -4\.795e-01 at 9\.48329$")
        with pytest.raises(CalibrationError, match=message):
            tune_pulse_train(spec)

    def test_headline_parameters(self, tuned_spec):
        _, tuning = tuned_spec
        assert tuning.achieved_sigma_z < 0.01

    def test_headline_tuning_reproduced(self, tuned_headline_small):
        # the root of the signed sigma_z
        _, tuning = tuned_headline_small
        assert tuning.rabi_scale == pytest.approx(0.2795308387287305, abs=1e-12)

    def test_tuned_train_on_thermal_state(self, tuned_spec):
        spec, _ = tuned_spec
        p_down, _ = run_sequence(replace(spec, dephasing=DephasingSpec(envelope="none")), 0.0)
        # sanity: the tuned pi/2 train leaves the synchronized spin on a fringe
        assert 0.0 <= p_down <= 1.0
        st = make_initial_state(SPIN_DOWN, 0, spec.hilbert)
        out = run_pulse_train(st, spec.analysis, spec.mode)
        assert abs(expect_sigma_z(out)) < 0.01

    def test_two_trains_make_a_pi_flip(self, tuned_spec):
        spec, _ = tuned_spec
        st = make_initial_state(SPIN_DOWN, 0, spec.hilbert)
        once = run_pulse_train(st, spec.analysis, spec.mode)
        twice = run_pulse_train(once, spec.analysis, spec.mode)
        assert abs(expect_sigma_z(twice) - 1.0) < 0.05

    def test_kicked_spec_tunes_as_alpha_zero(self, tuned_spec):
        # the tuner ignores the planted kick: a coherent or a squeeze kick tunes
        # bit for bit as the alpha = 0 spec does
        spec = alpha_zero_spec()
        for kick in (CoherentAmp(2.0, 0.0), SqueezeParam(0.5, 0.3)):
            assert tune_pulse_train(replace(spec, excitation=kick)) == tuned_spec[1]


EPS = np.finfo(float).eps


@st.composite
def bracketed_functions(draw):
    """(f, lo, hi, slope bound, curvature bound, value scale): a smooth f on
    0 < lo < hi with f(lo), f(hi) of opposite sign, monotone (a line, a cubic
    and a tanh step through one root) or not (a sine over a few periods plus
    a line); rabi_scale, the tuner's variable, is positive too."""
    if draw(st.booleans()):
        r = draw(st.floats(0.1, 10.0))
        c, d, e = (draw(st.floats(0.0, 10.0)) for _ in range(3))
        c += 1e-3
        k = draw(st.floats(0.1, 50.0))
        lo, hi = r * draw(st.floats(0.1, 0.999)), r * draw(st.floats(1.001, 5.0))
        sign = draw(st.sampled_from([1.0, -1.0]))

        def f(x):
            return sign * (c * (x - r) + d * (x - r) ** 3 + e * math.tanh(k * (x - r)))

        w = max(r - lo, hi - r)
        slope, curve, scale = c + 3 * d * w * w + e * k, 6 * d * w + e * k * k, c * w + d * w ** 3 + e
    else:
        a, k, p, b = (draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 10.0)),
                      draw(st.floats(-math.pi, math.pi)), draw(st.floats(-1.0, 1.0)))
        lo = draw(st.floats(0.01, 10.0))
        hi = lo + draw(st.floats(1e-2, 4.0))

        def f(x):
            return a * math.sin(k * x + p) + b * x

        slope, curve, scale = a * k + abs(b), a * k * k, a + abs(b) * hi
    assume(f(lo) * f(hi) < 0.0)
    # no root within two grid cells of an end, so the secant's cell lies in [lo, hi]
    cell = math.ldexp(hi, 1 - calibrate.GRID_BITS)
    assume(min(abs(f(lo)), abs(f(hi))) > 2.0 * slope * cell)
    return f, lo, hi, slope, curve, scale


class TestRoot:
    """calibrate._root and calibrate._polish, the pi/2 tuner's root finder
    and its secant, on smooth functions."""

    @settings(max_examples=400, deadline=None)
    @given(bracketed_functions())
    def test_reaches_the_rounding_floor_inside_the_bracket(self, case):
        f, lo, hi, slope, curve, scale = case
        probes = []

        def counted(x):
            probes.append(x)
            return f(x)

        root = calibrate._root(counted, lo, f(lo), hi, f(hi))
        assert all(lo <= v <= hi for v in probes)
        assert len(probes) <= calibrate.MAX_ROOT_STEPS
        x = calibrate._polish(root, f)
        assert lo <= x <= hi
        # the chord's error across one grid cell, plus f's own rounding over
        # the cell's slope
        cell = math.ldexp(hi, 1 - calibrate.GRID_BITS)
        assert abs(f(x)) <= curve * cell * cell + 64 * EPS * scale

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(calibrate, "MAX_ROOT_STEPS", 3)
        f = lambda x: math.tanh(40.0 * (x - 0.3))
        with pytest.raises(CalibrationError, match=r"still bracketing .* after 3 probes"):
            calibrate._root(f, 0.1, f(0.1), 5.0, f(5.0))


def _reference_start(spec, levels, weights):
    """The tuner's own start: this checks the search, not the Debye-Waller factor."""
    train = spec.analysis
    carrier = np.diagonal(coupling_operator(train.drive.eta, spec.hilbert))[levels].real
    dw = float(np.dot(weights, carrier))
    return (math.pi / 2.0) / (train.n_flashes * train.drive.rabi * train.flash_dur * max(dw, 1e-12))


def _reference_root(sigma_z, scale):
    """_root in the lowest sign change among 0.5, 1 and 1.5 times scale, then _polish."""
    lo = (0.5 * scale, sigma_z(0.5 * scale))
    for x in (scale, 1.5 * scale):
        hi = (x, sigma_z(x))
        if lo[1] * hi[1] <= 0.0:
            break
        lo = hi
    else:
        raise CalibrationError("reference tuner found no sign change")
    return calibrate._polish(calibrate._root(sigma_z, *lo, *hi), sigma_z)


def _scaled(train, rabi_scale):
    return replace(train, drive=replace(train.drive, rabi=train.drive.rabi * rabi_scale))


def _per_state_sigma_z(spec, levels, weights, rabi_scale):
    """The weighted <sigma_z> at the configured size, state by state through run_pulse_train."""
    trial = _scaled(spec.analysis, rabi_scale)
    sz = 0.0
    for w, level in zip(weights, levels):
        st = make_initial_state(SPIN_DOWN, int(level), spec.hilbert)
        sz += w * expect_sigma_z(run_pulse_train(st, trial, spec.mode, spec.hilbert))
    return sz


def _checked(spec, levels, weights, root, n_evals, search_fock_dim=0):
    val = _per_state_sigma_z(spec, levels, weights, root)  # the check is not counted
    if abs(val) > calibrate.TUNE_TOL:
        raise CalibrationError(f"reference tuner's root misses TUNE_TOL: {val:.3e}")
    return TrainTuning(root, abs(val), n_evals, search_fock_dim)


def reference_tune(spec):
    """The tuner with every probe at the configured size, state by state
    through run_pulse_train: the independent oracle of the small-space search."""
    levels, weights = thermal_ensemble(spec.mode.n_th, spec.hilbert)
    n_evals = 0

    def sigma_z(rabi_scale):
        nonlocal n_evals
        n_evals += 1
        return _per_state_sigma_z(spec, levels, weights, rabi_scale)

    root = _reference_root(sigma_z, _reference_start(spec, levels, weights))
    return _checked(spec, levels, weights, root, n_evals)


def reference_tune_in(spec, search_dim):
    """The tuner with its bracket, _root and _polish wholly in the Fock space
    of search_dim levels, on the block <sigma_z> of the thermal levels, and
    the per-state check at the configured size: what tune_pulse_train must
    return, bit for bit, when it searches in that space."""
    small = (spec.hilbert if search_dim == spec.hilbert.fock_dim
             else HilbertSpec(fock_dim=search_dim, tail_tol=SEARCH_TAIL_BOUND))
    levels, weights = thermal_ensemble(spec.mode.n_th, spec.hilbert)
    block = np.stack([make_initial_state(SPIN_DOWN, int(level), small).amplitudes
                      for level in levels], axis=1)
    n_evals = 0

    def sigma_z(rabi_scale):
        nonlocal n_evals
        n_evals += 1
        down, up, _ = run_pulse_train_block(block, _scaled(spec.analysis, rabi_scale),
                                            spec.mode, small)
        out = down + up
        sz = (np.sum(np.abs(out[search_dim:]) ** 2, axis=0)
              - np.sum(np.abs(out[:search_dim]) ** 2, axis=0))
        return float(np.dot(weights, sz))

    root = _reference_root(sigma_z, _reference_start(spec, levels, weights))
    return _checked(spec, levels, weights, root, n_evals, search_dim)


def ulps(a, b):
    """The number of doubles from a to b, both positive."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


ORACLE_ULPS = 64


def assert_agrees_with_oracle(tuning, spec):
    """The small-space root lies within ORACLE_ULPS of the per-state
    configured-size root, after as many probes, and both meet 1e-13."""
    oracle = reference_tune(spec)
    assert ulps(tuning.rabi_scale, oracle.rabi_scale) <= ORACLE_ULPS
    assert tuning.n_evaluations == oracle.n_evaluations
    assert max(tuning.achieved_sigma_z, oracle.achieved_sigma_z) <= 1e-13


class TestSmallSpaceSearch:
    """tune_pulse_train searches and polishes in a small Fock space on the
    block propagator. Its result must equal, bit for bit, the reference run
    wholly in the space each test names, and agree with the per-state
    configured-size oracle to ORACLE_ULPS."""

    @pytest.mark.parametrize("fock_dim", [64, 112])
    def test_headline_matches_reference(self, fock_dim):
        spec = headline_sequence_spec(fock_dim)
        tuning = tune_pulse_train(spec)
        assert tuning == reference_tune_in(spec, 32)
        assert_agrees_with_oracle(tuning, spec)

    def test_one_flash_train_matches_reference(self):
        # fig2b: a single 903 ns flash in a 910 ns cycle at fock_dim 48
        spec = alpha_zero_spec(fock_dim=48)
        one_flash = replace(spec.analysis, n_flashes=1, flash_dur=903e-9, cycle_dur=910e-9)
        spec = replace(spec, analysis=one_flash)
        tuning = tune_pulse_train(spec)
        assert tuning == reference_tune_in(spec, 32)
        assert_agrees_with_oracle(tuning, spec)

    def test_thermal_draw_above_first_space(self):
        # at n_th = 3 the mixture runs to level 32: the search skips 32 levels
        # and runs at 64 (the roots lie 13 ulps apart)
        spec = alpha_zero_spec(fock_dim=96, eta=0.3, n_th=3.0)
        levels, _ = thermal_ensemble(spec.mode.n_th, spec.hilbert)
        assert levels[-1] >= FIRST_SEARCH_DIM
        tuning = tune_pulse_train(spec)
        assert tuning == reference_tune_in(spec, 64)
        assert_agrees_with_oracle(tuning, spec)

    def test_drive_tail_above_search_bound(self):
        # at eta = 2 the 32-level space passes the configured watchdog but not
        # the search bound, and a search there lands on a different point
        spec = alpha_zero_spec(fock_dim=64, eta=2.0, n_th=0.0)
        spec = replace(spec, hilbert=HilbertSpec(fock_dim=64, tail_tol=1e-2))
        ref = reference_tune_in(spec, 64)
        small = HilbertSpec(fock_dim=FIRST_SEARCH_DIM, tail_tol=spec.hilbert.tail_tol)
        levels, _ = thermal_ensemble(spec.mode.n_th, spec.hilbert)
        tuned = apply_tuning(spec, ref.rabi_scale).analysis
        block = np.stack([make_initial_state(SPIN_DOWN, int(level), small).amplitudes
                          for level in levels], axis=1)
        _, _, tail = run_pulse_train_block(block, tuned, spec.mode, small)
        assert SEARCH_TAIL_BOUND < tail.max() < spec.hilbert.tail_tol
        tuning = tune_pulse_train(spec)
        assert tuning == ref
        assert_agrees_with_oracle(tuning, spec)

    def test_check_rejects_point_that_misses_tol(self, monkeypatch):
        # with the search bound opened up, the root searched and polished at
        # 32 levels misses by 9.7e-7 at 64, far above a gate of 1e-13 that
        # the root searched at 64 levels meets
        monkeypatch.setattr(calibrate, "SEARCH_TAIL_BOUND", 0.5)
        monkeypatch.setattr(calibrate, "TUNE_TOL", 1e-13)
        spec = alpha_zero_spec(fock_dim=64, eta=2.0, n_th=0.0)
        spec = replace(spec, hilbert=HilbertSpec(fock_dim=64, tail_tol=1e-2))
        assert reference_tune(spec).achieved_sigma_z <= 1e-13
        with pytest.raises(CalibrationError,
                           match=r"^tuned point reaches \|<sigma_z>\| = 9\.\d+e-07 at fock_dim 64, "
                                 r"above 1e-13$"):
            tune_pulse_train(spec)

    @settings(max_examples=8, deadline=None)
    @given(eta=st.floats(0.05, 0.6), n_th=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
           n_flashes=st.sampled_from([1, 5, 30]), fock_dim=st.sampled_from([64, 96]))
    def test_small_specs_agree_with_oracle(self, eta, n_th, n_flashes, fock_dim):
        spec = alpha_zero_spec(fock_dim=fock_dim, eta=eta, n_th=n_th)
        spec = replace(spec, analysis=replace(spec.analysis, n_flashes=n_flashes))
        assert_agrees_with_oracle(tune_pulse_train(spec), spec)

    def test_configured_size_runs_only_the_check(self, monkeypatch, cold_train_operator):
        # one configured-size flash unitary, one per-state train per thermal
        # level, and the unitary stays cached for the tuned train's first block
        spec = headline_sequence_spec(64)
        levels, _ = thermal_ensemble(spec.mode.n_th, spec.hilbert)
        builds, runs = [], []
        coupling, run = dynamics_module.coupling_operator, calibrate.run_pulse_train
        monkeypatch.setattr(dynamics_module, "coupling_operator",
                            lambda eta, hilbert: builds.append(hilbert.fock_dim)
                            or coupling(eta, hilbert))
        monkeypatch.setattr(calibrate, "run_pulse_train", lambda *args: runs.append(args) or run(*args))
        dynamics_module._flash_unitary.cache_clear()
        tuning = tune_pulse_train(spec)
        assert tuning.search_fock_dim == 32
        assert builds.count(spec.hilbert.fock_dim) == 1
        assert len(runs) == len(levels)

        # a block of the 16 lowest Fock levels of each spin is wide enough to
        # build the train operator from the cached unitary, which the build
        # then releases; the counts survive the release
        tuned = apply_tuning(spec, tuning.rabi_scale)
        cache = dynamics_module._flash_unitary
        before = cache.cache_info()
        n = spec.hilbert.fock_dim
        states = np.eye(2 * n, dtype=complex)[:, np.r_[:16, n : n + 16]]
        dynamics_module.propagate_block(states, tuned.analysis, tuned.mode, tuned.hilbert)
        assert cold_train_operator.cache_info() == (0, 1, 1, 1)
        after = cache.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, 0)
        # a second block of the same train takes the cached operator
        dynamics_module.propagate_block(states[:, levels], tuned.analysis, tuned.mode,
                                        tuned.hilbert, n_states=states.shape[1])
        assert cache.cache_info() == after
        assert cold_train_operator.cache_info()[:2] == (1, 1)
        cache.cache_clear()
        assert cache.cache_info()[:2] == (0, 0)

    def test_search_never_takes_the_train_operator(self, monkeypatch, tuned_spec):
        # every probe is a new train: the tuner propagates flash by flash, so
        # its result cannot depend on what the operator cache holds
        def refuse(*args):
            raise AssertionError("the tuner reached the train operator")

        for name in ("propagate_block", "_operator_block", "_train_operator"):
            monkeypatch.setattr(dynamics_module, name, refuse)
        assert tune_pulse_train(alpha_zero_spec()) == tuned_spec[1]

    def test_leaking_configured_space_raises(self):
        spec = alpha_zero_spec(fock_dim=40, eta=2.0)
        with pytest.raises(TruncationError, match=r"top 2 Fock levels .*\(tol 0\.0001\)"):
            tune_pulse_train(spec)


@pytest.fixture(scope="module")
def small_tables(tuned_spec):
    spec, _ = tuned_spec
    spec96 = replace(spec, hilbert=HilbertSpec(fock_dim=112))
    return build_decode_tables(spec96, UNITS, np.arange(0.0, 4.51, 0.5)), spec96


class TestDecodeTables:
    def test_truncation_names_amplitude(self):
        # D(3) needs 56 levels: the error names the table amplitude that failed
        spec = alpha_zero_spec(fock_dim=40, n_th=0.0)
        with pytest.raises(TruncationError, match=r"decode amplitude \|alpha\|=3: ") as info:
            build_decode_tables(spec, UNITS, [0.0, 1.0, 2.0, 3.0])
        assert info.value.index == 6  # (alpha 3, theta0 0) is the seventh excitation

    def test_watchdog_error_keeps_index_and_phase(self):
        # at eta = 2 the flashes leak past 1e-9 in a 32-level space at |alpha| = 1;
        # the error names the amplitude and keeps the watchdog's index and phase
        spec = alpha_zero_spec(fock_dim=32, eta=2.0)
        spec = replace(spec, hilbert=HilbertSpec(fock_dim=32, tail_tol=1e-9))
        message = r"^at decode amplitude \|alpha\|=1: flash \d+ of 30 leaks .* at analysis phase"
        with pytest.raises(TruncationError, match=message) as info:
            build_decode_tables(spec, UNITS, [0.0, 0.5, 1.0])
        assert info.value.index == 4  # (alpha 1, theta0 0) is the fifth excitation
        assert math.isfinite(info.value.phase)

    def test_alpha_zero_anchor(self, small_tables):
        tables, _ = small_tables
        mid = len(tables.pos_x) // 2
        assert tables.pos_x[mid] == 0.0
        assert tables.pos_phi0[mid] == pytest.approx(0.0, abs=1e-9)
        assert tables.p[0] == 0.0
        assert tables.contrast[0] == max(tables.contrast)

    def test_position_slope_near_linear_theory(self, small_tables):
        # d phi0 / dX = eta / x_zpf up to the finite-flash sinc factor
        tables, _ = small_tables
        slope = np.polyfit(tables.pos_x, tables.pos_phi0, 1)[0]
        expected = 0.4 / UNITS.x_zpf
        assert abs(slope / expected - 1.0) < 0.05

    def test_momentum_branch_monotone_decreasing(self, small_tables):
        tables, _ = small_tables
        assert np.all(np.diff(tables.contrast) < 0)

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
                # the alpha = 0 contrast is in the momentum table's domain
                point = tables.decode(rel, float(tables.contrast[0]))
                planted = sign * 2.0 * UNITS.x_zpf * alpha
                assert not point.x_clamped
                assert abs(point.x - planted) < 0.03 * abs(planted)

    def test_minus_branch_is_the_propagated_mirror(self, small_tables):
        # the tables hold no theta0 = pi branch: its mirror -phi_plus matches the
        # propagated one, and every amplitude on it decodes to -x unclamped
        tables, spec = small_tables
        anchor = characterize_reference_fringe(spec).phase
        minus = sequence_fringes(spec, [CoherentAmp(float(a), math.pi) for a in tables.alpha])
        phases = np.unwrap([f.phase - anchor for f in minus])
        assert np.max(np.abs(phases + tables.phi_plus)) <= 1e-12
        for alpha, phase in zip(tables.alpha, phases):
            # the alpha = 0 contrast is in the momentum table's domain
            point = tables.decode(phase, float(tables.contrast[0]))
            assert not point.x_clamped
            assert abs(point.x + 2.0 * UNITS.x_zpf * alpha) <= 1e-9 * UNITS.x_zpf

    def test_decode_observables_at_alpha_zero(self, small_tables):
        tables, spec = small_tables
        phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        anchor = characterize_reference_fringe(spec).phase
        fit = fit_cosine([(p, run_sequence(spec, p)[0], 0.0) for p in phis])
        phase = math.remainder(fit.phase - anchor, 2 * math.pi)
        decoded = tables.decode(phase, fit.contrast)
        assert abs(decoded.x) < 0.5e-9
        assert abs(decoded.p_mag) / 1e-27 < 2.0

    def test_clamp_just_outside_domain(self, small_tables):
        tables, _ = small_tables
        value = tables.pos_phi0[-1] * 1.02
        point = tables.decode(value, float(tables.contrast[0]))
        assert point.x_clamped and not point.p_clamped
        assert point.x == pytest.approx(tables.pos_x[-1])

    def test_contrast_clamp_and_margin(self, small_tables):
        # the momentum lookup has its own clamp flag, and a value far outside clamps too
        tables, _ = small_tables
        lo, hi = float(tables.contrast[-1]), float(tables.contrast[0])
        point = tables.decode(0.0, hi + 0.05 * (hi - lo))
        assert point.p_clamped and not point.x_clamped
        assert point.p_mag == tables.decode(0.0, hi).p_mag
        assert tables.decode(0.0, lo).p_mag == pytest.approx(tables.p[-1])
        far = tables.decode(tables.pos_phi0[-1] * 1.5, hi + 0.2 * (hi - lo))
        assert far.x_clamped and far.p_clamped
        assert far.x == pytest.approx(tables.pos_x[-1])

    def test_rounding_past_the_edge_is_not_clamped(self, small_tables):
        # the alpha = 0 refit can land a few ulps past contrast[0]: that decodes
        # at the edge unflagged, while a real excursion is still flagged
        tables, _ = small_tables
        lo, hi = float(tables.contrast[-1]), float(tables.contrast[0])
        edge = tables.decode(0.0, hi)
        above = tables.decode(0.0, hi + 4 * math.ulp(hi))
        assert not above.p_clamped and above.p_mag == edge.p_mag
        assert tables.decode(0.0, hi + 1e-6 * (hi - lo)).p_clamped
        phase_edge = float(tables.pos_phi0[-1])
        past = tables.decode(phase_edge + 4 * math.ulp(phase_edge), hi)
        assert not past.x_clamped and past.x == tables.decode(phase_edge, hi).x

    def test_non_monotone_table_reports_interval(self):
        # a file's tables know no amplitudes: the entries are counted from alpha = 0;
        # a phase that rises from -1 but not past its mirror at the first amplitude
        # would fold the joined position map
        for phi_plus in ([0.4, 0.3, 0.5], [-1.0, 0.5, 1.0]):
            with pytest.raises(DecodeError, match="theta0 = 0 does not rise from table entry 0 to 1$"):
                DecodeTables(
                    x=np.array([0.0, 1.0, 2.0]),
                    phi_plus=np.array(phi_plus),
                    p=np.array([0.0, 1.0, 2.0]),
                    contrast=np.array([0.9, 0.5, 0.1]),
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
            tuned = apply_tuning(base, tune_pulse_train(base).rabi_scale)
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
        sx, sp = noise_floor(small, tables, grid, shots=None, n_repeats=20, seed=1)
        assert sx < 0.1e-9
        assert sp < 1e-28

    def test_scales_with_shots(self, tuned_spec, small_tables):
        tables, _ = small_tables
        spec, _ = tuned_spec
        small = replace(spec, hilbert=HilbertSpec(fock_dim=32))
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        sx_250, _ = noise_floor(small, tables, grid, shots=250, n_repeats=80, seed=42)
        sx_1000, _ = noise_floor(small, tables, grid, shots=1000, n_repeats=80, seed=43)
        ratio = sx_250 / sx_1000
        assert abs(ratio - 2.0) < 0.4

    def test_one_propagation(self, tuned_spec, small_tables, block_calls):
        # every repeat, and the anchor, sample the one alpha = 0 fringe
        tables, _ = small_tables
        spec, _ = tuned_spec
        small = replace(spec, hilbert=HilbertSpec(fock_dim=32))
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        noise_floor(small, tables, grid, shots=500, n_repeats=20, seed=1)
        assert len(block_calls) == 1


def test_fig4_shape_builds_the_train_operator_once(tuned_headline_large, headline_units,
                                                   fringe_evaluations, cold_train_operator):
    # fig4's decode-table evaluation pays for the build; its anchor and theta0
    # scan find the operator cached, and every block a budget's worth of kicks
    spec, _ = tuned_headline_large
    build_decode_tables(spec, headline_units, np.arange(0.0, 7.3, 0.4))
    characterize_reference_fringe(spec)
    thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    scan = ScanSpec(phi_grid=np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False),
                    outer_grid=thetas, outer_var="theta0")
    run_scan(scan, replace(spec, excitation=CoherentAmp(6.5, 0.0)))
    # 37 distinct kicks, 1 and 24, at 5 thermal levels
    assert [sum(widths) for widths in fringe_evaluations] == [185, 5, 120]
    n = spec.hilbert.fock_dim
    assert len(fringe_evaluations[0]) > 1  # the tables take more than one block
    for widths in fringe_evaluations:  # whole kicks, each block's (2, N, 2S) within the budget
        assert all(w % 5 == 0 and 64 * n * w <= FRINGE_BLOCK_BYTES for w in widths)
    blocks = sum(len(widths) for widths in fringe_evaluations)
    assert cold_train_operator.cache_info()[:2] == (blocks - 1, 1)  # one build, then hits


class TestFlashLengthDesign:
    """The flash length tau sets how far momentum lowers the contrast. At
    theta0 = pi/2 a flash meets the wave packet while its position sweeps
    through zero, so the coupling phase 2 eta |alpha| omega (t - t_c)
    averages out over the flash: the contrast's first zero lies near
    eta |alpha| omega tau = pi. At eta |alpha| = 2.4 that is omega tau =
    1.3 rad, where the sweep is still close to linear (at eta = 0.4 it is
    pi rad, and the zero comes 20% late)."""

    ALPHA, ETA = 3.0, 0.8

    def contrast_ratio(self, flash_dur, n_flashes=30):
        """C(alpha at theta0 = pi/2) / C(alpha = 0) of the pi/2-tuned train."""
        spec = alpha_zero_spec(eta=self.ETA)
        spec = replace(spec, analysis=replace(spec.analysis, n_flashes=n_flashes,
                                              flash_dur=flash_dur))
        spec = apply_tuning(spec, tune_pulse_train(spec).rabi_scale)
        still, moving = sequence_fringes(spec, [None, CoherentAmp(self.ALPHA, math.pi / 2.0)])
        return moving.contrast / still.contrast

    def test_first_contrast_minimum_at_half_a_phase_turn(self):
        linear = math.pi / (self.ETA * self.ALPHA * OMEGA)
        taus = linear * np.arange(0.1, 1.51, 0.05)
        ratios = [self.contrast_ratio(tau) for tau in taus]
        first = next(i for i in range(len(ratios) - 1) if ratios[i + 1] > ratios[i])
        assert abs(taus[first] / linear - 1.0) <= 0.10
        assert ratios[first] < 0.05

    def test_flash_count_barely_matters(self):
        assert abs(self.contrast_ratio(100e-9, 10) - self.contrast_ratio(100e-9, 30)) <= 1e-3


class TestStroboscopicMatching:
    """Cycles of (1 + eps) motional periods read through decode tables built
    at eps = 0. Flash k meets the wave packet 2 pi k eps further along its
    orbit, so the decoded trace X(theta0) = A cos(theta0 - delta) turns by a
    delta odd and linear in eps while A holds. The uniform mean over the
    flashes, pi (F - 1) eps, undershoots the slope, since the fringe phase
    weighs the later flashes more: at this size (fock_dim 64, |alpha| = 3)
    the slope is 1.1644 pi F, and at fig4's (232, 6.5) it is 1.039 pi F."""

    THETAS = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)

    def trace(self, spec, tables, eps):
        """(A, delta) of the cosine fitted to the |alpha| = 3 trace decoded at eps."""
        train = replace(spec.analysis, cycle_dur=(1.0 + eps) * spec.analysis.cycle_dur)
        ref, *sweep = sequence_fringes(replace(spec, analysis=train),
                                       [None] + [CoherentAmp(3.0, t) for t in self.THETAS])
        points = [tables.decode(math.remainder(f.phase - ref.phase, 2.0 * math.pi), f.contrast)
                  for f in sweep]
        assert not any(point.x_clamped for point in points)
        basis = np.column_stack([np.cos(self.THETAS), np.sin(self.THETAS)])
        b, c = np.linalg.lstsq(basis, [point.x for point in points], rcond=None)[0]
        return math.hypot(b, c), math.atan2(c, b)

    def test_mismatch_turns_the_decoded_trace(self, tuned_headline_small, headline_units):
        spec, _ = tuned_headline_small
        tables = build_decode_tables(spec, headline_units, np.arange(0.0, 3.21, 0.2))
        amp0, delta0 = self.trace(spec, tables, 0.0)
        slope = 1.1644 * math.pi * spec.analysis.n_flashes  # rad per unit eps, measured
        for eps in (-2e-4, -1e-4, 1e-4, 2e-4):
            amp, delta = self.trace(spec, tables, eps)
            assert abs(amp / amp0 - 1.0) < 1e-3, eps
            assert (delta - delta0) / eps == pytest.approx(slope, rel=1e-3), eps
