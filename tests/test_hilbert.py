"""Operator and state constructors against analytic oracles."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, eval_laguerre

from ionstrobe import (
    HBAR,
    ATOMIC_MASS,
    SPIN_DOWN,
    SPIN_UP,
    CoherentAmp,
    DriveParams,
    HilbertSpec,
    ModeParams,
    SpinMotionState,
    SqueezeParam,
    TruncationError,
    UnitScale,
    check_truncation,
    coupling_operator,
    displacement_operator,
    expect_sigma_z,
    make_initial_state,
    squeeze_operator,
    thermal_ensemble,
)
from ionstrobe.dynamics import DephasingSpec, PulseTrainSpec

from conftest import build_mode_operators, expect_n, quadrature_variances, quadratures

MG25_MASS = 25.0 * ATOMIC_MASS
OMEGA_LF = 2.0 * math.pi * 1.3e6


def coupling_element_laguerre(m: int, n: int, eta: float) -> complex:
    """Independent oracle: <m| exp[i eta (a + a_dag)] |n> via Laguerre polynomials."""
    lo, hi = min(m, n), max(m, n)
    d = hi - lo
    log_ratio = 0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1))
    return (
        math.exp(log_ratio - eta**2 / 2.0)
        * (1j * eta) ** d
        * eval_genlaguerre(lo, d, eta**2)
    )


class TestModeOperators:
    def test_minimal_lowering_matrix(self):
        a, a_dag, n = build_mode_operators(HilbertSpec(fock_dim=2))
        expected = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(a, expected)
        np.testing.assert_allclose(a_dag, expected.T)

    def test_number_diagonal(self):
        _, _, n = build_mode_operators(HilbertSpec(fock_dim=5))
        np.testing.assert_allclose(np.diag(n).real, [0, 1, 2, 3, 4])

    def test_commutator_truncation_corner(self):
        dim = 12
        a, a_dag, _ = build_mode_operators(HilbertSpec(fock_dim=dim))
        comm = a @ a_dag - a_dag @ a
        expected = np.eye(dim, dtype=complex)
        expected[-1, -1] = -(dim - 1)
        np.testing.assert_allclose(comm, expected, atol=1e-12)

    def test_rejects_tiny_space(self):
        with pytest.raises(ValueError):
            HilbertSpec(fock_dim=1)


class TestCouplingOperator:
    def test_zero_eta_is_identity(self):
        c = coupling_operator(0.0, HilbertSpec(fock_dim=16))
        np.testing.assert_allclose(c, np.eye(16), atol=1e-14)

    def test_ground_state_element(self):
        # Debye-Waller factor exp(-eta^2/2) at eta = 0.4
        c = coupling_operator(0.4, HilbertSpec(fock_dim=40))
        assert c[0, 0] == pytest.approx(math.exp(-0.08), abs=1e-10)
        assert abs(c[0, 0] - 0.92312) < 1e-5

    def test_first_sideband_element(self):
        c = coupling_operator(0.4, HilbertSpec(fock_dim=40))
        assert c[1, 0] == pytest.approx(1j * 0.4 * math.exp(-0.08), abs=1e-10)
        assert abs(c[1, 0] - 0.36925j) < 1e-5

    @pytest.mark.parametrize("eta", [0.18, 0.23, 0.40])
    def test_matches_laguerre_formula(self, eta):
        # Dual-route check: matrix exponential vs analytic matrix elements,
        # on the lowest 80% of a 60-level space.
        dim, keep = 60, 48
        c = coupling_operator(eta, HilbertSpec(fock_dim=dim))
        oracle = np.array(
            [[coupling_element_laguerre(m, n, eta) for n in range(keep)] for m in range(keep)]
        )
        assert np.max(np.abs(c[:keep, :keep] - oracle)) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(eta=st.floats(0.0, 1.0), fock_dim=st.integers(48, 160))
    def test_diagonal_is_debye_waller_factor(self, eta, fock_dim):
        # the pi/2 tuner's start reads <n|C|n> = e^{-eta^2/2} L_n(eta^2) off the diagonal
        levels = np.arange(11)
        diag = np.diagonal(coupling_operator(eta, HilbertSpec(fock_dim=fock_dim)))[levels]
        assert np.max(np.abs(diag - math.exp(-eta**2 / 2.0) * eval_laguerre(levels, eta**2))) < 1e-13

    def test_unitary_on_retained_levels(self):
        dim, keep = 40, 32
        c = coupling_operator(0.5, HilbertSpec(fock_dim=dim))
        dev = (c.conj().T @ c - np.eye(dim))[:keep, :keep]
        assert np.max(np.abs(dev)) < 1e-8


class TestDisplacement:
    def test_zero_alpha_identity(self):
        d = displacement_operator(CoherentAmp(0.0), HilbertSpec(fock_dim=32))
        np.testing.assert_allclose(d, np.eye(32), atol=1e-13)

    def test_poisson_populations(self):
        spec = HilbertSpec(fock_dim=80)
        d = displacement_operator(CoherentAmp(3.0), spec)
        psi = d[:, 0]
        pops = np.abs(psi) ** 2
        n_grid = np.arange(20)
        poisson = np.exp(-9.0) * 9.0**n_grid / np.array([math.factorial(k) for k in n_grid])
        np.testing.assert_allclose(pops[:20], poisson, atol=1e-9)
        # mean quanta <n> = |alpha|^2 = 9 (coherent excitation of the displaced vacuum)
        assert float(np.dot(pops, np.arange(80))) == pytest.approx(9.0, abs=1e-6)

    def test_inverse_displacement(self):
        spec = HilbertSpec(fock_dim=64)
        d_plus = displacement_operator(CoherentAmp(2.0, 0.7), spec)
        d_minus = displacement_operator(CoherentAmp(2.0, 0.7 + math.pi), spec)
        keep = int(0.8 * spec.fock_dim)
        dev = (d_plus @ d_minus - np.eye(spec.fock_dim))[:keep, :keep]
        assert np.max(np.abs(dev)) < 1e-8

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            displacement_operator(CoherentAmp(3.0), HilbertSpec(fock_dim=40))
        # 4 |alpha|^2 overflows a float: still a TruncationError naming the kick
        with pytest.raises(TruncationError, match=r"\|alpha\|=1e\+200 \(need >= inf\)"):
            displacement_operator(CoherentAmp(1e200), HilbertSpec(fock_dim=40))

    @settings(max_examples=60, deadline=None)
    @given(magnitude=st.floats(0.0, 5.0), phase=st.floats(0.0, 2.0 * math.pi), data=st.data())
    def test_levels_are_columns_of_the_full_kick(self, magnitude, phase, data):
        alpha = CoherentAmp(magnitude, phase)
        needed = math.ceil(4.0 * abs(alpha.value) ** 2 + 20.0)
        assume(needed <= 120)
        spec = HilbertSpec(fock_dim=data.draw(st.integers(needed, 120)))
        levels = data.draw(st.lists(st.integers(0, spec.fock_dim - 1), min_size=1, max_size=8))
        full = displacement_operator(alpha, spec)
        cols = displacement_operator(alpha, spec, levels)
        assert cols.shape == (spec.fock_dim, len(levels))
        assert np.max(np.abs(cols - full[:, levels])) <= 1e-14
        # one level too few: both forms refuse the kick alike
        small = HilbertSpec(fock_dim=needed - 1)
        with pytest.raises(TruncationError) as whole:
            displacement_operator(alpha, small)
        with pytest.raises(TruncationError) as part:
            displacement_operator(alpha, small, levels)
        assert str(part.value) == str(whole.value)

    @pytest.mark.parametrize("alpha", [0.3 - 0.2j, 1.5 + 1.1j, -2.0 + 0.5j, -1.2j, 2.5])
    def test_matches_expm_of_generator(self, alpha):
        # the gauge construction against the truncated generator exponentiated directly
        spec = HilbertSpec(fock_dim=48)
        a, a_dag, _ = build_mode_operators(spec)
        ref = expm(alpha * a_dag - np.conj(alpha) * a)
        assert np.max(np.abs(displacement_operator(alpha, spec) - ref)) < 1e-12

    def test_position_expectation(self):
        spec = HilbertSpec(fock_dim=32)
        units = UnitScale.for_mode(MG25_MASS, OMEGA_LF)
        d = displacement_operator(CoherentAmp(1.0), spec)
        amps = np.zeros(2 * spec.fock_dim, dtype=complex)
        amps[: spec.fock_dim] = d[:, 0]
        state = SpinMotionState(amps, spec.fock_dim)
        x, p = quadratures(state, units)
        assert x == pytest.approx(2.0 * units.x_zpf, rel=1e-9)
        assert x == pytest.approx(24.9e-9, abs=0.1e-9)
        assert abs(p) < 1e-30


class TestSqueeze:
    def test_zero_zeta_identity(self):
        s = squeeze_operator(SqueezeParam(0.0), HilbertSpec(fock_dim=32))
        np.testing.assert_allclose(s, np.eye(32), atol=1e-13)

    def test_mean_quanta_and_parity(self):
        spec = HilbertSpec(fock_dim=160)
        s = squeeze_operator(SqueezeParam(1.0), spec)
        psi = s[:, 0]
        pops = np.abs(psi) ** 2
        mean_n = float(np.dot(pops, np.arange(spec.fock_dim)))
        assert mean_n == pytest.approx(math.sinh(1.0) ** 2, abs=1e-6)
        odd = pops[1::2]
        assert np.max(odd) < 1e-12

    def test_quadrature_squeezing(self):
        spec = HilbertSpec(fock_dim=160)
        units = UnitScale.for_mode(MG25_MASS, OMEGA_LF)
        s = squeeze_operator(SqueezeParam(1.0, 0.0), spec)
        amps = np.zeros(2 * spec.fock_dim, dtype=complex)
        amps[: spec.fock_dim] = s[:, 0]
        state = SpinMotionState(amps, spec.fock_dim)
        var_x, var_p = quadrature_variances(state, units)
        # real positive zeta squeezes position by e^{-2|zeta|}
        assert var_x / units.x_zpf**2 == pytest.approx(math.exp(-2.0), rel=1e-6)
        # minimum-uncertainty product is preserved
        assert var_x * var_p == pytest.approx((units.hbar / 2.0) ** 2, rel=1e-6)

    @pytest.mark.parametrize("zeta", [0.3, 0.4j, 0.25 - 0.5j, -0.9 + 0.2j, 1.0])
    def test_matches_expm_of_generator(self, zeta):
        # the gauge construction against the truncated generator exponentiated directly
        spec = HilbertSpec(fock_dim=160)
        a, a_dag, _ = build_mode_operators(spec)
        ref = expm((np.conj(zeta) * a @ a - zeta * a_dag @ a_dag) / 2.0)
        assert np.max(np.abs(squeeze_operator(zeta, spec) - ref)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(magnitude=st.floats(0.0, 1.0), phase=st.floats(0.0, 2.0 * math.pi), data=st.data())
    def test_levels_are_columns_of_the_full_squeeze(self, magnitude, phase, data):
        zeta = SqueezeParam(magnitude, phase)
        needed = math.ceil(20.0 * math.exp(2.0 * magnitude))
        spec = HilbertSpec(fock_dim=data.draw(st.integers(needed, 160)))
        levels = data.draw(st.lists(st.integers(0, spec.fock_dim - 1), min_size=1, max_size=8))
        full = squeeze_operator(zeta, spec)
        cols = squeeze_operator(zeta, spec, levels)
        assert cols.shape == (spec.fock_dim, len(levels))
        assert np.max(np.abs(cols - full[:, levels])) <= 1e-13
        # one level too few: both forms refuse the kick alike
        small = HilbertSpec(fock_dim=needed - 1)
        with pytest.raises(TruncationError) as whole:
            squeeze_operator(zeta, small)
        with pytest.raises(TruncationError) as part:
            squeeze_operator(zeta, small, levels)
        assert str(part.value) == str(whole.value)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            squeeze_operator(SqueezeParam(1.0), HilbertSpec(fock_dim=64))
        # exp(2 |zeta|) overflows a float: still a TruncationError naming the kick
        with pytest.raises(TruncationError, match=r"\|zeta\|=400 \(need >= inf\)"):
            squeeze_operator(SqueezeParam(400.0), HilbertSpec(fock_dim=64))


class TestStatesAndSampling:
    def test_basis_state(self):
        spec = HilbertSpec(fock_dim=8)
        st = make_initial_state(SPIN_DOWN, 0, spec)
        assert st.amplitudes[0] == 1.0
        assert np.count_nonzero(st.amplitudes) == 1
        st_up = make_initial_state(SPIN_UP, 3, spec)
        assert st_up.amplitudes[8 + 3] == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            make_initial_state(SPIN_DOWN, 8, HilbertSpec(fock_dim=8))

    def test_zero_temperature_sampling(self):
        for tail_tol in (1e-12, 1e-4, 0.5):
            levels, weights = thermal_ensemble(0.0, HilbertSpec(fock_dim=2, tail_tol=tail_tol))
            assert levels.tolist() == [0] and weights.tolist() == [1.0]

    def test_thermal_mean(self):
        # the renormalised mixture's mean falls short of n_th by about the dropped tail
        levels, weights = thermal_ensemble(0.15, HilbertSpec(fock_dim=32, tail_tol=1e-15))
        assert np.dot(levels, weights) == pytest.approx(0.15, abs=1e-13)

    def test_ensemble_weights_sum(self):
        # the headline mode at the default tail_tol: levels 0-4, exact weights
        levels, weights = thermal_ensemble(0.15, HilbertSpec(fock_dim=232))
        assert levels.tolist() == [0, 1, 2, 3, 4]
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.round(weights, 4).tolist() == [0.8696, 0.1134, 0.0148, 0.0019, 0.0003]

    @settings(max_examples=200, deadline=None)
    @given(n_th=st.floats(0.0, 5.0), tail_tol=st.floats(1e-15, 0.99))
    def test_weights_follow_the_thermal_law(self, n_th, tail_tol):
        levels, weights = thermal_ensemble(n_th, HilbertSpec(fock_dim=1024, tail_tol=tail_tol))
        count = levels.size
        assert levels.tolist() == list(range(count))
        law = n_th ** levels / (1.0 + n_th) ** (levels + 1)
        np.testing.assert_allclose(weights, law / law.sum(), rtol=1e-12, atol=0.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        # the first count whose dropped tail q^L lies below tail_tol
        q = n_th / (1.0 + n_th)
        assert q ** count < tail_tol <= q ** (count - 1)

    @pytest.mark.parametrize("n_th, level", [(200.0, "1846"), (1e15, "9217707881597189"),
                                             (1e300, "inf")])
    def test_mixture_past_the_fock_space_names_its_level(self, n_th, level):
        # at 1e300, q = n_th / (1 + n_th) rounds to 1 and no count drops a tail
        message = (f"fock_dim=128 too small for the thermal mixture's Fock level {level} "
                   f"at n_th={n_th:g} (need >= ")
        with pytest.raises(TruncationError, match="^" + re.escape(message)):
            thermal_ensemble(n_th, HilbertSpec(fock_dim=128))


class TestExpectations:
    def test_sigma_z_down(self):
        spec = HilbertSpec(fock_dim=4)
        st = make_initial_state(SPIN_DOWN, 0, spec)
        assert expect_sigma_z(st) == pytest.approx(-1.0, abs=1e-14)

    def test_number_up_two(self):
        spec = HilbertSpec(fock_dim=4)
        st = make_initial_state(SPIN_UP, 2, spec)
        assert expect_n(st) == pytest.approx(2.0, abs=1e-14)

    def test_displaced_mean_quanta_full_matrix(self):
        spec = HilbertSpec(fock_dim=80)
        d = displacement_operator(CoherentAmp(3.0), spec)
        amps = np.zeros(2 * spec.fock_dim, dtype=complex)
        amps[: spec.fock_dim] = d[:, 0]
        st = SpinMotionState(amps, spec.fock_dim)
        assert expect_n(st) == pytest.approx(9.0, abs=1e-6)

    def test_momentum_quadrature_sign(self):
        spec = HilbertSpec(fock_dim=32)
        units = UnitScale.for_mode(MG25_MASS, OMEGA_LF)
        d = displacement_operator(CoherentAmp(1.0, math.pi / 2), spec)
        amps = np.zeros(2 * spec.fock_dim, dtype=complex)
        amps[: spec.fock_dim] = d[:, 0]
        x, p = quadratures(SpinMotionState(amps, spec.fock_dim), units)
        assert abs(x) < 1e-20
        assert p == pytest.approx(2.0 * units.p_zpf, rel=1e-9)


class TestUnits:
    def test_zero_point_scales(self):
        units = UnitScale.for_mode(MG25_MASS, OMEGA_LF)
        assert units.x_zpf == pytest.approx(12.47e-9, abs=0.01e-9)
        # 1 zN us = 1e-27 kg m/s
        assert units.p_zpf / 1e-27 == pytest.approx(4.228, abs=0.005)

    def test_uncertainty_product_invariant(self):
        with pytest.raises(ValueError):
            UnitScale(hbar=HBAR, mass=MG25_MASS, x_zpf=1e-8, p_zpf=1e-26)

    def test_coherent_quadratures_at_headline_amplitude(self):
        spec = HilbertSpec(fock_dim=192)
        units = UnitScale.for_mode(MG25_MASS, OMEGA_LF)
        d = displacement_operator(CoherentAmp(6.5, 0.0), spec)
        amps = np.zeros(2 * spec.fock_dim, dtype=complex)
        amps[: spec.fock_dim] = d[:, 0]
        x, _ = quadratures(SpinMotionState(amps, spec.fock_dim), units)
        assert x * 1e9 == pytest.approx(162.0, abs=1.0)
        d_mom = displacement_operator(CoherentAmp(6.5, math.pi / 2), spec)
        amps2 = np.zeros(2 * spec.fock_dim, dtype=complex)
        amps2[: spec.fock_dim] = d_mom[:, 0]
        _, p = quadratures(SpinMotionState(amps2, spec.fock_dim), units)
        assert abs(p) / 1e-27 == pytest.approx(55.0, abs=0.3)


class TestTruncationCheck:
    def test_vacuum_passes(self):
        spec = HilbertSpec(fock_dim=12)
        st = make_initial_state(SPIN_DOWN, 0, spec)
        assert check_truncation(st, spec).passed

    def test_displaced_fails_small_space(self):
        spec = HilbertSpec(fock_dim=12, tail_tol=1e-4)
        # bypass the constructor guard to build an inadequate displaced state
        a, a_dag, _ = build_mode_operators(spec)
        gen = 3.0 * (a_dag - a)
        w, v = np.linalg.eigh(-1j * gen)
        d = (v * np.exp(1j * w)) @ v.conj().T
        psi = d[:, 0]
        psi = psi / np.linalg.norm(psi)
        amps = np.zeros(2 * spec.fock_dim, dtype=complex)
        amps[: spec.fock_dim] = psi
        report = check_truncation(SpinMotionState(amps, spec.fock_dim), spec)
        assert not report.passed

    def test_displaced_passes_large_space(self):
        spec = HilbertSpec(fock_dim=80, tail_tol=1e-4)
        d = displacement_operator(CoherentAmp(3.0), spec)
        amps = np.zeros(2 * spec.fock_dim, dtype=complex)
        amps[: spec.fock_dim] = d[:, 0]
        assert check_truncation(SpinMotionState(amps, spec.fock_dim), spec).passed


def test_norm_guard_rejects_unnormalized():
    with pytest.raises(ValueError):
        SpinMotionState(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex), 2)


@pytest.mark.parametrize("mag,phase", [(0.5, 0.0), (1.5, 1.1), (2.5, -2.0)])
def test_unitaries_preserve_norm(mag, phase):
    spec = HilbertSpec(fock_dim=64)
    d = displacement_operator(CoherentAmp(mag, phase), spec)
    psi = d[:, 0]
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
    c = coupling_operator(0.4, spec)
    assert np.linalg.norm(c @ psi) == pytest.approx(1.0, abs=1e-10)


# a valid instance of every spec dataclass, whose float fields the guard below walks
VALID_SPECS = {
    HilbertSpec: {"fock_dim": 8},
    ModeParams: {"freq": 1.0},
    DriveParams: {"rabi": 1.0},
    CoherentAmp: {"magnitude": 1.0},
    SqueezeParam: {"magnitude": 0.1},
    DephasingSpec: {},
    PulseTrainSpec: {"n_flashes": 1, "flash_dur": 1.0, "cycle_dur": 2.0},
}


@pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda spec: spec.__name__)
def test_every_float_field_rejects_non_finite(spec):
    # a NaN or infinite field would run through the engine into a NaN fringe;
    # a float field added later without a check fails here
    names = [field.name for field in dataclasses.fields(spec) if field.type == "float"]
    assert names
    spec(**VALID_SPECS[spec])
    for name in names:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                spec(**{**VALID_SPECS[spec], name: value})


def test_drive_params_is_keyword_only():
    # an old positional DriveParams(rabi, phase) must not read the phase as eta
    assert [field.name for field in dataclasses.fields(DriveParams)] == ["rabi", "eta"]
    with pytest.raises(TypeError):
        DriveParams(1.0, 0.3)
