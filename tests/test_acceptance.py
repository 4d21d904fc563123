"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and runtimes.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.special import eval_genlaguerre

from ionstrobe import (
    ATOMIC_MASS,
    CoherentAmp,
    HilbertSpec,
    SPIN_DOWN,
    SqueezeParam,
    coupling_operator,
    displacement_operator,
    make_initial_state,
    squeeze_operator,
    SpinMotionState,
)
from ionstrobe.calibrate import (
    apply_tuning,
    derive_lamb_dicke,
    tune_pulse_train,
    unwrap_sweep_phases,
)
from ionstrobe.cli import main
from ionstrobe.dynamics import run_pulse_train
from ionstrobe.fitting import fit_cosine, fit_wave_pattern
from ionstrobe.hilbert import expect_sigma_z
from ionstrobe.sequence import (
    ScanSpec,
    characterize_reference_fringe,
    run_scan,
    sequence_fringes,
)
from ionstrobe.tableio import read_table

from conftest import OMEGA_LF, headline_sequence_spec, noise_floor, quadrature_variances


def report(number: int, description: str, passed: bool, elapsed: float, detail: str = ""):
    verdict = "PASS" if passed else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {verdict} ({elapsed:6.1f} s) {description}{extra}")
    assert passed, f"criterion {number} failed: {description}{extra}"


def laguerre_element(m, n, eta):
    lo, hi = min(m, n), max(m, n)
    d = hi - lo
    log_ratio = 0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1))
    return math.exp(log_ratio - eta**2 / 2.0) * (1j * eta) ** d * eval_genlaguerre(lo, d, eta**2)


def test_criterion_01_operator_oracle():
    start = time.time()
    worst = 0.0
    for eta in (0.18, 0.23, 0.40):
        c = coupling_operator(eta, HilbertSpec(fock_dim=60))
        oracle = np.array(
            [[laguerre_element(m, n, eta) for n in range(48)] for m in range(48)]
        )
        worst = max(worst, float(np.max(np.abs(c[:48, :48] - oracle))))
    elapsed = time.time() - start
    report(1, "coupling operator matches Laguerre oracle", worst < 1e-8 and elapsed < 1.0,
           elapsed, f"max abs err {worst:.2e}")


def test_criterion_02_coherent_squeezed_analytics(headline_units):
    start = time.time()
    spec = HilbertSpec(fock_dim=160)
    d = displacement_operator(CoherentAmp(3.0), spec)
    pops = np.abs(d[:, 0]) ** 2
    n_coh = float(np.dot(pops, np.arange(spec.fock_dim)))
    s = squeeze_operator(SqueezeParam(1.0), spec)
    pops_s = np.abs(s[:, 0]) ** 2
    n_sq = float(np.dot(pops_s, np.arange(spec.fock_dim)))
    amps = np.zeros(2 * spec.fock_dim, dtype=complex)
    amps[: spec.fock_dim] = s[:, 0]
    var_x, var_p = quadrature_variances(SpinMotionState(amps, spec.fock_dim), headline_units)
    product_rel = abs(var_x * var_p - (headline_units.hbar / 2) ** 2) / (headline_units.hbar / 2) ** 2
    elapsed = time.time() - start
    ok = (
        abs(n_coh - 9.0) < 1e-6
        and abs(n_sq - math.sinh(1.0) ** 2) < 1e-6
        and product_rel < 1e-6
        and elapsed < 1.0
    )
    report(2, "displaced/squeezed vacuum analytics", ok, elapsed,
           f"<n>_coh={n_coh:.8f}, <n>_sq={n_sq:.8f}, uncertainty rel err {product_rel:.1e}")


def test_criterion_03_units(headline_units):
    start = time.time()
    x_ok = abs(headline_units.x_zpf - 12.47e-9) <= 0.01e-9
    p_ok = abs(headline_units.p_zpf / 1e-27 - 4.228) <= 0.005
    eta = derive_lamb_dicke(25 * ATOMIC_MASS, OMEGA_LF, 140e-9, 0.840)
    eta_ok = 0.35 <= eta <= 0.42
    elapsed = time.time() - start
    report(3, "zero-point scales and Lamb-Dicke geometry", x_ok and p_ok and eta_ok and elapsed < 1.0,
           elapsed, f"x_zpf={headline_units.x_zpf * 1e9:.4f} nm, p_zpf={headline_units.p_zpf / 1e-27:.4f} zNus, eta={eta:.4f}")


def test_criterion_04_pi_half_train(tuned_headline_small):
    start = time.time()
    spec, tuning = tuned_headline_small
    duration_us = spec.analysis.total_duration * 1e6
    st = make_initial_state(SPIN_DOWN, 0, spec.hilbert)
    residual = abs(expect_sigma_z(run_pulse_train(st, spec.analysis, spec.mode)))
    elapsed = time.time() - start
    ok = tuning.achieved_sigma_z < 0.01 and residual < 0.02 and round(duration_us, 1) == 23.1
    report(4, "tuned pi/2 train at headline parameters", ok and elapsed < 120.0, elapsed,
           f"|sigma_z|={tuning.achieved_sigma_z:.1e}, duration={duration_us:.4f} us")


def test_criterion_05_encoding_linearity(tuned_headline_small, headline_units):
    start = time.time()
    spec, _ = tuned_headline_small
    anchor = characterize_reference_fringe(spec).phase
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    xs, phases = [], []
    for alpha in np.arange(0.0, 3.01, 0.5):
        for theta0, sign in ((0.0, 1.0), (math.pi, -1.0)):
            fringe = sequence_fringes(spec, [CoherentAmp(alpha, theta0)])[0]
            fit = fit_cosine([(p, fringe.evaluate(p)[0], 0.0) for p in phis])
            xs.append(sign * 2.0 * headline_units.x_zpf * alpha)
            phases.append(math.remainder(fit.phase - anchor, 2.0 * math.pi))
    slope = float(np.polyfit(xs, phases, 1)[0])
    expected = 0.4 / headline_units.x_zpf  # 2 eta / (2 x_zpf)
    ratio = slope / expected
    elapsed = time.time() - start
    report(5, "position encoding linear with slope 2eta/(2 x_zpf)",
           abs(ratio - 1.0) < 0.05 and elapsed < 300.0, elapsed,
           f"slope ratio {ratio:.4f}")


def test_criterion_06_contrast_ordering_and_backaction(tuned_headline_small):
    start = time.time()
    spec, _ = tuned_headline_small
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    contrasts = {}
    for theta0 in (0.0, math.pi / 2):
        fringe = sequence_fringes(spec, [CoherentAmp(3.0, theta0)])[0]
        contrasts[theta0] = fit_cosine([(p, fringe.evaluate(p)[0], 0.0) for p in phis]).contrast
    ordering_ok = contrasts[math.pi / 2] < contrasts[0.0]

    worst_dn = 0.0
    scan = ScanSpec(
        phi_grid=np.linspace(0, 2 * math.pi, 5),
        outer_grid=[0.0, math.pi / 2, math.pi],
        outer_var="theta0",
    )
    for variant in ("rabi_zero", "eta_zero"):
        train = spec.analysis
        if variant == "rabi_zero":
            train = replace(train, drive=replace(train.drive, rabi=0.0))
        else:
            train = replace(train, drive=replace(train.drive, eta=0.0))
        probe = replace(spec, analysis=train, excitation=CoherentAmp(3.0, 0.0))
        for rec in run_scan(scan, probe):
            worst_dn = max(worst_dn, abs(rec.delta_n))
    elapsed = time.time() - start
    report(6, "contrast ordering and null back-action",
           ordering_ok and worst_dn < 1e-9 and elapsed < 300.0, elapsed,
           f"C(pi/2)={contrasts[math.pi / 2]:.4f} < C(0)={contrasts[0.0]:.4f}, max|dn|={worst_dn:.1e}")


def test_criterion_07_pattern_fit_recovery():
    start = time.time()
    grid = np.linspace(-200e-9, 200e-9, 26)
    xs, zs = np.meshgrid(grid, grid, indexing="ij")
    u = 2 * math.pi * (xs * math.sin(0.840) + zs * math.cos(0.840)) / 138e-9
    p_true = 0.5 + 0.5 * 0.76 * np.cos(u + 0.4)
    noiseless = np.column_stack([xs.ravel(), zs.ravel(), p_true.ravel(), np.zeros(xs.size)])
    fit0 = fit_wave_pattern(noiseless)
    noiseless_ok = abs(fit0.wavelength - 138e-9) <= 0.1e-9 and abs(fit0.rotation - 0.840) <= 0.002

    shots = 250
    rng = np.random.default_rng(77)
    counts = rng.binomial(shots, np.clip(p_true.ravel(), 0, 1))
    p_hat = counts / shots
    sem = np.sqrt(p_hat * (1 - p_hat) / shots)
    noisy = np.column_stack([xs.ravel(), zs.ravel(), p_hat, sem])
    fit1 = fit_wave_pattern(noisy, sem_floor=1.0 / (2 * shots))
    noisy_ok = abs(fit1.wavelength - 138e-9) <= 2e-9 and abs(fit1.rotation - 0.840) <= 0.03
    elapsed = time.time() - start
    report(7, "wave-pattern recovery (noiseless and 250 shots/point)",
           noiseless_ok and noisy_ok and elapsed < 300.0, elapsed,
           f"noiseless ({(fit0.wavelength - 138e-9) * 1e9:+.3f} nm, {fit0.rotation - 0.840:+.4f} rad), "
           f"shots ({(fit1.wavelength - 138e-9) * 1e9:+.2f} nm, {fit1.rotation - 0.840:+.4f} rad)")


def test_criterion_08_phase_space_round_trip(tuned_headline_large, headline_decode_tables, headline_units):
    start = time.time()
    spec, _ = tuned_headline_large
    tables = headline_decode_tables
    anchor = characterize_reference_fringe(spec).phase
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    fits = []
    for theta0 in thetas:
        fringe = sequence_fringes(spec, [CoherentAmp(6.5, theta0)])[0]
        fits.append(fit_cosine([(p, fringe.evaluate(p)[0], 0.0) for p in phis]))
    phases = unwrap_sweep_phases([f.phase - anchor for f in fits])
    amp_x = 2.0 * headline_units.x_zpf * 6.5
    amp_p = 2.0 * headline_units.p_zpf * 6.5
    max_dx = max_dp = 0.0
    for theta0, fit, phase in zip(thetas, fits, phases):
        point = tables.decode(phase, min(fit.contrast, float(tables.contrast[0])))
        max_dx = max(max_dx, abs(point.x - amp_x * math.cos(theta0)))
        max_dp = max(max_dp, abs(point.p_mag - amp_p * abs(math.sin(theta0))))
    trace_ok = max_dx <= 0.05 * amp_x and max_dp <= 0.10 * amp_p

    floor_spec = replace(spec, hilbert=HilbertSpec(fock_dim=48))
    grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    sx, sp = noise_floor(floor_spec, tables, grid, shots=500, n_repeats=100, seed=12345)
    floor_ok = 1e-9 <= sx <= 5e-9 and 4e-27 <= sp <= 20e-27
    elapsed = time.time() - start
    report(8, "decoded phase-space trace and noise floor",
           trace_ok and floor_ok and elapsed < 600.0, elapsed,
           f"max dX {max_dx * 1e9:.2f} nm ({100 * max_dx / amp_x:.1f}%), "
           f"max dP {max_dp / 1e-27:.2f} zNus ({100 * max_dp / amp_p:.1f}%), "
           f"floor ({sx * 1e9:.2f} nm, {sp / 1e-27:.1f} zNus)")


def test_criterion_09_squeezed_scan():
    start = time.time()
    base = headline_sequence_spec(160)
    base = replace(base, analysis=replace(base.analysis, cycle_dur=2.0 * base.mode.period))
    tuning = tune_pulse_train(base)
    spec = apply_tuning(base, tuning.rabi_scale)
    phis = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)

    # significance leg: shot-sampled scans at |zeta| = 1 with bootstrap refits
    shots = 400
    measured = {}
    boot = {0.0: [], math.pi: []}
    rng = np.random.default_rng(4242)
    for zeta0 in (0.0, math.pi):
        fringe = sequence_fringes(spec, [SqueezeParam(1.0, zeta0)])[0]
        p_true = np.array([fringe.evaluate(float(p))[0] for p in phis])
        counts = rng.binomial(shots, p_true)
        p_hat = counts / shots
        sem = np.sqrt(p_hat * (1 - p_hat) / shots)
        fit = fit_cosine(list(zip(phis, p_hat, sem)), sem_floor=1.0 / (2 * shots))
        measured[zeta0] = fit.contrast
        for _ in range(40):
            p_star = rng.binomial(shots, np.clip(fit.model(phis), 0, 1)) / shots
            sem_star = np.sqrt(p_star * (1 - p_star) / shots)
            refit = fit_cosine(list(zip(phis, p_star, sem_star)), sem_floor=1.0 / (2 * shots))
            boot[zeta0].append(refit.contrast)
    delta = abs(measured[0.0] - measured[math.pi])
    sigma_delta = math.hypot(np.std(boot[0.0], ddof=1), np.std(boot[math.pi], ddof=1))
    significance_ok = delta > 5.0 * sigma_delta

    # monotonicity leg: analytic contrast difference grows with |zeta|
    diffs = []
    for mag in (0.25, 0.5, 1.0):
        cs = {}
        for zeta0 in (0.0, math.pi):
            fringe = sequence_fringes(spec, [SqueezeParam(mag, zeta0)])[0]
            cs[zeta0] = fit_cosine([(p, fringe.evaluate(float(p))[0], 0.0) for p in phis]).contrast
        diffs.append(abs(cs[0.0] - cs[math.pi]))
    monotone_ok = diffs[0] < diffs[1] < diffs[2]
    elapsed = time.time() - start
    report(9, "squeezed-state contrast asymmetry",
           significance_ok and monotone_ok and elapsed < 600.0, elapsed,
           f"dC={delta:.3f} = {delta / sigma_delta:.0f} sigma, diffs {['%.3f' % d for d in diffs]}")


def test_criterion_10_stability_statistics(tmp_path):
    from ionstrobe.stability import (
        PhaseNoiseModel,
        apply_reference_correction,
        simulate_phase_trace,
        windowed_phase_stat,
    )

    start = time.time()
    white = simulate_phase_trace(
        PhaseNoiseModel(white_sigma=0.1, sample_interval=0.05), 600.0, seed=2
    )
    w_short = windowed_phase_stat(white, 2.0, "window_std")
    w_long = windowed_phase_stat(white, 200.0, "window_std")
    white_ok = abs(w_short - w_long) / w_long < 0.10

    ratios = []
    for seed in range(12):
        walk = simulate_phase_trace(
            PhaseNoiseModel(rw_sigma=0.05, sample_interval=0.05), 2400.0, seed=30 + seed
        )
        ratios.append(
            windowed_phase_stat(walk, 200.0, "two_sample")
            / windowed_phase_stat(walk, 2.0, "two_sample")
        )
    walk_ok = abs(float(np.mean(ratios)) / math.sqrt(100.0) - 1.0) < 0.15

    drift = simulate_phase_trace(
        PhaseNoiseModel(drift_rate=0.01, sample_interval=0.1), 200.0, seed=0
    )
    corrected = apply_reference_correction(drift, 10.0)
    drift_ok = float(np.max(np.abs(corrected.phase))) < 0.05 * 2.0

    patterns = {}
    for name in ("table-stability-mw", "table-stability-ac"):
        out = tmp_path / f"{name}.txt"
        assert main(["stability", "--config", f"configs/{name}.yaml", "--out", str(out)]) == 0
        _, rows, _ = read_table(out)
        patterns[name] = rows[:, 2]  # two_sample_deg at 2/40/200 s
    mw = patterns["table-stability-mw"]
    ac = patterns["table-stability-ac"]
    demo_ok = mw[0] > mw[1] > mw[2] and ac[1] < ac[0] and ac[2] > ac[1]
    elapsed = time.time() - start
    report(10, "stability estimators and benchmark pattern",
           white_ok and walk_ok and drift_ok and demo_ok and elapsed < 120.0, elapsed,
           f"mw row {np.round(mw, 2)}, ac row {np.round(ac, 2)}")


def test_criterion_11_cli_determinism(tmp_path):
    start = time.time()
    fast = {
        "ramsey-scan": (
            "hilbert: {fock_dim: 48}\ntrain: {rabi_scale: 0.2795, n_flashes: 8}\n"
            "state: {alpha_abs: 1.0}\n"
            "scan: {phi_num: 5, outer_var: theta0, outer_values: [0.0, 1.5707963]}\n"
            "detection: {mode: shots, shots: 64, base_seed: 7}\n"
        ),
        "pattern-scan": (
            "pattern: {nx: 10, nz: 10, extent_nm: 160.0}\n"
            "detection: {mode: shots, shots: 100, base_seed: 8}\n"
        ),
        "trace-phase-space": (
            "hilbert: {fock_dim: 64}\ntrain: {rabi_scale: 0.2795}\n"
            "state: {alpha_abs: 1.0}\n"
            "decode: {alpha_max: 2.0, alpha_step: 0.5}\n"
            "scan: {phi_num: 8, outer_var: theta0, outer_values: [0.0, 1.5707963, 3.1415927]}\n"
            "detection: {mode: shots, shots: 128, base_seed: 9}\n"
        ),
        "squeeze-scan": (
            "hilbert: {fock_dim: 160}\ntrain: {rabi_scale: 0.2795}\n"
            "state: {zeta_abs: 0.5}\n"
            "scan: {phi_num: 5, outer_var: zeta0, outer_values: [0.0, 3.1415927]}\n"
            "detection: {mode: shots, shots: 64, base_seed: 10}\n"
        ),
        "stability": "stability: {white_sigma_rad: 0.2, rw_sigma_rad_per_sqrt_s: 0.01}\n",
    }
    all_ok = True
    for command, cfg_text in fast.items():
        cfg_path = tmp_path / f"{command}.yaml"
        cfg_path.write_text(cfg_text)
        out1 = tmp_path / f"{command}_1.txt"
        out2 = tmp_path / f"{command}_2.txt"
        assert main([command, "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main([command, "--config", str(cfg_path), "--out", str(out2)]) == 0
        identical = out1.read_bytes() == out2.read_bytes()
        for extra in ("backaction", "trace"):
            sib1 = tmp_path / f"{command}_1_{extra}.txt"
            sib2 = tmp_path / f"{command}_2_{extra}.txt"
            if sib1.exists():
                identical = identical and sib1.read_bytes() == sib2.read_bytes()
        all_ok = all_ok and identical
    elapsed = time.time() - start
    report(11, "byte-identical CLI re-runs for every command", all_ok, elapsed)
