"""Command-line interface: config-driven scans, decode tables, and reports.

Commands: ramsey-scan, pattern-scan, trace-phase-space, squeeze-scan,
build-tables, stability. All take --config and --out, plus optional --seed
(overrides detection.base_seed). Exit codes: 0 success, 2 configuration
error, 3 numerical failure. Same config and seed, same bytes, on any core
count: OpenBLAS runs one thread unless OPENBLAS_NUM_THREADS is set.
trace-phase-space builds its decode tables in the run; build-tables exports
them. Under train.rabi_scale: auto a command tunes its one sequence spec,
and every table it writes records the tuning in three footer lines:
tuned_rabi_scale, tune_evaluations and search_fock_dim.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .calibrate import (
    apply_tuning,
    build_decode_tables,
    fit_scan,
    tune_pulse_train,
    unwrap_sweep_phases,
)
from .dynamics import apply_dephasing
from .errors import ConfigError, DecodeError, FitError, IonstrobeError
from .fitting import bootstrap_pattern_uncertainty, fit_wave_pattern
from .hilbert import CoherentAmp
from .sequence import (
    PatternField,
    ScanSpec,
    SequenceSpec,
    characterize_reference_fringe,
    run_scan,
    sample_detection,
    sample_scan,
    scan_fringes,
    static_pattern_probe,
)
from .stability import apply_reference_correction, simulate_phase_trace, windowed_phase_stat
from .tableio import format_number, write_decode_tables, write_table

REALIZATION_INTERVAL_S = 0.010  # experimental cadence of interleaved realizations


def _sibling_path(out_path: str, tag: str) -> Path:
    p = Path(out_path)
    suffix = p.suffix or ".txt"
    return p.with_name(f"{p.stem}_{tag}{suffix}")


def _drift_for_scan(cfg: dict, scan: ScanSpec) -> np.ndarray | None:
    """Per-realization apparatus phases when noise injection is enabled."""
    if not cfg["scan"]["inject_phase_noise"]:
        return None
    model = replace(cfgmod.build_noise_model(cfg), sample_interval=REALIZATION_INTERVAL_S)
    n_real = scan.n_realizations
    duration = max(n_real, 10) * REALIZATION_INTERVAL_S
    trace = simulate_phase_trace(model, duration, seed=cfg["detection"]["base_seed"] + 7)
    return trace.phase[:n_real]


def _tuned_sequence(cfg: dict, spec: SequenceSpec) -> tuple[SequenceSpec, list[str]]:
    """`spec` with its train at train.rabi_scale, and the footer lines that
    record the tuning: under auto the pi/2 tuner runs on `spec`, and the
    lines give its scale, probe count and search space; a set scale has none."""
    scale = cfg["train"]["rabi_scale"]
    if scale != "auto":
        return apply_tuning(spec, scale), []
    tuning = tune_pulse_train(spec)
    return apply_tuning(spec, tuning.rabi_scale), [
        f"tuned_rabi_scale: {format_number(tuning.rabi_scale)}",
        f"tune_evaluations: {tuning.n_evaluations}",
        f"search_fock_dim: {tuning.search_fock_dim}",
    ]


def _write_scan(path, title: str, records, cfg: dict, tuning: list[str]) -> None:
    rows = [(r.outer, r.phi, r.p_down_mean, r.p_down_sem, r.sigma_z, r.delta_n) for r in records]
    write_table(path, title, ["outer", "phi_rad", "p_down", "p_down_sem", "sigma_z", "delta_n"],
                rows, cfg, cfg["detection"]["base_seed"], summary_lines=tuning)


def cmd_ramsey_scan(cfg: dict, args) -> None:
    scan = cfgmod.build_scan_spec(cfg)  # its config checks come before the tuner
    spec, tuning = _tuned_sequence(cfg, cfgmod.build_sequence_spec(cfg))
    records = run_scan(scan, spec, drift_phases=_drift_for_scan(cfg, scan))
    _write_scan(args.out, "stroboscopic Ramsey scan", records, cfg, tuning)


def cmd_squeeze_scan(cfg: dict, args) -> None:
    if cfg["state"]["zeta_abs"] <= 0:
        raise ConfigError("squeeze-scan needs state.zeta_abs > 0")
    scan = cfgmod.build_scan_spec(cfg)
    spec, tuning = _tuned_sequence(cfg, cfgmod.build_sequence_spec(cfg))
    fringes = scan_fringes(scan, spec)
    records = sample_scan(scan, fringes, _drift_for_scan(cfg, scan))
    _write_scan(args.out, "squeezed-state stroboscopic scan", records, cfg, tuning)
    # companion back-action table on the phi-decimated grid, from the same fringes
    ba_scan = replace(scan, phi_grid=scan.phi_grid[::2])
    ba_records = sample_scan(ba_scan, fringes, _drift_for_scan(cfg, ba_scan))
    _write_scan(_sibling_path(args.out, "backaction"), "squeezed-state back-action scan",
                ba_records, cfg, tuning)


def cmd_pattern_scan(cfg: dict, args) -> None:
    pat = cfg["pattern"]
    if pat["nx"] * pat["nz"] < 30:
        raise ConfigError(f"pattern.nx * pattern.nz is {pat['nx'] * pat['nz']}; the pattern "
                          "fit needs at least 30 points")
    field = PatternField(
        wavelength=pat["wavelength_nm"] * 1e-9,
        rotation=pat["rotation_rad"],
        phase_origin=pat["phase_origin_rad"],
        amplitude=pat["contrast"],
    )
    extent = pat["extent_nm"] * 1e-9
    shots, seed0 = cfgmod.detection_shots(cfg), cfg["detection"]["base_seed"]
    # x-major points, each detected with seed base_seed + its index
    with cfgmod.naming("pattern.nx and pattern.nz", cfgmod.CANNOT_RESERVE):
        xs, zs = (np.linspace(-extent, extent, pat[n]) for n in ("nx", "nz"))
        x, z = (grid.ravel() for grid in np.meshgrid(xs, zs, indexing="ij"))
        probe = static_pattern_probe(x, z, field)
    points = [(xi, zi, *sample_detection(p, shots, seed0 + idx))
              for idx, (xi, zi, p) in enumerate(zip(x, z, probe))]
    rows = [(xi * 1e9, zi * 1e9, mean, sem) for xi, zi, mean, sem in points]
    sem_floor = None if shots is None else 1.0 / (2.0 * shots)
    columns, summary = ["x_nm", "z_nm", "p_down", "p_down_sem"], []
    try:
        fit = fit_wave_pattern(points, sem_floor=sem_floor)
        summary += [
            f"fit_wavelength_nm: {fit.wavelength * 1e9:.6g}",
            f"fit_rotation_rad: {fit.rotation:.6g}",
            f"fit_amplitude: {fit.amplitude:.6g}",
            f"fit_phase_origin_rad: {fit.phase_origin:.6g}",
            f"fit_residual_rms: {fit.residual_rms:.6g}",
        ]
        if shots is not None:
            with cfgmod.naming("pattern.bootstrap", cfgmod.CANNOT_RESERVE):  # the resample array
                unc = bootstrap_pattern_uncertainty(
                    points, fit, n_boot=pat["bootstrap"], seed=seed0 + 1, sem_floor=sem_floor
                )
            summary += [
                f"fit_wavelength_std_nm: {unc['wavelength_std'] * 1e9:.3g}",
                f"fit_rotation_std_rad: {unc['rotation_std']:.3g}",
            ]
    except FitError as exc:  # the scan data, and a converged fit, are written all the same
        stage = "bootstrap" if summary else "fit"
        write_table(args.out, f"static pattern scan ({stage} failed)", columns, rows, cfg, seed0,
                    summary_lines=summary + [f"{stage}_error: {exc}"])
        raise FitError(f"{exc}; scan data written to {args.out}") from exc
    write_table(args.out, "static pattern scan", columns, rows, cfg, seed0, summary_lines=summary)


def _envelope_refusal(cfg: dict, spec: SequenceSpec, reason: str) -> ConfigError:
    """A config error naming dephasing.tau_us, with the envelope at the train's end."""
    elapsed = spec.analysis.total_duration
    return ConfigError(f"dephasing.tau_us: the {cfg['dephasing']['envelope']} envelope is "
                       f"{apply_dephasing(spec.dephasing, elapsed):g} at the train's end, "
                       f"{elapsed * 1e6:g} us, so {reason}")


def _tuned_decode_tables(cfg: dict):
    """(tuned spec, tuning lines, decode tables) of a decode command, the
    tables over the amplitudes 0, alpha_step, ... up to alpha_max; at least 3.
    A decode reads fringe phases, so a coherence envelope under machine
    epsilon at the train's end, where every p_down rounds to a flat fringe,
    is a config error naming dephasing.tau_us, before any tuning. A map that
    is not monotone names the keys that turn it."""
    spec = cfgmod.build_sequence_spec(cfg)
    dec = cfg["decode"]
    # a grid past numpy's size limit, or past memory
    with cfgmod.naming("decode.alpha_max and decode.alpha_step", cfgmod.CANNOT_RESERVE):
        alpha_grid = np.arange(0.0, dec["alpha_max"] + dec["alpha_step"] / 2.0, dec["alpha_step"])
    if len(alpha_grid) < 3:
        raise ConfigError(f"decode.alpha_max and decode.alpha_step give {len(alpha_grid)} "
                          "decode amplitudes, need at least 3")
    if apply_dephasing(spec.dephasing, spec.analysis.total_duration) < sys.float_info.epsilon:
        raise _envelope_refusal(cfg, spec, "there is no fringe phase to decode")
    spec, tuning = _tuned_sequence(cfg, spec)
    try:
        return spec, tuning, build_decode_tables(spec, cfgmod.build_units(cfg), alpha_grid)
    except DecodeError as exc:  # the contrast's first zero lies near eta |alpha| omega tau = pi
        raise DecodeError(f"{exc}; shorten train.flash_ns or lower decode.alpha_max") from exc


def cmd_build_tables(cfg: dict, args) -> None:
    _, tuning, tables = _tuned_decode_tables(cfg)
    write_decode_tables(tables, args.out, cfg, tuning)


def cmd_trace_phase_space(cfg: dict, args) -> None:
    # the config checks come before the tuner, which _tuned_sequence may run
    if cfg["state"]["zeta_abs"] > 0:
        raise ConfigError("trace-phase-space decodes coherent displacements; unset state.zeta_abs")
    if cfg["scan"]["outer_var"] not in ("none", "theta0"):
        raise ConfigError("trace-phase-space scans theta0: scan.outer_var must be theta0 or none")
    # the outer values are theta0 under outer_var none too, and bounded as such
    scan = cfgmod.build_scan_spec({**cfg, "scan": {**cfg["scan"], "outer_var": "theta0"}})
    # every theta0 row is a fringe fit, so the phase grid must meet fit_cosine's conditions
    span = max(scan.phi_grid) - min(scan.phi_grid)
    if len(scan.phi_grid) < 5:
        raise ConfigError(f"scan.phi_num is {len(scan.phi_grid)}; the fringe fits need at least 5")
    if span < math.pi:
        raise ConfigError(f"scan.phi_start_rad and scan.phi_stop_rad give a phase span of "
                          f"{span:.3f} rad; the fringe fits need at least pi")
    spec, tuning, tables = _tuned_decode_tables(cfg)
    alpha = cfg["state"]["alpha_abs"]
    ref = characterize_reference_fringe(spec)
    anchor = ref.phase

    # the reference scan differs only in its seeds, so it sees the same drift
    drift = _drift_for_scan(cfg, scan)
    records = run_scan(scan, replace(spec, excitation=CoherentAmp(alpha, 0.0)), drift)
    ref_scan = replace(scan, base_seed=scan.base_seed + (1 << 22))
    # every reference row, and its interleaved reference, is the anchor's alpha = 0 fringe
    ref_records = sample_scan(ref_scan, [ref] * len(scan.outer_grid), drift)

    sweep, refs = fit_scan(scan, records), fit_scan(ref_scan, ref_records)
    # flat sweep fringes would decode their rounding noise as a trace
    if not any(fit.phase_identifiable for fit in sweep):
        reason = "no theta0 sweep fringe has an identifiable phase"
        if spec.dephasing.envelope != "none":
            raise _envelope_refusal(cfg, spec, reason)
        raise DecodeError(reason)
    row_sets = (
        (alpha, sweep, unwrap_sweep_phases([f.phase - anchor for f in sweep])),
        (0.0, refs, [math.remainder(f.phase - anchor, 2.0 * math.pi) for f in refs]),
    )
    rows = []
    # a phase or contrast outside the tables is clamped and flagged per row
    for row_alpha, fits, phases in row_sets:
        for theta0, fit, phase in zip(scan.outer_grid, fits, phases):
            point = tables.decode(phase, fit.contrast)
            rows.append((theta0, row_alpha, phase, fit.contrast, point.x * 1e9,
                         point.p_mag / 1e-27, float(point.x_clamped or point.p_clamped)))
    write_table(
        args.out,
        "decoded phase-space trace",
        ["theta0_rad", "alpha_abs", "phi0_rad", "contrast", "X_nm", "P_zNus", "clamped"],
        rows,
        cfg,
        cfg["detection"]["base_seed"],
        summary_lines=tuning,
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported as the error below
def cmd_stability(cfg: dict, args) -> None:
    model = cfgmod.build_noise_model(cfg)
    st = cfg["stability"]
    seed = cfg["detection"]["base_seed"]
    # a grid too large to allocate fails before any sample is drawn
    with cfgmod.naming("stability.duration_s and stability.sample_interval_s",
                       (ConfigError, *cfgmod.CANNOT_RESERVE)):
        trace = simulate_phase_trace(model, st["duration_s"], seed=seed)
    with cfgmod.naming("stability.reference_interval_s"):
        corrected = apply_reference_correction(trace, st["reference_interval_s"])
    rows = []
    with cfgmod.naming("stability.windows_s"):
        for window in st["windows_s"]:
            rows.append(
                (
                    window,
                    math.degrees(windowed_phase_stat(trace, window, "window_std")),
                    math.degrees(windowed_phase_stat(trace, window, "two_sample")),
                    math.degrees(windowed_phase_stat(corrected, window, "window_std")),
                    math.degrees(windowed_phase_stat(corrected, window, "two_sample")),
                )
            )
    if not np.isfinite(rows).all():
        raise ConfigError("stability.white_sigma_rad, stability.rw_sigma_rad_per_sqrt_s and "
                          "stability.drift_rate_rad_per_s give a phase statistic that is not finite")
    write_table(
        args.out,
        "phase stability report",
        ["window_s", "window_std_deg", "two_sample_deg",
         "corrected_window_std_deg", "corrected_two_sample_deg"],
        rows,
        cfg,
        seed,
    )
    trace_rows = list(zip(trace.t, trace.phase))
    write_table(_sibling_path(args.out, "trace"), "phase trace",
                ["t_s", "phase_rad"], trace_rows, cfg, seed)


COMMANDS = {
    "ramsey-scan": cmd_ramsey_scan,
    "pattern-scan": cmd_pattern_scan,
    "trace-phase-space": cmd_trace_phase_space,
    "squeeze-scan": cmd_squeeze_scan,
    "build-tables": cmd_build_tables,
    "stability": cmd_stability,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionstrobe",
        description="Stroboscopic spin-motion simulator for a single trapped ion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", required=True, help="output table path")
        p.add_argument("--seed", type=int, default=None,
                       help="override detection.base_seed")
    return parser


# what hashlib falls back to when OpenSSL's _hashlib cannot be imported; without
# one of them it would log an error to stderr for each hash it cannot build
_BUILTIN_HASHES = ("_md5", "_sha1", "_blake2", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512"))


def _keep_openssl_out() -> None:
    """Block `_hashlib` for this process, unless it is loaded already or one
    of hashlib's built-in fallbacks is missing."""
    # numpy.random imports secrets, hmac and hashlib, which map OpenSSL's libcrypto
    # for entropy that seeded draws never read. Nothing the CLI hashes is for
    # security, and PCG64 and SeedSequence hash nothing, so the built-in hashes
    # change no output.
    if "_hashlib" not in sys.modules and all(map(importlib.util.find_spec, _BUILTIN_HASHES)):
        sys.modules["_hashlib"] = None  # its import raises ImportError; hmac and hashlib catch it


def main(argv=None) -> int:
    _keep_openssl_out()
    args = _build_parser().parse_args(argv)
    try:
        with cfgmod.naming(f"--config {args.config}", OSError):
            cfg = cfgmod.load_config(args.config)
        if args.seed is not None:
            cfg["detection"]["base_seed"] = cfgmod.check_value("detection", "base_seed", args.seed)
        # the commands read no file, so a file error here is from writing --out
        with cfgmod.naming(f"--out {args.out}", OSError):
            COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"ionstrobe: config error: {exc}", file=sys.stderr)
        return 2
    except IonstrobeError as exc:
        print(f"ionstrobe: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # one a size key does not name
        print(f"ionstrobe: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
