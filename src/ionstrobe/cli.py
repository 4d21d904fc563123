"""Command-line interface: config-driven scans, calibrations, and reports.

Commands: ramsey-scan, pattern-scan, trace-phase-space, squeeze-scan,
calibrate-train, build-tables, stability. All take --config and --out,
plus optional --seed (overrides detection.base_seed) and --threads (accepted
and ignored). Exit codes: 0 success, 2 configuration error, 3 numerical
failure. Outputs are bit-stable: identical config and seed give identical
bytes at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import copy
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .calibrate import (
    apply_tuning,
    build_decode_tables,
    tune_pulse_train,
    unwrap_sweep_phases,
)
from .errors import ConfigError, FitError, IonstrobeError
from .fitting import bootstrap_pattern_uncertainty, fit_cosine, fit_wave_pattern
from .hilbert import CoherentAmp
from .sequence import (
    PatternField,
    ScanSpec,
    characterize_reference_fringe,
    run_scan,
    sample_detection,
    static_pattern_probe,
)
from .stability import apply_reference_correction, simulate_phase_trace, windowed_phase_stat
from .tableio import (
    config_hash,
    read_decode_tables,
    write_decode_tables,
    write_table,
)

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
    n_real = len(scan.phi_grid) * len(scan.outer_grid) * (2 if scan.interleave_reference else 1)
    duration = max(n_real, 10) * REALIZATION_INTERVAL_S
    trace = simulate_phase_trace(model, duration, seed=cfg["detection"]["base_seed"] + 7)
    return trace.phase[:n_real]


@contextmanager
def _naming(key: str, errors=(ConfigError, OSError, ValueError)):
    """Re-raise an error of type `errors` (by default a config, file or parse
    error) inside the block as a ConfigError naming `key`."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _tuned_sequence(cfg: dict):
    return apply_tuning(cfgmod.build_sequence_spec(cfg), cfgmod.resolve_tuning(cfg))


def cmd_ramsey_scan(cfg: dict, args) -> None:
    spec = _tuned_sequence(cfg)
    scan = cfgmod.build_scan_spec(cfg)
    records = run_scan(scan, spec, drift_phases=_drift_for_scan(cfg, scan))
    rows = [
        (r.outer, r.phi, r.p_down_mean, r.p_down_sem, r.sigma_z, r.delta_n) for r in records
    ]
    write_table(
        args.out,
        "stroboscopic Ramsey scan",
        ["outer", "phi_rad", "p_down", "p_down_sem", "sigma_z", "delta_n"],
        rows,
        cfg,
        cfg["detection"]["base_seed"],
    )


def cmd_squeeze_scan(cfg: dict, args) -> None:
    # squeezed-state probing samples every second oscillation period
    cfg = copy.deepcopy(cfg)
    cfg["train"]["cycles_per_flash"] = 2
    cfg["train"]["cycle_ns"] = 0.0
    if cfg["state"]["zeta_abs"] <= 0:
        raise ConfigError("squeeze-scan needs state.zeta_abs > 0")
    spec = _tuned_sequence(cfg)
    scan = cfgmod.build_scan_spec(cfg)
    records = run_scan(scan, spec, drift_phases=_drift_for_scan(cfg, scan))
    columns = ["outer", "phi_rad", "p_down", "p_down_sem", "sigma_z", "delta_n"]
    rows = [(r.outer, r.phi, r.p_down_mean, r.p_down_sem, r.sigma_z, r.delta_n) for r in records]
    write_table(args.out, "squeezed-state stroboscopic scan", columns, rows, cfg,
                cfg["detection"]["base_seed"])
    # companion back-action table on the phi-decimated grid
    ba_scan = replace(scan, phi_grid=scan.phi_grid[::2])
    ba_records = run_scan(ba_scan, spec, drift_phases=_drift_for_scan(cfg, ba_scan))
    ba_rows = [(r.outer, r.phi, r.p_down_mean, r.p_down_sem, r.sigma_z, r.delta_n)
               for r in ba_records]
    write_table(_sibling_path(args.out, "backaction"), "squeezed-state back-action scan",
                columns, ba_rows, cfg, cfg["detection"]["base_seed"])


def cmd_pattern_scan(cfg: dict, args) -> None:
    pat = cfg["pattern"]
    field = PatternField(
        wavelength=pat["wavelength_nm"] * 1e-9,
        rotation=pat["rotation_rad"],
        phase_origin=pat["phase_origin_rad"],
        amplitude=pat["contrast"],
    )
    extent = pat["extent_nm"] * 1e-9
    xs = np.linspace(-extent, extent, pat["nx"])
    zs = np.linspace(-extent, extent, pat["nz"])
    shots = cfg["detection"]["shots"]
    seed0 = cfg["detection"]["base_seed"]
    rows = []
    points = []
    idx = 0
    for x in xs:
        for z in zs:
            p = static_pattern_probe(x, z, field)
            if cfg["detection"]["mode"] == "shots":
                mean, sem = sample_detection(p, shots, seed0 + idx)
            else:
                mean, sem = p, 0.0
            rows.append((x * 1e9, z * 1e9, mean, sem))
            points.append((x, z, mean, sem))
            idx += 1
    sem_floor = 1.0 / (2.0 * shots) if cfg["detection"]["mode"] == "shots" else None
    try:
        fit = fit_wave_pattern(points, sem_floor=sem_floor)
    except FitError as exc:
        write_table(args.out, "static pattern scan (fit failed)",
                    ["x_nm", "z_nm", "p_down", "p_down_sem"], rows, cfg, seed0,
                    summary_lines=[f"fit_error: {exc}"])
        raise FitError(f"{exc}; scan data written to {args.out}") from exc
    summary = [
        f"fit_wavelength_nm: {fit.wavelength * 1e9:.6g}",
        f"fit_rotation_rad: {fit.rotation:.6g}",
        f"fit_amplitude: {fit.amplitude:.6g}",
        f"fit_phase_origin_rad: {fit.phase_origin:.6g}",
        f"fit_residual_rms: {fit.residual_rms:.6g}",
    ]
    if cfg["detection"]["mode"] == "shots":
        unc = bootstrap_pattern_uncertainty(
            points, fit, n_boot=pat["bootstrap"], seed=seed0 + 1, sem_floor=sem_floor
        )
        summary += [
            f"fit_wavelength_std_nm: {unc['wavelength_std'] * 1e9:.3g}",
            f"fit_rotation_std_rad: {unc['rotation_std']:.3g}",
        ]
    write_table(args.out, "static pattern scan",
                ["x_nm", "z_nm", "p_down", "p_down_sem"], rows, cfg, seed0,
                summary_lines=summary)


def _decode_config_subset(cfg: dict) -> dict:
    keys = ("hilbert", "mode", "units", "drive", "train", "dephasing", "decode")
    return {k: cfg[k] for k in keys}


def _build_tables(cfg: dict, spec):
    """Decode tables over the alpha grid 0, alpha_step, ... up to alpha_max."""
    dec = cfg["decode"]
    alpha_grid = np.arange(0.0, dec["alpha_max"] + dec["alpha_step"] / 2.0, dec["alpha_step"])
    return build_decode_tables(spec, cfgmod.build_units(cfg), alpha_grid)


def _resolve_tables(cfg: dict, spec):
    """Load decode tables if cached with a matching config hash, else build
    (and cache) them; a table file of another format version is rebuilt."""
    subset = _decode_config_subset(cfg)
    path = cfg["decode"]["tables_path"]
    if path and Path(path).exists():
        with _naming("decode.tables_path"):
            tables, stored = read_decode_tables(path)
        if tables is not None and stored == config_hash(subset):
            return tables
    tables = _build_tables(cfg, spec)
    if path:
        with _naming("decode.tables_path"):
            write_decode_tables(tables, path, subset)
    return tables


def cmd_build_tables(cfg: dict, args) -> None:
    tables = _build_tables(cfg, _tuned_sequence(cfg))
    write_decode_tables(tables, args.out, _decode_config_subset(cfg))


def cmd_trace_phase_space(cfg: dict, args) -> None:
    spec = _tuned_sequence(cfg)
    if cfg["state"]["zeta_abs"] > 0:
        raise ConfigError("trace-phase-space decodes coherent displacements; unset state.zeta_abs")
    alpha = cfg["state"]["alpha_abs"]
    tables = _resolve_tables(cfg, spec)
    anchor = characterize_reference_fringe(spec).phase

    theta_grid = tuple(float(v) for v in cfg["scan"]["outer_values"])
    base_scan = cfgmod.build_scan_spec(cfg)
    scan = replace(base_scan, outer_grid=theta_grid, outer_var="theta0")
    # the reference scan differs only in its seeds, so it sees the same drift
    drift = _drift_for_scan(cfg, scan)
    records = run_scan(scan, replace(spec, excitation=CoherentAmp(alpha, 0.0)), drift)
    ref_scan = replace(scan, base_seed=scan.base_seed + (1 << 22))
    ref_records = run_scan(ref_scan, replace(spec, excitation=CoherentAmp(0.0, 0.0)), drift)

    sem_floor = (
        1.0 / (2.0 * scan.shots) if cfg["detection"]["mode"] == "shots" else None
    )
    n_phi = len(scan.phi_grid)

    def _sweep_fits(recs):
        fits = []
        for k in range(len(theta_grid)):
            chunk = recs[k * n_phi : (k + 1) * n_phi]
            fits.append(
                fit_cosine([(r.phi, r.p_down_mean, r.p_down_sem) for r in chunk],
                           sem_floor=sem_floor)
            )
        return fits

    sweep, refs = _sweep_fits(records), _sweep_fits(ref_records)
    row_sets = (
        (alpha, sweep, unwrap_sweep_phases([f.phase - anchor for f in sweep])),
        (0.0, refs, [math.remainder(f.phase - anchor, 2.0 * math.pi) for f in refs]),
    )
    rows = []
    # decode-domain violations are flagged per row, never fatal for a trace
    for row_alpha, fits, phases in row_sets:
        for theta0, fit, phase in zip(theta_grid, fits, phases):
            point = tables.decode(phase, fit.contrast, strict=False)
            rows.append((theta0, row_alpha, phase, fit.contrast, point.x * 1e9,
                         point.p_mag / 1e-27, float(point.x_clamped or point.p_clamped)))
    write_table(
        args.out,
        "decoded phase-space trace",
        ["theta0_rad", "alpha_abs", "phi0_rad", "contrast", "X_nm", "P_zNus", "clamped"],
        rows,
        cfg,
        cfg["detection"]["base_seed"],
    )


def cmd_calibrate_train(cfg: dict, args) -> None:
    base = cfgmod.build_sequence_spec(cfg)
    base = replace(base, excitation=CoherentAmp(0.0, 0.0))
    tuning = tune_pulse_train(base, tol=cfg["train"]["tune_tol"])
    duration_us = base.analysis.total_duration * 1e6
    write_table(
        args.out,
        "pi/2 pulse-train tuning",
        ["phase_step_rad", "rabi_scale", "achieved_sigma_z", "n_evaluations",
         "total_duration_us"],
        [(tuning.phase_step, tuning.rabi_scale, tuning.achieved_sigma_z,
          tuning.n_evaluations, duration_us)],
        cfg,
        cfg["detection"]["base_seed"],
        summary_lines=[f"total_duration_us: {duration_us:.6g}"],
    )


def cmd_stability(cfg: dict, args) -> None:
    model = cfgmod.build_noise_model(cfg)
    st = cfg["stability"]
    seed = cfg["detection"]["base_seed"]
    with _naming("stability.duration_s"):
        trace = simulate_phase_trace(model, st["duration_s"], seed=seed)
    with _naming("stability.reference_interval_s"):
        corrected = apply_reference_correction(trace, st["reference_interval_s"])
    rows = []
    with _naming("stability.windows_s"):
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
    "calibrate-train": cmd_calibrate_train,
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
        p.add_argument("--threads", type=int, default=1,
                       help="ignored; accepted so existing command lines keep working")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _naming(f"--config {args.config}", OSError):
            cfg = cfgmod.load_config(args.config)
        if args.seed is not None:
            cfg["detection"]["base_seed"] = cfgmod.check_value("detection", "base_seed", args.seed)
        # the commands read no file but decode.tables_path, whose errors
        # already name it, so a file error here is from writing --out
        with _naming(f"--out {args.out}", OSError):
            COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"ionstrobe: config error: {exc}", file=sys.stderr)
        return 2
    except IonstrobeError as exc:
        print(f"ionstrobe: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
