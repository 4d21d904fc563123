"""Output checks for the benchmark workloads.

Every check is a property that holds on any seed, computed independently
of the package: the tables are parsed here, the physical scales and the
stability statistics are recomputed here with plain numpy. Each check
takes a command's output table and config and returns a list of failure
messages; an empty list means the output holds.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

HBAR = 1.054571817e-34  # J s
AMU = 1.66053906660e-27  # kg


def read_table(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Columns by name and the `# key: value` summary lines of a table."""
    columns: list[str] = []
    rows: list[list[float]] = []
    summary: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("# columns:"):
            columns = line.split(":", 1)[1].split()
        elif line.startswith("#   ") or line.startswith("# config:"):
            continue
        elif line.startswith("# ") and ":" in line:
            key, value = line[2:].split(":", 1)
            summary[key.strip()] = value.strip()
        elif line and not line.startswith("#"):
            rows.append([float(v) for v in line.split()])
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
    return {name: data[:, i] for i, name in enumerate(columns)}, summary


def _fail_if(cond: bool, msg: str) -> list[str]:
    return [msg] if cond else []


def sigma_z_identity(table: dict, name: str) -> list[str]:
    err = float(np.max(np.abs(table["sigma_z"] - (1.0 - 2.0 * table["p_down"]))))
    return _fail_if(err > 1e-9, f"{name}: sigma_z != 1 - 2 p_down (max error {err:.3g})")


def shot_rows(table: dict, shots: int, name: str) -> list[str]:
    """p_down * shots is a whole count and the sem is the binomial one."""
    p = table["p_down"]
    counts = p * shots
    out = _fail_if(float(np.max(np.abs(counts - np.round(counts)))) > 1e-6,
                   f"{name}: p_down * {shots} is not an integer")
    sem = np.sqrt(p * (1.0 - p) / shots)
    err = float(np.max(np.abs(table["p_down_sem"] - sem)))
    return out + _fail_if(err > 1e-9, f"{name}: p_down_sem is not sqrt(p(1-p)/shots) "
                                      f"(max error {err:.3g})")


def exact_cosine_sweeps(table: dict, name: str) -> list[str]:
    """Each phi sweep at fixed outer value is a + b cos(phi) + c sin(phi)."""
    worst = 0.0
    for outer in np.unique(table["outer"]):
        sel = table["outer"] == outer
        phi, p = table["phi_rad"][sel], table["p_down"][sel]
        design = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
        coef, *_ = np.linalg.lstsq(design, p, rcond=None)
        worst = max(worst, float(np.max(np.abs(design @ coef - p))))
    return _fail_if(worst > 1e-9, f"{name}: phi sweep is not an exact cosine "
                                  f"(max residual {worst:.3g})")


# the headline ion and mode, which the demo configs leave at their defaults
MASS = 25.0 * AMU  # kg
OMEGA = 2.0 * math.pi * 1.3e6  # rad/s
X_ZPF = math.sqrt(HBAR / (2.0 * MASS * OMEGA))  # m
P_ZPF = math.sqrt(HBAR * MASS * OMEGA / 2.0)  # kg m/s


def _config(path: Path) -> dict:
    return yaml.safe_load(path.read_text())


def check_fig4(table: Path, config: Path) -> list[str]:
    """Decoded X and P follow the planted coherent state; nothing is clamped."""
    cfg = _config(config)
    alpha = cfg["state"]["alpha_abs"]
    t, _ = read_table(table)
    n_theta = len(cfg["scan"]["outer_values"])
    exc = t["alpha_abs"] == alpha
    ref = t["alpha_abs"] == 0.0
    failures = _fail_if(exc.sum() != n_theta or ref.sum() != n_theta,
                        f"fig4: expected {n_theta} rows at alpha {alpha} and at 0")
    # X_nm in nm; P_zNus in zN us = 1e-27 kg m/s
    x_full = 2.0 * X_ZPF * alpha * 1e9
    p_full = 2.0 * P_ZPF * alpha / 1e-27
    theta = t["theta0_rad"][exc]
    x_err = float(np.max(np.abs(t["X_nm"][exc] - x_full * np.cos(theta)))) / x_full
    p_err = float(np.max(np.abs(t["P_zNus"][exc] - p_full * np.abs(np.sin(theta))))) / p_full
    failures += _fail_if(x_err > 0.05, f"fig4: decoded X off by {x_err:.1%} of 2 x_zpf alpha")
    failures += _fail_if(p_err > 0.10, f"fig4: decoded P off by {p_err:.1%} of 2 p_zpf alpha")
    x0 = float(np.max(np.abs(t["X_nm"][ref]))) / x_full
    p0 = float(np.max(np.abs(t["P_zNus"][ref]))) / p_full
    failures += _fail_if(x0 > 1e-6 or p0 > 1e-6, f"fig4: alpha = 0 rows decode to "
                                                 f"|X| {x0:.3g}, |P| {p0:.3g} of full scale")
    return failures + _fail_if(bool(np.any(t["clamped"] != 0)), "fig4: some rows are clamped")


def check_analytic_scan(table: Path, config: Path) -> list[str]:
    t, _ = read_table(table)
    return sigma_z_identity(t, table.stem) + exact_cosine_sweeps(t, table.stem)


def check_shot_scan(table: Path, config: Path) -> list[str]:
    t, _ = read_table(table)
    shots = _config(config)["detection"]["shots"]
    return sigma_z_identity(t, table.stem) + shot_rows(t, shots, table.stem)


def check_figS4(table: Path, config: Path) -> list[str]:
    """Both tables are exact cosines; the back-action table repeats even-phi rows."""
    ba_path = table.with_name(f"{table.stem}_backaction{table.suffix}")
    failures = check_analytic_scan(table, config) + check_analytic_scan(ba_path, config)
    main, _ = read_table(table)
    ba, _ = read_table(ba_path)
    n_phi = _config(config)["scan"]["phi_num"]
    even = (np.arange(len(main["phi_rad"])) % n_phi) % 2 == 0
    if len(ba["phi_rad"]) != int(even.sum()):
        return failures + [f"{ba_path.stem}: row count differs from the even-phi rows"]
    err = max(float(np.max(np.abs(ba[c] - main[c][even]))) for c in ba)
    return failures + _fail_if(err > 1e-12, f"{ba_path.stem}: differs from the main "
                                            f"table's even-phi rows by {err:.3g}")


def check_fig2c(table: Path, config: Path) -> list[str]:
    """The pattern fit recovers the planted wavelength and rotation."""
    pattern = _config(config)["pattern"]
    _, summary = read_table(table)
    wavelength = float(summary["fit_wavelength_nm"])
    rotation = float(summary["fit_rotation_rad"])
    return (_fail_if(abs(wavelength - pattern["wavelength_nm"]) > 2.0,
                     f"fig2c: fitted wavelength {wavelength} nm")
            + _fail_if(abs(rotation - pattern["rotation_rad"]) > 0.03,
                       f"fig2c: fitted rotation {rotation} rad"))


def _window_std(phase: np.ndarray, m: int) -> float:
    n_win = phase.size // m
    return float(np.mean([np.std(phase[k * m:(k + 1) * m], ddof=1) for k in range(n_win)]))


def _two_sample(phase: np.ndarray, m: int) -> float:
    n_win = phase.size // m
    means = np.array([phase[k * m:(k + 1) * m].mean() for k in range(n_win)])
    return float(np.sqrt(np.mean((means[1:] - means[:-1]) ** 2) / 2.0))


def _reference_corrected(t: np.ndarray, phase: np.ndarray, stride: int) -> np.ndarray:
    """Phase minus the straight lines through every stride-th sample and the last."""
    knots = sorted(set(range(0, t.size, stride)) | {t.size - 1})
    out = phase.copy()
    for a, b in zip(knots[:-1], knots[1:]):
        frac = (t[a:b + 1] - t[a]) / (t[b] - t[a])
        out[a:b + 1] = phase[a:b + 1] - (phase[a] + frac * (phase[b] - phase[a]))
    return out


def check_stability(table: Path, config: Path) -> list[str]:
    """Every statistic in the report matches a recomputation from the _trace file."""
    st = _config(config)["stability"]
    report, _ = read_table(table)
    trace, _ = read_table(table.with_name(f"{table.stem}_trace{table.suffix}"))
    t, phase = trace["t_s"], trace["phase_rad"]
    dt = st["sample_interval_s"]
    corrected = _reference_corrected(t, phase, int(round(st["reference_interval_s"] / dt)))
    failures = _fail_if(list(report["window_s"]) != [float(w) for w in st["windows_s"]],
                        "stability: report windows differ from the config")
    worst = 0.0
    for i, window in enumerate(report["window_s"]):
        m = int(round(window / dt))
        expect = {
            "window_std_deg": _window_std(phase, m),
            "two_sample_deg": _two_sample(phase, m),
            "corrected_window_std_deg": _window_std(corrected, m),
            "corrected_two_sample_deg": _two_sample(corrected, m),
        }
        for col, rad in expect.items():
            worst = max(worst, abs(report[col][i] - math.degrees(rad)))
    return failures + _fail_if(worst > 1e-9, f"stability: report differs from the "
                                             f"recomputed statistics by {worst:.3g} deg")
