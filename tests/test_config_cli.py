"""Config validation and end-to-end CLI runs on small workloads."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ionstrobe
from ionstrobe.calibrate import DecodeTables
from ionstrobe.cli import _decode_config_subset, main
from ionstrobe.config import (
    DEFAULTS,
    SCHEMA,
    build_dephasing,
    build_excitation,
    build_mode,
    build_noise_model,
    build_scan_spec,
    build_sequence_spec,
    build_train,
    build_units,
    load_config,
    merge_config,
    resolve_eta,
    resolve_tuning,
)
from ionstrobe.errors import ConfigError, TruncationError
from ionstrobe.tableio import config_hash, read_decode_tables, read_table, write_decode_tables

FAST_SCAN = """
hilbert: {fock_dim: 48}
train: {rabi_scale: 0.2795, n_flashes: 10}
state: {alpha_abs: 1.0}
scan:
  phi_num: 6
  outer_var: theta0
  outer_values: [0.0, 1.5707963]
detection: {mode: shots, shots: 64, base_seed: 11}
"""


def write_cfg(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_pass_through(self):
        cfg = merge_config({})
        assert cfg == DEFAULTS

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section 'hilbertt'"):
            merge_config({"hilbertt": {}})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="scan.phi_numm"):
            merge_config({"scan": {"phi_numm": 10}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="hilbert.fock_dim"):
            merge_config({"hilbert": {"fock_dim": 12.5}})
        with pytest.raises(ConfigError, match="mode.n_th"):
            merge_config({"mode": {"n_th": "warm"}})

    def test_eta_from_geometry(self):
        cfg = merge_config({"drive": {"eta": "geometry"}})
        assert resolve_eta(cfg) == pytest.approx(0.374, abs=0.002)

    def test_alpha_and_zeta_exclusive(self):
        cfg = merge_config({"state": {"alpha_abs": 1.0, "zeta_abs": 1.0}})
        with pytest.raises(ConfigError, match="not both"):
            build_sequence_spec(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_yaml_exponent_floats(self, tmp_path):
        cfg = load_config(write_cfg(
            tmp_path, "drive: {rabi_hz: 3e5, eta: 1}\nhilbert: {fock_dim: 64, tail_tol: 1e-4}\n"
            "mode: {freq_hz: +1.3E6}\nscan: {outer_values: [1e-1, 2]}\ntrain: {rabi_scale: 1}\n"
        ))
        assert cfg["drive"]["rabi_hz"] == 3e5
        assert cfg["hilbert"]["tail_tol"] == 1e-4
        assert cfg["hilbert"]["fock_dim"] == 64 and isinstance(cfg["hilbert"]["fock_dim"], int)
        assert cfg["mode"]["freq_hz"] == 1.3e6
        assert cfg["scan"]["outer_values"] == [0.1, 2]
        # numbers for float keys become floats; a number-or-word key keeps what it was given
        assert type(cfg["drive"]["eta"]) is float and type(cfg["train"]["rabi_scale"]) is int

    @pytest.mark.parametrize("text,key", [
        ("drive: {rabi_hz: .nan}", "drive.rabi_hz"),
        ("mode: {n_th: .inf}", "mode.n_th"),
        ("train: {rabi_scale: -.inf}", "train.rabi_scale"),
        ("scan: {outer_values: [0.0, .nan]}", "scan.outer_values"),
    ])
    def test_non_finite_rejected(self, tmp_path, capsys, text, key):
        path = write_cfg(tmp_path, text + "\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["ramsey-scan", "--config", path, "--out", str(tmp_path / "x.txt")]) == 2
        assert key in capsys.readouterr().err

    def test_tuning_follows_tail_tol(self):
        # the same train tuned under a looser watchdog must not stand in for a strict one
        resolve_tuning(merge_config({"hilbert": {"fock_dim": 8, "tail_tol": 0.5}}))
        with pytest.raises(TruncationError, match="top 1 Fock levels"):
            resolve_tuning(merge_config({"hilbert": {"fock_dim": 8, "tail_tol": 1e-6}}))

    def test_units_and_scan_builders(self):
        cfg = merge_config({"scan": {"phi_num": 4, "outer_values": [0.5]}})
        units = build_units(cfg)
        assert units.x_zpf == pytest.approx(12.47e-9, abs=0.01e-9)
        scan = build_scan_spec(cfg)
        assert len(scan.phi_grid) == 4
        assert scan.outer_grid == (0.5,)


SCHEMA_KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]
SCHEMA_WORDS = sorted({word for keys in SCHEMA.values() for entry in keys.values() for word in entry.words})
SPEC_BUILDERS = (build_units, build_mode, resolve_eta, build_train, build_excitation,
                 build_dephasing, build_sequence_spec, build_scan_spec, build_noise_model)
SCALARS = st.one_of(
    # bounded so that no accepted grid size allocates much; the huge ints
    # are past float range and must be rejected at load
    st.integers(-10**4, 10**4),
    st.sampled_from([10**400, -10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(SCHEMA_WORDS),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SCHEMA_KEYS), st.one_of(SCALARS, st.lists(SCALARS, max_size=4)))
def test_any_value_builds_or_names_its_key(section_key, value):
    section, key = section_key
    try:
        cfg = merge_config({section: {key: value}})
        for build in SPEC_BUILDERS:
            build(cfg)
    except ConfigError as exc:
        assert f"{section}.{key}" in str(exc)


# (command, config text, extra arguments, key the message must name)
BAD_INPUTS = [
    ("ramsey-scan", "hilbert: {fock_dim: 1}", [], "hilbert.fock_dim"),
    ("ramsey-scan", "hilbert: {tail_tol: 2}", [], "hilbert.tail_tol"),
    ("ramsey-scan", "dephasing: {tau_us: 0}", [], "dephasing.tau_us"),
    ("ramsey-scan", "dephasing: {envelope: boxcar}", [], "dephasing.envelope"),
    ("ramsey-scan", "train: {n_flashes: 0}", [], "train.n_flashes"),
    ("ramsey-scan", "train: {flash_ns: 0}", [], "train.flash_ns"),
    ("ramsey-scan", "train: {flash_ns: 1000}", [], "train.flash_ns"),
    ("ramsey-scan", "train: {cycles_per_flash: 0}", [], "train.cycles_per_flash"),
    ("ramsey-scan", "train: {rabi_scale: -1}", [], "train.rabi_scale"),
    ("ramsey-scan", "train: {tune_tol: 0}", [], "train.tune_tol"),
    ("ramsey-scan", "drive: {rabi_hz: -1}", [], "drive.rabi_hz"),
    ("ramsey-scan", "mode: {freq_hz: -1}", [], "mode.freq_hz"),
    ("ramsey-scan", "mode: {n_th: -1}", [], "mode.n_th"),
    ("ramsey-scan", "mode: {mode_angle_deg: 100}", [], "mode.mode_angle_deg"),
    ("ramsey-scan", "mode: {thermal_samples: 0}", [], "mode.thermal_samples"),
    ("ramsey-scan", "state: {alpha_abs: -1}", [], "state.alpha_abs"),
    ("ramsey-scan", "scan: {outer_values: [a]}", [], "scan.outer_values"),
    ("ramsey-scan", "scan: {outer_var: foo}", [], "scan.outer_var"),
    ("ramsey-scan", "scan: {phi_num: 0}", [], "scan.phi_num"),
    ("ramsey-scan", "detection: {shots: 0}", [], "detection.shots"),
    ("ramsey-scan", "detection: {base_seed: -1}", [], "detection.base_seed"),
    ("ramsey-scan", "units: {mass_amu: 0}\ndrive: {eta: geometry}", [], "units.mass_amu"),
    ("build-tables", "decode: {alpha_step: 0}", [], "decode.alpha_step"),
    ("build-tables", "decode: {phi_points: 2}", [], "decode.phi_points"),
    ("pattern-scan", "pattern: {wavelength_nm: 0}", [], "pattern.wavelength_nm"),
    ("stability", "stability: {windows_s: [0.1]}", [], "stability.windows_s"),
    ("stability", "", ["--seed", "-3"], "detection.base_seed"),
]


@pytest.mark.parametrize("command,text,extra,key", BAD_INPUTS)
def test_config_error_names_key(tmp_path, capsys, command, text, extra, key):
    path = write_cfg(tmp_path, text + "\n")
    assert main([command, "--config", path, "--out", str(tmp_path / "x.txt"), *extra]) == 2
    assert key in capsys.readouterr().err


class TestCliRamseyScan:
    def test_runs_and_shapes(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SCAN)
        out = str(tmp_path / "scan.txt")
        assert main(["ramsey-scan", "--config", cfg, "--out", out]) == 0
        columns, rows, meta = read_table(out)
        assert columns == ["outer", "phi_rad", "p_down", "p_down_sem", "sigma_z", "delta_n"]
        assert rows.shape == (12, 6)
        np.testing.assert_allclose(rows[:, 4], 1.0 - 2.0 * rows[:, 2], atol=1e-10)
        assert meta["seed"] == 11

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SCAN)
        out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert main(["ramsey-scan", "--config", cfg, "--out", out1]) == 0
        assert main(["ramsey-scan", "--config", cfg, "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SCAN)
        out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        main(["ramsey-scan", "--config", cfg, "--out", out1])
        main(["ramsey-scan", "--config", cfg, "--out", out2, "--seed", "99"])
        assert Path(out1).read_bytes() != Path(out2).read_bytes()
        _, _, meta = read_table(out2)
        assert meta["seed"] == 99

    def test_footer_config_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SCAN)
        out1 = str(tmp_path / "a.txt")
        main(["ramsey-scan", "--config", cfg, "--out", out1])
        _, _, meta = read_table(out1)
        echoed = write_cfg(tmp_path, yaml.safe_dump(meta["config"]), name="echo.yaml")
        out2 = str(tmp_path / "b.txt")
        main(["ramsey-scan", "--config", echoed, "--out", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "scan: {phi_numm: 3}\n")
        assert main(["ramsey-scan", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 2

    def test_numerical_error_exit_code(self, tmp_path):
        bad = FAST_SCAN.replace("alpha_abs: 1.0", "alpha_abs: 4.0")
        cfg = write_cfg(tmp_path, bad)
        assert main(["ramsey-scan", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 3

    @pytest.mark.parametrize("rabi_scale", ["auto", "0.2795"])
    def test_thermal_draw_past_fock_space(self, tmp_path, capsys, rabi_scale):
        # n_th = 50 draws levels far above 32; the tuner ("auto") or the scan reports it
        cfg = write_cfg(tmp_path, FAST_SCAN.replace("fock_dim: 48", "fock_dim: 32")
                        .replace("rabi_scale: 0.2795", f"rabi_scale: {rabi_scale}")
                        .replace("state: {alpha_abs: 1.0}", "state: {alpha_abs: 0.0}")
                        + "mode: {n_th: 50}\n")
        assert main(["ramsey-scan", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 3
        err = capsys.readouterr().err
        assert "Fock level" in err and "n_th=50" in err and "fock_dim=32" in err

    def test_threads_identical_output(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SCAN)
        out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        main(["ramsey-scan", "--config", cfg, "--out", out1])
        main(["ramsey-scan", "--config", cfg, "--out", out2, "--threads", "4"])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestCliPatternScan:
    def test_small_grid(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "pattern: {nx: 12, nz: 12, extent_nm: 160.0}\n"
            "detection: {mode: shots, shots: 200, base_seed: 21}\n",
        )
        out = str(tmp_path / "pat.txt")
        assert main(["pattern-scan", "--config", cfg, "--out", out]) == 0
        columns, rows, meta = read_table(out)
        assert rows.shape == (144, 4)
        summary = {line.split(":")[0]: float(line.split(":")[1]) for line in meta["summary"]}
        assert summary["fit_wavelength_nm"] == pytest.approx(138.0, abs=3.0)
        assert summary["fit_rotation_rad"] == pytest.approx(0.840, abs=0.05)

    def test_extent_insufficient_exit_code(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "pattern: {nx: 8, nz: 8, extent_nm: 25.0}\ndetection: {mode: analytic}\n",
        )
        out = str(tmp_path / "pat.txt")
        assert main(["pattern-scan", "--config", cfg, "--out", out]) == 3
        # the raw scan data is still written for inspection
        _, rows, _ = read_table(out)
        assert rows.shape[0] == 64


class TestCliStability:
    def test_report_and_trace(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "stability: {white_sigma_rad: 0.2, duration_s: 650.0}\n"
            "detection: {base_seed: 31}\n",
        )
        out = str(tmp_path / "stab.txt")
        assert main(["stability", "--config", cfg, "--out", out]) == 0
        columns, rows, _ = read_table(out)
        assert rows.shape[0] == 3
        assert columns[0] == "window_s"
        assert list(rows[:, 0]) == [2.0, 40.0, 200.0]
        t_cols, t_rows, _ = read_table(tmp_path / "stab_trace.txt")
        assert t_cols == ["t_s", "phase_rad"]
        assert t_rows.shape[0] == 3251

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "stab.txt")
        assert main(["stability", "--config", "configs/table-stability-ac.yaml", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and out in err

    def test_config_directory_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "stab.txt")
        assert main(["stability", "--config", "configs", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--config configs" in err
        assert not Path(out).exists()


class TestCliCalibrateTrain:
    def test_summary(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "hilbert: {fock_dim: 48}\nmode: {thermal_samples: 100}\n",
        )
        out = str(tmp_path / "cal.txt")
        assert main(["calibrate-train", "--config", cfg, "--out", out]) == 0
        columns, rows, meta = read_table(out)
        row = dict(zip(columns, rows[0]))
        assert row["achieved_sigma_z"] < 0.01
        assert row["total_duration_us"] == pytest.approx(23.08, abs=0.05)


class TestCliSqueezeScan:
    def test_two_tables(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "hilbert: {fock_dim: 160}\n"
            "train: {rabi_scale: 0.2795}\n"
            "state: {zeta_abs: 0.5}\n"
            "scan:\n"
            "  phi_num: 6\n"
            "  outer_var: zeta0\n"
            "  outer_values: [0.0, 3.1415927]\n"
            "detection: {mode: analytic, base_seed: 41}\n",
        )
        out = str(tmp_path / "sq.txt")
        assert main(["squeeze-scan", "--config", cfg, "--out", out]) == 0
        _, rows, _ = read_table(out)
        assert rows.shape[0] == 12
        _, ba_rows, _ = read_table(tmp_path / "sq_backaction.txt")
        assert ba_rows.shape[0] == 6

    def test_requires_squeeze_state(self, tmp_path):
        cfg = write_cfg(tmp_path, "state: {alpha_abs: 1.0}\n")
        assert main(["squeeze-scan", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 2


# a small trace-phase-space run; %s is decode.tables_path
SMALL_TRACE_CONFIG = (
    "hilbert: {fock_dim: 80}\n"
    "train: {rabi_scale: 0.2795}\n"
    "state: {alpha_abs: 2.0}\n"
    "decode: {alpha_max: 3.0, alpha_step: 0.5, tables_path: '%s'}\n"
    "scan:\n"
    "  phi_num: 12\n"
    "  outer_var: theta0\n"
    "  outer_values: [0.0, 0.7853982, 1.5707963, 2.3561945, 3.1415927, 3.9269908, 4.712389, 5.4977871]\n"
    "detection: {mode: analytic, base_seed: 55}\n"
)


class TestCliBuildAndTrace:
    def test_tables_then_trace(self, tmp_path):
        tables_path = tmp_path / "tables.txt"
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG % tables_path)
        out_tab = str(tmp_path / "built.txt")
        assert main(["build-tables", "--config", cfg, "--out", out_tab]) == 0
        tables, stored_hash = read_decode_tables(out_tab)
        assert tables.pos_x.size == 13
        assert stored_hash

        out = str(tmp_path / "trace.txt")
        assert main(["trace-phase-space", "--config", cfg, "--out", out]) == 0
        columns, rows, _ = read_table(out)
        assert columns == [
            "theta0_rad", "alpha_abs", "phi0_rad", "contrast", "X_nm", "P_zNus", "clamped",
        ]
        # 8 decoded sweep rows plus 8 alpha = 0 reference rows
        assert rows.shape[0] == 16
        assert tables_path.exists()
        sweep = rows[rows[:, 1] > 0]
        units_x = 2 * 12.47 * 2.0  # 2 x_zpf alpha in nm
        np.testing.assert_allclose(
            sweep[:, 4], units_x * np.cos(sweep[:, 0]), atol=0.08 * units_x
        )
        refs = rows[rows[:, 1] == 0]
        assert np.max(np.abs(refs[:, 4])) < 1.0

    def test_trace_reuses_cached_tables(self, tmp_path):
        # a cold cache, a warm one and no cache decode through the same table values
        tables_path = tmp_path / "tables.txt"
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG % tables_path)
        out1, out2 = str(tmp_path / "t1.txt"), str(tmp_path / "t2.txt")
        assert main(["trace-phase-space", "--config", cfg, "--out", out1]) == 0
        mtime = tables_path.stat().st_mtime_ns
        assert main(["trace-phase-space", "--config", cfg, "--out", out2]) == 0
        assert tables_path.stat().st_mtime_ns == mtime  # cache hit, not rebuilt
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert _trace_rows(tmp_path, "") == _trace_rows(tmp_path, tables_path)

    def test_older_table_version_is_rebuilt(self, tmp_path):
        # a v1 file whose hash matches the config is a cache miss, not a decode source
        tables_path = tmp_path / "tables.txt"
        cfg = load_config(write_cfg(tmp_path, SMALL_TRACE_CONFIG % tables_path))
        tables_path.write_text(
            "# ionstrobe-decode-tables v1\n"
            f"# config_hash: {config_hash(_decode_config_subset(cfg))}\n"
            "# section: position\n# columns: x_m phi0_rad\n-1 -0.3\n0 0\n1 0.3\n"
            "# section: momentum\n# columns: p_kgms contrast\n0 0.9\n1 0.5\n"
        )
        rows = _trace_rows(tmp_path, tables_path)
        tables, stored_hash = read_decode_tables(tables_path)
        assert tables is not None and tables.x.size == 7
        assert stored_hash == config_hash(_decode_config_subset(cfg))
        assert rows == _trace_rows(tmp_path, "")

    def test_foreign_table_file_names_key(self, tmp_path, capsys):
        tables_path = tmp_path / "tables.txt"
        tables_path.write_text("not a table\n")
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG % tables_path)
        out = str(tmp_path / "t.txt")
        assert main(["trace-phase-space", "--config", cfg, "--out", out]) == 2
        assert "decode.tables_path" in capsys.readouterr().err
        assert tables_path.read_text() == "not a table\n"


def _trace_rows(tmp_path, tables_path) -> list[str]:
    """The data lines of a SMALL_TRACE_CONFIG trace with this decode.tables_path."""
    cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG % tables_path, name="rows.yaml")
    out = tmp_path / "rows.txt"
    assert main(["trace-phase-space", "--config", cfg, "--out", str(out)]) == 0
    return [line for line in out.read_text().splitlines() if not line.startswith("#")]


def test_decode_tables_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(5)
    x = np.concatenate([[0.0], np.cumsum(rng.random(6))]) * 1e-8 / 3.0
    phi = np.concatenate([[0.0], np.cumsum(rng.random(6))]) / 7.0
    tables = DecodeTables(x=x, phi_plus=phi, phi_minus=-phi * (1.0 + rng.random(7) / 10.0),
                          p=x * 0.3, contrast=0.8 - phi / 11.0)
    path = tmp_path / "tables.txt"
    write_decode_tables(tables, path, {"decode": {"alpha_max": 2.0}})
    back, stored_hash = read_decode_tables(path)
    assert stored_hash == config_hash({"decode": {"alpha_max": 2.0}})
    for name in ("x", "phi_plus", "phi_minus", "p", "contrast", "pos_x", "pos_phi0"):
        assert np.array_equal(getattr(back, name), getattr(tables, name)), name


def test_cli_import_leaves_scipy_out(tmp_path):
    # a fresh interpreter, so modules the test session imported do not count;
    # after the import, one trace builds the decode tables and a second reads them back
    src = str(Path(ionstrobe.__file__).resolve().parents[1])
    tables_path = tmp_path / "tables.txt"
    cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG % tables_path)
    trace = "assert main(['trace-phase-space', '--config', %r, '--out', %r]) == 0"
    code = "\n".join([
        f"import sys; sys.path.insert(0, {src!r})",
        "from pathlib import Path",
        "from ionstrobe.cli import main",
        "print('scipy' in sys.modules)",
        trace % (cfg, str(tmp_path / "t1.txt")),
        f"mtime = Path({str(tables_path)!r}).stat().st_mtime_ns",
        trace % (cfg, str(tmp_path / "t2.txt")),
        f"print(Path({str(tables_path)!r}).stat().st_mtime_ns == mtime, 'scipy' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    # no scipy after the import; a cache hit, and still no scipy, after both runs
    assert out.stdout.split() == ["False", "True", "False"]


def test_runtime_imports_are_stdlib_numpy_yaml():
    # every absolute import in the package, also those inside functions
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "ionstrobe"}
    package = Path(ionstrobe.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert {name for name in found if name[1] not in allowed} == set()
    assert ("calibrate.py", "numpy") in found


class TestDemoConfigs:
    def test_all_demo_configs_validate(self):
        for path in sorted(Path("configs").glob("*.yaml")):
            cfg = load_config(path)
            assert cfg["hilbert"]["fock_dim"] >= 2

    def test_figs2_demo_row_count(self, tmp_path):
        # trimmed clone of the figS2 grid logic: the shipped config itself
        # yields 30 x 30 = 900 rows (exercised in the acceptance suite)
        cfg = load_config("configs/figS2.yaml")
        scan = build_scan_spec(cfg)
        assert len(scan.phi_grid) * len(scan.outer_grid) == 900
