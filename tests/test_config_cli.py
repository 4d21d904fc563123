"""Config validation and end-to-end CLI runs on small workloads."""

import ast
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ionstrobe
import ionstrobe.cli as cli_module
import ionstrobe.config as config_module
import ionstrobe.dynamics as dynamics_module
import ionstrobe.fitting as fitting_module
from ionstrobe.calibrate import DecodeTables, apply_tuning, tune_pulse_train
from ionstrobe.cli import main
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
)
from ionstrobe.errors import ConfigError, FitError, TruncationError
from ionstrobe.sequence import sample_scan, scan_fringes
from ionstrobe.stability import simulate_phase_trace
from ionstrobe.tableio import (
    config_echo_lines,
    config_hash,
    format_number,
    read_decode_tables,
    read_table,
    write_decode_tables,
    write_table,
)

from conftest import traced_call

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

    @pytest.mark.parametrize("key, shape, dtype, cause", [
        ("hilbert.fock_dim", (2, 2**31, 2**31), complex, OverflowError),  # 2^67 B, past sys.maxsize
        ("detection.shots", 2**57, float, OSError),  # 2^60 B: ENOMEM, no page touched
    ])
    def test_reserve_refusal_names_the_key(self, key, shape, dtype, cause):
        with pytest.raises(ConfigError, match=re.escape(key)) as raised:
            config_module._reserve(key, shape, dtype)
        assert isinstance(raised.value.__cause__, cause)

    def test_reserve_returns_on_an_ordinary_shape(self):
        assert config_module._reserve("hilbert.fock_dim", (2, 232, 232), complex) is None
        assert config_module._reserve("detection.shots", 250, float) is None

    def test_tuning_follows_tail_tol(self):
        # the same train tuned under a looser watchdog must not stand in for a strict one
        tune_pulse_train(build_sequence_spec(merge_config({"hilbert": {"fock_dim": 8,
                                                                       "tail_tol": 0.5}})))
        with pytest.raises(TruncationError, match="top 1 Fock levels"):
            tune_pulse_train(build_sequence_spec(merge_config({"hilbert": {"fock_dim": 8,
                                                                           "tail_tol": 1e-6}})))

    def test_every_demo_tuning_is_pinned(self):
        # (rabi_scale, n_evaluations) of each demo train under rabi_scale: auto,
        # the root of the signed sigma_z; the engine may move achieved_sigma_z
        # by rounding only
        pinned = {"fig2b": (1.0309939101750574, 9)}
        for name in ("fig3b", "fig3c", "fig4", "figS2", "figS3-compare", "figS4"):
            pinned[name] = (0.2795308387287305, 8)
        for name, (rabi_scale, n_evaluations) in pinned.items():
            cfg = load_config(f"configs/{name}.yaml")
            assert cfg["train"]["rabi_scale"] == "auto", name
            tuning = tune_pulse_train(build_sequence_spec(cfg))
            assert tuning.n_evaluations == n_evaluations, name
            assert abs(tuning.rabi_scale - rabi_scale) < 1e-12, name
            assert tuning.achieved_sigma_z <= 1e-13, name

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
    ("ramsey-scan", "train: {tune_tol: 0}", [], "unknown config key 'train.tune_tol'"),
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
    ("pattern-scan", "pattern: {extent_nm: 0}", [], "pattern.extent_nm"),
    ("pattern-scan", "pattern: {extent_nm: -200}", [], "pattern.extent_nm"),
    ("pattern-scan", "pattern: {nx: 0}", [], "pattern.nx"),
    ("pattern-scan", "pattern: {nz: 0}", [], "pattern.nz"),
    # a subnormal tau_us underflows to 0 s
    ("ramsey-scan", "dephasing: {tau_us: 5.0e-324}", [], "dephasing.tau_us"),
]


@pytest.mark.parametrize("command,text,extra,key", BAD_INPUTS)
def test_config_error_names_key(tmp_path, capsys, command, text, extra, key):
    path = write_cfg(tmp_path, text + "\n")
    assert main([command, "--config", path, "--out", str(tmp_path / "x.txt"), *extra]) == 2
    assert key in capsys.readouterr().err


# (command, config text, what stderr must name): inputs whose sizes overflow a
# float or ask numpy for an array far past memory, before anything is allocated
HUGE = 10**15  # an array of this many elements passes any 2^47-byte address space

# (test id, command, config, what its one stderr line names)
EXTREME_INPUTS = [
    ("ramsey-scan", "ramsey-scan", "hilbert: {fock_dim: 40}\ntrain: {rabi_scale: 0.28}\n"
     "scan: {outer_var: alpha_abs, outer_values: [1.0e200]}", ["outer=1e+200", "fock_dim=40"]),
    ("squeeze-scan", "squeeze-scan", "state: {zeta_abs: 400.0}", ["|zeta|=400", "fock_dim="]),
    ("build-tables", "build-tables", "decode: {alpha_step: 1.0e-300}",
     ["decode.alpha_max", "decode.alpha_step"]),
    ("stability", "stability", "stability: {sample_interval_s: 1.0e-12}",
     ["stability.duration_s", "stability.sample_interval_s"]),
    # each key below sizes an array that cannot be reserved
    ("build-tables-alpha-grid", "build-tables", "decode: {alpha_max: 1.0e14, alpha_step: 0.1}",
     ["decode.alpha_max", "decode.alpha_step"]),
    ("trace-phase-space-alpha-grid", "trace-phase-space",
     "decode: {alpha_max: 1.0e14, alpha_step: 0.1}", ["decode.alpha_max", "decode.alpha_step"]),
    ("ramsey-scan-phi-num", "ramsey-scan", f"scan: {{phi_num: {HUGE}}}", ["scan.phi_num"]),
    ("pattern-scan-nx", "pattern-scan", f"pattern: {{nx: {HUGE}}}", ["pattern.nx"]),
    ("pattern-scan-nz", "pattern-scan", f"pattern: {{nz: {HUGE}}}", ["pattern.nz"]),
    ("pattern-scan-bootstrap", "pattern-scan",
     f"pattern: {{bootstrap: {HUGE}}}\ndetection: {{mode: shots}}", ["pattern.bootstrap"]),
    # the thermal mixture's cut-off count at an occupation whose q rounds to 1
    ("ramsey-scan-n-th", "ramsey-scan", "mode: {n_th: 1.0e300}",
     ["ionstrobe: fock_dim=128", "Fock level inf", "n_th=1e+300"]),
    # removed keys: the thermal mixture is exact, with no draw to size or seed
    ("ramsey-scan-thermal-samples", "ramsey-scan", "mode: {thermal_samples: 200}",
     ["config error", "unknown config key 'mode.thermal_samples'"]),
    ("ramsey-scan-thermal-seed", "ramsey-scan", "mode: {thermal_seed: 3}",
     ["config error", "unknown config key 'mode.thermal_seed'"]),
    ("pattern-scan-shots", "pattern-scan", f"detection: {{mode: shots, shots: {HUGE}}}",
     ["detection.shots"]),
    ("ramsey-scan-fock-dim", "ramsey-scan", f"hilbert: {{fock_dim: {HUGE}}}",
     ["hilbert.fock_dim"]),
    # the first flash count past the bound, which no memory limit stops any more
    ("ramsey-scan-n-flashes", "ramsey-scan", "train: {n_flashes: 1000001}",
     ["train.n_flashes"]),
    # a Rabi rate from which the tuner's start or a flash unitary cannot be formed
    ("ramsey-scan-rabi-zero", "ramsey-scan", "hilbert: {fock_dim: 24}\ndrive: {rabi_hz: 0.0}",
     ["Rabi rate 0 Hz", "start rabi_scale inf"]),
    ("ramsey-scan-rabi-subnormal", "ramsey-scan",
     "hilbert: {fock_dim: 24}\ndrive: {rabi_hz: 1.0e-310}", ["Rabi rate 1e-310 Hz"]),
    # at eta = 2.5 the weighted sigma_z stays below the equator on [0.5, 1.5] x start;
    # only the tuner's CalibrationError (exit 3) prints this line
    ("ramsey-scan-no-sign-change", "ramsey-scan",
     "drive: {eta: 2.5}\nmode: {n_th: 0.0}\nhilbert: {fock_dim: 128, tail_tol: 1.0e-2}",
     ["no sign change of <sigma_z> in rabi_scale [3.1611, 9.48329]: -5.246e-01 at 3.1611"]),
    ("ramsey-scan-rabi-infinite", "ramsey-scan",
     "hilbert: {fock_dim: 24}\ntrain: {rabi_scale: 1.0e300}\ndrive: {rabi_hz: 1.0e300}",
     ["Rabi rate 1e+300 Hz", "rabi_scale 1e+300"]),
    # a finite rate or frequency whose angular value, or whose cycle, overflows:
    # no spec dataclass takes a value that is not finite
    ("ramsey-scan-rabi-overflow", "ramsey-scan",
     "hilbert: {fock_dim: 24}\ndrive: {rabi_hz: 1.0e308}", ["config error", "drive.rabi_hz"]),
    ("ramsey-scan-freq-overflow", "ramsey-scan",
     "hilbert: {fock_dim: 24}\ntrain: {rabi_scale: 0.28}\nmode: {freq_hz: 1.0e308}",
     ["config error", "mode.freq_hz"]),
    ("ramsey-scan-cycle-overflow", "ramsey-scan", "hilbert: {fock_dim: 24}\n"
     "train: {rabi_scale: 0.28, cycles_per_flash: 1000000}\nmode: {freq_hz: 1.0e-303}",
     ["config error", "train.cycles_per_flash", "mode.freq_hz"]),
    # a finite cycle whose free-evolution phase at the top Fock level overflows
    ("ramsey-scan-cycle-ns-phase-overflow", "ramsey-scan", "hilbert: {fock_dim: 240}\n"
     "train: {cycle_ns: 1.7e308, rabi_scale: 0.28}",
     ["config error", "hilbert.fock_dim", "train.cycle_ns"]),
    ("ramsey-scan-cycles-per-flash-phase-overflow", "ramsey-scan", "hilbert: {fock_dim: 240}\n"
     f"train: {{cycles_per_flash: {10**306}, rabi_scale: 0.28}}",
     ["config error", "hilbert.fock_dim", "train.cycles_per_flash", "mode.freq_hz"]),
    # a finite coefficient whose statistics overflow
    ("stability-drift", "stability", "stability: {drift_rate_rad_per_s: 1.0e300}",
     ["stability.white_sigma_rad", "stability.rw_sigma_rad_per_sqrt_s",
      "stability.drift_rate_rad_per_s"]),
    # angles whose span, or product with a Fock index or flash count, overflows
    ("ramsey-scan-phi-span", "ramsey-scan", "hilbert: {fock_dim: 24}\ntrain: {rabi_scale: 0.28}\n"
     "scan: {phi_start_rad: 1.0e308, phi_stop_rad: -1.0e308}", ["config error", "scan.phi_start_rad"]),
    ("ramsey-scan-theta0", "ramsey-scan", "hilbert: {fock_dim: 40}\ntrain: {rabi_scale: 0.28}\n"
     "state: {alpha_abs: 1.0}\nscan: {outer_var: theta0, outer_values: [1.0e308]}",
     ["config error", "scan.outer_values"]),
    # trace-phase-space reads the outer values as theta0 under outer_var none too
    ("trace-phase-space-theta0", "trace-phase-space", "hilbert: {fock_dim: 64}\n"
     "train: {rabi_scale: 0.2795}\nstate: {alpha_abs: 1.0}\n"
     "decode: {alpha_max: 2.0, alpha_step: 0.5}\n"
     "scan: {phi_num: 8, outer_var: none, outer_values: [0.0, 1.0e308]}",
     ["config error", "scan.outer_values"]),
    ("ramsey-scan-alpha-phase", "ramsey-scan", "hilbert: {fock_dim: 40}\ntrain: {rabi_scale: 0.28}\n"
     "state: {alpha_abs: 1.0, alpha_phase_rad: 1.0e308}", ["config error", "state.alpha_phase_rad"]),
    ("ramsey-scan-dphi", "ramsey-scan", "hilbert: {fock_dim: 24}\n"
     "train: {rabi_scale: 0.28, dphi_rad: 1.0e308}",
     ["config error", "unknown config key 'train.dphi_rad'"]),
    # a Lamb-Dicke parameter whose phases overflow, set or derived from the geometry
    ("ramsey-scan-eta", "ramsey-scan", "hilbert: {fock_dim: 24}\ntrain: {rabi_scale: 1.0}\n"
     "drive: {eta: 1.0e308}", ["config error", "drive.eta"]),
    ("ramsey-scan-eta-geometry", "ramsey-scan", "hilbert: {fock_dim: 24}\ntrain: {rabi_scale: 1.0}\n"
     "drive: {eta: geometry, eff_wavelength_nm: 1.0e-300}",
     ["config error", "drive.eta", "drive.eff_wavelength_nm"]),
    ("ramsey-scan-eta-geometry-tuned", "ramsey-scan", "hilbert: {fock_dim: 24}\n"
     "drive: {eta: geometry, eff_wavelength_nm: 1.0e-300}",
     ["config error", "drive.eta", "drive.eff_wavelength_nm"]),
    # a pattern extent whose fit phases overflow or underflow
    ("pattern-scan-extent-1e200", "pattern-scan", "pattern: {extent_nm: 1.0e200}",
     ["pattern fit did not converge"]),
    ("pattern-scan-extent-1e300", "pattern-scan", "pattern: {extent_nm: 1.0e300}",
     ["pattern fit did not converge"]),
    ("pattern-scan-extent-1e-300", "pattern-scan", "pattern: {extent_nm: 1.0e-300}",
     ["pattern fit did not converge"]),
]


@pytest.mark.parametrize("command, text, names", [row[1:] for row in EXTREME_INPUTS],
                         ids=[row[0] for row in EXTREME_INPUTS])
def test_extreme_inputs_exit_cleanly(tmp_path, command, text, names):
    # a fresh interpreter, so a raw exception would show as a traceback on stderr
    cfg = write_cfg(tmp_path, text + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ionstrobe.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-m", "ionstrobe.cli", command, "--config", cfg,
                          "--out", str(tmp_path / "x.txt")], capture_output=True, text=True,
                         env=env)
    assert out.returncode in (2, 3)
    assert all(name in out.stderr for name in names), out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.count("\n") == 1, out.stderr


# integer keys with no upper bound that size no array, each with its reason
UNSIZED_KEYS = {
    "detection.base_seed": "only seeds a generator",
    "train.cycles_per_flash": "scales a duration and sizes no array",
}


def test_every_size_key_has_an_extreme_input():
    named = {name for row in EXTREME_INPUTS for name in row[3]}
    unbounded = {f"{section}.{key}" for section, keys in SCHEMA.items()
                 for key, entry in keys.items()
                 if type(entry.default) is int and entry.range.endswith("inf)")}
    assert unbounded - named - UNSIZED_KEYS.keys() == set()
    assert UNSIZED_KEYS.keys() <= unbounded  # no stale exemption


# keys that hold an angle without a unit of rad or deg in their name: drive.eta,
# the phase per zero-point width, and scan.outer_values under outer_var theta0 or zeta0
UNITLESS_ANGLES = ("drive.eta", "scan.outer_values")


def test_every_angle_key_is_bounded_or_has_an_extreme_input():
    named = {name for row in EXTREME_INPUTS for name in row[3]}
    angles = {f"{section}.{key}": entry for section, keys in SCHEMA.items()
              for key, entry in keys.items()
              if "_rad" in key or "_deg" in key or f"{section}.{key}" in UNITLESS_ANGLES}
    unbounded = {name for name, entry in angles.items() if "inf" in entry.range}
    assert unbounded - named == set()


def test_other_memory_errors_exit_with_one_line(tmp_path, monkeypatch, capsys):
    def exhausted(cfg, args):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setitem(cli_module.COMMANDS, "stability", exhausted)
    cfg = write_cfg(tmp_path, "stability: {duration_s: 100.0}\n")
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 3
    assert capsys.readouterr().err == "ionstrobe: out of memory: Unable to allocate 1.00 TiB\n"


# a pi/2 train of 10^5 flashes, whose rounding moves the output norm by about
# 2.5e-10: more than the 2e-10 of a short train, inside 2e-10 + F 1e-14
LONG_TRAIN = ("hilbert: {fock_dim: 40}\ntrain: {n_flashes: 100000, rabi_scale: 8.39214434438e-05}\n"
              "scan: {phi_num: 4}\ndephasing: {envelope: none}\n")


def test_long_train_runs(tmp_path):
    out = str(tmp_path / "long.txt")
    code, peak = traced_call(main, ["ramsey-scan", "--config", write_cfg(tmp_path, LONG_TRAIN),
                                    "--out", out])
    assert code == 0
    # the watchdog keeps one block of tail rows, not the 10^5 flashes' 64 MiB
    assert peak < 8 << 20
    _, rows, _ = read_table(out)
    np.testing.assert_allclose(rows[:, 4], 1.0 - 2.0 * rows[:, 2], atol=1e-10)
    assert np.ptp(rows[:, 2]) > 0.9  # the fringe of a pi/2 train, not a dephased 0.5


# 10^9 flashes at fock_dim 40: in bounded memory this would run for hours
BILLION_FLASHES = "hilbert: {fock_dim: 40}\ntrain: {n_flashes: 1000000000, rabi_scale: 0.0003}\n"


def test_billion_flash_train_exits_with_one_line(tmp_path):
    # a fresh interpreter, so a train that started would end at the timeout
    # rather than hold up the suite
    env = {**os.environ, "PYTHONPATH": str(Path(ionstrobe.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-m", "ionstrobe.cli", "ramsey-scan", "--config",
                          write_cfg(tmp_path, BILLION_FLASHES), "--out", str(tmp_path / "x.txt")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 2
    assert out.stderr.count("\n") == 1, out.stderr
    assert "train.n_flashes" in out.stderr and "1000000000" in out.stderr
    assert merge_config({"train": {"n_flashes": 10**6}})["train"]["n_flashes"] == 10**6


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

    def test_truncation_names_failing_outer_value(self, tmp_path, capsys):
        # only |alpha| = 6.5 needs more than 100 levels; the error names it, not outer 0
        cfg = write_cfg(tmp_path, FAST_SCAN.replace("fock_dim: 48", "fock_dim: 100")
                        .replace("outer_var: theta0", "outer_var: alpha_abs")
                        .replace("[0.0, 1.5707963]", "[0.0, 2.0, 6.5]"))
        assert main(["ramsey-scan", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 3
        err = capsys.readouterr().err
        assert "at scan point (outer=6.5): fock_dim=100 too small for |alpha|=6.5" in err

    @pytest.mark.parametrize("rabi_scale", ["auto", "0.2795"])
    def test_thermal_draw_past_fock_space(self, tmp_path, capsys, rabi_scale):
        # the n_th = 50 mixture runs far above level 32; the tuner ("auto") or the scan reports it
        cfg = write_cfg(tmp_path, FAST_SCAN.replace("fock_dim: 48", "fock_dim: 32")
                        .replace("rabi_scale: 0.2795", f"rabi_scale: {rabi_scale}")
                        .replace("state: {alpha_abs: 1.0}", "state: {alpha_abs: 0.0}")
                        + "mode: {n_th: 50}\n")
        assert main(["ramsey-scan", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 3
        err = capsys.readouterr().err
        assert "Fock level" in err and "n_th=50" in err and "fock_dim=32" in err
        assert "at scan point" not in err  # the mixture concerns no scan point

    def test_injected_phase_noise(self, tmp_path):
        def config(inject, white=0.3, rw=0.5, drift=2.0):
            # 6 realizations, fewer than the 10 samples a trace needs
            text = (FAST_SCAN.replace("[0.0, 1.5707963]", "[0.0]")
                    .replace("phi_num: 6", f"phi_num: 6\n  inject_phase_noise: {inject}")
                    + f"stability: {{white_sigma_rad: {white}, rw_sigma_rad_per_sqrt_s: {rw}, "
                    f"drift_rate_rad_per_s: {drift}}}\n")
            return write_cfg(tmp_path, text, name=f"{inject}-{white}-{rw}-{drift}.yaml")

        def scan_rows(cfg_path, name):
            out = str(tmp_path / name)
            assert main(["ramsey-scan", "--config", cfg_path, "--out", out]) == 0
            return out, read_table(out)[1]

        noisy = config("true")
        out1, rows = scan_rows(noisy, "a.txt")
        out2, _ = scan_rows(noisy, "b.txt")
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

        # the drift is the noise model's trace at the 10 ms realization cadence, seeded
        # base_seed + 7, one sample per realization
        cfg = load_config(noisy)
        scan = build_scan_spec(cfg)
        spec = apply_tuning(build_sequence_spec(cfg), cfg["train"]["rabi_scale"])
        n = scan.n_realizations
        model = replace(build_noise_model(cfg), sample_interval=0.01)
        drift = simulate_phase_trace(model, max(n, 10) * 0.01, seed=11 + 7).phase[:n]
        assert np.ptp(drift) > 0.1
        expected = [[float(format_number(v)) for v in
                     (r.outer, r.phi, r.p_down_mean, r.p_down_sem, r.sigma_z, r.delta_n)]
                    for r in sample_scan(scan, scan_fringes(scan, spec), drift)]
        assert np.array_equal(rows, expected)

        # with no noise, injection changes no row
        _, on = scan_rows(config("true", 0.0, 0.0, 0.0), "on.txt")
        _, off = scan_rows(config("false", 0.0, 0.0, 0.0), "off.txt")
        assert np.array_equal(on, off)

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        # there is no --threads option; argparse's usage error exits 2
        cfg = write_cfg(tmp_path, FAST_SCAN)
        out = tmp_path / "a.txt"
        with pytest.raises(SystemExit) as exc:
            main(["ramsey-scan", "--config", cfg, "--out", str(out), "--threads", "4"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err and not out.exists()


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

    def test_too_few_points_named_before_sampling(self, tmp_path, capsys, monkeypatch):
        # 5 x 5 = 25 points cannot feed the 30-point pattern fit
        probes = []
        monkeypatch.setattr(cli_module, "static_pattern_probe", lambda *a: probes.append(a))
        cfg = write_cfg(tmp_path, "pattern: {nx: 5, nz: 5}\n")
        out = tmp_path / "pat.txt"
        assert main(["pattern-scan", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "pattern.nx" in err and "pattern.nz" in err
        assert probes == [] and not out.exists()

    def test_too_few_bootstrap_refits_exit_code(self, tmp_path, capsys, monkeypatch):
        # the fit converges, and then every bootstrap refit fails
        refine, calls = fitting_module._refine_pattern, []

        def fit_only(*args):
            calls.append(None)
            if len(calls) > 1:
                raise FitError("pattern fit did not converge")
            return refine(*args)

        monkeypatch.setattr(fitting_module, "_refine_pattern", fit_only)
        cfg = write_cfg(tmp_path, "pattern: {nx: 12, nz: 12, extent_nm: 160.0}\n"
                        "detection: {mode: shots, shots: 200, base_seed: 21}\n")
        out = tmp_path / "pat.txt"
        assert main(["pattern-scan", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("ionstrobe: bootstrap produced too few successful "
                                           f"refits; scan data written to {out}\n")
        assert len(calls) == 1 + 32
        # the scan data and the converged fit are kept, with the bootstrap's error
        _, rows, meta = read_table(out)
        assert rows.shape == (144, 4)
        fit_keys = ["fit_wavelength_nm", "fit_rotation_rad", "fit_amplitude",
                    "fit_phase_origin_rad", "fit_residual_rms"]
        assert [line.split(":")[0] for line in meta["summary"]] == fit_keys + ["bootstrap_error"]
        assert meta["summary"][-1] == "bootstrap_error: bootstrap produced too few successful refits"
        assert meta["title"] == "static pattern scan (bootstrap failed)"

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


class TestCliTuningFooter:
    """Every table a tuned train writes records its tuning; a set scale, none."""

    def test_footer_names_the_search_space(self, tmp_path):
        # the tuned bits depend on the space the root was searched in
        cfg = write_cfg(tmp_path, "hilbert: {fock_dim: 48}\nscan: {phi_num: 4}\n")
        out = str(tmp_path / "scan.txt")
        assert main(["ramsey-scan", "--config", cfg, "--out", out]) == 0
        tuning = tune_pulse_train(build_sequence_spec(load_config(cfg)))
        assert read_table(out)[2]["summary"] == [
            f"tuned_rabi_scale: {format_number(tuning.rabi_scale)}",
            f"tune_evaluations: {tuning.n_evaluations}",
            "search_fock_dim: 32",
        ]

    def test_set_scale_writes_no_tuning_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "hilbert: {fock_dim: 48}\ntrain: {rabi_scale: 0.2795}\n"
                        "scan: {phi_num: 4}\n")
        out = str(tmp_path / "scan.txt")
        assert main(["ramsey-scan", "--config", cfg, "--out", out]) == 0
        assert read_table(out)[2]["summary"] == []

    def test_decode_tables_record_the_tuning(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG.replace("rabi_scale: 0.2795", "rabi_scale: auto"))
        out = str(tmp_path / "tables.txt")
        assert main(["build-tables", "--config", cfg, "--out", out]) == 0
        summary = read_table(out)[2]["summary"]
        assert [line.split(":")[0] for line in summary] == ["tuned_rabi_scale", "tune_evaluations",
                                                             "search_fock_dim"]
        assert read_decode_tables(out).x.size == 7


class TestTunedCommandsBuildOnce:
    """A tuned command builds its sequence spec, and so its train, once."""

    @pytest.mark.parametrize("command, text", [
        ("ramsey-scan", "hilbert: {fock_dim: 48}\nscan: {phi_num: 4}\n"),
        ("squeeze-scan", "hilbert: {fock_dim: 48}\nstate: {zeta_abs: 0.2}\n"
         "scan: {phi_num: 4, outer_var: zeta0}\n"),
        ("build-tables", "hilbert: {fock_dim: 64}\ndecode: {alpha_max: 1.0, alpha_step: 0.5}\n"),
        ("trace-phase-space", "hilbert: {fock_dim: 64}\nstate: {alpha_abs: 1.0}\n"
         "decode: {alpha_max: 2.0, alpha_step: 0.5}\nscan: {phi_num: 8, outer_values: [0.0]}\n"),
    ], ids=["ramsey-scan", "squeeze-scan", "build-tables", "trace-phase-space"])
    def test_one_build(self, tmp_path, monkeypatch, command, text):
        calls = {"build_sequence_spec": 0, "build_train": 0}
        for name in calls:
            def counted(cfg, name=name, real=getattr(config_module, name)):
                calls[name] += 1
                return real(cfg)
            monkeypatch.setattr(config_module, name, counted)
        out = tmp_path / "out.txt"
        assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        assert calls == {"build_sequence_spec": 1, "build_train": 1}
        assert "tuned_rabi_scale" in out.read_text()


def _command_list(text: str) -> list[str]:
    """The names listed after 'Commands:', up to the sentence's full stop."""
    listed = text.split("Commands:", 1)[1].split(".", 1)[0]
    return [name.strip(" `\n") for name in listed.split(",")]


def test_command_lists_agree():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert _command_list(readme) == _command_list(cli_module.__doc__) == list(cli_module.COMMANDS)


def test_removed_calibrate_train_is_a_usage_error(tmp_path, capsys):
    # the tables record the tuning, so the command that printed it alone is gone
    out = tmp_path / "x.txt"
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-train", "--config", "configs/fig4.yaml", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'calibrate-train'" in err and "Traceback" not in err
    assert not out.exists()


SMALL_SQUEEZE_CONFIG = (
    "hilbert: {fock_dim: 160}\n"
    "train: {rabi_scale: 0.2795, cycles_per_flash: 2}\n"
    "state: {zeta_abs: 0.5}\n"
    "scan:\n"
    "  phi_num: 6\n"
    "  outer_var: zeta0\n"
    "  outer_values: [0.0, 3.1415927]\n"
    "detection: {mode: analytic, base_seed: 41}\n"
)


class TestCliSqueezeScan:
    def test_two_tables(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SQUEEZE_CONFIG)
        out = str(tmp_path / "sq.txt")
        assert main(["squeeze-scan", "--config", cfg, "--out", out]) == 0
        _, rows, _ = read_table(out)
        assert rows.shape[0] == 12
        _, ba_rows, _ = read_table(tmp_path / "sq_backaction.txt")
        assert ba_rows.shape[0] == 6

    def test_runs_at_the_configured_cycle(self, tmp_path):
        # three periods per flash: the echo and the contrast envelope follow the config
        cfg_text = SMALL_SQUEEZE_CONFIG.replace("cycles_per_flash: 2", "cycles_per_flash: 3")
        p_down = {}
        for envelope in ("gaussian", "none"):
            cfg = write_cfg(tmp_path, cfg_text + f"dephasing: {{envelope: {envelope}}}\n")
            out = str(tmp_path / f"{envelope}.txt")
            assert main(["squeeze-scan", "--config", cfg, "--out", out]) == 0
            _, rows, meta = read_table(out)
            p_down[envelope] = rows[:, 2]
        train = meta["config"]["train"]
        assert (train["cycles_per_flash"], train["cycle_ns"]) == (3, 0.0)
        elapsed = train["n_flashes"] * 3 / meta["config"]["mode"]["freq_hz"]
        np.testing.assert_allclose(p_down["gaussian"] - 0.5,
                                   math.exp(-((elapsed / 70e-6) ** 2)) * (p_down["none"] - 0.5),
                                   rtol=0, atol=1e-12)

    def test_requires_squeeze_state(self, tmp_path):
        cfg = write_cfg(tmp_path, "state: {alpha_abs: 1.0}\n")
        assert main(["squeeze-scan", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 2


# a small trace-phase-space run
SMALL_TRACE_CONFIG = (
    "hilbert: {fock_dim: 80}\n"
    "train: {rabi_scale: 0.2795}\n"
    "state: {alpha_abs: 2.0}\n"
    "decode: {alpha_max: 3.0, alpha_step: 0.5}\n"
    "scan:\n"
    "  phi_num: 12\n"
    "  outer_var: theta0\n"
    "  outer_values: [0.0, 0.7853982, 1.5707963, 2.3561945, 3.1415927, 3.9269908, 4.712389, 5.4977871]\n"
    "detection: {mode: analytic, base_seed: 55}\n"
)


class TestZeroedEnvelope:
    """fig4 at dephasing.tau_us = 0.5: the gaussian envelope is 0.0 at the end
    of its 23 us train, so every fringe is flat."""

    @pytest.fixture
    def cfg(self, tmp_path):
        return write_cfg(tmp_path, Path("configs/fig4.yaml").read_text()
                         + "dephasing: {tau_us: 0.5}\n")

    @pytest.mark.parametrize("command", ["trace-phase-space", "build-tables"])
    def test_decode_names_the_envelope_before_tuning(self, tmp_path, capsys, monkeypatch, cfg,
                                                     command):
        monkeypatch.setattr(cli_module, "tune_pulse_train",
                            lambda spec: pytest.fail("tuned a train it cannot decode"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 2
        assert capsys.readouterr().err == (
            "ionstrobe: config error: dephasing.tau_us: the gaussian envelope is 0 at the "
            "train's end, 23.0769 us, so there is no fringe phase to decode\n")

    def test_scan_writes_flat_fringes(self, tmp_path, cfg):
        out = str(tmp_path / "x.txt")
        assert main(["ramsey-scan", "--config", cfg, "--out", out]) == 0
        columns, rows, _ = read_table(out)
        assert np.all(rows[:, columns.index("p_down")] == 0.5)


class TestUnreadableEnvelope:
    """fig4's gaussian envelope under machine epsilon but not 0.0 at the end of
    its train (tau_us < ~3.85): every p_down rounds to a flat fringe, and the
    decode maps overflowed to nan or clamped every row."""

    @staticmethod
    def cfg(tmp_path, tau_us):
        return write_cfg(tmp_path, Path("configs/fig4.yaml").read_text()
                         + f"dephasing: {{tau_us: {tau_us}}}\n")

    @pytest.mark.parametrize("tau_us, envelope", [
        (0.855, "4.17664e-317"), (0.9, "2.93627e-286"), (1.0, "5.23498e-232"), (2.0, "1.51262e-58")])
    @pytest.mark.parametrize("command", ["trace-phase-space", "build-tables"])
    def test_decode_names_the_envelope_before_tuning(self, tmp_path, capsys, monkeypatch,
                                                     command, tau_us, envelope):
        monkeypatch.setattr(cli_module, "tune_pulse_train",
                            lambda spec: pytest.fail("tuned a train it cannot decode"))
        out = tmp_path / "x.txt"
        assert main([command, "--config", self.cfg(tmp_path, tau_us), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"ionstrobe: config error: dephasing.tau_us: the gaussian envelope is {envelope} at "
            "the train's end, 23.0769 us, so there is no fringe phase to decode\n")
        assert not out.exists()

    def test_decodes_just_above_epsilon(self, tmp_path, capsys):
        # tau_us 3.9: the envelope is 6.2e-16, so the tables are built and the scan runs,
        # but every sweep fringe is rounding residue with no identifiable phase, and the
        # trace refuses it
        cfg = self.cfg(tmp_path, 3.9)
        out_tab, out_scan, out = (str(tmp_path / name) for name in ("tables.txt", "scan.txt",
                                                                     "trace.txt"))
        assert main(["build-tables", "--config", cfg, "--out", out_tab]) == 0
        assert main(["ramsey-scan", "--config", cfg, "--out", out_scan]) == 0
        assert all(np.isfinite(read_table(path)[1]).all() for path in (out_tab, out_scan))
        capsys.readouterr()
        assert main(["trace-phase-space", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "ionstrobe: config error: dephasing.tau_us: the gaussian envelope is 6.22505e-16 at "
            "the train's end, 23.0769 us, so no theta0 sweep fringe has an identifiable phase\n")
        assert not Path(out).exists()

    def test_scan_still_runs(self, tmp_path):
        out = str(tmp_path / "x.txt")
        assert main(["ramsey-scan", "--config", self.cfg(tmp_path, 0.9), "--out", out]) == 0
        assert np.isfinite(read_table(out)[1]).all()


class TestCliBuildAndTrace:
    def test_tables_then_trace(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG)
        out_tab = str(tmp_path / "built.txt")
        assert main(["build-tables", "--config", cfg, "--out", out_tab]) == 0
        assert read_decode_tables(out_tab).pos_x.size == 13
        assert read_table(out_tab)[2]["config"] == load_config(cfg)  # the full config echo

        out = str(tmp_path / "trace.txt")
        assert main(["trace-phase-space", "--config", cfg, "--out", out]) == 0
        columns, rows, _ = read_table(out)
        assert columns == [
            "theta0_rad", "alpha_abs", "phi0_rad", "contrast", "X_nm", "P_zNus", "clamped",
        ]
        # 8 decoded sweep rows plus 8 alpha = 0 reference rows
        assert rows.shape[0] == 16
        sweep = rows[rows[:, 1] > 0]
        units_x = 2 * 12.47 * 2.0  # 2 x_zpf alpha in nm
        np.testing.assert_allclose(
            sweep[:, 4], units_x * np.cos(sweep[:, 0]), atol=0.08 * units_x
        )
        refs = rows[rows[:, 1] == 0]
        assert np.max(np.abs(refs[:, 4])) < 1.0

    def test_rows_outside_the_tables_are_flagged(self, tmp_path):
        # |alpha| = 3.2 lies past decode.alpha_max = 3.0 where the momentum is largest
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG.replace("alpha_abs: 2.0", "alpha_abs: 3.2"))
        out_tab, out = str(tmp_path / "tables.txt"), str(tmp_path / "trace.txt")
        assert main(["build-tables", "--config", cfg, "--out", out_tab]) == 0
        assert main(["trace-phase-space", "--config", cfg, "--out", out]) == 0
        tables = read_decode_tables(out_tab)
        columns, rows, _ = read_table(out)
        flags = rows[:, columns.index("clamped")]
        assert flags.any() and not flags.all()
        for phase, contrast, flag in zip(rows[:, 2], rows[:, 3], flags):
            point = tables.decode(phase, contrast)
            assert flag == float(point.x_clamped or point.p_clamped)

    @pytest.mark.parametrize("envelope, code, err", [
        ("gaussian", 2, "config error: dephasing.tau_us: the gaussian envelope is 0.897015 at "
                        "the train's end, 23.0769 us, so no theta0 sweep fringe has an "
                        "identifiable phase"),
        ("none", 3, "no theta0 sweep fringe has an identifiable phase")], ids=["gaussian", "none"])
    def test_unidentifiable_sweep_is_refused(self, tmp_path, capsys, monkeypatch,
                                             envelope, code, err):
        fit_scan = cli_module.fit_scan
        monkeypatch.setattr(cli_module, "fit_scan", lambda scan, records: [
            replace(fit, phase_identifiable=False) for fit in fit_scan(scan, records)])
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG + f"dephasing: {{envelope: {envelope}}}\n")
        out = tmp_path / "t.txt"
        assert main(["trace-phase-space", "--config", cfg, "--out", str(out)]) == code
        assert capsys.readouterr().err == f"ionstrobe: {err}\n" and not out.exists()

    @pytest.mark.parametrize("command", ["build-tables", "trace-phase-space"])
    def test_flash_past_the_contrast_zero_names_its_keys(self, tmp_path, capsys, command):
        # at eta = 0.4 and 1.3 MHz the contrast's first zero lies near eta |alpha| omega
        # tau = pi, at 320 ns for |alpha| = 3: a 400 ns flash turns the momentum map
        cfg = write_cfg(tmp_path, "hilbert: {fock_dim: 64}\ntrain: {flash_ns: 400.0}\n"
                        "decode: {alpha_max: 3.0, alpha_step: 0.1}\n")
        out = tmp_path / "t.txt"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "train.flash_ns" in err and "decode.alpha_max" in err
        lo, hi = map(float, re.search(r"from \|alpha\| = (\S+) to (\S+);", err).groups())
        assert 0.0 < lo < hi <= 3.0 and not out.exists()

    def test_alpha_outer_var_rejected(self, tmp_path, capsys, block_calls):
        # the trace's outer values are theta0; alpha_abs ones would be read as theta0
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG.replace("outer_var: theta0",
                                                             "outer_var: alpha_abs"))
        out = tmp_path / "t.txt"
        assert main(["trace-phase-space", "--config", cfg, "--out", str(out)]) == 2
        assert "scan.outer_var" in capsys.readouterr().err
        assert block_calls == [] and not out.exists()

    def test_removed_tables_path_key_names_it(self, tmp_path, capsys, tuner_calls):
        # the decode tables are built in every run; the old cache key is an unknown key
        cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG
                        .replace("rabi_scale: 0.2795", "rabi_scale: auto")
                        .replace("alpha_step: 0.5", "alpha_step: 0.5, tables_path: x"))
        out = tmp_path / "t.txt"
        assert main(["trace-phase-space", "--config", cfg, "--out", str(out)]) == 2
        assert "decode.tables_path" in capsys.readouterr().err
        assert tuner_calls == [] and not out.exists()


@pytest.fixture
def tuner_calls(monkeypatch):
    """Records every call of the pi/2 tuner that rabi_scale: auto runs."""
    calls = []
    monkeypatch.setattr(cli_module, "tune_pulse_train", lambda *a, **k: calls.append(a))
    return calls


@pytest.mark.parametrize("command, text, keys", [
    ("build-tables", "decode: {alpha_max: 0.5, alpha_step: 0.4}", ["decode.alpha_max",
                                                                  "decode.alpha_step"]),
    ("trace-phase-space", "decode: {alpha_max: 0.5, alpha_step: 0.4}", ["decode.alpha_max",
                                                                       "decode.alpha_step"]),
    ("trace-phase-space", "state: {zeta_abs: 0.5}", ["state.zeta_abs"]),
    ("ramsey-scan", "state: {zeta_abs: 0.5}\nscan: {outer_var: theta0}",
     ["scan.outer_var", "state.zeta_abs"]),
    ("ramsey-scan", "scan: {outer_var: alpha_abs, outer_values: [-1.0]}",
     ["scan.outer_values", "scan.outer_var"]),
    ("squeeze-scan", "state: {zeta_abs: 0.5}\nscan: {outer_var: theta0}",
     ["scan.outer_var", "state.zeta_abs"]),
    ("trace-phase-space", "scan: {outer_var: zeta0}", ["scan.outer_var"]),
    ("trace-phase-space", "scan: {phi_num: 4}", ["scan.phi_num"]),
    ("trace-phase-space", "scan: {phi_stop_rad: 2.0}", ["scan.phi_start_rad", "scan.phi_stop_rad"]),
    ("ramsey-scan", "hilbert: {fock_dim: 48}\nstate: {zeta_abs: 0.5}\nscan: {outer_var: alpha_abs}",
     ["scan.outer_var", "state.zeta_abs"]),
])
def test_config_checked_before_tuning(tmp_path, capsys, tuner_calls, command, text, keys):
    cfg = write_cfg(tmp_path, "train: {rabi_scale: auto}\n" + text + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys)
    assert tuner_calls == []


@pytest.mark.parametrize("command, text, calls", [
    ("trace-phase-space", SMALL_TRACE_CONFIG, 3),  # tables, anchor, alpha scan
    ("squeeze-scan", SMALL_SQUEEZE_CONFIG, 1),  # both tables from one set of fringes
], ids=["trace-phase-space", "squeeze-scan"])
def test_block_propagations_per_command(tmp_path, fringe_evaluations, command, text, calls):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.txt")]) == 0
    assert len(fringe_evaluations) == calls


# (states, engine path) of every fringe evaluation of each demo that propagates,
# at seed 1 from a cold train-operator cache; "build" is the operator path
# paying for the build, and every later block of an evaluation takes the operator
DEMO_ENGINE_PATHS = {
    "fig2b": [(5, "flash")],  # one flash: the operator would be the flash itself
    "fig3b": [(10, "flash")],  # 10 states at fock_dim 208 count no gain
    "fig3c": [(10, "flash")],
    "fig4": [(185, "build"), (5, "operator"), (120, "operator")],  # tables, anchor, scan
    "figS2": [(150, "build")],
    "figS3-compare": [(55, "build")],
    "figS4": [(100, "build")],  # two blocks; the back-action table reads the same fringes
}
# the train-operator cache's (hits, misses) after each demo: one build for
# each evaluation that takes the operator, and a hit for every later block
DEMO_OPERATOR_TRAFFIC = {"fig2b": (0, 0), "fig3b": (0, 0), "fig3c": (0, 0), "fig4": (7, 1),
                         "figS2": (0, 1), "figS3-compare": (0, 1), "figS4": (1, 1)}


@pytest.mark.parametrize("stem", DEMO_ENGINE_PATHS)
def test_every_demo_engine_path(tmp_path, monkeypatch, fringe_evaluations, cold_train_operator,
                                stem):
    taken = []  # each block's path, then "build" when that block built the operator
    for target, name, path in ((dynamics_module, "run_pulse_train_block", "flash"),
                               (dynamics_module, "_operator_block", "operator"),
                               (cold_train_operator, "__wrapped__", "build")):
        original = getattr(target, name)
        monkeypatch.setattr(target, name,
                            lambda *args, f=original, path=path: taken.append(path) or f(*args))
    command = {"fig4": "trace-phase-space", "figS4": "squeeze-scan"}.get(stem, "ramsey-scan")
    assert main([command, "--config", f"configs/{stem}.yaml", "--out", str(tmp_path / "out.txt"),
                 "--seed", "1"]) == 0
    paths = iter(" ".join(taken).replace("operator build", "build").split())
    evaluations = []
    for widths in fringe_evaluations:
        first, *rest = [next(paths) for _ in widths]
        assert set(rest) <= {first.replace("build", "operator")}, stem
        evaluations.append((sum(widths), first))
    assert evaluations == DEMO_ENGINE_PATHS[stem] and next(paths, None) is None
    assert cold_train_operator.cache_info()[:2] == DEMO_OPERATOR_TRAFFIC[stem]


def test_decode_tables_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(5)
    x = np.concatenate([[0.0], np.cumsum(rng.random(6))]) * 1e-8 / 3.0
    phi = np.concatenate([[0.0], np.cumsum(rng.random(6))]) / 7.0
    tables = DecodeTables(x=x, phi_plus=phi, p=x * 0.3 * (1.0 + rng.random(7) / 10.0),
                          contrast=0.8 - phi / 11.0)
    path = tmp_path / "tables.txt"
    write_decode_tables(tables, path, {"decode": {"alpha_max": 2.0}})
    assert read_table(path)[0] == ["x_m", "phi_plus_rad", "p_kgms", "contrast"]
    back = read_decode_tables(path)
    for name in ("x", "phi_plus", "p", "contrast", "pos_x", "pos_phi0"):
        assert np.array_equal(getattr(back, name), getattr(tables, name)), name


def test_other_files_are_not_decode_tables(tmp_path):
    # a v2 file with its theta0 = pi column, a scan table, and a v3 file of two amplitudes
    rows = [(0.0, 0.0, 0.0, 0.0, 0.8), (1e-8, 0.3, -0.3, 3e-27, 0.7), (2e-8, 0.6, -0.6, 6e-27, 0.5)]
    v2 = tmp_path / "v2.txt"
    write_table(v2, "ionstrobe-decode-tables v2",
                ["x_m", "phi_plus_rad", "phi_minus_rad", "p_kgms", "contrast"], rows, {}, None)
    scan = tmp_path / "scan.txt"
    assert main(["ramsey-scan", "--config", write_cfg(tmp_path, FAST_SCAN), "--out", str(scan)]) == 0
    short = tmp_path / "short.txt"
    write_decode_tables(DecodeTables(*np.array(rows)[:2, [0, 1, 3, 4]].T), short, {})
    assert len(read_table(short)[1]) == 2
    for path in (v2, scan, short):
        with pytest.raises(ConfigError, match="not an ionstrobe-decode-tables v3 file"):
            read_decode_tables(path)


def test_cli_import_leaves_scipy_out(tmp_path):
    # a fresh interpreter, so modules the test session imported do not count;
    # after the import, one trace builds the decode tables and decodes through them
    src = str(Path(ionstrobe.__file__).resolve().parents[1])
    cfg = write_cfg(tmp_path, SMALL_TRACE_CONFIG)
    code = "\n".join([
        f"import sys; sys.path.insert(0, {src!r})",
        "from ionstrobe.cli import main",
        "print('scipy' in sys.modules)",
        f"assert main(['trace-phase-space', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 't.txt')!r}]) == 0",
        "print('scipy' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


# the thread count of every OpenBLAS library mapped after `import ionstrobe,
# numpy`, asked as bench/report.py does, and the OPENBLAS_NUM_THREADS then set
BLAS_PROBE = """
import ctypes, json, os
import ionstrobe, numpy
threads = []
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
for path in libs:
    lib = ctypes.CDLL(path)
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
        fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads.append(fn())
            break
print(json.dumps([threads, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def blas_env(**extra) -> dict:
    """A fresh interpreter's environment without the OPENBLAS_NUM_THREADS the
    suite sets (conftest), plus `extra`."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": str(Path(ionstrobe.__file__).resolve().parents[1]), **extra}


def blas_threads(env: dict) -> tuple[list, str | None]:
    if not sys.platform.startswith("linux"):
        pytest.skip("the probe reads the process's memory map from /proc")
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True,
                         env=env, check=True)
    threads, variable = json.loads(out.stdout)
    if not threads:
        pytest.skip("numpy maps no OpenBLAS library")
    return threads, variable


def test_package_runs_one_blas_thread():
    assert blas_threads(blas_env()) == ([1], "1")


def test_user_blas_thread_count_wins():
    threads = blas_threads(blas_env(OPENBLAS_NUM_THREADS="2"))
    # OpenBLAS takes at most one thread per usable CPU
    assert threads == ([min(2, len(os.sched_getaffinity(0)))], "2")


def test_table_bytes_need_no_blas_variable(tmp_path):
    config = Path(ionstrobe.__file__).resolve().parents[2] / "configs" / "figS2.yaml"
    tables = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"figS2_{len(tables)}.txt"
        subprocess.run([sys.executable, "-m", "ionstrobe.cli", "ramsey-scan", "--config",
                        str(config), "--out", str(out), "--seed", "1"],
                       capture_output=True, env=blas_env(**extra), check=True)
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_runtime_imports_are_stdlib_numpy_yaml():
    # every absolute import in the package, also those inside functions
    # _sha2 is the standard library's SHA-2 module from CPython 3.12 on, and is
    # missing from sys.stdlib_module_names before
    allowed = set(sys.stdlib_module_names) | {"_sha2", "numpy", "yaml", "ionstrobe"}
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



# What one command loads, read in a fresh interpreter after the command returns:
# the suite's own process already holds hashlib (pytest and hypothesis import it).
# A None entry is the CLI's block on _hashlib, which no import gets past.
LOADED_PROBE = (
    "import json, os, sys\n"
    "from ionstrobe.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "maps = '/proc/self/maps'\n"
    "mapped = 'libcrypto' in open(maps).read() if os.path.exists(maps) else None\n"
    "print(json.dumps([[code, sys.modules.get('_hashlib') is not None,\n"
    "                   'numpy.random' in sys.modules], mapped]))\n"
)


def probe_run(args, prelude: str = "") -> tuple[list, bool | None, str]:
    """([exit code, _hashlib loaded, numpy.random loaded], libcrypto mapped or
    None without /proc, stderr) after `ionstrobe args` in a fresh interpreter
    that runs `prelude` first."""
    out = subprocess.run([sys.executable, "-c", prelude + LOADED_PROBE, *args],
                         capture_output=True, text=True,
                         env=blas_env(OPENBLAS_NUM_THREADS="1"), check=True)
    loaded, mapped = json.loads(out.stdout.splitlines()[-1])
    return loaded, mapped, out.stderr


def modules_after(args) -> list:
    """[exit code, _hashlib loaded, numpy.random loaded] after `ionstrobe args`."""
    return probe_run(args)[0]


def sha256_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class TestConfigHash:
    """The footer's config_hash is the SHA-256 of the canonical JSON, and no
    command that draws nothing loads OpenSSL or numpy.random to write it."""

    SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                        st.floats(), st.text(max_size=8))
    SECTIONS = st.dictionaries(
        st.text(max_size=6),
        st.dictionaries(st.text(max_size=6),
                        st.one_of(SCALARS, st.lists(SCALARS, max_size=4)), max_size=5),
        max_size=4)

    @settings(max_examples=200, deadline=None)
    @given(SECTIONS)
    def test_hash_is_sha256_of_canonical_json(self, cfg):
        assert config_hash(cfg) == sha256_hash(cfg)

    def test_hash_is_sha256_on_demo_configs(self):
        for path in sorted(Path("configs").glob("*.yaml")):
            cfg = load_config(path)
            assert config_hash(cfg) == sha256_hash(cfg), path

    def test_no_openssl_or_numpy_random_without_draws(self, tmp_path):
        scan = write_cfg(tmp_path, FAST_SCAN.replace("mode: shots, shots: 64", "mode: analytic"))
        tables = write_cfg(tmp_path, SMALL_TRACE_CONFIG, name="tables.yaml")
        for args in (["ramsey-scan", "--config", scan, "--out", str(tmp_path / "scan.txt")],
                     ["build-tables", "--config", tables, "--out", str(tmp_path / "dec.txt")]):
            assert modules_after(args) == [0, False, False], args[0]
        assert read_table(tmp_path / "scan.txt")[2]["config_hash"] == sha256_hash(load_config(scan))

    def test_shot_run_footer_hash_is_sha256(self, tmp_path):
        cfg, out = write_cfg(tmp_path, FAST_SCAN), tmp_path / "shots.txt"
        assert modules_after(["ramsey-scan", "--config", cfg, "--out", str(out)])[:1] == [0]
        assert read_table(out)[2]["config_hash"] == sha256_hash(load_config(cfg))


# a shot scan that also draws phase noise, and small pattern and stability runs
DRAWING_CONFIGS = {
    "ramsey-scan": FAST_SCAN.replace("scan:\n", "scan:\n  inject_phase_noise: true\n"),
    "pattern-scan": "pattern: {nx: 6, nz: 6, extent_nm: 160.0, bootstrap: 8}\n"
                    "detection: {mode: shots, shots: 50, base_seed: 21}\n",
    "stability": "stability: {duration_s: 20.0, sample_interval_s: 0.5, windows_s: [1.0, 5.0], "
                 "reference_interval_s: 2.0}\n",
}
# the SHA-256 module config_hash takes before hashlib's
SHA256_MODULE = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


def drawing_run(tmp_path, command: str, prelude: str = "", tag: str = "") -> tuple:
    """probe_run of `command` on its DRAWING_CONFIGS entry, and its config and output paths."""
    cfg = write_cfg(tmp_path, DRAWING_CONFIGS[command], name=f"{command}{tag}.yaml")
    out = tmp_path / f"{command}{tag}.txt"
    return (*probe_run([command, "--config", cfg, "--out", str(out)], prelude), cfg, out)


class TestCliKeepsOpenSSLOut:
    """The CLI blocks _hashlib before its command, so a draw's numpy.random
    (secrets, hmac, hashlib) maps no libcrypto; the library leaves it alone."""

    @pytest.mark.parametrize("command", sorted(DRAWING_CONFIGS))
    def test_draws_load_numpy_random_only(self, tmp_path, command):
        loaded, mapped, err = drawing_run(tmp_path, command)[:3]
        assert loaded == [0, False, True] and err == ""
        assert mapped in (False, None)

    def test_loaded_hashlib_is_kept_with_the_same_bytes(self, tmp_path):
        blocked, _, blocked_err, _, blocked_out = drawing_run(tmp_path, "ramsey-scan")
        kept, _, kept_err, _, kept_out = drawing_run(tmp_path, "ramsey-scan",
                                                     "import _hashlib\n", tag="_kept")
        assert blocked == [0, False, True] and kept == [0, True, True]
        assert blocked_err == kept_err == ""
        assert blocked_out.read_bytes() == kept_out.read_bytes()

    @pytest.mark.parametrize("fallback", ["_md5", SHA256_MODULE])
    def test_missing_fallback_keeps_openssl(self, tmp_path, fallback):
        loaded, _, err, cfg, out = drawing_run(
            tmp_path, "ramsey-scan", f"import sys\nsys.modules[{fallback!r}] = None\n")
        assert loaded == [0, True, True] and err == ""
        assert read_table(out)[2]["config_hash"] == sha256_hash(load_config(cfg))

    def test_library_import_and_draw_leave_hashlib_alone(self):
        code = ("import json, sys\n"
                "import ionstrobe\n"
                "before = '_hashlib' in sys.modules\n"
                "from ionstrobe.sequence import sample_detection\n"
                "sample_detection(0.5, 10, 1)\n"
                "print(json.dumps([before, sys.modules.get('_hashlib') is not None]))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=blas_env(OPENBLAS_NUM_THREADS="1"), check=True)
        assert json.loads(out.stdout) == [False, True]


# the parser of _Loader without libyaml: the same resolvers on PyYAML's own parser
class PythonLoader(yaml.SafeLoader):
    yaml_implicit_resolvers = config_module._Loader.yaml_implicit_resolvers


YAML_EDGES = [
    "3e5", "1e-9", "-2.5E+3", ".5", "1.", "1_000", "0x1F", "0o17", "017", "0b101", "+12",
    "yes", "No", "on", "~", "1:30", "190:20:30.15", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "1e400", "-.inf", ".NaN", "'3e5'", "!!float 1",
]


class TestYamlLoader:
    """Configs read the same through libyaml's parser as through PyYAML's."""

    def test_loader_uses_libyaml_where_built(self):
        base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        assert issubclass(config_module._Loader, base)

    def test_demo_configs_load_alike(self):
        for path in sorted(Path("configs").glob("*.yaml")):
            text = path.read_text()
            fast = yaml.load(text, Loader=config_module._Loader)
            assert repr(fast) == repr(yaml.load(text, Loader=PythonLoader)), path

    @pytest.mark.parametrize("edge", YAML_EDGES)
    def test_edge_scalars_load_alike(self, edge):
        for text in (f"v: {edge}", f"v: [{edge}, {edge}]", f"s: {{v: {edge}}}\ns: {{w: {edge}}}"):
            fast = yaml.load(text, Loader=config_module._Loader)
            assert repr(fast) == repr(yaml.load(text, Loader=PythonLoader)), text

    def test_syntax_error_names_file_line_and_column(self, tmp_path):
        cfg = write_cfg(tmp_path, "hilbert:\n  fock_dim: [1, 2\ntrain: {n_flashes: 3}\n")
        with pytest.raises(ConfigError, match=rf"{re.escape(str(cfg))} is not valid YAML(.|\n)*line 3, column"):
            load_config(cfg)


def test_every_schema_key_is_read():
    # a key that no code reads is a knob that does nothing: every SCHEMA key must
    # appear as a string constant (a subscript, or a name in a tuple of keys)
    # somewhere in the package outside the SCHEMA literal itself
    package = Path(ionstrobe.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        schema = {id(node) for top in tree.body
                  if isinstance(top, ast.AnnAssign) and getattr(top.target, "id", None) == "SCHEMA"
                  for node in ast.walk(top)}
        found |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in schema}
    unread = [f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys
              if key not in found]
    assert unread == []


def test_bench_tracer_layers_exist():
    # bench/tracer.py wraps every <module>.<func> of its LAYERS, read here without
    # running it; a function that is gone otherwise shows only as "bound nowhere"
    # in a traced benchmark run
    path = Path(ionstrobe.__file__).resolve().parents[2] / "bench" / "tracer.py"
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"
    )
    assert "sequence" in layers and "cli" in layers
    missing = [f"{module}.{func}" for module, funcs in layers.items() for func in funcs
               if not hasattr(importlib.import_module(f"ionstrobe.{module}"), func)]
    assert missing == []


# SMALL_TRACE_CONFIG at four theta0 values, with the pi/2 tuner
TUNED_TRACE_CONFIG = (
    "hilbert: {fock_dim: 80}\n"
    "train: {rabi_scale: auto}\n"
    "state: {alpha_abs: 2.0}\n"
    "decode: {alpha_max: 3.0, alpha_step: 0.5}\n"
    "scan:\n"
    "  phi_num: 12\n"
    "  outer_var: theta0\n"
    "  outer_values: [0.0, 1.5707963, 3.1415927, 4.712389]\n"
    "detection: {mode: analytic, base_seed: 55}\n"
)


# small stand-ins for the demo configs the benchmark's workloads run, by stem;
# each reaches every layer its workload expects to be called
TRACED_CONFIGS = {
    "fig4": TUNED_TRACE_CONFIG,
    "figS2": ("hilbert: {fock_dim: 40}\nstate: {alpha_abs: 1.0}\n"
              "scan: {phi_num: 6, outer_var: theta0, outer_values: [0.0, 1.5]}\n"
              "detection: {mode: analytic, base_seed: 801}\n"),
    "figS3-compare": ("hilbert: {fock_dim: 40}\nstate: {alpha_abs: 1.0}\n"
                      "scan: {phi_num: 6, outer_var: theta0, outer_values: [0.0, 1.5]}\n"
                      "detection: {mode: shots, shots: 20, base_seed: 802}\n"),
    "figS4": ("hilbert: {fock_dim: 48}\ntrain: {cycles_per_flash: 2}\nstate: {zeta_abs: 0.3}\n"
              "scan: {phi_num: 6, outer_var: zeta0, outer_values: [0.0, 1.5]}\n"
              "detection: {mode: analytic, base_seed: 903}\n"),
    "fig2c": ("pattern: {wavelength_nm: 138.0, rotation_rad: 0.84, contrast: 0.76, "
              "extent_nm: 200.0, nx: 6, nz: 6}\ndetection: {mode: shots, shots: 50, base_seed: 510}\n"),
    "fig2b": ("hilbert: {fock_dim: 24}\ntrain: {n_flashes: 1, flash_ns: 903.0, cycle_ns: 910.0}\n"
              "state: {alpha_abs: 0.0}\ndephasing: {envelope: none}\n"
              "scan: {phi_num: 8, outer_var: none, outer_values: [0.0], inject_phase_noise: true}\n"
              "stability: {white_sigma_rad: 0.62, sample_interval_s: 0.01}\n"
              "detection: {mode: shots, shots: 50, base_seed: 402}\n"),
    "table-stability-ac": ("stability: {white_sigma_rad: 0.3, drift_rate_rad_per_s: 0.0007, "
                           "sample_interval_s: 0.2, duration_s: 40.0, windows_s: [2.0, 10.0], "
                           "reference_interval_s: 10.0}\ndetection: {base_seed: 1002}\n"),
}


def traced_workload(tmp_path, name):
    """(expect_nonzero of the benchmark's workload `name`, the per-layer counts
    of its commands, each run on its TRACED_CONFIGS stand-in through
    bench/child.py --trace and summed over the commands). The workload is read
    from bench/workloads.py in a fresh interpreter."""
    bench = Path(ionstrobe.__file__).resolve().parents[2] / "bench"
    code = (f"import json, sys; sys.path.insert(0, {str(bench)!r}); from workloads import WORKLOADS; "
            f"w = WORKLOADS[{name!r}]; "
            "print(json.dumps([[(c.command, c.config) for c in w.commands], w.expect_nonzero]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    commands, expected = json.loads(out.stdout)
    layers: dict = {}
    for command, stem in commands:
        cfg, meta = write_cfg(tmp_path, TRACED_CONFIGS[stem], f"{stem}.yaml"), tmp_path / "meta.json"
        subprocess.run([sys.executable, str(bench / "child.py"), "--meta", str(meta), "--trace", "--",
                        command, "--config", cfg, "--out", str(tmp_path / f"{stem}.txt")],
                       capture_output=True, check=True)
        for key, value in json.loads(meta.read_text())["layers"].items():
            layers[key] = layers.get(key, 0) + value
    return expected, layers


def test_bench_trace_sees_decode_trace_counters(tmp_path):
    # a traced trace-phase-space run through bench/child.py must call every layer
    # whose counter the benchmark's decode-trace workload requires to be nonzero
    expected, layers = traced_workload(tmp_path, "decode-trace")
    assert "dynamics.run_pulse_train.calls" in expected
    assert [name for name in expected if not layers.get(name)] == []


@pytest.mark.parametrize("workload, counter", [
    ("scan-surfaces", "sequence.excitation_builds"),  # read from _excitation_matrix.cache_info()
    ("shot-analysis", "stability.simulate_phase_trace.calls"),
])
def test_bench_trace_sees_workload_counters(tmp_path, workload, counter):
    # the same for the other workloads, over all of each one's commands; only
    # scan-surfaces' squeeze scan builds squeeze columns
    expected, layers = traced_workload(tmp_path, workload)
    assert counter in expected
    assert [name for name in expected if not layers.get(name)] == []


def valid_values(entry):
    """Values SCHEMA accepts for one key."""
    if entry.range is None:
        return st.sampled_from(entry.words) if entry.words else st.booleans()
    lo, hi = (float(end) for end in entry.range[1:-1].split(","))
    if type(entry.default) is int:  # every integer range is closed below, and above if finite
        numbers = st.integers(int(lo), int(min(hi, 10**6)))
    else:
        numbers = st.floats(lo, hi, exclude_min=entry.range[0] == "(",
                            exclude_max=entry.range[-1] == ")", allow_nan=False,
                            allow_infinity=False)
    if isinstance(entry.default, list):
        return st.lists(numbers, min_size=1, max_size=4)
    return st.one_of(numbers, st.sampled_from(entry.words)) if entry.words else numbers


def merged(entries: dict) -> dict:
    user: dict = {}
    for (section, key), value in entries.items():
        user.setdefault(section, {})[key] = value
    return merge_config(user)


MERGED_CONFIGS = st.lists(st.sampled_from(SCHEMA_KEYS), max_size=8).flatmap(
    lambda keys: st.fixed_dictionaries({key: valid_values(SCHEMA[key[0]][key[1]])
                                        for key in keys})).map(merged)


def python_echo_lines(config: dict) -> list[str]:
    """config_echo_lines through PyYAML's pure-Python dumper."""
    dumped = yaml.safe_dump(config, sort_keys=True, default_flow_style=False)
    return ["# config:"] + [f"#   {line}" for line in dumped.rstrip("\n").split("\n")]


class TestTableText:
    """The table writer's text is the same as one format_number per value and
    one pure-Python YAML dump per config echo."""

    def test_echo_matches_the_python_dumper_on_demo_configs(self):
        for path in sorted(Path("configs").glob("*.yaml")):
            cfg = load_config(path)
            assert config_echo_lines(cfg) == python_echo_lines(cfg), path

    @settings(max_examples=200, deadline=None)
    @given(MERGED_CONFIGS)
    def test_echo_matches_the_python_dumper_on_merged_configs(self, cfg):
        assert config_echo_lines(cfg) == python_echo_lines(cfg)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
        st.integers(-10**300, 10**300), st.booleans()), min_size=3, max_size=3), max_size=5),
        st.sampled_from([12, 17]))
    def test_rows_match_format_number(self, rows, digits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.txt")
            write_table(path, "t", ["a", "b", "c"], rows, {}, None, digits=digits)
            text = path.read_text().splitlines()[2 : 2 + len(rows)]
        assert text == [" ".join(format_number(v, digits) for v in row) for row in rows]

    def test_row_width_must_match(self, tmp_path):
        with pytest.raises(ValueError, match="row width 2 does not match 3 columns"):
            write_table(tmp_path / "t.txt", "t", ["a", "b", "c"], [(1.0, 2.0)], {}, None)


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
