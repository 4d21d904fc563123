"""Strict hierarchical run configuration.

Configs are YAML documents with a fixed schema, SCHEMA: unknown keys are
hard errors (silent typos are the dominant failure mode in physics
configs), every physical quantity carries its unit in the key name, and
each key's range is the precondition the simulator enforces, checked at
load so that every config error names its `section.key`. Defaults mirror
the headline experimental parameters: a 25 amu ion on a 1.3 MHz mode
driven at eta = 0.4 with 30 flashes of 100 ns, one per motional period,
and a 70 us gaussian coherence envelope.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .calibrate import TrainTuning, derive_lamb_dicke, tune_pulse_train
from .dynamics import DephasingSpec, PulseTrainSpec
from .errors import ConfigError
from .hilbert import (
    ATOMIC_MASS,
    HBAR,
    CoherentAmp,
    DriveParams,
    FrameParams,
    HilbertSpec,
    ModeParams,
    SqueezeParam,
    UnitScale,
)
from .sequence import ScanSpec, SequenceSpec
from .stability import PhaseNoiseModel

TWO_PI = 2.0 * math.pi


class Key(NamedTuple):
    """A value is one of `words`, or has the type of `default` (any number where
    that is a float or a word) and lies in the interval `range`, as does every
    element of a non-empty list. Every number must be finite as a float."""

    default: object
    range: str | None = None
    words: tuple = ()


ANY = "(-inf, inf)"

SCHEMA: dict[str, dict[str, Key]] = {
    "hilbert": {"fock_dim": Key(128, "[2, inf)"), "tail_tol": Key(1e-4, "(0, 1)")},
    "mode": {
        "freq_hz": Key(1.3e6, "(0, inf)"),
        "n_th": Key(0.15, "[0, inf)"),
        "mode_angle_deg": Key(0.0, "[-90, 90]"),
        "thermal_samples": Key(200, "[1, inf)"),
        "thermal_seed": Key(3, "[0, inf)"),
    },
    "units": {"mass_amu": Key(25.0, "(0, inf)"), "hbar": Key(HBAR, "(0, inf)")},
    "drive": {
        "rabi_hz": Key(0.3e6, "[0, inf)"),
        "eta": Key(0.40, "[0, inf)", ("geometry",)),  # geometry: from the wave pattern
        "eff_wavelength_nm": Key(140.0, "(0, inf)"),
        "pattern_rotation_rad": Key(0.840, ANY),
    },
    "train": {
        "n_flashes": Key(30, "[1, inf)"),
        "flash_ns": Key(100.0, "(0, inf)"),
        "cycle_ns": Key(0.0, ANY),  # 0 or less means cycles_per_flash motional periods
        "cycles_per_flash": Key(1, "[1, inf)"),
        "dphi_rad": Key(0.0, ANY),
        "rabi_scale": Key("auto", "[0, inf)", ("auto",)),  # auto: run the pi/2 tuner
        "tune_tol": Key(5e-3, "(0, inf)"),
    },
    "state": {
        "alpha_abs": Key(0.0, "[0, inf)"),
        "alpha_phase_rad": Key(0.0, ANY),
        "zeta_abs": Key(0.0, "[0, inf)"),
        "zeta_phase_rad": Key(0.0, ANY),
    },
    "dephasing": {
        "tau_us": Key(70.0, ANY),
        "envelope": Key("gaussian", None, ("gaussian", "exponential", "none")),
    },
    "scan": {
        "phi_start_rad": Key(0.0, ANY),
        "phi_stop_rad": Key(TWO_PI, ANY),
        "phi_num": Key(30, "[1, inf)"),
        "outer_var": Key("none", None, ("none", "theta0", "zeta0", "alpha_abs")),
        "outer_values": Key([0.0], ANY),
        "interleave_reference": Key(False),
        "inject_phase_noise": Key(False),
    },
    "detection": {
        "mode": Key("analytic", None, ("analytic", "shots")),
        "shots": Key(250, "[1, inf)"),
        "base_seed": Key(20260810, "[0, inf)"),
    },
    "pattern": {
        "wavelength_nm": Key(138.0, "(0, inf)"),
        "rotation_rad": Key(0.840, ANY),
        "phase_origin_rad": Key(0.0, ANY),
        "contrast": Key(0.76, "[-1, 1]"),
        "extent_nm": Key(200.0, ANY),
        "nx": Key(26, "[0, inf)"),
        "nz": Key(26, "[0, inf)"),
        "bootstrap": Key(32, "[4, inf)"),
    },
    "decode": {
        "alpha_max": Key(7.2, "[0, inf)"),
        "alpha_step": Key(0.4, "(0, inf)"),
        "tables_path": Key(""),
    },
    "stability": {
        "white_sigma_rad": Key(0.0, "[0, inf)"),
        "rw_sigma_rad_per_sqrt_s": Key(0.0, "[0, inf)"),
        "drift_rate_rad_per_s": Key(0.0, ANY),
        "sample_interval_s": Key(0.2, "(0, inf)"),
        "duration_s": Key(650.0, "(0, inf)"),
        "windows_s": Key([2.0, 40.0, 200.0], "(0, inf)"),
        "reference_interval_s": Key(10.0, "(0, inf)"),
    },
}

DEFAULTS: dict = {s: {k: e.default for k, e in keys.items()} for s, keys in SCHEMA.items()}


def _is_number(key: Key, value) -> bool:
    kinds = int if type(key.default) is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) or not abs(value) <= sys.float_info.max:
        return False
    lo, hi = (float(end) for end in key.range[1:-1].split(","))
    above = lo < value if key.range[0] == "(" else lo <= value
    return above and (value < hi if key.range[-1] == ")" else value <= hi)


def _accepts(key: Key, value) -> bool:
    if isinstance(value, str) and value in key.words:
        return True
    if key.range is None:
        return not key.words and type(value) is type(key.default)
    if isinstance(key.default, list):
        return isinstance(value, list) and bool(value) and all(_is_number(key, v) for v in value)
    return _is_number(key, value)


def _describe(key: Key) -> str:
    if key.range is None:
        return "one of " + ", ".join(key.words) if key.words else f"a {type(key.default).__name__}"
    what = "an integer" if type(key.default) is int else "a number"
    what = "a non-empty list of numbers" if isinstance(key.default, list) else what
    return f"{what} in {key.range}" + "".join(f" or '{w}'" for w in key.words)


def check_value(section: str, key: str, value):
    """`value` validated against SCHEMA[section][key]; numbers for float keys become floats."""
    entry = SCHEMA[section][key]
    if not _accepts(entry, value):
        raise ConfigError(f"{section}.{key} must be {_describe(entry)}, got {value!r}")
    if isinstance(entry.default, float) and value not in entry.words:
        return float(value)
    return value


def merge_config(user: dict | None) -> dict:
    """Validate a user document against SCHEMA and merge it over the defaults."""
    merged = {s: dict(keys) for s, keys in DEFAULTS.items()}
    if user is None:
        return merged
    if not isinstance(user, dict):
        raise ConfigError("config root must be a mapping of sections")
    for section, entries in user.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section '{section}'")
        if not isinstance(entries, dict):
            raise ConfigError(f"section '{section}' must be a mapping")
        for key, value in entries.items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key '{section}.{key}'")
            merged[section][key] = check_value(section, key, value)
    return merged


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 3e5 and 1e-9.

    PyYAML resolves plain scalars by YAML 1.1, where a float needs a dot
    and a signed exponent, so 3e5 would load as a string.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."),
)


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = yaml.load(p.read_text(), Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {p} is not valid YAML: {exc}") from exc
    return merge_config(doc)


def mode_freq(cfg: dict) -> float:
    return TWO_PI * cfg["mode"]["freq_hz"]


def build_units(cfg: dict) -> UnitScale:
    mass, hbar = cfg["units"]["mass_amu"] * ATOMIC_MASS, cfg["units"]["hbar"]
    try:
        return UnitScale.for_mode(mass=mass, freq=mode_freq(cfg), hbar=hbar)
    except (ArithmeticError, ValueError) as exc:
        keys = "units.mass_amu, units.hbar and mode.freq_hz"
        raise ConfigError(f"{keys} give no finite zero-point scales ({exc})") from exc


def build_mode(cfg: dict) -> ModeParams:
    return ModeParams(
        freq=mode_freq(cfg),
        n_th=cfg["mode"]["n_th"],
        mode_angle=math.radians(cfg["mode"]["mode_angle_deg"]),
    )


def resolve_eta(cfg: dict) -> float:
    eta = cfg["drive"]["eta"]
    if eta != "geometry":
        return float(eta)
    units = build_units(cfg)  # names the unit keys if the zero-point scale is not finite
    projection = cfg["drive"]["pattern_rotation_rad"] - math.radians(cfg["mode"]["mode_angle_deg"])
    if abs(projection) > math.pi / 2:
        raise ConfigError("drive.eta: geometry needs drive.pattern_rotation_rad minus "
                          "mode.mode_angle_deg within pi/2")
    wavelength = cfg["drive"]["eff_wavelength_nm"] * 1e-9
    return derive_lamb_dicke(units.mass, mode_freq(cfg), wavelength, projection, hbar=units.hbar)


def cycle_duration(cfg: dict) -> float:
    if cfg["train"]["cycle_ns"] > 0:
        return cfg["train"]["cycle_ns"] * 1e-9
    return cfg["train"]["cycles_per_flash"] * TWO_PI / mode_freq(cfg)


def build_train(cfg: dict) -> PulseTrainSpec:
    """The untuned train: the configured Rabi rate and dphi_rad (see apply_tuning)."""
    flash, cycle = cfg["train"]["flash_ns"] * 1e-9, cycle_duration(cfg)
    if flash > cycle:
        raise ConfigError(f"train.flash_ns ({flash * 1e9:g} ns) exceeds the {cycle * 1e9:g} ns cycle: "
                          "train.cycle_ns, or else train.cycles_per_flash periods of mode.freq_hz")
    return PulseTrainSpec(
        n_flashes=cfg["train"]["n_flashes"],
        flash_dur=flash,
        cycle_dur=cycle,
        base_phase=0.0,
        phase_step=cfg["train"]["dphi_rad"],
        drive=DriveParams(rabi=TWO_PI * cfg["drive"]["rabi_hz"], eta=resolve_eta(cfg)),
    )


def build_excitation(cfg: dict):
    state = cfg["state"]
    if state["alpha_abs"] > 0 and state["zeta_abs"] > 0:
        raise ConfigError("state.alpha_abs and state.zeta_abs: set one, not both")
    if state["zeta_abs"] > 0:
        return SqueezeParam(state["zeta_abs"], state["zeta_phase_rad"])
    return CoherentAmp(state["alpha_abs"], state["alpha_phase_rad"])


def build_dephasing(cfg: dict) -> DephasingSpec:
    deph = cfg["dephasing"]
    if deph["envelope"] != "none" and deph["tau_us"] <= 0:
        raise ConfigError("dephasing.tau_us must be > 0 unless dephasing.envelope is none")
    return DephasingSpec(tau=deph["tau_us"] * 1e-6, envelope=deph["envelope"])


def build_sequence_spec(cfg: dict) -> SequenceSpec:
    return SequenceSpec(
        hilbert=HilbertSpec(fock_dim=cfg["hilbert"]["fock_dim"], tail_tol=cfg["hilbert"]["tail_tol"]),
        mode=build_mode(cfg),
        frame=FrameParams(),
        analysis=build_train(cfg),
        excitation=build_excitation(cfg),
        dephasing=build_dephasing(cfg),
        thermal_samples=cfg["mode"]["thermal_samples"],
        thermal_seed=cfg["mode"]["thermal_seed"],
    )


def build_scan_spec(cfg: dict) -> ScanSpec:
    scan = cfg["scan"]
    outer, squeezed = scan["outer_var"], cfg["state"]["zeta_abs"] > 0
    if (outer == "theta0" and squeezed) or (outer == "zeta0" and not squeezed):
        raise ConfigError(f"scan.outer_var {outer} needs state.zeta_abs {'= 0' if squeezed else '> 0'}")
    if outer == "alpha_abs" and min(scan["outer_values"]) < 0:
        raise ConfigError("scan.outer_values must be >= 0 when scan.outer_var is alpha_abs")
    phi_grid = np.linspace(scan["phi_start_rad"], scan["phi_stop_rad"], scan["phi_num"], endpoint=False)
    return ScanSpec(
        phi_grid=tuple(phi_grid),
        outer_grid=tuple(float(v) for v in scan["outer_values"]),
        outer_var=scan["outer_var"],
        detection_mode=cfg["detection"]["mode"],
        shots=cfg["detection"]["shots"],
        base_seed=cfg["detection"]["base_seed"],
        interleave_reference=scan["interleave_reference"],
    )


def build_noise_model(cfg: dict) -> PhaseNoiseModel:
    st = cfg["stability"]
    return PhaseNoiseModel(
        white_sigma=st["white_sigma_rad"],
        rw_sigma=st["rw_sigma_rad_per_sqrt_s"],
        drift_rate=st["drift_rate_rad_per_s"],
        sample_interval=st["sample_interval_s"],
    )


def resolve_tuning(cfg: dict) -> TrainTuning:
    """Explicit (dphi_rad, rabi_scale) from the config, or tune the alpha = 0 sequence."""
    scale = cfg["train"]["rabi_scale"]
    if scale != "auto":
        return TrainTuning(cfg["train"]["dphi_rad"], float(scale), math.nan)
    base = replace(build_sequence_spec(cfg), excitation=CoherentAmp(0.0, 0.0))
    return tune_pulse_train(base, tol=cfg["train"]["tune_tol"])
