"""Strict hierarchical run configuration.

Configs are YAML documents with a fixed schema: unknown keys are hard
errors (silent typos are the dominant failure mode in physics configs),
and every physical quantity carries its unit in the key name. Defaults
mirror the headline experimental parameters: a 25 amu ion on a 1.3 MHz
mode driven at eta = 0.4 with 30 flashes of 100 ns, one per motional
period, and a 70 us gaussian coherence envelope.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from pathlib import Path

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

DEFAULTS: dict = {
    "hilbert": {"fock_dim": 128, "tail_tol": 1e-4},
    "mode": {
        "freq_hz": 1.3e6,
        "n_th": 0.15,
        "mode_angle_deg": 0.0,
        "thermal_samples": 200,
        "thermal_seed": 3,
    },
    "units": {"mass_amu": 25.0, "hbar": HBAR},
    "drive": {
        "rabi_hz": 0.3e6,
        "eta": 0.40,  # or "geometry" to derive from the wave pattern
        "eff_wavelength_nm": 140.0,
        "pattern_rotation_rad": 0.840,
    },
    "train": {
        "n_flashes": 30,
        "flash_ns": 100.0,
        "cycle_ns": 0.0,  # 0 means cycles_per_flash motional periods
        "cycles_per_flash": 1,
        "dphi_rad": 0.0,
        "rabi_scale": "auto",  # or an explicit multiplier
        "tune_tol": 5e-3,
    },
    "state": {
        "alpha_abs": 0.0,
        "alpha_phase_rad": 0.0,
        "zeta_abs": 0.0,
        "zeta_phase_rad": 0.0,
    },
    "dephasing": {"tau_us": 70.0, "envelope": "gaussian"},
    "scan": {
        "phi_start_rad": 0.0,
        "phi_stop_rad": TWO_PI,
        "phi_num": 30,
        "outer_var": "none",
        "outer_values": [0.0],
        "interleave_reference": False,
        "inject_phase_noise": False,
    },
    "detection": {"mode": "analytic", "shots": 250, "base_seed": 20260810},
    "pattern": {
        "wavelength_nm": 138.0,
        "rotation_rad": 0.840,
        "phase_origin_rad": 0.0,
        "contrast": 0.76,
        "extent_nm": 200.0,
        "nx": 26,
        "nz": 26,
        "bootstrap": 32,
    },
    "decode": {
        "alpha_max": 7.2,
        "alpha_step": 0.4,
        "phi_points": 16,
        "tables_path": "",
    },
    "stability": {
        "white_sigma_rad": 0.0,
        "rw_sigma_rad_per_sqrt_s": 0.0,
        "drift_rate_rad_per_s": 0.0,
        "sample_interval_s": 0.2,
        "duration_s": 650.0,
        "windows_s": [2.0, 40.0, 200.0],
        "reference_interval_s": 10.0,
    },
}

# keys whose values may legitimately take more than one type
_POLYMORPHIC = {
    ("drive", "eta"): (float, str),
    ("train", "rabi_scale"): (float, str),
}


def _check_type(section: str, key: str, value, default) -> None:
    if (section, key) in _POLYMORPHIC:
        allowed = _POLYMORPHIC[(section, key)]
        if isinstance(value, bool) or not isinstance(value, allowed + (int,)):
            raise ConfigError(f"{section}.{key} has invalid type {type(value).__name__}")
        return
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{section}.{key} must be a boolean")
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{section}.{key} must be an integer")
    elif isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number")
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{section}.{key} must be a string")
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{section}.{key} must be a list")


def _check_finite(section: str, key: str, value) -> None:
    items = value if isinstance(value, list) else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ConfigError(f"{section}.{key} must be finite, got {value}")


def merge_config(user: dict | None) -> dict:
    """Validate a user document against the schema and merge over defaults."""
    merged = {s: dict(keys) for s, keys in DEFAULTS.items()}
    if user is None:
        return merged
    if not isinstance(user, dict):
        raise ConfigError("config root must be a mapping of sections")
    for section, entries in user.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section '{section}'")
        if not isinstance(entries, dict):
            raise ConfigError(f"section '{section}' must be a mapping")
        for key, value in entries.items():
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key '{section}.{key}'")
            _check_type(section, key, value, DEFAULTS[section][key])
            _check_finite(section, key, value)
            default = DEFAULTS[section][key]
            if isinstance(default, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
                value = float(value)
            merged[section][key] = value
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
    return UnitScale.for_mode(
        mass=cfg["units"]["mass_amu"] * ATOMIC_MASS,
        freq=mode_freq(cfg),
        hbar=cfg["units"]["hbar"],
    )


def build_mode(cfg: dict) -> ModeParams:
    return ModeParams(
        freq=mode_freq(cfg),
        n_th=cfg["mode"]["n_th"],
        mode_angle=math.radians(cfg["mode"]["mode_angle_deg"]),
    )


def resolve_eta(cfg: dict) -> float:
    eta = cfg["drive"]["eta"]
    if isinstance(eta, str):
        if eta != "geometry":
            raise ConfigError(f"drive.eta must be a number or 'geometry', got '{eta}'")
        projection = cfg["drive"]["pattern_rotation_rad"] - math.radians(
            cfg["mode"]["mode_angle_deg"]
        )
        return derive_lamb_dicke(
            mass=cfg["units"]["mass_amu"] * ATOMIC_MASS,
            freq=mode_freq(cfg),
            eff_wavelength=cfg["drive"]["eff_wavelength_nm"] * 1e-9,
            projection_angle=projection,
            hbar=cfg["units"]["hbar"],
        )
    if eta < 0:
        raise ConfigError("drive.eta must be >= 0")
    return float(eta)


def cycle_duration(cfg: dict) -> float:
    if cfg["train"]["cycle_ns"] > 0:
        return cfg["train"]["cycle_ns"] * 1e-9
    return cfg["train"]["cycles_per_flash"] * TWO_PI / mode_freq(cfg)


def build_train(cfg: dict, rabi_scale: float = 1.0, phase_step: float | None = None) -> PulseTrainSpec:
    return PulseTrainSpec(
        n_flashes=cfg["train"]["n_flashes"],
        flash_dur=cfg["train"]["flash_ns"] * 1e-9,
        cycle_dur=cycle_duration(cfg),
        base_phase=0.0,
        phase_step=cfg["train"]["dphi_rad"] if phase_step is None else phase_step,
        drive=DriveParams(rabi=TWO_PI * cfg["drive"]["rabi_hz"] * rabi_scale, eta=resolve_eta(cfg)),
    )


def build_excitation(cfg: dict):
    state = cfg["state"]
    if state["alpha_abs"] > 0 and state["zeta_abs"] > 0:
        raise ConfigError("state: set alpha_abs or zeta_abs, not both")
    if state["zeta_abs"] > 0:
        return SqueezeParam(state["zeta_abs"], state["zeta_phase_rad"])
    return CoherentAmp(state["alpha_abs"], state["alpha_phase_rad"])


def build_dephasing(cfg: dict) -> DephasingSpec:
    return DephasingSpec(tau=cfg["dephasing"]["tau_us"] * 1e-6, envelope=cfg["dephasing"]["envelope"])


def build_sequence_spec(cfg: dict, rabi_scale: float = 1.0, phase_step: float | None = None) -> SequenceSpec:
    return SequenceSpec(
        hilbert=HilbertSpec(fock_dim=cfg["hilbert"]["fock_dim"], tail_tol=cfg["hilbert"]["tail_tol"]),
        mode=build_mode(cfg),
        frame=FrameParams(),
        analysis=build_train(cfg, rabi_scale=rabi_scale, phase_step=phase_step),
        excitation=build_excitation(cfg),
        dephasing=build_dephasing(cfg),
        thermal_samples=cfg["mode"]["thermal_samples"],
        thermal_seed=cfg["mode"]["thermal_seed"],
    )


def build_scan_spec(cfg: dict) -> ScanSpec:
    scan = cfg["scan"]
    phi_grid = np.linspace(
        scan["phi_start_rad"], scan["phi_stop_rad"], scan["phi_num"], endpoint=False
    )
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


_TUNING_CACHE: dict[tuple, TrainTuning] = {}


def resolve_tuning(cfg: dict) -> TrainTuning:
    """Explicit (dphi_rad, rabi_scale) from the config, or run the tuner.

    Auto-tuning runs on the alpha = 0 sequence and is cached in-process on
    the parameters that matter for the train dynamics.
    """
    scale = cfg["train"]["rabi_scale"]
    if not isinstance(scale, str):
        return TrainTuning(
            phase_step=cfg["train"]["dphi_rad"],
            rabi_scale=float(scale),
            achieved_sigma_z=math.nan,
        )
    if scale != "auto":
        raise ConfigError(f"train.rabi_scale must be a number or 'auto', got '{scale}'")
    key = (
        cfg["hilbert"]["fock_dim"],
        cfg["mode"]["freq_hz"],
        cfg["mode"]["n_th"],
        cfg["mode"]["thermal_samples"],
        cfg["mode"]["thermal_seed"],
        cfg["drive"]["rabi_hz"],
        resolve_eta(cfg),
        cfg["train"]["n_flashes"],
        cfg["train"]["flash_ns"],
        cycle_duration(cfg),
        cfg["train"]["dphi_rad"],
        cfg["train"]["tune_tol"],
    )
    if key not in _TUNING_CACHE:
        base = build_sequence_spec(cfg)
        base = replace(base, excitation=CoherentAmp(0.0, 0.0))
        _TUNING_CACHE[key] = tune_pulse_train(base, tol=cfg["train"]["tune_tol"])
    return _TUNING_CACHE[key]
