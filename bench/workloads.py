"""The benchmark's workloads: demo configs run through the CLI, and their checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    command: str  # ionstrobe subcommand
    config: str  # stem of a file in configs/; the output is <stem>.txt
    check: Callable  # (output table, config path) -> list of failures


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # per-layer counters that a traced run of this workload must see nonzero
    expect_nonzero: tuple[str, ...]


_DYNAMICS_ON = (
    "hilbert.coupling_operator.calls",
    "hilbert.thermal_ensemble.calls",
    "hilbert.check_truncation.calls",
    "hilbert.state_constructions",
    "dynamics.run_pulse_train.calls",
    "dynamics.flash_evolve.calls",
    "dynamics.free_evolve.calls",
    "dynamics.mw_rotation.calls",
    "dynamics.flash_unitary_builds",
    "dynamics.flash_unitary_hits",
    "dynamics.flash_matvec_bytes",
    "sequence.run_scan.calls",
    "sequence.scan_points",
    "sequence.excitation_builds",
    "calibrate.tune_pulse_train.calls",
    "calibrate.tune_evaluations",
)
_ALWAYS = (
    "config.load_config.calls",
    "tableio.write_table.calls",
    "tableio.bytes_written",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decode-trace",
            (Command("trace-phase-space", "fig4", checks.check_fig4),),
            _ALWAYS + _DYNAMICS_ON + (
                "hilbert.displacement_operator.calls",
                "sequence.characterize_reference_fringe.calls",
                "calibrate.build_decode_tables.calls",
                "fitting.fit_cosine.calls",
                "cli.cmd_trace_phase_space.calls",
            ),
        ),
        Workload(
            "scan-surfaces",
            (Command("ramsey-scan", "figS2", checks.check_analytic_scan),
             Command("ramsey-scan", "figS3-compare", checks.check_shot_scan),
             Command("squeeze-scan", "figS4", checks.check_figS4)),
            _ALWAYS + _DYNAMICS_ON + (
                "hilbert.displacement_operator.calls",
                "hilbert.squeeze_operator.calls",
                "sequence.sample_detection.calls",
                "cli.cmd_ramsey_scan.calls",
                "cli.cmd_squeeze_scan.calls",
            ),
        ),
        Workload(
            "shot-analysis",
            (Command("pattern-scan", "fig2c", checks.check_fig2c),
             Command("ramsey-scan", "fig2b", checks.check_shot_scan),
             Command("stability", "table-stability-ac", checks.check_stability)),
            _ALWAYS + (
                "sequence.run_scan.calls",
                "sequence.sample_detection.calls",
                "sequence.static_pattern_probe.calls",
                "calibrate.tune_pulse_train.calls",
                "fitting.fit_wave_pattern.calls",
                "fitting.bootstrap_pattern_uncertainty.calls",
                "stability.simulate_phase_trace.calls",
                "stability.windowed_phase_stat.calls",
                "stability.apply_reference_correction.calls",
                "cli.cmd_pattern_scan.calls",
                "cli.cmd_ramsey_scan.calls",
                "cli.cmd_stability.calls",
            ),
        ),
    )
}
