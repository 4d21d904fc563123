"""Stroboscopic spin-motion simulator for a single trapped ion.

A truncated-Fock-space simulator of one spin coupled to one motional mode
through a phase-stable traveling-wave drive, with the stroboscopic Ramsey
machinery to encode motional position and momentum into spin-phase shifts
and fringe contrast, decode them back through numeric calibration tables,
and characterize the classical phase-noise floor of the scheme.
"""

import os
# Set before numpy loads; a user's count wins. On products of at most 232 rows
# a second OpenBLAS thread only busy-waited (+40% CPU) and reordered sums.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    CalibrationError,
    ConfigError,
    DecodeError,
    DimensionMismatchError,
    FitError,
    IonstrobeError,
    TruncationError,
)
from .hilbert import (
    ATOMIC_MASS,
    HBAR,
    SPIN_DOWN,
    SPIN_UP,
    CoherentAmp,
    DriveParams,
    HilbertSpec,
    ModeParams,
    SpinMotionState,
    SqueezeParam,
    TruncationReport,
    UnitScale,
    check_truncation,
    coupling_operator,
    displacement_operator,
    expect_sigma_z,
    make_initial_state,
    squeeze_operator,
    thermal_ensemble,
)
from .dynamics import (
    DephasingSpec,
    PulseTrainSpec,
    apply_dephasing,
    flash_evolve,
    free_evolve,
    mw_rotation,
    propagate_block,
    run_pulse_train,
    run_pulse_train_block,
)
from .sequence import (
    PatternField,
    ScanRecord,
    ScanSpec,
    SequenceFringe,
    SequenceSpec,
    characterize_reference_fringe,
    run_scan,
    sample_detection,
    sample_scan,
    scan_fringes,
    sequence_fringes,
    static_pattern_probe,
)
from .fitting import (
    CosineFit,
    PatternFit,
    bootstrap_pattern_uncertainty,
    fit_cosine,
    fit_wave_pattern,
)
from .calibrate import (
    DecodedPoint,
    DecodeTables,
    TrainTuning,
    apply_tuning,
    build_decode_tables,
    derive_lamb_dicke,
    fit_scan,
    tune_pulse_train,
    unwrap_sweep_phases,
)
from .stability import (
    PhaseNoiseModel,
    PhaseTrace,
    apply_reference_correction,
    simulate_phase_trace,
    windowed_phase_stat,
)

__version__ = "0.1.0"
