"""Shared fixtures: tuned headline-parameter sequences at two space sizes, and a
counter of the sequence layer's block propagations."""

import math
import os

# The suite's matrices are at most a few hundred wide, where OpenBLAS worker
# threads gain nothing; waking one on an idle second CPU can stall a single
# eigh or matmul by ~0.3 s, enough to break the wall-time bounds of
# test_acceptance. Set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from ionstrobe import (
    CoherentAmp,
    DriveParams,
    HilbertSpec,
    ModeParams,
    UnitScale,
    ATOMIC_MASS,
)
from ionstrobe.calibrate import apply_tuning, build_decode_tables, tune_pulse_train
from ionstrobe.dynamics import DephasingSpec, PulseTrainSpec
import ionstrobe.sequence as sequence_module
from ionstrobe.sequence import SequenceSpec, sequence_fringes

OMEGA_LF = 2.0 * math.pi * 1.3e6


def run_sequence(spec: SequenceSpec, phi: float) -> tuple[float, float]:
    """(P_down, delta_n) of the full sequence at one analysis phase phi."""
    return sequence_fringes(spec, [spec.excitation])[0].evaluate(phi)


def headline_sequence_spec(fock_dim: int) -> SequenceSpec:
    """The headline configuration: 30 x 100 ns flashes at eta = 0.4, one per
    1.3 MHz period, thermal n_th = 0.15, 70 us gaussian envelope."""
    train = PulseTrainSpec(
        n_flashes=30,
        flash_dur=100e-9,
        cycle_dur=2.0 * math.pi / OMEGA_LF,
        drive=DriveParams(rabi=2.0 * math.pi * 0.3e6, eta=0.4),
    )
    return SequenceSpec(
        hilbert=HilbertSpec(fock_dim=fock_dim),
        mode=ModeParams(freq=OMEGA_LF, n_th=0.15),
        analysis=train,
        excitation=CoherentAmp(0.0, 0.0),
        dephasing=DephasingSpec(tau=70e-6, envelope="gaussian"),
        thermal_samples=200,
        thermal_seed=3,
    )


@pytest.fixture(scope="session")
def headline_units() -> UnitScale:
    return UnitScale.for_mode(25.0 * ATOMIC_MASS, OMEGA_LF)


@pytest.fixture(scope="session")
def tuned_headline_small():
    spec = headline_sequence_spec(64)
    tuning = tune_pulse_train(spec, tol=5e-3)
    return apply_tuning(spec, tuning), tuning


@pytest.fixture(scope="session")
def tuned_headline_large():
    spec = headline_sequence_spec(232)
    tuning = tune_pulse_train(spec, tol=5e-3)
    return apply_tuning(spec, tuning), tuning


@pytest.fixture(scope="session")
def headline_decode_tables(tuned_headline_large, headline_units):
    spec, _ = tuned_headline_large
    return build_decode_tables(spec, headline_units, np.arange(0.0, 7.3, 0.4))


@pytest.fixture
def block_calls(monkeypatch):
    """The widths of the block propagations sequence_fringes makes, in call order.

    Only the sequence module's binding of propagate_block, its one dynamics
    entry point, is wrapped, so the tuner's own block propagations are not
    counted, whichever path (flash by flash or train operator) a block takes.
    """
    widths = []
    block = sequence_module.propagate_block

    def counting(states, *args):
        widths.append(len(states))
        return block(states, *args)

    monkeypatch.setattr(sequence_module, "propagate_block", counting)
    return widths
