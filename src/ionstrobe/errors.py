"""Exception types shared across the package."""


class IonstrobeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(IonstrobeError):
    """Invalid or unknown configuration input."""


class TruncationError(IonstrobeError):
    """Fock-space truncation is inadequate; `index` places the failure in a batch,
    and `phase`, set by the train watchdog, is the worst analysis phase phi (rad)."""

    def __init__(self, message: str, index: int | None = None, phase: float | None = None):
        super().__init__(message)
        self.index = index
        self.phase = phase


class DimensionMismatchError(IonstrobeError):
    """Operator and state dimensions are incompatible."""


class FitError(IonstrobeError):
    """A least-squares fit failed (degenerate data or non-convergence)."""


class DecodeError(IonstrobeError):
    """Decode-table construction or lookup failed."""


class CalibrationError(IonstrobeError):
    """Pulse-train tuning did not reach the requested tolerance."""
