"""Exception types shared across the package."""


class IonnetError(Exception):
    """Base class for package-specific failures."""


class ZeroDetuningError(IonnetError, ValueError):
    """A Stark-shift or frame calculation hit a zero laser detuning."""


class IntegratorError(IonnetError, RuntimeError):
    """A propagated trajectory violated its trace/norm contract."""


class NumericalConsistencyError(IonnetError, RuntimeError):
    """A quantity that must be nonnegative came out significantly negative."""


class UndefinedVisibilityError(IonnetError, ZeroDivisionError):
    """Interference visibility requested where the denominator vanishes."""


class DegenerateInputError(IonnetError, ValueError):
    """Inputs define a zero-probability (unnormalizable) state."""


class EstimationError(IonnetError, RuntimeError):
    """State reconstruction failed to converge."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(IonnetError, ValueError):
    """A run configuration document is malformed."""


class PresetNotFoundError(ConfigError):
    """A named preset does not exist."""
