"""Exception types shared across the toolkit, and the shared (0,1) range check."""


class FraclabError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(FraclabError, ValueError):
    """A scalar argument is outside its admissible range (e.g. s not in (0,1))."""


class ConfigurationError(FraclabError, ValueError):
    """A domain/grid/cutoff configuration is unusable (e.g. empty interior)."""


class HypothesisViolation(ParameterError):
    """Inputs violate the hypothesis window of a regularity statement.

    Carries the name of the violated condition so callers can report it.
    """

    def __init__(self, condition: str):
        self.condition = condition
        super().__init__(f"hypothesis violated: {condition}")


class ConsistencyError(FraclabError, RuntimeError):
    """An internal invariant failed (indicates a discretization bug, not bad input)."""


class QuadratureError(FraclabError, RuntimeError):
    """A quadrature did not reach the requested tolerance.

    The achieved error estimate is reported in the message.
    """


def check_unit_interval(name: str, value: float) -> None:
    """Raise ParameterError unless 0 < value < 1 (fractional orders s, t and eps)."""
    if not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must lie in (0,1), got {value}")
