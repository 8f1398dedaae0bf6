"""Exception types shared across the toolkit, and the one range check on numeric arguments."""

import math


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


def check_range(name: str, value: float | None, lo: float = -math.inf, hi: float = math.inf, *, closed: bool = False) -> float:
    """Return value if lo < value < hi (lo <= value when closed), else raise ParameterError naming name.

    NaN, +-inf and None fail every range.
    """
    if value is not None and ((lo <= value) if closed else (lo < value)) and value < hi:
        return value
    if hi < math.inf:
        rule = f"be below {hi:g}" if lo == -math.inf else f"lie in {'[' if closed else '('}{lo:g},{hi:g})"
    elif closed:
        rule = f"be >= {lo:g}"
    else:
        rule = "be positive and finite" if lo == 0.0 else f"exceed {lo:g}"
    raise ParameterError(f"{name} must {rule}, got {value}")


def check_unit_interval(name: str, value: float) -> float:
    """check_range on (0,1): fractional orders s, t and eps."""
    return check_range(name, value, 0.0, 1.0)
