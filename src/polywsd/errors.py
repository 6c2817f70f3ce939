"""Exception types shared across the package, and the value checks configs share."""

import math
import numbers


class PolyWsdError(Exception):
    """Base class for all package errors."""


class ShapeError(PolyWsdError):
    """Tensor shapes do not satisfy an operation's requirements."""


class ContractError(PolyWsdError):
    """A precondition of an operation was violated."""


class OracleError(PolyWsdError):
    """The finite-difference oracle detected a broken function under test."""


class ConfigError(PolyWsdError):
    """Invalid model or training configuration."""


def check_positive_ints(**values) -> None:
    """Raise ConfigError unless each value is an integer >= 1; bools, floats and
    strings are rejected, not converted."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ConfigError(f"{name} must be positive, got {value}")


def is_count(value) -> bool:
    """A non-negative int; bools, floats and strings are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_finite_number(value) -> bool:
    """An int or float (not a bool) that is finite as a float."""
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def check_optimizer_settings(**values) -> None:
    """Raise ConfigError unless each value is a finite number > 0, and each one
    named ``beta*`` lies in (0, 1); bools and strings are rejected."""
    for name, value in values.items():
        if not (is_finite_number(value) and value > 0):
            raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
        if name.startswith("beta") and not value < 1:
            raise ConfigError(f"{name} must lie in (0, 1), got {value}")


class DataError(PolyWsdError):
    """Malformed or inconsistent corpus / inventory / vocabulary data."""


class InventoryError(DataError):
    """A (lemma, pos) key, or a sense under it, is missing from the sense inventory."""


class BatchError(PolyWsdError):
    """A training batch violates its invariants."""


class TrainingError(PolyWsdError):
    """Training aborted (e.g. non-finite loss)."""


class CheckpointError(PolyWsdError):
    """Checkpoint file is incompatible, corrupt, or truncated."""


class ScoringError(PolyWsdError):
    """Predictions and gold keys cannot be scored together."""


class ComparisonError(PolyWsdError):
    """Two training runs are not comparable for cost accounting."""
