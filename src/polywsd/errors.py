"""Exception types shared across the package, and the integer check configs share."""

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


class DataError(PolyWsdError):
    """Malformed or inconsistent corpus / inventory / vocabulary data."""


class InventoryError(PolyWsdError):
    """A (lemma, pos) key is missing from the sense inventory."""


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
