"""Exception types shared across the package, and the type predicates that
config validation uses before comparing values."""

import math
import numbers


def is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` must not pass as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A non-bool real number that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


class AhmsaError(Exception):
    """Base class for all package errors."""


class DimensionError(AhmsaError, ValueError):
    """A tensor/image operation received incompatibly shaped arguments."""


class ValidationError(AhmsaError, ValueError):
    """Input data violates a documented contract (manifest, labels, bounds)."""


class ConfigError(ValidationError):
    """A configuration value violates an invariant."""


class UsageError(AhmsaError, RuntimeError):
    """An API was called in an unsupported way (e.g. backward on a non-scalar)."""


class TrainingDivergedError(AhmsaError, RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, batch: int, loss: float):
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        super().__init__(
            f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}"
        )
