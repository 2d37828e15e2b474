"""Exception types shared across the package, the type predicates that
validation uses before comparing values, and the one check of config fields,
which each config section runs when it is built."""

import math
import numbers
from dataclasses import fields


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


# annotation (as written: the config modules postpone annotations) -> (test,
# what a value must be)
_TYPES = {
    "int": (is_int, "an integer"),
    "float": (is_finite_real, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "int | None": (lambda v: v is None or is_int(v), "an integer or null"),
    "tuple[int, ...]": (lambda v: isinstance(v, tuple) and all(map(is_int, v)),
                        "a list of integers"),
}

# a field's ``metadata["rule"]``, applied to each entry of a tuple -> its test;
# a tuple rule instead names the allowed values
_RULES = {
    "positive": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in (0, 1)": lambda v: 0 < v < 1,
}


def field_problems(config) -> list[str]:
    """What is wrong with the fields of the dataclass ``config``: each field
    whose value does not fit its annotation, or, once every one fits, each
    that breaks its ``metadata["rule"]`` (``None`` values pass any rule)."""
    values = [(f, getattr(config, f.name)) for f in fields(config)]
    problems = []
    for f, value in values:
        test, kind = _TYPES[f.type]
        if not test(value):
            problems.append(f"{f.name} must be {kind}, got {value!r}")
    if problems:  # the rules need values of the right type to compare
        return problems
    for f, value in values:
        rule = f.metadata.get("rule")
        if rule is None or value is None:
            continue
        if isinstance(rule, tuple):
            ok, wording = value in rule, " or ".join(map(repr, rule))
        else:
            items = value if isinstance(value, tuple) else (value,)
            ok, wording = all(map(_RULES[rule], items)), rule
        if not ok:
            problems.append(f"{f.name} must be {wording}, got {value!r}")
    return problems


def check_fields(config, section: str, joint=list) -> None:
    """Raise a ``ConfigError`` naming by its dotted key (``section.name``)
    each of ``field_problems(config)``, or, once there are none, each problem
    across fields that ``joint()`` lists."""
    problems = field_problems(config) or joint()
    if problems:
        raise ConfigError("; ".join(f"{section}.{p}" for p in problems))


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
