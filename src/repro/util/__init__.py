"""Small shared utilities: id allocation, ordered sets, validation errors,
and statistics helpers."""

from repro.util.ids import IdAllocator
from repro.util.ordered import OrderedSet
from repro.util.errors import (
    InterpreterError,
    IRValidationError,
    ReproError,
    SchedulingError,
    StepLimitExceeded,
)
from repro.util.stats import geometric_mean

__all__ = [
    "IdAllocator",
    "OrderedSet",
    "ReproError",
    "IRValidationError",
    "InterpreterError",
    "SchedulingError",
    "StepLimitExceeded",
    "geometric_mean",
]
