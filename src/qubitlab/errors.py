"""Exception types shared across the package, and the one check of scalar arguments."""

import math
import numbers

import numpy as np


class QubitLabError(ValueError):
    """Base class for domain errors raised by this package."""


class DimensionError(QubitLabError):
    """Matrix or vector has an unsupported or mismatched dimension."""


class HermiticityError(QubitLabError):
    """Operation requires a Hermitian matrix."""


class InvalidStateError(QubitLabError):
    """A state or distribution violates a state-space invariant."""


class DomainError(QubitLabError):
    """Scalar or configuration argument outside its allowed domain."""


class ConditioningError(QubitLabError):
    """Conditional average requested on a zero-probability outcome."""


def check_int(value, what: str, lo: int = 0, hi: int | None = None) -> int:
    """`value` as an int in lo..hi (no upper bound when hi is None), else DomainError.

    A bool is refused although it is an Integral (np.bool_ is not one), and
    numpy ints become int.
    """
    # plain ints skip the isinstance tests: rng.philox checks every stream word of every game
    if type(value) is int and lo <= value and (hi is None or value <= hi):
        return value
    n = int(value) if isinstance(value, numbers.Integral) and not isinstance(value, bool) else None
    if n is not None and lo <= n and (hi is None or n <= hi):
        return n
    if hi is None:
        domain = "a nonnegative integer" if lo == 0 else f"an integer >= {lo}"
    else:
        domain = f"an integer in {lo}..{hi}"
    if n is not None and hi is not None and n > hi:
        raise DomainError(f"{what} must be {domain}: values above {hi} exceed the bound")
    raise DomainError(f"{what} must be {domain}, got {value!r}")


def check_finite(value, what: str):
    """A finite real number as a float, or an array of them as a float array, else DomainError."""
    if type(value) is float and math.isfinite(value):
        return value
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        raise DomainError(f"{what} must be finite real numbers, got {value!r}")
    return float(a) if a.ndim == 0 else a.astype(float)
