"""Exception types shared across the package, and the checks of scalar and 3-vector arguments."""

import math
import numbers

# tolerance of closed-form algebra
ATOL_EXACT = 1e-12


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
    # plain ints skip the isinstance tests: rng.draws checks a seed and a stream on every draw of a game
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
    import numpy as np  # here, not at the top: `--help` and check_int need no numpy

    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        raise DomainError(f"{what} must be finite real numbers, got {value!r}")
    # numpy promotes a bool inside a sequence of numbers to 0 or 1; an array of dtype iuf holds none
    if not isinstance(value, np.ndarray) and a.ndim and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat
    ):
        raise DomainError(f"{what} must be real numbers, not bools, got {value!r}")
    return float(a) if a.ndim == 0 else a.astype(float)


def real_number(value, what: str) -> float:
    """One finite real number as a float; anything else, an array included, is a DomainError."""
    x = check_finite(value, what)
    if not isinstance(x, float):
        raise DomainError(f"{what} must be one real number, got {value!r}")
    return x


def real_3vector(v, what: str) -> tuple[float, float, float]:
    """Three real numbers as a float 3-tuple, else DimensionError; one past the float range is a DomainError."""
    try:
        x, y, z = v.tolist() if hasattr(v, "tolist") else v  # an array's tolist() holds Python numbers
    except (TypeError, ValueError):
        x = y = z = None
    for c in (x, y, z):
        if not (isinstance(c, (float, int)) or isinstance(c, numbers.Real)):  # the first test is the fast one
            raise DimensionError(f"{what} must be a 3-vector of real numbers, got {v!r}")
    try:
        return (float(x), float(y), float(z))
    except OverflowError:
        raise DomainError(f"{what} must be finite, got {v!r}") from None


def unit_vector(v, what: str) -> tuple[float, float, float]:
    """A unit 3-vector as a float 3-tuple; NaN or inf components are rejected."""
    a = real_3vector(v, what)
    norm = math.hypot(*a)
    if not abs(norm - 1.0) <= ATOL_EXACT:  # a NaN norm fails this comparison too
        raise DomainError(f"{what} must be a finite unit vector, |v| = {norm}")
    return a
