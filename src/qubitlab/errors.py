"""Exception types shared across the package, and the checks of scalar, 3-vector and probability-table arguments."""

import math
import numbers
import sys

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


def real_number(value, what: str) -> float:
    """One finite real number as a float, else DomainError.

    A real number is an int (not a bool), a float, a numpy integer or floating
    scalar, or a 0-d array of one; a bool, a Fraction, a Decimal, a complex, a
    string, None, a sequence and any other array are not. This loads no numpy:
    a numpy value comes with numpy loaded.
    """
    if type(value) is float and math.isfinite(value):  # one type test for the common case
        return value
    np = sys.modules.get("numpy")
    x = value[()] if np is not None and isinstance(value, np.ndarray) and value.ndim == 0 else value
    if isinstance(x, bool) or not (
        isinstance(x, (int, float)) or np is not None and isinstance(x, (np.integer, np.floating))
    ):
        raise DomainError(f"{what} must be one real number, got {value!r}")
    try:
        x = float(x)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise DomainError(f"{what} must be finite real numbers, got {value!r}")
    return x


def check_atol(value) -> float:
    """A tolerance: one finite real number >= 0 (see `real_number`) as a float, else DomainError."""
    if (atol := real_number(value, "atol")) < 0:
        raise DomainError(f"atol must be one finite number >= 0, got {atol!r}")
    return atol


def real_entries(values, what: str) -> list[float]:
    """Entries of a probability table as floats: each a real number (numbers.Real) but no bool, else InvalidStateError.

    A string, a complex, a Decimal, None and an array are no real number; an int past the float range is refused too.
    """
    if not any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in values):
        try:
            return [float(v) for v in values]
        except OverflowError:  # an int past the float range
            pass
    raise InvalidStateError(f"{what} must be finite real numbers, got {values!r}")


def real_3vector(v, what: str) -> tuple[float, float, float]:
    """Three real numbers as a float 3-tuple, else DimensionError; one past the float range is a DomainError."""
    try:
        x, y, z = v.tolist() if hasattr(v, "tolist") else v  # an array's tolist() holds Python numbers
    except (TypeError, ValueError):
        x = y = z = None
    for c in (x, y, z):
        # one type test for a float and two for an int; a bool is no real number here either
        if type(c) is not float and (isinstance(c, bool) or not isinstance(c, (int, numbers.Real))):
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
