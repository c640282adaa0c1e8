"""What the command line needs before it knows the command, on the
standard library alone: the input readers, the precision tags, and the
exception classes of the exit-code contract (2 input, 3 numeric,
4 schedule) that the exact-arithmetic modules raise.

Each class is re-exported by the module that raises it (measure_opuc,
xlinalg, asymptotics), under the same name and as the same object, so
cli catches it without importing those modules, and so without mpmath.
"""

PRECISION_BITS = (53, 128, 256, 512)


class FieldError(ValueError):
    """Invalid input: a missing or malformed field, named by field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field = field_name


def _as_int(v) -> int:
    """v as an int, for an int or an integer-valued float; ValueError for
    anything else, so that 8.7, true and "8" are not read as integers."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(
            v, float) and v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _as_float(v) -> float:
    """v as a float, for an int or a float; TypeError for anything else, so
    that true and "1.0" are not read as numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{v!r} is not a number")
    return float(v)


class QuadratureError(ArithmeticError):
    """Grid quadrature failed to converge before the node cap."""


class NotPositiveDefinite(ArithmeticError):
    """Pivot <= 0 during factorization; carries the failing pivot index and,
    if given, the pivot's value as an mpmath number, formatted by its own
    context."""

    def __init__(self, pivot: int, value=None):
        self.pivot = pivot
        self.value = value
        super().__init__(f"nonpositive pivot at index {pivot}" + (
            "" if value is None
            else f" (value {value.context.nstr(value, 8)})"))


class ScheduleViolation(ValueError):
    """A schedule parameter failed its slow-growth requirements."""
