"""Exception types shared across the package, and the integer-argument check that raises one."""

import operator


class UsageError(ValueError):
    """A caller violated an interface precondition (bad argument, wrong order)."""


class ClassViolationError(RuntimeError):
    """A queried target fell outside the strongly log-concave / log-smooth class.

    Raised when an observed oracle response is inconsistent with the declared
    curvature sandwich (for example, no threshold index exists in the search
    range, or a line value escapes the sandwich a gradient certificate
    implies).  ``query_point`` is where, when the raiser knows it, and
    ``gap`` by how much: the log gap by which an envelope fell below the
    target, or the distance of a line value outside its sandwich.
    """

    def __init__(self, message, query_point=None, gap=None):
        super().__init__(message)
        self.query_point = query_point
        self.gap = gap


def integer_argument(value, name: str, least: int) -> int:
    """``value`` as an int, UsageError naming ``name`` unless it is an integer of at least ``least``.

    NumPy integers pass; a bool, a float and a string do not.
    """
    if type(value) is int and value >= least:  # the common case, with nothing to convert
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__") or operator.index(value) < least:
        raise UsageError(f"{name} must be an integer of at least {least}, got {value!r}")
    return operator.index(value)
