"""Exception types shared across the package."""


class UsageError(ValueError):
    """A caller violated an interface precondition (bad argument, wrong order)."""


class ClassViolationError(RuntimeError):
    """A queried target fell outside the strongly log-concave / log-smooth class.

    Raised when an observed oracle response is inconsistent with the declared
    curvature sandwich (for example, no threshold index exists in the search
    range, or a line value escapes the sandwich a gradient certificate
    implies).
    """

    def __init__(self, message, query_point=None):
        super().__init__(message)
        self.query_point = query_point

