"""Exception hierarchy shared by the whole package."""


class StickyError(Exception):
    """Base class for all errors raised by stickygas."""


class EmptyInput(StickyError):
    pass


class NonIncreasingPositions(StickyError):
    pass


class NonPositiveMass(StickyError):
    pass


class NonFiniteValue(StickyError):
    """NaN or an infinity in the initial data."""


class IndexOutOfRange(StickyError):
    pass


class IdenticalPaths(StickyError):
    """Two quadratic paths coincide; the caller must treat them as merged."""


class PreconditionViolated(StickyError):
    pass


class TimeOutOfRange(StickyError):
    pass


class WindowOutOfRange(StickyError):
    pass


class InadmissibleData(StickyError):
    """Acceleration profile increases with position; endpoint certification
    is not guaranteed for such data (two-crossing counterexamples exist)."""


class InconsistentEndpoints(StickyError):
    """Endpoint certification produced a set of interval endpoints that does
    not assemble into a partition.  Either the evaluation time sits on a shock
    (out of contract) or the input is a genuine counterexample; never repaired
    silently."""


class UndefinedFieldPoint(StickyError):
    """Eulerian field evaluated off the support of the current mass measure."""


class InstanceFormatError(StickyError):
    """Malformed instance document (bad key, bad value, bad JSON)."""
