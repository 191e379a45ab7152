"""The fault raised when one of the toolkit's own invariants fails, the
check that refuses non-integral integer arguments, and the base that keeps
the value types immutable."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not a bad input.

    Raised explicitly, so the checks also run under ``python -O``, and not a
    ``ValueError``, so the command line reports it as a fault rather than as
    a domain error.
    """


def check(condition, message):
    """Raise InvariantError(message) unless ``condition`` holds."""
    if not condition:
        raise InvariantError(message)


def integral(x, message, *args):
    """int(x) when x equals it, else ValueError(message % args), formatted
    only then: a non-integral value is refused rather than truncated,
    infinities and NaN included."""
    try:
        n = int(x)
    except (OverflowError, ValueError):  # int() of an infinity or a NaN
        raise ValueError(message % args) from None
    if n != x:
        raise ValueError(message % args)
    return n


class _Immutable:
    """Base of the value types: ``__init__`` sets the attributes through
    ``object.__setattr__``, and after that none can be set or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)
