"""The fault raised when one of the toolkit's own invariants fails, the one
check of every integer argument, the one cap on digits, and the base that
keeps the value types immutable."""

# Larger requests fail at once rather than run for minutes: at 2000 digits
# zeta(3,9) takes about 2 s on a 2-vCPU host, and the time grows about
# fourfold each time the digits double.  It also caps the digits of a
# coefficient literal (words.parse_expression).
MAX_DIGITS = 2000


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


def integer_in(x, name, lo=None, hi=None):
    """int(x) when x is an integer of at least lo and at most hi, where
    given (hi only with lo), else ValueError naming the argument, formatted
    only then: a non-integral value is refused rather than truncated, and so
    are infinities, NaN and non-numbers."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):  # int() of inf, NaN, None
        n = None
    if n is None or n != x or lo is not None and n < lo or hi is not None and n > hi:
        bounds = ("" if lo is None else " >= %d" % lo if hi is None
                  else " between %d and %d" % (lo, hi))
        raise ValueError("%s must be an integer%s, got %s" % (name, bounds, x))
    return n


class _Immutable:
    """Base of the value types: ``__init__`` sets the attributes through
    ``object.__setattr__``, and after that none can be set or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)
