"""The fault raised when one of the toolkit's own invariants fails."""


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
