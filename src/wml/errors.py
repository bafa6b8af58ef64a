"""Shared exception types, the base of the immutable value classes, and the
counts that cap messages quote."""

# The most digits a cap message writes for a count: Python's default limit
# on the digits ``str`` writes for an int.
_PRINTED_DIGITS = 4300
_MAX_PRINTED_COUNT = 10 ** _PRINTED_DIGITS - 1


class Immutable:
    """Base of the value classes, which serve as hash, cache and memo keys:
    only a constructor sets a field, through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ParseError(ValueError):
    """Raised on malformed word text. Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndecidedError(RuntimeError):
    """A resource cap was hit before an answer could be certified.

    This is deliberately distinct from any mathematical answer: callers must
    report "undecided", never coerce it into a value.
    """

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def capped_product(factors, cap):
    """Product of the positive integers ``factors``, or None as soon as it
    exceeds both ``cap`` and every count of at most 4300 digits: a count that
    only has to be compared with a cap is never multiplied out further."""
    bound = max(cap, _MAX_PRINTED_COUNT)
    total = 1
    for f in factors:
        total *= f
        if total > bound:
            return None
    return total


def capped_multisets(kinds, size, cap):
    """C(kinds + size, size) - 1, the number of nonempty multisets of at
    most ``size`` of ``kinds`` things, or None as soon as it exceeds the
    bound of :func:`capped_product`.

    C(m + i, i) for i = 1..min(kinds, size), m the larger of the two, is a
    running product that never decreases, and at least doubles while i <= m.
    """
    bound = max(cap, _MAX_PRINTED_COUNT)
    m = max(kinds, size)
    total = 1
    for i in range(1, min(kinds, size) + 1):
        total = total * (m + i) // i
        if total - 1 > bound:
            return None
    return total - 1


def count_text(count, suffix=""):
    """A count from :func:`capped_product` in a cap message: its decimal
    digits and ``suffix``, or a bound when it was too large to keep."""
    if count is None:
        return f"at least 10^{_PRINTED_DIGITS}"
    return f"{count}{suffix}"
