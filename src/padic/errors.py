"""Exception types shared across the library."""


class PadicError(Exception):
    """Base class for every library-specific error."""


class NotPrime(PadicError):
    """The base supplied for a p-adic computation is not a prime number."""


class DivisionByZero(PadicError, ZeroDivisionError):
    """Attempted to invert or divide by an exact zero."""


class IndeterminateValuation(PadicError):
    """The answer depends on a valuation that the data does not pin down.

    Raised when inverting a value only known to vanish to some precision,
    or when comparing extended valuations whose order is not determined.
    """


class ZeroHasNoExpansion(PadicError):
    """Zero (exact or inexact) has no canonical digit expansion."""


class InsufficientPrecision(PadicError):
    """The stored precision is too coarse for the requested reduction."""


class NotAnInteger(PadicError):
    """A p-adic integer was required but the value has negative valuation."""


class HypothesisFailed(PadicError):
    """The strong lifting hypothesis nu(f(a)) > 2 nu(f'(a)) does not hold."""

    def __init__(self, m: int, e: int):
        self.m = m
        self.e = e
        super().__init__(
            f"lifting hypothesis fails: nu(f(a)) = {m} must exceed 2*nu(f'(a)) = {2 * e}"
        )


class DerivativeVanishes(PadicError):
    """f'(a) = 0 exactly, so no lifting neighborhood exists around the seed."""


class PrecisionExhausted(PadicError):
    """The target precision leaves no room below the derivative valuation."""


class InternalBoundViolation(PadicError):
    """An iteration invariant broke; this signals a bug, not bad input."""


class DomainTooLarge(PadicError):
    """The requested root enumeration exceeds the oracle's domain limit on p**k."""
