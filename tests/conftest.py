"""Shared strategies and helpers for the test suite."""

import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import strategies as st

from padic import Form, PadicNumber

PRIMES = (2, 3, 5, 7, 13)

primes = st.sampled_from(PRIMES)


def rationals(max_mag: int = 999) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(-max_mag, max_mag),
        st.integers(1, max_mag),
    )


def nonzero_rationals(max_mag: int = 999) -> st.SearchStrategy[Fraction]:
    return rationals(max_mag).filter(lambda q: q != 0)


def integral_rationals(p: int, max_mag: int = 999) -> st.SearchStrategy[Fraction]:
    """Rationals with denominator coprime to p (p-adic integers)."""
    return st.builds(
        Fraction,
        st.integers(-max_mag, max_mag),
        st.integers(1, max_mag).filter(lambda d: d % p != 0),
    )


def common_precision(*values: PadicNumber) -> int | None:
    """Largest exponent at which all values are known; None if all exact."""
    finite = [v.abs_prec for v in values if v.form is not Form.EXACT_ZERO]
    return min(finite) if finite else None


def assert_same_value(x: PadicNumber, y: PadicNumber):
    """Assert two values agree at their common absolute precision."""
    k = common_precision(x, y)
    if k is None:
        assert x.form is Form.EXACT_ZERO and y.form is Form.EXACT_ZERO
        return
    assert x.eq_to_precision(y, k), f"{x!r} != {y!r} mod p^{k}"


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
