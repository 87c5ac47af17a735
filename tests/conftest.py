"""Shared strategies and helpers for the test suite."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import strategies as st

from padic import PadicNumber

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


def fields(x: PadicNumber) -> tuple:
    """The stored representation, which ``==`` reads only up to precision."""
    return x.p, x.form, x.v, x.unit, x.prec


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)  # seconds may be a fraction
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def double_root_times_cofactor(degree: int, bits: int, seed: int) -> list[int]:
    """(x - a)**2 * h, low first, h monic of the given degree with random coefficients.

    A double root at a keeps the root tree one node per level, and every
    node reads all the coefficients of the degree + 2 product.
    """
    rng = random.Random(seed)
    a = rng.getrandbits(bits)
    h = [rng.getrandbits(bits) for _ in range(degree)] + [1]
    square = [a * a, -2 * a, 1]
    out = [0] * (len(h) + 2)
    for i, c in enumerate(h):
        for j, s in enumerate(square):
            out[i + j] += c * s
    return out
