"""p-adic valuations and norms on integers and rationals.

The valuation ``nu_p(z)`` of a nonzero integer is the number of times the
prime ``p`` divides ``z``; it extends to rationals by subtracting the
valuation of the denominator from that of the numerator (fractions are
always taken in lowest terms with positive denominator, which
``fractions.Fraction`` guarantees).  The norm is ``p**(-nu_p(q))`` with
norm 0 at 0, so its value set is ``{0}`` together with the integer powers
of ``p``.

Both functions are total: they return 0 at 0 rather than raising, which
keeps downstream algebra free of special cases.  The extended-value type
:class:`ExtVal`, which ``PadicNumber.norm`` returns, keeps the
distinction between "exactly zero" and "zero to some precision".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import IndeterminateValuation, NotPrime

# Miller-Rabin to the first 13 prime bases is deterministic below
# _PRIME_BOUND, the least strong pseudoprime to all of them (psi_13 of
# Sorenson and Webster, 2015), far beyond any prime this library is used
# with; the first 12 stop at psi_12 = 318665857834031151167461 =
# 399165290221 * 798330580441.  Past the bound the test refuses to guess.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + Miller-Rabin).

    It is proven only below ``3317044064679887385961981``; an n at or past
    that bound raises :class:`ValueError` rather than guess.

    >>> is_prime(13)
    True
    >>> is_prime(561)   # Carmichael number
    False
    """
    if n < 2:
        return False
    if n >= _PRIME_BOUND:
        raise ValueError(f"primality is decided only below {_PRIME_BOUND}")
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p) -> int:
    """Return ``p`` as an int, raising :class:`NotPrime` if it is not prime.

    A p that ``int()`` would truncate, such as ``5.5``, is not prime
    either; a string is read as ``int()`` reads it.  A p at or past
    ``3317044064679887385961981``, where :func:`is_prime` stops being
    proven, is refused too, before any Miller-Rabin round.

    >>> check_prime(5.0)
    5
    >>> check_prime(561)
    Traceback (most recent call last):
    ...
    padic.errors.NotPrime: p must be prime, got 561
    """
    if type(p) is not int:
        n = int(p)
        if n != p and not isinstance(p, str):
            raise NotPrime(f"p must be prime, got {p}")
        p = n
    if p >= _PRIME_BOUND:
        raise NotPrime(
            f"p must be a prime below {_PRIME_BOUND}, where primality is proven; "
            f"got a {p.bit_length()}-bit p"
        )
    if not is_prime(p):
        raise NotPrime(f"p must be prime, got {p}")
    return p


@dataclass(frozen=True)
class ExtVal:
    """Extended valuation: the closed interval of valuations a value may have.

    ``finite(v)`` is ``[v, v]``, with norm ``p**(-v)``; ``exact_zero()`` is
    ``[inf, inf]``, with norm 0; and ``zero_at_least(A)`` is ``[A, inf]``,
    a norm known only to be at most ``p**(-A)``.  Order comparisons follow
    the true valuation: a comparison answers only when every pair drawn
    from the two intervals agrees; otherwise
    :class:`IndeterminateValuation` is raised rather than guessing.  Each
    bound is an int or inf; anything else raises :class:`TypeError`.
    """

    low: int | float
    high: int | float

    def __post_init__(self):
        if not all(type(end) is int or end == math.inf for end in (self.low, self.high)):
            raise TypeError(f"bounds must be ints or inf: {self.low!r}, {self.high!r}")

    @classmethod
    def finite(cls, v: int) -> "ExtVal":
        return cls(v, v)

    @classmethod
    def exact_zero(cls) -> "ExtVal":
        return cls(math.inf, math.inf)

    @classmethod
    def zero_at_least(cls, floor: int) -> "ExtVal":
        return cls(floor, math.inf)

    def _decide(self, other: "ExtVal", op) -> bool:
        # an order relation holds for every pair drawn from two intervals
        # when it holds at every pair of endpoints, and for none likewise
        if not isinstance(other, ExtVal):
            return NotImplemented
        answers = {op(x, y) for x in (self.low, self.high)
                   for y in (other.low, other.high)}
        if len(answers) > 1:
            raise IndeterminateValuation(
                f"{op.__name__} is not decided between {self} and {other}"
            )
        return answers.pop()

    def __lt__(self, other: "ExtVal") -> bool:
        return self._decide(other, operator.lt)

    def __le__(self, other: "ExtVal") -> bool:
        return self._decide(other, operator.le)

    def __gt__(self, other: "ExtVal") -> bool:
        return self._decide(other, operator.gt)

    def __ge__(self, other: "ExtVal") -> bool:
        return self._decide(other, operator.ge)


def padic_val_int(p, z: int) -> int:
    """Largest k with p**k dividing z, computed by square-and-divide.

    Past the fourth factor of p, it finds the first of the blocks p,
    p**2, p**4, ... that fails to divide, and one descent through the
    smaller blocks, on the short residue mod that block, reads off the
    remaining binary digits of the valuation: O(log k) divisions instead
    of k.  Total at zero: ``padic_val_int(p, 0) == 0``.

    >>> padic_val_int(2, 8)
    3
    >>> padic_val_int(3, -18)
    2
    >>> padic_val_int(5, 3 * 5**1000)
    1000
    """
    return _val_int(check_prime(p), int(z))


def _val_int(p: int, z: int) -> int:
    """:func:`padic_val_int` for a prime ``p`` its caller has checked."""
    if z % p or not z:
        return 0
    # small valuations are the common case: single factors are cheaper
    v = 1
    z //= p
    while z % p == 0:
        z //= p
        v += 1
        if v == 4:
            break
    else:
        return v
    # z mod the first block p**(2**j) that fails to divide is short and
    # keeps the valuation, which is below 2**j
    blocks, q = [], p
    while not (r := z % q):
        blocks.append(q)
        q *= q
    for i in reversed(range(len(blocks))):
        if not r % blocks[i]:
            r //= blocks[i]
            v += 1 << i
    return v


def padic_val_rat(p, q) -> int:
    """Valuation on rationals: nu(numerator) - nu(denominator); 0 at q = 0."""
    p, q = check_prime(p), Fraction(q)
    return _val_int(p, q.numerator) - _val_int(p, q.denominator)


def padic_norm_rat(p, q) -> Fraction:
    """Exact rational norm p**(-nu_p(q)), with norm 0 at q = 0.

    >>> padic_norm_rat(2, Fraction(3, 8))
    Fraction(8, 1)
    """
    p, q = check_prime(p), Fraction(q)
    if q == 0:
        return Fraction(0)
    return Fraction(p) ** (_val_int(p, q.denominator) - _val_int(p, q.numerator))
