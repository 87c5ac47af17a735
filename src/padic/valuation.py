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
:class:`ExtVal` is available when the distinction between "exactly zero"
and "zero to some precision" matters.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import IndeterminateValuation, NotPrime

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10**24,
# far beyond any prime this library is used with.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + Miller-Rabin).

    >>> is_prime(13)
    True
    >>> is_prime(561)   # Carmichael number
    False
    """
    if n < 2:
        return False
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
    """Return ``p`` as an int, raising :class:`NotPrime` if it is not prime."""
    p = int(p)
    if not is_prime(p):
        raise NotPrime(f"p must be prime, got {p}")
    return p


@dataclass(frozen=True)
class Prime:
    """A certified prime base; construction rejects composites."""

    p: int

    def __post_init__(self):
        check_prime(self.p)

    def __int__(self) -> int:
        return self.p

    def __str__(self) -> str:
        return str(self.p)


class ExtKind(Enum):
    FINITE = "finite"
    EXACT_ZERO = "exact_zero"          # valuation +infinity
    ZERO_AT_LEAST = "zero_at_least"    # valuation >= value, not pinned down


@dataclass(frozen=True)
class ExtVal:
    """Extended valuation: a finite exponent, +infinity, or a lower bound.

    ``Finite(v)`` corresponds to norm ``p**(-v)``, ``ExactZero`` to norm 0,
    and ``ZeroAtLeast(A)`` to a norm known only to be at most ``p**(-A)``.
    Order comparisons follow the true valuation: each value stands for the
    interval of valuations it may have (``[v, v]``, ``[inf, inf]`` and
    ``[A, inf]``), and a comparison answers only when every pair drawn
    from the two intervals agrees; otherwise
    :class:`IndeterminateValuation` is raised rather than guessing.
    """

    kind: ExtKind
    value: int | None = None

    @classmethod
    def finite(cls, v: int) -> "ExtVal":
        return cls(ExtKind.FINITE, int(v))

    @classmethod
    def exact_zero(cls) -> "ExtVal":
        return cls(ExtKind.EXACT_ZERO)

    @classmethod
    def zero_at_least(cls, floor: int) -> "ExtVal":
        return cls(ExtKind.ZERO_AT_LEAST, int(floor))

    @property
    def is_finite(self) -> bool:
        return self.kind is ExtKind.FINITE

    @property
    def is_exact_zero(self) -> bool:
        return self.kind is ExtKind.EXACT_ZERO

    @property
    def is_zero_at_least(self) -> bool:
        return self.kind is ExtKind.ZERO_AT_LEAST

    def norm_fraction(self, p) -> Fraction:
        """The norm ``p**(-v)`` encoded by this value, as an exact rational."""
        p = check_prime(p)
        if self.is_exact_zero:
            return Fraction(0)
        if self.is_finite:
            return Fraction(p) ** (-self.value)
        raise IndeterminateValuation(
            f"norm is only bounded above by {p}^{-self.value}"
        )

    def _interval(self) -> tuple[float, float]:
        """The valuations this value may have, as a closed interval."""
        low = math.inf if self.is_exact_zero else self.value
        high = self.value if self.is_finite else math.inf
        return low, high

    def _decide(self, other: "ExtVal", op) -> bool:
        # an order relation holds for every pair drawn from two intervals
        # when it holds at every pair of endpoints, and for none likewise
        if not isinstance(other, ExtVal):
            return NotImplemented
        answers = {op(x, y) for x in self._interval() for y in other._interval()}
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
    p = check_prime(p)
    z = int(z)
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
    p = check_prime(p)
    q = Fraction(q)
    if q == 0:
        return 0
    return padic_val_int(p, q.numerator) - padic_val_int(p, q.denominator)


def padic_norm_rat(p, q) -> Fraction:
    """Exact rational norm p**(-nu_p(q)), with norm 0 at q = 0.

    >>> padic_norm_rat(2, Fraction(3, 8))
    Fraction(8, 1)
    """
    p = check_prime(p)
    q = Fraction(q)
    if q == 0:
        return Fraction(0)
    return Fraction(p) ** (-padic_val_rat(p, q))


def ext_val_rat(p, q) -> ExtVal:
    """Extended-value wrapper: ExactZero at 0, Finite(nu_p(q)) otherwise."""
    p = check_prime(p)
    q = Fraction(q)
    if q == 0:
        return ExtVal.exact_zero()
    return ExtVal.finite(padic_val_rat(p, q))
