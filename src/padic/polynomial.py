"""Dense univariate polynomials with p-integral rational coefficients.

Coefficients are exact :class:`fractions.Fraction` values whose
denominators are coprime to ``p``, so every coefficient is a p-adic
integer.  Keeping coefficients exact means valuations of evaluated values
can be computed exactly (:meth:`PadicPoly.eval_exact`); capped-precision
evaluation embeds the coefficients only at the moment of use.  The
lifting machinery in :mod:`padic.hensel` needs neither: it evaluates the
integer numerators left once the denominators are cleared.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAnInteger
from .number import (
    DEFAULT_PRECISION,
    Form,
    PadicNumber,
    _add_parts,
    _embed,
    _horner,
    _mul_parts,
    _number,
    _parts,
)
from .valuation import check_prime


@dataclass(frozen=True)
class PadicPoly:
    """Coefficient list indexed by degree, trailing zeros trimmed."""

    p: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", check_prime(self.p))
        coeffs = [Fraction(c) for c in self.coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for i, c in enumerate(coeffs):
            if c.denominator % self.p == 0:
                raise NotAnInteger(
                    f"coefficient {c} of x^{i} is not a {self.p}-adic integer"
                )
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __reduce__(self):  # pickle the fields alone, not the cache below
        return PadicPoly, (self.p, self.coeffs)

    @functools.cached_property
    def _cleared(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer coefficients of d*f and of its derivative, d the lcm of the denominators.

        d is a p-adic unit, so d*f has the valuations and the Newton
        quotient f/f' of f, and :mod:`padic.hensel` evaluates it by integer
        Horner rather than in Fractions.  Computed once per polynomial and
        kept outside the fields, so ``==``, ``hash``, ``repr``,
        ``dataclasses.replace`` and pickling never see it.
        """
        return _clear_denominators(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "PadicPoly":
        """Formal derivative: coefficient i becomes (i+1) * coefficient_{i+1}."""
        return PadicPoly(
            self.p,
            tuple((i + 1) * c for i, c in enumerate(self.coeffs[1:])),
        )

    def eval_exact(self, a) -> Fraction:
        """Horner evaluation in exact rational arithmetic."""
        return _horner(self.coeffs, Fraction(a), Fraction(0))

    def eval(self, x: PadicNumber) -> PadicNumber:
        """Horner evaluation at a p-adic integer.

        Coefficients are embedded at the relative precision of ``x``; the
        result tracks precision through the usual rules and is itself an
        integer element.  Horner's rule runs on ``(v, unit, prec)`` triples
        through the same sum and product as the operators, and one value
        is built at the end.
        """
        _require_integer_points(self, x)
        p, wp = self.p, _working_precision(x)
        terms = [_embed(p, c, wp) for c in reversed(self.coeffs)]
        return _number(p, _synthetic(p, terms, _parts(x))[-1])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _clear_denominators(coeffs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    d = math.lcm(*(c.denominator for c in coeffs))
    ints = tuple(c.numerator * (d // c.denominator) for c in coeffs)
    return ints, tuple(i * c for i, c in enumerate(ints) if i)


def _synthetic(p: int, terms: list, point) -> list:
    """Horner's rule on ``(v, unit, prec)`` triples, highest term first.

    Returns every running sum after a leading ``None`` (the exact zero).
    The last is the polynomial's value at ``point``; the ones between are
    the quotient's coefficients, highest first, of its synthetic division
    by X - point.
    """
    sums = [None]
    for t in terms:
        sums.append(_add_parts(p, _mul_parts(p, sums[-1], point), t))
    return sums


def _working_precision(*points: PadicNumber) -> int:
    precs = [x.prec for x in points if x.form is Form.UNIT]
    return min(precs) if precs else DEFAULT_PRECISION


def _require_integer_points(f: PadicPoly, *points: PadicNumber):
    for x in points:
        if x.p != f.p:
            raise ValueError("point and polynomial use different primes")
        if not x.is_integer():
            raise NotAnInteger("points must be p-adic integers")


def taylor_remainder(f: PadicPoly, x: PadicNumber, y: PadicNumber) -> PadicNumber:
    """The integer element k with f(x+y) = f(x) + f'(x)*y + k*y**2.

    Built term by term from the binomial expansion of each monomial:
    (x+y)**n = x**n + n*x**(n-1)*y + y**2 * sum_{j=2..n} C(n,j) x**(n-j) y**(j-2).
    """
    _require_integer_points(f, x, y)
    wp = _working_precision(x, y)
    p = f.p
    xs = _powers(x, max(f.degree, 0), p, wp)
    ys = _powers(y, max(f.degree - 2, 0), p, wp)
    total = PadicNumber.exact_zero(p)
    for n, c in enumerate(f.coeffs):
        if n < 2 or c == 0:
            continue
        inner = PadicNumber.exact_zero(p)
        for j in range(2, n + 1):
            term = xs[n - j] * ys[j - 2]
            inner = inner + term * PadicNumber.from_rational(
                p, math.comb(n, j), wp
            )
        total = total + inner * PadicNumber.from_rational(p, c, wp)
    return total


def divided_difference(f: PadicPoly, x: PadicNumber, y: PadicNumber) -> PadicNumber:
    """The integer element z with f(x) - f(y) = z*(x - y).

    Synthetic division gives f = (X - y)*q + f(y), and z is q(x), so no
    division occurs and the result is meaningful even when x = y (where it
    reduces to f'(x)).  Both passes are Horner's rule on the triples that
    :meth:`PadicPoly.eval` uses: O(deg f) products in all.  z is symmetric
    in x and y but its precision is not: an inexact zero goes in as y, the
    point divided by, which gives z the precision of the monomial sums
    c_n * sum(x**i * y**(n-1-i)); as x it can come out sharper.
    """
    _require_integer_points(f, x, y)
    if x.form is Form.ZERO_AT_LEAST:
        x, y = y, x
    p, wp = f.p, _working_precision(x, y)
    terms = [_embed(p, c, wp) for c in reversed(f.coeffs)]
    quotient = _synthetic(p, terms, _parts(y))[1:-1]
    return _number(p, _synthetic(p, quotient, _parts(x))[-1])


def _powers(x: PadicNumber, top: int, p: int, wp: int) -> list[PadicNumber]:
    out = [PadicNumber.from_rational(p, 1, wp)]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


# parse_poly builds one dense coefficient per degree up to the largest
# exponent, so bounding the exponent bounds its time and memory
MAX_DEGREE = 10_000
# the lifter, its records and verify_certificate work modulo p**k, so they
# refuse a p**k above 2**MAX_MODULUS_BITS before building it; k = 64000 at
# p = 5, 148,604 bits, stays within it
MAX_MODULUS_BITS = 200_000

_TERM_RE = re.compile(r"(?:(\d+(?:/\d+)?)\*?)?(x(?:\^(\d+))?)?")


def parse_poly(text: str, p) -> PadicPoly:
    """Parse a sum of terms ``c``, ``c*x^k``, ``x^k``, ``x`` into a polynomial.

    Coefficients may be integers or ``a/b`` rationals; whitespace is
    ignored; ``+`` and ``-`` separate terms.  Example: ``x^2 - 6``.
    Exponents above :data:`MAX_DEGREE` raise :class:`ValueError`.
    """
    p = check_prime(p)
    s = re.sub(r"\s+", "", text).lower()
    if not s:
        raise ValueError("empty polynomial")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ValueError(f"cannot parse polynomial {text!r}")
    powers: dict[int, Fraction] = {}
    for token in tokens:
        # each token holds at most one sign, its first character
        sign, body = -1 if token[0] == "-" else 1, token.lstrip("+-")
        match = _TERM_RE.fullmatch(body)
        if not body or not match or (match.group(1) is None and match.group(2) is None):
            raise ValueError(f"cannot parse term {token!r} in {text!r}")
        coeff = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        power = 0 if match.group(2) is None else int(match.group(3) or 1)
        if power > MAX_DEGREE:
            raise ValueError(f"exponent {power} in {token!r} exceeds {MAX_DEGREE}")
        powers[power] = powers.get(power, Fraction(0)) + sign * coeff
    top = max(powers)
    return PadicPoly(p, tuple(powers.get(i, Fraction(0)) for i in range(top + 1)))
