"""Capped-relative-precision elements of Q_p.

A nonzero element is stored in the normal form ``p**v * u`` where the
valuation ``v`` is exact and the unit part ``u`` is known modulo ``p**N``
for a relative precision ``N >= 1``; the element is therefore pinned down
modulo ``p**(v + N)``.  Two zero-like forms complete the picture: an exact
zero (infinite precision) and an inexact zero ``ZeroAtLeast(A)`` produced
by catastrophic cancellation, which only records that the value vanishes
modulo ``p**A``.  Both zeros store unit 0 and precision 0, and the inexact
one stores ``A`` as ``v``, so it is the value ``p**A * 0`` known modulo
``p**(A + 0)``: the formulas for units hold for it unchanged, and one
normaliser builds every sum and product.

Precision obeys two rules that every operation maintains and the test
suite asserts: multiplication keeps the minimum *relative* precision of
its operands, addition keeps the minimum *absolute* precision
(valuation + relative precision).  All values are immutable and all
operations pure.

Every value goes through the one ``__init__``, which checks its fields
(``p`` prime, ``v``, ``unit`` and ``prec`` ints, a unit residue in range
and coprime to p, zeros without unit data) and then stores them in one
step rather than through the frozen dataclass's per-field
``object.__setattr__`` calls.  Public
constructors, :meth:`~PadicNumber.from_record` and every operator result
pass the same checks.

Where p is validated: every constructor stores the int that
``check_prime`` returns, not the caller's p, so a stored ``p`` is a
prime int that downstream code may trust.  ``check_prime`` runs
in ``__init__`` (the zero constructors and :meth:`~PadicNumber.from_record`
go through it), in :meth:`~PadicNumber.from_rational`, which needs p
before it embeds, and in public ``DigitExpansion`` and ``PadicPoly``
construction; :meth:`~PadicNumber.digits` builds its expansion from the
value's checked fields without it.  The valuations inside a value's
construction take the checked p.  The operators and :meth:`PadicPoly.eval
<padic.polynomial.PadicPoly.eval>` compute on plain ``(v, unit, prec)``
triples, with ``None`` for the exact zero, and build one checked value
per result.  Powers of p come from ``_power``, a least-recently-used
cache of at most 256 powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivisionByZero,
    IndeterminateValuation,
    InsufficientPrecision,
    NotAnInteger,
    ZeroHasNoExpansion,
)
from .valuation import ExtVal, _val_int, check_prime

DEFAULT_PRECISION = 32


class Form(Enum):
    EXACT_ZERO = "zero"
    ZERO_AT_LEAST = "zero_at_least"
    UNIT = "unit"


@lru_cache(maxsize=256)
def _power(p: int, n: int) -> int:
    """``p**n``; a value works at a few precisions, so few powers recur."""
    return p**n


# ----- arithmetic on (v, unit, prec) triples, None for the exact zero -------

def _parts(x: "PadicNumber"):
    return None if x.form is Form.EXACT_ZERO else (x.v, x.unit, x.prec)


def _number(p: int, t) -> "PadicNumber":
    """The checked value of triple ``t``; a zero unit is an inexact zero."""
    if t is None:
        return PadicNumber(p, Form.EXACT_ZERO)
    v, unit, prec = t
    return PadicNumber(p, Form.UNIT if unit else Form.ZERO_AT_LEAST, v, unit, prec)


def _normal(p: int, v: int, total: int, span: int):
    """``p**v * total`` known modulo ``p**(v + span)``, as a normal-form triple."""
    total %= _power(p, span)
    if not total:
        return v + span, 0, 0
    w = _val_int(p, total)
    if w:
        total //= _power(p, w)
    return v + w, total, span - w


def _add_parts(p: int, a, b):
    """``a + b``, known to the smaller of the two absolute precisions."""
    if a is None:
        return b
    if b is None:
        return a
    av, au, an = a
    bv, bu, bn = b
    if av > bv:
        av, au, an, bv, bu, bn = bv, bu, bn, av, au, an
    total = au + bu * _power(p, bv - av)
    return _normal(p, av, total, min(an, bv + bn - av))


def _mul_parts(p: int, a, b):
    """``a * b``, known to the smaller of the two relative precisions."""
    if a is None or b is None:
        return None
    return _normal(p, a[0] + b[0], a[1] * b[1], min(a[2], b[2]))


def _embed(p: int, q, prec: int):
    """The triple of an int or Fraction ``q`` at relative precision ``prec``."""
    # an int, bool included, is q/1 and a Fraction is in lowest terms
    num, den = q.numerator, q.denominator
    if num == 0:
        return None
    v = _val_int(p, num)
    if v:
        num //= _power(p, v)
    modulus = _power(p, prec)
    if den != 1:
        vd = _val_int(p, den)
        num *= pow(den // _power(p, vd), -1, modulus)
        v -= vd
    return v, num % modulus, prec


def _horner(coeffs, x, acc):
    """``acc * x**n + sum(coeffs[i] * x**i)`` for n = len(coeffs), by Horner's rule.

    >>> _horner((3, 0, 1), 10, 0)
    103
    """
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_residue(q, modulus: int) -> int:
    """The residue of a rational with invertible denominator mod ``modulus``.

    An int or a Fraction is read as it is; anything else goes through
    ``Fraction`` first.
    """
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    d = q.denominator
    if math.gcd(d, modulus) != 1:
        raise ValueError(f"denominator {d} is not invertible modulo {modulus}")
    return q.numerator * pow(d, -1, modulus) % modulus


@dataclass(frozen=True, init=False)
class PadicNumber:
    """An element of Q_p known to finite precision.

    Use :meth:`from_rational`, :meth:`exact_zero`, or :meth:`zero_at_least`
    to construct values; arithmetic goes through the usual operators.
    For ``Form.UNIT`` the fields mean ``x = p**v * w`` with
    ``w = unit (mod p**prec)``; for ``Form.ZERO_AT_LEAST`` the field ``v``
    holds the absolute-precision floor ``A`` with ``x = 0 (mod p**A)``.
    """

    p: int
    form: Form
    v: int = 0
    unit: int = 0
    prec: int = 0

    def __init__(self, p: int, form: Form, v: int = 0, unit: int = 0, prec: int = 0):
        p = check_prime(p)
        if type(v) is not int or type(unit) is not int or type(prec) is not int:
            raise TypeError(f"v, unit, prec must be ints: {v!r}, {unit!r}, {prec!r}")
        if form is Form.UNIT:
            if prec < 1:
                raise ValueError("relative precision must be at least 1")
            if not 0 < unit < _power(p, prec):
                raise ValueError("unit residue out of range")
            if unit % p == 0:
                raise ValueError("unit residue must be coprime to p")
        elif unit != 0 or prec != 0:
            raise ValueError("zero forms carry no unit data")
        elif form is Form.EXACT_ZERO and v != 0:
            raise ValueError("an exact zero has v = 0")
        self.__dict__.update(p=p, form=form, v=v, unit=unit, prec=prec)

    # ----- constructors -------------------------------------------------

    @classmethod
    def exact_zero(cls, p) -> "PadicNumber":
        return cls(p, Form.EXACT_ZERO)

    @classmethod
    def zero_at_least(cls, p, floor: int) -> "PadicNumber":
        return cls(p, Form.ZERO_AT_LEAST, int(floor))

    @classmethod
    def from_rational(cls, p, q, prec: int = DEFAULT_PRECISION) -> "PadicNumber":
        """Embed an exact rational, exactly up to the stated relative precision.

        The valuation is computed exactly and the unit part reduced modulo
        ``p**prec``, so the norm of the result equals the norm of ``q``.
        """
        p = check_prime(p)
        if prec < 1:
            raise ValueError("relative precision must be at least 1")
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _number(p, _embed(p, q, prec))

    # ----- structure ----------------------------------------------------

    @property
    def abs_prec(self):
        """Exponent k such that the value is known modulo p**k (inf if exact)."""
        return math.inf if self.form is Form.EXACT_ZERO else self.v + self.prec

    def norm(self) -> ExtVal:
        """The norm as an extended valuation exponent (norm = p**-v)."""
        if self.form is Form.EXACT_ZERO:
            return ExtVal.exact_zero()
        if self.form is Form.ZERO_AT_LEAST:
            return ExtVal.zero_at_least(self.v)
        return ExtVal.finite(self.v)

    def is_integer(self) -> bool:
        """True when the norm is certainly at most 1."""
        return self.v >= 0

    def digits(self) -> "DigitExpansion":
        """Base-p digits of the unit part, lowest digit first.

        All ``prec`` digits are listed, the high zero digits too:

        >>> PadicNumber.from_rational(5, 28, 4).digits()
        DigitExpansion(p=5, start=0, digits=(3, 0, 1, 0))
        """
        if self.form is not Form.UNIT:
            raise ZeroHasNoExpansion("zero has no canonical expansion")
        out = []
        u = self.unit
        for _ in range(self.prec):
            u, r = divmod(u, self.p)
            out.append(r)
        # the public constructor's checks hold by construction: p is the
        # checked prime, each digit is a remainder mod p, and the lowest is
        # that of a unit
        return DigitExpansion._unchecked(self.p, self.v, tuple(out))

    def reduce_mod(self, k: int) -> int:
        """The unique residue r in [0, p**k) with x = r (mod p**k)."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("k must be a positive integer")
        if not self.is_integer():
            raise NotAnInteger(f"value has valuation {self.v} < 0")
        if self.abs_prec < k:
            raise InsufficientPrecision(
                f"value known only modulo {self.p}^{self.abs_prec}, need {self.p}^{k}"
            )
        return self.unit * _power(self.p, self.v) % _power(self.p, k)

    def eq_to_precision(self, other: "PadicNumber", k: int) -> bool:
        """Whether x = y (mod p**k); both operands must carry that precision."""
        self._check_same_prime(other)
        if self.abs_prec < k or other.abs_prec < k:
            raise InsufficientPrecision(
                f"operands not both known modulo {self.p}^{k}"
            )
        diff = self - other
        if diff.form is Form.EXACT_ZERO:
            return True
        return diff.v >= k

    # ----- arithmetic ---------------------------------------------------

    def _check_same_prime(self, other: "PadicNumber"):
        if self.p != other.p:
            raise ValueError(
                f"cannot mix {self.p}-adic and {other.p}-adic values"
            )

    def _embed_for_add(self, q) -> "PadicNumber":
        # An exact rational operand must never lower the result's absolute
        # precision.  nu(q) >= -nu(den) > -den.bit_length(), so at this many
        # digits q is known at least to this value's abs_prec, and any
        # larger precision gives the same sum.  A zero q embeds as the
        # exact zero.
        if self.form is Form.EXACT_ZERO:
            return PadicNumber.from_rational(self.p, q, DEFAULT_PRECISION)
        n = max(1, self.abs_prec + q.denominator.bit_length())
        return PadicNumber.from_rational(self.p, q, n)

    def _embed_for_mul(self, q) -> "PadicNumber":
        return PadicNumber.from_rational(self.p, q, self.prec or DEFAULT_PRECISION)

    def _add(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        return _number(self.p, _add_parts(self.p, _parts(self), _parts(other)))

    def __add__(self, other):
        if isinstance(other, PadicNumber):
            return self._add(other)
        if isinstance(other, (int, Fraction)):
            return self._add(self._embed_for_add(other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "PadicNumber":
        if self.form is not Form.UNIT:
            return self
        return PadicNumber(
            self.p, Form.UNIT, self.v, _power(self.p, self.prec) - self.unit, self.prec
        )

    def __sub__(self, other):
        if isinstance(other, (PadicNumber, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def _mul(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        return _number(self.p, _mul_parts(self.p, _parts(self), _parts(other)))

    def __mul__(self, other):
        if isinstance(other, PadicNumber):
            return self._mul(other)
        if isinstance(other, (int, Fraction)):
            return self._mul(self._embed_for_mul(other))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        """Multiplicative inverse; requires a value with known valuation."""
        if self.form is Form.EXACT_ZERO:
            raise DivisionByZero("cannot invert zero")
        if self.form is Form.ZERO_AT_LEAST:
            raise IndeterminateValuation(
                f"cannot invert a value only known to vanish modulo "
                f"{self.p}^{self.v}"
            )
        return PadicNumber(
            self.p,
            Form.UNIT,
            -self.v,
            pow(self.unit, -1, _power(self.p, self.prec)),
            self.prec,
        )

    def __truediv__(self, other):
        if isinstance(other, PadicNumber):
            return self._mul(other.inverse())
        if isinstance(other, (int, Fraction)):
            return self._mul(self._embed_for_mul(other).inverse())
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._embed_for_mul(other)._mul(self.inverse())
        return NotImplemented

    def __pow__(self, k: int) -> "PadicNumber":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return PadicNumber(
                self.p, Form.UNIT, 0, 1, self.prec or DEFAULT_PRECISION
            )
        # a zero keeps unit 0 and precision 0; only its valuation scales
        return PadicNumber(
            self.p,
            self.form,
            self.v * k,
            pow(self.unit, k, _power(self.p, self.prec)),
            self.prec,
        )

    # ----- serialization ------------------------------------------------

    def to_record(self) -> dict:
        """Plain record {p, form, v, unit, N}; unit as base-10 string."""
        return {
            "p": self.p,
            "form": self.form.value,
            "v": self.v,
            "unit": str(self.unit),
            "N": self.prec,
        }

    @classmethod
    def from_record(cls, record: dict) -> "PadicNumber":
        return cls(
            record["p"],
            Form(record["form"]),
            int(record["v"]),
            int(record["unit"]),
            int(record["N"]),
        )

    def __str__(self) -> str:
        if self.form is Form.EXACT_ZERO:
            return "0"
        if self.form is Form.ZERO_AT_LEAST:
            return f"O({self.p}^{self.v})"
        return str(self.digits())


@dataclass(frozen=True)
class DigitExpansion:
    """A window of base-p digits, lowest digit (index ``start``) first.

    Represents ``sum(digits[i] * p**(start + i))`` as a truncation of the
    full left-infinite expansion; the lowest digit is nonzero.
    """

    p: int
    start: int
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", check_prime(self.p))
        if not self.digits:
            raise ValueError("expansion must contain at least one digit")
        if min(self.digits) < 0 or max(self.digits) >= self.p:
            raise ValueError("digits out of range")
        if self.digits[0] == 0:
            raise ValueError("lowest digit must be nonzero")

    @classmethod
    def _unchecked(cls, p: int, start: int, digits: tuple[int, ...]) -> DigitExpansion:
        """An expansion whose checks already hold, built without running them."""
        expansion = object.__new__(cls)
        object.__setattr__(expansion, "p", p)
        object.__setattr__(expansion, "start", start)
        object.__setattr__(expansion, "digits", digits)
        return expansion

    def value(self) -> Fraction:
        """The exact rational value of the truncated series."""
        return Fraction(self.p) ** self.start * _horner(self.digits, self.p, 0)

    def to_number(self) -> PadicNumber:
        """Reassemble the source element (same valuation, unit, precision)."""
        unit = _horner(self.digits, self.p, 0)
        return PadicNumber(self.p, Form.UNIT, self.start, unit, len(self.digits))

    def __str__(self) -> str:
        if self.p <= 10:
            window = "".join(str(d) for d in reversed(self.digits))
        else:
            window = "[" + ",".join(str(d) for d in reversed(self.digits)) + "]"
        text = f"...{window}"
        if self.start != 0:
            text += f" × {self.p}^{self.start}"
        return text
