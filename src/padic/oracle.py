"""Ground truth over Z/p**k Z.

The oracle shares no code with what it checks: it imports only the types
under test, ``check_prime`` and ``DomainTooLarge``, and reads residues and
p-integrality off numerators and denominators.  Roots are found by a
digit tree (``_root_tree``).  It rests only on the fact that a root mod
p**(j+1) reduces to a root mod p**j, so it is exact for any p-integral f
without Hensel's hypothesis, and its work grows with the number of roots
at each level rather than with p**k.  Ring operations are cross-checked
against plain rational arithmetic.  The result is deterministic and
sorted.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainTooLarge
from .number import PadicNumber
from .polynomial import PadicPoly
from .valuation import check_prime

DOMAIN_LIMIT = 10**7

_OPS = dict(add=operator.add, sub=operator.sub, mul=operator.mul, div=operator.truediv)


def _residue(q: Fraction, modulus: int) -> int:
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


@dataclass(frozen=True)
class OracleReport:
    p: int
    k: int
    roots: tuple[int, ...]
    filtered_roots: tuple[int, ...] | None = None


def _root_tree(f: PadicPoly, k: int) -> np.ndarray:
    """The roots of f mod p**k, ascending, found one p-adic digit at a time.

    Level j holds the roots mod p**j.  Each root r there has the p
    children r + i*p**j, and the children that are roots mod p**(j+1)
    form level j + 1.  All children of a level are evaluated at once, by
    Horner from the leading residue.  Each coefficient is reduced mod
    p**k once, since a residue mod p**k is one mod every p**j below it;
    the zero polynomial, with no coefficients, is the constant 0.  An
    empty level has no children, so the tree stops there.
    """
    p, modulus = f.p, f.p**k
    residues = [_residue(c, modulus) for c in f.coeffs] or [0]
    lead, rest = residues[-1], residues[-2::-1]
    # Children are built digit-major, so each level stays ascending; int64
    # is safe since p**k <= 1e7 keeps every product below 2**63.
    digits = np.arange(p, dtype=np.int64)
    level, pj = np.zeros(1, dtype=np.int64), 1
    while level.size and pj < modulus:
        children = np.add.outer(digits * pj, level).ravel()
        pj *= p
        # a constant f takes no Horner step, so it starts as a whole array
        acc = lead if rest else np.full_like(children, lead % pj)
        for c in rest:
            acc = (acc * children + c) % pj
        level = children[acc == 0]
    return level


def enumerate_roots(
    f: PadicPoly,
    k: int,
    center: int | None = None,
    radius_exponent: int | None = None,
) -> OracleReport:
    """All residues r in [0, p**k) with f(r) = 0 (mod p**k), ascending.

    With ``center`` and ``radius_exponent`` given, also reports the
    sublist of roots r with nu(r - center) > radius_exponent.
    """
    p = f.p
    if k < 1:
        raise ValueError("k must be a positive integer")
    if p**k > DOMAIN_LIMIT:
        raise DomainTooLarge(f"{p}^{k} exceeds the scan limit {DOMAIN_LIMIT}")
    # the tree's level arrays are freed before the tuple of ints is built
    roots = tuple(_root_tree(f, k).tolist())
    filtered = None
    if center is not None:
        if radius_exponent is None:
            raise ValueError("filter needs both center and radius_exponent")
        # nu(r - center) > radius_exponent, as far as residues mod p**k tell
        ball = p ** min(max(radius_exponent + 1, 0), k)
        filtered = tuple(r for r in roots if (r - center) % ball == 0)
    return OracleReport(p, k, roots, filtered)


@dataclass(frozen=True)
class CrosscheckReport:
    p: int
    k: int
    trials: int
    checked: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def crosscheck_arith(p, k: int, trials: int, rng_seed: int = 0) -> CrosscheckReport:
    """Compare capped-precision ring ops against exact rational arithmetic.

    Draws random p-integral rational pairs, applies each ring operation
    both ways, and compares residues modulo p**k whenever valuations
    permit the comparison.  A handful of fixed cases runs first: the
    classic base-p carry identities (-1) + 1 = 0 and (1/3) * 3 = 1 where
    p-integral, plus a full-cancellation pair exercising the inexact-zero
    path.
    """
    p = check_prime(p)
    if k < 1:
        raise ValueError("k must be a positive integer")
    modulus = p**k
    prec = k + 8
    rng = random.Random(rng_seed)

    third = Fraction(1, 3)
    cases = [(Fraction(-1), Fraction(1), "add")]
    if p != 3:  # 1/3 is p-integral
        cases += [(third, Fraction(3), "mul"), (third, Fraction(-1), "add")]
    cases.append((Fraction(7), Fraction(-7), "add"))

    def random_integral() -> Fraction:
        den = rng.randint(1, 60)
        while den % p == 0:
            den = rng.randint(1, 60)
        q = Fraction(rng.randint(-200, 200), den)
        return q * Fraction(p) ** rng.randint(0, 3)

    ops = tuple(_OPS)
    for _ in range(trials):
        cases.append((random_integral(), random_integral(), rng.choice(ops)))

    checked = 0
    mismatches: list[str] = []
    for q, r, op in cases:
        # skip a quotient that is not p-integral; 0 counts as nu = 0 here
        if op == "div" and (r == 0 or ((q or 1) / r).denominator % p == 0):
            continue
        x = PadicNumber.from_rational(p, q, prec)
        y = PadicNumber.from_rational(p, r, prec)
        z, exact = _OPS[op](x, y), _OPS[op](q, r)
        got = z.reduce_mod(k)
        want = _residue(exact, modulus)
        checked += 1
        if got != want:
            mismatches.append(f"{q} {op} {r}: got {got}, expected {want}")
    return CrosscheckReport(p, k, trials, checked, tuple(mismatches))
