"""Brute-force ground truth over Z/p**k Z.

Nothing here shares code with the capped-precision arithmetic: roots are
found by scanning every residue, and ring operations are cross-checked
against plain rational arithmetic.  The scan is vectorized but still
exhaustive, and the result is deterministic and sorted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainTooLarge
from .number import PadicNumber, rational_residue
from .polynomial import PadicPoly
from .valuation import check_prime, padic_val_int, padic_val_rat

DOMAIN_LIMIT = 10**7


@dataclass(frozen=True)
class OracleReport:
    p: int
    k: int
    coeffs_mod: tuple[int, ...]
    roots: tuple[int, ...]
    filtered_roots: tuple[int, ...] | None = None


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
    modulus = p**k
    if modulus > DOMAIN_LIMIT:
        raise DomainTooLarge(f"{p}^{k} exceeds the scan limit {DOMAIN_LIMIT}")
    coeffs = tuple(rational_residue(c, modulus) for c in f.coeffs)
    # int64 is safe: modulus <= 1e7 so intermediate products stay below 2**63
    xs = np.arange(modulus, dtype=np.int64)
    acc = np.zeros(modulus, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % modulus
    roots = tuple(int(r) for r in np.nonzero(acc == 0)[0])
    filtered = None
    if center is not None:
        if radius_exponent is None:
            raise ValueError("filter needs both center and radius_exponent")
        c0 = center % modulus
        filtered = tuple(
            r
            for r in roots
            if (r - c0) % modulus == 0
            or padic_val_int(p, (r - c0) % modulus) > radius_exponent
        )
    return OracleReport(p, k, coeffs, roots, filtered)


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

    cases: list[tuple[Fraction, Fraction, str]] = []
    for q, r, op in (
        (Fraction(-1), Fraction(1), "add"),
        (Fraction(1, 3), Fraction(3), "mul"),
        (Fraction(1, 3), Fraction(-1), "add"),
    ):
        if padic_val_rat(p, q) >= 0 and padic_val_rat(p, r) >= 0:
            cases.append((q, r, op))
    cases.append((Fraction(7), Fraction(-7), "add"))

    def random_integral() -> Fraction:
        den = rng.randint(1, 60)
        while den % p == 0:
            den = rng.randint(1, 60)
        q = Fraction(rng.randint(-200, 200), den)
        return q * Fraction(p) ** rng.randint(0, 3)

    ops = ("add", "sub", "mul", "div")
    for _ in range(trials):
        cases.append((random_integral(), random_integral(), rng.choice(ops)))

    checked = 0
    mismatches: list[str] = []
    for q, r, op in cases:
        if op == "div":
            if r == 0 or padic_val_rat(p, q) < padic_val_rat(p, r):
                continue  # quotient would not be p-integral
        x = PadicNumber.from_rational(p, q, prec)
        y = PadicNumber.from_rational(p, r, prec)
        if op == "add":
            z, exact = x + y, q + r
        elif op == "sub":
            z, exact = x - y, q - r
        elif op == "mul":
            z, exact = x * y, q * r
        else:
            z, exact = x / y, q / r
        got = z.reduce_mod(k)
        want = rational_residue(exact, modulus)
        checked += 1
        if got != want:
            mismatches.append(f"{q} {op} {r}: got {got}, expected {want}")
    return CrosscheckReport(p, k, trials, checked, tuple(mismatches))
