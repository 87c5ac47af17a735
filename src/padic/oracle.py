"""Ground truth over Z/p**k Z.

The oracle shares no code with what it checks: it imports only the types
under test, ``check_prime`` and ``DomainTooLarge``, and reads residues and
p-integrality off numerators and denominators.  Roots are found by a tree
of balls r + p**j Z (``_root_tree``), the representation of Kopp, Randall,
Rojas and Zhu (root counting in prime power rings) and of Berthomieu,
Lecerf and Quintin (root finding over local rings).  A ball on which f
vanishes mod p**k is kept whole (the s >= k collapse), so a double root
or the zero polynomial costs one ball rather than one node per residue.
Any other ball is split only into the children on which f, divided by
the largest power of p that divides it on the ball, has a root mod p.
Nothing in this needs Hensel's hypothesis or a Newton step, so it is
exact for any p-integral f, and its work grows with the number of balls
rather than with p**k.  The tuple of roots is built from the balls at the
end.  Ring operations are cross-checked against plain rational
arithmetic.  The result is deterministic and sorted.

numpy is imported but unused: the benchmark harness reads
``sys.modules["numpy"]`` after every workload (``perfbench/worker.py``),
so the import stays until that read is optional (ROADMAP item 1).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, zip_longest

# Unused: perfbench/worker.py:180 reads sys.modules["numpy"] after every
# workload, so the import stays until that read is made optional
# (ROADMAP item 1); delete it then.
import numpy  # noqa: F401

from .errors import DomainTooLarge
from .number import PadicNumber
from .polynomial import PadicPoly
from .valuation import check_prime

DOMAIN_LIMIT = 10**7
# a reduced node's roots mod p are found by trying every residue while
# p <= max(_SCAN_LIMIT, deg * p.bit_length()), and by gcds with t**p - t
# past it: a scan costs about p * deg steps and the gcd deg**2 log2(p),
# and scripts/root_split_timings.py put the crossover there
_SCAN_LIMIT = 256

_OPS = dict(add=operator.add, sub=operator.sub, mul=operator.mul, div=operator.truediv)


def _residue(q: Fraction, modulus: int) -> int:
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


@dataclass(frozen=True)
class OracleReport:
    p: int
    k: int
    roots: tuple[int, ...]
    filtered_roots: tuple[int, ...] | None = None


def _roots_mod_p(g: list[int], p: int) -> list[int]:
    """The roots in [0, p) of g mod p, coefficients low first, leading one a unit.

    ``_scans`` picks the one measured to be cheaper of a scan of every
    residue, at O(p deg), and a split of gcd(g, t**p - t), at about
    O(deg**2 log p), so k = 1 with p near ``DOMAIN_LIMIT`` costs no scan
    of p residues.  ``_split`` solves a line itself.
    """
    return (_scan_roots_mod_p if _scans(p, len(g) - 1) else _gcd_roots_mod_p)(g, p)


def _scans(p: int, degree: int) -> bool:
    return p <= max(_SCAN_LIMIT, degree * p.bit_length())


def _scan_roots_mod_p(g: list[int], p: int) -> list[int]:
    roots = []
    for t in range(p):
        acc = 0
        for c in reversed(g):
            acc = (acc * t + c) % p
        if not acc:
            roots.append(t)
    return roots


def _gcd_roots_mod_p(g: list[int], p: int) -> list[int]:
    x = [0, 1]
    return _fp_split(_fp_gcd(g, _fp_sub(_fp_powmod(x, p, g, p), x, p), p), p)


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and trimmed remainder of a by b over F_p, lists low first.

    b's leading coefficient must be a unit; a may be untrimmed and unreduced.
    """
    a, q, inv = [c % p for c in a], [], pow(b[-1], -1, p)
    while len(a) >= len(b):
        c, shift = a.pop() * inv % p, len(a) - len(b) + 1
        q.append(c)
        for i, x in enumerate(b[:-1]):
            a[shift + i] = (a[shift + i] - c * x) % p
    while a and not a[-1]:
        a.pop()
    return q[::-1], a


def _fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _fp_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    product = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    return _fp_divmod(product, m, p)[1]


def _fp_powmod(a: list[int], n: int, m: list[int], p: int) -> list[int]:
    """a**n mod m over F_p, by square and multiply."""
    out = [1]
    for bit in bin(n)[2:]:
        out = _fp_mulmod(out, out, m, p)
        if bit == "1":
            out = _fp_mulmod(out, a, m, p)
    return out


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _fp_split(h: list[int], p: int) -> list[int]:
    """The roots of h, a product of distinct linear factors over F_p, p odd.

    gcd(h, (t + d)**((p-1)/2) - 1) keeps the roots r with r + d a nonzero
    square; d = 0, 1, 2, ... separates any two roots within a few tries.
    """
    if len(h) <= 2:
        return [-h[0] * pow(h[1], -1, p) % p] if len(h) == 2 else []
    for d in count():
        g = _fp_gcd(h, _fp_sub(_fp_powmod([d, 1], (p - 1) // 2, h, p), [1], p), p)
        if 1 < len(g) < len(h):
            return _fp_split(g, p) + _fp_split(_fp_divmod(h, g, p)[0], p)


def _split(coeffs: list[int], p: int, k: int, modulus: int, r: int, j: int):
    """One node of the tree: the ball r + p**j Z, with 0 <= r < p**j.

    Returns None when f vanishes mod p**k on the whole ball; otherwise the
    digits t for which r + t p**j Z may still hold a root.  ``coeffs`` are
    f's residues mod p**k, leading one first.  Write f(r + p**j t) as
    sum T_i p**(ij) t**i with T_i = f^(i)(r)/i!, and let s be the least
    valuation of those terms, capped at k.  Term i has valuation at least
    i*j, so only the terms with i*j below k, and then no more than the
    least valuation found so far, can reach s: each further T_i costs one
    synthetic division, and a simple root needs two.  At j = 0, r = 0 and
    the T_i are the residues themselves.  If s >= k, the ball is all
    roots.  Otherwise a root t needs f(r + p**j t) / p**s = 0 mod p, and
    that reduction g keeps only the terms of valuation s, low first.  A
    nonzero constant g has no root, a line (c*t, whose root is 0, or two
    terms) is solved in place, and degree 2 and up goes to ``_roots_mod_p``.
    """
    bound, s, g = k - 1, k, []
    for i in range(len(coeffs)):
        w = i * j
        if w > bound:
            break
        if j:
            quotient, t = [], 0
            for c in coeffs:
                t = (t * r + c) % modulus
                quotient.append(t)
            t = quotient.pop()
            coeffs = quotient
        else:
            t = coeffs[-1 - i]
        if not t:
            continue
        while w <= bound and not t % p:
            t //= p
            w += 1
        if w <= bound:
            if w < s:
                s = bound = w
                g = []
            g += [0] * (i - len(g))
            g.append(t % p)
    if s == k:
        return None
    if len(g) == 2:
        return [-g[0] * pow(g[1], -1, p) % p]
    return _roots_mod_p(g, p) if len(g) > 1 else []


def _root_tree(f: PadicPoly, k: int) -> list[tuple[int, int]]:
    """The balls r + p**j Z on which f vanishes mod p**k, disjoint, in no order.

    Starting from all of Z_p, each ball is either kept whole, when f
    vanishes on it mod p**k, or split into the children r + t p**j that
    ``_split`` cannot rule out.  A ball of radius p**-k is one residue, on
    which f either vanishes or does not, so the tree stops by depth k.
    Each coefficient is reduced mod p**k once per call; the zero
    polynomial, with no coefficients, is the constant 0.
    """
    p, modulus = f.p, f.p**k
    coeffs = [_residue(c, modulus) for c in reversed(f.coeffs)] or [0]
    balls, stack = [], [(0, 0)]
    while stack:
        r, j = stack.pop()
        digits = _split(coeffs, p, k, modulus, r, j)
        if digits is None:
            balls.append((r, j))
        else:
            pj = p**j
            for t in digits:
                stack.append((r + t * pj, j + 1))
    return balls


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
    # a single ball's residues are already ascending
    runs = [range(r, modulus, p**j) for r, j in _root_tree(f, k)]
    roots = tuple(runs[0]) if len(runs) == 1 else tuple(sorted(chain.from_iterable(runs)))
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
