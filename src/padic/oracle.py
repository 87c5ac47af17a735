"""Ground truth over Z/p**k Z.

The oracle shares no code with what it checks: it imports only the types
under test, ``check_prime`` and ``DomainTooLarge``, and reads residues and
p-integrality off numerators and denominators.  Roots are found by a tree
of balls r + p**j Z (``_root_tree``), the representation of Kopp, Randall,
Rojas and Zhu (root counting in prime power rings) and of Berthomieu,
Lecerf and Quintin (root finding over local rings): each node carries
g(t) = f(r + p**j t) / p**s mod p**(k - s), s as large as p divides.  A
ball on which g vanishes is kept whole, so a double root or the zero
polynomial costs one ball rather than one node per residue.  A simple
root of g mod p has exactly one root of g above it, which Newton's method
finds inside the node, doubling its digits per step; only a multiple
root mod p gets a child, one digit deeper, whose g is g(t + p u).  So a
simple root costs no node of its own and a multiple root one node per
level until its ball vanishes.  The Newton steps read g and g' off the
tree's own Taylor expansion of g, and
nothing in this needs Hensel's hypothesis on f or shares code or state
with the lifter, so it is exact for any p-integral f, and its work grows
with the number of balls rather than with p**k.  ``enumerate_roots``
refuses, with ``DomainTooLarge``, a k log2(p) above ``WORK_BITS``, a
degree or a tree whose modelled work passes ``WORK_LIMIT``, charged per
Newton step and per child as the tree runs, and balls
that hold more than ``DOMAIN_LIMIT`` residues.  The tuple of roots is
built from the balls at the end.  Ring operations are cross-checked
against plain rational arithmetic.  The result is deterministic and
sorted.

numpy is imported but unused: the benchmark harness reads
``sys.modules["numpy"]`` after every workload (``perfbench/worker.py``),
so the import stays until that read is optional (ROADMAP item 1).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, zip_longest

import numpy  # noqa: F401

from .errors import DomainTooLarge
from .number import PadicNumber
from .polynomial import PadicPoly
from .valuation import check_prime

# enumerate_roots expands its balls into at most DOMAIN_LIMIT residues, and
# takes on k log2(p) up to WORK_BITS.  That bound no longer guards a node's
# own cost: (x - a)**2 mod 2**2000, one node per level, ends in 0.02 s.  It
# bounds the work unit below, which grows with k log2(p) but prices
# residues linearly in their bits and was fit at 2000 bits at most (a
# FOUND line in CHANGES.md).  The tree also refuses a degree d with
# (k - 1) k log2(p) (16 d + k) above WORK_LIMIT, where one unit was fit
# when each node below the root of (x - a)**2 h, deg h = d - 2, made 3
# synthetic divisions of d + 1 residues mod p**k, at 1.7e-10 s per unit
# at p = 2, so the limit was about 1.5 s.  The root's split mod p adds
# SPLIT_SCALE d min(p, d log2(p)) log2(p): a scan of p residues or a gcd
# of about d log2(p) steps, each of d steps on log2(p)-bit residues.  On
# random dense f at k = 1 one unit of that took 30-52 of the units above
# at p = 101 to 10007 (scans, degree 1000-10000) and 41-84 at p = 99991
# to 2**61 - 1 (gcds, degree 25-1000); degree 200 at 2**61 - 1 took 1.6 s,
# 82 % of the limit.  The tree charges as it runs, before the work is
# done: a child one unit per three coefficients of its g, at least one,
# and a lift one unit per Newton step, at the root node too.  A double
# root of (x - a)**2 steps one level per node for about k/2 units,
# within the k - 1 the check before the tree counts; several chains stop
# once their charges pass the limit, also chains that end in no root:
# seven double roots mod 2**2000, or three (x - a)**2 - 2**1801 with no
# root, are refused after 0.06 and 0.02 s, though uncharged they would
# end in 0.3 and 0.08 s, and the 1008 simple roots of x**1008 - 1 mod
# 1009**200 after 0.8-1.1 s (Python 3.11, 2-core host).
DOMAIN_LIMIT = 10**7
WORK_BITS = 2000
WORK_LIMIT = 9 * 10**9
SPLIT_SCALE = 50
# a reduced node's roots mod p are found by trying every residue while
# p <= max(_SCAN_LIMIT, deg * p.bit_length()), and by gcds with t**p - t
# past it: a scan costs about p * deg steps and the gcd deg**2 log2(p),
# and scripts/root_split_timings.py put the crossover there
_SCAN_LIMIT = 256
# crosscheck_arith embeds its operands this many digits past k
CROSSCHECK_GUARD = 8

_OPS = dict(add=operator.add, sub=operator.sub, mul=operator.mul, div=operator.truediv)


def _residue(q: Fraction, modulus: int) -> int:
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


@dataclass(frozen=True)
class OracleReport:
    p: int
    k: int
    roots: tuple[int, ...]


def _roots_mod_p(g: list[int], p: int) -> list[int]:
    """The roots in [0, p) of g mod p, coefficients low first, leading one a unit.

    ``_scans`` picks the one measured to be cheaper of a scan of every
    residue, at O(p deg), and a split of gcd(g, t**p - t), at about
    O(deg**2 log p), so k = 1 with p near ``DOMAIN_LIMIT`` costs no scan
    of p residues.  A line has its one root read off directly.
    """
    if len(g) == 2:
        return _fp_split(g, p)
    return (_scan_roots_mod_p if _scans(p, len(g) - 1) else _gcd_roots_mod_p)(g, p)


def _scans(p: int, degree: int) -> bool:
    return p <= _SCAN_LIMIT or p <= degree * p.bit_length()


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
    """The roots of h, a product of distinct linear factors over F_p; p odd past a line.

    gcd(h, (t + d)**((p-1)/2) - 1) keeps the roots r with r + d a nonzero
    square; d = 0, 1, 2, ... separates any two roots within a few tries.
    """
    if len(h) <= 2:
        return [-h[0] * pow(h[1], -1, p) % p] if len(h) == 2 else []
    for d in count():
        g = _fp_gcd(h, _fp_sub(_fp_powmod([d, 1], (p - 1) // 2, h, p), [1], p), p)
        if 1 < len(g) < len(h):
            return _fp_split(g, p) + _fp_split(_fp_divmod(h, g, p)[0], p)


def _taylor(g: list[int], t: int, n: int, modulus: int, step: int) -> list[int]:
    """The first n coefficients of g(t + step u) mod modulus, g and the result low first.

    Coefficient i is the remainder of the i-th synthetic division by u - t,
    times step**i, so n must not pass len(g).
    """
    out, high, scale = [], g[::-1], 1
    for _ in range(n):
        acc, quotient = 0, []
        for c in high:
            acc = (acc * t + c) % modulus
            quotient.append(acc)
        out.append(quotient.pop() * scale % modulus)
        high, scale = quotient, scale * step
    return out


def _node(p: int, k: int, r: int, j: int, s: int, g: list[int], charge):
    """One node of the tree: the ball r + p**j Z, with 0 <= r < p**j.

    ``g`` is f(r + p**j t) / p**s mod p**(k - s), low first.  Returns the
    balls (r', j') inside this one on which f vanishes mod p**k, and the
    children (r', j + 1, s, g') that may still hold roots.  g is first
    divided by the largest power of p that divides every coefficient; if
    it vanishes mod p**(k - s), so does f on the whole ball.  Otherwise a
    root must reduce to a root t of g mod p, and with one digit left,
    s = k - 1, each such t is a ball of depth j + 1.  Where g'(t) is a
    unit, g has exactly one root mod p**(k - s) above t, found in place by
    Newton's method, each step doubling its digits, and its ball
    r + p**j t* has depth j + k - s.  Elsewhere the child at t carries
    g(t + p u), whose coefficient i is g's i-th Taylor coefficient at t
    times p**i.  g's coefficient i is divisible by p**(ij - s), so that
    one vanishes once i (j + 1) >= k and is not computed.  ``charge(n)``
    is called with the units of work before each Newton step and each
    child's shift.
    """
    common, power = math.gcd(*g), 1
    if not common:
        return [(r, j)], []
    while not common % (power * p):
        power, s = power * p, s + 1
    if power > 1:
        g = [c // power for c in g]
    reduced = [c % p for c in g]
    while not reduced[-1]:
        reduced.pop()
    if len(reduced) < 2:
        return [], []
    if s == k - 1:  # one digit left: every root mod p is a ball
        return [(r + t * p**j, j + 1) for t in _roots_mod_p(reduced, p)], []
    balls, children = [], []
    for t in _roots_mod_p(reduced, p):
        # g'(t) mod p, by Horner inline: a double root's chain, oracle-sweep's
        # median op, checks one root per node
        slope = value = 0
        for c in reversed(reduced):
            slope, value = (slope * t + value) % p, (value * t + c) % p
        if slope:
            # Newton's method: t is a root mod p**digits, then mod p**(2 digits)
            digits = 1
            while digits < k - s:
                charge(1)
                digits = min(2 * digits, k - s)
                m = p**digits
                value, slope = _taylor(g, t, 2, m, 1)
                t = (t - value * pow(slope, -1, m)) % m
            balls.append((r + t * p**j, j + k - s))
        else:
            n = min(len(g), (k - 1) // (j + 1) + 1)
            charge(-(-n // 3))
            children.append((r + t * p**j, j + 1, s, _taylor(g, t, n, p ** (k - s), p)))
    return balls, children


def _root_tree(f: PadicPoly, k: int) -> list[tuple[int, int]]:
    """The balls r + p**j Z on which f vanishes mod p**k, disjoint, in no order.

    Starting from all of Z_p, with g = f, each node (``_node``) keeps its
    ball whole when f vanishes on it mod p**k, lifts each simple root of
    its g mod p in place to the one ball above it, and pushes a child
    only at a multiple root mod p.  So a simple root costs no node past
    the one where it first reduces to a simple root, and a multiple root
    one node per level until its ball vanishes whole.  The child's ball
    is one digit deeper, so the tree stops by depth k.  Each coefficient
    is reduced mod p**k once per call; the zero polynomial, with no
    coefficients, is the constant 0.  The work model prices the root's
    split, each child's shift and each Newton step; :class:`DomainTooLarge`
    is raised before the tree runs when k - 1 units and the split pass
    ``WORK_LIMIT``, and at the charge that takes the sum past it, before
    its work is done.
    """
    p, d, modulus = f.p, f.degree, f.p**k
    lg = math.log2(p)
    unit, split = k * lg * (16 * d + k), SPLIT_SCALE * d * min(p, d * lg) * lg
    if (k - 1) * unit + split > WORK_LIMIT:
        raise DomainTooLarge(f"degree {d} at {p}^{k} is past the work bound")
    budget = WORK_LIMIT - split

    def charge(units):
        nonlocal budget
        budget -= units * unit
        if budget < 0:
            raise DomainTooLarge(f"the root tree at {p}^{k} ran past the work bound")

    balls, stack = [], [(0, 0, 0, [_residue(c, modulus) for c in f.coeffs])]
    while stack:
        found, children = _node(p, k, *stack.pop(), charge)
        balls += found
        stack += children
    return balls


def enumerate_roots(f: PadicPoly, k: int) -> OracleReport:
    """All residues r in [0, p**k) with f(r) = 0 (mod p**k), ascending.

    Raises :class:`DomainTooLarge` when k log2(p) is above ``WORK_BITS``
    or the degree d makes (k - 1) k log2(p) (16 d + k), plus the root's
    split ``SPLIT_SCALE`` d min(p, d log2(p)) log2(p), exceed
    ``WORK_LIMIT``, both before the tree runs; when the tree, charged
    k log2(p) (16 d + k) per Newton step and per three coefficients of a
    child's shift, runs the charges plus the split past ``WORK_LIMIT``,
    as several multiple roots, close root pairs or many simple roots can,
    with few roots or none; or when its balls hold more
    than ``DOMAIN_LIMIT`` residues, before they are expanded.  To ask
    which roots lie in a ball, filter ``roots``, as
    :func:`padic.hensel.unique_in_neighborhood` does.
    """
    p = f.p
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if k * math.log2(p) > WORK_BITS:
        raise DomainTooLarge(f"{p}^{k} is past the work bound of {WORK_BITS} bits")
    modulus = p**k
    balls = _root_tree(f, k)
    if sum(p ** (k - j) for _, j in balls) > DOMAIN_LIMIT:
        raise DomainTooLarge(f"f has more than {DOMAIN_LIMIT} roots mod {p}^{k}")
    # a single ball's residues are already ascending
    runs = [range(r, modulus, p**j) for r, j in balls]
    roots = tuple(runs[0]) if len(runs) == 1 else tuple(sorted(chain.from_iterable(runs)))
    return OracleReport(p, k, roots)


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
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    modulus = p**k
    prec = k + CROSSCHECK_GUARD
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
