import ast
import collections
import inspect
import random
from fractions import Fraction

import pytest

import padic.oracle
from conftest import time_limit
from padic import (
    DomainTooLarge,
    PadicPoly,
    crosscheck_arith,
    enumerate_roots,
    parse_poly,
)


def test_enumerate_sqrt6():
    report = enumerate_roots(parse_poly("x^2 - 6", 5), 4)
    assert report.roots == (109, 516)
    assert report.p == 5 and report.k == 4


def test_enumerate_no_roots():
    assert enumerate_roots(parse_poly("x^2 + 1", 3), 2).roots == ()


def test_enumerate_identity_poly():
    for p, k in ((2, 3), (7, 2)):
        assert enumerate_roots(parse_poly("x", p), k).roots == (0,)


def test_enumerate_zero_poly():
    assert enumerate_roots(PadicPoly(3, ()), 1).roots == (0, 1, 2)


def test_domain_guard():
    with pytest.raises(DomainTooLarge):
        enumerate_roots(parse_poly("x", 2), 30)


def test_filtered_roots():
    report = enumerate_roots(parse_poly("x^2 - 6", 5), 4, center=1, radius_exponent=0)
    assert report.filtered_roots == (516,)
    with pytest.raises(ValueError):
        enumerate_roots(parse_poly("x", 5), 2, center=1)


def test_filter_reads_any_center_and_radius():
    f = parse_poly("x^2 - 6", 5)
    with time_limit(5):
        for center, radius, want in (
            (1 - 5**4, 0, (516,)),
            (516 + 3 * 5**4, 10**9, (516,)),
            (517, 10**9, ()),
            (-1, -3, (109, 516)),
            (109 + 5**3, 2, (109,)),
            (109 + 5**3, 3, ()),
        ):
            report = enumerate_roots(f, 4, center=center, radius_exponent=radius)
            assert report.filtered_roots == want, (center, radius)


def test_oracle_imports_only_what_it_checks_through():
    # the oracle is an independent check, so it must not reuse library helpers
    tree = ast.parse(inspect.getsource(padic.oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "padic"
        ):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "padic" for a in node.names)
    assert imported == {"DomainTooLarge", "PadicNumber", "PadicPoly", "check_prime"}


def test_roots_sorted_ascending():
    report = enumerate_roots(parse_poly("x^2 - 1", 7), 3)
    assert list(report.roots) == sorted(report.roots)
    assert report.roots == (1, 342)


def test_refinement_stability_for_simple_roots():
    # a simple root mod p has exactly one descendant mod p^k
    for text, p in (("x^2 - 6", 5), ("x^3 - 2", 5), ("x^2 - 2", 7)):
        f = parse_poly(text, p)
        simple = [
            a for a in range(p)
            if f.eval_exact(a) % p == 0 and f.derivative().eval_exact(a) % p != 0
        ]
        roots = enumerate_roots(f, 4).roots
        for a in simple:
            assert sum(1 for r in roots if r % p == a) == 1


def test_crosscheck_clean():
    report = crosscheck_arith(5, 4, trials=1000)
    assert report.ok and report.mismatches == ()
    assert report.checked > 850


def test_crosscheck_other_primes():
    for p in (2, 3, 13):
        assert crosscheck_arith(p, 3, trials=150, rng_seed=p).ok


def test_crosscheck_deterministic():
    a = crosscheck_arith(5, 4, trials=100, rng_seed=9)
    b = crosscheck_arith(5, 4, trials=100, rng_seed=9)
    assert a == b


def _scan(coeffs, p, k):
    """Every root mod p**k by trying all residues: plain Python, no padic helpers."""
    m = p**k
    cs = [c.numerator * pow(c.denominator, -1, m) % m for c in coeffs]
    roots = []
    for x in range(m):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % m
        if acc == 0:
            roots.append(x)
    return tuple(roots)


def _nu(d, p):
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _families(rng, p, m):
    """One polynomial (coefficients from degree 0 up) of each family mod m = p**k."""
    a = rng.randrange(m)
    unit = rng.choice([u for u in range(1, 4 * p) if u % p])
    den = rng.choice([u for u in range(2, 4 * p) if u % p])
    g = [Fraction(rng.randrange(m)) for _ in range(rng.randint(0, 2))] + [Fraction(1)]
    frob = [Fraction(0), Fraction(-1)] + [Fraction(0)] * (p - 2) + [Fraction(1)]
    return {
        "random": [Fraction(rng.randrange(-m, m)) for _ in range(rng.randint(2, 5))],
        "root-free": [Fraction(unit)] + frob[1:],  # x^p - x + u is u mod p
        "dense": _poly_mul([Fraction(a * a), Fraction(-2 * a), Fraction(1)], g),
        "zero": [],
        "constant": [Fraction(unit)],
        "frobenius": frob,  # x^p - x vanishes at every residue mod p
        "unit denominator": [
            Fraction(rng.randrange(-m, m), den) for _ in range(rng.randint(2, 4))
        ],
    }


def test_tree_agrees_with_an_exhaustive_scan():
    rng = random.Random(20261018)
    domains = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 12) if p**k <= 3000]
    nonempty = collections.Counter()
    for p, k in domains * 2:
        m = p**k
        for family, coeffs in _families(rng, p, m).items():
            want = _scan(coeffs, p, k)
            center, radius = rng.randrange(-m, 2 * m), rng.randint(-1, k + 1)
            report = enumerate_roots(
                PadicPoly(p, coeffs), k, center=center, radius_exponent=radius
            )
            assert report.roots == want, (p, k, family)
            # nu(r - center) > radius, a difference of 0 mod p**k counting as nu = oo
            assert report.filtered_roots == tuple(
                r for r in want
                if (r - center) % m == 0 or _nu((r - center) % m, p) > radius
            ), (p, k, family, center, radius)
            nonempty[family] += bool(want)
    assert nonempty["root-free"] == nonempty["constant"] == 0
    assert {nonempty[f] for f in ("zero", "frobenius", "dense")} == {2 * len(domains)}


def test_tree_work_follows_the_roots_not_the_domain():
    # 7^8 = 5.76 M residues: a scan of all of them takes ~0.2 s per call
    rng = random.Random(7)
    with time_limit(3):
        for _ in range(20):
            coeffs = [Fraction(rng.randrange(7**8)) for _ in range(rng.randint(2, 4))]
            f = PadicPoly(7, coeffs + [Fraction(1)])
            roots = enumerate_roots(f, 8).roots
            assert all(f.eval_exact(r) % 7**8 == 0 for r in roots)


def test_wide_frontiers_keep_exactly_the_roots_in_order():
    assert enumerate_roots(PadicPoly(3, ()), 9).roots == tuple(range(3**9))
    # (x - a)^2 = 0 mod 2^22 exactly when nu(x - a) >= 11
    a = 1234567
    f = PadicPoly(2, (Fraction(a * a), Fraction(-2 * a), Fraction(1)))
    assert enumerate_roots(f, 22).roots == tuple(range(a % 2**11, 2**22, 2**11))


class _CountingNumpy:
    """numpy, counting the attributes the tree reads off it."""

    def __init__(self, np):
        self.np, self.reads = np, collections.Counter()

    def __getattr__(self, name):
        self.reads[name] += 1
        return getattr(self.np, name)


def test_a_root_free_tree_stops_at_its_first_empty_level(monkeypatch):
    # x^2 + x + 1 is 1 at both residues mod 2; the tree once ran all k
    # levels, and raised OverflowError once 2**j no longer fit in int64
    counting = _CountingNumpy(padic.oracle.np)
    monkeypatch.setattr(padic.oracle, "np", counting)
    with time_limit(5):
        level = padic.oracle._root_tree(PadicPoly(2, (1, 1, 1)), 200)
    assert level.tolist() == []
    assert counting.reads["add"] == 1  # one level's children, np.add.outer


def test_each_coefficient_is_reduced_once(monkeypatch):
    calls = []

    def counting(q, modulus):
        calls.append(modulus)
        return residue(q, modulus)

    residue = padic.oracle._residue
    monkeypatch.setattr(padic.oracle, "_residue", counting)
    f = PadicPoly(5, (Fraction(-6, 7), 0, 1))
    assert enumerate_roots(f, 6).roots == _scan(f.coeffs, 5, 6)
    assert calls == [5**6] * 3  # the parent reduced each at all 6 levels


@pytest.mark.parametrize("p", [2, 3, 7])
def test_a_constant_p_squared_has_every_residue_as_a_root_below_p_cubed(p):
    f = PadicPoly(p, (p * p,))
    for k in (1, 2):
        assert enumerate_roots(f, k).roots == tuple(range(p**k))
    assert enumerate_roots(f, 3).roots == ()
