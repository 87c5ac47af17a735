import ast
import collections
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padic.oracle
from conftest import time_limit
from padic import (
    DomainTooLarge,
    PadicPoly,
    crosscheck_arith,
    enumerate_roots,
    parse_poly,
)
from padic.polynomial import MAX_DEGREE


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


def _count_nodes(monkeypatch):
    """The (r, j) of every ball the tree expands, in order."""
    nodes = []

    def counting(coeffs, p, k, modulus, r, j):
        nodes.append((r, j))
        return split(coeffs, p, k, modulus, r, j)

    split = padic.oracle._split
    monkeypatch.setattr(padic.oracle, "_split", counting)
    return nodes


def test_a_root_free_tree_stops_at_its_first_empty_level(monkeypatch):
    # x^2 + x + 1 is 1 at both residues mod 2; the tree once ran all k
    # levels, and raised OverflowError once 2**j no longer fit in int64
    nodes = _count_nodes(monkeypatch)
    with time_limit(5):
        balls = padic.oracle._root_tree(PadicPoly(2, (1, 1, 1)), 200)
    assert balls == []
    assert nodes == [(0, 0)]  # the whole of Z_2, and no child


def test_a_double_root_collapses_into_one_ball(monkeypatch):
    # (x - a)^2 vanishes mod 2^22 on all of a + 2^11 Z: one ball, reached
    # digit by digit, where a tree of single residues held 2048 nodes
    a = 1234567
    nodes = _count_nodes(monkeypatch)
    f = PadicPoly(2, (Fraction(a * a), Fraction(-2 * a), Fraction(1)))
    assert enumerate_roots(f, 22).roots == tuple(range(a % 2**11, 2**22, 2**11))
    assert len(nodes) <= 22
    assert padic.oracle._root_tree(f, 22) == [(a % 2**11, 11)]


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


@st.composite
def _small_domain_polys(draw):
    """(p, k, coefficients) with p**k <= 20,000, rich in repeated roots.

    A product of small factors, some repeated, times a power of p and at
    times x^p - x, so the degree reaches p and every residue mod p can be
    a root; or a constant, the zero polynomial, or a dense f, each with
    unit denominators.
    """
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k = draw(st.integers(1, max(k for k in range(1, 15) if p**k <= 20_000)))
    m = p**k
    unit = st.integers(1, 4 * p).filter(lambda d: d % p)
    coeff = st.builds(Fraction, st.integers(-m, m), unit)
    shape = draw(st.sampled_from(("product", "product", "dense", "constant", "zero")))
    if shape == "zero":
        return p, k, []
    if shape == "constant":
        return p, k, [draw(coeff) * p ** draw(st.integers(0, k + 1))]
    if shape == "dense":
        return p, k, draw(st.lists(coeff, min_size=2, max_size=8))
    f = [Fraction(p ** draw(st.integers(0, k)))]
    if draw(st.booleans()):
        f = _poly_mul(f, [Fraction(0), Fraction(-1)] + [Fraction(0)] * (p - 2) + [Fraction(1)])
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.lists(coeff, min_size=2, max_size=3))
        for _ in range(draw(st.integers(1, 3))):
            f = _poly_mul(f, factor)
    return p, k, f


@settings(max_examples=150, deadline=None)
@given(_small_domain_polys())
def test_tree_agrees_with_a_scan_on_repeated_roots(case):
    p, k, coeffs = case
    assert enumerate_roots(PadicPoly(p, coeffs), k).roots == _scan(coeffs, p, k)


def _horner(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


@pytest.mark.parametrize("p", [257, 1009, 10007])
def test_a_large_prime_splits_its_roots_off_by_gcds(p):
    # a node's roots mod a large p come from gcd(g, t^p - t), not a scan
    rng = random.Random(p)
    for _ in range(6):
        f = [Fraction(rng.randrange(p), rng.randrange(1, p))]
        for _ in range(rng.randint(1, 4)):
            factor = [Fraction(rng.randrange(p)), Fraction(1)]
            f = _poly_mul(f, factor)
            if rng.random() < 0.3:
                f = _poly_mul(f, factor)
        f = _poly_mul(f, [Fraction(rng.randrange(p)) for _ in range(3)] + [Fraction(1)])
        assert enumerate_roots(PadicPoly(p, f), 1).roots == _scan(f, p, 1)


def test_a_prime_near_the_domain_limit_costs_no_scan():
    # roots mod 9999991 exactly at a, b: n is not a square (Euler's criterion)
    p, a, b, n = 9_999_991, 123_456, 7_654_321, 3
    assert pow(n, (p - 1) // 2, p) == p - 1
    f = [Fraction(1)]
    for factor in ([-a, 1], [-b, 1], [-b, 1], [-n, 0, 1]):
        f = _poly_mul(f, [Fraction(c) for c in factor])
    with time_limit(2):
        assert enumerate_roots(PadicPoly(p, f), 1).roots == (a, b)


def test_a_large_prime_and_a_high_degree_stay_within_the_gcd_bound():
    # degree 301 at p = 9999991 goes to the gcd, about deg^2 log2(p) steps;
    # a scan would try 10^7 residues.  The shifted x^2 - n have no roots
    # mod p, so the roots are exactly a and b.
    p, a, b = 9_999_991, 123_456, 7_654_321
    rng = random.Random(p)
    f = [Fraction(c) for c in (-a, 1)]
    f = _poly_mul(_poly_mul(f, [Fraction(-b), Fraction(1)]), [Fraction(-b), Fraction(1)])
    while len(f) < 302:
        c, n = rng.randrange(p), rng.randrange(2, p)
        if pow(n, (p - 1) // 2, p) == p - 1:
            f = _poly_mul(f, [Fraction(c * c - n), Fraction(-2 * c), Fraction(1)])
    assert not padic.oracle._scans(p, len(f) - 1)
    with time_limit(5):
        assert enumerate_roots(PadicPoly(p, f), 1).roots == (a, b)


@pytest.mark.parametrize("p", [191, 257, 1009])
def test_the_scan_and_the_gcd_find_the_same_roots_mod_p(p):
    # the two ways _roots_mod_p can go, on both sides of where it switches
    rng = random.Random(p)
    for degree in (2, 3, 10, 40, 100):
        for _ in range(3):
            g = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            scanned = padic.oracle._scan_roots_mod_p(g, p)
            assert sorted(padic.oracle._gcd_roots_mod_p(g, p)) == scanned
            assert sorted(padic.oracle._roots_mod_p(g, p)) == scanned


def test_a_polynomial_of_the_largest_degree_finishes_in_bounded_time():
    # Taylor terms with i*j >= k vanish mod p^k, so a node of depth j
    # needs at most k/j synthetic divisions of the degree-10,000 f
    rng = random.Random(10_000)
    h = [Fraction(rng.randrange(2**20)) for _ in range(MAX_DEGREE - 1)] + [Fraction(1)]
    for f in (
        _poly_mul([Fraction(-12345), Fraction(1)], h),
        [Fraction(0), Fraction(0), Fraction(-1)] + [Fraction(0)] * (MAX_DEGREE - 3) + [Fraction(1)],
    ):
        assert len(f) == MAX_DEGREE + 1
        with time_limit(5):
            roots = enumerate_roots(PadicPoly(2, f), 20).roots
        assert roots
        cs = [int(c) for c in f]
        assert all(_horner(cs, r, 2**20) == 0 for r in roots)


def _plain_split(coeffs, p, k, r, j):
    """What one node of the tree must return, by a plain scan of its ball.

    s is the least valuation of f mod p**k over r + p**j Z; None when it
    reaches k, and otherwise the digits t with p**(s + 1) dividing
    f(r + p**j t).  This is ``_split``'s answer whenever its reduced
    polynomial has degree below p, so it vanishes at some digit.
    """
    m = p**k

    def value(x):
        return sum(c * x**i for i, c in enumerate(coeffs)) % m

    s = min(_nu(value(r + p**j * y), p) if value(r + p**j * y) else k
            for y in range(p ** (k - j)))
    if s >= k:
        return None
    return [t for t in range(p) if value(r + p**j * t) % p ** (s + 1) == 0]


@pytest.mark.parametrize("coeffs, p, k, r, j, want, through_roots_mod_p", [
    # a nonzero constant: f(0 + 5t) = -6 + 25t^2 reduces to 4, no child
    ((-6, 0, 1), 5, 3, 0, 1, [], False),
    # c*t: x + 25 at the root ball has T_0 = 25 above T_1 = 1, child 0
    ((25, 1), 5, 3, 0, 0, [0], False),
    # a line with both terms: f(1 + 5t) = -5 + 10t + 25t^2 reduces to 4 + 2t
    ((-6, 0, 1), 5, 3, 1, 1, [3], False),
    # degree 2: x^2 - 6 at the root ball reduces to t^2 + 4
    ((-6, 0, 1), 5, 3, 0, 0, [1, 4], True),
    # the s >= k collapse: (x - 3)^2 vanishes mod 2^6 on 3 + 2^3 Z
    ((9, -6, 1), 2, 6, 3, 3, None, False),
])
def test_each_shape_of_a_reduced_node_matches_a_plain_scan(
        monkeypatch, coeffs, p, k, r, j, want, through_roots_mod_p):
    calls = []

    def recording(g, q):
        calls.append(list(g))
        return roots_mod_p(g, q)

    roots_mod_p = padic.oracle._roots_mod_p
    monkeypatch.setattr(padic.oracle, "_roots_mod_p", recording)
    m = p**k
    residues = [c % m for c in reversed(coeffs)]  # leading one first, as the tree keeps them
    got = padic.oracle._split(residues, p, k, m, r, j)
    assert want == _plain_split(coeffs, p, k, r, j)
    assert (got if got is None else sorted(got)) == want
    assert bool(calls) == through_roots_mod_p
