import ast
import collections
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padic.oracle
from conftest import double_root_times_cofactor, time_limit
from padic import (
    DomainTooLarge,
    PadicPoly,
    crosscheck_arith,
    enumerate_roots,
    lift,
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
    # p^k is not bounded, only the roots and k log2(p): x mod 2^30 once
    # raised though it has one root
    with time_limit(1):
        assert enumerate_roots(parse_poly("x", 2), 30).roots == (0,)
    with time_limit(1), pytest.raises(DomainTooLarge, match="more than 10000000 roots"):
        enumerate_roots(PadicPoly(2, ()), 30)
    k = padic.oracle.WORK_BITS + 1
    with time_limit(1), pytest.raises(DomainTooLarge, match="work bound"):
        enumerate_roots(parse_poly("x", 2), k)


def test_a_high_degree_is_refused_before_the_tree_runs():
    # a double root under a degree-998 cofactor walks one node per level
    # through all 1001 coefficients: at 2^800 the tree ran 1.8 s before
    # refusing the 2^400 roots it found
    f = PadicPoly(2, tuple(Fraction(c) for c in double_root_times_cofactor(998, 20, 7)))
    with time_limit(0.5), pytest.raises(DomainTooLarge, match="degree 1000 at 2\\^800"):
        enumerate_roots(f, 800)
    assert (799 * 800 * (16 * 1000 + 800) > padic.oracle.WORK_LIMIT
            > 1999 * 2000 * (16 * 2 + 2000))  # (x - a)^2 mod 2^2000 still runs
    with time_limit(2):
        assert enumerate_roots(f, 12).roots


def _product(factors):
    f = [Fraction(1)]
    for factor in factors:
        f = _poly_mul(f, [Fraction(c) for c in factor])
    return f


def _assert_refused_at_the_work_bound(f, k, units, seconds=0.5):
    # the tree charges as many units as the budget left by the split pays
    # for; the charge that passes it is refused before its work is done
    p, d, lg = f.p, f.degree, math.log2(f.p)
    unit = k * lg * (16 * d + k)
    budget = padic.oracle.WORK_LIMIT - padic.oracle.SPLIT_SCALE * d * min(p, d * lg) * lg
    assert (k - 1) * unit < budget  # the check before the tree admits f
    with time_limit(seconds), pytest.raises(DomainTooLarge, match=f"{p}\\^{k} ran past the work bound"):
        enumerate_roots(f, k)
    assert budget // unit <= sum(units) <= budget // unit + max(units)


def test_several_double_roots_are_refused_while_the_tree_runs(monkeypatch):
    # each double root costs one node per level and passes the check before
    # the tree alone; seven of them mod 2^2000 ran 12 s before the tree
    # charged its nodes, and then exited 7 only for the 2^1000 roots of each;
    # the charge refused them after 2.6 s while each node re-derived f's
    # Taylor terms from its k-digit residues
    rng = random.Random(14)
    a = [rng.getrandbits(2000) for _ in range(7)]
    f = PadicPoly(2, _product((x * x, -2 * x, 1) for x in a))
    units = []
    _count_nodes(monkeypatch, units)
    _assert_refused_at_the_work_bound(f, 2000, units)


def test_several_root_free_chains_are_refused_while_the_tree_runs(monkeypatch):
    # (x - a)^2 - 2^1801 has no root mod 2^2000, but its ball around a
    # reduces to a double root down to depth 900; three such factors
    # printed no roots after 3.3 s before the tree charged its nodes, and
    # were refused after 1.9 s while each node re-derived f's Taylor terms
    rng = random.Random(3)
    a = [rng.getrandbits(2000) for _ in range(3)]
    f = PadicPoly(2, _product((x * x - 2**1801, -2 * x, 1) for x in a))
    units = []
    _count_nodes(monkeypatch, units)
    _assert_refused_at_the_work_bound(f, 2000, units)


@pytest.mark.parametrize("f", ["x^1008 - 1", "x^1008 - 2x^504 + 1"])
def test_many_roots_of_the_root_node_are_refused_while_the_tree_runs(monkeypatch, f):
    # 1008 simple roots mod 1009, or 504 double ones: either passes the
    # check before the tree, and the root node once lifted every simple
    # root, or shifted g to 200 coefficients at every double root, for
    # minutes before it charged anything
    units = []
    _count_nodes(monkeypatch, units)
    _assert_refused_at_the_work_bound(parse_poly(f, 1009), 200, units, seconds=3)


def test_an_exponent_below_one_is_refused():
    # a float or a string once reached pow or PadicNumber and raised TypeError
    for k in (0, -1, 2.0, 2.5, "3", None):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            enumerate_roots(parse_poly("x", 5), k)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            crosscheck_arith(5, k, 3)


def test_the_root_split_mod_a_large_prime_is_bounded():
    # at k = 1 the degree bound once priced nothing: the split mod
    # 2^61 - 1 of degree 2000 ran about a minute before printing its roots
    p = 2**61 - 1
    for degree in (230, 1000, 2000):
        f = parse_poly(f"x^{degree} + x + 1", p)
        with time_limit(0.5), pytest.raises(
            DomainTooLarge, match=f"degree {degree} at {p}\\^1 is past the work bound"
        ):
            enumerate_roots(f, 1)
    with time_limit(2):
        enumerate_roots(parse_poly("x^20 + x + 1", p), 1)
        enumerate_roots(parse_poly("x^3 - x", p), 2)


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
            assert enumerate_roots(PadicPoly(p, coeffs), k).roots == want, (p, k, family)
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


def _count_nodes(monkeypatch, units=None):
    """The (r, j) of every ball the tree expands, in order; its charges go to ``units``."""
    nodes = []

    def counting(p, k, r, j, s, g, charge):
        def charging(n):
            if units is not None:
                units.append(n)
            charge(n)

        nodes.append((r, j))
        return node(p, k, r, j, s, g, charging)

    node = padic.oracle._node
    monkeypatch.setattr(padic.oracle, "_node", counting)
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
def _small_domain_polys(draw, primes=(2, 3, 5, 7), max_k=14, max_modulus=20_000):
    """(p, k, coefficients) with p**k <= max_modulus, rich in repeated roots.

    A product of small factors, some repeated, times a power of p and at
    times x^p - x, so the degree reaches p and every residue mod p can be
    a root; or a constant, the zero polynomial, or a dense f, each with
    unit denominators.
    """
    p = draw(st.sampled_from(primes))
    k = draw(st.integers(1, max(k for k in range(1, max_k + 1) if p**k <= max_modulus)))
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


def _terms(cs, p, k, r, j):
    """The coefficients of f(r + p^j t) mod p^k, low first, by the binomial theorem."""
    return [
        sum(math.comb(n, i) * c * r ** (n - i) for n, c in enumerate(cs) if n >= i)
        * p ** (i * j) % p**k
        for i in range(len(cs))
    ]


def _digit_tree(coeffs, p, k):
    """The balls of a tree that goes down one digit per node, by plain integers.

    At the ball r + p^j Z the terms of f(r + p^j t) are expanded by the
    binomial theorem; s is their least valuation, and the children are the
    digits at which the terms divided by p^s sum to 0 mod p.
    """
    m = p**k
    cs = [c.numerator * pow(c.denominator, -1, m) % m for c in coeffs]
    balls, stack = [], [(0, 0)]
    while stack:
        r, j = stack.pop()
        terms = _terms(cs, p, k, r, j)
        s = min((_nu(t, p) for t in terms if t), default=k)
        if s >= k:
            balls.append((r, j))
            continue
        g = [t // p**s % p for t in terms]
        stack += [(r + d * p**j, j + 1) for d in range(p) if _horner(g, d, p) == 0]
    return balls


@settings(max_examples=200, deadline=None)
@given(_small_domain_polys(primes=(2, 3, 5, 7, 11), max_k=40, max_modulus=math.inf))
def test_the_jumping_tree_finds_the_balls_of_a_digit_by_digit_tree(case):
    p, k, coeffs = case
    got = padic.oracle._root_tree(PadicPoly(p, coeffs), k)
    assert sorted(got) == sorted(_digit_tree(coeffs, p, k))


def test_a_simple_root_costs_log_k_nodes(monkeypatch):
    # the tree once went down each root of x^2 - 6 over 5 one digit per
    # node: 2001 nodes and ~0.8 s at k = 1000; then 23 nodes, its lines
    # jumping to depth min(k, 2j); now each simple root mod 5 is lifted
    # inside the root node
    nodes = _count_nodes(monkeypatch)
    with time_limit(0.15):
        balls = padic.oracle._root_tree(parse_poly("x^2 - 6", 5), 1000)
    assert nodes == [(0, 0)]
    m = 5**1000
    assert sorted(r % 5 for r, _ in balls) == [1, 4]
    assert all(j == 1000 and (r * r - 6) % m == 0 for r, j in balls)


def _deepest_k(p):
    """The largest k with k log2(p) within the oracle's WORK_BITS."""
    return int(padic.oracle.WORK_BITS / math.log2(p))


@st.composite
def _deep_double_roots(draw):
    """(p, k, a) with k up to the largest the oracle takes and a any residue mod p^k."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k = draw(st.integers(1, _deepest_k(p)))
    return p, k, draw(st.integers(0, p**k - 1))


@settings(max_examples=40, deadline=None)
@given(_deep_double_roots())
@example((2, 2000, 3**1261))
@example((7, 712, 5**861))
def test_a_double_root_times_a_unit_is_one_ball_at_any_depth(case):
    # x^p - x + 1 is 1 at every residue mod p, so the roots of f mod p^k are
    # the x with nu(x - a) >= ceil(k/2); at p = 2 and k = 2000 the tree
    # took 0.93 s while each node re-derived f's Taylor terms at k digits
    p, k, a = case
    f = _product([(a * a, -2 * a, 1), [1, -1] + [0] * (p - 2) + [1]])
    half = -(-k // 2)
    with time_limit(0.25):
        balls = padic.oracle._root_tree(PadicPoly(p, f), k)
    assert balls == [(a % p**half, half)]


@st.composite
def _deep_lifts(draw):
    """(f, a, k, e, m): f = sum b_i (x - a)^i with nu(b_0) = m, nu(b_1) = e, m > 2e."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k = draw(st.integers(200, _deepest_k(p)))
    e = draw(st.integers(0, 2))
    m = draw(st.integers(2 * e + 1, 2 * e + 20))
    a = draw(st.integers(0, p**3))
    unit = st.integers(1, 4 * p).filter(lambda d: d % p)
    b = [Fraction(draw(unit), draw(unit)) * p**m, Fraction(draw(unit), draw(unit)) * p**e]
    b += [Fraction(draw(st.integers(-p * p, p * p)), draw(unit))
          for _ in range(draw(st.integers(0, 3)))]
    f, power = [Fraction(0)], [Fraction(1)]
    for c in b:
        f = [x + c * y for x, y in itertools.zip_longest(f, power, fillvalue=Fraction(0))]
        power = _poly_mul(power, [Fraction(-a), Fraction(1)])
    return PadicPoly(p, f), a, k, e, m


@settings(max_examples=100, deadline=None)
@given(_deep_lifts())
def test_lift_agrees_with_the_tree_at_k_in_the_hundreds(case):
    # k reaches the largest the oracle takes, 2000 at p = 2
    # the roots mod p^k with nu(x - a) > e are z + p^(k - e) Z for lift's
    # root z: exactly one ball of the tree meets that disc, and it is that
    # ball, a single residue when e = 0
    f, a, k, e, m = case
    p = f.p
    cert = lift(f, a, k)
    assert cert.checks_passed
    near = [(r, j) for r, j in padic.oracle._root_tree(f, k)
            if (r - a) % p ** min(j, e + 1) == 0]
    assert near == [(cert.root % p ** (k - e), k - e)]
    assert cert.dist_exponent == m - e


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
    """The digits of a node's ball that may hold roots, by a plain scan of the ball.

    s is the least valuation of f mod p**k over r + p**j Z; None when it
    reaches k, and otherwise the digits t with p**(s + 1) dividing
    f(r + p**j t).  These are the roots of the node's reduction mod p
    whenever it has degree below p, so it vanishes at some digit.
    """
    m = p**k

    def value(x):
        return sum(c * x**i for i, c in enumerate(coeffs)) % m

    s = min(_nu(value(r + p**j * y), p) if value(r + p**j * y) else k
            for y in range(p ** (k - j)))
    if s >= k:
        return None
    return [t for t in range(p) if value(r + p**j * t) % p ** (s + 1) == 0]


def _roots_in_ball(coeffs, p, k, r, j, depth):
    """The roots mod p**k in r + p**j Z, by a plain scan, reduced mod p**depth."""
    m = p**k
    return sorted({x % p**depth for x in range(r, m, p**j)
                   if sum(c * x**i for i, c in enumerate(coeffs)) % m == 0})


@pytest.mark.parametrize("coeffs, p, k, r, j, want, scans", [
    # a nonzero constant: f(0 + 5t) = -6 + 25t^2 reduces to 4, no child
    ((-6, 0, 1), 5, 3, 0, 1, [], False),
    # c*t: x + 25 at the root ball reduces to t, whose one root lifts in place
    ((25, 1), 5, 3, 0, 0, [(100, 3)], False),
    # a line with both terms: f(1 + 5t) = -5 + 10t + 25t^2 reduces to 4 + 2t
    ((-6, 0, 1), 5, 3, 1, 1, [(16, 3)], False),
    # degree 2: x^2 - 6 at the root ball reduces to t^2 + 4, two simple roots
    ((-6, 0, 1), 5, 3, 0, 0, [(16, 3), (109, 3)], True),
    # the s >= k collapse: (x - 3)^2 vanishes mod 2^6 on 3 + 2^3 Z
    ((9, -6, 1), 2, 6, 3, 3, None, False),
    # a simple root below the root ball: f(16 + 25t) = 250 + 800t + 625t^2
    # is 25 (10 + 32t) mod 5^6, lifted mod 5^4 to depth 2 + 4
    ((-6, 0, 1), 5, 6, 16, 2, [(4891, 6)], False),
    # nu(f') = 1: f(23 + 32t) = 512 + 1472t + 1024t^2 is 64 (8 + 23t) mod
    # 2^12, lifted mod 2^6 to depth 5 + 6, which holds both roots mod 2^12
    ((-17, 0, 1), 2, 12, 23, 5, [(279, 11)], False),
    # a double root: f(1 + 2t) = 4 (t - 1)^2 reduces to t^2 + 1, and the
    # digit 1 is a child with g(1 + 2u) = 4u^2 mod 2^4
    ((9, -6, 1), 2, 6, 1, 1, [(3, 2)], True),
])
def test_each_shape_of_a_reduced_node_matches_a_plain_scan(
        monkeypatch, coeffs, p, k, r, j, want, scans):
    calls = []

    def recording(q, degree):
        calls.append(degree)
        return choose(q, degree)

    choose = padic.oracle._scans
    monkeypatch.setattr(padic.oracle, "_scans", recording)
    units = []
    balls, children = padic.oracle._node(p, k, r, j, 0, _terms(coeffs, p, k, r, j), units.append)
    assert bool(calls) == scans  # a line is solved without a scan or a gcd
    digits = _plain_split(coeffs, p, k, r, j)
    if want is None:
        assert digits is None and (balls, children, units) == ([(r, j)], [], [])
        return
    # a lift to depth j + m costs one unit per Newton step, ceil(log2 m),
    # and a child one per three coefficients of its g
    assert sum(units) == sum((depth - j - 1).bit_length() for _, depth in balls) + sum(
        -(-len(g) // 3) for *_, g in children)
    assert sorted(balls + [(x, depth) for x, depth, _, _ in children]) == want
    # every digit that may hold a root is a child or holds one ball ...
    assert sorted(x % p ** (j + 1) for x, _ in want) == [r + t * p**j for t in digits]
    for x, depth in balls:
        # ... which is every root in that digit's ball
        assert _roots_in_ball(coeffs, p, k, x % p ** (j + 1), j + 1, k) == list(
            range(x, p**k, p**depth))
    for x, depth, s, g in children:
        # a child carries g(u) = f(x + p^depth u) / p^s mod p^(k - s)
        assert depth == j + 1
        for u in range(p ** (k - s)):
            assert _horner(_terms(coeffs, p, k, x, depth), u, p**k) == (
                p**s * _horner(g, u, p ** (k - s)))
