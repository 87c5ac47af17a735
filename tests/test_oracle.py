import ast
import inspect

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
