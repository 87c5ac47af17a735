"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is exact (bit-exact values or zero-failure counts).
"""

import dataclasses
import random
from fractions import Fraction
from functools import lru_cache

from padic import (
    DerivativeVanishes,
    Form,
    HypothesisFailed,
    PadicNumber,
    PadicPoly,
    divided_difference,
    enumerate_roots,
    lift,
    padic_norm_rat,
    padic_val_int,
    padic_val_rat,
    parse_poly,
    taylor_remainder,
    unique_in_neighborhood,
    verify_certificate,
)

F = Fraction
PRIMES = (2, 3, 5, 7, 13)


def _report(num: int, description: str, ok: bool):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num}: {description}"


def _random_rational(rng, p) -> F:
    num = rng.randint(1, 999) * rng.choice((1, -1))
    den = rng.randint(1, 999)
    return F(num, den) * F(p) ** rng.randint(-4, 4)


def test_criterion_01_digit_stream_reproduction():
    ok = True
    for n in (6, 7, 12):
        ok &= PadicNumber.from_rational(5, -1, n).digits().digits == (4,) * n
    third = PadicNumber.from_rational(5, F(1, 3), 6)
    ok &= str(third.digits()).endswith("313132")
    one = third * PadicNumber.from_rational(5, 3, 6)
    ok &= (one.form, one.v, one.unit, one.prec) == (Form.UNIT, 0, 1, 6)
    total = third + PadicNumber.from_rational(5, -1, 6)
    ok &= total.digits().digits == (1, 3, 1, 3, 1, 3)
    ok &= str(total.digits()) == "...313131"
    _report(1, "base-5 digit streams: -1, 1/3*3, 1/3 + (-1)", ok)


def test_criterion_02_valuation_lemmas():
    rng = random.Random(1201)
    failures = 0
    for i in range(10_000):
        p = PRIMES[i % len(PRIMES)]
        m = rng.randint(1, 10**6) * p ** rng.randint(0, 4) * rng.choice((1, -1))
        n = rng.randint(1, 10**6) * p ** rng.randint(0, 4) * rng.choice((1, -1))
        if padic_val_int(p, m * n) != padic_val_int(p, m) + padic_val_int(p, n):
            failures += 1
    for i in range(10_000):
        p = PRIMES[i % len(PRIMES)]
        q = _random_rational(rng, p)
        r = _random_rational(rng, p)
        if q + r == 0:
            continue
        if min(padic_val_rat(p, q), padic_val_rat(p, r)) > padic_val_rat(p, q + r):
            failures += 1
    _report(2, "10^4 multiplicativity + 10^4 min-law checks, 0 failures",
            failures == 0)


def test_criterion_03_nonarchimedean_with_equality():
    rng = random.Random(1301)
    failures = 0
    equality_cases = 0
    for i in range(10_000):
        p = PRIMES[i % len(PRIMES)]
        q = _random_rational(rng, p)
        r = _random_rational(rng, p)
        nq, nr = padic_norm_rat(p, q), padic_norm_rat(p, r)
        ns = padic_norm_rat(p, q + r)
        if ns > max(nq, nr):
            failures += 1
        if nq != nr:
            equality_cases += 1
            if ns != max(nq, nr):
                failures += 1
    _report(3, f"10^4 ultrametric checks ({equality_cases} strict-equality cases), "
               "0 failures", failures == 0 and equality_cases > 5_000)


def test_criterion_04_integer_closure():
    rng = random.Random(1401)
    failures = 0
    for i in range(1_000):
        p = PRIMES[i % len(PRIMES)]
        def integral():
            den = rng.randint(1, 99)
            while den % p == 0:
                den = rng.randint(1, 99)
            return F(rng.randint(-999, 999), den) * F(p) ** rng.randint(0, 3)
        x = PadicNumber.from_rational(p, integral(), 12)
        y = PadicNumber.from_rational(p, integral(), 12)
        if not (x.is_integer() and y.is_integer()
                and (x + y).is_integer() and (x * y).is_integer()):
            failures += 1
    _report(4, "10^3 closure checks for sums and products in Z_p, 0 failures",
            failures == 0)


def test_criterion_05_hensel_end_to_end():
    f = parse_poly("x^2 - 6", 5)
    cert = lift(f, 1, 4)
    vals = [s.val_f for s in cert.trace]
    ok = cert.root == 516
    ok &= len(vals) >= 3 and all(v >= want for v, want in zip(vals, (1, 2, 4)))
    ok &= cert.dist_exponent == 1 == cert.hypothesis.m - cert.hypothesis.e
    ok &= cert.checks_passed
    ok &= enumerate_roots(f, 4).roots == (109, 516)
    _report(5, "lift(x^2-6, p=5, seed 1, K=4) -> 516, doubling trace, "
               "oracle {109, 516}", ok)


@lru_cache(maxsize=1)
def _sweep_results():
    """All (cert, oracle report) pairs for the exhaustive small sweep."""
    results = []
    for p in (3, 5, 7):
        for degree in (2, 3):
            counters = [0] * degree
            while True:
                coeffs = tuple(F(c) for c in counters) + (F(1),)
                f = PadicPoly(p, coeffs)
                seeds = [
                    a for a in range(p)
                    if f.eval_exact(a) % p == 0
                    and f.derivative().eval_exact(a) % p != 0
                ]
                if seeds:
                    report = enumerate_roots(f, 5)
                    for a in seeds:
                        results.append((lift(f, a, 5), report))
                for i in range(degree):
                    counters[i] += 1
                    if counters[i] < p:
                        break
                    counters[i] = 0
                else:
                    break
    return results


def test_criterion_06_oracle_equivalence_sweep():
    mismatches = 0
    checked = 0
    for cert, report in _sweep_results():
        p = cert.p
        a = int(cert.a)
        matching = [r for r in report.roots if r % p == a % p]
        checked += 1
        if len(matching) != 1 or matching[0] != cert.root:
            mismatches += 1
        if not cert.checks_passed:
            mismatches += 1
        f = cert.f
        if not all(unique_in_neighborhood(f, cert, r) for r in report.roots):
            mismatches += 1
    _report(6, f"exhaustive sweep p in {{3,5,7}}, deg 2-3, K=5 "
               f"({checked} lifts vs oracle), 0 mismatches",
            mismatches == 0 and checked > 100)


def test_criterion_07_certificates_and_tampering():
    rng = random.Random(1701)
    verified = 0
    attempts = 0
    while verified < 100 and attempts < 10_000:
        attempts += 1
        p = rng.choice((3, 5, 7, 13))
        coeffs = tuple(F(rng.randint(0, p * p)) for _ in range(rng.randint(2, 3))) + (F(1),)
        f = PadicPoly(p, coeffs)
        seeds = [
            a for a in range(p)
            if f.eval_exact(a) % p == 0 and f.derivative().eval_exact(a) % p != 0
        ]
        if not seeds:
            continue
        cert = lift(f, rng.choice(seeds), rng.randint(3, 6))
        if not verify_certificate(cert):
            break
        verified += 1
    ok = verified == 100

    cert = lift(parse_poly("x^2 - 6", 5), 1, 4)
    tampered_root = dataclasses.replace(cert, root=(cert.root + 5**3) % 5**4)
    step0 = cert.trace[0]
    tampered_trace = dataclasses.replace(
        cert,
        trace=(dataclasses.replace(step0, val_f=step0.val_f - 1),) + cert.trace[1:],
    )
    tampered_e = dataclasses.replace(
        cert, hypothesis=dataclasses.replace(cert.hypothesis, e=cert.hypothesis.e + 1)
    )
    ok &= not verify_certificate(tampered_root)
    ok &= not verify_certificate(tampered_trace)
    ok &= not verify_certificate(tampered_e)
    _report(7, "100 random certificates verify; 3 tamperings are rejected", ok)


def test_criterion_08_polynomial_identities():
    rng = random.Random(1801)
    failures = 0
    for _ in range(1_000):
        p = rng.choice((3, 5, 7))
        deg = rng.randint(0, 5)
        coeffs = []
        for _ in range(deg + 1):
            den = rng.randint(1, 30)
            while den % p == 0:
                den = rng.randint(1, 30)
            coeffs.append(F(rng.randint(-30, 30), den))
        f = PadicPoly(p, tuple(coeffs))
        x = PadicNumber.from_rational(p, rng.randint(-40, 40), 10)
        y = PadicNumber.from_rational(p, rng.randint(-40, 40), 10)

        lhs = f.eval(x + y)
        rhs = f.eval(x) + f.derivative().eval(x) * y + taylor_remainder(f, x, y) * y**2
        if lhs != rhs:
            failures += 1
        lhs = f.eval(x) - f.eval(y)
        rhs = divided_difference(f, x, y) * (x - y)
        if lhs != rhs:
            failures += 1
    _report(8, "10^3 remainder + 10^3 divided-difference identities, 0 failures",
            failures == 0)


def test_criterion_09_tower_compatibility():
    f = parse_poly("x^2 - 6", 5)
    ok = lift(f, 1, 8).root % 5**4 == lift(f, 1, 4).root
    _report(9, "lift to K=8 reduced mod 5^4 equals lift to K=4", ok)


def test_criterion_10_convergence_speed():
    limit = 5  # ceil(log2(5)) + 2 for K = 5
    lengths = [len(cert.trace) for cert, _ in _sweep_results() if not cert.hypothesis.degenerate]
    ok = bool(lengths) and all(length <= limit for length in lengths)
    _report(10, f"all {len(lengths)} sweep traces within ceil(log2 K) + 2 steps", ok)
