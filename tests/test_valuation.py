import math
import operator
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nonzero_rationals, primes, rationals, time_limit
from padic import (
    ExtVal,
    IndeterminateValuation,
    NotPrime,
    PadicNumber,
    ext_val_rat,
    is_prime,
    padic_norm_rat,
    padic_val_int,
    padic_val_rat,
)
from padic.valuation import check_prime


def test_val_int_examples():
    assert padic_val_int(2, 8) == 3
    assert padic_val_int(5, 0) == 0
    assert padic_val_int(3, -18) == 2


def test_val_rat_examples():
    assert padic_val_rat(5, Fraction(1, 3)) == 0
    assert padic_val_rat(2, Fraction(3, 8)) == -3
    assert padic_val_rat(7, 0) == 0


def test_norm_examples():
    assert padic_norm_rat(5, 0) == 0
    assert padic_norm_rat(2, Fraction(3, 8)) == 8
    assert padic_norm_rat(5, 444444) == 1


def test_ext_val_examples():
    assert ext_val_rat(3, 0) == ExtVal.exact_zero()
    assert ext_val_rat(3, Fraction(9, 2)) == ExtVal.finite(2)
    assert ext_val_rat(3, 1) == ExtVal.finite(0)


def test_prime_validation():
    assert check_prime(13) == 13
    for bad in (4, 1, 0, -3, 561):  # 561 is a Carmichael number
        with pytest.raises(NotPrime):
            check_prime(bad)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(1000003)
    assert not is_prime(1) and not is_prime(1000001)  # 101 * 9901


def test_ext_val_ordering():
    assert ExtVal.finite(-2) < ExtVal.finite(5)
    assert ExtVal.finite(10**9) < ExtVal.exact_zero()
    assert ExtVal.exact_zero() <= ExtVal.exact_zero()
    assert not ExtVal.exact_zero() < ExtVal.finite(3)
    # decidable bound comparisons
    assert ExtVal.finite(1) < ExtVal.zero_at_least(5)
    assert ExtVal.zero_at_least(5) > ExtVal.finite(1)
    assert ExtVal.zero_at_least(5) <= ExtVal.exact_zero()
    # undecidable ones refuse to answer
    with pytest.raises(IndeterminateValuation):
        ExtVal.zero_at_least(5) < ExtVal.finite(7)
    with pytest.raises(IndeterminateValuation):
        ExtVal.zero_at_least(2) < ExtVal.zero_at_least(3)
    with pytest.raises(IndeterminateValuation):
        ExtVal.exact_zero() <= ExtVal.zero_at_least(4)


# each value with the valuations it may stand for; integers up to 5 stand
# in for "every integer >= A", which is enough against finite values <= 3
EXT_VAL_GRID = (
    [(ExtVal.exact_zero(), {math.inf})]
    + [(ExtVal.finite(v), {v}) for v in range(-2, 4)]
    + [(ExtVal.zero_at_least(a), set(range(a, 6)) | {math.inf}) for a in range(-2, 4)]
)


def test_ext_val_comparisons_answer_exactly_when_every_valuation_agrees():
    ops = (operator.lt, operator.le, operator.gt, operator.ge)
    for (a, xs), (b, ys), op in product(EXT_VAL_GRID, EXT_VAL_GRID, ops):
        answers = {op(x, y) for x in xs for y in ys}
        if len(answers) == 1:
            assert op(a, b) is answers.pop()
        else:
            with pytest.raises(IndeterminateValuation):
                op(a, b)


def test_ext_val_norm_fraction():
    assert ExtVal.finite(-3).norm_fraction(2) == 8
    assert ExtVal.exact_zero().norm_fraction(5) == 0
    with pytest.raises(IndeterminateValuation):
        ExtVal.zero_at_least(2).norm_fraction(5)


def test_norm_of_each_form_is_its_ext_val():
    assert PadicNumber.exact_zero(5).norm() == ExtVal.exact_zero()
    assert PadicNumber.zero_at_least(5, -3).norm() == ExtVal.zero_at_least(-3)
    assert PadicNumber.from_rational(5, Fraction(3, 25), 4).norm() == ExtVal.finite(-2)
    # the three forms stand for different intervals, so none equals another
    assert len({ExtVal.finite(4), ExtVal.zero_at_least(4), ExtVal.exact_zero()}) == 3


@given(primes, rationals())
def test_norm_rat_is_the_norm_of_its_ext_val(p, q):
    assert padic_norm_rat(p, q) == ext_val_rat(p, q).norm_fraction(p)


def test_norm_rat_at_zero():
    assert padic_norm_rat(5, 0) == ext_val_rat(5, 0).norm_fraction(5) == 0
    for bad in (4, 1, 561):
        with pytest.raises(NotPrime):
            padic_norm_rat(bad, 0)


@given(primes, st.integers(-10**6, 10**6).filter(bool),
       st.integers(-10**6, 10**6).filter(bool))
def test_multiplicativity(p, m, n):
    assert padic_val_int(p, m * n) == padic_val_int(p, m) + padic_val_int(p, n)


@given(primes, nonzero_rationals(), nonzero_rationals())
def test_min_law(p, q, r):
    if q + r == 0:
        return
    assert min(padic_val_rat(p, q), padic_val_rat(p, r)) <= padic_val_rat(p, q + r)


@given(primes, nonzero_rationals())
def test_norm_values_are_p_powers(p, q):
    norm = padic_norm_rat(p, q)
    if norm >= 1:
        assert norm.denominator == 1
        n = norm.numerator
    else:
        assert norm.numerator == 1
        n = norm.denominator
    while n % p == 0:
        n //= p
    assert n == 1


@settings(max_examples=200)
@given(primes, nonzero_rationals(), nonzero_rationals())
def test_norm_nonarchimedean_with_equality(p, q, r):
    nq, nr = padic_norm_rat(p, q), padic_norm_rat(p, r)
    ns = padic_norm_rat(p, q + r)
    assert ns <= max(nq, nr)
    if nq != nr:
        assert ns == max(nq, nr)


@given(primes, nonzero_rationals(), nonzero_rationals())
def test_norm_multiplicative(p, q, r):
    assert padic_norm_rat(p, q * r) == padic_norm_rat(p, q) * padic_norm_rat(p, r)


@given(primes, st.integers(-10**9, 10**9))
def test_val_rat_agrees_with_val_int(p, z):
    assert padic_val_rat(p, Fraction(z)) == (padic_val_int(p, z) if z else 0)


def _naive_val(p, z):
    v = 0
    while z % p == 0:
        z //= p
        v += 1
    return v


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 13, 101, 2**61 - 1)), st.integers(0, 3000),
       st.integers(0, 10**20), st.integers(0, 10**6), st.booleans())
def test_val_int_matches_a_naive_loop(p, v, a, r, negative):
    u = a * p + 1 + r % (p - 1)  # a unit
    z = (-1) ** negative * p**v * u
    assert padic_val_int(p, z) == _naive_val(p, z) == v
    assert padic_val_int(p, 0) == 0


def test_val_int_is_fast_at_a_huge_valuation():
    with time_limit(3):
        assert padic_val_int(5, 5**100_000 * 7) == 100_000
