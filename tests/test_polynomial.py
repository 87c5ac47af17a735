import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_value, time_limit
from padic import (
    Form,
    NotAnInteger,
    PadicNumber,
    PadicPoly,
    divided_difference,
    parse_poly,
    taylor_remainder,
)
from padic.number import _horner
from padic.polynomial import MAX_DEGREE, _working_precision

F = Fraction


def test_construction_trims_and_validates():
    f = PadicPoly(5, (1, 0, 2, 0, 0))
    assert f.coeffs == (F(1), F(0), F(2))
    assert f.degree == 2
    assert PadicPoly(5, ()).is_zero
    with pytest.raises(NotAnInteger):
        PadicPoly(5, (F(1, 5),))


def test_trimming_is_linear_in_the_trailing_zeros():
    with time_limit(5):
        assert PadicPoly(5, (1,) + (0,) * 200_000).degree == 0


def test_parse():
    assert parse_poly("x^2 - 6", 5).coeffs == (F(-6), F(0), F(1))
    assert parse_poly("3*x^3 + 1/2*x - 7", 5).coeffs == (F(-7), F(1, 2), F(0), F(3))
    assert parse_poly("x", 5).coeffs == (F(0), F(1))
    assert parse_poly("-x + 4", 5).coeffs == (F(4), F(-1))
    assert parse_poly("2x^2", 5).coeffs == (F(0), F(0), F(2))
    assert parse_poly("X^2 - X", 5).coeffs == (F(0), F(-1), F(1))
    assert parse_poly("x - x", 5).is_zero


@pytest.mark.parametrize("bad", ["", "x^", "y + 1", "1//2", "++1", "3/", "x**2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_poly(bad, 5)


def test_parse_refuses_a_degree_past_the_limit():
    # x^N builds N + 1 dense coefficients, so N is bounded
    assert MAX_DEGREE == 10_000
    with pytest.raises(ValueError, match="exceeds"):
        parse_poly("x^10001", 5)


def test_str_round_trips_through_parser():
    for text in ("x^2 - 6", "3*x^3 + 1/2*x - 7", "-x + 4", "x - x"):
        f = parse_poly(text, 7)
        if f.is_zero:
            assert str(f) == "0"
        else:
            assert parse_poly(str(f), 7) == f


def test_eval_examples():
    f = parse_poly("x^2 - 6", 5)
    value = f.eval(PadicNumber.from_rational(5, 1, 8))
    assert (value.v, value.unit, value.prec) == (1, 5**7 - 1, 7)

    const = PadicPoly(5, (7,))
    x = PadicNumber.from_rational(5, F(2, 3), 6)
    assert const.eval(x).reduce_mod(6) == 7

    value = f.eval(PadicNumber.from_rational(5, 16, 8))
    assert value.v == 3
    assert value.reduce_mod(5) == 250 % 5**5


def test_eval_requires_integer_point():
    f = parse_poly("x^2 - 6", 5)
    with pytest.raises(NotAnInteger):
        f.eval(PadicNumber.from_rational(5, F(1, 5), 6))
    with pytest.raises(ValueError):
        f.eval(PadicNumber.from_rational(7, 1, 6))


def test_eval_exact():
    f = parse_poly("x^2 - 6", 5)
    assert f.eval_exact(1) == -5
    assert f.eval_exact(F(1, 3)) == F(-53, 9)
    assert PadicPoly(5, ()).eval_exact(3) == 0


def test_derivative_examples():
    assert parse_poly("x^2 - 6", 5).derivative() == parse_poly("2*x", 5)
    assert PadicPoly(5, (7,)).derivative().is_zero
    assert parse_poly("x^3 - 2*x + 1", 5).derivative() == parse_poly("3*x^2 - 2", 5)


def _random_poly(rng, p, max_deg=4, span=20):
    deg = rng.randint(0, max_deg)
    coeffs = []
    for _ in range(deg + 1):
        den = rng.randint(1, span)
        while den % p == 0:
            den = rng.randint(1, span)
        coeffs.append(F(rng.randint(-span, span), den))
    return PadicPoly(p, tuple(coeffs))


def test_derivative_linear_and_product_rule():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice((3, 5, 7))
        f, g = _random_poly(rng, p), _random_poly(rng, p)
        assert (f + g).derivative() == f.derivative() + g.derivative()
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_taylor_remainder_square():
    f = parse_poly("x^2", 5)
    x = PadicNumber.from_rational(5, 7, 8)
    y = PadicNumber.from_rational(5, F(2, 3), 8)
    k = taylor_remainder(f, x, y)
    assert (k.v, k.unit) == (0, 1)


def test_taylor_remainder_linear_is_zero():
    f = parse_poly("3*x - 2", 5)
    x = PadicNumber.from_rational(5, 4, 8)
    y = PadicNumber.from_rational(5, 9, 8)
    assert taylor_remainder(f, x, y).form is Form.EXACT_ZERO


def test_taylor_remainder_cube_closed_form():
    # (x+y)^3 = x^3 + 3x^2 y + (3x + y) y^2
    rng = random.Random(3)
    f = parse_poly("x^3", 5)
    for _ in range(20):
        x = PadicNumber.from_rational(5, rng.randint(-50, 50), 10)
        y = PadicNumber.from_rational(5, rng.randint(-50, 50), 10)
        if x.form is not Form.UNIT or y.form is not Form.UNIT:
            continue
        assert_same_value(taylor_remainder(f, x, y), 3 * x + y)


def test_divided_difference_square():
    f = parse_poly("x^2", 7)
    x = PadicNumber.from_rational(7, 5, 8)
    y = PadicNumber.from_rational(7, F(1, 2), 8)
    assert_same_value(divided_difference(f, x, y), x + y)
    assert_same_value(divided_difference(f, x, x), 2 * x)


def _identities_hold(f, x, y):
    lhs = f.eval(x + y)
    rhs = f.eval(x) + f.derivative().eval(x) * y + taylor_remainder(f, x, y) * y**2
    assert_same_value(lhs, rhs)
    lhs2 = f.eval(x) - f.eval(y)
    rhs2 = divided_difference(f, x, y) * (x - y)
    assert_same_value(lhs2, rhs2)


def test_identities_random_sweep():
    rng = random.Random(11)
    for _ in range(150):
        p = rng.choice((3, 5, 7))
        f = _random_poly(rng, p, max_deg=6)
        x = PadicNumber.from_rational(p, F(rng.randint(-40, 40)), 12)
        y = PadicNumber.from_rational(p, F(rng.randint(-40, 40)), 12)
        _identities_hold(f, x, y)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.lists(st.integers(-30, 30), min_size=1, max_size=6),
    st.integers(-30, 30),
    st.integers(-30, 30),
)
def test_identities_property(p, coeffs, xv, yv):
    f = PadicPoly(p, tuple(F(c) for c in coeffs))
    x = PadicNumber.from_rational(p, xv, 10)
    y = PadicNumber.from_rational(p, yv, 10)
    _identities_hold(f, x, y)


def test_eval_is_ring_hom_in_f():
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice((3, 5, 7))
        f, g = _random_poly(rng, p), _random_poly(rng, p)
        x = PadicNumber.from_rational(p, rng.randint(-30, 30), 12)
        assert_same_value((f + g).eval(x), f.eval(x) + g.eval(x))
        assert_same_value((f * g).eval(x), f.eval(x) * g.eval(x))


def _eval_by_operators(f: PadicPoly, x: PadicNumber) -> PadicNumber:
    """Horner's rule over from_rational coefficients with the value operators."""
    wp = _working_precision(x)
    coeffs = [PadicNumber.from_rational(f.p, c, wp) for c in f.coeffs]
    return _horner(coeffs, x, PadicNumber.exact_zero(f.p))


@st.composite
def _poly_and_point(draw):
    p = draw(st.sampled_from((2, 3, 5, 101)))
    coeff = st.one_of(
        st.just(F(0)),
        st.builds(F, st.integers(-10**6, 10**6),
                  st.integers(1, 10**4).filter(lambda d: d % p)),
        st.builds(lambda c, v: F(c) * p**v, st.integers(-50, 50), st.integers(1, 6)),
    )
    coeffs = draw(st.lists(coeff, max_size=22))
    n = draw(st.sampled_from((1, 1, 2, 8, 33, 256)))
    unit = draw(st.integers(1, p**n - 1).filter(lambda u: u % p))
    x = draw(st.one_of(
        st.just(PadicNumber.exact_zero(p)),
        st.builds(lambda a: PadicNumber.zero_at_least(p, a), st.integers(0, 40)),
        st.builds(lambda v: PadicNumber(p, Form.UNIT, v, unit, n), st.integers(0, 5)),
    ))
    return PadicPoly(p, tuple(coeffs)), x


@settings(max_examples=300, deadline=None)
@given(_poly_and_point())
def test_eval_matches_horner_with_the_operators(case):
    f, x = case
    assert f.eval(x).to_record() == _eval_by_operators(f, x).to_record()


def test_the_cleared_coefficients_stay_outside_the_fields():
    f = PadicPoly(5, (Fraction(-6, 7), 0, Fraction(1, 7)))
    before = (repr(f), hash(f), pickle.dumps(f))
    assert f._cleared == ((-6, 0, 1), (0, 2))
    assert "_cleared" in vars(f)
    assert (repr(f), hash(f), pickle.dumps(f)) == before
    fresh = PadicPoly(5, (Fraction(-6, 7), 0, Fraction(1, 7)))
    assert f == fresh and hash(f) == hash(fresh)
    for copy in (dataclasses.replace(f), pickle.loads(pickle.dumps(f))):
        assert copy == f and "_cleared" not in vars(copy)
        assert copy._cleared == f._cleared
    assert [field.name for field in dataclasses.fields(f)] == ["p", "coeffs"]
