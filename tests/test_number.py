from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_value, nonzero_rationals, primes, rationals, time_limit
from padic import (
    DEFAULT_PRECISION,
    DigitExpansion,
    DivisionByZero,
    ExtVal,
    Form,
    IndeterminateValuation,
    InsufficientPrecision,
    NotAnInteger,
    NotPrime,
    PadicNumber,
    PadicPoly,
    ZeroHasNoExpansion,
    ext_val_rat,
    is_prime,
    padic_norm_rat,
    padic_val_int,
    padic_val_rat,
    parse_poly,
    rational_residue,
)
from padic import number
from padic.valuation import check_prime

F = Fraction


def test_from_rational_minus_one():
    x = PadicNumber.from_rational(5, -1, 7)
    assert (x.v, x.unit, x.prec) == (0, 5**7 - 1, 7)
    assert x.digits().digits == (4,) * 7


def test_from_rational_zero():
    assert PadicNumber.from_rational(5, 0, 3).form is Form.EXACT_ZERO


def test_from_rational_one_third():
    x = PadicNumber.from_rational(5, F(1, 3), 6)
    assert (x.v, x.prec) == (0, 6)
    assert x.unit * 3 % 5**6 == 1
    assert x.digits().digits == (2, 3, 1, 3, 1, 3)
    assert str(x.digits()) == "...313132"


@given(primes, nonzero_rationals(), st.integers(1, 40))
def test_norm_extension(p, q, n):
    x = PadicNumber.from_rational(p, q, n)
    assert x.norm() == ExtVal.finite(padic_val_rat(p, q))
    assert x.norm().norm_fraction(p) == padic_norm_rat(p, q)


def test_add_full_cancellation():
    x = PadicNumber.from_rational(5, -1, 7)
    y = PadicNumber.from_rational(5, 1, 7)
    s = x + y
    assert s.form is Form.ZERO_AT_LEAST and s.v == 7
    assert s.reduce_mod(7) == 0


def test_add_third_panel():
    s = PadicNumber.from_rational(5, F(1, 3), 7) + PadicNumber.from_rational(5, -1, 7)
    assert s.digits().digits == (1, 3, 1, 3, 1, 3, 1)
    assert s.reduce_mod(7) == rational_residue(F(-2, 3), 5**7)


def test_add_exact_zero_identity():
    x = PadicNumber.from_rational(7, F(3, 2), 4)
    assert x + PadicNumber.exact_zero(7) == x
    assert PadicNumber.exact_zero(7) + x == x


def test_mul_one_third_times_three():
    x = PadicNumber.from_rational(5, F(1, 3), 6)
    y = PadicNumber.from_rational(5, 3, 6)
    assert x * y == PadicNumber(5, Form.UNIT, 0, 1, 6)


def test_inverse_of_p():
    x = PadicNumber.from_rational(7, 7, 4)
    assert x.inverse() == PadicNumber(7, Form.UNIT, -1, 1, 4)


@given(primes, nonzero_rationals(), st.integers(2, 24))
def test_self_division_is_one(p, q, n):
    x = PadicNumber.from_rational(p, q, n)
    assert x / x == PadicNumber(p, Form.UNIT, 0, 1, n)


def test_inverse_errors():
    with pytest.raises(DivisionByZero):
        PadicNumber.exact_zero(5).inverse()
    with pytest.raises(IndeterminateValuation):
        PadicNumber.zero_at_least(5, 3).inverse()


def test_prime_mixing_rejected():
    x = PadicNumber.from_rational(5, 1, 4)
    y = PadicNumber.from_rational(7, 1, 4)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y


def test_is_integer():
    assert PadicNumber.from_rational(5, F(1, 3), 4).is_integer()
    assert not PadicNumber.from_rational(2, F(3, 8), 4).is_integer()
    assert PadicNumber.exact_zero(3).is_integer()
    assert PadicNumber.zero_at_least(3, 2).is_integer()
    assert not PadicNumber.zero_at_least(3, -1).is_integer()


def test_digits_examples():
    x = PadicNumber.from_rational(5, -1, 6)
    assert (x.digits().start, x.digits().digits) == (0, (4,) * 6)
    y = PadicNumber.from_rational(3, 9, 3)
    assert (y.digits().start, y.digits().digits) == (2, (1, 0, 0))
    with pytest.raises(ZeroHasNoExpansion):
        PadicNumber.exact_zero(5).digits()
    with pytest.raises(ZeroHasNoExpansion):
        PadicNumber.zero_at_least(5, 4).digits()


@given(primes, nonzero_rationals(), st.integers(1, 30))
def test_digit_round_trip(p, q, n):
    x = PadicNumber.from_rational(p, q, n)
    expansion = x.digits()
    assert expansion.to_number() == x
    # re-embedding the truncated series value reproduces x to its precision
    y = PadicNumber.from_rational(p, expansion.value(), n)
    assert y.eq_to_precision(x, x.abs_prec)


def test_reduce_mod_examples():
    assert PadicNumber.from_rational(5, -1, 6).reduce_mod(2) == 24
    assert PadicNumber.exact_zero(5).reduce_mod(3) == 0
    assert PadicNumber.from_rational(5, F(1, 3), 6).reduce_mod(2) == 17


def test_reduce_mod_errors():
    with pytest.raises(InsufficientPrecision):
        PadicNumber.from_rational(5, 1, 3).reduce_mod(4)
    with pytest.raises(NotAnInteger):
        PadicNumber.from_rational(5, F(1, 5), 6).reduce_mod(2)
    with pytest.raises(InsufficientPrecision):
        PadicNumber.zero_at_least(5, 2).reduce_mod(3)


@given(primes, nonzero_rationals(), nonzero_rationals(),
       st.integers(2, 20))
def test_precision_contract(p, q, r, n):
    x = PadicNumber.from_rational(p, q, n)
    y = PadicNumber.from_rational(p, r, n + 3)
    prod = x * y
    assert prod.form is Form.UNIT and prod.prec == min(x.prec, y.prec)
    total = x + y
    assert total.abs_prec == min(x.abs_prec, y.abs_prec)


@settings(max_examples=200)
@given(primes, st.integers(-99, 99), st.integers(1, 99),
       st.integers(-99, 99), st.integers(1, 99), st.integers(1, 8))
def test_arithmetic_matches_rationals(p, qn, qd, rn, rd, k):
    """Ring ops on integral values agree with rational arithmetic mod p^k."""
    if qd % p == 0 or rd % p == 0:
        return
    q, r = F(qn, qd), F(rn, rd)
    x = PadicNumber.from_rational(p, q, k + 10)
    y = PadicNumber.from_rational(p, r, k + 10)
    pairs = [(x + y, q + r), (x - y, q - r), (x * y, q * r)]
    if r != 0 and padic_val_rat(p, q) >= padic_val_rat(p, r):
        pairs.append((x / y, q / r))
    for got, exact in pairs:
        assert got.reduce_mod(k) == rational_residue(exact, p**k)


@given(primes, nonzero_rationals(), nonzero_rationals(), st.integers(1, 16))
def test_valuation_nonarchimedean(p, q, r, n):
    x = PadicNumber.from_rational(p, q, n)
    y = PadicNumber.from_rational(p, r, n)
    s = x + y
    if s.form is Form.UNIT:
        assert s.v >= min(x.v, y.v)
        if x.v != y.v:
            assert s.v == min(x.v, y.v)
    assert (x * y).v == x.v + y.v or (x * y).form is not Form.UNIT


@given(primes, st.integers(-500, 500), st.integers(-500, 500),
       st.integers(1, 200), st.integers(1, 200))
def test_integer_closure(p, a, c, b, d):
    if b % p == 0 or d % p == 0:
        return
    x = PadicNumber.from_rational(p, F(a, b), 12)
    y = PadicNumber.from_rational(p, F(c, d), 12)
    assert x.is_integer() and y.is_integer()
    assert (x + y).is_integer()
    assert (x * y).is_integer()


def test_eq_to_precision():
    x = PadicNumber.from_rational(5, 1, 4)
    y = PadicNumber.from_rational(5, 1 + 5**3, 4)
    assert x.eq_to_precision(y, 3)
    assert not x.eq_to_precision(y, 4)
    with pytest.raises(InsufficientPrecision):
        x.eq_to_precision(y, 5)


def test_coercion_matches_explicit_embedding():
    x = PadicNumber.from_rational(5, F(2, 3), 6)
    assert_same_value(x + 1, x + PadicNumber.from_rational(5, 1, 6))
    assert_same_value(3 * x, PadicNumber.from_rational(5, 3, 6) * x)
    assert_same_value(x - F(1, 2), x - PadicNumber.from_rational(5, F(1, 2), 6))
    assert_same_value(1 / x, PadicNumber.from_rational(5, F(3, 2), 6))
    # an exact operand must not cost precision
    assert (x + 1).abs_prec == x.abs_prec
    assert (x * 3).prec == x.prec


def _tightest_embedding(x: PadicNumber, q) -> PadicNumber:
    """q at the fewest digits that keep x + q known to x's absolute precision."""
    if x.form is Form.EXACT_ZERO:
        return PadicNumber.from_rational(x.p, q, DEFAULT_PRECISION)
    return PadicNumber.from_rational(x.p, q, max(1, x.abs_prec - padic_val_rat(x.p, q)))


@st.composite
def padic_operands(draw, p):
    """A unit, an exact zero, or a zero known mod p**A, negative A included."""
    form = draw(st.sampled_from(Form))
    if form is Form.EXACT_ZERO:
        return PadicNumber.exact_zero(p)
    if form is Form.ZERO_AT_LEAST:
        return PadicNumber.zero_at_least(p, draw(st.integers(-12, 40)))
    q = draw(nonzero_rationals()) * F(p) ** draw(st.integers(-12, 40))
    return PadicNumber.from_rational(p, q, draw(st.integers(1, 40)))


@st.composite
def exact_summands(draw, p):
    """An int, a bool or a Fraction: zero, p in the denominator, large valuations."""
    kind = draw(st.sampled_from(("int", "bool", "fraction")))
    if kind == "bool":
        return draw(st.booleans())
    num, j = draw(st.integers(-999, 999)), draw(st.integers(-12, 80))
    if kind == "int":
        return num * p ** max(j, 0)
    return F(num, draw(st.integers(1, 999))) * F(p) ** j


@settings(max_examples=400)
@given(st.sampled_from((2, 3, 5, 7, 101)).flatmap(
    lambda p: st.tuples(padic_operands(p), exact_summands(p))))
def test_exact_summand_adds_like_its_tightest_embedding(case):
    # any embedding of q past x's absolute precision gives the same sum
    x, q = case
    y = _tightest_embedding(x, q)
    assert (x + q).to_record() == (x + y).to_record()
    assert (q + x).to_record() == (y + x).to_record()
    assert (x - q).to_record() == (x - y).to_record()
    assert (q - x).to_record() == (y - x).to_record()


def test_pow():
    x = PadicNumber.from_rational(5, F(2, 3), 6)
    assert_same_value(x**3, x * x * x)
    assert x**0 == PadicNumber(5, Form.UNIT, 0, 1, 6)
    assert_same_value(x**-2, (x * x).inverse())


def test_record_round_trip():
    for x in (
        PadicNumber.from_rational(5, F(-7, 3), 9),
        PadicNumber.exact_zero(5),
        PadicNumber.zero_at_least(5, 4),
    ):
        assert PadicNumber.from_record(x.to_record()) == x


def test_str_forms():
    assert str(PadicNumber.exact_zero(5)) == "0"
    assert str(PadicNumber.zero_at_least(5, 3)) == "O(5^3)"
    assert str(PadicNumber.from_rational(5, -1, 6)) == "...444444"
    assert str(PadicNumber.from_rational(3, 9, 3)) == "...001 × 3^2"


def test_unit_form_validation():
    for unit, prec in (
        (10, 2),  # 10 = 2*5 not a unit
        (26, 2),  # out of range mod 25
        (25, 2),
        (0, 2),
        (-3, 2),
        (3, 0),  # no precision
        (3, -1),
    ):
        with pytest.raises(ValueError):
            PadicNumber(5, Form.UNIT, 0, unit, prec)


def test_exact_zero_validation():
    for v in (-3, 2):
        with pytest.raises(ValueError):
            PadicNumber(5, Form.EXACT_ZERO, v)
        with pytest.raises(ValueError):
            PadicNumber.from_record({"p": 5, "form": "zero", "v": v, "unit": "0", "N": 0})
    for form in (Form.EXACT_ZERO, Form.ZERO_AT_LEAST):
        for unit, prec in ((1, 0), (0, 3)):  # zero forms carry no unit data
            with pytest.raises(ValueError):
                PadicNumber(5, form, 0, unit, prec)
    zero = {"p": 5, "form": "zero", "v": 0, "unit": "0", "N": 0}
    assert PadicNumber.from_record(zero) == PadicNumber.exact_zero(5)


def _assert_public(r):
    """r is a value the public constructor accepts and compares equal to."""
    assert type(r) is PadicNumber
    assert PadicNumber(r.p, r.form, r.v, r.unit, r.prec) == r


# values of every form: units of any valuation, both zeros
_values = st.one_of(
    st.tuples(nonzero_rationals(), st.integers(1, 12)).map(lambda t: ("unit", *t)),
    st.integers(-4, 8).map(lambda floor: ("zal", floor, 0)),
    st.just(("zero", 0, 0)),
)


def _value(p, spec):
    kind, q, n = spec
    if kind == "unit":
        return PadicNumber.from_rational(p, q, n)
    if kind == "zal":
        return PadicNumber.zero_at_least(p, q)
    return PadicNumber.exact_zero(p)


@settings(max_examples=300)
@given(primes, _values, _values, st.integers(-3, 4),
       st.one_of(st.integers(-99, 99), st.booleans(), nonzero_rationals()))
def test_every_operator_result_is_a_public_value(p, xs, ys, k, q):
    """Operator results are values PadicNumber(...) accepts unchanged."""
    x, y = _value(p, xs), _value(p, ys)
    results = [x + y, x - y, x * y, -x, x + q, q + x, x - q, q - x, x * q, q * x]
    for a, b in ((x, y), (y, x)):
        if b.form is Form.UNIT:
            results += [a / b, b.inverse(), q / b]
    if q:
        results.append(x / q)
    if k >= 0 or x.form is Form.UNIT:
        results.append(x**k)
    for r in results:
        _assert_public(r)


@given(primes, st.one_of(st.integers(-10**6, 10**6), st.booleans(), rationals(),
                         rationals().map(str)), st.integers(1, 40))
def test_from_rational_results_are_public_values(p, q, n):
    _assert_public(PadicNumber.from_rational(p, q, n))


@given(primes, st.lists(rationals(), max_size=6), rationals(), st.integers(1, 16))
def test_eval_results_are_public_values(p, coeffs, x, n):
    coeffs = [c for c in coeffs if c.denominator % p]
    if x.denominator % p == 0:
        x = Fraction(x.numerator)
    _assert_public(PadicPoly(p, tuple(coeffs)).eval(PadicNumber.from_rational(p, x, n)))


def test_from_rational_int_matches_fraction():
    for p in (2, 3, 5, 101):
        specials = [0, 1, -1, True, False, p, -p, p**3, -(p**7) * 11, 3 * p**20]
        for n in list(range(-60, 61)) + specials:
            for prec in (1, 2, 8, 33):
                got = PadicNumber.from_rational(p, n, prec)
                assert got == PadicNumber.from_rational(p, Fraction(n), prec)
                _assert_public(got)


def test_composite_p_is_refused_everywhere():
    for p in (1, 4, 9, 15, 561):
        with pytest.raises(NotPrime):
            PadicNumber.from_rational(p, 3, 4)
        with pytest.raises(NotPrime):
            PadicNumber.from_rational(p, Fraction(3, 7), 4)
        with pytest.raises(NotPrime):
            PadicNumber.from_rational(p, 0, 4)
        with pytest.raises(NotPrime):
            PadicNumber.exact_zero(p)
        with pytest.raises(NotPrime):
            PadicNumber.zero_at_least(p, 2)
        with pytest.raises(NotPrime):
            PadicNumber(p, Form.UNIT, 0, 1, 2)
        with pytest.raises(NotPrime):
            padic_val_int(p, 12)


def _z(floor):
    return PadicNumber.zero_at_least(5, floor)


def _u(q, n):
    return PadicNumber.from_rational(5, q, n)


def _unit(v, unit, n):
    return PadicNumber(5, Form.UNIT, v, unit, n)


_ZERO = PadicNumber.exact_zero(5)

# (case, computation, expected value or the exact exception it raises)
MIXED_FORM_CASES = [
    # an inexact zero's floor above the unit's valuation cuts the unit there
    ("zal+unit", lambda: _z(4) + _u(3, 6), _unit(0, 3, 4)),
    ("unit+zal", lambda: _u(3, 6) + _z(4), _unit(0, 3, 4)),
    ("zal-unit", lambda: _z(4) - _u(3, 6), _unit(0, 5**4 - 3, 4)),
    ("unit-zal", lambda: _u(3, 6) - _z(4), _unit(0, 3, 4)),
    ("zal+int", lambda: _z(4) + 3, _unit(0, 3, 4)),
    ("int-zal", lambda: 3 - _z(4), _unit(0, 3, 4)),
    # a floor at or below the unit's valuation swallows the unit
    ("zal+unit below", lambda: _z(2) + _u(125, 6), _z(2)),
    ("unit-zal equal", lambda: _u(125, 6) - _z(3), _z(3)),
    ("zal+zal", lambda: _z(3) + _z(5), _z(3)),
    ("zal-zal negative", lambda: _z(-1) - _z(2), _z(-1)),
    ("zal*unit", lambda: _z(3) * _u(10, 4), _z(4)),
    ("unit*zal negative v", lambda: _u(F(1, 25), 4) * _z(3), _z(1)),
    ("zero**0", lambda: _ZERO**0, _unit(0, 1, 32)),
    ("zero**3", lambda: _ZERO**3, _ZERO),
    ("zal**0", lambda: _z(2) ** 0, _unit(0, 1, 32)),
    ("zal**3", lambda: _z(2) ** 3, _z(6)),
    ("zal**3 negative", lambda: _z(-2) ** 3, _z(-6)),
    ("unit**0", lambda: _u(3, 6) ** 0, _unit(0, 1, 6)),
    ("zal reduce_mod at floor", lambda: _z(4).reduce_mod(4), 0),
    ("zal reduce_mod above floor", lambda: _z(4).reduce_mod(5),
     InsufficientPrecision("value known only modulo 5^4, need 5^5")),
    ("zal reduce_mod negative", lambda: _z(-2).reduce_mod(1),
     NotAnInteger("value has valuation -2 < 0")),
    ("zero abs_prec", lambda: (_ZERO.abs_prec, _ZERO.is_integer()),
     (float("inf"), True)),
    ("zal abs_prec", lambda: (_z(4).abs_prec, _z(4).is_integer()), (4, True)),
    ("zal abs_prec negative",
     lambda: (_z(-2).abs_prec, _z(-2).is_integer()), (-2, False)),
    ("unit abs_prec", lambda: (_u(3, 6).abs_prec, _u(3, 6).is_integer()),
     (6, True)),
    ("unit abs_prec negative",
     lambda: (_u(F(1, 25), 3).abs_prec, _u(F(1, 25), 3).is_integer()),
     (1, False)),
]


@pytest.mark.parametrize(
    "compute, expected",
    [case[1:] for case in MIXED_FORM_CASES],
    ids=[case[0] for case in MIXED_FORM_CASES],
)
def test_mixed_forms(compute, expected):
    """Arithmetic that mixes the zero forms with units, pinned exactly."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            compute()
        assert str(info.value) == str(expected)
    else:
        result = compute()
        assert result == expected and type(result) is type(expected)


# ----- one validated prime per value, cached powers ------------------------

CHECK_PRIME_CASES = [
    (5, 5),
    (5.0, 5),
    ("5", 5),
    (True, NotPrime("p must be prime, got 1")),
    (4, NotPrime("p must be prime, got 4")),
    (561, NotPrime("p must be prime, got 561")),
    (5.5, NotPrime("p must be prime, got 5.5")),
]


@pytest.mark.parametrize("arg, expected", CHECK_PRIME_CASES, ids=repr)
def test_check_prime_contract_holds_before_and_after_caching(arg, expected):
    for _ in range(3):  # the first call may fill is_prime's cache; later ones read it
        if isinstance(expected, Exception):
            with pytest.raises(type(expected), match=f"^{expected}$"):
                check_prime(arg)
        else:
            got = check_prime(arg)
            assert got == expected and type(got) is int


@pytest.mark.parametrize("p", [5.0, "5"], ids=repr)
def test_constructors_store_the_int_check_prime_returns(p):
    values = [
        PadicNumber(p, Form.UNIT, 0, 3, 4),
        PadicNumber.exact_zero(p),
        PadicNumber.zero_at_least(p, 2),
        PadicNumber.from_rational(p, 7, 4),
        PadicNumber.from_record({"p": p, "form": "unit", "v": 0, "unit": "1", "N": 2}),
        PadicPoly(p, (-6, 0, 1)),
        parse_poly("x^2 - 6", p),
        DigitExpansion(p, 0, (1, 2)),
    ]
    for x in values:
        assert type(x.p) is int and x.p == 5
    # a float p once reached the digit string and the prime-mixing check
    assert str(DigitExpansion(p, 0, (1, 2)).to_number()) == "...21"
    assert (PadicNumber(p, Form.UNIT, 0, 3, 4) + 1).to_record() == (
        PadicNumber.from_rational(5, 4, 4).to_record()
    )


@pytest.mark.parametrize("v, unit, prec", [(1.5, 3, 4), (0, 3.0, 4), (0, 3, 4.0)], ids=repr)
def test_a_non_int_field_is_refused(v, unit, prec):
    # each was once accepted: the valuation printed as "5^1.5", a float unit
    # reached records as "9.0", and a float precision failed only in digits()
    with pytest.raises(TypeError):
        PadicNumber(5, Form.UNIT, v, unit, prec)
    assert PadicNumber(5, Form.UNIT, int(v), int(unit), int(prec)).to_record()["unit"] == "3"


# every public entry that takes p, called with a prime and then a composite
_P_ENTRIES = [
    lambda p: PadicNumber.from_rational(p, 3, 4),
    lambda p: PadicNumber.from_rational(p, Fraction(3, 7), 4),
    lambda p: PadicNumber.from_rational(p, 0, 4),
    lambda p: PadicNumber.exact_zero(p),
    lambda p: PadicNumber.zero_at_least(p, 2),
    lambda p: PadicNumber(p, Form.UNIT, 0, 1, 2),
    lambda p: PadicNumber.from_record({"p": p, "form": "unit", "v": 0, "unit": "1", "N": 2}),
    lambda p: DigitExpansion(p, 0, (1,)),
    lambda p: padic_val_int(p, 12),
    lambda p: padic_val_rat(p, Fraction(12, 7)),
    lambda p: padic_norm_rat(p, 12),
    lambda p: ext_val_rat(p, 12),
    lambda p: PadicPoly(p, (1, 1)),
    lambda p: parse_poly("x + 1", p),
]


@pytest.mark.parametrize("entry", _P_ENTRIES)
def test_composite_p_is_refused_after_a_prime_is_cached(entry):
    for prime in (2, 3, 5, 7, 101):
        entry(prime)
    # a bound on time, as an accepted p = 1 would never finish a valuation
    with time_limit(10):
        # 5.5 and 11/2 are no primes, though int() would truncate them to 5
        for composite in (1, 4, 9, 15, 561, 2 * 101, 4.0, "9", True,
                          5.5, Fraction(11, 2)):
            for _ in range(2):
                with pytest.raises(NotPrime):
                    entry(composite)


def test_prime_and_power_caches_are_bounded():
    # a stream of distinct primes or precisions evicts rather than grows
    assert is_prime.cache_info().maxsize is not None
    assert number._power.cache_info().maxsize is not None
    assert PadicNumber.from_rational(2, -1, 50_000).unit == 2**50_000 - 1
