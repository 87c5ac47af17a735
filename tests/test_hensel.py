import collections
import dataclasses
import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import time_limit
from padic import (
    DerivativeVanishes,
    Hypothesis,
    HypothesisFailed,
    LiftStep,
    NotAnInteger,
    PadicError,
    PadicPoly,
    PrecisionExhausted,
    certificate_from_record,
    certificate_to_record,
    check_hypothesis,
    enumerate_roots,
    lift,
    padic_val_rat,
    parse_poly,
    rational_residue,
    unique_in_neighborhood,
    verify_certificate,
)
from padic import hensel, polynomial
from padic.hensel import _unit_inverse, _value_mod
from padic.number import _horner
from padic.polynomial import MAX_MODULUS_BITS

F = Fraction


def test_check_hypothesis_sqrt6():
    hyp = check_hypothesis(parse_poly("x^2 - 6", 5), 1)
    assert (hyp.e, hyp.m, hyp.t) == (0, 1, 1)
    assert not hyp.degenerate


def test_check_hypothesis_sqrt17_dyadic():
    hyp = check_hypothesis(parse_poly("x^2 - 17", 2), 1)
    assert (hyp.e, hyp.m, hyp.t) == (1, 4, 2)


def test_check_hypothesis_failures():
    with pytest.raises(DerivativeVanishes):
        check_hypothesis(parse_poly("x^2 - 5", 5), 0)
    with pytest.raises(HypothesisFailed) as info:
        check_hypothesis(parse_poly("x^2 - 3", 2), 1)
    assert (info.value.m, info.value.e) == (1, 1)
    with pytest.raises(NotAnInteger):
        check_hypothesis(parse_poly("x^2 - 6", 5), F(1, 5))
    with pytest.raises(ValueError):
        check_hypothesis(parse_poly("7", 5), 1)


def test_check_hypothesis_degenerate():
    hyp = check_hypothesis(parse_poly("x^2 - 1", 7), 1)
    assert hyp.degenerate and hyp.e == 0 and hyp.m is None


def test_newton_step_examples():
    # lift's step 1 is the Newton update 1 - f(1)/f'(1), read modulo the
    # step's p^w, w = min(2 nu(f(1)) - e, k + e), and reported mod p^k
    cert = lift(parse_poly("x^2 - 6", 5), 1, 4)  # w = 2
    assert rational_residue(1 - F(1 - 6, 2), 5**4) == 316
    assert [s.residue for s in cert.trace[:2]] == [1, 316 % 25] == [1, 16]

    cert = lift(parse_poly("x^2 - 17", 2), 1, 6)  # w = 7
    assert 1 - F(1 - 17, 2) == 9 and cert.trace[1].residue == 9
    assert 9 * 9 % 64 == 17

    # a seed that is already a root modulo p^(k + e) stays put
    cert = lift(parse_poly("x^2 - 6", 5), 516, 4)
    assert [(s.residue, s.val_f) for s in cert.trace] == [(516, 4)] and cert.root == 516


def test_newton_step_precision_exhausted():
    f = parse_poly("x^2 - 17", 2)
    with pytest.raises(PrecisionExhausted, match=r"no room below nu\(f'\(a\)\) = 1"):
        lift(f, 1, 1)


def test_newton_step_rejects_an_undefined_update():
    # nu(f(2)) = 0 does not exceed e = 0, so no update from 2 is defined
    f5 = parse_poly("x^2 - 6", 5)
    with pytest.raises(HypothesisFailed, match=r"nu\(f\(a\)\) = 0 must exceed"):
        lift(f5, 2, 4)
    # nu(f(1)) = 4 clears e = 0, but nu(f'(1)) = 1 is not the claimed e
    f2 = parse_poly("x^2 - 17", 2)
    result = verify_certificate(dataclasses.replace(lift(f2, 1, 6), hypothesis=Hypothesis(0, 4, 4)))
    assert not result and result.failures[0] == "hypothesis_e"


def test_lift_sqrt6():
    cert = lift(parse_poly("x^2 - 6", 5), 1, 4)
    assert cert.root == 516
    assert [s.val_f for s in cert.trace] == [1, 3, 4]
    assert [s.residue for s in cert.trace] == [1, 16, 516]
    assert cert.dist_exponent == cert.hypothesis.m - cert.hypothesis.e == 1
    assert cert.checks_passed
    assert verify_certificate(cert)


def test_lift_cube_root():
    f = parse_poly("x^3 - 2", 5)
    cert = lift(f, 3, 3)
    oracle_roots = enumerate_roots(f, 3).roots
    assert oracle_roots == (53,)
    assert cert.root == 53 and cert.root % 5 == 3
    assert cert.checks_passed


def test_lift_degenerate():
    cert = lift(parse_poly("x^2 - 1", 7), 1, 5)
    assert cert.hypothesis.degenerate and cert.root == 1 and cert.trace == ()
    assert cert.dist_exponent is None
    assert cert.checks_passed


def test_lift_degenerate_rational_seed():
    # 3x - 1 has the exact rational root 1/3
    cert = lift(parse_poly("3*x - 1", 5), F(1, 3), 3)
    assert cert.hypothesis.degenerate
    assert cert.root == rational_residue(F(1, 3), 125) == 42
    assert cert.checks_passed


def test_lift_with_positive_e():
    f = parse_poly("x^2 - 17", 2)
    cert = lift(f, 1, 5)
    assert cert.root == 9
    assert cert.hypothesis.e == 1
    assert cert.dist_exponent == 3  # m - e = 4 - 1
    assert cert.checks_passed


def test_lift_rejects_bad_k():
    f = parse_poly("x^2 - 6", 5)
    with pytest.raises(ValueError):
        lift(f, 1, 0)
    with pytest.raises(PrecisionExhausted):
        lift(parse_poly("x^2 - 17", 2), 1, 1)


def test_lift_propagates_hypothesis_errors():
    with pytest.raises(HypothesisFailed):
        lift(parse_poly("x^2 - 3", 2), 1, 5)


def test_verify_rejects_tampering():
    cert = lift(parse_poly("x^2 - 6", 5), 1, 4)

    perturbed = dataclasses.replace(cert, root=(cert.root + 5**3) % 5**4)
    result = verify_certificate(perturbed)
    assert not result and "root_residue" in result.failures

    step0 = cert.trace[0]
    lowered = dataclasses.replace(
        cert,
        trace=(dataclasses.replace(step0, val_f=step0.val_f - 1),) + cert.trace[1:],
    )
    result = verify_certificate(lowered)
    assert not result
    assert any(label.startswith("trace_ih") or label.startswith("trace_reval")
               for label in result.failures)

    mutated = dataclasses.replace(
        cert, hypothesis=dataclasses.replace(cert.hypothesis, e=cert.hypothesis.e + 1)
    )
    result = verify_certificate(mutated)
    assert not result and "hypothesis_e" in result.failures


def test_verify_rejects_m_tampering():
    cert = lift(parse_poly("x^2 - 6", 5), 1, 4)
    mutated = dataclasses.replace(
        cert, hypothesis=dataclasses.replace(cert.hypothesis, m=cert.hypothesis.m + 1)
    )
    assert "hypothesis_m" in verify_certificate(mutated).failures


def test_unique_in_neighborhood():
    f = parse_poly("x^2 - 6", 5)
    cert = lift(f, 1, 4)
    report = enumerate_roots(f, 4)
    assert report.roots == (109, 516)
    for r in report.roots:
        assert unique_in_neighborhood(f, cert, r)
    assert unique_in_neighborhood(f, cert, cert.root)
    with pytest.raises(ValueError):
        unique_in_neighborhood(f, cert, 7)  # not a root mod 625


def test_unique_in_neighborhood_reads_f_at_the_certificate_prime():
    cert = lift(parse_poly("x^2 - 6", 5), 1, 3)
    # the same roots over 2, with a denominator that is a unit mod 5
    assert unique_in_neighborhood(PadicPoly(2, (F(-6, 3), 0, F(1, 3))), cert, cert.root)
    # (x^2 - 6)/5 is no 5-adic integer polynomial, and clearing its
    # denominator would make cert.root pass as its root mod 5^3
    with pytest.raises(ValueError):
        unique_in_neighborhood(PadicPoly(2, (F(-6, 5), 0, F(1, 5))), cert, cert.root)


def test_certificate_record_round_trip():
    for cert in (
        lift(parse_poly("x^2 - 6", 5), 1, 4),
        lift(parse_poly("x^2 - 17", 2), 1, 5),
        lift(parse_poly("x^2 - 1", 7), 1, 5),
        lift(parse_poly("3*x - 1", 5), F(1, 3), 3),
    ):
        record = certificate_to_record(cert)
        assert certificate_from_record(record) == cert
        # survives an actual JSON round trip too
        assert certificate_from_record(json.loads(json.dumps(record))) == cert


def test_tower_compatibility():
    f = parse_poly("x^2 - 6", 5)
    fine = lift(f, 1, 8)
    coarse = lift(f, 1, 4)
    assert fine.root % 5**4 == coarse.root


def test_trace_length_bound():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.choice((3, 5, 7))
        f = parse_poly(f"x^2 - {rng.randint(1, p - 1) ** 2 + p * rng.randint(0, 3)}", p)
        try:
            cert = lift(f, rng.randint(0, p - 1), 5)
        except (HypothesisFailed, DerivativeVanishes):
            continue
        assert cert.checks_passed
        if not cert.hypothesis.degenerate:
            t = cert.hypothesis.t
            e = cert.hypothesis.e
            doublings = 0
            while t << doublings < 5 - e:
                doublings += 1
            assert len(cert.trace) - 1 <= doublings + 1


def test_quadratic_convergence_exponents():
    cert = lift(parse_poly("x^2 - 6", 5), 1, 8)
    e = cert.hypothesis.e
    cap = cert.k + e
    for s1, s2 in zip(cert.trace, cert.trace[1:]):
        assert s2.val_f >= min(2 * (s1.val_f - 2 * e) + 2 * e, cap)


def test_derivative_valuation_constant_along_trace():
    f = parse_poly("x^2 - 17", 2)
    cert = lift(f, 1, 7)
    fprime = f.derivative()
    assert len(cert.trace) > 1
    for step in cert.trace:
        assert padic_val_rat(2, fprime.eval_exact(step.residue)) == cert.hypothesis.e


def test_verify_flags_shuffled_trace():
    cert = lift(parse_poly("x^2 - 6", 5), 1, 4)
    swapped = dataclasses.replace(cert, trace=cert.trace[::-1])
    result = verify_certificate(swapped)
    assert not result


def test_lift_stops_immediately_at_coarse_target():
    # m - e >= k: the seed already is the root mod p^k
    cert = lift(parse_poly("x^2 - 6", 5), 1, 1)
    assert cert.root == 1 and len(cert.trace) == 1
    assert cert.dist_exponent is None
    assert cert.checks_passed


def test_double_root_seed_rejected():
    with pytest.raises(DerivativeVanishes):
        check_hypothesis(parse_poly("x^2 - 2*x + 1", 5), 1)


def test_degenerate_with_positive_derivative_valuation():
    # roots 1 and 26 = 1 + 5^2; f'(1) = -25 has valuation 2
    f = parse_poly("x^2 - 27*x + 26", 5)
    cert = lift(f, 1, 1)
    assert cert.hypothesis.degenerate and cert.hypothesis.e == 2
    assert cert.root == 1 and cert.checks_passed


def test_oracle_agreement_random_sweep():
    """Random lifts up to p = 13, degree 4, K = 6 match the exhaustive scan."""
    rng = random.Random(29)
    checked = 0
    while checked < 25:
        p = rng.choice((2, 3, 5, 7, 11, 13))
        k = rng.randint(3, 6)
        if p**k > 10**7:
            continue
        degree = rng.randint(2, 4)
        coeffs = tuple(F(rng.randint(0, p**2)) for _ in range(degree)) + (F(1),)
        f = PadicPoly(p, coeffs)
        seeds = [
            a for a in range(p)
            if f.eval_exact(a) % p == 0 and f.derivative().eval_exact(a) % p != 0
        ]
        if not seeds:
            continue
        report = enumerate_roots(f, k)
        for a in seeds:
            cert = lift(f, a, k)
            assert cert.checks_passed
            assert [r for r in report.roots if r % p == a] == [cert.root]
            assert all(unique_in_neighborhood(f, cert, r) for r in report.roots)
        checked += 1


def test_verify_labels_malformed_records_without_hanging():
    record = certificate_to_record(lift(parse_poly("x^2 - 6", 5), 1, 4))
    for t in (0, -1, None):
        with time_limit(5):
            result = verify_certificate(certificate_from_record({**record, "t": t}))
        assert not result and result.failures == ("malformed",)


def test_verify_labels_malformed_certificates_without_raising():
    cert = lift(parse_poly("x^2 - 17", 2), 1, 9)
    hyp = cert.hypothesis
    for bad in (
        dataclasses.replace(cert, k=0),
        dataclasses.replace(cert, k=-2),
        dataclasses.replace(cert, a=F(1, 2)),
        dataclasses.replace(cert, p=4),
        dataclasses.replace(cert, p=3),
        dataclasses.replace(cert, hypothesis=Hypothesis(-1, hyp.m, hyp.t)),
        dataclasses.replace(cert, hypothesis=Hypothesis(hyp.e, hyp.m, None)),
        dataclasses.replace(cert, root=str(cert.root)),
        dataclasses.replace(cert, trace=cert.trace + (None,)),
    ):
        with time_limit(5):
            result = verify_certificate(bad)
        assert not result and result.failures == ("malformed",)


def test_capped_bound_is_the_exact_ceiling():
    for c, t, cap in ((0, 1, 9), (2, 3, 40), (1, 10**400, 10**5)):
        for n in range(-1400, 40, 7):
            want = min(c + math.ceil(F(t) * F(2) ** n), cap)
            assert hensel._capped(c, t, n, cap) == want, (c, t, n)


def test_verify_rejects_a_negative_trace_index_with_a_huge_t():
    # a negative index halves t in the induction bound; with t beyond the
    # float range that bound must stay an integer rather than overflow
    cert = lift(parse_poly("x^2 - 6", 5), 1, 8)
    huge = dataclasses.replace(cert.hypothesis, m=10**400, t=10**400)
    step0 = dataclasses.replace(cert.trace[0], n=-1)
    bad = dataclasses.replace(cert, hypothesis=huge, trace=(step0,) + cert.trace[1:])
    with time_limit(5):
        result = verify_certificate(bad)
    assert not result and "trace_indices" in result.failures


def _with_step_copies(cert):
    last = cert.trace[-1]
    extra = tuple(dataclasses.replace(last, n=last.n + i) for i in (1, 2, 3))
    return dataclasses.replace(cert, trace=cert.trace + extra)


def _with_last_residue_moved(cert):
    """Move the last iterate and the root by p**3, below the distance bound 4."""
    last = cert.trace[-1]
    moved = dataclasses.replace(last, residue=last.residue + 5**3)
    return dataclasses.replace(cert, trace=cert.trace[:-1] + (moved,), root=moved.residue)


@pytest.mark.parametrize("poly, seed, k, mutate, label, alone", [
    ("x^2 - 6", 1, 8, lambda c: dataclasses.replace(
        c, hypothesis=dataclasses.replace(c.hypothesis, m=None)),
     "degenerate_flag", False),
    ("x^2 - 6", 1, 8, lambda c: dataclasses.replace(c, trace=()),
     "trace_missing", True),
    ("x^2 - 6", 1, 8, lambda c: dataclasses.replace(
        c, trace=(dataclasses.replace(c.trace[0], val_f=None),) + c.trace[1:]),
     "trace_after_zero_1", False),
    ("x^2 - 6", 1, 8, _with_step_copies, "trace_length", True),
    ("x^2 - 4", 2, 5, lambda c: dataclasses.replace(c, trace=(LiftStep(0, 2, None),)),
     "trace_empty", True),
    ("x^2 - 4", 2, 5, lambda c: dataclasses.replace(c, root=7),
     "degenerate_root", False),
    ("x^2 - 6", 1, 8, lambda c: dataclasses.replace(
        c, trace=c.trace[:1] + (dataclasses.replace(c.trace[1], val_f=2),) + c.trace[2:]),
     "trace_reval_1", True),
    ("x^2 - 6", 1, 8, _with_last_residue_moved, "trace_distance_2_3", False),
])
def test_verify_fires_each_label(poly, seed, k, mutate, label, alone):
    cert = lift(parse_poly(poly, 5), seed, k)
    assert cert.checks_passed
    result = verify_certificate(mutate(cert))
    assert not result and label in result.failures
    if alone:
        assert result.failures == (label,)


def _digest(record):
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


# The records that the lifter working at the full p**(k + e) from step 0
# gave for the cases below, keyed by their sha256 (the ``old`` digests).
GOLDEN = json.loads((Path(__file__).parent / "golden_records.json").read_text())
# the precision-doubling lifter changes trace residues and valuations only
SAME_FIELDS = ("p", "f", "a", "K", "e", "m", "t", "root", "checks_passed")


# sha256 of json.dumps(certificate_to_record(lift(parse_poly(f, p), a, k))),
# pinned so that a faster lift cannot silently change a record: ``old`` for
# the full-precision lifter's record in GOLDEN, ``new`` for today's lift
@pytest.mark.parametrize("p, poly, seed, k, e, old, new", [
    (2, "x^2 - 17", 1, 7, 1,
     "cdd35388015c9089fd062abc3671f1de6034b3fc21db8fe6940692e749493961",
     "cdd35388015c9089fd062abc3671f1de6034b3fc21db8fe6940692e749493961"),
    (2, "x^2 - 17", 1, 300, 1,
     "abf1123e12ebbdbc54cd1a4bd39083d33f8ce3740735a1a2690e82f84ac42f14",
     "8609b950befc29a53d668d7821552789a26524f6b08c155035730df14875ae18"),
    (2, "x^3 - 3", 1, 1, 0,
     "af6d944ce036c2df4a362e53e4d47ff7388396c3349e7099a572d611b19fe580",
     "af6d944ce036c2df4a362e53e4d47ff7388396c3349e7099a572d611b19fe580"),
    (2, "x^3 - 3", 1, 64, 0,
     "94da0c452d48885add098935288b249832085c5510ca94a4b53792941e8bce00",
     "ef15e93705cd4cddaacacf74065c84e281f74189d86115019c805dfe8c2bbf6e"),
    (2, "x^2 - 68", 2, 64, 2,
     "1db02c4e6e510ff975f7742cd22773fc49ed9d2c43e5ae82b05c11cece3e95a3",
     "ace77671ebc2230d700bc1200cc4cc45020c1592f54a846576a91d4eb224526f"),
    (3, "x^2 - 7", 1, 1, 0,
     "827c681e427f779fe67bc0a8ff798357fa6490918319666cc623e3eb1989325a",
     "827c681e427f779fe67bc0a8ff798357fa6490918319666cc623e3eb1989325a"),
    (3, "x^3 - 28", 1, 7, 1,
     "a31ff34e3ca464feb53512e5a022cdc9889c53f052662552087d22eb7af3dbcf",
     "a31ff34e3ca464feb53512e5a022cdc9889c53f052662552087d22eb7af3dbcf"),
    (3, "x^3 - 28", 1, 300, 1,
     "b1b8b81e11d025de4b1df1d2ffef13f2b6da0b33460c7a23482cb1b26d08b8fa",
     "21c3a7fc459377291f2faa20a8f7d99d74386405a00ab7d4acfc3c7351fe6570"),
    (3, "x^2 - 567", 9, 64, 2,
     "8042defc03fc8cc95a526037aab034de44eb180388d286db9163aa2e30370047",
     "89210f047010354ef6ddfd16873c126f0fa772dd21a9a51d0b3aae01ee23dfbe"),
    (3, "x^4 + x + 1", 1, 300, 0,
     "90a63add58b1bbd1d79af632af502af8024b5355afd7c05884cdba700470a7b1",
     "033bea8b1fd014e30776e20c8fdee0fc11ac0328d649401f3b95b3f9452dcaa9"),
    (3, "x^2 - 4", 2, 7, 0,
     "9a9732df93b964471b95d6879c600644b81c5fd0a50072d4f38902dbe2ab1f61",
     "9a9732df93b964471b95d6879c600644b81c5fd0a50072d4f38902dbe2ab1f61"),
    (5, "x^2 - 6", 1, 1, 0,
     "89d4a04242baa85771d024a5358a7f849dcea554e712fdaf743d1aad2bb5289f",
     "89d4a04242baa85771d024a5358a7f849dcea554e712fdaf743d1aad2bb5289f"),
    (5, "x^2 - 6", F(1, 6), 64, 0,
     "1c71a0e2771d0c98a24b03e2fdee6a8c72b97cde28f980d4276ab3a0332b3491",
     "ff2d2e3a54063312381745271d64b5b6f9152c78e9f1e8bce247e925b9eec50e"),
    (5, "x^2 - 6/11", 1, 300, 0,
     "0f9cbd582bef0331df9549a1d5f315f1dd3e0ea268c6b1ea0c56b45bad430257",
     "76b9b810cde2ae1eaf8cd115b8a56fdb001ee869184036b195d890379607abae"),
    (5, "x^2 - 150", 5, 7, 1,
     "2c57792d79e4cf7fd3886186e4354a674c916e9430bcf5e02a51053dc35a2a6b",
     "3afe704d53cba4a73f38ab87f6711c6406610b56e4541fe8e95c176238f4c7d9"),
    (5, "x^2 - 3750", 25, 64, 2,
     "8ce93b75265582b2c637f8c9b26971d4edb2415a6ecbc9dcf0b3fd7f31b4a090",
     "0aa1ad4f1692417cbba0781113f2cbee8cdb4594487623b2b353dac9928e9174"),
    (7, "x^3 - 6", 3, 7, 0,
     "b67732c32490b85ab9892fd8c8ad0db7e6716319a5dbdcfc883ccf8ffa47367a",
     "fd89418879470fe7f96481026a821d1657ad19a78e19962d65f896e48c429e71"),
    (7, "x^3 - 6", 3, 300, 0,
     "784e7afbaa1f936d00bfd2fc5e1adb033a939892be907498359be5add3f01658",
     "fb9d0adfaa40a30653501f5497521d7bda8436fdb16cdf0c03900748c4dc9847"),
    (7, "x^2 - 392", F(7, 8), 64, 1,
     "38da108ef2f644f4de3c7c088a3f4d155b470bc95d9b75485c229fad294b71a3",
     "967359672e7284a9be98e5de2e74dc5a9761758b7f646be151460a904ef25b30"),
    (101, "x^2 + 1", 10, 1, 0,
     "d800a79db48fc02da30988ac0293261302879045488cfba89108586d69198cdd",
     "d800a79db48fc02da30988ac0293261302879045488cfba89108586d69198cdd"),
    (101, "x^2 + 1", 10, 300, 0,
     "e1e8a1d4b497d5611f3029fe33570981dff230b0856afa8ad25cd98c022506f7",
     "cb08c4ac14b54d8d35ef423ef77e0654e05b6b2f0d070c77cfdf2dabc502cb0e"),
    (101, "x^2 + 10201", 1010, 7, 1,
     "66ffee1d6219c1b0799592045d1d7cc6ee8d2f0d27f12a5cc79696939fbeebee",
     "0a62a8b9ef9468bac718982844faa8e969c4ffa2ac53b11a288fad73d4536438"),
    (101, "x^2 + 1/102", 10, 64, 0,
     "eb187ef19ad179f9d7e715d2b8dd06db53345dc264e6373bab7e6b3ad255a2a8",
     "8c9b99d9e21d60c6e75e5a64e728c0ee58a04f1d685951438514c47d9a34523b"),
])
def test_golden_records(p, poly, seed, k, e, old, new):
    cert = lift(parse_poly(poly, p), seed, k)
    assert cert.checks_passed and cert.hypothesis.e == e
    record = certificate_to_record(cert)
    assert _digest(record) == new
    pinned = GOLDEN[old]
    assert _digest(pinned) == old
    assert {x: record[x] for x in SAME_FIELDS} == {x: pinned[x] for x in SAME_FIELDS}


@pytest.mark.parametrize("digest", list(GOLDEN))
def test_golden_records_still_verify(digest):
    assert verify_certificate(certificate_from_record(GOLDEN[digest]))


def _raise_k(record):
    """The smallest larger K at which the root is no longer a root mod p**K."""
    p = record["p"]
    value = sum(F(c) * record["root"] ** i for i, c in enumerate(record["f"]))
    if value == 0:
        return None  # an exact root: no raise of K makes a false claim
    for K in range(record["K"] + 1, record["K"] + 65):
        if value.numerator % p**K:
            return {**record, "K": K}


def _raise_a_visible_val_f(record):
    """Raise by one the first valuation a residue mod p**K can witness."""
    for i, (_, _, val_f) in enumerate(record["trace"]):
        if val_f is not None and val_f < record["K"]:
            return _with_step(record, i, 2, val_f + 1)
    return None


def _with_step(record, i, position, value):
    trace = [list(step) for step in record["trace"]]
    trace[i][position] = value
    return {**record, "trace": trace}


GOLDEN_MUTATIONS = {
    "root": lambda r: {**r, "root": (r["root"] + 1) % r["p"] ** r["K"]},
    "trace residue": lambda r: r["trace"] and _with_step(
        r, len(r["trace"]) // 2, 1, r["trace"][len(r["trace"]) // 2][1] + 1),
    "trace val_f lowered": lambda r: r["trace"] and _with_step(r, 0, 2, r["trace"][0][2] - 1),
    "trace val_f raised": _raise_a_visible_val_f,
    "m": lambda r: r["m"] is not None and {**r, "m": r["m"] + 1},
    "t": lambda r: r["t"] is not None and {**r, "t": r["t"] + 1},
    "raised K": _raise_k,
    "a": lambda r: {**r, "a": str(F(r["a"]) + 1)},
}


@pytest.mark.parametrize("digest", list(GOLDEN))
def test_golden_records_reject_each_mutation(digest):
    record = GOLDEN[digest]
    for kind, mutate in GOLDEN_MUTATIONS.items():
        bad = mutate(record)
        if bad:  # the degenerate record has no trace, m or t to change
            assert not verify_certificate(certificate_from_record(bad)), kind


@pytest.mark.parametrize("p", [2, 3, 5, 101])
@pytest.mark.parametrize("w", [1, 2, 3, 64, 1000, 3001])
def test_unit_inverse(p, w):
    modulus = p**w
    rng = random.Random(p * w)
    units = [1, modulus - 1] + [rng.randrange(modulus) // p * p + rng.randrange(1, p)
                                for _ in range(5)]
    for h in units:
        assert h * _unit_inverse(h, p, w) % modulus == 1
        # refining an inverse known to j digits, off by a multiple of p**j
        for j in {1, (w + 2) // 3, w}:
            x = pow(h, -1, p**j) + p**j * rng.randrange(1, p * p)
            assert h * _unit_inverse(h, p, w, x, j) % modulus == 1


def test_verify_rejects_a_huge_trace_index():
    cert = lift(parse_poly("x^2 - 6", 5), 1, 8)
    last = dataclasses.replace(cert.trace[-1], n=2**62)
    with time_limit(2):
        result = verify_certificate(dataclasses.replace(cert, trace=cert.trace[:-1] + (last,)))
    assert not result and "trace_indices" in result.failures


def test_verify_is_linear_in_the_trace_length():
    cert = lift(parse_poly("x^2 - 6", 5), 1, 8)
    rng = random.Random(8)
    start = len(cert.trace)
    extra = tuple(LiftStep(start + i, residue, rng.choice((None, 0, 1, 8, 12)))
                  for i, residue in enumerate(rng.sample(range(5**8), 4000)))
    trace = cert.trace + extra
    with time_limit(2):
        result = verify_certificate(dataclasses.replace(cert, trace=trace))
    assert not result
    checks = collections.Counter(label.rstrip("0123456789_") for label in result.failures)
    assert checks["trace_distance"] > 0
    assert max(checks.values()) <= len(trace)


def _seeded_lifts():
    """f = c0 + c1*(x - a) + c2*(x - a)**2 + (x - a)**3 with nu(c0) = 2e + t, nu(c1) = e."""
    rng = random.Random(6)
    for p in (2, 3, 5, 7, 101):
        for e in (0, 1, 2):
            for k in (1, 3, 8, 40, 200):
                a, t = rng.randrange(p**2), rng.randint(1, 3)
                c0, c1 = (p**v * (rng.randrange(p**3) * p + 1) for v in (2 * e + t, e))
                c2 = rng.randrange(p**3)
                f = PadicPoly(p, (c0 - c1 * a + c2 * a**2 - a**3, c1 - 2 * c2 * a + 3 * a**2,
                                  c2 - 3 * a, 1))
                if k > e:
                    yield f, a, k


def test_working_exponents_follow_the_measured_valuations(monkeypatch):
    steps, inverses, reads = [], [], []

    def recording_step(p, a, u, v, h, e, w, *carry):
        steps.append((v, w))
        return step(p, a, u, v, h, e, w, *carry)

    def recording_inverse(h, p, w, x=0, known=0):
        inverses.append((w, known))
        return inverse(h, p, w, x, known)

    def recording_value_mod(coeffs, x, modulus):
        reads.append((coeffs, modulus))
        return value_mod(coeffs, x, modulus)

    def marking_verify(cert):
        reads.append(None)  # the reads after this one are verify's
        return verify(cert)

    step, inverse = hensel._step, hensel._unit_inverse
    value_mod, verify = hensel._value_mod, hensel.verify_certificate
    monkeypatch.setattr(hensel, "_step", recording_step)
    monkeypatch.setattr(hensel, "_unit_inverse", recording_inverse)
    monkeypatch.setattr(hensel, "_value_mod", recording_value_mod)
    monkeypatch.setattr(hensel, "verify_certificate", marking_verify)
    lifts = 0
    for f, a, k in _seeded_lifts():
        steps.clear()
        inverses.clear()
        reads.clear()
        cert = lift(f, a, k)
        e = cert.hypothesis.e
        # f' is read modulo p^(e + prec) for the prec = w - v + e that the
        # update reads, and modulo p^(e + 1) at the step that stops
        dints = f._cleared[1]
        fprime = [modulus for coeffs, modulus in reads[:reads.index(None)] if coeffs is dints]
        assert fprime == [f.p ** (2 * e + w - v) for v, w in steps] + [f.p ** (e + 1)]
        assert cert.checks_passed and not cert.hypothesis.degenerate
        exponents = [w for _, w in steps]
        assert exponents == sorted(exponents)
        assert exponents == [min(2 * s.val_f - e, k + e) for s in cert.trace[:-1]]
        # each step refines the inverse only as far as its update reads it,
        # starting after step 0 from the one the step before carried over
        assert [w for w, _ in inverses] == [w - v + e for v, w in steps]
        assert all(known >= 1 for _, known in inverses[1:])
        if exponents:
            # only an update that lands on an exact root stops short of k + e
            assert exponents[-1] == k + e or cert.trace[-1].val_f is None
            lifts += 1
    assert lifts > 30


def test_each_update_is_the_full_precision_newton_step(monkeypatch):
    updates = []

    def recording(p, a, u, v, h, e, w, *carry):
        a_next, inv = step(p, a, u, v, h, e, w, *carry)
        updates.append((a, w, a_next))
        return a_next, inv

    step = hensel._step
    monkeypatch.setattr(hensel, "_step", recording)
    checked = 0
    for f, a, k in _seeded_lifts():
        updates.clear()
        p, e = f.p, lift(f, a, k).hypothesis.e
        fprime = f.derivative()
        for x, w, a_next in updates:
            modulus = p**w
            g = rational_residue(f.eval_exact(x) / p**e, modulus)
            h = rational_residue(fprime.eval_exact(x) / p**e, modulus)
            assert a_next == (x - g * pow(h, -1, modulus)) % modulus
            checked += 1
    assert checked > 100


def _full_precision_evaluations(cert):
    """The labels of verify's checks that evaluate f or f', at full precision.

    The reference reduces f and f' mod p**k and evaluates every point mod
    p**k, and the seed exactly, sharing no evaluation code with verify.
    """
    p, k, hyp = cert.p, cert.k, cert.hypothesis
    mod_k, fprime = p**k, cert.f.derivative()

    def nu(x):
        return None if x == 0 else padic_val_rat(p, x)

    def at(g, x):
        return sum(rational_residue(c, mod_k) * pow(x, i, mod_k)
                   for i, c in enumerate(g.coeffs)) % mod_k

    def shows(value, v):
        return (k if value == 0 else min(nu(value), k)) == (k if v is None else min(v, k))

    m = nu(cert.f.eval_exact(cert.a))
    fails = [label for label, failed in (
        ("hypothesis_e", nu(fprime.eval_exact(cert.a)) != hyp.e),
        ("hypothesis_m", m != hyp.m),
        ("degenerate_flag", (m is None) != hyp.degenerate),
        ("root_residue", at(cert.f, cert.root) != 0),
        ("derivative_stability", not shows(at(fprime, cert.root), hyp.e)),
    ) if failed]
    if not hyp.degenerate and cert.trace:  # else verify stops before the trace
        fails += [f"trace_reval_{s.n}" for s in cert.trace
                  if not shows(at(cert.f, s.residue), s.val_f)]
    return fails


EVALUATED = ("hypothesis_e", "hypothesis_m", "degenerate_flag", "root_residue",
             "derivative_stability", "trace_reval_")


def _verify_mutations(record):
    """The record, then copies with one field changed (all well formed)."""
    p, k, m, t = record["p"], record["K"], record["m"], record["t"]
    yield record
    for root in (record["root"] + 1, record["root"] + p ** (k - 1)):
        yield {**record, "root": root % p**k}
    yield {**record, "K": k + 1}
    yield {**record, "K": k + 3}
    if m is not None:
        yield {**record, "m": m + 1}
        yield {**record, "m": m - 1}
        yield {**record, "t": t + 1}
        if t > 1:
            yield {**record, "t": t - 1}
    for i, (_, residue, val_f) in enumerate(record["trace"]):
        near = () if val_f is None else (val_f + 1, val_f - 1)
        for v in (*near, -1, None, k + 10**6):
            yield _with_step(record, i, 2, v)
        for r in (residue + 1, residue + p ** (k // 2), residue + p ** (k - 1),
                  -residue - 1, residue - p**k, residue + p**k):
            yield _with_step(record, i, 1, r)


def test_verify_reads_residues_as_the_full_precision_reference():
    records = list(GOLDEN.values())
    records += [certificate_to_record(lift(f, a, k)) for f, a, k in _seeded_lifts()]
    verdicts = collections.Counter()
    for record in records:
        for mutated in _verify_mutations(record):
            cert = certificate_from_record(mutated)
            result = verify_certificate(cert)
            assert result.ok == (not result.failures)
            evaluated = [label for label in result.failures if label.startswith(EVALUATED)]
            assert evaluated == _full_precision_evaluations(cert), mutated
            verdicts[result.ok, bool(evaluated)] += 1
    # valid records, evaluated checks failing, and only other checks failing
    assert min(verdicts.values()) > 50 and len(verdicts) == 3


@st.composite
def _coeffs_point_modulus(draw):
    p = draw(st.sampled_from((2, 5, 101)))
    modulus = p ** draw(st.integers(1, 60))
    coeff = st.one_of(
        st.just(0),
        st.integers(-2000, 2000),
        st.integers(-modulus + 1, modulus - 1),
        st.integers(-(modulus**3), modulus**3),
        st.sampled_from((modulus, -modulus, 2 * modulus, -modulus - 1)),
    )
    coeffs = tuple(draw(st.lists(coeff, max_size=12)))
    x = draw(st.one_of(st.integers(0, modulus - 1), st.integers(-(modulus**2), modulus**2)))
    return coeffs, x, modulus


@settings(max_examples=300, deadline=None)
@given(_coeffs_point_modulus())
def test_value_mod_matches_reducing_every_coefficient(case):
    coeffs, x, modulus = case
    want = _horner([c % modulus for c in coeffs], x, 0) % modulus
    assert _value_mod(coeffs, x, modulus) == want


@pytest.mark.parametrize("k", [8, 500])
def test_a_float_p_lifts_as_its_int(k):
    # PadicPoly stores the int check_prime returns, so nothing downstream
    # meets the float: it once raised TypeError at k = 8, OverflowError at 500
    f = PadicPoly(5.0, (-6, 0, 1))
    assert type(f.p) is int
    cert = lift(f, 1, k)
    assert cert.checks_passed
    assert certificate_to_record(cert) == certificate_to_record(
        lift(PadicPoly(5, (-6, 0, 1)), 1, k)
    )
    assert enumerate_roots(f, 3).roots == enumerate_roots(PadicPoly(5, (-6, 0, 1)), 3).roots


@st.composite
def _poly_and_unit_seed(draw):
    """f with unit-denominator coefficients and a seed n/d, d a unit (large ones too)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    units = st.integers(1, 10**30).filter(lambda d: d % p)
    coeffs = draw(st.lists(st.builds(F, st.integers(-10**6, 10**6), units),
                           min_size=1, max_size=6))
    seed = draw(st.one_of(st.just(F(0)), st.integers(-10**6, 10**6).map(F),
                          st.builds(F, st.integers(-10**40, 10**40), units)))
    return PadicPoly(p, coeffs), seed


@settings(max_examples=300, deadline=None)
@given(_poly_and_unit_seed())
def test_exponents_are_the_valuations_of_f_and_its_derivative_at_the_seed(case):
    f, a = case
    p = f.p

    def nu(x):
        return None if x == 0 else padic_val_rat(p, x)

    # f(a) and f'(a) in Fractions, sharing no evaluation code with hensel
    value = sum(c * a**i for i, c in enumerate(f.coeffs))
    slope = sum(i * c * a ** (i - 1) for i, c in enumerate(f.coeffs) if i)
    assert hensel._exponents(p, *f._cleared, a) == (nu(slope), nu(value))
    if a.denominator == 1:
        assert hensel._exponents(p, *f._cleared, a.numerator) == (nu(slope), nu(value))


@pytest.mark.parametrize("poly, seed, error, message", [
    ("x^2 - 6", F(1, 5), NotAnInteger, "seed 1/5 is not a 5-adic integer"),
    ("x^2 - 6", F(-7, 50), NotAnInteger, "seed -7/50 is not a 5-adic integer"),
    ("7", 1, ValueError, "polynomial must be nonconstant"),
    ("7", F(1, 5), ValueError, "polynomial must be nonconstant"),
    ("0", 1, ValueError, "polynomial must be nonconstant"),
])
def test_hypothesis_errors_read_as_before(poly, seed, error, message):
    f = parse_poly(poly, 5)
    for call in (lambda: check_hypothesis(f, seed), lambda: lift(f, seed, 4)):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("poly, p, k", [("x^2 - 6", 5, 86136), ("x^2 - 17", 2, MAX_MODULUS_BITS + 1)])
def test_a_modulus_just_past_the_bound_is_refused(poly, p, k):
    # k is the least exponent whose p**k is above 2**MAX_MODULUS_BITS; a
    # record with K = 10**8 once kept certificate_from_record and verify
    # building p**K for longer than 20 s
    assert p ** (k - 1) <= 2**MAX_MODULUS_BITS < p**k
    f = parse_poly(poly, p)
    cert = lift(f, 1, 8)
    with time_limit(5):
        with pytest.raises(ValueError, match="exceeds the modulus bound"):
            lift(f, 1, k)
        with pytest.raises(ValueError, match="exceeds the modulus bound"):
            certificate_from_record({**certificate_to_record(cert), "K": k})
        result = verify_certificate(dataclasses.replace(cert, k=k))
    assert not result and result.failures == ("malformed",)


def test_a_hand_built_certificate_past_the_bound_is_refused_before_p_to_the_k():
    # dist_exponent and unique_in_neighborhood once built p**k from the
    # certificate's own k: k = 10**6 took 0.2 s, and more without limit
    f = parse_poly("x^2 - 6", 5)
    cert = dataclasses.replace(lift(f, 1, 8), k=10**6)
    with time_limit(0.1):
        with pytest.raises(ValueError, match="exceeds the modulus bound"):
            cert.dist_exponent
        with pytest.raises(ValueError, match="exceeds the modulus bound"):
            unique_in_neighborhood(f, cert, cert.root)


@pytest.mark.parametrize("k", [0, -8])
def test_a_record_with_k_below_one_is_refused_before_any_power(k, monkeypatch):
    # K = -8 once made the root the float 2.56e-06 and cached 5**-8
    record = {**certificate_to_record(lift(parse_poly("x^2 - 6", 5), 1, 8)), "K": k}
    built = []
    monkeypatch.setattr(hensel, "_power", lambda p, n: built.append(n) or p**n)
    with pytest.raises(ValueError, match=f"K must be a positive integer, got {k}"):
        certificate_from_record(record)
    assert built == []


def test_split_finds_the_exact_valuation_when_the_floor_overshoots():
    # a floor above nu(x) leaves a remainder, so _split measures x afresh;
    # 5**4000 has 9288 bits and goes through the recursive division
    for p, x in ((5, 3 * 5**4), (2, -7 * 2**10), (7, 1), (5, 2 * 5**3000 + 5**3001)):
        v = padic_val_rat(p, x)
        for floor in (0, v, v + 1, v + 7, 4000):
            assert hensel._split(p, x, floor) == (v, x // p**v), (p, x, floor)


def test_the_largest_baseline_row_stays_within_the_modulus_bound():
    # sqrt(6) in Z_5 at k = 64000 is the largest row of the lift baseline
    record = certificate_to_record(lift(parse_poly("x^2 - 6", 5), 1, 8))
    with time_limit(5):
        result = verify_certificate(certificate_from_record({**record, "K": 64000}))
    assert "malformed" not in result.failures


def test_the_cleared_coefficients_are_computed_once_per_polynomial(monkeypatch):
    computed = []

    def counting(coeffs):
        computed.append(coeffs)
        return clear(coeffs)

    clear = polynomial._clear_denominators
    monkeypatch.setattr(polynomial, "_clear_denominators", counting)
    f = parse_poly("1/7*x^2 - 6/7", 5)
    check_hypothesis(f, 1)
    cert = lift(f, 1, 12)  # which runs its own verify_certificate
    assert cert.checks_passed and verify_certificate(cert)
    assert computed == [f.coeffs]
    assert f._cleared == ((-6, 0, 1), (0, 2))
    # an equal polynomial built anew computes its own, once
    g = dataclasses.replace(f)
    assert lift(g, 1, 12) == cert and computed == [f.coeffs, f.coeffs]


# ----- fuzzing verify with mutated records ---------------------------------

FUZZ_FIELDS = ("p", "f", "a", "K", "e", "m", "t", "trace", "root", "checks_passed")
_FUZZ_LIFTS = {
    "e = 0": (("x^2 - 6", 5, 1, 8), ("x^2 - 6", 5, 1, 30), ("x^3 - 2", 5, 3, 12),
              ("x^2 + 1", 101, 10, 20), ("x^2 - 4", 5, 2, 5), ("x^2 + 1/102", 101, 10, 9)),
    "e > 0": (("x^2 - 17", 2, 1, 9), ("x^2 - 17", 2, 1, 40), ("x^2 - 392", 7, F(7, 8), 30),
              ("x^2 + 10201", 101, 1010, 7), ("x^2 - 324", 3, 9, 12)),
}


@functools.cache
def _lifted_records(group):
    return [certificate_to_record(lift(parse_poly(poly, p), a, k))
            for poly, p, a, k in _FUZZ_LIFTS[group]]


def _nu(p, q):
    """nu_p of a rational by counting factors of p; None at 0."""
    if q == 0:
        return None
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _claim_holds(cert):
    """Whether a certificate's claim is true, by plain Horner in the test.

    The claim: e = nu(f'(a)) and m = nu(f(a)), with t = m - 2e >= 1 when m
    is finite, and root is the residue mod p**K of the root xi that a lifts
    to.  With nu(root - a) > e, nu(f(root)) = e + nu(root - xi), so the
    last part holds exactly when f(root) = 0 mod p**(K + e).
    """
    p, k, hyp, a = cert.p, cert.k, cert.hypothesis, F(cert.a)
    coeffs = cert.f.coeffs
    e = _nu(p, sum(i * c * a ** (i - 1) for i, c in enumerate(coeffs) if i))
    m = _nu(p, sum(c * a**i for i, c in enumerate(coeffs)))
    if e is None or (e, m) != (hyp.e, hyp.m):
        return False
    if m is not None and (m <= 2 * e or hyp.t != m - 2 * e):
        return False
    modulus = p ** (k + e)
    seed = a.numerator * pow(a.denominator, -1, modulus)
    if (cert.root - seed) % p ** (e + 1):
        return False
    d = math.lcm(*(c.denominator for c in coeffs))
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * cert.root + c.numerator * (d // c.denominator)) % modulus
    return acc == 0


def _largest_k(record):
    """The largest K, past the record's, at which the root is still a root mod p**K."""
    p, root = record["p"], record["root"]
    coeffs = [F(c) for c in record["f"]]
    d = math.lcm(*(c.denominator for c in coeffs))
    value = sum(c.numerator * (d // c.denominator) * root**i for i, c in enumerate(coeffs))
    v = _nu(p, F(value))
    return record["K"] + 1 if v is None else max(v, record["K"] + 1)


def _replacement(draw, value, p):
    """Another value for a field: nearby, of the other sign, or of another type."""
    near = []
    if isinstance(value, int) and not isinstance(value, bool):
        near = [value + 1, value - 1, -value, 0, value + p, value * p, value + 2**64]
    as_float = float(F(value)) if isinstance(value, (int, str)) else 0.5
    other = [str(value), as_float, None, True, False, [], [value], [value, value, value, value]]
    return draw(st.sampled_from(near + other))


@st.composite
def _mutated_records(draw, group, field):
    record = dict(draw(st.sampled_from(_lifted_records(group))))
    p, value = record["p"], record[field]
    if field == "f":
        coeffs = list(value)
        i = draw(st.integers(0, len(coeffs) - 1))
        value = draw(st.sampled_from((
            coeffs[:i] + [_replacement(draw, int(F(coeffs[i])), p)] + coeffs[i + 1:],
            coeffs[:i] + [f"1/{p}"] + coeffs[i + 1:],
            coeffs[:-1], coeffs + ["1"], coeffs + ["0"],
            _replacement(draw, value, p),
        )))
    elif field == "trace" and value:
        steps = [list(step) for step in value]
        i, j = draw(st.integers(0, len(steps) - 1)), draw(st.integers(0, 2))
        changed = [*steps[i][:j], _replacement(draw, steps[i][j], p), *steps[i][j + 1:]]
        value = draw(st.sampled_from((
            steps[:i] + [changed] + steps[i + 1:],
            steps[:i] + [steps[i][:2]] + steps[i + 1:],
            steps[:i] + [steps[i] + [0]] + steps[i + 1:],
            steps[:i] + steps[i + 1:],
            steps[:i + 1] + steps[i:],
            _replacement(draw, value, p),
        )))
    elif field == "a":
        a = F(value)
        value = draw(st.sampled_from((str(a + 1), str(a + p), str(-a), str(a / 3), str(a / p))
                                     + (_replacement(draw, value, p),)))
    elif field == "K":
        value = draw(st.sampled_from((_largest_k(record), _replacement(draw, value, p))))
    elif field == "checks_passed":
        value = draw(st.sampled_from((not value, None, 0, 1, "no", [])))
    else:
        value = _replacement(draw, value, p)
    record[field] = value
    return record


def _fuzz_cases():
    for field in FUZZ_FIELDS:
        for group in _FUZZ_LIFTS:
            marks = ()
            if field == "K" and group == "e > 0":
                marks = pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="verify_certificate checks f(root) mod p^K, not p^(K+e), "
                           "so it accepts a raised K when e >= 1")
            yield pytest.param(field, group, marks=marks, id=f"{field}, {group}")


@pytest.mark.parametrize("field, group", _fuzz_cases())
def test_verify_never_raises_and_never_accepts_a_false_claim(field, group):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_mutated_records(group, field))
    def check(record):
        try:
            cert = certificate_from_record(record)
        except (PadicError, ArithmeticError, LookupError, TypeError, ValueError):
            return  # only what certificate_from_record accepts reaches verify
        result = verify_certificate(cert)
        assert result.ok == (not result.failures)
        if result.ok:
            assert _claim_holds(cert), record

    check()
