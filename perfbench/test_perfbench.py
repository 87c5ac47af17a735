"""The benchmark's own tests: seeded inputs, the checker, the span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    a, b, c = (workloads.make(name, s, SRC) for s in (7, 7, 8))
    for r in (0, 1):
        assert repr(a.round(r)) == repr(b.round(r))
    assert repr(a.round(0)) != repr(c.round(0))
    assert repr(a.round(0)) != repr(a.round(1))


def test_lifting_poly_has_the_requested_valuations():
    rng = random.Random(1)
    for p, e, m, a in ((2, 1, 4, Fraction(1)), (5, 0, 1, Fraction(3, 7)), (7, 2, 5, Fraction(2))):
        f = workloads.lifting_poly(rng, p, 4, e, m, a)
        df = [(i + 1) * c for i, c in enumerate(f[1:])]
        assert ref.val(p, ref.horner_exact(f, a)) == m
        assert ref.val(p, ref.horner_exact(df, a)) == e


def test_reference_tree_matches_scan():
    for coeffs, p, k in (((0, 0, 1), 2, 9), ((-6, 0, 1), 5, 5), ((9, -6, 1), 3, 6), ((1, 1, 1), 2, 8)):
        assert ref.tree_roots(coeffs, p, k) == ref.scan_roots(coeffs, p, k)


def _lift_op(tamper=None):
    op = workloads.LiftDeep._case(random.Random(3), 5, 40, 0)
    op["tamper"] = tamper
    return op


def test_checker_rejects_a_wrong_root():
    wl = workloads.LiftDeep(1)
    op = _lift_op()
    out = wl.run(op)[0]
    assert wl.check(op, out) is None
    cert = out["cert"]
    wrong = dataclasses.replace(cert, root=(cert.root + 5**39) % 5**40)
    assert "not 0 mod" in wl.check(op, dict(out, cert=wrong))


def test_checker_flags_an_accepted_tampered_record():
    wl = workloads.LiftDeep(1)
    op = _lift_op(tamper=("root", 0.5))
    out = wl.run(op)[0]
    assert not out["verdict"] and wl.check(op, out) is None
    assert "accepted" in wl.check(op, dict(out, verdict=True))


@pytest.mark.xfail(strict=True, reason="verify_certificate checks f(root) mod p^K, "
                   "not p^(K+e), so it accepts a raised K when e >= 1")
def test_verify_rejects_a_raised_k_when_e_is_positive():
    import padic

    f = padic.PadicPoly(2, (Fraction(-17), Fraction(0), Fraction(1)))  # e = 1 at a = 1
    k = 40
    cert = padic.lift(f, 1, k)
    coeffs = (-17, 0, 1)
    j = next(j for j in range(1, 65) if ref.horner_mod(coeffs, cert.root, 2 ** (k + j + 1)))
    assert ref.root_error(coeffs, 2, 1, k + j, 1, cert.root)  # the raised claim is false
    record = padic.certificate_to_record(cert)
    record["K"] = k + j
    assert not padic.verify_certificate(padic.certificate_from_record(record))


def test_checker_rejects_a_missing_oracle_root():
    wl = workloads.OracleSweep(1)
    op = workloads.OracleSweep._case(random.Random(2), 2, 14, "dense", 0)
    out = wl.run(op)[0]
    assert wl.check(op, out) is None
    assert "roots reported" in wl.check(op, dict(out, roots=out["roots"][1:]))


def test_checker_rejects_wrong_arithmetic():
    wl = workloads.Arith(1)
    op = wl.round(0)[0]
    out = wl.run(op)[0]
    assert wl.check(op, out) is None
    mixes, values = out
    mixes[0]["m"] = mixes[0]["s"]
    assert wl.check(op, out) is not None


def test_checker_rejects_wrong_cli_output():
    wl = workloads.CliOneshot(1, SRC)
    op = {"kind": "digits", "p": 5, "q": "1/3", "N": 6,
          "argv": ["digits", "-p", "5", "-N", "6", "1/3"]}
    assert wl.check(op, (0, "...313132\n")) is None
    assert wl.check(op, (0, "...313133\n")) is not None
    assert wl.check(op, (2, "...313132\n")) is not None
    assert wl.check(op, wl.run_in_process(op)[0]) is None


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    names = ["root", "a", "b", "c"]
    name_of = [0, 1, 2, 3]
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    got = tr.self_times(names, name_of, parent, start, end)
    assert got == pytest.approx({"root": 3e3, "a": 2e3, "b": 4e3, "c": 1e3})
    assert sum(got.values()) == pytest.approx(10e3)


def test_install_wraps_every_binding_site_and_uninstall_restores_it():
    import padic
    import padic.hensel
    import padic.valuation

    original = padic.valuation.padic_val_int
    add = padic.PadicNumber.__add__
    tracer = tr.Tracer()
    undo = tr.install(tracer)
    try:
        assert padic.hensel.padic_val_int is padic.valuation.padic_val_int is padic.padic_val_int
        assert padic.hensel.padic_val_int is not original
        assert padic.PadicNumber.__radd__ is padic.PadicNumber.__add__ is not add
        x = padic.PadicNumber.from_rational(5, 3, 8)
        _ = 1 + x
    finally:
        tr.uninstall(undo)
    assert padic.hensel.padic_val_int is original and padic.PadicNumber.__add__ is add
    assert tracer.counts["number.arith.calls"] == 1
    assert tracer.counts["number.from_rational.calls"] >= 2
    parents = {tracer.names[tracer.name_of[i]]: tracer.parent[i] for i in range(len(tracer.start))}
    assert parents["number.arith"] == -1


def test_tail_is_the_eleventh_largest_sample():
    value, pct, n = run.percentile_tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
