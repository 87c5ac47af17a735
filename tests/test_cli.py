import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import double_root_times_cofactor, time_limit
from padic import InternalBoundViolation, cli, lift, oracle, parse_poly, valuation
from padic.hensel import certificate_from_record


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse syntax errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_val(capsys):
    code, out, _ = run_cli(capsys, "val", "-p", "2", "3/8")
    assert code == 0 and out.strip() == "-3"


def test_val_zero(capsys):
    code, out, _ = run_cli(capsys, "val", "-p", "7", "0")
    assert code == 0 and out.strip() == "0"


def test_val_non_prime(capsys):
    code, _, err = run_cli(capsys, "val", "-p", "4", "2")
    assert code == 3 and "prime" in err


def test_a_p_past_the_proven_primality_bound_exits_3(capsys):
    # both passed the first 12 prime bases: psi_12 = 399165290221 *
    # 798330580441 is caught by base 41, and psi_13 is past the bound
    for p in ("318665857834031151167461", "3317044064679887385961981"):
        code, out, err = run_cli(capsys, "val", "-p", p, "5")
        assert code == 3 and not out and "prime" in err
        code, out, _ = run_cli(
            capsys, "lift", "-p", p, "-K", "3", "--poly", "x^2 - 4", "--seed", "2"
        )
        assert code == 3 and not out
    code, out, _ = run_cli(capsys, "val", "-p", "3317044064679887385961813", "5")
    assert code == 0 and out == "0\n"


def test_a_4300_digit_p_exits_3_at_once():
    # an odd p free of the witness primes once ran a Miller-Rabin round
    # on 4300 digits, 7.7 s, before it exited 3
    p = next(n for n in range(10**4299 + 1, 10**4300, 2)
             if all(n % q for q in valuation._MR_WITNESSES))
    proc = subprocess.run(
        [sys.executable, "-m", "padic", "val", "-p", str(p), "3"],
        capture_output=True, text=True, timeout=1,
    )
    assert proc.returncode == 3 and "prime below" in proc.stderr


def test_val_parse_error(capsys):
    code, _, err = run_cli(capsys, "val", "-p", "2", "three")
    assert code == 2 and "error" in err


def test_argparse_syntax_error(capsys):
    code, _, _ = run_cli(capsys, "val", "-p")
    assert code == 2


def test_norm_zero(capsys):
    code, out, _ = run_cli(capsys, "norm", "-p", "5", "0")
    assert code == 0 and out.strip() == "0"


def test_norm(capsys):
    code, out, _ = run_cli(capsys, "norm", "-p", "2", "3/8")
    assert code == 0 and out.strip() == "2^3 = 8"


def test_norm_decimal(capsys):
    code, out, _ = run_cli(capsys, "norm", "-p", "2", "8")
    assert code == 0 and out.strip() == "2^-3 = 1/8 = 0.125"


def test_norm_past_float_range(capsys):
    # 2^1100 overflows a float, and 2^-1100 underflows it to 0.0: neither
    # prints a decimal, and only the zero norm reads as 0
    for q, text in ((f"1/{2**1100}", f"2^1100 = {2**1100}"),
                    (str(2**1100), f"2^-1100 = 1/{2**1100}")):
        code, out, _ = run_cli(capsys, "norm", "-p", "2", q)
        assert code == 0 and out.strip() == text
        code, out, _ = run_cli(capsys, "norm", "-p", "2", "--json", q)
        assert code == 0 and json.loads(out)["norm_decimal"] is None


def test_norm_json(capsys):
    code, out, _ = run_cli(capsys, "norm", "-p", "2", "--json", "3/8")
    payload = json.loads(out)
    assert code == 0
    assert payload["valuation"] == -3 and payload["norm"] == "8"


def test_norm_checks_its_prime_fewer_times(capsys, monkeypatch):
    # one norm once checked p four times: in main, ext_val_rat,
    # padic_val_rat and norm_fraction; now main, padic_val_rat and
    # padic_norm_rat
    calls = []

    def counting(p):
        calls.append(p)
        return check(p)

    check = valuation.check_prime
    monkeypatch.setattr(valuation, "check_prime", counting)
    monkeypatch.setattr(cli, "check_prime", counting)
    code, out, _ = run_cli(capsys, "norm", "-p", "5", "3/25")
    assert code == 0 and out == "5^2 = 25\n"
    assert calls == [5] * 3


def test_digits_minus_one(capsys):
    code, out, _ = run_cli(capsys, "digits", "-p", "5", "-N", "6", "--", "-1")
    assert code == 0 and out.strip() == "...444444"


def test_digits_one_third(capsys):
    code, out, _ = run_cli(capsys, "digits", "-p", "5", "-N", "6", "1/3")
    assert code == 0 and out.strip() == "...313132"


def test_digits_shifted(capsys):
    code, out, _ = run_cli(capsys, "digits", "-p", "3", "-N", "3", "9")
    assert code == 0 and out.strip() == "...001 × 3^2"


def test_digits_zero(capsys):
    code, _, err = run_cli(capsys, "digits", "-p", "5", "0")
    assert code == 4 and "expansion" in err


def test_digits_json_little_endian(capsys):
    code, out, _ = run_cli(capsys, "digits", "-p", "5", "-N", "6", "--json", "1/3")
    payload = json.loads(out)
    assert code == 0
    assert payload["digits"] == [2, 3, 1, 3, 1, 3]
    assert payload["start"] == 0 and payload["text"] == "...313132"


def test_eval(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "-p", "5", "-N", "8", "--poly", "x^2 - 6", "1"
    )
    assert code == 0
    assert "v: 1" in out and "form: unit" in out


def test_eval_refuses_a_degree_past_the_limit(capsys):
    code, out, err = run_cli(capsys, "eval", "-p", "5", "--poly", "x^10001", "1")
    assert code == 2 and out == "" and "exceeds 10000" in err


def test_lift_text(capsys):
    code, out, _ = run_cli(
        capsys, "lift", "-p", "5", "-K", "4", "--poly", "x^2 - 6", "--seed", "1"
    )
    assert code == 0
    assert "root: 516" in out
    assert "n=1  a_n=16" in out
    assert "verified: true" in out


def test_lift_degenerate(capsys):
    code, out, _ = run_cli(
        capsys, "lift", "-p", "5", "-K", "3", "--poly", "x^2 - 1", "--seed", "1"
    )
    assert code == 0 and "root: 1" in out and "exact root" in out


def test_lift_hypothesis_failure(capsys):
    code, _, err = run_cli(
        capsys, "lift", "-p", "2", "-K", "5", "--poly", "x^2 - 3", "--seed", "1"
    )
    assert code == 5
    assert "nu(f(a)) = 1" in err and "2*nu(f'(a)) = 2" in err


def test_lift_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "lift", "-p", "5", "-K", "4", "--json",
        "--poly", "x^2 - 6", "--seed", "1",
    )
    assert code == 0
    parsed = certificate_from_record(json.loads(out))
    assert parsed == lift(parse_poly("x^2 - 6", 5), Fraction(1), 4)


def test_lift_text_and_json_agree(capsys):
    _, text, _ = run_cli(
        capsys, "lift", "-p", "5", "-K", "4", "--poly", "x^2 - 6", "--seed", "1"
    )
    _, raw, _ = run_cli(
        capsys, "lift", "-p", "5", "-K", "4", "--json",
        "--poly", "x^2 - 6", "--seed", "1",
    )
    payload = json.loads(raw)
    assert f"root: {payload['root']}" in text
    assert f"e={payload['e']}" in text and f"m={payload['m']}" in text
    for n, residue, val in payload["trace"]:
        assert f"n={n}  a_n={residue}  nu(f(a_n))={val}" in text


def test_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "-p", "5", "-k", "4", "--poly", "x^2 - 6")
    assert code == 0 and out.strip() == "109 516"


def test_oracle_empty(capsys):
    code, out, _ = run_cli(capsys, "oracle", "-p", "3", "-k", "2", "--poly", "x^2 + 1")
    assert code == 0 and out.strip() == ""


def test_oracle_domain_guard(capsys):
    # the bounds are on the roots printed and on k log2(p), not on p^k:
    # x mod 2^30 once exited 7 though it has one root
    with time_limit(1):
        code, out, _ = run_cli(capsys, "oracle", "-p", "2", "-k", "30", "--poly", "x")
    assert code == 0 and out.strip() == "0"
    with time_limit(1):
        code, _, err = run_cli(capsys, "oracle", "-p", "2", "-k", "30", "--poly", "0")
    assert code == 7 and "more than 10000000 roots" in err
    with time_limit(1):
        code, _, err = run_cli(capsys, "oracle", "-p", "2", "-k", "2001", "--poly", "x")
    assert code == 7 and "work bound" in err


def test_oracle_refuses_a_high_degree_at_once(capsys):
    coeffs = double_root_times_cofactor(998, 20, 7)
    poly = " + ".join(f"{c}*x^{i}" for i, c in enumerate(coeffs)).replace("+ -", "- ")
    with time_limit(0.5):
        code, _, err = run_cli(capsys, "oracle", "-p", "2", "-k", "800", "--poly", poly)
    assert code == 7 and "degree 1000 at 2^800 is past the work bound" in err


def test_oracle_refuses_a_high_degree_mod_a_large_prime_at_once(capsys):
    argv = ("oracle", "-p", "2305843009213693951", "-K", "1", "--poly", "x^2000 + x + 1")
    with time_limit(1):
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (7, "") and "is past the work bound" in err


def test_crosscheck(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "-p", "5", "-k", "4", "--trials", "50")
    assert code == 0 and "mismatches: 0" in out


def test_crosscheck_exits_1_on_a_mismatch(capsys, monkeypatch):
    def one_mismatch(p, k, trials, rng_seed):
        return oracle.CrosscheckReport(p, k, trials, 1, ("1 add 2: got 4, expected 3",))

    monkeypatch.setattr(cli.oracle, "crosscheck_arith", one_mismatch)
    code, out, _ = run_cli(capsys, "crosscheck", "-p", "5", "-k", "4", "--trials", "1")
    assert code == 1
    assert out == "trials: 1\nchecked: 1\nmismatches: 1\n"


def test_bad_poly_exit_code(capsys):
    code, _, err = run_cli(capsys, "oracle", "-p", "5", "-k", "2", "--poly", "x**2")
    assert code == 2 and "error" in err


def test_nonintegral_seed_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "lift", "-p", "5", "-K", "3", "--poly", "x^2 - 6", "--seed", "1/5"
    )
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "padic", "val", "-p", "2", "3/8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "-3"


LIFT_TEXT = {
    ("5", "4", "x^2 - 6"): """\
polynomial: x^2 - 6
p: 5  seed: 1  target: 5^4
hypothesis: e=0  m=1  t=1
trace:
  n=0  a_n=1  nu(f(a_n))=1
  n=1  a_n=16  nu(f(a_n))=3
  n=2  a_n=516  nu(f(a_n))=4
root: 516
nu(root - seed): 1
uniqueness: only root z with nu(z - seed) > 0
verified: true
""",
    ("2", "9", "x^2 - 17"): """\
polynomial: x^2 - 17
p: 2  seed: 1  target: 2^9
hypothesis: e=1  m=4  t=2
trace:
  n=0  a_n=1  nu(f(a_n))=4
  n=1  a_n=9  nu(f(a_n))=6
  n=2  a_n=233  nu(f(a_n))=10
root: 233
nu(root - seed): 3
uniqueness: only root z with nu(z - seed) > 1
verified: true
""",
    ("5", "1", "x^2 - 27*x + 26"): """\
polynomial: x^2 - 27*x + 26
p: 5  seed: 1  target: 5^1
hypothesis: e=2  m=inf (seed is an exact root)
root: 1
nu(root - seed): inf
uniqueness: only root z with nu(z - seed) > 2
verified: true
""",
}

LIFT_RECORDS = {
    ("5", "4", "x^2 - 6"): {
        "p": 5, "f": ["-6", "0", "1"], "a": "1", "K": 4, "e": 0, "m": 1, "t": 1,
        "trace": [[0, 1, 1], [1, 16, 3], [2, 516, 4]],
        "root": 516, "checks_passed": True,
    },
    ("2", "9", "x^2 - 17"): {
        "p": 2, "f": ["-17", "0", "1"], "a": "1", "K": 9, "e": 1, "m": 4, "t": 2,
        "trace": [[0, 1, 4], [1, 9, 6], [2, 233, 10]],
        "root": 233, "checks_passed": True,
    },
    ("5", "1", "x^2 - 27*x + 26"): {
        "p": 5, "f": ["26", "-27", "1"], "a": "1", "K": 1, "e": 2, "m": None,
        "t": None, "trace": [], "root": 1, "checks_passed": True,
    },
}


def test_lift_output_is_pinned(capsys):
    for (p, k, poly), text in LIFT_TEXT.items():
        argv = ("lift", "-p", p, "-K", k, "--poly", poly, "--seed", "1")
        assert run_cli(capsys, *argv) == (0, text, "")
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert out == json.dumps(LIFT_RECORDS[(p, k, poly)], indent=2) + "\n"


def test_error_precedence(capsys):
    # the prime is checked before the rational is parsed
    code, _, err = run_cli(capsys, "val", "-p", "4", "three")
    assert code == 3 and err == "error: p must be prime, got 4\n"
    # the polynomial is parsed before the seed
    code, _, err = run_cli(
        capsys, "lift", "-p", "5", "-K", "3", "--poly", "x**2", "--seed", "1/0"
    )
    assert code == 2 and err == "error: cannot parse term 'x**2' in 'x**2'\n"


def test_internal_bound_violation_exit_code(capsys, monkeypatch):
    def broken_lift(f, a, k):
        raise InternalBoundViolation("induction bound broken at step 1")

    monkeypatch.setattr(cli.hensel, "lift", broken_lift)
    code, out, err = run_cli(
        capsys, "lift", "-p", "5", "-K", "4", "--poly", "x^2 - 6", "--seed", "1"
    )
    assert (code, out) == (6, "")
    assert err == "error: induction bound broken at step 1\n"


def test_rationals_follow_the_documented_grammar(capsys):
    # Fraction() alone also reads decimals, underscores, spaces and
    # exponents; 1e100000000 would build a 10**100000000 before failing
    with time_limit(5):
        for text in ("0.04", "1_000", " 3 ", "1e100000000", "1/0"):
            code, out, err = run_cli(capsys, "val", "-p", "5", text)
            assert (code, out) == (2, "") and err.startswith("error: cannot parse")
    for text, want in (("-1", "0\n"), ("+3", "0\n"), ("3/8", "-3\n")):
        assert run_cli(capsys, "val", "-p", "2", text) == (0, want, "")


def test_integer_options_follow_the_documented_grammar(capsys):
    # int() alone also reads underscores, spaces and non-ASCII digits
    for argv in (
        ("digits", "-p", "5", "-N", "1_0", "3"),
        ("digits", "-p", "5", "-N", " 4 ", "3"),
        ("digits", "-p", "5", "-N", "0", "3"),
        ("val", "-p", "\uff15", "3"),
        ("crosscheck", "-p", "5", "-K", "2", "--trials", "\u0663", "--seed", "1_0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "error: argument" in err
    code, out, _ = run_cli(capsys, "digits", "-p", "5", "-N", "10", "3")
    assert (code, out) == (0, "...0000000003\n")
    assert run_cli(capsys, "val", "-p", "5", "25") == (0, "2\n", "")
    code, out, _ = run_cli(capsys, "crosscheck", "-p", "5", "-K", "2",
                           "--trials", "3", "--seed", "-3")
    assert code == 0 and out.startswith("trials: 3\n")


def test_results_past_the_int_str_limit_print(capsys):
    limit = sys.get_int_max_str_digits()
    argv = ("lift", "-p", "101", "-K", "2200", "--poly", "x^2 - 6", "--seed", "39")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)  # the root has more than 4300 digits
    try:
        record = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    cert = certificate_from_record(record)
    assert cert.checks_passed and len(out) > limit
    assert cert == lift(parse_poly("x^2 - 6", 101), 39, 2200)
    argv = ("eval", "-p", "101", "-N", "2500", "--poly", "x^2 - 6", "1/3")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("p: 101\nform: unit\n")
    assert sys.get_int_max_str_digits() == limit


def test_lift_refuses_a_modulus_past_the_bound(capsys):
    # 5^86136 is the least power of 5 above 2^MAX_MODULUS_BITS
    with time_limit(5):
        code, out, err = run_cli(
            capsys, "lift", "-p", "5", "-K", "86136", "--poly", "x^2 - 6", "--seed", "1"
        )
    assert code == 2 and out == "" and "exceeds the modulus bound" in err


@pytest.mark.parametrize("argv, first", [
    (("digits", "-p", "5", "-N", "{}", "1/3"), 86136),
    (("eval", "-p", "5", "-N", "{}", "--poly", "x^2 - 6", "1"), 86136),
    (("crosscheck", "-p", "5", "-K", "{}", "--trials", "1"), 86128),
], ids=["digits", "eval", "crosscheck"])
def test_a_precision_past_the_modulus_bound_exits_2(capsys, argv, first):
    # 5^86136 is the least power of 5 above 2^MAX_MODULUS_BITS, and
    # crosscheck embeds at K + 8 digits; a power of 5^(10^7) alone takes
    # seconds and hundreds of MB to build and print
    for exponent in (first, 10**7, 10**8):
        with time_limit(1):
            code, out, err = run_cli(capsys, *(a.format(exponent) for a in argv))
        assert code == 2 and out == ""
        assert f"5^{exponent + 86136 - first} exceeds the modulus bound" in err
