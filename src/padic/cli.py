"""Command-line surface: valuations, norms, digit expansions, lifts, oracle.

Exit codes: 0 ok, 1 crosscheck found a mismatch, 2 parse/argument error,
3 non-prime p, 4 zero has no expansion, 5 lifting hypothesis failed,
6 internal bound violation, 7 past the oracle's work bound or output bound.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import hensel, oracle
from .errors import (
    DerivativeVanishes,
    DomainTooLarge,
    HypothesisFailed,
    InternalBoundViolation,
    NotPrime,
    PadicError,
    ZeroHasNoExpansion,
)
from .number import DEFAULT_PRECISION, Form, PadicNumber
from .polynomial import parse_poly
from .valuation import check_prime, padic_norm_rat, padic_val_rat

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_PRIME = 3
EXIT_ZERO_EXPANSION = 4
EXIT_HYPOTHESIS = 5
EXIT_INTERNAL = 6
EXIT_DOMAIN = 7

# the documented grammar, in ASCII digits: nothing int() or Fraction() also
# reads (spaces, underscores, decimals, exponents, other scripts' digits)
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# first match wins, so the catch-all parse row comes last
_EXIT_CODES = (
    (NotPrime, EXIT_NOT_PRIME),
    ((HypothesisFailed, DerivativeVanishes), EXIT_HYPOTHESIS),
    (InternalBoundViolation, EXIT_INTERNAL),
    (DomainTooLarge, EXIT_DOMAIN),
    (ZeroHasNoExpansion, EXIT_ZERO_EXPANSION),
    ((PadicError, ValueError), EXIT_PARSE),
)

# the exponent of the largest power of p a command builds from its precision
# option; lift bounds its own K
_POWER_EXPONENT = {
    "digits": lambda args: args.N,
    "eval": lambda args: args.N,
    "crosscheck": lambda args: args.k + oracle.CROSSCHECK_GUARD,
}


def _integer(text: str) -> int:
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    prime_flags = argparse.ArgumentParser(add_help=False)
    prime_flags.add_argument("-p", type=_integer, required=True, metavar="P",
                             help="prime base")
    prime_flags.add_argument("--json", action="store_true",
                             help="emit JSON instead of text")
    rel_flags = argparse.ArgumentParser(add_help=False)
    rel_flags.add_argument("-N", type=_positive_int, default=DEFAULT_PRECISION,
                           metavar="N", help="relative precision in digits")
    abs_flags = argparse.ArgumentParser(add_help=False)
    abs_flags.add_argument("-K", "-k", dest="k", type=_positive_int,
                           required=True, metavar="K",
                           help="absolute precision exponent (work mod p^K)")

    parser = argparse.ArgumentParser(
        prog="padic",
        description="Exact p-adic arithmetic, digit expansions, and "
                    "certified root lifting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("val", parents=[prime_flags],
                         help="p-adic valuation of a rational")
    cmd.add_argument("rational")
    cmd.set_defaults(handler=_cmd_val)

    cmd = sub.add_parser("norm", parents=[prime_flags],
                         help="p-adic norm of a rational")
    cmd.add_argument("rational")
    cmd.set_defaults(handler=_cmd_norm)

    cmd = sub.add_parser("digits", parents=[prime_flags, rel_flags],
                         help="digit expansion of a nonzero rational")
    cmd.add_argument("rational")
    cmd.set_defaults(handler=_cmd_digits)

    cmd = sub.add_parser("eval", parents=[prime_flags, rel_flags],
                         help="evaluate a polynomial at a p-adic integer")
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("rational")
    cmd.set_defaults(handler=_cmd_eval)

    cmd = sub.add_parser("lift", parents=[prime_flags, abs_flags],
                         help="certified root lifting from a seed")
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--seed", required=True)
    cmd.set_defaults(handler=_cmd_lift)

    cmd = sub.add_parser("oracle", parents=[prime_flags, abs_flags],
                         help="brute-force root enumeration mod p^k")
    cmd.add_argument("--poly", required=True)
    cmd.set_defaults(handler=_cmd_oracle)

    cmd = sub.add_parser("crosscheck", parents=[prime_flags, abs_flags],
                         help="compare ring ops against rational arithmetic")
    cmd.add_argument("--trials", type=_positive_int, default=1000)
    cmd.add_argument("--seed", dest="rng_seed", type=_integer, default=0)
    cmd.set_defaults(handler=_cmd_crosscheck)

    return parser


def _rational(text: str, what: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"cannot parse {what} {text!r}: expected an integer or a/b")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}")


def _emit(args: argparse.Namespace, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_val(p: int, args) -> int:
    q = _rational(args.rational, "rational")
    v = padic_val_rat(p, q)
    _emit(args, {"p": p, "q": str(q), "valuation": v}, str(v))
    return EXIT_OK


def _cmd_norm(p: int, args) -> int:
    q = _rational(args.rational, "rational")
    if q == 0:
        _emit(args, {"p": p, "q": str(q), "valuation": None,
                    "norm": "0", "norm_decimal": 0.0}, "0")
        return EXIT_OK
    v, norm = padic_val_rat(p, q), padic_norm_rat(p, q)
    # a norm past float range has no decimal: too large a one overflows,
    # and too small a one reads 0.0, which only the zero norm may print
    try:
        decimal = float(norm) or None
    except OverflowError:
        decimal = None
    text = f"{p}^{-v} = {norm}"
    if norm.denominator != 1 and decimal is not None:
        text += f" = {decimal:.6g}"
    _emit(
        args,
        {"p": p, "q": str(q), "valuation": v,
         "norm": str(norm), "norm_decimal": decimal},
        text,
    )
    return EXIT_OK


def _cmd_digits(p: int, args) -> int:
    x = PadicNumber.from_rational(p, _rational(args.rational, "rational"), args.N)
    expansion = x.digits()  # raises ZeroHasNoExpansion on zero input
    _emit(
        args,
        {"p": p, "start": expansion.start,
         "digits": list(expansion.digits), "text": str(expansion)},
        str(expansion),
    )
    return EXIT_OK


def _cmd_eval(p: int, args) -> int:
    q = _rational(args.rational, "rational")
    poly = parse_poly(args.poly, p)
    value = poly.eval(PadicNumber.from_rational(p, q, args.N))
    record = value.to_record()
    payload = dict(record)
    lines = [f"{key}: {record[key]}" for key in record]
    if value.form is Form.UNIT:
        expansion = value.digits()
        payload["digits"] = list(expansion.digits)
        lines.append(f"digits: {expansion}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _format_certificate(cert: hensel.HenselCertificate) -> str:
    hyp = cert.hypothesis
    lines = [
        f"polynomial: {cert.f}",
        f"p: {cert.p}  seed: {cert.a}  target: {cert.p}^{cert.k}",
    ]
    if hyp.degenerate:
        lines.append(f"hypothesis: e={hyp.e}  m=inf (seed is an exact root)")
    else:
        lines.append(f"hypothesis: e={hyp.e}  m={hyp.m}  t={hyp.t}")
    if cert.trace:
        lines.append("trace:")
        for step in cert.trace:
            val = "inf" if step.val_f is None else step.val_f
            lines.append(f"  n={step.n}  a_n={step.residue}  nu(f(a_n))={val}")
    lines.append(f"root: {cert.root}")
    dist = "inf" if cert.dist_exponent is None else cert.dist_exponent
    lines.append(f"nu(root - seed): {dist}")
    lines.append(f"uniqueness: only root z with nu(z - seed) > {hyp.e}")
    lines.append(f"verified: {str(cert.checks_passed).lower()}")
    return "\n".join(lines)


def _cmd_lift(p: int, args) -> int:
    poly = parse_poly(args.poly, p)
    cert = hensel.lift(poly, _rational(args.seed, "seed"), args.k)
    _emit(args, hensel.certificate_to_record(cert), _format_certificate(cert))
    return EXIT_OK if cert.checks_passed else EXIT_INTERNAL


def _cmd_oracle(p: int, args) -> int:
    report = oracle.enumerate_roots(parse_poly(args.poly, p), args.k)
    _emit(
        args,
        {"p": report.p, "k": report.k, "roots": list(report.roots)},
        " ".join(str(r) for r in report.roots),
    )
    return EXIT_OK


def _cmd_crosscheck(p: int, args) -> int:
    report = oracle.crosscheck_arith(p, args.k, args.trials, args.rng_seed)
    text = (
        f"trials: {report.trials}\nchecked: {report.checked}\n"
        f"mismatches: {len(report.mismatches)}"
    )
    _emit(
        args,
        {"p": report.p, "k": report.k, "trials": report.trials,
         "checked": report.checked, "mismatches": list(report.mismatches)},
        text,
    )
    return EXIT_OK if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # deep lifts print integers past Python's default int/str digit limit;
    # inputs stay bounded because the OS caps the size of argv
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        p = check_prime(args.p)
        if args.command in _POWER_EXPONENT:
            # refuse a power past the modulus bound before anything builds it
            hensel._require_fit(p, _POWER_EXPONENT[args.command](args))
        return args.handler(p, args)
    except (PadicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
