"""Exact p-adic arithmetic with certified Hensel lifting.

Layers, bottom up: valuations and norms on exact rationals
(:mod:`padic.valuation`), capped-relative-precision elements of Q_p with
digit expansions (:mod:`padic.number`), polynomials over the p-adic
integers (:mod:`padic.polynomial`), the certified Newton lifter
(:mod:`padic.hensel`), and a brute-force oracle over Z/p^k Z used to
cross-validate everything else (:mod:`padic.oracle`).  The ``padic``
console script exposes the lot.
"""

from .errors import (
    DerivativeVanishes,
    DivisionByZero,
    DomainTooLarge,
    HypothesisFailed,
    IndeterminateValuation,
    InsufficientPrecision,
    InternalBoundViolation,
    NotAnInteger,
    NotPrime,
    PadicError,
    PrecisionExhausted,
    ZeroHasNoExpansion,
)
from .hensel import (
    HenselCertificate,
    Hypothesis,
    LiftStep,
    VerificationResult,
    certificate_from_record,
    certificate_to_record,
    check_hypothesis,
    lift,
    newton_step,
    unique_in_neighborhood,
    verify_certificate,
)
from .number import DEFAULT_PRECISION, DigitExpansion, Form, PadicNumber, rational_residue
from .oracle import CrosscheckReport, OracleReport, crosscheck_arith, enumerate_roots
from .polynomial import PadicPoly, divided_difference, parse_poly, taylor_remainder
from .valuation import (
    ExtVal,
    ext_val_rat,
    is_prime,
    padic_norm_rat,
    padic_val_int,
    padic_val_rat,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRECISION",
    "CrosscheckReport",
    "DerivativeVanishes",
    "DigitExpansion",
    "DivisionByZero",
    "DomainTooLarge",
    "ExtVal",
    "Form",
    "HenselCertificate",
    "Hypothesis",
    "HypothesisFailed",
    "IndeterminateValuation",
    "InsufficientPrecision",
    "InternalBoundViolation",
    "LiftStep",
    "NotAnInteger",
    "NotPrime",
    "OracleReport",
    "PadicError",
    "PadicNumber",
    "PadicPoly",
    "PrecisionExhausted",
    "VerificationResult",
    "ZeroHasNoExpansion",
    "certificate_from_record",
    "certificate_to_record",
    "check_hypothesis",
    "crosscheck_arith",
    "divided_difference",
    "enumerate_roots",
    "ext_val_rat",
    "is_prime",
    "lift",
    "newton_step",
    "padic_norm_rat",
    "padic_val_int",
    "padic_val_rat",
    "parse_poly",
    "rational_residue",
    "taylor_remainder",
    "unique_in_neighborhood",
    "verify_certificate",
]
