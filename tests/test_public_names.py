import padic

# every public name; a new one is a deliberate change to this list
PUBLIC_NAMES = [
    "CrosscheckReport", "DEFAULT_PRECISION", "DerivativeVanishes", "DigitExpansion",
    "DivisionByZero", "DomainTooLarge", "ExtVal", "Form", "HenselCertificate", "Hypothesis",
    "HypothesisFailed", "IndeterminateValuation", "InsufficientPrecision",
    "InternalBoundViolation", "LiftStep", "NotAnInteger", "NotPrime", "OracleReport",
    "PadicError", "PadicNumber", "PadicPoly", "PrecisionExhausted", "VerificationResult",
    "ZeroHasNoExpansion", "certificate_from_record", "certificate_to_record",
    "check_hypothesis", "crosscheck_arith", "divided_difference", "enumerate_roots",
    "is_prime", "lift", "padic_norm_rat", "padic_val_int", "padic_val_rat", "parse_poly",
    "rational_residue", "taylor_remainder", "unique_in_neighborhood", "verify_certificate",
]


def test_the_public_surface_is_pinned():
    assert sorted(padic.__all__) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 40
    assert all(hasattr(padic, name) for name in PUBLIC_NAMES)
