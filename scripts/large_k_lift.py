#!/usr/bin/env python3
"""Time certified lifting at large k, and the division that bounds it.

For each case, prints the best of ``--reps`` runs of ``lift`` (which runs
its own verify) and of a separate ``verify_certificate`` on its record,
and the best time of one 2n-by-n reduction at that case's p**k, by the
builtin ``divmod`` and by the library's recursive ``_divmod``.  Then, for
each ``--bits`` size, the same two reductions on random operands: the
crossover that sets ``number._DIVMOD_BITS``.  One JSON object per line.

    python scripts/large_k_lift.py
    python scripts/large_k_lift.py --cases 5,x^2-6,1,16000 --bits 6000 8000 12000
"""

import argparse
import json
import random
import sys
import time

from padic import (certificate_from_record, certificate_to_record, lift, parse_poly,
                   verify_certificate)
from padic.number import _DIVMOD_BITS, _divmod

# sqrt(6) in Z_5 at growing k, and lift-deep's slowest stratum: degree 2
# at p = 101, k = 4000, a 26,633-bit p**k
DEFAULT_CASES = ("5,x^2-6,1,4000", "5,x^2-6,1,16000", "5,x^2-6,1,64000", "101,x^2+1,10,4000")
DEFAULT_BITS = (4000, 6000, 8000, 10000, 12000, 16000, 26633, 37000, 60000, 150000)


def best_ms(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e3, 3), out


def division_ms(b, reps, rng):
    """Best ms of divmod and of _divmod on a 2n-bit dividend by the n-bit b."""
    a = rng.getrandbits(2 * b.bit_length())
    builtin, want = best_ms(lambda: divmod(a, b), reps)
    recursive, got = best_ms(lambda: _divmod(a, b), reps)
    if got != want:
        raise SystemExit(f"_divmod disagrees with divmod at {b.bit_length()} bits")
    return builtin, recursive


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", nargs="*", default=DEFAULT_CASES,
                        help="p,polynomial,seed,k quadruples")
    parser.add_argument("--bits", nargs="*", type=int, default=DEFAULT_BITS,
                        help="divisor sizes for the crossover table")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.set_int_max_str_digits(0)
    rng = random.Random(args.seed)
    for case in args.cases:
        p, poly, seed, k = case.split(",")
        p, k = int(p), int(k)
        f = parse_poly(poly, p)
        lift_ms, cert = best_ms(lambda: lift(f, seed, k), args.reps)
        record = json.loads(json.dumps(certificate_to_record(cert)))
        verify_ms, ok = best_ms(lambda: verify_certificate(certificate_from_record(record)),
                                args.reps)
        if not (cert.checks_passed and ok):
            raise SystemExit(f"{case} did not verify")
        builtin, recursive = division_ms(p**k, args.reps, rng)
        print(json.dumps({"p": p, "f": poly, "seed": seed, "k": k,
                          "modulus_bits": (p**k).bit_length(), "lift_ms": lift_ms,
                          "verify_ms": verify_ms, "divmod_ms": builtin,
                          "_divmod_ms": recursive}), flush=True)
    for bits in args.bits:
        b = rng.getrandbits(bits) | 1 << (bits - 1)
        builtin, recursive = division_ms(b, args.reps, rng)
        print(json.dumps({"bits": bits, "divmod_ms": builtin, "_divmod_ms": recursive,
                          "recurses": bits >= _DIVMOD_BITS}), flush=True)


if __name__ == "__main__":
    main()
