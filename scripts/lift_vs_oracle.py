#!/usr/bin/env python3
"""Randomized agreement experiment: certified lifting vs the oracle's root list.

Draws random polynomials over small primes, lifts every seed satisfying
the weak hypothesis (f(a) = 0 and f'(a) != 0 mod p), and checks each root
against the oracle's list of every root modulo p^k.  Prints per-prime counts,
trace-length statistics, and timing.

    python scripts/lift_vs_oracle.py --primes 3 5 7 --trials 200 -k 5
"""

import argparse
import random
import time
from fractions import Fraction

from padic import (
    DerivativeVanishes,
    HypothesisFailed,
    PadicPoly,
    check_hypothesis,
    enumerate_roots,
    lift,
    unique_in_neighborhood,
)


def simple_seed(f: PadicPoly, a: int) -> bool:
    """Whether f(a) = 0 and f'(a) != 0 mod p, that is, e = 0 at a."""
    try:
        return check_hypothesis(f, a).e == 0
    except (HypothesisFailed, DerivativeVanishes):
        return False


def run_prime(p: int, k: int, trials: int, max_degree: int, rng: random.Random):
    lifts = 0
    mismatches = 0
    trace_lengths = []
    start = time.perf_counter()
    for _ in range(trials):
        degree = rng.randint(2, max_degree)
        coeffs = tuple(Fraction(rng.randint(0, p**2)) for _ in range(degree))
        f = PadicPoly(p, coeffs + (Fraction(1),))
        seeds = [a for a in range(p) if simple_seed(f, a)]
        if not seeds:
            continue
        report = enumerate_roots(f, k)
        for a in seeds:
            cert = lift(f, a, k)
            lifts += 1
            trace_lengths.append(len(cert.trace))
            descendants = [r for r in report.roots if r % p == a]
            if descendants != [cert.root] or not cert.checks_passed:
                mismatches += 1
            if not all(unique_in_neighborhood(f, cert, r) for r in report.roots):
                mismatches += 1
    elapsed = time.perf_counter() - start
    return lifts, mismatches, trace_lengths, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    parser.add_argument("-k", type=int, default=5, help="work modulo p^k")
    parser.add_argument("--trials", type=int, default=200,
                        help="random polynomials per prime")
    parser.add_argument("--max-degree", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    total_mismatches = 0
    for p in args.primes:
        lifts, mismatches, lengths, elapsed = run_prime(
            p, args.k, args.trials, args.max_degree, rng
        )
        total_mismatches += mismatches
        longest = max(lengths) if lengths else 0
        mean = sum(lengths) / len(lengths) if lengths else 0.0
        print(
            f"p={p:>3}  lifts={lifts:>5}  mismatches={mismatches}  "
            f"trace mean={mean:.2f} max={longest}  ({elapsed:.2f}s)"
        )
    print("agreement:", "OK" if total_mismatches == 0 else "FAILED")
    return 0 if total_mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
