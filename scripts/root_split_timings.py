#!/usr/bin/env python3
"""Time the two ways the oracle finds the roots mod p of one reduced node.

For each (p, degree) point, draws random monic polynomials mod p and times
the scan of every residue and the split of gcd(g, t^p - t), best of
``--reps`` calls each, and reports which one ``_roots_mod_p`` picks.  Prints
one JSON object per point; the two paths must agree on every root.

    python scripts/root_split_timings.py --points 257,20 1009,200 16411,400
"""

import argparse
import json
import random
import time

from padic.oracle import _gcd_roots_mod_p, _scan_roots_mod_p, _scans

DEFAULT_POINTS = (
    "53,3 101,3 131,3 191,3 257,3 1009,3 101,5 191,5 257,5 1009,5 "
    "101,10 191,10 257,10 1009,10 191,20 257,20 1009,20 257,40 1009,40 "
    "4099,40 257,100 1009,100 4099,100 1009,200 4099,200 4099,400 16411,400"
).split()


def best_ms(fn, g, p, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        roots = fn(g, p)
        times.append(time.perf_counter() - start)
    return min(times) * 1e3, sorted(roots)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", nargs="+", default=DEFAULT_POINTS, help="p,degree pairs")
    parser.add_argument("--polys", type=int, default=3, help="polynomials per point")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    for point in args.points:
        p, degree = map(int, point.split(","))
        scan_ms = gcd_ms = 0.0
        for _ in range(args.polys):
            g = [rng.randrange(p) for _ in range(degree)] + [1]
            ms, scan_roots = best_ms(_scan_roots_mod_p, g, p, args.reps)
            scan_ms += ms
            ms, gcd_roots = best_ms(_gcd_roots_mod_p, g, p, args.reps)
            gcd_ms += ms
            if scan_roots != gcd_roots:
                raise SystemExit(f"the two paths disagree at p = {p} on {g}")
        print(json.dumps({
            "p": p,
            "degree": degree,
            "scan_ms": round(scan_ms / args.polys, 3),
            "gcd_ms": round(gcd_ms / args.polys, 3),
            "picked": "scan" if _scans(p, degree) else "gcd",
        }), flush=True)


if __name__ == "__main__":
    main()
