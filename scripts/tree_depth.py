#!/usr/bin/env python3
"""Time the oracle's root tree where it goes deep, and count its nodes.

Prints one JSON object per case, with the best of ``--reps`` calls of
``_root_tree`` in seconds, the nodes it expanded and what it returned:

* (x - a)^2 over 2 at k = bits/4, bits/2 and bits, one node per level
  until its ball vanishes whole;
* x^2 - 6 over 5 at k = bits/2, whose two simple roots are lifted inside
  the root node;
* the seven double roots mod 2^bits of
  ``tests/test_oracle.py::test_several_double_roots_are_refused_while_the_tree_runs``,
  refused by the tree's charge at bits = 2000: the time until the
  refusal, or until the balls where the work bound admits them;
* x^1008 - 1 over 1009 at k = bits/10, whose 1008 simple roots are
  lifted inside the root node until the charge refuses them.

    python scripts/tree_depth.py
    python scripts/tree_depth.py --bits 400 --reps 1
"""

import argparse
import json
import random
import time
from fractions import Fraction

import padic.oracle
from padic import DomainTooLarge, PadicPoly, parse_poly


def product(factors):
    f = [1]
    for factor in factors:
        out = [0] * (len(f) + len(factor) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        f = out
    return [Fraction(c) for c in f]


def run(case, f, k, reps):
    nodes = []
    node = padic.oracle._node

    def counting(*args):
        nodes.append(args)
        return node(*args)

    padic.oracle._node = counting
    times = []
    try:
        for _ in range(reps):
            nodes.clear()
            start = time.perf_counter()
            try:
                outcome = {"balls": len(padic.oracle._root_tree(f, k))}
            except DomainTooLarge as exc:
                outcome = {"refused": str(exc)}
            times.append(time.perf_counter() - start)
    finally:
        padic.oracle._node = node
    print(json.dumps({"case": case, "p": f.p, "k": k, "seconds": round(min(times), 4),
                      "nodes": len(nodes), **outcome}), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bits", type=int, default=2000, help="the largest k at p = 2")
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    bits, reps = args.bits, args.reps
    a = random.Random(1).getrandbits(bits)
    for k in (bits // 4, bits // 2, bits):
        run("(x - a)^2", PadicPoly(2, product([(a * a, -2 * a, 1)])), k, reps)
    run("x^2 - 6", parse_poly("x^2 - 6", 5), bits // 2, reps)
    rng = random.Random(14)
    roots = [rng.getrandbits(bits) for _ in range(7)]
    run("seven double roots", PadicPoly(2, product((x * x, -2 * x, 1) for x in roots)),
        bits, reps)
    run("x^1008 - 1", parse_poly("x^1008 - 1", 1009), max(1, bits // 10), reps)


if __name__ == "__main__":
    main()
