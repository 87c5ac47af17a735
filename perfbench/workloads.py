"""The four workloads: seeded inputs, one operation each, and its check.

Every workload draws its inputs from ``random.Random`` seeded by a string
made of the workload name, the benchmark seed and a round number, so the
same seed gives the same inputs in any process.  A round is a fixed,
balanced set of strata (prime, precision, input family).  What sets an
operation's cost (degree, domain size, valuations, rational or integer
input) is fixed by the stratum, not by the seed or the round, so every
round has the same mix of cheap and expensive operations and the seed
changes only the concrete numbers.

Each workload exposes ``round(r)`` (the operations of round r),
``run(op)`` (executes one operation through the public API and returns
its output, its timed seconds and named part timings) and
``check(op, out)`` (None, or why the output is wrong, decided by
:mod:`reference` alone).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import reference as ref

clock = time.perf_counter


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _unit(rng: random.Random, p: int, hi: int) -> int:
    """A random integer in [1, hi] coprime to p."""
    while True:
        u = rng.randint(1, hi)
        if u % p:
            return u


def _signed_unit(rng, p, hi):
    return _unit(rng, p, hi) * rng.choice((1, -1))


def lifting_poly(rng, p: int, d: int, e: int, m: int, a: Fraction) -> tuple[Fraction, ...]:
    """A degree-d polynomial with nu(f'(a)) = e and nu(f(a)) = m exactly.

    Starting from a random h, f = h - h(a) - h'(a)(x - a) + u p^e (x - a)
    + w p^m with units u, w, so f(a) = w p^m and f'(a) = u p^e.
    """
    h = [Fraction(rng.randint(-p * p, p * p)) for _ in range(d)]
    h.append(Fraction(_signed_unit(rng, p, p * p)))
    hd = [(i + 1) * h[i + 1] for i in range(d)]
    ha, hda = ref.horner_exact(h, a), ref.horner_exact(hd, a)
    u, w = _signed_unit(rng, p, p * p), _signed_unit(rng, p, p * p)
    c = list(h)
    c[0] += -ha + hda * a - u * p**e * a + w * p**m
    c[1] += -hda + u * p**e
    return tuple(c)


def _poly_text(coeffs) -> str:
    """Polynomial in the CLI grammar: integer or a/b coefficients, x^k."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c == 0:
            continue
        mag = abs(c)
        xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        body = str(mag) if not xs else (xs if mag == 1 else f"{mag}*{xs}")
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {s} {b}" for s, b in terms[1:])


# ----- lift-deep ------------------------------------------------------------

LIFT_PRIMES = (2, 3, 5, 7, 101)
LIFT_KS = (500, 1000, 2000, 4000)
# d * k * log2(p) above this makes one operation cost seconds; the degree
# is capped (never below 2) so a round stays a few seconds long.
LIFT_MAX_BITS = 24_000
MUTATIONS = ("root", "trace_residue", "trace_val", "m", "t", "K", "a")
TAMPER_SHARE = 0.25


class LiftDeep:
    name = "lift-deep"
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        import padic
        self.padic = padic

    def round(self, r: int) -> list[dict]:
        rng = _rng(self.name, self.seed, r)
        strata = [(p, k) for p in LIFT_PRIMES for k in LIFT_KS]
        ops = [self._case(rng, p, k, i) for i, (p, k) in enumerate(strata)]
        # an odd number of strata puts the median inside one stratum's copies
        c = 17 + 32 * rng.randrange(10**6)  # x^2 - c over 2: e = 1, m = 4 at a = 1
        ops.append({"p": 2, "k": 2000, "coeffs": (Fraction(-c), Fraction(0), Fraction(1)),
                    "a": Fraction(1), "e": 1, "m": 4, "t": 2, "tamper": _tamper(rng)})
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _case(rng, p: int, k: int, slot: int) -> dict:
        e = (0, 0, 1, 0, 2)[slot // 2 % 5]
        t = 1 + slot // 3 % 3
        d_cap = max(2, min(6, int(LIFT_MAX_BITS // (k * math.log2(p)))))
        d = 2 + slot % (d_cap - 1)
        if slot % 4 == 1:
            a = Fraction(rng.randrange(p * p), _unit(rng, p, 9))
        else:
            a = Fraction(rng.randrange(p))
        coeffs = lifting_poly(rng, p, d, e, 2 * e + t, a)
        if slot % 3 == 2:  # a unit denominator changes no valuation
            s = _unit(rng, p, 50)
            coeffs = tuple(c / s for c in coeffs)
        return {"p": p, "k": k, "coeffs": coeffs, "a": a, "e": e, "m": 2 * e + t,
                "t": t, "tamper": _tamper(rng)}

    def warm_up(self):
        op = self._case(random.Random("warm-up"), 5, 50, 0)
        self.check(op, self.run(op)[0])

    def run(self, op):
        pd = self.padic
        f = pd.PadicPoly(op["p"], op["coeffs"])
        t0 = clock()
        cert = pd.lift(f, op["a"], op["k"])
        t1 = clock()
        record = json.loads(json.dumps(pd.certificate_to_record(cert)))
        t2 = clock()
        tamper = apply_tamper(op, cert, record)  # untimed: benchmark-side work
        t3 = clock()
        checked = pd.certificate_from_record(record)
        t4 = clock()
        verdict = pd.verify_certificate(checked)
        t5 = clock()
        out = {"cert": cert, "record": record, "verdict": verdict, "tamper": tamper}
        parts = {"lift_ms": t1 - t0, "verify_ms": t5 - t4}
        return out, (t2 - t0) + (t5 - t3), parts

    def check(self, op, out) -> str | None:
        cert, verdict, tamper = out["cert"], out["verdict"], out["tamper"]
        p, k, e, m, t = op["p"], op["k"], op["e"], op["m"], op["t"]
        hyp = cert.hypothesis
        if (hyp.e, hyp.m, hyp.t) != (e, m, t):
            return f"hypothesis ({hyp.e}, {hyp.m}, {hyp.t}), expected ({e}, {m}, {t})"
        bad = ref.root_error(op["coeffs"], p, op["a"], k, e, cert.root)
        if bad:
            return bad
        if not cert.checks_passed:
            return "lift did not pass its own verification"
        want_dist = m - e if m - e < k else None
        if cert.dist_exponent != want_dist:
            return f"dist_exponent {cert.dist_exponent}, expected {want_dist}"
        seed_res = ref.residue(op["a"], p**k)
        if cert.trace[0].residue != seed_res or cert.trace[-1].residue != cert.root:
            return "trace does not run from the seed to the root"
        if tamper is None:
            return None if verdict else f"valid record rejected: {verdict.failures}"
        return f"tampered record accepted ({tamper})" if verdict else None


def _tamper(rng):
    if rng.random() < TAMPER_SHARE:
        return (rng.choice(MUTATIONS), rng.random())
    return None


def apply_tamper(op, cert, record) -> str | None:
    """Change one value so the record makes a false claim; returns the kind.

    Every mutation is checked to be false by the reference: a changed root
    or trace residue is not the Newton iterate, a changed valuation or
    hypothesis exponent is not the exact valuation, a changed seed is not
    the trace's start, and a raised K claims digits of the root that the
    residue gets wrong.  K is raised until f(root) is nonzero mod p**K
    itself: for e >= 1 a smaller raise is already false (the claim needs
    p**(K + e)), but verify_certificate accepts it, a known defect that
    test_perfbench.py keeps as a strict xfail so every op here can pass.
    """
    if op["tamper"] is None:
        return None
    kind, u = op["tamper"]
    p, k = op["p"], op["k"]
    trace = record["trace"]
    if kind == "K":
        for j in range(1, 65):
            if ref.horner_mod(op["coeffs"], cert.root, p ** (k + j)):
                record["K"] = k + j
                return "K"
        kind = "root"  # the root is exact: no raise of K makes a false claim
    if kind == "trace_val":
        steps = [s for s in trace if s[2] is not None and s[2] < k]
        if not steps:
            kind = "root"
        else:
            step = steps[int(u * len(steps))]
            step[2] += 1 if u < 0.5 else -1
            return kind
    if kind == "root":
        record["root"] = (record["root"] + 1) % p**k
    elif kind == "trace_residue":
        step = trace[int(u * len(trace))]
        step[1] = (step[1] + 1) % p**k
    elif kind in ("m", "t"):
        record[kind] += 1
    elif kind == "a":
        record["a"] = str(Fraction(record["a"]) + 1)
    return kind


# ----- oracle-sweep ---------------------------------------------------------

ORACLE_PRIMES = (2, 3, 5, 7)
# per round and prime, one scan at the largest p^k below each of these
DOMAIN_TIERS = (3 * 10**4, 10**6, 10**7)
ORACLE_FAMILIES = ("random", "random", "dense", "rootfree")
SCAN_CHECK_LIMIT = 20_000


class OracleSweep:
    name = "oracle-sweep"
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        import padic
        self.padic = padic

    def round(self, r: int) -> list[dict]:
        rng = _rng(self.name, self.seed, r)
        strata = [(p, tier) for p in ORACLE_PRIMES for tier in DOMAIN_TIERS]
        ops = []
        for i, (p, tier) in enumerate(strata):
            k = max(k for k in range(1, 40) if p**k < tier)
            ops.append(self._case(rng, p, k, ORACLE_FAMILIES[i % len(ORACLE_FAMILIES)], i))
        # a 13th stratum puts the median inside one stratum's copies:
        # (x - a)^2 mod 2^22 has 2048 roots
        ops.append(self._case(rng, 2, 22, "dense", 0))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _case(rng, p: int, k: int, family: str, slot: int) -> dict:
        if family == "dense":
            # (x - a)^2 * g has p^floor(k/2) roots near a alone
            a = rng.randrange(p**k)
            g = [Fraction(rng.randint(0, p * p)) for _ in range(slot % 2)] + [Fraction(1)]
            coeffs = _poly_mul((Fraction(a * a), Fraction(-2 * a), Fraction(1)), g)
        else:
            d = 2 + slot % 3
            while True:
                coeffs = tuple(Fraction(rng.randint(0, p * p)) for _ in range(d)) + (Fraction(1),)
                has_root = any(ref.horner_mod(coeffs, x, p) == 0 for x in range(p))
                if has_root == (family == "random"):
                    break
        deriv = tuple((i + 1) * c for i, c in enumerate(coeffs[1:]))
        seeds = [a for a in range(p)
                 if ref.horner_mod(coeffs, a, p) == 0 and ref.horner_mod(deriv, a, p)]
        return {"p": p, "k": k, "coeffs": coeffs, "family": family, "seeds": seeds}

    def warm_up(self):
        op = self._case(random.Random("warm-up"), 3, 6, "random", 0)
        self.check(op, self.run(op)[0])

    def run(self, op):
        pd = self.padic
        f = pd.PadicPoly(op["p"], op["coeffs"])
        t0 = clock()
        report = pd.enumerate_roots(f, op["k"])
        t1 = clock()
        certs, lift_s = [], []
        for a in op["seeds"]:
            s0 = clock()
            certs.append(pd.lift(f, a, op["k"]))
            lift_s.append(clock() - s0)
        total = clock() - t0
        return {"roots": report.roots, "certs": certs}, total, {"oracle_ms": t1 - t0, "lift_ms": lift_s}

    def check(self, op, out) -> str | None:
        p, k, coeffs = op["p"], op["k"], op["coeffs"]
        want = ref.tree_roots(coeffs, p, k)
        if p**k <= SCAN_CHECK_LIMIT and ref.scan_roots(coeffs, p, k) != want:
            return "reference tree and scan disagree"
        if list(out["roots"]) != want:
            return f"{len(out['roots'])} roots reported, reference has {len(want)}"
        roots = set(want)
        for a, cert in zip(op["seeds"], out["certs"]):
            if cert.root not in roots or cert.root % p != a or not cert.checks_passed:
                return f"lift from seed {a} gave {cert.root}, not a root above {a}"
        return None


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


# ----- arith ----------------------------------------------------------------

ARITH_PRIMES = (2, 5, 101)
ARITH_PRECISIONS = (8, 32, 256)
# one operation is one (p, N) stratum's mixes and evals, 3-25 ms: a single
# mix (~0.1 ms) would put the 11th-largest of ~10^5 samples, op_ms.tail,
# on pauses of the host rather than on the library
MIXES_PER_STRATUM = 30
EVALS_PER_STRATUM = 4
EVAL_DEGREE = 20
LIB_OPS_PER_MIX = 17  # library calls in one mix, counted from _mix


class Arith:
    name = "arith"
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        import padic
        self.padic = padic

    def round(self, r: int) -> list[dict]:
        """One operation per (p, N) stratum: its mixes, then its evals.

        Nine strata, an odd number, put the median inside one stratum.
        """
        rng = _rng(self.name, self.seed, r)
        strata = [(p, n) for p in ARITH_PRIMES for n in ARITH_PRECISIONS]
        rng.shuffle(strata)
        ops = []
        for p, n in strata:
            mixes = [(self._integral(rng, p), self._integral(rng, p, nonzero=True))
                     for _ in range(MIXES_PER_STRATUM)]
            evals = [(tuple(self._integral(rng, p) for _ in range(EVAL_DEGREE)) + (Fraction(1),),
                      self._integral(rng, p)) for _ in range(EVALS_PER_STRATUM)]
            ops.append({"p": p, "N": n, "mixes": mixes, "evals": evals})
        return ops

    @staticmethod
    def _integral(rng, p, nonzero=False) -> Fraction:
        while True:
            q = Fraction(rng.randint(-10**6, 10**6), _unit(rng, p, 10**4)) * p ** rng.randint(0, 3)
            if q or not nonzero:
                return q

    def warm_up(self):
        op = {"p": 5, "N": 8, "mixes": [(Fraction(3), Fraction(7, 2))],
              "evals": [((Fraction(1), Fraction(2), Fraction(1)), Fraction(4))]}
        self.check(op, self.run(op)[0])

    def _mix(self, p, n, q1, q2):
        PN = self.padic.PadicNumber
        x = PN.from_rational(p, q1, n)
        y = PN.from_rational(p, q2, n)
        kk = max(1, n // 2)
        s = x + y
        out = {
            "s": s, "d": x - y, "m": x * y, "q": x / y, "cube": x**3, "inv2": y**-2,
            "radd": 3 + x, "rsub": 5 - x, "rmul": 2 * x, "rdiv": 1 / y,
            "zero": x - PN.from_rational(p, q1, n),
            "s_mod": s.reduce_mod(kk),
        }
        out["zero_mod"] = out["zero"].reduce_mod(kk)
        out["digits"] = x.digits() if q1 else None
        return out

    def run(self, op):
        PN, PP = self.padic.PadicNumber, self.padic.PadicPoly
        p, n = op["p"], op["N"]
        polys = [PP(p, coeffs) for coeffs, _ in op["evals"]]
        t0 = clock()
        mixes = [self._mix(p, n, q1, q2) for q1, q2 in op["mixes"]]
        t1 = clock()
        values = [f.eval(PN.from_rational(p, x, n)) for f, (_, x) in zip(polys, op["evals"])]
        t2 = clock()
        parts = {"mix_s": t1 - t0, "eval_s": t2 - t1,
                 "lib_ops": LIB_OPS_PER_MIX * len(op["mixes"]), "evals": len(op["evals"])}
        return (mixes, values), t2 - t0, parts

    def check(self, op, out) -> str | None:
        p, n = op["p"], op["N"]
        mixes, values = out
        for (q1, q2), got in zip(op["mixes"], mixes):
            bad = _check_mix(p, n, q1, q2, got)
            if bad:
                return f"p={p} N={n} q1={q1} q2={q2}: {bad}"
        for (coeffs, x), value in zip(op["evals"], values):
            bad = _element_error(p, value, ref.horner_exact(coeffs, x))
            if bad:
                return f"eval p={p} N={n} at {x}: {bad}"
        return None


def _element_error(p, x, exact):
    return ref.padic_number_error(p, x.form.value, x.v, x.unit, x.prec, exact)


def _check_mix(p, n, q1, q2, got) -> str | None:
    kk = max(1, n // 2)
    exact = {
        "s": q1 + q2, "d": q1 - q2, "m": q1 * q2, "q": q1 / q2, "cube": q1**3,
        "inv2": q2**-2, "radd": 3 + q1, "rsub": 5 - q1, "rmul": 2 * q1, "rdiv": 1 / q2,
        "zero": Fraction(0),
    }
    for key, value in exact.items():
        bad = _element_error(p, got[key], value)
        if bad:
            return f"{key}: {bad}"
    v1, v2 = ref.val(p, q1), ref.val(p, q2)
    floor = min(v for v in (v1, v2) if v is not None) + n
    if got["s"].form.value == "unit" and got["s"].v + got["s"].prec != floor:
        return "sum does not keep the minimum absolute precision"
    if q1 and got["m"].prec != n:
        return "product does not keep the minimum relative precision"
    if q1:
        z = got["zero"]
        if z.form.value != "zero_at_least" or z.v != v1 + n:
            return f"cancellation gave {z.form.value} v={z.v}, expected O({p}^{v1 + n})"
    if got["s_mod"] != ref.residue(q1 + q2, p**kk) or got["zero_mod"] != 0:
        return "reduce_mod disagrees with the exact residue"
    if q1:
        start, digits = ref.unit_digits(p, q1, n)
        if (got["digits"].start, got["digits"].digits) != (start, digits):
            return "digits disagree with the exact expansion"
    return None


# ----- cli-oneshot ----------------------------------------------------------

CLI_KINDS = ("val", "norm", "digits", "eval", "lift", "oracle", "crosscheck",
             "err_parse", "err_prime", "err_zero", "err_hyp")
CLI_PRIMES = (2, 3, 5, 7, 11, 13, 101)
COMPOSITES = (1, 4, 9, 15, 21, 91, 100)


def _rational_text(rng, p, nonzero=False) -> str:
    while True:
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 99)) * Fraction(p) ** rng.randint(-2, 2)
        if q or not nonzero:
            return str(q)


class CliOneshot:
    name = "cli-oneshot"
    trace_rounds = 3

    def __init__(self, seed: int, src_dir: str):
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        import padic.cli
        self.cli = padic.cli

    def round(self, r: int) -> list[dict]:
        rng = _rng(self.name, self.seed, r)
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        return [self._case(rng, kind) for kind in kinds]

    @staticmethod
    def _case(rng, kind: str) -> dict:
        p = rng.choice(CLI_PRIMES)
        op = {"kind": kind, "p": p}
        if kind in ("val", "norm"):
            op["q"] = _rational_text(rng, p)
            op["argv"] = [kind, "-p", str(p), "--", op["q"]]
        elif kind == "digits":
            op["q"], op["N"] = _rational_text(rng, p, nonzero=True), rng.randint(4, 40)
            op["argv"] = ["digits", "-p", str(p), "-N", str(op["N"]), "--", op["q"]]
        elif kind == "eval":
            coeffs = tuple(Fraction(rng.randint(-99, 99)) for _ in range(rng.randint(2, 6)))
            op["coeffs"] = coeffs + (Fraction(1),)
            op["q"] = str(Fraction(rng.randint(-999, 999), _unit(rng, p, 99)))
            op["N"] = rng.randint(4, 32)
            op["argv"] = ["eval", "-p", str(p), "-N", str(op["N"]),
                          "--poly", _poly_text(op["coeffs"]), "--", op["q"]]
        elif kind in ("lift", "err_hyp"):
            p = op["p"] = rng.choice((2, 3, 5, 7))
            a = Fraction(rng.randrange(p))
            if kind == "lift":
                e, t, k = rng.choice((0, 0, 1)), rng.randint(1, 3), rng.randint(10, 50)
            else:  # nu(f(a)) <= 2 nu(f'(a)): the hypothesis fails
                e, t, k = 1, rng.choice((-1, 0)), rng.randint(10, 50)
            op.update(coeffs=lifting_poly(rng, p, rng.randint(2, 3), e, 2 * e + t, a),
                      a=a, e=e, m=2 * e + t, t=t, K=k)
            op["argv"] = ["lift", "-p", str(p), "-K", str(k),
                          "--poly", _poly_text(op["coeffs"]), "--seed", str(a)]
        elif kind == "oracle":
            k = rng.randint(1, int(math.log(10**5, p)))
            op["K"] = k
            op["coeffs"] = tuple(Fraction(rng.randint(-p * p, p * p)) for _ in range(rng.randint(1, 3))) + (Fraction(1),)
            op["argv"] = ["oracle", "-p", str(p), "-K", str(k), "--poly", _poly_text(op["coeffs"])]
        elif kind == "crosscheck":
            op["trials"] = rng.randint(50, 300)
            op["argv"] = ["crosscheck", "-p", str(p), "-K", str(rng.randint(2, 8)),
                          "--trials", str(op["trials"]), "--seed", str(rng.randint(0, 10**6))]
        elif kind == "err_parse":
            op["argv"] = rng.choice((
                ["val", "-p", str(p), "three"],
                ["norm", "-p", str(p), "1/0"],
                ["eval", "-p", str(p), "--poly", "x^^2", "1"],
                ["digits", "-p", str(p), "-N", "0", "1"],
            ))
        elif kind == "err_prime":
            op["argv"] = ["val", "-p", str(rng.choice(COMPOSITES)), str(rng.randint(1, 99))]
        elif kind == "err_zero":
            op["argv"] = ["digits", "-p", str(p), "-N", str(rng.randint(1, 20)), "0"]
        return op

    def warm_up(self):
        op = {"kind": "val", "p": 5, "q": "25", "argv": ["val", "-p", "5", "25"]}
        self.check(op, self.run(op)[0])

    def run(self, op):
        t0 = clock()
        proc = subprocess.run([sys.executable, "-m", "padic", *op["argv"]], env=self.env,
                              capture_output=True, text=True, timeout=120)
        dt = clock() - t0
        return (proc.returncode, proc.stdout), dt, {}

    def run_in_process(self, op):
        """The same argv through ``padic.cli.main`` in this process."""
        out = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(list(op["argv"]))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return (code, out.getvalue()), clock() - t0, {}

    def check(self, op, out) -> str | None:
        code, stdout = out
        want_code, want = expected_cli(op)
        if code != want_code:
            return f"{op['argv']}: exit {code}, expected {want_code}"
        if callable(want):
            bad = want(stdout)
            return f"{op['argv']}: {bad}" if bad else None
        if stdout != want:
            return f"{op['argv']}: stdout {stdout!r}, expected {want!r}"
        return None


def _digits_text(p, start, digits) -> str:
    if p <= 10:
        window = "".join(str(d) for d in reversed(digits))
    else:
        window = "[" + ",".join(str(d) for d in reversed(digits)) + "]"
    return f"...{window}" + (f" × {p}^{start}" if start else "")


def expected_cli(op):
    """(exit code, exact stdout or a predicate on stdout) for a CLI call."""
    kind, p = op["kind"], op["p"]
    if kind.startswith("err_"):
        code = {"err_parse": 2, "err_prime": 3, "err_zero": 4, "err_hyp": 5}[kind]
        return code, ""
    if kind == "val":
        v = ref.val(p, Fraction(op["q"]))
        return 0, f"{0 if v is None else v}\n"
    if kind == "norm":
        q = Fraction(op["q"])
        if q == 0:
            return 0, "0\n"
        v = ref.val(p, q)
        norm = Fraction(p) ** (-v)
        text = f"{p}^{-v} = {norm}"
        if norm.denominator != 1:
            text += f" = {float(norm):.6g}"
        return 0, text + "\n"
    if kind == "digits":
        start, digits = ref.unit_digits(p, Fraction(op["q"]), op["N"])
        return 0, _digits_text(p, start, digits) + "\n"
    if kind == "oracle":
        return 0, " ".join(map(str, ref.tree_roots(op["coeffs"], p, op["K"]))) + "\n"
    if kind == "eval":
        return 0, lambda out: _eval_error(op, out)
    if kind == "lift":
        return 0, lambda out: _lift_error(op, out)
    return 0, lambda out: _crosscheck_error(op, out)


def _fields(stdout: str) -> dict:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _eval_error(op, stdout):
    p, got = op["p"], _fields(stdout)
    exact = ref.horner_exact(op["coeffs"], Fraction(op["q"]))
    form, v, unit, n = got["form"], int(got["v"]), int(got["unit"]), int(got["N"])
    bad = ref.padic_number_error(p, form, v, unit, n, exact)
    if bad or form != "unit":
        return bad
    digits, u = [], unit
    for _ in range(n):
        u, d = divmod(u, p)
        digits.append(d)
    if got.get("digits") != _digits_text(p, v, digits):
        return f"digits line {got.get('digits')!r} does not match the unit"
    return None


def _lift_error(op, stdout):
    got = _fields(stdout)
    hyp = f"e={op['e']}  m={op['m']}  t={op['t']}"
    if got.get("hypothesis") != hyp:
        return f"hypothesis line {got.get('hypothesis')!r}, expected {hyp!r}"
    if got.get("verified") != "true":
        return "not verified"
    return ref.root_error(op["coeffs"], op["p"], op["a"], op["K"], op["e"], int(got["root"]))


def _crosscheck_error(op, stdout):
    got = _fields(stdout)
    if int(got["trials"]) != op["trials"] or got["mismatches"] != "0":
        return "crosscheck reported mismatches"
    if not 1 <= int(got["checked"]) <= op["trials"] + 4:
        return f"checked {got['checked']} of {op['trials']} trials"
    return None


def make(name: str, seed: int, src_dir: str):
    if name == "cli-oneshot":
        return CliOneshot(seed, src_dir)
    return {"lift-deep": LiftDeep, "oracle-sweep": OracleSweep, "arith": Arith}[name](seed)


NAMES = ("lift-deep", "oracle-sweep", "arith", "cli-oneshot")
