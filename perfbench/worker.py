"""One measurement in a fresh interpreter: set up, then time or trace.

Prints ``READY`` once ``padic`` is imported, the first round of inputs is
generated and the warm-up operation has run; the parent times set-up up
to that line.  Then it runs a closed loop (one client, one operation
outstanding) for the requested seconds, or, with ``--trace 1``, alternates
untraced and traced passes over a fixed set of operations, and prints
one JSON line with the raw results.

    python3 perfbench/worker.py --workload lift-deep --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.set_int_max_str_digits(0)  # records at p = 101, K = 4000 exceed the default

import workloads  # noqa: E402
import tracer as tr  # noqa: E402

PROBES = 5  # fresh processes per cli.interp_ms / cli.import_ms measurement
DIGEST_ROUNDS = 3  # rounds of inputs hashed into inputs_sha256, at least trace_rounds


def inputs_digest(wl) -> str:
    h = hashlib.sha256()
    for r in range(max(DIGEST_ROUNDS, wl.trace_rounds)):
        h.update(repr(wl.round(r)).encode())
    return h.hexdigest()


def run_op(wl, op, runner):
    """Execute and check one operation; returns (seconds, parts, failure)."""
    try:
        out, seconds, parts = runner(op)
    except Exception as exc:  # a raise is a failed operation, not a crash
        return None, {}, f"raised {type(exc).__name__}: {exc}"
    try:
        bad = wl.check(op, out)
    except Exception as exc:  # malformed output the checker could not read
        bad = f"output unreadable: {type(exc).__name__}: {exc}"
    return seconds, parts, bad


def timed_loop(wl, ops, seconds: float) -> dict:
    """Closed loop over whole rounds from round 0, until ``seconds`` have passed.

    Stopping only between rounds keeps the mix of operations the same in
    every run; the last round may run past the deadline.
    """
    samples, failures, attempted = [], [], 0
    parts: dict[str, list] = {}
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        for op in ops:
            attempted += 1
            dt, p, bad = run_op(wl, op, wl.run)
            if bad:
                failures.append(bad)
            if dt is not None:
                samples.append(dt)
                for key, value in p.items():
                    parts.setdefault(key, []).extend(value if isinstance(value, list) else [value])
        r += 1
        if time.perf_counter() >= deadline:
            break
        ops = wl.round(r)
    return {"samples_s": samples, "parts": parts, "attempted": attempted,
            "failures": failures, "rounds": r}


def _subprocess_ms(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True)
    return (time.perf_counter() - t0) * 1e3


def cli_probes() -> dict:
    """Median wall time of a bare interpreter, and in-process import time."""
    interp = [_subprocess_ms([sys.executable, "-c", "pass"]) for _ in range(PROBES)]
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import padic.cli; print((time.perf_counter() - t) * 1e3)" % str(SRC))
    imports = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(PROBES)]
    return {"cli.interp_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imports)}


def one_pass(wl, ops, runner, failures: list) -> float:
    t0 = time.perf_counter()
    for op in ops:
        bad = run_op(wl, op, runner)[2]
        if bad:
            failures.append(bad)
    return time.perf_counter() - t0


def traced_passes(wl, seconds: float, spans_path: Path | None) -> dict:
    """Alternate untraced and traced passes over the seed's first rounds.

    Counts come from one traced pass and must repeat in every other one;
    self times are medians over the traced passes.
    """
    ops = [op for r in range(wl.trace_rounds) for op in wl.round(r)]
    runner = getattr(wl, "run_in_process", wl.run)
    plain_s, traced_s, self_ms, counts, failures = [], [], [], None, []
    deadline = time.perf_counter() + seconds
    tracer = None
    while not traced_s or time.perf_counter() < deadline:
        plain_s.append(one_pass(wl, ops, runner, failures))
        tracer = tr.Tracer()
        undo = tr.install(tracer)
        try:
            traced_s.append(one_pass(wl, ops, runner, failures))
        finally:
            tr.uninstall(undo)
        self_ms.append(tracer.self_ms())
        pass_counts = dict(tracer.counts)
        if counts is not None and pass_counts != counts:
            failures.append("per-layer counts differ between two passes over the same inputs")
        counts = pass_counts
    if spans_path is not None:
        tracer.write(spans_path)
    metrics = dict(counts)  # layers never entered have no entry
    for layer in {name for s in self_ms for name in s}:
        metrics[layer + ".self_ms"] = statistics.median(s.get(layer, 0.0) for s in self_ms)
    domain = metrics.get("oracle.enumerate_roots.domain", 0)
    metrics["oracle.enumerate_roots.roots_per_domain"] = (
        metrics.get("oracle.enumerate_roots.roots", 0) / domain if domain else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    metrics.update(cli_probes())
    return {"metrics": metrics, "attempted": len(ops) * (len(plain_s) + len(traced_s)),
            "failures": failures, "passes": len(traced_s), "traced_ops": len(ops)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="write the last traced pass's spans here")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, str(SRC))
    import padic
    if Path(padic.__file__).resolve().parent != SRC / "padic":
        raise SystemExit(f"imported padic from {padic.__file__}, not from {SRC}")
    first = wl.round(0)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced_passes(wl, args.seconds, args.spans)
    else:
        result = timed_loop(wl, first, args.seconds)
    # the CLI's memory is that of the processes it starts, not of this one
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    result["env"] = {"python": platform.python_version(),
                     "numpy": sys.modules["numpy"].__version__,
                     "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}
    result["inputs_sha256"] = inputs_digest(wl)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
