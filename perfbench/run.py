"""The padic benchmark: seeded closed-loop workloads, checked and traced.

Measure one workload (set-up is sampled in several fresh interpreters,
then one of them runs the closed loop for the given seconds):

    python3 perfbench/run.py --workload lift-deep --seed 1 --seconds 20 --trace 0

``--trace 1`` instead reports the per-layer metrics from passes with
spans installed around the library's public functions.  Every run
appends its full result, with its environment, to ``--out`` (default
``.perfbench/results.jsonl``); the last line printed is the JSON summary
whose metrics are those named in ``BENCHMARK.json``.

Compare two result files, one row per workload and metric:

    python3 perfbench/run.py compare before.jsonl after.jsonl

Check that inputs and per-layer counts repeat exactly for one seed:

    python3 perfbench/run.py determinism --workload arith --seed 3
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5  # fresh interpreters timed to their first operation
# a worker may run past --seconds by its last round and, traced, its probes
WORKER_GRACE_S = 120


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile_tail(samples):
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample; returns (value, percentile, n).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def latency(name: str, seconds, out: dict, tails: dict):
    ms = [s * 1e3 for s in seconds]
    out[f"{name}.p50"] = (statistics.median(ms), "ms")
    value, pct, n = percentile_tail(ms)
    out[f"{name}.tail"] = (value, "ms")
    tails[name] = {"percentile": round(pct, 2), "n": n}


def end_to_end(workload: str, res: dict, setup: list[float]):
    """(metrics {name: (value, unit)}, tail percentiles) of one timed run."""
    out, tails = {}, {}
    samples, parts = res["samples_s"], res["parts"]
    out["setup_s"] = (statistics.median(setup), "s")
    out["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    latency("op_ms", samples, out, tails)
    out["ops_per_s"] = (len(samples) / sum(samples), "1/s")
    out["fail_ratio"] = (len(res["failures"]) / res["attempted"], "ratio")
    if parts.get("lift_ms"):
        lifts = parts["lift_ms"]
        out["lift_per_s"] = (len(lifts) / sum(lifts), "1/s")
        latency("lift_ms", lifts, out, tails)
    if workload == "lift-deep":
        latency("verify_ms", parts["verify_ms"], out, tails)
    if workload == "oracle-sweep":
        latency("oracle_ms", parts["oracle_ms"], out, tails)
    if workload == "arith":
        out["arith_ops_per_s"] = (sum(parts["lib_ops"]) / sum(parts["mix_s"]), "1/s")
        out["eval_per_s"] = (sum(parts["evals"]) / sum(parts["eval_s"]), "1/s")
    if workload == "cli-oneshot":
        latency("cli_ms", samples, out, tails)
    return out, tails


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "padic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref_file = ROOT / ".git" / text[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + text[5:]):
                    return line.split()[0]
        return None
    return text


def worker_argv(args, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def start_worker(argv):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - t0
    proc.wait()
    raise RuntimeError(f"worker exited with code {proc.returncode} before READY")


def finish_worker(proc, seconds: float) -> str:
    """Wait for a started worker to exit; returns the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def worker_result(proc, seconds: float) -> dict:
    return json.loads(finish_worker(proc, seconds).strip().splitlines()[-1])


def measure(args, spec) -> int:
    if not (ROOT / "src" / "padic" / "__init__.py").is_file():
        return fail(f"no padic sources under {ROOT / 'src'}; run from a full checkout")
    out_path = args.out or ROOT / ".perfbench" / "results.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, dt = start_worker(worker_argv(args, "--setup-only"))
            finish_worker(proc, 0)
            setup.append(dt)
    spans = out_path.parent / f"spans-{args.workload}-{args.seed}.json"
    proc, dt = start_worker(worker_argv(args, *(["--spans", str(spans)] if args.trace else [])))
    setup.append(dt)
    res = worker_result(proc, args.seconds)

    failures = res["failures"]
    if not args.trace and not res["samples_s"]:
        return fail(f"no operation completed; first failure: {failures[:1]}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": res["attempted"], "failed": len(failures),
        "failures": failures[:20], "inputs_sha256": res["inputs_sha256"],
        "env": dict(res["env"], commit=git_commit(), source_sha256=source_digest()),
    }
    if args.trace:
        metrics = {m["name"]: (res["metrics"].get(m["name"], 0), m["unit"])
                   for m in spec["per_layer"]}
        wanted = list(metrics)
        record.update(passes=res["passes"], traced_ops=res["traced_ops"],
                      spans_file=str(spans))
    else:
        metrics, tails = end_to_end(args.workload, res, setup)
        wanted = [m["name"] for m in spec["end_to_end"]]
        record.update(tails=tails, setup_samples_s=setup, rounds=res["rounds"])
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(out_path, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(record['env'])}")
    for name, (value, unit) in metrics.items():
        extra = ""
        base = name.rsplit(".", 1)[0]
        if name.endswith(".tail") and base in record.get("tails", {}):
            t = record["tails"][base]
            extra = f"  (p{t['percentile']} of n={t['n']})"
        if name == "fail_ratio":
            extra = f"  ({len(failures)} failed of {res['attempted']} attempted)"
        print(f"{args.workload:13s} {name:45s} {value:14.6g} {unit}{extra}")
    for bad in failures[:5]:
        print(f"FAILED: {bad}")
    summary = {
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    print(json.dumps(summary))
    return 0


# ----- compare ---------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def compare(path_a, path_b, spec) -> int:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    a, b = load(path_a), load(path_b)
    for workload in WORKLOADS:
        ra, rb = a.get((workload, 0), []), b.get((workload, 0), [])
        if ra and rb:
            print(f"\n{workload}: end to end (A n={len(ra)}, B n={len(rb)}); median [q1, q3]")
            names = [n for n in ra[0]["metrics"] if all(n in r["metrics"] for r in ra + rb)]
            for name in names:
                va = [r["metrics"][name]["value"] for r in ra]
                vb = [r["metrics"][name]["value"] for r in rb]
                unit = ra[0]["metrics"][name]["unit"]
                qa, qb = quartiles(va), quartiles(vb)
                bound, better = bounds.get(_gated_name(name), (None, None))
                verdict = ""
                if bound is not None:
                    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
                    worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                    if better == "higher":
                        worse = -worse
                    b_wins = (min(vb) > max(va)) if better == "higher" else (max(vb) < min(va))
                    if spread > bound and b_wins:
                        verdict = "B better in every run"
                    elif spread > bound:
                        verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
                    elif worse > bound:
                        verdict = f"WORSE by {worse:.1%} (bound {bound:.0%})"
                    else:
                        verdict = f"within bound {bound:.0%}"
                ratio = f"{qb[1] / qa[1]:.3f}" if qa[1] else "n/a"
                print(f"  {name:22s} A {qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                      f"B {qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {unit:5s} "
                      f"B/A {ratio}  {verdict}")
        ta, tb = a.get((workload, 1), []), b.get((workload, 1), [])
        if ta and tb:
            print(f"{workload}: per-layer self time, B/A with base A (medians over runs)")
            for name in ta[0]["metrics"]:
                if not name.endswith("self_ms"):
                    continue
                ma = statistics.median(r["metrics"][name]["value"] for r in ta)
                mb = statistics.median(r["metrics"][name]["value"] for r in tb)
                ratio = f"{mb / ma:.3f}" if ma else "n/a"
                print(f"  {name:42s} B/A {ratio:>7s}  (base A = {ma:.4g} ms, B = {mb:.4g} ms)")
    return 0


def _gated_name(name: str) -> str:
    """Workload-specific latency and rate metrics share the bound of op_ms / ops_per_s."""
    if name.endswith((".p50", ".tail")):
        return "op_ms." + name.rsplit(".", 1)[1]
    if name.endswith("_per_s"):
        return "ops_per_s"
    return name


# ----- determinism -----------------------------------------------------------

def determinism(args) -> int:
    """Two traced runs of one seed must agree exactly on counts and inputs."""
    if not (ROOT / "src" / "padic" / "__init__.py").is_file():
        return fail(f"no padic sources under {ROOT / 'src'}")
    runs = []
    for _ in range(2):
        proc, _ = start_worker(worker_argv(args))
        runs.append(worker_result(proc, args.seconds))
    counts = [{k: v for k, v in r["metrics"].items() if not k.endswith(("_ms", "ratio"))}
              for r in runs]
    ok = True
    for key in counts[0]:
        if counts[0][key] != counts[1][key]:
            ok = False
            print(f"DIFFERS {key}: {counts[0][key]} vs {counts[1][key]}")
    if runs[0]["inputs_sha256"] != runs[1]["inputs_sha256"]:
        ok = False
        print("DIFFERS inputs_sha256")
    print(f"{args.workload} seed={args.seed}: {len(counts[0])} per-layer counts and the "
          f"input digest {'repeat exactly' if ok else 'DIFFER'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not SPEC.is_file():
        return fail(f"{SPEC} not found")
    spec = json.loads(SPEC.read_text())
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("a", type=Path)
        ap.add_argument("b", type=Path)
        args = ap.parse_args(argv[1:])
        return compare(args.a, args.b, spec)
    determinism_mode = argv[:1] == ["determinism"]
    ap = argparse.ArgumentParser(description="padic benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append the full result here")
    args = ap.parse_args(argv[1:] if determinism_mode else argv)
    if determinism_mode:
        args.trace, args.seconds = 1, 0
        return determinism(args)
    try:
        return measure(args, spec)
    except RuntimeError as exc:
        return fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
