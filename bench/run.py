"""cpt-kit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each measurement runs in a fresh child
process (``worker.py``) with BLAS pinned to one thread and ``src`` on the
path, so cptkit needs no install.  With ``--trace 0`` the end-to-end metrics
are printed: ``setup_s`` is the median over SETUP_RUNS fresh processes, the
rest come from one closed-loop client driving ops for S seconds, with op
latencies as multiples of a bare eig on the same inputs.  With
``--trace 1`` a separate traced run prints the per-layer metrics.  Details
(environment, error breakdown, scan CSV hashes) go to ``bench/out``, the
spans of each workload's latest traced run next to them.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Fresh processes timed for set-up; the median is reported.
SETUP_RUNS = 5

#: Everything, set-up processes included, must finish within this budget.
DEADLINE_S = 170.0

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), str(seconds), OUT_DIR]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process for {workload} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process for {workload} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Returns (metrics as {name: value}, details for the report file)."""
    deadline = time.monotonic() + DEADLINE_S
    if traced:
        res = child("trace", workload, seed, seconds, deadline)
        return res.pop("layers"), res
    setups = [child("setup", workload, seed, seconds, deadline) for _ in range(SETUP_RUNS - 1)]
    res = child("run", workload, seed, seconds, deadline)
    samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
    for s in setups:
        res["attempted"] += s["attempted"]
        res["failed"] += s["failed"]
        res["failures"] += s["failures"]
    res["error_rate"] = res["failed"] / res["attempted"]
    res["setup_samples_s"] = samples
    metrics = {name: res[name] for name, *_ in spec.END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(samples)
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cptkit", "__init__.py")):
        print(f"error: no cptkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        values, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in table}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, **details}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:28s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:16s} raw: {details['ops']} ops, {details['ops_per_s']:.6g} ops/s, "
              f"p50 {details['latency_p50_ms']:.6g} ms, p{details['tail_percentile']:.4g} "
              f"{details['latency_tail_ms']:.6g} ms")
    print(f"{args.workload:16s} error_rate {details['error_rate']:.6g} "
          f"(expected errors {details['errors_expected']}, unexpected {details['errors_unexpected']})")
    for failure in details["failures"][:5]:
        print(f"{args.workload:16s} FAILED {failure}")
    print(f"details -> {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
