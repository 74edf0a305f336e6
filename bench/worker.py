"""One benchmark process: one workload in one mode, results as a JSON line.

    python3 bench/worker.py {setup,run,trace} WORKLOAD SEED SECONDS OUT_DIR

``run.py`` starts it with BLAS pinned to one thread and ``src`` on the path.
``setup`` times importing cptkit plus the first, cold op.  ``run`` does the
same, then drives closed-loop ops (the next starts when the previous
returns) for SECONDS with tracing off.  Right after each op, outside its
timing, a bare ``np.linalg.eig`` runs on the op's input matrices; latencies
are reported as multiples of it, which cancels most of the CPU-speed drift
of a shared machine (raw milliseconds go to the details file).  ``trace``
runs every op untraced and then traced for SECONDS and reports the
per-layer split.  Oracle checks run between ops, outside the timed region.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports numpy and cptkit)

T_IMPORTED = time.perf_counter()

import hashlib  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import cptkit as ck  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402

# Ops run after the cold op and before timing starts: one cells cycle, one op
# elsewhere.
WARMUP = {"scan-2x2": 1, "cells": len(workloads.CELLS_CYCLE), "chain-dense": 1, "chain-clustered": 1}

#: Windows the steady phase is cut into for the tail metrics.
TAIL_WINDOWS = 10


class Tally:
    """Oracle outcomes of every op a process ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.expected = Counter()
        self.unexpected = Counter()
        self.failures: list[str] = []
        self.band_rows = 0
        self.rows = 0
        self.csv_sha256: set[str] = set()

    def record(self, p, out, exc) -> None:
        self.attempted += 1
        if p.kind == "ep":
            fails = oracles.check_ep(exc)
            if exc is not None:
                (self.unexpected if fails else self.expected)[type(exc).__name__] += 1
        elif exc is not None:
            self.unexpected[type(exc).__name__] += 1
            fails = ["".join(traceback.format_exception(exc))[-1500:]]
        elif p.kind == "scan":
            fails, band = oracles.check_scan(out.csv, p.sweep)
            self.band_rows += band
            self.rows += p.sweep["n"]
            self.csv_sha256.add(hashlib.sha256(out.csv).hexdigest())
        elif p.kind == "compose":
            fails = oracles.check_compose(p, out)
        else:
            fails = oracles.check_model(p, out)
        if fails:
            self.failed += 1
            self.failures.extend(fails[:3])

    def summary(self) -> dict:
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted,
            "errors_expected": dict(self.expected),
            "errors_unexpected": dict(self.unexpected),
            "failures": self.failures[:20],
        }
        if self.rows:
            out["ep_band_share"] = self.band_rows / self.rows
            out["csv_sha256"] = sorted(self.csv_sha256)
        return out


def execute(p, rec, workdir):
    """Run one op; an exception is returned, not raised."""
    try:
        return workloads.run_op(p, rec, workdir), None
    except Exception as exc:  # the oracle decides whether this was expected
        return None, exc


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value.

    Below 21 samples no percentile above the median qualifies, and the
    upper median is returned.
    """
    xs = sorted(latencies)
    k = max(len(xs) - 11, len(xs) // 2)
    return 100.0 * (k + 1) / len(xs), xs[k]


def windowed_tail(latencies: list[float]) -> tuple[float, float]:
    """Median over up to TAIL_WINDOWS consecutive windows of at least 100 ops
    of each window's ``tail``, with the windows' percentile.

    One run's few slowest ops are mostly scheduler noise on a shared
    machine; the median over windows keeps the tail of the workload itself.
    """
    k = max(1, min(TAIL_WINDOWS, len(latencies) // 100))
    size = len(latencies) // k
    tails = [tail(latencies[i * size:(i + 1) * size if i < k - 1 else None]) for i in range(k)]
    return tails[0][0], statistics.median(t for _, t in tails)


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def cold_op(workload, seed, workdir, tally):
    p = workloads.problem(workload, seed, 0)
    off = spans.Recorder(enabled=False)
    t0 = time.perf_counter()
    out, exc = execute(p, off, workdir)
    t1 = time.perf_counter()
    tally.record(p, out, exc)
    return (T_IMPORTED - T_START) + (t1 - t0)


def steady(workload, seed, seconds, workdir, tally) -> dict:
    off = spans.Recorder(enabled=False)
    index = 1
    for _ in range(WARMUP[workload]):
        p = workloads.problem(workload, seed, index)
        tally.record(p, *execute(p, off, workdir))
        index += 1
    latencies, refs = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        p = workloads.problem(workload, seed, index)
        index += 1
        mats = oracles.input_matrices(p)
        t0 = time.perf_counter()
        out, exc = execute(p, off, workdir)
        t1 = time.perf_counter()
        for m in mats:
            np.linalg.eig(m)
        refs.append(time.perf_counter() - t1)
        latencies.append(t1 - t0)
        tally.record(p, out, exc)
    ratios = [t / r for t, r in zip(latencies, refs)]
    pct, tail_s = windowed_tail(latencies)
    return {
        "ops": len(latencies),
        "latency_p50_x_eig": statistics.median(ratios),
        "latency_tail_x_eig": windowed_tail(ratios)[1],
        "mean_x_eig": sum(latencies) / sum(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": pct,
        "latencies_ms": [round(1e3 * t, 6) for t in latencies],
        "eig_ms": [round(1e3 * t, 6) for t in refs],
    }


#: Per-layer time metric -> the spans whose per-op sum it reports.
LAYER_SPANS = {
    "models.build_model_ms": ("models.build_model",),
    "frames.validate_pt_ms": ("frames.validate_pt_frame",),
    "frames.validate_cpt_ms": ("frames.validate_cpt_frame",),
    "linops.eigendecompose_ms": ("linops.eigendecompose",),
    "linops.hermitian_power_ms": ("linops.hermitian_power",),
    "ref.eig_ms": ("ref.eig",),
    "ref.eig_stacked_ms": ("ref.eig_stacked",),
    "symmetry.is_pt_symmetric_ms": ("symmetry.is_pt_symmetric",),
    "symmetry.classify_ms": ("symmetry.classify_symmetry",),
    "cpt.build_c_ms": ("cpt.build_c",),
    "cpt.hermitize_ms": ("cpt.hermitize",),
    "cpt.cpt_inner_us": ("cpt.cpt_inner",),
    "composition.compose_ms": ("composition.tensor_hamiltonians", "composition.direct_sum", "composition.doubling"),
    "io.format_ms": ("io.format",),
}

#: Derived per-layer metric -> (span, spans subtracted from it, grouping).
#: Grouping by item subtracts on the same grid point, by op on the whole op.
LAYER_DERIVED = {
    "symmetry.align_self_ms": ("symmetry.classify_symmetry",
                               ("linops.eigendecompose", "symmetry.is_pt_symmetric"), spans.by_item),
    "cpt.synth_self_ms": ("cpt.build_c", ("symmetry.classify_symmetry",), spans.by_item),
    "cli.self_ms": ("cli.main", ("models.build_model", "symmetry.classify_symmetry"), spans.by_op),
}


def _scale(metric: str) -> float:
    return 1e6 if metric.endswith("_us") else 1e3


def _median(per_op: dict) -> float:
    return statistics.median(per_op.values()) if per_op else 0.0


def _counts(reports_by_op: dict) -> dict:
    eigvecs = clusters = pairs = unbroken = classified = aligned = rebased = 0
    max_cluster = 0
    for reports in reports_by_op.values():
        for report in reports:
            classified += 1
            unbroken += report.classification == ck.UNBROKEN
            eigvecs += len(report.eigenvalues)
            pairs += len(report.broken_pairs)
            aligned += len(report.aligned_states)
            # members of one degenerate cluster share its mean energy exactly
            _, sizes = np.unique([s.energy for s in report.aligned_states], return_counts=True)
            clusters += len(sizes)
            max_cluster = max(max_cluster, int(sizes.max(initial=0)))
            rebased += int(sizes[sizes > 1].sum())
            rebased += sum("via rebasing" in w for w in report.warnings)
    ops = max(1, len(reports_by_op))
    return {
        "symmetry.eigvecs": eigvecs / ops,
        "symmetry.clusters": clusters / ops,
        "symmetry.max_cluster": max_cluster,
        "symmetry.pairs": pairs / ops,
        "symmetry.unbroken_share": unbroken / max(1, classified),
        "symmetry.rebased_share": rebased / max(1, aligned),
    }


def layer_metrics(rec, reports_by_op, untraced, traced, tally) -> dict:
    """Per-layer metrics of a traced run, keyed as in spec.PER_LAYER."""
    per_op: dict = {}
    for (op, name), t in spans.totals(rec.spans, spans.by_op).items():
        for metric, names in LAYER_SPANS.items():
            if name in names:
                per_op.setdefault(metric, {}).setdefault(op, 0.0)
                per_op[metric][op] += t
    m = {metric: _scale(metric) * _median(per_op.get(metric, {})) for metric in LAYER_SPANS}
    for metric, (name, minus, key) in LAYER_DERIVED.items():
        m[metric] = _scale(metric) * _median(spans.derived(rec.spans, name, minus, key))
    m["op.latency_p50_ms"] = 1e3 * statistics.median(untraced)
    m["op.ops_per_s"] = len(untraced) / sum(untraced)
    m["ref.overhead_x"] = m["op.latency_p50_ms"] / m["ref.eig_ms"]
    m.update(_counts(reports_by_op))
    m["errors.expected"] = sum(tally.expected.values())
    m["errors.unexpected"] = sum(tally.unexpected.values())
    m["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    return m


def self_ms(ss: list) -> dict:
    """Median over traced ops of each span name's summed self time, in ms:
    where the time went that no child span accounts for."""
    own = spans.self_times(ss)
    per_name: dict = {}
    for s in ss:
        per_op = per_name.setdefault(s.name, {})
        per_op[s.op] = per_op.get(s.op, 0.0) + own[s.id]
    return {name: 1e3 * statistics.median(per_op.values()) for name, per_op in sorted(per_name.items())}


def trace(workload, seed, seconds, workdir, tally, spans_path) -> dict:
    """Run every op twice, untraced and then traced; a traced op gets an
    ``op`` span with its library calls as children, then a ``probe`` span
    re-timing the inner entry points on the same inputs."""
    off = spans.Recorder(enabled=False)
    rec = spans.Recorder(enabled=True)
    index = 1
    for _ in range(WARMUP[workload]):
        p = workloads.problem(workload, seed, index)
        tally.record(p, *execute(p, off, workdir))
        index += 1
    untraced, traced, reports_by_op = [], [], {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        p = workloads.problem(workload, seed, index)
        t0 = time.perf_counter()
        out, exc = execute(p, off, workdir)
        untraced.append(time.perf_counter() - t0)
        tally.record(p, out, exc)
        with rec.span("op", op=index) as span:
            out, exc = execute(p, rec, workdir)
        traced.append(span.duration)
        tally.record(p, out, exc)
        if exc is None or p.kind == "ep":  # a failed op has nothing to probe
            with rec.span("probe", op=index):
                probed = workloads.probe(p, out, rec, seed)
            reports_by_op[index] = (out.reports if out else []) + probed
        index += 1
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(rec.dump(), fh, separators=(",", ":"))
    return {"ops": len(untraced) + len(traced), "traced_ops": len(traced), "self_ms": self_ms(rec.spans),
            "layers": layer_metrics(rec, reports_by_op, untraced, traced, tally)}


def main(argv) -> int:
    mode, workload, seed, seconds, out_dir = argv
    seed, seconds = int(seed), float(seconds)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        result = {"setup_s": cold_op(workload, seed, workdir, tally)}
        if mode == "run":
            result.update(steady(workload, seed, seconds, workdir, tally))
        elif mode == "trace":
            spans_path = os.path.join(out_dir, f"{workload}.spans.json")
            result.update(trace(workload, seed, seconds, workdir, tally, spans_path))
        if mode != "setup":
            result["environment"] = environment(seed)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    result.update(tally.summary())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
