"""What the benchmark measures: workloads, metrics, bounds and the mapping from
each per-layer metric to the end-to-end metric it should move.

``BENCHMARK.json`` at the repository root is generated from this module:

    python3 bench/spec.py
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 24

WORKLOADS = [
    ("scan-2x2", "1000-point CLI scan of the 2x2 family across its exceptional point: per-call "
                 "CLI, model and frame overhead dominates and eig is about 1% of the time"),
    ("cells", "fixed mix of small library problems (unbroken pipelines, broken classifications, "
              "compositions, exact exceptional points): the N=1 path that bypasses CLI and large n"),
    ("chain-dense", "dimension-200 chain of 100 distinct blocks, all eigenvalues simple: "
                    "classify and C synthesis scale as n^4 through per-eigenvector PT recomposition"),
    ("chain-clustered", "dimension-200 chain of a few blocks each repeated 2-12 times: the degenerate "
                        "path (PT-fixed rebasing, indefinite Gram-Schmidt) a simple-eigenvalue change must leave alone"),
]

# name, unit, better, bound (share of the parent's median).  Op latencies are
# reported as multiples of a bare np.linalg.eig on the op's input matrices,
# timed right after the op: the ROADMAP's cost-over-eig ratio, and steady on
# a shared machine whose CPU speed drifts by up to 2x within minutes.  Raw
# milliseconds are per-layer metrics of the traced run (op.*) and sit in the
# details file of every run.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_x_eig", "x", "lower", 0.25),
    ("latency_tail_x_eig", "x", "lower", 0.25),
    ("mean_x_eig", "x", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better, which end-to-end metric on which workload it should move
PER_LAYER = [
    ("op.latency_p50_ms", "ms", "lower", "raw median op latency (untraced ops of the traced run)"),
    ("op.ops_per_s", "1/s", "higher", "raw closed-loop throughput (untraced ops of the traced run)"),
    ("models.build_model_ms", "ms", "lower", "mean_x_eig on scan-2x2 and cells; negligible on the chains"),
    ("frames.validate_pt_ms", "ms", "lower", "mean_x_eig on scan-2x2 and cells, where frames are rebuilt per call"),
    ("frames.validate_cpt_ms", "ms", "lower", "mean_x_eig on cells"),
    ("linops.eigendecompose_ms", "ms", "lower", "floor of latency_p50_x_eig on chain-dense"),
    ("linops.hermitian_power_ms", "ms", "lower", "latency_p50_x_eig on cells; a small share of chain-dense"),
    ("ref.eig_ms", "ms", "lower", "reference only: bare np.linalg.eig on the same matrices"),
    ("ref.eig_stacked_ms", "ms", "lower", "reference only: one stacked eig over the op's matrices "
                                          "(1000 on scan-2x2), the floor of a batched scan"),
    ("ref.overhead_x", "x", "lower", "op.latency_p50_ms over ref.eig_ms; the traced-run twin of latency_p50_x_eig"),
    ("symmetry.is_pt_symmetric_ms", "ms", "lower", "latency_p50_x_eig on the chains"),
    ("symmetry.classify_ms", "ms", "lower", "latency_p50_x_eig on every workload"),
    ("symmetry.align_self_ms", "ms", "lower", "derived (classify - eigendecompose - is_pt_symmetric): "
                                              "latency_p50_x_eig on chain-dense and chain-clustered"),
    ("cpt.build_c_ms", "ms", "lower", "latency_p50_x_eig on cells and the chains"),
    ("cpt.synth_self_ms", "ms", "lower", "derived (build_c - classify): latency_p50_x_eig on both chains and cells"),
    ("cpt.hermitize_ms", "ms", "lower", "latency_p50_x_eig on cells; a small share of chain-dense"),
    ("cpt.cpt_inner_us", "us", "lower", "latency_p50_x_eig on cells"),
    ("composition.compose_ms", "ms", "lower", "latency_tail_x_eig on cells"),
    ("io.format_ms", "ms", "lower", "mean_x_eig on scan-2x2 (CSV formatting); none elsewhere"),
    ("cli.self_ms", "ms", "lower", "derived (cli.main - build_model - classify on the same inputs): "
                                   "mean_x_eig on scan-2x2"),
    ("symmetry.eigvecs", "count", "higher", "work per op"),
    ("symmetry.clusters", "count", "higher", "work per op; equals eigvecs when every eigenvalue is simple"),
    ("symmetry.max_cluster", "count", "lower", "selects the degenerate path on chain-clustered"),
    ("symmetry.pairs", "count", "higher", "conjugate pairs matched per op (broken cells, scan-2x2)"),
    ("symmetry.unbroken_share", "share", "higher", "share of classifications that are unbroken"),
    ("symmetry.rebased_share", "share", "lower", "states aligned by rebasing instead of by phase: "
                                                 "the slow path on chain-clustered"),
    ("errors.expected", "count", "higher", "exceptional points refused with DefectiveSpectrum on cells"),
    ("errors.unexpected", "count", "lower", "must stay 0 on every workload"),
    ("trace.overhead_pct", "%", "lower", "traced against untraced op latency in the same run"),
]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
