"""Tests of the benchmark's own machinery.

    python -m pytest bench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cptkit as ck  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from worker import tail, windowed_tail  # noqa: E402

NAMES = [n for n, _ in spec.WORKLOADS]


def _same(a, b):
    if isinstance(a, workloads.Problem):
        return all(_same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is None and b is None or np.array_equal(a, b)
    if isinstance(a, tuple) and a and isinstance(a[0], workloads.Problem):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("workload", NAMES)
def test_generators_are_deterministic_per_seed(workload):
    for index in range(25):
        assert _same(workloads.problem(workload, 7, index), workloads.problem(workload, 7, index))
    first = [workloads.problem(workload, 7, i) for i in range(3)]
    other = [workloads.problem(workload, 8, i) for i in range(3)]
    assert not all(_same(a, b) for a, b in zip(first, other))


@pytest.mark.parametrize("seed", range(20))
def test_scan_sweep_straddles_the_exceptional_point(seed):
    sw = workloads.scan_sweep(seed)
    x = sw["r"] / sw["s"] * np.sin(np.linspace(sw["lo"], sw["hi"], sw["n"]))
    assert x[0] < 1.0 < x[-1]
    assert 0.29 <= np.mean(x <= 1.0) <= 0.38


def test_cells_cycle_mix():
    kinds = [k for k, _ in workloads.CELLS_CYCLE]
    assert [kinds.count(k) for k in ("unbroken", "broken", "compose", "ep")] == [12, 5, 2, 1]


def test_clustered_chain_repeats_blocks():
    rng = np.random.default_rng(3)
    blocks = workloads.chain_blocks(rng, clustered=True)
    _, counts = np.unique(np.array(blocks), axis=0, return_counts=True)
    assert len(blocks) == workloads.CHAIN_BLOCKS
    assert counts.min() >= 2 and counts.max() <= 13


def _tree():
    # op [0, 10] -> a [1, 4] (-> a1 [2, 3]), b [5, 9]; probe [10, 12] -> c [10, 11]
    mk = spans.Span
    return [
        mk(0, "op", 0.0, 10.0, None, 1),
        mk(1, "a", 1.0, 4.0, 0, 1),
        mk(2, "a1", 2.0, 3.0, 1, 1),
        mk(3, "b", 5.0, 9.0, 0, 1),
        mk(4, "probe", 10.0, 12.0, None, 1),
        mk(5, "c", 10.0, 11.0, 4, 1),
        mk(6, "op", 20.0, 21.0, None, 2),
        mk(7, "a", 20.0, 20.5, 6, 2),
    ]


def test_self_time_subtracts_children_once():
    st = spans.self_times(_tree())
    assert st == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0, 5: 1.0, 6: 0.5, 7: 0.5}


def test_self_time_counts_overlapping_children_once():
    mk = spans.Span
    tree = [mk(0, "p", 0.0, 10.0, None, 1), mk(1, "x", 1.0, 5.0, 0, 1), mk(2, "y", 3.0, 12.0, 0, 1)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_derived_difference_needs_every_term():
    tree = _tree()
    assert spans.derived(tree, "op", ("a", "b"), spans.by_op) == {1: 3.0}
    assert spans.derived(tree, "op", ("a",), spans.by_op) == {1: 7.0, 2: 0.5}


def test_derived_difference_per_item():
    mk = spans.Span
    tree = [
        mk(0, "build", 0.0, 3.0, None, 1, item=0), mk(1, "classify", 3.0, 4.0, None, 1, item=0),
        mk(2, "classify", 4.0, 5.0, None, 1, item=1),
        mk(3, "build", 5.0, 7.0, None, 1, item=2), mk(4, "classify", 7.0, 7.5, None, 1, item=2),
    ]
    assert spans.derived(tree, "build", ("classify",), spans.by_item) == {1: 3.5}


def test_recorder_nests_and_inherits_op():
    rec = spans.Recorder()
    with rec.span("op", op=4):
        with rec.span("child", item=2):
            with rec.span("grandchild"):
                pass
    op, child, grand = rec.spans
    assert (child.parent, grand.parent) == (op.id, child.id)
    assert (child.op, grand.op, grand.item) == (4, 4, 2)
    assert op.start <= child.start <= grand.start <= grand.end <= child.end <= op.end
    assert [d["name"] for d in rec.dump()] == ["op", "child", "grandchild"]


def test_disabled_recorder_records_nothing():
    rec = spans.Recorder(enabled=False)
    with rec.span("op", op=1) as s:
        assert s is None
    assert rec.spans == []


def test_tail_percentile():
    xs = list(range(100))
    assert tail(xs) == (90.0, 89)
    assert tail(list(range(7))) == (pytest.approx(100 * 4 / 7), 3)
    assert tail(list(range(8))) == (pytest.approx(100 * 5 / 8), 4)


def test_windowed_tail_is_the_median_window():
    xs = [1.0] * 1000
    xs[150] = 100.0  # one window's outliers do not move the median window
    xs[160:200] = [50.0] * 40
    assert windowed_tail(xs) == (90.0, 1.0)
    assert windowed_tail(list(range(50))) == tail(list(range(50)))


# --- oracles --------------------------------------------------------------


def _run(p, tmp_path):
    return workloads.run_op(p, spans.Recorder(enabled=False), str(tmp_path))


def _first(kind, family=None, op=None):
    for i in range(200):
        p = workloads.problem("cells", 5, i)
        if p.kind == kind and (family is None or p.family == family) and (op is None or p.op == op):
            return p
    raise AssertionError("no such problem")


@pytest.mark.parametrize("family", ["2x2", "3x3", "4x4", "tensor"])
def test_model_oracle_accepts_the_pipeline(family, tmp_path):
    p = _first("unbroken", family)
    assert oracles.check_model(p, _run(p, tmp_path)) == []
    b = _first("broken", family)
    assert oracles.check_model(b, _run(b, tmp_path)) == []


def test_model_oracle_rejects_perturbed_c(tmp_path):
    p = _first("unbroken", "2x2")
    out = _run(p, tmp_path)
    c = out.result.cpt.c.matrix.copy()
    c[0, 1] += 1e-6
    frame = ck.CPTFrame(out.result.cpt.frame, ck.Operator.linear(c))
    out.result = ck.CPTResult(frame, out.result.aligned_states, out.result.gram_residual)
    assert any("C off" in f for f in oracles.check_model(p, out))


def test_model_oracle_rejects_wrong_spectrum_and_verdict(tmp_path):
    p = _first("unbroken", "4x4")
    out = _run(p, tmp_path)
    values = out.report.eigenvalues.copy()
    values[0] += 1e-6
    out.report = ck.SymmetryReport(True, ck.BROKEN, values, (), (), (), 0.0)
    fails = oracles.check_model(p, out)
    assert any("classified broken" in f for f in fails)
    assert any("spectrum off" in f for f in fails)


def test_model_oracle_rejects_non_hermitian_output(tmp_path):
    p = _first("unbroken", "tensor")
    out = _run(p, tmp_path)
    out.hermitized = out.hermitized.copy()
    out.hermitized[0, 1] += 1e-5
    assert any("not Hermitian" in f for f in oracles.check_model(p, out))


def test_model_oracle_rejects_gram_residual(tmp_path):
    p = _first("unbroken", "3x3")
    out = _run(p, tmp_path)
    r = out.result
    out.result = ck.CPTResult(r.cpt, r.aligned_states, 1e-3)
    assert any("Gram" in f for f in oracles.check_model(p, out))


@pytest.mark.parametrize("op", workloads.COMPOSITIONS)
def test_compose_oracle(op, tmp_path):
    p = _first("compose", op=op)
    out = _run(p, tmp_path)
    assert oracles.check_compose(p, out) == []
    if op == "double":
        out.composed = (out.composed[0], out.composed[1], False)
    else:
        h, cpt = out.composed
        out.composed = (h + 1e-6, cpt)
    assert oracles.check_compose(p, out) != []


def test_ep_oracle(tmp_path):
    p = _first("ep")
    with pytest.raises(ck.DefectiveSpectrum) as info:
        _run(p, tmp_path)
    assert oracles.check_ep(info.value) == []
    assert oracles.check_ep(None) != []
    assert oracles.check_ep(ck.SelfOrthogonal("x")) != []


def test_chain_oracle(tmp_path):
    for workload in ("chain-dense", "chain-clustered"):
        p = workloads.problem(workload, 2, 1)
        out = _run(p, tmp_path)
        assert oracles.check_model(p, out) == []
        out.report = ck.SymmetryReport(
            True, ck.UNBROKEN, np.sort(out.report.eigenvalues.real * (1 + 1e-7)), (), (), (), 0.0)
        assert any("spectrum off" in f for f in oracles.check_model(p, out))


def test_scan_oracle_rejects_flipped_flag_and_error_rows(tmp_path):
    p = workloads.problem("scan-2x2", 3, 0)
    out = _run(p, tmp_path)
    assert oracles.check_scan(out.csv, p.sweep) == ([], 0)
    lines = out.csv.decode().splitlines()

    def corrupt(row, column, value):
        cells = lines[row].split(",")
        cells[column] = value
        return "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]).encode()

    assert any("unbroken flag" in f for f in oracles.check_scan(corrupt(1, 5, "0"), p.sweep)[0])
    assert any("error row" in f for f in oracles.check_scan(corrupt(500, 7, "1"), p.sweep)[0])
    assert any("eigenvalues off" in f for f in oracles.check_scan(corrupt(900, 2, "0.5"), p.sweep)[0])
    assert oracles.check_scan(out.csv.replace(b"theta", b"t", 1), p.sweep)[0] != []


# --- manifest -------------------------------------------------------------


def test_manifest_is_current_and_within_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.manifest()
    m = spec.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(m["workloads"]) <= 8 and all(len(w["why"]) <= 200 for w in m["workloads"])
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in m[key]]
    assert len(names) == len(set(names)) and all(len(n) <= 64 for n in names)
    assert all(0 < x["bound"] <= 0.25 for x in m["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in m["end_to_end"]
    # a measurement campaign of 4 + 22 runs per workload, set-up included, fits in an hour
    assert (4 + 22 * len(m["workloads"])) * (m["run_seconds"] + 10) < 3420


# --- worker ---------------------------------------------------------------


def test_worker_reports_every_declared_metric(tmp_path):
    import worker

    tally = worker.Tally()
    e2e = worker.steady("cells", 3, 0.3, str(tmp_path), tally)
    assert {n for n, *_ in spec.END_TO_END} - {"setup_s"} <= set(e2e)
    traced = worker.trace("cells", 3, 0.3, str(tmp_path), tally, str(tmp_path / "spans.json"))
    assert set(traced["layers"]) == {n for n, *_ in spec.PER_LAYER}
    assert all(v > 0 for k, v in traced["layers"].items() if k.endswith(("_ms", "_us")))
    assert tally.failed == 0 and sum(tally.expected.values()) > 0
    assert json.loads((tmp_path / "spans.json").read_text())[0]["name"] == "op"
