"""Seeded inputs and the op of each workload.

Every input is a pure function of ``(seed, op index)``; the program under
test only ever sees the generated numbers.  An op is one unit of user work.
``run_op`` executes it, timing each library call it makes as a child span of
the op span; ``probe`` re-times the inner public entry points on the same
inputs as sibling spans, for the per-layer split of a traced run.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

import cptkit as ck
from cptkit import cli
from cptkit.io import format_float, matrix_document

SCAN_POINTS = 1000
CHAIN_BLOCKS = 100

# One cells cycle: 12 unbroken pipelines, 5 broken classifications,
# 2 compositions and 1 exact exceptional point (60 / 25 / 10 / 5 percent).
# A fixed cycle keeps the mix, and so the latency percentiles, the same for
# every seed; the seed moves only the parameters.
CELLS_CYCLE = (
    ("unbroken", "2x2"), ("unbroken", "3x3"), ("broken", "2x2"), ("unbroken", "4x4"),
    ("unbroken", "tensor"), ("broken", "3x3"), ("unbroken", "2x2"), ("compose", None),
    ("unbroken", "3x3"), ("broken", "4x4"), ("unbroken", "4x4"), ("unbroken", "tensor"),
    ("ep", "2x2"), ("unbroken", "2x2"), ("broken", "tensor"), ("unbroken", "3x3"),
    ("unbroken", "4x4"), ("compose", None), ("broken", "2x2"), ("unbroken", "tensor"),
)
COMPOSITIONS = ("tensor", "dsum", "double")


@dataclass
class Problem:
    """One generated input: a model spec (or a composition recipe) plus
    everything the oracle needs to know about it."""

    kind: str
    family: str | None = None
    blocks: tuple = ()
    a: float | None = None
    op: str | None = None  # composition kind
    parts: tuple = ()  # composition factors, each a Problem
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    sweep: dict | None = None

    @property
    def spec(self) -> ck.ModelSpec:
        return ck.ModelSpec(self.family, self.blocks, a=self.a)

    def cli_args(self) -> list[str]:
        args = ["--model", self.family]
        for r, s, theta in self.blocks:
            args += ["--r", repr(r), "--s", repr(s), "--theta", repr(theta)]
        if self.a is not None:
            args += ["--a", repr(self.a)]
        return args


@dataclass
class Outcome:
    """What an op produced, for the oracle and the probe."""

    h: np.ndarray | None = None
    frame: object = None
    report: object = None
    result: object = None
    hermitized: np.ndarray | None = None
    inner: complex | None = None
    composed: tuple = ()
    csv: bytes | None = None
    reports: list = field(default_factory=list)


# --- cell parameters ------------------------------------------------------


def cell_eigenvalues(r: float, s: float, theta: float) -> tuple[complex, complex]:
    """E = r cos(theta) +- sqrt(s^2 - r^2 sin^2(theta)), either regime."""
    root = np.sqrt(complex(s * s - (r * np.sin(theta)) ** 2))
    base = r * np.cos(theta)
    return base + root, base - root


def _cell(rng, unbroken: bool) -> tuple[float, float, float]:
    s = float(rng.uniform(0.5, 2.0))
    theta = float(rng.uniform(0.15, 1.4))
    x = float(rng.uniform(0.1, 0.9) if unbroken else rng.uniform(1.2, 3.0))
    return (float(x * s / np.sin(theta)), s, theta)


def _separated(values, gap: float) -> bool:
    v = np.sort(np.asarray(values, dtype=float))
    return bool(np.all(np.diff(v) > gap) and np.all(np.abs(v) > gap))


def _cells(rng, count: int, unbroken: bool, spectrum, gap: float = 0.05) -> tuple:
    """Draw ``count`` cells until ``spectrum(cells)`` is well separated, so no
    accidental degeneracy or zero eigenvalue turns up in a simple-spectrum op."""
    while True:
        cells = tuple(_cell(rng, unbroken) for _ in range(count))
        if _separated(spectrum(cells), gap):
            return cells


def _reals(cells) -> list[float]:
    return [z.real for b in cells for z in cell_eigenvalues(*b)]


def _products(cells) -> list[float]:
    return [(e * f).real for e in cell_eigenvalues(*cells[0]) for f in cell_eigenvalues(*cells[1])]


def model_problem(rng, kind: str, family: str) -> Problem:
    if kind == "ep":
        r = float(rng.uniform(0.5, 3.0))
        return Problem("ep", "2x2", ((r, r, np.pi / 2),))
    unbroken = kind == "unbroken"
    first = (_cell(rng, unbroken),)
    if family == "2x2":
        p = Problem(kind, family, first)
    elif family == "3x3":
        a = float(rng.uniform(-3.0, 3.0))
        while unbroken and not _separated(_reals(first) + [a], 0.05):
            first, a = (_cell(rng, True),), float(rng.uniform(-3.0, 3.0))
        p = Problem(kind, family, first, a=a)
    elif unbroken:  # 4x4 or tensor of two unbroken cells, simple spectrum
        p = Problem(kind, family, _cells(rng, 2, True, _reals if family == "4x4" else _products))
    else:  # a broken cell next to, or tensored with, an unbroken one
        p = Problem(kind, family, first + _cells(rng, 1, True, _reals))
    n = {"2x2": 2, "3x3": 3, "4x4": 4, "tensor": 4}[family]
    p.u = rng.normal(size=n) + 1j * rng.normal(size=n)
    p.v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return p


# --- generators -----------------------------------------------------------


def scan_sweep(seed: int) -> dict:
    """Jittered copy of the README sweep: the exceptional point stays inside
    the grid, with 30-37% of the grid on the unbroken side."""
    rng = np.random.default_rng([seed, 0])
    r = float(rng.uniform(1.5, 2.5))
    lo = float(rng.uniform(0.005, 0.03))
    hi = float(rng.uniform(1.45, 1.56))
    theta_c = lo + float(rng.uniform(0.30, 0.37)) * (hi - lo)
    return {"r": r, "s": r * float(np.sin(theta_c)), "lo": lo, "hi": hi, "n": SCAN_POINTS}


def chain_blocks(rng, clustered: bool) -> tuple:
    """100 unbroken blocks: all distinct with well-separated eigenvalues, or a
    few distinct blocks each repeated 2 to 12 times, shuffled."""
    if not clustered:
        return _cells(rng, CHAIN_BLOCKS, True, _reals, gap=1e-4)
    sizes: list[int] = []
    while sum(sizes) < CHAIN_BLOCKS:
        sizes.append(int(rng.integers(2, 13)))
    sizes[-1] -= sum(sizes) - CHAIN_BLOCKS
    if sizes[-1] < 2:
        last = sizes.pop()
        sizes[-1] += last
    distinct = _cells(rng, len(sizes), True, _reals, gap=1e-3)
    blocks = [b for b, k in zip(distinct, sizes) for _ in range(k)]
    return tuple(blocks[i] for i in rng.permutation(CHAIN_BLOCKS))


def problem(workload: str, seed: int, index: int) -> Problem:
    """The input of op ``index`` of ``workload`` under ``seed``."""
    if workload == "scan-2x2":
        return Problem("scan", "2x2", sweep=scan_sweep(seed))
    rng = np.random.default_rng([seed, index + 1])
    if workload == "cells":
        kind, family = CELLS_CYCLE[index % len(CELLS_CYCLE)]
        if kind != "compose":
            return model_problem(rng, kind, family)
        op = COMPOSITIONS[(index // len(CELLS_CYCLE) + (index % len(CELLS_CYCLE) > 10)) % 3]
        count = {"tensor": 2, "dsum": int(rng.integers(2, 4)), "double": 1}[op]
        parts = tuple(model_problem(rng, "unbroken", "2x2") for _ in range(count))
        return Problem("compose", op=op, parts=parts)
    blocks = chain_blocks(rng, workload == "chain-clustered")
    n = 2 * CHAIN_BLOCKS
    return Problem("unbroken", "chain", blocks,
                   u=rng.normal(size=n) + 1j * rng.normal(size=n),
                   v=rng.normal(size=n) + 1j * rng.normal(size=n))


# --- ops ------------------------------------------------------------------


def scan_argv(sweep: dict, out: str) -> list[str]:
    return ["scan", "--model", "2x2",
            "--sweep", f"theta={sweep['lo']!r}:{sweep['hi']!r}:{sweep['n']}",
            "--r", repr(sweep["r"]), "--s", repr(sweep["s"]), "--out", out]


def _quiet(fn, *args):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args)


def run_op(p: Problem, rec, workdir: str) -> Outcome:
    """Execute one op, each library call a child span of the current span."""
    out = Outcome()
    if p.kind == "scan":
        path = os.path.join(workdir, "scan.csv")
        with rec.span("cli.main"):
            code = _quiet(cli.main, scan_argv(p.sweep, path))
        if code != 0:
            raise RuntimeError(f"cpt-kit scan exited with {code}")
        with open(path, "rb") as fh:
            out.csv = fh.read()
        return out
    if p.kind == "compose":
        return _compose(p, rec)
    with rec.span("models.build_model"):
        out.h, out.frame = ck.build_model(p.spec)
    with rec.span("symmetry.classify_symmetry"):
        out.report = ck.classify_symmetry(out.h, out.frame)
    out.reports.append(out.report)
    if p.kind != "unbroken":
        return out
    with rec.span("cpt.build_c"):
        out.result = ck.build_c(out.h, out.frame)
    with rec.span("cpt.hermitize"):
        out.hermitized = ck.hermitize(out.h, out.result.cpt)
    if p.family != "chain":
        with rec.span("cpt.cpt_inner"):
            out.inner = ck.cpt_inner(p.u, p.v, out.result.cpt)
    return out


def _compose(p: Problem, rec) -> Outcome:
    out = Outcome()
    factors = []
    for part in p.parts:
        with rec.span("models.build_model"):
            h, frame = ck.build_model(part.spec)
        if p.op == "double":
            factors.append((h, None))
            continue
        with rec.span("cpt.build_c"):
            factors.append((h, ck.build_c(h, frame).cpt))
    if p.op == "tensor":
        (h1, c1), (h2, c2) = factors
        with rec.span("composition.tensor_hamiltonians"):
            out.composed = ck.tensor_hamiltonians(h1, h2, c1, c2)
    elif p.op == "dsum":
        with rec.span("composition.direct_sum"):
            out.composed = ck.direct_sum(ck.BlockSpec(tuple(factors)))
    else:
        with rec.span("composition.doubling"):
            out.composed = ck.doubling(factors[0][0])
    return out


# --- probe ----------------------------------------------------------------


def _timed(rec, name, fn, *args, item=None):
    """Call ``fn`` in a span; an expected library error yields None."""
    with rec.span(name, item=item):
        try:
            return fn(*args)
        except ck.CptKitError:
            return None


def _probe_problem(rec, h, frame, item=None, cpt=None, full=False, u=None, v=None):
    _timed(rec, "frames.validate_pt_frame", ck.validate_pt_frame, frame.p, frame.t, item=item)
    _timed(rec, "linops.eigendecompose", ck.eigendecompose, h, item=item)
    _timed(rec, "ref.eig", np.linalg.eig, h, item=item)
    _timed(rec, "symmetry.is_pt_symmetric", ck.is_pt_symmetric, h, frame, item=item)
    report = None
    if full:  # the op itself did not classify or synthesize: do it here
        report = _timed(rec, "symmetry.classify_symmetry", ck.classify_symmetry, h, frame, item=item)
        if report is not None and report.classification == ck.UNBROKEN:
            result = _timed(rec, "cpt.build_c", ck.build_c, h, frame, item=item)
            cpt = None if result is None else result.cpt
            if cpt is not None:
                _timed(rec, "cpt.hermitize", ck.hermitize, h, cpt, item=item)
                _timed(rec, "cpt.cpt_inner", ck.cpt_inner, u, v, cpt, item=item)
    if cpt is not None:
        _timed(rec, "frames.validate_cpt_frame", ck.validate_cpt_frame, cpt.c, frame, item=item)
        _timed(rec, "linops.hermitian_power", ck.hermitian_power, cpt.pc_matrix, 0.5, item=item)
    return report


def probe(p: Problem, out: Outcome | None, rec, seed: int) -> list:
    """Re-time the inner entry points of every layer on the op's inputs.

    Layers the op itself calls are timed in ``run_op``; the probe covers the
    rest, so every layer is measured on every workload.  Returns the
    classification reports the probe produced.
    """
    reports = []
    if p.kind == "scan":
        sw = p.sweep
        rng = np.random.default_rng([seed, 1])
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        mats, values = [], []
        for i, theta in enumerate(np.linspace(sw["lo"], sw["hi"], sw["n"])):
            block = ((sw["r"], sw["s"], float(theta)),)
            h, frame = _timed(rec, "models.build_model",
                              lambda: ck.build_model(ck.ModelSpec("2x2", block)), item=i)
            report = _probe_problem(rec, h, frame, item=i, full=True, u=u, v=v)
            if report is not None:
                reports.append(report)
                values.append(float(theta))
                for z in report.eigenvalues:
                    values += [z.real, z.imag]
            _timed(rec, "composition.doubling", ck.doubling, h, item=i)
            mats.append(h)
        _timed(rec, "ref.eig_stacked", np.linalg.eig, np.stack(mats))
        _timed(rec, "io.format", lambda: [format_float(x) for x in values])
        return reports
    if p.kind == "compose":
        h, frame = out.composed[0], out.composed[1]
        base = frame.frame if isinstance(frame, ck.CPTFrame) else frame
        cpt = frame if isinstance(frame, ck.CPTFrame) else None
        _probe_problem(rec, h, base, cpt=cpt)
    else:
        if out is None:  # the op raised (an exceptional point): rebuild its input
            out = Outcome()
            out.h, out.frame = ck.build_model(p.spec)
        h = out.h
        if p.family == "chain":
            blocks = tuple(ck.build_model(ck.ModelSpec("2x2", (b,))) for b in p.blocks)
            _timed(rec, "composition.direct_sum", ck.direct_sum, ck.BlockSpec(blocks))
            _timed(rec, "cpt.cpt_inner", ck.cpt_inner, p.u, p.v, out.result.cpt)
        cpt = None if out.result is None else out.result.cpt
        _probe_problem(rec, h, out.frame, cpt=cpt)
        _timed(rec, "cli.main", _quiet, cli.main, ["analyze", *p.cli_args()])
    _timed(rec, "ref.eig_stacked", np.linalg.eig, h[None])
    result = out.hermitized if out.hermitized is not None else h
    _timed(rec, "io.format", matrix_document, result)
    return reports
