"""One owner per decision: only :mod:`cptkit.symmetry` reads the record of
its classification pipeline, :mod:`cptkit.linops` alone states the
positive-definiteness, tolerance, block-join and one-block rules, and
:meth:`cptkit.frames.CPTFrame.validate` alone works out the thresholds of a
CPT-frame's verdict."""

import ast
from pathlib import Path

import numpy as np
import pytest

from cptkit import (
    Operator,
    build_c,
    cli,
    cpt,
    cpt_adjoint,
    frames,
    hermitian_power,
    hermitian_powers,
    linops,
    pair_swap_frame,
)
from cptkit.errors import NotHermitian, NotPositiveDefinite
from cptkit.frames import CPTFrame
from cptkit.linops import DEFAULT_TOL
from helpers import COVARIANCE_FAMILIES, covariance_problem, random_complex, unitary_basis_change

PACKAGE = Path(linops.__file__).parent


def _imports(name: str) -> dict[str, set[str]]:
    """The names that module ``name`` of the package imports, by the module they come from."""
    found = {}
    for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
        if isinstance(node, ast.ImportFrom):
            found.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name, set())
    return found


def test_only_the_symmetry_module_reads_the_classification_record():
    # the synthesis asks symmetry for the unbroken states; it reads no field of the record
    source = (PACKAGE / "cpt.py").read_text()
    for read in ("_analysis", ".classification[", ".phi[", ".stack[", ".energy[", ".pt_residual["):
        assert read not in source, read
    assert not _imports("cpt.py")["symmetry"] & {"_classify_one", "UNBROKEN", "_Rows"}
    assert not hasattr(cpt, "_record")


def test_the_block_join_lives_in_linops_and_models_leaves_composition_alone(monkeypatch):
    for name in ("_block_diag", "_block_join"):
        definers = [
            path.name
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        assert definers == ["linops.py"], name
    assert "composition" not in _imports("models.py")
    # the metric's eigenvectors and the real basis's maps back are joined by it
    joins, join = [], linops._block_join
    for module in (linops, frames):
        monkeypatch.setattr(module, "_block_join", lambda *args: joins.append(len(args[2])) or join(*args))
    ats, blocks = [np.array([[0, 1], [2, 3]])], [np.eye(2)[None].repeat(2, 0)]
    linops.joined_spectrum(4, ats, [np.array([[2.0, 1.0], [0.5, 3.0]])], blocks)
    pair_swap_frame(4).real_basis.from_blocks(ats, blocks)
    assert joins == [1, 1]
    # one block of the whole is the part itself, unless its columns move
    part, whole = np.arange(4.0).reshape(1, 2, 2), [np.arange(2)[None]]
    assert np.shares_memory(join(2, whole, [part]), part)
    assert np.array_equal(join(2, whole, [part], [np.array([[1, 0]])]), part[0, :, ::-1])


def test_one_block_of_all_n_indices_is_stated_in_linops_alone():
    # the unsplit case is a property of the partition: linops states it, the others ask it
    definers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_one_block"
    ]
    assert definers == ["linops.py"]
    for name in ("frames.py", "symmetry.py"):
        assert "_one_block" in _imports(name)["linops"], name
        shapes = [
            node.lineno
            for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
            if isinstance(node, ast.Compare)
            for side in (node.left, *node.comparators)
            if isinstance(side, ast.Attribute) and side.attr == "shape" and isinstance(side.value, ast.Subscript)
        ]  # as of the first of the block indices, ats[0].shape
        assert not shapes, (name, shapes)
    n = 4
    assert linops._one_block([np.arange(n)[None]], (1, n))
    assert linops._one_block((np.arange(n)[None].repeat(3, 0),), (3, n))
    assert not linops._one_block([np.arange(n)[None].repeat(3, 0)], (1, n))
    assert not linops._one_block([np.array([[0, 1]]), np.array([[2, 3]])], (1, n))
    assert not linops._one_block([np.array([[0, 1], [2, 3]])], (1, n))


def test_the_cli_tolerance_is_the_library_rule(monkeypatch):
    assert "math" not in _imports("cli.py")
    checked = []
    monkeypatch.setattr(cli, "require_tolerance", lambda tol: checked.append(tol) or linops.require_tolerance(tol))
    assert cli._tolerance("1e-8") == 1e-8 and checked == [1e-8]


def test_validation_and_the_spectral_powers_share_one_positive_definiteness_rule(monkeypatch):
    assert frames.positive_definiteness is linops.positive_definiteness
    rules = []

    def counting(w, tol, _rule=linops.positive_definiteness):
        rules.append(tol)
        return _rule(w, tol)

    monkeypatch.setattr(linops, "positive_definiteness", counting)
    monkeypatch.setattr(frames, "positive_definiteness", counting)
    h = np.array([[1.0 + 0.5j, 2.0], [2.0, 1.0 - 0.5j]])
    frame = build_c(h, pair_swap_frame(2)).cpt
    rules.clear()
    frame.validate(1e-9)
    frame.metric_roots(2e-9)
    cpt_adjoint(Operator.linear(h), frame, 3e-9)
    hermitian_power(2.0 * np.eye(2), 0.5, 4e-9)
    hermitian_powers(3.0 * np.eye(2), (0.5, -1.0), 5e-9)
    assert rules == [1e-9, 2e-9, 3e-9, 4e-9, 5e-9]


def test_build_c_takes_the_cpt_frame_verdict_of_validate_at_its_own_tol(monkeypatch):
    assert all("pd_tol" not in path.read_text() for path in PACKAGE.glob("*.py"))
    calls = []

    def recording(self, *args, _validate=CPTFrame.validate, **kwargs):
        calls.append((args, kwargs))
        return _validate(self, *args, **kwargs)

    monkeypatch.setattr(CPTFrame, "validate", recording)
    for h, frame in (covariance_problem(np.random.default_rng(21), "chain"), (np.eye(4), pair_swap_frame(4))):
        calls.clear()
        build_c(h, frame, 1e-9)
        assert calls == [((1e-9,), {})]


def _definite(rng, n: int, smallest: float) -> np.ndarray:
    """An exactly Hermitian n x n matrix with eigenvalues from ``smallest`` up to about 5."""
    q, _ = np.linalg.qr(random_complex(rng, (n, n)))
    w = np.concatenate(([smallest], np.linspace(1.0, 5.0, n - 1)))
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_the_spectral_powers_do_not_depend_on_the_scale(scale):
    rng = np.random.default_rng(20)
    m = _definite(rng, 5, 0.3)
    for p in (0.5, -0.5, -1.0, 2.0):
        expected = scale**p * hermitian_power(m, p)
        got = hermitian_power(scale * m, p)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    # refused alike: indefinite, and definite only below tol * max|w|
    for smallest in (-0.3, 0.0, 0.5 * DEFAULT_TOL * 5.0):
        bad = _definite(rng, 5, smallest)
        for matrix in (bad, scale * bad):
            with pytest.raises(NotPositiveDefinite):
                hermitian_power(matrix, 0.5)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6, 1e12])
def test_the_spectral_powers_judge_hermiticity_relative_to_the_scale(scale):
    rng = np.random.default_rng(22)
    a = random_complex(rng, (5, 5))
    m = a @ a.conj().T + np.eye(5)  # Hermitian to rounding
    expected = np.sqrt(scale) * hermitian_power(m, 0.5)
    assert np.linalg.norm(hermitian_power(scale * m, 0.5) - expected) <= 1e-12 * np.linalg.norm(expected)
    with pytest.raises(NotHermitian):
        hermitian_power(scale * (m + 1e-3 * (a - a.conj().T)), 0.5)


def _moved_metrics(result, tol):
    """CPT-frames over the frame of ``result`` whose metric is its PC with the
    smallest eigenvalue moved to each of several multiples of ``tol * max|w|``."""
    w, u = result.cpt.metric_spectrum
    for factor in (-1.0, 0.0, 0.5, 0.99, 1.01, 2.0, 1e3):
        target = w.copy()
        target[0] = factor * tol * np.abs(w).max()
        pc = (u * target) @ u.conj().T
        # C = P (PC), since P^2 = I
        yield CPTFrame(result.cpt.frame, Operator.linear(result.cpt.frame.apply_p((pc + pc.conj().T) / 2.0)))


@pytest.mark.parametrize("moved", [False, True], ids=["index-frame", "dense-frame"])
def test_the_metric_roots_refuse_exactly_what_validation_refuses(moved):
    rng = np.random.default_rng(2020)
    outcomes = set()
    for family in COVARIANCE_FAMILIES:
        h, frame = covariance_problem(rng, family)
        if moved:
            _, h, frame = unitary_basis_change(h, frame, rng)
        result = build_c(h, frame)
        for tol in (DEFAULT_TOL, 1e-6):
            for candidate in (result.cpt, *_moved_metrics(result, tol)):
                refused = "PC positive definite" in dict(candidate.validate(tol).violations)
                try:
                    candidate.metric_roots(tol)
                except NotPositiveDefinite:
                    raised = True
                else:
                    raised = False
                assert raised == refused, (family, tol)
                outcomes.add(refused)
    assert outcomes == {False, True}


def _skewed_metrics(result, tol):
    """CPT-frames over the frame of ``result`` whose metric is its PC plus an
    anti-Hermitian K, scaled so that |PC - PC^+| is each of several multiples
    of ``tol * max|w|``, and that factor; K leaves the Hermitian part, and so
    the metric spectrum, as it was, up to rounding."""
    rng = np.random.default_rng(result.cpt.dim)
    pc, w = result.cpt.pc_matrix, result.cpt.metric_spectrum[0]
    k = random_complex(rng, pc.shape)
    k = (k - k.conj().T) / (2.0 * np.linalg.norm(k - k.conj().T))  # |K - K^+| = 1
    hermitian = (pc + pc.conj().T) / 2.0
    for factor in (0.5, 0.99, 1.01, 2.0):
        skewed = hermitian + factor * tol * np.abs(w).max() * k
        yield factor, CPTFrame(result.cpt.frame, Operator.linear(result.cpt.frame.apply_p(skewed)))


@pytest.mark.parametrize("moved", [False, True], ids=["index-frame", "dense-frame"])
def test_the_metric_roots_refuse_the_hermiticity_that_validation_refuses(moved):
    rng = np.random.default_rng(2021)
    for family in COVARIANCE_FAMILIES:
        h, frame = covariance_problem(rng, family)
        if moved:
            _, h, frame = unitary_basis_change(h, frame, rng)
        result = build_c(h, frame)
        for tol in (DEFAULT_TOL, 1e-6):
            for factor, candidate in ((0.0, result.cpt), *_skewed_metrics(result, tol)):
                refused = "PC hermitian" in dict(candidate.validate(tol).violations)
                # the threshold is tol * max|w|, whatever the scale of the metric
                assert refused == (factor > 1.0), (family, tol, factor)
                try:
                    candidate.metric_roots(tol)
                except NotHermitian:
                    raised = True
                else:
                    raised = False
                assert raised == refused, (family, tol, factor)
