import ast
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cptkit import (
    DEFAULT_TOL,
    BlockSpec,
    CPTFrame,
    FrameReport,
    ModelSpec,
    Operator,
    PTFrame,
    apply,
    build_c,
    build_model,
    checked_cpt_frame,
    checked_pt_frame,
    classify_stack,
    classify_symmetry,
    compose,
    direct_sum,
    doubling,
    frame_from_involution,
    hermitian_power,
    hermitian_powers,
    hermitize,
    is_pt_symmetric,
    model_frame,
    normalize_indefinite,
    pair_swap_frame,
    pt_inner,
    tensor_frames,
    validate_cpt_frame,
    validate_pt_frame,
)
from cptkit.errors import (
    EXIT_USAGE,
    DimensionMismatch,
    FrameInvalid,
    InvalidArgument,
    IsIdentity,
    KindMismatch,
    NonRealEntries,
    NotInvolution,
)
from cptkit import frames
from cptkit.frames import CONSTRUCTION_TOL
from cptkit.io import frame_document, parse_frame_document, write_frame
from cptkit.linops import _same, frobenius, spectral_powers
from helpers import SWAP, any_dim_frame, covariance_problem, random_complex, random_pt_symmetric, unitary_basis_change

EQ12_P = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def closed_form_c_2x2(phi):
    return np.array(
        [[1j * np.tan(phi), 1 / np.cos(phi)], [1 / np.cos(phi), -1j * np.tan(phi)]]
    )


def test_validate_swap_conjugation_passes():
    report = validate_pt_frame(Operator.linear(SWAP), Operator.conjugation(2))
    assert report.passed
    assert report.violations == ()


def test_validate_identity_parity_fails():
    report = validate_pt_frame(Operator.identity(2), Operator.conjugation(2))
    assert not report.passed
    assert [name for name, _ in report.violations] == ["P != I"]


def test_validate_non_involution_fails():
    report = validate_pt_frame(
        Operator.linear([[1.0, 1.0], [0.0, 1.0]]), Operator.conjugation(2)
    )
    assert not report.passed
    assert "P^2 = I" in [name for name, _ in report.violations]


def test_validate_noncommuting_pair_fails():
    # complex parity does not commute with entrywise conjugation
    p = np.array([[0.0, 1j], [-1j, 0.0]])
    report = validate_pt_frame(Operator.linear(p), Operator.conjugation(2))
    assert not report.passed
    assert "PT = TP" in [name for name, _ in report.violations]


def test_validate_kind_mismatch():
    with pytest.raises(KindMismatch):
        validate_pt_frame(Operator.conjugation(2), Operator.conjugation(2))
    with pytest.raises(KindMismatch):
        validate_pt_frame(Operator.linear(SWAP), Operator.identity(2))


def test_validate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_pt_frame(Operator.linear(SWAP), Operator.conjugation(4))


def test_pair_swap_frame_2():
    frame = pair_swap_frame(2)
    np.testing.assert_allclose(frame.p.matrix, SWAP)
    np.testing.assert_allclose(frame.t.matrix, np.eye(2))


def test_pair_swap_frame_4_matches_block_structure():
    np.testing.assert_allclose(pair_swap_frame(4).p.matrix, EQ12_P)


def test_pair_swap_frame_6_validates_tightly():
    frame = pair_swap_frame(6)
    assert validate_pt_frame(frame.p, frame.t, tol=1e-12).passed


@pytest.mark.parametrize("n", [2, 6, 200])
def test_pair_swap_frame_is_the_kron_construction(n):
    frame = pair_swap_frame(n)
    assert frame.p.matrix.tobytes() == np.kron(np.eye(n // 2), SWAP).astype(complex).tobytes()
    assert frame.t.matrix.tobytes() == np.eye(n, dtype=complex).tobytes()
    assert frame.p.is_linear and not frame.t.is_linear


def test_pair_swap_frame_rejects_odd():
    with pytest.raises(ValueError):
        pair_swap_frame(3)


def test_frame_from_involution_with_fixed_point():
    p = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    frame = frame_from_involution(p)
    assert validate_pt_frame(frame.p, frame.t, tol=1e-12).passed


def test_frame_from_involution_diag_signs():
    frame = frame_from_involution(np.diag([1.0, -1.0]))
    assert frame.dim == 2


def test_frame_from_involution_reflection():
    # non-permutation real involution: (1/5) [[3, 4], [4, -3]]
    frame = frame_from_involution(np.array([[0.6, 0.8], [0.8, -0.6]]))
    assert validate_pt_frame(frame.p, frame.t).passed


def test_frame_from_involution_rejections():
    with pytest.raises(NotInvolution):
        frame_from_involution([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(IsIdentity):
        frame_from_involution(np.eye(3))
    with pytest.raises(NonRealEntries):
        frame_from_involution(np.array([[0.0, 1j], [-1j, 0.0]]))


def test_validate_cpt_closed_form_c_passes():
    frame = pair_swap_frame(2)
    c = Operator.linear(closed_form_c_2x2(np.arcsin(0.25)))
    assert validate_cpt_frame(c, frame).passed


def test_validate_cpt_c_equals_p_passes():
    frame = pair_swap_frame(2)
    assert validate_cpt_frame(Operator.linear(SWAP), frame).passed


def test_validate_cpt_negative_identity_fails_positivity():
    frame = pair_swap_frame(2)
    report = validate_cpt_frame(Operator.linear(-np.eye(2)), frame)
    assert not report.passed
    assert [name for name, _ in report.violations] == ["PC positive definite"]


def test_validate_cpt_overflowing_residuals_are_violations():
    # every entry of C is finite, but C^2 and two other residuals overflow
    report = validate_cpt_frame(Operator.linear(np.diag([1e300, 1e-300])), pair_swap_frame(2))
    assert not report.passed
    assert [name for name, _ in report.violations] == [
        "C^2 = I", "CPT = TPC", "PC hermitian", "PC positive definite",
    ]
    # an overflowed residual reads inf, not nan, also where BLAS forms inf * 0
    assert [residual for _, residual in report.violations[:3]] == [np.inf] * 3
    t_report = validate_pt_frame(Operator.linear(SWAP), Operator.antilinear(np.diag([1e300, 1e-300])))
    assert dict(t_report.violations)["T^2 = I"] == np.inf


def test_validate_cpt_kind_and_dimension_checks():
    frame = pair_swap_frame(2)
    with pytest.raises(KindMismatch):
        validate_cpt_frame(Operator.conjugation(2), frame)
    with pytest.raises(DimensionMismatch):
        validate_cpt_frame(Operator.identity(4), frame)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8])
def test_frame_operators_commute_and_square(dim):
    frame = any_dim_frame(dim)
    pt_then = compose(frame.p, frame.t)
    tp_then = compose(frame.t, frame.p)
    np.testing.assert_allclose(pt_then.matrix, tp_then.matrix, atol=1e-12)
    np.testing.assert_allclose(compose(pt_then, pt_then).matrix, np.eye(dim), atol=1e-12)


def test_operators_and_frames_compare_by_kind_and_entries():
    eye = np.eye(2)
    assert Operator.linear(eye) == Operator.linear(eye.astype(complex))
    assert Operator.linear(eye) != Operator.antilinear(eye)  # an unequal kind
    assert Operator.linear(eye) != Operator.linear(SWAP)
    assert Operator.linear(eye) != eye
    assert pair_swap_frame(4) == pair_swap_frame(4)
    assert pair_swap_frame(4) != frame_from_involution(np.eye(4)[::-1])  # an unequal P
    h = np.array([[1.0 + 0.5j, 2.0], [2.0, 1.0 - 0.5j]])
    cpt = build_c(h, pair_swap_frame(2)).cpt
    assert cpt == CPTFrame(pair_swap_frame(2), Operator.linear(cpt.c.matrix.copy()))
    assert cpt != CPTFrame(pair_swap_frame(2), Operator.linear(SWAP))


def test_pt_frame_apply_matches_operator_composition():
    rng = np.random.default_rng(21)
    frame = any_dim_frame(5)
    v = random_complex(rng, 5)
    np.testing.assert_allclose(frame.apply_pt(v), apply(frame.pt, v))


# ---------------------------------------------------------------- index frames

# The dense formulas of the PT- and CPT-frame axioms, written out as the
# oracle of the index path: a frame whose P is a permutation must report what
# these report, bit for bit.


def dense_pt_violations(p, t, tol):
    mp, mt = p.matrix, t.matrix
    eye = np.eye(p.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = (
            ("P^2 = I", frobenius(mp @ mp - eye)),
            ("T^2 = I", frobenius(mt @ mt.conj() - eye)),
            ("PT = TP", frobenius(mp @ mt - mt @ mp.conj())),
        )
    violations = [(name, float(residual)) for name, residual in residuals if not residual <= tol]
    identity_distance = float(frobenius(mp - eye))
    if identity_distance <= tol:
        violations.append(("P != I", identity_distance))
    return tuple(violations)


def dense_cpt_violations(c, frame, tol):
    # the equation residuals against tol * max(1, |C|)^2, the metric's two
    # checks against tol * max|w|; a bound that overflows admits nothing
    mp, mt, mc = frame.p.matrix, frame.t.matrix, c.matrix
    pc = mp @ mc
    w = np.linalg.eigh((pc + pc.conj().T) / 2.0)[0]
    threshold = tol * float(np.abs(w).max())
    with np.errstate(over="ignore", invalid="ignore"):
        bound = tol * max(1.0, frobenius(mc)) ** 2
        residuals = (
            ("C^2 = I", frobenius(mc @ mc - np.eye(frame.dim)), bound),
            ("CPT = TPC", frobenius(mc @ mp @ mt - mt @ mp.conj() @ mc.conj()), bound),
            ("PC hermitian", frobenius(pc - pc.conj().T), threshold),
        )
    violations = [(name, float(residual)) for name, residual, limit in residuals if not residual <= limit < np.inf]
    if not float(w.min()) > threshold:
        violations.append(("PC positive definite", threshold - float(w.min())))
    return tuple(violations)


def random_involution(rng, n):
    """A seeded involutive permutation: a random set of disjoint swaps."""
    perm, order = np.arange(n), rng.permutation(n)
    pairs = order[: 2 * int(rng.integers(0, n // 2 + 1))].reshape(-1, 2)
    perm[pairs[:, 0]], perm[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    return perm


def _parity_matrices():
    """Real parity candidates: involutive permutations (one with negative
    zeros), the identity, non-involutive and signed permutations, a
    reflection that is no permutation and a non-Hermitian involution."""
    rng = np.random.default_rng(90)
    out = [np.eye(n)[random_involution(rng, n)] for n in (1, 2, 3, 5, 8, 13, 21, 34, 50)]
    swaps = np.eye(6)[[1, 0, 3, 2, 4, 5]]
    out.append(np.where(swaps == 0.0, -0.0, swaps))
    out += [np.eye(4), np.eye(5)[np.roll(np.arange(5), 1)], np.eye(3)[[1, 2, 0]]]
    out += [np.diag([1.0, -1.0]), np.array([[0.0, -1.0], [-1.0, 0.0]]), np.diag([1.0, 1.0, -1.0])[[2, 1, 0]]]
    out += [np.array([[0.6, 0.8], [0.8, -0.6]]), np.array([[0.0, 2.0], [0.5, 0.0]])]
    return out


def _frame_parts():
    """(P, T) over the parities above, each with T = I, a phase T, a
    permutation T and a unitarily moved copy."""
    rng = np.random.default_rng(91)
    parts = []
    for p in _parity_matrices():
        n = len(p)
        u, _ = np.linalg.qr(random_complex(rng, (n, n)))
        parts += [(Operator.linear(p), Operator.antilinear(t)) for t in
                  (np.eye(n), np.diag(np.exp(1j * rng.uniform(0, 6, n))), np.eye(n)[::-1])]
        parts.append((Operator.linear(u @ p @ u.conj().T), Operator.antilinear(u @ u.T)))
    return parts


def _is_index_frame(p, t):
    """Whether P is an involutive permutation matrix and T's matrix part is I."""
    perm = np.argmax(p.matrix.real, axis=1)
    n = p.dim
    return bool(np.array_equal(np.eye(n)[perm], p.matrix) and (perm[perm] == np.arange(n)).all()
                and np.array_equal(t.matrix, np.eye(n)))


def test_validate_pt_frame_matches_the_dense_formulas():
    for p, t in _frame_parts():
        assert (PTFrame(p, t).perm is not None) == _is_index_frame(p, t)
        for tol in (DEFAULT_TOL, CONSTRUCTION_TOL, 0.0):
            report = validate_pt_frame(p, t, tol)
            want = dense_pt_violations(p, t, tol)
            assert report.violations == want
            assert report.passed == (not want)


def test_frame_from_involution_raises_what_the_dense_formulas_imply():
    for p in _parity_matrices() + [np.array([[0.0, 1j], [-1j, 0.0]])]:
        a = np.asarray(p, dtype=complex)
        violations = dict(dense_pt_violations(Operator.linear(a.real), Operator.conjugation(len(a)), CONSTRUCTION_TOL))
        if np.abs(a.imag).max() > DEFAULT_TOL:
            want = NonRealEntries, "parity matrix must have real entries"
        elif "P^2 = I" in violations:
            want = NotInvolution, f"P^2 = I fails with residual {violations['P^2 = I']:.3e}"
        elif "P != I" in violations:
            want = IsIdentity, "the identity matrix is not an admissible parity"
        elif violations:
            want = FrameInvalid, "not a PT-frame: " + FrameReport(False, tuple(violations.items())).describe()
        else:
            want = None
        if want is None:
            assert frame_from_involution(p).p.matrix.tobytes() == a.tobytes()
        else:
            with pytest.raises(want[0]) as info:
                frame_from_involution(p)
            assert str(info.value) == want[1]


def test_pt_residual_matches_the_dense_formula():
    rng = np.random.default_rng(92)
    for base in (pair_swap_frame(2), pair_swap_frame(6), model_frame(ModelSpec("3x3", ((1.0, 2.0, 0.4),), a=1.0)),
                 model_frame(ModelSpec("tensor", ((1.0, 2.0, 0.4), (1.0, 3.0, 0.7))))):
        symmetric = random_pt_symmetric(rng, base)
        for h, frame in ((symmetric, base), unitary_basis_change(symmetric, base, rng)[1:]):
            m = frame.p.matrix @ frame.t.matrix  # the matrix part of PT, composed densely
            for a in (h, random_complex(rng, h.shape)):
                assert is_pt_symmetric(a, frame).residual == float(frobenius(m @ a.conj() @ m.conj() - a))


def _split_pt_symmetric(rng, n):
    """A PT-symmetric direct sum of dimension n over the pair swap, of blocks
    of 2, 4 and 6 indices, with its frame, the pair swap; and the same moved
    by a random permutation, so that no block's indices are contiguous."""
    h, at, sizes = np.zeros((n, n), dtype=complex), 0, itertools.cycle((2, 4, 6))
    while at < n:
        k = min(next(sizes), n - at)
        h[at : at + k, at : at + k] = random_pt_symmetric(rng, pair_swap_frame(k))
        at += k
    frame, perm = pair_swap_frame(n), rng.permutation(n)
    moved = np.ix_(perm, perm)
    return (h, frame), (h[moved], frame_from_involution(frame.p.matrix.real[moved]))


@pytest.mark.parametrize("n", [80, 200])
def test_the_pt_residual_of_a_split_row_is_the_dense_formula_over_its_blocks(n):
    # at and above the split dimension the classification checks PT on the
    # labeling's blocks; below it the residual is the dense formula bit for
    # bit (test_pt_residual_matches_the_dense_formula).  The two sum the same
    # squares in another order: the blocks' sums are joined by hypot over at
    # most n / 2 blocks, each within an ulp, so they agree within n eps
    # relative (3 eps is the largest gap seen over 120 such rows).
    rng = np.random.default_rng(34 + n)
    for h, frame in _split_pt_symmetric(rng, n):
        m = frame.p.matrix @ frame.t.matrix
        perturbed = h + np.where(h != 0, 1e-3 * random_complex(rng, h.shape), 0.0)  # the same pattern
        assert [at.shape[1] for _, at in frame.real_basis.components(perturbed[None])] == [2, 4, 6]
        for a in (h, perturbed):
            dense = float(frobenius(m @ a.conj() @ m.conj() - a))
            report = classify_symmetry(a, frame)
            assert abs(report.pt_residual - dense) <= n * np.finfo(float).eps * dense
            assert report.pt_symmetric == (a is h) and is_pt_symmetric(a, frame).residual == dense


def test_cpt_report_matches_the_dense_formulas():
    rng = np.random.default_rng(93)
    for family in ("2x2", "4x4", "3x3", "tensor", "chain"):
        problem = covariance_problem(rng, family)
        for h, frame in (problem, unitary_basis_change(*problem, rng)[1:]):
            c = build_c(h, frame).cpt.c.matrix
            perturbed = c + 1e-6 * random_complex(rng, c.shape)
            for candidate in map(Operator.linear, (c, perturbed, -c, 3.0 * c)):
                for tol in (DEFAULT_TOL, 1e-3, 1e-12):
                    report = CPTFrame(frame, candidate).validate(tol)
                    assert report.violations == dense_cpt_violations(candidate, frame, tol)


def _round_tripped(frame):
    p, t, _ = parse_frame_document(json.loads(frame_document(frame)))
    return checked_pt_frame(p, t)


def _cell(r, s, theta):
    return build_model(ModelSpec("2x2", ((r, s, theta),)))


BUILT_IN_FRAMES = pytest.mark.parametrize("frame", [
    pair_swap_frame(2), pair_swap_frame(6), pair_swap_frame(200),
    model_frame(ModelSpec("3x3", ((1.0, 2.0, 0.4),), a=1.0)),
    model_frame(ModelSpec("tensor", ((1.0, 2.0, 0.4), (1.0, 3.0, 0.7)))),
    doubling(np.eye(1))[1], doubling(np.arange(9.0).reshape(3, 3))[1],
    direct_sum(BlockSpec((_cell(1.0, 2.0, 0.4), _cell(1.0, 3.0, 0.7))))[1],
    _round_tripped(model_frame(ModelSpec("tensor", ((1.0, 2.0, 0.4), (1.0, 3.0, 0.7))))),
], ids=["swap-2", "swap-6", "swap-200", "3x3", "tensor", "doubling-1", "doubling-3", "direct-sum", "document"])


@BUILT_IN_FRAMES
def test_built_in_frames_carry_their_permutation(frame):
    assert frame.perm is not None and not frame.perm.flags.writeable
    assert np.eye(frame.dim)[frame.perm].astype(complex).tobytes() == frame.p.matrix.tobytes()


@BUILT_IN_FRAMES
def test_built_in_frames_map_into_their_real_basis(frame):
    rng = np.random.default_rng(frame.dim)
    n = frame.dim
    q = frame.real_basis.from_basis(np.eye(n))
    # Q is unitary, its columns are PT-fixed and Q maps back what form maps in
    np.testing.assert_allclose(q.conj().T @ q, np.eye(n), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(frame.apply_pt(q), q)
    a = random_complex(rng, (3, n, n))
    np.testing.assert_allclose(
        frame.real_basis.form(a).real, (q.conj().T @ a @ q).real, rtol=0, atol=1e-14 * np.sqrt(n)
    )
    x = random_complex(rng, (2, n, 3))
    np.testing.assert_allclose(frame.real_basis.from_basis(x), q @ x, rtol=0, atol=1e-15)
    # in that basis the PT-antisymmetric part, half the PT residual, is all
    # of the imaginary part
    h = random_pt_symmetric(rng, frame)
    for noise in (0.0, 1e-6):
        moved = h + noise * random_complex(rng, (n, n))
        imaginary = frobenius((q.conj().T @ moved @ q).imag)
        assert imaginary <= is_pt_symmetric(moved, frame).residual / 2.0 * (1.0 + 1e-8) + 1e-14 * frobenius(h)
        assert not noise or imaginary >= is_pt_symmetric(moved, frame).residual / 2.0 * (1.0 - 1e-6)


def test_other_frames_take_the_dense_path():
    rng = np.random.default_rng(94)
    for frame in (frame_from_involution(np.array([[0.6, 0.8], [0.8, -0.6]])), frame_from_involution(np.diag([1.0, -1.0])),
                  checked_pt_frame(Operator.linear(SWAP), Operator.antilinear(SWAP)),
                  unitary_basis_change(np.eye(4), pair_swap_frame(4), rng)[2]):
        assert frame.perm is None


class _DenseReadForbidden:
    """A stand-in for an operator whose dense matrix must not be read."""

    def __init__(self, kind, dim):
        self.kind, self.dim, self.is_linear = kind, dim, kind == "linear"

    @property
    def matrix(self):
        raise AssertionError("a dense matrix of an index frame was read")


def test_index_frames_apply_p_and_pt_without_their_dense_matrices():
    for h, frame in (_cell(1.0, 2.0, 0.4), build_model(ModelSpec("chain", ((1.0, 2.0, 0.4), (1.0, 3.0, 0.7))))):
        want = build_c(h, frame)
        for name, kind in (("p", "linear"), ("t", "antilinear"), ("pt", "antilinear")):
            object.__setattr__(frame, name, _DenseReadForbidden(kind, frame.dim))
        report = classify_symmetry(h, frame)
        assert report.classification == "unbroken"
        assert classify_stack(h[None], frame).classification.tolist() == ["unbroken"]
        result = build_c(h, frame)
        assert result.cpt.c.matrix.tobytes() == want.cpt.c.matrix.tobytes()
        np.testing.assert_array_equal(hermitize(h, result.cpt), hermitize(h, want.cpt))
        state = report.aligned_states[0].state
        assert normalize_indefinite(state, frame)[1] == result.aligned_states[0].sign
        assert pt_inner(state, state, frame) == np.vdot(state[np.arange(frame.dim) ^ 1], state)


# ---------------------------------------------------------------- thresholds


def _threshold_entries():
    """Each entry that compares residuals against a ``tol`` that may be 0,
    on inputs where every residual is exactly 0 and every margin is wide: an
    index frame, a dense frame (the swap with T = -I), C = P over the swap,
    whose metric PC = I, and a diagonal metric."""
    swap, dense = pair_swap_frame(2), PTFrame(Operator.linear(SWAP), Operator.antilinear(-np.eye(2)))
    c = Operator.linear(SWAP)
    metric, spec = CPTFrame(swap, c), BlockSpec(((np.eye(2), swap), (np.eye(2), swap)))
    m = np.diag([1.0, 4.0])
    return {
        "PTFrame.validate": lambda tol: swap.validate(tol),
        "PTFrame.validate dense": lambda tol: dense.validate(tol),
        "CPTFrame.validate": lambda tol: metric.validate(tol),
        "validate_pt_frame": lambda tol: validate_pt_frame(dense.p, dense.t, tol),
        "validate_cpt_frame": lambda tol: validate_cpt_frame(c, swap, tol),
        "checked_pt_frame": lambda tol: checked_pt_frame(swap.p, swap.t, tol),
        "checked_cpt_frame": lambda tol: checked_cpt_frame(c, swap, tol),
        "tensor_frames of PT-frames": lambda tol: tensor_frames(swap, dense, tol),
        "tensor_frames": lambda tol: tensor_frames(metric, metric, tol),
        "direct_sum": lambda tol: direct_sum(spec, tol),
        "frame_from_involution": lambda tol: frame_from_involution(SWAP, tol),
        "spectral_powers": lambda tol: spectral_powers(m, np.linalg.eigh(m), (0.5, -1.0), tol),
        "hermitian_powers": lambda tol: hermitian_powers(m, (0.5, -1.0), tol),
        "hermitian_power": lambda tol: hermitian_power(m, 0.5, tol),
        "metric_roots": lambda tol: CPTFrame(swap, c).metric_roots(tol),
    }


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("entry", sorted(_threshold_entries()))
def test_a_threshold_that_is_nan_negative_or_infinite_is_a_usage_error(entry, tol):
    call = _threshold_entries()[entry]
    with pytest.raises(InvalidArgument, match="must be a finite number at least 0") as info:
        call(tol)
    assert info.value.exit_code == EXIT_USAGE


@pytest.mark.parametrize("entry", sorted(_threshold_entries()))
def test_a_threshold_of_zero_is_the_exact_check(entry):
    # every residual is exactly 0 here, so the exact check gives the default's result
    call = _threshold_entries()[entry]
    got = call(0.0)
    assert _same(got, call(DEFAULT_TOL))
    if isinstance(got, FrameReport):
        assert got.passed



def test_only_the_frames_module_reads_the_permutation():
    # every other module asks the frame, or its real basis, for what the permutation gives
    package = Path(frames.__file__).parent
    readers = [
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if path.name != "frames.py" and isinstance(node, ast.Attribute) and node.attr == "perm"
    ]
    assert readers == []


#: Each frame built from its index array, with the permutation matrix that
#: frame_from_involution validates for it
INDEX_FRAMES = {
    "swap-2": (lambda: pair_swap_frame(2), np.eye(2)[[1, 0]]),
    "swap-4": (lambda: pair_swap_frame(4), EQ12_P),
    "swap-200": (lambda: pair_swap_frame(200), np.eye(200)[np.arange(200) ^ 1]),
    "3x3": (lambda: model_frame(ModelSpec("3x3", ((1.0, 2.0, 0.4),), a=1.0)), np.eye(3)[[1, 0, 2]]),
    "tensor": (lambda: model_frame(ModelSpec("tensor", ((1.0, 2.0, 0.4), (1.0, 3.0, 0.7)))), np.eye(4)[::-1]),
    "doubling-3": (lambda: doubling(np.arange(9.0).reshape(3, 3))[1], np.roll(np.eye(6), 3, axis=1)),
}


@pytest.mark.parametrize("name", list(INDEX_FRAMES))
def test_an_index_frame_is_the_frame_of_its_involution(name, tmp_path):
    # built from its index array, with no P or T written: both are formed on
    # first read, and are then those that frame_from_involution validates
    # from the permutation matrix, bit for bit
    build, matrix = INDEX_FRAMES[name]
    fast, checked = build(), frame_from_involution(matrix)
    assert "p" not in vars(fast) and "t" not in vars(fast)
    # no step of the frame's own reads P or T
    assert fast.dim == checked.dim and fast.validate() == checked.validate()
    assert all(np.array_equal(a, b) for a, b in zip(_flat(fast.real_basis), _flat(checked.real_basis)))
    assert fast._parity_hermiticity == checked._parity_hermiticity
    assert "p" not in vars(fast) and "t" not in vars(fast)
    write_frame(tmp_path / "fast.json", fast)  # the document reads P and T, so forms them
    write_frame(tmp_path / "checked.json", checked)
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "checked.json").read_bytes()
    assert "p" in vars(fast) and "t" in vars(fast)
    assert fast == checked and checked == fast
    for part in ("p", "t", "pt"):
        got, want = getattr(fast, part), getattr(checked, part)
        assert isinstance(got, Operator) and got.kind == want.kind
        assert (got.matrix.dtype, got.matrix.tobytes()) == (want.matrix.dtype, want.matrix.tobytes())
        assert not got.matrix.flags.writeable
    assert fast.p is fast.p and fast.t is fast.t  # formed once, then kept
    assert fast.perm.tobytes() == checked.perm.tobytes() and not fast.perm.flags.writeable
    for tol in (0.0, DEFAULT_TOL, 1.0):
        assert fast.validate(tol) == checked.validate(tol)
    with pytest.raises(AttributeError, match="no attribute 'q'"):
        fast.q


def test_a_pair_swap_frame_writes_no_dense_matrix():
    # the frame of a chain of 200 cells holds its index array alone
    n = 400
    tracemalloc.start()
    try:
        frame = pair_swap_frame(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(complex).itemsize // 8
    assert "p" not in vars(frame) and "t" not in vars(frame)


def test_the_identity_permutation_is_no_index_frame():
    # the one frame axiom an index array can fail, with frame_from_involution's error
    with pytest.raises(IsIdentity, match="the identity matrix is not an admissible parity"):
        frames._permutation_frame(np.arange(3))
    with pytest.raises(IsIdentity, match="the identity matrix is not an admissible parity"):
        doubling(np.zeros((0, 0)))


def _flat(basis):
    """The arrays of a real basis, its tuples unpacked."""
    return [part for field in basis for part in (field if isinstance(field, tuple) else (field,))]
