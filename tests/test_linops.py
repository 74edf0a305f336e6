import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cptkit import (
    ModelSpec,
    Operator,
    apply,
    build_c,
    build_model,
    classify_2x2,
    classify_stack,
    classify_symmetry,
    closed_form_c,
    compose,
    cpt_adjoint,
    dirac_adjoint,
    doubling,
    eigendecompose,
    hermitian_power,
    hermitian_powers,
    hermitize,
    is_pt_symmetric,
    normalize_indefinite,
    pair_swap_frame,
    phase_align,
    t_transpose,
    tensor_hamiltonians,
)
from cptkit.errors import (
    EXIT_USAGE,
    DefectiveSpectrum,
    DimensionMismatch,
    InvalidArgument,
    KindMismatch,
    NonFiniteEntries,
    NotHermitian,
    NotPositiveDefinite,
)
from cptkit import linops
from cptkit.linops import COND_LIMIT
from cptkit.symmetry import EP_WARNING_K
from helpers import (
    COVARIANCE_FAMILIES,
    H1,
    H2,
    H3,
    SWAP,
    covariance_problem,
    permuted_chain,
    random_cells,
    random_complex,
    solved_whole,
    unitary_basis_change,
)

# closed-form eigenvalues of the 2x2 model at (r=1, s=2, theta=pi/6):
# E_pm = r cos(theta) pm s cos(phi) with sin(phi) = (r/s) sin(theta) = 1/4
E_PLUS = 2.8025170768881473
E_MINUS = -1.0704662693192697
SQRT3 = 1.7320508075688772


def model_2x2(r, s, theta):
    return np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])


# ---------------------------------------------------------------- apply


def test_apply_linear_identity():
    v = np.array([1.0, 2.0 + 3j])
    assert np.array_equal(apply(Operator.identity(2), v), v)


def test_apply_conjugation_flips_imaginary_part():
    out = apply(Operator.conjugation(2), np.array([1j, 0.0]))
    np.testing.assert_allclose(out, np.array([-1j, 0.0]))


def test_apply_antilinear_swap():
    # hand-applied x -> P conj(x) on (1, i)
    out = apply(Operator.antilinear(SWAP), np.array([1.0, 1j]))
    np.testing.assert_allclose(out, np.array([-1j, 1.0]))


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(Operator.identity(2), np.array([1.0, 2.0, 3.0]))


def test_apply_rejects_non_finite():
    with pytest.raises(NonFiniteEntries):
        apply(Operator.identity(2), np.array([np.nan, 1.0]))


@pytest.mark.parametrize("kind", ("linear", "antilinear"))
def test_apply_block_acts_column_by_column(kind):
    rng = np.random.default_rng(5)
    op = Operator(kind, random_complex(rng, (3, 3)))
    block = random_complex(rng, (3, 4))
    expected = np.column_stack([apply(op, block[:, j]) for j in range(4)])
    np.testing.assert_allclose(apply(op, block), expected, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        apply(op, random_complex(rng, (2, 4)))


# ---------------------------------------------------------------- compose


def test_conjugation_squares_to_identity():
    t = Operator.conjugation(2)
    tt = compose(t, t)
    assert tt.is_linear
    np.testing.assert_allclose(tt.matrix, np.eye(2))


def test_swap_after_conjugation_is_antilinear_swap():
    pt = compose(Operator.linear(SWAP), Operator.conjugation(2))
    assert not pt.is_linear
    np.testing.assert_allclose(pt.matrix, SWAP)
    ptpt = compose(pt, pt)
    assert ptpt.is_linear
    np.testing.assert_allclose(ptpt.matrix, np.eye(2), atol=1e-15)


def test_pt_squared_acts_as_identity_on_vectors():
    rng = np.random.default_rng(3)
    pt = pair_swap_frame(4).pt
    for _ in range(20):
        v = random_complex(rng, 4)
        np.testing.assert_allclose(apply(compose(pt, pt), v), v, atol=1e-14)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(Operator.identity(2), Operator.identity(3))


_KINDS = ("linear", "antilinear")


@pytest.mark.parametrize("kind_a", _KINDS)
@pytest.mark.parametrize("kind_b", _KINDS)
def test_compose_consistent_with_apply(kind_a, kind_b):
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = Operator(kind_a, random_complex(rng, (3, 3)))
        b = Operator(kind_b, random_complex(rng, (3, 3)))
        v = random_complex(rng, 3)
        np.testing.assert_allclose(
            apply(compose(a, b), v), apply(a, apply(b, v)), atol=1e-12
        )


@settings(deadline=None, max_examples=60)
@given(
    kinds=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
    parts=arrays(
        np.float64,
        (6, 3, 3),
        elements=st.floats(min_value=-3, max_value=3, allow_nan=False),
    ),
)
def test_compose_associative(kinds, parts):
    ops = [
        Operator(kinds[i], parts[2 * i] + 1j * parts[2 * i + 1]) for i in range(3)
    ]
    left = compose(compose(ops[0], ops[1]), ops[2])
    right = compose(ops[0], compose(ops[1], ops[2]))
    assert left.kind == right.kind
    np.testing.assert_allclose(left.matrix, right.matrix, atol=1e-12)


# ---------------------------------------------------------------- adjoint and transpose


def test_dirac_adjoint_fixes_hermitian():
    np.testing.assert_allclose(dirac_adjoint(Operator.linear(H3)).matrix, H3)


def test_dirac_adjoint_nilpotent_cell():
    out = dirac_adjoint(Operator.linear([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(out.matrix, [[0.0, 0.0], [1.0, 0.0]])


def test_dirac_adjoint_frozen_h2():
    out = dirac_adjoint(Operator.linear(H2))
    np.testing.assert_allclose(out.matrix, np.array([[1 - 1j, 2j], [-2j, 1 + 1j]]))


def test_dirac_adjoint_is_involution():
    rng = np.random.default_rng(5)
    a = Operator.linear(random_complex(rng, (4, 4)))
    np.testing.assert_allclose(dirac_adjoint(dirac_adjoint(a)).matrix, a.matrix)


def test_dirac_adjoint_pairing():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a = Operator.linear(random_complex(rng, (4, 4)))
        u, v = random_complex(rng, 4), random_complex(rng, 4)
        lhs = np.vdot(apply(dirac_adjoint(a), u), v)
        rhs = np.vdot(u, apply(a, v))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_dirac_adjoint_rejects_antilinear():
    with pytest.raises(KindMismatch):
        dirac_adjoint(Operator.conjugation(2))


def test_t_transpose_fixes_symmetric():
    frame = pair_swap_frame(2)
    out = t_transpose(Operator.linear(H1), frame)
    assert out.is_linear
    np.testing.assert_allclose(out.matrix, H1)


def test_t_transpose_is_plain_transpose_for_conjugation_t():
    frame = pair_swap_frame(2)
    out = t_transpose(Operator.linear(H2), frame)
    np.testing.assert_allclose(out.matrix, np.array([[1 + 1j, -2j], [2j, 1 - 1j]]))


def test_t_transpose_identity():
    frame = pair_swap_frame(2)
    np.testing.assert_allclose(t_transpose(Operator.identity(2), frame).matrix, np.eye(2))


@pytest.mark.parametrize("family", COVARIANCE_FAMILIES)
def test_t_transpose_under_a_general_admissible_t(family):
    # moved by a random unitary U, T has matrix part U U^T: still an
    # involution that reverses products, no longer the plain transpose
    rng = np.random.default_rng(COVARIANCE_FAMILIES.index(family))
    for _ in range(5):
        h, frame = covariance_problem(rng, family)
        _, _, moved = unitary_basis_change(h, frame, rng)
        a, b = (Operator.linear(random_complex(rng, (frame.dim, frame.dim))) for _ in range(2))
        np.testing.assert_array_equal(t_transpose(a, frame).matrix, a.matrix.T)
        moved_a = t_transpose(a, moved)
        assert np.linalg.norm(moved_a.matrix - a.matrix.T) > 1e-3 * np.linalg.norm(a.matrix)
        twice = t_transpose(moved_a, moved).matrix
        assert np.linalg.norm(twice - a.matrix) <= 1e-13 * np.linalg.norm(a.matrix)
        product = t_transpose(compose(a, b), moved).matrix
        reversed_product = compose(t_transpose(b, moved), moved_a).matrix
        assert np.linalg.norm(product - reversed_product) <= 1e-13 * np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix)


# ---------------------------------------------------------------- eigendecompose


def test_eigendecompose_diagonal():
    eig = eigendecompose(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(eig.values, [1.0, 2.0, 3.0])
    # eigenvectors are the standard basis up to phase
    np.testing.assert_allclose(np.abs(eig.vectors), np.eye(3), atol=1e-14)


def test_eigendecompose_unbroken_model():
    eig = eigendecompose(model_2x2(1.0, 2.0, np.pi / 6))
    np.testing.assert_allclose(eig.values, [E_MINUS, E_PLUS], atol=1e-10)
    np.testing.assert_allclose(eig.values, [-1.070466, 2.802517], atol=5e-7)


def test_eigendecompose_broken_model():
    eig = eigendecompose(model_2x2(2.0, 1.0, np.pi / 2))
    # conjugate pair; order within the pair is decided by real-part noise
    got = sorted(eig.values, key=lambda z: z.imag)
    np.testing.assert_allclose(got, [-1j * SQRT3, 1j * SQRT3], atol=1e-10)


def test_eigendecompose_sorted_and_unit_norm():
    rng = np.random.default_rng(9)
    eig = eigendecompose(random_complex(rng, (6, 6)))
    keys = [(v.real, v.imag) for v in eig.values]
    assert keys == sorted(keys)
    np.testing.assert_allclose(np.linalg.norm(eig.vectors, axis=0), np.ones(6))


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = random_complex(rng, (5, 5))
        eig = eigendecompose(m)
        rebuilt = eig.vectors @ np.diag(eig.values) @ np.linalg.inv(eig.vectors)
        assert np.linalg.norm(m - rebuilt) <= 1e-8 * np.linalg.norm(m)


def test_eigendecompose_defective_raises_with_condition():
    with pytest.raises(DefectiveSpectrum) as info:
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert info.value.condition is None or info.value.condition > 1e8


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_eigendecompose_of_an_empty_matrix_is_a_dimension_mismatch(shape):
    with pytest.raises(DimensionMismatch, match="empty matrix"):
        eigendecompose(np.zeros(shape))


@pytest.mark.parametrize("n", [2, 80])
def test_a_stack_of_no_rows_has_an_empty_eigensystem(n):
    # no row to partition is one group of none, solved as an empty stack
    eigen = eigendecompose(np.zeros((0, n, n)))
    assert eigen.values.shape == (0, n) and eigen.vectors.shape == (0, n, n) and eigen.condition.shape == (0,)
    assert classify_stack(np.zeros((0, n, n)), pair_swap_frame(n)).eigenvalues.shape == (0, n)


def test_eigendecompose_keeps_real_input_real():
    rng = np.random.default_rng(14)
    symmetric = rng.standard_normal((5, 5))
    symmetric = symmetric + symmetric.T
    eig = eigendecompose(symmetric)
    assert eig.values.dtype == eig.vectors.dtype == np.float64
    np.testing.assert_allclose(eig.values, eigendecompose(symmetric.astype(complex)).values.real, atol=1e-13)
    np.testing.assert_allclose(symmetric @ eig.vectors, eig.vectors * eig.values, atol=1e-12)
    # a real matrix with a conjugate pair: complex output, sorted as ever
    rotation = eigendecompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(rotation.values, [-1j, 1j], atol=1e-15)
    with pytest.raises(DefectiveSpectrum) as info:
        eigendecompose(np.array([[0, 1], [0, 0]]))
    assert info.value.condition > 1e8
    stack = eigendecompose(np.stack([symmetric[:2, :2], np.array([[0.0, 1.0], [0.0, 0.0]])]))
    assert stack.defective.tolist() == [False, True] and stack.vectors.dtype == np.float64


# ---------------------------------------------------------------- hermitian_power


def test_hermitian_power_identity_root():
    np.testing.assert_allclose(hermitian_power(np.eye(3), 0.5), np.eye(3))


def test_hermitian_power_diagonal_root():
    np.testing.assert_allclose(hermitian_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))


def test_hermitian_power_metric_square_root_reconstructs():
    # PC of the closed-form frame at sin(phi) = 1/4
    phi = np.arcsin(0.25)
    c = np.array([[1j * np.tan(phi), 1 / np.cos(phi)], [1 / np.cos(phi), -1j * np.tan(phi)]])
    pc = SWAP @ c
    root = hermitian_power(pc, 0.5)
    assert np.linalg.norm(root @ root - pc) <= 1e-10 * np.linalg.norm(pc)


def test_hermitian_power_inverse_pairs():
    rng = np.random.default_rng(12)
    for p in (0.5, -0.5, 1.0, 2.0):
        a = random_complex(rng, (4, 4))
        m = a @ a.conj().T + np.eye(4)
        out = hermitian_power(m, p) @ hermitian_power(m, -p)
        np.testing.assert_allclose(out, np.eye(4), atol=1e-10)


def test_hermitian_power_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_power(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
    # m - m+ overflows: still NotHermitian, and no overflow warning
    with pytest.raises(NotHermitian):
        hermitian_power(np.array([[1.0, 1e308], [-1e308, 1.0]]), 0.5)


def test_hermitian_power_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        hermitian_power(np.diag([1.0, -1.0]), 0.5)


def test_stacked_eigendecompose_masks_exactly_the_rows_a_single_call_rejects():
    exceptional = np.array([[1j, 1.0], [1.0, -1j]])  # r = s = 1, theta = pi/2: one eigenvector
    mats = np.stack(
        [
            np.array([[1.0, 2.0], [2.0, 3.0]]),
            exceptional,
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[2j, 1.0], [1.0, -2j]]),  # broken, diagonalizable
            exceptional * (1.0 + 1e-3j),
        ]
    )
    eigen = eigendecompose(mats)
    assert eigen.values.shape == (5, 2) and eigen.vectors.shape == (5, 2, 2)
    for m, defective, values, condition in zip(mats, eigen.defective, eigen.values, eigen.condition):
        try:
            single = eigendecompose(m)
        except DefectiveSpectrum:
            assert defective
        else:
            assert not defective
            np.testing.assert_array_equal(single.values, values)
            assert single.condition == condition
    assert eigen.defective.tolist() == [False, True, True, False, True]


# ---------------------------------------------------------------- split by the components of the pattern


def _least_reachable(pattern):
    """The least vertex that each vertex of a symmetric boolean pattern
    with a true diagonal reaches, from its transitive closure."""
    reach = pattern.astype(int)
    for _ in range(int(np.ceil(np.log2(max(2, len(pattern)))))):
        reach = np.minimum(reach @ reach, 1)
    return reach.argmax(-1)


@pytest.mark.parametrize("seed", range(24))
def test_the_labeler_labels_each_vertex_with_the_least_vertex_it_reaches(seed):
    # each row a graph of its own: sparse random edges plus pieces of a permuted path
    rng = np.random.default_rng(seed)
    rows, n = int(rng.integers(1, 4)), int(rng.integers(1, 40))
    pattern = rng.random((rows, n, n)) < rng.uniform(0.0, 3.0 / n)
    path = rng.permutation(n)
    pattern[:, path[:-1], path[1:]] |= rng.random((rows, n - 1)) < 0.8
    pattern |= pattern.swapaxes(-1, -2)
    pattern[:, np.arange(n), np.arange(n)] = True
    labels, _ = linops._label(pattern)
    assert labels.tolist() == [r * n + k for r, row in enumerate(pattern) for k in _least_reachable(row)]


def test_the_labeler_takes_few_rounds_on_a_tridiagonal_pattern():
    # a path of 400 vertices, whose diameter a min-label propagation alone
    # would walk, in order and with its vertices permuted (where hooking
    # each parent, not only each vertex, keeps the rounds logarithmic)
    n = 400
    pattern = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    perm = np.random.default_rng(9).permutation(n)
    for path in (pattern, pattern[np.ix_(perm, perm)]):
        labels, rounds = linops._label(path[None])
        assert not labels.any()
        assert rounds <= np.log2(n) + 2


def _recorded_shapes(monkeypatch, name):
    """Record the shape of every matrix stack passed to ``np.linalg.<name>``."""
    shapes = []
    real = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return shapes


def test_a_permuted_chain_is_solved_by_its_blocks_as_the_whole_matrix(monkeypatch):
    # 50 cells on indices scattered by a permutation: one stacked eig of the
    # 50 blocks, eigenpairs within rounding of the whole 100 x 100 solve
    h, _, _ = permuted_chain(np.random.default_rng(3), random_cells(np.random.default_rng(4), 50))
    shapes = _recorded_shapes(monkeypatch, "eig")
    split = eigendecompose(h)
    assert shapes == [(50, 2, 2)]
    solved_whole(monkeypatch)
    whole = eigendecompose(h)
    assert np.abs(split.values - whole.values).max() <= 1e-14 * np.abs(whole.values).max()
    # simple eigenvalues: each unit eigenvector is the whole solve's up to a phase
    np.testing.assert_allclose(np.abs(np.einsum("ij,ij->j", split.vectors.conj(), whole.vectors)), 1.0, rtol=1e-12)
    assert np.count_nonzero(split.vectors) == 2 * len(h)  # each column lives on its own block
    assert split.condition == pytest.approx(whole.condition, rel=1e-12)


def _mixed_pattern_stack(rng):
    """Rows of dimension 80 with different patterns: a chain, the chain with
    its basis permuted, the chain with two cells coupled into one 4 x 4
    component, a tridiagonal matrix (sparse and irreducible) and a dense one."""
    h, _ = build_model(ModelSpec("chain", random_cells(rng, 40)))
    permuted = h[np.ix_(*[rng.permutation(80)] * 2)]
    coupled = h.copy()
    coupled[[0, 1, 2, 3], [2, 3, 0, 1]] = 0.3
    tridiagonal = np.diag(rng.standard_normal(80)) + np.diag(rng.standard_normal(79), 1) + np.diag(np.ones(79), -1)
    return np.stack([h, permuted, coupled, tridiagonal, random_complex(rng, (80, 80))])


def test_a_stack_splits_each_row_by_its_own_pattern_bit_for_bit(monkeypatch):
    mats = _mixed_pattern_stack(np.random.default_rng(8))
    for stack in (mats, mats.real):  # complex, and real with non-real spectra in its last two rows
        eigen = eigendecompose(stack)
        assert not eigen.defective.any()
        for i, m in enumerate(stack):
            alone = eigendecompose(m)
            for name in ("values", "vectors", "condition"):
                # a real stack is complex once any row has a non-real eigenvalue
                got = getattr(eigen, name)[i]
                assert np.asarray(getattr(alone, name), dtype=got.dtype).tobytes() == got.tobytes(), (i, name)
    # the irreducible rows, sparse or dense, are solved whole: bit for bit
    # as by one eig each, also where the Gram certificate gives cond(V)
    near_normal = mats[3].real + mats[3].real.T + 0.01 * np.diag(np.ones(79), 1)
    rows = np.stack([mats[3], mats[4], near_normal])
    scale = linops.frobenius(rows)
    split = [eigendecompose(rows), linops.stacked_eigensystem(rows, scale, 1e-10, EP_WARNING_K)[0]]
    solved_whole(monkeypatch)
    whole = [eigendecompose(rows), linops.stacked_eigensystem(rows, scale, 1e-10, EP_WARNING_K)[0]]
    for got, want in zip(split, whole):
        for name in ("values", "vectors", "condition"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _partition_stack(rng, name):
    """A stack of dimension-80 rows, one of each way a row is partitioned
    (dense; no zero in its first row and column, so not labeled; irreducible
    tridiagonal; a permuted 40-cell chain), or a stack of 2x2 cells, one
    broken, so that its rows are finished in two arithmetics."""
    if name == "cells":
        return np.stack([model_2x2(*cell) for cell in random_cells(rng, 5) + ((2.0, 1.0, 1.2),)])
    h, _ = build_model(ModelSpec("chain", random_cells(rng, 40)))
    linked = h.copy()
    linked[0, 1:] = linked[1:, 0] = 0.1
    tridiagonal = np.diag(rng.standard_normal(80)) + np.diag(rng.standard_normal(79), 1) + np.diag(np.ones(79), -1)
    chain, _, _ = permuted_chain(rng, random_cells(rng, 40))
    return np.stack([random_complex(rng, (80, 80)), linked, tridiagonal, chain])


def _row_vectors(blocks, i, n):
    """The unit eigenvectors of row ``i`` of the ``blocks`` of
    ``linops.split_eigensystem``, joined into one complex ``(n, n)`` array:
    each block's at its indices and sorted columns, zero off the blocks."""
    vectors = np.zeros((n, n), dtype=complex)
    for rows, at, col, _, part in blocks:
        for b in np.flatnonzero(rows == i):
            vectors[np.ix_(at[b], col[b])] = part[b]
    return vectors


@pytest.mark.parametrize("gate", [None, EP_WARNING_K], ids=["svd", "certificate"])
@pytest.mark.parametrize("name", ["n80", "cells"])
def test_the_blocks_of_every_row_are_a_partition_and_each_row_is_solved_as_alone(name, gate):
    stack = _partition_stack(np.random.default_rng(31), name)
    count, n = stack.shape[:2]
    limit = 1e-10 * linops.frobenius(stack)

    def solve(a, lim):
        return linops.split_eigensystem(a, linops._components(a), lim, gate)

    values, condition, defective, residual, blocks = solve(stack, limit)
    assert not defective.any()
    # every index of a row lies in one block, and every sorted column too
    indices, columns = np.zeros((count, n), dtype=int), np.zeros((count, n), dtype=int)
    for rows, at, col, block_values, vectors in blocks:
        assert at.shape == col.shape == block_values.shape == (len(rows), at.shape[1])
        assert vectors.shape == (len(rows), at.shape[1], at.shape[1])
        # each block's own sorted values are its row's at its columns
        assert block_values.astype(values.dtype).tobytes() == values[rows[:, None], col].tobytes()
        assert (np.diff(at) > 0).all() and (np.diff(col) > 0).all()
        np.add.at(indices, (rows[:, None], at), 1)
        np.add.at(columns, (rows[:, None], col), 1)
    assert (indices == 1).all() and (columns == 1).all()
    if name == "n80":  # the chain alone is split, into 40 blocks of 2
        assert sorted((at.shape[1], rows.tolist()) for rows, at, *_ in blocks) == [(2, [3] * 40), (80, [0, 1, 2])]
    for i in range(count):
        alone_values, alone_condition, _, alone_residual, alone_blocks = solve(stack[i : i + 1], limit[i : i + 1])
        assert alone_residual.tobytes() == residual[i : i + 1].tobytes()
        pairs = {"values": (values[i], alone_values[0]), "condition": (condition[i], alone_condition[0]),
                 "vectors": (_row_vectors(blocks, i, n), _row_vectors(alone_blocks, 0, n))}
        for field, (got, want) in pairs.items():
            # a real stack is complex once any row has a non-real eigenvalue
            assert np.asarray(want, dtype=got.dtype).tobytes() == got.tobytes(), (i, field)


def test_a_row_split_into_blocks_has_the_residual_of_its_worst_block():
    # a cell scaled by 1e8 among 39 others: at a tolerance that only its
    # eigenpairs miss, the joined row fails its residual check
    cells = ((1e8, 2e8, 0.5),) + random_cells(np.random.default_rng(5), 39)
    h, _ = build_model(ModelSpec("chain", cells))
    tol, scale = 1e-18, linops.frobenius(h[None])
    _, residual = linops.stacked_eigensystem(h[None], scale, tol)
    blocks = [linops.stacked_eigensystem(h[None, k : k + 2, k : k + 2], scale, tol)[1][0] for k in range(0, 80, 2)]
    assert blocks[0] > tol * scale[0] > max(blocks[1:])
    assert residual[0] == pytest.approx(blocks[0], rel=1e-12)
    with pytest.raises(DefectiveSpectrum, match="eigenpair residual"):
        eigendecompose(h, tol)


def test_a_hermitian_spectrum_is_split_by_blocks_and_joined_ascending(monkeypatch):
    # a direct sum of 30 Hermitian 3 x 3 blocks, each repeated twice, on permuted indices
    rng = np.random.default_rng(12)
    blocks = [random_complex(rng, (3, 3)) for _ in range(15)]
    m = linops._block_diag(*[b + b.conj().T for b in blocks for _ in range(2)])
    m = m[np.ix_(*[rng.permutation(90)] * 2)]
    shapes = _recorded_shapes(monkeypatch, "eigh")
    w, u = linops.hermitian_spectrum(m)
    assert shapes == [(30, 3, 3)]
    assert (np.diff(w) >= 0).all()
    np.testing.assert_allclose(w, np.linalg.eigvalsh(m), rtol=0, atol=1e-14 * np.abs(w).max())
    np.testing.assert_allclose(u.conj().T @ u, np.eye(90), rtol=0, atol=1e-14)
    np.testing.assert_allclose((u * w) @ u.conj().T, m, rtol=0, atol=1e-14 * np.abs(w).max())
    # a dense matrix takes eigh whole, with its bits
    dense = m + 0.1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(linops.hermitian_spectrum(dense), np.linalg.eigh(dense)))


def test_a_hermitian_spectrum_below_the_split_dimension_forms_no_partition(monkeypatch):
    # one block of all n indices, decided from n alone: no labeling and no index array
    rng = np.random.default_rng(13)
    monkeypatch.setattr(linops, "_components", lambda *args: pytest.fail("a partition was formed"))
    for n in (1, 2, 4, linops._SPLIT_DIM - 1):
        a = random_complex(rng, (n, n))
        m = a + a.conj().T
        got, want = linops.hermitian_spectrum(m), np.linalg.eigh(m[None])
        assert all(g.tobytes() == w[0].tobytes() for g, w in zip(got, want))


# ---------------------------------------------------------------- the Gram certificate of cond(V)


def _toward_parallel(rng, n, mu, complex_):
    """An ``(n, n)`` matrix whose columns are orthonormal columns q_j plus mu
    times one common unit vector c: near-orthogonal for a small mu, nearly
    parallel, so with a large cond(V), for a large one."""
    x = rng.standard_normal((n, n + 1)) + (1j * rng.standard_normal((n, n + 1)) if complex_ else 0.0)
    q, _ = np.linalg.qr(x[:, :n])
    return q + mu * x[:, n:] / np.linalg.norm(x[:, n:])


def _conditions(vectors, gate):
    """cond(V) of each row of a stack of eigenvector matrices, as the one
    solver, ``linops.split_eigensystem``, reports it for rows that are each
    one block, with the certificate's ``gate`` and without it, and which
    rows the certificate cleared: those that the SVD did not see.  The rows
    solved are zero matrices, and ``eig`` returns V with zero eigenvalues
    for them, so every eigenpair residual is 0."""
    rows, n = vectors.shape[:2]
    zero, limit = np.zeros((rows, n, n), dtype=vectors.dtype), np.ones(rows)
    parts = linops._components(zero)
    assert linops._one_block([at for _, at in parts], (rows, n))
    seen = []
    real_eig, real_svd = np.linalg.eig, np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.extend(row.tobytes() for row in a)
        return real_svd(a, *args, **kwargs)

    np.linalg.eig = lambda a: (np.zeros(a.shape[:2], dtype=vectors.dtype), vectors.copy())
    try:
        np.linalg.svd = recording
        try:
            _, certified, _, _, ((*_, unit),) = linops.split_eigensystem(zero, parts, limit, gate)
        finally:
            np.linalg.svd = real_svd
        exact = linops.split_eigensystem(zero, parts, limit, None)[1]
    finally:
        np.linalg.eig = real_eig
    cleared = np.array([row.tobytes() not in seen for row in unit])
    assert len(seen) == np.count_nonzero(~cleared)  # one SVD, on the other rows alone
    return certified, exact, cleared


def _assert_decided_as_the_svd(certified, exact, cleared, gate):
    """Each row is on the same side of the gate, and of COND_LIMIT, as by
    the SVD.  A cleared row lies below the gate by the SVD too, and its
    condition bounds the SVD's up to the rounding of 2 - s, a relative
    eps cond(V)^2; any other row has the SVD's condition, bit for bit."""
    np.testing.assert_array_equal(certified**2 < gate, exact**2 < gate)
    np.testing.assert_array_equal(certified <= COND_LIMIT, exact <= COND_LIMIT)
    assert (exact[cleared] ** 2 < gate).all()
    rounding = 4.0 * np.finfo(float).eps * (1.0 + certified[cleared] ** 2)
    assert (certified[cleared] >= exact[cleared] * (1.0 - rounding)).all()
    assert certified[~cleared].tobytes() == exact[~cleared].tobytes()


@settings(deadline=None, max_examples=150)
@given(
    n=st.integers(2, 40),
    log_mu=st.floats(-6.0, 10.0),
    complex_=st.booleans(),
    kron=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_gram_certificate_decides_cond_v_as_the_svd(n, log_mu, complex_, kron, seed):
    # columns pushed toward parallel: cond(V) straddles the exceptional-point
    # gate and COND_LIMIT; a Kronecker product has Gram row sums (1 + x1)(1 + x2)
    rng = np.random.default_rng(seed)
    if kron:
        first = 2 + n % 3
        v = np.kron(_toward_parallel(rng, first, 10.0**log_mu, complex_),
                    _toward_parallel(rng, max(2, n // first), rng.uniform(0.0, 0.5), complex_))
    else:
        v = _toward_parallel(rng, n, 10.0**log_mu, complex_)
    # the row alone, and beside an orthonormal row, which always clears
    stack = np.stack([v, np.linalg.qr(v)[0]])
    _assert_decided_as_the_svd(*_conditions(stack, EP_WARNING_K), EP_WARNING_K)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_the_gram_certificate_keeps_its_margin_at_the_gate(complex_):
    # a 2x2 V of unit columns at |v1^+ v2| = c has cond(V)^2 = (1 + c) / (1 - c),
    # which Gershgorin bounds with equality: the certificate clears it only
    # below the gate by its margin, and decides each row as the SVD does
    gate = EP_WARNING_K
    at_gate = (gate - 1.0) / (gate + 1.0)
    offsets = np.concatenate([-np.logspace(-16, -6, 21), [0.0], np.logspace(-16, -6, 21)])
    angles = np.arccos(np.clip(at_gate + offsets, -1.0, 1.0))
    phase = np.exp(0.7j) if complex_ else 1.0
    v = np.stack([np.array([[1.0, np.cos(t) * phase], [0.0, np.sin(t)]]) for t in angles])
    certified, exact, cleared = _conditions(v, gate)
    _assert_decided_as_the_svd(certified, exact, cleared, gate)
    assert 0 < np.count_nonzero(cleared) < len(v)
    # the margin: 48 eps in s at n = 2, a relative 24 eps gate = 2.7e-9 in cond(V)^2
    assert (certified[cleared] ** 2 < gate * (1.0 - 2e-9)).all()
    # each row is its own certificate: the stack's conditions are the rows' alone
    assert certified.tobytes() == np.concatenate([_conditions(row[None], gate)[0] for row in v]).tobytes()


def test_eigendecompose_reports_the_exact_condition():
    # the public eigensystem takes no certificate: cond(V) is the SVD's,
    # bit for bit, also where the certificate would clear it
    rng = np.random.default_rng(30)
    for m in (model_2x2(1.0, 2.0, np.pi / 6), np.diag([1.0, 2.0, 3.0]), random_complex(rng, (6, 6))):
        eigen = eigendecompose(m)
        singular = np.linalg.svd(eigen.vectors, compute_uv=False)
        assert eigen.condition == singular[0] / singular[-1]
    stack = eigendecompose(np.stack([model_2x2(1.0, 2.0, np.pi / 6), model_2x2(2.0, 1.0, 0.5)]))
    singular = np.linalg.svd(stack.vectors, compute_uv=False)
    assert stack.condition.tobytes() == (singular[:, 0] / singular[:, -1]).tobytes()


def test_the_frobenius_norm_reads_its_operand_once_with_no_copy():
    # |A| of a 200 x 200 complex matrix (640 KB) forms no array of A's size:
    # no conjugate copy and no product
    rng = np.random.default_rng(34)
    a = random_complex(rng, (200, 200))
    linops.frobenius(a)
    tracemalloc.start()
    try:
        norm = linops.frobenius(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes // 16
    assert abs(norm - np.linalg.norm(a)) <= 1e-14 * norm
    # a stack, a transposed operand and a real one; inf, never a warning, where it overflows or meets a nan
    stack = random_complex(rng, (3, 4, 5))
    for m in (stack, stack.swapaxes(-1, -2), stack.real):
        np.testing.assert_allclose(linops.frobenius(m), np.linalg.norm(m, axis=(-2, -1)), rtol=1e-15)
    with np.errstate(all="raise"):
        big = linops.frobenius(np.array([[[1e200, 1.0]], [[np.nan, 1.0]], [[1j * np.inf, 0.0]], [[3.0, 4.0j]]]))
    assert big.tolist() == [np.inf, np.inf, np.inf, 5.0]


def test_hermitian_powers_of_an_empty_matrix_are_a_dimension_mismatch():
    # as for eigendecompose: no eigensystem, and no bare ValueError from a reshape
    for call in (lambda m: hermitian_powers(m, (0.5,)), lambda m: hermitian_power(m, 0.5)):
        with pytest.raises(DimensionMismatch, match="an empty matrix has no eigensystem"):
            call(np.zeros((0, 0)))


def test_hermitian_powers_share_one_spectrum():
    rng = np.random.default_rng(13)
    a = random_complex(rng, (4, 4))
    m = a @ a.conj().T + np.eye(4)
    root, inv_root = hermitian_powers(m, (0.5, -0.5))
    np.testing.assert_array_equal(root, hermitian_power(m, 0.5))
    np.testing.assert_allclose(root @ inv_root, np.eye(4), atol=1e-12)
    with pytest.raises(NotPositiveDefinite):
        hermitian_powers(np.diag([1.0, -1.0]), (0.5, -0.5))


# ---------------------------------------------------------------- tolerances


def _tolerance_entries():
    """Each public entry that takes ``tol``, called on an unbroken 2x2 cell."""
    h, frame = build_model(ModelSpec("2x2", ((1.0, 2.0, 0.5),)))
    metric = build_c(h, frame).cpt
    state = classify_symmetry(h, frame).aligned_states[0].state
    return {
        "eigendecompose": lambda tol: eigendecompose(h, tol),
        "is_pt_symmetric": lambda tol: is_pt_symmetric(h, frame, tol),
        "classify_symmetry": lambda tol: classify_symmetry(h, frame, tol),
        "classify_stack": lambda tol: classify_stack(h[None], frame, tol),
        "build_c": lambda tol: build_c(h, frame, tol),
        "normalize_indefinite": lambda tol: normalize_indefinite(state, frame, tol),
        "hermitize": lambda tol: hermitize(h, metric, tol),
        "cpt_adjoint": lambda tol: cpt_adjoint(Operator.linear(h), metric, tol),
        "phase_align": lambda tol: phase_align(state, frame, tol),
        "closed_form_c": lambda tol: closed_form_c(0.5, tol),
        "classify_2x2": lambda tol: classify_2x2(h, tol),
        "doubling": lambda tol: doubling(h, tol),
        "tensor_hamiltonians": lambda tol: tensor_hamiltonians(h, h, metric, metric, tol),
    }


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("entry", sorted(_tolerance_entries()))
def test_a_tolerance_that_is_not_positive_and_finite_is_a_usage_error(entry, tol):
    call = _tolerance_entries()[entry]
    call(1e-10)
    with pytest.raises(InvalidArgument, match="tolerance must be a positive, finite number") as info:
        call(tol)
    assert info.value.exit_code == EXIT_USAGE
