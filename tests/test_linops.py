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
from helpers import (
    COVARIANCE_FAMILIES,
    H1,
    H2,
    H3,
    SWAP,
    covariance_problem,
    random_complex,
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
