import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptkit import (
    UNBROKEN,
    ModelSpec,
    Operator,
    apply,
    build_c,
    build_model,
    classify_symmetry,
    cpt_adjoint,
    cpt_inner,
    hermitize,
    normalize_indefinite,
    pair_swap_frame,
    pt_inner,
    validate_cpt_frame,
)
from cptkit.errors import (
    CommutatorViolation,
    GramDefect,
    NotPTEigenstate,
    NotUnbroken,
    SelfOrthogonal,
)
from cptkit import frames, linops, symmetry
from cptkit.frames import checked_cpt_frame
from cptkit.linops import opnorm
from helpers import (
    H2,
    SWAP,
    multiset_gap,
    random_complex,
    random_symmetric_pt_symmetric,
    shared_eigenvalue_chain,
    unitary_basis_change,
)

TAN_PHI = 0.2581988897471611  # tan(arcsin 1/4)
SEC_PHI = 1.0327955589886444  # sec(arcsin 1/4)


def model_2x2(r, s, theta):
    return np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])


def aligned_pair(phi):
    """The closed-form aligned eigenstates carrying the 1/sqrt(2 cos phi)
    normalization: plus-state as is, minus-state rotated by -i."""
    scale = 1.0 / np.sqrt(2.0 * np.cos(phi))
    psi_plus = scale * np.array([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    psi_minus = scale * np.array([np.exp(-0.5j * phi), -np.exp(0.5j * phi)])
    return psi_plus, -1j * psi_minus


def closed_form_c_2x2(phi):
    return np.array(
        [[1j * np.tan(phi), 1 / np.cos(phi)], [1 / np.cos(phi), -1j * np.tan(phi)]]
    )


# ---------------------------------------------------------------- pt_inner


def test_pt_inner_closed_form_signs():
    frame = pair_swap_frame(2)
    phi_plus, phi_minus = aligned_pair(np.arcsin(0.25))
    assert pt_inner(phi_plus, phi_plus, frame) == pytest.approx(1.0, abs=1e-12)
    assert pt_inner(phi_minus, phi_minus, frame) == pytest.approx(-1.0, abs=1e-12)
    assert abs(pt_inner(phi_plus, phi_minus, frame)) < 1e-12


def test_pt_inner_basis_vectors():
    frame = pair_swap_frame(2)
    e1, e2 = np.eye(2)
    assert pt_inner(e1, e1, frame) == 0
    assert pt_inner(e1, e2, frame) == 1


def test_pt_inner_equals_bilinear_form_for_aligned_first_slot():
    rng = np.random.default_rng(41)
    frame = pair_swap_frame(4)
    for _ in range(20):
        z = random_complex(rng, 4)
        u = z + frame.apply_pt(z)
        v = random_complex(rng, 4)
        assert pt_inner(u, v, frame) == pytest.approx(complex(np.sum(u * v)), abs=1e-12)


# ---------------------------------------------------------------- normalize_indefinite


def test_normalize_indefinite_fixed_point_of_closed_form():
    frame = pair_swap_frame(2)
    phi_plus, _ = aligned_pair(np.arcsin(0.25))
    unit, sign = normalize_indefinite(phi_plus, frame)
    assert sign == 1
    np.testing.assert_allclose(unit, phi_plus, atol=1e-12)


def test_normalize_indefinite_scale_invariant():
    frame = pair_swap_frame(2)
    phi_plus, phi_minus = aligned_pair(np.arcsin(0.25))
    unit, sign = normalize_indefinite(2.0 * phi_plus, frame)
    assert sign == 1
    np.testing.assert_allclose(unit, phi_plus, atol=1e-12)
    unit, sign = normalize_indefinite(-3.0 * phi_minus, frame)
    assert sign == -1


def test_normalize_indefinite_requires_alignment():
    with pytest.raises(NotPTEigenstate):
        normalize_indefinite(np.array([1.0, 0.0]), pair_swap_frame(2))


def test_normalize_indefinite_self_orthogonal_near_exceptional_point():
    # the aligned state's self-product is cos(phi), which vanishes as
    # sin(phi) -> 1
    frame = pair_swap_frame(2)
    phi = np.arccos(1e-4)
    state = np.array([np.exp(0.5j * phi), np.exp(-0.5j * phi)]) / np.sqrt(2.0)
    with pytest.raises(SelfOrthogonal):
        normalize_indefinite(state, frame, tol=1e-3)


# ---------------------------------------------------------------- build_c


def test_build_c_reproduces_closed_form():
    h = model_2x2(1, 2, np.pi / 6)
    result = build_c(h, pair_swap_frame(2))
    expected = np.array([[TAN_PHI * 1j, SEC_PHI], [SEC_PHI, -TAN_PHI * 1j]])
    np.testing.assert_allclose(result.cpt.c.matrix, expected, atol=1e-8)
    assert result.gram_residual < 1e-10
    assert sorted(state.sign for state in result.aligned_states) == [-1, 1]


def test_build_c_on_swap_matrix_gives_parity():
    result = build_c(np.array([[0.0, 1.0], [1.0, 0.0]]), pair_swap_frame(2))
    np.testing.assert_allclose(result.cpt.c.matrix, SWAP, atol=1e-12)


def test_build_c_broken_model_rejected():
    with pytest.raises(NotUnbroken):
        build_c(model_2x2(2, 1, np.pi / 2), pair_swap_frame(2))


def test_build_c_not_pt_symmetric_rejected():
    with pytest.raises(NotUnbroken):
        build_c(np.array([[1.0, 2j], [-2j, 3.0]]), pair_swap_frame(2))


def test_build_c_gram_defect_when_states_not_orthogonal():
    # H2 has real spectrum and aligns, but both eigenstates carry negative
    # self-products and a nonzero cross product, so no C exists
    with pytest.raises(GramDefect):
        build_c(H2, pair_swap_frame(2))


def test_build_c_fails_self_orthogonal_within_guard():
    h = model_2x2(1.0 - 1e-9, 1.0, np.pi / 2)
    with pytest.raises(SelfOrthogonal):
        build_c(h, pair_swap_frame(2))


def test_build_c_degenerate_spectrum():
    result = build_c(np.eye(4), pair_swap_frame(4))
    report = validate_cpt_frame(result.cpt.c, result.cpt.frame)
    assert report.passed
    assert result.gram_residual < 1e-10


def test_build_c_output_validates_and_commutes():
    rng = np.random.default_rng(42)
    produced = 0
    while produced < 25:
        n = int(rng.integers(1, 4)) * 2
        frame = pair_swap_frame(n)
        h = random_symmetric_pt_symmetric(rng, frame)
        if np.abs(np.linalg.eigvals(h).imag).max() > 1e-10:
            continue
        produced += 1
        result = build_c(h, frame)
        assert validate_cpt_frame(result.cpt.c, frame).passed
        c = result.cpt.c.matrix
        assert np.linalg.norm(c @ h - h @ c) <= 1e-10 * np.linalg.norm(h)
        # [C, PT] = 0 in matrix form: C M_pt = M_pt conj(C)
        pt = frame.pt.matrix
        assert np.linalg.norm(c @ pt - pt @ np.conj(c)) <= 1e-10 * opnorm(c)


def test_build_c_invariant_under_state_sign_flip():
    # C is quadratic in the aligned states, so phi -> -phi leaves it fixed
    frame = pair_swap_frame(2)
    phi_plus, phi_minus = aligned_pair(np.arcsin(0.25))
    direct = np.outer(phi_plus, phi_plus) + np.outer(phi_minus, phi_minus)
    flipped = np.outer(-phi_plus, -phi_plus) + np.outer(phi_minus, phi_minus)
    np.testing.assert_allclose(direct, flipped)
    built = build_c(model_2x2(1, 2, np.pi / 6), frame)
    np.testing.assert_allclose(built.cpt.c.matrix, direct, atol=1e-10)


def test_remark_orthogonality_without_gram_schmidt():
    # distinct eigenvalues of a symmetric PT-symmetric matrix give
    # indefinitely orthogonal aligned states directly
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 20:
        frame = pair_swap_frame(4)
        h = random_symmetric_pt_symmetric(rng, frame)
        vals = np.linalg.eigvals(h)
        if np.abs(vals.imag).max() > 1e-10:
            continue
        if np.min(np.abs(np.subtract.outer(vals.real, vals.real) + np.eye(4))) < 1e-3:
            continue
        checked += 1
        result = build_c(h, frame)
        states = [s.state for s in result.aligned_states]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(pt_inner(states[i], states[j], frame)) < 1e-10


# ---------------------------------------------------------------- cpt_inner


def test_cpt_gram_of_closed_form_states_is_identity():
    h = model_2x2(1, 2, np.pi / 6)
    result = build_c(h, pair_swap_frame(2))
    states = [s.state for s in result.aligned_states]
    gram = np.array([[cpt_inner(u, v, result.cpt) for v in states] for u in states])
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_cpt_inner_reduces_to_euclidean_when_c_is_p():
    frame = pair_swap_frame(2)
    cpt = checked_cpt_frame(Operator.linear(SWAP), frame)
    rng = np.random.default_rng(44)
    for _ in range(10):
        u, v = random_complex(rng, 2), random_complex(rng, 2)
        assert cpt_inner(u, v, cpt) == pytest.approx(complex(np.vdot(u, v)), abs=1e-12)


def test_cpt_inner_positive_definite():
    result = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    rng = np.random.default_rng(45)
    for _ in range(200):
        v = random_complex(rng, 2)
        value = cpt_inner(v, v, result.cpt)
        assert abs(value.imag) < 1e-12 * abs(value)
        assert value.real > 0


def test_cpt_inner_sesquilinear():
    result = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    rng = np.random.default_rng(46)
    u, v = random_complex(rng, 2), random_complex(rng, 2)
    z = 0.3 - 1.7j
    assert cpt_inner(z * u, v, result.cpt) == pytest.approx(
        np.conj(z) * cpt_inner(u, v, result.cpt), abs=1e-12
    )
    assert cpt_inner(u, z * v, result.cpt) == pytest.approx(
        z * cpt_inner(u, v, result.cpt), abs=1e-12
    )


# ---------------------------------------------------------------- cpt_adjoint


def test_cpt_adjoint_identity():
    result = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    np.testing.assert_allclose(
        cpt_adjoint(Operator.identity(2), result.cpt).matrix, np.eye(2), atol=1e-12
    )


def test_model_is_cpt_hermitian():
    h = model_2x2(1, 2, np.pi / 6)
    result = build_c(h, pair_swap_frame(2))
    adj = cpt_adjoint(Operator.linear(h), result.cpt)
    np.testing.assert_allclose(adj.matrix, h, atol=1e-10)


def test_cpt_adjoint_is_involution():
    result = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    rng = np.random.default_rng(47)
    for _ in range(10):
        a = Operator.linear(random_complex(rng, (2, 2)))
        twice = cpt_adjoint(cpt_adjoint(a, result.cpt), result.cpt)
        np.testing.assert_allclose(twice.matrix, a.matrix, atol=1e-10)


def test_cpt_adjoint_pairing():
    result = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    rng = np.random.default_rng(48)
    for _ in range(20):
        a = Operator.linear(random_complex(rng, (2, 2)))
        u, v = random_complex(rng, 2), random_complex(rng, 2)
        lhs = cpt_inner(apply(cpt_adjoint(a, result.cpt), u), v, result.cpt)
        rhs = cpt_inner(u, apply(a, v), result.cpt)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_hermitian_operator_cpt_fixed_iff_commutes_with_metric():
    # for Hermitian A the CPT adjoint fixes A exactly when [A, PC] = 0
    result = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    pc = result.cpt.pc_matrix
    rng = np.random.default_rng(49)

    commuting = pc @ pc + 0.7 * pc + 0.3 * np.eye(2)  # Hermitian polynomial in PC
    adj = cpt_adjoint(Operator.linear(commuting), result.cpt)
    np.testing.assert_allclose(adj.matrix, commuting, atol=1e-10)

    for _ in range(10):
        a = random_complex(rng, (2, 2))
        hermitian = a + a.conj().T
        commutator = np.linalg.norm(hermitian @ pc - pc @ hermitian)
        fixed = np.linalg.norm(
            cpt_adjoint(Operator.linear(hermitian), result.cpt).matrix - hermitian
        )
        assert (commutator < 1e-10) == (fixed < 1e-8)


# ---------------------------------------------------------------- hermitize


def test_hermitize_model():
    h = model_2x2(1, 2, np.pi / 6)
    result = build_c(h, pair_swap_frame(2))
    out = hermitize(h, result.cpt)
    assert np.linalg.norm(out - out.conj().T) <= 1e-8 * np.linalg.norm(out)
    assert multiset_gap(np.linalg.eigvals(out), [-1.0704662693192697, 2.8025170768881473]) < 1e-8


def test_hermitize_trivial_metric_is_identity_map():
    # PC = I when C = P, so a Hermitian PT-symmetric input commuting with P
    # passes through unchanged
    frame = pair_swap_frame(2)
    cpt = checked_cpt_frame(Operator.linear(SWAP), frame)
    h = np.array([[2.0, 3.0], [3.0, 2.0]])
    np.testing.assert_allclose(hermitize(h, cpt), h, atol=1e-12)


def test_hermitize_requires_commuting_frame():
    cpt = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2)).cpt
    with pytest.raises(CommutatorViolation):
        hermitize(np.array([[5.0, 1.0], [1.0, 3.0]]), cpt)


def test_norm_sandwich():
    result = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    pc = result.cpt.pc_matrix
    cp = result.cpt.c.matrix @ result.cpt.p.matrix
    upper = np.sqrt(opnorm(pc))
    lower = 1.0 / np.sqrt(opnorm(cp))
    rng = np.random.default_rng(50)
    for _ in range(200):
        v = random_complex(rng, 2)
        v /= np.linalg.norm(v)
        norm_cpt = np.sqrt(cpt_inner(v, v, result.cpt).real)
        assert lower - 1e-10 <= norm_cpt <= upper + 1e-10


# ---------------------------------------------------------------- frame structure and covariance


def _chain(n_blocks):
    # distinct unbroken cells: every eigenvalue is simple
    blocks = tuple((1.0, 2.0 + 0.05 * k, 0.5) for k in range(n_blocks))
    return build_model(ModelSpec("chain", blocks))


def test_pt_composed_once_per_frame(monkeypatch):
    calls = []
    real_compose = linops.compose

    def counting(a, b):
        calls.append(None)
        return real_compose(a, b)

    for module in (linops, frames, symmetry):
        monkeypatch.setattr(module, "compose", counting)

    def compose_calls(n_blocks):
        h, frame = _chain(n_blocks)
        calls.clear()
        classify_symmetry(h, frame)
        build_c(h, frame)
        return len(calls)

    assert compose_calls(10) == compose_calls(100)


def test_repeated_cells_share_one_energy_per_eigenspace():
    # k repeats of the cell (1, 2, 0.5) below one distinct cell: eigenvalues
    # lower cell, k x lower, k x upper, upper cell
    k = 3
    h, frame = build_model(ModelSpec("chain", ((1.0, 2.0, 0.5),) * k + ((1.0, 2.5, 0.5),)))
    report = classify_symmetry(h, frame)
    energies, sizes = np.unique([state.energy for state in report.aligned_states], return_counts=True)
    assert sizes.tolist() == [1, k, k, 1]
    assert [len(space) for space in report.eigenspaces] == [1, k, k, 1]
    result = build_c(h, frame)
    upper = [state for state in result.aligned_states if state.energy == energies[2]]
    assert [state.sign for state in upper] == [1] * k
    assert all(type(state.energy) is float for state in result.aligned_states)


def _covariance_problem(rng, family):
    if family == "identity":
        return np.eye(4), pair_swap_frame(4)
    n_blocks = {"2x2": 1, "4x4": 2, "tensor": 2, "shared": 1}.get(family, int(rng.integers(1, 4)))
    blocks = []
    for _ in range(n_blocks):
        s = rng.uniform(1.0, 2.0) * rng.choice([-1.0, 1.0])
        # |r / s| <= 0.9 keeps every cell unbroken and away from its exceptional point
        blocks.append((rng.uniform(0.2, 0.9) * s, s, rng.uniform(0.1, 1.5)))
    if family == "shared":
        r, s, theta = blocks[0]
        # s < r keeps the second cell's lower eigenvalue positive
        second = (rng.uniform(1.1, 1.5), rng.uniform(0.9, 1.0), rng.uniform(0.1, 0.6))
        return shared_eigenvalue_chain((abs(r), abs(s), theta), second)
    return build_model(ModelSpec(family, tuple(blocks)))


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(["2x2", "4x4", "tensor", "chain", "identity", "shared"]),
)
def test_pipeline_is_covariant_under_unitary_basis_change(seed, family):
    # "identity" is H = I, where every state shares one eigenspace of
    # signature (+1, +1, -1, -1) and C must be P; "shared" has a 2-fold
    # eigenspace of signature (+1, -1)
    rng = np.random.default_rng(seed)
    h, frame = _covariance_problem(rng, family)
    u, h_moved, moved = unitary_basis_change(h, frame, rng)
    scale = max(1.0, np.linalg.norm(h))

    before = classify_symmetry(h, frame)
    after = classify_symmetry(h_moved, moved)
    assert before.classification == after.classification == UNBROKEN
    np.testing.assert_allclose(after.eigenvalues, before.eigenvalues, atol=1e-9 * scale)

    original = build_c(h, frame)
    result = build_c(h_moved, moved)
    assert result.gram_residual <= 1e-8
    c = original.cpt.c.matrix
    np.testing.assert_allclose(
        result.cpt.c.matrix, u @ c @ u.conj().T, atol=1e-8 * max(1.0, np.linalg.norm(c))
    )
    if family == "identity":
        np.testing.assert_allclose(result.cpt.c.matrix, moved.p.matrix, atol=1e-10)
    hermitized = hermitize(h_moved, result.cpt)
    assert np.linalg.norm(hermitized - hermitized.conj().T) <= 1e-8 * scale
    np.testing.assert_allclose(
        np.linalg.eigvalsh(hermitized),
        np.linalg.eigvalsh(hermitize(h, original.cpt)),
        atol=1e-8 * scale,
    )
