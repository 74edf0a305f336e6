import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptkit import (
    UNBROKEN,
    AlignedState,
    BlockSpec,
    ConjugatePair,
    ModelSpec,
    Operator,
    SymmetryReport,
    aligned_signs,
    apply,
    build_c,
    build_model,
    classify_stack,
    classify_symmetry,
    cpt_adjoint,
    cpt_inner,
    direct_sum,
    eigendecompose,
    hermitian_power,
    hermitize,
    normalize_indefinite,
    pair_swap_frame,
    pt_inner,
    tensor_hamiltonians,
    validate_cpt_frame,
)
from cptkit.errors import (
    CommutatorViolation,
    DefectiveSpectrum,
    DimensionMismatch,
    FrameInvalid,
    GramDefect,
    InvalidArgument,
    KindMismatch,
    NotPTEigenstate,
    NotUnbroken,
    SelfOrthogonal,
)
from cptkit import frames, linops, symmetry
from cptkit.cpt import EP_GUARD_TOL
from cptkit.frames import CPTFrame, checked_cpt_frame, frame_from_involution
from cptkit.linops import DEFAULT_TOL, frobenius, hermitian_spectrum, spectral_powers
from helpers import (
    COVARIANCE_FAMILIES,
    H2,
    SWAP,
    bench_workloads,
    covariance_problem,
    multiset_gap,
    permuted_chain,
    random_cells,
    random_complex,
    random_symmetric_pt_symmetric,
    shared_eigenvalue_chain,
    skewed_parity_problem,
    solved_whole,
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


def test_the_parity_verdict_is_formed_once_per_frame(monkeypatch):
    # a dense frame: the pair swap moved by a unitary
    rng = np.random.default_rng(29)
    _, _, moved = unitary_basis_change(np.eye(4), pair_swap_frame(4), rng)
    calls = []
    real_residual = frames.hermiticity_residual

    def counting(a):
        calls.append(None)
        return real_residual(a)

    monkeypatch.setattr(frames, "hermiticity_residual", counting)
    u, v = random_complex(rng, 4), random_complex(rng, 4)
    first = pt_inner(u, v, moved)
    assert pt_inner(u, v, moved) == first
    assert len(calls) == 1


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


@pytest.mark.parametrize("shape", [(1, 2, 1), (2, 1, 1), (3, 2, 2)])
def test_normalize_indefinite_rejects_an_array_of_more_than_two_dimensions(shape):
    with pytest.raises(DimensionMismatch, match=rf"got an array of shape \({shape[0]}, "):
        normalize_indefinite(np.ones(shape), pair_swap_frame(2))


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


def test_build_c_requires_a_hermitian_parity():
    # (u, v) = <P u, v> is a Hermitian form only for P = P^+: an axiom
    # failure (exit code 3), not a numerical breakdown
    h, frame = skewed_parity_problem()
    assert classify_symmetry(h, frame).classification == UNBROKEN
    with pytest.raises(FrameInvalid, match="Hermitian parity") as info:
        build_c(h, frame)
    assert info.value.exit_code == 3


def test_normalize_indefinite_requires_a_hermitian_parity():
    # the skewed problem's PT-fixed eigenstates are not orthogonal under
    # <P u, v>, so the signs of that form would mean nothing
    h, frame = skewed_parity_problem()
    states = np.column_stack([state.state for state in classify_symmetry(h, frame).aligned_states])
    assert abs(np.vdot(frame.apply_p(states[:, 0]), states[:, 1])) > 0.1
    for v in (states[:, 0], states[:, :1], states):
        with pytest.raises(FrameInvalid, match="Hermitian parity") as info:
            normalize_indefinite(v, frame)
        assert info.value.exit_code == 3


def test_pt_inner_requires_a_hermitian_parity():
    # <P u, v> is not a Hermitian form for the skewed P: no number is returned
    h, frame = skewed_parity_problem()
    u, v = (state.state for state in classify_symmetry(h, frame).aligned_states)
    with pytest.raises(FrameInvalid, match="Hermitian parity") as info:
        pt_inner(u, v, frame)
    assert info.value.exit_code == 3


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
        assert np.linalg.norm(c @ pt - pt @ np.conj(c)) <= 1e-10 * np.linalg.norm(c, 2)


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


def test_aligned_signs_are_the_signs_of_build_c():
    rng = np.random.default_rng(17)
    for family in COVARIANCE_FAMILIES:
        h, frame = covariance_problem(rng, family)
        signs = aligned_signs(classify_symmetry(h, frame), frame)
        assert signs.tolist() == [state.sign for state in build_c(h, frame).aligned_states]
    h, frame = skewed_parity_problem()  # no sign means anything for a non-Hermitian P
    assert aligned_signs(classify_symmetry(h, frame), frame).tolist() == [0, 0]
    frame = pair_swap_frame(2)
    with pytest.raises(NotUnbroken):
        aligned_signs(classify_symmetry(model_2x2(2.0, 1.0, 1.2), frame), frame)


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


def test_cpt_adjoint_takes_a_linear_operator_of_the_frame_dimension():
    metric = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2)).cpt
    with pytest.raises(KindMismatch, match="the CPT adjoint is defined for linear operators"):
        cpt_adjoint(Operator.conjugation(2), metric)
    with pytest.raises(DimensionMismatch, match="operator dimension 3 does not match frame dimension 2"):
        cpt_adjoint(Operator.identity(3), metric)


def test_cpt_inner_of_vectors_of_another_length_fails():
    metric = build_c(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2)).cpt
    with pytest.raises(DimensionMismatch, match="vectors of lengths 3, 2 do not match frame dimension 2"):
        cpt_inner(np.ones(3), np.ones(2), metric)


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
    upper = np.sqrt(np.linalg.norm(pc, 2))
    lower = 1.0 / np.sqrt(np.linalg.norm(cp, 2))
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
        if hasattr(module, "compose"):  # symmetry forms (PT) H (PT) from matrices, without compose
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


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(COVARIANCE_FAMILIES),
)
def test_pipeline_is_covariant_under_unitary_basis_change(seed, family):
    rng = np.random.default_rng(seed)
    h, frame = covariance_problem(rng, family)
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


def _count_factorizations(monkeypatch) -> Counter:
    """Count the calls of eig, eigh, eigvalsh and svd, also the SVD inside
    ``np.linalg.norm(., 2)``."""
    calls = Counter()
    for name in ("eig", "eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        # np.linalg.norm(., 2) calls the svd of the module that defines it
        for module in (np.linalg, getattr(np.linalg, "_linalg", None) or np.linalg.linalg):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_simple_eigenspaces_are_normalized_in_one_pass(monkeypatch):
    calls = _count_factorizations(monkeypatch)

    def eigh_calls(n_blocks):
        h, frame = _chain(n_blocks)
        calls.clear()
        build_c(h, frame)
        return calls["eigh"]

    assert eigh_calls(10) == eigh_calls(100)


def test_degenerate_eigenspaces_are_normalized_in_one_eigh_per_size(monkeypatch):
    # every cell repeated 3 times: only 3-fold eigenspaces, 4 or 40 of them
    calls = _count_factorizations(monkeypatch)

    def eigh_calls(n_cells):
        blocks = tuple((1.0, 2.0 + 0.05 * k, 0.5) for k in range(n_cells) for _ in range(3))
        h, frame = build_model(ModelSpec("chain", blocks))
        assert [len(space) for space in classify_symmetry(h, frame).eigenspaces] == [3] * (2 * n_cells)
        calls.clear()
        assert build_c(h, frame).gram_residual < 1e-8
        return calls["eigh"]

    # below the dimension at which the pipeline splits by blocks (78 < 80): each
    # eigenspace spans three cells, and is normalized whole
    assert eigh_calls(2) == eigh_calls(13)


@pytest.mark.parametrize("n_blocks", [1, 10], ids=["cell", "chain-dim-20"])
def test_the_metric_is_factored_once(monkeypatch, n_blocks):
    # the eigensolve, whose condition number the Gram certificate clears
    # with no SVD, then one eigh of PC held by the frame: the Gram
    # tolerance, validation and both roots read it
    h, frame = _chain(n_blocks)
    calls = _count_factorizations(monkeypatch)
    cpt = build_c(h, frame).cpt
    hermitize(h, cpt)
    assert [calls[name] for name in ("eig", "svd", "eigh", "eigvalsh")] == [1, 0, 1, 0]
    for consumer in (lambda: hermitize(h, cpt), lambda: cpt_adjoint(Operator.linear(h), cpt)):
        calls.clear()
        consumer()
        assert not calls


def _relative_gap(got, want) -> float:
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("family", COVARIANCE_FAMILIES)
def test_metric_consumers_match_the_hermitian_power_oracle(family):
    # moved by a random unitary, so T is a general antilinear operator
    rng = np.random.default_rng(COVARIANCE_FAMILIES.index(family))
    for _ in range(5):
        h, frame = covariance_problem(rng, family)
        _, h_moved, moved = unitary_basis_change(h, frame, rng)
        cpt = build_c(h_moved, moved).cpt
        pc = cpt.pc_matrix
        root, inv_root, inverse = (hermitian_power(pc, p) for p in (0.5, -0.5, -1.0))
        assert _relative_gap(hermitize(h_moved, cpt), root @ h_moved @ inv_root) <= 1e-12
        a = random_complex(rng, pc.shape)
        assert _relative_gap(cpt_adjoint(Operator.linear(a), cpt).matrix, inverse @ a.conj().T @ pc) <= 1e-12


def test_positive_definiteness_verdict_matches_the_eigvalsh_oracle():
    # random C, P + noise, -I + noise and build_c outputs over moved frames
    rng = np.random.default_rng(61)
    verdicts = set()
    for trial in range(120):
        h, frame = covariance_problem(rng, COVARIANCE_FAMILIES[trial % len(COVARIANCE_FAMILIES)])
        _, h, moved = unitary_basis_change(h, frame, rng)
        n = moved.dim
        noise = random_complex(rng, (n, n), scale=10.0 ** rng.uniform(-12, 0))
        candidates = (lambda: random_complex(rng, (n, n)), lambda: moved.p.matrix + noise,
                      lambda: -np.eye(n) + noise, lambda: build_c(h, moved).cpt.c.matrix)
        c = candidates[trial % 4]()
        report = validate_cpt_frame(Operator.linear(c), moved)
        pc = moved.p.matrix @ c
        min_eig = np.linalg.eigvalsh((pc + pc.conj().T) / 2).min()
        positive = bool(min_eig > 1e-10 * np.linalg.norm(pc, 2))
        assert ("PC positive definite" not in dict(report.violations)) == positive
        verdicts.add(positive)
    assert verdicts == {True, False}


def test_an_empty_block_normalizes_to_an_empty_basis_with_no_signs():
    units, signs = normalize_indefinite(np.zeros((2, 0)), pair_swap_frame(2))
    assert units.shape == (2, 0) and signs.shape == (0,)


def test_vector_and_one_column_block_normalize_alike():
    frame = pair_swap_frame(2)
    state = classify_symmetry(model_2x2(1, 2, np.pi / 6), frame).aligned_states[0].state
    unit, sign = normalize_indefinite(state, frame)
    block, signs = normalize_indefinite(state[:, None], frame)
    np.testing.assert_array_equal(block[:, 0], unit)
    assert signs.tolist() == [sign]
    with pytest.raises(SelfOrthogonal):
        normalize_indefinite(np.zeros((2, 1)), frame)


# ---------------------------------------------------------------- synthesis in the real basis

#: Relative bound between C, PC and h synthesized in an index frame's real
#: basis and the dense formulas in the original basis: both are rounding
#: away from the exact values (3.1e-15 is the largest gap measured on the
#: inputs below, BLAS at 1 thread).
REAL_BASIS_GAP = 1e-13


def _dense_synthesis(h, frame):
    """C, PC, h, the signs and the CPT Gram residual by the dense formulas
    of the original basis: each eigenspace of :func:`classify_symmetry`
    normalized by :func:`normalize_indefinite`, C = sum phi (P phi)^+,
    PC = P C and the roots of PC by :func:`hermitian_power`."""
    spaces = classify_symmetry(h, frame).eigenspaces
    blocks = [normalize_indefinite(np.column_stack([s.state for s in space]), frame, EP_GUARD_TOL) for space in spaces]
    phi, signs = np.column_stack([b for b, _ in blocks]), np.concatenate([s for _, s in blocks])
    p = frame.p.matrix
    c = phi @ (p @ phi).conj().T
    pc = p @ c
    hermitized = hermitian_power(pc, 0.5) @ h @ hermitian_power(pc, -0.5)
    gram_residual = np.linalg.norm((pc @ phi).conj().T @ phi - np.eye(len(signs)))
    return c, pc, hermitized, signs.tolist(), gram_residual


def _index_frame_problems(source):
    """The unbroken inputs of a benchmark workload at seeds 1-3, or three
    problems of each covariance family (degenerate chains, the identity and
    the 3x3 frame with a fixed point among them), all over index frames."""
    if source == "covariance":
        for family in COVARIANCE_FAMILIES:
            rng = np.random.default_rng(COVARIANCE_FAMILIES.index(family))
            for _ in range(3):
                yield covariance_problem(rng, family)
        return
    workloads = bench_workloads()
    for seed in (1, 2, 3):
        for index in range(20 if source == "cells" else 1):
            p = workloads.problem(source, seed, index)
            if p.kind == "unbroken":
                yield build_model(p.spec)


@pytest.mark.parametrize("source", ["cells", "chain-dense", "chain-clustered", "covariance"])
def test_index_frame_synthesis_matches_the_dense_formulas(source):
    for h, frame in _index_frame_problems(source):
        assert frame.perm is not None
        result = build_c(h, frame)
        hermitized = hermitize(h, result.cpt)
        c, pc, want_h, signs, gram_residual = _dense_synthesis(h, frame)
        assert _relative_gap(result.cpt.c.matrix, c) <= REAL_BASIS_GAP
        assert _relative_gap(result.cpt.pc_matrix, pc) <= REAL_BASIS_GAP
        assert _relative_gap(hermitized, want_h) <= REAL_BASIS_GAP
        assert [state.sign for state in result.aligned_states] == signs
        assert abs(result.gram_residual - gram_residual) <= REAL_BASIS_GAP * np.linalg.norm(pc)


#: Relative bound between the metric's roots, h and the CPT adjoint formed
#: in an index frame's real basis, from M's real spectrum (w, U_r), and the
#: dense formulas read from (w, Q U_r): 8.3e-16 is the largest gap measured
#: on the benchmark inputs of seeds 1-3 and the covariance families, BLAS at
#: 1 thread.
REAL_POWERS_GAP = 1e-14

#: The Hermiticity residual |h - h^+| of h formed in the real basis is at
#: most this multiple of that of the dense formula, or of eps |h| where the
#: dense residual is below rounding: the largest ratio measured on the
#: inputs above is 2.8, the median 0.85.
HERMITICITY_FACTOR = 8.0


def test_the_metric_powers_in_the_real_basis_match_the_dense_formulas():
    rng = np.random.default_rng(72)
    problems = [*_index_frame_problems("covariance"), build_model(bench_workloads().problem("chain-dense", 1, 0).spec)]
    for h, frame in problems:
        cpt = build_c(h, frame).cpt
        pc = cpt.pc_matrix
        root, inv_root, inverse = spectral_powers(pc, cpt.metric_spectrum, (0.5, -0.5, -1.0), DEFAULT_TOL)
        for got, want in zip(cpt.metric_roots(), (root, inv_root)):
            assert _relative_gap(got, want) <= REAL_POWERS_GAP
        hermitized, want_h = hermitize(h, cpt), root @ h @ inv_root
        assert _relative_gap(hermitized, want_h) <= REAL_POWERS_GAP
        floor = np.finfo(float).eps * frobenius(want_h)
        assert frobenius(hermitized - hermitized.conj().T) <= HERMITICITY_FACTOR * max(
            frobenius(want_h - want_h.conj().T), floor
        )
        a = random_complex(rng, pc.shape)
        assert _relative_gap(cpt_adjoint(Operator.linear(a), cpt).matrix, inverse @ a.conj().T @ pc) <= REAL_POWERS_GAP


def _stacked_similarity(cpt, left, a, right, blocks=False):
    """left A right on a frame synthesized in the real basis, with the real
    and imaginary parts of Q^+ A Q stacked: four real products for any A.
    ``left`` and ``right`` are tuples of block stacks, as the frame forms
    them; with ``blocks``, A, the H that build_c synthesized the frame for,
    is taken block by block, else whole with the blocks of ``left`` and
    ``right`` joined."""
    basis = cpt.frame.real_basis
    ats = cpt._blocks if blocks else (np.arange(cpt.dim)[None],)
    forms = basis.form_blocks(a, ats)
    if not blocks:
        left, right = (cpt._joined(left)[None],), (cpt._joined(right)[None],)
    for form, lhs, rhs in zip(forms, left, right):
        form.real, form.imag = lhs @ np.stack([form.real, form.imag]) @ rhs
    return basis.from_blocks(ats, forms)


@pytest.mark.parametrize("source", ["cells", "chain-dense", "chain-clustered", "covariance"])
def test_a_real_form_takes_half_the_products_bit_for_bit(source, monkeypatch):
    # every built-in model has an exactly real Q^+ H Q: h and the CPT adjoint
    # of H take its real part's products alone, with no stack, and equal the
    # stacked formula bit for bit, whose zero imaginary part is a +0.0; a
    # complex Q^+ A Q takes the stacked formula
    rng = np.random.default_rng(90)
    stacks, forms = [], []
    real_stack, from_blocks = np.stack, frames.RealBasis.from_blocks

    def mapped(basis, ats, parts, cols=None):
        forms.append(b"".join(part.tobytes() for part in parts))
        return from_blocks(basis, ats, parts, cols)

    monkeypatch.setattr(np, "stack", lambda *args, **kwargs: stacks.append(None) or real_stack(*args, **kwargs))
    monkeypatch.setattr(frames.RealBasis, "from_blocks", mapped)
    for h, frame in _index_frame_problems(source):
        assert np.count_nonzero(frame.real_basis.form(h).imag) == 0
        cpt = build_c(h, frame).cpt
        root, inv_root = cpt._basis_roots(DEFAULT_TOL)
        (inverse,) = cpt._metric_powers((-1.0,), DEFAULT_TOL)
        stacks.clear()
        forms.clear()
        hermitized, adjoint = hermitize(h, cpt), cpt_adjoint(Operator.linear(h), cpt).matrix
        assert stacks == []
        assert hermitized.tobytes() == _stacked_similarity(cpt, root, h, inv_root, blocks=True).tobytes()
        assert adjoint.tobytes() == _stacked_similarity(cpt, inverse, h.conj().T, cpt._m).tobytes()
        # each form mapped back is its stacked formula's, +0.0 imaginary parts included
        assert len(forms) == 4 and forms[:2] == forms[2:]
        a = random_complex(rng, h.shape)
        stacks.clear()
        adjoint = cpt_adjoint(Operator.linear(a), cpt).matrix
        assert len(stacks) == 1
        assert adjoint.tobytes() == _stacked_similarity(cpt, inverse, a.conj().T, cpt._m).tobytes()


@pytest.mark.parametrize("family", COVARIANCE_FAMILIES)
def test_the_metric_powers_of_a_dense_frame_are_the_dense_formulas_bit_for_bit(family):
    # a frame moved by a unitary, and a C given alone over the unmoved index
    # frame, hold C in the original basis: its metric is PC, factored whole
    rng = np.random.default_rng(80 + COVARIANCE_FAMILIES.index(family))
    problem = covariance_problem(rng, family)
    _, h, moved = unitary_basis_change(*problem, rng)
    for cpt in (build_c(h, moved).cpt, CPTFrame(problem[1], build_c(*problem).cpt.c)):
        pc = cpt.pc_matrix
        spectrum = hermitian_spectrum((pc + pc.conj().T) / 2.0)
        assert [part.tobytes() for part in cpt.metric_spectrum] == [part.tobytes() for part in spectrum]
        root, inv_root, inverse = spectral_powers(pc, cpt.metric_spectrum, (0.5, -0.5, -1.0), DEFAULT_TOL)
        assert [got.tobytes() for got in cpt.metric_roots()] == [root.tobytes(), inv_root.tobytes()]
        a = random_complex(rng, pc.shape)
        assert cpt_adjoint(Operator.linear(a), cpt).matrix.tobytes() == (inverse @ a.conj().T @ pc).tobytes()


def test_every_cpt_frame_holds_c_as_blocks_of_its_basis():
    # one representation: C and its metric are (g, m, m) stacks on every
    # frame, those of the real C_r where build_c synthesized C over an index
    # frame, else one block of the whole original basis; the blocks cover
    # the indices once, and mapped back through the basis they are C
    rng = np.random.default_rng(31)
    cell, cell_frame = build_model(ModelSpec("2x2", ((1.0, 2.0, 0.5),)))
    chain, chain_frame = build_model(ModelSpec("chain", random_cells(rng, 40)))
    _, moved_cell, moved = unitary_basis_change(cell, cell_frame, rng)
    other = model_2x2(1.0, 3.0, 0.78)
    synthesized = {
        "cell": build_c(cell, cell_frame).cpt,
        "chain": build_c(chain, chain_frame).cpt,
        "moved": build_c(moved_cell, moved).cpt,
    }
    given = {
        "alone": checked_cpt_frame(synthesized["cell"].c, cell_frame),
        "moved alone": checked_cpt_frame(synthesized["moved"].c, moved),
        "tensor": tensor_hamiltonians(cell, other, synthesized["cell"], build_c(other, cell_frame).cpt)[1],
    }
    assert not synthesized["chain"]._unsplit  # a chain of dimension 80 is split
    for name, cpt in {**synthesized, **given}.items():
        basis = cpt._basis
        assert basis is (cpt.frame.real_basis if name in ("cell", "chain") else None), name
        assert np.array_equal(np.sort(np.concatenate([at.reshape(-1) for at in cpt._blocks])), np.arange(cpt.dim))
        for at, c, m in zip(cpt._blocks, cpt._c_blocks, cpt._m, strict=True):
            assert c.shape == m.shape == at.shape + at.shape[-1:], name
        joined = cpt._joined(cpt._c_blocks) if basis is None else basis.from_blocks(cpt._blocks, cpt._c_blocks)
        assert joined.tobytes() == cpt.c.matrix.tobytes(), name


@pytest.mark.parametrize("model", ["cell", "chain"])
def test_a_frame_with_its_c_replaced_is_judged_as_a_fresh_frame(model):
    # dataclasses.replace passes no block of the old C on: the new C is one
    # block of the whole original basis, as a C given alone, and is judged
    # as such, by its own metric; -C fails where C passes
    rng = np.random.default_rng(32)
    cells = ((1.0, 2.0, 0.5),) if model == "cell" else random_cells(rng, 40)
    others = ((0.5, 1.0, 0.3),) if model == "cell" else random_cells(rng, 40)
    h, frame = build_model(ModelSpec("chain", cells))
    cpt = build_c(h, frame).cpt
    other = build_c(build_model(ModelSpec("chain", others))[0], frame).cpt
    for c, passed in ((-cpt.c.matrix, False), (other.c.matrix, True)):
        replaced, fresh = replace(cpt, c=Operator.linear(c)), CPTFrame(frame, Operator.linear(c))
        assert replaced.validate() == fresh.validate() and replaced.validate().passed == passed
        for got, want in zip(replaced.metric_spectrum, fresh.metric_spectrum):
            assert got.tobytes() == want.tobytes()
        assert replaced._basis is None and replaced._c_blocks[0].tobytes() == c.tobytes()


@pytest.mark.parametrize("family", COVARIANCE_FAMILIES)
def test_dense_frame_synthesis_is_the_dense_formula_bit_for_bit(family):
    # a frame moved by a unitary has no index array: C, its metric, the Gram
    # residual and h are formed in the original basis, exactly as written here
    rng = np.random.default_rng(70 + COVARIANCE_FAMILIES.index(family))
    _, h, moved = unitary_basis_change(*covariance_problem(rng, family), rng)
    assert moved.perm is None
    result = build_c(h, moved)
    phi = np.column_stack([state.state for state in result.aligned_states])
    c = phi @ moved.apply_p(phi).conj().T
    pc = moved.apply_p(c)
    w, u = np.linalg.eigh((pc + pc.conj().T) / 2.0)
    metric = result.cpt
    assert [metric.c.matrix.tobytes(), metric.pc_matrix.tobytes()] == [c.tobytes(), pc.tobytes()]
    assert [part.tobytes() for part in metric.metric_spectrum] == [w.tobytes(), u.tobytes()]
    assert result.gram_residual == float(frobenius((pc @ phi).conj().T @ phi - np.eye(len(phi))))
    root, inv_root = spectral_powers(pc, (w, u), (0.5, -0.5), DEFAULT_TOL)
    assert hermitize(h, metric).tobytes() == (root @ h @ inv_root).tobytes()


@pytest.mark.parametrize("blocks, eighs", [
    (tuple((1.0, 2.0 + 0.05 * k, 0.5) for k in range(10)), 1),
    (tuple((1.0, 2.0 + 0.05 * (k // 3), 0.5) for k in range(12)), 2),
], ids=["simple", "threefold"])
def test_index_frame_synthesis_factors_only_real_matrices(monkeypatch, blocks, eighs):
    # the classification's real eig and cond(V) SVD, the rebase SVD and the
    # normalization eigh of the 3-fold eigenspaces, and the metric's one
    # eigh, of M = J C_r: none of them sees a complex matrix
    h, frame = build_model(ModelSpec("chain", blocks))
    kinds = []
    for name in ("eig", "eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _real=real, **kwargs):
            kinds.append((_name, np.asarray(a).dtype.kind))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    hermitize(h, build_c(h, frame).cpt)
    assert {kind for _, kind in kinds} == {"f"}
    assert [name for name, _ in kinds].count("eigh") == eighs


# ---------------------------------------------------------------- one analysis per H


def _count_kernel_and_commutator(monkeypatch) -> Counter:
    """Count the passes of the classification kernel and the commutators formed."""
    calls = Counter()
    for module, name in ((symmetry, "_classify_rows"), (frames, "commutator_check")):
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def _pipeline_problem(moved: bool):
    h, frame = _chain(3)
    return unitary_basis_change(h, frame, np.random.default_rng(5))[1:] if moved else (h, frame)


@pytest.mark.parametrize("moved", [False, True], ids=["index-frame", "dense-frame"])
@pytest.mark.parametrize("route", ["report", "matrix"])
def test_a_pipeline_classifies_once_and_forms_the_commutator_once(monkeypatch, route, moved):
    h, frame = _pipeline_problem(moved)
    calls = _count_kernel_and_commutator(monkeypatch)
    result = build_c(classify_symmetry(h, frame) if route == "report" else h, frame)
    hermitize(h, result.cpt)
    # an entrywise-equal H at a looser tol reuses the verdict too
    hermitize(h.copy(), result.cpt, 10 * DEFAULT_TOL)
    assert calls == {"_classify_rows": 1, "commutator_check": 1}


@pytest.mark.parametrize("source", ["cells", "chain-clustered", "covariance"])
def test_the_report_route_synthesizes_the_matrix_route_bit_for_bit(source):
    for h, frame in _index_frame_problems(source):
        _, h_moved, moved = unitary_basis_change(h, frame, np.random.default_rng(9))
        for h, frame in ((h, frame), (h_moved, moved)):
            results = [build_c(h, frame), build_c(classify_symmetry(h, frame), frame)]
            digests = [
                [r.cpt.c.matrix.tobytes(), r.cpt.pc_matrix.tobytes(), *(part.tobytes() for part in r.cpt.metric_spectrum),
                 [s.sign for s in r.aligned_states], r.gram_residual, hermitize(h, r.cpt).tobytes()]
                for r in results
            ]
            assert digests[0] == digests[1]


def test_a_different_h_or_a_tighter_tol_forms_the_commutator_again(monkeypatch):
    h, frame = _chain(2)
    cpt = build_c(h, frame).cpt
    near = h.copy()
    near[0, 0] += 1e-6
    calls = _count_kernel_and_commutator(monkeypatch)
    with pytest.raises(CommutatorViolation):
        hermitize(near, cpt)
    assert calls["commutator_check"] == 1
    hermitize(near, cpt, 1e-3)
    hermitize(near, cpt, 1e-2)  # no tighter than the last pass
    assert calls["commutator_check"] == 2
    with pytest.raises(CommutatorViolation):
        hermitize(near, cpt, 1e-8)
    assert calls["commutator_check"] == 3
    hermitize(h, cpt)  # a different H from the last pass
    assert calls["commutator_check"] == 4


def test_build_c_refuses_a_report_it_did_not_get_from_classify_symmetry():
    h, frame = _chain(2)
    report = classify_symmetry(h, frame)
    hand_built = SymmetryReport(*(getattr(report, name) for name in (
        "pt_symmetric", "classification", "eigenvalues", "aligned_states", "broken_pairs", "warnings", "pt_residual")))
    assert hand_built == report and repr(hand_built) == repr(report)  # both skip the private field
    reversed_frame = frame_from_involution(np.eye(4)[::-1])
    for bad, over, tol in ((hand_built, frame, DEFAULT_TOL), (report, reversed_frame, DEFAULT_TOL),
                           (report, frame, 10 * DEFAULT_TOL)):
        with pytest.raises(InvalidArgument):
            build_c(bad, over, tol)
    # an equal frame is not another frame
    same = build_c(report, pair_swap_frame(4))
    assert same.cpt.c.matrix.tobytes() == build_c(h, frame).cpt.c.matrix.tobytes()
    broken = classify_symmetry(model_2x2(2, 1, 1.0), pair_swap_frame(2))
    with pytest.raises(NotUnbroken):
        build_c(broken, pair_swap_frame(2))


@pytest.mark.parametrize("moved", [False, True], ids=["index-frame", "dense-frame"])
def test_results_compare_by_content(moved):
    h, frame = _pipeline_problem(moved)
    reports = [classify_symmetry(h, frame) for _ in range(2)]
    results = [build_c(h, frame) for _ in range(2)]
    eigens = [eigendecompose(h) for _ in range(2)]
    stacks = [classify_stack(np.stack([h, 2 * h]), frame) for _ in range(2)]
    for first, second in (reports, results, eigens, stacks):
        assert first is not second and first == second and not first != second
    report, result, eigen, stack = reports[0], results[0], eigens[0], stacks[0]
    values = report.eigenvalues.copy()
    values[0] += 1e-12
    state = report.aligned_states[0]
    moved_state = replace(state, state=state.state * np.exp(1e-9j))
    c = result.cpt.c.matrix.copy()
    c[0, 0] += 1e-12
    signed = result.aligned_states[0]
    flipped = replace(signed, state=-signed.state)
    unequal = (
        (report, replace(report, eigenvalues=values)),
        (report, replace(report, aligned_states=(moved_state, *report.aligned_states[1:]))),
        (result, replace(result, cpt=type(result.cpt)(result.cpt.frame, Operator.linear(c)))),
        (result, replace(result, aligned_states=(flipped, *result.aligned_states[1:]))),
        (eigen, replace(eigen, values=eigen.values[::-1])),
        (stack, replace(stack, warning=~stack.warning)),
        (report, result),
        (report, report.eigenvalues),
    )
    for first, second in unequal:
        assert first != second and not first == second


# ---------------------------------------------------------------- one pipeline, no rendering


def _constructed(monkeypatch, *classes) -> Counter:
    """Count the instances of ``classes`` constructed, by class name."""
    made = Counter()
    for cls in classes:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


@pytest.mark.parametrize("moved", [False, True], ids=["index-frame", "dense-frame"])
def test_build_c_of_a_matrix_renders_no_report(monkeypatch, moved):
    # a chain; a cell near its exceptional point (K about 2.5e6), whose report
    # carries a warning text; and a broken cell, which build_c refuses
    near, broken, swap = model_2x2(1.0 - 2e-7, 1.0, np.pi / 2), model_2x2(2.0, 1.0, 1.2), pair_swap_frame(2)
    chain = _pipeline_problem(moved)
    if moved:
        u, near, swap = unitary_basis_change(near, swap, np.random.default_rng(31))
        broken = u @ broken @ u.conj().T
    made = _constructed(monkeypatch, SymmetryReport, AlignedState, ConjugatePair)
    for h, frame in (chain, (near, swap)):
        build_c(h, frame)
    with pytest.raises(NotUnbroken):
        build_c(broken, swap)
    assert not made
    report = classify_symmetry(near, swap)
    assert report.warnings and made == {"SymmetryReport": 1, "AlignedState": 2}


def test_aligned_signs_takes_only_a_report_of_classify_symmetry_over_its_frame():
    h, frame = _chain(2)
    report = classify_symmetry(h, frame)
    hand_built = SymmetryReport(*(getattr(report, name) for name in (
        "pt_symmetric", "classification", "eigenvalues", "aligned_states", "broken_pairs", "warnings", "pt_residual")))
    reversed_frame = frame_from_involution(np.eye(4)[::-1])
    for bad, over in ((hand_built, frame), (report, reversed_frame)):
        with pytest.raises(InvalidArgument, match="aligned_signs takes a report of classify_symmetry over this frame"):
            aligned_signs(bad, over)
    signs = [state.sign for state in build_c(h, frame).aligned_states]
    assert aligned_signs(report, pair_swap_frame(4)).tolist() == signs  # an equal frame is not another frame


@pytest.mark.parametrize("source", ["cells", "chain-dense", "chain-clustered", "covariance"])
def test_aligned_signs_are_the_signs_of_build_c_on_every_input(source):
    for h, frame in _index_frame_problems(source):
        _, h_moved, moved = unitary_basis_change(h, frame, np.random.default_rng(11))
        for h, frame in ((h, frame), (h_moved, moved)):
            signs = aligned_signs(classify_symmetry(h, frame), frame)
            assert signs.tolist() == [state.sign for state in build_c(h, frame).aligned_states]


def test_a_chain_is_classified_synthesized_and_hermitized_by_its_blocks(monkeypatch):
    # the chain-dense input (100 cells, n = 200): components labeled once per
    # classification, every factorization and real-basis form of block size
    h, frame = build_model(bench_workloads().problem("chain-dense", 901, 3).spec)
    n = len(h)
    shapes, labels, forms = [], [], []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "inv", "solve", "qr", "det", "pinv", "lstsq", "cholesky"):
        real = getattr(np.linalg, name)

        def recording(a, *args, _real=real, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    label, form = linops._label, frames.RealBasis.form
    monkeypatch.setattr(linops, "_label", lambda pattern: labels.append(pattern.shape) or label(pattern))
    monkeypatch.setattr(frames.RealBasis, "form", lambda basis, a: forms.append(np.shape(a)) or form(basis, a))
    report = classify_symmetry(h, frame)
    assert labels == [(1, n, n)]
    result = build_c(h, frame)
    assert len(labels) == 2  # build_c of the matrix classifies it once more
    hermitized = hermitize(h, result.cpt)
    assert [shape for shape in shapes if shape[-2:] == (n, n)] == []
    assert forms == []
    assert report.classification == UNBROKEN and np.isfinite(hermitized).all()


def test_a_chain_pipeline_forms_no_whole_row_temporary(monkeypatch):
    # the chain-dense input (n = 200): the PT check reads the labeling's
    # blocks, hermitize takes the H that build_c classified with no copy, and
    # PC, which no step of the pipeline reads, is formed only when read
    h, frame = build_model(bench_workloads().problem("chain-dense", 901, 3).spec)
    calls = Counter()
    conjugate, scaled_matrix = frames.PTFrame.pt_conjugate, symmetry.scaled_matrix
    monkeypatch.setattr(frames.PTFrame, "pt_conjugate", lambda f, a: calls.update(["pt_conjugate"]) or conjugate(f, a))
    # the one copy of H, read once for its norm and its finiteness
    monkeypatch.setattr(symmetry, "scaled_matrix", lambda m: calls.update(["copy" if m is h else "other"]) or scaled_matrix(m))
    report = classify_symmetry(h, frame)
    result = build_c(h, frame)
    hermitized = hermitize(h, result.cpt)
    assert calls == {"copy": 2}  # classify_symmetry and build_c of the matrix, each classifying it
    assert "pc_matrix" not in vars(result.cpt)
    pc = result.cpt.pc_matrix
    assert pc.tobytes() == frame.apply_p(result.cpt.c.matrix).tobytes() and not pc.flags.writeable
    assert result.cpt.pc_matrix is pc
    assert report.pt_residual == 0.0 and report.classification == UNBROKEN and np.isfinite(hermitized).all()


#: C functions that the package itself calls in classify_symmetry, build_c of
#: the matrix and hermitize of the 2x2 cell (1, 2, 0.5), counted by
#: sys.setprofile: the count before the norms read their operand once and
#: hermitize compared its H before copying it.  Counted over every frame,
#: numpy's own Python code included, the same pipeline made 523 such calls
#: then and 481 since.
C_CALL_BUDGET = 315


def test_the_2x2_pipeline_stays_within_its_c_call_budget():
    h, frame = build_model(ModelSpec("2x2", ((1.0, 2.0, 0.5),)))
    package = str(Path(frames.__file__).parent)

    def pipeline():
        classify_symmetry(h, frame)
        hermitize(h, build_c(h, frame).cpt)

    pipeline()
    calls = Counter()

    def profile(frame_, event, _):
        if event == "c_call" and frame_.f_code.co_filename.startswith(package):
            calls["c_call"] += 1

    sys.setprofile(profile)
    try:
        pipeline()
    finally:
        sys.setprofile(None)
    assert 0 < calls["c_call"] <= C_CALL_BUDGET


def _basis_maps(monkeypatch):
    """Count the calls of the real basis's maps of states, into it and back."""
    calls = Counter()
    for name in ("to_basis", "from_basis"):
        real = getattr(frames.RealBasis, name)
        monkeypatch.setattr(frames.RealBasis, name,
                            lambda basis, x, _real=real, _name=name: calls.update([_name]) or _real(basis, x))
    return calls


@pytest.mark.parametrize("spec", [
    ModelSpec("2x2", ((1.0, 2.0, 0.5),)),
    ModelSpec("3x3", ((1.0, 2.0, 0.5),), a=1.3),
    ModelSpec("chain", random_cells(np.random.default_rng(20), 20)),
], ids=["2x2", "3x3", "chain-40"])
def test_a_row_that_is_not_split_keeps_its_states_in_the_real_basis(spec, monkeypatch):
    # one block of the whole basis: the states go back by Q only where a public field holds them
    h, frame = build_model(spec)
    calls = _basis_maps(monkeypatch)
    report = classify_symmetry(h, frame)
    assert calls == {"from_basis": 1}  # the report's states
    result = build_c(h, frame)
    assert calls == {"from_basis": 3}  # C and the synthesized states; the classification renders nothing
    hermitize(h, result.cpt)
    assert calls == {"from_basis": 4}  # h
    assert report.classification == UNBROKEN and len(result.aligned_states) == len(h)


def test_a_stack_of_cells_maps_no_state_into_or_out_of_the_real_basis(monkeypatch):
    cells = random_cells(np.random.default_rng(21), 50)
    cells = np.stack([build_model(ModelSpec("2x2", (cell,)))[0] for cell in cells])
    calls = _basis_maps(monkeypatch)
    assert (classify_stack(cells, pair_swap_frame(2)).classification == UNBROKEN).all()
    assert calls == {}


def test_a_degenerate_3x3_eigenspace_is_rebased_in_the_real_basis(monkeypatch):
    # a is the upper level of the cell r = 1, s = 2, theta = 0.5, r cos(theta) + sqrt(s^2 - r^2 sin^2(theta)):
    # an eigenspace of the pair and the fixed point
    h, frame = build_model(ModelSpec("3x3", ((1.0, 2.0, 0.5),), a=2.8192702692558154))
    rebases, rebase = [], symmetry._pt_fixed_basis
    monkeypatch.setattr(symmetry, "_pt_fixed_basis",
                        lambda vectors, apply_pt: rebases.append((vectors.shape, apply_pt)) or rebase(vectors, apply_pt))
    report = classify_symmetry(h, frame)
    result = build_c(report, frame)
    assert rebases == [((1, 3, 2), np.conj)]  # one eigenspace of two states, where PT is conjugation
    assert report.classification == UNBROKEN and [len(space) for space in report.eigenspaces] == [1, 2]
    # the whole-row reference: the same problem moved onto a dense frame, solved and rebased in its own basis
    u, moved, dense = unitary_basis_change(h, frame, np.random.default_rng(22))
    want_report = classify_symmetry(moved, dense)
    want = build_c(want_report, dense)
    assert np.abs(report.eigenvalues - want_report.eigenvalues).max() <= 1e-14 * frobenius(h)
    c = u @ result.cpt.c.matrix @ u.conj().T
    assert frobenius(c - want.cpt.c.matrix) <= 1e-13 * frobenius(want.cpt.c.matrix)
    pairs = ((report.aligned_states, want_report.aligned_states), (result.aligned_states, want.aligned_states))
    for got, expected in pairs:
        energies = np.array([state.energy for state in got])
        states = u @ np.column_stack([state.state for state in got])
        want_energies = np.array([state.energy for state in expected])
        want_states = np.column_stack([state.state for state in expected])
        assert np.abs(energies - want_energies).max() <= 1e-14 * frobenius(h)
        assert _span_gap(energies, states, want_energies, want_states, 1e-8 * frobenius(h)) <= 1e-13
    assert sorted(state.sign for state in result.aligned_states) == sorted(state.sign for state in want.aligned_states)


def _whole_pipeline(h, frame):
    """Classification, C, h and the aligned states of one matrix, or the
    error class, with every eigenproblem solved whole."""
    with pytest.MonkeyPatch.context() as patch:
        solved_whole(patch)
        return _pipeline(h, frame)


def _pipeline(h, frame):
    try:
        report = classify_symmetry(h, frame)
        result = build_c(report, frame)
    except (DefectiveSpectrum, NotUnbroken) as error:
        return type(error), None
    states = np.column_stack([state.state for state in result.aligned_states])
    energies = np.array([state.energy for state in result.aligned_states])
    signs = [state.sign for state in result.aligned_states]
    return (report.classification, report.warnings), (
        report.eigenvalues, result.cpt.c.matrix, hermitize(h, result.cpt), energies, signs, states
    )


def _span_gap(energies, states, want_energies, want_states, width):
    """The largest distance between the orthogonal projectors onto the
    spans of the states of each eigenspace, runs of energies within ``width``."""
    gap, start = 0.0, 0
    bounds = np.flatnonzero(np.diff(energies) > width) + 1
    for stop in [*bounds.tolist(), len(energies)]:
        span = [np.linalg.qr(s[:, start:stop])[0] for s in (states, want_states)]
        gap = max(gap, float(np.linalg.norm(span[0] @ span[0].conj().T - span[1] @ span[1].conj().T)))
        start = stop
    return gap


#: Relative bound on C, h, the spectrum and the spans of the aligned states
#: of a permuted chain synthesized by its blocks against the whole pipeline
#: on the chain in order.  Measured over 120 seeded inputs of the test below
#: (BLAS at 1 thread): C 2.0e-16, h 3.3e-16, spans 1.1e-15, spectrum 0.  A
#: chain with a cell near its exceptional point falls back to the complex
#: solve, where C and h are conditioned as the cell's Petermann factor
#: (about 5e5): C 6.2e-14 and h 2.1e-12, against NEAR_EP_BLOCKS_GAP.
BLOCKS_GAP = 1e-14
NEAR_EP_BLOCKS_GAP = 1e-10


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(40, 60),
    repeats=st.integers(0, 6),
    special=st.sampled_from([None, "broken", "near", "at"]),
)
def test_a_permuted_direct_sum_is_synthesized_as_the_whole_pipeline(seed, count, repeats, special):
    # cells repeated across blocks give eigenspaces across blocks, compared as
    # spans; the oracle is the whole pipeline on the chain with its cells in
    # order, whose exact-exceptional-point verdict does not depend on rounding
    rng = np.random.default_rng(seed)
    cells = list(random_cells(rng, count))
    cells += cells[:repeats]
    if special is not None:
        cells[int(rng.integers(len(cells)))] = {
            "broken": (2.0, 1.0, 1.2), "near": (1.0, 1.0, 1.5693821131), "at": (1.0, 1.0, np.pi / 2)
        }[special]
    h, frame, perm = permuted_chain(rng, cells)
    verdict, got = _pipeline(h, frame)
    want_verdict, want = _whole_pipeline(*build_model(ModelSpec("chain", tuple(cells))))
    assert verdict == want_verdict
    if got is None:
        return
    values, c, hermitized, energies, signs, states = got
    want_values, want_c, want_h, want_energies, want_signs, want_states = want
    bound = NEAR_EP_BLOCKS_GAP if special == "near" else BLOCKS_GAP
    moved = np.ix_(perm, perm)
    scale = frobenius(h)
    assert np.abs(values - want_values).max() <= bound * scale
    assert frobenius(c - want_c[moved]) <= bound * frobenius(want_c)
    assert frobenius(hermitized - want_h[moved]) <= bound * frobenius(want_h)
    assert np.abs(energies - want_energies).max() <= bound * scale
    assert sorted(zip(np.round(want_energies / scale, 8).tolist(), signs)) == sorted(
        zip(np.round(want_energies / scale, 8).tolist(), want_signs))
    assert _span_gap(energies, states, want_energies, want_states[perm], 1e-8 * scale) <= bound


def test_a_direct_sum_of_blocks_of_several_sizes_is_synthesized_as_the_whole_pipeline():
    # 2x2 cells, 4x4 tensors and a 3x3 cell, dimension 85: blocks of sizes
    # 1, 2 and 4 in the real basis, each size one stack
    rng = np.random.default_rng(40)
    models = [ModelSpec("2x2", (cell,)) for cell in random_cells(rng, 25)]
    models += [ModelSpec("tensor", random_cells(rng, 2)) for _ in range(8)]
    models.append(ModelSpec("3x3", random_cells(rng, 1), a=1.3))
    parts = []
    for spec in models:
        h, frame = build_model(spec)
        parts.append((h, build_c(h, frame).cpt))
    h, composed = direct_sum(BlockSpec(tuple(parts)))
    report = classify_symmetry(h, composed.frame)
    assert sorted(at.shape[1] for _, at, _, _ in report._analysis.parts) == [1, 2, 4]
    verdict, got = _pipeline(h, composed.frame)
    want_verdict, want = _whole_pipeline(h, composed.frame)
    assert verdict == want_verdict == (UNBROKEN, ())
    assert np.abs(got[0] - want[0]).max() <= BLOCKS_GAP * frobenius(h)
    for part, want_part in zip(got[1:3], want[1:3]):
        assert frobenius(part - want_part) <= BLOCKS_GAP * frobenius(want_part)
    # C block by block is the direct sum of the factors' C
    assert frobenius(got[1] - composed.c.matrix) <= BLOCKS_GAP * frobenius(composed.c.matrix)
