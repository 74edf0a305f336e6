from collections import Counter

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
    hermitian_power,
    hermitize,
    normalize_indefinite,
    pair_swap_frame,
    pt_inner,
    validate_cpt_frame,
)
from cptkit.errors import (
    CommutatorViolation,
    FrameInvalid,
    GramDefect,
    NotPTEigenstate,
    NotUnbroken,
    SelfOrthogonal,
)
from cptkit import frames, linops, symmetry
from cptkit.frames import checked_cpt_frame
from helpers import (
    COVARIANCE_FAMILIES,
    H2,
    SWAP,
    covariance_problem,
    multiset_gap,
    random_complex,
    random_symmetric_pt_symmetric,
    shared_eigenvalue_chain,
    skewed_parity_problem,
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
    assert abs(pt_inner(states[:, 0], states[:, 1], frame)) > 0.1
    for v in (states[:, 0], states[:, :1], states):
        with pytest.raises(FrameInvalid, match="Hermitian parity") as info:
            normalize_indefinite(v, frame)
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


@pytest.mark.parametrize("n_blocks", [1, 10], ids=["cell", "chain-dim-20"])
def test_the_metric_is_factored_once(monkeypatch, n_blocks):
    # the eigensolve and its condition number, then one eigh of PC held by
    # the frame: the Gram tolerance, validation and both roots read it
    h, frame = _chain(n_blocks)
    calls = _count_factorizations(monkeypatch)
    cpt = build_c(h, frame).cpt
    hermitize(h, cpt)
    assert [calls[name] for name in ("eig", "svd", "eigh", "eigvalsh")] == [1, 1, 1, 0]
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


def test_vector_and_one_column_block_normalize_alike():
    frame = pair_swap_frame(2)
    state = classify_symmetry(model_2x2(1, 2, np.pi / 6), frame).aligned_states[0].state
    unit, sign = normalize_indefinite(state, frame)
    block, signs = normalize_indefinite(state[:, None], frame)
    np.testing.assert_array_equal(block[:, 0], unit)
    assert signs.tolist() == [sign]
    with pytest.raises(SelfOrthogonal):
        normalize_indefinite(np.zeros((2, 1)), frame)
