import numpy as np
import pytest

from cptkit import (
    BROKEN,
    UNBROKEN,
    BlockSpec,
    ModelSpec,
    Operator,
    build_c,
    build_model,
    classify_symmetry,
    direct_sum,
    doubling,
    eigendecompose,
    hermitize,
    is_pt_symmetric,
    pair_swap_frame,
    tensor_frames,
    tensor_hamiltonians,
    validate_cpt_frame,
    validate_pt_frame,
)
from cptkit import cli, composition, frames
from cptkit.errors import EXIT_USAGE, CommutatorViolation, InvalidArgument, NotPTSymmetric
from cptkit.frames import checked_cpt_frame, frame_from_involution
from cptkit.linops import hermiticity_residual
from cptkit.models import closed_form_c, closed_form_spectrum
from helpers import H1, H3, SWAP, multiset_gap, random_complex, unitary_basis_change

PARAMS_A = (1.0, 2.0, np.pi / 6)
PARAMS_B = (1.0, 3.0, np.pi / 4)


def model_2x2(r, s, theta):
    return np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])


def closed_form_cpt(r, s, theta):
    phi = np.arcsin((r / s) * np.sin(theta))
    frame = pair_swap_frame(2)
    return checked_cpt_frame(Operator.linear(closed_form_c(phi)), frame)


def psi(phi, sign):
    if sign > 0:
        return np.array([np.exp(0.5j * phi), np.exp(-0.5j * phi)]) / np.sqrt(2.0)
    return np.array([np.exp(-0.5j * phi), -np.exp(0.5j * phi)]) / np.sqrt(2.0)


# ---------------------------------------------------------------- tensor


def test_tensor_frames_valid_4x4():
    composed = tensor_frames(closed_form_cpt(*PARAMS_A), closed_form_cpt(*PARAMS_B))
    assert composed.dim == 4
    assert validate_pt_frame(composed.p, composed.t).passed
    assert validate_cpt_frame(composed.c, composed.frame).passed


def test_tensor_of_trivial_metrics():
    frame = pair_swap_frame(2)
    trivial = checked_cpt_frame(Operator.linear(SWAP), frame)
    composed = tensor_frames(trivial, trivial)
    np.testing.assert_allclose(composed.c.matrix, np.kron(SWAP, SWAP))
    np.testing.assert_allclose(composed.pc_matrix, np.eye(4), atol=1e-14)


def test_tensor_pt_eigenvalue_pattern():
    # PT acts on the product eigenstates with eigenvalues (1, -1, -1, 1)
    frame = tensor_frames(pair_swap_frame(2), pair_swap_frame(2))
    phi1 = np.arcsin((PARAMS_A[0] / PARAMS_A[1]) * np.sin(PARAMS_A[2]))
    phi2 = np.arcsin((PARAMS_B[0] / PARAMS_B[1]) * np.sin(PARAMS_B[2]))
    expected = {(1, 1): 1.0, (1, -1): -1.0, (-1, 1): -1.0, (-1, -1): 1.0}
    for (s1, s2), eig in expected.items():
        state = np.kron(psi(phi1, s1), psi(phi2, s2))
        np.testing.assert_allclose(frame.apply_pt(state), eig * state, atol=1e-12)


def test_tensor_hamiltonians_eigenvalues_are_products():
    a = closed_form_cpt(*PARAMS_A)
    b = closed_form_cpt(*PARAMS_B)
    product, composed = tensor_hamiltonians(model_2x2(*PARAMS_A), model_2x2(*PARAMS_B), a, b)
    e1 = closed_form_spectrum(*PARAMS_A).eigenvalues
    e2 = closed_form_spectrum(*PARAMS_B).eigenvalues
    expected = [x * y for x in e1 for y in e2]
    assert multiset_gap(eigendecompose(product).values, expected) <= 1e-9
    assert validate_cpt_frame(composed.c, composed.frame).passed


def test_tensor_with_identity_doubles_multiplicity():
    frame = pair_swap_frame(2)
    trivial = checked_cpt_frame(Operator.linear(SWAP), frame)
    b = closed_form_cpt(*PARAMS_B)
    product, _ = tensor_hamiltonians(np.eye(2), model_2x2(*PARAMS_B), trivial, b)
    e2 = closed_form_spectrum(*PARAMS_B).eigenvalues
    assert multiset_gap(eigendecompose(product).values, list(e2) * 2) <= 1e-9


def test_tensor_of_unbroken_models_is_unbroken():
    a = closed_form_cpt(*PARAMS_A)
    b = closed_form_cpt(*PARAMS_B)
    product, composed = tensor_hamiltonians(model_2x2(*PARAMS_A), model_2x2(*PARAMS_B), a, b)
    report = classify_symmetry(product, composed.frame)
    assert report.classification == UNBROKEN
    assert np.abs(report.eigenvalues.imag).max() < 1e-9


def test_tensor_rejects_non_pt_symmetric_factor():
    b = closed_form_cpt(*PARAMS_B)
    with pytest.raises(NotPTSymmetric):
        tensor_hamiltonians(H3, model_2x2(*PARAMS_B), b, b)


def test_tensor_spectrum_product_property():
    rng = np.random.default_rng(61)
    for _ in range(20):
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (3, 3))
        lhs = eigendecompose(np.kron(a, b)).values
        rhs = [x * y for x in eigendecompose(a).values for y in eigendecompose(b).values]
        assert multiset_gap(lhs, rhs) <= 1e-8 * max(1.0, np.linalg.norm(np.kron(a, b)))


# ---------------------------------------------------------------- direct sum


def test_direct_sum_single_block_is_identity():
    h = model_2x2(*PARAMS_A)
    frame = pair_swap_frame(2)
    out_h, out_frame = direct_sum(BlockSpec(((h, frame),)))
    np.testing.assert_allclose(out_h, h)
    np.testing.assert_allclose(out_frame.p.matrix, frame.p.matrix)


def test_direct_sum_three_blocks_union_spectrum():
    blocks = [(1.0, 2.0, np.pi / 6), (0.5, 1.5, 0.7), (2.0, 3.0, -0.4)]
    spec = BlockSpec(tuple((model_2x2(*b), pair_swap_frame(2)) for b in blocks))
    h, frame = direct_sum(spec)
    assert h.shape == (6, 6)
    expected = [e for b in blocks for e in closed_form_spectrum(*b).eigenvalues]
    report = classify_symmetry(h, frame)
    assert report.classification == UNBROKEN
    assert multiset_gap(report.eigenvalues, expected) <= 1e-9
    # eigenstates live inside their own blocks
    for state in report.aligned_states:
        support = [np.linalg.norm(state.state[2 * k : 2 * k + 2]) for k in range(3)]
        assert sorted(support)[-2] < 1e-8


def test_direct_sum_broken_block_breaks_composite():
    spec = BlockSpec(
        (
            (model_2x2(1.0, 2.0, np.pi / 6), pair_swap_frame(2)),
            (model_2x2(2.0, 1.0, np.pi / 2), pair_swap_frame(2)),
        )
    )
    h, frame = direct_sum(spec)
    assert classify_symmetry(h, frame).classification == BROKEN


def test_direct_sum_with_cpt_blocks():
    a = closed_form_cpt(*PARAMS_A)
    b = closed_form_cpt(*PARAMS_B)
    h, frame = direct_sum(
        BlockSpec(((model_2x2(*PARAMS_A), a), (model_2x2(*PARAMS_B), b)))
    )
    assert validate_cpt_frame(frame.c, frame.frame).passed
    c = frame.c.matrix
    assert np.linalg.norm(c @ h - h @ c) < 1e-10


def test_direct_sum_classification_matches_blockwise():
    rng = np.random.default_rng(62)
    for _ in range(100):
        blocks = []
        expect_unbroken = True
        for _ in range(int(rng.integers(1, 4))):
            r = float(rng.uniform(0.3, 2.0))
            s = float(rng.choice([-1, 1]) * rng.uniform(0.3, 2.0))
            theta = float(rng.uniform(0.05, 1.5))
            regime = closed_form_spectrum(r, s, theta).regime
            if abs((r / s) * np.sin(theta)) > 0.999 and regime == "unbroken":
                continue  # keep clear of the boundary
            expect_unbroken &= regime == "unbroken"
            blocks.append((model_2x2(r, s, theta), pair_swap_frame(2)))
        if not blocks:
            continue
        h, frame = direct_sum(BlockSpec(tuple(blocks)))
        report = classify_symmetry(h, frame)
        assert (report.classification == UNBROKEN) == expect_unbroken


def test_block_spec_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        BlockSpec(())
    a = closed_form_cpt(*PARAMS_A)
    with pytest.raises(ValueError):
        BlockSpec(((model_2x2(*PARAMS_A), a), (model_2x2(*PARAMS_B), pair_swap_frame(2))))


def test_block_spec_rejects_a_matrix_of_another_dimension_than_its_frame():
    with pytest.raises(InvalidArgument, match="block 1: matrix dimension 4 does not match frame dimension 2"):
        BlockSpec(((np.eye(2), pair_swap_frame(2)), (np.eye(4), pair_swap_frame(2))))


def _kind_errors():
    """Each composition given frames of mixed kinds, or PT-frames where it needs CPT-frames."""
    a, b, h = closed_form_cpt(*PARAMS_A), closed_form_cpt(*PARAMS_B), model_2x2(*PARAMS_A)
    return {
        "tensor_frames CPT, PT": lambda: tensor_frames(a, b.frame),
        "tensor_frames PT, CPT": lambda: tensor_frames(a.frame, b),
        "direct_sum CPT, PT": lambda: direct_sum(BlockSpec(((h, a), (h, b.frame)))),
        "tensor_hamiltonians CPT, PT": lambda: tensor_hamiltonians(h, h, a, b.frame),
        "tensor_hamiltonians PT, PT": lambda: tensor_hamiltonians(h, h, a.frame, b.frame),
    }


@pytest.mark.parametrize("entry", sorted(_kind_errors()))
def test_compositions_read_their_kind_from_the_frames(entry):
    with pytest.raises(InvalidArgument) as info:
        _kind_errors()[entry]()
    assert info.value.exit_code == EXIT_USAGE


def test_one_tensor_frames_keeps_the_kind_of_its_factors():
    a, b = closed_form_cpt(*PARAMS_A), closed_form_cpt(*PARAMS_B)
    plain, full = tensor_frames(a.frame, b.frame), tensor_frames(a, b)
    assert type(plain) is frames.PTFrame and type(full) is frames.CPTFrame
    assert plain == full.frame


def test_block_specs_compare_block_by_block():
    def spec(*blocks):
        return BlockSpec(tuple(blocks))

    h, frame = model_2x2(*PARAMS_A), closed_form_cpt(*PARAMS_A)
    assert spec((np.eye(2), pair_swap_frame(2))) == spec((np.eye(2), pair_swap_frame(2)))
    assert spec((h, frame), (h, frame)) == spec((h.copy(), closed_form_cpt(*PARAMS_A)), (h, frame))
    changed = h.copy()
    changed[0, 1] += 1e-12
    other_frame = frame_from_involution(-SWAP)
    unequal = (
        (spec((np.eye(2), pair_swap_frame(2))), spec((np.eye(2), other_frame))),
        (spec((h, frame)), spec((changed, frame))),
        (spec((h, frame)), spec((h, closed_form_cpt(*PARAMS_B)))),
        (spec((h, frame)), spec((h, frame), (h, frame))),
        (spec((h, frame)), ((h, frame),)),
    )
    for first, second in unequal:
        assert first != second and not first == second


# ---------------------------------------------------------------- doubling


def test_doubling_symmetric_input():
    doubled, frame, symmetric = doubling(H1)
    assert symmetric
    assert doubled.shape == (4, 4)
    np.testing.assert_allclose(doubled[:2, :2], H1)
    np.testing.assert_allclose(doubled[2:, 2:], H1.conj().T)
    assert validate_pt_frame(frame.p, frame.t, tol=1e-12).passed


@pytest.mark.parametrize("n", [1, 3])
def test_doubling_frame_is_the_block_swap(n):
    _, frame, _ = doubling(np.eye(n))
    assert frame.p.matrix.tobytes() == np.kron(SWAP, np.eye(n)).astype(complex).tobytes()
    assert frame.t.matrix.tobytes() == np.eye(2 * n, dtype=complex).tobytes()
    assert frame.p.is_linear and not frame.t.is_linear


def test_doubling_non_symmetric_input():
    _, _, symmetric = doubling(H3)
    assert not symmetric


def test_doubling_identity():
    _, _, symmetric = doubling(np.eye(3))
    assert symmetric


def test_doubling_verdict_tracks_transpose_property():
    rng = np.random.default_rng(63)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        a = random_complex(rng, (n, n))
        if rng.random() < 0.5:
            a = (a + a.T) / 2.0
        doubled, frame, symmetric = doubling(a)
        assert symmetric == (np.linalg.norm(a - a.T) <= 1e-12)
        assert bool(is_pt_symmetric(doubled, frame)) == symmetric


# ---------------------------------------------------------------- one joiner, [C, H] from the frames


def _block_diag_explicit(mats):
    return np.block([[m if i == j else np.zeros((len(m), len(n)), dtype=complex) for j, n in enumerate(mats)]
                     for i, m in enumerate(mats)])


def test_composed_frames_are_the_explicit_constructions():
    a, b = closed_form_cpt(*PARAMS_A), closed_form_cpt(*PARAMS_B)
    for composed, roles in ((tensor_frames(a.frame, b.frame), ("p", "t")), (tensor_frames(a, b), ("p", "t", "c"))):
        for role in roles:
            expected = np.kron(getattr(a, role).matrix, getattr(b, role).matrix)
            assert getattr(composed, role).matrix.tobytes() == expected.tobytes()
    factors = (a, b, closed_form_cpt(0.5, 1.5, 0.7))
    for has_c in (False, True):
        spec = BlockSpec(tuple((model_2x2(*PARAMS_A), f if has_c else f.frame) for f in factors))
        h, summed = direct_sum(spec)
        assert isinstance(summed, frames.CPTFrame) == has_c
        assert h.tobytes() == _block_diag_explicit([model_2x2(*PARAMS_A).astype(complex)] * 3).tobytes()
        for role in ("p", "t", "c") if has_c else ("p", "t"):
            expected = _block_diag_explicit([getattr(f, role).matrix for f in factors])
            assert getattr(summed, role).matrix.tobytes() == expected.tobytes()


def test_direct_sum_checks_each_block_matrix_once(monkeypatch):
    calls = []
    real = composition.as_matrix
    monkeypatch.setattr(composition, "as_matrix", lambda m: calls.append(None) or real(m))
    direct_sum(BlockSpec(tuple((model_2x2(*p), pair_swap_frame(2)) for p in (PARAMS_A, PARAMS_B))))
    assert len(calls) == 2


def _count_commutators(monkeypatch) -> list:
    calls = []
    real = frames.commutator_check

    def counting(c, h, tol):
        calls.append(len(c))
        return real(c, h, tol)

    monkeypatch.setattr(frames, "commutator_check", counting)
    return calls


def test_compose_tensor_forms_three_commutators(monkeypatch, capsys):
    assert not hasattr(composition, "commutator_check")
    calls = _count_commutators(monkeypatch)
    blocks = ["--r", "1", "--s", "2", "--theta", "0.52", "--r", "1", "--s", "3", "--theta", "0.78"]
    assert cli.main(["compose", "--op", "tensor", *blocks]) == 0
    capsys.readouterr()
    assert len(calls) == 3  # one per build_c, one for the composite
    # the composed frame keeps its verdict for hermitize
    h1, h2 = model_2x2(*PARAMS_A), model_2x2(*PARAMS_B)
    product, composed = tensor_hamiltonians(h1, h2, build_c(h1, pair_swap_frame(2)).cpt,
                                            build_c(h2, pair_swap_frame(2)).cpt)
    calls.clear()
    hermitize(product, composed)
    assert calls == []


def test_a_factor_that_does_not_commute_skips_the_composite_check(monkeypatch):
    a, b = closed_form_cpt(*PARAMS_A), closed_form_cpt(*PARAMS_B)
    h1 = model_2x2(1.0, 2.0, np.pi / 5)  # PT-symmetric, but not the H of a's C
    calls = _count_commutators(monkeypatch)
    product, composed = tensor_hamiltonians(h1, model_2x2(*PARAMS_B), a, b)
    assert calls == [2]
    assert product.tobytes() == np.kron(h1, model_2x2(*PARAMS_B)).astype(complex).tobytes()
    assert composed.validate().passed


def test_a_composite_that_fails_raises(monkeypatch):
    real = frames.commutator_check

    def failing_composite(c, h, tol):
        residual, commutes = real(c, h, tol)
        return residual, commutes and len(c) == 2

    monkeypatch.setattr(frames, "commutator_check", failing_composite)
    with pytest.raises(CommutatorViolation):
        tensor_hamiltonians(model_2x2(*PARAMS_A), model_2x2(*PARAMS_B),
                            closed_form_cpt(*PARAMS_A), closed_form_cpt(*PARAMS_B))


# ---------------------------------------------------------------- under a change of basis


def _moved_cell(params, rng):
    """A 2x2 cell moved by a random unitary: a dense frame, with ``perm is None``."""
    h, frame = build_model(ModelSpec("2x2", (params,)))
    _, h, frame = unitary_basis_change(h, frame, rng)
    assert frame.perm is None
    return h, frame


def _assert_hermitian(h):
    assert hermiticity_residual(h) <= 1e-9 * np.linalg.norm(h)


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_tensor_composition_under_a_change_of_basis(seed):
    rng = np.random.default_rng(seed)
    (h1, f1), (h2, f2) = (_moved_cell(p, rng) for p in (PARAMS_A, PARAMS_B))
    product, composed = tensor_hamiltonians(h1, h2, build_c(h1, f1).cpt, build_c(h2, f2).cpt)
    assert composed.frame.validate().passed and composed.validate().passed
    expected = [x * y for x in eigendecompose(h1).values for y in eigendecompose(h2).values]
    assert multiset_gap(eigendecompose(product).values, expected) <= 1e-9
    assert classify_symmetry(product, composed.frame).classification == UNBROKEN
    _assert_hermitian(hermitize(product, composed))


@pytest.mark.parametrize("seed", [74, 75, 76])
def test_direct_sum_under_a_change_of_basis(seed):
    rng = np.random.default_rng(seed)
    cells = [_moved_cell(p, rng) for p in (PARAMS_A, PARAMS_B, (0.5, 1.5, 0.7))]
    h, summed = direct_sum(BlockSpec(tuple((m, build_c(m, f).cpt) for m, f in cells)))
    assert summed.frame.validate().passed and summed.validate().passed
    expected = [e for m, _ in cells for e in eigendecompose(m).values]
    report = classify_symmetry(h, summed.frame)
    assert report.classification == UNBROKEN
    assert multiset_gap(report.eigenvalues, expected) <= 1e-9
    _assert_hermitian(hermitize(h, summed))


def test_direct_sum_under_a_change_of_basis_is_unbroken_exactly_when_every_block_is():
    rng = np.random.default_rng(77)
    params = {UNBROKEN: (1.0, 2.0, np.pi / 6), BROKEN: (2.0, 1.0, np.pi / 2)}
    for kinds in ((UNBROKEN, UNBROKEN), (UNBROKEN, BROKEN), (BROKEN, BROKEN)):
        cells = [_moved_cell(params[kind], rng) for kind in kinds]
        h, summed = direct_sum(BlockSpec(tuple(cells)))
        assert summed.validate().passed
        expected = UNBROKEN if set(kinds) == {UNBROKEN} else BROKEN
        assert classify_symmetry(h, summed).classification == expected
