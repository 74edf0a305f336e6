import numpy as np
import pytest

from cptkit import (
    BROKEN,
    NOT_APPLICABLE,
    UNBROKEN,
    classify_2x2,
    classify_symmetry,
    is_pt_symmetric,
    pair_swap_frame,
    phase_align,
    symmetry,
)
from cptkit.errors import DimensionMismatch, NotPTEigenstate
from helpers import H1, H2, H3, any_dim_frame, multiset_gap, random_pt_symmetric

E_PLUS = 2.8025170768881473
E_MINUS = -1.0704662693192697
SQRT3 = 1.7320508075688772


def model_2x2(r, s, theta):
    return np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])


def psi_minus(phi):
    return np.array([np.exp(-0.5j * phi), -np.exp(0.5j * phi)]) / np.sqrt(2.0)


# ---------------------------------------------------------------- is_pt_symmetric


def test_h2_is_pt_symmetric():
    check = is_pt_symmetric(H2, pair_swap_frame(2))
    assert check and check.residual < 1e-14


def test_h3_is_not_pt_symmetric():
    assert not is_pt_symmetric(H3, pair_swap_frame(2))


def test_h1_is_not_pt_symmetric():
    assert not is_pt_symmetric(H1, pair_swap_frame(2))


def test_is_pt_symmetric_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_pt_symmetric(H1, pair_swap_frame(4))


# ---------------------------------------------------------------- phase_align


def test_phase_align_fixed_vector_is_noop():
    frame = pair_swap_frame(2)
    v = np.array([1.0 + 2j, 1.0 - 2j])  # P conj(v) = v
    phi, theta = phase_align(v, frame)
    assert theta == 0.0
    np.testing.assert_allclose(phi, v)


def test_phase_align_odd_state_gets_quarter_turn():
    # PT psi = -psi, so theta = pi and the aligned state is i psi
    frame = pair_swap_frame(2)
    psi = psi_minus(np.arcsin(0.25))
    np.testing.assert_allclose(frame.apply_pt(psi), -psi, atol=1e-15)
    phi, theta = phase_align(psi, frame)
    assert abs(theta - np.pi) < 1e-12
    np.testing.assert_allclose(phi, 1j * psi, atol=1e-12)
    np.testing.assert_allclose(frame.apply_pt(phi), phi, atol=1e-12)
    assert abs(np.linalg.norm(phi) - np.linalg.norm(psi)) < 1e-14


def test_phase_align_basis_vector_fails():
    with pytest.raises(NotPTEigenstate):
        phase_align(np.array([1.0, 0.0]), pair_swap_frame(2))


def test_phase_align_idempotent():
    rng = np.random.default_rng(31)
    frame = any_dim_frame(4)
    for _ in range(20):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = z + frame.apply_pt(z)
        if np.linalg.norm(v) < 1e-6:
            continue
        phi, _ = phase_align(v, frame)
        phi2, theta2 = phase_align(phi, frame)
        assert theta2 == 0.0
        np.testing.assert_allclose(phi2, phi)


# ---------------------------------------------------------------- classify_symmetry


def test_classify_unbroken_model():
    report = classify_symmetry(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    assert report.pt_symmetric
    assert report.classification == UNBROKEN
    np.testing.assert_allclose(report.eigenvalues, [E_MINUS, E_PLUS], atol=1e-10)
    np.testing.assert_allclose(report.eigenvalues.real, [-1.070466, 2.802517], atol=5e-7)
    assert len(report.aligned_states) == 2
    frame = pair_swap_frame(2)
    for state in report.aligned_states:
        np.testing.assert_allclose(frame.apply_pt(state.state), state.state, atol=1e-10)


def test_classify_rebases_simple_eigenvector_that_fails_phase_alignment(monkeypatch):
    real_align = symmetry._align_columns

    def sour(vectors, frame, tol):
        phi, theta, aligned, c, residual = real_align(vectors, frame, tol)
        return phi, theta, np.zeros_like(aligned), c, residual

    monkeypatch.setattr(symmetry, "_align_columns", sour)
    frame = pair_swap_frame(2)
    report = classify_symmetry(model_2x2(1, 2, np.pi / 6), frame)
    assert report.classification == UNBROKEN
    assert [w.endswith("aligned via rebasing, not by phase") for w in report.warnings] == [True, True]
    for state in report.aligned_states:
        assert state.theta == 0.0
        np.testing.assert_allclose(frame.apply_pt(state.state), state.state, atol=1e-12)


def test_classify_broken_model():
    report = classify_symmetry(model_2x2(2, 1, np.pi / 2), pair_swap_frame(2))
    assert report.classification == BROKEN
    assert len(report.broken_pairs) == 1
    pair = report.broken_pairs[0]
    assert abs(pair.value - 1j * SQRT3) < 1e-10
    assert abs(pair.partner + 1j * SQRT3) < 1e-10


def test_classify_identity_is_unbroken_degenerate():
    frame = pair_swap_frame(4)
    report = classify_symmetry(np.eye(4), frame)
    assert report.classification == UNBROKEN
    assert len(report.aligned_states) == 4
    for state in report.aligned_states:
        assert state.energy == pytest.approx(1.0)
        np.testing.assert_allclose(frame.apply_pt(state.state), state.state, atol=1e-12)


def test_classify_not_applicable():
    report = classify_symmetry(H3, pair_swap_frame(2))
    assert not report.pt_symmetric
    assert report.classification == NOT_APPLICABLE
    assert report.aligned_states == ()


def test_classify_warns_near_exceptional_point():
    h = model_2x2(1.0, 1.0, np.arcsin(1.0 - 1e-7))
    report = classify_symmetry(h, pair_swap_frame(2))
    assert report.classification == UNBROKEN
    assert any("exceptional" in w for w in report.warnings)


def test_classify_no_warning_far_from_exceptional_point():
    report = classify_symmetry(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    assert report.warnings == ()


def test_conjugate_pair_spectrum_property():
    rng = np.random.default_rng(32)
    for _ in range(60):
        n = int(rng.integers(1, 5)) * 2
        frame = pair_swap_frame(n)
        h = random_pt_symmetric(rng, frame)
        report = classify_symmetry(h, frame)
        assert multiset_gap(report.eigenvalues, np.conj(report.eigenvalues)) <= 1e-8


def test_unbroken_implies_real_spectrum():
    rng = np.random.default_rng(33)
    seen = 0
    for _ in range(200):
        n = int(rng.integers(1, 4)) * 2
        frame = pair_swap_frame(n)
        h = random_pt_symmetric(rng, frame, imag_bias=0.1)
        report = classify_symmetry(h, frame)
        if report.classification == UNBROKEN:
            seen += 1
            assert np.abs(report.eigenvalues.imag).max() <= 1e-9 * max(
                1.0, np.linalg.norm(h)
            )
    assert seen > 10


def test_classification_scale_invariant():
    rng = np.random.default_rng(34)
    frame = pair_swap_frame(4)
    for _ in range(20):
        h = random_pt_symmetric(rng, frame)
        base = classify_symmetry(h, frame)
        for factor in (3.0, -2.0, 0.25):
            scaled = classify_symmetry(factor * h, frame)
            assert scaled.classification == base.classification
            assert multiset_gap(scaled.eigenvalues, factor * base.eigenvalues) <= 1e-8 * max(
                1.0, abs(factor) * np.linalg.norm(h)
            )


# ---------------------------------------------------------------- classify_2x2


def test_classify_2x2_h1():
    out = classify_2x2(H1)
    assert (out.hermitian, out.symmetric, out.pt_symmetric) == (True, True, False)
    assert out.cpt_candidate_forms == frozenset({3, 4})


def test_classify_2x2_h2():
    out = classify_2x2(H2)
    assert (out.hermitian, out.symmetric, out.pt_symmetric) == (False, False, True)
    assert out.cpt_candidate_forms == frozenset({5})


def test_classify_2x2_h3():
    out = classify_2x2(H3)
    assert (out.hermitian, out.symmetric, out.pt_symmetric) == (True, False, False)
    assert out.cpt_candidate_forms == frozenset({3})


def test_classify_2x2_real_circulant_satisfies_everything():
    out = classify_2x2(np.array([[2.0, 3.0], [3.0, 2.0]]))
    assert out.cpt_candidate_forms == frozenset({3, 4, 5, 6, 7})


def test_classify_2x2_pt_hermitian_not_symmetric():
    # [[a, b], [conj(b), a]] with real a: PT-symmetric and Hermitian
    out = classify_2x2(np.array([[2.0, 3j], [-3j, 2.0]]))
    assert out.cpt_candidate_forms == frozenset({3, 5, 6})


def test_classify_2x2_rejects_other_shapes():
    with pytest.raises(DimensionMismatch):
        classify_2x2(np.eye(3))
