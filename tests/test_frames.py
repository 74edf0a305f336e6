import numpy as np
import pytest

from cptkit import (
    Operator,
    apply,
    compose,
    frame_from_involution,
    pair_swap_frame,
    validate_cpt_frame,
    validate_pt_frame,
)
from cptkit.errors import (
    DimensionMismatch,
    IsIdentity,
    KindMismatch,
    NonRealEntries,
    NotInvolution,
)
from helpers import SWAP, any_dim_frame, random_complex

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


def test_pt_frame_apply_matches_operator_composition():
    rng = np.random.default_rng(21)
    frame = any_dim_frame(5)
    v = random_complex(rng, 5)
    np.testing.assert_allclose(frame.apply_pt(v), apply(frame.pt, v))
