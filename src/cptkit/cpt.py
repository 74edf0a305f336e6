"""Indefinite PT inner product, C-operator synthesis, CPT inner product and
adjoint, and Hermitization by similarity.

The synthesis takes an unbroken eigensystem and turns each eigenspace of its
PT-fixed eigenstates into a basis that is orthonormal under the indefinite
form (u, v) = <P u, v>, with one symmetric eigendecomposition of the
eigenspace's Gram block.  C is the sum of the outer products phi_n (P phi_n)^+
of the normalized states, so that C phi_k = sign_k phi_k for any admissible
antilinear T.  The sign of each state is intrinsic, sign((phi, phi)); states
are never reordered to force an alternating pattern.  C depends only on each
eigenspace, not on the basis the eigensolver returned for it, so it moves
with the frame under a unitary change of basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CommutatorViolation,
    DimensionMismatch,
    FrameInvalid,
    GramDefect,
    KindMismatch,
    NotPTEigenstate,
    NotUnbroken,
    SelfOrthogonal,
)
from .frames import CPTFrame, PTFrame
from .linops import (
    DEFAULT_TOL,
    Operator,
    as_matrix,
    as_vector,
    commutator_check,
    frobenius,
    hermiticity_residual,
    spectral_powers,
)
from .symmetry import UNBROKEN, classify_symmetry

#: Self-orthogonality guard for C synthesis: a state whose normalized
#: indefinite self-product |(v, v)| / |v|^2 falls below this threshold is
#: treated as an exceptional point.  For the 2x2 model family that product is
#: 1/sqrt(K), K its Petermann factor, so the guard is the bound
#: K <= 1/EP_GUARD_TOL^2 = 5e7, in the unit of symmetry.EP_WARNING_K; it fails
#: exactly when the breaking parameter is within 1e-8 of 1.
EP_GUARD_TOL = float(np.sqrt(2e-8))


@dataclass(frozen=True)
class SignedState:
    """An aligned eigenstate scaled so that its indefinite self-product is
    exactly its sign, +1 or -1."""

    energy: float
    state: np.ndarray
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "energy", float(self.energy))
        self.state.setflags(write=False)


@dataclass(frozen=True)
class CPTResult:
    """Synthesized CPT-frame with its generating states.

    The states satisfy C phi_n = sign_n phi_n, and their Gram matrix under
    the CPT inner product deviates from the identity by ``gram_residual``.
    """

    cpt: CPTFrame
    aligned_states: tuple[SignedState, ...]
    gram_residual: float


def pt_inner(u, v, frame: PTFrame) -> complex:
    """Indefinite inner product (u, v) = <P u, v>, with <x, y> = sum conj(x) y.

    When T is entrywise conjugation and u is PT-aligned this equals the
    conjugation-free bilinear form sum_i u_i v_i.
    """
    uu = as_vector(u)
    vv = as_vector(v)
    if uu.shape[0] != frame.dim or vv.shape[0] != frame.dim:
        raise DimensionMismatch(
            f"vectors of lengths {uu.shape[0]}, {vv.shape[0]} do not match frame dimension {frame.dim}"
        )
    return complex(np.vdot(frame.p.matrix @ uu, vv))


def _pt_fixed_columns(v, frame: PTFrame, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``v`` (a vector is one column) and their squared norms,
    after checking that each is nonzero and PT-fixed."""
    vectors = as_vector(v).reshape(np.shape(v) if np.ndim(v) == 2 else (-1, 1))
    norm_sq = np.einsum("ij,ij->j", vectors.conj(), vectors).real
    if not norm_sq.all():
        raise SelfOrthogonal("cannot normalize the zero vector")
    residual = np.linalg.norm(frame.apply_pt(vectors) - vectors, axis=0)
    if (residual > tol * np.sqrt(norm_sq)).any():
        raise NotPTEigenstate(f"vector is not PT-fixed (residual {residual.max():.3e}); align it first")
    return vectors, norm_sq


def _normalize_columns(v, frame: PTFrame, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each PT-fixed column of ``v`` on its own, as the basis of a
    one-dimensional eigenspace: all columns in one vectorized pass."""
    vectors, norm_sq = _pt_fixed_columns(v, frame, tol)
    # (P v)^+ v is real for PT-fixed v; the real part drops rounding noise
    q = np.einsum("ij,ij->j", (frame.p.matrix @ vectors).conj(), vectors).real
    small = np.abs(q) <= tol * norm_sq
    if small.any():
        raise SelfOrthogonal(
            f"indefinite self-product {q[small][0]:.3e} vanishes at tolerance {tol:.1e} * |v|^2; "
            "the state is self-orthogonal (exceptional point)"
        )
    return vectors / np.sqrt(np.abs(q)), np.where(q > 0, 1, -1)


def _normalize_block(v, frame: PTFrame, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Indefinite-orthonormal basis of the span of the PT-fixed columns of
    ``v``, one eigenspace, from one ``eigh`` of its real Gram block."""
    vectors, norm_sq = _pt_fixed_columns(v, frame, tol)
    # (P u)^+ v is real for PT-fixed u, v; the real part drops rounding noise
    # so that real combinations stay PT-fixed exactly
    q, rotation = np.linalg.eigh(((frame.p.matrix @ vectors).conj().T @ vectors).real)
    if np.abs(q).min() <= tol * norm_sq.max():
        raise GramDefect("degenerate eigenspace contains a self-orthogonal direction")
    return vectors @ rotation / np.sqrt(np.abs(q)), np.where(q > 0, 1, -1)


def _require_hermitian_parity(frame: PTFrame, tol: float) -> None:
    """Raise FrameInvalid unless ``|P - P^+| <= tol * max(1, |P|)``: the
    indefinite form (u, v) = <P u, v> is Hermitian only for a Hermitian P,
    so only then do its signs and C mean anything."""
    # a bound that overflows admits no P: a Hermitian involution is unitary
    p_residual = hermiticity_residual(frame.p.matrix)
    if not p_residual <= tol * max(1.0, frobenius(frame.p.matrix)) < np.inf:
        raise FrameInvalid(
            f"the indefinite form <P u, v> needs a Hermitian parity P = P^+: |P - P^+| = {p_residual:.3e} "
            f"exceeds {tol:.1e} * max(1, |P|)"
        )


def normalize_indefinite(
    v, frame: PTFrame, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, int | np.ndarray]:
    """Scale a PT-fixed vector, or a PT-fixed basis of one eigenspace, to unit
    indefinite norm.

    For a vector, returns ``(v / sqrt(|(v, v)|), sign((v, v)))``: the output
    has indefinite self-product exactly +1 or -1.  For an ``(n, k)`` block V,
    returns ``(W, signs)`` with W = V Q |L|^(-1/2) and signs = sign(L), from
    one ``eigh`` of the real Gram block Re((P V)^+ V) = Q L Q^T: a basis of
    the span of V with (W, W) = diag(signs), whose columns stay PT-fixed.
    For orthonormal V, the sum of w_j (P w_j)^+ depends only on that span.

    Raises
    ------
    FrameInvalid
        If P is not Hermitian, ``|P - P^+| > tol * max(1, |P|)``.
    NotPTEigenstate
        If PT v deviates from v by more than ``tol |v|`` for a column v.
    SelfOrthogonal
        If a column is zero, or if an eigenvalue of the Gram block is at most
        ``tol`` times the largest squared column norm in modulus: the
        construction fails at an exceptional point.  For several columns
        this is GramDefect: the eigenspace has a self-orthogonal direction.
    """
    _require_hermitian_parity(frame, tol)
    if np.ndim(v) == 2 and np.shape(v)[1] != 1:
        return _normalize_block(v, frame, tol)
    units, signs = _normalize_columns(v, frame, tol)
    return (units, signs) if np.ndim(v) == 2 else (units[:, 0], int(signs[0]))


def build_c(h, frame: PTFrame, tol: float = DEFAULT_TOL) -> CPTResult:
    """Synthesize the C operator of an unbroken Hamiltonian.

    Pipeline: require a Hermitian P, ``|P - P^+| <= tol * max(1, |P|)``,
    since (u, v) = <P u, v> is a Hermitian form only then; classify the
    symmetry phase (must be unbroken); turn each eigenspace of the report
    into an indefinite-orthonormal basis with one :func:`normalize_indefinite`
    call; verify pairwise indefinite orthogonality across eigenspaces
    (automatic for distinct eigenvalues of a symmetric Hamiltonian); set C to
    the sum of phi_k (P phi_k)^+ over the normalized states, which satisfies
    C phi_k = sign_k phi_k; validate the resulting frame, whose one
    factorization of PC also gives the Gram tolerance, and the commutator
    [C, H].  C depends only on each eigenspace, not on the basis the
    eigensolver returned for it.

    The normalization step guards against self-orthogonal states at
    ``EP_GUARD_TOL``: it refuses states closer to an exceptional point than
    the 2x2 model family at breaking parameter 1 - 1e-8.

    Raises
    ------
    FrameInvalid
        For a non-Hermitian P (exit code 3), or a synthesized frame that
        fails validation.
    NotUnbroken, SelfOrthogonal, GramDefect, CommutatorViolation
    """
    _require_hermitian_parity(frame, tol)
    a = as_matrix(h)
    report = classify_symmetry(a, frame, tol)
    if report.classification != UNBROKEN:
        raise NotUnbroken(
            f"C synthesis requires unbroken symmetry, got {report.classification} "
            f"(PT residual {report.pt_residual:.3e})"
        )

    # the simple eigenspaces in one vectorized pass, one block call per
    # degenerate eigenspace
    sizes = np.array([len(members) for members in report.eigenspaces])
    phi = np.column_stack([state.state for state in report.aligned_states])
    signs = np.empty(len(report.aligned_states), dtype=int)
    simple = np.repeat(sizes == 1, sizes)
    phi[:, simple], signs[simple] = _normalize_columns(phi[:, simple], frame, EP_GUARD_TOL)
    for at, size in zip(np.cumsum(sizes) - sizes, sizes):
        if size > 1:
            phi[:, at:at + size], signs[at:at + size] = _normalize_block(phi[:, at:at + size], frame, EP_GUARD_TOL)
    normalized = [
        SignedState(state.energy, unit, int(sign)) for state, unit, sign in zip(report.aligned_states, phi.T, signs)
    ]
    p_phi_adj = (frame.p.matrix @ phi).conj().T
    gram = p_phi_adj @ phi
    gram_error = frobenius(gram - np.diag(signs))
    c_matrix = phi @ p_phi_adj
    cpt = CPTFrame(frame, Operator.linear(c_matrix))
    # rounding in the Gram entries is amplified by |phi|_2^2 = |P phi|_2^2, the
    # largest eigenvalue of PC = (P phi)(P phi)^+, which grows near an exceptional point
    gram_tol = tol * max(1.0, float(cpt.metric_spectrum[0][-1]))
    if gram_error > gram_tol:
        raise GramDefect(
            f"indefinite Gram matrix deviates from diag(signs) by {gram_error:.3e}; "
            "the orthonormality hypothesis cannot be met for this eigensystem"
        )

    # equation-residual tolerance scales with |C|^2 (the axiom residuals of
    # an exact frame grow with the squared magnitude of C near an exceptional
    # point); the positive-definiteness margin stays relative to |PC|
    structural_tol = tol * max(1.0, frobenius(c_matrix)) ** 2
    cpt.validate(structural_tol, pd_tol=tol).require("CPT-frame")

    commutator, commutes = commutator_check(c_matrix, a, tol)
    if not commutes:
        raise CommutatorViolation(
            f"[C, H] residual {commutator:.3e} exceeds tolerance; C is not a frame for H"
        )

    pc = cpt.pc_matrix
    gram_cpt = (pc @ phi).conj().T @ phi
    gram_residual = float(frobenius(gram_cpt - np.eye(len(signs))))
    return CPTResult(cpt, tuple(normalized), gram_residual)


def cpt_inner(u, v, cpt: CPTFrame) -> complex:
    """CPT inner product <u, v>_CPT = <PC u, v>: sesquilinear (conjugate
    linear in the first slot) and positive definite for a valid frame."""
    uu = as_vector(u)
    vv = as_vector(v)
    if uu.shape[0] != cpt.dim or vv.shape[0] != cpt.dim:
        raise DimensionMismatch(
            f"vectors of lengths {uu.shape[0]}, {vv.shape[0]} do not match frame dimension {cpt.dim}"
        )
    return complex(np.vdot(cpt.pc_matrix @ uu, vv))


def cpt_adjoint(a: Operator, cpt: CPTFrame, tol: float = DEFAULT_TOL) -> Operator:
    """Adjoint with respect to the CPT inner product: (PC)^-1 A+ (PC).

    The inverse metric comes from the frame's metric, so positive-definiteness
    failures surface early.  Satisfies <adj(A) u, v>_CPT = <u, A v>_CPT.
    """
    if not a.is_linear:
        raise KindMismatch("the CPT adjoint is defined for linear operators")
    if a.dim != cpt.dim:
        raise DimensionMismatch(f"operator dimension {a.dim} does not match frame dimension {cpt.dim}")
    pc = cpt.pc_matrix
    (pc_inv,) = spectral_powers(pc, cpt.metric_spectrum, (-1.0,), tol)
    return Operator.linear(pc_inv @ a.matrix.conj().T @ pc)


def hermitize(h, cpt: CPTFrame, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Similarity transform h = (PC)^(1/2) H (PC)^(-1/2).

    The output is genuinely Hermitian exactly when H is symmetric, and the
    similarity preserves the spectrum.  Requires [C, H] = 0 at tolerance (the
    frame must be a frame *for* H) and PC positive definite.

    Raises NotPositiveDefinite, NotHermitian or CommutatorViolation.
    """
    a = as_matrix(h)
    if a.shape[0] != cpt.dim:
        raise DimensionMismatch(f"matrix dimension {a.shape[0]} does not match frame dimension {cpt.dim}")
    commutator, commutes = commutator_check(cpt.c.matrix, a, tol)
    if not commutes:
        raise CommutatorViolation(
            f"[C, H] residual {commutator:.3e} exceeds tolerance; the frame is not a frame for H"
        )
    root, inv_root = spectral_powers(cpt.pc_matrix, cpt.metric_spectrum, (0.5, -0.5), tol)
    return root @ a @ inv_root
