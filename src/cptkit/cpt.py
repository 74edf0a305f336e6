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

Over a frame with a real basis (``frame.real_basis``, set on an index frame:
a permutation P, conjugation T) the synthesis runs in that PT-fixed basis Q,
where P is the signature J = diag(+-1).
A PT-fixed state phi = Q x has real coordinates x = Re(Q^+ phi), the form
(u, v) becomes the Krein form x^T J y (Azizov & Iokhvidov, *Linear Operators
in Spaces with an Indefinite Metric*, 1989), and with X the J-normalized columns:

- the Gram matrix is X^T J X = diag(signs);
- C = Q C_r Q^+ with C_r = X X^T J, and C^2 = I is C_r^2 = I;
- PC = Q M Q^+ with M = J X X^T J real symmetric, factored by one real
  ``eigh`` into the metric spectrum (w, Q U_r);
- [C, H] is measured as [C_r, Q^+ H Q], and the CPT Gram as X^T M X;
- CPT = TPC holds exactly, since TP acts as conjugation on the real C_r.

Every product of the synthesis is then real; C is mapped back by the real
basis's gathers in O(n^2), and the one :class:`~cptkit.frames.CPTFrame`
constructor, given C_r as well, factors M.  The roots (PC)^(+-1/2) and h
stay on the dense formula, from (w, Q U_r).  A frame without a real basis
synthesizes densely, in the original basis.

The synthesis reads the record of the classification pipeline
(:func:`~cptkit.symmetry._classify_rows`): ``build_c`` of a matrix takes it
straight from the pipeline and renders no report, and ``build_c`` and
``aligned_signs`` take a report only through one provenance check, that
:func:`~cptkit.symmetry.classify_symmetry` made it over an equal frame (and,
for ``build_c``, at its ``tol``).  ``aligned_signs`` normalizes the
record's states in ``build_c``'s coordinates, so its signs are
``build_c``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameInvalid,
    GramDefect,
    InvalidArgument,
    KindMismatch,
    NotPTEigenstate,
    NotUnbroken,
    SelfOrthogonal,
)
from .frames import CPTFrame, PTFrame, RealBasis
from .linops import (
    DEFAULT_TOL,
    Operator,
    _fields_equal,
    as_vector,
    column_norms,
    frobenius,
    require_tolerance,
    spectral_powers,
)
from .symmetry import UNBROKEN, SymmetryReport, _checked, _classify_one, _runs

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

    __eq__ = _fields_equal

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

    __eq__ = _fields_equal


def pt_inner(u, v, frame: PTFrame) -> complex:
    """Indefinite inner product (u, v) = <P u, v>, with <x, y> = sum conj(x) y.

    When T is entrywise conjugation and u is PT-aligned this equals the
    conjugation-free bilinear form sum_i u_i v_i.
    Like :func:`build_c`, raises FrameInvalid (exit code 3) for a P that is
    not Hermitian at ``DEFAULT_TOL``: the form is Hermitian only for such a P.
    """
    frame.require_hermitian_parity(DEFAULT_TOL)
    uu, vv = _vector_pair(u, v, frame.dim)
    return complex(np.vdot(frame.apply_p(uu), vv))


def _vector_pair(u, v, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``u`` and ``v`` as checked vectors, which must both have length ``dim``."""
    uu, vv = as_vector(u), as_vector(v)
    if uu.shape[0] != dim or vv.shape[0] != dim:
        raise DimensionMismatch(f"vectors of lengths {uu.shape[0]}, {vv.shape[0]} do not match frame dimension {dim}")
    return uu, vv


def _normalize(v: np.ndarray, energy: np.ndarray, apply_p, residual: np.ndarray, tol: float):
    """Indefinite-orthonormal bases W = V Q |L|^(-1/2), signs sign(L), of the
    eigenspaces V (runs of equal ``energy``) of the PT-fixed columns ``v``,
    from their real Gram blocks Re((P V)^+ V) = Q L Q^T, one stacked ``eigh``
    per size above 1, with P applied by ``apply_p`` and each column's
    |PT v - v| given as ``residual``.  Sign 0, never an error, marks an
    eigenspace with a zero column, a column v with residual > tol |v| or a
    |q| <= tol * its largest |v|^2.  Also returns the per-column norm_sq and q."""
    norm_sq = np.einsum("ij,ij->j", v.conj(), v).real
    rejected = (residual > tol * np.sqrt(norm_sq)) | (norm_sq == 0)
    units, q = v.copy(), np.empty(len(energy))
    for m, at in _runs(energy).items():  # at (g, m): the columns of each eigenspace of size m
        block = v[:, at].transpose(1, 0, 2)
        # (P u)^+ v is real for PT-fixed u, v; dropping its rounding noise keeps real combinations PT-fixed
        gram = (apply_p(block).conj().transpose(0, 2, 1) @ block).real
        if m == 1:  # a 1x1 Gram block is its own eigenvalue
            q[at] = gram[:, 0]
        else:  # rejected whole; if kept, its smallest |q| passes every column's bound below
            q[at], rotation = np.linalg.eigh(gram)
            units[:, at] = (block @ rotation).transpose(1, 0, 2)
            rejected[at] = (rejected[at].any(-1) | (np.abs(q[at]).min(-1) <= tol * norm_sq[at].max(-1)))[:, None]
    kept = ~rejected & (np.abs(q) > tol * norm_sq)
    np.divide(units, np.sqrt(np.abs(q)), out=units, where=kept)  # q may be 0 in a rejected eigenspace
    return units, np.where(q > 0, 1, -1) * kept, norm_sq, q


def _normalized(
    v: np.ndarray, energy: np.ndarray, apply_p, residual: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The units and signs of :func:`_normalize`, raising where it rejects an
    eigenspace: for a zero column, a column that is not PT-fixed, a simple
    self-orthogonal eigenspace or a degenerate one, in this order."""
    units, signs, norm_sq, q = _normalize(v, energy, apply_p, residual, tol)
    if not signs.all():
        if not norm_sq.all():
            raise SelfOrthogonal("cannot normalize the zero vector")
        if (residual > tol * np.sqrt(norm_sq)).any():
            raise NotPTEigenstate(f"vector is not PT-fixed (residual {residual.max():.3e}); align it first")
        simple = [j for j in np.flatnonzero(signs == 0).tolist() if np.count_nonzero(energy == energy[j]) == 1]
        raise SelfOrthogonal(
            f"indefinite self-product {q[simple[0]]:.3e} vanishes at tolerance {tol:.1e} * |v|^2; "
            "the state is self-orthogonal (exceptional point)"
        ) if simple else GramDefect("degenerate eigenspace contains a self-orthogonal direction")
    return units, signs


def _coordinates(phi: np.ndarray, frame: PTFrame, basis: RealBasis | None):
    """The columns ``phi`` as :func:`_normalize` takes them: their
    coordinates, how P acts on those and each column's |PT phi - phi|.  In
    the original basis (``basis`` None) that is phi and P; in the frame's
    real basis Q it is x = Re(Q^+ phi) and the signature J, with
    |PT phi - phi| = 2 |Im(Q^+ phi)|, since PT is conjugation there."""
    if basis is None:
        return phi, frame.apply_p, column_norms(frame.apply_pt(phi) - phi)
    y = basis.to_basis(phi)
    return y.real, partial(np.multiply, basis.signature), 2.0 * column_norms(y.imag)


def normalize_indefinite(
    v, frame: PTFrame, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, int | np.ndarray]:
    """Scale a PT-fixed vector, or a PT-fixed basis of one eigenspace, to unit
    indefinite norm.

    For a vector, returns ``(v / sqrt(|(v, v)|), sign((v, v)))``: the output
    has indefinite self-product exactly +1 or -1.  For an ``(n, k)`` block V,
    one eigenspace, returns ``(W, signs)`` with W = V Q |L|^(-1/2) and signs
    = sign(L), from the real Gram block Re((P V)^+ V) = Q L Q^T, as
    :func:`build_c` does for each eigenspace: a basis of the span of V with
    (W, W) = diag(signs), whose columns stay PT-fixed.  For orthonormal V,
    the sum of w_j (P w_j)^+ depends only on that span.

    Raises
    ------
    InvalidArgument
        For a ``tol`` that is not a positive, finite number.
    DimensionMismatch
        For an array of more than two dimensions, or columns whose length is
        not the frame's dimension.
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
    require_tolerance(tol)
    if np.ndim(v) > 2:
        raise DimensionMismatch(f"expected a vector or an (n, k) block, got an array of shape {np.shape(v)}")
    frame.require_hermitian_parity(tol)
    vectors = as_vector(v).reshape(np.shape(v) if np.ndim(v) == 2 else (-1, 1))
    x, apply_p, residual = _coordinates(vectors, frame, None)
    units, signs = _normalized(x, np.zeros(vectors.shape[1]), apply_p, residual, tol)
    return (units, signs) if np.ndim(v) == 2 else (units[:, 0], int(signs[0]))


def _record(report: SymmetryReport, frame: PTFrame, caller: str, tol: float | None = None):
    """The kernel record that ``report`` keeps, if :func:`classify_symmetry`
    made it over a frame equal to ``frame`` (and at ``tol``, unless None);
    else InvalidArgument."""
    rows = getattr(report, "_analysis", None)
    if rows is None or tol not in (None, rows.tol) or not (rows.frame is frame or rows.frame == frame):
        at = "" if tol is None else f" at tolerance {tol!r}"
        raise InvalidArgument(f"{caller} takes a report of classify_symmetry over this frame{at}")
    return rows


def aligned_signs(report: SymmetryReport, frame: PTFrame) -> np.ndarray:
    """The sign that :func:`build_c` gives each aligned state of an unbroken
    report of :func:`classify_symmetry` over ``frame``, as an integer array:
    each eigenspace normalized as by :func:`build_c`, at ``EP_GUARD_TOL``.
    Never raises for a state: sign 0 marks every state of an eigenspace that
    the guard rejects, and every state when P is not Hermitian, where no
    sign means anything.

    Raises InvalidArgument for a report that :func:`classify_symmetry` did
    not make over an equal frame, and NotUnbroken for one that is not unbroken.
    """
    rows = _record(report, frame, "aligned_signs")
    if rows.classification[0] != UNBROKEN:
        raise NotUnbroken(f"signs need unbroken symmetry, got {rows.classification[0]}")
    try:
        frame.require_hermitian_parity(EP_GUARD_TOL)
    except FrameInvalid:
        return np.zeros(len(report.aligned_states), dtype=int)
    x, apply_p, residual = _coordinates(rows.phi[0], frame, frame.real_basis)
    return _normalize(x, rows.energy[0], apply_p, residual, EP_GUARD_TOL)[1]


def build_c(h, frame: PTFrame, tol: float = DEFAULT_TOL) -> CPTResult:
    """Synthesize the C operator of an unbroken Hamiltonian, given as a
    matrix or as its report from :func:`classify_symmetry` over ``frame`` at
    ``tol``, which is then not classified again.

    Pipeline: require a Hermitian P, ``|P - P^+| <= tol * max(1, |P|)``,
    since (u, v) = <P u, v> is a Hermitian form only then; classify the
    symmetry phase (must be unbroken), a matrix through the kernel alone,
    rendering no report, and read the aligned states as one ``(n, n)``
    array, with their energies; normalize each eigenspace,
    a run of equal energy, as :func:`normalize_indefinite` does, in one
    ``eigh`` per degenerate size; verify pairwise indefinite orthogonality
    across eigenspaces (automatic for distinct eigenvalues of a symmetric
    Hamiltonian); set C to the sum of phi_k (P phi_k)^+ over the normalized
    states, which satisfies C phi_k = sign_k phi_k; validate the resulting
    frame, whose one factorization of PC also gives the Gram tolerance, and
    [C, H], whose verdict the frame keeps for :func:`hermitize`.  C depends
    only on each eigenspace, not on the basis the eigensolver returned for
    it.  Over an index frame every step after the classification runs in
    real arithmetic, in the frame's real basis (see the module docstring).

    The normalization step guards against self-orthogonal states at
    ``EP_GUARD_TOL``: it refuses states closer to an exceptional point than
    the 2x2 model family at breaking parameter 1 - 1e-8.

    Raises
    ------
    InvalidArgument
        For a ``tol`` that is not a positive, finite number, or a report not
        made by :func:`classify_symmetry` over an equal frame at this ``tol``.
    FrameInvalid
        For a non-Hermitian P (exit code 3), or a synthesized frame that
        fails validation.
    NotUnbroken, SelfOrthogonal, GramDefect, CommutatorViolation
    """
    require_tolerance(tol)
    frame.require_hermitian_parity(tol)
    rows = _record(h, frame, "build_c", tol) if isinstance(h, SymmetryReport) else _classify_one(h, frame, tol)
    if rows.classification[0] != UNBROKEN:
        raise NotUnbroken(f"C synthesis requires unbroken symmetry, got {rows.classification[0]} "
                          f"(PT residual {rows.pt_residual[0]:.3e})")

    # unbroken: every column of the states is aligned; a run of equal energy is one eigenspace
    basis = frame.real_basis
    x, apply_p, residual = _coordinates(rows.phi[0], frame, basis)
    matrix, energy = rows.stack[0], rows.energy[0]
    del h, rows  # a record made here frees its eigenvectors before the synthesis
    x, signs = _normalized(x, energy, apply_p, residual, EP_GUARD_TOL)
    p_x_adj = apply_p(x).conj().T
    gram_error = frobenius(p_x_adj @ x - np.diag(signs))
    c_matrix = x @ p_x_adj  # C itself, or C_r in the real basis
    if basis is None:
        cpt = CPTFrame(frame, Operator.linear(c_matrix))
    else:
        cpt = CPTFrame(frame, Operator.linear(basis.from_form(c_matrix)), _c_real=c_matrix)
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
    cpt._require_commuting(matrix, tol)

    pc = cpt.pc_matrix if basis is None else cpt._real_metric()
    gram_cpt = (pc @ x).conj().T @ x
    gram_residual = float(frobenius(gram_cpt - np.eye(len(signs))))
    phi = x if basis is None else basis.from_basis(x)  # mapped back last, so not held through the checks
    normalized = [SignedState(*state) for state in zip(energy.tolist(), phi.T, signs.tolist())]
    return CPTResult(cpt, tuple(normalized), gram_residual)


def cpt_inner(u, v, cpt: CPTFrame) -> complex:
    """CPT inner product <u, v>_CPT = <PC u, v>: sesquilinear (conjugate
    linear in the first slot) and positive definite for a valid frame."""
    uu, vv = _vector_pair(u, v, cpt.dim)
    return complex(np.vdot(cpt.pc_matrix @ uu, vv))


def cpt_adjoint(a: Operator, cpt: CPTFrame, tol: float = DEFAULT_TOL) -> Operator:
    """Adjoint with respect to the CPT inner product: (PC)^-1 A+ (PC).

    The inverse metric comes from the frame's metric, so positive-definiteness
    failures surface early.  Satisfies <adj(A) u, v>_CPT = <u, A v>_CPT.
    Raises InvalidArgument for a ``tol`` that is not a positive, finite number.
    """
    require_tolerance(tol)
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
    frame must be a frame *for* H) and PC positive definite.  The commutator
    is not formed again for the H, entrywise, that the frame last passed at a
    ``tol`` no tighter, such as the H that :func:`build_c` synthesized it for.

    Raises NotPositiveDefinite, NotHermitian or CommutatorViolation, and
    InvalidArgument for a ``tol`` that is not a positive, finite number.
    """
    require_tolerance(tol)
    a = cpt._require_commuting(_checked(h, cpt), tol)  # the copy it equals, if remembered, is dropped here
    root, inv_root = cpt.metric_roots(tol)
    return root @ a @ inv_root
