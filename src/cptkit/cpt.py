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
constructor, given the blocks of C_r as well, factors M into (w, U_r).

The synthesis is written once, over ``(g, m, m)`` stacks of blocks.  The
states of a matrix that :mod:`cptkit.symmetry` solved in the real basis come
in that basis as the block stacks its classification kernel ran on (the
components of its pattern with P's pairs joined, closed under P, or one
block of the whole basis where it is not split), taken as they are, with no
gather: each eigenspace, a run of equal energy within a block, is
normalized there, and X, the Gram matrix, C_r, M and its ``eigh``,
validation, [C_r, Q^+ H Q] and the CPT Gram are stacks of block size, with
every residual the root-sum-square of the blocks' Frobenius norms and every
threshold the joined matrix's.  An eigenspace across blocks, as of equal
cells, is normalized block by block: P's Gram matrix is block diagonal, so
the sum of phi_k (P phi_k)^+ over it is the same.  C, PC, the states and h
are joined once, block by block, where a public field needs them.  The
states of a matrix whose real solve fell back to the complex one are mapped
into the real basis once, as one block, by
:mod:`cptkit.symmetry`.  The metric's
powers stay real too: the roots R = M^(+-1/2) and M^-1 come from (w, U_r),
h = Q (R+ (Q^+ H Q) R-) Q^+ and the CPT adjoint are formed with Q^+ H Q
split into its real and imaginary parts, and only the emitted roots are
mapped back, Q R Q^+.  A frame without a real basis synthesizes in the
original basis, as one block of all n indices (the states are their own
coordinates and P acts as itself), and its CPT-frame holds C and its
metric PC as that one block, forming its roots and h there.

The synthesis takes the unbroken states from :mod:`cptkit.symmetry`, which
alone reads the record of its classification pipeline: ``build_c`` of a
matrix has it classified there with no report rendered, and ``build_c`` and
``aligned_signs`` pass a report through the one provenance check there, that
:func:`~cptkit.symmetry.classify_symmetry` made it over an equal frame (and,
for ``build_c``, at its ``tol``).  ``aligned_signs`` normalizes those states
in ``build_c``'s coordinates, so its signs are ``build_c``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameInvalid,
    GramDefect,
    KindMismatch,
    NotPTEigenstate,
    SelfOrthogonal,
)
from .frames import CPTFrame, PTFrame
from .linops import (
    DEFAULT_TOL,
    LINEAR,
    Operator,
    _fields_equal,
    _finite_square,
    as_vector,
    column_norms,
    frobenius,
    require_tolerance,
    root_sum_square,
)
from .symmetry import SymmetryReport, _checked, _runs, _unbroken

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
    eigenspaces V (runs of equal ``energy`` within a block) of the PT-fixed
    columns of each block of the ``(g, n, k)`` stack ``v``, from their real
    Gram blocks Re((P V)^+ V) = Q L Q^T, one stacked ``eigh`` per size above
    1, with P applied by ``apply_p(columns, b)`` to columns of the blocks b
    and each column's |PT v - v| given as ``residual``.  Sign 0, never an
    error, marks an eigenspace with a zero column, a column v with residual
    > tol |v| or a |q| <= tol * its largest |v|^2.  Also returns the
    per-column norm_sq and q."""
    g, n, k = v.shape
    columns = v.transpose(1, 0, 2).reshape(n, g * k)  # column b k + j is column j of block b: a view for one block
    norm_sq = np.einsum("ij,ij->j", columns.conj(), columns).real
    rejected = (residual.reshape(-1) > tol * np.sqrt(norm_sq)) | (norm_sq == 0)
    units, q = columns.copy(), np.empty(g * k)
    for m, at in _runs(energy).items():  # at (e, m): the columns of each eigenspace of size m
        block = columns[:, at].transpose(1, 0, 2)
        # (P u)^+ v is real for PT-fixed u, v; dropping its rounding noise keeps real combinations PT-fixed
        gram = (apply_p(block, at[:, 0] // k).conj().transpose(0, 2, 1) @ block).real
        if m == 1:  # a 1x1 Gram block is its own eigenvalue
            q[at] = gram[:, 0]
        else:  # rejected whole; if kept, its smallest |q| passes every column's bound below
            q[at], rotation = np.linalg.eigh(gram)
            units[:, at] = (block @ rotation).transpose(1, 0, 2)
            rejected[at] = (rejected[at].any(-1) | (np.abs(q[at]).min(-1) <= tol * norm_sq[at].max(-1)))[:, None]
    kept = ~rejected & (np.abs(q) > tol * norm_sq)
    np.divide(units, np.sqrt(np.abs(q)), out=units, where=kept)  # q may be 0 in a rejected eigenspace
    signs = np.where(q > 0, 1, -1) * kept
    return (units.reshape(n, g, k).transpose(1, 0, 2), signs.reshape(g, k), norm_sq.reshape(g, k), q.reshape(g, k))


def _normalized(parts, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The units and signs of :func:`_normalize` of each of ``parts``
    (``(v, energy, apply_p, residual)`` stacks of blocks), raising where it
    rejects an eigenspace of any: for a zero column, a column that is not
    PT-fixed, a simple self-orthogonal eigenspace or a degenerate one, in
    this order."""
    normalized = [_normalize(*part, tol) for part in parts]
    if all(signs.all() for _, signs, _, _ in normalized):
        return [(units, signs) for units, signs, _, _ in normalized]
    signs, norm_sq, q = (np.concatenate([part[i].reshape(-1) for part in normalized]) for i in (1, 2, 3))
    residual = np.concatenate([part[3].reshape(-1) for part in parts])
    if not norm_sq.all():
        raise SelfOrthogonal("cannot normalize the zero vector")
    if (residual > tol * np.sqrt(norm_sq)).any():
        raise NotPTEigenstate(f"vector is not PT-fixed (residual {residual.max():.3e}); align it first")
    # a simple eigenspace: an energy that no other column of its block shares
    simple = np.concatenate([((e[:, :, None] == e[:, None, :]).sum(-1) == 1).reshape(-1) for _, e, _, _ in parts])
    zero = np.flatnonzero((signs == 0) & simple)
    raise SelfOrthogonal(
        f"indefinite self-product {q[zero[0]]:.3e} vanishes at tolerance {tol:.1e} * |v|^2; "
        "the state is self-orthogonal (exceptional point)"
    ) if len(zero) else GramDefect("degenerate eigenspace contains a self-orthogonal direction")


def _coordinates(energy: np.ndarray, frame: PTFrame, blocks):
    """The states of each block size, ``blocks`` of ``(at, col, y)`` with the
    ``energy`` of each column, as :func:`_normalize` takes them: ``(at, col,
    x, energy, apply_p, residual)``, the ``(g, m)`` indices and sorted
    columns of its blocks, their coordinates, how P acts on those and each
    column's |PT phi - phi|.  Over a frame with a real basis Q the states
    are in that basis, block by block, and P is the signature J there: the
    coordinates are x = Re(y) for the states y of each block, with
    |PT phi - phi| = 2 |Im(y)|, since PT is conjugation in that basis.
    Over any other frame they are in the original basis, as one block:
    x = y, with P and |PT y - y|."""
    basis, parts = frame.real_basis, []
    for at, col, y in blocks:
        if basis is None:
            parts.append((at, col, y, energy[col], lambda v, b: frame.apply_p(v), column_norms(frame.apply_pt(y) - y)))
            continue
        signature = basis.signature[at]
        parts.append((at, col, y.real, energy[col], lambda v, b, signature=signature: signature[b] * v,
                      2.0 * column_norms(y.imag)))
    return parts


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
    the sum of w_j (P w_j)^+ depends only on that span.  An ``(n, 0)``
    block, the empty span, normalizes to an ``(n, 0)`` basis with no signs.

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
    residual = column_norms(frame.apply_pt(vectors) - vectors)
    ((units, signs),) = _normalized([(vectors[None], np.zeros((1, vectors.shape[1])),
                                      lambda x, b: frame.apply_p(x), residual[None])], tol)
    return (units[0], signs[0]) if np.ndim(v) == 2 else (units[0, :, 0], int(signs[0, 0]))


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
    _, energy, blocks = _unbroken(report, frame, None, "aligned_signs")
    signs = np.zeros(len(energy), dtype=int)
    try:
        frame.require_hermitian_parity(EP_GUARD_TOL)
    except FrameInvalid:
        return signs
    for _, col, *part in _coordinates(energy, frame, blocks):
        signs[col] = _normalize(*part, EP_GUARD_TOL)[1]
    return signs


def build_c(h, frame: PTFrame, tol: float = DEFAULT_TOL) -> CPTResult:
    """Synthesize the C operator of an unbroken Hamiltonian, given as a
    matrix or as its report from :func:`classify_symmetry` over ``frame`` at
    ``tol``, which is then not classified again.

    Pipeline: require a Hermitian P, ``|P - P^+| <= tol * max(1, |P|)``,
    since (u, v) = <P u, v> is a Hermitian form only then; classify the
    symmetry phase (must be unbroken), a matrix through the kernel alone,
    rendering no report, and take the aligned states, with their energies,
    as the block stacks the kernel ran on; normalize each eigenspace,
    a run of equal energy, as :func:`normalize_indefinite` does, in one
    ``eigh`` per degenerate size; verify pairwise indefinite orthogonality
    across eigenspaces (automatic for distinct eigenvalues of a symmetric
    Hamiltonian); set C to the sum of phi_k (P phi_k)^+ over the normalized
    states, which satisfies C phi_k = sign_k phi_k; validate the resulting
    frame at ``tol`` by :meth:`~cptkit.frames.CPTFrame.validate`, which
    works out its thresholds from C and its metric, and whose one
    factorization of PC also gives the Gram tolerance; then check [C, H],
    whose verdict the frame keeps for :func:`hermitize`.  C depends
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
    matrix, energy, blocks = _unbroken(h, frame, tol, "build_c")

    # unbroken: every column of the states is aligned; a run of equal energy in a block is one eigenspace
    basis, n = frame.real_basis, len(energy)
    parts = _coordinates(energy, frame, blocks)
    del h, blocks  # states classified here are freed once in the basis's coordinates
    ats, cols = [part[0] for part in parts], [part[1] for part in parts]
    xs, signs = zip(*_normalized([part[2:] for part in parts], EP_GUARD_TOL))
    p_xs = [part[4](x, slice(None)).conj().swapaxes(-1, -2) for part, x in zip(parts, xs)]
    gram_error = root_sum_square([_deviation(p_x @ x, sign) for p_x, x, sign in zip(p_xs, xs, signs)])
    c_parts = tuple(x @ p_x for x, p_x in zip(xs, p_xs))  # the blocks of C, or of C_r in the real basis
    c_matrix = c_parts[0][0] if basis is None else basis.from_blocks(ats, c_parts)  # fresh: taken with no copy
    cpt = CPTFrame(frame, Operator._of(LINEAR, _finite_square(c_matrix)), _c_parts=c_parts, _ats=tuple(ats))
    # rounding in the Gram entries is amplified by |phi|_2^2 = |P phi|_2^2, the
    # largest eigenvalue of PC = (P phi)(P phi)^+, which grows near an exceptional point
    gram_tol = tol * max(1.0, float(cpt._w.max()))
    if gram_error > gram_tol:
        raise GramDefect(
            f"indefinite Gram matrix deviates from diag(signs) by {gram_error:.3e}; "
            "the orthonormality hypothesis cannot be met for this eigensystem"
        )

    cpt.validate(tol).require("CPT-frame")
    cpt._require_commuting(matrix, tol, fits=True)  # its blocks are those of Q^+ H Q

    gram_residual = root_sum_square([_deviation((m @ x).conj().swapaxes(-1, -2) @ x, 1) for m, x in zip(cpt._m, xs)])
    sign = np.zeros(n, dtype=int)
    for col, part in zip(cols, signs):
        sign[col] = part
    # mapped back last, so not held through the checks
    phi = xs[0][0] if basis is None else basis.from_blocks(ats, xs, cols)
    normalized = [SignedState(*state) for state in zip(energy.tolist(), phi.T, sign.tolist())]
    return CPTResult(cpt, tuple(normalized), gram_residual)


def _deviation(gram: np.ndarray, signs) -> float:
    """|G - diag(signs)| over every block of a stack of Gram matrices G,
    formed in G's place."""
    g, m, _ = gram.shape
    gram.reshape(g, m * m)[:, :: m + 1] -= signs
    return frobenius(gram.reshape(-1, m))


def cpt_inner(u, v, cpt: CPTFrame) -> complex:
    """CPT inner product <u, v>_CPT = <PC u, v>: sesquilinear (conjugate
    linear in the first slot) and positive definite for a valid frame."""
    uu, vv = _vector_pair(u, v, cpt.dim)
    return complex(np.vdot(cpt.pc_matrix @ uu, vv))


def cpt_adjoint(a: Operator, cpt: CPTFrame, tol: float = DEFAULT_TOL) -> Operator:
    """Adjoint with respect to the CPT inner product: (PC)^-1 A+ (PC).

    The inverse metric comes from the frame's metric spectrum, so
    positive-definiteness failures surface early; on a frame synthesized in
    the real basis it is the real M^-1, and the product is formed there in
    real products (see the module docstring).  Satisfies
    <adj(A) u, v>_CPT = <u, A v>_CPT.
    Raises InvalidArgument for a ``tol`` that is not a positive, finite number.
    """
    require_tolerance(tol)
    if not a.is_linear:
        raise KindMismatch("the CPT adjoint is defined for linear operators")
    if a.dim != cpt.dim:
        raise DimensionMismatch(f"operator dimension {a.dim} does not match frame dimension {cpt.dim}")
    (pc_inv,) = cpt._metric_powers((-1.0,), tol)
    return Operator.linear(cpt._similarity(pc_inv, a.matrix.conj().T, cpt._m))


def hermitize(h, cpt: CPTFrame, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Similarity transform h = (PC)^(1/2) H (PC)^(-1/2).

    The output is genuinely Hermitian exactly when H is symmetric, and the
    similarity preserves the spectrum.  On a frame synthesized in the real
    basis Q it is Q (R+ (Q^+ H Q) R-) Q^+, with the real roots R+- of M, in
    real products.  Requires [C, H] = 0 at tolerance (the
    frame must be a frame *for* H) and PC positive definite.  ``h`` is first
    compared, as given and before it is copied, with the H that the frame
    last passed: an H equal to it entrywise, at a ``tol`` no tighter, such
    as the H that :func:`build_c` synthesized the frame for, is neither
    copied nor checked again, and the frame's own read-only copy is used.

    Raises NotPositiveDefinite, NotHermitian or CommutatorViolation, and
    InvalidArgument for a ``tol`` that is not a positive, finite number.
    """
    require_tolerance(tol)
    a = cpt._passed(h, tol)  # before any copy: the H that build_c classified is not copied again
    if a is None:
        a = cpt._require_commuting(_checked(h, cpt)[0], tol)
    root, inv_root = cpt._basis_roots(tol)
    return cpt._similarity(root, a, inv_root)
