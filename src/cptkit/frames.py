"""Construction and validation of PT-frames and CPT-frames.

A PT-frame is a pair {P, T} with P linear and not the identity, T antilinear,
P^2 = T^2 = I and PT = TP.  A CPT-frame adds a linear C with C^2 = I,
CPT = TPC and PC Hermitian positive definite.  The validators form each
residual from the matrix parts and report one that overflows as a violation
with residual inf.  A :class:`CPTFrame` factors its metric PC once, with one
``eigh`` of its Hermitian part; validation, C synthesis, Hermitization and
the CPT adjoint all read that one factorization.

Every built-in frame has a permutation P and T = entrywise conjugation: the
pair swap, the 3x3 family's and the tensor family's frames and doubling,
each built from its index array alone (:func:`_permutation_frame`), with P
and T formed on first read, and tensor products and direct sums of these,
also read back from a document, built from their matrices.
Such a frame stores P's index array: its PT-axiom check is O(n), and P and
PT act by index, so no step of classification, synthesis or Hermitization
reads the dense P or T.  Its PT-fixed basis Q is a permutation-sparse
unitary, so PT is plain complex conjugation in that basis and a
PT-symmetric H is the real matrix Q^+ H Q (Bender & Mannheim, Phys. Lett.
A 374, 1616 (2010)).
The frame's :class:`RealBasis` (``real_basis``) holds Q with its maps, a
stack into that basis and eigenvectors back, each in O(n^2); every consumer
works in the real basis exactly when the frame has one.  Any other
admissible P and antilinear T (a moved frame, a document frame) has none
and takes the dense matrix path.

In that basis P is the signature J = Q^+ P Q = diag(+-1), and a C
synthesized there is the real C_r = Q^+ C Q (the Krein-form algebra is in
:mod:`cptkit.cpt`).  A :class:`CPTFrame` given such a C_r factors its
metric M = J C_r with one real ``eigh``, validates in real products, where
CPT = TPC holds exactly, and forms the metric's powers, Hermitization and
the CPT adjoint in real products too.  Every other :class:`CPTFrame`, one
built from a C alone or synthesized over a frame with no real basis, is
one block of all n indices in the original basis, with metric PC: the
same block code, with the dense arithmetic.

A block of the real basis closed under P (a union of P's pairs and fixed
points) is left invariant by Q, so a matrix that vanishes off such blocks
is mapped into and out of the real basis block by block
(:meth:`RealBasis.form_blocks`, :meth:`RealBasis.from_blocks`).  The blocks
of a matrix are the components of its pattern with P's pairs joined
(:meth:`RealBasis.components`).  Every :class:`CPTFrame` keeps C and its
metric as stacks of their blocks, one per block size, with their indices,
and factors, validates, forms powers and Hermitizes block by block, with
every residual the root-sum-square of the blocks' and every threshold the
joined matrix's; one block of the whole basis is the unsplit case.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CommutatorViolation,
    DimensionMismatch,
    FrameInvalid,
    InvalidArgument,
    IsIdentity,
    KindMismatch,
    NonRealEntries,
    NotInvolution,
)
from .linops import (
    ANTILINEAR,
    DEFAULT_TOL,
    LINEAR,
    Operator,
    _block_join,
    _components,
    _entries,
    _one_block,
    _require_threshold,
    apply,
    commutator_check,
    compose,
    frobenius,
    hermitian_spectrum,
    hermiticity_residual,
    joined_spectrum,
    operand,
    positive_definiteness,
    root_sum_square,
    spectral_powers,
)

#: Floor of the tolerance at which :func:`frame_from_involution` validates
#: its frame.
CONSTRUCTION_TOL = 1e-12

#: The IsIdentity message of both frame constructors of a given permutation
_IDENTITY = "the identity matrix is not an admissible parity"


@dataclass(frozen=True)
class FrameReport:
    """Validation outcome: ``passed`` is true exactly when ``violations`` is
    empty.  Each violation is an ``(axiom name, measured residual)`` pair."""

    passed: bool
    violations: tuple[tuple[str, float], ...]

    def describe(self) -> str:
        if self.passed:
            return "all axioms satisfied"
        return "; ".join(f"{name} violated (residual {res:.3e})" for name, res in self.violations)

    def require(self, what: str) -> None:
        """Raise FrameInvalid, with this report attached, unless it passed."""
        if not self.passed:
            raise FrameInvalid(f"not a {what}: {self.describe()}", report=self)


class RealBasis(NamedTuple):
    """The PT-fixed orthonormal basis Q of an index frame with P's index
    array ``perm``, laid out in place: for each pair i < j = perm[i], column
    i is (e_i + e_j) / sqrt(2) and column j is i (e_i - e_j) / sqrt(2); a
    fixed point f keeps e_f.  Q has two entries per row and per column:
    ``rows`` holds Q[i, i] and Q[i, perm[i]] as ``(n, 1)`` columns, ``cols``
    holds Q[l, l] and Q[perm[l], l], and ``adjoint`` holds conj(cols) as
    ``(n, 1)`` columns.  ``signature`` is the real ``(n, 1)`` diagonal of
    J = Q^+ P Q: -1 on the second member of each pair, +1 elsewhere.  Each
    map below is one or two gathers, O(n^2) on a matrix, by :func:`_combine`."""

    perm: np.ndarray
    rows: tuple[np.ndarray, np.ndarray]
    cols: tuple[np.ndarray, np.ndarray]
    adjoint: tuple[np.ndarray, np.ndarray]
    signature: np.ndarray

    def form(self, a: np.ndarray) -> np.ndarray:
        """Q^+ A Q for a matrix A, or each matrix of an ``(N, n, n)`` stack.
        For a PT-symmetric A it is real; for any A its real part is Q^+ A_s
        Q, where A_s = (A + (PT) A (PT)) / 2 is the PT-symmetric part, and
        |A - A_s| is half the PT residual."""
        aq = _combine(a.astype(complex), *self.cols, self.perm, -1)
        return _combine(aq, *self.adjoint, self.perm, -2)

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        """Q^+ V for an ``(n, k)`` block or an ``(N, n, k)`` stack: columns
        mapped into the real basis.  A PT-fixed column has real coordinates."""
        return _combine(v.astype(complex), *self.adjoint, self.perm, -2)

    def from_basis(self, x: np.ndarray) -> np.ndarray:
        """Q X for an ``(n, k)`` block or an ``(N, n, k)`` stack: columns in
        the real basis mapped back."""
        return _combine(x.astype(complex), *self.rows, self.perm, -2)

    def from_form(self, m: np.ndarray) -> np.ndarray:
        """Q M Q^+ for an ``(n, n)`` matrix M: a matrix of the real basis mapped back."""
        r0, r1 = self.rows
        return _combine(self.from_basis(m), r0.conj().T, r1.conj().T, self.perm, -1)

    def form_blocks(self, a: np.ndarray, ats) -> tuple[np.ndarray, ...]:
        """The diagonal blocks of Q^+ A Q at the ``(g, m)`` indices of each
        of ``ats``, blocks closed under P, as ``(g, m, m)`` stacks: Q acts
        within each such block, so each is formed from the block of A alone,
        by the gathers of :meth:`form`, with no product of the whole matrix.
        One block of the whole basis is ``form(a)`` itself."""
        if _one_block(ats, (1, len(self.perm))):
            return (self.form(a)[None],)
        return tuple(self._block_form(a[at[:, :, None], at[:, None, :]], at) for at in ats)

    def components(self, a: np.ndarray):
        """:func:`~cptkit.linops._components` of an ``(N, n, n)`` stack with
        P's pairs joined, so that every block is closed under P and Q acts
        within it: the pair closure of the components of each Q^+ A Q."""
        return _components(a, self.perm)

    def pt_conjugate_blocks(self, a: np.ndarray, rows, at) -> np.ndarray:
        """(PT) A_b (PT) of the blocks A_b of the matrices ``a[rows]`` of a
        stack at the ``(g, m)`` indices ``at``, blocks closed under P: the
        entries conj(A[perm[i], perm[j]]) over each block's i, j, in one
        gather, as :meth:`PTFrame.pt_conjugate` gathers a whole matrix."""
        gathered = _entries(a, rows, self.perm[at])
        return np.conjugate(gathered, out=gathered)

    def real_form(self, a: np.ndarray, rows, at) -> np.ndarray:
        """Re(Q^+ A Q) of the matrices ``a[rows]`` of a stack, or its blocks
        at the ``(g, m)`` indices ``at``, blocks closed under P: what
        :func:`~cptkit.linops.split_eigensystem` solves over an index frame."""
        blocks = _entries(a, rows, at)
        return (self.form(blocks) if at is None else self._block_form(blocks, at)).real

    def from_blocks(self, ats, parts, cols=None) -> np.ndarray:
        """The ``(n, n)`` matrix Q M Q^+ of the real-basis matrix M whose
        blocks at ``ats`` (closed under P) are ``parts``, zero off them; with
        ``cols``, the ``(n, n)`` array Q X of the real-basis columns X whose
        blocks, supported on ``ats``, are ``parts`` at the columns ``cols``.
        Each block is mapped alone, by the gathers of :meth:`from_form` and
        :meth:`from_basis`, and the blocks are joined by
        :func:`~cptkit.linops._block_join`; one block of the whole basis is
        mapped by :meth:`from_form` or :meth:`from_basis` itself."""
        n = len(self.perm)
        if _one_block(ats, (1, n)):
            mapped = [(self.from_form if cols is None else self.from_basis)(parts[0][0])[None]]
        else:
            mapped, (r0, r1) = [], self.rows
            for at, part in zip(ats, parts):
                local = self._local(at)
                x = _combine(part.astype(complex), r0[at], r1[at], local[:, :, None], -2)
                if cols is None:
                    r0_adj, r1_adj = (r[at].conj().swapaxes(-1, -2) for r in (r0, r1))
                    x = _combine(x, r0_adj, r1_adj, local[:, None, :], -1)
                mapped.append(x)
        return _block_join(n, ats, mapped, cols)

    def _block_form(self, blocks: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Q_b^+ A_b Q_b for a ``(g, m, m)`` stack of blocks A_b of a matrix
        at the indices ``at``, blocks closed under P, by the gathers of :meth:`form`."""
        local = self._local(at)
        w0, w1 = (w[at][:, None, :] for w in self.cols)
        aq = _combine(blocks.astype(complex), w0, w1, local[:, None, :], -1)
        c0, c1 = (c[at] for c in self.adjoint)
        return _combine(aq, c0, c1, local[:, :, None], -2)

    def _local(self, at: np.ndarray) -> np.ndarray:
        """The position in its block of the partner under P of each index of
        the ``(g, m)`` blocks ``at``, closed under P."""
        position = np.empty(len(self.perm), dtype=np.intp)
        position[at] = np.arange(at.shape[1])
        return position[self.perm[at]]


def _combine(own: np.ndarray, w0: np.ndarray, w1: np.ndarray, perm: np.ndarray, axis: int) -> np.ndarray:
    """w0 X + w1 X', X' the gather ``X.take(perm, axis)``, for the weights
    ``w0``, ``w1`` of the real basis and a complex X, ``own``, that the caller
    gives up: formed in its place, so that the only new array is X' (the
    fresh arrays of a map, not its O(n^2) arithmetic, dominate its time).
    For a stack of blocks, ``perm`` holds each block's own positions, as an
    array that broadcasts along ``axis``, and X' is gathered block by block."""
    out = own.take(perm, axis=axis) if perm.ndim == 1 else np.take_along_axis(own, perm, axis)
    out *= w1
    own *= w0
    out += own
    return out


_R = np.sqrt(0.5)
#: The entries of RealBasis (rows, cols, adjoint, signature) at index i, by
#: its role: the first of a pair (i < perm[i]), the second of a pair, a fixed point
_REAL_BASIS_ENTRIES = np.array([
    [_R, 1j * _R, _R, _R, _R, _R, 1.0],
    [-1j * _R, _R, -1j * _R, 1j * _R, 1j * _R, -1j * _R, -1.0],
    [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
])


@dataclass(frozen=True)
class PTFrame:
    """A pair {P, T}, checked by :meth:`validate`.  ``perm`` is the read-only
    index array of P (``P x = x[perm]``) when P is an involutive permutation
    matrix and T's matrix part is exactly I, else None; ``pt``, the antilinear
    PT, ``real_basis``, the PT-fixed basis of an index frame with its maps
    (None on any other frame), and the residual and norm that decide whether
    P is Hermitian are formed once, on first use.  A frame built from its
    index array (:func:`_permutation_frame`) holds ``perm`` alone, and
    forms ``p`` and ``t`` on first read (:meth:`__getattr__`).  Every
    consumer applies P and PT through the methods below, a gather on an
    index frame and dense otherwise, and works in the real basis exactly
    when ``real_basis`` is set.
    """

    p: Operator
    t: Operator
    perm: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.p.is_linear:
            raise KindMismatch("P must be a linear operator")
        if self.t.is_linear:
            raise KindMismatch("T must be an antilinear operator")
        if self.p.dim != self.t.dim:
            raise DimensionMismatch(f"P has dimension {self.p.dim} but T has dimension {self.t.dim}")
        object.__setattr__(self, "perm", _involutive_permutation(self.p.matrix, self.t.matrix))

    def __getattr__(self, name: str) -> Operator:
        """P or T of a frame built from its index array, formed on first read
        and kept, read-only: the real permutation matrix I[perm] and the real
        identity, as :func:`frame_from_involution` makes them.  Any other
        missing attribute raises AttributeError."""
        perm = self.__dict__.get("perm")  # never recurses: __dict__ is the type's descriptor
        if perm is None or name not in ("p", "t"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        eye = np.eye(len(perm), dtype=complex)
        op = Operator._of(LINEAR, eye[perm]) if name == "p" else Operator._of(ANTILINEAR, eye)
        op.matrix.setflags(write=False)
        object.__setattr__(self, name, op)
        return op

    @cached_property
    def pt(self) -> Operator:
        return compose(self.p, self.t)

    @cached_property
    def _parity_hermiticity(self) -> tuple[float, float]:
        """|P - P^+| and |P|, for :meth:`require_hermitian_parity`."""
        if self.perm is None:
            return hermiticity_residual(self.p.matrix), frobenius(self.p.matrix)
        return 0.0, np.sqrt(self.dim)  # an involutive permutation is symmetric

    @cached_property
    def real_basis(self) -> RealBasis | None:
        """Q, the PT-fixed basis of an index frame (None on any other frame):
        PT q = q for every column q."""
        if self.perm is None:
            return None
        i = np.arange(self.dim)
        entries = np.ascontiguousarray(_REAL_BASIS_ENTRIES[(self.perm < i) + 2 * (self.perm == i)].T)
        signature = np.ascontiguousarray(entries[6, :, None].real)
        for part in (entries, signature):
            part.setflags(write=False)
        column = entries[:, :, None]
        return RealBasis(
            self.perm, (column[0], column[1]), (entries[2], entries[3]), (column[4], column[5]), signature
        )

    @property
    def dim(self) -> int:
        return self.p.dim if self.perm is None else len(self.perm)

    def validate(self, tol: float = DEFAULT_TOL) -> FrameReport:
        """Check the PT-frame axioms and report every violation with its
        residual.  On an index frame the residuals are exact from the
        indices: P^2 = I, T^2 = I and PT = TP hold exactly, and |P - I| is
        sqrt(2 * #moved), so the check is O(n).  ``tol`` 0 is the exact
        check; a nan, negative or infinite ``tol`` raises InvalidArgument."""
        _require_threshold(tol)
        if self.perm is None:
            mp, mt = self.p.matrix, self.t.matrix
            eye = np.eye(self.dim)
            with np.errstate(over="ignore", invalid="ignore"):
                residuals = (
                    ("P^2 = I", frobenius(mp @ mp - eye)),
                    ("T^2 = I", frobenius(mt @ mt.conj() - eye)),
                    ("PT = TP", frobenius(mp @ mt - mt @ mp.conj())),
                )
            identity_distance = float(frobenius(mp - eye))
        else:
            residuals = (("P^2 = I", 0.0), ("T^2 = I", 0.0), ("PT = TP", 0.0))
            identity_distance = float(np.sqrt(2.0 * np.count_nonzero(self.perm != np.arange(self.dim))))
        violations = [(name, float(residual)) for name, residual in residuals if not residual <= tol]
        if identity_distance <= tol:
            violations.append(("P != I", identity_distance))
        return FrameReport(not violations, tuple(violations))

    def apply_p(self, v) -> np.ndarray:
        """Apply P to a vector, to each column of an ``(n, k)`` block or to
        each block of an ``(N, n, k)`` stack."""
        if self.perm is None:
            return apply(self.p, v)
        x = operand(v, self.dim)
        return x.take(self.perm, axis=max(x.ndim - 2, 0))

    def apply_pt(self, v) -> np.ndarray:
        """Apply PT as :meth:`apply_p` applies P: a gather of ``conj(v)`` on an index frame."""
        if self.perm is None:
            return apply(self.pt, v)
        x = operand(v, self.dim).conj()
        return x.take(self.perm, axis=max(x.ndim - 2, 0))

    def pt_conjugate(self, a: np.ndarray) -> np.ndarray:
        """(PT) A (PT) = M conj(A) conj(M), M the matrix part of PT, for each
        matrix A of an ``(N, n, n)`` stack."""
        if self.perm is None:
            m = self.pt.matrix
            return m @ a.conj() @ m.conj()
        gathered = a[:, self.perm[:, None], self.perm]  # one gather: two chained takes cost three times as much
        return np.conjugate(gathered, out=gathered)

    def _cpt_residual(self, c: np.ndarray) -> float:
        """|C P T - T P C| over the matrix parts, for the matrix ``c`` of a linear C."""
        if self.perm is None:
            mp, mt = self.p.matrix, self.t.matrix
            return frobenius(c @ mp @ mt - mt @ mp.conj() @ c.conj())
        return frobenius(c[:, self.perm] - c.conj()[self.perm])

    def require_hermitian_parity(self, tol: float) -> None:
        """Raise FrameInvalid unless ``|P - P^+| <= tol * max(1, |P|)``: the
        indefinite form (u, v) = <P u, v> is Hermitian only for a Hermitian P,
        so only then do its signs and C mean anything."""
        p_residual, p_norm = self._parity_hermiticity
        # a bound that overflows admits no P: a Hermitian involution is unitary
        if not p_residual <= tol * max(1.0, p_norm) < np.inf:
            raise FrameInvalid(
                f"the indefinite form <P u, v> needs a Hermitian parity P = P^+: |P - P^+| = {p_residual:.3e} "
                f"exceeds {tol:.1e} * max(1, |P|)"
            )


def _involutive_permutation(p: np.ndarray, t: np.ndarray) -> np.ndarray | None:
    """The read-only index array ``perm`` with ``p = I[perm]`` when ``p`` is an
    involutive permutation matrix and ``t`` is exactly I, else None."""
    # n nonzero real and imaginary parts in all, n of them known to be 1;
    # perm o perm = id then also puts one 1 in each column
    n = len(p)
    if not n or np.count_nonzero(t.view(float)) != n or not (t.diagonal() == 1).all():
        return None
    indices, perm = np.arange(n), p.real.argmax(axis=1)
    if np.count_nonzero(p.view(float)) != n or not ((p[indices, perm] == 1).all() and (perm[perm] == indices).all()):
        return None
    perm.setflags(write=False)
    return perm


@dataclass(frozen=True)
class CPTFrame:
    """A triple {C, P, T} over a PT-frame, checked by :meth:`validate`.  The
    one eigendecomposition (w, U), w ascending, of the metric's Hermitian
    part is formed once here, read-only: no consumer of the metric factors
    it again, and its powers are formed from that spectrum, the roots once
    per tolerance.  The metric ``pc_matrix`` = P @ C is formed on first
    read, read-only: a frame synthesized in the real basis holds its metric
    as blocks, and none of its own steps reads the ``(n, n)`` PC.

    C is held block by block, in the frame's own basis: ``_blocks`` holds,
    for each block size m, the ``(g, m)`` indices of the g blocks that C
    leaves invariant, and ``_c_blocks`` their ``(g, m, m)`` stacks, ``_m``
    those of the metric, read-only.  A frame that
    :func:`~cptkit.cpt.build_c` synthesized over an index frame is given
    them, as the keywords ``_c_parts`` and ``_ats``, in the real basis Q
    (``_basis``): the blocks of the real C_r = Q^+ C Q, with
    C = Q C_r Q^+, and its metric is M = J C_r = Q^+ (PC) Q.  Any other
    frame, a C given alone (a composition, a document, a frame made by
    :func:`dataclasses.replace`, which passes no keyword on) or synthesized
    over a frame with no real basis, is one block of all n indices in the
    original basis, with metric PC.  The metric is
    factored with one ``eigh`` per block size into (w, U_b), and the frame
    validates, forms the metric's powers, Hermitizes and forms the CPT
    adjoint from those blocks, in real products in the real basis, with
    every residual the root-sum-square of its blocks' and every threshold
    the joined matrix's; ``metric_spectrum`` is then (w, U_b) joined, and
    mapped back, Q U_b, from the real basis.  The H and ``tol`` of the last
    passing [C, H] check are kept as ``_commuting``, with whether H in the
    frame's basis is known to vanish off the blocks."""

    frame: PTFrame
    c: Operator
    _spectrum: tuple = field(init=False, repr=False, compare=False)
    _roots: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _c_parts: InitVar[tuple[np.ndarray, ...] | None] = field(default=None, kw_only=True)
    _ats: InitVar[tuple[np.ndarray, ...]] = field(default=(), kw_only=True)
    _c_blocks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _blocks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _basis: RealBasis | None = field(init=False, repr=False, compare=False, default=None)
    _m: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _commuting: tuple[np.ndarray, float, bool] | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self, _c_parts, _ats):
        if not self.c.is_linear:
            raise KindMismatch("C must be a linear operator")
        if self.c.dim != self.frame.dim:
            raise DimensionMismatch(f"C has dimension {self.c.dim} but frame has dimension {self.frame.dim}")
        if _c_parts is None:  # a C given alone, or replaced: one block of the whole original basis
            _c_parts, _ats = (self.c.matrix[None],), (np.arange(self.dim)[None],)
        else:
            object.__setattr__(self, "_basis", self.frame.real_basis)
        object.__setattr__(self, "_c_blocks", _c_parts)
        object.__setattr__(self, "_blocks", _ats)
        if self._basis is None:
            m = (self.pc_matrix[None],)
        else:
            m = tuple(self._basis.signature[at] * c for at, c in zip(self._blocks, self._c_blocks))
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum = tuple(zip(*map(self._block_spectrum, m)))
        for part in (*self._c_blocks, *m, *spectrum[0], *spectrum[1]):
            part.setflags(write=False)
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "_spectrum", spectrum)

    @cached_property
    def pc_matrix(self) -> np.ndarray:
        """The metric P @ C, read-only, formed on first read."""
        with np.errstate(over="ignore", invalid="ignore"):
            pc = self.frame.apply_p(self.c.matrix)
        pc.setflags(write=False)
        return pc

    def _block_spectrum(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w, U_b) of each block of a stack of the metric's blocks, by one
        stacked ``eigh``; a block of the whole basis by
        :func:`~cptkit.linops.hermitian_spectrum`."""
        sym = (m + m.conj().swapaxes(-1, -2)) / 2.0
        if self._unsplit:
            return tuple(part[None] for part in hermitian_spectrum(sym[0]))
        return tuple(np.linalg.eigh(sym))

    @property
    def _unsplit(self) -> bool:
        """Whether C is one block of the whole basis."""
        return _one_block(self._blocks, (1, self.dim))

    @cached_property
    def _w(self) -> np.ndarray:
        """The metric's eigenvalues, of every block together."""
        return np.concatenate([w.reshape(-1) for w in self._spectrum[0]])

    def _joined(self, parts: tuple[np.ndarray, ...]) -> np.ndarray:
        """The ``(n, n)`` matrix of the frame's basis whose blocks are ``parts``, zero off them."""
        return _block_join(self.dim, self._blocks, parts)

    @cached_property
    def metric_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, U), w ascending, the eigendecomposition of PC's Hermitian
        part, read-only: (w, Q U_r) on a frame synthesized in the real basis."""
        w, u = joined_spectrum(self.dim, self._blocks, *self._spectrum)
        if self._basis is not None:
            u = self._basis.from_basis(u)
        for part in (w, u):
            part.setflags(write=False)
        return w, u

    def _metric_powers(self, powers, tol: float) -> tuple:
        """:func:`~cptkit.linops.spectral_powers` of the metric's blocks from
        their one spectrum, with its errors at ``tol``: the metric is checked
        against its joined spectrum and each power is a tuple of block stacks."""
        return spectral_powers(self._m, self._spectrum, powers, tol)

    def _similarity(self, left, a: np.ndarray, right) -> np.ndarray:
        """left A right, for ``left`` and ``right`` the block stacks of
        :meth:`_metric_powers`, joined: in the original basis a product of
        the matrices; in the real basis Q (left (Q^+ A Q) right) Q^+ in real
        products, with Q^+ A Q split into its real and imaginary parts.  The
        H that :func:`~cptkit.cpt.build_c` synthesized C for, whose Q^+ H Q
        vanishes off the blocks, is taken block by block; any other A is
        taken whole, with the blocks of ``left`` and ``right`` joined.  An
        exactly real Q^+ A Q, as of every built-in model, takes the real
        part's two products alone, and its imaginary part is written as the
        +0.0 that the products of zeros give."""
        basis = self._basis
        if basis is None:
            return self._joined(left) @ a @ self._joined(right)
        fits = self._fits(a)
        ats = self._blocks if fits else (np.arange(self.dim)[None],)
        forms = basis.form_blocks(a, ats)
        if not fits:
            left, right = (self._joined(left)[None],), (self._joined(right)[None],)
        nonreal = any(np.count_nonzero(form.imag) for form in forms)
        for form, lhs, rhs in zip(forms, left, right):
            if nonreal:
                form.real, form.imag = lhs @ np.stack([form.real, form.imag]) @ rhs
            else:
                form.real, form.imag = lhs @ np.ascontiguousarray(form.real) @ rhs, 0.0
        return basis.from_blocks(ats, forms)

    def _fits(self, h: np.ndarray) -> bool:
        """Whether H in the frame's basis is known to vanish off the blocks:
        for any H where C is one block of the whole basis, else for the H of
        the last [C, H] pass where its caller said so."""
        last = self._commuting
        return self._unsplit or (last is not None and h is last[0] and last[2])

    def _passed(self, h, tol: float) -> np.ndarray | None:
        """The read-only H of the last [C, H] pass where ``h`` equals it,
        entrywise, and ``tol`` is no tighter than that pass's, else None:
        ``h`` is compared as given, a numeric array before any copy of it,
        so an H that has passed is neither copied nor checked again."""
        last = self._commuting
        if last is None or tol < last[1]:
            return None
        if h is last[0] or (isinstance(h, np.ndarray) and h.dtype.kind in "biufc" and np.array_equal(h, last[0])):
            return last[0]
        return None

    def _require_commuting(self, h: np.ndarray, tol: float, fits: bool = False) -> np.ndarray:
        """Raise CommutatorViolation unless :func:`~cptkit.linops.commutator_check`
        of C and the read-only H passes at ``tol``; return the H that passed.
        In the real basis C is C_r and H is Q^+ H Q, block by block where
        ``fits`` says that Q^+ H Q vanishes off the blocks (the H that
        :func:`~cptkit.cpt.build_c` classified), and joined otherwise.  An H
        that :meth:`_passed` finds passes with no product."""
        passed = self._passed(h, tol)
        if passed is not None:
            return passed
        basis, fits = self._basis, fits or self._unsplit
        if basis is None:  # one block of the whole original basis
            residual, commutes = commutator_check(self._c_blocks, (h[None],), tol)
        elif fits:  # passed, not bound, so the complex blocks are freed once split into real parts
            residual, commutes = commutator_check(self._c_blocks, basis.form_blocks(h, self._blocks), tol)
        else:
            residual, commutes = commutator_check(self._joined(self._c_blocks), basis.form(h), tol)
        if not commutes:
            raise CommutatorViolation(f"[C, H] residual {residual:.3e} exceeds tolerance; "
                                      "the frame is not a frame for H")
        object.__setattr__(self, "_commuting", (h, tol, fits))
        return h

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def p(self) -> Operator:
        return self.frame.p

    @property
    def t(self) -> Operator:
        return self.frame.t

    def _basis_roots(self, tol: float) -> tuple:
        """The block stacks of the metric's roots, ``(0.5, -0.5)`` powers by
        :meth:`_metric_powers`, read-only: formed on first use at each
        tolerance and kept, so Hermitization and the emitted roots share one
        formation."""
        roots = self._roots.get(tol)
        if roots is None:
            roots = self._metric_powers((0.5, -0.5), tol)
            for part in sum(roots, ()):
                part.setflags(write=False)
            self._roots[tol] = roots
        return roots

    def metric_roots(self, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """(PC)^(1/2) and (PC)^(-1/2) from the metric spectrum, read-only, with
        the errors of :func:`~cptkit.linops.spectral_powers` at ``tol``.  The
        roots are formed once per tolerance as the blocks R of the metric's
        roots, which :func:`~cptkit.cpt.hermitize` reads; this joins them,
        and in the real basis maps them back, Q R Q^+, on each call."""
        roots = self._basis_roots(tol)
        if self._basis is None:
            return tuple(map(self._joined, roots))
        mapped = tuple(self._basis.from_blocks(self._blocks, root) for root in roots)
        for root in mapped:
            root.setflags(write=False)
        return mapped

    def validate(self, tol: float = DEFAULT_TOL) -> FrameReport:
        """Check the CPT-frame axioms and report every violation with its
        residual, with every threshold worked out from C and its metric.  The
        equation residuals, C^2 = I and CPT = TPC, are compared against
        ``tol * max(1, |C|)**2``: those of an exact frame grow with |C|^2
        near an exceptional point.  PC is Hermitian when |PC - PC^+| is at
        most, and positive definite when its smallest metric eigenvalue is
        above, the one threshold ``tol * max|w|`` of
        :func:`~cptkit.linops.positive_definiteness`, by which the spectral
        powers judge a metric too.  A bound that overflows admits nothing.
        The frame is checked on the blocks of C and of its metric, in real
        products in the real basis, each residual and norm the root-sum-square
        of its blocks'.  A nan, negative or infinite ``tol`` raises
        InvalidArgument."""
        _require_threshold(tol)
        cs = self._c_blocks
        min_eig, threshold = positive_definiteness(self._w, tol)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = tol * max(1.0, root_sum_square([frobenius(c.reshape(-1, c.shape[-1])) for c in cs])) ** 2
            squares = [frobenius((c @ c - np.eye(c.shape[-1])).reshape(-1, c.shape[-1])) for c in cs]
            residuals = (
                ("C^2 = I", root_sum_square(squares), bound),
                # in the real basis TP is conjugation, which fixes the real C_r exactly
                ("CPT = TPC", self.frame._cpt_residual(self.c.matrix) if self._basis is None else 0.0, bound),
                ("PC hermitian", root_sum_square([hermiticity_residual(m) for m in self._m]), threshold),
            )
        violations = [(name, float(residual)) for name, residual, limit in residuals if not residual <= limit < np.inf]
        if not min_eig > threshold:
            violations.append(("PC positive definite", threshold - min_eig))
        return FrameReport(not violations, tuple(violations))


def validate_pt_frame(p: Operator, t: Operator, tol: float = DEFAULT_TOL) -> FrameReport:
    """Check the PT-frame axioms and report every violation with its residual:
    :meth:`PTFrame.validate`.

    Raises KindMismatch when p is not linear or t is not antilinear, and
    DimensionMismatch when their dimensions differ; axiom failures are
    reported, not raised.
    """
    return PTFrame(p, t).validate(tol)


def validate_cpt_frame(c: Operator, frame: PTFrame, tol: float = DEFAULT_TOL) -> FrameReport:
    """Check the CPT-frame axioms for C over a PT-frame: :meth:`CPTFrame.validate`."""
    return CPTFrame(frame, c).validate(tol)


def checked_pt_frame(p: Operator, t: Operator, tol: float = DEFAULT_TOL) -> PTFrame:
    """Validate and assemble a PT-frame, raising FrameInvalid on failure."""
    frame = PTFrame(p, t)
    frame.validate(tol).require("PT-frame")
    return frame


def checked_cpt_frame(c: Operator, frame: PTFrame, tol: float = DEFAULT_TOL) -> CPTFrame:
    """Validate and assemble a CPT-frame, raising FrameInvalid on failure."""
    cpt = CPTFrame(frame, c)
    cpt.validate(tol).require("CPT-frame")
    return cpt


def pair_swap_frame(n: int) -> PTFrame:
    """The pair-permutation frame on an even-dimensional space.

    P swaps basis vectors pairwise (e1 <-> e2, e3 <-> e4, ...) and T is
    entrywise conjugation.  This construction exists on every
    even-dimensional space, so a PT-frame is always available.
    """
    if n <= 0 or n % 2 != 0:
        raise InvalidArgument(f"pair-swap parity needs an even positive dimension, got {n}")
    return _permutation_frame(np.arange(n) ^ 1)


def _permutation_frame(perm: np.ndarray) -> PTFrame:
    """The frame of :func:`frame_from_involution` for the permutation matrix
    of ``perm``, an involution, built from ``perm`` alone: the frame keeps
    ``perm``, read-only, and writes no P or T, which it forms on first read
    (:meth:`PTFrame.__getattr__`); no matrix is scanned.  The frame axioms
    hold exactly for an involution.  Raises IsIdentity, as
    :func:`frame_from_involution` does, for the identity, the empty
    permutation included: the one axiom the indices can still fail."""
    if not (perm != np.arange(len(perm))).any():
        raise IsIdentity(_IDENTITY)
    perm.setflags(write=False)
    frame = object.__new__(PTFrame)
    object.__setattr__(frame, "perm", perm)
    return frame


def frame_from_involution(p_matrix, tol: float = DEFAULT_TOL) -> PTFrame:
    """The one constructor of a frame with T = entrywise conjugation from a
    given real involution P, validated at ``max(tol, CONSTRUCTION_TOL)``;
    every built-in frame of a known permutation is built from its index
    array instead (:func:`_permutation_frame`), and equals this frame of its
    permutation matrix.

    Raises InvalidArgument for a ``tol`` that is nan, negative or infinite,
    then NonRealEntries for complex-entried P (it need not commute with
    conjugation-T), then NotInvolution or IsIdentity where the validator
    reports P^2 = I or P != I violated, and FrameInvalid for any other
    violation.
    """
    _require_threshold(tol)
    p = Operator.linear(p_matrix)
    if float(np.abs(p.matrix.imag).max(initial=0.0)) > tol:
        raise NonRealEntries("parity matrix must have real entries")
    frame = PTFrame(p, Operator.conjugation(p.dim))
    report = frame.validate(max(tol, CONSTRUCTION_TOL))
    violated = dict(report.violations)
    if "P^2 = I" in violated:
        raise NotInvolution(f"P^2 = I fails with residual {violated['P^2 = I']:.3e}")
    if "P != I" in violated:
        raise IsIdentity(_IDENTITY)
    report.require("PT-frame")
    return frame
