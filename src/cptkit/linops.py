"""Dense complex matrices and the algebra of linear and antilinear operators.

An antilinear operator is stored as a plain matrix ``M`` together with a kind
tag; its action is ``x -> M @ conj(x)``.  There is no "antilinear matrix"
arithmetic beyond the four composition rules in :func:`compose`, which keeps
the conjugation semantics explicit and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DefectiveSpectrum,
    DimensionMismatch,
    InvalidArgument,
    KindMismatch,
    NonFiniteEntries,
    NotHermitian,
    NotPositiveDefinite,
)

#: Default tolerance: relative to max(1, |C|)^2 for the CPT-frame equation
#: residuals, to max|w| for a metric's checks, to the matrix for spectral
#: residuals, and absolute for the PT-frame axioms.  Every public operation
#: accepts an override.
DEFAULT_TOL = 1e-10

#: Eigenvector-matrix condition number above which a matrix is rejected as
#: numerically defective instead of silently regularized.
COND_LIMIT = 1e8

#: The spacing of doubles at 1, the unit of the Gram certificate's margin.
_EPS = 2.0**-52

#: The least dimension at which an eigensolve is split by the connected
#: components of the matrix pattern.  The split costs a fixed 0.1-0.2 ms
#: (labeling, gathers, scatters), so below this a direct sum of 2x2 blocks
#: is solved faster whole; the measured crossover lies between 64 and 80.
_SPLIT_DIM = 80

LINEAR = "linear"
ANTILINEAR = "antilinear"


def as_matrix(m) -> np.ndarray:
    """Coerce input to a read-only square complex matrix with finite entries."""
    return _finite_square(np.array(m, dtype=complex))


def _same(a, b) -> bool:
    """``a == b`` as one bool: arrays by content, with ``np.array_equal``,
    and tuples element by element, so arrays nested in them too."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _fields_equal(self, other) -> bool:
    """``==`` for a dataclass with array fields: the same class, and each
    compared field equal by :func:`_same`, so no comparison raises.  Any
    other operand is unequal, not deferred to: an array would compare
    entrywise."""
    return other.__class__ is self.__class__ and all(
        _same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare
    )


def _finite_square(a: np.ndarray) -> np.ndarray:
    """``a`` itself, read-only, after checking that it is square with finite entries."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteEntries("matrix contains NaN or infinite entries")
    a.setflags(write=False)
    return a


def as_vector(v) -> np.ndarray:
    """Coerce input to a read-only complex vector with finite entries."""
    a = np.array(v, dtype=complex).reshape(-1)
    if not np.isfinite(a).all():
        raise NonFiniteEntries("vector contains NaN or infinite entries")
    a.setflags(write=False)
    return a


def frobenius(a) -> np.ndarray:
    """Frobenius norm of a matrix or of each matrix in a stack: the measure of
    every residual and the scale that relative tolerances are measured
    against; inf where it overflows or an entry is not finite (a nan entry of
    a residual formed from finite matrices is an overflow: inf - inf or
    inf * 0)."""
    with np.errstate(over="ignore", invalid="ignore"):
        # fmin ignores a nan operand: nan -> inf, anything else unchanged
        return np.fmin(np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1))), np.inf)


def column_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """The Euclidean norm of each column of an ``(n, k)`` block, or of each
    block of an ``(N, n, k)`` stack: ``np.linalg.norm(x, axis=-2)`` without
    its argument handling, which dominates on small blocks."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-2, keepdims=keepdims))


def hermiticity_residual(a: np.ndarray) -> float:
    """The Frobenius norm of ``a - a^+``: inf, never a warning, where forming
    it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return frobenius(a - a.conj().T)


def require_tolerance(tol) -> None:
    """Raise InvalidArgument (exit code 2) unless ``tol`` is a finite number
    above 0: against nan every comparison is false, and against 0, a negative
    or an infinite value every verdict is decided before any residual is
    measured."""
    if not 0.0 < tol < np.inf:
        raise InvalidArgument(f"tolerance must be a positive, finite number, got {tol!r}")


def _require_threshold(tol) -> None:
    """Raise InvalidArgument (exit code 2) unless ``tol``, a threshold that
    residuals are compared against, is a finite number at least 0, where 0
    is the exact check: against nan every comparison is false, and against
    a negative or an infinite value every verdict is decided before any
    residual is measured."""
    if not 0.0 <= tol < np.inf:
        raise InvalidArgument(f"tolerance must be a finite number at least 0, got {tol!r}")


def require_finite_scale(scale) -> None:
    """Raise NonFiniteEntries when the Frobenius norm ``scale`` of a matrix
    is not finite: no tolerance relative to it exists."""
    if not np.isfinite(scale):
        raise NonFiniteEntries("the Frobenius norm of the matrix overflows; no tolerance relative to its scale exists")


def _block_diag(*mats: np.ndarray) -> np.ndarray:
    """The complex block-diagonal join of square matrices, or of stacks of
    them, whose leading axes broadcast."""
    n = sum(m.shape[-1] for m in mats)
    out = np.zeros(np.broadcast_shapes(*{m.shape[:-2] for m in mats}) + (n, n), dtype=complex)
    at = 0
    for m in mats:
        k = m.shape[-1]
        out[..., at : at + k, at : at + k] = m
        at += k
    return out


def commutator_check(c: np.ndarray, h: np.ndarray, tol: float) -> tuple[float, bool]:
    """The residual |[C, H]| and whether it is within
    ``tol * max(1, |H|) * max(1, |C|)``; an overflowed residual fails.  A real
    C and a complex H = A + iB are checked in real products, from the stack
    of [C, A] and [C, B], whose Frobenius norm is |[C, H]|.  Where B is
    exactly zero, as for every built-in model in a frame's real basis, only
    [C, A] is formed, in two products, and [C, B] is left as the zeros it
    would be, so the residual sums the same entries in the same order."""
    n = len(c)
    if np.iscomplexobj(h) and not np.iscomplexobj(c):
        h = np.stack([h.real, h.imag])
    with np.errstate(over="ignore", invalid="ignore"):
        if h.ndim == 3 and not np.count_nonzero(h[1]):
            commutator = np.zeros_like(h)
            np.matmul(c, h[0], out=commutator[0])
            commutator[0] -= h[0] @ c
        else:
            commutator = c @ h
            commutator -= h @ c
        residual = frobenius(commutator.reshape(-1, n))
    return residual, bool(residual <= tol * max(1.0, frobenius(h.reshape(-1, n))) * max(1.0, frobenius(c)))


@dataclass(frozen=True)
class Operator:
    """A linear (``x -> M x``) or antilinear (``x -> M conj(x)``) operator.

    Both behaviours are fixed by the matrix part plus the kind tag, and are
    distinguishable by applying the operator to basis vectors and to ``i``
    times basis vectors.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in (LINEAR, ANTILINEAR):
            raise KindMismatch(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "matrix", as_matrix(self.matrix))

    __eq__ = _fields_equal  # same kind and entrywise-equal matrix parts; frames compare by these

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_linear(self) -> bool:
        return self.kind == LINEAR

    @staticmethod
    def linear(matrix) -> "Operator":
        return Operator(LINEAR, matrix)

    @staticmethod
    def antilinear(matrix) -> "Operator":
        return Operator(ANTILINEAR, matrix)

    @staticmethod
    def identity(n: int) -> "Operator":
        return Operator(LINEAR, np.eye(n))

    @staticmethod
    def conjugation(n: int) -> "Operator":
        """Entrywise complex conjugation as an antilinear operator."""
        return Operator(ANTILINEAR, np.eye(n))


def apply(op: Operator, v) -> np.ndarray:
    """Apply an operator to a vector, column by column to an ``(n, k)``
    block of vectors, or to each block of an ``(N, n, k)`` stack."""
    x = operand(v, op.dim)
    return op.matrix @ (x if op.is_linear else np.conj(x))


def operand(v, dim: int) -> np.ndarray:
    """``v`` as a checked complex vector, ``(n, k)`` block or ``(N, n, k)`` stack of length ``dim``."""
    x = np.asarray(v, dtype=complex)
    x = x if x.ndim >= 2 else x.reshape(-1)
    if not np.isfinite(x).all():
        raise NonFiniteEntries("input contains NaN or infinite entries")
    length = x.shape[0] if x.ndim == 1 else x.shape[-2]
    if length != dim:
        raise DimensionMismatch(f"operator of dimension {dim} applied to vectors of length {length}")
    return x


def compose(a: Operator, b: Operator) -> Operator:
    """Compose two operators, ``(a o b)(x) = a(b(x))``.

    The kind follows the parity rule: two operators of equal kind compose to
    a linear operator when both are antilinear, and mixed compositions are
    antilinear.  Matrix parts:

    ========  =================
    a o b     matrix
    ========  =================
    L o L'    ``Ma @ Mb``
    L o A     ``Ma @ Mb``
    A o L     ``Ma @ conj(Mb)``
    A o A'    ``Ma @ conj(Mb)``
    ========  =================
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"cannot compose dimensions {a.dim} and {b.dim}")
    if a.is_linear:
        return Operator(b.kind, a.matrix @ b.matrix)
    mat = a.matrix @ np.conj(b.matrix)
    return Operator(ANTILINEAR if b.is_linear else LINEAR, mat)


def dirac_adjoint(a: Operator) -> Operator:
    """Conjugate transpose of a linear operator."""
    if not a.is_linear:
        raise KindMismatch("the Dirac adjoint is defined here for linear operators")
    return Operator(LINEAR, a.matrix.conj().T)


def t_transpose(a: Operator, frame) -> Operator:
    """Transpose of a linear operator relative to a frame's antilinear T,
    computed as ``T o adjoint(a) o T``.

    When T is entrywise conjugation this equals the plain matrix transpose.
    Accepts either a frame object (anything with a ``.t`` operator) or the
    antilinear T operator itself.
    """
    t = getattr(frame, "t", frame)
    if not isinstance(t, Operator) or t.is_linear:
        raise KindMismatch("frame must provide an antilinear T operator")
    if a.dim != t.dim:
        raise DimensionMismatch(f"operator dimension {a.dim} does not match T dimension {t.dim}")
    return compose(compose(t, dirac_adjoint(a)), t)


@dataclass(frozen=True)
class EigenSystem:
    """Full eigensystem, sorted ascending by (real part, imaginary part).

    ``vectors[:, i]`` is the unit Euclidean-norm eigenvector for
    ``values[i]``.  ``condition`` is the condition number of the eigenvector
    matrix.  With unit columns it bounds every Petermann factor, the squared
    eigenvalue condition number K_k = |x_k|^2 |y_k|^2 / |y_k^+ x_k|^2:
    K_k <= |V^-1|^2 <= condition^2.  So it also bounds the proximity to an
    exceptional point, where K diverges.

    For an ``(N, n, n)`` stack every field gains a leading row axis, and
    ``defective`` marks the rows that failed a check; a single matrix raises
    instead, and its ``defective`` is False.

    A matrix solved by the connected components of its pattern (see
    :func:`stacked_eigensystem`), such as a direct sum, has each eigenvector
    zero off its own component, and its ``condition`` is that of the joined
    V; a dense or irreducible one is solved whole.
    """

    values: np.ndarray
    vectors: np.ndarray
    condition: float | np.ndarray
    defective: bool | np.ndarray = False

    __eq__ = _fields_equal

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)


def eigendecompose(m, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigendecompose a square matrix, or each matrix of an ``(N, n, n)``
    stack with one stacked ``np.linalg.eig`` call, or one per component size
    for the matrices that split into blocks.

    Parameters
    ----------
    m : array_like
        Square matrix, or a stack of them.  Real input stays real: the
        eigensolve, the condition number and the residual check then run in
        real arithmetic, and ``values`` and ``vectors`` are real where the
        spectrum of the whole input is.  Complex input is solved as complex.
    tol : float
        Relative residual tolerance: every pair must satisfy
        ``|m v - lam v| <= tol |m|``.  A positive, finite number, else
        InvalidArgument.

    A stack never raises for a single row: a row with non-finite entries, a
    Frobenius norm that overflows, an eigenvector condition above
    ``COND_LIMIT`` or a failed residual check is marked in the returned
    ``defective`` mask, and the other rows are unaffected.

    A matrix of dimension ``_SPLIT_DIM`` (80) or more whose symmetrized
    nonzero pattern falls into several connected components, a direct sum
    in any order of its indices, is solved by its blocks: one stacked
    ``eig`` per component size, each block's eigenpairs normalized and
    checked alone, then joined and sorted (see :func:`stacked_eigensystem`).
    Its residual check and ``condition`` are the joined matrix's, against
    the tolerance of the whole ``|m|``.  A matrix whose first row and column
    have no zero entry, as every dense one, skips the search for
    components; it, an irreducible one and a smaller one are solved whole,
    by one ``eig`` of the whole matrix.

    Raises
    ------
    DimensionMismatch
        For a matrix that is not square, or is empty: an empty matrix has no
        eigensystem to report.
    NonFiniteEntries
        For a single matrix whose Frobenius norm, the scale of the residual
        check, overflows.
    DefectiveSpectrum
        For a single matrix whose eigenvector matrix condition number exceeds
        ``COND_LIMIT`` or whose residual check fails.  Exceptional points are
        physically meaningful here and must surface as errors, not as
        regularized output.
    """
    require_tolerance(tol)
    stacked = np.ndim(m) == 3
    a = np.asarray(m)
    a = a.astype(float if a.dtype.kind in "biuf" else complex, copy=not stacked)
    a = a if stacked else _finite_square(a)[None]
    if a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    if not a.shape[1]:
        raise DimensionMismatch("an empty matrix has no eigensystem")
    scale = frobenius(a)
    if not stacked:
        require_finite_scale(scale[0])
    eigen, residual = stacked_eigensystem(a, scale, tol)
    if stacked:
        return eigen
    require_regular(eigen, residual, scale, tol)
    return EigenSystem(eigen.values[0], eigen.vectors[0], float(eigen.condition[0]))


def stacked_eigensystem(
    a: np.ndarray, scale: np.ndarray, tol: float, gate: float | None = None
) -> tuple[EigenSystem, np.ndarray]:
    """The stacked :class:`EigenSystem` of a real or complex ``(N, n, n)``
    stack whose Frobenius norms are ``scale``, and each row's largest
    eigenpair residual: the body of :func:`eigendecompose`.

    A row whose nonzero pattern splits into several connected components
    (see :func:`_components`), such as a direct sum, is solved by its
    blocks: one stacked ``eig`` per component size, across the rows, and
    the blocks' eigenpairs joined into the row's ``(n, n)`` arrays before
    the sort.  Its residual is the largest of its components', and its Gram
    certificate's row sum s too, which is the joined V's, since V^+ V is
    block diagonal.  Every other row, a dense one always, is solved whole,
    in one stacked ``eig``.  A row's solve depends on the row alone, so a
    row of a stack is solved bit for bit as the row alone.

    Without ``gate`` every row's ``condition`` is cond(V) from the SVD of
    its joined V, as :func:`eigendecompose` and DefectiveSpectrum report
    it.  With it, for a caller that asks of cond(V) only whether its square
    lies below ``gate`` (at most ``COND_LIMIT``^2), a row whose residual
    check passes and whose Gram certificate puts cond(V)^2 below ``gate``,
    with the margin 2 (n + 2) (n + 4) eps in the Gram row sum at the
    joined n (see :func:`_unit_eigenvectors`), keeps the certificate's bound
    as its condition and takes no SVD: the bound lies on the same side of
    the gate, and of ``COND_LIMIT``, as the SVD's value."""
    unscaled = ~np.isfinite(scale)  # non-finite entries, or a norm that overflows
    if unscaled.any():
        # a placeholder keeps the stacked LAPACK calls valid for the other rows
        a = np.where(unscaled[:, None, None], 0.0, a)
    limit = tol * scale
    parts = _components(a)
    if parts is None:
        values, vectors, condition, residual = _whole(a, limit, gate)
    else:
        split, groups = parts
        whole = np.ones(len(a), dtype=bool)
        whole[split] = False
        solved = [(split, _by_components(a[split], groups, limit[split], gate))]
        if whole.any():
            solved.append((whole, _whole(a[whole], limit[whole], gate)))
        values = np.empty(a.shape[:2], dtype=np.result_type(*(part[0] for _, part in solved)))
        vectors = np.empty(a.shape, dtype=values.dtype)
        condition, residual = np.empty(len(a)), np.empty(len(a))
        for rows, part in solved:
            values[rows], vectors[rows], condition[rows], residual[rows] = part
    defective = unscaled | ~(condition <= COND_LIMIT) | (residual > limit)
    return EigenSystem(values, vectors, condition, defective), residual


def _whole(a: np.ndarray, limit: np.ndarray, gate: float | None):
    """The sorted eigenvalues, unit eigenvectors, cond(V) and largest
    eigenpair residual of each matrix of an ``(N, n, n)`` stack, each solved
    whole, in one stacked ``eig``."""
    values, vectors = np.linalg.eig(a)
    rows = np.arange(len(a))[:, None]
    order = np.lexsort((values.imag, values.real), axis=-1)
    values = values[rows, order]
    vectors = vectors[rows[:, :, None], np.arange(a.shape[1])[:, None], order[:, None, :]]
    # eig returns every row of a real stack as complex once one row has a
    # non-real eigenvalue: the rows with a real spectrum are finished in real
    # arithmetic, bit for bit as each would be alone
    plain = (values.imag == 0).all(-1) & (a.dtype.kind == "f")
    condition, residual = np.empty(len(a)), np.empty(len(a))
    for group, part in _arithmetic(plain):
        vectors[group], condition[group], residual[group] = _unit_eigenvectors(
            a[group], part(values[group]), part(vectors[group]), limit[group], gate
        )
    return values, vectors, condition, residual


def _by_components(a: np.ndarray, groups, limit: np.ndarray, gate: float | None):
    """:func:`_whole` for an ``(N, n, n)`` stack solved by its components:
    ``groups`` holds, for each size m, the ``(g,)`` rows and ``(g, m)``
    indices of the g components of that size.  Each component is solved,
    normalized and checked alone, in real arithmetic where its matrix and
    spectrum are real, and its unit eigenvectors are written straight into
    their sorted columns of its row's V, zero elsewhere; cond(V) is decided
    on the joined V, with the largest Gram row sum of its components.  The
    arrays are real where every eigenvalue is."""
    values, solved = np.zeros(a.shape[:2], dtype=complex), []
    residual, s = np.zeros(len(a)), np.zeros(len(a))
    for rows, at in groups:
        block = a[rows[:, None, None], at[:, :, None], at[:, None, :]]
        w, v = np.linalg.eig(block)
        values[rows[:, None], at] = w
        for group, part in _arithmetic((w.imag == 0).all(-1) & (a.dtype.kind == "f")):
            unit, res, gram = _unit_columns(block[group], part(w[group]), part(v[group]), gate is not None)
            solved.append((rows[group], at[group], unit))
            np.maximum.at(residual, rows[group], res)
            if gram is not None:
                np.maximum.at(s, rows[group], gram)
    order = np.lexsort((values.imag, values.real), axis=-1)
    column = np.argsort(order, axis=-1)  # the sorted position of each eigenvalue
    values = np.take_along_axis(values, order, -1)
    plain = (values.imag == 0).all(-1) & (a.dtype.kind == "f")
    if plain.all():
        values = values.real
    vectors = np.zeros(a.shape, dtype=values.dtype)
    for rows, at, unit in solved:
        vectors[rows[:, None, None], at[:, :, None], column[rows[:, None], at][:, None, :]] = unit
    condition = np.empty(len(a))
    for group, part in _arithmetic(plain):
        condition[group] = _condition(part(vectors[group]), s[group], residual[group], limit[group], gate)
    return values, vectors, condition, residual


def _arithmetic(plain: np.ndarray):
    """The rows of a stack to finish in real arithmetic, ``plain``, and the
    others, each with the map to its arithmetic; a group that holds the
    whole stack, as always for one matrix, is a slice, not a copy, and an
    empty one is left out."""
    for group, part in ((plain, np.real), (~plain, np.asarray)):
        if group.all():
            yield slice(None), part
        elif group.any():
            yield group, part


def _unit_eigenvectors(
    a: np.ndarray, values: np.ndarray, vectors: np.ndarray, limit: np.ndarray, gate: float | None
):
    """Unit-column eigenvectors, cond(V) and the largest eigenpair residual
    of each row, for the residual ``limit`` and the ``gate`` of
    :func:`stacked_eigensystem`: :func:`_unit_columns`, then
    :func:`_condition`."""
    vectors, residual, s = _unit_columns(a, values, vectors, gate is not None)
    return vectors, _condition(vectors, s, residual, limit, gate), residual


def _unit_columns(a: np.ndarray, values: np.ndarray, vectors: np.ndarray, gram: bool):
    """The eigenvectors scaled to unit columns, each row's largest eigenpair
    residual and, where ``gram`` is set, the largest row sum s of |V^+ V|
    that the certificate of :func:`_condition` reads (else None)."""
    vectors = vectors / column_norms(vectors, keepdims=True)
    residual = column_norms(a @ vectors - vectors * values[:, None, :]).max(-1)
    if not gram:
        return vectors, residual, None
    s = np.maximum.reduce(np.add.reduce(np.abs(vectors.swapaxes(-1, -2).conj() @ vectors), -1), -1)
    return vectors, residual, s


def _condition(vectors: np.ndarray, s: np.ndarray | None, residual: np.ndarray, limit: np.ndarray, gate: float | None):
    """cond(V) of each unit-column V of a stack, the ratio of its extreme
    singular values, from one stacked SVD, except on the rows that a
    ``gate`` clears with a certificate.  The Gram matrix G = V^+ V of unit
    columns has a unit diagonal, so by Gershgorin its eigenvalues lie in
    [2 - s, s], s the largest row sum of |G|, and cond(V)^2 <= s / (2 - s).
    A row is cleared where its residual is within ``limit`` and
    s / (2 - s) < ``gate`` still holds with s raised by the margin
    2 (n + 2) (n + 4) eps.  That is twice the rounding of G's row sums
    (about n gamma_n), of the sum of their moduli and of the column
    normalization (which leaves G's diagonal within gamma_(n+4) of 1).  Near
    the gate it lowers cond(V)^2 by a relative (n + 2) (n + 4) eps gate or
    more (2.7e-9 at n = 2), far above the rounding of the SVD, about
    n eps cond(V): the SVD puts a cleared row below the gate too.  A cleared
    row keeps the bound sqrt(s / (2 - s)) as its condition, below the gate
    by that margin, and takes no SVD.  The SVD runs on the other rows
    alone, and not at all where every row clears."""
    condition, exact = np.empty(len(vectors)), slice(None)
    if gate is not None:
        n = vectors.shape[-1]
        # s + margin < 2 gate / (1 + gate) is (s + margin) / (2 - s - margin) < gate
        cleared = (s < 2.0 * gate / (1.0 + gate) - 2.0 * (n + 2) * (n + 4) * _EPS) & (residual <= limit)
        count = np.count_nonzero(cleared)
        if count == len(vectors):
            return np.sqrt(s / (2.0 - s))
        if count:
            s = s[cleared]
            condition[cleared], exact = np.sqrt(s / (2.0 - s)), ~cleared
    singular = np.linalg.svd(vectors[exact], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition[exact] = singular[:, 0] / singular[:, -1]
    return condition


def _components(a: np.ndarray):
    """The connected components of the symmetrized nonzero pattern of each
    matrix of an ``(N, n, n)`` stack, for the rows with more than one: None
    where every row is one component, else the ``split`` rows and, for
    each component size m, the ``(g,)`` rows (positions in ``split``) and
    the ``(g, m)`` ascending indices of the g components of that size.
    Components are numbered by their least index, so a row's split depends
    on that row alone.  A row whose first row and column have no zero entry
    is one component, decided in O(n) with no labeling: so is every dense
    matrix.  A stack of matrices smaller than ``_SPLIT_DIM`` is not split."""
    n = a.shape[-1]
    if n < _SPLIT_DIM:
        return None
    linked = ((a[:, 0] != 0) | (a[:, :, 0] != 0)).all(-1)
    if linked.all():
        return None
    rest = np.flatnonzero(~linked)
    pattern = a[rest] != 0
    pattern |= pattern.swapaxes(-1, -2)
    pattern[:, np.arange(n), np.arange(n)] = True
    root, _ = _label(pattern)
    size = np.bincount(root, minlength=len(root))[root]
    split = size[::n] < n  # vertex 0 of each row lies in a component smaller than the row
    if not split.any():
        return None
    vertex = (np.flatnonzero(split)[:, None] * n + np.arange(n)).reshape(-1)
    vertex = vertex[np.lexsort((root[vertex], size[vertex]))]  # by size, then component, vertices ascending
    count, at, groups = np.bincount(size[vertex]), 0, []  # np.unique would import numpy.ma on first use
    for m in np.flatnonzero(count).tolist():
        members = vertex[at : at + count[m]].reshape(-1, m)
        at += count[m]
        groups.append((np.searchsorted(np.flatnonzero(split), members[:, 0] // n), members % n))
    return rest[split], groups


def _label(pattern: np.ndarray) -> tuple[np.ndarray, int]:
    """The connected components of the graphs of an ``(N, n, n)`` stack of
    symmetric boolean patterns with a true diagonal, each row a graph on its
    own n vertices: every vertex r n + i labelled with the least vertex of
    its component, and the number of rounds taken.  Each round of FastSV
    (Zhang, Azad & Hu, SIAM PP 2020) hooks every vertex, and its parent, to
    the least grandparent among its neighbours, then jumps each pointer to
    its parent's, in O(nnz) work; it stops when no grandparent moves, after
    O(log n) rounds in practice (6 on a path of 400 vertices)."""
    n = pattern.shape[-1]
    edge = np.flatnonzero(pattern)  # (r n + i) n + j, sorted by vertex; every vertex is its own neighbour
    head = edge // n
    tail = head - head % n + edge % n
    first = np.flatnonzero(np.concatenate(([True], head[1:] != head[:-1])))
    parent = np.arange(pattern.size // n)
    grand, rounds = parent.copy(), 0
    while True:
        rounds += 1
        least = np.minimum.reduceat(grand[tail], first)
        np.minimum.at(parent, parent.copy(), least)
        np.minimum(parent, least, out=parent)
        parent = parent[parent]
        moved = parent[parent]
        if np.array_equal(moved, grand):
            return parent, rounds
        grand = moved


def require_regular(eigen: EigenSystem, residual: np.ndarray, scale: np.ndarray, tol: float) -> None:
    """Raise DefectiveSpectrum, as :func:`eigendecompose` does for a single
    matrix, where row 0 of the stacked ``eigen`` of one matrix with
    Frobenius norm ``scale[0]`` is defective."""
    if not eigen.defective[0]:
        return
    condition = float(eigen.condition[0])
    if not condition <= COND_LIMIT:
        raise DefectiveSpectrum(
            f"eigenvector matrix condition {condition:.3e} exceeds {COND_LIMIT:.1e}; "
            "matrix is numerically defective (exceptional point?)",
            condition=condition,
        )
    raise DefectiveSpectrum(
        f"eigenpair residual {residual[0]:.3e} exceeds {tol:.1e} * |m| = {tol * scale[0]:.3e}",
        condition=condition,
    )


def hermitian_powers(m, powers, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, ...]:
    """Real powers of a Hermitian positive definite matrix via one spectrum:
    :func:`spectral_powers` of ``m`` and its :func:`hermitian_spectrum`,
    with its errors."""
    a = as_matrix(m)
    return spectral_powers(a, hermitian_spectrum(a), powers, tol)


def hermitian_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, U), w ascending, of a Hermitian matrix: one ``np.linalg.eigh``,
    with its bits, where the symmetrized nonzero pattern of ``m`` is one
    connected component, a dense one always; else one stacked ``eigh`` per
    component size (see :func:`_components`), the blocks' eigenpairs joined
    and sorted stably by w."""
    parts = _components(m[None])
    if parts is None:
        return tuple(np.linalg.eigh(m))
    w, solved = np.empty(len(m)), []
    for _, at in parts[1]:
        w[at], v = np.linalg.eigh(m[at[:, :, None], at[:, None, :]])
        solved.append((at, v))
    order = np.argsort(w, kind="stable")
    column, u = np.argsort(order), np.zeros_like(m)  # column: the sorted position of each eigenvalue
    for at, v in solved:
        u[at[:, :, None], column[at][:, None, :]] = v
    return w[order], u


def hermitian_power(m, p: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The one-power case of :func:`hermitian_powers`, with the same errors."""
    return hermitian_powers(m, (p,), tol)[0]


def positive_definiteness(w: np.ndarray, tol: float) -> tuple[float, float]:
    """The smallest of the eigenvalues ``w`` of a Hermitian matrix and the
    threshold ``tol * max|w|`` it must lie above for the matrix to be
    positive definite, which its Hermiticity residual must not exceed: the
    one rule of :func:`spectral_powers` and
    :meth:`~cptkit.frames.CPTFrame.validate`, relative to the matrix's scale."""
    return float(w.min()), tol * float(np.abs(w).max())


def spectral_powers(m: np.ndarray, spectrum, powers, tol: float) -> tuple[np.ndarray, ...]:
    """``U diag(w**p) U+`` for each p in ``powers``, from the eigendecomposition
    ``spectrum = (w, U)`` of the Hermitian positive definite matrix ``m``.
    Against the one threshold ``tol * max|w|`` of
    :func:`positive_definiteness`, as :meth:`~cptkit.frames.CPTFrame.validate`
    judges a metric, raises NotHermitian unless ``|m - m+|`` is at most it,
    then NotPositiveDefinite unless the smallest eigenvalue is above it
    (upstream: a broken frame or an exceptional point), so the verdict does
    not depend on the scale of ``m``; a threshold that overflows admits
    nothing.  Raises InvalidArgument for a ``tol`` that is nan, negative or
    infinite."""
    _require_threshold(tol)
    w, u = spectrum
    min_eig, threshold = positive_definiteness(w, tol)
    herm_residual = hermiticity_residual(m)
    if not herm_residual <= threshold < np.inf:
        raise NotHermitian(f"Hermiticity residual {herm_residual:.3e} exceeds {tol:.1e} * max|w| = {threshold:.3e}")
    if not min_eig > threshold:
        raise NotPositiveDefinite(f"minimum eigenvalue {min_eig:.3e} is not above {tol:.1e} * max|w| = {threshold:.3e}")
    u_adj = u.conj().T
    return tuple((u * w ** float(p)) @ u_adj for p in powers)
