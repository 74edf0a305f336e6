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
    inf * 0).  The operand is read once, a complex one as its real and
    imaginary parts side by side, by one ``einsum`` of its squares, which
    forms no array of its size and sets no floating-point flag."""
    x = np.ascontiguousarray(a)  # ``a`` itself where it is contiguous, as every matrix the package forms
    if x.dtype.kind == "c":
        x = x.view(x.real.dtype)
    # fmin ignores a nan operand: nan -> inf, anything else unchanged
    return np.fmin(np.sqrt(np.einsum("...ij,...ij->...", x, x)), np.inf)


def column_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """The Euclidean norm of each column of an ``(n, k)`` block, or of each
    block of an ``(N, n, k)`` stack: ``np.linalg.norm(x, axis=-2)`` without
    its argument handling, which dominates on small blocks."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-2, keepdims=keepdims))


def hermiticity_residual(a: np.ndarray) -> float:
    """The Frobenius norm of ``a - a^+``, over every matrix of a stack
    together: inf, never a warning, where forming it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return frobenius((a - a.conj().swapaxes(-1, -2)).reshape(-1, a.shape[-1]))


def root_sum_square(norms) -> float:
    """The Frobenius norm of a block-diagonal matrix from the sequence of
    those of its blocks, or of its stacks of blocks: the norm itself where
    there is one."""
    if len(norms) == 1:
        return float(norms[0])
    return float(np.hypot.reduce(np.concatenate([np.ravel(norm) for norm in norms])))


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


def _one_block(ats, shape: tuple[int, int]) -> bool:
    """Whether the ``(g, m)`` block indices ``ats`` of the partition of the
    n indices of each of N rows, ``shape`` (N, n), are one block of all n
    indices per row: the partition of a matrix that is not split."""
    return len(ats) == 1 and ats[0].shape == shape


def _block_join(n: int, ats, parts, cols=None) -> np.ndarray:
    """The ``(n, n)`` array with each ``(g, m, m)`` stack of ``parts`` written
    at the rows ``ats`` and the columns ``cols`` (``ats`` if None) of its
    blocks, zero elsewhere: the part itself where it is one block of the
    whole, its columns in order.  Parts with leading axes, ``(..., g, m, m)``,
    are joined into an ``(..., n, n)`` stack, one matrix per leading index."""
    if _one_block(ats, (1, n)) and (cols is None or (cols[0] == np.arange(n)).all()):
        return parts[0][..., 0, :, :]
    joined = np.zeros(parts[0].shape[:-3] + (n, n), dtype=np.result_type(*parts))
    for at, col, part in zip(ats, ats if cols is None else cols, parts):
        joined[..., at[:, :, None], col[:, None, :]] = part
    return joined


def commutator_check(c, h, tol: float) -> tuple[float, bool]:
    """The residual |[C, H]| and whether it is within
    ``tol * max(1, |H|) * max(1, |C|)``; an overflowed residual fails.  C and
    H are two matrices, two stacks of the blocks of a block-diagonal pair,
    or two tuples of such stacks, one per block size, whose norms are taken
    together, as of the joined matrices.  A real C and a complex H = A + iB
    are checked in real products, from the stack of [C, A] and [C, B], whose
    Frobenius norm is |[C, H]|.  Where B is exactly zero, as for every
    built-in model in a frame's real basis, only [C, A] is formed, in two
    products, and [C, B] is left as the zeros it would be, so the residual
    sums the same entries in the same order."""
    if not isinstance(c, tuple):
        residual, h_norm, c_norm = _commutator_norms(c, h)
    elif len(c) == 1:
        residual, h_norm, c_norm = _commutator_norms(c[0], h[0])
    else:
        residual, h_norm, c_norm = map(root_sum_square, zip(*map(_commutator_norms, c, h)))
    return residual, bool(residual <= tol * max(1.0, h_norm) * max(1.0, c_norm))


def _commutator_norms(c: np.ndarray, h: np.ndarray):
    """|[C, H]|, |H| and |C| for a matrix or a stack of blocks, as :func:`commutator_check` takes them."""
    n = c.shape[-1]
    if np.iscomplexobj(h) and not np.iscomplexobj(c):
        h = np.stack([h.real, h.imag])
    with np.errstate(over="ignore", invalid="ignore"):
        if h.ndim > c.ndim and not np.count_nonzero(h[1]):
            commutator = np.zeros_like(h)
            np.matmul(c, h[0], out=commutator[0])
            commutator[0] -= h[0] @ c
        else:
            commutator = c @ h
            commutator -= h @ c
        return frobenius(commutator.reshape(-1, n)), frobenius(h.reshape(-1, n)), frobenius(c.reshape(-1, n))


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
    def _of(kind: str, matrix: np.ndarray) -> "Operator":
        """An operator of a matrix already square, complex, finite and
        read-only, as :func:`as_matrix` leaves it: taken as it is, with no
        copy and no scan."""
        op = object.__new__(Operator)
        object.__setattr__(op, "kind", kind)
        object.__setattr__(op, "matrix", matrix)
        return op

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

    Every matrix is solved by the connected components of its pattern (see
    :func:`stacked_eigensystem`): a direct sum has each eigenvector zero off
    its own component, and its ``condition`` is that of the joined V; a
    dense or irreducible matrix is one component, its eigensystem that of
    one ``eig``.
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
    stack, with one stacked ``np.linalg.eig`` call per component size.

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

    Each matrix is solved by the connected components of its symmetrized
    nonzero pattern (see :func:`stacked_eigensystem`): one stacked ``eig``
    per component size, each block's eigenpairs sorted, normalized and
    checked alone, then joined.  A direct sum in any order of its indices
    is solved by its blocks; its residual check and ``condition`` are the
    joined matrix's, against the tolerance of the whole ``|m|``.  A matrix
    that is one component is one block of all n indices, solved by one
    ``eig`` of the whole.  Components are searched for only at dimension
    ``_SPLIT_DIM`` (80) or more, where the first row or column has a zero
    entry: a smaller matrix, and every dense one, is one component.

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
    _require_nonempty(a.shape[1])
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

    Each row is solved by the connected components of its nonzero pattern
    (see :func:`_components`) by :func:`split_eigensystem`, and its blocks'
    unit eigenvectors are joined here, alone in the package, into the row's
    ``(n, n)`` V: each block's columns at their sorted positions, zero off
    the block.  A row that is one component, a dense one always, is one
    block of all n indices, whose sorted eigenpairs are the row's own, with
    no join.  A row's residual is the largest of its blocks', and its Gram
    certificate's row sum s too, which is the joined V's, since V^+ V is
    block diagonal; its cond(V), where the SVD decides it, is the largest
    singular value over the smallest across its blocks, those of the joined
    V.  A row's solve depends on the row alone, so a row of a stack is
    solved bit for bit as the row alone.

    Without ``gate`` every row's ``condition`` is cond(V) from the SVD, as
    :func:`eigendecompose` and DefectiveSpectrum report it.  With it, for a
    caller that asks of cond(V) only whether its square lies below ``gate``
    (at most ``COND_LIMIT``^2), a row whose residual check passes and whose
    Gram certificate puts cond(V)^2 below ``gate``, with the margin
    2 (n + 2) (n + 4) eps in the Gram row sum at the joined n (see
    :func:`_condition`), keeps the certificate's bound as its condition and
    takes no SVD: the bound lies on the same side of the gate, and of
    ``COND_LIMIT``, as the SVD's value."""
    unscaled = ~np.isfinite(scale)  # non-finite entries, or a norm that overflows
    if unscaled.any():
        # a placeholder keeps the stacked LAPACK calls valid for the other rows
        a = np.where(unscaled[:, None, None], 0.0, a)
    values, condition, defective, residual, blocks = split_eigensystem(a, _components(a), tol * scale, gate)
    if _one_block([at for _, at, *_ in blocks], a.shape[:2]):
        vectors = blocks[0][-1]
    else:
        vectors = np.zeros(a.shape, dtype=values.dtype)
        for rows, at, col, _, part in blocks:
            vectors[rows[:, None, None], at[:, :, None], col[:, None, :]] = part
    return EigenSystem(values, vectors, condition, unscaled | defective), residual


def split_eigensystem(a: np.ndarray, parts, limit: np.ndarray, gate: float | None, form=None):
    """The eigensystems of a finite ``(N, n, n)`` stack by its blocks, given
    the partition ``parts`` of every row as :func:`_components` returns it,
    and each row's residual ``limit``: the row-level ``(values, condition,
    defective, residual)`` of :func:`stacked_eigensystem`, each row's values
    sorted, and the ``blocks``, for each block size m the ``(g,)`` rows, the
    ``(g, m)`` indices of each block, the ``(g, m)`` ascending columns of
    its eigenpairs in its row's sorted values, and the block's own sorted
    values and unit eigenvectors, ``(g, m)`` and ``(g, m, m)``.  Each block
    is solved, normalized and checked alone by :func:`_eigenpairs`; a
    block's arrays are real where every eigenvalue of its size's stack is.
    Where every row is one block of all n indices, the block's values are
    the rows' own.  ``form(a, rows, at)``, if given, is what is solved of
    the matrices ``a[rows]``: at the ``(g, m)`` indices ``at`` of their
    blocks, or whole with ``at`` None where a block is all n indices; by
    default, their own entries."""
    form = form or _entries
    count, n = a.shape[:2]
    every = _one_block([at for _, at in parts], (count, n))
    solved = [
        (rows, at, _eigenpairs(form(a, slice(None) if every else rows, None if at.shape[1] == n else at), gate))
        for rows, at in parts
    ]
    if every:
        (rows, at, (values, vectors, _, residual, s, pieces)), = solved
    else:
        residual, s, pieces = np.zeros(count), np.zeros(count), ()
        for rows, _, (_, _, _, res, gram, _) in solved:
            np.maximum.at(residual, rows, res)
            np.maximum.at(s, rows, gram)

    def extremes(exact):  # the largest and smallest singular value over each row's blocks
        if len(pieces) == 1:  # of V itself, every row one block in one arithmetic
            singular = np.linalg.svd(pieces[0][1][exact], compute_uv=False)
            return singular[:, 0], singular[:, -1]
        units = [(rows[group], unit) for rows, _, eigen in solved for group, unit in eigen[-1]]
        top, bottom, chosen_rows = np.zeros(count), np.full(count, np.inf), np.zeros(count, dtype=bool)
        chosen_rows[exact] = True
        for rows, unit in units:
            chosen = chosen_rows[rows]
            if chosen.any():
                singular = np.linalg.svd(unit[chosen], compute_uv=False)
                np.maximum.at(top, rows[chosen], singular[:, 0])
                np.minimum.at(bottom, rows[chosen], singular[:, -1])
        return top[exact], bottom[exact]

    condition = _condition(extremes, s, residual, limit, gate, n)
    defective = ~(condition <= COND_LIMIT) | (residual > limit)
    if every:
        return values, condition, defective, residual, [(rows, at, at, values, vectors)]
    values = np.empty((count, n), dtype=np.result_type(*(eigen[0] for _, _, eigen in solved)))
    places = [np.take_along_axis(at, eigen[2], -1) for _, at, eigen in solved]  # where eig put each sorted eigenvalue
    for (rows, _, eigen), place in zip(solved, places):
        values[rows[:, None], place] = eigen[0]
    order = np.lexsort((values.imag, values.real), axis=-1)
    column = np.argsort(order, axis=-1)  # the sorted position of each eigenvalue
    values = np.take_along_axis(values, order, -1)
    # a block's columns ascend: its eigenvalues keep their order in the row
    blocks = [(rows, at, column[rows[:, None], place], *eigen[:2]) for (rows, at, eigen), place in zip(solved, places)]
    return values, condition, defective, residual, blocks


def _entries(a: np.ndarray, rows, at) -> np.ndarray:
    """The matrices ``a[rows]``, or their blocks at the ``(g, m)`` indices ``at``."""
    if at is None:
        return a[rows]
    return a[rows[:, None, None], at[:, :, None], at[:, None, :]]


def _eigenpairs(block: np.ndarray, gate: float | None):
    """The eigenpairs of each matrix of a ``(g, m, m)`` stack, by one stacked
    ``eig``, sorted ascending by (real part, imaginary part), and the
    ``order`` that sorted them; then the eigenvectors scaled to unit
    columns, each matrix's largest eigenpair residual and, for a ``gate``,
    its Gram row sum s (see :func:`_unit_columns`; else 0), and the unit
    eigenvectors of each arithmetic with its rows.  ``eig`` returns every
    matrix of a real stack as complex once one has a non-real eigenvalue: a
    real matrix with a real spectrum is finished in real arithmetic, bit for
    bit as it would be alone."""
    values, vectors = np.linalg.eig(block)
    rows = np.arange(len(block))[:, None]
    order = np.lexsort((values.imag, values.real), axis=-1)
    values = values[rows, order]
    vectors = vectors[rows[:, :, None], np.arange(block.shape[-1])[:, None], order[:, None, :]]
    plain = (values.imag == 0).all(-1) & (block.dtype.kind == "f")
    residual, s, pieces = np.empty(len(block)), np.zeros(len(block)), []
    for group, part in _arithmetic(plain):
        unit, residual[group], gram = _unit_columns(block[group], part(values[group]), part(vectors[group]), gate is not None)
        if gram is not None:
            s[group] = gram
        vectors[group] = unit
        pieces.append((group, unit))
    return values, vectors, order, residual, s, pieces


def _arithmetic(plain: np.ndarray):
    """The rows of a stack to finish in real arithmetic, ``plain``, and the
    others, each with the map to its arithmetic; a group that holds the
    whole stack, as always for one matrix, is a slice, not a copy, and an
    empty one is left out."""
    for group, part in ((plain, np.real), (~plain, np.asarray)):
        if group.all():
            yield slice(None), part
            return  # the other group is empty
        if group.any():
            yield group, part


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


def _condition(extremes, s: np.ndarray | None, residual: np.ndarray, limit: np.ndarray, gate: float | None, n: int):
    """cond(V) of each unit-column V of a stack, the ratio of its extreme
    singular values, which ``extremes(rows)`` returns for a boolean mask of
    rows, except on the rows that a ``gate`` clears with a certificate.  The
    Gram matrix G = V^+ V of unit columns has a unit diagonal, so by
    Gershgorin its eigenvalues lie in [2 - s, s], s the largest row sum of
    |G|, and cond(V)^2 <= s / (2 - s).  A row is cleared where its residual
    is within ``limit`` and s / (2 - s) < ``gate`` still holds with s raised
    by the margin 2 (n + 2) (n + 4) eps, at the dimension n of V.  That is
    twice the rounding of G's row sums (about n gamma_n), of the sum of
    their moduli and of the column normalization (which leaves G's diagonal
    within gamma_(n+4) of 1).  Near the gate it lowers cond(V)^2 by a
    relative (n + 2) (n + 4) eps gate or more (2.7e-9 at n = 2), far above
    the rounding of the SVD, about n eps cond(V): the SVD puts a cleared row
    below the gate too.  A cleared row keeps the bound sqrt(s / (2 - s)) as
    its condition, below the gate by that margin, and takes no SVD.  The SVD
    runs on the other rows alone, and not at all where every row clears."""
    condition, exact = np.empty(len(residual)), slice(None)
    if gate is not None:
        # s + margin < 2 gate / (1 + gate) is (s + margin) / (2 - s - margin) < gate
        cleared = (s < 2.0 * gate / (1.0 + gate) - 2.0 * (n + 2) * (n + 4) * _EPS) & (residual <= limit)
        count = np.count_nonzero(cleared)
        if count == len(residual):
            return np.sqrt(s / (2.0 - s))
        if count:
            s = s[cleared]
            condition[cleared], exact = np.sqrt(s / (2.0 - s)), ~cleared
    top, bottom = extremes(exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition[exact] = top / bottom
    return condition


def _components(a: np.ndarray, perm: np.ndarray | None = None):
    """The partition of the indices of each matrix of an ``(N, n, n)`` stack
    by the connected components of its symmetrized nonzero pattern: for
    each component size m, ascending, the ``(g,)`` rows, ascending, and the
    ``(g, m)`` ascending indices of the g components of that size.  A row
    that is one component is one block of all n indices, in the group of
    size n.  With the index array ``perm`` of an index frame's P, each pair
    (i, perm[i]) is joined too, so that every component is closed under P.
    Components are numbered by their least index, so a row's partition
    depends on that row alone.  Only a matrix of dimension ``_SPLIT_DIM``
    or more whose first row and column have a zero entry is labeled: a
    smaller one, and one with no such zero, as every dense matrix, is one
    component, decided in O(n)."""
    count, n = a.shape[:2]
    rows, groups = np.arange(count), []  # the rows that are one component
    rest = rows[~((a[:, 0] != 0) | (a[:, :, 0] != 0)).all(-1)] if n >= _SPLIT_DIM else ()
    if len(rest):
        pattern = (a if len(rest) == count else a[rest]) != 0  # no copy of the stack where every row is labeled
        if perm is not None:
            pattern[:, np.arange(n), perm] = True
        pattern |= pattern.swapaxes(-1, -2)
        pattern[:, np.arange(n), np.arange(n)] = True
        root, _ = _label(pattern)
        size = np.bincount(root, minlength=len(root))[root]
        vertex = np.flatnonzero(size < n)  # every vertex of the rows with several components
        whole = np.ones(count, dtype=bool)
        whole[rest[vertex[::n] // n]] = False
        rows = rows[whole]
        vertex = vertex[np.lexsort((root[vertex], size[vertex]))]  # by size, then component, vertices ascending
        sizes, at = np.bincount(size[vertex]), 0  # np.unique would import numpy.ma on first use
        for m in np.flatnonzero(sizes).tolist():
            members = vertex[at : at + sizes[m]].reshape(-1, m)
            at += sizes[m]
            groups.append((rest[members[:, 0] // n], members % n))
    if len(rows) or not groups:  # a stack of no rows is one group of none
        groups.append((rows, np.arange(n)[None].repeat(len(rows), 0)))
    return groups


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


def _require_nonempty(n: int) -> None:
    """Raise DimensionMismatch for a matrix of dimension 0: it has no eigensystem to report."""
    if not n:
        raise DimensionMismatch("an empty matrix has no eigensystem")


def require_regular(eigen: EigenSystem, residual: np.ndarray, scale: np.ndarray, tol: float) -> None:
    """Raise DefectiveSpectrum, as :func:`eigendecompose` does for a single
    matrix, where row 0 of ``eigen``, the stacked :class:`EigenSystem` of
    one matrix with Frobenius norm ``scale[0]`` or any record with its
    ``condition`` and ``defective`` arrays, is defective."""
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
    with its errors, and DimensionMismatch for an empty matrix, as from
    :func:`eigendecompose`."""
    a = as_matrix(m)
    _require_nonempty(len(a))
    return spectral_powers(a, hermitian_spectrum(a), powers, tol)


def hermitian_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, U), w ascending, of a Hermitian matrix: one stacked
    ``np.linalg.eigh`` per component size of its symmetrized nonzero pattern
    (see :func:`_components`), the blocks' eigenpairs joined by
    :func:`joined_spectrum`.  A matrix that is one component, a dense one
    always, is one block, solved as a stack of one, with ``eigh``'s bits."""
    ats = [at for _, at in _components(m[None])]
    blocks = [m[None]] if _one_block(ats, (1, len(m))) else [m[at[:, :, None], at[:, None, :]] for at in ats]
    return joined_spectrum(len(m), ats, *zip(*map(np.linalg.eigh, blocks)))


def joined_spectrum(n: int, ats, ws, us) -> tuple[np.ndarray, np.ndarray]:
    """(w, U) of a block-diagonal Hermitian matrix of dimension n from the
    spectra (w, U) of its blocks, stacked by size, with the ``(g, m)``
    indices ``ats`` of each: w sorted stably ascending, and each block's
    eigenvectors written into their sorted columns, zero off the block.  One
    block of all n indices is its own spectrum."""
    if _one_block(ats, (1, n)):
        return ws[0][0], us[0][0]
    w = np.empty(n)
    for at, part in zip(ats, ws):
        w[at] = part
    order = np.argsort(w, kind="stable")
    column = np.argsort(order)  # the sorted position of each eigenvalue
    return w[order], _block_join(n, ats, us, [column[at] for at in ats])


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


def spectral_powers(m, spectrum, powers, tol: float) -> tuple:
    """``U diag(w**p) U+`` for each p in ``powers``, from the eigendecomposition
    ``spectrum = (w, U)`` of the Hermitian positive definite matrix ``m``, or
    of each matrix of a stack: the checks of :func:`_require_metric` on
    ``|m - m+|`` and w, then the powers.  ``m`` may also be a tuple of
    stacks, the blocks of one block-diagonal matrix by size, with
    ``spectrum`` the tuples (ws, us) of their spectra: the checks are then
    the joined matrix's, and each power is a tuple of block stacks."""
    if not isinstance(m, tuple):
        _require_metric(hermiticity_residual(m), spectrum[0], tol)
        return _powers(spectrum, powers)
    ws, us = spectrum
    _require_metric(root_sum_square([hermiticity_residual(part) for part in m]),
                    np.concatenate([w.reshape(-1) for w in ws]), tol)
    return tuple(zip(*(_powers(part, powers) for part in zip(ws, us))))


def _require_metric(herm_residual: float, w: np.ndarray, tol: float) -> None:
    """Against the one threshold ``tol * max|w|`` of
    :func:`positive_definiteness`, as :meth:`~cptkit.frames.CPTFrame.validate`
    judges a metric, raise NotHermitian unless the Hermiticity residual
    ``herm_residual`` is at most it, then NotPositiveDefinite unless the
    smallest eigenvalue in ``w`` is above it (upstream: a broken frame or an
    exceptional point), so the verdict does not depend on the metric's
    scale; a threshold that overflows admits nothing.  Raises
    InvalidArgument for a ``tol`` that is nan, negative or infinite."""
    _require_threshold(tol)
    min_eig, threshold = positive_definiteness(w, tol)
    if not herm_residual <= threshold < np.inf:
        raise NotHermitian(f"Hermiticity residual {herm_residual:.3e} exceeds {tol:.1e} * max|w| = {threshold:.3e}")
    if not min_eig > threshold:
        raise NotPositiveDefinite(f"minimum eigenvalue {min_eig:.3e} is not above {tol:.1e} * max|w| = {threshold:.3e}")


def _powers(spectrum, powers) -> tuple[np.ndarray, ...]:
    """``U diag(w**p) U+`` for each p in ``powers``, from ``spectrum = (w, U)``
    of a matrix or of each matrix of a stack, with no check."""
    w, u = spectrum
    u_adj = u.conj().swapaxes(-1, -2)
    return tuple((u * w[..., None, :] ** float(p)) @ u_adj for p in powers)
