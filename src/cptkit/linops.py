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
    of [C, A] and [C, B], whose Frobenius norm is |[C, H]|."""
    n = len(c)
    if np.iscomplexobj(h) and not np.iscomplexobj(c):
        h = np.stack([h.real, h.imag])
    with np.errstate(over="ignore", invalid="ignore"):
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
    stack with one stacked ``np.linalg.eig`` call.

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

    Without ``gate`` every row's ``condition`` is cond(V) from the SVD, as
    :func:`eigendecompose` and DefectiveSpectrum report it.  With it, for a
    caller that asks of cond(V) only whether its square lies below ``gate``
    (at most ``COND_LIMIT``^2), a row whose residual check passes and whose
    Gram certificate puts cond(V)^2 below ``gate``, with the margin
    2 (n + 2) (n + 4) eps in the Gram row sum (see
    :func:`_unit_eigenvectors`), keeps the certificate's bound as its
    condition and takes no SVD: the bound lies on the same side of the
    gate, and of ``COND_LIMIT``, as the SVD's value."""
    unscaled = ~np.isfinite(scale)  # non-finite entries, or a norm that overflows
    if unscaled.any():
        # a placeholder keeps the stacked LAPACK calls valid for the other rows
        a = np.where(unscaled[:, None, None], 0.0, a)
    values, vectors = np.linalg.eig(a)
    rows = np.arange(len(a))[:, None]
    order = np.lexsort((values.imag, values.real), axis=-1)
    values = values[rows, order]
    vectors = vectors[rows[:, :, None], np.arange(a.shape[1])[:, None], order[:, None, :]]
    # eig returns every row of a real stack as complex once one row has a
    # non-real eigenvalue: the rows with a real spectrum are finished in real
    # arithmetic, bit for bit as each would be alone
    plain = (values.imag == 0).all(-1) & (a.dtype.kind == "f")
    condition, residual, limit = np.empty(len(a)), np.empty(len(a)), tol * scale
    for group, part in ((plain, np.real), (~plain, np.asarray)):
        if group.all():  # the whole stack, as always for one matrix: a slice, not a copy
            group = slice(None)
        elif not group.any():
            continue
        vectors[group], condition[group], residual[group] = _unit_eigenvectors(
            a[group], part(values[group]), part(vectors[group]), limit[group], gate
        )
    defective = unscaled | ~(condition <= COND_LIMIT) | (residual > limit)
    return EigenSystem(values, vectors, condition, defective), residual


def _unit_eigenvectors(
    a: np.ndarray, values: np.ndarray, vectors: np.ndarray, limit: np.ndarray, gate: float | None
):
    """Unit-column eigenvectors, cond(V) and the largest eigenpair residual
    of each row, for the residual ``limit`` and the ``gate`` of
    :func:`stacked_eigensystem`.

    cond(V) is the ratio of the extreme singular values, from one stacked
    SVD, except on the rows that a ``gate`` clears with a certificate.  The
    Gram matrix G = V^+ V of unit columns has a unit diagonal, so by
    Gershgorin its eigenvalues lie in [2 - s, s], s the largest row sum of
    |G|, and cond(V)^2 <= s / (2 - s).  A row is cleared where its residual
    is within ``limit`` and s / (2 - s) < ``gate`` still holds with s raised
    by the margin 2 (n + 2) (n + 4) eps.  That is twice the rounding of G's
    row sums (about n gamma_n), of the sum of their moduli and of the column
    normalization (which leaves G's diagonal within gamma_(n+4) of 1).  Near
    the gate it lowers cond(V)^2 by a relative (n + 2) (n + 4) eps gate or
    more (2.7e-9 at n = 2), far above the rounding of the SVD, about
    n eps cond(V): the SVD puts a cleared row below the gate too.  A cleared
    row keeps the bound sqrt(s / (2 - s)) as its condition, below the gate
    by that margin, and takes no SVD.  The SVD runs on the other rows
    alone, and not at all where every row clears."""
    vectors = vectors / column_norms(vectors, keepdims=True)
    residual = column_norms(a @ vectors - vectors * values[:, None, :]).max(-1)
    condition, exact = np.empty(len(a)), slice(None)
    if gate is not None:
        n = vectors.shape[-1]
        s = np.maximum.reduce(np.add.reduce(np.abs(vectors.swapaxes(-1, -2).conj() @ vectors), -1), -1)
        # s + margin < 2 gate / (1 + gate) is (s + margin) / (2 - s - margin) < gate
        cleared = (s < 2.0 * gate / (1.0 + gate) - 2.0 * (n + 2) * (n + 4) * _EPS) & (residual <= limit)
        count = np.count_nonzero(cleared)
        if count == len(a):
            return vectors, np.sqrt(s / (2.0 - s)), residual
        if count:
            s = s[cleared]
            condition[cleared], exact = np.sqrt(s / (2.0 - s)), ~cleared
    singular = np.linalg.svd(vectors[exact], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition[exact] = singular[:, 0] / singular[:, -1]
    return vectors, condition, residual


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
    :func:`spectral_powers` of ``m`` and its one ``eigh``, with its errors."""
    a = as_matrix(m)
    return spectral_powers(a, np.linalg.eigh(a), powers, tol)


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
