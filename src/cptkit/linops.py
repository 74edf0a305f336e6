"""Dense complex matrices and the algebra of linear and antilinear operators.

An antilinear operator is stored as a plain matrix ``M`` together with a kind
tag; its action is ``x -> M @ conj(x)``.  There is no "antilinear matrix"
arithmetic beyond the four composition rules in :func:`compose`, which keeps
the conjugation semantics explicit and testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectiveSpectrum,
    DimensionMismatch,
    KindMismatch,
    NonFiniteEntries,
    NotHermitian,
    NotPositiveDefinite,
)

#: Default tolerance for structural axiom residuals (absolute) and spectral
#: residuals (relative).  Every public operation accepts an override.
DEFAULT_TOL = 1e-10

#: Eigenvector-matrix condition number above which a matrix is rejected as
#: numerically defective instead of silently regularized.
COND_LIMIT = 1e8

LINEAR = "linear"
ANTILINEAR = "antilinear"


def as_matrix(m) -> np.ndarray:
    """Coerce input to a read-only square complex matrix with finite entries."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntries("matrix contains NaN or infinite entries")
    a.setflags(write=False)
    return a


def as_vector(v) -> np.ndarray:
    """Coerce input to a read-only complex vector with finite entries."""
    a = np.array(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntries("vector contains NaN or infinite entries")
    a.setflags(write=False)
    return a


def fnorm(m) -> float:
    """Frobenius norm, the default residual measure."""
    return float(np.linalg.norm(m))


def opnorm(m) -> float:
    """Operator 2-norm (largest singular value)."""
    return float(np.linalg.norm(m, 2))


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
    """Apply an operator to a vector, or column by column to an ``(n, k)``
    block of vectors."""
    x = np.array(v, dtype=complex)
    x = x if x.ndim == 2 else x.reshape(-1)
    if not np.all(np.isfinite(x)):
        raise NonFiniteEntries("input contains NaN or infinite entries")
    if x.shape[0] != op.dim:
        raise DimensionMismatch(
            f"operator of dimension {op.dim} applied to vectors of length {x.shape[0]}"
        )
    return op.matrix @ (x if op.is_linear else np.conj(x))


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
    matrix, a proximity measure for exceptional points.
    """

    values: np.ndarray
    vectors: np.ndarray
    condition: float

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)


def eigendecompose(m, tol: float = DEFAULT_TOL, cond_limit: float = COND_LIMIT) -> EigenSystem:
    """Eigendecompose a square complex matrix.

    Parameters
    ----------
    m : array_like
        Square matrix.
    tol : float
        Relative residual tolerance: every pair must satisfy
        ``|m v - lam v| <= tol |m|``.
    cond_limit : float
        Defectiveness cutoff for the eigenvector matrix condition number.

    Raises
    ------
    DefectiveSpectrum
        If the eigenvector matrix condition number exceeds ``cond_limit`` or
        the residual check fails.  Exceptional points are physically
        meaningful here and must surface as errors, not as regularized
        output.
    """
    a = as_matrix(m)
    values, vectors = np.linalg.eig(a)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0)

    with np.errstate(all="ignore"):
        condition = float(np.linalg.cond(vectors))
    if not np.isfinite(condition) or condition > cond_limit:
        raise DefectiveSpectrum(
            f"eigenvector matrix condition {condition:.3e} exceeds {cond_limit:.1e}; "
            "matrix is numerically defective (exceptional point?)",
            condition=condition,
        )

    scale = fnorm(a)
    residual = float(np.linalg.norm(a @ vectors - vectors * values, axis=0).max())
    if residual > tol * scale:
        raise DefectiveSpectrum(
            f"eigenpair residual {residual:.3e} exceeds {tol:.1e} * |m| = {tol * scale:.3e}",
            condition=condition,
        )
    return EigenSystem(values, vectors, condition)


def hermitian_power(m, p: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real power of a Hermitian positive definite matrix via its spectrum.

    Returns ``U diag(w**p) U+`` from the eigendecomposition ``m = U diag(w) U+``.

    Raises
    ------
    NotHermitian
        If ``|m - m+| > tol``.
    NotPositiveDefinite
        If the smallest eigenvalue is not above ``tol``; upstream this
        signals a broken frame or an exceptional point.
    """
    a = as_matrix(m)
    herm_residual = fnorm(a - a.conj().T)
    if herm_residual > tol:
        raise NotHermitian(f"Hermiticity residual {herm_residual:.3e} exceeds {tol:.1e}")
    w, u = np.linalg.eigh(a)
    if float(w.min()) <= tol:
        raise NotPositiveDefinite(
            f"minimum eigenvalue {float(w.min()):.3e} is not above {tol:.1e}"
        )
    return (u * w ** float(p)) @ u.conj().T
