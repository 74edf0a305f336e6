"""Construction and validation of PT-frames and CPT-frames.

A PT-frame is a pair {P, T} with P linear and not the identity, T antilinear,
P^2 = T^2 = I and PT = TP.  A CPT-frame adds a linear C with C^2 = I,
CPT = TPC and PC Hermitian positive definite.

All built-in constructors fix T to entrywise conjugation.  Any admissible
antilinear T is accepted by the validators and by every consumer of a frame
(classification, C synthesis, Hermitization, composition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameInvalid,
    InvalidArgument,
    IsIdentity,
    KindMismatch,
    NonRealEntries,
    NotInvolution,
)
from .linops import DEFAULT_TOL, Operator, apply, as_matrix, compose, fnorm, opnorm

#: Constructors self-check against their validators at this tolerance.
CONSTRUCTION_TOL = 1e-12

_SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


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


@dataclass(frozen=True)
class PTFrame:
    """A validated pair {P, T}.  Construct through the module constructors or
    validate explicitly with :func:`validate_pt_frame`.

    ``pt``, the combined antilinear operator PT, is composed once here; every
    consumer applies it through :meth:`apply_pt`.
    """

    p: Operator
    t: Operator
    pt: Operator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pt", compose(self.p, self.t))

    @property
    def dim(self) -> int:
        return self.p.dim

    def apply_pt(self, v) -> np.ndarray:
        """Apply PT to a vector or to each column of an ``(n, k)`` block."""
        return apply(self.pt, v)


@dataclass(frozen=True)
class CPTFrame:
    """A validated triple {C, P, T} over an underlying PT-frame."""

    frame: PTFrame
    c: Operator

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def p(self) -> Operator:
        return self.frame.p

    @property
    def t(self) -> Operator:
        return self.frame.t

    @property
    def pc_matrix(self) -> np.ndarray:
        """The metric P @ C, Hermitian positive definite for a valid frame."""
        return self.frame.p.matrix @ self.c.matrix


def validate_pt_frame(p: Operator, t: Operator, tol: float = DEFAULT_TOL) -> FrameReport:
    """Check the PT-frame axioms and report every violation with its residual.

    Raises KindMismatch when p is not linear or t is not antilinear, and
    DimensionMismatch when their dimensions differ; axiom failures are
    reported, not raised.
    """
    if not p.is_linear:
        raise KindMismatch("P must be a linear operator")
    if t.is_linear:
        raise KindMismatch("T must be an antilinear operator")
    if p.dim != t.dim:
        raise DimensionMismatch(f"P has dimension {p.dim} but T has dimension {t.dim}")

    eye = np.eye(p.dim)
    violations = []
    for name, residual in (
        ("P^2 = I", fnorm(compose(p, p).matrix - eye)),
        ("T^2 = I", fnorm(compose(t, t).matrix - eye)),
        ("PT = TP", fnorm(compose(p, t).matrix - compose(t, p).matrix)),
    ):
        if residual > tol:
            violations.append((name, residual))
    identity_distance = fnorm(p.matrix - eye)
    if identity_distance <= tol:
        violations.append(("P != I", identity_distance))
    return FrameReport(not violations, tuple(violations))


def validate_cpt_frame(
    c: Operator, frame: PTFrame, tol: float = DEFAULT_TOL, pd_tol: float | None = None
) -> FrameReport:
    """Check the CPT-frame axioms for C over an existing PT-frame.

    Positive definiteness is decided by the spectrum of the Hermitian part of
    PC with threshold ``pd_tol * |PC|`` (operator norm, ``pd_tol`` defaulting
    to ``tol``), after the Hermiticity residual is reported separately.  The
    thresholds are separate because equation residuals of an exact frame
    scale with |C|^2 while the metric's spectral margin does not.
    """
    if not c.is_linear:
        raise KindMismatch("C must be a linear operator")
    if c.dim != frame.dim:
        raise DimensionMismatch(f"C has dimension {c.dim} but frame has dimension {frame.dim}")

    eye = np.eye(frame.dim)
    cpt_op = compose(compose(c, frame.p), frame.t)
    tpc_op = compose(compose(frame.t, frame.p), c)
    pc = frame.p.matrix @ c.matrix
    hermitian_part = (pc + pc.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(hermitian_part).min())
    pd_threshold = (tol if pd_tol is None else pd_tol) * opnorm(pc)

    violations = []
    for name, residual in (
        ("C^2 = I", fnorm(compose(c, c).matrix - eye)),
        ("CPT = TPC", fnorm(cpt_op.matrix - tpc_op.matrix)),
        ("PC hermitian", fnorm(pc - pc.conj().T)),
    ):
        if residual > tol:
            violations.append((name, residual))
    if min_eig <= pd_threshold:
        violations.append(("PC positive definite", pd_threshold - min_eig))
    return FrameReport(not violations, tuple(violations))


def checked_pt_frame(p: Operator, t: Operator, tol: float = DEFAULT_TOL) -> PTFrame:
    """Validate and assemble a PT-frame, raising FrameInvalid on failure."""
    report = validate_pt_frame(p, t, tol)
    if not report.passed:
        raise FrameInvalid(f"not a PT-frame: {report.describe()}", report=report)
    return PTFrame(p, t)


def checked_cpt_frame(
    c: Operator, frame: PTFrame, tol: float = DEFAULT_TOL, pd_tol: float | None = None
) -> CPTFrame:
    """Validate and assemble a CPT-frame, raising FrameInvalid on failure."""
    report = validate_cpt_frame(c, frame, tol, pd_tol)
    if not report.passed:
        raise FrameInvalid(f"not a CPT-frame: {report.describe()}", report=report)
    return CPTFrame(frame, c)


def pair_swap_frame(n: int) -> PTFrame:
    """The pair-permutation frame on an even-dimensional space.

    P swaps basis vectors pairwise (e1 <-> e2, e3 <-> e4, ...) and T is
    entrywise conjugation.  This construction exists on every
    even-dimensional space, so a PT-frame is always available.
    """
    if n <= 0 or n % 2 != 0:
        raise InvalidArgument(f"pair-swap parity needs an even positive dimension, got {n}")
    p = Operator.linear(np.kron(np.eye(n // 2), _SWAP2))
    t = Operator.conjugation(n)
    return checked_pt_frame(p, t, CONSTRUCTION_TOL)


def frame_from_involution(p_matrix, tol: float = DEFAULT_TOL) -> PTFrame:
    """Frame with T = entrywise conjugation built from a real involution P.

    Commutation PT = TP holds automatically because P is real (it is checked
    anyway).  Complex-entried P is rejected rather than silently accepted: a
    complex P need not commute with conjugation-T.
    """
    a = as_matrix(p_matrix)
    n = a.shape[0]
    if float(np.abs(a.imag).max(initial=0.0)) > tol:
        raise NonRealEntries("parity matrix must have real entries")
    eye = np.eye(n)
    involution_residual = fnorm(a @ a - eye)
    if involution_residual > tol:
        raise NotInvolution(f"P^2 = I fails with residual {involution_residual:.3e}")
    if fnorm(a - eye) <= tol:
        raise IsIdentity("the identity matrix is not an admissible parity")
    return checked_pt_frame(Operator.linear(a), Operator.conjugation(n), max(tol, CONSTRUCTION_TOL))
