"""Construction and validation of PT-frames and CPT-frames.

A PT-frame is a pair {P, T} with P linear and not the identity, T antilinear,
P^2 = T^2 = I and PT = TP.  A CPT-frame adds a linear C with C^2 = I,
CPT = TPC and PC Hermitian positive definite.  The validators form each
residual from the matrix parts and report one that overflows as a violation
with residual inf.  A :class:`CPTFrame` factors its metric PC once, with one
``eigh`` of its Hermitian part; validation, C synthesis, Hermitization and
the CPT adjoint all read that one factorization.

Every built-in involution frame comes from :func:`frame_from_involution`,
with T entrywise conjugation.  Any admissible antilinear T is accepted by the
validators and by every consumer of a frame (classification, C synthesis,
Hermitization, composition).
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
from .linops import DEFAULT_TOL, Operator, apply, as_matrix, compose, frobenius, hermiticity_residual

#: Floor of the tolerance at which :func:`frame_from_involution` validates
#: its frame; the built-in constructors validate at exactly this tolerance.
CONSTRUCTION_TOL = 1e-12

#: The parity of one two-level cell: e1 <-> e2.
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


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
    """A triple {C, P, T} over a PT-frame, checked by :meth:`validate`.  The
    metric ``pc_matrix`` = P @ C and ``metric_spectrum`` = (w, U), w ascending,
    the one eigendecomposition of its Hermitian part, are formed once here,
    read-only: no consumer of the metric factors it again."""

    frame: PTFrame
    c: Operator
    pc_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    metric_spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.c.is_linear:
            raise KindMismatch("C must be a linear operator")
        if self.c.dim != self.frame.dim:
            raise DimensionMismatch(f"C has dimension {self.c.dim} but frame has dimension {self.frame.dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            pc = self.frame.p.matrix @ self.c.matrix
            spectrum = np.linalg.eigh((pc + pc.conj().T) / 2.0)
        for part in (pc, *spectrum):
            part.setflags(write=False)
        object.__setattr__(self, "pc_matrix", pc)
        object.__setattr__(self, "metric_spectrum", tuple(spectrum))

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def p(self) -> Operator:
        return self.frame.p

    @property
    def t(self) -> Operator:
        return self.frame.t

    def validate(self, tol: float = DEFAULT_TOL, pd_tol: float | None = None) -> FrameReport:
        """Check the CPT-frame axioms and report every violation with its
        residual.  PC is positive definite when its smallest metric eigenvalue
        is above ``pd_tol * |PC|`` (the largest eigenvalue modulus; ``pd_tol``
        defaults to ``tol``): equation residuals of an exact frame scale with
        |C|^2, the metric's spectral margin does not."""
        mp, mt, mc, pc = self.p.matrix, self.t.matrix, self.c.matrix, self.pc_matrix
        eye = np.eye(self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = (
                ("C^2 = I", frobenius(mc @ mc - eye)),
                ("CPT = TPC", frobenius(mc @ mp @ mt - mt @ mp.conj() @ mc.conj())),
                ("PC hermitian", hermiticity_residual(pc)),
            )
        violations = [(name, float(residual)) for name, residual in residuals if not residual <= tol]
        w = self.metric_spectrum[0]
        min_eig = float(w.min())
        pd_threshold = (tol if pd_tol is None else pd_tol) * float(np.abs(w).max())
        if not min_eig > pd_threshold:
            violations.append(("PC positive definite", pd_threshold - min_eig))
        return FrameReport(not violations, tuple(violations))


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

    mp, mt = p.matrix, t.matrix
    eye = np.eye(p.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = (
            ("P^2 = I", frobenius(mp @ mp - eye)),
            ("T^2 = I", frobenius(mt @ mt.conj() - eye)),
            ("PT = TP", frobenius(mp @ mt - mt @ mp.conj())),
        )
    violations = [(name, float(residual)) for name, residual in residuals if not residual <= tol]
    identity_distance = float(frobenius(mp - eye))
    if identity_distance <= tol:
        violations.append(("P != I", identity_distance))
    return FrameReport(not violations, tuple(violations))


def validate_cpt_frame(
    c: Operator, frame: PTFrame, tol: float = DEFAULT_TOL, pd_tol: float | None = None
) -> FrameReport:
    """Check the CPT-frame axioms for C over a PT-frame: :meth:`CPTFrame.validate`."""
    return CPTFrame(frame, c).validate(tol, pd_tol)


def checked_pt_frame(p: Operator, t: Operator, tol: float = DEFAULT_TOL) -> PTFrame:
    """Validate and assemble a PT-frame, raising FrameInvalid on failure."""
    validate_pt_frame(p, t, tol).require("PT-frame")
    return PTFrame(p, t)


def checked_cpt_frame(
    c: Operator, frame: PTFrame, tol: float = DEFAULT_TOL, pd_tol: float | None = None
) -> CPTFrame:
    """Validate and assemble a CPT-frame, raising FrameInvalid on failure."""
    cpt = CPTFrame(frame, c)
    cpt.validate(tol, pd_tol).require("CPT-frame")
    return cpt


def pair_swap_frame(n: int) -> PTFrame:
    """The pair-permutation frame on an even-dimensional space.

    P swaps basis vectors pairwise (e1 <-> e2, e3 <-> e4, ...) and T is
    entrywise conjugation.  This construction exists on every
    even-dimensional space, so a PT-frame is always available.
    """
    if n <= 0 or n % 2 != 0:
        raise InvalidArgument(f"pair-swap parity needs an even positive dimension, got {n}")
    return frame_from_involution(np.kron(np.eye(n // 2), SWAP), CONSTRUCTION_TOL)


def frame_from_involution(p_matrix, tol: float = DEFAULT_TOL) -> PTFrame:
    """The one constructor of a frame with T = entrywise conjugation from a
    real involution P, validated at ``max(tol, CONSTRUCTION_TOL)``.

    Raises NonRealEntries for complex-entried P (it need not commute with
    conjugation-T), then NotInvolution or IsIdentity where the validator
    reports P^2 = I or P != I violated, and FrameInvalid for any other
    violation.
    """
    a = as_matrix(p_matrix)
    if float(np.abs(a.imag).max(initial=0.0)) > tol:
        raise NonRealEntries("parity matrix must have real entries")
    p, t = Operator.linear(a), Operator.conjugation(a.shape[0])
    report = validate_pt_frame(p, t, max(tol, CONSTRUCTION_TOL))
    violated = dict(report.violations)
    if "P^2 = I" in violated:
        raise NotInvolution(f"P^2 = I fails with residual {violated['P^2 = I']:.3e}")
    if "P != I" in violated:
        raise IsIdentity("the identity matrix is not an admissible parity")
    report.require("PT-frame")
    return PTFrame(p, t)
