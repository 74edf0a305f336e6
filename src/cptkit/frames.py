"""Construction and validation of PT-frames and CPT-frames.

A PT-frame is a pair {P, T} with P linear and not the identity, T antilinear,
P^2 = T^2 = I and PT = TP.  A CPT-frame adds a linear C with C^2 = I,
CPT = TPC and PC Hermitian positive definite.  The validators form each
residual from the matrix parts and report one that overflows as a violation
with residual inf.  A :class:`CPTFrame` factors its metric PC once, with one
``eigh`` of its Hermitian part; validation, C synthesis, Hermitization and
the CPT adjoint all read that one factorization.

Every built-in frame has a permutation P and T = entrywise conjugation: the
pair swap, the 3x3 family and doubling (from :func:`frame_from_involution`),
tensor products and direct sums of these, also read back from a document.
Such a frame stores P's index array: its PT-axiom check is O(n), and P and
PT act by index.  Its PT-fixed basis Q is a permutation-sparse unitary, so
PT is plain complex conjugation in that basis and a PT-symmetric H is the
real matrix Q^+ H Q (Bender & Mannheim, Phys. Lett. A 374, 1616 (2010)).
The frame's :class:`RealBasis` (``real_basis``) holds Q with its maps, a
stack into that basis and eigenvectors back, each in O(n^2); every consumer
works in the real basis exactly when the frame has one.  Any other
admissible P and antilinear T (a moved frame, a document frame) has none
and takes the dense matrix path.

In that basis P is the signature J = Q^+ P Q = diag(+-1), and a C
synthesized there is the real C_r = Q^+ C Q (the Krein-form algebra is in
:mod:`cptkit.cpt`).  A :class:`CPTFrame` given such a C_r (``_c_real``)
factors its metric M = J C_r with one real ``eigh``, validates in real
products, where CPT = TPC holds exactly, and forms the metric's powers,
Hermitization and the CPT adjoint in real products too; one built from a C
alone takes the dense path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    DEFAULT_TOL,
    Operator,
    _require_threshold,
    apply,
    commutator_check,
    compose,
    frobenius,
    hermitian_spectrum,
    hermiticity_residual,
    operand,
    positive_definiteness,
    spectral_powers,
)

#: Floor of the tolerance at which :func:`frame_from_involution` validates
#: its frame; the built-in constructors validate at exactly this tolerance.
CONSTRUCTION_TOL = 1e-12


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


def _combine(own: np.ndarray, w0: np.ndarray, w1: np.ndarray, perm: np.ndarray, axis: int) -> np.ndarray:
    """w0 X + w1 X', X' the gather ``X.take(perm, axis)``, for the weights
    ``w0``, ``w1`` of the real basis and a complex X, ``own``, that the caller
    gives up: formed in its place, so that the only new array is X' (the
    fresh arrays of a map, not its O(n^2) arithmetic, dominate its time)."""
    out = own.take(perm, axis=axis)
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
    P is Hermitian are formed once, on first use.  Every consumer applies P
    and PT through the methods below, a gather on an index frame and dense
    otherwise, and works in the real basis exactly when ``real_basis`` is set.
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
        return self.p.dim

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
        gathered = a.take(self.perm, axis=1).take(self.perm, axis=2)
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
    metric ``pc_matrix`` = P @ C and the one eigendecomposition (w, U), w
    ascending, of its Hermitian part are formed once here, read-only: no
    consumer of the metric factors it again, and its powers are formed from
    that spectrum, the roots once per tolerance.  A frame synthesized in the
    real basis Q of an index frame is given its real C_r = Q^+ C Q as
    ``_c_real``, with C = Q C_r Q^+, and keeps it read-only; it factors
    M = J C_r = Q^+ (PC) Q with one real ``eigh`` into (w, U_r), and forms
    the metric's powers, Hermitization and the CPT adjoint in real products
    of that basis; ``metric_spectrum`` is then (w, Q U_r), formed on first
    use.  The H and ``tol`` of the last passing [C, H] check are kept as
    ``_commuting``."""

    frame: PTFrame
    c: Operator
    pc_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _roots: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _c_real: np.ndarray | None = field(default=None, repr=False, compare=False, kw_only=True)
    _commuting: tuple[np.ndarray, float] | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.c.is_linear:
            raise KindMismatch("C must be a linear operator")
        if self.c.dim != self.frame.dim:
            raise DimensionMismatch(f"C has dimension {self.c.dim} but frame has dimension {self.frame.dim}")
        if self._c_real is not None:
            self._c_real.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "pc_matrix", self.frame.apply_p(self.c.matrix))
            m = self._metric()
            spectrum = hermitian_spectrum((m + m.conj().T) / 2.0)
        for part in (self.pc_matrix, *spectrum):
            part.setflags(write=False)
        object.__setattr__(self, "_spectrum", spectrum)

    @cached_property
    def metric_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, U), w ascending, the eigendecomposition of PC's Hermitian
        part, read-only: (w, Q U_r) on a frame synthesized in the real basis."""
        if self._c_real is None:
            return self._spectrum
        w, u = self._spectrum
        u = self.frame.real_basis.from_basis(u)
        u.setflags(write=False)
        return w, u

    def _metric(self) -> np.ndarray:
        """The metric in the frame's own basis: M = J C_r = Q^+ (PC) Q on a
        frame synthesized in the real basis, PC on any other."""
        if self._c_real is None:
            return self.pc_matrix
        return self.frame.real_basis.signature * self._c_real

    def _metric_powers(self, powers, tol: float) -> tuple[np.ndarray, ...]:
        """:func:`~cptkit.linops.spectral_powers` of :meth:`_metric` from its
        one spectrum, with its errors at ``tol``: real on a frame synthesized
        in the real basis."""
        return spectral_powers(self._metric(), self._spectrum, powers, tol)

    def _similarity(self, left: np.ndarray, a: np.ndarray, right: np.ndarray) -> np.ndarray:
        """left A right, for ``left`` and ``right`` in the frame's own basis,
        as :meth:`_metric_powers` forms them: on a frame synthesized in the
        real basis, Q (left (Q^+ A Q) right) Q^+ in real products, with
        Q^+ A Q split into its real and imaginary parts.  An exactly real
        Q^+ A Q, as of every built-in model, takes the real part's two
        products alone, and its imaginary part is written as the +0.0 that
        the products of zeros give."""
        if self._c_real is None:
            return left @ a @ right
        basis = self.frame.real_basis
        form = basis.form(a)
        if np.count_nonzero(form.imag):
            form.real, form.imag = left @ np.stack([form.real, form.imag]) @ right
        else:
            form.real, form.imag = left @ np.ascontiguousarray(form.real) @ right, 0.0
        return basis.from_form(form)

    def _require_commuting(self, h: np.ndarray, tol: float) -> np.ndarray:
        """Raise CommutatorViolation unless :func:`~cptkit.linops.commutator_check`
        of C (C_r and Q^+ H Q, if synthesized in the real basis) and the
        read-only H passes at ``tol``; return the H that passed.  An H equal,
        entrywise, to that of the last pass passes at a ``tol`` no tighter with no product."""
        last = self._commuting
        if last is not None and tol >= last[1] and (h is last[0] or np.array_equal(h, last[0])):
            return last[0]
        if self._c_real is None:
            residual, commutes = commutator_check(self.c.matrix, h, tol)
        else:  # passed, not bound, so the complex Q^+ H Q is freed once split into real parts
            residual, commutes = commutator_check(self._c_real, self.frame.real_basis.form(h), tol)
        if not commutes:
            raise CommutatorViolation(f"[C, H] residual {residual:.3e} exceeds tolerance; "
                                      "the frame is not a frame for H")
        object.__setattr__(self, "_commuting", (h, tol))
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

    def _basis_roots(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """The roots of :meth:`_metric`, ``(0.5, -0.5)`` powers by
        :meth:`_metric_powers`, read-only: formed on first use at each
        tolerance and kept, so Hermitization and the emitted roots share one
        formation."""
        roots = self._roots.get(tol)
        if roots is None:
            roots = self._metric_powers((0.5, -0.5), tol)
            for root in roots:
                root.setflags(write=False)
            self._roots[tol] = roots
        return roots

    def metric_roots(self, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """(PC)^(1/2) and (PC)^(-1/2) from the metric spectrum, read-only, with
        the errors of :func:`~cptkit.linops.spectral_powers` at ``tol``.  The
        roots are formed once per tolerance, those of a frame synthesized in
        the real basis as the real roots R of M, which :func:`~cptkit.cpt.hermitize`
        reads; this maps them back, Q R Q^+, on each call."""
        roots = self._basis_roots(tol)
        if self._c_real is None:
            return roots
        mapped = tuple(self.frame.real_basis.from_form(root) for root in roots)
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
        A frame synthesized in the real basis is checked there, on C_r (of
        the norm of C) and M, in real products.  A nan, negative or infinite
        ``tol`` raises InvalidArgument."""
        _require_threshold(tol)
        dense = self._c_real is None
        mc, pc = (self.c.matrix if dense else self._c_real), self._metric()
        min_eig, threshold = positive_definiteness(self._spectrum[0], tol)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = tol * max(1.0, frobenius(mc)) ** 2
            residuals = (
                ("C^2 = I", frobenius(mc @ mc - np.eye(self.dim)), bound),
                # in the real basis TP is conjugation, which fixes the real C_r exactly
                ("CPT = TPC", self.frame._cpt_residual(mc) if dense else 0.0, bound),
                ("PC hermitian", hermiticity_residual(pc), threshold),
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
    return frame_from_involution(np.eye(n)[np.arange(n) ^ 1], CONSTRUCTION_TOL)


def frame_from_involution(p_matrix, tol: float = DEFAULT_TOL) -> PTFrame:
    """The one constructor of a frame with T = entrywise conjugation from a
    real involution P, validated at ``max(tol, CONSTRUCTION_TOL)``.

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
        raise IsIdentity("the identity matrix is not an admissible parity")
    report.require("PT-frame")
    return frame
