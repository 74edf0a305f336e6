"""PT-symmetry testing and broken/unbroken classification of eigensystems.

A Hamiltonian is PT-symmetric when (PT) H (PT) = H.  Its symmetry is
unbroken when every eigenstate is also an eigenstate of PT, which forces a
real spectrum; otherwise non-real eigenvalues come in conjugate pairs.

One pipeline, :func:`_classify_rows`, classifies a whole ``(N, n, n)``
stack over one frame: the non-finite guard, the PT check, the eigensolve and
the kernel, in one pass that returns one record of the stack, the frame,
``tol``, the eigensystem and the kernel's verdict arrays.
:func:`classify_stack` reads that record's arrays; :func:`classify_symmetry`
is its one-matrix case, which renders the record as a report and keeps it.
This module alone reads the record: :func:`_unbroken` hands
:mod:`cptkit.cpt` the checked H, the aligned states and their energies of an
unbroken matrix, classified with nothing rendered, or of a report, after
checking where the report came from.  Each row lists a matched conjugate
pair with its negative imaginary part first, the order in which the real
solve's exact conjugates sort.

Over a frame whose P is a permutation and whose T is conjugation, a
PT-symmetric H is a real matrix in the frame's PT-fixed basis, and is
eigendecomposed there in real arithmetic.  Each eigenvector of that solve
with an exactly real eigenvalue is Q x with x real, PT-fixed as it stands
with phase 0, so phase alignment runs only on the other real columns: those
of a dense frame, of a row that falls back to the complex solve, and of a
non-real eigenvalue within the reality width.

Both solves go through :func:`~cptkit.linops.stacked_eigensystem`, which
splits a row whose pattern (of H, or of its real form Q^+ H Q) has several
connected components into its blocks: a chain, a direct sum of 2x2 cells,
is solved as one stacked ``eig`` of its cells.  The row's eigenvectors are
then each supported on one block, and an eigenspace across blocks, as of
two equal cells, holds one eigenvector per block.  Every threshold stays
relative to the whole |H|, and the split moves eigenpairs by rounding at
most; a dense or irreducible row is solved whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NotPTEigenstate, NotUnbroken
from .frames import PTFrame, pair_swap_frame
from .linops import (
    COND_LIMIT,
    DEFAULT_TOL,
    EigenSystem,
    _fields_equal,
    as_matrix,
    as_vector,
    column_norms,
    frobenius,
    hermiticity_residual,
    require_finite_scale,
    require_regular,
    require_tolerance,
    stacked_eigensystem,
)

UNBROKEN = "unbroken"
BROKEN = "broken"
NOT_APPLICABLE = "not_applicable"

#: |Im(eigenvalue)| <= REALITY_FACTOR * max(1, |H|) counts as real; chosen an
#: order above the spectral residual tolerance to separate unbroken spectra
#: from conjugate pairs near exceptional points.
REALITY_FACTOR = 1e-9

#: Width, relative to max(1, |H|), for clustering real eigenvalues into
#: degenerate groups.
DEGENERACY_FACTOR = 1e-8

#: A PT phase within this of a full turn is phase zero: a PT eigenvalue of 1 up
#: to rounding, a tiny negative angle mod 2 pi, must not flip its state's sign.
PHASE_WRAP = 1e-8

#: Rank cutoff of the rebase, relative to the largest singular value: about
#: sqrt(machine epsilon), the customary cut between a span and rounding noise.
RANK_CUTOFF = 1e-8

#: A matrix whose largest Petermann factor K_k = |x_k|^2 |y_k|^2 / |y_k^+ x_k|^2
#: (x_k, y_k the right and left eigenvectors) reaches this value gets an
#: exceptional-point proximity warning.  The 2x2 cell has K = 1/(1 - x^2) unbroken
#: and x^2/(x^2 - 1) broken at breaking parameter x: this is its band |x - 1| <= 1e-6.
EP_WARNING_K = 1.0 / (1e-6 * (2.0 - 1e-6))


@dataclass(frozen=True)
class PTSymmetryCheck:
    """Boolean verdict plus the measured residual |(PT) H (PT) - H|."""

    symmetric: bool
    residual: float

    def __bool__(self) -> bool:
        return self.symmetric


@dataclass(frozen=True)
class AlignedState:
    """A real eigenvalue with a PT-fixed eigenvector and the phase theta of
    the original PT eigenvalue (PT psi = exp(i theta) psi).  The members of
    one eigenspace share one ``energy`` exactly; degenerate ones are orthonormal."""

    energy: float
    state: np.ndarray
    theta: float

    __eq__ = _fields_equal

    def __post_init__(self):
        self.state.setflags(write=False)


@dataclass(frozen=True)
class ConjugatePair:
    """A non-real eigenvalue matched with its complex conjugate partner."""

    value: complex
    partner: complex
    state: np.ndarray
    partner_state: np.ndarray

    __eq__ = _fields_equal


class _Rows(NamedTuple):
    """The record of :func:`_classify_rows` for an ``(N, n, n)`` stack: the
    checked ``stack`` (non-finite rows zeroed), the ``frame`` and ``tol`` it
    was classified at, its eigensystem (None in a report's record) with
    each row's largest eigenpair ``residual``, and the kernel's verdict arrays."""

    stack: np.ndarray
    frame: PTFrame
    tol: float
    eigen: EigenSystem | None
    residual: np.ndarray
    symmetric: np.ndarray
    pt_residual: np.ndarray
    energy: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    kept: np.ndarray
    rebased: np.ndarray
    partner: np.ndarray
    unpaired: np.ndarray
    petermann: np.ndarray
    classification: np.ndarray
    warning: np.ndarray


@dataclass(frozen=True)
class SymmetryReport:
    """The verdict of :func:`classify_symmetry`, which alone sets ``_analysis``:
    the record of its one pass of :func:`_classify_rows`, without the
    eigensystem, so an unbroken report holds no eigenvectors."""

    pt_symmetric: bool
    classification: str
    eigenvalues: np.ndarray
    aligned_states: tuple[AlignedState, ...]
    broken_pairs: tuple[ConjugatePair, ...]
    warnings: tuple[str, ...]
    pt_residual: float
    _analysis: _Rows | None = field(default=None, repr=False, compare=False)

    __eq__ = _fields_equal

    @property
    def eigenspaces(self) -> tuple[tuple[AlignedState, ...], ...]:
        """The aligned states grouped by eigenspace: runs of equal energy."""
        return tuple(tuple(run) for _, run in groupby(self.aligned_states, key=lambda s: s.energy))


@dataclass(frozen=True)
class TwoByTwoClass:
    """Structural taxonomy of a 2x2 matrix under the swap-parity frame.

    ``cpt_candidate_forms`` holds the satisfied structural forms, numbered 3
    (Hermitian), 4 (symmetric), 5 (PT-symmetric), 6 (PT-symmetric and
    Hermitian) and 7 (all of the above, forcing real entries a, b with
    H = [[a, b], [b, a]]).
    """

    hermitian: bool
    symmetric: bool
    pt_symmetric: bool
    cpt_candidate_forms: frozenset[int]


@dataclass(frozen=True)
class StackClassification:
    """Per-row verdicts of :func:`classify_stack` over an ``(N, n, n)`` stack.

    ``eigenvalues`` is ``(N, n)``, each row sorted as by ``eigendecompose``,
    except that a matched conjugate pair lists its negative imaginary part first.
    ``classification`` holds UNBROKEN, BROKEN or NOT_APPLICABLE, and ``warning``
    is true where :func:`classify_symmetry` would report a warning.  ``error``
    marks the rows for which :func:`classify_symmetry` would raise: non-finite
    entries, a Frobenius norm that overflows, or a defective spectrum.  On
    those rows the other fields carry no meaning.
    """

    eigenvalues: np.ndarray
    classification: np.ndarray
    warning: np.ndarray
    error: np.ndarray

    __eq__ = _fields_equal


def _checked(h, frame: PTFrame) -> np.ndarray:
    a = as_matrix(h)
    if a.shape[0] != frame.dim:
        raise DimensionMismatch(f"matrix dimension {a.shape[0]} does not match frame dimension {frame.dim}")
    return a


def _pt_check(a: np.ndarray, scale: np.ndarray, frame: PTFrame, tol: float):
    """The residual |(PT) H (PT) - H| of each matrix of a stack, and whether
    it is within ``tol * scale``."""
    difference = frame.pt_conjugate(a)  # a fresh array on every frame
    difference -= a
    residual = frobenius(difference)
    return residual <= tol * scale, residual


def is_pt_symmetric(h, frame: PTFrame, tol: float = DEFAULT_TOL) -> PTSymmetryCheck:
    """Test (PT) H (PT) = H via the antilinear composition rules.

    For entrywise-conjugation T this reduces to |H P - P conj(H)| = 0: an
    index gather of conj(H) when P is a permutation (every built-in frame),
    two dense products on a general frame.  The residual is compared against
    ``tol * |H|``; NonFiniteEntries is raised when |H| overflows, as by
    :func:`classify_symmetry`.  A ``tol`` that is not a positive, finite
    number raises InvalidArgument.
    """
    require_tolerance(tol)
    a = _checked(h, frame)
    scale = frobenius(a)
    require_finite_scale(scale)
    symmetric, residual = _pt_check(a[None], scale, frame, tol)
    return PTSymmetryCheck(bool(symmetric[0]), float(residual[0]))


def _align_columns(vectors: np.ndarray, frame: PTFrame, tol: float):
    """Phase-align every column of an ``(n, k)`` block, or of each block of
    an ``(N, n, k)`` stack, onto the PT-fixed ray.

    Returns ``(phi, theta, aligned, c, residual)``, each per column: rotated
    state, phase, whether the column is a PT eigenstate at ``tol``, best PT
    eigenvalue c = <v, PT v> / <v, v> and residual |PT v - c v|.
    """
    w = frame.apply_pt(vectors)
    norm_sq = np.einsum("...ij,...ij->...j", vectors.conj(), vectors).real
    c = np.einsum("...ij,...ij->...j", vectors.conj(), w) / norm_sq
    residual = column_norms(w - c[..., None, :] * vectors)
    aligned = (np.abs(np.abs(c) - 1.0) <= tol) & (residual <= tol * np.sqrt(norm_sq))
    theta = np.angle(c) % (2.0 * np.pi)
    theta[2.0 * np.pi - theta <= PHASE_WRAP] = 0.0
    return np.exp(0.5j * theta)[..., None, :] * vectors, theta, aligned, c, residual


def phase_align(v, frame: PTFrame, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Rotate a PT eigenstate onto the PT-fixed ray.

    If PT v = c v with |c| = 1, returns ``(exp(i theta / 2) v, theta)`` with
    theta = arg(c) in [0, 2*pi); the output phi satisfies PT phi = phi and
    keeps the Euclidean norm of v.  The best scalar is estimated as
    c = <v, PT v> / <v, v>.

    Raises NotPTEigenstate when |PT v - c v| > tol |v|, and InvalidArgument
    for a ``tol`` that is not a positive, finite number.
    """
    require_tolerance(tol)
    vec = as_vector(v)
    if not np.any(vec):
        raise NotPTEigenstate("cannot align the zero vector")
    phi, theta, aligned, c, residual = _align_columns(vec.reshape(-1, 1), frame, tol)
    if not aligned[0]:
        raise NotPTEigenstate(
            f"PT v deviates from the ray through v by {residual[0]:.3e} (best |c| = {abs(c[0]):.6f})"
        )
    return phi[:, 0], float(theta[0])


def _cluster_starts(re: np.ndarray, real: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Split the real eigenvalues of each row, sorted ascending, into runs of
    neighbours at most ``width`` apart, and mark the first member of each
    run.  A run of several members is a degenerate eigenspace."""
    below = np.maximum.accumulate(np.where(real, re, -np.inf), axis=-1)
    previous = np.concatenate([np.full_like(re[:, :1], -np.inf), below[:, :-1]], axis=-1)
    return real & (re - previous > width)


def _runs(key: np.ndarray) -> dict[int, np.ndarray]:
    """The runs of equal neighbours in the 1-D ``key``, grouped by length:
    for each run length m, the ``(g, m)`` positions of the g runs of that
    length.  An empty key has no runs."""
    if not len(key):
        return {}
    bounds = np.concatenate(([True], key[1:] != key[:-1], [True])).nonzero()[0]
    first, size = bounds[:-1], bounds[1:] - bounds[:-1]
    return {m: first[size == m, None] + np.arange(m) for m in set(size.tolist())}


def _pt_fixed_basis(columns: np.ndarray, frame: PTFrame) -> tuple[np.ndarray, np.ndarray]:
    """Build an orthonormal PT-fixed basis of the space spanned by the m
    columns of each block of a ``(g, n, m)`` stack, in one stacked SVD.

    Each candidate v yields the PT-fixed vectors v + PT v and i (v - PT v),
    which span the PT-fixed part over the reals.  The basis is the leading
    m left singular vectors of their real embedding [Re; Im]: real
    combinations keep PT-fixedness exact, and the basis depends only on the
    span, up to a real rotation.  Returns ``(basis, full)``, where ``full``
    is false for each block whose candidates have fewer than m singular
    values above RANK_CUTOFF times the largest: no PT-fixed basis of its span
    exists, and its ``basis`` means nothing.
    """
    n, m = columns.shape[1:]
    w = frame.apply_pt(columns)
    candidates = np.concatenate([columns + w, 1j * (columns - w)], axis=-1)
    left, singular, _ = np.linalg.svd(np.concatenate([candidates.real, candidates.imag], axis=-2), full_matrices=False)
    full = np.count_nonzero(singular > RANK_CUTOFF * singular[:, :1], axis=-1) >= m
    return left[:, :n, :m] + 1j * left[:, n:, :m], full


def _pair(values: np.ndarray, nonreal: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Match conjugate eigenvalues in each row: every non-real eigenvalue with
    positive imaginary part, in ascending order, takes the nearest unmatched
    one with negative imaginary part within ``width`` of its conjugate.
    Returns the partner index of each eigenvalue, -1 where there is none."""
    partner = np.full(values.shape, -1)
    if not nonreal.any():
        return partner
    upper = nonreal & (values.imag > 0)
    free = nonreal & (values.imag < 0)
    rows = np.arange(len(values))
    for i in np.flatnonzero(upper.any(0)):
        d = np.where(free & upper[:, i, None], np.abs(values - values[:, i, None].conj()), np.inf)
        j = d.argmin(-1)
        hit = d[rows, j] <= width[:, 0]
        matched, j = rows[hit], j[hit]
        partner[matched, i] = j
        partner[matched, j] = i
        free[matched, j] = False
    return partner


def _petermann(vectors: np.ndarray) -> np.ndarray:
    """The largest Petermann factor of each unit-column eigenvector matrix V of a
    stack: row k of V^-1 is y_k^+ scaled to y_k^+ x_k = 1, so K_k = |row k|^2."""
    inverse = np.linalg.inv(vectors)
    return np.add.reduce((inverse.conj() * inverse).real, axis=-1).max(-1)


def _eigensystems(a: np.ndarray, norm: np.ndarray, symmetric: np.ndarray, frame: PTFrame, tol: float):
    """The sorted eigensystem of each matrix of an ``(N, n, n)`` stack with
    Frobenius norms ``norm`` and PT verdicts ``symmetric``, each row's
    largest eigenpair residual, and which rows were solved in the real basis.

    A PT-symmetric row over a frame with a real basis Q is solved as the
    real matrix Re(Q^+ H Q), and its eigenvectors are mapped back by Q.
    That is an exact eigensystem of H's PT-symmetric part, which differs
    from H by half the PT residual, at most ``tol * |H| / 2``.  Every
    other row is solved as complex, in one stacked call with the rows whose
    real solve is defective or passes the exceptional-point gate, so every
    warning and error comes from the complex solve of H itself.

    Both solves take the Gram certificate of
    :func:`~cptkit.linops.stacked_eigensystem` at the gate ``EP_WARNING_K``:
    a row whose cond(V)^2 it bounds below the gate, by the margin
    2 (n + 2) (n + 4) eps in the Gram row sum, keeps that bound as its
    condition and takes no SVD.  The bound is on the same side of the gate
    and of ``COND_LIMIT`` as the SVD's cond(V), so every fallback, verdict,
    warning and error is as with the SVD on every row, and an error's
    condition, that of a row the certificate does not clear, is the SVD's.
    """
    real = symmetric & (norm < np.inf)
    whole = bool(real.all())
    basis = frame.real_basis if whole or real.any() else None
    if basis is None:
        return (*stacked_eigensystem(a, norm, tol, EP_WARNING_K), np.zeros(len(a), dtype=bool))
    form = basis.form(a if whole else a[real]).real
    eigen, residual = stacked_eigensystem(form, norm if whole else norm[real], tol, EP_WARNING_K)
    regular = ~(eigen.defective | _past_ep_gate(eigen.condition))
    if whole and regular.all():  # the common case: nothing falls back
        vectors = basis.from_basis(eigen.vectors)
        return EigenSystem(eigen.values.astype(complex), vectors, eigen.condition, eigen.defective), residual, real
    real[real] = regular  # the rows whose real solve is kept
    fallback = ~real
    rest, rest_residual = stacked_eigensystem(a[fallback], norm[fallback], tol, EP_WARNING_K)
    values, vectors = np.empty(a.shape[:2], dtype=complex), np.empty(a.shape, dtype=complex)
    condition, residuals, defective = np.empty(len(a)), np.empty(len(a)), np.zeros(len(a), dtype=bool)
    values[real], vectors[real] = eigen.values[regular], basis.from_basis(eigen.vectors[regular])
    condition[real], residuals[real] = eigen.condition[regular], residual[regular]
    values[fallback], vectors[fallback] = rest.values, rest.vectors
    condition[fallback], residuals[fallback], defective[fallback] = rest.condition, rest_residual, rest.defective
    return EigenSystem(values, vectors, condition, defective), residuals, real


def _past_ep_gate(condition: np.ndarray) -> np.ndarray:
    """Whether a row may reach EP_WARNING_K: max K <= |V^-1|^2 <= cond(V)^2.
    ``condition`` is cond(V) from the SVD, or the Gram certificate's bound
    on it where :func:`_eigensystems` cleared the row: a bound whose square
    lies below EP_WARNING_K by the margin 2 (n + 2) (n + 4) eps in the Gram
    row sum, so a cleared row is not past the gate, as by the SVD."""
    return np.minimum(condition, COND_LIMIT) ** 2 >= EP_WARNING_K


def _classify_rows(a: np.ndarray, norm: np.ndarray, frame: PTFrame, tol: float) -> _Rows:
    """The classification pipeline of an ``(N, n, n)`` stack with Frobenius
    norms ``norm``: the rows that are not finite or whose norm overflows are
    zeroed, then the PT check of :func:`_pt_check`, the eigensystems of
    :func:`_eigensystems` and the kernel: reality, degenerate clusters, phase
    alignment, conjugate pairs and exceptional-point proximity, each computed
    for all rows at once.  Alignment runs on the whole stack, where any real
    column needs it, and is kept on those columns only: a column of a real
    solve (see the module docstring) with an exactly real eigenvalue keeps
    its eigenvector with phase 0, so a row of a stack is classified bit for
    bit as the row alone.

    ``kept`` marks the columns of ``phi`` that hold aligned states, with
    phase ``theta`` and their eigenspace's ``energy``.  Each real eigenspace
    of a PT-symmetric row that is degenerate, or simple with a sour phase
    alignment, is rebased in place (``rebased`` marks the simple ones), or
    dropped from ``kept`` where that fails, which breaks the symmetry.  These eigenspaces are
    gathered across the whole stack and grouped by size by :func:`_runs`,
    with one stacked :func:`_pt_fixed_basis` per size.  The verdicts are
    read off these arrays; rows marked ``eigen.defective`` are not rebased
    and never warn.  A matched pair that a complex solve lists upper member
    first has its two columns swapped, in the eigensystem, ``phi`` and
    ``theta``, so every row lists it as the real solve does.
    """
    scaled = norm < np.inf
    if not scaled.all():  # non-finite entries, or a norm that overflows: error rows, kept out of the PT check
        a = np.where(scaled[:, None, None], a, 0.0)
    symmetric, pt_residual = _pt_check(a, norm, frame, tol)
    eigen, residual, solved_real = _eigensystems(a, norm, symmetric, frame, tol)
    values, vectors, condition = eigen.values, eigen.vectors, eigen.condition
    settled = ~eigen.defective
    scale = np.maximum(1.0, norm)[:, None]
    real = np.abs(values.imag) <= REALITY_FACTOR * scale
    start = _cluster_starts(values.real, real, DEGENERACY_FACTOR * scale)
    # a column of a real solve with an exactly real eigenvalue is Q x, x real:
    # PT-fixed as it stands, with phase 0, so only the other real columns need aligning
    fixed = solved_real[:, None] & (values.imag == 0)
    if (real & ~fixed).any():
        phi, theta, phase_ok, _, _ = _align_columns(vectors, frame, tol)
        row, col = np.nonzero(fixed)
        phi[row, :, col], theta[row, col], phase_ok[row, col] = vectors[row, :, col], 0.0, True
    else:  # nothing to align, as on a row of a real solve or a broken 2x2 row
        phi, theta, phase_ok = vectors, np.zeros(real.shape), real
    nonreal = symmetric[:, None] & ~real
    partner = _pair(values, nonreal, DEGENERACY_FACTOR * scale)
    # only rows past the gate can warn; error rows are left out
    gate = (condition <= COND_LIMIT) & _past_ep_gate(condition)
    petermann = np.zeros(len(values))
    if gate.any():
        petermann[gate] = _petermann(vectors[gate])
    if nonreal.any():  # a complex solve lists a pair in an order set by rounding: its lower member goes first
        row, i = np.nonzero(settled[:, None] & (values.imag > 0) & (partner > np.arange(values.shape[1])))
        if len(row):
            j = partner[row, i]  # the partners stay partners when the two columns swap
            values, vectors, phi, theta = (part.copy() for part in (values, vectors, phi, theta))
            for part in (values, vectors, phi, theta):
                part[row, ..., i], part[row, ..., j] = part[row, ..., j], part[row, ..., i]
            eigen = EigenSystem(values, vectors, condition, eigen.defective)

    kept = symmetric[:, None] & real & start & phase_ok
    energy, rebased = values.real, np.zeros_like(kept)
    broken = nonreal.any(-1)
    irregular = settled & symmetric & (real & ~kept).any(-1)
    if irregular.any():
        energy = energy.copy()
        if phi is vectors:  # rebased in place, so not in the read-only eigensystem
            phi = vectors.copy()
        label = np.cumsum(start).reshape(start.shape)  # the eigenspace of each real column, numbered across rows
        irregular_space = np.zeros(label[-1, -1] + 1, dtype=bool)
        irregular_space[label[irregular[:, None] & real & ~kept]] = True
        row, col = np.nonzero(real & irregular_space[label])  # non-real columns may sit inside a label run
        across = np.arange(vectors.shape[1])[:, None]
        for m, runs in _runs(label[row, col]).items():
            r, c = row[runs], col[runs]  # (g, m): the members of each eigenspace of size m
            # the v + PT v rebase; where it finds no PT-fixed basis, the whole
            # eigenspace is dropped, its first member too
            basis, full = _pt_fixed_basis(vectors[r[:, None], across, c[:, None]], frame)
            kept[r, c] = full[:, None]
            r, c = r[full], c[full]
            phi[r[:, None], across, c[:, None]] = basis[full]
            theta[r, c], rebased[r, c] = 0.0, m == 1
            energy[r, c] = (values.real[r, c].sum(-1) / m)[:, None]
        broken |= irregular & (real & ~kept).any(-1)

    unpaired = nonreal & (partner < 0)
    classification = np.where(symmetric, np.where(broken, BROKEN, UNBROKEN), NOT_APPLICABLE)
    warning = settled & ((petermann >= EP_WARNING_K) | (unpaired | rebased).any(-1))
    return _Rows(
        a, frame, tol, eigen, residual, symmetric, pt_residual, energy, phi, theta, kept, rebased,
        partner, unpaired, petermann, classification, warning,
    )


def _classify_one(h, frame: PTFrame, tol: float) -> _Rows:
    """The record of :func:`_classify_rows` for one matrix, with the raises
    of :func:`classify_symmetry`."""
    require_tolerance(tol)
    a = _checked(h, frame)
    norm = frobenius(a[None])
    require_finite_scale(norm[0])
    rows = _classify_rows(a[None], norm, frame, tol)
    require_regular(rows.eigen, rows.residual, norm, tol)
    return rows


def _unbroken(h, frame: PTFrame, tol: float | None, caller: str):
    """The checked H, the aligned states as one ``(n, n)`` array and their
    energies, of an unbroken Hamiltonian over ``frame``, for ``caller``:
    a matrix is classified here at ``tol``; a report is taken only if
    :func:`classify_symmetry` made it over a frame equal to ``frame`` at
    ``tol``, or at any tolerance where ``tol`` is None, which takes only a
    report.  Raises InvalidArgument for any other report, and NotUnbroken
    unless the classification is unbroken."""
    if tol is None or isinstance(h, SymmetryReport):
        rows = getattr(h, "_analysis", None)
        if rows is None or tol not in (None, rows.tol) or not (rows.frame is frame or rows.frame == frame):
            at = "" if tol is None else f" at tolerance {tol!r}"
            raise InvalidArgument(f"{caller} takes a report of classify_symmetry over this frame{at}")
    else:
        rows = _classify_one(h, frame, tol)
    if rows.classification[0] != UNBROKEN:
        raise NotUnbroken(f"{caller} requires unbroken symmetry, got {rows.classification[0]} "
                          f"(PT residual {rows.pt_residual[0]:.3e})")
    return rows.stack[0], rows.phi[0], rows.energy[0]


def classify_symmetry(h, frame: PTFrame, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Classify the symmetry phase of a Hamiltonian over a PT-frame.

    Pipeline: decide PT-symmetry (otherwise the classification is
    not-applicable), eigendecompose (in the real basis of an index frame,
    see :func:`_eigensystems`), then try to align every real-eigenvalue
    eigenstate onto the PT-fixed ray: one that the real solve found with an
    exactly real eigenvalue is PT-fixed already, with theta 0, and only the
    others are phase-aligned.  Degenerate real eigenspaces are
    re-based with the v + PT v construction, which is exact by antilinear
    involution algebra.  The result is unbroken exactly when all eigenvalues
    are real and every eigenstate aligns; otherwise it is broken and the
    non-real eigenvalues are matched into conjugate pairs.

    cond(V), which gates the exceptional-point checks, is the Gram
    certificate's bound where that bound, with its margin of
    2 (n + 2) (n + 4) eps in the Gram row sum, lies below ``EP_WARNING_K``,
    and the SVD's value elsewhere: the verdicts, warnings and errors are
    those of the SVD on every row (see :func:`_eigensystems`).

    Warnings flag, in this order, a largest Petermann factor at or above
    ``EP_WARNING_K`` (exceptional-point proximity, for any n and frame), each
    simple eigenvector aligned by rebasing, in ascending energy, and each
    unpaired non-real eigenvalue, those above the real axis first.

    This is the one-matrix case of :func:`classify_stack`: the report renders
    the pipeline's record for a stack of one, and where the stack marks the
    row as an error this raises.  NonFiniteEntries (also for a Frobenius norm
    that overflows) and DefectiveSpectrum from the eigensolver propagate, and
    a ``tol`` that is not a positive, finite number raises InvalidArgument.
    The report also keeps that record, privately and without its
    eigensystem, so a report passed to :func:`~cptkit.cpt.build_c` or
    :func:`~cptkit.cpt.aligned_signs` is not classified again.
    """
    rows = _classify_one(h, frame, tol)
    values, vectors, phi, kept = rows.eigen.values[0], rows.eigen.vectors[0], rows.phi[0], rows.kept[0]
    energies, thetas = rows.energy[0, kept].tolist(), rows.theta[0, kept].tolist()
    aligned = tuple(AlignedState(e, phi[:, j], t) for j, e, t in zip(np.flatnonzero(kept).tolist(), energies, thetas))
    pairs, warnings = (), []
    if rows.classification[0] == BROKEN:
        paired = np.flatnonzero((values.imag > 0) & (rows.partner[0] >= 0)).tolist()
        pairs = tuple(
            ConjugatePair(complex(values[j]), complex(values[k]), vectors[:, j], vectors[:, k])
            for j, k in zip(paired, rows.partner[0, paired].tolist())
        )
    if rows.warning[0]:  # the texts of the masks that set the warning bit
        if rows.petermann[0] >= EP_WARNING_K:
            warnings.append(
                f"exceptional-point proximity: Petermann factor {rows.petermann[0]:.3e} reaches the threshold "
                f"{EP_WARNING_K:.3e}; eigenvectors nearly coalesce and results are ill-conditioned"
            )
        warnings += [
            f"eigenvector for E = {energy:.6g} aligned via rebasing, not by phase"
            for energy in rows.energy[0, rows.rebased[0]].tolist()
        ]
        warnings += [
            f"non-real eigenvalue {values[j]:.6g} has no conjugate partner"
            for j in sorted(np.flatnonzero(rows.unpaired[0]).tolist(), key=lambda j: values[j].imag < 0)
        ]
    return SymmetryReport(
        bool(rows.symmetric[0]), str(rows.classification[0]), values, aligned, pairs, tuple(warnings),
        float(rows.pt_residual[0]), rows._replace(eigen=None),
    )


def classify_stack(hs, frame: PTFrame, tol: float = DEFAULT_TOL) -> StackClassification:
    """Classify every matrix of an ``(N, n, n)`` stack over one PT-frame.

    One stacked real eigendecomposition (the PT-symmetric rows over an index
    frame), one stacked complex one (every other row) and one pass of the
    classification kernel cover the whole stack; the real eigenspaces that
    are degenerate or fail phase alignment are rebased in one SVD per
    eigenspace size, for every row at once.  Each row gets the
    classification and warning flag of the kernel's arrays, which
    :func:`classify_symmetry` renders for its matrix.  A row on which
    :func:`classify_symmetry` would raise is marked in ``error`` instead, so
    one bad row never stops the others.  A ``tol`` that is not a positive,
    finite number raises InvalidArgument for the whole stack.
    """
    require_tolerance(tol)
    a = np.asarray(hs, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (frame.dim, frame.dim):
        raise DimensionMismatch(f"expected a stack of {frame.dim}x{frame.dim} matrices, got shape {a.shape}")
    rows = _classify_rows(a, frobenius(a), frame, tol)
    return StackClassification(rows.eigen.values, rows.classification, rows.warning, rows.eigen.defective)


def classify_2x2(h, tol: float = DEFAULT_TOL) -> TwoByTwoClass:
    """Evaluate the structural predicates of a 2x2 matrix (swap frame implied):
    Hermitian, symmetric, PT-symmetric, and their conjunctions, each residual
    relative to ``tol * |H|``."""
    a = as_matrix(h)
    if a.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {a.shape}")
    # the PT check raises NonFiniteEntries first when |H| overflows; below
    # that scale neither residual can overflow
    pt_symmetric = bool(is_pt_symmetric(a, pair_swap_frame(2), tol))
    bound = tol * frobenius(a)
    hermitian = bool(hermiticity_residual(a) <= bound)
    symmetric = bool(frobenius(a - a.T) <= bound)
    held = (hermitian, symmetric, pt_symmetric, pt_symmetric and hermitian, pt_symmetric and hermitian and symmetric)
    return TwoByTwoClass(hermitian, symmetric, pt_symmetric, frozenset(k for k, on in enumerate(held, 3) if on))
