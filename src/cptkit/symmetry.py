"""PT-symmetry testing and broken/unbroken classification of eigensystems.

A Hamiltonian is PT-symmetric when (PT) H (PT) = H.  Its symmetry is
unbroken when every eigenstate is also an eigenstate of PT, which forces a
real spectrum; otherwise non-real eigenvalues come in conjugate pairs.

One pipeline, :func:`_classify_rows`, classifies a whole ``(N, n, n)``
stack over one frame: the non-finite guard, the PT check, the eigensolve and
the kernel, in one pass that returns one record of the stack, the frame,
``tol``, each row's values, cond(V) and residual, the kernel's verdict
arrays and the states of each part it ran on.  :func:`classify_stack` reads
that record's arrays; :func:`classify_symmetry` is its one-matrix case,
which renders the record as a report and keeps it.  This module alone reads
the record: :func:`_unbroken` hands :mod:`cptkit.cpt` the checked H, the
energies of the aligned states and the states themselves, block by block,
of an unbroken matrix, classified with nothing rendered, or of a report,
after checking where the report came from.  Each row lists a matched conjugate
pair with its negative imaginary part first, the order in which the real
solve's exact conjugates sort.

Over a frame whose P is a permutation and whose T is conjugation, a
PT-symmetric H is a real matrix in the frame's PT-fixed basis Q, and is
eigendecomposed there in real arithmetic.  Each eigenvector of that solve
is the real-basis coordinate vector x of the state Q x, and one with an
exactly real eigenvalue is PT-fixed as it stands, with phase 0, since PT is
conjugation there; phase alignment runs only on the other real columns:
those of a non-real eigenvalue within the reality width, and those of the
rows solved as complex, in the original basis (a dense frame, a row that is
not PT-symmetric, a row that falls back).

Over an index frame the pipeline runs block by block, in the real basis,
on every row it solves there: a row whose pattern, with P's pairs joined,
has several connected components (at dimension ``_SPLIT_DIM`` or more) is
split into them, labeled once per classification, before the PT check,
which reads the same blocks, each block of Re(Q^+ H Q) formed from H's
block; any other row is one block of the whole basis.  The kernel runs on
stacks of equal-size blocks, where PT is conjugation.  A chain, a direct
sum of 2x2 cells, is classified as one stack of its cells.  Degeneracy clusters and the rebase stay within a block, so an
eigenspace across blocks, as of two equal cells, holds one eigenvector per
block and takes no rebase.  Every threshold stays the whole row's: the
reality and degeneracy widths against the whole |H|, the eigenpair residuals
against ``tol |H|``, cond(V) and the Gram certificate's margin at the joined
n; the row's verdicts are read off its blocks.  A row's states stay the
block stacks the kernel ran on, from the eigensolve to the record, with no
``(n, n)`` array joined in between: :mod:`cptkit.cpt` synthesizes C from
them block by block, and a report maps them back, block by block, once.
A row whose real solve is defective or passes the exceptional-point gate,
like every row over a dense frame, takes the complex solve of
:func:`~cptkit.linops.stacked_eigensystem`, which splits the pattern of H
itself for the eigensolve alone, and keeps its states whole, in the
original basis; a row of a stack is classified as the row alone.
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
    _entries,
    _fields_equal,
    _one_block,
    as_vector,
    column_norms,
    frobenius,
    hermiticity_residual,
    require_finite_scale,
    require_regular,
    require_tolerance,
    scaled_matrix,
    split_eigensystem,
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
    was classified at, each row's sorted ``values`` (a matched pair lower
    member first), cond(V), ``defective`` mask and largest eigenpair
    ``residual``, the kernel's verdict arrays, and the ``parts`` the kernel
    ran on, each ``(rows, at, col, states)`` with the part's states, ``phi``:
    for each block size of the rows solved in the real basis, the ``(g,)``
    rows, the ``(g, m)`` indices and sorted columns of the blocks and their
    ``(g, m, m)`` states in that basis; for the rows solved as complex, the
    rows, ``at`` and ``col`` None and their ``(k, n, n)`` states in the
    original basis."""

    stack: np.ndarray
    frame: PTFrame
    tol: float
    values: np.ndarray
    condition: np.ndarray
    defective: np.ndarray
    residual: np.ndarray
    symmetric: np.ndarray
    pt_residual: np.ndarray
    energy: np.ndarray
    theta: np.ndarray
    kept: np.ndarray
    rebased: np.ndarray
    partner: np.ndarray
    unpaired: np.ndarray
    petermann: np.ndarray
    classification: np.ndarray
    warning: np.ndarray
    parts: list


@dataclass(frozen=True)
class SymmetryReport:
    """The verdict of :func:`classify_symmetry`, which alone sets ``_analysis``:
    the record of its one pass of :func:`_classify_rows`, which holds the
    kernel's states of each part and no eigensystem."""

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


def _checked(h, frame: PTFrame) -> tuple[np.ndarray, np.ndarray]:
    """H as a read-only complex copy and its Frobenius norm |H|, inf where
    it overflows, the copy read once for both (:func:`~cptkit.linops.scaled_matrix`).
    The checks run in this order: a square matrix (DimensionMismatch),
    finite entries (NonFiniteEntries), the frame's dimension
    (DimensionMismatch); a norm that overflows is left to the caller,
    :func:`~cptkit.linops.require_finite_scale` where it measures against |H|."""
    a, scale = scaled_matrix(h)
    if a.shape[0] != frame.dim:
        raise DimensionMismatch(f"matrix dimension {a.shape[0]} does not match frame dimension {frame.dim}")
    return a, scale


def _pt_check(a: np.ndarray, scale: np.ndarray, frame: PTFrame, tol: float, labeled=None):
    """The residual |(PT) H (PT) - H| of each matrix of a stack, and whether
    it is within ``tol * scale``.  Given ``labeled``, the partition of every
    row by the labeling of an index frame (see
    :meth:`~cptkit.frames.RealBasis.components`), a row that it splits takes
    the root-sum-square over its blocks of the same formula,
    |(PT) H_b (PT) - H_b|, each block gathered alone: H vanishes off its
    blocks, which are closed under P, and so does (PT) H (PT).  A stack of
    rows that are each one block, and every stack without ``labeled``,
    takes the whole-row gather of :meth:`~cptkit.frames.PTFrame.pt_conjugate`."""
    if labeled is None or _one_block([at for _, at in labeled], a.shape[:2]):
        difference = frame.pt_conjugate(a)  # a fresh array on every frame
        difference -= a
        residual = frobenius(difference)
    else:
        residual, basis = np.zeros(len(a)), frame.real_basis
        for rows, at in labeled:
            difference = basis.pt_conjugate_blocks(a, rows, at)
            difference -= _entries(a, rows, at)
            np.hypot.at(residual, rows, frobenius(difference))  # hypot(0, x) is x: a row of one block is exact
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
    a, scale = _checked(h, frame)
    require_finite_scale(scale)
    symmetric, residual = _pt_check(a[None], scale, frame, tol)
    return PTSymmetryCheck(bool(symmetric[0]), float(residual[0]))


def _align_columns(vectors: np.ndarray, apply_pt, tol: float):
    """Phase-align every column of an ``(n, k)`` block, or of each block of
    an ``(N, n, k)`` stack, onto the PT-fixed ray, with PT applied by
    ``apply_pt``.

    Returns ``(phi, theta, aligned, c, residual)``, each per column: rotated
    state, phase, whether the column is a PT eigenstate at ``tol``, best PT
    eigenvalue c = <v, PT v> / <v, v> and residual |PT v - c v|.
    """
    w = apply_pt(vectors)
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
    phi, theta, aligned, c, residual = _align_columns(vec.reshape(-1, 1), frame.apply_pt, tol)
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
    """The runs of equal neighbours in the 1-D ``key``, or in each row of a
    2-D one, grouped by length: for each run length m, the ``(g, m)``
    positions (in the flattened key) of the g runs of that length.  An empty
    key has no runs."""
    if not key.size:
        return {}
    flat = key.reshape(-1)
    bounds = np.concatenate(([True], flat[1:] != flat[:-1], [True]))
    bounds[:: key.shape[-1]] = True  # a run never crosses into the next row
    bounds = bounds.nonzero()[0]
    first, size = bounds[:-1], bounds[1:] - bounds[:-1]
    return {m: first[size == m, None] + np.arange(m) for m in set(size.tolist())}


def _pt_fixed_basis(columns: np.ndarray, apply_pt) -> tuple[np.ndarray, np.ndarray]:
    """Build an orthonormal PT-fixed basis of the space spanned by the m
    columns of each block of a ``(g, n, m)`` stack, in one stacked SVD,
    with PT applied by ``apply_pt``.

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
    w = apply_pt(columns)
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


def _eigensystems(a: np.ndarray, norm: np.ndarray, symmetric: np.ndarray, frame: PTFrame, tol: float, labeled):
    """The eigensystems of an ``(N, n, n)`` stack with Frobenius norms
    ``norm`` and PT verdicts ``symmetric``, as the parts the kernel runs on:
    each row's cond(V), defective mask and largest eigenpair residual, and
    a list of parts ``(rows, at, col, values, vectors)``, rows numbered in
    the stack, each part's sorted values and unit eigenvectors complex.

    A PT-symmetric row over a frame with a real basis Q is solved as the
    real matrix Re(Q^+ H Q).  That is an exact eigensystem of H's
    PT-symmetric part, which differs from H by half the PT residual, at most
    ``tol * |H| / 2``.  ``labeled`` is the partition of every row of the
    stack by the components of the pattern of H with P's pairs joined, as
    :func:`_classify_rows` labeled it once for the PT check
    (:meth:`~cptkit.frames.RealBasis.components`); it is solved on as it
    stands where every row is solved in the real basis, and restricted to
    those rows otherwise, with no second labeling.  Each component is closed
    under P, so Q acts within it and Q^+ H Q, real and imaginary parts both,
    vanishes off the blocks.  A row with several is solved by its blocks,
    each formed from H's block alone; a row with one is solved whole, as
    one block of all n indices.  Either way its parts
    are the block stacks of :func:`~cptkit.linops.split_eigensystem`, the
    blocks of each size with their ``(g, m)`` indices ``at`` and sorted
    columns ``col``, and their eigenvectors are real-basis coordinates.
    Every other row is solved as complex, in the original basis, in one
    stacked call with the rows whose real solve is defective or passes the
    exceptional-point gate, so every warning and error comes from the
    complex solve of H itself, whole: one part of whole rows, with ``at``
    and ``col`` None.  A stack of no rows has no parts.

    Both solves take the Gram certificate of
    :func:`~cptkit.linops.stacked_eigensystem` at the gate ``EP_WARNING_K``:
    a row whose cond(V)^2 it bounds below the gate, by the margin
    2 (n + 2) (n + 4) eps in the Gram row sum, keeps that bound as its
    condition and takes no SVD.  The bound is on the same side of the gate
    and of ``COND_LIMIT`` as the SVD's cond(V), so every fallback, verdict,
    warning and error is as with the SVD on every row, and an error's
    condition, that of a row the certificate does not clear, is the SVD's.
    """
    real = symmetric & (norm < np.inf) & (frame.real_basis is not None)
    condition, residual, defective = np.empty(len(a)), np.empty(len(a)), np.zeros(len(a), dtype=bool)
    at_row, parts = np.flatnonzero(real), []
    if len(at_row):
        rows = a
        if len(at_row) < len(a):  # the partition of the real rows alone, renumbered in their stack
            rows, position = a[at_row], np.cumsum(real) - 1
            labeled = [(position[r[keep]], at[keep]) for r, at in labeled for keep in [real[r]] if keep.any()]
        _, condition[at_row], failed, residual[at_row], blocks = split_eigensystem(
            rows, labeled, tol * norm[at_row], EP_WARNING_K, frame.real_basis.real_form
        )
        del rows
        regular = ~(failed | _past_ep_gate(condition[at_row]))
        if not regular.all():  # the blocks of the rows that fall back are left out
            blocks = [[x[keep] for x in block] for block in blocks for keep in [regular[block[0]]] if keep.any()]
            real[at_row] = regular
        parts = [(at_row[rows], at, col, values.astype(complex), vectors.astype(complex))
                 for rows, at, col, values, vectors in blocks]
    fallback = np.flatnonzero(~real)
    if len(fallback):
        rest, residual[fallback] = stacked_eigensystem(a[fallback], norm[fallback], tol, EP_WARNING_K)
        condition[fallback], defective[fallback] = rest.condition, rest.defective
        parts.insert(0, (fallback, None, None, rest.values, rest.vectors))
    return condition, defective, residual, parts


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
    zeroed; over an index frame each row is labeled once
    (:meth:`~cptkit.frames.RealBasis.components`); then the PT check of
    :func:`_pt_check`, on the labeling's blocks, the parts of
    :func:`_eigensystems`, solved on the same partition, and :func:`_kernel`
    on each part: the rows solved
    as complex, together, in the original basis, where no column is fixed,
    and the blocks of the rows solved in the real basis, stacked by size,
    where PT is conjugation.  Every threshold stays the whole row's.  A
    row's verdicts are read off its parts: it is broken where any of its
    blocks is, and its Petermann factor is their largest.  The record's
    per-column and per-row arrays are joined by row and sorted column;
    where one part holds every row, whole, they are the kernel's own
    arrays.  Each part keeps its states, the kernel's ``phi``, as the
    stack it ran on.  A row of a stack is classified bit for bit as the
    row alone.
    """
    scaled = norm < np.inf
    if not scaled.all():  # non-finite entries, or a norm that overflows: error rows, kept out of the PT check
        a = np.where(scaled[:, None, None], a, 0.0)
    labeled = None if frame.real_basis is None else frame.real_basis.components(a)
    symmetric, pt_residual = _pt_check(a, norm, frame, tol, labeled)
    condition, defective, residual, parts = _eigensystems(a, norm, symmetric, frame, tol, labeled)
    scale, settled, states = np.maximum(1.0, norm)[:, None], ~defective, []
    # one part of every row, whole: its arrays are the record's own
    whole = len(parts) == 1 and len(parts[0][0]) == len(a) and (
        parts[0][1] is None or _one_block(parts[0][1:2], a.shape[:2]))
    joined = None if whole else _joined_record(a.shape[:2])
    for rows, at, col, values, vectors in parts:
        fixed, apply_pt = (np.zeros(values.shape, dtype=bool), frame.apply_pt) if at is None else (values.imag == 0, np.conj)
        out = _kernel(values, vectors, fixed, scale[rows], symmetric[rows], settled[rows], condition[rows], apply_pt, tol)
        states.append((rows, at, col, out.phi))
        joined = out if whole else _scatter(joined, out, rows, at, col)
    values, _, theta, energy, kept, rebased, partner, unpaired, petermann, broken = joined
    classification = np.where(symmetric, np.where(broken, BROKEN, UNBROKEN), NOT_APPLICABLE)
    warning = settled & ((petermann >= EP_WARNING_K) | (unpaired | rebased).any(-1))
    return _Rows(
        a, frame, tol, values, condition, defective, residual, symmetric, pt_residual, energy, theta, kept,
        rebased, partner, unpaired, petermann, classification, warning, states,
    )


class _Kernel(NamedTuple):
    """The arrays of :func:`_kernel` for a part of a stack, or, with no
    ``phi``, of :func:`_classify_rows` joined by row."""

    values: np.ndarray
    phi: np.ndarray | None
    theta: np.ndarray
    energy: np.ndarray
    kept: np.ndarray
    rebased: np.ndarray
    partner: np.ndarray
    unpaired: np.ndarray
    petermann: np.ndarray
    broken: np.ndarray


def _joined_record(shape: tuple[int, int]) -> _Kernel:
    """The joined arrays of :func:`_classify_rows` for ``(N, n)`` columns
    before any part is written: every mask false."""
    empty = np.zeros(shape, dtype=bool)
    return _Kernel(np.zeros(shape, dtype=complex), None, np.zeros(shape), np.zeros(shape), empty, empty.copy(),
                   np.full(shape, -1), empty.copy(), np.zeros(shape[0]), np.zeros(shape[0], dtype=bool))


def _scatter(joined: _Kernel, out: _Kernel, rows: np.ndarray, at, col) -> _Kernel:
    """The ``joined`` record with the per-column and per-row arrays ``out``
    of a part written in: whole ``rows``, or blocks at the sorted columns
    ``col`` of their rows, with the real-basis indices ``at``."""
    if at is None:
        cells, partner = rows, out.partner
    else:
        cells = (rows[:, None], col)
        partner = np.where(out.partner < 0, -1, np.take_along_axis(col, np.maximum(out.partner, 0), -1))
    for field in ("values", "theta", "energy", "kept", "rebased", "unpaired"):
        getattr(joined, field)[cells] = getattr(out, field)
    joined.partner[cells] = partner
    np.maximum.at(joined.petermann, rows, out.petermann)
    np.logical_or.at(joined.broken, rows, out.broken)
    return joined


def _kernel(values, vectors, fixed, scale, symmetric, settled, condition, apply_pt, tol: float) -> _Kernel:
    """The classification kernel of a part of a stack: reality, degenerate
    clusters, phase alignment, conjugate pairs and exceptional-point
    proximity, each computed for every row of the part at once, with each
    row's ``scale``, PT verdict ``symmetric``, ``settled`` (not defective)
    and ``condition``.  A column that is ``fixed``, of a real solve with an
    exactly real eigenvalue, whose states are real-basis coordinates and
    ``apply_pt`` conjugation, keeps its eigenvector with phase 0; alignment
    (with PT applied by ``apply_pt``) runs on the other real columns and is
    kept on those alone, so a row is classified as it would be alone.

    ``kept`` marks the columns of ``phi`` that hold aligned states, with
    phase ``theta`` and their eigenspace's ``energy``.  Each real eigenspace
    of a PT-symmetric row that is degenerate, or simple with a sour phase
    alignment, is rebased in place (``rebased`` marks the simple ones), or
    dropped from ``kept`` where that fails, which breaks the symmetry.  These eigenspaces are
    gathered across the whole part and grouped by size by :func:`_runs`,
    with one stacked :func:`_pt_fixed_basis` per size.  The verdicts are
    read off these arrays; rows not ``settled`` are not rebased.  A matched
    pair that a complex solve lists upper member first has its two columns
    swapped, in ``values``, ``phi`` and ``theta``, so every row lists it as
    the real solve does; both are non-real, so no rebase reads them.
    """
    real = np.abs(values.imag) <= REALITY_FACTOR * scale
    start = _cluster_starts(values.real, real, DEGENERACY_FACTOR * scale)
    align = real & ~fixed
    if align.any():
        aligned, angle, phase_ok, _, _ = _align_columns(vectors, apply_pt, tol)
        phi = np.where(align[:, None, :], aligned, vectors)
        theta, phase_ok = np.where(align, angle, 0.0), ~align | phase_ok
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
            values, phi, theta = (part.copy() for part in (values, phi, theta))
            for part in (values, phi, theta):
                part[row, ..., i], part[row, ..., j] = part[row, ..., j], part[row, ..., i]

    kept = symmetric[:, None] & real & start & phase_ok
    energy, rebased = values.real, np.zeros_like(kept)
    broken = nonreal.any(-1)
    irregular = settled & symmetric & (real & ~kept).any(-1)
    if irregular.any():
        energy = energy.copy()
        if phi is vectors:  # rebased in place, so not in the eigenvectors, read-only on a complex solve
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
            basis, full = _pt_fixed_basis(vectors[r[:, None], across, c[:, None]], apply_pt)
            kept[r, c] = full[:, None]
            r, c = r[full], c[full]
            phi[r[:, None], across, c[:, None]] = basis[full]
            theta[r, c], rebased[r, c] = 0.0, m == 1
            energy[r, c] = (values.real[r, c].sum(-1) / m)[:, None]
        broken |= irregular & (real & ~kept).any(-1)
    unpaired = nonreal & (partner < 0)
    return _Kernel(values, phi, theta, energy, kept, rebased, partner, unpaired, petermann, broken)


def _classify_one(h, frame: PTFrame, tol: float) -> _Rows:
    """The record of :func:`_classify_rows` for one matrix, with the raises
    of :func:`classify_symmetry`."""
    require_tolerance(tol)
    a, scale = _checked(h, frame)
    require_finite_scale(scale)
    norm = scale[None]
    rows = _classify_rows(a[None], norm, frame, tol)
    require_regular(rows, rows.residual, norm, tol)
    return rows


def _unbroken(h, frame: PTFrame, tol: float | None, caller: str):
    """The checked H, the energies of the aligned states and the states
    themselves, block by block, of an unbroken Hamiltonian over ``frame``,
    for ``caller``: a matrix is classified here at ``tol``; a report is
    taken only if :func:`classify_symmetry` made it over a frame equal to
    ``frame`` at ``tol``, or at any tolerance where ``tol`` is None, which
    takes only a report.  The states come as the ``(at, col, states)`` of
    each block size, the ``(g, m, m)`` states of each block at its indices
    ``at`` and sorted columns ``col``, the stacks the kernel ran on.  Over a
    frame with a real basis they are in that basis: those of the real solve
    as they are, and those of a row whose real solve fell back to the
    complex one mapped into it here, as one block of the whole basis.  Over
    any other frame they are one block of the whole original basis.  Raises
    InvalidArgument for any other report, and NotUnbroken unless the
    classification is unbroken."""
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
    blocks, basis = [], frame.real_basis
    for _, at, col, states in rows.parts:
        if at is None:  # solved in the original basis: one block, mapped into the real basis where there is one
            at = col = np.arange(frame.dim)[None]
            states = states if basis is None else basis.to_basis(states)
        blocks.append((at, col, states))
    return rows.stack[0], rows.energy[0], blocks


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
    The report also keeps that record, privately, with the states of each
    part as the kernel left them, so a report passed to
    :func:`~cptkit.cpt.build_c` or :func:`~cptkit.cpt.aligned_signs` is not
    classified again.
    """
    rows = _classify_one(h, frame, tol)
    values, kept = rows.values[0], rows.kept[0]
    _, ats, cols, states = zip(*rows.parts)
    # the states of the real basis mapped back once, block by block; those of a complex solve as they are
    phi = states[0][0] if ats[0] is None else frame.real_basis.from_blocks(ats, states, cols)
    energies, thetas = rows.energy[0, kept].tolist(), rows.theta[0, kept].tolist()
    aligned = tuple(AlignedState(e, phi[:, j], t) for j, e, t in zip(np.flatnonzero(kept).tolist(), energies, thetas))
    pairs, warnings = (), []
    if rows.classification[0] == BROKEN:  # phi holds the eigenvectors of the non-real eigenvalues as they are
        paired = np.flatnonzero((values.imag > 0) & (rows.partner[0] >= 0)).tolist()
        pairs = tuple(
            ConjugatePair(complex(values[j]), complex(values[k]), phi[:, j], phi[:, k])
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
        float(rows.pt_residual[0]), rows,
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
    return StackClassification(rows.values, rows.classification, rows.warning, rows.defective)


_SWAP_2 = pair_swap_frame(2)


def classify_2x2(h, tol: float = DEFAULT_TOL) -> TwoByTwoClass:
    """Evaluate the structural predicates of a 2x2 matrix (swap frame implied):
    Hermitian, symmetric, PT-symmetric, and their conjunctions, each residual
    relative to ``tol * |H|``."""
    a, scale = scaled_matrix(h)
    if a.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {a.shape}")
    require_tolerance(tol)
    # below a finite |H| neither residual can overflow
    require_finite_scale(scale)
    pt_symmetric = bool(_pt_check(a[None], scale, _SWAP_2, tol)[0][0])
    bound = tol * scale
    hermitian = bool(hermiticity_residual(a) <= bound)
    symmetric = bool(frobenius(a - a.T) <= bound)
    held = (hermitian, symmetric, pt_symmetric, pt_symmetric and hermitian, pt_symmetric and hermitian and symmetric)
    return TwoByTwoClass(hermitian, symmetric, pt_symmetric, frozenset(k for k, on in enumerate(held, 3) if on))
