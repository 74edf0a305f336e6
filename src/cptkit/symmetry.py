"""PT-symmetry testing and broken/unbroken classification of eigensystems.

A Hamiltonian is PT-symmetric when (PT) H (PT) = H.  Its symmetry is
unbroken when every eigenstate is also an eigenstate of PT, which forces a
real spectrum; otherwise non-real eigenvalues come in conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import DimensionMismatch, NotPTEigenstate
from .frames import PTFrame, pair_swap_frame
from .linops import DEFAULT_TOL, Operator, as_matrix, as_vector, compose, eigendecompose, fnorm

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

#: A 2x2 model matrix [[z, s], [s, conj(z)]] whose breaking parameter
#: |Im z / s| lies within this distance of 1 gets an exceptional-point
#: proximity warning.
EP_WARNING_BAND = 1e-6


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

    def __post_init__(self):
        self.state.setflags(write=False)


@dataclass(frozen=True)
class ConjugatePair:
    """A non-real eigenvalue matched with its complex conjugate partner."""

    value: complex
    partner: complex
    state: np.ndarray
    partner_state: np.ndarray


@dataclass(frozen=True)
class SymmetryReport:
    pt_symmetric: bool
    classification: str
    eigenvalues: np.ndarray
    aligned_states: tuple[AlignedState, ...]
    broken_pairs: tuple[ConjugatePair, ...]
    warnings: tuple[str, ...]
    pt_residual: float

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


def is_pt_symmetric(h, frame: PTFrame, tol: float = DEFAULT_TOL) -> PTSymmetryCheck:
    """Test (PT) H (PT) = H via the antilinear composition rules.

    For entrywise-conjugation T this reduces to |H P - P conj(H)| = 0.  The
    residual is compared against ``tol * |H|``.
    """
    a = as_matrix(h)
    if a.shape[0] != frame.dim:
        raise DimensionMismatch(f"matrix dimension {a.shape[0]} does not match frame dimension {frame.dim}")
    pt = frame.pt
    h_pt = compose(compose(pt, Operator.linear(a)), pt).matrix
    residual = fnorm(h_pt - a)
    return PTSymmetryCheck(residual <= tol * fnorm(a), residual)


def _align_columns(vectors: np.ndarray, frame: PTFrame, tol: float):
    """Phase-align every column of an ``(n, k)`` block onto the PT-fixed ray.

    Returns ``(phi, theta, aligned, c, residual)``, each per column: rotated
    state, phase, whether the column is a PT eigenstate at ``tol``, best PT
    eigenvalue c = <v, PT v> / <v, v> and residual |PT v - c v|.
    """
    w = frame.apply_pt(vectors)
    norm_sq = np.einsum("ij,ij->j", vectors.conj(), vectors).real
    c = np.einsum("ij,ij->j", vectors.conj(), w) / norm_sq
    residual = np.linalg.norm(w - c * vectors, axis=0)
    aligned = (np.abs(np.abs(c) - 1.0) <= tol) & (residual <= tol * np.sqrt(norm_sq))
    theta = np.angle(c) % (2.0 * np.pi)
    theta[2.0 * np.pi - theta <= 1e-8] = 0.0  # rounding noise just below a full turn is phase zero
    return np.exp(0.5j * theta) * vectors, theta, aligned, c, residual


def phase_align(v, frame: PTFrame, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Rotate a PT eigenstate onto the PT-fixed ray.

    If PT v = c v with |c| = 1, returns ``(exp(i theta / 2) v, theta)`` with
    theta = arg(c) in [0, 2*pi); the output phi satisfies PT phi = phi and
    keeps the Euclidean norm of v.  The best scalar is estimated as
    c = <v, PT v> / <v, v>.

    Raises NotPTEigenstate when |PT v - c v| > tol |v|.
    """
    vec = as_vector(v)
    if not np.any(vec):
        raise NotPTEigenstate("cannot align the zero vector")
    phi, theta, aligned, c, residual = _align_columns(vec.reshape(-1, 1), frame, tol)
    if not aligned[0]:
        raise NotPTEigenstate(
            f"PT v deviates from the ray through v by {residual[0]:.3e} (best |c| = {abs(c[0]):.6f})"
        )
    return phi[:, 0], float(theta[0])


def _cluster(values: np.ndarray, width: float) -> list[tuple[int, int]]:
    """Split sorted values into runs of near-equal neighbours."""
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[i - 1]) > width:
            groups.append((start, i))
            start = i
    return groups


def _pt_fixed_basis(columns: np.ndarray, frame: PTFrame, dim: int) -> np.ndarray:
    """Build an orthonormal PT-fixed basis of the space spanned by ``columns``.

    Each candidate v yields the PT-fixed vectors v + PT v and i (v - PT v),
    which span the PT-fixed part over the reals.  The basis is the leading
    ``dim`` left singular vectors of their real embedding [Re; Im]: real
    combinations keep PT-fixedness exact, and the basis depends only on the
    span, up to a real rotation.
    """
    w = frame.apply_pt(columns)
    candidates = np.hstack([columns + w, 1j * (columns - w)])
    left, singular, _ = np.linalg.svd(np.vstack([candidates.real, candidates.imag]), full_matrices=False)
    rank = int(np.count_nonzero(singular > 1e-8 * singular[0]))
    if rank < dim:
        raise NotPTEigenstate(
            f"could only extract {rank} PT-fixed directions from a {dim}-dimensional eigenspace"
        )
    n = len(columns)
    return left[:n, :dim] + 1j * left[n:, :dim]


def _ep_proximity_warnings(a: np.ndarray) -> tuple[str, ...]:
    # Detects the 2x2 family [[z, s], [s, conj(z)]] with real s and warns when
    # the breaking parameter |Im z| / |s| sits within EP_WARNING_BAND of 1.
    if a.shape != (2, 2):
        return ()
    scale = max(1.0, fnorm(a))
    s = a[0, 1]
    if (
        abs(a[1, 0] - s) > 1e-12 * scale
        or abs(s.imag) > 1e-12 * scale
        or abs(a[1, 1] - np.conj(a[0, 0])) > 1e-12 * scale
        or abs(s.real) < 1e-12 * scale
    ):
        return ()
    x = abs(a[0, 0].imag) / abs(s.real)
    if abs(x - 1.0) <= EP_WARNING_BAND:
        return (
            f"exceptional-point proximity: breaking parameter {x:.9f} is within "
            f"{EP_WARNING_BAND:.0e} of 1; eigenvectors nearly coalesce and results are ill-conditioned",
        )
    return ()


def classify_symmetry(h, frame: PTFrame, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Classify the symmetry phase of a Hamiltonian over a PT-frame.

    Pipeline: decide PT-symmetry (otherwise the classification is
    not-applicable), eigendecompose, then try to align every real-eigenvalue
    eigenstate onto the PT-fixed ray.  Degenerate real eigenspaces are
    re-based with the v + PT v construction, which is exact by antilinear
    involution algebra.  The result is unbroken exactly when all eigenvalues
    are real and every eigenstate aligns; otherwise it is broken and the
    non-real eigenvalues are matched into conjugate pairs.

    DefectiveSpectrum from the eigensolver propagates.
    """
    a = as_matrix(h)
    check = is_pt_symmetric(a, frame, tol)
    warnings = list(_ep_proximity_warnings(a))
    eigen = eigendecompose(a, tol)

    if not check.symmetric:
        return SymmetryReport(
            False, NOT_APPLICABLE, eigen.values, (), (), tuple(warnings), check.residual
        )

    scale = max(1.0, fnorm(a))
    reality_tol = REALITY_FACTOR * scale
    group_width = DEGENERACY_FACTOR * scale

    real = np.abs(eigen.values.imag) <= reality_tol
    real_idx = np.flatnonzero(real)
    complex_idx = np.flatnonzero(~real)

    aligned: list[AlignedState] = []
    align_failed = False
    clusters = _cluster(eigen.values[real_idx].real, group_width)
    if clusters:
        phi, theta, phase_ok, _, _ = _align_columns(eigen.vectors[:, real_idx], frame, tol)
    for lo, hi in clusters:
        members = real_idx[lo:hi]
        energy = float(np.mean(eigen.values[members].real))
        if hi - lo == 1 and phase_ok[lo]:
            aligned.append(AlignedState(energy, phi[:, lo], float(theta[lo])))
            continue
        # a degenerate eigenspace, or a numerically sour simple eigenvector:
        # the v + PT v rebase still lands on the PT-fixed ray
        try:
            basis = _pt_fixed_basis(eigen.vectors[:, members], frame, hi - lo)
        except NotPTEigenstate:
            align_failed = True
            continue
        if hi - lo == 1:
            warnings.append(f"eigenvector for E = {energy:.6g} aligned via rebasing, not by phase")
        aligned.extend(AlignedState(energy, b, 0.0) for b in basis.T)

    pairs: list[ConjugatePair] = []
    if complex_idx.size:
        upper = [i for i in complex_idx if eigen.values[i].imag > 0]
        lower = [i for i in complex_idx if eigen.values[i].imag < 0]
        unmatched = set(lower)
        for i in upper:
            target = np.conj(eigen.values[i])
            best = min(unmatched, key=lambda j: abs(eigen.values[j] - target), default=None)
            if best is not None and abs(eigen.values[best] - target) <= group_width:
                unmatched.discard(best)
                pairs.append(
                    ConjugatePair(
                        complex(eigen.values[i]),
                        complex(eigen.values[best]),
                        eigen.vectors[:, i],
                        eigen.vectors[:, best],
                    )
                )
            else:
                warnings.append(f"non-real eigenvalue {eigen.values[i]:.6g} has no conjugate partner")
        for j in unmatched:
            warnings.append(f"non-real eigenvalue {eigen.values[j]:.6g} has no conjugate partner")

    classification = BROKEN if complex_idx.size or align_failed else UNBROKEN
    return SymmetryReport(
        True, classification, eigen.values, tuple(aligned), tuple(pairs), tuple(warnings), check.residual
    )


def classify_2x2(h, tol: float = DEFAULT_TOL) -> TwoByTwoClass:
    """Evaluate the structural predicates of a 2x2 matrix (swap frame implied):
    Hermitian, symmetric, PT-symmetric, and their conjunctions."""
    a = as_matrix(h)
    if a.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {a.shape}")
    frame = pair_swap_frame(2)
    hermitian = fnorm(a - a.conj().T) <= tol
    symmetric = fnorm(a - a.T) <= tol
    pt_symmetric = bool(is_pt_symmetric(a, frame, tol))
    forms = set()
    if hermitian:
        forms.add(3)
    if symmetric:
        forms.add(4)
    if pt_symmetric:
        forms.add(5)
    if pt_symmetric and hermitian:
        forms.add(6)
    if pt_symmetric and hermitian and symmetric:
        forms.add(7)
    return TwoByTwoClass(hermitian, symmetric, pt_symmetric, frozenset(forms))
