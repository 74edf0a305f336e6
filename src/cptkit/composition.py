"""Building larger frames and Hamiltonians from smaller ones: Kronecker
(tensor) products, block-diagonal direct sums, and the doubling construction
H -> H (+) H+ with a block-swap parity.

Kronecker convention: A (x) B acts on the lexicographic basis e_i (x) e_j
with the left factor outermost; all eigenvalue-product oracles use the same
convention.  The tensor of two antilinear operators is represented by the
Kronecker product of the matrix parts with a single global conjugation,
which is forced by the composition algebra because each factor conjugates
exactly once.

A composition reads its kind, PT-frames or CPT-frames, from its factor
frames; mixed kinds raise InvalidArgument.  It takes [C_i, H_i] from its
factor frames, which answer a pass they remember with no product, and the
composed CPT-frame keeps its own [C, H] verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommutatorViolation, InvalidArgument, NotPTSymmetric
from .frames import CPTFrame, PTFrame, _permutation_frame, checked_cpt_frame, checked_pt_frame
from .linops import DEFAULT_TOL, Operator, _block_diag, _fields_equal, as_matrix, frobenius
from .symmetry import is_pt_symmetric


@dataclass(frozen=True)
class BlockSpec:
    """Ordered blocks for a direct sum, each a (matrix, frame) pair; each
    matrix is kept as checked here (complex, read-only), once.

    Frames must be homogeneous: all PTFrame or all CPTFrame.
    """

    blocks: tuple

    __eq__ = _fields_equal  # block by block: entrywise-equal matrices and equal frames

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise InvalidArgument("direct sum needs at least one block")
        _has_c(frame for _, frame in blocks)
        object.__setattr__(self, "blocks", tuple((as_matrix(m), frame) for m, frame in blocks))
        for i, (m, frame) in enumerate(self.blocks):
            if m.shape[0] != frame.dim:
                raise InvalidArgument(
                    f"block {i}: matrix dimension {m.shape[0]} does not match frame dimension {frame.dim}"
                )


def _has_c(frames) -> bool:
    """Whether ``frames`` are CPT-frames, not plain PT-frames; InvalidArgument
    where they mix the two kinds."""
    kinds = {isinstance(frame, CPTFrame) for frame in frames}
    if len(kinds) != 1:
        raise InvalidArgument("a composition mixes plain PT-frames with CPT-frames")
    return kinds.pop()


def _joined(join, frames, tol: float):
    """The frame whose P, T and, over CPT-frames, C are ``join`` of the
    factors' matrix parts, validated once: a frame of the factors' kind."""
    has_c = _has_c(frames)

    def joined(role):
        return join(*(getattr(f, role).matrix for f in frames))

    base = checked_pt_frame(Operator.linear(joined("p")), Operator.antilinear(joined("t")), tol)
    return checked_cpt_frame(Operator.linear(joined("c")), base, tol) if has_c else base


def tensor_frames(a: PTFrame | CPTFrame, b: PTFrame | CPTFrame, tol: float = DEFAULT_TOL) -> PTFrame | CPTFrame:
    """Tensor product of two PT-frames, or of two CPT-frames, a frame of the
    same kind: P = P1 (x) P2, T antilinear with matrix part T1 (x) T2 and
    C = C1 (x) C2.  Factors of mixed kinds raise InvalidArgument."""
    return _joined(np.kron, (a, b), tol)


def tensor_hamiltonians(
    h1, h2, a: CPTFrame, b: CPTFrame, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, CPTFrame]:
    """Tensor two PT-symmetric Hamiltonians with their CPT-frames.

    Returns H = H1 (x) H2 together with the tensored frame.  H is
    PT-symmetric; NotPTSymmetric is raised where a factor, or the product,
    is not at ``tol``: factors that each pass can still fail as a product,
    since their residuals compose.  When each factor frame finds its C_i
    commuting with H_i, the composed frame checks [C, H] once, raising
    CommutatorViolation if it fails, and keeps the pass for a later
    :func:`~cptkit.cpt.hermitize`.
    Raises InvalidArgument unless both frames are CPT-frames.
    """
    if not _has_c((a, b)):
        raise InvalidArgument("tensor_hamiltonians needs two CPT-frames; tensor PT-frames with tensor_frames")
    m1, m2 = as_matrix(h1), as_matrix(h2)
    factors = []
    for label, m, fr in (("first", m1, a), ("second", m2, b)):
        factors.append(is_pt_symmetric(m, fr.frame, tol))
        if not factors[-1]:
            raise NotPTSymmetric(f"{label} factor is not PT-symmetric (residual {factors[-1].residual:.3e})")
    product = np.kron(m1, m2)
    frame = tensor_frames(a, b, tol)
    check = is_pt_symmetric(product, frame.frame, tol)
    if not check:
        raise NotPTSymmetric(f"tensor product is not PT-symmetric: residual {check.residual:.3e} exceeds its bound "
                             f"{tol * frobenius(product):.3e} (tol * |H|); the factors pass, with residuals "
                             f"{factors[0].residual:.3e} and {factors[1].residual:.3e}, and residuals within tol "
                             "compose to up to (2 tol + tol^2) |H|")
    try:
        a._require_commuting(m1, tol)
        b._require_commuting(m2, tol)
    except CommutatorViolation:  # a factor that does not commute leaves [C, H] unchecked
        return product, frame
    frame._require_commuting(as_matrix(product), tol)  # a read-only copy: the caller may write to H
    return product, frame


def direct_sum(spec: BlockSpec, tol: float = DEFAULT_TOL):
    """Block-diagonal direct sum of Hamiltonians with their frames.

    Returns ``(H, frame)`` where the frame kind matches the blocks.  The
    spectrum is the multiset union of the block spectra, and the composite
    symmetry is unbroken exactly when every block is.
    """
    h = _block_diag(*(m for m, _ in spec.blocks))
    return h, _joined(_block_diag, [frame for _, frame in spec.blocks], tol)


def doubling(h, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, PTFrame, bool]:
    """Doubling construction: embed H as H (+) H+ with block-swap parity.

    Returns ``(doubled, frame, verdict)`` where the frame has
    P = [[0, I], [I, 0]], built from its index array i -> (i + n) mod 2n,
    and T = entrywise conjugation.  The verdict is the measured PT-symmetry
    of the doubled operator, which holds exactly when H equals its
    transpose.
    """
    a = as_matrix(h)
    doubled = _block_diag(a, a.conj().T)
    n = a.shape[0]
    frame = _permutation_frame((np.arange(2 * n) + n) % (2 * n))
    verdict = bool(is_pt_symmetric(doubled, frame, tol))
    return doubled, frame, verdict
