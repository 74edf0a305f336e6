"""Building larger frames and Hamiltonians from smaller ones: Kronecker
(tensor) products, block-diagonal direct sums, and the doubling construction
H -> H (+) H+ with a block-swap parity.

Kronecker convention: A (x) B acts on the lexicographic basis e_i (x) e_j
with the left factor outermost; all eigenvalue-product oracles use the same
convention.  The tensor of two antilinear operators is represented by the
Kronecker product of the matrix parts with a single global conjugation,
which is forced by the composition algebra because each factor conjugates
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommutatorViolation, InvalidArgument, NotPTSymmetric
from .frames import (
    CONSTRUCTION_TOL,
    SWAP,
    CPTFrame,
    PTFrame,
    checked_cpt_frame,
    checked_pt_frame,
    frame_from_involution,
)
from .linops import DEFAULT_TOL, Operator, as_matrix, commutator_check
from .symmetry import is_pt_symmetric


@dataclass(frozen=True)
class BlockSpec:
    """Ordered blocks for a direct sum, each a (matrix, frame) pair.

    Frames must be homogeneous: all PTFrame or all CPTFrame.
    """

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise InvalidArgument("direct sum needs at least one block")
        kinds = {isinstance(frame, CPTFrame) for _, frame in self.blocks}
        if len(kinds) != 1:
            raise InvalidArgument("blocks mix plain PT-frames with CPT-frames")
        for i, (matrix, frame) in enumerate(self.blocks):
            m = as_matrix(matrix)
            if m.shape[0] != frame.dim:
                raise InvalidArgument(
                    f"block {i}: matrix dimension {m.shape[0]} does not match frame dimension {frame.dim}"
                )

    @property
    def has_c(self) -> bool:
        return isinstance(self.blocks[0][1], CPTFrame)

    @property
    def dim(self) -> int:
        return sum(frame.dim for _, frame in self.blocks)


def _block_diag(mats: list[np.ndarray]) -> np.ndarray:
    n = sum(m.shape[-1] for m in mats)
    out = np.zeros(np.broadcast_shapes(*{m.shape[:-2] for m in mats}) + (n, n), dtype=complex)
    at = 0
    for m in mats:
        k = m.shape[-1]
        out[..., at : at + k, at : at + k] = m
        at += k
    return out


def tensor_pt_frames(a: PTFrame, b: PTFrame, tol: float = DEFAULT_TOL) -> PTFrame:
    """Tensor product of two PT-frames: P = P1 (x) P2, T antilinear with
    matrix part T1 (x) T2."""
    p = Operator.linear(np.kron(a.p.matrix, b.p.matrix))
    t = Operator.antilinear(np.kron(a.t.matrix, b.t.matrix))
    return checked_pt_frame(p, t, tol)


def tensor_frames(a: CPTFrame, b: CPTFrame, tol: float = DEFAULT_TOL) -> CPTFrame:
    """Tensor product of two CPT-frames; the result is again a CPT-frame."""
    base = tensor_pt_frames(a.frame, b.frame, tol)
    c = Operator.linear(np.kron(a.c.matrix, b.c.matrix))
    return checked_cpt_frame(c, base, tol)


def tensor_hamiltonians(
    h1, h2, a: CPTFrame, b: CPTFrame, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, CPTFrame]:
    """Tensor two PT-symmetric Hamiltonians with their CPT-frames.

    Returns H = H1 (x) H2 together with the tensored frame.  H is
    PT-symmetric, and when each C_i commutes with its h_i the composed C
    commutes with H.
    """
    m1 = as_matrix(h1)
    m2 = as_matrix(h2)
    for label, m, fr in (("first", m1, a), ("second", m2, b)):
        check = is_pt_symmetric(m, fr.frame, tol)
        if not check:
            raise NotPTSymmetric(
                f"{label} factor is not PT-symmetric (residual {check.residual:.3e})"
            )
    product = np.kron(m1, m2)
    frame = tensor_frames(a, b, tol)
    check = is_pt_symmetric(product, frame.frame, tol)
    if not check:
        raise NotPTSymmetric(
            f"tensor product lost PT-symmetry (residual {check.residual:.3e}); "
            "this indicates inconsistent input frames"
        )
    if commutator_check(a.c.matrix, m1, tol)[1] and commutator_check(b.c.matrix, m2, tol)[1]:
        commutator, commutes = commutator_check(frame.c.matrix, product, tol)
        if not commutes:
            raise CommutatorViolation(
                f"[C, H1 (x) H2] residual {commutator:.3e} despite commuting factors"
            )
    return product, frame


def direct_sum(spec: BlockSpec, tol: float = DEFAULT_TOL):
    """Block-diagonal direct sum of Hamiltonians with their frames.

    Returns ``(H, frame)`` where the frame kind matches the blocks.  The
    spectrum is the multiset union of the block spectra, and the composite
    symmetry is unbroken exactly when every block is.
    """
    mats = [as_matrix(m) for m, _ in spec.blocks]
    h = _block_diag(mats)
    p = Operator.linear(_block_diag([fr.p.matrix for _, fr in spec.blocks]))
    t = Operator.antilinear(_block_diag([fr.t.matrix for _, fr in spec.blocks]))
    base = checked_pt_frame(p, t, tol)
    if not spec.has_c:
        return h, base
    c = Operator.linear(_block_diag([fr.c.matrix for _, fr in spec.blocks]))
    return h, checked_cpt_frame(c, base, tol)


def doubling(h, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, PTFrame, bool]:
    """Doubling construction: embed H as H (+) H+ with block-swap parity.

    Returns ``(doubled, frame, verdict)`` where the frame has
    P = [[0, I], [I, 0]] and T = entrywise conjugation.  The verdict is the
    measured PT-symmetry of the doubled operator, which holds exactly when H
    equals its transpose.
    """
    a = as_matrix(h)
    n = a.shape[0]
    doubled = np.zeros((2 * n, 2 * n), dtype=complex)
    doubled[:n, :n] = a
    doubled[n:, n:] = a.conj().T
    frame = frame_from_involution(np.kron(SWAP, np.eye(n)), CONSTRUCTION_TOL)
    verdict = bool(is_pt_symmetric(doubled, frame, tol))
    return doubled, frame, verdict
