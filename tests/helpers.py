"""Shared generators and comparison utilities for the test suite."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from cptkit import (
    ModelSpec,
    Operator,
    PTFrame,
    build_model,
    checked_pt_frame,
    frame_from_involution,
    pair_swap_frame,
)

# the three classification landmarks: real symmetric, PT-symmetric
# non-symmetric, and Hermitian non-PT-symmetric
H1 = np.array([[1.0, 2.0], [2.0, 3.0]])
H2 = np.array([[1 + 1j, 2j], [-2j, 1 - 1j]])
H3 = np.array([[1.0, 2j], [-2j, 3.0]])

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def any_dim_frame(n: int) -> PTFrame:
    """A conjugation-T frame in any dimension >= 2: pairwise swaps plus a
    fixed point when n is odd."""
    if n % 2 == 0:
        return pair_swap_frame(n)
    p = np.zeros((n, n))
    for k in range(n // 2):
        p[2 * k, 2 * k + 1] = p[2 * k + 1, 2 * k] = 1.0
    p[n - 1, n - 1] = 1.0
    return frame_from_involution(p)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_pt_symmetric(rng, frame: PTFrame, scale=1.0, imag_bias=1.0):
    """A + P conj(A) P is PT-symmetric by construction for real P and
    conjugation T."""
    n = frame.dim
    a = rng.standard_normal((n, n)) + 1j * imag_bias * rng.standard_normal((n, n))
    p = frame.p.matrix.real
    return scale * (a + p @ np.conj(a) @ p)


def random_symmetric_pt_symmetric(rng, frame: PTFrame, imag_bias=0.15):
    b = random_pt_symmetric(rng, frame, imag_bias=imag_bias)
    return (b + b.T) / 2.0


def shared_eigenvalue_chain(first, second):
    """A two-cell chain whose second cell is scaled so that its lower
    eigenvalue equals the upper eigenvalue of the first cell.  For cells with
    positive s and a positive lower eigenvalue of the second cell, that
    eigenvalue has a 2-fold eigenspace of signature (+1, -1)."""
    upper = np.linalg.eigvals(build_model(ModelSpec("2x2", (first,)))[0]).real.max()
    lower = np.linalg.eigvals(build_model(ModelSpec("2x2", (second,)))[0]).real.min()
    r, s, theta = second
    return build_model(ModelSpec("chain", (first, (upper / lower * r, upper / lower * s, theta))))


#: The problem families of the basis-change tests: "identity" is H = I, where
#: every state shares one eigenspace of signature (+1, +1, -1, -1) and C
#: must be P; "shared" has a 2-fold eigenspace of signature (+1, -1); "3x3"
#: has odd dimension and a parity with a fixed point.
COVARIANCE_FAMILIES = ("2x2", "4x4", "tensor", "chain", "identity", "shared", "3x3")


def covariance_problem(rng, family):
    """A random unbroken problem of one of ``COVARIANCE_FAMILIES``."""
    if family == "identity":
        return np.eye(4), pair_swap_frame(4)
    n_blocks = {"2x2": 1, "3x3": 1, "4x4": 2, "tensor": 2, "shared": 1}.get(family, int(rng.integers(1, 4)))
    blocks = []
    for _ in range(n_blocks):
        s = rng.uniform(1.0, 2.0) * rng.choice([-1.0, 1.0])
        # |r / s| <= 0.9 keeps every cell unbroken and away from its exceptional point
        blocks.append((rng.uniform(0.2, 0.9) * s, s, rng.uniform(0.1, 1.5)))
    if family == "shared":
        r, s, theta = blocks[0]
        # s < r keeps the second cell's lower eigenvalue positive
        second = (rng.uniform(1.1, 1.5), rng.uniform(0.9, 1.0), rng.uniform(0.1, 0.6))
        return shared_eigenvalue_chain((abs(r), abs(s), theta), second)
    a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]) if family == "3x3" else None
    return build_model(ModelSpec(family, tuple(blocks), a=a))


def random_cells(rng, count):
    """``count`` unbroken cells (r, s, theta), each at a breaking parameter
    |x| = |r / s| sin(theta) <= 0.8, away from its exceptional point."""
    return tuple((rng.uniform(0.2, 0.8) * s, s, rng.uniform(0.3, 1.2)) for s in rng.uniform(0.8, 2.0, count))


def permuted_chain(rng, blocks):
    """The chain of ``blocks`` and its frame with the basis shuffled by a
    random permutation, so that no block's indices are contiguous.  Returns
    ``(h, frame, perm)``: h = H[perm][:, perm] and P likewise."""
    h, frame = build_model(ModelSpec("chain", tuple(blocks)))
    perm = rng.permutation(len(h))
    moved = np.ix_(perm, perm)
    return h[moved], frame_from_involution(frame.p.matrix.real[moved]), perm


def solved_whole(monkeypatch):
    """Solve every eigenproblem whole, by one ``eig`` or ``eigh`` of each
    matrix: the reference that a solve split by the components of the
    matrix pattern is compared with."""
    from cptkit import linops

    monkeypatch.setattr(linops, "_SPLIT_DIM", sys.maxsize)


def bench_workloads():
    """``bench/workloads.py``, the generator of the benchmark's inputs, loaded
    by path as the module ``bench_workloads``."""
    module = sys.modules.get("bench_workloads")
    if module is None:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_workloads"] = module
        spec.loader.exec_module(module)
    return module


def skewed_parity_problem():
    """An unbroken cell moved by the non-unitary S = [[1, 0.7], [0, 1.3]]:
    P = S SWAP S^-1 is a real involution that is not Hermitian, and
    H = S H_cell S^-1 is PT-symmetric with a real spectrum."""
    s = np.array([[1.0, 0.7], [0.0, 1.3]])
    s_inv = np.linalg.inv(s)
    cell, _ = build_model(ModelSpec("2x2", ((1.0, 2.0, np.pi / 6),)))
    return s @ cell @ s_inv, frame_from_involution(s @ SWAP @ s_inv)


def unitary_basis_change(h, frame: PTFrame, rng):
    """Move a problem by a random unitary U: H -> U H U^H, P -> U P U^H and
    T -> U T U^T (the antilinear matrix part).  Returns ``(u, h, frame)``."""
    n = frame.dim
    u, _ = np.linalg.qr(random_complex(rng, (n, n)))
    moved = checked_pt_frame(
        Operator.linear(u @ frame.p.matrix @ u.conj().T),
        Operator.antilinear(u @ frame.t.matrix @ u.T),
    )
    return u, u @ h @ u.conj().T, moved


def multiset_gap(a, b) -> float:
    """Largest pair distance under greedy nearest matching of two value sets.

    Lexicographic sorting is unstable when real parts tie up to rounding, so
    values are matched nearest-first instead.
    """
    aa = sorted(np.asarray(a, dtype=complex), key=abs, reverse=True)
    bb = list(np.asarray(b, dtype=complex))
    if len(aa) != len(bb):
        return np.inf
    gap = 0.0
    for z in aa:
        j = int(np.argmin([abs(w - z) for w in bb]))
        gap = max(gap, abs(bb[j] - z))
        del bb[j]
    return gap
