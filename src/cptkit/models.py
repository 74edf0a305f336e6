"""Built-in parametric Hamiltonian families with closed-form spectral oracles.

The basic cell is the 2x2 family

    H(r, s, theta) = [[r e^{i theta}, s], [s, r e^{-i theta}]]

with nonzero real parameters, PT-symmetric under the swap parity and
non-Hermitian for nonzero theta.  Its symmetry is unbroken exactly when the
breaking parameter |r/s * sin(theta)| is at most 1, with eigenvalues

    E_pm = r cos(theta) +- s cos(phi),   sin(phi) = r/s * sin(theta),

and broken otherwise with the conjugate pair

    E_pm = r cos(theta) +- i sqrt(r^2 sin^2(theta) - s^2).

phi is always taken on the principal arcsin branch, so cos(phi) >= 0 and the
closed-form normalization 1/sqrt(2 cos phi) stays real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidModel, SelfOrthogonal
from .frames import PTFrame, frame_from_involution, pair_swap_frame
from .linops import DEFAULT_TOL, _block_diag, _block_join, require_tolerance

TWO_BY_TWO = "2x2"
THREE_BY_THREE = "3x3"
FOUR_BY_FOUR = "4x4"
CHAIN = "chain"
TENSOR = "tensor"

FAMILIES = (TWO_BY_TWO, THREE_BY_THREE, FOUR_BY_FOUR, CHAIN, TENSOR)

_BLOCK_COUNT = {TWO_BY_TWO: 1, THREE_BY_THREE: 1, FOUR_BY_FOUR: 2, TENSOR: 2}


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of a built-in family.

    ``blocks`` holds one (r, s, theta) triple per 2x2 cell; the 3x3 family
    additionally takes the decoupled level ``a``.  All parameters must be
    nonzero.  A parameter may be a 1-D array, a sweep, with no zero entry;
    every sweep of one spec has the same length.
    """

    family: str
    blocks: tuple[tuple[float, float, float], ...]
    a: float | None = None

    def __post_init__(self):
        blocks, nonzero, lengths = _parameters(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "a", None if self.a is None else _parameter(self.a))
        if self.family not in FAMILIES:
            raise InvalidModel(f"unknown model family {self.family!r}; choose from {FAMILIES}")
        expected = _BLOCK_COUNT.get(self.family)
        if expected is not None and len(self.blocks) != expected:
            raise InvalidModel(
                f"family {self.family} takes {expected} (r, s, theta) block(s), got {len(self.blocks)}"
            )
        if self.family == CHAIN and not self.blocks:
            raise InvalidModel("chain needs at least one (r, s, theta) block")
        if not all(nonzero):
            raise InvalidModel(f"block {nonzero.index(False)}: r, s, theta must all be nonzero")
        if self.family == THREE_BY_THREE:
            if self.a is None or not _nonzero(self.a):
                raise InvalidModel("the 3x3 family needs a nonzero decoupled level a")
        elif self.a is not None:
            raise InvalidModel(f"family {self.family} does not take an a parameter")
        if isinstance(self.a, np.ndarray):
            lengths.add(len(self.a))
        if len(lengths) > 1:
            raise InvalidModel(f"swept parameters must share one length, got lengths {sorted(lengths)}")

    @property
    def dim(self) -> int:
        """Dimension of the materialized Hamiltonian."""
        return {THREE_BY_THREE: 3, TENSOR: 4}.get(self.family, 2 * len(self.blocks))


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Closed-form regime and eigenvalues of one 2x2 cell.

    ``phi`` is the principal-branch angle of the unbroken regime (None when
    broken).  ``degenerate`` flags the critical boundary where the two
    eigenvalues coincide and the eigenvectors coalesce.
    """

    regime: str
    phi: float | None
    eigenvalues: tuple[complex, complex]
    degenerate: bool = False


def _parameter(x) -> float | np.ndarray:
    """A scalar parameter as a float, a swept one (a 1-D array) as a float array."""
    return x.astype(float) if isinstance(x, np.ndarray) and x.ndim == 1 else float(x)


def _nonzero(x: float | np.ndarray) -> bool:
    """Whether a parameter, or every entry of a swept one, is nonzero."""
    return bool(x.all()) if isinstance(x, np.ndarray) else x != 0.0


def _parameters(blocks) -> tuple[tuple, list[bool], set[int]]:
    """The ``blocks`` with each parameter as :func:`_parameter` makes it,
    whether each block's parameters are all nonzero, and the lengths of its
    sweeps.  Several blocks of three numbers each, as of a chain, are
    converted and checked as one array; one block, which converts faster
    alone, any other blocks, and any that convert to a nan, which may stand
    for an object that ``float`` rejects, such as None, are taken parameter
    by parameter, with ``float``'s errors."""
    table = None
    if len(blocks) > 1:
        try:
            table = np.array(blocks, dtype=float)
        except (TypeError, ValueError):
            pass
    if table is not None and table.shape == (len(blocks), 3) and not np.isnan(table).any():
        return tuple(map(tuple, table.tolist())), table.all(-1).tolist(), set()
    blocks = tuple(tuple(_parameter(x) for x in b) for b in blocks)
    lengths = {len(x) for b in blocks for x in b if isinstance(x, np.ndarray)}
    return blocks, [all(map(_nonzero, b)) for b in blocks], lengths


def _cell(r, s, theta) -> np.ndarray:
    out = np.empty(np.broadcast(r, s, theta).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = r * np.exp(1j * theta)
    out[..., 0, 1] = out[..., 1, 0] = s
    out[..., 1, 1] = r * np.exp(-1j * theta)
    return out


def _cells(blocks) -> np.ndarray:
    """The cells of ``blocks`` as one ``(..., k, 2, 2)`` stack, by one
    :func:`_cell` over their stacked parameters, each broadcast to the
    sweep where some are swept: one block's own parameters."""
    if len(blocks) == 1:
        return _cell(*blocks[0])[..., None, :, :]
    try:  # (k, 3), or (k, 3, N) where every parameter is swept
        table = np.array(blocks, dtype=float)
    except ValueError:  # scalars beside sweeps
        table = np.array(np.broadcast_arrays(*(x for b in blocks for x in b))).reshape(len(blocks), 3, -1)
    return _cell(*table.transpose(*range(1, table.ndim), 0))  # r, s and theta, each (..., k)


def model_frame(spec: ModelSpec) -> PTFrame:
    """The PT-frame of a model.  It depends only on the family and the
    number of blocks, so a scan over one family builds it once."""
    if spec.family == THREE_BY_THREE:
        return frame_from_involution(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    if spec.family == TENSOR:  # the pair swap tensored with itself is the reversal e_k <-> e_(3-k)
        return frame_from_involution(np.eye(4)[::-1])
    return pair_swap_frame(spec.dim)  # 2x2, 4x4 and chain: one swap per cell


def model_matrix(spec: ModelSpec) -> np.ndarray:
    """The Hamiltonian of a model, PT-symmetric under :func:`model_frame` and non-Hermitian
    for nonzero theta; for swept parameters an ``(N, n, n)`` stack, one row per entry."""
    cells = _cells(spec.blocks)
    if spec.family == THREE_BY_THREE:
        return _block_diag(cells[..., 0, :, :], np.asarray(spec.a, dtype=complex)[..., None, None])
    if spec.family == TENSOR:  # np.kron, broadcast over leading axes
        product = cells[..., 0, :, None, :, None] * cells[..., 1, None, :, None, :]
        return product.reshape(product.shape[:-4] + (4, 4))
    n = 2 * cells.shape[-3]  # 2x2, 4x4 and chain: each cell at its pair of indices, in one write
    return _block_join(n, (np.arange(n).reshape(-1, 2),), (cells,))


def build_model(spec: ModelSpec) -> tuple[np.ndarray, PTFrame]:
    """Materialize a model and its bundled PT-frame: ``(model_matrix(spec),
    model_frame(spec))``.

    Every output is PT-symmetric by construction and non-Hermitian for
    nonzero theta.
    """
    return model_matrix(spec), model_frame(spec)


def closed_form_spectrum(r: float, s: float, theta: float) -> ClosedFormSpectrum:
    """Closed-form eigenvalues of one 2x2 cell, used as the independent
    oracle against the numerical eigensolver.

    The critical boundary |r/s sin(theta)| = 1 is classified unbroken with
    the ``degenerate`` warning flag set; there E_+ = E_-.  Raises
    InvalidModel for a parameter that is zero or not finite.
    """
    if r == 0.0 or s == 0.0 or theta == 0.0:
        raise InvalidModel("r, s, theta must all be nonzero")
    if not np.isfinite((r, s, theta)).all():
        raise InvalidModel(f"r, s, theta must all be finite, got ({r!r}, {s!r}, {theta!r})")
    x = (r / s) * np.sin(theta)
    base = r * np.cos(theta)
    if abs(x) <= 1.0:
        phi = float(np.arcsin(x))
        gap = s * np.cos(phi)
        return ClosedFormSpectrum(
            "unbroken",
            phi,
            (complex(base + gap), complex(base - gap)),
            degenerate=bool(abs(abs(x) - 1.0) <= 1e-12),
        )
    imag = np.sqrt(r * r * np.sin(theta) ** 2 - s * s)
    return ClosedFormSpectrum(
        "broken", None, (complex(base, imag), complex(base, -imag))
    )


def closed_form_c(phi: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Closed-form C operator of the 2x2 family at angle phi:
    [[i tan(phi), sec(phi)], [sec(phi), -i tan(phi)]].

    Traceless, determinant -1, squares to the identity.  Fails at the
    exceptional point where cos(phi) vanishes: SelfOrthogonal for
    cos(phi) <= tol, and InvalidArgument for a ``tol`` that is not a
    positive, finite number.
    """
    require_tolerance(tol)
    phi = float(phi)
    if not abs(phi) < np.pi / 2:
        raise InvalidArgument(f"phi must lie in (-pi/2, pi/2), got {phi}")
    c = np.cos(phi)
    if c <= tol:
        raise SelfOrthogonal(f"cos(phi) = {c:.3e} is below tolerance (exceptional point)")
    t = np.tan(phi)
    return np.array([[1j * t, 1.0 / c], [1.0 / c, -1j * t]], dtype=complex)
