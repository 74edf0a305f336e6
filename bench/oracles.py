"""Independent checks of every op's output.

The expected values come from the closed forms of the 2x2 cell, written out
here again rather than taken from ``cptkit``, and from the block structure of
each family: a 3x3 model is a cell plus a decoupled level, 4x4 and chain
models are direct sums of cells, tensor models are Kronecker products.  Each
check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

from workloads import cell_eigenvalues

#: Grid points whose breaking parameter |r/s sin(theta)| lies within this
#: distance of 1 may take either verdict, or be error rows: there the
#: eigenvectors nearly coalesce and rounding decides.
EP_BAND = 1e-6

#: Tolerances, relative to the scale max(1, |H|_F) of the problem.
SPECTRUM_TOL = 1e-9
C_TOL = 1e-8
GRAM_TOL = 1e-8

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def cell_matrix(r, s, theta) -> np.ndarray:
    return np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])


def cell_c(r, s, theta) -> np.ndarray:
    """C of an unbroken cell: [[i tan phi, sec phi], [sec phi, -i tan phi]]
    with sin(phi) = r/s sin(theta)."""
    phi = np.arcsin(r / s * np.sin(theta))
    t, sec = np.tan(phi), 1.0 / np.cos(phi)
    return np.array([[1j * t, sec], [sec, -1j * t]])


def block_diag(mats) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at:at + k, at:at + k] = m
        at += k
    return out


def expected(p) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Closed-form (H, spectrum, C, P) of a model problem; C is None when the
    symmetry is broken."""
    cells = [cell_matrix(*b) for b in p.blocks]
    values = [list(cell_eigenvalues(*b)) for b in p.blocks]
    unbroken = p.kind == "unbroken"
    cs = [cell_c(*b) for b in p.blocks] if unbroken else None
    if p.family == "3x3":
        h = block_diag([cells[0], np.array([[p.a]])])
        spectrum = values[0] + [complex(p.a)]
        c = block_diag([cs[0], np.eye(1)]) if unbroken else None
        parity = block_diag([SWAP, np.eye(1)])
    elif p.family == "tensor":
        h = np.kron(cells[0], cells[1])
        spectrum = [e * f for e in values[0] for f in values[1]]
        c = np.kron(cs[0], cs[1]) if unbroken else None
        parity = np.kron(SWAP, SWAP)
    else:  # 2x2, 4x4 and chain are direct sums of cells
        h = block_diag(cells)
        spectrum = [z for v in values for z in v]
        c = block_diag(cs) if unbroken else None
        parity = block_diag([SWAP] * len(cells))
    return h, np.array(spectrum), c, parity


def input_matrices(p) -> list[np.ndarray]:
    """The Hamiltonians an op starts from, built from the closed forms: the
    scan's grid points, a composition's factors, or the model itself."""
    if p.kind == "scan":
        sw = p.sweep
        return [cell_matrix(sw["r"], sw["s"], t) for t in np.linspace(sw["lo"], sw["hi"], sw["n"])]
    if p.kind == "compose":
        return [cell_matrix(*q.blocks[0]) for q in p.parts]
    return [expected(p)[0]]


def _scale(h) -> float:
    return max(1.0, float(np.linalg.norm(h)))


def spectrum_error(got, want) -> float:
    """Largest distance after matching each wanted value to its nearest
    not-yet-matched computed value."""
    free = list(np.asarray(got, dtype=complex))
    worst = 0.0
    for z in np.asarray(want, dtype=complex):
        d = np.abs(np.array(free) - z)
        j = int(np.argmin(d))
        worst = max(worst, float(d[j]))
        free.pop(j)
    return worst


def check_model(p, out) -> list[str]:
    """Classification, spectrum and, when unbroken, C, Gram residual and the
    Hermitized matrix of a model op."""
    h, spectrum, c, parity = expected(p)
    scale = _scale(h)
    fails = []
    verdict = "unbroken" if p.kind == "unbroken" else "broken"
    if out.report.classification != verdict:
        fails.append(f"classified {out.report.classification}, expected {verdict}")
    if len(out.report.eigenvalues) != len(spectrum):
        return fails + [f"{len(out.report.eigenvalues)} eigenvalues, expected {len(spectrum)}"]
    err = spectrum_error(out.report.eigenvalues, spectrum)
    if err > SPECTRUM_TOL * scale:
        fails.append(f"spectrum off the closed form by {err:.3e}")
    if p.kind != "unbroken":
        return fails
    c_err = float(np.linalg.norm(out.result.cpt.c.matrix - c))
    if c_err > C_TOL * max(1.0, float(np.linalg.norm(c))):
        fails.append(f"C off the closed form by {c_err:.3e}")
    if not out.result.gram_residual <= GRAM_TOL * scale:
        fails.append(f"Gram residual {out.result.gram_residual:.3e}")
    fails += check_hermitized(out.hermitized, spectrum, scale)
    if out.inner is not None:
        want = complex(np.vdot(parity @ c @ p.u, p.v))
        if abs(out.inner - want) > C_TOL * max(1.0, abs(want)):
            fails.append(f"CPT inner product {out.inner} differs from {want}")
    return fails


def check_hermitized(hh, spectrum, scale) -> list[str]:
    fails = []
    herm = float(np.linalg.norm(hh - hh.conj().T))
    if herm > C_TOL * _scale(hh):
        fails.append(f"Hermitized matrix is not Hermitian (residual {herm:.3e})")
    got = np.linalg.eigvalsh((hh + hh.conj().T) / 2)
    err = float(np.max(np.abs(got - np.sort(np.real(spectrum)))))
    if err > C_TOL * scale:
        fails.append(f"Hermitized spectrum differs by {err:.3e}")
    return fails


def check_compose(p, out) -> list[str]:
    """Composed Hamiltonian and C against the Kronecker or block closed forms."""
    cells = [cell_matrix(*q.blocks[0]) for q in p.parts]
    cs = [cell_c(*q.blocks[0]) for q in p.parts]
    if p.op == "double":
        doubled, frame, verdict = out.composed
        n = cells[0].shape[0]
        fails = [] if verdict else ["doubling of a symmetric H reported not PT-symmetric"]
        want = block_diag([cells[0], cells[0].conj().T])
        p_want = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        if np.linalg.norm(doubled - want) > SPECTRUM_TOL * _scale(want):
            fails.append("doubled Hamiltonian differs from H (+) H+")
        if np.linalg.norm(frame.p.matrix - p_want) > 0.0:
            fails.append("doubling parity is not the block swap")
        return fails
    h, cpt = out.composed
    if p.op == "tensor":
        h_want, c_want = np.kron(cells[0], cells[1]), np.kron(cs[0], cs[1])
    else:
        h_want, c_want = block_diag(cells), block_diag(cs)
    fails = []
    if np.linalg.norm(h - h_want) > SPECTRUM_TOL * _scale(h_want):
        fails.append(f"composed Hamiltonian ({p.op}) differs from the closed form")
    c_err = float(np.linalg.norm(cpt.c.matrix - c_want))
    if c_err > C_TOL * max(1.0, float(np.linalg.norm(c_want))):
        fails.append(f"composed C ({p.op}) off the closed form by {c_err:.3e}")
    return fails


def check_ep(exc) -> list[str]:
    """An exact exceptional point must raise DefectiveSpectrum."""
    if exc is None:
        return ["exceptional point did not raise"]
    if type(exc).__name__ != "DefectiveSpectrum":
        return [f"exceptional point raised {type(exc).__name__}, expected DefectiveSpectrum"]
    return []


def check_scan(csv: bytes, sweep: dict) -> tuple[list[str], int]:
    """Every row of a 2x2 scan against the closed form.

    Returns the failures and the number of rows inside ``EP_BAND``, which may
    take either verdict or be error rows.
    """
    r, s = sweep["r"], sweep["s"]
    lines = csv.decode("ascii").splitlines()
    if lines[0] != "theta,E1_re,E1_im,E2_re,E2_im,unbroken,warning,error":
        return [f"unexpected header {lines[0]!r}"], 0
    grid = np.linspace(sweep["lo"], sweep["hi"], sweep["n"])
    if len(lines) != len(grid) + 1:
        return [f"{len(lines) - 1} rows, expected {len(grid)}"], 0
    fails, band = [], 0
    for line, theta in zip(lines[1:], grid):
        cells = line.split(",")
        if float(cells[0]) != theta:
            fails.append(f"grid value {cells[0]} differs from {theta!r}")
            continue
        x = abs(r / s * np.sin(theta))
        near = abs(x - 1.0) <= EP_BAND
        band += near
        if cells[7] == "1":
            if not near:
                fails.append(f"error row at theta={theta!r} away from the exceptional point")
            continue
        if cells[5] != ("1" if x <= 1.0 else "0") and not near:
            fails.append(f"unbroken flag {cells[5]} wrong at theta={theta!r} (x = {x:.9f})")
        got = [complex(float(cells[1]), float(cells[2])), complex(float(cells[3]), float(cells[4]))]
        scale = _scale(cell_matrix(r, s, theta))
        # eigenvalues of a cell lose accuracy like 1/sqrt(|1 - x|) near its EP
        tol = SPECTRUM_TOL * scale / np.sqrt(max(abs(1.0 - x), EP_BAND))
        err = spectrum_error(got, cell_eigenvalues(r, s, theta))
        if err > tol:
            fails.append(f"eigenvalues off by {err:.3e} at theta={theta!r}")
    return fails, band
