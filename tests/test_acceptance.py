"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import time

import numpy as np
import pytest

from cptkit import (
    ModelSpec,
    Operator,
    build_c,
    build_model,
    classify_2x2,
    closed_form_c,
    closed_form_spectrum,
    cpt_inner,
    doubling,
    eigendecompose,
    hermitize,
    pair_swap_frame,
    tensor_frames,
    tensor_hamiltonians,
    validate_cpt_frame,
)
from cptkit.cli import EXIT_OK, main
from cptkit.errors import SelfOrthogonal
from cptkit.frames import checked_cpt_frame
from helpers import H1, H2, H3, any_dim_frame, multiset_gap, random_complex, random_pt_symmetric

THETA_STAR = 0.5235987755982989  # arcsin(1/2)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        return wrapper

    return decorate


def random_unbroken_triple(rng):
    while True:
        r = float(rng.choice([-1, 1]) * rng.uniform(0.2, 2.5))
        s = float(rng.choice([-1, 1]) * rng.uniform(0.2, 2.5))
        theta = float(rng.choice([-1, 1]) * rng.uniform(0.05, 1.5))
        if abs((r / s) * np.sin(theta)) <= 0.999:
            return r, s, theta


def model_cell(r, s, theta):
    h, frame = build_model(ModelSpec("2x2", ((r, s, theta),)))
    return h, frame


@criterion("criterion 1 (closed-form C reproduction)")
def test_criterion_01_closed_form_c_reproduction():
    started = time.perf_counter()

    h, frame = model_cell(1.0, 2.0, np.pi / 6)
    built = build_c(h, frame).cpt.c.matrix
    assert np.abs(built - closed_form_c(np.arcsin(0.25))).max() <= 1e-8

    rng = np.random.default_rng(101)
    for _ in range(200):
        r, s, theta = random_unbroken_triple(rng)
        h, frame = model_cell(r, s, theta)
        built = build_c(h, frame).cpt.c.matrix
        phi = np.arcsin((r / s) * np.sin(theta))
        assert np.abs(built - closed_form_c(phi)).max() <= 1e-8

    assert time.perf_counter() - started < 1.0


@criterion("criterion 2 (regime boundary scan)")
def test_criterion_02_regime_boundary_scan(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "scan", "--model", "2x2", "--sweep", "theta=0.01:1.5607:1000",
            "--r", "2", "--s", "1", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 1000

    thetas = np.array([float(r[0]) for r in rows])
    flags = np.array([int(r[5]) for r in rows])
    step = thetas[1] - thetas[0]

    # exactly one flip, within one grid step of arcsin(1/2)
    flips = np.nonzero(np.diff(flags))[0]
    assert len(flips) == 1
    flip_at = flips[0]
    assert flags[0] == 1 and flags[-1] == 0
    assert thetas[flip_at] <= THETA_STAR + step
    assert thetas[flip_at + 1] >= THETA_STAR - step

    for cells, theta, flag in zip(rows, thetas, flags):
        values = [complex(float(cells[1]), float(cells[2])), complex(float(cells[3]), float(cells[4]))]
        if flag == 1:
            assert max(abs(v.imag) for v in values) <= 1e-8
        else:
            w = np.sqrt(4.0 * np.sin(theta) ** 2 - 1.0)
            expected = [2.0 * np.cos(theta) + 1j * w, 2.0 * np.cos(theta) - 1j * w]
            assert multiset_gap(values, expected) <= 1e-9
            assert multiset_gap(values, np.conj(values)) <= 1e-9


@criterion("criterion 3 (hermitization of symmetric models)")
def test_criterion_03_hermitization():
    rng = np.random.default_rng(103)
    for k in range(100):
        if k % 5 == 4:
            blocks = tuple(random_unbroken_triple(rng) for _ in range(int(rng.integers(2, 4))))
            spec = ModelSpec("chain", blocks)
        elif k % 5 == 3:
            spec = ModelSpec("3x3", (random_unbroken_triple(rng),), a=float(rng.uniform(0.5, 3.0)))
        else:
            spec = ModelSpec("2x2", (random_unbroken_triple(rng),))
        h, frame = build_model(spec)
        result = build_c(h, frame)
        hmat = hermitize(h, result.cpt)
        assert np.linalg.norm(hmat - hmat.conj().T) <= 1e-8 * np.linalg.norm(hmat)
        assert multiset_gap(eigendecompose(hmat).values, eigendecompose(h).values) <= 1e-8


def _gram_residual_of(h, frame):
    result = build_c(h, frame)
    states = [s.state for s in result.aligned_states]
    gram = np.array([[cpt_inner(u, v, result.cpt) for v in states] for u in states])
    return float(np.linalg.norm(gram - np.eye(len(states))))


@criterion("criterion 4 (CPT Gram identity across families)")
def test_criterion_04_cpt_gram_identity():
    rng = np.random.default_rng(104)

    h, frame = build_model(ModelSpec("3x3", ((1.0, 2.0, np.pi / 6),), a=2.5))
    assert _gram_residual_of(h, frame) <= 1e-8

    h, frame = build_model(ModelSpec("4x4", ((1.0, 2.0, np.pi / 6), (0.8, 1.7, -0.4))))
    assert _gram_residual_of(h, frame) <= 1e-8

    blocks = tuple(random_unbroken_triple(rng) for _ in range(10))
    h, frame = build_model(ModelSpec("chain", blocks))
    assert _gram_residual_of(h, frame) <= 1e-8

    h, frame = build_model(ModelSpec("tensor", ((1.0, 2.0, np.pi / 6), (1.0, 3.0, np.pi / 4))))
    assert _gram_residual_of(h, frame) <= 1e-8


@criterion("criterion 5 (classification table)")
def test_criterion_05_classification_table():
    t1 = classify_2x2(H1)
    assert (t1.hermitian, t1.symmetric, t1.pt_symmetric) == (True, True, False)
    t2 = classify_2x2(H2)
    assert (t2.pt_symmetric, t2.symmetric, t2.hermitian) == (True, False, False)
    t3 = classify_2x2(H3)
    assert (t3.hermitian, t3.pt_symmetric) == (True, False)


@criterion("criterion 6 (norm sandwich)")
def test_criterion_06_norm_sandwich():
    rng = np.random.default_rng(106)
    frames = []
    for r, s, theta in ((1.0, 2.0, np.pi / 6), (0.9, 1.3, -0.7), (1.5, 2.1, 0.3)):
        h, frame = model_cell(r, s, theta)
        frames.append(build_c(h, frame).cpt)
    frames.append(checked_cpt_frame(Operator.linear(pair_swap_frame(2).p.matrix), pair_swap_frame(2)))
    h, frame = build_model(ModelSpec("4x4", ((1.0, 2.0, np.pi / 6), (0.8, 1.7, -0.4))))
    frames.append(build_c(h, frame).cpt)

    for cpt in frames:
        upper = np.sqrt(np.linalg.norm(cpt.pc_matrix, 2))
        lower = 1.0 / np.sqrt(np.linalg.norm(cpt.c.matrix @ cpt.p.matrix, 2))
        for _ in range(1000):
            v = random_complex(rng, cpt.dim)
            v /= np.linalg.norm(v)
            norm_cpt = np.sqrt(cpt_inner(v, v, cpt).real)
            assert lower - 1e-10 <= norm_cpt <= upper + 1e-10


@criterion("criterion 7 (tensor product theorem)")
def test_criterion_07_tensor_theorem():
    params1 = (1.0, 2.0, np.pi / 6)
    params2 = (1.0, 3.0, np.pi / 4)
    h1, frame1 = model_cell(*params1)
    h2, frame2 = model_cell(*params2)
    cpt1 = build_c(h1, frame1).cpt
    cpt2 = build_c(h2, frame2).cpt
    product, composed = tensor_hamiltonians(h1, h2, cpt1, cpt2)

    e1 = closed_form_spectrum(*params1).eigenvalues
    e2 = closed_form_spectrum(*params2).eigenvalues
    expected = [x * y for x in e1 for y in e2]
    assert multiset_gap(eigendecompose(product).values, expected) <= 1e-9

    # PT eigenvalue pattern (1, -1, -1, 1) on the product eigenstates
    phi1 = closed_form_spectrum(*params1).phi
    phi2 = closed_form_spectrum(*params2).phi

    def psi(phi, sign):
        if sign > 0:
            return np.array([np.exp(0.5j * phi), np.exp(-0.5j * phi)]) / np.sqrt(2)
        return np.array([np.exp(-0.5j * phi), -np.exp(0.5j * phi)]) / np.sqrt(2)

    pattern = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            state = np.kron(psi(phi1, s1), psi(phi2, s2))
            image = composed.frame.apply_pt(state)
            ratio = complex(np.vdot(state, image) / np.vdot(state, state))
            assert np.linalg.norm(image - ratio * state) <= 1e-10
            pattern.append(round(ratio.real))
    assert pattern == [1, -1, -1, 1]

    assert validate_cpt_frame(composed.c, composed.frame).passed
    same = tensor_frames(cpt1, cpt2)
    assert np.abs(same.c.matrix - composed.c.matrix).max() <= 1e-12


@criterion("criterion 8 (conjugate-pair spectrum)")
def test_criterion_08_conjugate_pair_spectrum():
    rng = np.random.default_rng(108)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        frame = any_dim_frame(n)
        h = random_pt_symmetric(rng, frame)
        values = np.linalg.eigvals(h)
        assert multiset_gap(values, np.conj(values)) <= 1e-8


@criterion("criterion 9 (doubling predicate)")
def test_criterion_09_doubling_predicate():
    rng = np.random.default_rng(109)
    for k in range(200):
        n = int(rng.integers(2, 6))
        a = random_complex(rng, (n, n))
        if k % 2 == 0:
            a = (a + a.T) / 2.0
        _, _, verdict = doubling(a)
        assert verdict == (np.linalg.norm(a - a.T) <= 1e-12)


@criterion("criterion 10 (exceptional-point handling)")
def test_criterion_10_exceptional_point_handling(tmp_path):
    # sin(phi) within 1e-8 of 1 must fail with SelfOrthogonal, on both signs
    for eps in (1e-8, 1e-9, 1e-12):
        h, frame = model_cell(1.0 - eps, 1.0, np.pi / 2)
        with pytest.raises(SelfOrthogonal):
            build_c(h, frame)
    h, frame = model_cell(-(1.0 - 1e-9), 1.0, np.pi / 2)
    with pytest.raises(SelfOrthogonal):
        build_c(h, frame)

    # just outside the guard band the frame must build and be positive definite
    h, frame = model_cell(1.0 - 2e-8, 1.0, np.pi / 2)
    result = build_c(h, frame)
    pc = result.cpt.pc_matrix
    assert np.linalg.eigvalsh((pc + pc.conj().T) / 2).min() > 0

    # the scan marks rows at the exceptional point instead of aborting
    out = tmp_path / "scan.csv"
    lo = np.pi / 2 - 2e-4
    hi = np.pi / 2
    code = main(
        ["scan", "--model", "2x2", "--sweep", f"theta={lo}:{hi}:5", "--r", "1", "--s", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 5
    # every row is flagged (warning or row-level error), none aborted the scan
    for cells in rows:
        assert cells[-2] == "1" or cells[-1] == "1"
