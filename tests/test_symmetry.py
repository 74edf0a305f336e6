import numpy as np
import pytest

from cptkit import (
    BROKEN,
    NOT_APPLICABLE,
    UNBROKEN,
    ModelSpec,
    build_c,
    build_model,
    classify_2x2,
    classify_stack,
    classify_symmetry,
    closed_form_c,
    eigendecompose,
    hermitize,
    is_pt_symmetric,
    linops,
    pair_swap_frame,
    phase_align,
    symmetry,
)
from cptkit.errors import CptKitError, DefectiveSpectrum, DimensionMismatch, NonFiniteEntries, NotPTEigenstate
from helpers import (
    H1,
    H2,
    H3,
    any_dim_frame,
    bench_workloads,
    multiset_gap,
    permuted_chain,
    random_cells,
    random_pt_symmetric,
    random_symmetric_pt_symmetric,
    solved_whole,
    unitary_basis_change,
)

E_PLUS = 2.8025170768881473
E_MINUS = -1.0704662693192697
SQRT3 = 1.7320508075688772


def model_2x2(r, s, theta):
    return np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])


def psi_minus(phi):
    return np.array([np.exp(-0.5j * phi), -np.exp(0.5j * phi)]) / np.sqrt(2.0)


# ---------------------------------------------------------------- is_pt_symmetric


def test_h2_is_pt_symmetric():
    check = is_pt_symmetric(H2, pair_swap_frame(2))
    assert check and check.residual < 1e-14


def test_h3_is_not_pt_symmetric():
    assert not is_pt_symmetric(H3, pair_swap_frame(2))


def test_h1_is_not_pt_symmetric():
    assert not is_pt_symmetric(H1, pair_swap_frame(2))


def test_is_pt_symmetric_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_pt_symmetric(H1, pair_swap_frame(4))


# ---------------------------------------------------------------- phase_align


def test_phase_align_fixed_vector_is_noop():
    frame = pair_swap_frame(2)
    v = np.array([1.0 + 2j, 1.0 - 2j])  # P conj(v) = v
    phi, theta = phase_align(v, frame)
    assert theta == 0.0
    np.testing.assert_allclose(phi, v)


def test_phase_align_odd_state_gets_quarter_turn():
    # PT psi = -psi, so theta = pi and the aligned state is i psi
    frame = pair_swap_frame(2)
    psi = psi_minus(np.arcsin(0.25))
    np.testing.assert_allclose(frame.apply_pt(psi), -psi, atol=1e-15)
    phi, theta = phase_align(psi, frame)
    assert abs(theta - np.pi) < 1e-12
    np.testing.assert_allclose(phi, 1j * psi, atol=1e-12)
    np.testing.assert_allclose(frame.apply_pt(phi), phi, atol=1e-12)
    assert abs(np.linalg.norm(phi) - np.linalg.norm(psi)) < 1e-14


def test_phase_align_basis_vector_fails():
    with pytest.raises(NotPTEigenstate):
        phase_align(np.array([1.0, 0.0]), pair_swap_frame(2))


def test_phase_align_of_the_zero_vector_fails():
    with pytest.raises(NotPTEigenstate, match="cannot align the zero vector"):
        phase_align(np.zeros(2), pair_swap_frame(2))


def test_phase_align_idempotent():
    rng = np.random.default_rng(31)
    frame = any_dim_frame(4)
    for _ in range(20):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = z + frame.apply_pt(z)
        if np.linalg.norm(v) < 1e-6:
            continue
        phi, _ = phase_align(v, frame)
        phi2, theta2 = phase_align(phi, frame)
        assert theta2 == 0.0
        np.testing.assert_allclose(phi2, phi)


# ---------------------------------------------------------------- classify_symmetry


def test_classify_unbroken_model():
    report = classify_symmetry(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    assert report.pt_symmetric
    assert report.classification == UNBROKEN
    np.testing.assert_allclose(report.eigenvalues, [E_MINUS, E_PLUS], atol=1e-10)
    np.testing.assert_allclose(report.eigenvalues.real, [-1.070466, 2.802517], atol=5e-7)
    assert len(report.aligned_states) == 2
    frame = pair_swap_frame(2)
    for state in report.aligned_states:
        np.testing.assert_allclose(frame.apply_pt(state.state), state.state, atol=1e-10)


def _sour_phase_alignment(monkeypatch):
    """Make every eigenvector that phase alignment runs on fail it, so that
    each real eigenspace, simple ones too, is rebased.  Alignment runs on
    the eigenvectors of a dense frame and of a row that falls back to the
    complex solve; those of the real solve are PT-fixed as they stand."""
    real_align = symmetry._align_columns

    def sour(vectors, frame, tol):
        phi, theta, aligned, c, residual = real_align(vectors, frame, tol)
        return phi, theta, np.zeros_like(aligned), c, residual

    monkeypatch.setattr(symmetry, "_align_columns", sour)


def test_classify_rebases_simple_eigenvector_that_fails_phase_alignment(monkeypatch):
    _sour_phase_alignment(monkeypatch)
    # moved by a unitary onto a dense frame, where the eigenvectors are phase-aligned
    _, h, frame = unitary_basis_change(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2), np.random.default_rng(4))
    report = classify_symmetry(h, frame)
    assert report.classification == UNBROKEN
    assert [w.endswith("aligned via rebasing, not by phase") for w in report.warnings] == [True, True]
    for state in report.aligned_states:
        assert state.theta == 0.0
        np.testing.assert_allclose(frame.apply_pt(state.state), state.state, atol=1e-12)


def test_classify_breaks_where_a_rebase_fails(monkeypatch):
    # the degenerate eigenspace of the identity cannot be rebased: its
    # states are dropped and the symmetry reads broken, with no warning
    def fail(columns, frame):
        return columns, np.zeros(len(columns), dtype=bool)

    monkeypatch.setattr(symmetry, "_pt_fixed_basis", fail)
    frame = pair_swap_frame(4)
    report = classify_symmetry(np.eye(4), frame)
    assert (report.classification, report.aligned_states, report.warnings) == (BROKEN, (), ())
    rows = classify_stack(np.eye(4)[None], frame)
    assert (rows.classification.tolist(), rows.warning.tolist(), rows.error.tolist()) == ([BROKEN], [False], [False])


def test_unpaired_conjugates_are_warned_upper_half_plane_first():
    # a perturbed exceptional point: the non-real eigenvalues +-(1 + i) 5e-6
    # are each other's negatives, not conjugates, so neither has a partner
    g = model_2x2(1.0, 1.0, np.pi / 2) + 5e-11j * np.array([[0, 1], [0, 0]])
    frame = pair_swap_frame(2)
    report = classify_symmetry(g, frame)
    assert report.classification == BROKEN
    assert report.broken_pairs == ()
    assert report.warnings == (
        "exceptional-point proximity: Petermann factor 2.000e+10 reaches the threshold 5.000e+05; "
        "eigenvectors nearly coalesce and results are ill-conditioned",
        "non-real eigenvalue 5e-06+5e-06j has no conjugate partner",
        "non-real eigenvalue -5e-06-5e-06j has no conjugate partner",
    )
    rows = classify_stack(np.stack([g, g]), frame)
    assert rows.classification.tolist() == [BROKEN, BROKEN]
    assert rows.warning.tolist() == [True, True]


def test_classify_broken_model():
    report = classify_symmetry(model_2x2(2, 1, np.pi / 2), pair_swap_frame(2))
    assert report.classification == BROKEN
    assert len(report.broken_pairs) == 1
    pair = report.broken_pairs[0]
    assert abs(pair.value - 1j * SQRT3) < 1e-10
    assert abs(pair.partner + 1j * SQRT3) < 1e-10


def test_classify_identity_is_unbroken_degenerate():
    frame = pair_swap_frame(4)
    report = classify_symmetry(np.eye(4), frame)
    assert report.classification == UNBROKEN
    assert len(report.aligned_states) == 4
    for state in report.aligned_states:
        assert state.energy == pytest.approx(1.0)
        np.testing.assert_allclose(frame.apply_pt(state.state), state.state, atol=1e-12)


def test_classify_not_applicable():
    report = classify_symmetry(H3, pair_swap_frame(2))
    assert not report.pt_symmetric
    assert report.classification == NOT_APPLICABLE
    assert report.aligned_states == ()


def test_classify_warns_near_exceptional_point():
    cell = (1.0, 1.0, np.arcsin(1.0 - 1e-7))
    # the cell alone, and inside a chain next to a cell far from its own exceptional point
    for spec in (ModelSpec("2x2", (cell,)), ModelSpec("chain", (cell, (1.0, 3.0, 0.4)))):
        report = classify_symmetry(*build_model(spec))
        assert report.classification == UNBROKEN
        assert any("exceptional" in w for w in report.warnings), spec.family


def _cell_petermann(x):
    """Closed-form Petermann factor of a 2x2 cell at breaking parameter x."""
    return 1.0 / (1.0 - x * x) if x < 1.0 else x * x / (x * x - 1.0)


@pytest.mark.parametrize("x", [0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 1.5])
def test_petermann_factor_of_the_cell_matches_its_closed_form(x):
    vectors = eigendecompose(model_2x2(x / np.sin(1.2), 1.0, 1.2)).vectors
    assert symmetry._petermann(vectors[None])[0] == pytest.approx(_cell_petermann(x), rel=1e-9)


def test_petermann_warning_is_the_breaking_parameter_band():
    # K >= EP_WARNING_K is |x - 1| <= 1e-6 for the cell, up to a sliver of
    # width ~1e-12 above x = 1 + 1e-6, where the broken-side closed form
    # x^2 / (x^2 - 1) still reaches the threshold: there it is the oracle
    r = np.linspace(1.0 - 2e-6, 1.0 + 2e-6, 20001) / np.sin(1.2)
    x = np.abs(r * np.sin(1.2))  # the breaking parameter |r/s sin(theta)| at s = 1
    rows = classify_stack(np.stack([model_2x2(ri, 1.0, 1.2) for ri in r]), pair_swap_frame(2))
    expected = np.abs(x - 1.0) <= 1e-6
    for i in np.flatnonzero(np.abs(np.abs(x - 1.0) - 1e-6) <= 1e-11):
        expected[i] = _cell_petermann(x[i]) >= symmetry.EP_WARNING_K
    assert np.flatnonzero(rows.error).tolist() == np.flatnonzero(np.abs(x - 1.0) <= 1e-12).tolist()
    np.testing.assert_array_equal(rows.warning[~rows.error], expected[~rows.error])
    assert rows.warning.sum() > 9000


def test_petermann_factor_is_bounded_by_the_squared_condition():
    # max K <= |V^-1|^2 <= cond(V)^2 for unit columns: the gate of the kernel
    rng = np.random.default_rng(71)
    for _ in range(210):
        n = int(rng.integers(2, 9))
        eigen = eigendecompose(random_pt_symmetric(rng, any_dim_frame(n), imag_bias=rng.uniform(0.05, 2.0)))
        assert symmetry._petermann(eigen.vectors[None])[0] <= eigen.condition**2 * (1.0 + 1e-12)


def test_classification_far_from_an_exceptional_point_inverts_nothing(monkeypatch):
    inversions = []
    real_inv = np.linalg.inv

    def counting_inv(a):
        inversions.append(None)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    blocks = tuple((0.5, 1.0 + 0.01 * k, 0.3 + 0.01 * k) for k in range(100))
    h, frame = build_model(ModelSpec("chain", blocks))
    classify_symmetry(h, frame)
    classify_stack(np.stack([h, 2.0 * h]), frame)
    assert inversions == []
    # the gate opens near one: the counter sees the inversion there
    near = build_model(ModelSpec("chain", ((1.0, 1.0, np.arcsin(1.0 - 1e-7)),) + blocks[1:]))
    classify_symmetry(*near)
    assert len(inversions) == 1


def test_classify_no_warning_far_from_exceptional_point():
    report = classify_symmetry(model_2x2(1, 2, np.pi / 6), pair_swap_frame(2))
    assert report.warnings == ()


def test_conjugate_pair_spectrum_property():
    rng = np.random.default_rng(32)
    for _ in range(60):
        n = int(rng.integers(1, 5)) * 2
        frame = pair_swap_frame(n)
        h = random_pt_symmetric(rng, frame)
        report = classify_symmetry(h, frame)
        assert multiset_gap(report.eigenvalues, np.conj(report.eigenvalues)) <= 1e-8


def test_unbroken_implies_real_spectrum():
    rng = np.random.default_rng(33)
    seen = 0
    for _ in range(200):
        n = int(rng.integers(1, 4)) * 2
        frame = pair_swap_frame(n)
        h = random_pt_symmetric(rng, frame, imag_bias=0.1)
        report = classify_symmetry(h, frame)
        if report.classification == UNBROKEN:
            seen += 1
            assert np.abs(report.eigenvalues.imag).max() <= 1e-9 * max(
                1.0, np.linalg.norm(h)
            )
    assert seen > 10


def test_classification_scale_invariant():
    rng = np.random.default_rng(34)
    frame = pair_swap_frame(4)
    for _ in range(20):
        h = random_pt_symmetric(rng, frame)
        base = classify_symmetry(h, frame)
        for factor in (3.0, -2.0, 0.25):
            scaled = classify_symmetry(factor * h, frame)
            assert scaled.classification == base.classification
            assert multiset_gap(scaled.eigenvalues, factor * base.eigenvalues) <= 1e-8 * max(
                1.0, abs(factor) * np.linalg.norm(h)
            )


# ---------------------------------------------------------------- classify_2x2


def test_classify_2x2_h1():
    out = classify_2x2(H1)
    assert (out.hermitian, out.symmetric, out.pt_symmetric) == (True, True, False)
    assert out.cpt_candidate_forms == frozenset({3, 4})


def test_classify_2x2_h2():
    out = classify_2x2(H2)
    assert (out.hermitian, out.symmetric, out.pt_symmetric) == (False, False, True)
    assert out.cpt_candidate_forms == frozenset({5})


def test_classify_2x2_h3():
    out = classify_2x2(H3)
    assert (out.hermitian, out.symmetric, out.pt_symmetric) == (True, False, False)
    assert out.cpt_candidate_forms == frozenset({3})


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_classify_2x2_verdicts_do_not_depend_on_the_scale(scale):
    # every residual is compared against tol * |H|, as criterion 5's table reads at scale 1
    for h in (H1, H2, H3):
        base, scaled = classify_2x2(h), classify_2x2(scale * h)
        assert scaled == base
        assert all(type(flag) is bool for flag in (scaled.hermitian, scaled.symmetric, scaled.pt_symmetric))


def test_classify_2x2_real_circulant_satisfies_everything():
    out = classify_2x2(np.array([[2.0, 3.0], [3.0, 2.0]]))
    assert out.cpt_candidate_forms == frozenset({3, 4, 5, 6, 7})


def test_classify_2x2_pt_hermitian_not_symmetric():
    # [[a, b], [conj(b), a]] with real a: PT-symmetric and Hermitian
    out = classify_2x2(np.array([[2.0, 3j], [-3j, 2.0]]))
    assert out.cpt_candidate_forms == frozenset({3, 5, 6})


def test_classify_2x2_rejects_other_shapes():
    with pytest.raises(DimensionMismatch):
        classify_2x2(np.eye(3))


def test_classify_2x2_of_an_overflowing_scale_raises_without_warning():
    # |H| and H - H+ overflow: NonFiniteEntries, not numpy's RuntimeWarning
    with pytest.raises(NonFiniteEntries):
        classify_2x2(np.array([[1.0, 1e308], [-1e308, 1.0]]))


# ---------------------------------------------------------------- classify_stack


def _row_by_row(mats, frame):
    """Reference: classify_symmetry on each matrix, an error where it raises."""
    rows = []
    for m in mats:
        try:
            report = classify_symmetry(m, frame)
        except CptKitError:
            rows.append((True, None, None))
        else:
            rows.append((False, report.classification, bool(report.warnings)))
    return rows


def _stack_rows(stack):
    """The rows of a StackClassification in the form of :func:`_row_by_row`."""
    return [
        (bool(e), None if e else str(c), None if e else bool(w))
        for e, c, w in zip(stack.error, stack.classification, stack.warning)
    ]


@pytest.mark.parametrize("n", [2, 4])
def test_classify_stack_agrees_with_classify_symmetry_row_by_row(n, monkeypatch):
    rng = np.random.default_rng(21 + n)
    frame = pair_swap_frame(n)
    cells = [model_2x2(1.0, 1.0, np.pi / 2), model_2x2(1.0, 1.0, np.pi / 2 - 1e-4), model_2x2(2.0, 1.0, 1.2)]
    if n == 4:  # each cell next to itself: degenerate eigenvalues, repeated conjugate pairs
        cells = [np.kron(np.eye(2), c) for c in cells]
    mats = [random_pt_symmetric(rng, frame, imag_bias=b) for b in np.linspace(0.02, 2.0, 12)]
    mats += cells + [
        np.eye(n),  # one degenerate eigenspace: the per-row rebase
        H3 if n == 2 else np.kron(np.eye(2), H3),  # not PT-symmetric
        1e300 * random_pt_symmetric(rng, frame),  # Frobenius norm overflows
        np.full((n, n), np.nan),
    ]
    stack = classify_stack(np.stack(mats), frame)
    got = _stack_rows(stack)
    assert got == _row_by_row(mats, frame)
    assert {c for _, c, _ in got} == {UNBROKEN, BROKEN, NOT_APPLICABLE, None}
    for m, error, values in zip(mats, stack.error, stack.eigenvalues):
        if not error:
            np.testing.assert_array_equal(values, classify_symmetry(m, frame).eigenvalues)

    # moved onto a dense frame, where every eigenvector is phase-aligned, and
    # with phase alignment sour, every simple eigenvector is rebased: the
    # random unbroken rows that were quiet now warn, from the kernel's arrays
    u, _, dense = unitary_basis_change(np.eye(n), frame, rng)
    moved = [u @ m @ u.conj().T for m in mats]
    stack = classify_stack(np.stack(moved), dense)
    quiet = (stack.classification == UNBROKEN) & ~stack.warning & ~stack.error
    quiet[12:] = False  # the identity is one degenerate eigenspace: rebased, never warned
    assert quiet.any()
    _sour_phase_alignment(monkeypatch)
    sour = classify_stack(np.stack(moved), dense)
    assert sour.warning[quiet].all()
    assert _stack_rows(sour) == _row_by_row(moved, dense)


def test_classify_stack_rejects_a_stack_of_the_wrong_dimension():
    with pytest.raises(DimensionMismatch):
        classify_stack(np.zeros((3, 4, 4)), pair_swap_frame(2))


def test_pt_check_of_an_overflowing_scale_raises():
    # H is not PT-symmetric, but |H| overflows and a tolerance relative to
    # it would be infinite: the check raises instead of passing
    with pytest.raises(NonFiniteEntries):
        is_pt_symmetric(np.array([[1e308, 1e308], [0.0, 1.0]]), pair_swap_frame(2))


def test_overflowing_scale_raises_instead_of_passing_every_check():
    # |H| overflows: every tolerance relative to it would be infinite
    with pytest.raises(NonFiniteEntries):
        classify_symmetry(model_2x2(1e308, 1.0, 0.3), pair_swap_frame(2))


# ---------------------------------------------------------------- the real basis


def _recorded_kinds(monkeypatch):
    """Record the dtype kind ("f" real, "c" complex) of every matrix passed
    to np.linalg.eig and np.linalg.svd."""
    kinds = {"eig": [], "svd": []}
    for name, seen in kinds.items():
        real = getattr(np.linalg, name)

        def recording(a, *args, _seen=seen, _real=real, **kwargs):
            _seen.append(np.asarray(a).dtype.kind)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return kinds


def test_an_index_frame_chain_is_classified_in_real_arithmetic(monkeypatch):
    h, frame = build_model(ModelSpec("chain", tuple((0.5, 1.0 + 0.1 * k, 0.3 + 0.05 * k) for k in range(10))))
    kinds = _recorded_kinds(monkeypatch)
    report = classify_symmetry(h, frame)
    build_c(h, frame)
    # cond(V) of both real solves is cleared by the Gram certificate: no SVD
    assert kinds == {"eig": ["f", "f"], "svd": []}
    assert report.classification == UNBROKEN
    np.testing.assert_allclose(report.eigenvalues, eigendecompose(h).values, rtol=0, atol=1e-13)
    for state in report.aligned_states:
        np.testing.assert_allclose(frame.apply_pt(state.state), state.state, rtol=0, atol=1e-15)


def _fallback_inputs():
    """Inputs whose eigenvalues must come from the complex solve of H: a
    frame moved by a unitary (no index array), the cells of acceptance
    criterion 10 at and around the self-orthogonality guard, a cell near its
    exceptional point and a row that is not PT-symmetric."""
    rng = np.random.default_rng(5)
    cell = build_model(ModelSpec("2x2", ((1.0, 2.0, 0.4),)))
    yield unitary_basis_change(*cell, rng)[1:]
    yield unitary_basis_change(*build_model(ModelSpec("chain", ((1.0, 2.0, 0.4), (1.0, 3.0, 0.7)))), rng)[1:]
    for r in (1.0 - 1e-8, 1.0 - 1e-9, 1.0 - 1e-12, -(1.0 - 1e-9), 1.0 - 2e-8, 1.0 - 1e-6):
        yield build_model(ModelSpec("2x2", ((r, 1.0, np.pi / 2),)))
    yield H3, pair_swap_frame(2)


def test_fallback_rows_take_the_complex_solve_bit_for_bit(monkeypatch):
    kinds = _recorded_kinds(monkeypatch)
    for h, frame in _fallback_inputs():
        kinds["eig"].clear()
        report = classify_symmetry(h, frame)
        assert kinds["eig"][-1] == "c"
        assert report.eigenvalues.tobytes() == eigendecompose(h).values.tobytes()
        stack = classify_stack(np.stack([h, h]), frame)
        assert stack.eigenvalues.tobytes() == eigendecompose(np.stack([h, h]).astype(complex)).values.tobytes()


def _count_alignments(monkeypatch) -> list:
    """Record one entry per call of the phase alignment."""
    calls = []
    align = symmetry._align_columns

    def counting(*args):
        calls.append(None)
        return align(*args)

    monkeypatch.setattr(symmetry, "_align_columns", counting)
    return calls


@pytest.mark.parametrize("dim", [2, 200])
def test_the_real_solve_leaves_no_state_to_phase_align(dim, monkeypatch):
    # each eigenvector of the real solve is Q x, x real: PT-fixed as it
    # stands, with phase 0, so an unbroken pipeline aligns nothing
    if dim == 2:
        h, frame = build_model(ModelSpec("2x2", ((1.0, 2.0, 0.5),)))
    else:
        h, frame = build_model(bench_workloads().problem("chain-dense", 1, 0).spec)
    assert frame.dim == dim
    calls = _count_alignments(monkeypatch)
    report = classify_symmetry(h, frame)
    build_c(h, frame)
    assert len(calls) == 0
    assert report.classification == UNBROKEN and len(report.aligned_states) == dim
    for state in report.aligned_states:
        assert state.theta == 0.0
        assert np.array_equal(frame.apply_pt(state.state), state.state)
    # moved by a unitary onto a dense frame, each classification aligns once
    _, h, frame = unitary_basis_change(h, frame, np.random.default_rng(dim))
    classify_symmetry(h, frame)
    build_c(h, frame)
    assert len(calls) == 2


def test_a_row_that_falls_back_to_the_complex_solve_is_phase_aligned(monkeypatch):
    # near its exceptional point the cell's real solve passes the gate: the
    # complex solve's eigenvectors carry phases, which alignment removes
    near, frame = build_model(ModelSpec("2x2", ((1.0 - 1e-6, 1.0, np.pi / 2),)))
    cell = build_model(ModelSpec("2x2", ((1.0, 2.0, 0.5),)))[0]
    calls = _count_alignments(monkeypatch)
    report = classify_symmetry(near, frame)
    assert len(calls) == 1 and report.classification == UNBROKEN
    assert all(state.theta > 0.0 for state in report.aligned_states)
    for state in report.aligned_states:
        np.testing.assert_allclose(frame.apply_pt(state.state), state.state, atol=1e-12)
    # in a stack, alignment is kept on the fallback row's columns alone:
    # each row is its own classification, bit for bit
    records = _kernel_calls(monkeypatch)
    calls.clear()
    classify_stack(np.stack([cell, near, cell]), frame)
    assert len(calls) == 1
    rows = records[-1]
    assert rows.theta[[0, 2]].tolist() == [[0.0, 0.0]] * 2
    for i, m in enumerate([cell, near, cell]):
        classify_symmetry(m, frame)
        for field in ("phi", "theta", "kept"):
            assert _row(rows, field, i).tobytes() == _row(records[-1], field, 0).tobytes(), (i, field)


def test_an_empty_key_has_no_runs():
    assert symmetry._runs(np.zeros(0)) == {}
    assert {m: r.tolist() for m, r in symmetry._runs(np.array([1.0, 1.0, 2.0])).items()} == {2: [[0, 1]], 1: [[2]]}


def test_an_exact_exceptional_point_fails_as_in_the_complex_solve(monkeypatch):
    h, frame = build_model(ModelSpec("2x2", ((1.5, 1.5, np.pi / 2),)))
    kinds = _recorded_kinds(monkeypatch)
    with pytest.raises(DefectiveSpectrum) as want:
        eigendecompose(h)
    with pytest.raises(DefectiveSpectrum) as got:
        classify_symmetry(h, frame)
    assert str(got.value) == str(want.value)
    assert kinds["eig"] == ["c", "f", "c"]
    stack = classify_stack(h[None], frame)
    assert stack.error.tolist() == [True]
    assert stack.eigenvalues.tobytes() == eigendecompose(h[None]).values.tobytes()


# ---------------------------------------------------------------- the rebase


def _chain(*blocks):
    return build_model(ModelSpec("chain", blocks))


def _rebase_stacks():
    """Stacks whose rows rebase eigenspaces of several sizes, with the
    classification of each row: index-frame chains with 2- and 3-fold
    eigenspaces, the identity and a broken chain; and, moved by one unitary
    onto the dense frame, such chains, the identity and a broken row with a
    degenerate real cluster."""
    cell, other, broken = (1.0, 2.0, 0.5), (0.5, 1.0, 0.3), (2.0, 1.0, 1.2)
    twofold, frame = _chain(cell, cell, other)
    threefold = _chain(cell, cell, cell)[0]
    yield [twofold, threefold, np.eye(6), _chain(cell, other, broken)[0]], frame, [UNBROKEN] * 3 + [BROKEN]
    yield [_chain(cell, cell)[0], np.eye(4), _chain(cell, other)[0]], pair_swap_frame(4), [UNBROKEN] * 3
    u, moved, dense = unitary_basis_change(twofold, frame, np.random.default_rng(3))
    mats = [moved, u @ _chain(cell, cell, broken)[0] @ u.conj().T, np.eye(6), u @ threefold @ u.conj().T]
    yield mats, dense, [UNBROKEN, BROKEN, UNBROKEN, UNBROKEN]


def _kernel_calls(monkeypatch):
    """Record the arrays of every call of the classification kernel."""
    calls = []
    kernel = symmetry._classify_rows

    def recording(*args):
        calls.append(kernel(*args))
        return calls[-1]

    monkeypatch.setattr(symmetry, "_classify_rows", recording)
    return calls


def _row(rows, field, i):
    """Row ``i`` of a field of a classification record; for ``phi``, the
    states of its parts joined into one ``(n, n)`` array, each block's
    states at its indices and sorted columns, zero off the blocks, in the
    basis its row was solved in."""
    if field != "phi":
        return getattr(rows, field)[i]
    n = rows.stack.shape[-1]
    phi = np.zeros((n, n), dtype=complex)
    for part_rows, at, col, states in rows.parts:
        for b in np.flatnonzero(part_rows == i):
            phi[(slice(None),) * 2 if at is None else np.ix_(at[b], col[b])] = states[b]
    return phi


@pytest.mark.parametrize("sour", [False, True])
def test_a_stack_rebases_each_row_as_its_own_classification_bit_for_bit(sour, monkeypatch):
    if sour:  # every simple eigenspace is rebased too: size-1 groups across rows
        _sour_phase_alignment(monkeypatch)
    calls = _kernel_calls(monkeypatch)
    for mats, frame, want in _rebase_stacks():
        if sour and frame.real_basis is not None:  # moved onto a dense frame, where alignment runs
            u, _, frame = unitary_basis_change(mats[0], frame, np.random.default_rng(len(mats)))
            mats = [u @ m @ u.conj().T for m in mats]
        stack = classify_stack(np.stack(mats), frame)
        rows = calls[-1]
        assert stack.classification.tolist() == want
        assert rows.rebased.any() == sour
        for i, m in enumerate(mats):
            classify_symmetry(m, frame)
            one = calls[-1]
            for field in ("phi", "theta", "energy", "kept", "rebased"):
                assert _row(rows, field, i).tobytes() == _row(one, field, 0).tobytes(), (i, field)
            assert rows.condition[i].tobytes() == one.condition[0].tobytes(), i


def test_a_stack_and_a_matrix_each_take_one_pass_of_the_pipeline(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    for mats, frame, want in _rebase_stacks():
        assert classify_stack(np.stack(mats), frame).classification.tolist() == want
        assert len(calls) == 1 and len(calls[0].stack) == len(mats)
        report = classify_symmetry(mats[0], frame)
        # the report holds that pass's record, with its states and no eigensystem
        assert len(calls) == 2 and report._analysis.parts is calls[1].parts
        assert not any(isinstance(value, linops.EigenSystem) for value in report._analysis)
        calls.clear()


@pytest.mark.parametrize("n_rows", [1, 6])
def test_a_stack_rebases_in_one_svd_per_eigenspace_size(n_rows, monkeypatch):
    # two 3-fold eigenspaces per row: one SVD for every rebase, and none for
    # cond(V), which the Gram certificate clears
    h, frame = _chain((1.0, 2.0, 0.5), (1.0, 2.0, 0.5), (1.0, 2.0, 0.5), (0.5, 1.0, 0.3))
    kinds = _recorded_kinds(monkeypatch)
    stack = classify_stack(np.stack([h] * n_rows), frame)
    assert stack.classification.tolist() == [UNBROKEN] * n_rows
    assert len(kinds["svd"]) == 1


def _grid(thetas):
    return np.stack([model_2x2(1.5, 1.0, theta) for theta in thetas])


#: Angles at which the breaking parameter 1.5 sin(theta) of the grid lies
#: inside the exceptional-point band, at 1 -+ 5e-7: the certificate clears
#: neither, and each falls back to the complex solve and warns.
BAND_THETAS = [float(np.arcsin((1.0 - 5e-7) / 1.5)), float(np.arcsin((1.0 + 5e-7) / 1.5))]


@pytest.mark.parametrize("thetas", [
    [0.3], [1.2], [0.1, 0.3, 0.5], [0.9, 1.2, 1.5], [0.1, 0.9, 0.3, 1.2, 0.5],
    [BAND_THETAS[0], 0.3, BAND_THETAS[1], 1.2],
], ids=["one-unbroken", "one-broken", "all-unbroken", "all-broken", "mixed", "band"])
def test_stack_rows_equal_their_single_classification_bit_for_bit(thetas, monkeypatch):
    # the breaking parameter 1.5 sin(theta) crosses 1 at theta = 0.73: a stack
    # whose rows are all unbroken or all broken is solved as one group, a
    # mixed stack as two; phi, theta and energy of a column that holds no
    # aligned state carry no meaning
    calls = _kernel_calls(monkeypatch)
    frame = pair_swap_frame(2)
    stack = classify_stack(_grid(thetas), frame)
    rows = calls[-1]
    assert stack.classification.tolist() == [UNBROKEN if 1.5 * np.sin(t) < 1 else BROKEN for t in thetas]
    for i, m in enumerate(_grid(thetas)):
        classify_symmetry(m, frame)
        one = calls[-1]
        # the states of every column, as the eigenvectors were
        for field in ("values", "phi", "condition"):
            assert _row(rows, field, i).tobytes() == _row(one, field, 0).tobytes(), (i, field)
        kept = one.kept[0]
        for field in ("phi", "theta", "energy"):
            assert _row(rows, field, i)[..., kept].tobytes() == _row(one, field, 0)[..., kept].tobytes(), (i, field)
        for field in ("kept", "partner", "classification", "warning"):
            assert getattr(rows, field)[i].tobytes() == getattr(one, field)[0].tobytes(), (i, field)


# ---------------------------------------------------------------- the Gram certificate of cond(V)


#: The tensor model's basis reordered so that its parity pairs the indices
#: (0, 1) and (2, 3), as the parity of a chain of two cells does.
TENSOR_AS_CHAIN = [0, 3, 1, 2]


def _certificate_stack():
    """A stack over the frame of a chain of two cells: rows that the Gram
    certificate clears (chains away from any exceptional point), and rows
    that it does not: tensor products of two cells, which are well
    conditioned but have Gram row sums (1 + x1)(1 + x2) > 2, chains with a
    cell inside the exceptional-point band |x - 1| <= 1e-6 on either side,
    and a chain with a cell at its exact exceptional point.  Returns the
    matrices, the chains at 0, 3 and 7 and the tensors at 1 and 5, and the
    frame."""
    far = [(1.0, 2.0, 0.5), (1.0, 3.0, 0.7), (0.5, 1.0, 0.3), (2.0, 3.0, 0.4)]
    chains = [_chain(far[k], far[k + 1])[0] for k in range(3)]
    frame = _chain(*far[:2])[1]
    # cells at breaking parameters x = 0.7, 0.6 and 0.8: row sums 2.72 and 2.88
    strong = [(0.7 / np.sin(1.0), 1.0, 1.0), (1.2 / np.sin(0.8), 2.0, 0.8), (0.8 / np.sin(1.1), 1.0, 1.1)]
    tensors = [build_model(ModelSpec("tensor", strong[k : k + 2]))[0][np.ix_(TENSOR_AS_CHAIN, TENSOR_AS_CHAIN)]
               for k in range(2)]
    band = [_chain(far[0], (x, 1.0, np.pi / 2))[0] for x in (1.0 - 5e-7, 1.0 + 5e-7)]
    exceptional = _chain(far[1], (1.0, 1.0, np.pi / 2))[0]
    mats = [chains[0], tensors[0], band[0], chains[1], exceptional, tensors[1], band[1], chains[2]]
    return mats, frame


def _exact_path(monkeypatch):
    """Classify with cond(V) from the SVD on every row, as without the certificate."""
    solve = symmetry.stacked_eigensystem
    monkeypatch.setattr(symmetry, "stacked_eigensystem", lambda a, scale, tol, gate=None: solve(a, scale, tol))


def _record_without_condition(rows):
    """The arrays of a kernel record that do not hold cond(V), by name, with
    the states of its parts joined by row as ``phi``."""
    arrays = {name: value for name, value in rows._asdict().items() if isinstance(value, np.ndarray)}
    del arrays["condition"]
    arrays["phi"] = np.stack([_row(rows, "phi", i) for i in range(len(rows.stack))])
    return arrays


def _report_or_error(h, frame):
    """The report of :func:`classify_symmetry`, or the message of its DefectiveSpectrum."""
    try:
        return classify_symmetry(h, frame)
    except DefectiveSpectrum as error:
        return str(error)


def test_a_mixed_stack_classifies_each_row_as_alone_and_as_the_exact_path(monkeypatch):
    mats, frame = _certificate_stack()
    calls = _kernel_calls(monkeypatch)
    stack = classify_stack(np.stack(mats), frame)
    rows, stacked = calls[-1], _record_without_condition(calls[-1])
    assert stack.error.tolist() == [False] * 4 + [True] + [False] * 3
    assert stack.classification[~stack.error].tolist() == [UNBROKEN] * 5 + [BROKEN, UNBROKEN]
    assert stack.warning.tolist() == [False, False, True, False, False, False, True, False]
    reports = []
    for i, m in enumerate(mats):  # each row bit for bit as the matrix alone, cond(V) included
        reports.append(_report_or_error(m, frame))
        for name, value in _record_without_condition(calls[-1]).items():
            assert stacked[name][i].tobytes() == value[0].tobytes(), (i, name)
        assert rows.condition[i].tobytes() == calls[-1].condition[0].tobytes(), i
    # cond(V) from the SVD on every row: the same verdicts, warnings,
    # messages and arrays, cond(V) aside
    _exact_path(monkeypatch)
    assert classify_stack(np.stack(mats), frame) == stack
    for name, value in _record_without_condition(calls[-1]).items():
        assert stacked[name].tobytes() == value.tobytes(), name
    assert [_report_or_error(m, frame) for m in mats] == reports


def test_a_residual_failure_reports_the_svd_condition():
    # at a tolerance below rounding every eigenpair residual fails: the row
    # falls back to the complex solve, and its error carries the SVD's cond(V)
    # as eigendecompose reports it, though the certificate would clear the row
    h, frame = _chain((1.0, 2.0, 0.5), (1.0, 3.0, 0.7))
    with pytest.raises(DefectiveSpectrum, match="eigenpair residual") as got:
        classify_symmetry(h, frame, 1e-20)
    with pytest.raises(DefectiveSpectrum) as want:
        eigendecompose(h, 1e-20)
    assert (str(got.value), got.value.condition) == (str(want.value), want.value.condition)
    singular = np.linalg.svd(eigendecompose(h).vectors, compute_uv=False)
    assert got.value.condition == singular[0] / singular[-1]


def test_the_chain_dense_input_is_classified_and_synthesized_with_no_svd(monkeypatch):
    h, frame = build_model(bench_workloads().problem("chain-dense", 1, 0).spec)
    assert frame.dim == 200
    kinds = _recorded_kinds(monkeypatch)
    classify_symmetry(h, frame)
    build_c(h, frame)
    assert kinds == {"eig": ["f", "f"], "svd": []}


def test_a_stack_takes_one_svd_on_the_rows_the_certificate_does_not_clear(monkeypatch):
    # the well-conditioned tensor rows are kept by the real solve, with cond(V) from the SVD
    mats, frame = _certificate_stack()
    mats = [mats[k] for k in (0, 3, 7, 1, 5)]  # three chains, then two tensors
    shapes = []
    real_svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    stack = classify_stack(np.stack(mats), frame)
    assert stack.classification.tolist() == [UNBROKEN] * 5 and not stack.warning.any()
    assert shapes == [(2, 4, 4)]


def _conjugates_lower_first(values) -> bool:
    """Whether each non-real eigenvalue above the real axis comes after its
    conjugate, the nearest eigenvalue to its conjugate, in ``values``."""
    return all(np.abs(values - values[j].conj()).argmin() < j for j in np.flatnonzero(values.imag > 1e-6))


@pytest.mark.parametrize("cells", [1, 3], ids=["cell", "chain"])
def test_a_conjugate_pair_is_listed_lower_member_first_on_every_solve(cells):
    # the real solve of an index frame gives exact conjugates, which sort lower
    # member first; the complex solve over a dense frame lists a pair in an
    # order set by rounding, and is brought to the same order
    rng = np.random.default_rng(20)

    def cell(broken):
        s, theta = rng.uniform(0.5, 2.0), rng.uniform(0.15, 1.4)
        x = rng.uniform(1.2, 3.0) if broken else rng.uniform(0.1, 0.9)
        return (x * s / np.sin(theta), s, theta)

    family = "2x2" if cells == 1 else "chain"
    problems = [build_model(ModelSpec(family, tuple(cell(k == 0) for k in range(cells)))) for _ in range(60)]
    u, _, moved = unitary_basis_change(*problems[0], rng)
    dense = [u @ h @ u.conj().T for h, _ in problems]
    for (h, frame), m in zip(problems, dense):
        for over, matrix in ((frame, h), (moved, m)):
            report = classify_symmetry(matrix, over)
            assert report.classification == BROKEN and report.broken_pairs
            where = {complex(v): j for j, v in enumerate(report.eigenvalues.tolist())}
            assert all(where[pair.partner] < where[pair.value] for pair in report.broken_pairs)
    # a stack row is listed as its matrix alone, beside unbroken rows
    unbroken = [u @ build_model(ModelSpec(family, tuple(cell(False) for _ in range(cells))))[0] @ u.conj().T
                for _ in range(3)]
    rows = dense[:10] + unbroken
    stack = classify_stack(np.stack(rows), moved)
    for i, m in enumerate(rows):
        values = classify_symmetry(m, moved).eigenvalues
        assert stack.eigenvalues[i].tobytes() == values.tobytes()
        assert _conjugates_lower_first(stack.eigenvalues[i])


# ---------------------------------------------------------------- split by the components of the pattern


def _relative(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def test_a_permuted_chain_is_classified_and_synthesized_by_its_blocks(monkeypatch):
    # 50 cells on scattered indices: C from the blocks' eigenvectors meets
    # its closed form to rounding, and the whole 100 x 100 solve to its own
    # accuracy, which is up to 7.4e-13 relative on such chains
    rng = np.random.default_rng(21)
    cells = random_cells(rng, 50)
    h, frame, perm = permuted_chain(rng, cells)
    closed = linops._block_diag(*[closed_form_c(np.arcsin(r / s * np.sin(theta))) for r, s, theta in cells])
    report = classify_symmetry(h, frame)
    result = build_c(report, frame)
    hermitized = hermitize(h, result.cpt)
    assert report.classification == UNBROKEN
    assert _relative(result.cpt.c.matrix, closed[np.ix_(perm, perm)]) <= 1e-14
    solved_whole(monkeypatch)
    whole = classify_symmetry(h, frame)
    whole_result = build_c(whole, frame)
    assert _relative(report.eigenvalues, whole.eigenvalues) <= 1e-13
    assert _relative(result.cpt.c.matrix, whole_result.cpt.c.matrix) <= 1e-11
    assert _relative(hermitized, hermitize(h, whole_result.cpt)) <= 1e-11


def test_a_chain_with_a_cell_at_its_exceptional_point_raises_with_the_joined_svd_condition(monkeypatch):
    cells = list(random_cells(np.random.default_rng(2), 40))
    cells[17] = (1.0, 1.0, np.pi / 2)
    h, frame = build_model(ModelSpec("chain", tuple(cells)))
    seen = []
    real_svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append((np.shape(a), real_svd(a, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(np.linalg, "svd", recording)
    with pytest.raises(DefectiveSpectrum, match="condition") as got:
        classify_symmetry(h, frame)
    # the joined V's condition from the SVDs of its 2 x 2 blocks: the largest
    # singular value over the smallest, across the blocks
    shape, singular = seen[-1]
    assert shape == (40, 2, 2)
    assert got.value.condition == singular[:, 0].max() / singular[:, -1].min() > linops.COND_LIMIT
    stack = np.asarray(h, dtype=complex)[None]
    joined = real_svd(linops.stacked_eigensystem(stack, linops.frobenius(stack), 1e-10)[0].vectors[0], compute_uv=False)
    assert got.value.condition == pytest.approx(joined[0] / joined[-1], rel=1e-6)
    with pytest.raises(DefectiveSpectrum) as want:
        eigendecompose(h)
    assert (str(got.value), got.value.condition) == (str(want.value), want.value.condition)


def _mixed_pattern_stack():
    """Rows of dimension 80 over one chain frame with different patterns: a
    chain, a chain with two equal cells (an eigenspace across two blocks),
    a chain with two cells coupled into one 4 x 4 component, a chain with a
    broken cell, a chain with a cell at its exceptional point and a dense
    PT-symmetric matrix."""
    rng = np.random.default_rng(30)
    cells = [random_cells(rng, 40) for _ in range(5)]
    cells[1] = cells[1][:39] + cells[1][:1]
    cells[3] = ((3.0, 1.0, 0.5),) + cells[3][1:]
    cells[4] = cells[4][:9] + ((1.0, 1.0, np.pi / 2),) + cells[4][10:]
    mats = [build_model(ModelSpec("chain", c))[0] for c in cells]
    frame = build_model(ModelSpec("chain", cells[0]))[1]
    mats[2] = mats[2].copy()
    mats[2][[0, 1, 2, 3], [2, 3, 0, 1]] = 0.3  # PT-symmetric: the swap maps (0, 2) to (1, 3)
    return mats + [random_symmetric_pt_symmetric(rng, frame)], frame


def test_a_stack_of_rows_with_different_patterns_classifies_each_row_as_alone(monkeypatch):
    mats, frame = _mixed_pattern_stack()
    calls = _kernel_calls(monkeypatch)
    stack = classify_stack(np.stack(mats), frame)
    rows, stacked = calls[-1], _record_without_condition(calls[-1])
    assert stack.error.tolist() == [False] * 4 + [True, False]
    assert stack.classification[:4].tolist() == [UNBROKEN, UNBROKEN, UNBROKEN, BROKEN]
    for i, m in enumerate(mats):
        report = _report_or_error(m, frame)
        alone = _record_without_condition(calls[-1])
        for name, value in alone.items():
            assert stacked[name][i].tobytes() == value[0].tobytes(), (i, name)
        assert rows.condition[i].tobytes() == calls[-1].condition[0].tobytes(), i
        if not stack.error[i]:
            assert stack.eigenvalues[i].tobytes() == report.eigenvalues.tobytes(), i
            assert (stack.classification[i], stack.warning[i]) == (report.classification, bool(report.warnings))


def test_dense_patterns_make_one_full_size_eig(monkeypatch):
    # the tensor of two cells, and a chain moved by a unitary onto a dense
    # frame: one eig of the whole matrix per classification
    rng = np.random.default_rng(6)
    tensor = build_model(ModelSpec("tensor", ((1.0, 2.0, 0.5), (1.0, 3.0, 0.7))))
    moved = unitary_basis_change(*build_model(ModelSpec("chain", random_cells(rng, 40))), rng)[1:]
    shapes = []
    real_eig = np.linalg.eig

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", recording)
    for h, frame in (tensor, moved):
        shapes.clear()
        classify_symmetry(h, frame)
        build_c(h, frame)
        assert shapes == [(1, *h.shape)] * 2


def _aligning_stacks():
    """Stacks over one index frame in which one row is phase-aligned, a row
    that falls back to the complex solve with a cell near its exceptional
    point, beside a broken row whose non-real eigenvectors must stay as the
    solve returned them: chains of 3 cells, solved whole, and the
    dimension-80 mixed stack, whose chains are classified by their blocks."""
    cell, near, broken = (1.0, 2.0, 0.5), (1.0, 1.0, 1.5693821131), (2.0, 1.0, 1.2)
    frame = _chain(cell, cell, cell)[1]
    yield [_chain(cell, broken, (0.5, 1.0, 0.3))[0], _chain(cell, near, (1.0, 3.0, 0.7))[0], _chain(cell, cell, cell)[0]], frame
    mats, frame = _mixed_pattern_stack()
    cells = random_cells(np.random.default_rng(31), 40)
    yield mats + [build_model(ModelSpec("chain", cells[:5] + ((1.0, 1.0, 1.5693821131),) + cells[6:]))[0]], frame


def test_a_stack_row_keeps_phi_and_theta_of_every_column_as_alone(monkeypatch):
    # alignment is kept only on the columns that need it, so a broken row's
    # non-real columns are not rotated because another row of its stack is aligned
    calls = _kernel_calls(monkeypatch)
    for mats, frame in _aligning_stacks():
        classify_stack(np.stack(mats), frame)
        rows = calls[-1]
        assert (rows.theta != 0).any()  # some row was phase-aligned
        for i, m in enumerate(mats):
            _report_or_error(m, frame)
            alone = calls[-1]
            for name in ("phi", "theta"):
                assert _row(rows, name, i).tobytes() == _row(alone, name, 0).tobytes(), (i, name)


def test_a_record_keeps_the_states_of_each_part_as_the_stack_the_kernel_ran_on(monkeypatch):
    # split dimension-80 chains, one with a cell near its exceptional point,
    # which falls back to the complex solve: the record holds the kernel's
    # states of each part, the blocks of the real solve as (g, m, m) stacks
    # and the fallback row whole, and no (n, n) array but the stack itself
    rng = np.random.default_rng(33)
    cells = [random_cells(rng, 40) for _ in range(3)]
    cells[1] = cells[1][:5] + ((1.0 - 5e-7, 1.0, np.pi / 2),) + cells[1][6:]
    mats = [build_model(ModelSpec("chain", c))[0] for c in cells]
    frame = build_model(ModelSpec("chain", cells[0]))[1]
    n = frame.dim
    calls = _kernel_calls(monkeypatch)
    stack = classify_stack(np.stack(mats), frame)
    report = classify_symmetry(mats[0], frame)
    assert stack.classification.tolist() == [UNBROKEN] * 3 and stack.warning.tolist() == [False, True, False]
    for rows, fallback in ((calls[0], [1]), (calls[1], [])):
        for name, value in rows._asdict().items():
            if isinstance(value, np.ndarray) and name != "stack":
                assert value.shape[-2:] != (n, n), name
        assert [at is None for _, at, _, _ in rows.parts] == [True] * bool(fallback) + [False]
        for part_rows, at, col, states in rows.parts:
            if at is None:  # the rows solved as complex, whole, in the original basis
                assert part_rows.tolist() == fallback and states.shape == (len(fallback), n, n)
            else:  # the blocks of the real solve, as the kernel ran on them
                assert at.shape == col.shape == (len(part_rows), 2)
                assert states.shape == (len(part_rows), 2, 2)
    assert report._analysis is calls[1]
