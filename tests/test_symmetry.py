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
    eigendecompose,
    is_pt_symmetric,
    pair_swap_frame,
    phase_align,
    symmetry,
)
from cptkit.errors import CptKitError, DefectiveSpectrum, DimensionMismatch, NonFiniteEntries, NotPTEigenstate
from helpers import H1, H2, H3, any_dim_frame, multiset_gap, random_pt_symmetric, unitary_basis_change

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
    """Make every eigenvector fail phase alignment, so that each real
    eigenspace, simple ones too, is rebased."""
    real_align = symmetry._align_columns

    def sour(vectors, frame, tol):
        phi, theta, aligned, c, residual = real_align(vectors, frame, tol)
        return phi, theta, np.zeros_like(aligned), c, residual

    monkeypatch.setattr(symmetry, "_align_columns", sour)


def test_classify_rebases_simple_eigenvector_that_fails_phase_alignment(monkeypatch):
    _sour_phase_alignment(monkeypatch)
    frame = pair_swap_frame(2)
    report = classify_symmetry(model_2x2(1, 2, np.pi / 6), frame)
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

    # with phase alignment sour, every simple eigenvector is rebased: the
    # random unbroken rows that were quiet now warn, from the kernel's arrays
    quiet = (stack.classification == UNBROKEN) & ~stack.warning & ~stack.error
    quiet[12:] = False  # the identity is one degenerate eigenspace: rebased, never warned
    assert quiet.any()
    _sour_phase_alignment(monkeypatch)
    sour = classify_stack(np.stack(mats), frame)
    assert sour.warning[quiet].all()
    assert _stack_rows(sour) == _row_by_row(mats, frame)


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
    assert kinds == {"eig": ["f", "f"], "svd": ["f", "f"]}
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


@pytest.mark.parametrize("sour", [False, True])
def test_a_stack_rebases_each_row_as_its_own_classification_bit_for_bit(sour, monkeypatch):
    if sour:  # every simple eigenspace is rebased too: size-1 groups across rows
        _sour_phase_alignment(monkeypatch)
    calls = _kernel_calls(monkeypatch)
    for mats, frame, want in _rebase_stacks():
        stack = classify_stack(np.stack(mats), frame)
        rows = calls[-1]
        assert stack.classification.tolist() == want
        assert rows.rebased.any() == sour
        for i, m in enumerate(mats):
            classify_symmetry(m, frame)
            one = calls[-1]
            for field in ("phi", "theta", "energy", "kept", "rebased"):
                assert getattr(rows, field)[i].tobytes() == getattr(one, field)[0].tobytes(), (i, field)
            assert rows.eigen.condition[i].tobytes() == one.eigen.condition[0].tobytes(), i


def test_a_stack_and_a_matrix_each_take_one_pass_of_the_pipeline(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    for mats, frame, want in _rebase_stacks():
        assert classify_stack(np.stack(mats), frame).classification.tolist() == want
        assert len(calls) == 1 and len(calls[0].stack) == len(mats)
        report = classify_symmetry(mats[0], frame)
        assert len(calls) == 2 and report._analysis is calls[1]
        calls.clear()


@pytest.mark.parametrize("n_rows", [1, 6])
def test_a_stack_rebases_in_one_svd_per_eigenspace_size(n_rows, monkeypatch):
    # two 3-fold eigenspaces per row: one SVD for cond(V), one for every rebase
    h, frame = _chain((1.0, 2.0, 0.5), (1.0, 2.0, 0.5), (1.0, 2.0, 0.5), (0.5, 1.0, 0.3))
    kinds = _recorded_kinds(monkeypatch)
    stack = classify_stack(np.stack([h] * n_rows), frame)
    assert stack.classification.tolist() == [UNBROKEN] * n_rows
    assert len(kinds["svd"]) == 2


def _grid(thetas):
    return np.stack([model_2x2(1.5, 1.0, theta) for theta in thetas])


@pytest.mark.parametrize("thetas", [
    [0.3], [1.2], [0.1, 0.3, 0.5], [0.9, 1.2, 1.5], [0.1, 0.9, 0.3, 1.2, 0.5],
], ids=["one-unbroken", "one-broken", "all-unbroken", "all-broken", "mixed"])
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
        for field in ("values", "vectors", "condition"):
            assert getattr(rows.eigen, field)[i].tobytes() == getattr(one.eigen, field)[0].tobytes(), (i, field)
        kept = one.kept[0]
        for field in ("phi", "theta", "energy"):
            assert getattr(rows, field)[i][..., kept].tobytes() == getattr(one, field)[0][..., kept].tobytes(), (i, field)
        for field in ("kept", "partner", "classification", "warning"):
            assert getattr(rows, field)[i].tobytes() == getattr(one, field)[0].tobytes(), (i, field)
