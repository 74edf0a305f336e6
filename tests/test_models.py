import numpy as np
import pytest

from cptkit import (
    BlockSpec,
    ModelSpec,
    build_c,
    build_model,
    closed_form_c,
    closed_form_spectrum,
    direct_sum,
    eigendecompose,
    is_pt_symmetric,
    model_frame,
    model_matrix,
    pair_swap_frame,
    tensor_frames,
)
from cptkit.errors import InvalidModel, SelfOrthogonal
from helpers import SWAP, multiset_gap

E_PLUS = 2.8025170768881473
E_MINUS = -1.0704662693192697
SQRT3 = 1.7320508075688772


def random_triple(rng, broken=None):
    while True:
        r = float(rng.choice([-1, 1]) * rng.uniform(0.2, 2.5))
        s = float(rng.choice([-1, 1]) * rng.uniform(0.2, 2.5))
        theta = float(rng.choice([-1, 1]) * rng.uniform(0.05, 1.5))
        x = abs((r / s) * np.sin(theta))
        if abs(x - 1.0) < 1e-3:
            continue  # keep clear of the critical boundary
        if broken is None or (x > 1.0) == broken:
            return r, s, theta


# ---------------------------------------------------------------- build_model


def test_build_2x2_matches_formula():
    h, frame = build_model(ModelSpec("2x2", ((1.0, 2.0, np.pi / 6),)))
    expected = np.array(
        [[np.exp(1j * np.pi / 6), 2.0], [2.0, np.exp(-1j * np.pi / 6)]]
    )
    np.testing.assert_allclose(h, expected)
    np.testing.assert_allclose(frame.p.matrix, SWAP)


def test_build_3x3_structure():
    h, frame = build_model(ModelSpec("3x3", ((1.0, 2.0, 0.5),), a=4.0))
    assert h.shape == (3, 3)
    assert h[2, 2] == 4.0
    assert h[0, 2] == h[2, 0] == h[1, 2] == h[2, 1] == 0.0
    np.testing.assert_allclose(
        frame.p.matrix, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    )


def test_build_4x4_uses_first_block_parameters_in_upper_block():
    h, frame = build_model(
        ModelSpec("4x4", ((1.0, 2.0, 0.5), (0.7, 1.5, -0.3)))
    )
    np.testing.assert_allclose(h[0, 0], np.exp(0.5j))
    np.testing.assert_allclose(h[1, 1], np.exp(-0.5j))
    np.testing.assert_allclose(h[2, 2], 0.7 * np.exp(-0.3j))
    assert np.all(h[:2, 2:] == 0) and np.all(h[2:, :2] == 0)
    assert frame.dim == 4


def test_build_chain_dimension():
    blocks = ((1.0, 2.0, 0.5), (0.5, 1.0, 0.2), (2.0, 3.0, 0.9))
    h, frame = build_model(ModelSpec("chain", blocks))
    assert h.shape == (6, 6) and frame.dim == 6


def test_tensor_frame_is_the_tensor_of_two_pair_swaps():
    frame = model_frame(ModelSpec("tensor", ((1.0, 2.0, 0.5), (1.0, 3.0, 0.7))))
    kron = tensor_frames(pair_swap_frame(2), pair_swap_frame(2))
    assert [frame.p.matrix.tobytes(), frame.t.matrix.tobytes()] == [kron.p.matrix.tobytes(), kron.t.matrix.tobytes()]
    assert frame == kron and frame.perm.tolist() == kron.perm.tolist() == [3, 2, 1, 0]


def test_build_tensor_is_kron_of_cells():
    h, frame = build_model(ModelSpec("tensor", ((1.0, 2.0, 0.5), (1.0, 3.0, 0.7))))
    cell1, _ = build_model(ModelSpec("2x2", ((1.0, 2.0, 0.5),)))
    cell2, _ = build_model(ModelSpec("2x2", ((1.0, 3.0, 0.7),)))
    np.testing.assert_allclose(h, np.kron(cell1, cell2))
    assert frame.dim == 4


@pytest.mark.parametrize(
    "family,blocks,a",
    [
        ("2x2", ((0.0, 2.0, 0.5),), None),
        ("2x2", ((1.0, 0.0, 0.5),), None),
        ("2x2", ((1.0, 2.0, 0.0),), None),
        ("3x3", ((1.0, 2.0, 0.5),), 0.0),
        ("3x3", ((1.0, 2.0, 0.5),), None),
        ("chain", (), None),
        ("4x4", ((1.0, 2.0, 0.5),), None),
        ("2x2", ((1.0, 2.0, 0.5),), 3.0),
    ],
)
def test_model_spec_rejects_bad_parameters(family, blocks, a):
    with pytest.raises(InvalidModel):
        ModelSpec(family, blocks, a=a)


def test_model_spec_rejects_unknown_family():
    with pytest.raises(InvalidModel):
        ModelSpec("5x5", ((1.0, 2.0, 0.5),))


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("2x2", ((1.0, 2.0, 0.5),)),
        ModelSpec("3x3", ((1.0, 2.0, 0.5),), a=2.0),
        ModelSpec("4x4", ((1.0, 2.0, 0.5), (0.7, 1.5, -0.3))),
        ModelSpec("chain", ((1.0, 2.0, 0.5), (0.5, 1.0, 0.2))),
        ModelSpec("tensor", ((1.0, 2.0, 0.5), (1.0, 3.0, 0.7))),
    ],
)
def test_every_model_is_pt_symmetric_with_its_frame(spec):
    h, frame = build_model(spec)
    check = is_pt_symmetric(h, frame, tol=1e-12)
    assert check and check.residual < 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("2x2", ((1.0, 2.0, 0.5),)),
        ModelSpec("3x3", ((1.0, 2.0, 0.5),), a=2.0),
        ModelSpec("4x4", ((1.0, 2.0, 0.5), (0.7, 1.5, -0.3))),
        ModelSpec("chain", ((1.0, 2.0, 0.5), (0.5, 1.0, 0.2), (2.0, 3.0, 0.9))),
        ModelSpec("tensor", ((1.0, 2.0, 0.5), (1.0, 3.0, 0.7))),
    ],
)
def test_model_spec_dim_matches_built_model(spec):
    h, frame = build_model(spec)
    assert h.shape == (spec.dim, spec.dim) and frame.dim == spec.dim


def test_chain_frame_is_the_direct_sum_of_its_cell_frames():
    blocks = ((1.0, 2.0, 0.5), (0.5, 1.0, 0.2), (2.0, 3.0, 0.9))
    _, frame = build_model(ModelSpec("chain", blocks))
    _, summed = direct_sum(BlockSpec(tuple(build_model(ModelSpec("2x2", (b,))) for b in blocks)))
    np.testing.assert_array_equal(frame.p.matrix, summed.p.matrix)
    np.testing.assert_array_equal(frame.t.matrix, summed.t.matrix)
    assert frame.t.kind == summed.t.kind


def test_a_chain_is_built_as_its_cells_joined_bit_for_bit():
    # one cell formula over the stacked parameters and one write of the diagonal blocks
    rng = np.random.default_rng(34)
    for count in (1, 2, 7, 100):
        blocks = tuple(random_triple(rng) for _ in range(count))
        h = model_matrix(ModelSpec("chain", blocks))
        joined = np.zeros_like(h)
        for k, block in enumerate(blocks):
            joined[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = model_matrix(ModelSpec("2x2", (block,)))
        assert h.tobytes() == joined.tobytes()


def test_chain_parameters_are_converted_and_refused_as_one_at_a_time():
    # the blocks are converted as one array, each parameter as float() converts it
    spec = ModelSpec("chain", ((1, "2.5", np.float32(0.5)), (np.array(1.5), 2.0, True)))
    assert spec.blocks == ((1.0, 2.5, float(np.float32(0.5))), (1.5, 2.0, 1.0))
    assert {type(x) for block in spec.blocks for x in block} == {float}
    with pytest.raises(InvalidModel, match="^block 2: r, s, theta must all be nonzero$"):
        ModelSpec("chain", ((1.0, 2.0, 0.5), (1.0, 2.0, 0.5), (1.0, -0.0, 0.5), (0.0, 1.0, 1.0)))
    for bad in (None, 1j, "x"):  # float()'s own errors, None too, which an array would take as nan
        with pytest.raises((TypeError, ValueError)) as caught:
            ModelSpec("chain", ((1.0, 2.0, 0.5), (bad, 2.0, 0.5)))
        with pytest.raises(caught.type):
            float(bad)
    nan = ModelSpec("chain", ((1.0, 2.0, 0.5), (np.nan, 2.0, 0.5)))
    assert np.isnan(nan.blocks[1][0])


# ---------------------------------------------------------------- swept parameters

SWEEP_BASES = {
    "2x2": (((1.0, 2.0, 0.5),), None),
    "3x3": (((1.0, 2.0, 0.5),), 2.0),
    "4x4": (((1.0, 2.0, 0.5), (0.7, 1.5, -0.3)), None),
    "chain": (((1.0, 2.0, 0.5), (0.5, 1.0, 0.2), (2.0, 3.0, 0.9)), None),
    "tensor": (((1.0, 2.0, 0.5), (1.0, 3.0, 0.7)), None),
}
#: every sweepable slot: (family, block, position in (r, s, theta)), or "a"
SWEEP_SLOTS = [
    (family, block, position)
    for family, (blocks, _) in SWEEP_BASES.items()
    for block in range(len(blocks))
    for position in range(3)
] + [("3x3", None, "a")]
#: a scan maps zero to nan; inf and 1e308 give non-finite or overflowing entries
SWEEP_VALUES = np.array([-1.5, 0.3, np.nan, 2.0, np.inf, -np.inf, 1e308, -1e308, -1e-300, np.pi / 2])


def _swept_spec(family, block, position, value):
    blocks, a = SWEEP_BASES[family]
    if position == "a":
        return ModelSpec(family, blocks, a=value)
    swept = list(map(list, blocks))
    swept[block][position] = value
    return ModelSpec(family, tuple(map(tuple, swept)), a=a)


@pytest.mark.parametrize("family, block, position", SWEEP_SLOTS)
def test_swept_model_is_the_stack_of_its_points(family, block, position):
    with np.errstate(all="ignore"):
        swept = model_matrix(_swept_spec(family, block, position, SWEEP_VALUES))
        points = np.stack([model_matrix(_swept_spec(family, block, position, float(v))) for v in SWEEP_VALUES])
    dim = _swept_spec(family, block, position, 1.0).dim
    assert swept.shape == (len(SWEEP_VALUES), dim, dim)
    assert np.array_equal(swept, points, equal_nan=True)


@pytest.mark.parametrize("family, block, position", SWEEP_SLOTS)
def test_a_zero_inside_a_sweep_is_rejected(family, block, position):
    for zero in (0.0, -0.0):
        with pytest.raises(InvalidModel):
            _swept_spec(family, block, position, np.array([1.0, zero, 2.0]))


@pytest.mark.parametrize("family, blocks, a", [
    ("2x2", ((np.ones(3), np.full(2, 2.0), 0.5),), None),
    ("3x3", ((np.full(3, 2.0), 2.0, 0.5),), np.ones(2)),
    ("4x4", ((np.ones(3), 2.0, 0.5), (1.0, 2.0, np.full(4, 0.5))), None),
    ("chain", ((np.ones(3), 2.0, 0.5), (0.5, 1.0, 0.2), (2.0, np.full(4, 3.0), 0.9)), None),
    ("tensor", ((1.0, 2.0, np.full(3, 0.5)), (np.ones(2), 3.0, 0.7)), None),
])
def test_sweeps_of_different_lengths_are_rejected(family, blocks, a):
    # numpy would fail later, at model_matrix, with a bare ValueError
    with pytest.raises(InvalidModel, match=r"lengths \[\d, \d\]") as caught:
        ModelSpec(family, blocks, a=a)
    assert caught.value.exit_code == 2
    # sweeps of one length, nan included (a scan's zero grid point), are accepted
    same = tuple(tuple(np.array([1.0, np.nan, 2.0]) if isinstance(x, np.ndarray) else x for x in b) for b in blocks)
    spec = ModelSpec(family, same, a=None if a is None else np.array([1.0, np.nan, 2.0]))
    with np.errstate(invalid="ignore"):
        assert model_matrix(spec).shape == (3, spec.dim, spec.dim)


def test_a_sweep_must_be_one_dimensional():
    with pytest.raises(TypeError):
        ModelSpec("2x2", ((np.ones((2, 2)), 2.0, 0.5),))
    assert model_matrix(ModelSpec("2x2", ((np.array(1.0), 2.0, 0.5),))).shape == (2, 2)


# ---------------------------------------------------------------- closed_form_spectrum


def test_closed_form_unbroken_values():
    out = closed_form_spectrum(1.0, 2.0, np.pi / 6)
    assert out.regime == "unbroken"
    assert not out.degenerate
    assert out.phi == pytest.approx(np.arcsin(0.25))
    np.testing.assert_allclose(out.eigenvalues, [E_PLUS, E_MINUS], atol=1e-12)
    np.testing.assert_allclose(np.real(out.eigenvalues), [2.802517, -1.070466], atol=5e-7)


def test_closed_form_broken_values():
    out = closed_form_spectrum(2.0, 1.0, np.pi / 2)
    assert out.regime == "broken"
    assert out.phi is None
    np.testing.assert_allclose(out.eigenvalues, [1j * SQRT3, -1j * SQRT3], atol=1e-12)


def test_closed_form_small_theta_limit():
    out = closed_form_spectrum(1.5, 0.5, 1e-8)
    np.testing.assert_allclose(sorted(np.real(out.eigenvalues)), [1.0, 2.0], atol=1e-7)


def test_closed_form_critical_boundary_flagged():
    out = closed_form_spectrum(1.0, 1.0, np.pi / 2)
    assert out.regime == "unbroken"
    assert out.degenerate
    assert out.eigenvalues[0] == pytest.approx(out.eigenvalues[1], abs=1e-12)


def test_closed_form_rejects_zero_parameters():
    with pytest.raises(InvalidModel):
        closed_form_spectrum(0.0, 1.0, 0.5)


@pytest.mark.parametrize("params", [(np.nan, 1.0, 1.0), (1.0, 1.0, np.inf), (1.0, np.inf, 0.5), (1.0, -np.inf, 0.5)])
def test_closed_form_rejects_non_finite_parameters(params):
    # read as regimes, these gave broken with nan eigenvalues or unbroken with +-inf
    with pytest.raises(InvalidModel, match="finite"):
        closed_form_spectrum(*params)


@pytest.mark.parametrize("params", [(1.0, 2.0, np.pi / 6), (1.0, 1.0, np.pi / 2), (2.0, 1.0, np.pi / 2)])
def test_closed_form_degenerate_is_a_python_bool(params):
    assert type(closed_form_spectrum(*params).degenerate) is bool


def test_oracle_agrees_with_eigensolver():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        r, s, theta = random_triple(rng)
        h, _ = build_model(ModelSpec("2x2", ((r, s, theta),)))
        got = eigendecompose(h).values
        want = closed_form_spectrum(r, s, theta).eigenvalues
        assert multiset_gap(got, want) <= 1e-9 * max(1.0, np.linalg.norm(h))


def test_unbroken_eigenvectors_have_closed_form_shape():
    rng = np.random.default_rng(72)
    for _ in range(100):
        r, s, theta = random_triple(rng, broken=False)
        h, _ = build_model(ModelSpec("2x2", ((r, s, theta),)))
        spectrum = closed_form_spectrum(r, s, theta)
        phi = spectrum.phi
        forms = {
            spectrum.eigenvalues[0]: np.array([np.exp(0.5j * phi), np.exp(-0.5j * phi)]) / np.sqrt(2),
            spectrum.eigenvalues[1]: np.array([np.exp(-0.5j * phi), -np.exp(0.5j * phi)]) / np.sqrt(2),
        }
        eigen = eigendecompose(h)
        for value, vector in zip(eigen.values, eigen.vectors.T):
            form = min(forms, key=lambda e: abs(e - value))
            target = forms[form]
            overlap = np.vdot(target, vector)
            assert np.linalg.norm(vector - overlap * target) <= 1e-8


# ---------------------------------------------------------------- closed_form_c


def test_closed_form_c_at_zero_is_parity():
    np.testing.assert_allclose(closed_form_c(0.0), SWAP)


def test_closed_form_c_frozen_value():
    out = closed_form_c(np.arcsin(0.25))
    expected = np.array(
        [[0.2581988897471611j, 1.0327955589886444], [1.0327955589886444, -0.2581988897471611j]]
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_closed_form_c_algebra():
    rng = np.random.default_rng(73)
    for _ in range(50):
        phi = float(rng.uniform(-1.4, 1.4))
        c = closed_form_c(phi)
        assert abs(np.trace(c)) < 1e-12
        assert abs(np.linalg.det(c) + 1.0) < 1e-12
        np.testing.assert_allclose(c @ c, np.eye(2), atol=1e-12)


def test_closed_form_c_agrees_with_synthesis():

    rng = np.random.default_rng(74)
    for _ in range(50):
        r, s, theta = random_triple(rng, broken=False)
        h, frame = build_model(ModelSpec("2x2", ((r, s, theta),)))
        built = build_c(h, frame).cpt.c.matrix
        phi = np.arcsin((r / s) * np.sin(theta))
        np.testing.assert_allclose(built, closed_form_c(phi), atol=1e-8)


def test_closed_form_c_rejects_exceptional_point():
    with pytest.raises(SelfOrthogonal):
        closed_form_c(np.pi / 2 - 1e-13)
    with pytest.raises(ValueError):
        closed_form_c(2.0)
