import ast
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cptkit import (
    UNBROKEN,
    CptKitError,
    ModelSpec,
    Operator,
    build_c,
    build_model,
    classify_symmetry,
    cli,
    cpt,
    frames,
    hermitian_power,
    linops,
    pair_swap_frame,
)
from cptkit.cli import EXIT_AXIOM, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from cptkit.frames import checked_cpt_frame
from cptkit.io import format_float, load_matrix, matrix_document, write_frame, write_matrix
from helpers import (
    COVARIANCE_FAMILIES,
    H1,
    H3,
    SWAP,
    covariance_problem,
    shared_eigenvalue_chain,
    skewed_parity_problem,
    unitary_basis_change,
)

THETA_PI_6 = "0.5235987755982988"
TAN_PHI = 0.2581988897471611
SEC_PHI = 1.0327955589886444


@pytest.fixture
def swap_frame_file(tmp_path):
    path = tmp_path / "swap.json"
    write_frame(path, pair_swap_frame(2))
    return str(path)


def run(args):
    return main(args)


def test_the_cli_imports_no_private_name_of_the_library():
    # the CLI is a thin shell over the public library
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "cptkit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# ---------------------------------------------------------------- validate


def test_validate_swap_frame_passes(swap_frame_file, capsys):
    assert run(["validate", "--frame", swap_frame_file]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_validate_identity_parity_fails(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "p": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
                "t": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]], "antilinear": True},
            }
        ),
        encoding="utf-8",
    )
    assert run(["validate", "--frame", str(path)]) == EXIT_AXIOM
    out = capsys.readouterr().out
    assert "FAIL" in out and "identity" in out


def test_validate_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert run(["validate", "--frame", str(path)]) == EXIT_USAGE


def test_validate_model_frame(capsys):
    assert run(["validate", "--model", "2x2", "--r", "1", "--s", "2", "--theta", "0.5"]) == EXIT_OK


def test_validate_cpt_frame_document(tmp_path, capsys):
    path = tmp_path / "cpt.json"
    write_frame(path, checked_cpt_frame(Operator.linear(SWAP), pair_swap_frame(2)))
    assert run(["validate", "--frame", str(path)]) == EXIT_OK
    assert "cpt-frame axioms: PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "p, t, code",
    [
        # every entry is finite but T^2 overflows: an axiom violation, not a usage error
        ([[0, 1], [1, 0]], [[1e300, 0], [0, 1e-300]], EXIT_AXIOM),
        # a valid involution whose distance from the identity overflows
        ([[0, 1e200], [1e-200, 0]], [[1, 0], [0, 1]], EXIT_OK),
    ],
    ids=["t-squared-overflows", "identity-distance-overflows"],
)
def test_validate_overflowing_residuals_are_violations(tmp_path, capsys, p, t, code):
    path = tmp_path / "frame.json"
    doc = {name: {"dim": 2, "entries": [[float(x), 0] for x in np.ravel(m)]} for name, m in (("p", p), ("t", t))}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", "--frame", str(path)]) == code
    out = capsys.readouterr().out
    # the overflowed residual reads inf, not nan
    assert ("T^2 = I: residual inf" in out) == (code == EXIT_AXIOM)


# ---------------------------------------------------------------- analyze


def test_analyze_unbroken_model(capsys):
    code = run(["analyze", "--model", "2x2", "--r", "1", "--s", "2", "--theta", THETA_PI_6])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "classification: unbroken" in out
    assert "2.80251707" in out and "-1.07046626" in out
    assert "sign" in out


def test_analyze_broken_model(capsys):
    code = run(["analyze", "--model", "2x2", "--r", "2", "--s", "1", "--theta", "1.5707963268"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "classification: broken" in out
    assert "1.73205080" in out


def test_analyze_non_pt_symmetric_file(tmp_path, swap_frame_file, capsys):
    h_path = tmp_path / "h3.json"
    write_matrix(h_path, H3)
    code = run(["analyze", "--hamiltonian", str(h_path), "--frame", swap_frame_file])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "pt-symmetric: no" in out
    assert "not_applicable" in out


def test_analyze_signs_of_a_degenerate_eigenspace_after_basis_change(tmp_path, capsys):
    # the shared eigenvalue has signature (+1, -1) in every basis; states of
    # a degenerate eigenspace are not indefinitely orthogonal on their own
    h, frame = shared_eigenvalue_chain((1.0, 1.5, 0.5), (2.0, 1.3, 0.6))
    h_path, frame_path = tmp_path / "h.json", tmp_path / "frame.json"
    for seed in range(30):
        _, h_moved, moved = unitary_basis_change(h, frame, np.random.default_rng(seed))
        write_matrix(h_path, h_moved)
        write_frame(frame_path, moved)
        assert run(["analyze", "--hamiltonian", str(h_path), "--frame", str(frame_path)]) == EXIT_OK
        lines = [line for line in capsys.readouterr().out.splitlines() if "sign =" in line]
        signs = [line.rsplit("sign = ", 1)[1] for line in lines]
        assert signs[0] == "-1" and signs[3] == "+1"
        assert sorted(signs[1:3]) == ["+1", "-1"]


def test_analyze_gives_no_signs_for_a_non_hermitian_parity(tmp_path, capsys):
    h, frame = skewed_parity_problem()
    h_path, frame_path = tmp_path / "h.json", tmp_path / "frame.json"
    write_matrix(h_path, h)
    write_frame(frame_path, frame)
    assert run(["analyze", "--hamiltonian", str(h_path), "--frame", str(frame_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "classification: unbroken" in out
    states = [line for line in out.splitlines() if line.lstrip().startswith("E = ")]
    assert len(states) == 2 and all(line.endswith("sign = n/a") for line in states)


def _printed_signs(out: str) -> list[str]:
    return [line.rsplit("sign = ", 1)[1] for line in out.splitlines() if "sign = " in line]


def test_analyze_gives_no_signs_for_a_self_orthogonal_eigenspace_only(capsys):
    # the first cell is within 1e-9 of its exceptional point, which the
    # guard of C synthesis rejects; the second cell keeps its signs
    theta = repr(float(np.arcsin(1.0 - 1e-9)))
    cells = ["--r", "1", "--s", "1", "--theta", theta, "--r", "1", "--s", "2", "--theta", "0.5"]
    assert run(["analyze", "--model", "4x4", *cells]) == EXIT_OK
    assert _printed_signs(capsys.readouterr().out) == ["-1", "n/a", "n/a", "+1"]


def test_analyze_signs_agree_with_build_c_after_basis_change(tmp_path, capsys):
    h, frame = shared_eigenvalue_chain((1.0, 1.5, 0.5), (2.0, 1.3, 0.6))
    h_path, frame_path = tmp_path / "h.json", tmp_path / "frame.json"
    for seed in range(30):
        _, h_moved, moved = unitary_basis_change(h, frame, np.random.default_rng(seed))
        write_matrix(h_path, h_moved)
        write_frame(frame_path, moved)
        assert run(["analyze", "--hamiltonian", str(h_path), "--frame", str(frame_path)]) == EXIT_OK
        signs = [f"{state.sign:+d}" for state in build_c(load_matrix(h_path).matrix, moved).aligned_states]
        assert _printed_signs(capsys.readouterr().out) == signs


def test_analyze_without_input_is_usage_error(capsys):
    assert run(["analyze"]) == EXIT_USAGE


def test_analyze_zero_parameter_is_usage_error(capsys):
    assert run(["analyze", "--model", "2x2", "--r", "0", "--s", "2", "--theta", "0.5"]) == EXIT_USAGE


# ---------------------------------------------------------------- build-c / hermitize


def test_build_c_writes_closed_form_document(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run(
        ["build-c", "--model", "2x2", "--r", "1", "--s", "2", "--theta", THETA_PI_6, "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "gram residual" in capsys.readouterr().out
    c = load_matrix(out).matrix
    expected = np.array([[1j * TAN_PHI, SEC_PHI], [SEC_PHI, -1j * TAN_PHI]])
    np.testing.assert_allclose(c, expected, atol=1e-8)


def test_build_c_broken_model_exits_with_classification_failure(capsys):
    code = run(["build-c", "--model", "2x2", "--r", "2", "--s", "1", "--theta", "1.5707963268"])
    assert code == EXIT_AXIOM


def test_build_c_near_exceptional_point_is_numerical_failure(capsys):
    code = run(["build-c", "--model", "2x2", "--r", "0.999999999", "--s", "1", "--theta", "1.5707963268"])
    assert code == EXIT_NUMERIC


def test_build_c_multiple_emits(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = run(
        [
            "build-c", "--model", "2x2", "--r", "1", "--s", "2", "--theta", THETA_PI_6,
            "--out", str(out), "--emit", "c", "--emit", "pc", "--emit", "sqrt", "--emit", "h",
        ]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "hermiticity residual" in stdout
    pc = load_matrix(tmp_path / "result.pc.json").matrix
    root = load_matrix(tmp_path / "result.pc_sqrt.json").matrix
    inv_root = load_matrix(tmp_path / "result.pc_inv_sqrt.json").matrix
    np.testing.assert_allclose(root @ root, pc, atol=1e-10)
    np.testing.assert_allclose(root @ inv_root, np.eye(2), atol=1e-10)
    h = load_matrix(tmp_path / "result.h.json").matrix
    assert np.linalg.norm(h - h.conj().T) <= 1e-8 * np.linalg.norm(h)


@pytest.mark.parametrize("command, emits", [
    ("build-c", ["sqrt", "h"]), ("build-c", ["h", "sqrt"]), ("hermitize", ["sqrt"]), ("hermitize", ["h", "sqrt"]),
])
def test_metric_roots_are_formed_once_per_command(command, emits, monkeypatch, tmp_path, capsys):
    blocks = ((1.0, 2.0, float(THETA_PI_6)), (1.0, 3.0, 0.7))
    h, _ = build_model(ModelSpec("chain", blocks))
    calls = []
    real = linops.spectral_powers

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for module in (linops, frames, cpt, cli):
        if hasattr(module, "spectral_powers"):
            monkeypatch.setattr(module, "spectral_powers", counting)
    model = ["--model", "chain"] + [flag for r, s, theta in blocks for flag in ("--r", repr(r), "--s", repr(s), "--theta", repr(theta))]
    emit_flags = [flag for kind in ["pc", *emits] for flag in ("--emit", kind)]
    assert run([command, *model, "--out", str(tmp_path / "m.json"), *emit_flags]) == EXIT_OK
    assert len(calls) == 1
    # the roots and h against the powers of the emitted PC, formed independently
    root, inv_root = (hermitian_power(load_matrix(tmp_path / "m.pc.json").matrix, p) for p in (0.5, -0.5))
    for label, want in {"pc_sqrt": root, "pc_inv_sqrt": inv_root, "h": root @ h @ inv_root}.items():
        got = load_matrix(tmp_path / f"m.{label}.json").matrix
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), label


def test_build_c_with_a_non_hermitian_parity_is_an_axiom_failure(tmp_path, capsys):
    h, frame = skewed_parity_problem()
    h_path, frame_path = tmp_path / "h.json", tmp_path / "frame.json"
    write_matrix(h_path, h)
    write_frame(frame_path, frame)
    assert run(["build-c", "--hamiltonian", str(h_path), "--frame", str(frame_path)]) == EXIT_AXIOM
    assert "Hermitian parity" in capsys.readouterr().err


@pytest.mark.parametrize("family", COVARIANCE_FAMILIES)
def test_emitted_metric_roots_match_the_hermitian_power_oracle(family, tmp_path, capsys):
    # a problem moved by a random unitary: T is a general antilinear operator
    h, frame = covariance_problem(np.random.default_rng(7), family)
    _, h, frame = unitary_basis_change(h, frame, np.random.default_rng(8))
    h_path, frame_path, out = tmp_path / "h.json", tmp_path / "frame.json", tmp_path / "m.json"
    write_matrix(h_path, h)
    write_frame(frame_path, frame)
    args = ["--hamiltonian", str(h_path), "--frame", str(frame_path), "--out", str(out)]
    assert run(["build-c", *args, "--emit", "pc", "--emit", "sqrt"]) == EXIT_OK
    pc = load_matrix(tmp_path / "m.pc.json").matrix
    for label, power in (("pc_sqrt", 0.5), ("pc_inv_sqrt", -0.5)):
        want = hermitian_power(pc, power)
        got = load_matrix(tmp_path / f"m.{label}.json").matrix
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_hermitize_model(tmp_path, capsys):
    out = tmp_path / "h.json"
    code = run(
        ["hermitize", "--model", "2x2", "--r", "1", "--s", "2", "--theta", THETA_PI_6, "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "hermiticity residual" in capsys.readouterr().out
    h = load_matrix(out).matrix
    assert np.linalg.norm(h - h.conj().T) <= 1e-10


def test_hermitize_uses_supplied_c(tmp_path, capsys):
    frame_path = tmp_path / "cpt.json"
    write_frame(frame_path, checked_cpt_frame(Operator.linear(SWAP), pair_swap_frame(2)))
    h_path = tmp_path / "h-in.json"
    write_matrix(h_path, np.array([[2.0, 3.0], [3.0, 2.0]]))
    out = tmp_path / "h-out.json"
    code = run(["hermitize", "--hamiltonian", str(h_path), "--frame", str(frame_path), "--out", str(out)])
    assert code == EXIT_OK
    np.testing.assert_allclose(load_matrix(out).matrix, [[2.0, 3.0], [3.0, 2.0]], atol=1e-12)


def test_build_c_ignores_the_c_of_a_cpt_frame_document(tmp_path, capsys):
    h, frame = build_model(ModelSpec("2x2", ((1.0, 2.0, 0.5),)))
    other = build_model(ModelSpec("2x2", ((1.0, 3.0, 0.7),)))[0]
    h_path, pt_path, cpt_path = tmp_path / "h.json", tmp_path / "pt.json", tmp_path / "cpt.json"
    write_matrix(h_path, h)
    write_frame(pt_path, frame)
    write_frame(cpt_path, build_c(other, frame).cpt)  # a valid C over the frame, but not the C of h
    results = []
    for frame_path, out in ((pt_path, tmp_path / "pt-c.json"), (cpt_path, tmp_path / "cpt-c.json")):
        assert run(["build-c", "--hamiltonian", str(h_path), "--frame", str(frame_path), "--out", str(out)]) == EXIT_OK
        results.append((capsys.readouterr().out.replace(str(out), "OUT"), out.read_text(encoding="utf-8")))
    assert results[0] == results[1]


def test_hermitize_emits_h_last_as_build_c_does(tmp_path, capsys):
    model = ["--model", "2x2", "--r", "1", "--s", "2", "--theta", THETA_PI_6]
    documents = []
    for command, emits in (("hermitize", ["c"]), ("build-c", ["c", "h"])):
        out = tmp_path / f"{command}.json"
        emit_flags = [flag for kind in emits for flag in ("--emit", kind)]
        assert run([command, *model, *emit_flags, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.index("wrote c") < stdout.index("wrote h")
        documents.append([(tmp_path / f"{command}.{kind}.json").read_text(encoding="utf-8") for kind in ("c", "h")])
    assert documents[0] == documents[1]


@pytest.mark.parametrize("command", ["analyze", "build-c", "scan"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tolerance_must_be_positive_and_finite(command, tol, capsys):
    params = ["--r", "1", "--s", "2"] + (["--sweep", "theta=0.1:1.5:3"] if command == "scan" else ["--theta", "0.5"])
    assert run([command, "--model", "2x2", *params, "--tol", tol]) == EXIT_USAGE
    assert "--tol" in capsys.readouterr().err


# ---------------------------------------------------------------- scan


def test_scan_writes_deterministic_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["scan", "--model", "2x2", "--sweep", "theta=0.1:1.5:7", "--r", "2", "--s", "1"]
    assert run(args + ["--out", str(out_a)]) == EXIT_OK
    assert run(args + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta,E1_re,E1_im,E2_re,E2_im,unbroken,warning,error"
    assert len(lines) == 8


def test_scan_never_broken_when_ratio_small(tmp_path):
    out = tmp_path / "scan.csv"
    assert (
        run(["scan", "--model", "2x2", "--sweep", "theta=0.01:1.56:50", "--r", "1", "--s", "2", "--out", str(out)])
        == EXIT_OK
    )
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert all(row.split(",")[5] == "1" for row in rows)


def test_scan_classification_consistent_with_imag_parts(tmp_path):
    out = tmp_path / "scan.csv"
    run(["scan", "--model", "2x2", "--sweep", "theta=0.1:1.5:40", "--r", "2", "--s", "1", "--out", str(out)])
    for row in out.read_text(encoding="utf-8").splitlines()[1:]:
        cells = row.split(",")
        imags = [abs(float(cells[i])) for i in (2, 4)]
        if cells[5] == "1":
            assert max(imags) <= 1e-8
        else:
            assert max(imags) > 1e-8


def test_scan_zero_parameter_rows_are_marked_not_fatal(tmp_path):
    out = tmp_path / "scan.csv"
    # the grid crosses s = 0 exactly at the middle point
    code = run(["scan", "--model", "2x2", "--sweep", "s=-1:1:3", "--r", "1", "--theta", "0.4", "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [r[-1] for r in rows] == ["0", "1", "0"]
    assert rows[1][1] == ""  # eigenvalue cells empty on the error row


#: The cell (r, s) = (1, 1) alone, and the same cell as the first block of a
#: chain and of a 4x4 model next to the cell (1, 3, 0.4), far from its own
#: exceptional point.
EMBEDDINGS = {
    "2x2": (["--model", "2x2", "--r", "1", "--s", "1"], "theta"),
    "chain": (["--model", "chain", "--r", "1", "--s", "1", "--r", "1", "--s", "3", "--theta", "0.4"], "theta1"),
    "4x4": (["--model", "4x4", "--r", "1", "--s", "1", "--r", "1", "--s", "3", "--theta", "0.4"], "theta1"),
}


def _scan_rows(tmp_path, family, lo, hi, n) -> list[list[str]]:
    """The CSV rows of a sweep of the cell's theta in one of ``EMBEDDINGS``."""
    argv, name = EMBEDDINGS[family]
    out = tmp_path / f"{family}.csv"
    assert run(["scan", *argv, "--sweep", f"{name}={lo!r}:{hi!r}:{n}", "--out", str(out)]) == EXIT_OK
    return [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]


def test_scan_warning_flag_near_exceptional_point(tmp_path):
    lo, hi = 1.5705963268, 1.5706963268  # theta window with |sin(theta)| within 1e-6 of 1
    for family in EMBEDDINGS:
        assert [r[-2] for r in _scan_rows(tmp_path, family, lo, hi, 3)] == ["1"] * 3, family


def test_scan_exceptional_point_flags_are_the_same_under_embedding(tmp_path):
    # the direct sum leaves the cell's eigenvectors, and so its Petermann
    # factors, unchanged: every row takes the 2x2 scan's flags
    lo, hi = np.pi / 2 - 2e-3, np.pi / 2 + 2e-3
    cell = [r[-3:] for r in _scan_rows(tmp_path, "2x2", lo, hi, 1001)]
    assert sum(flags[1] == "1" for flags in cell) > 500
    for family in ("chain", "4x4"):
        assert [r[-3:] for r in _scan_rows(tmp_path, family, lo, hi, 1001)] == cell


def test_scan_verdict_at_the_exceptional_point_depends_on_the_embedding(tmp_path):
    # a known limit: at theta = 1.5707963 the cell's rounded eigenvalues carry
    # an imaginary part that the 2x2 scan reads as non-real, while inside the
    # chain the reality threshold scales with the larger |H|.  Both rows warn.
    lo, hi = 1.5697963, 1.5717963
    cell, chain = (_scan_rows(tmp_path, family, lo, hi, 5) for family in ("2x2", "chain"))
    assert [r[-2] for r in cell] == [r[-2] for r in chain] == ["1"] * 5
    assert (cell[2][0], cell[2][-3], chain[2][-3]) == ("1.5707963", "0", "1")


def test_scan_sweeping_second_block(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(
        [
            "scan", "--model", "4x4", "--sweep", "theta2=0.1:1.5:5",
            "--r", "1", "--r", "2", "--s", "2", "--s", "1", "--theta", "0.5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("theta2,E1_re")
    assert len(lines) == 6


@pytest.mark.parametrize(
    "sweep",
    ["theta=0.1:1.5", "theta=a:b:5", "theta=0.1:1.5:1", "q=0.1:1.5:5", "theta"],
)
def test_scan_invalid_sweep_syntax(sweep, capsys):
    assert run(["scan", "--model", "2x2", "--sweep", sweep, "--r", "2", "--s", "1"]) == EXIT_USAGE


def test_scan_swept_parameter_must_not_be_fixed(capsys):
    code = run(
        ["scan", "--model", "2x2", "--sweep", "theta=0.1:1.5:5", "--r", "2", "--s", "1", "--theta", "0.3"]
    )
    assert code == EXIT_USAGE


def test_scan_two_point_grid_keeps_header(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["scan", "--model", "2x2", "--sweep", "theta=0.2:0.9:2", "--r", "1", "--s", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("theta,")
    assert [line.split(",")[0] for line in lines[1:]] == ["0.20000000000000001", "0.90000000000000002"]


def test_scan_sweeping_a_on_3x3(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(
        ["scan", "--model", "3x3", "--sweep", "a=0.5:2.5:4", "--r", "1", "--s", "2", "--theta", "0.4", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "a,E1_re,E1_im,E2_re,E2_im,E3_re,E3_im,unbroken,warning,error"
    assert len(lines) == 5


# ---------------------------------------------------------------- compose


def test_compose_tensor_writes_valid_frame(tmp_path, capsys):
    out = tmp_path / "tensor.json"
    code = run(
        [
            "compose", "--op", "tensor",
            "--r", "1", "--s", "2", "--theta", THETA_PI_6,
            "--r", "1", "--s", "3", "--theta", "0.7853981634",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert "classification: unbroken" in capsys.readouterr().out
    assert run(["validate", "--frame", str(tmp_path / "tensor.frame.json")]) == EXIT_OK


def test_compose_double_reports_verdict(tmp_path, capsys):
    h_path = tmp_path / "h1.json"
    write_matrix(h_path, H1)
    code = run(["compose", "--op", "double", "--hamiltonian", str(h_path), "--out", str(tmp_path / "d.json")])
    assert code == EXIT_OK
    assert "pt-symmetric: yes" in capsys.readouterr().out
    doubled = load_matrix(tmp_path / "d.json").matrix
    assert doubled.shape == (4, 4)


def test_compose_double_of_an_overflowing_matrix_is_usage_error(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    write_matrix(h_path, np.array([[1e308, 1e308], [0.0, 1.0]]))
    assert run(["compose", "--op", "double", "--hamiltonian", str(h_path)]) == EXIT_USAGE
    assert "pt-symmetric" not in capsys.readouterr().out


def test_an_integer_entry_beyond_float_range_is_a_usage_error(tmp_path, capsys):
    h_path = tmp_path / "huge.json"
    h_path.write_text('{"dim": 2, "entries": [[0, 0], [1' + "0" * 400 + ', 0], [1, 0], [0, 0]]}', encoding="utf-8")
    assert run(["analyze", "--hamiltonian", str(h_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: entry 1 is not finite\n"


@pytest.mark.parametrize("command", [["analyze"], ["build-c"], ["compose", "--op", "double"]])
def test_an_antilinear_hamiltonian_document_is_rejected_alike_by_every_command(command, tmp_path, capsys):
    h_path = tmp_path / "anti.json"
    write_matrix(h_path, H1, antilinear=True)
    assert run([*command, "--hamiltonian", str(h_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: a Hamiltonian document must not be flagged antilinear\n"
    assert captured.out == ""


def test_compose_dsum(tmp_path, capsys):
    code = run(
        [
            "compose", "--op", "dsum",
            "--r", "1", "--s", "2", "--theta", "0.5",
            "--r", "2", "--s", "1", "--theta", "1.5",
        ]
    )
    assert code == EXIT_OK
    assert "classification: broken" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE


def test_scan_fixed_zero_parameter_is_usage_error(capsys):
    code = run(["scan", "--model", "2x2", "--sweep", "theta=0.1:1.5:5", "--r", "0", "--s", "1"])
    assert code == EXIT_USAGE


def test_programming_error_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a usage error")

    monkeypatch.setattr(cli, "classify_symmetry", broken)
    with pytest.raises(ValueError, match="a bug"):
        run(["analyze", "--model", "2x2", "--r", "1", "--s", "2", "--theta", "0.5"])


# ---------------------------------------------------------------- scan: one stacked kernel

EQUIVALENCE_SWEEPS = {
    "readme": ["--model", "2x2", "--sweep", "theta=0.01:1.5607:1000", "--r", "2", "--s", "1"],
    "zero-parameter": ["--model", "2x2", "--sweep", "s=-1:1:3", "--r", "1", "--theta", "0.4"],
    "exceptional-point": [
        "--model", "2x2", "--sweep", f"theta={np.pi / 2 - 2e-4!r}:{np.pi / 2!r}:200", "--r", "1", "--s", "1",
    ],
    "non-finite": ["--model", "2x2", "--sweep", "s=1:inf:3", "--r", "1", "--theta", "0.4"],
    "overflow": ["--model", "2x2", "--sweep", "r=1e308:1.7e308:3", "--s", "1", "--theta", "0.3"],
    "4x4": [
        "--model", "4x4", "--sweep", "theta2=0.1:1.5:50", "--r", "1", "--r", "2", "--s", "2", "--s", "1",
        "--theta", "0.5",
    ],
    "3x3": ["--model", "3x3", "--sweep", "a=-3:3:61", "--r", "1", "--s", "2", "--theta", "0.4"],
    "repeated-blocks": [
        "--model", "chain", "--sweep", "theta2=0.1:1.5:40", "--r", "1", "--r", "1", "--r", "1",
        "--s", "2", "--s", "2", "--s", "2", "--theta", "0.5", "--theta", "0.5",
    ],
    "tensor": [
        "--model", "tensor", "--sweep", "theta1=0.1:1.5:50", "--r", "1", "--r", "1", "--s", "2", "--s", "3",
        "--theta", "0.7",
    ],
}


def _row_by_row_scan(argv) -> str:
    """Reference scan: build_model and classify_symmetry at every grid point."""
    args = cli._build_parser().parse_args(["scan", *argv])
    kind, index, lo, hi, n = cli._parse_sweep(args.sweep)
    index, layout = cli._scan_layout(args, kind, index)
    with np.errstate(invalid="ignore"):
        grid = np.linspace(lo, hi, n)
    header = [args.sweep.split("=", 1)[0].strip()]
    header += [f"E{i + 1}_{part}" for i in range(layout.dim) for part in ("re", "im")]
    lines = [",".join(header + ["unbroken", "warning", "error"])]
    for value in grid:
        cells = [format_float(value)]
        try:
            report = classify_symmetry(*build_model(cli._scan_spec(args, kind, index, float(value))))
        except CptKitError:
            cells += [""] * (2 * layout.dim) + ["", "", "1"]
        else:
            for eig in report.eigenvalues:
                cells += [format_float(eig.real), format_float(eig.imag)]
            cells += ["1" if report.classification == UNBROKEN else "0", "1" if report.warnings else "0", "0"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", list(EQUIVALENCE_SWEEPS))
def test_scan_equals_the_row_by_row_reference(name, tmp_path):
    out = tmp_path / "scan.csv"
    argv = EQUIVALENCE_SWEEPS[name]
    assert run(["scan", *argv, "--out", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8") == _row_by_row_scan(argv)


def test_scan_marks_rows_whose_scale_overflows(tmp_path):
    # |H| overflows, so a relative tolerance would be infinite and every check
    # would pass; the closed form says these rows are broken
    out = tmp_path / "scan.csv"
    code = run(["scan", *EQUIVALENCE_SWEEPS["overflow"], "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [row[-3:] for row in rows] == [["", "", "1"]] * 3


def test_scan_grid_whose_span_overflows(tmp_path):
    # hi - lo overflows, but the grid itself is finite; the rows stay error rows
    out = tmp_path / "scan.csv"
    argv = ["scan", "--model", "2x2", "--sweep", "r=-1e308:1e308:5", "--s", "1", "--theta", "0.9", "--out", str(out)]
    assert run(argv) == EXIT_OK
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [row[0] for row in rows] == [format_float(x) for x in (-1e308, -5e307, 0.0, 5e307, 1e308)]
    assert [row[-3:] for row in rows] == [["", "", "1"]] * 5


def test_scan_classifies_its_grid_in_one_batch(monkeypatch, tmp_path):
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(frames.PTFrame, "validate", counting("validate", frames.PTFrame.validate))
    monkeypatch.setattr(cli, "model_matrix", counting("model_matrix", cli.model_matrix))
    monkeypatch.setattr(cli, "ModelSpec", counting("ModelSpec", cli.ModelSpec))

    def counts(n):
        calls.clear()
        argv = ["scan", "--model", "2x2", "--sweep", f"theta=0.01:1.5607:{n}", "--r", "2", "--s", "1"]
        assert run(argv + ["--out", str(tmp_path / "scan.csv")]) == EXIT_OK
        return dict(calls)

    assert counts(10) == counts(1000)
    assert counts(10)["model_matrix"] == 1


def test_an_exceptional_point_sweep_falls_back_in_one_batch(monkeypatch, tmp_path):
    # every row is PT-symmetric over the index frame: one real solve for all,
    # then one complex solve for the rows near the exceptional point
    kinds = []
    real = np.linalg.eig

    def recording(a, *args, **kwargs):
        kinds.append(np.asarray(a).dtype.kind)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", recording)
    out = tmp_path / "scan.csv"
    assert run(["scan", *EQUIVALENCE_SWEEPS["exceptional-point"], "--out", str(out)]) == EXIT_OK
    assert kinds == ["f", "c"]


# ---------------------------------------------------------------- input and output paths


def test_analyze_of_an_even_dimensional_document_takes_the_pair_swap(tmp_path, capsys):
    h_path, frame_path = tmp_path / "h.json", tmp_path / "swap.json"
    write_matrix(h_path, build_model(ModelSpec("4x4", ((1.0, 2.0, 0.5), (1.0, 3.0, 0.7))))[0])
    write_frame(frame_path, pair_swap_frame(4))
    assert run(["analyze", "--hamiltonian", str(h_path), "--frame", str(frame_path)]) == EXIT_OK
    explicit = capsys.readouterr().out
    assert run(["analyze", "--hamiltonian", str(h_path)]) == EXIT_OK
    assert capsys.readouterr().out == explicit
    assert "classification: unbroken" in explicit


def test_analyze_of_an_odd_dimensional_document_needs_a_frame(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    write_matrix(h_path, np.eye(3))
    assert run(["analyze", "--hamiltonian", str(h_path)]) == EXIT_USAGE
    assert "an odd-dimensional Hamiltonian needs an explicit --frame" in capsys.readouterr().err


def test_analyze_with_a_frame_of_another_dimension_is_usage_error(tmp_path, swap_frame_file, capsys):
    h_path = tmp_path / "h.json"
    write_matrix(h_path, np.eye(4))
    assert run(["analyze", "--hamiltonian", str(h_path), "--frame", swap_frame_file]) == EXIT_USAGE
    assert "Hamiltonian dimension 4 does not match frame dimension 2" in capsys.readouterr().err


def test_validate_without_input_is_usage_error(capsys):
    assert run(["validate"]) == EXIT_USAGE
    assert "give --frame FILE or --model parameters to validate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-c", "hermitize"])
def test_without_out_the_documents_go_to_stdout(command, capsys):
    assert run([command, "--model", "2x2", "--r", "1", "--s", "2", "--theta", THETA_PI_6]) == EXIT_OK
    h, frame = build_model(ModelSpec("2x2", ((1.0, 2.0, float(THETA_PI_6)),)))
    metric = build_c(h, frame).cpt
    label, matrix = ("c", metric.c.matrix) if command == "build-c" else ("h", cpt.hermitize(h, metric))
    assert capsys.readouterr().out.endswith(f"{label}:\n" + matrix_document(matrix))


def test_scan_without_out_writes_the_csv_to_stdout(tmp_path, capsys):
    argv = ["scan", "--model", "2x2", "--sweep", "theta=0.2:1.5:7", "--r", "2", "--s", "1"]
    assert run([*argv, "--out", str(tmp_path / "scan.csv")]) == EXIT_OK
    capsys.readouterr()
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == (tmp_path / "scan.csv").read_text(encoding="utf-8")


TWO_BLOCKS = ["--r", "1", "--s", "2", "--r", "1", "--s", "3", "--theta", "0.7"]


@pytest.mark.parametrize("argv, message", [
    (["--model", "2x2", "--sweep", "theta0=0.1:1.5:5", "--r", "2", "--s", "1"], "sweep block indices are 1-based"),
    (["--sweep", "theta=0.1:1.5:5", "--r", "2", "--s", "1"], "scan needs --model"),
    (["--model", "3x3", "--sweep", "a=0.5:1.5:5", "--a", "1", "--r", "1", "--s", "2", "--theta", "0.5"],
     "the swept parameter must not also be fixed with --a"),
    (["--model", "4x4", "--sweep", "theta=0.1:1.5:5", *TWO_BLOCKS],
     "sweeping 'theta' over a multi-block model needs an index, e.g. theta2"),
    (["--model", "4x4", "--sweep", "theta3=0.1:1.5:5", *TWO_BLOCKS], "sweep index 3 outside the 2-block model"),
    (["--model", "3x3", "--r", "1", "--s", "2", "--theta", "0.5", "--sweep", "a7=0.5:1.5:3"],
     "the 3x3 level 'a' belongs to no block and takes no index, got 'a7'"),
], ids=["index-0", "no-model", "a-fixed", "no-index", "index-outside", "indexed-a"])
def test_scan_sweep_errors_are_usage_errors(argv, message, capsys):
    assert run(["scan", *argv]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--op", "double"], "compose --op double needs --hamiltonian FILE"),
    (["--op", "tensor", "--r", "1", "--s", "2", "--theta", "0.5"], "compose --op tensor needs exactly two"),
], ids=["double-without-hamiltonian", "tensor-of-one-block"])
def test_compose_without_its_inputs_is_usage_error(argv, message, capsys):
    assert run(["compose", *argv]) == EXIT_USAGE
    assert message in capsys.readouterr().err
