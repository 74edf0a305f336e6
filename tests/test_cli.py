import json

import numpy as np
import pytest

from cptkit import Operator, cli, pair_swap_frame
from cptkit.cli import EXIT_AXIOM, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from cptkit.frames import checked_cpt_frame
from cptkit.io import load_matrix, write_frame, write_matrix
from helpers import H1, H3, SWAP, shared_eigenvalue_chain, unitary_basis_change

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


def test_scan_warning_flag_near_exceptional_point(tmp_path):
    out = tmp_path / "scan.csv"
    lo, hi = 1.5705963268, 1.5706963268  # theta window with |sin(theta)| within 1e-6 of 1
    code = run(["scan", "--model", "2x2", "--sweep", f"theta={lo}:{hi}:3", "--r", "1", "--s", "1", "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert all(r[-2] == "1" for r in rows)


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
