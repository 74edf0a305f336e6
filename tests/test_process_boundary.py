"""The CLI's exit codes and outputs, one row per check, each run by ``cli.main`` in a directory of
documents written by :mod:`cptkit.io`; one case runs ``python -m cptkit.cli`` as a process."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cptkit
from cptkit import CPTFrame, ModelSpec, Operator, build_model, closed_form_c, frame_from_involution, pair_swap_frame
from cptkit.cli import main
from cptkit.io import frame_document, write_frame, write_matrix
from helpers import SWAP

EP, NEAR, PI_6 = "1.5707963267948966", "1.5693821131", "--model 2x2 --r 1 --s 2 --theta 0.5235987756"
CHAIN = "--model chain --r 1 --s 2 --theta 0.5"
TWINS = f"{CHAIN} --r 1 --s 2 --theta 0.5"
TENSOR = "compose --op tensor --r 1 --s 2 --theta 0.52 --r 1 --s 3 --theta 0.78 --out t.json"
NEAR_EP = f"compose --op tensor --r 1 --s 1 --theta {NEAR} --r 1 --s 2 --theta 0.5 --out ep.json"
C_DOC = f"build-c {PI_6} --out c.json --emit c"


def cells(first: int, last: int) -> str:  # the chain cells (1, s, 0.7), s = first, ..., last
    return " ".join(f"--r 1 --s {s} --theta 0.7" for s in range(first, last + 1))


# (exit code, arguments[, check of stdout, stderr and the directory]); a new check is a new last row
ROWS = [
    (0, f"analyze {PI_6}"),
    (2, f"analyze {PI_6} --tol nan"),
    (3, "build-c --model 2x2 --r 2 --s 1 --theta 1.2"),
    (4, f"analyze --model 2x2 --r 1 --s 1 --theta {EP}"),
    # chains whose second cell the Gram certificate does not clear: cond(V) from the SVD
    (0, f"analyze --model chain --r 1 --s 2 --theta 0.5 --r 0.9999999 --s 1 --theta {EP}"),
    (4, f"analyze --model chain --r 1 --s 2 --theta 0.5 --r 1 --s 1 --theta {EP}"),
    # the files of tensor chains, one with a factor near its exceptional point: validate, hermitize
    (0, TENSOR),
    (0, "validate --frame t.frame.json"),
    (0, "hermitize --hamiltonian t.json --frame t.frame.json --out hermitized.json"),
    (0, NEAR_EP),
    (0, "validate --frame ep.frame.json"),
    (0, "hermitize --hamiltonian ep.json --frame ep.frame.json --out ep.h.json"),
    # an index-frame chain: the metric roots and h formed in its real basis
    (0, f"build-c {CHAIN} {cells(3, 3)} --emit sqrt --emit h --out chain.json"),
    (0, f"hermitize {CHAIN} {cells(3, 3)} --emit sqrt --out chain.h.json"),
    # two identical cells: an eigenspace across two blocks, solved whole at n = 6, split at n = 80
    (0, f"build-c {TWINS} {cells(3, 3)} --emit h"),
    (0, f"build-c {TWINS} {cells(4, 41)} --emit h"),
    # n = 80 chains block by block: a broken cell, a cell at its exceptional point, one near it
    (3, f"build-c --model chain --r 2 --s 1 --theta 1.2 {cells(4, 42)} --emit h"),
    (4, f"analyze --model chain --r 1 --s 1 --theta {EP} {cells(4, 42)}"),
    (0, f"build-c --model chain --r 1 --s 1 --theta {NEAR} {cells(4, 42)} --emit h"),
    # a stack of such chains across the exceptional point: the one error row, last
    (0, f"scan --model chain --r 1 --s 1 {cells(4, 42)} --sweep theta1={NEAR}:{EP}:9 --out scan80.csv",
     lambda out, err, d: [row[-1] for row in (d / "scan80.csv").read_text().splitlines()[1:]] == ["0"] * 8 + ["1"]),
    # an irreducible n = 80 input over the reversal, unbroken at gamma 1e-3, broken at 1e-2
    (0, "build-c --hamiltonian ring3.json --frame rev.json --emit h"),
    (3, "build-c --hamiltonian ring2.json --frame rev.json --emit h"),
    (0, "analyze --hamiltonian moved80.json --frame swap80.json",  # one entry moved by 0.1: the whole residual
     lambda out, err, d: "pt-symmetric: no (residual 1.414e-01)" in out.splitlines()),
    (2, "analyze --hamiltonian huge80.json --frame swap80.json",  # finite entries whose norm overflows
     lambda out, err, d: "the Frobenius norm of the matrix overflows" in err),
    # a degenerate eigenspace across a pair and the 3x3's fixed point; its level a takes no index
    (0, "build-c --model 3x3 --r 1 --s 2 --theta 0.5 --a 2.8192702692558154 --emit h"),
    (2, "scan --model 3x3 --r 1 --s 2 --theta 0.5 --sweep a2=0.5:1.5:3"),
    # a matrix document is not a frame document, and a boolean is not a dimension
    (0, C_DOC),
    (2, "hermitize --hamiltonian t.json --frame c.json"),
    (2, "analyze --hamiltonian bool.json"),
    # over a frame with no permutation, P = R SWAP R^T and T = I: C = R C_0 R^T passes, -C fails
    (0, "validate --frame rot.c.json"),
    (3, "validate --frame rot.neg.json"),
    (0, "hermitize --hamiltonian rot.json --frame rot.c.json"),
    (3, "hermitize --hamiltonian rot.json --frame rot.neg.json"),
    (0, "build-c --hamiltonian rot.json --frame rot.frame.json --emit sqrt --emit h"),
]


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("boundary")
    chain, swap = build_model(ModelSpec("chain", tuple((1.0, k + 3.0, 0.7) for k in range(40))))
    moved = chain.copy()
    moved[0, 0] += 0.1
    hop, gain = np.eye(80, k=1) + np.eye(80, k=-1), np.diag(1j * np.linspace(-1, 1, 80))
    # the cell (1, 2, 0.5) rotated by R, a real angle of 0.3, and its closed-form C rotated alike
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    cell = rot @ build_model(ModelSpec("2x2", ((1.0, 2.0, 0.5),)))[0] @ rot.T
    frame, c = frame_from_involution(rot @ SWAP @ rot.T), rot @ closed_form_c(np.arcsin(np.sin(0.5) / 2)) @ rot.T
    for name, doc in {"moved80": moved, "huge80": chain * 1e306, "ring3": hop + 1e-3 * gain, "rot": cell,
                      "ring2": hop + 1e-2 * gain, "swap80": swap, "rev": frame_from_involution(np.eye(80)[::-1]),
                      "rot.frame": frame, "rot.c": CPTFrame(frame, Operator.linear(c)),
                      "rot.neg": CPTFrame(frame, Operator.linear(-c))}.items():
        (write_matrix if isinstance(doc, np.ndarray) else write_frame)(d / f"{name}.json", doc)
    (d / "bool.json").write_text('{"dim": true, "antilinear": false, "entries": [[1, 0]]}')
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        for argv in (TENSOR, NEAR_EP, C_DOC):  # the documents that the CLI writes for other rows
            assert main(argv.split()) == 0
    return d


@pytest.mark.parametrize("row", ROWS, ids=[f"{i:02d}-{row[1].split()[0]}-{row[0]}" for i, row in enumerate(ROWS)])
def test_each_command_exits_with_its_code(row, docs, monkeypatch, capsys):
    code, argv, check = (*row, None)[:3]
    monkeypatch.chdir(docs)
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert check is None or check(out, err, docs), (out, err)


def test_the_pair_swap_frame_document_is_that_of_its_involution():
    assert frame_document(pair_swap_frame(80)) == frame_document(frame_from_involution(pair_swap_frame(80).p.matrix))


def test_the_cli_exits_with_its_code_as_a_process():  # entry() and the __main__ guard of cptkit.cli
    # run in the directory that holds the package under test: -m puts it first on sys.path
    argv = [sys.executable, "-m", "cptkit.cli", *ROWS[2][1].split()]
    done = subprocess.run(argv, cwd=Path(cptkit.__file__).resolve().parents[1], capture_output=True, timeout=60)
    assert (done.returncode, done.stderr[:7]) == (3, b"error: ")
