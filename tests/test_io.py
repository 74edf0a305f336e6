import json

import numpy as np
import pytest

from cptkit import Operator, pair_swap_frame
from cptkit.errors import DocumentError
from cptkit.frames import checked_cpt_frame
from cptkit.io import (
    frame_document,
    load_frame_parts,
    load_matrix,
    matrix_document,
    parse_frame_document,
    parse_matrix_document,
    write_frame,
    write_matrix,
)
from helpers import SWAP, random_complex


def test_matrix_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(81)
    m = random_complex(rng, (3, 3)) * 1e3
    m[0, 0] = 0.1 + (1.0 / 3.0) * 1j  # decimals without short binary form
    path = tmp_path / "m.json"
    write_matrix(path, m)
    back = load_matrix(path)
    assert back.is_linear
    assert np.array_equal(back.matrix, m)


def test_matrix_document_is_deterministic():
    m = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    assert matrix_document(m) == matrix_document(m)
    assert matrix_document(m).endswith("\n")


def test_antilinear_flag_round_trip(tmp_path):
    path = tmp_path / "t.json"
    write_matrix(path, np.eye(2), antilinear=True)
    op = load_matrix(path)
    assert not op.is_linear


def test_matrix_document_is_valid_json():
    doc = matrix_document(np.array([[1.0 + 2j]]))
    parsed = json.loads(doc)
    assert parsed["dim"] == 1
    assert parsed["entries"] == [[1.0, 2.0]]
    assert parsed["antilinear"] is False


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"dim": 0, "entries": []},
        {"dim": 2, "entries": [[1, 0]]},
        {"dim": 1, "entries": [[1, 0]], "antilinear": "yes"},
        {"dim": 1, "entries": [[1]]},
        {"dim": 1, "entries": [["1", "0"]]},
        {"dim": 1, "entries": [[True, False]]},
        {"dim": 1, "entries": 4},
        {"dim": True, "entries": [[1, 0]]},
    ],
)
def test_parse_matrix_document_rejects_malformed(obj):
    with pytest.raises(DocumentError):
        parse_matrix_document(obj)


def test_parse_matrix_document_rejects_non_finite():
    with pytest.raises(DocumentError):
        parse_matrix_document({"dim": 1, "entries": [[float("inf"), 0.0]]})


@pytest.mark.parametrize("pair", [[10**400, 0], [0, -(10**400)]], ids=["re", "im"])
def test_an_integer_beyond_float_range_is_not_finite(pair):
    # json.loads reads "1" and 400 zeros as an int, which no float holds
    assert json.loads("1" + "0" * 400) == 10**400
    with pytest.raises(DocumentError, match="entry 0 is not finite"):
        parse_matrix_document({"dim": 1, "entries": [pair]})


def test_load_matrix_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError):
        load_matrix(path)


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(DocumentError):
        load_matrix(tmp_path / "absent.json")


def test_pt_frame_document_round_trip(tmp_path):
    frame = pair_swap_frame(4)
    path = tmp_path / "frame.json"
    write_frame(path, frame)
    p, t, c = load_frame_parts(path)
    assert c is None
    assert p.is_linear and not t.is_linear
    assert np.array_equal(p.matrix, frame.p.matrix)
    assert np.array_equal(t.matrix, frame.t.matrix)


def test_cpt_frame_document_round_trip(tmp_path):
    frame = pair_swap_frame(2)
    cpt = checked_cpt_frame(Operator.linear(SWAP), frame)
    path = tmp_path / "cpt.json"
    write_frame(path, cpt)
    p, t, c = load_frame_parts(path)
    assert c is not None and c.is_linear
    assert np.array_equal(c.matrix, SWAP.astype(complex))


def test_frame_document_t_defaults_to_antilinear():
    doc = {
        "p": {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]},
        "t": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    }
    _, t, _ = parse_frame_document(doc)
    assert not t.is_linear


def test_frame_document_text_is_json(tmp_path):
    frame = pair_swap_frame(2)
    parsed = json.loads(frame_document(frame))
    assert set(parsed) == {"p", "t"}
    assert parsed["t"]["antilinear"] is True
