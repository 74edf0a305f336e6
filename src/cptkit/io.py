"""Flat-file formats: JSON matrix documents and JSON frame documents.  The
scan CSV is written by ``cpt-kit scan`` (:mod:`cptkit.cli`), not here.

A matrix document is

    {"dim": n, "antilinear": false, "entries": [[re, im], ...]}

with exactly n*n row-major [re, im] pairs, all finite.  A frame document
wraps matrix documents under the keys "p", "t" and optionally "c".  Floats
are serialized as decimals with 17 significant digits, which round-trip
bit-identically; writers emit a fixed key order so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import DocumentError
from .frames import CPTFrame
from .linops import ANTILINEAR, LINEAR, Operator


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def matrix_document(matrix, antilinear: bool = False) -> str:
    """Serialize a square complex matrix as a one-line JSON document."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    cells = ", ".join(
        f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in a.ravel(order="C")
    )
    flag = "true" if antilinear else "false"
    return f'{{"dim": {n}, "antilinear": {flag}, "entries": [{cells}]}}\n'


def parse_matrix_document(obj) -> Operator:
    """Build an operator from a parsed matrix document."""
    if not isinstance(obj, dict):
        raise DocumentError("matrix document must be a JSON object")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise DocumentError("'dim' must be a positive integer")
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise DocumentError(f"'entries' must hold exactly dim^2 = {dim * dim} pairs")
    antilinear = obj.get("antilinear", False)
    if not isinstance(antilinear, bool):
        raise DocumentError("'antilinear' must be a boolean")
    flat = np.empty(dim * dim, dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise DocumentError(f"entry {i} is not a [re, im] number pair")
        # false for nan, inf and an integer beyond float range, which float() refuses
        if not all(abs(x) <= sys.float_info.max for x in pair):
            raise DocumentError(f"entry {i} is not finite")
        flat[i] = complex(pair[0], pair[1])
    return Operator(ANTILINEAR if antilinear else LINEAR, flat.reshape(dim, dim))


def _read_document(path, kind: str):
    """The parsed JSON of a ``kind`` document, or DocumentError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read {kind} document {path}: {exc}") from exc


def load_matrix(path) -> Operator:
    return parse_matrix_document(_read_document(path, "matrix"))


def write_matrix(path, matrix, antilinear: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_document(matrix, antilinear))


def frame_document(frame) -> str:
    """Serialize a PT- or CPT-frame as a JSON document."""
    parts = [
        f'"p": {matrix_document(frame.p.matrix).rstrip()}',
        f'"t": {matrix_document(frame.t.matrix, antilinear=True).rstrip()}',
    ]
    if isinstance(frame, CPTFrame):
        parts.append(f'"c": {matrix_document(frame.c.matrix).rstrip()}')
    return "{" + ", ".join(parts) + "}\n"


def parse_frame_document(obj) -> tuple[Operator, Operator, Operator | None]:
    """Extract raw (p, t, c) operators from a parsed frame document.

    T defaults to antilinear when its document omits the flag.  No axiom
    validation happens here; feed the parts to the frame validators.
    """
    if not isinstance(obj, dict):
        raise DocumentError("frame document must be a JSON object")
    if "p" not in obj or "t" not in obj:
        raise DocumentError("frame document needs 'p' and 't' matrix documents")
    p = parse_matrix_document(obj["p"])
    if not isinstance(obj["t"], dict):
        raise DocumentError("'t' must be a matrix document")
    t_doc = dict(obj["t"])
    t_doc.setdefault("antilinear", True)
    t = parse_matrix_document(t_doc)
    c = parse_matrix_document(obj["c"]) if "c" in obj else None
    return p, t, c


def load_frame_parts(path) -> tuple[Operator, Operator, Operator | None]:
    return parse_frame_document(_read_document(path, "frame"))


def write_frame(path, frame) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(frame_document(frame))
