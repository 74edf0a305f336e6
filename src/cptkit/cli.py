"""Command-line surface.

Subcommands: validate, analyze, build-c, hermitize, scan, compose.  Matrices
travel as JSON documents, scans as CSV; all angles are radians.  Exit codes:
0 success, 2 parse/usage, 3 axiom or classification failure, 4 numerical
breakdown (defective or exceptional input).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .cpt import EP_GUARD_TOL, build_c, hermitize, normalize_indefinite
from .errors import (
    EXIT_AXIOM,
    EXIT_NUMERIC,
    EXIT_USAGE,
    CptKitError,
    DimensionMismatch,
    DocumentError,
    InvalidArgument,
    InvalidModel,
)
from .composition import BlockSpec, direct_sum, doubling, tensor_hamiltonians
from .frames import CPTFrame, PTFrame, checked_cpt_frame, checked_pt_frame, pair_swap_frame, validate_cpt_frame, validate_pt_frame
from .io import format_float, frame_document, load_frame_parts, load_matrix, matrix_document, write_frame, write_matrix
from .linops import DEFAULT_TOL, hermiticity_residual, spectral_powers
from .models import FAMILIES, ModelSpec, build_model, model_frame, model_matrix
from .symmetry import BROKEN, UNBROKEN, classify_stack, classify_symmetry

EXIT_OK = 0

_SWEEP_RE = re.compile(r"^(r|s|theta|a)(\d*)$")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=FAMILIES, help="built-in model family")
    parser.add_argument("--r", action="append", type=float, help="r parameter (repeat per block)")
    parser.add_argument("--s", action="append", type=float, help="s parameter (repeat per block)")
    parser.add_argument("--theta", action="append", type=float, help="theta in radians (repeat per block)")
    parser.add_argument("--a", type=float, help="decoupled level for the 3x3 family")
    parser.add_argument("--hamiltonian", metavar="FILE", help="matrix document to analyze")
    parser.add_argument("--frame", metavar="FILE", help="frame document (p, t and optionally c)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance (default 1e-10)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpt-kit",
        description="Validate PT/CPT frames, classify symmetry phases, synthesize C operators, "
        "Hermitize Hamiltonians and scan parameter families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check frame axioms")
    _add_common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("analyze", help="PT-symmetry verdict and phase classification")
    _add_common(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("build-c", help="synthesize the C operator of an unbroken Hamiltonian")
    _add_common(p)
    p.add_argument("--out", metavar="PATH", help="output path (kind-suffixed when several)")
    p.add_argument("--emit", action="append", choices=("c", "pc", "sqrt", "h"), help="documents to write")
    p.set_defaults(handler=cmd_build_c)

    p = sub.add_parser("hermitize", help="similarity-transform to a Hermitian matrix")
    _add_common(p)
    p.add_argument("--out", metavar="PATH", help="output path (kind-suffixed when several)")
    p.add_argument("--emit", action="append", choices=("c", "pc", "sqrt", "h"), help="documents to write")
    p.set_defaults(handler=cmd_hermitize)

    p = sub.add_parser("scan", help="sweep one parameter and emit per-point classification CSV")
    _add_common(p)
    p.add_argument("--sweep", required=True, metavar="P=LO:HI:N", help="swept parameter and grid")
    p.add_argument("--out", metavar="PATH", help="CSV output path (stdout if omitted)")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("compose", help="tensor, direct-sum or doubling composition")
    _add_common(p)
    p.add_argument("--op", required=True, choices=("tensor", "dsum", "double"))
    p.add_argument("--out", metavar="PATH", help="output path for the composed Hamiltonian")
    p.set_defaults(handler=cmd_compose)
    return parser


def _blocks(r, s, theta) -> tuple[tuple[float, float, float], ...]:
    if not r or not (len(r) == len(s) == len(theta)):
        raise InvalidModel("--r, --s and --theta must each be given once per block, in equal numbers")
    return tuple(zip(r, s, theta))


def _blocks_from_args(args) -> tuple[tuple[float, float, float], ...]:
    return _blocks(args.r or [], args.s or [], args.theta or [])


def _model_spec_from_args(args) -> ModelSpec:
    return ModelSpec(args.model, _blocks_from_args(args), a=args.a)


def _load_validated_frame(path: str, tol: float):
    p, t, c = load_frame_parts(path)
    frame = checked_pt_frame(p, t, tol)
    if c is None:
        return frame
    return checked_cpt_frame(c, frame, tol)


def _base_frame(frame) -> PTFrame:
    return frame.frame if isinstance(frame, CPTFrame) else frame


def _resolve_problem(args, tol: float):
    """Produce (hamiltonian matrix, frame) from model flags or files."""
    if args.model:
        h, frame = build_model(_model_spec_from_args(args))
        if args.frame:
            frame = _load_validated_frame(args.frame, tol)
        return h, frame
    if not args.hamiltonian:
        raise InvalidModel("give either --model with parameters or --hamiltonian FILE")
    op = load_matrix(args.hamiltonian)
    if not op.is_linear:
        raise DocumentError("a Hamiltonian document must not be flagged antilinear")
    h = op.matrix
    if args.frame:
        frame = _load_validated_frame(args.frame, tol)
    elif h.shape[0] % 2 == 0:
        frame = pair_swap_frame(h.shape[0])
    else:
        raise InvalidModel("an odd-dimensional Hamiltonian needs an explicit --frame")
    if _base_frame(frame).dim != h.shape[0]:
        raise DimensionMismatch(
            f"Hamiltonian dimension {h.shape[0]} does not match frame dimension {_base_frame(frame).dim}"
        )
    return h, frame


def _print_violations(violations) -> None:
    for name, residual in violations:
        if name == "P != I":
            print(f"  {name}: the parity operator equals the identity (distance {residual:.3e})")
        else:
            print(f"  {name}: residual {residual:.3e}")


def _cfmt(z: complex) -> str:
    return f"{z.real:.12g} {z.imag:+.12g}i"


def cmd_validate(args) -> int:
    if args.frame:
        p, t, c = load_frame_parts(args.frame)
    elif args.model:
        frame = model_frame(_model_spec_from_args(args))
        p, t, c = frame.p, frame.t, None
    else:
        raise InvalidModel("give --frame FILE or --model parameters to validate")
    report = validate_pt_frame(p, t, args.tol)
    print(f"pt-frame axioms: {'PASS' if report.passed else 'FAIL'}")
    _print_violations(report.violations)
    passed = report.passed
    if c is not None:
        creport = validate_cpt_frame(c, PTFrame(p, t), args.tol)
        print(f"cpt-frame axioms: {'PASS' if creport.passed else 'FAIL'}")
        _print_violations(creport.violations)
        passed = passed and creport.passed
    return EXIT_OK if passed else EXIT_AXIOM


def _print_classification(report) -> None:
    print(f"classification: {report.classification}")
    print("eigenvalues:")
    for value in report.eigenvalues:
        print(f"  {_cfmt(value)}")


def cmd_analyze(args) -> int:
    h, frame = _resolve_problem(args, args.tol)
    base = _base_frame(frame)
    report = classify_symmetry(h, base, args.tol)
    verdict = "yes" if report.pt_symmetric else "no"
    print(f"pt-symmetric: {verdict} (residual {report.pt_residual:.3e})")
    _print_classification(report)
    if report.classification == UNBROKEN:
        print("aligned states:")
        for members in report.eigenspaces:
            try:
                _, signs = normalize_indefinite(np.column_stack([m.state for m in members]), base, EP_GUARD_TOL)
                sign_texts = [f"{sign:+d}" for sign in signs]
            except CptKitError:
                sign_texts = ["n/a"] * len(members)
            for state, sign_text in zip(members, sign_texts):
                print(f"  E = {state.energy:.12g}  theta = {state.theta:.12g}  sign = {sign_text}")
    if report.classification == BROKEN:
        print("conjugate pairs:")
        for pair in report.broken_pairs:
            print(f"  {_cfmt(pair.value)}  <->  {_cfmt(pair.partner)}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    return EXIT_OK


def _emit(args, outputs: list[tuple[str, np.ndarray]]) -> None:
    if args.out:
        base, ext = os.path.splitext(args.out)
        for label, matrix in outputs:
            path = args.out if len(outputs) == 1 else f"{base}.{label}{ext or '.json'}"
            write_matrix(path, matrix)
            print(f"wrote {label} -> {path}")
    else:
        for label, matrix in outputs:
            print(f"{label}:")
            sys.stdout.write(matrix_document(matrix))


def _collect_outputs(emits, cpt_frame: CPTFrame, h, tol) -> tuple[list[tuple[str, np.ndarray]], np.ndarray | None]:
    pc = cpt_frame.pc_matrix
    outputs: list[tuple[str, np.ndarray]] = []
    h_matrix = None
    for kind in emits:
        if kind == "c":
            outputs.append(("c", cpt_frame.c.matrix))
        elif kind == "pc":
            outputs.append(("pc", pc))
        elif kind == "sqrt":
            outputs += zip(("pc_sqrt", "pc_inv_sqrt"), spectral_powers(pc, cpt_frame.metric_spectrum, (0.5, -0.5), tol))
        elif kind == "h":
            h_matrix = hermitize(h, cpt_frame, tol)
            outputs.append(("h", h_matrix))
    return outputs, h_matrix


def cmd_build_c(args) -> int:
    h, frame = _resolve_problem(args, args.tol)
    result = build_c(h, _base_frame(frame), args.tol)
    print(f"gram residual: {result.gram_residual:.6e}")
    outputs, h_matrix = _collect_outputs(args.emit or ["c"], result.cpt, h, args.tol)
    if h_matrix is not None:
        print(f"hermiticity residual of h: {hermiticity_residual(h_matrix):.6e}")
    _emit(args, outputs)
    return EXIT_OK


def cmd_hermitize(args) -> int:
    h, frame = _resolve_problem(args, args.tol)
    if isinstance(frame, CPTFrame):
        cpt_frame = frame
    else:
        result = build_c(h, frame, args.tol)
        cpt_frame = result.cpt
        print(f"gram residual: {result.gram_residual:.6e}")
    outputs, h_matrix = _collect_outputs(args.emit or ["h"], cpt_frame, h, args.tol)
    if h_matrix is None:
        h_matrix = hermitize(h, cpt_frame, args.tol)
        outputs.append(("h", h_matrix))
    print(f"hermiticity residual of h: {hermiticity_residual(h_matrix):.6e}")
    _emit(args, outputs)
    return EXIT_OK


def _parse_sweep(text: str) -> tuple[str, int | None, float, float, int]:
    try:
        name, grid = text.split("=", 1)
        lo_text, hi_text, n_text = grid.split(":")
        lo, hi, n = float(lo_text), float(hi_text), int(n_text)
    except ValueError as exc:
        raise InvalidArgument(f"invalid sweep syntax {text!r}, expected P=LO:HI:N") from exc
    match = _SWEEP_RE.match(name.strip())
    if not match:
        raise InvalidArgument(f"unknown sweep parameter {name!r}")
    if n < 2:
        raise InvalidArgument("sweep needs at least 2 grid points")
    index = int(match.group(2)) - 1 if match.group(2) else None
    if index is not None and index < 0:
        raise InvalidArgument("sweep block indices are 1-based")
    return match.group(1), index, lo, hi, n


def _scan_spec(args, kind: str, index: int, value: float | np.ndarray) -> ModelSpec:
    """The scanned model with ``value``, a point or the grid, at the swept position."""
    lists = {"r": list(args.r or []), "s": list(args.s or []), "theta": list(args.theta or [])}
    if kind == "a":
        return ModelSpec(args.model, _blocks(**lists), a=value)
    lists[kind].insert(index, value)
    return ModelSpec(args.model, _blocks(**lists), a=args.a)


def _scan_layout(args, kind: str, index: int | None) -> tuple[int, ModelSpec]:
    """Check the scanned model once, with a 1.0 placeholder at the swept
    position, and return the swept block index and that model."""
    if not args.model:
        raise InvalidModel("scan needs --model")
    if kind == "a" and args.a is not None:
        raise InvalidArgument("the swept parameter must not also be fixed with --a")
    spec = _scan_spec(args, kind, index or 0, 1.0)
    blocks = len(spec.blocks)
    if kind != "a":
        if index is None and blocks != 1:
            raise InvalidArgument(f"sweeping {kind!r} over a multi-block model needs an index, e.g. {kind}2")
        if (index or 0) >= blocks:
            raise InvalidArgument(f"sweep index {index + 1} outside the {blocks}-block model")
    return index or 0, spec


def cmd_scan(args) -> int:
    kind, index, lo, hi, n = _parse_sweep(args.sweep)
    index, layout = _scan_layout(args, kind, index)
    dim = layout.dim
    # one model, one frame and one stacked classification for the whole grid; a
    # non-finite or zero grid point (outside every family) gives an error row
    with np.errstate(invalid="ignore"):
        grid = np.linspace(lo, hi, n)
        stack = model_matrix(_scan_spec(args, kind, index, np.where(grid == 0.0, np.nan, grid)))
    rows = classify_stack(stack, model_frame(layout), args.tol)

    header = [args.sweep.split("=", 1)[0].strip()]
    header += [f"E{i + 1}_{part}" for i in range(dim) for part in ("re", "im")]
    header += ["unbroken", "warning", "error"]
    lines = [",".join(header)]
    error_cells = [""] * (2 * dim) + ["", "", "1"]
    for i, value in enumerate(grid):
        cells = [format_float(value)]
        if rows.error[i]:
            cells += error_cells
        else:
            for eig in rows.eigenvalues[i]:
                cells += [format_float(eig.real), format_float(eig.imag)]
            cells += ["1" if rows.classification[i] == UNBROKEN else "0", "1" if rows.warning[i] else "0", "0"]
        lines.append(",".join(cells))

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {n} rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_compose(args) -> int:
    tol = args.tol
    if args.op == "double":
        if not args.hamiltonian:
            raise InvalidModel("compose --op double needs --hamiltonian FILE")
        op = load_matrix(args.hamiltonian)
        composed, out_frame, symmetric = doubling(op.matrix, tol)
        print(f"doubled dimension: {composed.shape[0]}")
        print(f"pt-symmetric: {'yes' if symmetric else 'no'}")
    elif args.op == "tensor":
        blocks = _blocks_from_args(args)
        if len(blocks) != 2:
            raise InvalidModel("compose --op tensor needs exactly two (r, s, theta) blocks")
        cells = [build_model(ModelSpec("2x2", (block,))) for block in blocks]
        results = [build_c(h, fr, tol) for h, fr in cells]
        composed, out_frame = tensor_hamiltonians(
            cells[0][0], cells[1][0], results[0].cpt, results[1].cpt, tol
        )
    else:  # dsum
        cells = [build_model(ModelSpec("2x2", (block,))) for block in _blocks_from_args(args)]
        composed, out_frame = direct_sum(BlockSpec(tuple(cells)), tol)
    if args.op != "double":
        _print_classification(classify_symmetry(composed, _base_frame(out_frame), tol))

    if args.out:
        write_matrix(args.out, composed)
        print(f"wrote hamiltonian -> {args.out}")
        frame_path = os.path.splitext(args.out)[0] + ".frame.json"
        write_frame(frame_path, out_frame)
        print(f"wrote frame -> {frame_path}")
    else:
        sys.stdout.write(matrix_document(composed))
        sys.stdout.write(frame_document(out_frame))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else EXIT_OK
    try:
        return args.handler(args)
    except CptKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
