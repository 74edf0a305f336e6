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

from .cpt import aligned_signs, build_c, hermitize
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
from .frames import CPTFrame, PTFrame, checked_cpt_frame, checked_pt_frame, pair_swap_frame, validate_cpt_frame
from .io import frame_document, load_frame_parts, load_matrix, matrix_document, write_frame, write_matrix
from .linops import DEFAULT_TOL, hermiticity_residual, require_tolerance
from .models import FAMILIES, ModelSpec, build_model, model_frame, model_matrix
from .symmetry import BROKEN, UNBROKEN, classify_stack, classify_symmetry

EXIT_OK = 0

_SWEEP_RE = re.compile(r"^(r|s|theta|a)(\d*)$")


def _tolerance(text: str) -> float:
    """The value of --tol: a float that :func:`~cptkit.linops.require_tolerance` accepts."""
    try:
        tol = float(text)
        require_tolerance(tol)
    except ValueError:  # InvalidArgument is a ValueError
        raise argparse.ArgumentTypeError(f"expected a positive, finite number, got {text!r}") from None
    return tol


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=FAMILIES, help="built-in model family")
    common.add_argument("--r", action="append", type=float, help="r parameter (repeat per block)")
    common.add_argument("--s", action="append", type=float, help="s parameter (repeat per block)")
    common.add_argument("--theta", action="append", type=float, help="theta in radians (repeat per block)")
    common.add_argument("--a", type=float, help="decoupled level for the 3x3 family")
    common.add_argument("--hamiltonian", metavar="FILE", help="matrix document to analyze")
    common.add_argument("--frame", metavar="FILE", help="frame document (p, t and optionally c)")
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="tolerance (default 1e-10)")

    parser = argparse.ArgumentParser(
        prog="cpt-kit",
        description="Validate PT/CPT frames, classify symmetry phases, synthesize C operators, "
        "Hermitize Hamiltonians and scan parameter families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, handler in (
        ("validate", "check frame axioms", cmd_validate),
        ("analyze", "PT-symmetry verdict and phase classification", cmd_analyze),
        ("build-c", "synthesize the C operator of an unbroken Hamiltonian", cmd_synthesize),
        ("hermitize", "similarity-transform to a Hermitian matrix", cmd_synthesize),
        ("scan", "sweep one parameter and emit per-point classification CSV", cmd_scan),
        ("compose", "tensor, direct-sum or doubling composition", cmd_compose),
    ):
        commands[name] = sub.add_parser(name, help=help_text, parents=[common])
        commands[name].set_defaults(handler=handler)
    for name in ("build-c", "hermitize"):
        commands[name].add_argument("--out", metavar="PATH", help="output path (kind-suffixed when several)")
        commands[name].add_argument(
            "--emit", action="append", choices=("c", "pc", "sqrt", "h"), help="documents to write"
        )
    commands["scan"].add_argument("--sweep", required=True, metavar="P=LO:HI:N", help="swept parameter and grid")
    commands["scan"].add_argument("--out", metavar="PATH", help="CSV output path (stdout if omitted)")
    commands["compose"].add_argument("--op", required=True, choices=("tensor", "dsum", "double"))
    commands["compose"].add_argument("--out", metavar="PATH", help="output path for the composed Hamiltonian")
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
    return frame if c is None else checked_cpt_frame(c, frame, tol)


def _base_frame(frame) -> PTFrame:
    return frame.frame if isinstance(frame, CPTFrame) else frame


def _load_hamiltonian(path: str) -> np.ndarray:
    """The matrix of a Hamiltonian document, which must not be flagged antilinear."""
    op = load_matrix(path)
    if not op.is_linear:
        raise DocumentError("a Hamiltonian document must not be flagged antilinear")
    return op.matrix


def _resolve_problem(args):
    """Produce (hamiltonian matrix, frame) from model flags or files."""
    if args.model:
        h, frame = build_model(_model_spec_from_args(args))
    elif args.hamiltonian:
        h = _load_hamiltonian(args.hamiltonian)
    else:
        raise InvalidModel("give either --model with parameters or --hamiltonian FILE")
    if args.frame:
        frame = _load_validated_frame(args.frame, args.tol)
    elif not args.model:
        if h.shape[0] % 2:
            raise InvalidModel("an odd-dimensional Hamiltonian needs an explicit --frame")
        frame = pair_swap_frame(h.shape[0])
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
        frame = PTFrame(p, t)
    elif args.model:
        frame, c = model_frame(_model_spec_from_args(args)), None
    else:
        raise InvalidModel("give --frame FILE or --model parameters to validate")
    report = frame.validate(args.tol)
    print(f"pt-frame axioms: {'PASS' if report.passed else 'FAIL'}")
    _print_violations(report.violations)
    passed = report.passed
    if c is not None:
        creport = validate_cpt_frame(c, frame, args.tol)
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
    h, frame = _resolve_problem(args)
    base = _base_frame(frame)
    report = classify_symmetry(h, base, args.tol)
    verdict = "yes" if report.pt_symmetric else "no"
    print(f"pt-symmetric: {verdict} (residual {report.pt_residual:.3e})")
    _print_classification(report)
    if report.classification == UNBROKEN:
        print("aligned states:")
        for state, sign in zip(report.aligned_states, aligned_signs(report, base).tolist()):
            print(f"  E = {state.energy:.12g}  theta = {state.theta:.12g}  sign = {f'{sign:+d}' if sign else 'n/a'}")
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


def cmd_synthesize(args) -> int:
    """build-c and hermitize.  hermitize reuses the C of a CPT frame document
    and always emits h, last if it was not requested; build-c always
    synthesizes C."""
    h, frame = _resolve_problem(args)
    hermitizing = args.command == "hermitize"
    if hermitizing and isinstance(frame, CPTFrame):
        cpt_frame = frame
    else:
        result = build_c(h, _base_frame(frame), args.tol)
        cpt_frame = result.cpt
        print(f"gram residual: {result.gram_residual:.6e}")
    emits = args.emit or ["h" if hermitizing else "c"]
    if hermitizing and "h" not in emits:
        emits = [*emits, "h"]
    outputs: list[tuple[str, np.ndarray]] = []
    h_matrix = None
    for kind in emits:
        if kind == "c":
            outputs.append(("c", cpt_frame.c.matrix))
        elif kind == "pc":
            outputs.append(("pc", cpt_frame.pc_matrix))
        elif kind == "sqrt":
            outputs += zip(("pc_sqrt", "pc_inv_sqrt"), cpt_frame.metric_roots(args.tol))
        else:
            h_matrix = hermitize(h, cpt_frame, args.tol)
            outputs.append(("h", h_matrix))
    if h_matrix is not None:
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
    if index is not None and match.group(1) == "a":
        raise InvalidArgument(f"the 3x3 level 'a' belongs to no block and takes no index, got {name.strip()!r}")
    if index is not None and index < 0:
        raise InvalidArgument("sweep block indices are 1-based")
    return match.group(1), index, lo, hi, n


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)``.  Where finite ends span more than the
    largest float, the grid of the quartered ends, times 4: both scalings are
    exact there, and neither the span nor a grid step overflows."""
    if np.isfinite([lo, hi]).all() and not np.isfinite(hi - lo):
        return 4.0 * np.linspace(lo / 4.0, hi / 4.0, n)
    return np.linspace(lo, hi, n)


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
        grid = _grid(lo, hi, n)
        stack = model_matrix(_scan_spec(args, kind, index, np.where(grid == 0.0, np.nan, grid)))
    rows = classify_stack(stack, model_frame(layout), args.tol)

    # one %-format per row; the fields are %.17g, as io.format_float writes them
    row = ",".join(["%.17g"] * (1 + 2 * dim) + ["%d", "%d", "0"])
    error_row = "%.17g" + "," * (2 * dim + 2) + ",1"
    parts = np.stack((rows.eigenvalues.real, rows.eigenvalues.imag), -1).reshape(n, 2 * dim)
    fields = np.column_stack((grid, parts, rows.classification == UNBROKEN, rows.warning))
    header = [args.sweep.split("=", 1)[0].strip()]
    header += [f"E{i + 1}_{part}" for i in range(dim) for part in ("re", "im")]
    lines = [",".join(header + ["unbroken", "warning", "error"])]
    lines += [error_row % f[0] if error else row % tuple(f) for f, error in zip(fields.tolist(), rows.error.tolist())]

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
        composed, out_frame, symmetric = doubling(_load_hamiltonian(args.hamiltonian), tol)
        print(f"doubled dimension: {composed.shape[0]}")
        print(f"pt-symmetric: {'yes' if symmetric else 'no'}")
    elif args.op == "tensor":
        blocks = _blocks_from_args(args)
        if len(blocks) != 2:
            raise InvalidModel("compose --op tensor needs exactly two (r, s, theta) blocks")
        (h1, f1), (h2, f2) = (build_model(ModelSpec("2x2", (block,))) for block in blocks)
        composed, out_frame = tensor_hamiltonians(h1, h2, build_c(h1, f1, tol).cpt, build_c(h2, f2, tol).cpt, tol)
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
