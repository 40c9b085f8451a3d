"""Command-line interface.

Subcommands:

    check        verify connective axioms (grid + seeded samples)
    classify     idempotent / nilpotent / zero-divisor scan of a t-norm
    equilibrium  fixed points of a negation, per parameter label
    apply        combine two .fss files under union/intersect/a connective
    dual         print an evaluation table of the order-dual
    eval         run a set-composition script against bound .fss files

Exit codes: 0 success (all axioms pass), 1 axiom violation or a
classification hit forbidden by --expect-none, 2 usage or expression
parse error, 3 I/O or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stdout
from typing import Sequence

import numpy as np

from .analysis import (
    CUBE_TILE_POINTS,
    AxiomReport,
    CheckConfig,
    ClassificationReport,
    EquilibriumResult,
    check_implication_axioms,
    check_negation_axioms,
    check_tconorm_axioms,
    check_tnorm_axioms,
    classify_elements,
    find_equilibria,
    grid_points,
)
from .connectives import (
    ScalarConnective,
    dual_of,
    resolve_builtin,
    resolve_connective,
    scalar_from_expression,
)
from .errors import (
    ArityError,
    DocumentError,
    FuzzySoftError,
    ParseError,
    UnknownBuiltinError,
    ValidationError,
)
from .fileio import load_fss, save_fss
from .script import eval_script, parse_script
from .sets import SET_OPERATIONS, apply_connective
from .tags import ParamTag

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DATA = 3

#: Most points a side of a ``dual --table``: 1024 rows of 1024 cells of
#: ten characters are about 10 MB of stdout.
MAX_TABLE = 1024

_CHECKERS = {
    "tnorm": check_tnorm_axioms,
    "tconorm": check_tconorm_axioms,
    "negation": check_negation_axioms,
    "implication": check_implication_axioms,
}


def _sig(value: float) -> str:
    """17 significant digits: witness values re-evaluate exactly."""
    return f"{value:.17g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzysoft",
        description="Parameter-tagged fuzzy connectives: verification, "
                    "classification and set algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_candidate(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--expr", help="candidate as an expression in x and y")
        group.add_argument("--builtin", help="candidate as a builtin name")

    def add_option(p: argparse.ArgumentParser, flag: str, field: str, metavar: str,
                   text: str | None = None) -> None:
        default = getattr(CheckConfig, field)  # each default is CheckConfig's own
        p.add_argument(flag, type=type(default), default=default, metavar=metavar,
                       help=text and f"{text} (default {default})")

    check = sub.add_parser("check", help="verify connective axioms")
    check.add_argument("--kind", required=True, choices=tuple(_CHECKERS))
    add_candidate(check)
    add_option(check, "--grid", "grid_steps", "N", "grid steps")
    add_option(check, "--samples", "random_samples", "N", "random samples per axiom")
    add_option(check, "--tol", "tolerance", "T", "absolute tolerance")
    add_option(check, "--seed", "seed", "S", "sampler seed")
    check.add_argument("--format", choices=("text", "json"), default="text")

    classify = sub.add_parser("classify",
                              help="scan for idempotents, nilpotents, zero divisors")
    add_candidate(classify)
    add_option(classify, "--grid", "grid_steps", "N")
    add_option(classify, "--tol", "tolerance", "T")
    classify.add_argument("--expect-none", action="append", default=[],
                          choices=("zero-divisors", "nonzero-nilpotents"),
                          help="exit 1 if the named class is non-empty (repeatable)")
    classify.add_argument("--format", choices=("text", "json"), default="text")

    equilibrium = sub.add_parser("equilibrium",
                                 help="fixed points of a negation per parameter")
    group = equilibrium.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="negation as an expression in x")
    group.add_argument("--builtin", help="negation as a builtin name")
    group.add_argument("--family", action="append",
                       help="per-label negations LABEL=EXPR[,LABEL=EXPR...] (repeatable)")
    equilibrium.add_argument("--params", required=True,
                             help="comma-separated parameter labels")
    add_option(equilibrium, "--tol", "tolerance", "T")

    apply_cmd = sub.add_parser("apply", help="combine two fuzzy soft set files")
    apply_cmd.add_argument("--op", required=True,
                           choices=(*SET_OPERATIONS, "connective"),
                           help="set operation; 'connective' applies --conn pointwise")
    apply_cmd.add_argument("--conn", metavar="NAME-or-EXPR",
                           help="binary connective for --op connective")
    apply_cmd.add_argument("left", metavar="A.fss")
    apply_cmd.add_argument("right", metavar="B.fss")
    apply_cmd.add_argument("-o", "--output", required=True, metavar="OUT.fss")

    dual = sub.add_parser("dual", help="order-dual of a binary connective")
    add_candidate(dual)
    dual.add_argument("--table", type=int, default=5, metavar="N",
                      help=f"print an NxN evaluation table (default 5, at most {MAX_TABLE})")

    eval_cmd = sub.add_parser("eval", help="run a set-composition script")
    eval_cmd.add_argument("script", metavar="SCRIPT.fss")
    eval_cmd.add_argument("--bind", action="append", default=[], metavar="NAME=FILE.fss",
                          help="bind a free script identifier to a file (repeatable)")
    return parser


def _resolve_candidate(args, arity: int) -> ScalarConnective:
    if args.builtin is not None:
        return resolve_builtin(args.builtin, arity)
    return scalar_from_expression(args.expr, arity=arity)


def _split_family_items(entries: Sequence[str]) -> list[tuple[str, str]]:
    """Split LABEL=EXPR items, honoring commas inside parentheses; a tag
    may be named once across all items, as ``a*b`` or as ``b*a``."""
    items: dict[ParamTag | str, tuple[str, str]] = {}  # by tag, or by text if no tag
    for entry in entries:
        depth, start, parts = 0, 0, []
        for i, ch in enumerate(entry):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 0:
                parts.append(entry[start:i])
                start = i + 1
        parts.append(entry[start:])
        for part in parts:
            part = part.strip()
            if not part:
                continue
            label, sep, text = part.partition("=")
            label = label.strip()
            if not sep or not label or not text.strip():
                raise ValueError(f"bad --family item {part!r}, expected LABEL=EXPR")
            try:
                key = ParamTag.parse(label)
            except ValidationError:
                key = label  # lift_negation reports it
            if key in items:
                first = items[key][0]
                if first == label:
                    raise ValueError(f"--family label {label!r} is given twice")
                raise ValueError(f"--family labels {first!r} and {label!r} are the same "
                                 f"canonical tag {key.text!r}")
            items[key] = (label, text.strip())
    return list(items.values())


# --- report rendering -------------------------------------------------------

def _print_axiom_report(report: AxiomReport) -> None:
    cfg = report.config
    print(f"check: {report.kind} axioms")
    print(f"candidate: {report.candidate}")
    print(
        f"grid steps: {cfg.grid_steps}   samples: {cfg.random_samples}   "
        f"tolerance: {cfg.tolerance:g}   seed: {cfg.seed}"
    )
    for check in report.checks:
        label = f"({check.label})" if check.label != "codomain" else check.label
        where = f" [{check.param}]" if check.param is not None else ""
        head = f"  {label}{where} {check.description}"
        if check.passed:
            print(f"{head}: pass ({check.points} points)")
        else:
            w = check.witness
            args = ", ".join(_sig(a) for a in w.args)
            want = "" if w.want is None else f", want {w.relation} {_sig(w.want)}"
            print(f"{head}: FAIL at ({args}): got {_sig(w.got)}{want}")
    print(f"verdict: {'PASS' if report.passed else 'FAIL'}")


def _print_classification(report: ClassificationReport) -> None:
    print(f"classify: {report.candidate}")
    print(f"grid steps: {report.grid_steps}   tolerance: {report.tolerance:g}")
    print(f"idempotents ({len(report.idempotents)}): "
          f"{' '.join(_sig(v) for v in report.idempotents)}")
    print(f"nilpotents ({len(report.nilpotents)}): "
          f"{' '.join(_sig(v) for v in report.nilpotents)}")
    print(f"zero divisors ({len(report.zero_divisors)}):")
    for z in report.zero_divisors:
        print(f"  {_sig(z.value)} (witness {_sig(z.witness)})")
    confirmed = report.confirmed_nilpotent_zero_divisors
    print(f"non-zero nilpotents confirmed as zero divisors: "
          f"{' '.join(_sig(v) for v in confirmed) if confirmed else 'none'}")


def _print_equilibria(result: EquilibriumResult) -> None:
    print(f"equilibrium search (tolerance {result.tolerance:g})")
    for entry in result.entries:
        if entry.value is None:
            print(f"  {entry.label}: none ({entry.note})")
        elif entry.is_equilibrium:
            print(f"  {entry.label}: {_sig(entry.value)} "
                  f"(residual {_sig(entry.residual)})")
        else:
            print(f"  {entry.label}: no equilibrium; best candidate {_sig(entry.value)} "
                  f"(residual {_sig(entry.residual)})")
    print(f"equilibria found: {result.count} of {len(result.entries)} labels")


def _print_report(report: AxiomReport | ClassificationReport, fmt: str, print_text) -> None:
    """The report as sorted, indented JSON for ``--format json``, else as text."""
    if fmt == "json":
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print_text(report)


# --- subcommand handlers -----------------------------------------------------

def _cmd_check(args) -> int:
    cfg = CheckConfig(grid_steps=args.grid, random_samples=args.samples,
                      tolerance=args.tol, seed=args.seed)
    candidate = _resolve_candidate(args, arity=1 if args.kind == "negation" else 2)
    report = _CHECKERS[args.kind](candidate, cfg=cfg)
    _print_report(report, args.format, _print_axiom_report)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_classify(args) -> int:
    cfg = CheckConfig(grid_steps=args.grid, tolerance=args.tol)
    candidate = _resolve_candidate(args, arity=2)
    report = classify_elements(candidate, cfg=cfg)
    _print_report(report, args.format, _print_classification)
    found = {"zero-divisors": report.zero_divisors,
             "nonzero-nilpotents": report.nonzero_nilpotents}
    return EXIT_VIOLATION if any(found[name] for name in args.expect_none) else EXIT_OK


def _cmd_equilibrium(args) -> int:
    labels = tuple(p.strip() for p in args.params.split(",") if p.strip())
    if not labels:
        raise ValueError("--params needs at least one label")
    cfg = CheckConfig(tolerance=args.tol)
    if args.family:
        negation = {label: resolve_connective(text, arity=1)
                    for label, text in _split_family_items(args.family)}
    else:
        negation = _resolve_candidate(args, arity=1)
    result = find_equilibria(negation, labels, cfg=cfg)
    _print_equilibria(result)
    return EXIT_OK


def _cmd_apply(args) -> int:
    if args.op == "connective" and not args.conn:
        raise ValueError("--op connective needs --conn NAME-or-EXPR")
    if args.op != "connective" and args.conn:
        raise ValueError(f"--conn only applies with --op connective, not --op {args.op}")
    left = load_fss(args.left)
    right = left if args.right == args.left else load_fss(args.right)
    conn = args.conn if args.op == "connective" else SET_OPERATIONS[args.op]
    result = apply_connective(resolve_connective(conn, arity=2), left, right)
    save_fss(result, args.output)
    print(f"wrote {args.output} ({len(result)} tags)")
    return EXIT_OK


def _cmd_dual(args) -> int:
    scalar = _resolve_candidate(args, arity=2)
    dual = dual_of(scalar)
    n = args.table
    if n < 2:
        raise ValueError(f"--table needs at least 2 points, got {n}")
    if n > MAX_TABLE:
        raise ValueError(f"--table {n} is larger than MAX_TABLE = {MAX_TABLE}")
    g = grid_points(n - 1)
    # Blocks of rows keep each expression temporary to one cube tile, and
    # assignment broadcasts a constant body.  All run before any print.
    table = np.empty((n, n))
    rows = max(1, CUBE_TILE_POINTS // n)
    for i in range(0, n, rows):
        table[i:i + rows] = dual(g[i:i + rows, None], g[None, :])
    grid = g.tolist()
    print(f"dual of {scalar.name}: {dual.name} (kind: {dual.kind})")
    print("        " + "".join(f"y={gy:<8.4g}" for gy in grid))
    for gx, row in zip(grid, table):
        print(f"x={gx:<6.4g}" + "".join(f"{v:<10.6g}" for v in row.tolist()))
    return EXIT_OK


def _cmd_eval(args) -> int:
    binds = {}
    for item in args.bind:
        name, sep, path = (part.strip() for part in item.partition("="))
        if not sep or not name:
            raise ValueError(f"bad --bind item {item!r}, expected NAME=FILE.fss")
        if name in binds:
            raise ValueError(f"--bind name {name!r} is given twice")
        binds[name] = path
    try:
        with open(args.script, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise DocumentError(f"cannot read script {args.script}: {err}") from None
    script = parse_script(source, externals=binds.keys())
    # A path named by more than one name is read once, as in ``apply``.
    loaded = {path: load_fss(path) for path in dict.fromkeys(binds.values())}
    env = {name: loaded[path] for name, path in binds.items()}
    result = eval_script(script, env)
    for text in result.printed:
        print(text)
    for path in result.saved:
        print(f"saved {path}")
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "equilibrium": _cmd_equilibrium,
    "apply": _cmd_apply,
    "dual": _cmd_dual,
    "eval": _cmd_eval,
}


class _Escaping:
    """Writes to ``stream`` what it takes as it is, and what it cannot encode
    (a lone surrogate in a path, a label past an ASCII stream) escaped, as
    a process's own stderr escapes it, so that no stream refuses a line."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except UnicodeEncodeError:
            encoding = getattr(self.stream, "encoding", None) or "utf-8"
            return self.stream.write(text.encode(encoding, "backslashreplace").decode(encoding))


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Run one invocation; returns the exit code, never raises."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # A stream whose descriptor was closed at start-up is None; print is left to handle it.
    try:
        with redirect_stdout(sys.stdout and _Escaping(sys.stdout)):
            return _HANDLERS[args.command](args)
    except (ParseError, UnknownBuiltinError, ArityError, ValueError) as err:
        # ValueError: CheckConfig and table/flag validation.
        code, message = EXIT_USAGE, f"error: {err}"
    except (FuzzySoftError, OSError) as err:
        code, message = EXIT_DATA, f"error: {err}"
    print(message, file=sys.stderr and _Escaping(sys.stderr))
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
