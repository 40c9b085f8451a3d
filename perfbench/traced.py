"""One traced repeat: run a ``fuzzysoft`` command line through the package's
public functions, with a span around each call into a layer.

Usage: python3 traced.py RUN_ID SPANS.json ARG...

ARG... is the command line the untraced repeat passes to ``run_cli``.  The
span ``cli.<command>`` covers the same work the CLI handler does; replays
that only exist to time one layer on their own (``fileio.to_document``,
``tags.combine``, ``expr.parse``) run after it, outside it.  Stdout, the
output file and the exit code match the CLI's, so the same oracle checks
them.  The candidate's kernel is timed by rebuilding it with the public
``ScalarConnective`` constructor around a timing wrapper; no fuzzysoft
module is patched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from fuzzysoft.analysis import CheckConfig, check_tnorm_axioms
from fuzzysoft.cli import build_parser
from fuzzysoft.connectives import (ScalarConnective, builtin, resolve_connective,
                                   scalar_from_expression)
from fuzzysoft.expr import parse_scalar
from fuzzysoft.fileio import document_to_fss, fss_to_document, save_fss
from fuzzysoft.sets import apply_connective
from fuzzysoft.tags import combine_tags

from spans import KERNEL_1D, KERNEL_BY_RANK, Tracer


def timed_candidate(candidate, tracer: Tracer):
    inner = candidate.fn

    def fn(*args):
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        start = perf_counter()
        out = inner(*args)
        tracer.add(KERNEL_BY_RANK.get(len(shape), KERNEL_1D), start, perf_counter())
        tracer.count("connectives.kernel_values", int(np.prod(shape)))
        return out

    return ScalarConnective(name=candidate.name, arity=candidate.arity, kind=candidate.kind,
                            continuity=candidate.continuity, fn=fn, expr=candidate.expr)


def load(path: str, tracer: Tracer):
    with tracer.span("fileio.read"):
        text = Path(path).read_text(encoding="utf-8")
    with tracer.span("fileio.decode"):
        doc = json.loads(text)
    with tracer.span("fileio.validate"):
        fss = document_to_fss(doc, source=path)
    tracer.count("fileio.bytes_in", len(text.encode("utf-8")))
    tracer.count("fileio.values_in", len(fss) * len(fss.universe))
    return fss


def run_apply(args, tracer: Tracer) -> int:
    with tracer.span("cli.apply"):
        left = load(args.left, tracer)
        right = load(args.right, tracer)
        if args.op == "connective":
            candidate = resolve_connective(args.conn, arity=2)
        else:
            candidate = builtin({"union": "maximum", "intersect": "minimum"}[args.op])
        with tracer.span("sets.apply"):
            result = apply_connective(timed_candidate(candidate, tracer), left, right)
        with tracer.span("fileio.save"):
            save_fss(result, args.output)
        print(f"wrote {args.output} ({len(result)} tags)")

    pairs = len(left) * len(right)
    tracer.count("sets.pairs", pairs)
    tracer.count("sets.result_tags", len(result))
    tracer.count("sets.collisions", pairs - len(result))
    tracer.count("sets.values", pairs * len(left.universe))
    tracer.count("fileio.bytes_out", Path(args.output).stat().st_size)
    with tracer.span("fileio.to_document"):
        fss_to_document(result)
    with tracer.span("tags.combine"):
        for tag_a in left.tags:
            for tag_b in right.tags:
                combine_tags(tag_a, tag_b)
    tracer.count("tags.combines", pairs)
    if candidate.expr is not None:
        with tracer.span("expr.parse"):
            parse_scalar(args.conn)
    return 0


def run_check(args, tracer: Tracer) -> int:
    if args.kind != "tnorm" or args.expr is None:
        raise SystemExit("traced check supports --kind tnorm --expr only")
    with tracer.span("cli.check"):
        cfg = CheckConfig(grid_steps=args.grid, random_samples=args.samples,
                          tolerance=args.tol, seed=args.seed)
        candidate = timed_candidate(scalar_from_expression(args.expr, arity=2), tracer)
        with tracer.span("analysis.check"):
            report = check_tnorm_axioms(candidate, cfg=cfg)
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))

    tracer.count("analysis.points", sum(check.points for check in report.checks))
    tracer.count("analysis.failed_axioms", len(report.failures()))
    with tracer.span("expr.parse"):
        parse_scalar(args.expr)
    return 0 if report.passed else 1


def main() -> int:
    run, out_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    args = build_parser().parse_args(argv)
    tracer = Tracer(run)
    code = {"apply": run_apply, "check": run_check}[args.command](args, tracer)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"root": f"cli.{args.command}", "spans": tracer.spans,
                   "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
