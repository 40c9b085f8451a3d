"""Seeded workloads for the fuzzysoft benchmark and their output oracles.

Each workload is one ``fuzzysoft`` command line plus the documents it
reads.  Inputs come from ``numpy.random.default_rng(seed)`` only, so the
same seed gives the same files.  The oracles recompute every expected
output with plain numpy and Python arithmetic; nothing here imports
``fuzzysoft``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                       # "apply" or "check"
    # apply: labels in A and B (right == 0 applies A to itself), universe size
    left: int = 0
    right: int = 0
    universe: int = 0
    conn: str | None = None            # None means --op union
    kernel: Callable | None = None     # numpy reference of the pointwise op
    # check: t-norm candidate, grid steps, samples per axiom
    expr: str = ""
    grid: int = 0
    samples: int = 0
    fresh: Callable | None = None      # plain-Python rebuild of the candidate
    expect_exit: int = 0
    expect_failed: frozenset = frozenset()


# Sizes keep one repeat's run_cli near 0.2-0.4 s.  On a shared machine the
# fastest of many short repeats is far steadier than that of a few long
# ones: a burst of load rarely spares a whole second, often a few tenths.
WORKLOADS = {
    w.name: w for w in (
        # Per-pair work dominates: 6,400 pairs of 8-element vectors, so tag
        # construction, per-tag objects and per-tag JSON outweigh the kernel.
        Workload(
            name="apply-wide",
            why="80x80 distinct labels over U=8: per-pair tag, object and JSON work dominate, "
                "the kernel is almost nothing",
            command="apply", left=80, right=80, universe=8,
            kernel=np.maximum,
        ),
        # Per-value work dominates: 100 pairs of 2000-element vectors, so
        # document validation (with its O(U^2) duplicate scan), clamping and
        # JSON dominate.  A is applied to itself, which takes the
        # commutative-collision merge path (45 of the 100 pairs) that
        # apply-wide never reaches, and the expression kernel runs on long
        # vectors.
        Workload(
            name="apply-deep",
            why="one 10-label document applied to itself over U=2000 with an expression: per-value "
                "validation, clamping and JSON, plus 45 collision merges",
            command="apply", left=10, right=0, universe=2000,
            conn="max(x + y - 1, 0)",
            kernel=lambda x, y: np.maximum(x + y - 1.0, 0.0),
        ),
        # The verifier on a true t-norm: the associativity cube (257^3
        # triples) and candidate evaluation dominate; sets and fileio idle.
        Workload(
            name="check-pass",
            why="Lukasiewicz t-norm passes at grid 256: the associativity cube and expression "
                "evaluation dominate, sets and fileio are untouched",
            command="check", expr="max(x + y - 1, 0)", grid=256, samples=20000,
            expect_exit=0,
        ),
        # The same engine on a failing candidate: gathering violating rows
        # and selecting lex-min witnesses dominate time and peak memory, a
        # path check-pass never reaches.
        Workload(
            name="check-fail",
            why="non-commutative x*y*y fails three axioms at grid 100: violation gathering and "
                "witness selection dominate time and memory",
            command="check", expr="x*y*y", grid=100, samples=20000,
            fresh=lambda x, y: x * y * y,
            expect_exit=1, expect_failed=frozenset({"i", "iii", "iv"}),
        ),
    )
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def make_case(workload: Workload, seed: int, workdir: Path):
    """Write the inputs for ``workload`` under ``workdir`` and return its case."""
    if workload.command == "apply":
        return ApplyCase(workload, seed, workdir)
    return CheckCase(workload, seed)


def _document(labels, universe, matrix) -> dict:
    return {
        "universe": universe,
        "parameters": {
            label: dict(zip(universe, row)) for label, row in zip(labels, matrix.tolist())
        },
    }


def _dump(document: dict) -> bytes:
    # Same layout as fileio.save_fss: two-space indent, trailing newline.
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


class ApplyCase:
    """``apply`` on generated documents; the oracle is the expected output bytes."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        universe = [f"u{k:04d}" for k in range(workload.universe)]
        # random() draws multiples of 2**-53: exact through JSON and under 1 - m.
        a = rng.random((workload.left, workload.universe))
        a_labels = [f"a{i:03d}" for i in range(workload.left)]
        path_a = workdir / "A.fss"
        path_a.write_bytes(_dump(_document(a_labels, universe, a)))
        if workload.right:
            b = rng.random((workload.right, workload.universe))
            b_labels = [f"b{j:03d}" for j in range(workload.right)]
            path_b = workdir / "B.fss"
            path_b.write_bytes(_dump(_document(b_labels, universe, b)))
        else:
            b, b_labels, path_b = a, a_labels, path_a
        self.output = workdir / "out.fss"
        op = ["--op", "connective", "--conn", workload.conn] if workload.conn else ["--op", "union"]
        self.argv = ["apply", *op, str(path_a), str(path_b), "-o", str(self.output)]
        self.expect_exit = 0
        self.items = len(a_labels) * len(b_labels) * len(universe)
        self.expected = expected_apply_output(universe, a_labels, a, b_labels, b, workload.kernel)

    def verify(self, code: int, stdout: bytes) -> tuple[str | None, str]:
        """Return (failure reason or None, digest of the written document)."""
        if code != self.expect_exit:
            return f"exit code {code}, expected {self.expect_exit}", ""
        try:
            written = self.output.read_bytes()
            self.output.unlink()  # the next repeat must write its own
        except OSError as err:
            return f"no output document: {err}", ""
        got = digest(written)
        if written != self.expected:
            at = next((i for i, (p, q) in enumerate(zip(written, self.expected)) if p != q),
                      min(len(written), len(self.expected)))
            return f"output differs from the reference at byte {at}", got
        return None, got


def expected_apply_output(universe, a_labels, a, b_labels, b, kernel) -> bytes:
    """Reference output of ``apply``: one vector per canonical tag, tags sorted."""
    vectors: dict[tuple[str, ...], list[float]] = {}
    for i, la in enumerate(a_labels):
        rows = kernel(a[i][None, :], b).tolist()
        for lb, row in zip(b_labels, rows):
            key = tuple(sorted((la, lb)))
            previous = vectors.setdefault(key, row)
            if previous != row:
                raise ValueError(f"reference collision on {key} with different vectors")
    parameters = {
        "*".join(key): dict(zip(universe, vectors[key])) for key in sorted(vectors)
    }
    return _dump({"universe": universe, "parameters": parameters})


def tnorm_points(grid: int, samples: int) -> int:
    """Points a t-norm check examines: codomain, (i), (ii), (iii) on the
    grid plus samples, (iv) on the grid cube plus samples, (v) on adjacent
    grid pairs along both axes plus samples."""
    n, m = grid + 1, samples
    return (n * n + m) * 2 + (n + m) * 2 + (n ** 3 + m) + (2 * n * (n - 1) + m)


class CheckCase:
    """``check --kind tnorm`` of an expression; the oracle reads the JSON report."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.argv = ["check", "--kind", "tnorm", "--expr", workload.expr,
                     "--grid", str(workload.grid), "--samples", str(workload.samples),
                     "--format", "json", "--seed", str(seed)]
        self.expect_exit = workload.expect_exit
        self.items = tnorm_points(workload.grid, workload.samples)
        self._verdicts: dict[bytes, str | None] = {}

    def verify(self, code: int, stdout: bytes) -> tuple[str | None, str]:
        if code != self.expect_exit:
            return f"exit code {code}, expected {self.expect_exit}", digest(stdout)
        if stdout not in self._verdicts:
            self._verdicts[stdout] = self._verify_report(stdout)
        return self._verdicts[stdout], digest(stdout)

    def _verify_report(self, stdout: bytes) -> str | None:
        w = self.workload
        try:
            report = json.loads(stdout)
        except ValueError as err:
            return f"report is not JSON: {err}"
        if report.get("kind") != "tnorm":
            return f"report kind {report.get('kind')!r}"
        points = sum(check["points"] for check in report["checks"])
        if points != self.items:
            return f"report checked {points} points, expected {self.items}"
        failed = {check["label"] for check in report["checks"] if not check["passed"]}
        if report["passed"] != (not failed) or failed != w.expect_failed:
            return f"failed axioms {sorted(failed)}, expected {sorted(w.expect_failed)}"
        tol = report["config"]["tolerance"]
        for check in report["checks"]:
            if not check["passed"]:
                problem = witness_problem(w.fresh, check, tol)
                if problem:
                    return f"axiom {check['label']}: {problem}"
        return None


# relation each t-norm axiom states, and how to recompute its two sides
_TNORM_AXIOMS = {
    "codomain": ("in [0, 1]", lambda f, x, y: (f(x, y), None)),
    "i": ("==", lambda f, one, y: (f(one, y), y) if one == 1.0 else None),
    "ii": ("==", lambda f, x, one: (f(x, one), x) if one == 1.0 else None),
    "iii": ("==", lambda f, x, y: (f(x, y), f(y, x))),
    "iv": ("==", lambda f, x, y, z: (f(x, f(y, z)), f(f(x, y), z))),
    "v": ("<=", lambda f, x1, y1, x2, y2:
          (f(x1, y1), f(x2, y2)) if x1 <= x2 and y1 <= y2 else None),
}


def witness_problem(fresh: Callable, check: dict, tol: float) -> str | None:
    """Re-evaluate a reported witness with ``fresh``; None if it is a real
    violation beyond ``tol`` whose sides match the report exactly."""
    witness = check["witness"]
    if witness is None:
        return "failed without a witness"
    relation, sides = _TNORM_AXIOMS[check["label"]]
    if witness["relation"] != relation:
        return f"relation {witness['relation']!r}, expected {relation!r}"
    try:
        evaluated = sides(fresh, *witness["args"])
    except TypeError:
        return f"witness has {len(witness['args'])} arguments"
    if evaluated is None:
        return f"witness {witness['args']} is not a point this axiom quantifies over"
    got, want = evaluated
    if got != witness["got"] or want != witness["want"]:
        return f"re-evaluated to got={got!r} want={want!r}, report says {witness}"
    if relation == "==":
        violated = abs(got - want) > tol
    elif relation == "<=":
        violated = got > want + tol
    else:
        violated = not -tol <= got <= 1.0 + tol
    return None if violated else f"witness {witness['args']} does not violate the axiom"
