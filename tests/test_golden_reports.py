"""Byte-for-byte golden outputs of ``check`` and ``classify`` in JSON form.

Each case stores the exit code, stdout and stderr of one ``run_cli`` call,
so any change to witnesses, point counts, sampled points, evaluation-error
locations or report layout shows up as a diff.  Regenerate the stored file
only when a report change is intended:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fuzzysoft import CheckConfig, check_negation_axioms, lift_negation
from fuzzysoft.cli import run_cli
from fuzzysoft.connectives import builtin, scalar_from_expression

GOLDEN = Path(__file__).with_name("golden_reports.json")

BINARY_BUILTINS = (
    "product", "minimum", "lukasiewicz", "maximum", "probsum", "boundedsum",
    "lukasiewicz-implication", "godel-implication", "kleene-dienes-implication",
)
UNARY_BUILTINS = ("standard-negation", "sugeno(1)", "sugeno(0.5)", "sugeno(-0.5)")
BINARY_KINDS = ("tnorm", "tconorm", "implication")

# Negative controls and passing expressions from tests/test_analysis.py,
# plus one candidate that fails to evaluate.
BINARY_EXPRS = ("x*y/2", "x*y*y", "(1-x)*(1-y)", "x*y*2", "min(x,y)", "x+y-x*y",
                "x*y", "x/y")
UNARY_EXPRS = ("1-x*x", "1-x", "1/x", "0-1-x")
SMALL = ("--grid", "16", "--samples", "200", "--seed", "5")


def _cases() -> list[list[str]]:
    cases = []
    for name in BINARY_BUILTINS:
        for kind in BINARY_KINDS:
            cases.append(["check", "--kind", kind, "--builtin", name])
        cases.append(["classify", "--builtin", name])
    for name in UNARY_BUILTINS:
        cases.append(["check", "--kind", "negation", "--builtin", name])
    for text in BINARY_EXPRS:
        for kind in BINARY_KINDS:
            cases.append(["check", "--kind", kind, "--expr", text, *SMALL])
        cases.append(["classify", "--expr", text, "--grid", "10"])
    for text in UNARY_EXPRS:
        cases.append(["check", "--kind", "negation", "--expr", text, *SMALL])
    cases += [
        ["check", "--kind", "tnorm", "--builtin", "minimum", "--grid", "8", "--samples", "0"],
        ["check", "--kind", "implication", "--expr", "x*y/2", "--grid", "8",
         "--samples", "0"],
        ["check", "--kind", "negation", "--expr", "1-x*x", "--grid", "8", "--samples", "0"],
        # 181 grid points: the associativity cube is walked in 181 one-plane tiles.
        ["check", "--kind", "tnorm", "--expr", "x*y*y", "--grid", "180",
         "--samples", "2000", "--seed", "1"],
        ["check", "--kind", "implication", "--expr", "x*y", "--grid", "33",
         "--samples", "500", "--seed", "7", "--tol", "0.000001"],
    ]
    return [case + ["--format", "json"] for case in cases]


def _family_report() -> str:
    family = lift_negation(
        {"ok": builtin("standard-negation"), "bad": scalar_from_expression("1-x*x", arity=1)}
    )
    report = check_negation_axioms(family, cfg=CheckConfig(grid_steps=16, random_samples=200,
                                                           seed=5))
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _outputs() -> dict:
    outputs = {" ".join(argv): _run(argv) for argv in _cases()}
    outputs["library: negation family ok/bad"] = {"code": None, "stdout": _family_report(),
                                                  "stderr": ""}
    return outputs


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_case_list_is_current(golden):
    assert set(golden) == {" ".join(argv) for argv in _cases()} | {
        "library: negation family ok/bad"}


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_report_bytes(golden, argv):
    assert _run(argv) == golden[" ".join(argv)]


def test_family_report_bytes(golden):
    assert _family_report() == golden["library: negation family ok/bad"]["stdout"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_outputs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
