"""Byte-for-byte golden outputs of ``apply`` and ``eval`` on small set files.

Each case stores the exit code, stdout, stderr and the bytes of the file
the run wrote (``None`` when it wrote none) for one ``run_cli`` call made
in a scratch directory holding the demo inputs and a few fault inputs, so
any change to result values, tag order, document layout, error messages
or fault precedence shows up as a diff.  Regenerate the stored file only
when an output change is intended:

    PYTHONPATH=src python tests/test_golden_sets.py
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from fuzzysoft.cli import run_cli

GOLDEN = Path(__file__).with_name("golden_sets.json")
DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

# Fault inputs next to the demo files: a universe the demos do not use, and
# an all-zero approximation (a zero divisor under x/y, -0.0 under -x*y).
# Two label sets over that universe: labels a document key must escape
# (a quote, a backslash, control, non-ASCII and astral characters), labels
# below "*" that sort by label tuple, not by text ("a" before "a b" and
# "a!"), and a tag with a repeated label.
EXTRA_INPUTS = {
    "other.fss": {"universe": ["h1", "h2"], "parameters": {"old": {"h1": 0.5, "h2": 0.5}}},
    "zero.fss": {"universe": ["h1", "h2", "h3"],
                 "parameters": {"none": {"h1": 0.0, "h2": 0.0, "h3": 0.0}}},
    "marks.fss": {"universe": ["h1", "h2"], "parameters": {
        "a": {"h1": 0.25, "h2": 0.5}, "a b": {"h1": 0.75, "h2": 0.125},
        "a!": {"h1": 1, "h2": 0.3}, "b*a": {"h1": 0.6, "h2": 0.0},
        'q"t': {"h1": 0.1, "h2": 0.9}, "back\\slash": {"h1": 0.2, "h2": 0.7},
        "tab\tline\n": {"h1": 0.4, "h2": 0.45}, "\u00e9t\u00e9": {"h1": 0.55, "h2": 0.35},
        "\U0001f600": {"h1": 0.8, "h2": 0.05}, "b*a*a": {"h1": 0.15, "h2": 0.65}}},
    "more.fss": {"universe": ["h1", "h2"], "parameters": {
        "a": {"h1": 0.5, "h2": 0.5}, "z*a b": {"h1": 0.9, "h2": 0.2},
        "~": {"h1": 0.3, "h2": 1}, "Z": {"h1": 0.0, "h2": 0.85}}},
}
# A script over a loaded set whose keys arrive out of canonical order
# ("b*a", "b*a*a"): the set itself, its complement, and the complement of
# an apply result, each printed and the two complements saved.
EXTRA_SCRIPTS = {
    "negate.fss": ("print S;\n"
                   "print complement(S);\n"
                   "H = union(S, G);\n"
                   "print complement(H);\n"
                   'save(complement(S), "out.fss");\n'
                   'save(complement(H), "product.fss");\n'),
}
OUTPUTS = ("out.fss", "product.fss")


def _apply(*args: str, left: str = "quality.fss", right: str = "price.fss") -> list[str]:
    return ["apply", *args, left, right, "-o", "out.fss"]


CASES = [
    _apply("--op", "union"),
    _apply("--op", "intersect"),
    _apply("--op", "connective", "--conn", "product"),
    _apply("--op", "connective", "--conn", "lukasiewicz-implication"),
    _apply("--op", "connective", "--conn", "x*y"),
    _apply("--op", "connective", "--conn", "max(x, y) - x*y/3"),
    # A applied to itself: both orders of a tag pair merge on one canonical tag.
    _apply("--op", "connective", "--conn", "maximum", right="quality.fss"),
    _apply("--op", "union", right="quality.fss"),
    _apply("--op", "connective", "--conn=-x*y", left="zero.fss"),
    # single-fault inputs
    _apply("--op", "connective", "--conn", "x*y+1"),
    _apply("--op", "connective", "--conn", "lukasiewicz-implication", right="quality.fss"),
    _apply("--op", "union", right="other.fss"),
    _apply("--op", "connective", "--conn", "x/y", right="zero.fss"),
    ["eval", "combine.fss", "--bind", "S=quality.fss", "--bind", "G=price.fss"],
    # escaped labels, labels below "*", repeated labels and mixed label counts
    _apply("--op", "union", left="marks.fss", right="marks.fss"),
    _apply("--op", "connective", "--conn", "x*y", left="marks.fss", right="more.fss"),
    _apply("--op", "connective", "--conn", "lukasiewicz-implication",
           left="marks.fss", right="marks.fss"),
    _apply("--op", "connective", "--conn", "x*y+1", left="more.fss", right="marks.fss"),
    ["eval", "combine.fss", "--bind", "S=marks.fss", "--bind", "G=more.fss"],
    ["eval", "negate.fss", "--bind", "S=marks.fss", "--bind", "G=more.fss"],
]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    written = {}
    for name in OUTPUTS:
        path = Path(name)
        if path.exists():
            written[name] = path.read_text(encoding="utf-8")
            path.unlink()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "written": written or None}


@contextlib.contextmanager
def _inputs_dir():
    """Enter a scratch directory holding every input file the cases name."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name in ("quality.fss", "price.fss", "combine.fss"):
            shutil.copy(DATA / name, Path(scratch) / name)
        for name, doc in EXTRA_INPUTS.items():
            (Path(scratch) / name).write_text(json.dumps(doc), encoding="utf-8")
        for name, text in EXTRA_SCRIPTS.items():
            (Path(scratch) / name).write_text(text, encoding="utf-8")
        os.chdir(scratch)
        try:
            yield
        finally:
            os.chdir(previous)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture()
def inputs():
    with _inputs_dir():
        yield


def test_golden_case_list_is_current(golden):
    assert set(golden) == {" ".join(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_set_output_bytes(golden, inputs, argv):
    assert _run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    with _inputs_dir():
        outputs = {" ".join(argv): _run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
