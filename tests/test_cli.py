import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fuzzysoft import (builtin, dual_of, load_fss, make_fuzzy_soft_set, save_fss,
                       scalar_from_expression, union_fss)
from fuzzysoft import ParamTag, apply_connective, cli, sets
from fuzzysoft import tags as tag_module
from fuzzysoft.analysis import CheckConfig
from fuzzysoft.cli import MAX_TABLE, build_parser, run_cli
from fuzzysoft.fileio import MAX_DOCUMENT_BYTES
from fuzzysoft.tags import combine_tags

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


@pytest.fixture
def files(tmp_path):
    a = make_fuzzy_soft_set(["u1", "u2"], {"a1": (0.3, 0.7)})
    b = make_fuzzy_soft_set(["u1", "u2"], {"b1": (0.5, 0.2)})
    w = make_fuzzy_soft_set(["w1"], {"c1": (0.5,)})
    paths = {}
    for name, value in (("a", a), ("b", b), ("w", w)):
        paths[name] = tmp_path / f"{name}.fss"
        save_fss(value, paths[name])
    return tmp_path, paths


def test_check_pass_exit_zero(capsys):
    code = run_cli(["check", "--kind", "tnorm", "--expr", "x*y",
                    "--grid", "16", "--samples", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: PASS" in out
    assert out.count("pass (") == 6


def test_check_failure_exit_one(capsys):
    code = run_cli(["check", "--kind", "tnorm", "--expr", "x+y-x*y",
                    "--grid", "16", "--samples", "100"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: FAIL" in out
    assert "FAIL at (1, 0)" in out


def test_check_parse_error_exit_two(capsys):
    code = run_cli(["check", "--kind", "tnorm", "--expr", "x+*y"])
    assert code == 2


def test_check_unknown_builtin_exit_two():
    assert run_cli(["check", "--kind", "tnorm", "--builtin", "einstein"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "--kind", "negation", "--builtin", "sugeno(inf)"],
    ["equilibrium", "--family", "a=sugeno(inf)", "--params", "a"],
    ["apply", "--op", "connective", "--conn", "sugeno(1e400)", "a.fss", "b.fss", "-o", "o.fss"],
    ["dual", "--builtin", "sugeno(inf)"],
])
def test_non_finite_sugeno_parameter_exit_two(files, monkeypatch, capsys, argv):
    monkeypatch.chdir(files[0])
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert not (files[0] / "o.fss").exists()


_HUGE = "1" + "0" * 320  # past the largest float


@pytest.mark.parametrize("argv", [
    ["check", "--kind", "tnorm", "--expr", f"x*{_HUGE}"],
    ["dual", "--expr", f"x+{_HUGE}"],
    ["apply", "--op", "connective", "--conn", f"x*{_HUGE}", "a.fss", "b.fss", "-o", "o.fss"],
    ["eval", "huge.fss", "--bind", "A=a.fss"],
])
def test_overflowing_number_literal_exit_two(files, monkeypatch, capsys, argv):
    monkeypatch.chdir(files[0])
    (files[0] / "huge.fss").write_text(f"print apply(fn(x, y) => x * {_HUGE}, A, A);\n")
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and line.endswith("number too large for a float")
    assert not (files[0] / "o.fss").exists()


def test_negative_seed_is_a_usage_error_that_names_it(capsys):
    assert run_cli(["check", "--kind", "tnorm", "--builtin", "product", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: seed must be >= 0, got -1\n")


def test_main_exits_with_the_code_of_run_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fuzzysoft", "check", "--kind", "tnorm",
                                      "--builtin", "minimum", "--grid", "8", "--samples", "50"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_the_module_run_as_a_script_calls_main(monkeypatch, capsys):
    # Unimported first, so runpy finds no module of that name already loaded
    # (a RuntimeWarning, which fails the suite).
    monkeypatch.setattr(sys, "argv", ["fuzzysoft", "check"])
    monkeypatch.delitem(sys.modules, "fuzzysoft.cli")
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("fuzzysoft.cli", run_name="__main__")
    assert exit_.value.code == 2
    assert "usage: fuzzysoft check" in capsys.readouterr().err


def test_check_usage_error_exit_two():
    assert run_cli(["check", "--kind", "tnorm"]) == 2
    assert run_cli(["check", "--kind", "nonsense", "--expr", "x*y"]) == 2
    assert run_cli([]) == 2


def test_check_negation_builtin(capsys):
    code = run_cli(["check", "--kind", "negation", "--builtin", "sugeno(1)",
                    "--grid", "16", "--samples", "100"])
    assert code == 0


def test_check_json_format_is_deterministic_and_complete(capsys):
    argv = ["check", "--kind", "tnorm", "--builtin", "probsum",
            "--grid", "16", "--samples", "50", "--seed", "9", "--format", "json"]
    assert run_cli(argv) == 1
    first = capsys.readouterr().out
    assert run_cli(argv) == 1
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["passed"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert failed and all(c["witness"] is not None for c in failed)
    # witnesses re-evaluate exactly from the JSON floats
    for check in failed:
        if check["label"] == "i":
            x, y = check["witness"]["args"]
            assert x + y - x * y == check["witness"]["got"]


def test_classify_text_output(capsys):
    code = run_cli(["classify", "--builtin", "lukasiewicz", "--grid", "10"])
    out = capsys.readouterr().out
    assert code == 0
    # values print with 17 significant digits so they re-evaluate exactly
    assert "0.80000000000000004 (witness 0.10000000000000001)" in out
    assert float("0.80000000000000004") == 0.8


def test_classify_expect_none_hits_exit_one(capsys):
    assert run_cli(["classify", "--builtin", "lukasiewicz", "--grid", "10",
                    "--expect-none", "zero-divisors"]) == 1
    assert run_cli(["classify", "--builtin", "product", "--grid", "10",
                    "--expect-none", "zero-divisors",
                    "--expect-none", "nonzero-nilpotents"]) == 0


def test_classify_json(capsys):
    assert run_cli(["classify", "--builtin", "minimum", "--grid", "4",
                    "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["idempotents"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert doc["zero_divisors"] == []


def test_equilibrium_builtin(capsys):
    code = run_cli(["equilibrium", "--builtin", "standard-negation",
                    "--params", "a1,a2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "equilibria found: 2 of 2" in out


def test_equilibrium_family_with_expression(capsys):
    code = run_cli(["equilibrium", "--family", "a1=1-x,a2=sugeno(1)",
                    "--params", "a1,a2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.41421356" in out


def test_equilibrium_family_with_parenthesized_commas(capsys):
    code = run_cli(["equilibrium", "--family", "a1=min(1,1-x),a2=1-x",
                    "--params", "a1,a2"])
    assert code == 0


@pytest.mark.parametrize("family", [["a=1-x,a=x"], ["a=1-x", "b=x*x,a=x"]])
def test_equilibrium_rejects_a_family_label_given_twice(capsys, family):
    argv = ["equilibrium", "--params", "a"]
    for item in family:
        argv += ["--family", item]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", "error: --family label 'a' is given twice\n")


@pytest.mark.parametrize("key", ["a*b", "b*a"])
@pytest.mark.parametrize("label", ["a*b", "b*a"])
def test_equilibrium_reads_family_keys_and_params_as_tags(capsys, key, label):
    assert run_cli(["equilibrium", "--family", f"{key}=sugeno(1)", "--params", label]) == 0
    out = capsys.readouterr().out
    assert f"  {label}: 0.414213562" in out and "equilibria found: 1 of 1 labels" in out


def test_equilibrium_counts_params_that_name_one_tag_once(capsys):
    assert run_cli(["equilibrium", "--family", "a*b=sugeno(1)", "--params", "b*a,a*b"]) == 0
    out = capsys.readouterr().out
    assert "  b*a: 0.414213562" in out and "  a*b:" not in out
    assert "equilibria found: 1 of 1 labels" in out


@pytest.mark.parametrize("family", [["a**b=1-x,a**b=x"], ["a*b=1-x", "a*b=x"]])
def test_equilibrium_rejects_a_literal_family_label_repeat_as_before(capsys, family):
    argv = ["equilibrium", "--params", "a"]
    for item in family:
        argv += ["--family", item]
    assert run_cli(argv) == 2
    label = family[-1].rpartition(",")[2].partition("=")[0]
    assert capsys.readouterr() == ("", f"error: --family label {label!r} is given twice\n")


def test_equilibrium_refuses_two_family_keys_that_name_one_tag(capsys):
    assert run_cli(["equilibrium", "--family", "a*b=1-x,b*a=sugeno(1)", "--params", "a*b"]) == 2
    assert capsys.readouterr() == ("", "error: --family labels 'a*b' and 'b*a' are the "
                                       "same canonical tag 'a*b'\n")


def test_equilibrium_skips_empty_family_parts(capsys):
    assert run_cli(["equilibrium", "--family", "a=1-x,,b=sugeno(1),", "--params", "a,b"]) == 0
    assert "equilibria found: 2 of 2 labels" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--family", "a"], "bad --family item 'a', expected LABEL=EXPR"),
    (["--builtin", "standard-negation", "--params", ","], "--params needs at least one label"),
])
def test_equilibrium_refuses_a_family_item_or_params_without_a_label(capsys, argv, message):
    assert run_cli(["equilibrium", "--params", "a", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


#: A step negation, 1 up to 0.5 and 0 past it, as the Goedel builtin writes
#: its step: fl(x - 0.5) > 0 times (10**308)**3 overflows to inf.
_STEP = "1 - min(1, max(x - 0.5, 0) * {e} * {e} * {e})".format(e="1" + "0" * 308)


@pytest.mark.parametrize("expr, line", [
    ("x - 1", "  a: none (no sign change of n(x) - x on [0, 1])"),
    (_STEP, "  a: no equilibrium; best candidate 0.50000000000045475 "
            "(residual 0.50000000000045475)"),
], ids=["no-sign-change", "step"])
def test_equilibrium_reports_a_label_without_a_fixed_point(capsys, expr, line):
    assert run_cli(["equilibrium", "--expr", expr, "--params", "a"]) == 0
    assert capsys.readouterr() == (f"equilibrium search (tolerance 1e-09)\n{line}\n"
                                   "equilibria found: 0 of 1 labels\n", "")


def test_equilibrium_resolves_candidates_like_check(capsys):
    # --expr is always an expression and --builtin always a builtin name.
    assert run_cli(["equilibrium", "--expr", "standard-negation", "--params", "a1"]) == 2
    assert "unknown identifier 'standard'" in capsys.readouterr().err
    assert run_cli(["equilibrium", "--builtin", "nonsense", "--params", "a1"]) == 2
    assert "unknown builtin 'nonsense'" in capsys.readouterr().err
    assert run_cli(["equilibrium", "--builtin", "product", "--params", "a1"]) == 2
    assert "has arity 2" in capsys.readouterr().err


def test_apply_union(files, capsys):
    tmp_path, paths = files
    out_path = tmp_path / "out.fss"
    code = run_cli(["apply", "--op", "union", str(paths["a"]), str(paths["b"]),
                    "-o", str(out_path)])
    assert code == 0
    result = load_fss(out_path)
    assert result["a1*b1"].memberships == (0.5, 0.7)


@pytest.mark.parametrize("operation, builtin_name", [("union", "maximum"),
                                                     ("intersect", "minimum")])
def test_apply_of_a_set_operation_writes_the_bytes_of_its_builtin(tmp_path, capsys, operation,
                                                                  builtin_name):
    outputs = []
    for op in (["--op", operation], ["--op", "connective", "--conn", builtin_name]):
        out_path = tmp_path / "out.fss"
        assert run_cli(["apply", *op, str(DEMO_DATA / "quality.fss"),
                        str(DEMO_DATA / "price.fss"), "-o", str(out_path)]) == 0
        outputs.append((capsys.readouterr(), out_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_eval_of_a_lifted_product_of_three_sets_merges_rounding_collisions(tmp_path, capsys):
    script = tmp_path / "cube.fss"
    script.write_text("H = apply(product, S, apply(product, S, S)); print H;")
    code = run_cli(["eval", str(script), "--bind", f"S={DEMO_DATA / 'quality.fss'}"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    tags = [line.partition(":")[0] for line in captured.out.splitlines()[1:]]
    assert tags == ["modern*modern*modern", "modern*modern*spacious",
                    "modern*spacious*spacious", "spacious*spacious*spacious"]


def test_apply_of_one_file_named_twice_reads_it_once(tmp_path, monkeypatch, capsys):
    source = DEMO_DATA / "quality.fss"
    copy = tmp_path / "copy.fss"
    copy.write_bytes(source.read_bytes())
    assert run_cli(["apply", "--op", "connective", "--conn", "product", str(source), str(copy),
                    "-o", str(tmp_path / "two.fss")]) == 0
    reads = []
    monkeypatch.setattr(cli, "load_fss", lambda path: reads.append(path) or load_fss(path))
    assert run_cli(["apply", "--op", "connective", "--conn", "product", str(source), str(source),
                    "-o", str(tmp_path / "one.fss")]) == 0
    assert reads == [str(source)]
    assert (tmp_path / "one.fss").read_bytes() == (tmp_path / "two.fss").read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_apply_of_a_named_pipe_given_twice_reads_it_once(tmp_path):
    fifo = tmp_path / "pipe.fss"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as handle:
            handle.write((DEMO_DATA / "quality.fss").read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from fuzzysoft.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))",
         "apply", "--op", "union", str(fifo), str(fifo), "-o", str(tmp_path / "out.fss")],
        env=_env_with_src(), capture_output=True, text=True, timeout=60)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (proc.returncode, proc.stderr) == (0, "")
    quality = load_fss(DEMO_DATA / "quality.fss")
    assert load_fss(tmp_path / "out.fss") == union_fss(quality, quality)


def test_apply_leaves_numpy_random_unimported(tmp_path):
    probe = ("import sys; from fuzzysoft.cli import run_cli; "
             "code = run_cli(sys.argv[1:]); print(code, 'numpy.random' in sys.modules)")
    quality = str(DEMO_DATA / "quality.fss")
    proc = subprocess.run(
        [sys.executable, "-c", probe, "apply", "--op", "union", quality, quality,
         "-o", str(tmp_path / "out.fss")],
        env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_apply_builds_no_tag_for_its_result(tmp_path, monkeypatch, capsys):
    # The operands load as label ranks, and an 80 x 80 product goes from
    # apply_connective to the saved file as label ranks: no tag is built.
    universe, keys = ["u1", "u2"], {}
    for name in "ab":
        # Keys out of order, of one and of two labels.
        keys[name] = [f"{name}{i:02d}" if i % 2 else f"{name}{i:02d}*{name}"
                      for i in range(79, -1, -1)]
        parameters = {key: {"u1": i / 80, "u2": 1 - i / 80} for i, key in enumerate(keys[name])}
        (tmp_path / f"{name}.fss").write_text(
            json.dumps({"universe": universe, "parameters": parameters}), encoding="utf-8")
    built = {"post_init": 0, "canonical_tags": 0}
    post_init, canonical_tags = ParamTag.__post_init__, tag_module.canonical_tags

    def counted_post_init(tag):
        built["post_init"] += 1
        post_init(tag)

    def counted_canonical_tags(label_tuples):
        built["canonical_tags"] += 1
        return canonical_tags(label_tuples)

    results = []
    monkeypatch.setattr(ParamTag, "__post_init__", counted_post_init)
    for module in (tag_module, sets):
        monkeypatch.setattr(module, "canonical_tags", counted_canonical_tags)
    monkeypatch.setattr(cli, "apply_connective",
                        lambda *args: results.append(apply_connective(*args)) or results[-1])
    assert run_cli(["apply", "--op", "union", str(tmp_path / "a.fss"), str(tmp_path / "b.fss"),
                    "-o", str(tmp_path / "out.fss")]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 'out.fss'} (6400 tags)\n"
    assert built == {"post_init": 0, "canonical_tags": 0}
    monkeypatch.undo()
    left, right = load_fss(tmp_path / "a.fss"), load_fss(tmp_path / "b.fss")
    for name, loaded in (("a", left), ("b", right)):
        assert "tags" not in vars(loaded)
        assert loaded.tags == tuple(sorted(map(ParamTag.parse, keys[name])))
    assert results[0].tags == tuple(sorted(combine_tags(a, b) for a in left.tags
                                           for b in right.tags))
    assert load_fss(tmp_path / "out.fss") == results[0]


def test_apply_universe_mismatch_exit_three(files, capsys):
    tmp_path, paths = files
    code = run_cli(["apply", "--op", "union", str(paths["a"]), str(paths["w"]),
                    "-o", str(tmp_path / "out.fss")])
    assert code == 3


def test_apply_missing_file_exit_three(files):
    tmp_path, paths = files
    code = run_cli(["apply", "--op", "union", str(tmp_path / "absent.fss"),
                    str(paths["b"]), "-o", str(tmp_path / "out.fss")])
    assert code == 3


def test_apply_connective_expression(files):
    tmp_path, paths = files
    out_path = tmp_path / "out.fss"
    code = run_cli(["apply", "--op", "connective", "--conn", "x*y",
                    str(paths["a"]), str(paths["b"]), "-o", str(out_path)])
    assert code == 0
    assert load_fss(out_path)["a1*b1"].memberships == (0.3 * 0.5, 0.7 * 0.2)


def test_apply_conn_flag_validation(files):
    tmp_path, paths = files
    assert run_cli(["apply", "--op", "connective", str(paths["a"]), str(paths["b"]),
                    "-o", str(tmp_path / "x.fss")]) == 2
    assert run_cli(["apply", "--op", "union", "--conn", "x*y", str(paths["a"]),
                    str(paths["b"]), "-o", str(tmp_path / "x.fss")]) == 2


def test_dual_table(capsys):
    code = run_cli(["dual", "--builtin", "product", "--table", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t-conorm" in out
    assert "0.75" in out  # dual(product)(0.5, 0.5) = probsum(0.5, 0.5)


@pytest.mark.parametrize("flag, text", [
    ("--builtin", "product"), ("--builtin", "godel-implication"),
    ("--expr", "pow(x, 2) * y"), ("--expr", "1"),
])
def test_dual_table_matches_one_scalar_call_per_cell(capsys, flag, text):
    # Each cell is the reference dual 1 - f(1 - x, 1 - y), evaluated apart
    # from dual_of.
    scalar = builtin(text) if flag == "--builtin" else scalar_from_expression(text)
    dual = dual_of(scalar)
    grid = [k / 6 for k in range(7)]
    expected = [f"dual of {scalar.name}: {dual.name} (kind: {dual.kind})",
                "        " + "".join(f"y={g:<8.4g}" for g in grid)]
    expected += [f"x={gx:<6.4g}" + "".join(f"{1.0 - scalar(1.0 - gx, 1.0 - gy):<10.6g}"
                                           for gy in grid)
                 for gx in grid]
    assert run_cli(["dual", flag, text, "--table", "7"]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_dual_table_of_a_raising_candidate_prints_no_rows(capsys):
    assert run_cli(["dual", "--expr", "x/(y-0.5)", "--table", "5"]) == 3
    assert capsys.readouterr() == ("", "error: 1:1: division by zero\n")


def test_dual_table_memory_is_the_table_plus_one_block(tmp_path):
    # The 1024 x 1024 table is 8 MiB.  Evaluated whole, each expression
    # node also held a temporary of the table's size (16.2 MiB peak).
    with open(tmp_path / "table.txt", "w") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = run_cli(["dual", "--expr", "pow(x, 2) * y", "--table", "1024"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak <= 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_dual_expression_and_table_validation(capsys):
    assert run_cli(["dual", "--expr", "min(x,y)", "--table", "2"]) == 0
    assert run_cli(["dual", "--expr", "min(x,y)", "--table", "1"]) == 2
    assert run_cli(["dual", "--builtin", "standard-negation"]) == 2  # unary


def test_check_remaining_kinds(capsys):
    assert run_cli(["check", "--kind", "tconorm", "--builtin", "boundedsum",
                    "--grid", "16", "--samples", "100"]) == 0
    assert run_cli(["check", "--kind", "implication", "--builtin", "godel-implication",
                    "--grid", "16", "--samples", "100"]) == 0
    assert run_cli(["check", "--kind", "negation", "--expr", "1-x*x",
                    "--grid", "16", "--samples", "100"]) == 1


def test_deeply_nested_expression_is_a_parse_error(capsys):
    for text in ("(" * 250 + "x*y" + ")" * 250, "+".join(["x*y"] * 2000)):
        assert run_cli(["check", "--kind", "tnorm", "--expr", text]) == 2
        assert "nests deeper than 100 levels" in capsys.readouterr().err


def test_expression_at_the_depth_limit_is_checked(capsys):
    text = "abs(" * 99 + "x*y" + ")" * 99
    assert run_cli(["check", "--kind", "tnorm", "--expr", text,
                    "--grid", "4", "--samples", "10"]) == 0
    assert run_cli(["check", "--kind", "tnorm", "--expr", "abs(" + text + ")"]) == 2


def test_bad_grid_config_is_usage_error(capsys):
    assert run_cli(["check", "--kind", "tnorm", "--expr", "x*y", "--grid", "1"]) == 2
    assert run_cli(["check", "--kind", "tnorm", "--expr", "x*y", "--tol", "0"]) == 2


@pytest.mark.parametrize("command", [
    ["check", "--kind", "tnorm", "--expr", "x + y", "--grid", "8", "--samples", "10"],
    ["classify", "--builtin", "product", "--grid", "8"],
    ["equilibrium", "--builtin", "standard-negation", "--params", "a"],
])
def test_an_infinite_tolerance_is_a_usage_error(capsys, command):
    # Every difference is within an infinite tolerance: x + y would pass.
    assert run_cli(command + ["--tol", "inf"]) == 2
    assert capsys.readouterr() == ("", "error: tolerance must be finite and > 0, got inf\n")


@pytest.mark.parametrize("tol", ["1", "2"])
@pytest.mark.parametrize("command", [
    ["check", "--kind", "tnorm", "--expr", "x + y", "--grid", "8", "--samples", "10"],
    ["classify", "--builtin", "product", "--grid", "8"],
    ["equilibrium", "--builtin", "standard-negation", "--params", "a"],
])
def test_a_tolerance_of_one_or_more_is_a_usage_error(capsys, command, tol):
    # Memberships lie in [0, 1]: within a tolerance of 1, x + y passed as a t-norm.
    assert run_cli(command + ["--tol", tol]) == 2
    assert capsys.readouterr() == (
        "", f"error: tolerance must be < 1, got {float(tol)}: memberships lie in [0, 1]\n")


def test_candidate_evaluation_error_exit_three(capsys):
    # division by zero at a grid point is a data-level failure, not usage
    assert run_cli(["check", "--kind", "tnorm", "--expr", "x/y",
                    "--grid", "8", "--samples", "0"]) == 3


def test_eval_script(files, capsys, monkeypatch):
    tmp_path, paths = files
    script = tmp_path / "combine.fss"
    script.write_text(
        'H = union(S, G);\nprint H;\nsave(H, "result.fss");\n'
    )
    monkeypatch.chdir(tmp_path)  # save paths resolve against the cwd
    code = run_cli(["eval", str(script),
                    "--bind", f"S={paths['a']}", "--bind", f"G={paths['b']}"])
    out = capsys.readouterr().out
    assert code == 0
    assert "a1*b1: 0.5 0.7" in out
    saved = load_fss(tmp_path / "result.fss")
    assert saved["a1*b1"].memberships == (0.5, 0.7)


def test_eval_script_parse_error_exit_two(files, tmp_path):
    script = tmp_path / "broken.fss"
    script.write_text("print Q;")
    assert run_cli(["eval", str(script)]) == 2


@pytest.mark.parametrize("connective, column", [("standard-negation", 11),
                                                 ("dual(sugeno(1))", 16)])
def test_eval_script_unary_connective_exit_two(files, capsys, connective, column):
    tmp_path, paths = files
    script = tmp_path / "unary.fss"
    script.write_text(f"print S;\nH = apply({connective}, S, G);\n")
    code = run_cli(["eval", str(script),
                    "--bind", f"S={paths['a']}", "--bind", f"G={paths['b']}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: 2:{column}: connective ")
    assert "has arity 1, but this use needs arity 2" in captured.err


def test_dual_table_is_bounded_like_a_check_grid(capsys):
    # MAX_TABLE refuses any table past 1024 points, before anything is
    # printed or evaluated.
    assert run_cli(["dual", "--builtin", "product", "--table", "4097"]) == 2
    assert capsys.readouterr() == ("", "error: --table 4097 is larger than MAX_TABLE = 1024\n")
    assert run_cli(["dual", "--expr", "x*y", "--table", str(10**9)]) == 2
    assert capsys.readouterr().out == ""


def test_eval_script_nested_apply_past_the_product_bound_exit_three(tmp_path, capsys):
    # The inner self-apply merges 20 x 20 pairs into 210 tags; the outer
    # apply would then need 210 * 20 * 4096 values, past MAX_ARRAY_VALUES.
    universe = [f"u{k}" for k in range(4096)]
    rows = np.random.default_rng(5).random((20, 4096))
    save_fss(make_fuzzy_soft_set(universe, {f"s{i:02d}": row for i, row in
                                            zip(range(20), rows.tolist())}),
             tmp_path / "s.fss")
    script = tmp_path / "nested.fss"
    script.write_text("print S;\nH = apply(maximum, apply(maximum, S, S), S);\nprint H;\n")
    code = run_cli(["eval", str(script), "--bind", f"S={tmp_path / 's.fss'}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("error: 2:1: the product of 210 by 20 tags over 4096 elements "
                            "needs 17203200 values, more than MAX_ARRAY_VALUES = 16777216\n")


def test_apply_past_the_pair_bound_exit_three(tmp_path, capsys):
    # 1000 x 1000 tags at U = 1 is only 10**6 values, far under
    # MAX_ARRAY_VALUES, but 10**6 tag pairs is past MAX_PAIRS.
    for side in ("a", "b"):
        save_fss(make_fuzzy_soft_set(["u"], {f"{side}{i:03d}": (i / 999,) for i in range(1000)}),
                 tmp_path / f"{side}.fss")
    code = run_cli(["apply", "--op", "union", str(tmp_path / "a.fss"), str(tmp_path / "b.fss"),
                    "-o", str(tmp_path / "out.fss")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("error: the product of 1000 by 1000 tags makes 1000000 tag pairs, "
                            "more than MAX_PAIRS = 262144\n")
    assert not (tmp_path / "out.fss").exists()


def test_document_past_the_byte_cap_exit_three(tmp_path, capsys):
    # Sparse files: the cap is checked on the size before anything is read,
    # so only the file at the cap is read (and fails to decode).
    for name, size in (("at.fss", MAX_DOCUMENT_BYTES), ("past.fss", MAX_DOCUMENT_BYTES + 1)):
        (tmp_path / name).touch()
        os.truncate(tmp_path / name, size)
    save_fss(make_fuzzy_soft_set(["u"], {"a": (0.5,)}), tmp_path / "small.fss")

    def error_line(left):
        code = run_cli(["apply", "--op", "union", str(tmp_path / left),
                        str(tmp_path / "small.fss"), "-o", str(tmp_path / "out.fss")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        return line

    assert error_line("past.fss") == (f"error: {tmp_path / 'past.fss'} is "
                                       f"{MAX_DOCUMENT_BYTES + 1} bytes, more than "
                                       f"MAX_DOCUMENT_BYTES = {MAX_DOCUMENT_BYTES}")
    assert error_line("at.fss").startswith(f"error: {tmp_path / 'at.fss'} is not valid JSON")
    assert not (tmp_path / "out.fss").exists()


def test_eval_refuses_a_bind_name_given_twice(tmp_path, monkeypatch, capsys):
    # combine.fss would save product.fss to the working directory.
    monkeypatch.chdir(tmp_path)
    argv = ["eval", str(DEMO_DATA / "combine.fss"), "--bind", f"S={DEMO_DATA / 'quality.fss'}",
            "--bind", f"G={DEMO_DATA / 'price.fss'}", "--bind", f" S ={DEMO_DATA / 'price.fss'}"]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", "error: --bind name 'S' is given twice\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, message", [
    ("product", "cannot shadow the builtin name 'product'"),
    ("print", "cannot shadow the builtin name 'print'"),
    ("a b", "external name 'a b' is not an identifier"),
])
def test_eval_refuses_a_bind_name_no_statement_could_use(tmp_path, name, message, capsys):
    script = tmp_path / "show.fss"
    script.write_text("print product;" if name == "product" else "print S;")
    argv = ["eval", str(script), "--bind", f"S={DEMO_DATA / 'quality.fss'}",
            "--bind", f"{name}={DEMO_DATA / 'price.fss'}"]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_eval_of_one_file_bound_twice_reads_it_once(tmp_path, monkeypatch, capsys):
    script = tmp_path / "both.fss"
    script.write_text("print union(S, G);")
    source = DEMO_DATA / "quality.fss"
    copy = tmp_path / "copy.fss"
    copy.write_bytes(source.read_bytes())
    assert run_cli(["eval", str(script), "--bind", f"S={source}", "--bind", f"G={copy}"]) == 0
    two = capsys.readouterr()
    reads = []
    monkeypatch.setattr(cli, "load_fss", lambda path: reads.append(path) or load_fss(path))
    assert run_cli(["eval", str(script), "--bind", f"S={source}", "--bind", f"G= {source}"]) == 0
    assert reads == [str(source)]
    assert capsys.readouterr() == two


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_eval_of_a_named_pipe_bound_twice_reads_it_once(tmp_path):
    fifo = tmp_path / "pipe.fss"
    os.mkfifo(fifo)
    script = tmp_path / "both.fss"
    script.write_text('save(union(S, G), "out.fss");')

    def feed():
        with open(fifo, "wb") as handle:
            handle.write((DEMO_DATA / "quality.fss").read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from fuzzysoft.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))",
         "eval", str(script), "--bind", f"S={fifo}", "--bind", f"G={fifo}"],
        cwd=tmp_path, env=_env_with_src(), capture_output=True, text=True, timeout=60)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (proc.returncode, proc.stderr) == (0, "")
    quality = load_fss(DEMO_DATA / "quality.fss")
    assert load_fss(tmp_path / "out.fss") == union_fss(quality, quality)


@pytest.mark.parametrize("doc, message", [
    ('{"universe": ["u"], "parameters": {"a*\\ud800": {"u": 0.5}}}',
     "bad parameter tag 'a*\\ud800': parameter label '\\ud800' is not valid Unicode text "
     "(it holds a lone surrogate) (at parameters.a*\\ud800)"),
    ('{"universe": ["u", "\\udc00"], "parameters": {"a": {"u": 0.5, "\\udc00": 0.1}}}',
     "universe element '\\udc00' is not valid Unicode text (it holds a lone surrogate) "
     "(at universe[1])"),
], ids=["label", "element"])
def test_a_lone_surrogate_in_a_document_is_a_data_error(tmp_path, doc, message):
    # Valid JSON, but no UTF-8 stdout can print the string it decodes to:
    # the load refuses it, where printing the set used to fail (exit 2).
    (tmp_path / "bad.fss").write_text(doc, encoding="ascii")
    (tmp_path / "show.fss").write_text("print S;")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from fuzzysoft.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))",
         "eval", "show.fss", "--bind", "S=bad.fss"],
        cwd=tmp_path, env={**_env_with_src(), "PYTHONIOENCODING": "utf-8"},
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")


def test_an_error_naming_a_lone_surrogate_reaches_a_strict_stderr(tmp_path, monkeypatch):
    # The key's JSON path holds the raw surrogate; it is written escaped,
    # as a process's own stderr writes it, so a strict stream takes it.
    (tmp_path / "bad.fss").write_text(
        '{"universe": ["u"], "parameters": {"a*\\ud800": {"u": 0.5}}}', encoding="ascii")
    (tmp_path / "show.fss").write_text("print S;")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert run_cli(["eval", "show.fss", "--bind", "S=bad.fss"]) == 3
    stderr.flush()
    assert stderr.buffer.getvalue() == (
        b"error: bad parameter tag 'a*\\ud800': parameter label '\\ud800' is not valid "
        b"Unicode text (it holds a lone surrogate) (at parameters.a*\\ud800)\n")


def _run_module(argv, cwd, **env) -> subprocess.CompletedProcess:
    """``python -m fuzzysoft.cli ARGV`` in ``cwd``, with its stdout as bytes
    and ``env`` over the environment (``PYTHONIOENCODING`` unset)."""
    base = {k: v for k, v in _env_with_src().items() if k != "PYTHONIOENCODING"}
    return subprocess.run([sys.executable, "-m", "fuzzysoft.cli", *argv], cwd=cwd,
                          env={**base, **env}, capture_output=True, timeout=120)


@pytest.mark.parametrize("env, line", [
    ({"PYTHONIOENCODING": "utf-8"}, b"wrote \\udcff.fss (3 tags)\n"),
    ({"PYTHONUTF8": "1"}, b"wrote \xff.fss (3 tags)\n"),
], ids=["strict", "utf8-mode"])
def test_an_output_path_stdout_cannot_encode_is_written_escaped(tmp_path, env, line):
    # The file is written, and its path is printed as the stream takes it:
    # escaped on a strict stream, its raw byte in UTF-8 mode.
    quality = str(DEMO_DATA / "quality.fss")
    proc = _run_module(["apply", "--op", "union", quality, quality, "-o", "\udcff.fss"],
                       tmp_path, **env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, line, b"")
    written = load_fss(tmp_path / "\udcff.fss")
    assert written == union_fss(*[load_fss(quality)] * 2)


@pytest.mark.parametrize("env, label", [
    ({"PYTHONIOENCODING": "ascii"}, b"\\xe9"), ({"PYTHONUTF8": "1"}, "\xe9".encode()),
], ids=["ascii", "utf8-mode"])
def test_a_label_stdout_cannot_encode_is_printed_escaped(tmp_path, env, label):
    proc = _run_module(["equilibrium", "--builtin", "standard-negation", "--params", "\xe9"],
                       tmp_path, **env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines() == [
        b"equilibrium search (tolerance 1e-09)",
        b"  " + label + b": 0.49999999999954525 (residual 9.0949470177292824e-13)",
        b"equilibria found: 1 of 1 labels"]


@pytest.mark.parametrize("argv, closed, code", [
    (["equilibrium", "--builtin", "standard-negation", "--params", "a"], ">&-", 0),
    (["apply", "--op", "union", "absent.fss", "absent.fss", "-o", "out.fss"], "2>&-", 3),
], ids=["stdout", "stderr"])
def test_a_stream_closed_at_start_up_fails_no_run(tmp_path, argv, closed, code):
    # Python starts with sys.stdout or sys.stderr None when its descriptor is closed.
    proc = subprocess.run(["sh", "-c", f'exec "$0" -m fuzzysoft.cli "$@" {closed}',
                           sys.executable, *argv], cwd=tmp_path, env=_env_with_src(),
                          capture_output=closed == ">&-", timeout=120)
    assert proc.returncode == code
    assert not proc.stderr


def test_eval_script_missing_bind_file_exit_three(tmp_path):
    script = tmp_path / "combine.fss"
    script.write_text("print S;")
    assert run_cli(["eval", str(script), "--bind", f"S={tmp_path}/absent.fss"]) == 3


def test_eval_script_not_utf8_exit_three(tmp_path, capsys):
    script = tmp_path / "combine.fss"
    script.write_bytes(b"print \xff;")
    assert run_cli(["eval", str(script)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot read script {script}: 'utf-8' codec can't decode")


def test_load_save_identity_randomized(tmp_path):
    rng = np.random.default_rng(99)
    for case in range(100):
        size = int(rng.integers(1, 9))
        universe = [f"u{i}" for i in range(size)]
        count = int(rng.integers(1, 5))
        s = make_fuzzy_soft_set(
            universe,
            {f"p{i}": tuple(rng.random(size)) for i in range(count)},
        )
        path = tmp_path / f"case{case}.fss"
        save_fss(s, path)
        assert load_fss(path) == s


def test_oversized_grid_or_samples_exit_two(capsys):
    # CheckConfig rejects the size before any array is made.
    assert run_cli(["check", "--kind", "tnorm", "--builtin", "product",
                    "--grid", "1000000000"]) == 2
    assert "grid_steps = 1000000000 needs a grid cube" in capsys.readouterr().err
    assert run_cli(["classify", "--builtin", "product", "--grid", "5000"]) == 2
    assert run_cli(["check", "--kind", "negation", "--builtin", "standard-negation",
                    "--samples", "100000000"]) == 2
    assert "random_samples" in capsys.readouterr().err


def test_apply_rejects_a_repeated_parameter_key_exit_three(files, capsys):
    tmp_path, paths = files
    repeated = tmp_path / "repeated.fss"
    repeated.write_text('{"universe": ["u1", "u2"], "parameters": '
                        '{"b1": {"u1": 0.5, "u2": 0.2}, "b1": {"u1": 0.1, "u2": 0.2}}}')
    code = run_cli(["apply", "--op", "union", str(paths["a"]), str(repeated),
                    "-o", str(tmp_path / "out.fss")])
    assert code == 3
    assert "duplicate key 'b1' (at parameters.b1)" in capsys.readouterr().err
    assert not (tmp_path / "out.fss").exists()


@pytest.mark.parametrize("text,message", [
    ("[" * 100_000 + "]" * 100_000, "is not valid JSON: nesting too deep"),
    ('{"universe": ["u1", "u2"], "parameters": {"b1": {"u1": 0.5, "u2": ' + "1" * 5000 + "}}}",
     "is not valid JSON: Exceeds the limit (4300 digits)"),
    ('{"universe": ["u1", "u2"], "parameters": {"b1": {"u1": 0.5, "u2": 1' + "0" * 400 + "}}}",
     "0 is outside [0, 1] (at parameters.b1.u2)"),
    (b"\xff{}", "hostile.fss is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
], ids=["deep-nesting", "huge-integer", "overflowing-integer", "not-utf-8"])
def test_apply_rejects_a_hostile_document_exit_three(files, capsys, text, message):
    tmp_path, paths = files
    hostile = tmp_path / "hostile.fss"
    hostile.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = run_cli(["apply", "--op", "union", str(paths["a"]), str(hostile),
                    "-o", str(tmp_path / "out.fss")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out.fss").exists()


def _env_with_src() -> dict:
    """The environment, with this checkout's package first on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_infinite_candidate_prints_no_runtime_warning():
    # inf - inf in the "==" comparison is a violation, and no warning.
    argv = ["check", "--kind", "tnorm", "--expr", "pow(0, -1) + x", "--grid", "4",
            "--samples", "10"]
    proc = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-c",
         "import sys; from fuzzysoft.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))",
         *argv], env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 1
    assert "commutativity f(x, y) = f(y, x): FAIL at (0, 0): got inf, want == inf" in proc.stdout


#: A fresh grid-256 check (the benchmark's passing one), printing its exit
#: code and its own minor page faults; argv[1] only pads the process.
_FAULT_CHILD = """\
import contextlib, io, resource
from fuzzysoft.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()):
    code = run_cli(["check", "--kind", "tnorm", "--expr", "max(x + y - 1, 0)",
                    "--grid", "256", "--samples", "20000"])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


def test_cube_walk_page_faults_do_not_depend_on_the_heap_layout():
    # The length of argv shifts the heap layout of a fresh process.  A cube
    # walk that allocates its tile temporaries can fall, at some lengths,
    # into trimming and regrowing the heap every tile: about 84k minor
    # faults instead of 9.8k.  A walk that writes into one workspace
    # allocates nothing per tile, whatever the layout.
    faults = []
    for pad in range(0, 96, 8):
        proc = subprocess.run([sys.executable, "-c", _FAULT_CHILD, "p" * pad],
                              env=_env_with_src(), capture_output=True, text=True, timeout=120)
        code, minflt = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        faults.append(minflt)
    assert max(faults) < 2 * min(faults), faults


@pytest.mark.parametrize("argv", [["check", "--kind", "tnorm", "--builtin", "product"],
                                  ["classify", "--builtin", "product"],
                                  ["equilibrium", "--builtin", "standard-negation",
                                   "--params", "a"]])
def test_parsed_defaults_are_the_check_config_defaults(argv):
    args = vars(build_parser().parse_args(argv))
    flags = {"grid": "grid_steps", "samples": "random_samples", "tol": "tolerance",
             "seed": "seed"}
    parsed = {field: args[flag] for flag, field in flags.items() if flag in args}
    assert parsed == {field: getattr(CheckConfig(), field) for field in parsed}
    assert list(parsed) == {"check": ["grid_steps", "random_samples", "tolerance", "seed"],
                            "classify": ["grid_steps", "tolerance"],
                            "equilibrium": ["tolerance"]}[argv[0]]


def test_dual_table_is_capped_at_max_table(capsys):
    # 1024 points a side print about 10 MB; one more is refused before
    # anything is evaluated.
    assert run_cli(["dual", "--builtin", "product", "--table", str(MAX_TABLE + 1)]) == 2
    assert capsys.readouterr() == ("", "error: --table 1025 is larger than MAX_TABLE = 1024\n")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dual", "--help"])
    assert "at most 1024" in " ".join(capsys.readouterr().out.split())


# --- totality of run_cli (ROADMAP contract 3a) -------------------------------------

#: Values for each flag, valid and invalid, none large enough to allocate
#: much or to run long: oversized grids, sample counts and tables must be
#: refused.
_FLAG_VALUES = {
    "--kind": ["tnorm", "tconorm", "negation", "implication", "nonsense"],
    "--expr": ["x*y", "min(x, y)", "1 - x", "x/y", "pow(x, -1)", "x +", "y", "1/(x - y)"],
    "--builtin": ["product", "lukasiewicz", "godel-implication", "standard-negation",
                  "sugeno(1)", "sugeno(-2)", "sugeno(inf)", "einstein"],
    "--grid": ["-1", "0", "1", "2", "8", "1024", "x"],
    "--samples": ["-1", "0", "20", "4194305", "many"],
    "--tol": ["0", "-1", "1e-9", "0.5", "nan", "inf", "t"],
    "--seed": ["0", "7", "-3", "s"],
    "--format": ["text", "json", "xml"],
    "--expect-none": ["zero-divisors", "nonzero-nilpotents", "all"],
    "--family": ["a=1-x", "a=1-x,b=1-x*x", "a", "=1-x", "a=y", "a=1-x,a=x"],
    "--params": ["a", "a,b", "", ",", "a,a"],
    "--op": ["union", "intersect", "connective", "xor"],
    "--conn": ["product", "standard-negation", "sugeno(1e400)", "x*y + 1", "x/y", "(("],
    "-o": ["out.fss", "missing/out.fss", "a.fss"],
    "--table": ["-1", "1", "2", "4", "4097", "k"],
    "--bind": ["S=a.fss", "G=b.fss", "W=w.fss", "S=bad.fss", "S=absent.fss", "S", "=a.fss"],
}
_CANDIDATE = ("--expr", "--builtin")
#: Per subcommand: required flags (a tuple is a choice of one), optional
#: flags, and the pool and count of its positional arguments.
_COMMANDS = {
    "check": (["--kind", _CANDIDATE],
              ["--grid", "--samples", "--tol", "--seed", "--format"], [], 0),
    "classify": ([_CANDIDATE], ["--grid", "--tol", "--expect-none", "--format"], [], 0),
    "equilibrium": ([_CANDIDATE + ("--family",), "--params"], ["--tol", "--family"], [], 0),
    "apply": (["--op", "-o"], ["--conn"], ["a.fss", "b.fss", "w.fss", "bad.fss", "absent.fss"], 2),
    "dual": ([_CANDIDATE], ["--table"], [], 0),
    "eval": ([], ["--bind", "--bind", "--bind"],
             ["ok.script", "unary.script", "broken.script", "absent.script"], 1),
}
_SCRIPTS = {
    "ok.script": 'H = apply(dual(product), S, G);\nprint H;\nsave(H, "saved.fss");\n',
    "unary.script": "H = apply(standard-negation, S, G);\n",
    "broken.script": "H = union(S G);\n",
}


@st.composite
def _argv(draw):
    """Mostly well-formed argv; one draw in ten drops a required flag, a
    flag's value or a positional, or adds a stray token."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional, pool, count = _COMMANDS[command]
    flags = [draw(st.sampled_from(flag)) if isinstance(flag, tuple) else flag
             for flag in required]
    flags += draw(st.lists(st.sampled_from(optional), max_size=4)) if optional else []
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    argv += [draw(st.sampled_from(pool)) for _ in range(count)]
    if draw(st.integers(0, 9)) == 0 and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--help", "--nonsense", "-", "", "a.fss"])))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_run_cli_returns_a_documented_code_on_random_argv(files, monkeypatch, capsys, argv):
    tmp_path, _ = files
    (tmp_path / "bad.fss").write_text('{"universe": ["u1"], "parameters": {"a": {"u1": 2}}}')
    for name, text in _SCRIPTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) in (0, 1, 2, 3)
    capsys.readouterr()
