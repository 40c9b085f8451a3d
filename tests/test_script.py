import pytest

from fuzzysoft import (
    ParseError,
    ScriptRuntimeError,
    UndefinedNameError,
    eval_script,
    load_fss,
    make_fuzzy_soft_set,
    parse_script,
    render_fss,
    union_fss,
)
from fuzzysoft.script import Assign, Print


@pytest.fixture
def env():
    return {
        "S": make_fuzzy_soft_set(["u1", "u2"], {"a1": (0.3, 0.7)}),
        "G": make_fuzzy_soft_set(["u1", "u2"], {"b1": (0.5, 0.2)}),
    }


def test_parse_statement_shapes():
    script = parse_script("H = union(S, G); print H;", externals=["S", "G"])
    assert len(script.statements) == 2
    assert isinstance(script.statements[0], Assign)
    assert isinstance(script.statements[1], Print)


def test_parse_apply_with_dual():
    script = parse_script("H = apply(dual(product), S, G);", externals=["S", "G"])
    (stmt,) = script.statements
    assert stmt.expr.connective.inner.name == "product"


def test_parse_hyphenated_builtin_and_parameter():
    script = parse_script(
        "H = apply(lukasiewicz-implication, S, G); K = apply(dual(sugeno(1)), S, G);",
        externals=["S", "G"],
    )
    # sugeno is unary; resolving dual() of it fails at evaluation, but the
    # names parse and resolve against the builtin table
    assert script.statements[0].expr.connective.name == "lukasiewicz-implication"


def test_undefined_identifier_is_an_error():
    with pytest.raises(UndefinedNameError) as err:
        parse_script("print Q;")
    assert "Q" in str(err.value)


def test_defined_before_use_is_positional():
    with pytest.raises(UndefinedNameError):
        parse_script("print H; H = union(S, G);", externals=["S", "G"])


def test_shadowing_builtins_rejected():
    with pytest.raises(ParseError):
        parse_script("product = union(S, G);", externals=["S", "G"])
    with pytest.raises(ParseError):
        parse_script("union = union(S, G);", externals=["S", "G"])


def test_unknown_builtin_in_connective_position():
    with pytest.raises(ParseError) as err:
        parse_script("H = apply(einstein, S, G);", externals=["S", "G"])
    assert "einstein" in str(err.value)


def test_parse_errors_are_spanned():
    for text in ("H = union(S G);", "print ;", "save(H);", "H = ;", "fn = 3;"):
        with pytest.raises(ParseError) as err:
            parse_script(text, externals=["S", "G", "H"])
        assert err.value.span is not None


def test_script_nesting_depth_is_limited():
    deep = "complement(" * 250 + "S" + ")" * 250
    with pytest.raises(ParseError) as err:
        parse_script(f"print {deep};", externals=["S"])
    assert "deeper than" in str(err.value)
    with pytest.raises(ParseError):
        parse_script("H = apply(" + "dual(" * 250 + "product" + ")" * 250 + ", S, S);",
                     externals=["S"])


def test_eval_union_print(env):
    script = parse_script("print union(S, G);", externals=env)
    result = eval_script(script, env)
    assert result.printed == (render_fss(union_fss(env["S"], env["G"])),)


def test_apply_minimum_equals_intersect_output(env):
    script = parse_script(
        "print apply(minimum, S, G); print intersect(S, G);", externals=env
    )
    result = eval_script(script, env)
    assert result.printed[0] == result.printed[1]


def test_inline_fn_and_assignment(env):
    script = parse_script(
        "H = apply(fn(x, y) => x*y, S, G); print H;", externals=env
    )
    result = eval_script(script, env)
    assert result.env["H"]["a1*b1"].memberships == (0.3 * 0.5, 0.7 * 0.2)


def test_inline_fn_codomain_violation_attaches_statement_span(env):
    script = parse_script("H = apply(fn(x, y) => x*y+1, S, G);", externals=env)
    with pytest.raises(ScriptRuntimeError) as err:
        eval_script(script, env)
    assert err.value.span is not None
    assert "outside [0, 1]" in str(err.value)


def test_universe_mismatch_attaches_statement_span(env):
    env = dict(env)
    env["W"] = make_fuzzy_soft_set(["w"], {"c": (0.5,)})
    script = parse_script("H = union(S, W);", externals=env)
    with pytest.raises(ScriptRuntimeError) as err:
        eval_script(script, env)
    assert err.value.span is not None


def test_complement_and_nesting(env):
    script = parse_script(
        "H = complement(complement(S)); print H;", externals=env
    )
    result = eval_script(script, env)
    # memberships 0.3/0.7: double complement is exact here (0.7 is reached
    # exactly and complements back to 0.30000000000000004 -- so compare
    # against the computed value, not the literal)
    expected = 1.0 - (1.0 - 0.3)
    assert result.env["H"]["a1"].memberships == (expected, 0.7)


def test_save_writes_loadable_file(env, tmp_path):
    script = parse_script('K = intersect(S, G); save(K, "out.fss");', externals=env)
    result = eval_script(script, env, base_dir=tmp_path)
    assert result.saved == (str(tmp_path / "out.fss"),)
    reloaded = load_fss(tmp_path / "out.fss")
    assert reloaded == result.env["K"]


def test_missing_binding_at_eval_time(env):
    script = parse_script("print S;", externals=["S"])
    with pytest.raises(UndefinedNameError):
        eval_script(script, {})


def test_comments_allowed(env):
    script = parse_script(
        "# build the join\nH = union(S, G);  # product tags\nprint H;",
        externals=env,
    )
    assert len(script.statements) == 2
