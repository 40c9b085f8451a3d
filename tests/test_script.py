import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzysoft import (
    FuzzySoftError,
    ParseError,
    ScriptRuntimeError,
    UndefinedNameError,
    apply_connective,
    complement_fss,
    eval_script,
    load_fss,
    make_fuzzy_soft_set,
    parse_script,
    render_fss,
    union_fss,
)
from fuzzysoft.analysis import CheckConfig, check_implication_axioms
from fuzzysoft.connectives import ScalarConnective, builtin, builtin_names, dual_of
from fuzzysoft.expr import _UFUNCS, _VARIABLES, CompiledExpr, SourceSpan
from fuzzysoft.script import _KEYWORDS, Assign, NameRef, Print, Script, SetOp
from fuzzysoft.sets import SET_OPERATIONS

SPAN = SourceSpan(0, 1, 1, 1)


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


@pytest.mark.parametrize("opening, builtin_name", [
    ("complement(", "standard-negation"), ("union(", "maximum"), ("intersect(", "minimum"),
    ("apply(lukasiewicz-implication, ", "lukasiewicz-implication"),
], ids=["complement", "union", "intersect", "apply"])
def test_each_set_function_is_one_node_holding_its_connective(env, opening, builtin_name):
    conn = builtin(builtin_name)
    names = ("S", "G")[:conn.arity]
    parsed = parse_script(f"H = {opening}{', '.join(names)});", externals=env)
    node = parsed.statements[0].expr
    assert type(node) is SetOp and node.connective == conn
    assert node.operands == tuple(NameRef(name, SPAN) for name in names)
    got = eval_script(parsed, env).env["H"]
    if conn.arity == 1:
        want = complement_fss(env["S"])
    else:
        want = apply_connective(conn, env["S"], env["G"])
        assert parsed == parse_script(f"H = apply({builtin_name}, S, G);", externals=env)
        with pytest.raises(ParseError, match=re.escape(f"between the operands of "
                                                       f"{opening.partition('(')[0]!r}")):
            parse_script(f"H = {opening}S G);", externals=env)
    assert got.tags == want.tags and got.values.tobytes() == want.values.tobytes()


def test_parse_apply_with_dual():
    script = parse_script("H = apply(dual(product), S, G);", externals=["S", "G"])
    (stmt,) = script.statements
    assert stmt.expr.connective == dual_of(builtin("product"))


def test_parse_hyphenated_builtin_and_parameter():
    script = parse_script("H = apply(lukasiewicz-implication, S, G);",
                          externals=["S", "G"])
    assert script.statements[0].expr.connective.name == "lukasiewicz-implication"
    # sugeno is unary, so dual() of it is rejected when the script is parsed
    with pytest.raises(ParseError, match="'sugeno\\(1\\)' has arity 1"):
        parse_script("K = apply(dual(sugeno(1)), S, G);", externals=["S", "G"])


@pytest.mark.parametrize("text, column, name", [
    ("H = apply(standard-negation, S, G);", 11, "standard-negation"),
    ("H = apply(dual(sugeno(1)), S, G);", 16, "sugeno(1)"),
    ("H = apply(dual(dual(sugeno(-0.5))), S, G);", 21, "sugeno(-0.5)"),
])
def test_unary_builtin_in_connective_position_is_a_spanned_parse_error(text, column, name):
    with pytest.raises(ParseError) as err:
        parse_script("print S;\n" + text, externals=["S", "G"])
    assert err.value.message == (
        f"connective {name!r} has arity 1, but this use needs arity 2")
    span = err.value.span
    assert (span.line, span.column) == (2, column)
    assert span.excerpt("print S;\n" + text) == name


@pytest.mark.parametrize("body, message, column", [
    ("fn(y, x) => x", "inline fn parameters are (x, y), found 'y'", 14),
    ("fn(x, z) => x", "inline fn parameters are (x, y), found 'z'", 17),
    ("fn(x y) => x", "expected ',' between fn parameters, found 'y'", 16),
    ("fn(x, y => x", "expected ')' after fn parameters, found '=>'", 19),
    ("fn(x, y) x", "expected '=>' before the fn body, found 'x'", 20),
    ("fn(1, y) => x", "expected identifier as the first parameter, found '1'", 14),
    ("fn(x,) => x", "expected identifier as the second parameter, found ')'", 16),
])
def test_inline_fn_parameter_errors(body, message, column):
    with pytest.raises(ParseError) as err:
        parse_script(f"H = apply({body}, S, G);", externals=["S", "G"])
    assert (err.value.message, err.value.span.column) == (message, column)


@pytest.mark.parametrize("text, message, column", [
    ("save(S, out);", 'expected a quoted path like "out.fss", found \'out\'', 9),
    ("print print;", "'print' cannot be used as a set name here", 7),
    ("print apply(1, S, S);", "expected a connective, found '1'", 13),
    ("print apply(sugeno(x), S, S);", "expected a numeric parameter for 'sugeno', found 'x'", 20),
])
def test_misplaced_tokens_are_spanned_parse_errors(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_script(text, externals=["S"])
    assert (err.value.message, err.value.span.column) == (message, column)


@pytest.mark.parametrize("statement, message", [
    ("H", "not a statement node: 'H'"),
    (Print("S", SPAN), "not a set expression node: 'S'"),
], ids=["statement", "set-expression"])
def test_a_foreign_node_in_a_hand_built_script_is_a_type_error(statement, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        eval_script(Script((statement,)), {})


def test_apply_holds_the_resolved_connective():
    script = parse_script(
        "H = apply(product, S, G); K = apply(dual(lukasiewicz), S, G);"
        " L = apply(fn(x, y) => x * y, S, G);",
        externals=["S", "G"],
    )
    connectives = [stmt.expr.connective for stmt in script.statements]
    assert all(isinstance(c, ScalarConnective) and c.arity == 2 for c in connectives)
    assert [c.name for c in connectives] == ["product", "dual(lukasiewicz)", "x * y"]
    assert connectives[1].kind == "t-conorm"
    assert connectives[2](0.5, 0.25) == 0.125


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


@pytest.mark.parametrize("name", sorted({*filter(str.isidentifier, _UFUNCS), *_VARIABLES,
                                          *SET_OPERATIONS, "sugeno"}))
def test_no_keyword_or_builtin_identifier_can_be_assigned(name):
    with pytest.raises(ParseError) as err:
        parse_script(f"{name} = S;", externals=["S"])
    assert str(err.value) == f"1:1: cannot shadow the builtin name {name!r}"


@pytest.mark.parametrize("name, message", [
    ("product", "cannot shadow the builtin name 'product'"),
    ("print", "cannot shadow the builtin name 'print'"),
    ("a b", "external name 'a b' is not an identifier"),
    ("", "external name '' is not an identifier"),
    ("godel-implication", "external name 'godel-implication' is not an identifier"),
    (5, "external name 5 is not an identifier"),
])
def test_an_external_name_is_held_to_the_assignment_rule(name, message):
    with pytest.raises(ParseError) as err:
        parse_script("print S;", externals=["S", name])
    assert str(err.value) == message


def test_grammar_md_lists_the_names_a_script_may_not_assign():
    grammar = (Path(__file__).parents[1] / "docs" / "grammar.md").read_text(encoding="utf-8")
    rule = grammar.split("- assignment may not shadow")[1].split("\n- ")[0]
    builtins = {name.partition("(")[0] for name in builtin_names()}
    assert set(re.findall(r"`([^`]+)`", rule)) == _KEYWORDS | builtins


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


def test_the_deepest_script_dual_is_compiled_and_gives_the_closures_results(env):
    # The apply and its 99 duals are the 100 levels a script may nest, and
    # godel-implication is the tallest builtin: 8 levels, 2 more per dual.
    script = parse_script("print apply(" + "dual(" * 99 + "godel-implication" + ")" * 99
                          + ", S, G);", externals=env)
    conn = script.statements[0].expr.connective
    assert isinstance(conn.fn, CompiledExpr) and conn.fn.height == 8 + 2 * 99
    closure = builtin("godel-implication").fn
    for _ in range(99):
        closure = (lambda fn: lambda x, y: 1.0 - fn(1.0 - x, 1.0 - y))(closure)
    reference = ScalarConnective(conn.name, 2, conn.kind, conn.continuity, closure)
    g = np.linspace(0, 1, 21)
    assert np.array_equal(conn(g[:, None], g).view(np.uint64),
                          closure(g[:, None], g).view(np.uint64))
    cfg = CheckConfig(grid_steps=8, random_samples=50)
    assert (json.dumps(check_implication_axioms(conn, cfg).to_dict())
            == json.dumps(check_implication_axioms(reference, cfg).to_dict()))
    expected = apply_connective(reference, env["S"], env["G"])
    assert eval_script(script, env).printed == (render_fss(expected),)


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


#: Tokens of the script grammar, joined with spaces into random statements.
_SCRIPT_WORDS = st.sampled_from(
    ["H", "S", "G", "=", ";", "(", ")", ",", "print", "save", "union", "intersect",
     "complement", "apply", "dual", "fn", "x", "y", "=>", "*", "+", "-", "/", "0.5", "1",
     '"o.fss"', "product", "minimum", "sugeno", "yager", "#", "\n", "@"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=40), st.lists(_SCRIPT_WORDS, max_size=20).map(" ".join)))
def test_parse_script_totality(text):
    # every input either parses or raises a FuzzySoftError, never another exception
    try:
        parse_script(text, externals=["S", "G"])
    except FuzzySoftError:
        pass
