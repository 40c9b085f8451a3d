import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzysoft import (
    DivisionByZeroError,
    FuzzySoftError,
    ParseError,
    UnboundVariableError,
    parse_scalar,
    pretty_print,
    tokenize,
)
from fuzzysoft.connectives import scalar_from_expression, scalar_from_parsed
from fuzzysoft import expr
from fuzzysoft.expr import MAX_DEPTH, CompiledExpr, Num, Op, SourceSpan, Var


def test_token_count_matches_grammar():
    # max ( x + y - 1 , 0 )  -> 10 tokens (EOF excluded)
    tokens = tokenize("max(x+y-1,0)")
    assert len(tokens) - 1 == 10
    assert tokens[-1].kind == "eof"


def test_comments_and_whitespace_skipped():
    tokens = tokenize("0.5 # half")
    assert len(tokens) - 1 == 1
    assert tokens[0].value == 0.5


def test_illegal_character_is_spanned():
    with pytest.raises(ParseError) as err:
        tokenize("x @ y")
    assert err.value.span.start == 2
    assert err.value.span.end == 3
    assert "@" in str(err.value)


def test_token_spans_cover_lexemes():
    text = "min(1, 1-x+y)"
    for token in tokenize(text)[:-1]:
        assert text[token.span.start:token.span.end] == token.text


def test_multiline_spans():
    tokens = tokenize("x +\n  y")
    y_tok = tokens[2]
    assert y_tok.text == "y"
    assert (y_tok.span.line, y_tok.span.column) == (2, 3)


def test_scientific_notation_rejected():
    with pytest.raises(ParseError):
        tokenize("1e-3")
    with pytest.raises(ParseError):
        tokenize("2.5E2")
    with pytest.raises(ParseError):
        tokenize("1.")
    with pytest.raises(ParseError):
        tokenize("0.5.5")


def _lex(text):
    """Tokens as (kind, text, start, end, line, column), EOF excluded, or
    the error as ("error", message, start, end, line, column)."""
    try:
        return [(t.kind, t.text, t.span.start, t.span.end, t.span.line, t.span.column)
                for t in tokenize(text)[:-1]]
    except ParseError as err:
        span = err.span
        return ("error", err.message, span.start, span.end, span.line, span.column)


@pytest.mark.parametrize("text, expected", [
    ("é", [("ident", "é", 0, 1, 1, 1)]),
    ("_x", [("ident", "_x", 0, 2, 1, 1)]),
    ("x²", [("ident", "x²", 0, 2, 1, 1)]),
    ("²", ("error", "illegal character '²'", 0, 1, 1, 1)),
    ("1٣", ("error", "illegal character '٣'", 1, 2, 1, 2)),
    ("1.", ("error", "malformed number: expected digits after the decimal point", 0, 2, 1, 1)),
    ("1.2.3", ("error", "malformed number '1.2.' (only one decimal point is allowed)",
               0, 4, 1, 1)),
    ("1e3", ("error", "malformed number '1e' (exponent notation is not supported)",
             0, 2, 1, 1)),
    # 309 integer digits are past the largest float; the literal is its span.
    pytest.param("x*1" + "0" * 320, ("error", "number too large for a float", 2, 323, 1, 3),
                 id="overflowing-number"),
    ("fn=>x", [("ident", "fn", 0, 2, 1, 1), ("punct", "=>", 2, 4, 1, 3),
               ("ident", "x", 4, 5, 1, 5)]),
    ("S = T", [("ident", "S", 0, 1, 1, 1), ("punct", "=", 2, 3, 1, 3),
               ("ident", "T", 4, 5, 1, 5)]),
    ("==>", [("punct", "=", 0, 1, 1, 1), ("punct", "=>", 1, 3, 1, 2)]),
    ('x "ab\n"', ("error", "unterminated string", 2, 5, 1, 3)),
    ('x "ab', ("error", "unterminated string", 2, 5, 1, 3)),
    ('"', ("error", "unterminated string", 0, 1, 1, 1)),
    ("x\n\ty", [("ident", "x", 0, 1, 1, 1), ("ident", "y", 3, 4, 2, 2)]),
])
def test_lexer_edge_cases(text, expected):
    assert _lex(text) == expected


# --- parsing ---------------------------------------------------------------

def test_bounded_difference_parses_and_evaluates():
    ast = parse_scalar("max(x+y-1,0)")
    assert CompiledExpr(ast)(0.8, 0.1) == 0.0


def test_residuum_boundary():
    ast = parse_scalar("min(1,1-x+y)")
    assert CompiledExpr(ast)(1.0, 0.4) == 0.4


def test_precedence():
    # unary minus binds tighter than *, which binds tighter than +
    assert parse_scalar("-x*y+1") == Op("+", (
        Op("*", (Op("-", (Var("x", None),), None), Var("y", None)), None),
        Num(1.0, None),
    ), None)


def test_parse_error_at_end_of_input():
    with pytest.raises(ParseError) as err:
        parse_scalar("min(x,")
    assert "expected expression" in str(err.value)
    assert err.value.span.start == len("min(x,")


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        parse_scalar("x y")
    assert "trailing" in str(err.value)


def test_call_arity_enforced():
    with pytest.raises(ParseError) as err:
        parse_scalar("min(x)")
    assert "2 arguments" in str(err.value)
    with pytest.raises(ParseError):
        parse_scalar("abs(x, y)")
    with pytest.raises(ParseError):
        parse_scalar("pow(x, y, 1)")


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError) as err:
        parse_scalar("x + z")
    assert "z" in str(err.value)


def test_nesting_past_the_depth_limit_is_a_spanned_parse_error():
    # The first "(" past the limit and the first operator past it.
    with pytest.raises(ParseError) as err:
        parse_scalar("(" * 250 + "x" + ")" * 250)
    assert err.value.span.start == MAX_DEPTH
    assert "deeper than" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_scalar("+".join(["x"] * 2000))
    assert err.value.span.start == 2 * MAX_DEPTH + 1


def test_depth_counts_the_deepest_operand_of_a_chain():
    # A parenthesised left operand sits one level deeper per operator.
    deep = "(" * (MAX_DEPTH // 2) + "x" + ")" * (MAX_DEPTH // 2)
    assert parse_scalar(deep + "+x" * (MAX_DEPTH // 2))
    with pytest.raises(ParseError):
        parse_scalar(deep + "+x" * (MAX_DEPTH // 2 + 1))


def test_expressions_at_the_depth_limit_parse_evaluate_and_print():
    for text in ("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
                 "-" * MAX_DEPTH + "x",
                 "abs(" * (MAX_DEPTH - 1) + "x*y" + ")" * (MAX_DEPTH - 1),
                 "+".join(["x"] * (MAX_DEPTH + 1))):
        node = parse_scalar(text)
        reparsed = parse_scalar(pretty_print(node))
        assert reparsed == node
        assert CompiledExpr(node)(0.5, 0.5) == CompiledExpr(reparsed)(0.5, 0.5)


# --- evaluation ------------------------------------------------------------

def test_eval_product():
    assert CompiledExpr(parse_scalar("x*y"))(0.5, 0.4) == 0.2


def test_eval_negation_boundary():
    assert CompiledExpr(parse_scalar("1-x"))(0.0) == 1.0


def test_eval_division_by_zero():
    ast = parse_scalar("x/(y-y)")
    with pytest.raises(DivisionByZeroError) as err:
        CompiledExpr(ast)(0.3, 0.9)
    assert err.value.span is not None


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        CompiledExpr(parse_scalar("x+y"))(0.3)


def test_eval_result_unclamped():
    assert CompiledExpr(parse_scalar("x*y*2"))(0.9, 0.9) == pytest.approx(1.62)


def test_eval_on_arrays_broadcasts():
    ast = parse_scalar("max(x+y-1,0)")
    xs = np.array([0.0, 0.8, 1.0])[:, None]
    ys = np.array([0.1, 0.9])[None, :]
    out = CompiledExpr(ast)(xs, ys)
    assert out.shape == (3, 2)
    assert out[1, 0] == 0.0
    # scalar evaluation agrees with the array path bit for bit
    assert out[2, 1] == CompiledExpr(ast)(1.0, 0.9)


def test_only_an_expression_node_compiles():
    with pytest.raises(TypeError, match="^not a scalar expression node: 'x'$"):
        CompiledExpr("x")


def test_eval_purity_same_bits():
    ast = parse_scalar("x+y-x*y")
    first = CompiledExpr(ast)(0.123456, 0.654321)
    for _ in range(5):
        assert CompiledExpr(ast)(0.123456, 0.654321) == first


# --- pretty printing ---------------------------------------------------------

def test_pretty_canonical_spacing():
    assert pretty_print(parse_scalar("max( x + y - 1 , 0 )")) == "max(x + y - 1, 0)"


def test_pretty_drops_redundant_parens():
    assert pretty_print(parse_scalar("((x))")) == "x"
    assert pretty_print(parse_scalar("(x*y)+1")) == "x * y + 1"


def test_pretty_keeps_needed_parens():
    assert pretty_print(parse_scalar("(x+y)*2")) == "(x + y) * 2"
    assert pretty_print(parse_scalar("x-(y-1)")) == "x - (y - 1)"
    assert pretty_print(parse_scalar("-(x+y)")) == "-(x + y)"


def test_round_trip_fixed_point():
    for text in ("min(1,1-x+y)", "max(x+y-1,0)", "x+y-x*y", "1-x", "x - -y", "--x"):
        once = pretty_print(parse_scalar(text))
        assert parse_scalar(once) == parse_scalar(text)
        assert pretty_print(parse_scalar(once)) == once


# A recursive strategy over ASTs; spans are irrelevant for equality.
def _span_free(node):
    return node


_numbers = st.integers(0, 40).map(lambda k: Num(k / 8.0, None))
_vars = st.sampled_from(("x", "y")).map(lambda n: Var(n, None))
_leaves = st.one_of(_numbers, _vars)


def _compound(children):
    binops = st.tuples(st.sampled_from("+-*/"), children, children).map(
        lambda t: Op(t[0], (t[1], t[2]), None)
    )
    negs = children.map(lambda c: Op("-", (c,), None))
    calls2 = st.tuples(st.sampled_from(("min", "max", "pow")), children, children).map(
        lambda t: Op(t[0], (t[1], t[2]), None)
    )
    calls1 = children.map(lambda c: Op("abs", (c,), None))
    return st.one_of(binops, negs, calls2, calls1)


asts = st.recursive(_leaves, _compound, max_leaves=25)


@given(asts)
def test_pretty_print_reparse_is_structural_identity(ast):
    rendered = pretty_print(ast)
    assert parse_scalar(rendered) == ast


def _nodes(node):
    """``node`` and every node below it, in preorder."""
    yield node
    for arg in getattr(node, "args", ()):
        yield from _nodes(arg)


@given(asts)
def test_every_operation_is_an_op_and_substitution_keeps_its_spans(ast):
    # Spans take no part in ==, and dual_of's error messages rely on them.
    parsed = parse_scalar(pretty_print(ast))
    for node in _nodes(parsed):
        if not isinstance(node, (Num, Var)):
            assert type(node) is Op
            arity = len(node.args)
            assert arity == expr._UFUNCS[node.op].nin or (node.op, arity) == ("-", 1)
    same = expr.substitute(parsed, lambda var: var)
    pairs = list(zip(_nodes(parsed), _nodes(same), strict=True))
    assert all(node.span == kept.span for node, kept in pairs if not isinstance(node, Var))


#: Values that make NaN, inf and -0.0 turn up through division, pow and minus.
_EDGE_VALUES = np.array([0.0, -0.0, 0.25, 0.5, 1.0, 3.0, -2.0, 1e300])


def _bits(value, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), shape).view(np.uint64)


def _outcome(evaluate, x, y, regs=None):
    """(True, value) or (False, (error type, message, span))."""
    try:
        return True, evaluate(x, y, regs)
    except DivisionByZeroError as err:
        return False, (type(err), str(err), err.span)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.sampled_from(["pow(x, 2)", "x", "2", "-(1 + 2)", "abs(-1) * y",
                                       "1/(x - x)", "x/(1 - 1)", "max(x + y - 1, 0)",
                                       "max(1 - x, y)", "min(1, 1 - x + y)",
                                       "(1 - x) / (1 + -0.5 * x)"]),
                      asts.map(pretty_print)),
       a=st.integers(1, 3), b=st.integers(1, 3), c=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_compiled_expression_gives_the_same_bits_with_registers(text, a, b, c, seed):
    # Read-only broadcast inputs: a register file that aliased one would
    # raise on the write.  The registers start as garbage and serve two
    # calls with different inputs.
    compiled = CompiledExpr(parse_scalar(text))
    rng = np.random.default_rng(seed)
    shape = (a, b, c)
    regs = [np.full(shape, np.nan) for _ in range(compiled.registers)]
    for _ in range(2):
        x = np.broadcast_to(rng.choice(_EDGE_VALUES, (a, 1, 1)), (a, 1, 1))
        y = np.broadcast_to(rng.choice(_EDGE_VALUES, (1, b, c)), (1, b, c))
        ok, plain = _outcome(compiled, x, y)
        with np.errstate(all="ignore"):
            ok_regs, written = _outcome(compiled, x, y, regs)
        assert ok_regs == ok
        if not ok:
            assert written == plain
            continue
        assert written is regs[0]
        assert np.array_equal(_bits(written, shape), _bits(plain, shape))


#: Each operation of the compiler, as an expression, and the Python float
#: arithmetic it must match on Python floats.  ``min`` and ``max`` have no
#: float operator; theirs is the ufunc on one-element float64 arrays, whose
#: sign of a zero result Python's min and max do not follow.
_SCALAR_REFERENCES = {
    "+": ("x + y", operator.add),
    "-": ("x - y", operator.sub),
    "*": ("x * y", operator.mul),
    "/": ("x / y", operator.truediv),
    "neg": ("-x", operator.neg),
    "abs": ("abs(x)", operator.abs),
    "pow": ("pow(x, y)", np.power),
    "min": ("min(x, y)", lambda a, b: np.minimum([a], [b])[0]),
    "max": ("max(x, y)", lambda a, b: np.maximum([a], [b])[0]),
}


def test_every_operation_has_a_scalar_reference():
    assert set(expr._UFUNCS) | {"neg"} == set(_SCALAR_REFERENCES)


@pytest.mark.parametrize("op", sorted(_SCALAR_REFERENCES))
def test_a_plain_call_on_python_floats_gives_the_bits_of_python_arithmetic(op):
    text, reference = _SCALAR_REFERENCES[op]
    compiled = CompiledExpr(parse_scalar(text))
    values = (0.0, -0.0, 5e-324, 0.25, 1.0, 3.0, -2.0, 1e300)
    operands = ([(a,) for a in values] if "y" not in compiled.variables
                else list(itertools.product(values, repeat=2)))
    for args in operands:
        if op == "/" and args[1] == 0:
            with pytest.raises(DivisionByZeroError) as err:
                compiled(*args)
            assert (err.value.message, err.value.span) == ("division by zero",
                                                            SourceSpan(0, 5, 1, 1))
            continue
        got = compiled(*args)
        with np.errstate(all="ignore"):
            want = float(reference(*args))
        assert type(got) is float
        assert _bits(got, ()) == _bits(want, ()), (text, args, got, want)


@pytest.mark.parametrize("text, symmetric", [
    ("x * y", True),
    ("min(x, y)", True),
    ("max(x + y - 1, 0)", True),
    ("x + y - x * y", True),
    ("min(1, x + y)", True),
    ("x * y / (x + y)", True),
    ("x*y*y", False),
    ("x - y", False),
    ("-x + -y", True),  # unary minus and subtraction stay apart
    ("-x - y", False),
    ("-(x - y)", False),
    ("x + (y + 1)", False),    # its swap y + (x + 1) rounds differently
    ("pow(x * y, 2)", False),  # pow(-0.0, -1) is -inf: no pow is symmetric
])
def test_compiled_expression_knows_whether_it_is_symmetric(text, symmetric):
    assert CompiledExpr(parse_scalar(text)).symmetric is symmetric


@settings(max_examples=300, deadline=None)
@given(ast=asts)
def test_an_expression_that_does_not_divide_never_raises_on_bound_variables(ast):
    # The cube walk stops at its witness tile when nothing can raise.
    compiled = CompiledExpr(parse_scalar(pretty_print(ast)))
    assert compiled.divides is ("/" in pretty_print(ast))
    if not compiled.divides:
        x, y = np.meshgrid(_EDGE_VALUES, _EDGE_VALUES)
        regs = [np.empty(x.shape) for _ in range(compiled.registers)]
        with np.errstate(all="ignore"):
            compiled(x, y, regs=regs)


def joined_with_its_swap(text: str, op: str) -> str:
    """``text`` and its x-y swap as the operands of a commutative ``op``."""
    swapped = re.sub(r"\b[xy]\b", lambda m: "y" if m.group() == "x" else "x", text)
    return f"({text}) {op} ({swapped})" if op in "+*" else f"{op}({text}, {swapped})"


COMMUTATIVE_OPS = st.sampled_from(["+", "*", "min", "max"])


@settings(max_examples=300, deadline=None)
@given(ast=asts, op=COMMUTATIVE_OPS, mirrored=st.booleans())
def test_a_symmetric_expression_swaps_its_arguments_up_to_the_sign_of_zero(ast, op, mirrored):
    # An expression joined with its own swap by a commutative operation is
    # symmetric, unless it has a pow.  On every pair of edge values a
    # symmetric expression's swapped call gives the same magnitude, is NaN
    # when it is, and raises when it does; so does its call with a second
    # argument of the other sign of zero.
    text = joined_with_its_swap(pretty_print(ast), op) if mirrored else pretty_print(ast)
    compiled = CompiledExpr(parse_scalar(text))
    if mirrored:
        assert compiled.symmetric is ("pow" not in text)
    if not compiled.symmetric:
        return
    for a, b in itertools.product(map(float, _EDGE_VALUES), repeat=2):
        ok, value = _outcome(compiled, a, b)
        for other in [(b, a)] + [(a, -b)] * (b == 0):
            ok_other, other_value = _outcome(compiled, *other)
            assert ok_other == ok, (a, b, other)
            if ok:
                assert abs(value) == abs(other_value) or math.isnan(value) and math.isnan(
                    other_value), (a, b, other, value, other_value)


def test_pow_turns_the_sign_of_a_zero_into_a_difference_in_magnitude():
    # min returns its second operand on a tie of zeros; pow(-0.0, -1) is -inf.
    text = "max(pow(min(x, y), 0 - 1), 0)"
    compiled = CompiledExpr(parse_scalar(text))
    assert (compiled(0.0, -0.0), compiled(-0.0, 0.0)) == (0.0, math.inf)
    assert not compiled.symmetric
    assert CompiledExpr(parse_scalar(text.replace("pow", "max"))).symmetric


def test_number_rendering_round_trips():
    # values whose repr would use exponent form still render as decimals
    tiny = Num(2.0 ** -40, None)
    rendered = pretty_print(tiny)
    assert "e" not in rendered
    assert parse_scalar(rendered) == tiny
    assert pretty_print(Num(1.0, None)) == "1"
    assert pretty_print(Num(0.5, None)) == "0.5"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_number_in_a_built_ast_is_a_parse_error_at_its_span(value):
    span = SourceSpan(4, 7, 1, 5)
    ast = Op("*", (Var("x", SourceSpan(0, 1, 1, 1)), Num(value, span)), SourceSpan(0, 7, 1, 1))
    for render in (pretty_print, scalar_from_parsed):
        with pytest.raises(ParseError, match=r"^1:5: number .* is not finite$") as err:
            render(ast)
        assert err.value.span == span


def test_a_unary_connective_names_the_left_most_y():
    with pytest.raises(ParseError) as err:
        scalar_from_expression("x + y*y", arity=1)
    assert (err.value.span.start, err.value.span.end, err.value.span.column) == (4, 5, 5)


def test_a_compiled_expression_keeps_the_left_most_var_of_each_name():
    compiled = CompiledExpr(parse_scalar("min(y, x) * y + x"))
    assert {name: var.span.start for name, var in compiled.variables.items()} == {"x": 7, "y": 4}
    assert CompiledExpr(parse_scalar("1 - 0.5")).variables == {}


def test_span_integrity_on_errors():
    cases = ["min(x,", "x @ y", "(x", "x +", "pow(", ")", "x,y"]
    for text in cases:
        with pytest.raises(ParseError) as err:
            parse_scalar(text)
        span = err.value.span
        assert span is not None
        assert 0 <= span.start <= span.end <= len(text)


@given(st.text(max_size=40))
def test_grammar_totality(text):
    # every input either parses or raises exactly one spanned ParseError
    try:
        parse_scalar(text)
    except ParseError as err:
        assert err.span is not None
        assert 0 <= err.span.start <= err.span.end <= len(text)


#: Characters and words of the expression and script grammars, so random
#: text often gets past the first token.
_SOURCE_CHARS = st.sampled_from(list("xyz01.5e+-*/(),;=>#\"_ \n\tAS") + ["pow", "min", "fn"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=40), st.lists(_SOURCE_CHARS, max_size=30).map("".join)))
def test_tokenizer_totality(text):
    # every input either tokenizes, ending in EOF, or raises a FuzzySoftError
    try:
        tokens = tokenize(text)
    except FuzzySoftError:
        return
    assert tokens[-1].kind == "eof"


#: Whole lexemes, so that most joined inputs tokenize; "#" often ends one.
_LEXEMES = st.sampled_from(["x", "pow", "_a", "é", "0", "1.5", '"s"', "=>", "=", "(", ")",
                            ",", ";", "+", "-", "*", "/", " ", "\t", "\r", "\n", "#", "# c"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_LEXEMES, max_size=20).map("".join))
def test_tokens_and_skipped_text_rebuild_the_input_with_true_columns(text):
    # Between tokens there are only blanks, newlines and comments; every
    # span, EOF and errors included, sits at its offset's line and column.
    try:
        tokens = tokenize(text)
    except ParseError as err:
        spans = [err.span]
    else:
        spans = [token.span for token in tokens]
        offset = 0
        for token in tokens:
            assert re.fullmatch(r"(?:[ \t\r\n]|#[^\n]*)*", text[offset:token.span.start])
            assert text[token.span.start:token.span.end] == token.text
            offset = token.span.end
        assert tokens[-1].kind == "eof" and offset == len(text)
    for span in spans:
        assert span.line == text.count("\n", 0, span.start) + 1
        assert span.column == span.start - text.rfind("\n", 0, span.start)
