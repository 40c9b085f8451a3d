import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzysoft import (
    DivisionByZeroError,
    FuzzySoftError,
    ParseError,
    UnboundVariableError,
    eval_scalar,
    parse_scalar,
    pretty_print,
    tokenize,
)
from fuzzysoft.expr import MAX_DEPTH, BinOp, Call, Neg, Num, Var


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


# --- parsing ---------------------------------------------------------------

def test_bounded_difference_parses_and_evaluates():
    ast = parse_scalar("max(x+y-1,0)")
    assert eval_scalar(ast, 0.8, 0.1) == 0.0


def test_residuum_boundary():
    ast = parse_scalar("min(1,1-x+y)")
    assert eval_scalar(ast, 1.0, 0.4) == 0.4


def test_precedence():
    # unary minus binds tighter than *, which binds tighter than +
    assert parse_scalar("-x*y+1") == BinOp(
        "+",
        BinOp("*", Neg(Var("x", None), None), Var("y", None), None),
        Num(1.0, None),
        None,
    )


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
        assert parse_scalar(pretty_print(node)) == node
        assert eval_scalar(node, 0.5, 0.5) == eval_scalar(parse_scalar(pretty_print(node)), 0.5, 0.5)


# --- evaluation ------------------------------------------------------------

def test_eval_product():
    assert eval_scalar(parse_scalar("x*y"), 0.5, 0.4) == 0.2


def test_eval_negation_boundary():
    assert eval_scalar(parse_scalar("1-x"), 0.0) == 1.0


def test_eval_division_by_zero():
    ast = parse_scalar("x/(y-y)")
    with pytest.raises(DivisionByZeroError) as err:
        eval_scalar(ast, 0.3, 0.9)
    assert err.value.span is not None


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_scalar(parse_scalar("x+y"), 0.3)


def test_eval_result_unclamped():
    assert eval_scalar(parse_scalar("x*y*2"), 0.9, 0.9) == pytest.approx(1.62)


def test_eval_on_arrays_broadcasts():
    ast = parse_scalar("max(x+y-1,0)")
    xs = np.array([0.0, 0.8, 1.0])[:, None]
    ys = np.array([0.1, 0.9])[None, :]
    out = eval_scalar(ast, xs, ys)
    assert out.shape == (3, 2)
    assert out[1, 0] == 0.0
    # scalar evaluation agrees with the array path bit for bit
    assert out[2, 1] == eval_scalar(ast, 1.0, 0.9)


def test_eval_purity_same_bits():
    ast = parse_scalar("x+y-x*y")
    first = eval_scalar(ast, 0.123456, 0.654321)
    for _ in range(5):
        assert eval_scalar(ast, 0.123456, 0.654321) == first


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
        lambda t: BinOp(t[0], t[1], t[2], None)
    )
    negs = children.map(lambda c: Neg(c, None))
    calls2 = st.tuples(st.sampled_from(("min", "max", "pow")), children, children).map(
        lambda t: Call(t[0], (t[1], t[2]), None)
    )
    calls1 = children.map(lambda c: Call("abs", (c,), None))
    return st.one_of(binops, negs, calls2, calls1)


asts = st.recursive(_leaves, _compound, max_leaves=25)


@given(asts)
def test_pretty_print_reparse_is_structural_identity(ast):
    rendered = pretty_print(ast)
    assert parse_scalar(rendered) == ast


def test_number_rendering_round_trips():
    # values whose repr would use exponent form still render as decimals
    tiny = Num(2.0 ** -40, None)
    rendered = pretty_print(tiny)
    assert "e" not in rendered
    assert parse_scalar(rendered) == tiny
    assert pretty_print(Num(1.0, None)) == "1"
    assert pretty_print(Num(0.5, None)) == "0.5"


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
