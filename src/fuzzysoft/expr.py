"""Tokenizer, recursive-descent parser, compiled evaluator and printer for
scalar connective expressions over the variables ``x`` and ``y``.

Grammar (full EBNF in docs/grammar.md):

    expr   := term { ("+" | "-") term }
    term   := factor { ("*" | "/") factor }
    factor := "-" factor | atom
    atom   := NUMBER | "x" | "y"
            | ("min" | "max" | "pow") "(" expr "," expr ")"
            | "abs" "(" expr ")"
            | "(" expr ")"

A parse is a tree of three node kinds: ``Num``, ``Var`` and ``Op``, an
operator or function on its operands (unary minus is ``Op("-", (x,))``).

Numbers are plain decimals of ASCII digits with an optional fraction;
exponent notation is rejected so test vectors stay human-auditable.
Identifiers start with a ``str.isalpha()`` character or ``_`` and continue
with ``str.isalnum()`` characters or ``_``.  ``#`` starts a comment running
to the end of the line.  Offsets are in characters (identical to byte
offsets for ASCII sources); a column is one more than the characters since
the last newline, for the end-of-input token too.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from typing import Union

import numpy as np

from .errors import (
    DivisionByZeroError,
    ParseError,
    UnboundVariableError,
)
from .record import Record


class SourceSpan(Record):
    """Extent of a token or AST node: character offsets plus 1-based line/column."""

    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"invalid span: start {self.start} > end {self.end}")

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        first = self if self.start <= other.start else other
        return SourceSpan(min(self.start, other.start), max(self.end, other.end),
                          first.line, first.column)

    def excerpt(self, text: str) -> str:
        return text[self.start:self.end]


# Token kinds
NUMBER = "number"
IDENT = "ident"
STRING = "string"
PUNCT = "punct"
EOF = "eof"


class Token(Record):
    kind: str
    text: str
    span: SourceSpan
    value: float | None = None

    def describe(self) -> str:
        if self.kind == EOF:
            return "end of input"
        return f"{self.text!r}"


#: Alternatives tried in order; groups number, ident, string and punct are
#: token kinds.  ``ident`` also takes runs not starting with a letter or "_",
#: and ``other`` any one character, so that ``tokenize`` reports the error.
_LEXEME = re.compile(r"""
    (?P<newline>\n) | (?P<skip>[ \t\r]+ | \#[^\n]*)
  | (?P<number>[0-9]+(?:\.[0-9]*)?) | (?P<ident>\w+) | (?P<string>"[^"\n]*"?)
  | (?P<punct>=>|[(),;=+\-*/]) | (?P<other>.)""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens, skipping whitespace and # comments.

    Raises ``ParseError`` with a span on the first illegal character,
    malformed or overflowing number, or unterminated string.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        if kind == "skip":
            continue
        start, end = match.span()
        if kind == "newline":
            line, line_start = line + 1, end
            continue
        lexeme = match.group()
        span = SourceSpan(start, end, line, start - line_start + 1)
        value = None
        if kind == NUMBER:
            after = text[end:end + 1]
            if lexeme.endswith("."):
                raise ParseError("malformed number: expected digits after the decimal point", span)
            if after.isalpha() or after in ("_", "."):
                reason = ("only one decimal point is allowed" if after == "."
                          else "exponent notation is not supported")
                raise ParseError(f"malformed number {lexeme + after!r} ({reason})",
                                 SourceSpan(start, end + 1, line, span.column))
            value = float(lexeme)
            if not math.isfinite(value):
                raise ParseError("number too large for a float", span)
        if kind == STRING and (len(lexeme) == 1 or not lexeme.endswith('"')):
            raise ParseError("unterminated string", span)
        if kind == "other" or (kind == IDENT and not (lexeme[0].isalpha() or lexeme[0] == "_")):
            raise ParseError(f"illegal character {lexeme[0]!r}",
                             SourceSpan(start, start + 1, line, span.column))
        tokens.append(Token(kind, lexeme, span, value))
    end = len(text)
    tokens.append(Token(EOF, "", SourceSpan(end, end, line, end - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Scalar expression AST.

class SyntaxNode(Record):
    """Base of the expression and script AST nodes.  Spans never take part
    in equality, so two parses of the same shape compare structurally equal."""

    _uncompared = ("span",)


class Num(SyntaxNode):
    value: float
    span: SourceSpan


class Var(SyntaxNode):
    name: str
    span: SourceSpan


class Op(SyntaxNode):
    op: str
    args: tuple["ScalarExpr", ...]
    span: SourceSpan


ScalarExpr = Union[Num, Var, Op]

#: Each binary operator and function to the ufunc that computes it; a
#: function takes the ufunc's ``nin`` arguments.  Unary minus is
#: ``np.negative``.
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "min": np.minimum, "max": np.maximum, "pow": np.power, "abs": np.absolute}
_VARIABLES = ("x", "y")
#: The functions: the names of ``_UFUNCS`` that are identifiers.
_FUNCTIONS = tuple(filter(str.isidentifier, _UFUNCS))


#: Deepest nesting the parsers accept.  Each parenthesised group, call,
#: unary minus and binary operator is a level, as is each script
#: ``complement``, ``union``, ``intersect``, ``apply`` and ``dual``; the
#: left-associative chain ``x+x+...`` with n operators is n levels deep.
#: Parsing, compiling, evaluation and printing recurse per level, so this
#: keeps hostile input well inside Python's recursion limit.
MAX_DEPTH = 100


class _ScalarParser:
    """Token cursor plus the scalar-expression grammar; the script parser
    extends it.  ``depth`` counts the levels open around the current
    token and ``height`` the levels inside the subtree parsed last."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.height = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def match_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == PUNCT and tok.text == text:
            self.advance()
            return True
        return False

    def expect_punct(self, text: str, context: str) -> Token:
        tok = self.peek()
        if tok.kind == PUNCT and tok.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r} {context}, found {tok.describe()}", tok.span)

    def expect_ident(self, context: str) -> Token:
        tok = self.peek()
        if tok.kind == IDENT:
            return self.advance()
        raise ParseError(f"expected identifier {context}, found {tok.describe()}", tok.span)

    def check_depth(self, levels: int, tok: Token) -> None:
        if levels > MAX_DEPTH:
            raise ParseError(f"input nests deeper than {MAX_DEPTH} levels", tok.span)

    @contextmanager
    def level(self, tok: Token):
        """Parse one level deeper, opened at ``tok``; the subtree parsed
        inside gains one level of height."""
        self.depth += 1
        self.check_depth(self.depth, tok)
        yield
        self.depth -= 1
        self.height += 1

    def parse_expr(self) -> ScalarExpr:
        return self._chain(("+", "-"), self.parse_term)

    def parse_term(self) -> ScalarExpr:
        return self._chain(("*", "/"), self.parse_factor)

    def _chain(self, ops: tuple[str, str], parse_operand) -> ScalarExpr:
        """Left-associative: each operator puts the chain so far a level deeper."""
        node = parse_operand()
        height = self.height
        while True:
            tok = self.peek()
            if tok.kind != PUNCT or tok.text not in ops:
                self.height = height
                return node
            self.advance()
            right = parse_operand()
            height = max(height, self.height) + 1
            self.check_depth(self.depth + height, tok)
            node = Op(tok.text, (node, right), node.span.merge(right.span))

    def parse_factor(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == PUNCT and tok.text == "-":
            self.advance()
            with self.level(tok):
                operand = self.parse_factor()
            return Op("-", (operand,), tok.span.merge(operand.span))
        return self.parse_atom()

    def parse_atom(self) -> ScalarExpr:
        tok = self.peek()
        self.height = 0
        if tok.kind == NUMBER:
            self.advance()
            return Num(tok.value, tok.span)
        if tok.kind == IDENT:
            if tok.text in _VARIABLES:
                self.advance()
                return Var(tok.text, tok.span)
            if tok.text in _UFUNCS:
                return self.parse_call()
            raise ParseError(
                f"unknown identifier {tok.text!r} (variables are "
                f"{' and '.join(map(repr, _VARIABLES))}; functions are {', '.join(_FUNCTIONS)})",
                tok.span,
            )
        if tok.kind == PUNCT and tok.text == "(":
            self.advance()
            with self.level(tok):
                node = self.parse_expr()
            self.expect_punct(")", "to close the parenthesized expression")
            return node
        raise ParseError(f"expected expression, found {tok.describe()}", tok.span)

    def parse_call(self) -> ScalarExpr:
        name_tok = self.advance()
        func = name_tok.text
        arity = _UFUNCS[func].nin
        self.expect_punct("(", f"after {func!r}")
        with self.level(name_tok):
            args = [self.parse_expr()]
            height = self.height
            while self.match_punct(","):
                args.append(self.parse_expr())
                height = max(height, self.height)
            self.height = height
        close = self.expect_punct(")", f"to close the arguments of {func!r}")
        if len(args) != arity:
            raise ParseError(
                f"{func} takes exactly {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                name_tok.span.merge(close.span),
            )
        return Op(func, tuple(args), name_tok.span.merge(close.span))


def parse_scalar(text: str) -> ScalarExpr:
    """Parse one scalar expression; the whole input must be consumed."""
    tokens = tokenize(text)
    parser = _ScalarParser(tokens)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != EOF:
        raise ParseError(f"trailing input: found {trailing.describe()}", trailing.span)
    return node


class CompiledExpr:
    """An expression compiled once into a tree of closures.

    ``evaluate(x, y=None, regs=None)``: both calls run each node's ufunc
    on the same operands, so they give the same bits.  With no register
    file every node allocates its value.  ``regs`` is a sequence of
    at least ``registers`` writable float64 arrays of the output's shape,
    into which the inputs broadcast; then node k writes its value into
    register k (a node's first operand shares its register, the second
    takes the next one), and the result is ``regs[0]``.  Only a subtree
    that reads one variable or none, and so is smaller than the output
    unless that variable has the output's shape, allocates its value as in
    a plain call; nothing else is allocated.  A register call runs under
    the caller's ``np.errstate``; a plain call ignores floating-point
    errors.  ``node`` is the expression compiled, ``height`` its number of
    levels above the leaves, and ``variables`` maps each variable it reads
    to its left-most ``Var``.

    ``symmetric``: the expression has no ``pow``, and it equals its x-y
    swap once the two operands of every ``+``, ``*``, ``min`` and ``max``
    are put in one order.  Then f(a, b) and f(b, a) differ at most in the
    sign of a zero result, are NaN together and raise together: IEEE
    ``+`` and ``*`` commute bit for bit, ``min`` and ``max`` up to the sign
    of a zero (``np.minimum(0.0, -0.0)`` is -0.0, and with the operands
    swapped 0.0), and no other operation but ``pow`` (``pow(-0.0, -1)``
    is -inf) turns the sign of a zero into a difference in magnitude.
    Likewise f(a, +0) and f(a, -0) differ at most in the sign of a zero
    and raise together, since division by either zero raises; the
    associativity screen of ``analysis._walk_cube`` rests on both facts.

    ``divides``: the expression has a ``/``.  Division is the one
    operation that raises once both variables are bound, so without one
    an evaluation on arrays never raises.
    """

    __slots__ = ("_run", "divides", "height", "node", "registers", "symmetric", "variables")

    def __init__(self, node: ScalarExpr):
        self.node = node
        self._run, top, self.variables, self.height, self.divides = _compile(node, 0)
        self.registers = max(1, top + 1)
        form = _commuted_form(node, False)
        self.symmetric = form is not None and form == _commuted_form(node, True)

    def __call__(self, x, y=None, regs=None):
        if regs is not None:
            out = self._run(x, y, regs)
            if out is not regs[0]:  # the whole expression is a variable or a number
                np.copyto(regs[0], out)
            return regs[0]
        with np.errstate(all="ignore"):
            out = self._run(x, y, None)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return out
        return float(out)


def _compile(node: ScalarExpr, r: int):
    """``(run, top, names, height, divides)``: ``run(x, y, regs)``
    evaluates ``node`` as register r, ``top`` is the highest register it
    writes, -1 for a leaf, ``names`` maps each variable it reads to its
    left-most ``Var``, ``height`` counts its levels above the leaves, and
    ``divides`` tells whether it has a ``/``."""
    if isinstance(node, Num):
        value = node.value
        return (lambda x, y, regs: value), -1, {}, 0, False
    if isinstance(node, Var):
        first, name, span = node.name == "x", node.name, node.span

        def run_var(x, y, regs):
            bound = x if first else y
            if bound is None:
                raise UnboundVariableError(f"variable {name!r} is not bound", span)
            return bound
        return run_var, -1, {name: node}, 0, False
    if not isinstance(node, Op):
        raise TypeError(f"not a scalar expression node: {node!r}")
    ufunc = np.negative if (node.op, len(node.args)) == ("-", 1) else _UFUNCS[node.op]
    compiled = [_compile(kid, r + i) for i, kid in enumerate(node.args)]
    top = max(r, *(kid_top for _, kid_top, *_ in compiled))
    names = {name: var for _, _, kid_names, *_ in reversed(compiled)
             for name, var in kid_names.items()}
    height = 1 + max(kid_height for *_, kid_height, _ in compiled)
    below = any(kid_divides for *_, kid_divides in compiled)
    if len(compiled) == 1:
        operand = compiled[0][0]

        def run_unary(x, y, regs):
            return ufunc(operand(x, y, regs), out=None if regs is None else regs[r])
        return _in_own_shape(run_unary, names, r), top, names, height, below
    (left, *_), (right, *_) = compiled
    divides, span = ufunc is np.divide, node.span

    def run_binary(x, y, regs):
        a = left(x, y, regs)
        b = right(x, y, regs)
        if divides and not np.all(b):  # some divisor is 0 or -0
            raise DivisionByZeroError("division by zero", span)
        return ufunc(a, b, out=None if regs is None else regs[r])
    return _in_own_shape(run_binary, names, r), top, names, height, divides or below


def substitute(node: ScalarExpr, replace) -> ScalarExpr:
    """``node`` with each ``Var`` v replaced by ``replace(v)``; every
    other node keeps its span."""
    if isinstance(node, Var):
        return replace(node)
    if isinstance(node, Num):
        return node
    return Op(node.op, tuple(substitute(arg, replace) for arg in node.args), node.span)


_COMMUTATIVE = frozenset(("+", "*", "min", "max"))
_SWAPPED = {"x": "y", "y": "x"}


def _commuted_form(node: ScalarExpr, swap: bool):
    """``node`` as nested tuples, ``x`` and ``y`` exchanged if ``swap``,
    the two operands of each commutative operation in sorted order; None
    if it calls ``pow``."""
    if isinstance(node, Num):
        return ("num", node.value)
    if isinstance(node, Var):
        return ("var", _SWAPPED[node.name] if swap else node.name)
    forms = [_commuted_form(arg, swap) for arg in node.args]
    if node.op == "pow" or None in forms:
        return None
    return (node.op, *(sorted(forms) if node.op in _COMMUTATIVE else forms))


def _in_own_shape(run, names, r: int):
    """``run`` as it is for a node that reads both variables, whose value
    has the output's shape.  A subtree that reads one variable or none has
    that variable's shape or none; where that is smaller than register r,
    it is evaluated as in a plain call instead of being broadcast through
    the register: ``1 - x`` on a column of a cube tile costs the column,
    not the tile."""
    if len(names) == 2:
        return run
    first = "x" in names

    def run_in_own_shape(x, y, regs):
        if regs is not None and (not names or np.size(x if first else y) < regs[r].size):
            regs = None
        return run(x, y, regs)
    return run_in_own_shape


# ---------------------------------------------------------------------------
# Pretty printer: canonical spacing, minimal parentheses.  Re-parsing the
# rendering of any parseable input yields a structurally identical AST.

_BIN_PREC = {"+": 0, "-": 0, "*": 1, "/": 1}
_UNARY_PREC = 2


def pretty_print(node: ScalarExpr) -> str:
    return _fmt(node, -1, False)


def format_number(value: float) -> str:
    """Decimal rendering that re-parses to the identical float."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        # repr fell back to exponent form, which the grammar rejects.
        text = np.format_float_positional(value, unique=True, trim="-")
    return text


def _fmt(node: ScalarExpr, parent_prec: int, is_right: bool) -> str:
    if isinstance(node, Num):
        if not math.isfinite(node.value):
            raise ParseError(f"number {node.value!r} is not finite", node.span)
        return format_number(node.value)
    if isinstance(node, Var):
        return node.name
    if node.op in _FUNCTIONS:
        args = ", ".join(_fmt(arg, -1, False) for arg in node.args)
        return f"{node.op}({args})"
    if len(node.args) == 1:
        text = "-" + _fmt(node.args[0], _UNARY_PREC, False)
        prec = _UNARY_PREC
    else:
        prec = _BIN_PREC[node.op]
        left, right = node.args
        text = f"{_fmt(left, prec, False)} {node.op} {_fmt(right, prec, True)}"
    if prec < parent_prec or (prec == parent_prec and is_right):
        return f"({text})"
    return text
