"""Set-level scripts: assignments, printing and saving of fuzzy soft sets
composed with union, intersect, complement and connective application.
``union`` and ``intersect`` parse as ``apply`` of the builtin that
``sets.SET_OPERATIONS`` names for them.

Statement forms (full EBNF in docs/grammar.md)::

    H = union(S, G);
    K = apply(dual(product), S, G);
    L = apply(fn(x, y) => x * y, S, G);
    print H;
    save(H, "out.fss");

Free identifiers must be declared external at parse time (the CLI passes
the names bound via ``--bind``); everything else must be assigned before
use, and builtin connective names cannot be shadowed.  ``apply`` and
``dual`` take binary connectives only, resolved at parse time: a unary
builtin there, such as ``sugeno(1)``, is a ``ParseError`` at its name.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Union

from .connectives import (
    ScalarConnective,
    builtin_names,
    dual_of,
    resolve_builtin,
    scalar_from_parsed,
)
from .errors import (
    ArityError,
    FuzzySoftError,
    ParseError,
    ScriptRuntimeError,
    UndefinedNameError,
    UnknownBuiltinError,
)
from .expr import (
    EOF,
    IDENT,
    NUMBER,
    PUNCT,
    STRING,
    _FUNCTIONS,
    _VARIABLES,
    SourceSpan,
    SyntaxNode,
    Token,
    _ScalarParser,
    tokenize,
)
from .fileio import save_fss
from .record import Record
from .sets import SET_OPERATIONS, FuzzySoftSet, apply_connective, complement_fss, render_fss

#: The script's words, the set operations, the functions and the variables.
_KEYWORDS = frozenset({"print", "save", "apply", "complement", "dual", "fn",
                       *SET_OPERATIONS, *_FUNCTIONS, *_VARIABLES})

#: Names no assignment may take: the keywords and the builtin names.
_UNASSIGNABLE = _KEYWORDS | {name.partition("(")[0] for name in builtin_names()}


# --- AST ------------------------------------------------------------------

class NameRef(SyntaxNode):
    name: str
    span: SourceSpan


class ComplementOp(SyntaxNode):
    operand: "SetExpr"
    span: SourceSpan


class ApplyOp(SyntaxNode):
    connective: ScalarConnective
    left: "SetExpr"
    right: "SetExpr"
    span: SourceSpan


SetExpr = Union[NameRef, ComplementOp, ApplyOp]


class Assign(SyntaxNode):
    name: str
    expr: SetExpr
    span: SourceSpan


class Print(SyntaxNode):
    expr: SetExpr
    span: SourceSpan


class Save(SyntaxNode):
    expr: SetExpr
    path: str
    span: SourceSpan


Statement = Union[Assign, Print, Save]


class Script(Record):
    statements: tuple[Statement, ...]


# --- Parser ----------------------------------------------------------------

class _ScriptParser(_ScalarParser):
    def __init__(self, tokens: list[Token], externals: Iterable[str]):
        super().__init__(tokens)
        self.defined: set[str] = set()
        for name in externals:
            try:
                read = [(token.kind, token.text) for token in tokenize(name)]
            except (ParseError, TypeError):
                read = None
            if read != [(IDENT, name), (EOF, "")]:
                raise ParseError(f"external name {name!r} is not an identifier")
            self.define(name)

    def define(self, name: str, span: SourceSpan | None = None) -> None:
        """Define ``name``, which no keyword or builtin name may be."""
        if name in _UNASSIGNABLE:
            raise ParseError(f"cannot shadow the builtin name {name!r}", span)
        self.defined.add(name)

    def parse_script(self) -> Script:
        statements = []
        while self.peek().kind != EOF:
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == IDENT and tok.text == "print":
            self.advance()
            expr = self.parse_setexpr()
            end = self.expect_punct(";", "to end the print statement")
            return Print(expr, tok.span.merge(end.span))
        if tok.kind == IDENT and tok.text == "save":
            self.advance()
            self.expect_punct("(", "after 'save'")
            expr = self.parse_setexpr()
            self.expect_punct(",", "between the set and the target path")
            path_tok = self.peek()
            if path_tok.kind != STRING:
                raise ParseError(
                    f'expected a quoted path like "out.fss", found {path_tok.describe()}',
                    path_tok.span,
                )
            self.advance()
            self.expect_punct(")", "to close 'save'")
            end = self.expect_punct(";", "to end the save statement")
            return Save(expr, path_tok.text[1:-1], tok.span.merge(end.span))
        if tok.kind == IDENT:
            name_tok = self.advance()
            self.expect_punct("=", f"after identifier {name_tok.text!r}")
            expr = self.parse_setexpr()
            end = self.expect_punct(";", "to end the assignment")
            self.define(name_tok.text, name_tok.span)
            return Assign(name_tok.text, expr, name_tok.span.merge(end.span))
        raise ParseError(f"expected a statement, found {tok.describe()}", tok.span)

    def parse_setexpr(self) -> SetExpr:
        tok = self.peek()
        if tok.kind != IDENT:
            raise ParseError(f"expected a set expression, found {tok.describe()}", tok.span)
        if tok.text == "complement":
            self.advance()
            self.expect_punct("(", "after 'complement'")
            with self.level(tok):
                operand = self.parse_setexpr()
            end = self.expect_punct(")", "to close 'complement'")
            return ComplementOp(operand, tok.span.merge(end.span))
        if tok.text in ("apply", *SET_OPERATIONS):
            self.advance()
            self.expect_punct("(", f"after {tok.text!r}")
            with self.level(tok):
                if tok.text == "apply":
                    conn = self.parse_connective()
                    self.expect_punct(",", "after the connective")
                else:
                    conn = resolve_builtin(SET_OPERATIONS[tok.text], 2)
                left = self.parse_setexpr()
                self.expect_punct(",", f"between the operands of {tok.text!r}")
                right = self.parse_setexpr()
            end = self.expect_punct(")", f"to close {tok.text!r}")
            return ApplyOp(conn, left, right, tok.span.merge(end.span))
        name_tok = self.advance()
        if name_tok.text in _KEYWORDS:
            raise ParseError(
                f"{name_tok.text!r} cannot be used as a set name here", name_tok.span
            )
        if name_tok.text not in self.defined:
            raise UndefinedNameError(
                f"undefined identifier {name_tok.text!r}", name_tok.span
            )
        return NameRef(name_tok.text, name_tok.span)

    def parse_connective(self) -> ScalarConnective:
        """A resolved binary connective: a builtin, ``dual(c)`` or ``fn(x, y) => e``."""
        tok = self.peek()
        if tok.kind == IDENT and tok.text == "dual":
            self.advance()
            self.expect_punct("(", "after 'dual'")
            with self.level(tok):
                inner = self.parse_connective()
            self.expect_punct(")", "to close 'dual'")
            return dual_of(inner)
        if tok.kind == IDENT and tok.text == "fn":
            self.advance()
            self.expect_punct("(", "after 'fn'")
            for name, place, punct, context in (("x", "first", ",", "between fn parameters"),
                                                ("y", "second", ")", "after fn parameters")):
                param = self.expect_ident(f"as the {place} parameter")
                if param.text != name:
                    raise ParseError(f"inline fn parameters are (x, y), found {param.text!r}",
                                     param.span)
                self.expect_punct(punct, context)
            self.expect_punct("=>", "before the fn body")
            return scalar_from_parsed(self.parse_expr(), arity=2)
        if tok.kind == IDENT:
            return self.parse_builtin_name()
        raise ParseError(f"expected a connective, found {tok.describe()}", tok.span)

    def parse_builtin_name(self) -> ScalarConnective:
        """A binary builtin by name: hyphen-joined identifiers, optionally
        with a numeric parameter, e.g. ``lukasiewicz-implication``."""
        first = self.advance()
        name, span = first.text, first.span
        while (self.peek().kind == PUNCT and self.peek().text == "-"
               and self.tokens[self.pos + 1].kind == IDENT):
            self.advance()
            part = self.advance()
            name, span = f"{name}-{part.text}", span.merge(part.span)
        if self.match_punct("("):
            sign = "-" if self.match_punct("-") else ""
            num = self.peek()
            if num.kind != NUMBER:
                raise ParseError(
                    f"expected a numeric parameter for {name!r}, found {num.describe()}",
                    num.span,
                )
            self.advance()
            end = self.expect_punct(")", f"to close the parameter of {name!r}")
            name = f"{name}({sign}{num.text})"
            span = span.merge(end.span)
        try:
            return resolve_builtin(name, 2)
        except (UnknownBuiltinError, ArityError) as err:
            raise ParseError(str(err), span) from None


def parse_script(text: str, externals: Iterable[str] = ()) -> Script:
    """Parse a script; identifiers must be assigned before use or listed
    in ``externals`` (names the caller promises to bind at evaluation).
    An external name is held to the assignment rule: one identifier token,
    not a keyword or builtin name; any other is a ``ParseError``."""
    tokens = tokenize(text)
    parser = _ScriptParser(tokens, externals)
    return parser.parse_script()


# --- Evaluator ---------------------------------------------------------------

class ScriptResult(Record):
    """Outputs of a script run: printed renderings, saved paths, final
    name bindings."""

    printed: tuple[str, ...]
    saved: tuple[str, ...]
    env: dict[str, FuzzySoftSet]


def eval_script(
    script: Script,
    env: Mapping[str, FuzzySoftSet] | None = None,
    base_dir: str | Path | None = None,
) -> ScriptResult:
    """Execute statements in order against the given name bindings.

    Set operations failing mid-script (universe mismatch, codomain
    violation, tag collision) are re-raised as ``ScriptRuntimeError``
    with the statement's span attached.  Saved paths resolve relative to
    ``base_dir`` (default: the current directory).
    """
    bindings: dict[str, FuzzySoftSet] = dict(env or {})
    printed: list[str] = []
    saved: list[str] = []
    base = Path(base_dir) if base_dir is not None else Path(".")

    def eval_set(node: SetExpr) -> FuzzySoftSet:
        if isinstance(node, NameRef):
            value = bindings.get(node.name)
            if value is None:
                raise UndefinedNameError(
                    f"identifier {node.name!r} has no bound value", node.span
                )
            return value
        if isinstance(node, ComplementOp):
            return complement_fss(eval_set(node.operand))
        if isinstance(node, ApplyOp):
            return apply_connective(node.connective, eval_set(node.left), eval_set(node.right))
        raise TypeError(f"not a set expression node: {node!r}")

    for statement in script.statements:
        try:
            if isinstance(statement, Assign):
                bindings[statement.name] = eval_set(statement.expr)
            elif isinstance(statement, Print):
                printed.append(render_fss(eval_set(statement.expr)))
            elif isinstance(statement, Save):
                value = eval_set(statement.expr)
                target = base / statement.path
                save_fss(value, target)
                saved.append(str(target))
            else:
                raise TypeError(f"not a statement node: {statement!r}")
        except FuzzySoftError as err:
            if isinstance(err, UndefinedNameError):
                raise
            raise ScriptRuntimeError(str(err), statement.span) from err
    return ScriptResult(tuple(printed), tuple(saved), bindings)
