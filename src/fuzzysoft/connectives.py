"""Scalar connectives on [0, 1] and their parameter-tagged lifts.

A scalar connective is a unary or binary function on the unit interval,
either a named builtin or a parsed expression.  Lifting turns a scalar
into an operation on tagged memberships: binary lifts combine the two
tags into their canonical product and apply the scalar to the values;
negation lifts keep the tag and map the value.

Builtin names are stable identifiers, also used by the expression
language and the command line.  ``_BUILTINS`` below is the table of them,
and docs/grammar.md lists each with its definition.

Lift constructors do not verify axioms; verification lives in
``fuzzysoft.analysis``.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from functools import cache
from operator import itemgetter
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ArityError,
    CodomainError,
    MissingLabelError,
    ParseError,
    UnknownBuiltinError,
    ValidationError,
)
from .expr import (
    MAX_DEPTH,
    CompiledExpr,
    Num,
    Op,
    ScalarExpr,
    format_number,
    parse_scalar,
    pretty_print,
    substitute,
)
from .record import Record
from .tags import RESERVED_SEPARATOR, ParamTag, TaggedMembership, combine_tags

# Scalar connective kinds (metadata only; never affects evaluation).
KIND_TNORM = "t-norm"
KIND_TCONORM = "t-conorm"
KIND_NEGATION = "negation"
KIND_IMPLICATION = "implication"
KIND_UNCLASSIFIED = "unclassified"

# Lifted connective kinds.
LIFT_TNORM = "fuzzy-soft-t-norm"
LIFT_TCONORM = "fuzzy-soft-t-conorm"
LIFT_NEGATION = "fuzzy-soft-negation"
LIFT_IMPLICATION = "fuzzy-soft-implication"

#: Outputs within this distance of [0, 1] are clamped; anything farther
#: out is a codomain violation.
CLAMP_TOLERANCE = 1e-12

#: The label of a (label, scalar) entry of a negation family.
_LABEL = itemgetter(0)


class ScalarConnective(Record):
    """A unary or binary function on [0, 1].

    ``kind`` and ``continuity`` are declared metadata: evaluation depends
    only on the arity and the body.  Nothing in the package reads
    ``continuity``, and it proves nothing: it is ``True`` for every
    builtin, the discontinuous ``godel-implication`` included.  Calling
    the connective accepts floats or numpy arrays and returns the raw,
    unclamped result.  ``fn``, the body, may be any elementwise callable;
    ``==`` ignores it and ``expr``.
    """

    _uncompared = ("fn", "expr")

    name: str
    arity: int
    kind: str
    continuity: bool
    fn: Callable
    expr: ScalarExpr | None = None

    def __call__(self, x, y=None):
        if self.arity == 1:
            if y is not None:
                raise ArityError(f"{self.name!r} is unary, got 2 arguments")
            return self.fn(x)
        if y is None:
            raise ArityError(f"{self.name!r} is binary, got 1 argument")
        return self.fn(x, y)

    def __repr__(self) -> str:
        return f"ScalarConnective({self.name!r}, arity={self.arity}, kind={self.kind!r})"


#: name -> (arity, kind, body).  A body is the expression text of the
#: docs/grammar.md definition, compiled at its first lookup.  The Goedel
#: implication's definition, 1 if x <= y else y, is a conditional that the
#: language does not have; its text gives the same bits on [0, 1] without
#: pow, which costs tens of times as much per element: x > y implies
#: fl(x - y) >= 5e-324, and that times (10**308)**3 overflows to inf.
_E308 = "1" + "0" * 308
_BUILTINS: dict[str, tuple[int, str, str]] = {
    "product": (2, KIND_TNORM, "x * y"),
    "minimum": (2, KIND_TNORM, "min(x, y)"),
    "lukasiewicz": (2, KIND_TNORM, "max(x + y - 1, 0)"),
    "maximum": (2, KIND_TCONORM, "max(x, y)"),
    "probsum": (2, KIND_TCONORM, "x + y - x * y"),
    "boundedsum": (2, KIND_TCONORM, "min(1, x + y)"),
    "standard-negation": (1, KIND_NEGATION, "1 - x"),
    "lukasiewicz-implication": (2, KIND_IMPLICATION, "min(1, 1 - x + y)"),
    "godel-implication": (2, KIND_IMPLICATION,
                          f"max(1 - min(1, max(x - y, 0) * {_E308} * {_E308} * {_E308}), y)"),
    "kleene-dienes-implication": (2, KIND_IMPLICATION, "max(1 - x, y)"),
}

_SUGENO_RE = re.compile(r"^sugeno\((.*)\)$")


def builtin_names() -> tuple[str, ...]:
    """All builtin identifiers, with ``sugeno(L)`` shown parametrically."""
    return tuple(sorted(_BUILTINS)) + ("sugeno(L)",)


@cache
def _compiled_builtin(name: str) -> CompiledExpr:
    return CompiledExpr(parse_scalar(_BUILTINS[name][2]))


def builtin(name: str) -> ScalarConnective:
    """A new connective for the builtin with this stable identifier;
    ``sugeno`` takes its parameter inline, e.g. ``sugeno(1)``, and is
    compiled per lookup, every other body once."""
    name = name.strip()
    if name in _BUILTINS:
        arity, kind, _ = _BUILTINS[name]
        fn = _compiled_builtin(name)
    elif match := _SUGENO_RE.match(name):
        try:
            lam = float(match.group(1))
        except ValueError:
            raise UnknownBuiltinError(
                f"sugeno parameter {match.group(1)!r} is not a number"
            ) from None
        if not -1.0 < lam < math.inf:
            raise UnknownBuiltinError(
                f"sugeno parameter must be finite and > -1, got {lam!r}")
        # The compiled division never finds a zero divisor on [0, 1]: for
        # finite lam > -1, rounding is monotone, so
        # fl(1 + fl(lam * x)) >= fl(1 + lam) > 0.
        lam_text = format_number(lam)
        name, arity, kind = f"sugeno({lam_text})", 1, KIND_NEGATION
        fn = CompiledExpr(parse_scalar(f"(1 - x) / (1 + {lam_text} * x)"))
    else:
        raise UnknownBuiltinError(
            f"unknown builtin {name!r}; known names: {', '.join(builtin_names())}"
        )
    return ScalarConnective(name=name, arity=arity, kind=kind, continuity=True, fn=fn)


def scalar_from_parsed(ast: ScalarExpr, arity: int = 2) -> ScalarConnective:
    """Wrap an already-parsed expression AST, compiled once, as an
    unclassified scalar connective.  It is not declared continuous:
    finitely many samples cannot prove continuity."""
    if arity not in (1, 2):
        raise ArityError(f"connective arity must be 1 or 2, got {arity}")
    fn = CompiledExpr(ast)
    if arity == 1 and "y" in fn.variables:
        raise ParseError("unary connective must not reference 'y'", fn.variables["y"].span)
    return ScalarConnective(name=pretty_print(ast), arity=arity, kind=KIND_UNCLASSIFIED,
                            continuity=False, fn=fn, expr=ast)


def scalar_from_expression(text: str, arity: int = 2) -> ScalarConnective:
    """Build a scalar connective from expression source text.

    Unary connectives use the variable ``x`` only; referencing ``y`` in a
    unary connective is rejected with the offending span.
    """
    return scalar_from_parsed(parse_scalar(text), arity=arity)


def require_arity(scalar, arity: int) -> ScalarConnective:
    """Return ``scalar`` if it is a scalar connective of the given arity;
    otherwise raise ``ArityError``."""
    if not isinstance(scalar, ScalarConnective):
        raise ArityError(f"not a scalar connective: {scalar!r}")
    return check_arity(scalar, arity)


def check_arity(conn, arity: int):
    """Return ``conn``, a scalar connective or a lift, if it has the given
    arity; otherwise raise ``ArityError``."""
    if conn.arity != arity:
        raise ArityError(f"connective {conn.name!r} has arity {conn.arity}, "
                         f"but this use needs arity {arity}")
    return conn


def resolve_connective(text: str, arity: int = 2) -> ScalarConnective:
    """Resolve ``text`` as a builtin name first, else parse it as an expression."""
    try:
        return require_arity(builtin(text), arity)
    except UnknownBuiltinError:
        return scalar_from_expression(text, arity=arity)


#: Tallest dual that ``dual_of`` compiles.  A dual is two levels taller
#: than its connective, and a script nests fewer than ``MAX_DEPTH`` duals
#: around a builtin at most 8 levels tall or an ``fn`` body that shares
#: the nesting limit, so every script's dual is at most 2 * MAX_DEPTH + 6
#: levels tall.  At this height, compiling a dual takes 605 frames on
#: Python 3.11 and evaluating it 453, which leaves room below Python's
#: default recursion limit of 1000 for the caller and for the closures
#: that wrap anything taller: 400 nested ``dual_of`` calls evaluate.
MAX_DUAL_HEIGHT = 3 * MAX_DEPTH


def dual_of(scalar: ScalarConnective) -> ScalarConnective:
    """The order-dual of a binary scalar under the standard negation:
    ``g(x, y) = 1 - f(1 - x, 1 - y)``.

    Turns a t-norm into a t-conorm and back; any other kind becomes
    unclassified.  No symbolic simplification: the dual of a compiled
    expression (every builtin and parsed expression) is compiled from its
    tree, each ``Var`` replaced by ``1 - Var`` at the variable's span and
    the whole wrapped in ``1 - (...)`` at the root's span, so it gives the
    bits and errors of the closure ``1.0 - f(1.0 - x, 1.0 - y)``.  That
    closure is the dual of any other ``fn``, and of a dual taller than
    ``MAX_DUAL_HEIGHT``.
    """
    require_arity(scalar, 2)
    kind = {KIND_TNORM: KIND_TCONORM, KIND_TCONORM: KIND_TNORM}.get(
        scalar.kind, KIND_UNCLASSIFIED
    )
    inner = scalar.fn
    if isinstance(inner, CompiledExpr) and inner.height + 2 <= MAX_DUAL_HEIGHT:
        span = inner.node.span
        body = substitute(inner.node, lambda var: Op("-", (Num(1.0, var.span), var), var.span))
        fn = CompiledExpr(Op("-", (Num(1.0, span), body), span))
    else:
        def fn(x, y):
            return 1.0 - inner(1.0 - x, 1.0 - y)

    return ScalarConnective(
        name=f"dual({scalar.name})", arity=2, kind=kind,
        continuity=scalar.continuity, fn=fn,
    )


class LiftedConnective(Record):
    """A scalar connective lifted to tagged memberships.

    Binary kinds map ``((a, x), (b, y))`` to ``(combine(a, b), f(x, y))``.
    The negation kind preserves the tag: ``(a, x) -> (a, n_a(x))``, where
    ``n_a`` may come from a per-tag family with an optional default.  A
    family is keyed by canonical tag text and sorted by it.
    """

    kind: str
    scalar: ScalarConnective | None = None
    family: tuple[tuple[str, ScalarConnective], ...] | None = None
    default: ScalarConnective | None = None

    @property
    def arity(self) -> int:
        return 1 if self.kind == LIFT_NEGATION else 2

    @property
    def name(self) -> str:
        if self.scalar is not None:
            return self.scalar.name
        # The default is named under the separator, which is never a label.
        named = (self.family or ()) + ((RESERVED_SEPARATOR, self.default),) * bool(self.default)
        return f"family({', '.join(f'{label}: {s.name}' for label, s in named)})"

    def scalar_for(self, tag: ParamTag) -> ScalarConnective:
        """Resolve the unary scalar for a tag (negations only).

        Family lookup uses the tag's canonical text, so product tags need
        an explicit entry or a default; the family is sorted by label.
        """
        if self.scalar is not None:
            return self.scalar
        family, label = self.family or (), tag.text
        i = bisect_left(family, label, key=_LABEL)
        scalar = family[i][1] if i < len(family) and family[i][0] == label else self.default
        if scalar is None:
            raise MissingLabelError(
                f"negation family has no entry for label {tag.text!r} and no default"
            )
        return scalar

    def __call__(self, *args: TaggedMembership) -> TaggedMembership:
        return eval_lifted(self, *args)


def _lift_binary(scalar: ScalarConnective, lift_kind: str) -> LiftedConnective:
    return LiftedConnective(kind=lift_kind, scalar=require_arity(scalar, 2))


def lift_tnorm(scalar: ScalarConnective) -> LiftedConnective:
    """Lift a scalar t-norm; the caller asserts (or has verified) its axioms."""
    return _lift_binary(scalar, LIFT_TNORM)


def lift_tconorm(scalar: ScalarConnective) -> LiftedConnective:
    """Lift a scalar t-conorm; the caller asserts (or has verified) its axioms."""
    return _lift_binary(scalar, LIFT_TCONORM)


def lift_implication(scalar: ScalarConnective) -> LiftedConnective:
    """Lift a scalar implication; the caller asserts (or has verified) its axioms."""
    return _lift_binary(scalar, LIFT_IMPLICATION)


def lift_negation(
    scalars: ScalarConnective | Mapping[str, ScalarConnective] | LiftedConnective,
    default: ScalarConnective | None = None,
) -> LiftedConnective:
    """Lift a negation: one unary scalar for every parameter, or a
    tag-to-scalar family with an optional default.  A negation lift is
    returned as it is; any other lift raises ``ArityError``.

    Each family key is read as a tag with ``ParamTag.parse`` and kept as
    its canonical text, so ``"b*a"`` is the entry of tag ``a*b``.  A
    malformed key (``""``, ``"a**b"``) raises ``ParamTag``'s
    ``ValidationError``, as do two keys that name one tag.
    """
    if isinstance(scalars, LiftedConnective) and default is None:
        if scalars.kind != LIFT_NEGATION:
            raise ArityError(f"expected a negation lift, got kind {scalars.kind!r}")
        return scalars
    if not isinstance(scalars, Mapping):
        if default is not None:
            raise ArityError("a uniform negation lift does not take a default")
        return LiftedConnective(kind=LIFT_NEGATION, scalar=require_arity(scalars, 1))
    family, keys = [], {}
    for key, scalar in scalars.items():
        tag = ParamTag.parse(key)
        if (first := keys.setdefault(tag, key)) != key:
            raise ValidationError(f"negation family keys {first!r} and {key!r} are the "
                                  f"same canonical tag {tag.text!r}")
        family.append((tag.text, require_arity(scalar, 1)))
    if default is not None:
        require_arity(default, 1)
    if not family and default is None:
        raise MissingLabelError("negation family is empty and has no default")
    return LiftedConnective(
        kind=LIFT_NEGATION, family=tuple(sorted(family)), default=default
    )


def into_unit_interval(value, context: Callable[[tuple[int, ...]], str]):
    """Clamp near-boundary floating-point drift; reject real violations.

    ``value`` is a float or an array.  Values within ``CLAMP_TOLERANCE`` of
    [0, 1] are snapped to the boundary; anything farther out (including
    NaN) raises ``CodomainError`` for the first such value in C order.
    ``context(index)`` names where that value came from; it is called only
    on failure.
    """
    v = np.asarray(value, dtype=float)
    inside = (v >= -CLAMP_TOLERANCE) & (v <= 1.0 + CLAMP_TOLERANCE)
    if not inside.all():
        index = tuple(map(int, np.unravel_index(np.argmin(inside), v.shape)))
        raise CodomainError(
            f"{context(index)} produced {float(v[index])!r}, outside [0, 1]", index
        )
    out = np.clip(v, 0.0, 1.0)
    return out if out.ndim else float(out)


def eval_lifted(conn: LiftedConnective, *args: TaggedMembership) -> TaggedMembership:
    """Apply a lifted connective to tagged memberships.

    Binary kinds produce the canonical product tag; negations keep the
    input tag.  The scalar output is codomain-checked (with near-boundary
    clamping) before the result is built.
    """
    if conn.arity == 1:
        if len(args) != 1:
            raise ArityError(f"negation lift takes 1 argument, got {len(args)}")
        (arg,) = args
        scalar = conn.scalar_for(arg.tag)
        value = into_unit_interval(
            scalar(arg.value),
            lambda _: f"negation {scalar.name!r} at ({arg.tag.text}, {arg.value!r})",
        )
        return TaggedMembership(arg.tag, value)
    if len(args) != 2:
        raise ArityError(f"{conn.kind} takes 2 arguments, got {len(args)}")
    first, second = args
    raw = conn.scalar(first.value, second.value)
    tag = combine_tags(first.tag, second.tag)
    value = into_unit_interval(
        raw,
        lambda _: f"connective {conn.scalar.name!r} at (({first.tag.text}, {first.value!r}), "
        f"({second.tag.text}, {second.value!r}))",
    )
    return TaggedMembership(tag, value)
