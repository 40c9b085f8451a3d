"""The value contract of the package's record types: frozen, compared and
hashed by their fields (AST spans excepted), never equal across types,
built positionally or by keyword, and validated on construction."""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from fuzzysoft.analysis import (AxiomCheck, AxiomReport, CheckConfig, ClassificationReport,
                                EquilibriumEntry, EquilibriumResult, Witness, ZeroDivisor)
from fuzzysoft.connectives import (KIND_TNORM, LIFT_TNORM, LiftedConnective, ScalarConnective,
                                   builtin)
from fuzzysoft.errors import ValidationError
from fuzzysoft.expr import Num, Op, SourceSpan, Token, Var, parse_scalar
from fuzzysoft.script import Assign, NameRef, Print, Save, Script, ScriptResult, SetOp
from fuzzysoft.sets import FuzzySet, FuzzySoftSet, Universe
from fuzzysoft.tags import ParamTag, TaggedMembership

SPAN = SourceSpan(0, 1, 1, 1)
OTHER_SPAN = SourceSpan(4, 9, 2, 3)
S, G = NameRef("S", SPAN), NameRef("G", SPAN)
U = Universe(("u1", "u2"))
WITNESS = Witness((0.25, 0.5), 0.75, 0.5, "==")
CHECK = AxiomCheck("T1", "commutativity", False, WITNESS, 100)
ENTRY = EquilibriumEntry("a", 0.5, 0.0, True)

#: (type, keyword arguments in field order); AST rows end with a span.
CASES = [
    (CheckConfig, dict(grid_steps=8, random_samples=10, tolerance=1e-6, seed=3)),
    (Witness, dict(args=(0.25, 0.5), got=0.75, want=0.5, relation="==")),
    (AxiomCheck, dict(label="T1", description="commutativity", passed=False, witness=WITNESS,
                      points=100, param="a")),
    (AxiomReport, dict(kind="tnorm", candidate="product", config=CheckConfig(), checks=(CHECK,))),
    (ZeroDivisor, dict(value=0.5, witness=0.25)),
    (ClassificationReport, dict(candidate="lukasiewicz", grid_steps=4, tolerance=1e-9,
                                idempotents=(0.0, 1.0), nilpotents=(0.5,),
                                zero_divisors=(ZeroDivisor(0.5, 0.5),))),
    (EquilibriumEntry, dict(label="a", value=0.5, residual=0.0, is_equilibrium=True, note="n")),
    (EquilibriumResult, dict(entries=(ENTRY,), tolerance=1e-9)),
    (LiftedConnective, dict(kind=LIFT_TNORM, scalar=builtin("product"), family=None,
                            default=None)),
    (ScalarConnective, dict(name="product", arity=2, kind=KIND_TNORM, continuity=True,
                            fn=builtin("product").fn, expr=None)),
    (SourceSpan, dict(start=0, end=3, line=1, column=1)),
    (Token, dict(kind="number", text="1", span=SPAN, value=1.0)),
    (Universe, dict(elements=("u1", "u2"))),
    (FuzzySet, dict(universe=U, memberships=(0.25, 1.0))),
    (FuzzySoftSet, dict(universe=U, tags=(ParamTag.parse("a"),), values=[[0.25, 1.0]])),
    (TaggedMembership, dict(tag=ParamTag.parse("a"), value=0.5)),
    (Script, dict(statements=(Print(S, SPAN),))),
    (ScriptResult, dict(printed=("S",), saved=(), env={"S": 1})),
    (Num, dict(value=1.5, span=SPAN)),
    (Var, dict(name="x", span=SPAN)),
    (Op, dict(op="-", args=(Num(1.5, SPAN),), span=SPAN)),
    (Op, dict(op="+", args=(Var("x", SPAN), Num(1.5, SPAN)), span=SPAN)),
    (Op, dict(op="min", args=(Var("x", SPAN), Var("y", SPAN)), span=SPAN)),
    (NameRef, dict(name="S", span=SPAN)),
    (SetOp, dict(connective=builtin("standard-negation"), operands=(S,), span=SPAN)),
    (SetOp, dict(connective=builtin("product"), operands=(S, G), span=SPAN)),
    (Assign, dict(name="H", expr=S, span=SPAN)),
    (Print, dict(expr=S, span=SPAN)),
    (Save, dict(expr=S, path="out.fss", span=SPAN)),
]
AST_NODES = (Num, Var, Op, NameRef, SetOp, Assign, Print, Save)
#: The three ``Op`` rows: a unary minus, an operator and a function.
OP_KINDS = {"-": "minus", "+": "operator", "min": "function"}
#: The two ``SetOp`` rows, by their number of operands.
SETOP_KINDS = {1: "unary", 2: "binary"}
IDS = [f"Op-{OP_KINDS[kwargs['op']]}" if cls is Op
       else f"SetOp-{SETOP_KINDS[len(kwargs['operands'])]}" if cls is SetOp
       else cls.__name__ for cls, kwargs in CASES]


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
def test_records_are_frozen(cls, kwargs):
    record = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, kwargs):
    positional, by_keyword = cls(*kwargs.values()), cls(**kwargs)
    assert positional == by_keyword and not positional != by_keyword
    if cls is ScriptResult:  # its env is a dict
        with pytest.raises(TypeError):
            hash(positional)
    else:
        assert hash(positional) == hash(by_keyword)
    assert positional != object() and positional != tuple(kwargs.values())


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
def test_repr_names_every_field(cls, kwargs):
    if cls in (TaggedMembership, ScalarConnective):  # each prints itself in its own form
        return
    record = cls(**kwargs)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in kwargs)
    assert repr(record) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
def test_missing_unknown_and_repeated_arguments_raise_type_error(cls, kwargs):
    names = list(kwargs)
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), kwargs[names[0]])
    with pytest.raises(TypeError):
        cls(kwargs[names[0]], **kwargs)
    if cls is not CheckConfig:  # every field has a default
        with pytest.raises(TypeError):
            cls(**{name: kwargs[name] for name in names[1:]})


@pytest.mark.parametrize("cls, kwargs", [case for case in CASES if case[0] in AST_NODES],
                         ids=[i for case, i in zip(CASES, IDS) if case[0] in AST_NODES])
def test_ast_nodes_ignore_their_span(cls, kwargs):
    here, there = cls(**kwargs), cls(**{**kwargs, "span": OTHER_SPAN})
    assert here == there and hash(here) == hash(there)
    assert here.span != there.span


def test_tokens_compare_their_span():
    assert Token("number", "1", SPAN, 1.0) != Token("number", "1", OTHER_SPAN, 1.0)


@pytest.mark.parametrize("first, second", [
    (Print(S, SPAN), Op("-", (S,), SPAN)),
    (SetOp(builtin("standard-negation"), (S,), SPAN), Print(S, SPAN)),
    (NameRef("x", SPAN), Var("x", SPAN)),
    (Op("-", (S,), SPAN), SetOp(builtin("standard-negation"), (S,), SPAN)),
], ids=["print-neg", "setop-print", "nameref-var", "neg-setop"])
def test_records_of_different_types_are_unequal(first, second):
    assert first != second and second != first
    assert not first == second


def test_defaults_and_keyword_construction():
    assert CheckConfig() == CheckConfig(64, 10000, 1e-9, 0)
    assert CheckConfig(seed=5) == CheckConfig(64, 10000, 1e-9, 5)
    assert CheckConfig(32, tolerance=1e-3).to_dict() == {
        "grid_steps": 32, "random_samples": 10000, "tolerance": 1e-3, "seed": 0}
    token = Token("eof", "", SPAN)
    assert token.value is None and token == Token("eof", "", SPAN, None)
    assert AxiomCheck("T1", "d", True, None, 4).param is None
    assert LiftedConnective(LIFT_TNORM).scalar is None


def test_scalar_connectives_compare_their_metadata_not_their_body():
    product = builtin("product")
    assert repr(product) == "ScalarConnective('product', arity=2, kind='t-norm')"
    assert product.expr is None
    other_body = ScalarConnective("product", 2, KIND_TNORM, True, lambda x, y: x * y,
                                  parse_scalar("x * y"))
    assert product == other_body and hash(product) == hash(other_body)
    assert product != ScalarConnective("product", 2, KIND_TNORM, False, product.fn)


def test_post_init_validation_still_runs():
    with pytest.raises(ValueError, match="grid_steps must be >= 2"):
        CheckConfig(grid_steps=1)
    with pytest.raises(ValueError, match="invalid span"):
        SourceSpan(2, 1, 1, 1)
    with pytest.raises(ValidationError, match="at least one element"):
        Universe(())


def test_post_init_normalises_fields():
    assert Universe(["u1", "u2"]).elements == ("u1", "u2")
    assert TaggedMembership(ParamTag.parse("a"), 1).value == 1.0


def test_importing_the_cli_builds_only_the_kept_dataclass():
    # Each dataclass compiles its methods with exec when its module is
    # imported; only ParamTag is worth that cost: its slots keep a set's
    # tags small once they are read, and FuzzySoftSet.approximation bisects
    # the tags by its ordering.
    probe = """
import dataclasses, sys
import fuzzysoft.cli
found = sorted({f"{value.__module__}.{value.__qualname__}"
                for name, module in list(sys.modules.items())
                if name == "fuzzysoft" or name.startswith("fuzzysoft.")
                for value in vars(module).values()
                if isinstance(value, type) and dataclasses.is_dataclass(value)
                and value.__module__.startswith("fuzzysoft")})
print(" ".join(found))
"""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert out == ["fuzzysoft.tags.ParamTag"]
