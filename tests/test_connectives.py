import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzysoft import (
    ArityError,
    CodomainError,
    MissingLabelError,
    ParamTag,
    ParseError,
    TaggedMembership,
    UnknownBuiltinError,
    apply_connective,
    builtin,
    builtin_names,
    check_tnorm_axioms,
    classify_elements,
    dual_of,
    eval_lifted,
    lift_implication,
    lift_negation,
    lift_tconorm,
    lift_tnorm,
    make_fuzzy_soft_set,
    resolve_connective,
    scalar_from_expression,
)
from fuzzysoft.analysis import CheckConfig, check_implication_axioms, check_tconorm_axioms
from fuzzysoft.connectives import (_BUILTINS, MAX_DUAL_HEIGHT, ScalarConnective,
                                   into_unit_interval)
from fuzzysoft.expr import CompiledExpr, format_number

units = st.floats(0, 1)


def tm(label, value):
    return TaggedMembership(ParamTag(label), value)


# --- builtins ----------------------------------------------------------------

def test_builtin_product_value():
    assert float(builtin("product")(0.5, 0.4)) == 0.2


def test_builtin_lukasiewicz_values():
    luk = builtin("lukasiewicz")
    assert float(luk(0.8, 0.1)) == 0.0
    assert float(luk(0.1, 0.1)) == 0.0
    assert abs(float(luk(0.8, 0.8)) - 0.6) <= 1e-12


def test_builtin_conorm_values():
    assert float(builtin("probsum")(0.5, 0.5)) == 0.75
    assert float(builtin("boundedsum")(0.7, 0.7)) == 1.0
    assert float(builtin("maximum")(0.0, 0.4)) == 0.4


def test_builtin_implication_values():
    luk = builtin("lukasiewicz-implication")
    assert float(luk(1.0, 0.4)) == 0.4
    assert float(luk(0.0, 0.4)) == 1.0
    assert abs(float(luk(0.7, 0.4)) - 0.7) <= 1e-12
    godel = builtin("godel-implication")
    assert float(godel(0.3, 0.7)) == 1.0
    assert float(godel(0.7, 0.3)) == 0.3
    kd = builtin("kleene-dienes-implication")
    assert float(kd(0.8, 0.3)) == pytest.approx(0.3)


def _godel(x, y):
    return np.where(x <= y, 1.0, y)


def test_godel_implication_gives_the_bits_of_its_definition():
    godel = builtin("godel-implication")
    assert "pow" not in _BUILTINS["godel-implication"][2]  # np.power is slow per element
    rng = np.random.default_rng(11)
    x = rng.random(10**5)
    special = np.array([-0.0, 0.0, 5e-324, 1e-323, 1e-310, 2.0**-1022, 0.5, 1 - 2**-53, 1.0])
    g = np.arange(257) / 256
    pairs = [(g[:, None], g), (x, rng.random(x.size)), (special[:, None], special)]
    # Adjacent floats, both ways round: x - y is then the smallest it gets.
    for near in (np.nextafter(x, 2.0), np.nextafter(x, -1.0)):
        near = np.clip(near, 0.0, 1.0)
        pairs += [(x, near), (near, x)]
    for a, b in pairs:
        want = np.broadcast_to(_godel(a, b), np.broadcast_shapes(a.shape, b.shape))
        assert np.array_equal(godel(a, b).view(np.uint64), want.view(np.uint64))
    closure = ScalarConnective(godel.name, 2, godel.kind, True, _godel)
    cfg = CheckConfig(grid_steps=64, random_samples=2000)
    assert (check_implication_axioms(godel, cfg).to_dict()
            == check_implication_axioms(closure, cfg).to_dict())


def test_builtin_negations():
    std = builtin("standard-negation")
    assert float(std(0.0)) == 1.0
    assert float(std(1.0)) == 0.0
    sug = builtin("sugeno(1)")
    assert float(sug(0.0)) == 1.0
    assert float(sug(1.0)) == 0.0
    assert float(sug(0.5)) == pytest.approx(1.0 / 3.0)


def test_builtin_metadata():
    assert builtin("product").kind == "t-norm"
    assert builtin("maximum").kind == "t-conorm"
    assert builtin("standard-negation").kind == "negation"
    assert builtin("godel-implication").kind == "implication"
    assert all(builtin(n).continuity for n in
               ("product", "minimum", "lukasiewicz", "maximum", "probsum", "boundedsum"))


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltinError):
        builtin("einstein")
    with pytest.raises(UnknownBuiltinError):
        builtin("sugeno(-1)")  # parameter must be > -1
    with pytest.raises(UnknownBuiltinError):
        builtin("sugeno(oops)")
    for name in ("sugeno(inf)", "sugeno(1e400)"):  # the parameter must be finite
        with pytest.raises(UnknownBuiltinError, match="finite"):
            builtin(name)
    assert "product" in builtin_names()


# --- builtins against the numpy bodies their expressions replaced ------------

def _product(x, y):
    return x * y


def _minimum(x, y):
    return np.minimum(x, y)


def _lukasiewicz(x, y):
    return np.maximum(x + y - 1.0, 0.0)


def _maximum(x, y):
    return np.maximum(x, y)


def _probsum(x, y):
    return x + y - x * y


def _boundedsum(x, y):
    return np.minimum(1.0, x + y)


def _standard_negation(x):
    return 1.0 - x


def _lukasiewicz_implication(x, y):
    return np.minimum(1.0, 1.0 - x + y)


def _kleene_dienes_implication(x, y):
    return np.maximum(1.0 - x, y)


def _sugeno(lam):
    def fn(x):
        return (1.0 - x) / (1.0 + lam * x)
    return fn


_REFERENCE_BODIES = {
    "product": _product, "minimum": _minimum, "lukasiewicz": _lukasiewicz,
    "maximum": _maximum, "probsum": _probsum, "boundedsum": _boundedsum,
    "standard-negation": _standard_negation,
    "lukasiewicz-implication": _lukasiewicz_implication,
    "kleene-dienes-implication": _kleene_dienes_implication,
}
_SPECIAL_VALUES = [-0.0, 0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, 1e-300, 0.5]
_SUGENO_PARAMETERS = [-1.0 + 2.0**-52, -0.9999999, -0.5, -0.0, 0.0, 0.5, 1.0, 3.25,
                      123456.789, 1e20, 1e308]


def _bits(value):
    return np.asarray(value, dtype=float).view(np.uint64).tobytes()


def _assert_same_bits(conn, reference, xs, ys=None):
    """A broadcast call, a call into NaN-filled registers and calls on
    Python floats all give the bits of the reference body."""
    args = (np.array(xs),) if ys is None else (np.array(xs)[:, None], np.array(ys)[None, :])
    want = reference(*args)
    assert _bits(conn(*args)) == _bits(want)
    regs = [np.full(np.shape(want), np.nan) for _ in range(conn.fn.registers)]
    assert _bits(conn.fn(*args, regs=regs)) == _bits(want)
    for point in zip(xs) if ys is None else itertools.product(xs, ys):
        assert _bits(conn(*point)) == _bits(reference(*point))


@settings(deadline=None)
@given(xs=st.lists(units, min_size=1, max_size=12), ys=st.lists(units, min_size=1, max_size=12),
       name=st.sampled_from(sorted(_REFERENCE_BODIES)))
def test_builtin_expressions_give_the_bits_of_the_numpy_bodies(xs, ys, name):
    conn = builtin(name)
    _assert_same_bits(conn, _REFERENCE_BODIES[name], xs, None if conn.arity == 1 else ys)


@pytest.mark.parametrize("name", sorted(_REFERENCE_BODIES))
def test_builtin_expressions_give_the_bits_of_the_numpy_bodies_at_special_values(name):
    conn = builtin(name)
    _assert_same_bits(conn, _REFERENCE_BODIES[name], _SPECIAL_VALUES,
                      None if conn.arity == 1 else _SPECIAL_VALUES)


def _assert_sugeno_bits(lam, xs):
    conn = builtin(f"sugeno({lam!r})")
    assert conn.name == f"sugeno({format_number(lam)})"
    _assert_same_bits(conn, _sugeno(lam), xs)


@settings(deadline=None)
@given(xs=st.lists(units, min_size=1, max_size=12),
       lam=st.floats(-1.0, 1e308, exclude_min=True, allow_nan=False))
def test_sugeno_expression_gives_the_bits_of_its_numpy_body(xs, lam):
    _assert_sugeno_bits(lam, xs)


@pytest.mark.parametrize("lam", _SUGENO_PARAMETERS)
def test_sugeno_expression_gives_the_bits_of_its_numpy_body_at_special_values(lam):
    _assert_sugeno_bits(lam, _SPECIAL_VALUES)


def test_grammar_md_lists_the_builtin_table():
    # The two rows that are not expression text: the Goedel implication
    # needs a conditional, and sugeno(L) is built from its parameter.
    grammar = (Path(__file__).parents[1] / "docs" / "grammar.md").read_text(encoding="utf-8")
    section = grammar.split("\n## Builtin connectives\n")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, arity, kind, definition = (c.strip() for c in line.strip("|").split("|"))
            rows[name.strip("`")] = (int(arity), kind, definition)
    assert rows.pop("sugeno(L)") == (1, "negation", "`(1 - x) / (1 + L * x)`, `L > -1`")
    assert rows.pop("godel-implication") == (2, "implication", "`1 if x <= y else y`")
    assert rows == {name: (arity, kind, f"`{body}`") for name, (arity, kind, body)
                    in _BUILTINS.items() if name != "godel-implication"}


def test_expression_connectives():
    conn = scalar_from_expression("x*y", arity=2)
    assert conn(0.5, 0.4) == 0.2
    neg = scalar_from_expression("1-x", arity=1)
    assert neg(0.25) == 0.75
    with pytest.raises(ParseError):
        scalar_from_expression("1-y", arity=1)


def test_an_expression_connective_is_unary_or_binary():
    with pytest.raises(ArityError, match="^connective arity must be 1 or 2, got 3$"):
        scalar_from_expression("x", arity=3)


def test_arity_enforced_on_call():
    with pytest.raises(ArityError):
        builtin("product")(0.5)
    with pytest.raises(ArityError):
        builtin("standard-negation")(0.5, 0.4)


# --- lifting -----------------------------------------------------------------

def test_tnorm_lift_boundary_and_tag():
    T = lift_tnorm(builtin("product"))
    out = T(tm("a", 1.0), tm("b", 0.37))
    assert out.tag == ParamTag(("a", "b"))
    assert out.value == 0.37


def test_lukasiewicz_lift_values():
    T = lift_tnorm(builtin("lukasiewicz"))
    assert T(tm("a", 0.8), tm("b", 0.1)).value == 0.0
    got = T(tm("a", 0.8), tm("b", 0.8))
    assert got.tag.text == "a*b"
    assert abs(got.value - 0.6) <= 1e-12


def test_minimum_lift_idempotent_diagonal():
    T = lift_tnorm(builtin("minimum"))
    for x in np.linspace(0, 1, 9):
        assert T(tm("a", x), tm("b", x)).value == x


def test_tconorm_lift_boundary():
    S = lift_tconorm(builtin("maximum"))
    assert S(tm("a", 0.0), tm("b", 0.4)).value == 0.4
    assert lift_tconorm(builtin("probsum"))(tm("a", 0.5), tm("b", 0.5)).value == 0.75
    assert lift_tconorm(builtin("boundedsum"))(tm("a", 0.7), tm("b", 0.7)).value == 1.0


def test_implication_lift_boundaries():
    K = lift_implication(builtin("lukasiewicz-implication"))
    assert K(tm("a", 1.0), tm("b", 0.4)).value == 0.4
    assert K(tm("a", 0.0), tm("b", 0.4)).value == 1.0
    assert abs(K(tm("a", 0.7), tm("b", 0.4)).value - 0.7) <= 1e-12


def test_lift_rejects_wrong_arity():
    with pytest.raises(ArityError):
        lift_tnorm(builtin("standard-negation"))
    with pytest.raises(ArityError):
        lift_negation(builtin("product"))
    with pytest.raises(ArityError):
        lift_implication(builtin("sugeno(1)"))


def test_a_negation_lift_refuses_a_default_it_cannot_use():
    negation = builtin("standard-negation")
    with pytest.raises(ArityError, match="^a uniform negation lift does not take a default$"):
        lift_negation(negation, default=negation)
    with pytest.raises(MissingLabelError, match="^negation family is empty and has no default$"):
        lift_negation({})
    assert lift_negation({}, default=negation).default is negation


def test_negation_lift_preserves_tag():
    N = lift_negation(builtin("standard-negation"))
    out = N(tm("a", 0.3))
    assert out.tag == ParamTag("a")
    assert out.value == 0.7
    assert N(tm("a", 1.0)).value == 0.0
    assert N(tm("a", 0.0)).value == 1.0


def test_negation_double_application_identity():
    N = lift_negation(builtin("standard-negation"))
    # exact on machine-uniform values (multiples of 2**-53)
    rng = np.random.default_rng(7)
    for x in rng.random(50):
        assert N(N(tm("a", x))).value == x


def test_negation_family_resolution():
    N = lift_negation(
        {"a1": builtin("standard-negation"), "a2": builtin("sugeno(1)")},
    )
    assert N(tm("a1", 0.25)).value == 0.75
    assert N(tm("a2", 0.0)).value == 1.0
    with pytest.raises(MissingLabelError):
        N(tm("zz", 0.5))
    with_default = lift_negation(
        {"a1": builtin("sugeno(1)")}, default=builtin("standard-negation")
    )
    assert with_default(tm("zz", 0.25)).value == 0.75


def test_negation_family_finds_each_label_among_its_neighbours():
    # Labels that sort next to one another and to the product tags looked up.
    labels = ["a", "a*b", "ab", "b", "b*b"]
    scalars = {label: builtin(f"sugeno({i})") for i, label in enumerate(labels)}
    N = lift_negation(scalars)
    for label in labels:
        assert N.scalar_for(ParamTag.parse(label)) is scalars[label]
    fallback = lift_negation(scalars, default=builtin("standard-negation"))
    for missing in ("a*a", "aa", "A", "c", "b*c"):
        with pytest.raises(MissingLabelError, match=re.escape(f"no entry for label '{missing}'")):
            N.scalar_for(ParamTag.parse(missing))
        assert fallback.scalar_for(ParamTag.parse(missing)) is fallback.default


def test_each_lookup_of_a_builtin_is_a_new_connective_around_one_compiled_body():
    first, second = builtin("lukasiewicz"), builtin(" lukasiewicz ")
    assert first == second and first is not second
    assert first.fn is second.fn
    assert builtin("sugeno(1)").fn is not builtin("sugeno(1)").fn


def test_eval_lifted_commutes_for_product():
    T = lift_tnorm(builtin("product"))
    left = eval_lifted(T, tm("a", 0.62), tm("b", 0.31))
    right = eval_lifted(T, tm("b", 0.31), tm("a", 0.62))
    assert left == right


@given(units, units, units)
def test_eval_lifted_associative_for_product(x, y, z):
    T = lift_tnorm(builtin("product"))
    a, b, c = tm("a", x), tm("b", y), tm("c", z)
    lhs = T(a, T(b, c))
    rhs = T(T(a, b), c)
    assert lhs.tag == rhs.tag
    assert abs(lhs.value - rhs.value) <= 1e-12


def test_codomain_violation_raises():
    doubled = scalar_from_expression("x*y*2", arity=2)
    T = lift_tnorm(doubled)
    with pytest.raises(CodomainError):
        T(tm("a", 0.9), tm("b", 0.9))


def test_near_boundary_drift_is_clamped():
    drift = scalar_from_expression("1-x*0-y*0+0.0000000000000000001", arity=2)
    T = lift_tnorm(drift)
    assert T(tm("a", 0.5), tm("b", 0.5)).value == 1.0


def test_eval_lifted_arity_mismatch():
    T = lift_tnorm(builtin("product"))
    with pytest.raises(ArityError):
        eval_lifted(T, tm("a", 0.5))
    N = lift_negation(builtin("standard-negation"))
    with pytest.raises(ArityError):
        eval_lifted(N, tm("a", 0.5), tm("b", 0.5))


# --- duality -----------------------------------------------------------------

_DUAL_PAIRS = [("minimum", "maximum"), ("product", "probsum"), ("lukasiewicz", "boundedsum")]


@pytest.mark.parametrize("tnorm_name,tconorm_name", _DUAL_PAIRS)
def test_dual_matches_paired_builtin_on_grid(tnorm_name, tconorm_name):
    dual = dual_of(builtin(tnorm_name))
    mate = builtin(tconorm_name)
    g = np.arange(65) / 64
    diff = np.abs(dual(g[:, None], g[None, :]) - mate(g[:, None], g[None, :]))
    assert float(diff.max()) <= 1e-12
    assert dual.kind == "t-conorm"


def test_dual_flips_kind_both_ways():
    assert dual_of(builtin("maximum")).kind == "t-norm"
    assert dual_of(builtin("lukasiewicz-implication")).kind == "unclassified"
    assert dual_of(builtin("product")).continuity is True


@given(units, units)
def test_dual_is_an_involution_pointwise(x, y):
    f = builtin("lukasiewicz")
    twice = dual_of(dual_of(f))
    assert abs(float(twice(x, y)) - float(f(x, y))) <= 1e-12


def test_dual_needs_binary():
    with pytest.raises(ArityError):
        dual_of(builtin("standard-negation"))


# --- the compiled dual against the closure it replaces ------------------------------

def _closure_dual(fn):
    """The reference dual: ``fn`` wrapped in a numpy closure."""
    return lambda x, y: 1.0 - fn(1.0 - x, 1.0 - y)


#: Symmetric and asymmetric expressions, two with ``pow`` (one infinite at
#: x = 0) and one raising on the grid.
_DUAL_EXPRESSIONS = ["x*y", "min(x, y) - x*y/4", "pow(x, 2) * y", "pow(x, -1) * y",
                     "x/(y - 0.5)", "-x + abs(y - x)"]
_DUAL_CANDIDATES = [builtin(name) for name in ("product", "minimum", "lukasiewicz", "maximum",
                                               "probsum", "boundedsum",
                                               "lukasiewicz-implication", "godel-implication",
                                               "kleene-dienes-implication")]
_DUAL_CANDIDATES += [scalar_from_expression(text) for text in _DUAL_EXPRESSIONS]
_SPECIAL = np.array([-0.0, 0.0, 5e-324, 1e-300, 0.25, 1 / 3, 0.5, 1 - 2**-53, 1.0])


def _outcome(call, *args):
    """The report (as JSON, where NaN equals NaN) or the bits that
    ``call(*args)`` returns, or its error's type, message and span."""
    try:
        out = call(*args)
    except Exception as err:
        return type(err), str(err), getattr(err, "span", None)
    if hasattr(out, "to_dict"):
        return json.dumps(out.to_dict(), sort_keys=True)
    return np.asarray(out, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("scalar", _DUAL_CANDIDATES, ids=lambda scalar: scalar.name)
def test_the_dual_of_a_compiled_connective_is_compiled(scalar):
    dual = dual_of(scalar)
    assert isinstance(dual.fn, CompiledExpr)
    assert dual.fn.symmetric == scalar.fn.symmetric
    assert dual.expr is None and dual.name == f"dual({scalar.name})"
    assert dual.fn.variables == scalar.fn.variables


@pytest.mark.parametrize("scalar", _DUAL_CANDIDATES, ids=lambda scalar: scalar.name)
def test_the_compiled_dual_gives_the_bits_and_errors_of_the_closure(scalar):
    g = np.concatenate([_SPECIAL, np.linspace(0, 1, 41)])
    compiled, reference = dual_of(scalar).fn, _closure_dual(scalar.fn)
    twice, reference_twice = dual_of(dual_of(scalar)).fn, _closure_dual(reference)
    for x, y in [(g[:, None], g[None, :]), (g[None, :], g[:, None]), (0.3, -0.0),
                 (-0.0, 0.5), (0.0, 1.0), (1, 0)]:
        assert _outcome(compiled, x, y) == _outcome(reference, x, y)
        assert _outcome(twice, x, y) == _outcome(reference_twice, x, y)
    assert type(compiled(0.3, 0.6)) is type(reference(0.3, 0.6))


@pytest.mark.parametrize("scalar", _DUAL_CANDIDATES, ids=lambda scalar: scalar.name)
def test_the_compiled_dual_gives_the_check_reports_of_the_closure(scalar):
    dual = dual_of(scalar)
    reference = ScalarConnective(dual.name, 2, dual.kind, dual.continuity,
                                 _closure_dual(scalar.fn))
    for cfg in (CheckConfig(grid_steps=16, random_samples=200),
                CheckConfig(grid_steps=41, random_samples=100, seed=5)):
        for check in (check_tnorm_axioms, check_tconorm_axioms, check_implication_axioms):
            assert _outcome(check, dual, cfg) == _outcome(check, reference, cfg)


def test_nested_library_duals_compile_up_to_the_height_bound_and_still_evaluate():
    g = np.concatenate([_SPECIAL, np.linspace(0, 1, 11)])[:, None]
    dual = builtin("godel-implication")  # 8 levels tall
    reference = dual.fn
    heights = []
    for _ in range(400):
        dual, reference = dual_of(dual), _closure_dual(reference)
        heights.append(getattr(dual.fn, "height", None))
    compiled = list(range(10, MAX_DUAL_HEIGHT + 1, 2))
    assert heights == compiled + [None] * (400 - len(compiled))
    assert _outcome(dual, g, g.T) == _outcome(reference, g, g.T)


def test_kind_metadata_does_not_affect_evaluation():
    as_unclassified = scalar_from_expression("x*y", arity=2)
    as_builtin = builtin("product")
    for x, y in [(0.1, 0.9), (0.5, 0.5), (1.0, 0.3)]:
        assert as_unclassified(x, y) == float(as_builtin(x, y))


_BINARY_BUILTINS = (
    "product", "minimum", "lukasiewicz", "maximum", "probsum", "boundedsum",
    "lukasiewicz-implication", "godel-implication", "kleene-dienes-implication",
)


@given(units, units, st.sampled_from(_BINARY_BUILTINS))
def test_lift_is_scalar_on_values_and_product_on_tags(x, y, name):
    # lifting only combines tags; the value is exactly the scalar's output
    scalar = builtin(name)
    lifted = lift_tnorm(scalar) if name != "godel-implication" else lift_implication(scalar)
    out = lifted(tm("p", x), tm("q", y))
    assert out.tag == ParamTag(("p", "q"))
    assert out.value == float(scalar(x, y))


# --- one arity gate ---------------------------------------------------------------

def test_every_binary_use_rejects_a_unary_connective_in_one_wording():
    s = make_fuzzy_soft_set(["u"], {"a": (0.5,)})
    negation = builtin("standard-negation")
    uses = [
        lambda: apply_connective(negation, s, s),
        lambda: apply_connective(lift_negation(negation), s, s),
        lambda: check_tnorm_axioms(negation),
        lambda: classify_elements(negation),
        lambda: dual_of(negation),
        lambda: lift_tnorm(negation),
        lambda: resolve_connective("standard-negation", 2),
    ]
    for use in uses:
        with pytest.raises(ArityError) as err:
            use()
        assert str(err.value) == (
            "connective 'standard-negation' has arity 1, but this use needs arity 2")
    with pytest.raises(ArityError, match="has arity 2, but this use needs arity 1"):
        lift_negation({"a": builtin("product")})
    with pytest.raises(ArityError, match="not a scalar connective"):
        check_tnorm_axioms(lift_tnorm(builtin("product")))


def test_apply_refuses_a_negation_family_by_its_arity_under_its_name():
    s = make_fuzzy_soft_set(["u"], {"a": (0.5,)})
    n = builtin("standard-negation")
    families = {"family(a: standard-negation)": lift_negation({"a": n}),
                "family(a: sugeno(1), *: standard-negation)": lift_negation(
                    {"a": builtin("sugeno(1)")}, default=n)}
    for name, family in families.items():
        with pytest.raises(ArityError) as err:
            apply_connective(family, s, s)
        assert str(err.value) == f"connective {name!r} has arity 1, but this use needs arity 2"
    # A lift passed where a scalar is needed keeps its message, whatever its arity.
    for lift in (lift_negation(n), families["family(a: standard-negation)"]):
        with pytest.raises(ArityError, match="^not a scalar connective: LiftedConnective"):
            check_tnorm_axioms(lift)


def test_a_family_name_shows_its_default_under_a_star():
    n, sugeno = builtin("standard-negation"), builtin("sugeno(2)")
    assert lift_negation({"b": n, "a": sugeno}).name == "family(a: sugeno(2), b: standard-negation)"
    assert (lift_negation({"a": n}, default=sugeno).name
            == "family(a: standard-negation, *: sugeno(2))")
    assert lift_negation({}, default=sugeno).name == "family(*: sugeno(2))"
    assert lift_negation(n).name == "standard-negation"


def test_into_unit_interval_clamps_arrays_and_names_the_first_fault_lazily():
    calls = []

    def context(index):
        calls.append(index)
        return f"value {index}"

    out = into_unit_interval(np.array([[-1e-13, 0.5], [1.0 + 1e-13, -0.0]]), context)
    assert out.tolist() == [[0.0, 0.5], [1.0, 0.0]] and np.signbit(out[1, 1])
    assert into_unit_interval(0.25, context) == 0.25 and calls == []
    with pytest.raises(CodomainError, match=r"value \(1, 0\) produced 1.5") as err:
        into_unit_interval(np.array([[0.5, 0.5], [1.5, 2.0]]), context)
    assert err.value.index == (1, 0) and calls == [(1, 0)]
