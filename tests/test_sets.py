import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzysoft import (
    ArityError,
    CheckConfig,
    CodomainError,
    DivisionByZeroError,
    FuzzySoftError,
    FuzzySoftSet,
    MissingLabelError,
    ParamTag,
    ProductSizeError,
    ScalarConnective,
    TagCollisionError,
    TaggedMembership,
    Universe,
    UniverseMismatchError,
    ValidationError,
    apply_connective,
    builtin,
    check_negation_axioms,
    check_tnorm_axioms,
    complement_fss,
    dual_of,
    eval_lifted,
    find_equilibria,
    intersect_fss,
    lift_negation,
    lift_tnorm,
    load_fss,
    make_fuzzy_soft_set,
    negate_fss,
    render_fss,
    save_fss,
    scalar_from_expression,
    tau_family,
    union_fss,
)
from fuzzysoft import sets
from fuzzysoft.analysis import MAX_ARRAY_VALUES as CHECK_MAX_ARRAY_VALUES
from fuzzysoft.connectives import (CLAMP_TOLERANCE, LiftedConnective, into_unit_interval,
                                   require_arity)
from fuzzysoft.sets import APPLY_BLOCK_VALUES, MAX_ARRAY_VALUES, MAX_PAIRS
from fuzzysoft.tags import combine_tags


def fss(universe, assignments):
    return make_fuzzy_soft_set(universe, assignments)


# --- construction -------------------------------------------------------------

def test_direct_construction():
    s = fss(["u1", "u2"], {"a1": (0.3, 0.7)})
    assert len(s) == 1
    assert s["a1"].memberships == (0.3, 0.7)


def test_out_of_range_membership_names_tag_and_element():
    with pytest.raises(ValidationError) as err:
        fss(["u1", "u2"], {"a1": (0.3, 1.2)})
    message = str(err.value)
    assert "a1" in message and "u2" in message


def test_duplicate_tag_rejected():
    with pytest.raises(ValidationError) as err:
        fss(["u1"], [("a1", (0.3,)), ("a1", (0.4,))])
    assert "a1" in str(err.value)
    # same canonical tag spelled differently is still a duplicate
    with pytest.raises(ValidationError):
        fss(["u1"], [("a1*b1", (0.3,)), ("b1*a1", (0.4,))])


def test_length_mismatch_names_tag():
    with pytest.raises(ValidationError) as err:
        fss(["u1", "u2"], {"a1": (0.3,)})
    assert "a1" in str(err.value)


def test_universe_invariants():
    with pytest.raises(ValidationError):
        Universe(())
    with pytest.raises(ValidationError):
        Universe(("u1", "u1"))
    assert list(Universe.of("u2", "u1")) == ["u2", "u1"]  # order preserved


# --- tau family ----------------------------------------------------------------

def test_tau_single_tag():
    s = fss(["u1", "u2"], {"a1": (0.3, 0.7)})
    assert len(tau_family(s)) == 1


def test_tau_deduplicated_view():
    s = fss(["u1", "u2"], {"a1": (0.3, 0.7), "a2": (0.3, 0.7)})
    assert len(tau_family(s)) == 2
    assert len(tau_family(s, distinct=True)) == 1


def test_tau_sorted_by_tag():
    s = fss(["u"], {"b": (0.2,), "a": (0.1,), "c": (0.3,)})
    assert [f.memberships[0] for f in tau_family(s)] == [0.1, 0.2, 0.3]


# --- complement -----------------------------------------------------------------

def test_complement_values():
    s = fss(["u1", "u2"], {"a1": (0.3, 0.7)})
    c = complement_fss(s)
    assert c["a1"].memberships == (1.0 - 0.3, 1.0 - 0.7)
    zeros = fss(["u1", "u2"], {"a1": (0.0, 0.0)})
    assert complement_fss(zeros)["a1"].memberships == (1.0, 1.0)


def test_complement_is_one_minus_each_value_bit_for_bit():
    rng = np.random.default_rng(7)
    values = rng.random((40, 2000))
    special = [-0.0, 0.0, 5e-324, 1e-310, 2.0**-1022, 1 - 2.0**-53, 1.0]
    values[::3, ::11] = np.resize(special, values[::3, ::11].shape)
    s = FuzzySoftSet(Universe(tuple(f"u{j}" for j in range(2000))),
                     tuple(ParamTag(f"a{i}") for i in range(40)), values)
    assert np.array_equal(complement_fss(s).values.view(np.uint64),
                          (1.0 - s.values).view(np.uint64))


def test_complement_involution_on_machine_uniform_values():
    rng = np.random.default_rng(3)
    s = fss(["u1", "u2", "u3"], {"a1": tuple(rng.random(3)), "a2": tuple(rng.random(3))})
    assert complement_fss(complement_fss(s)) == s


@given(st.lists(st.integers(0, 2**53).map(lambda k: k / 2.0**53), min_size=2, max_size=2))
def test_complement_involution_on_dyadic_lattice(values):
    s = fss(["u1", "u2"], {"a": tuple(values)})
    assert complement_fss(complement_fss(s)) == s


# --- union / intersection --------------------------------------------------------

def test_union_pointwise_max():
    s = fss(["u1", "u2"], {"a1": (0.3, 0.7)})
    g = fss(["u1", "u2"], {"b1": (0.5, 0.2)})
    u = union_fss(s, g)
    assert u.tags == (ParamTag(("a1", "b1")),)
    assert u["a1*b1"].memberships == (0.5, 0.7)


def test_intersection_pointwise_min():
    s = fss(["u1", "u2"], {"a1": (0.3, 0.7)})
    g = fss(["u1", "u2"], {"b1": (0.5, 0.2)})
    i = intersect_fss(s, g)
    assert i["a1*b1"].memberships == (0.3, 0.2)


def test_union_with_zero_operand_keeps_values():
    s = fss(["u1", "u2"], {"a1": (0.31, 0.74)})
    z = fss(["u1", "u2"], {"b1": (0.0, 0.0)})
    assert union_fss(s, z)["a1*b1"].memberships == (0.31, 0.74)


def test_intersection_with_one_operand_keeps_values():
    s = fss(["u1", "u2"], {"a1": (0.31, 0.74)})
    ones = fss(["u1", "u2"], {"b1": (1.0, 1.0)})
    assert intersect_fss(s, ones)["a1*b1"].memberships == (0.31, 0.74)


def test_commutativity_as_set_equality():
    s = fss(["u1", "u2"], {"a1": (0.3, 0.7), "a2": (0.9, 0.1)})
    g = fss(["u1", "u2"], {"b1": (0.5, 0.2)})
    assert union_fss(s, g) == union_fss(g, s)
    assert intersect_fss(s, g) == intersect_fss(g, s)


def test_product_tag_count():
    s = fss(["u"], {"a1": (0.1,), "a2": (0.2,)})
    g = fss(["u"], {"b1": (0.3,), "b2": (0.4,), "b3": (0.5,)})
    assert len(union_fss(s, g)) == 6


def test_universe_mismatch_rejected():
    s = fss(["u1", "u2"], {"a1": (0.3, 0.7)})
    g = fss(["u2", "u1"], {"b1": (0.5, 0.2)})  # same elements, different order
    with pytest.raises(UniverseMismatchError):
        union_fss(s, g)


# --- apply_connective -------------------------------------------------------------

def test_apply_max_reproduces_union_bit_exactly():
    rng = np.random.default_rng(11)
    s = fss(["u1", "u2", "u3"], {"a1": tuple(rng.random(3)), "a2": tuple(rng.random(3))})
    g = fss(["u1", "u2", "u3"], {"b1": tuple(rng.random(3))})
    assert apply_connective(builtin("maximum"), s, g) == union_fss(s, g)
    assert apply_connective(builtin("minimum"), s, g) == intersect_fss(s, g)


def test_apply_product_value():
    s = fss(["u"], {"a1": (0.5,)})
    g = fss(["u"], {"b1": (0.4,)})
    out = apply_connective(builtin("product"), s, g)
    assert out["a1*b1"].memberships == (0.2,)


def test_apply_rejects_unary():
    s = fss(["u"], {"a1": (0.5,)})
    with pytest.raises(Exception):
        apply_connective(builtin("standard-negation"), s, s)


def test_apply_codomain_violation_names_tag_and_element():
    s = fss(["u1", "u2"], {"a1": (0.9, 0.1)})
    g = fss(["u1", "u2"], {"b1": (0.9, 0.1)})
    bad = scalar_from_expression("x*y+1", arity=2)
    with pytest.raises(CodomainError) as err:
        apply_connective(bad, s, g)
    assert "a1*b1" in str(err.value)
    assert "u1" in str(err.value)


def test_commutative_scalar_merges_identical_collisions():
    # both orders of (p, q) collapse onto tag p*q with identical max vectors
    s = fss(["u"], {"p": (0.2,), "q": (0.8,)})
    u = union_fss(s, s)
    assert u.tags == (ParamTag(("p", "p")), ParamTag(("p", "q")), ParamTag(("q", "q")))
    assert u["p*q"].memberships == (0.8,)


@pytest.mark.parametrize("scale, merges", [("0.0000000000005", True),
                                            ("0.000000000001", False)])
def test_collisions_within_the_clamp_tolerance_keep_the_first_pairs_row(scale, merges):
    # (p, q) and (q, p) differ by 1.2 * scale: 6e-13 merges, 1.2e-12 collides.
    s = fss(["u"], {"p": (0.2,), "q": (0.8,)})
    skew = scalar_from_expression(f"max(x, y) + (x - y) * {scale}")
    assert abs(skew(0.2, 0.8) - skew(0.8, 0.2)) > 0.0
    if merges:
        assert apply_connective(skew, s, s)["p*q"].memberships == (skew(0.2, 0.8),)
    else:
        with pytest.raises(TagCollisionError, match=r"^tag pairs \(q, p\) collide on "
                                                    r"canonical tag 'p\*q' with different"):
            apply_connective(skew, s, s)


def test_noncommutative_scalar_collision_is_an_error():
    s = fss(["u"], {"p": (0.2,), "q": (0.8,)})
    residuum = builtin("lukasiewicz-implication")
    # h(0.2, 0.8) = 1 but h(0.8, 0.2) = 0.4 -> same canonical tag, conflicting vectors
    with pytest.raises(TagCollisionError) as err:
        apply_connective(residuum, s, s)
    assert "p*q" in str(err.value)


def test_a_pass_at_the_check_tolerance_does_not_make_the_lift_lawful():
    # A Hamacher product with an epsilon in its divisor passes the t-norm
    # check at tol = 1e-9, but its associativity deviates by up to 2.5e-11,
    # past the 1e-12 within which two colliding pairs merge.
    hamacher = scalar_from_expression("x*y/(x + y - x*y + 0.0000000001)")
    assert check_tnorm_axioms(hamacher, CheckConfig()).passed
    s = fss(["u1", "u2", "u3"], {"a": (0.3, 0.6, 0.9), "b": (0.5, 0.25, 0.75)})
    with pytest.raises(TagCollisionError, match=r"^tag pairs \(b, a\*a\) collide on canonical tag "
                                                r"'a\*a\*b' with different membership vectors$"):
        apply_connective(hamacher, s, apply_connective(hamacher, s, s))


# --- randomized algebra laws -------------------------------------------------------

def _random_fss(rng, universe, max_tags, prefix):
    count = int(rng.integers(1, max_tags + 1))
    labels = rng.choice(
        [f"{prefix}{i}" for i in range(max_tags + 2)], size=count, replace=False
    )
    return make_fuzzy_soft_set(
        universe, {str(label): tuple(rng.random(len(universe))) for label in labels}
    )


def test_randomized_set_algebra_laws():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        size = int(rng.integers(1, 9))
        universe = [f"u{i}" for i in range(size)]
        s = _random_fss(rng, universe, 4, "a")
        g = _random_fss(rng, universe, 4, "b")
        u, i = union_fss(s, g), intersect_fss(s, g)
        assert u == union_fss(g, s)
        assert i == intersect_fss(g, s)
        assert apply_connective(builtin("maximum"), s, g) == u
        assert apply_connective(builtin("minimum"), s, g) == i
        assert complement_fss(complement_fss(s)) == s
        # intersection <= both operands' contribution <= union, pointwise
        for (tag_u, fu), (tag_i, fi) in zip(u.assignments, i.assignments):
            assert tag_u == tag_i
            assert all(a >= b for a, b in zip(fu.memberships, fi.memberships))


# --- set-level laws of the lifted t-norms and t-conorms -------------------------

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
_NORMS = ["product", "minimum", "lukasiewicz", "maximum", "probsum", "boundedsum"]


def _assert_lifted_laws(name, a, b):
    """Commutativity as exact set equality, De Morgan against the dual and
    associativity up to rounding, for operands with disjoint labels; and
    T(A, T(A, A)), whose colliding pairs differ by rounding, is defined."""
    norm = builtin(name)
    lifted = apply_connective(norm, a, b)
    assert lifted == apply_connective(norm, b, a)
    dual = apply_connective(dual_of(norm), complement_fss(a), complement_fss(b))
    complemented = complement_fss(lifted)
    assert dual.tags == complemented.tags
    assert np.allclose(dual.values, complemented.values, rtol=0, atol=1e-9)
    grouped_left = apply_connective(norm, lifted, a)
    grouped_right = apply_connective(norm, a, apply_connective(norm, b, a))
    assert grouped_left.tags == grouped_right.tags
    assert np.allclose(grouped_left.values, grouped_right.values, rtol=0, atol=1e-9)
    apply_connective(norm, a, apply_connective(norm, a, a))


@pytest.mark.parametrize("name", _NORMS)
def test_lifted_norm_laws_on_the_demo_data(name):
    _assert_lifted_laws(name, load_fss(DEMO_DATA / "quality.fss"),
                        load_fss(DEMO_DATA / "price.fss"))


@st.composite
def _disjoint_operands(draw, *alphabets):
    """One drawn set per alphabet, each labelled from its own letters."""
    universe = [f"u{k}" for k in range(draw(st.integers(1, 4)))]

    def one_set(letters):
        labels = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3, unique=True))
        return fss(universe, {label: draw(st.lists(st.floats(0, 1), min_size=len(universe),
                                                   max_size=len(universe)))
                              for label in labels})

    return tuple(map(one_set, alphabets))


@settings(max_examples=50, deadline=None)
@given(_disjoint_operands("abc", "pqr"))
@pytest.mark.parametrize("name", _NORMS)
def test_lifted_norm_laws_on_drawn_sets(name, operands):
    _assert_lifted_laws(name, *operands)


# --- set-level laws of the lifted implications and negations --------------------

_IMPLICATIONS = ["lukasiewicz-implication", "godel-implication", "kleene-dienes-implication"]


def _assert_exchange(name, a, b, c):
    """Exchange I(A, I(B, C)) = I(B, I(A, C)) for operands with disjoint
    labels: equal tags, values within 1e-9."""
    implication = builtin(name)
    left = apply_connective(implication, a, apply_connective(implication, b, c))
    right = apply_connective(implication, b, apply_connective(implication, a, c))
    assert left.tags == right.tags
    assert np.allclose(left.values, right.values, rtol=0, atol=1e-9)


@pytest.mark.parametrize("name", _IMPLICATIONS)
def test_lifted_implication_exchange_on_the_demo_data(name):
    third = fss(["h1", "h2", "h3"], {"quiet": (0.7, 0.0, 1.0), "sunny": (0.35, 0.5, 0.05)})
    _assert_exchange(name, load_fss(DEMO_DATA / "quality.fss"),
                     load_fss(DEMO_DATA / "price.fss"), third)


@settings(max_examples=50, deadline=None)
@given(_disjoint_operands("abc", "pqr", "xyz"))
@pytest.mark.parametrize("name", _IMPLICATIONS)
def test_lifted_implication_exchange_on_drawn_sets(name, operands):
    _assert_exchange(name, *operands)


def _negate(negation, s):
    """The reference for ``negate_fss``: ``s`` with ``eval_lifted`` applied
    to each membership; asserts that every result keeps its input's tag."""
    rows = []
    for tag, row in zip(s.tags, s.values.tolist()):
        results = [eval_lifted(negation, TaggedMembership(tag, value)) for value in row]
        assert all(result.tag == tag for result in results)
        rows.append([result.value for result in results])
    return FuzzySoftSet(s.universe, s.tags, rows)


def _assert_same_bits(got, want):
    assert got.universe == want.universe and got.tags == want.tags
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


@settings(max_examples=50, deadline=None)
@given(_disjoint_operands("abc", "pqr"))
def test_negate_fss_matches_the_per_membership_reference(operands):
    a, b = operands
    lifted = apply_connective(builtin("product"), a, b)
    standard = builtin("standard-negation")
    per_label = {"a": builtin("sugeno(1)"), "p": builtin("sugeno(-0.5)"),
                 "b*q": standard}
    family = lift_negation(per_label, default=builtin("sugeno(3)"))
    for s in (a, b, lifted):
        for negation in (standard, lift_negation(standard), builtin("sugeno(2)")):
            _assert_same_bits(negate_fss(negation, s), _negate(lift_negation(negation), s))
        _assert_same_bits(negate_fss(standard, s), complement_fss(s))
        negated = negate_fss(family, s)
        _assert_same_bits(negated, _negate(family, s))
        # Each tag under its own scalar: its entry, else the default.
        for tag, row, got in zip(s.tags, s.values, negated.values):
            scalar = per_label.get(tag.text, family.default)
            assert np.array_equal(got, np.clip(scalar(row), 0.0, 1.0))


_NEGATIONS = ["standard-negation", "sugeno(-0.9)", "sugeno(-0.5)", "sugeno(1)", "sugeno(3)",
              "sugeno(50)"]
_TOL = CheckConfig().tolerance


def _assert_involution(name, s):
    negation = builtin(name)
    twice = negate_fss(negation, negate_fss(negation, s))
    assert twice.tags == s.tags
    assert np.allclose(twice.values, s.values, rtol=0, atol=_TOL)


@pytest.mark.parametrize("name", _NEGATIONS)
def test_negation_involution_on_the_demo_data(name):
    for document in ("quality.fss", "price.fss"):
        _assert_involution(name, load_fss(DEMO_DATA / document))


@settings(max_examples=50, deadline=None)
@given(_disjoint_operands("abc", "pqr"))
@pytest.mark.parametrize("name", _NEGATIONS)
def test_negation_involution_on_drawn_sets(name, operands):
    a, b = operands
    for s in (a, apply_connective(builtin("product"), a, b)):
        _assert_involution(name, s)


def _assert_de_morgan(norm_name, negation_name, a, b):
    """S(A, B) = N(T(N(A), N(B))) where S is the N-dual of T, and for T =
    minimum, whose N-dual under any strong negation is the maximum, the
    union."""
    norm, negation = builtin(norm_name), builtin(negation_name)
    dual = ScalarConnective(f"{negation_name}-dual({norm_name})", 2, "t-conorm", True,
                            lambda x, y: negation(norm(negation(x), negation(y))))
    want = negate_fss(negation, apply_connective(norm, negate_fss(negation, a),
                                                 negate_fss(negation, b)))
    results = [apply_connective(dual, a, b)]
    if norm_name == "minimum":
        results.append(union_fss(a, b))
    for got in results:
        assert got.tags == want.tags
        assert np.allclose(got.values, want.values, rtol=0, atol=_TOL)


_DE_MORGAN = [(norm, negation) for norm in ("product", "minimum", "lukasiewicz")
              for negation in ("sugeno(-0.5)", "sugeno(1)", "sugeno(3)")]


@pytest.mark.parametrize("norm, negation", _DE_MORGAN)
def test_de_morgan_under_a_sugeno_negation_on_the_demo_data(norm, negation):
    _assert_de_morgan(norm, negation, load_fss(DEMO_DATA / "quality.fss"),
                      load_fss(DEMO_DATA / "price.fss"))


@settings(max_examples=50, deadline=None)
@given(_disjoint_operands("abc", "pqr"))
@pytest.mark.parametrize("norm, negation", _DE_MORGAN)
def test_de_morgan_under_a_sugeno_negation_on_drawn_sets(norm, negation, operands):
    _assert_de_morgan(norm, negation, *operands)


def test_a_product_tag_without_an_entry_or_default_is_refused_before_any_call():
    s = load_fss(DEMO_DATA / "quality.fss")
    product = apply_connective(builtin("product"), s, load_fss(DEMO_DATA / "price.fss"))
    family = {"modern": builtin("sugeno(1)"), "spacious": builtin("standard-negation")}
    with pytest.raises(MissingLabelError, match="no entry for label 'cheap\\*modern' and no"):
        negate_fss(family, product)
    assert negate_fss(lift_negation(family, default=builtin("sugeno(2)")),
                      product).tags == product.tags
    # a's scalar, called first, would raise; the lookup of a*b comes first.
    mixed = fss(["u1", "u2"], {"a": (0.5, 0.5), "a*b": (0.25, 0.5)})
    with pytest.raises(MissingLabelError, match="no entry for label 'a\\*b' and no default"):
        negate_fss({"a": scalar_from_expression("2 - x", arity=1)}, mixed)


def test_a_negation_out_of_range_names_its_tag_and_element():
    s = fss(["u1", "u2"], {"a": (1.0, 1.0), "b": (0.5, 0.5), "c": (1.0, 0.75)})
    family = lift_negation({"b": builtin("standard-negation")},
                           default=scalar_from_expression("2 - x", arity=1))
    with pytest.raises(CodomainError, match="^negation '2 - x' under tag 'c' at element 'u2' "
                                            "produced 1.25, outside"):
        negate_fss(family, s)


def test_each_distinct_negation_is_called_once_on_all_of_its_rows():
    calls = []

    def counted(name, fn):
        def call(x):
            calls.append((name, np.shape(x)))
            return fn(x)
        return ScalarConnective(name, 1, "negation", True, call)

    first, second = counted("n1", lambda x: 1.0 - x), counted("n2", lambda x: (1 - x) / (1 + x))
    s = fss(["u1", "u2"], {"c": (0.5, 1.0), "b": (0.25, 0.0), "a*b": (1.0, 0.5),
                           "a": (0.0, 0.75)})
    assert negate_fss(first, s) == complement_fss(s)
    assert calls == [("n1", (4, 2))]
    calls.clear()
    negated = negate_fss(lift_negation({"b": second}, default=first), s)
    assert calls == [("n1", (3, 2)), ("n2", (1, 2))]  # in the order of each one's first tag
    assert negated.values.tolist() == [[1.0, 0.25], [0.0, 0.5], [0.6, 1.0], [0.5, 0.0]]


@pytest.mark.parametrize("call", [
    lambda lift: negate_fss(lift, fss(["u"], {"a": (0.5,)})),
    lambda lift: check_negation_axioms(lift),
    lambda lift: find_equilibria(lift, ["a"]),
], ids=["negate_fss", "check_negation_axioms", "find_equilibria"])
def test_only_a_negation_lift_is_taken_as_a_negation(call):
    with pytest.raises(ArityError, match="^expected a negation lift, got kind "
                                         "'fuzzy-soft-t-norm'$"):
        call(lift_tnorm(builtin("product")))
    negation = lift_negation({"a": builtin("sugeno(1)")})
    assert lift_negation(negation) is negation


@pytest.mark.parametrize("key", ["a*b", "b*a"])
@pytest.mark.parametrize("label", ["a*b", "b*a"])
def test_a_product_tag_key_serves_its_tag_in_every_negation_consumer(key, label):
    sugeno = builtin("sugeno(1)")
    family = lift_negation({key: sugeno})
    assert family.family == (("a*b", sugeno),) and family.name == "family(a*b: sugeno(1))"
    s = fss(["u1", "u2"], {label: (0.0, 0.5)})
    assert negate_fss({key: sugeno}, s).values.tolist() == [[1.0, 0.5 / 1.5]]
    report = check_negation_axioms({key: sugeno})
    assert report.passed and {check.param for check in report.checks} == {"a*b"}
    (entry,) = find_equilibria({key: sugeno}, [label]).entries
    assert entry.label == label and entry.is_equilibrium  # the label as given


@pytest.mark.parametrize("call", [
    lift_negation,
    lambda family: negate_fss(family, fss(["u"], {"a": (0.5,)})),
    check_negation_axioms,
    lambda family: find_equilibria(family, ["a"]),
], ids=["lift_negation", "negate_fss", "check_negation_axioms", "find_equilibria"])
@pytest.mark.parametrize("keys, message", [
    (["a", ""], "parameter label must be a non-empty string, got ''"),
    (["a", "a**b"], "parameter label must be a non-empty string, got ''"),
    (["a", "a*b", "b*a"], "negation family keys 'a*b' and 'b*a' are the same canonical tag 'a*b'"),
    (["a", 1], "parameter label must be a non-empty string, got 1"),
])
def test_a_negation_family_refuses_a_key_that_is_not_one_tag(call, keys, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call({key: builtin("standard-negation") for key in keys})


def test_a_lifted_product_is_associative_on_the_demo_data():
    # The pairs of S * (S * S) that collide are products taken in other
    # orders, which differ by rounding: they merge into the first pair's row.
    s = load_fss(DEMO_DATA / "quality.fss")
    product = builtin("product")
    grouped_right = apply_connective(product, s, apply_connective(product, s, s))
    grouped_left = apply_connective(product, apply_connective(product, s, s), s)
    assert grouped_right.tags == grouped_left.tags
    assert np.allclose(grouped_right.values, grouped_left.values, rtol=0, atol=1e-12)


def test_render_deterministic():
    s = fss(["u1", "u2"], {"b": (0.5, 0.25), "a": (0.1, 1.0)})
    assert render_fss(s) == "universe: u1 u2\na: 0.1 1.0\nb: 0.5 0.25"


# --- the tag x element matrix --------------------------------------------------

def test_negative_zero_survives_apply_render_save_and_load(tmp_path):
    s = fss(["u1", "u2"], {"a1": (0.0, 0.0)})
    g = fss(["u1", "u2"], {"b1": (0.5, 0.25)})
    out = apply_connective(scalar_from_expression("-x*y", arity=2), s, g)
    assert np.signbit(out.values).all()
    assert render_fss(out) == "universe: u1 u2\na1*b1: -0.0 -0.0"
    path = tmp_path / "zero.fss"
    save_fss(out, path)
    loaded = load_fss(path)
    assert np.signbit(loaded.values).all()
    assert loaded == out == make_fuzzy_soft_set(["u1", "u2"], {"a1*b1": (0.0, 0.0)})


def test_hash_is_consistent_with_equality():
    s = fss(["u1", "u2"], {"b": (0.5, 0.0), "a": (0.1, 1.0)})
    same = fss(["u1", "u2"], [("a", (0.1, 1.0)), ("b", (0.5, -0.0))])
    other = fss(["u1", "u2"], {"b": (0.5, 0.25), "a": (0.1, 1.0)})
    assert s == same and hash(s) == hash(same)
    assert s != other
    assert len({s, same, other}) == 2


def test_values_are_a_read_only_copy():
    rows = np.array([[0.3, 0.7]])
    s = FuzzySoftSet(Universe.of("u1", "u2"), (ParamTag.parse("a1"),), rows)
    rows[0, 0] = 0.9
    assert s.values.tolist() == [[0.3, 0.7]]
    assert not s.values.flags.writeable
    with pytest.raises(ValueError):
        s.values[0, 0] = 0.5


def test_constructor_sorts_like_param_tags_and_catches_respelled_duplicates():
    texts = ["b", "a*b", "a", "a*a", "b*b", "a*a*b"]
    for seed in range(5):
        shuffled = list(np.random.default_rng(seed).permutation(texts))
        tags = tuple(ParamTag.parse(text) for text in shuffled)
        s = FuzzySoftSet(Universe.of("u"), tags, [(texts.index(t) / 8,) for t in shuffled])
        assert s.tags == tuple(sorted(tags))
        assert s.values[:, 0].tolist() == [texts.index(tag.text) / 8 for tag in sorted(tags)]
    with pytest.raises(ValidationError, match=r"^duplicate parameter tag 'a\*b'$"):
        FuzzySoftSet(Universe.of("u"), (ParamTag.parse("a*b"), ParamTag.parse("a"),
                                        ParamTag.parse("b*a")), np.zeros((3, 1)))


def test_constructor_sorts_tags_with_their_rows():
    s = FuzzySoftSet(Universe.of("u"), (ParamTag.parse("b"), ParamTag.parse("a")),
                     [(0.2,), (0.1,)])
    assert [t.text for t in s.tags] == ["a", "b"]
    assert s.values.tolist() == [[0.1], [0.2]]
    assert s.assignments[1][1].memberships == (0.2,)


@pytest.mark.parametrize("texts", [["a", "a*b", "b"], ["b", "a", "a*b"], ["a*b", "b", "a"]])
def test_constructor_keeps_rows_in_tag_order_and_sorts_the_others(texts):
    rows = np.array([[ord(text[-1]) / 128, len(text) / 8] for text in texts])
    s = FuzzySoftSet(Universe.of("u1", "u2"), tuple(map(ParamTag.parse, texts)), rows)
    assert [tag.text for tag in s.tags] == ["a", "a*b", "b"]
    assert s.values.tolist() == [rows[texts.index(t)].tolist() for t in ["a", "a*b", "b"]]
    rows[:] = 0.5  # the caller's array, in order or not, was copied
    assert 0.5 not in s.values
    assert not s.values.flags.writeable


@pytest.mark.parametrize("texts", [["a", "a"], ["a", "b", "b"], ["b", "a", "b"], ["a*b", "b*a"]])
def test_constructor_names_a_duplicate_tag_whatever_the_order(texts):
    duplicate = ParamTag.parse(texts[-1]).text
    with pytest.raises(ValidationError, match=rf"^duplicate parameter tag '{re.escape(duplicate)}'$"):
        FuzzySoftSet(Universe.of("u"), tuple(map(ParamTag.parse, texts)),
                     np.zeros((len(texts), 1)))


def _ranks_of(s):
    """A set's label table and rank matrix, as ``FuzzySoftSet._ranked`` takes them."""
    return s._labels, s._ranks


@pytest.mark.parametrize("texts", [["a", "a*b", "b"], ["a b", "a", "a!", "a*a", "a*b"],
                                   ["a!", "a b*a", "b*a"]])
def test_ranks_are_label_tuples_in_label_order(texts):
    s = fss(["u"], {text: (0.5,) for text in texts})
    labels, ranks = _ranks_of(s)
    assert labels == tuple(sorted({label for tag in s.tags for label in tag.labels}))
    assert ranks.dtype == np.int32 and not ranks.flags.writeable
    assert ranks.shape == (len(texts), max(len(tag.labels) for tag in s.tags))
    assert [tuple(labels[r] for r in row if r >= 0) for row in ranks.tolist()] == [
        tag.labels for tag in s.tags]
    assert all(-1 not in row[:len(tag.labels)] and set(row[len(tag.labels):]) <= {-1}
               for tag, row in zip(s.tags, ranks.tolist()))


def test_ranked_hands_over_its_rows_as_given():
    # The package's own entry point checks, sorts and copies nothing: it
    # keeps and freezes the rows it is given, and builds the tags when read.
    want = fss(["u"], {"a": (0.1,), "a*b": (0.2,), "b": (0.3,)})
    labels = ("a", "b")
    ranks = np.array([[0, -1], [0, 1], [1, -1]], dtype=np.int32)
    values = np.array([[0.1], [0.2], [0.3]])
    got = FuzzySoftSet._ranked(want.universe, labels, ranks, values)
    assert got.values is values and got._ranks is ranks
    assert not values.flags.writeable and not ranks.flags.writeable
    assert "tags" not in vars(got)
    assert got == want and hash(got) == hash(want) and len(got) == 3
    assert got.tags == want.tags and vars(got)["tags"] is got.tags
    with pytest.raises(AttributeError, match="'FuzzySoftSet' object has no attribute 'other'"):
        got.other


def test_constructor_names_the_given_tag_of_an_out_of_range_row():
    # The range is checked in the caller's order, before the sort: a check
    # that read the sorted rows would name 'b'.
    tags = tuple(map(ParamTag.parse, ["b", "a", "b*a"]))
    with pytest.raises(ValidationError, match=r"^tag 'a\*b': membership 1.5 for element 'u' "
                                              r"is outside \[0, 1\]$"):
        FuzzySoftSet(Universe.of("u"), tags, np.array([[0.3], [0.1], [1.5]]))


def test_results_keep_their_ranks_until_their_tags_are_read():
    a = fss(["u1", "u2"], {"b": (0.2, 0.6), "a": (0.1, 0.9), "a*c": (0.5, 0.5)})
    union, product = union_fss(a, a), apply_connective(builtin("product"), a, a)
    for result in (union, product):
        assert len(result) == 6 and "tags" not in vars(result)
        assert [tag.text for tag in result.tags] == ["a*a", "a*a*c", "a*a*c*c", "a*b",
                                                     "a*b*c", "b*b"]
        assert result == fss(["u1", "u2"], zip(result.tags, result.values))
    # A negation keeps its operand's ranks and builds its tags on read, equal to the operand's.
    negation = negate_fss(builtin("standard-negation"), union)
    assert "tags" not in vars(negation)
    assert negation.tags == union.tags and vars(negation)["tags"] is negation.tags


def test_no_set_holds_its_tags_until_they_are_read(tmp_path):
    # Constructed, loaded, applied and negated sets keep label ranks only;
    # complementing a set whose tags are unread builds none on either set.
    built = fss(["u1", "u2"], {"b": (0.2, 0.6), "b*a": (0.1, 0.9), "a": (0.5, 0.5)})
    save_fss(built, tmp_path / "s.fss")
    loaded = load_fss(tmp_path / "s.fss")
    union = union_fss(built, loaded)
    operands = [built, loaded, union, union]
    results = [*map(complement_fss, operands[:3]), negate_fss(builtin("sugeno(1)"), union)]
    for s in operands + results:
        assert list(vars(s)) == ["universe", "values", "_labels", "_ranks"]
    assert loaded == built and loaded.tags == built.tags
    assert [result.tags for result in results] == [operand.tags for operand in operands]


def test_a_uniform_negation_out_of_range_names_its_tag_without_reading_the_tags():
    s = apply_connective(builtin("product"),
                         fss(["u1", "u2"], {"b": (1.0, 0.5), "a": (1.0, 1.0)}),
                         fss(["u1", "u2"], {"c": (1.0, 1.0)}))
    with pytest.raises(CodomainError, match=r"^negation '2 - x' under tag 'b\*c' at element 'u2' "
                                            r"produced 1.5, outside"):
        negate_fss(scalar_from_expression("2 - x", arity=1), s)
    assert "tags" not in vars(s)


def test_constructor_copies_a_read_only_view_of_a_writable_array():
    rows = np.array([[0.1], [0.2]])
    view = rows.view()
    view.flags.writeable = False
    s = FuzzySoftSet(Universe.of("u"), (ParamTag.parse("a"), ParamTag.parse("b")), view)
    rows[0, 0] = 0.9
    assert s.values.tolist() == [[0.1], [0.2]]


def test_sets_the_package_builds_hold_read_only_values(tmp_path):
    a = fss(["u1", "u2"], {"b": (0.2, 0.6), "a": (0.1, 0.9)})
    save_fss(a, tmp_path / "a.fss")
    for result in (apply_connective(builtin("product"), a, a), union_fss(a, a),
                   negate_fss(builtin("standard-negation"), a), load_fss(tmp_path / "a.fss")):
        assert not result.values.flags.writeable
        with pytest.raises(ValueError):
            result.values[0, 0] = 0.5
    assert load_fss(tmp_path / "a.fss") == a


@pytest.mark.parametrize("rows, message", [
    ([(0.2,)], r"1 membership rows for the 2 tags \['b', 'a'\]"),
    ([(0.2,), (0.1,), (0.0,)], r"3 membership rows for the 2 tags \['b', 'a'\]"),
])
def test_constructor_rejects_a_row_count_that_differs_from_the_tags(rows, message):
    with pytest.raises(ValidationError, match=message):
        FuzzySoftSet(Universe.of("u"), (ParamTag.parse("b"), ParamTag.parse("a")), rows)


@pytest.mark.parametrize("assignments, message", [
    ({"a": ["x"]}, "tag 'a': membership 'x' for element 'u' is not a number"),
    # numpy would parse text as a number; a membership is never text.
    ({"a": ["0.5"]}, "tag 'a': membership '0.5' for element 'u' is not a number"),
    ({"a": [b"0.5"]}, "tag 'a': membership b'0.5' for element 'u' is not a number"),
    # numpy would take None as NaN.
    ({"a": [None]}, "tag 'a': membership None for element 'u' is not a number"),
    ({"a": [0.5], "b": [None]}, "tag 'b': membership None for element 'u' is not a number"),
    ({"a": [[1.0]]}, r"tag 'a': membership \[1.0\] for element 'u' is not a number"),
    # numpy would take a boolean as 0 or 1, also among floats in one list.
    ({"a": [True]}, "tag 'a': membership True for element 'u' is not a number"),
    ({"a": [0.5], "b": [False]}, "tag 'b': membership False for element 'u' is not a number"),
    ({"a": np.array([True])}, r"tag 'a': membership np.True_ for element 'u' is not a number"),
    ({"a": [0.5], "b": [np.False_]}, "tag 'b': membership np.False_ for element 'u' is not"),
    ({"a": [0.5], "b": [[0.5, 0.5]]}, r"tag 'b': membership \[0.5, 0.5\] for element"),
    # numpy would drop an imaginary part, or store a date or duration's count.
    ({"a": [0.5 + 0.3j]}, r"tag 'a': membership \(0.5\+0.3j\) for element 'u' is not a number"),
    ({"a": [0.5], "b": [np.complex128(0.5)]}, r"tag 'b': membership np.complex128\(0.5\+0j\)"),
    ({"a": np.array([0.5 + 0j])}, r"tag 'a': membership np.complex128\(0.5\+0j\) for"),
    ({"a": [np.timedelta64(1)]}, r"tag 'a': membership np.timedelta64\(1\) for element"),
    ({"a": [np.datetime64(1, "s")]}, "tag 'a': membership np.datetime64.* is not a number"),
    ({"a": [0.5], "b": [np.timedelta64(1)]}, r"tag 'b': membership np.timedelta64\(1\) for"),
    # Past the float range: numpy raises OverflowError converting these.
    pytest.param({"a": [10**400]},
                 "tag 'a': membership 1" + "0" * 400 + " for element 'u' is not a number",
                 id="int-above-the-float-range"),
    pytest.param({"a": [0.5], "b": [-10**400]}, "tag 'b': membership -1" + "0" * 400 + " for",
                 id="int-below-the-float-range"),
])
def test_non_numeric_membership_names_its_tag(assignments, message):
    with pytest.raises(ValidationError, match=message):
        make_fuzzy_soft_set(["u"], assignments)
    with pytest.raises(ValidationError, match="tag 'b': membership <object"):
        make_fuzzy_soft_set(["u", "v"], {"a": [0.5, 1.0], "b": [0.5, object()]})


@pytest.mark.parametrize("value", [np.complex128(0.5), np.timedelta64(1), np.datetime64(1, "s")])
def test_a_value_that_is_not_a_real_number_is_refused_in_an_object_array(value):
    # Beside a Fraction, numpy stores the value in an object array, whose
    # conversion to float would take it too.
    with pytest.raises(ValidationError, match="tag 'a': membership .* for element 'v' is not a"):
        make_fuzzy_soft_set(["u", "v"], {"a": [Fraction(1, 2), value]})


class _Unwalkable(np.ndarray):
    def __iter__(self):
        raise AssertionError("a float matrix was walked value by value")


def test_only_a_real_matrix_of_the_set_shape_is_read_whole():
    values = np.array([[0.25, 1.0], [0.5, 0.0]]).view(_Unwalkable)
    s = FuzzySoftSet(Universe.of("u1", "u2"), (ParamTag.parse("b"), ParamTag.parse("a")), values)
    assert s.values.tolist() == [[0.5, 0.0], [0.25, 1.0]]
    ints = FuzzySoftSet(Universe.of("u1", "u2"), (ParamTag.parse("a"),),
                        np.array([[0, 1]], dtype=np.uint8).view(_Unwalkable))
    assert ints.values.dtype == np.float64 and ints.values.tolist() == [[0.0, 1.0]]
    with pytest.raises(ValidationError, match="membership np.True_ for element 'u1'"):
        FuzzySoftSet(Universe.of("u1", "u2"), (ParamTag.parse("a"),), np.ones((1, 2), bool))
    with pytest.raises(ValidationError, match="membership True for element 'u1'"):
        FuzzySoftSet(Universe.of("u1", "u2"), (ParamTag.parse("a"),),
                     np.array([[True, 0.5]], dtype=object))
    # Lists and tuples are read value by value by the same rule.
    with pytest.raises(ValidationError, match="membership True for element 'u1'"):
        FuzzySoftSet(Universe.of("u1", "u2"), (ParamTag.parse("a"),), [(True, 0.5)])
    with pytest.raises(ValidationError, match="membership np.False_ for element 'u2'"):
        FuzzySoftSet(Universe.of("u1", "u2"), (ParamTag.parse("a"),), [[0.5, np.False_]])


@pytest.mark.parametrize("rows, message", [
    # A mapping's keys, or a byte string's bytes, were once read as the row.
    ([{0: 0.3, 1: 0.7}], r"^tag 'a': membership row \{0: 0.3, 1: 0.7\} is not a sequence$"),
    ([b"ab"], r"^tag 'a': membership row b'ab' is not a sequence$"),
    (["ab"], r"^tag 'a': membership row 'ab' is not a sequence$"),
    ([5], r"^tag 'a': membership row 5 is not a sequence$"),
    ([np.array(0.5)], r"^tag 'a': membership row array\(0.5\) is not a sequence$"),
    (None, r"^membership rows None are not a sequence$"),
    (np.array(0.5), r"^membership rows array\(0.5\) are not a sequence$"),
    # The row count comes before the rows, and each row's kind before any value.
    ([{0: 0.3, 1: 0.7}, [0.5, 0.5]], r"^2 membership rows for the 1 tags \['a'\]$"),
])
def test_constructor_refuses_rows_that_are_not_sequences(rows, message):
    with pytest.raises(ValidationError, match=message):
        FuzzySoftSet(Universe.of("u1", "u2"), (ParamTag.parse("a"),), rows)


@pytest.mark.parametrize("build, message", [
    (lambda: Universe("ab"), r"^universe elements must be a sequence, not 'ab'$"),
    (lambda: make_fuzzy_soft_set("ab", {"a": [0.5, 0.5]}),
     r"^universe elements must be a sequence, not 'ab'$"),
    (lambda: FuzzySoftSet(("u",), (ParamTag("a"),), [[0.5]]),
     r"^universe must be a Universe, got \('u',\)$"),
    (lambda: FuzzySoftSet(Universe.of("u"), (ParamTag("a"), "b"), [[0.5], [0.5]]),
     r"^parameter tag must be a ParamTag, got 'b'$"),
    (lambda: FuzzySoftSet(Universe.of("u"), "a", [[0.5]]),
     r"^parameter tag must be a ParamTag, got 'a'$"),
    (lambda: FuzzySoftSet(Universe.of("u"), (SimpleNamespace(labels=("b", "a")),), [[0.5]]),
     r"^parameter tag must be a ParamTag, got namespace\(labels=\('b', 'a'\)\)$"),
    (lambda: make_fuzzy_soft_set(["u"], {5: [0.5]}),
     r"^parameter label must be a non-empty string, got 5$"),
    (lambda: make_fuzzy_soft_set(["u"], [(("a",), [0.5])]),
     r"^parameter label must be a non-empty string, got \('a',\)$"),
    (lambda: Universe(5), r"^universe elements must be a sequence, not 5$"),
    (lambda: FuzzySoftSet(Universe.of("u"), None, [[0.5]]),
     r"^a fuzzy soft set needs at least one parameter tag, got None$"),
    (lambda: FuzzySoftSet(Universe.of("u"), (), []),
     r"^a fuzzy soft set needs at least one parameter tag, got \(\)$"),
    (lambda: make_fuzzy_soft_set(["u"], ["a"]),
     r"^assignments must be \(tag, memberships\) pairs: not enough values to unpack"),
    (lambda: make_fuzzy_soft_set(["u"], None),
     r"^assignments must be \(tag, memberships\) pairs: 'NoneType' object is not iterable$"),
])
def test_a_set_refuses_a_universe_or_tag_of_the_wrong_kind(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def _read(build):
    """The float64 bits of the membership ``build`` reads, or "refused"
    where it raises ``ValidationError``; any other error fails the test."""
    try:
        return np.float64(build()).tobytes()
    except ValidationError:
        return "refused"


_SCALARS = st.one_of(st.floats(0, 1), st.floats(), st.integers(-2, 2),
                     st.sampled_from([10**400, -10**400, 2**63, 2**64]), st.booleans(),
                     st.none(), st.text(max_size=3), st.binary(max_size=3),
                     st.fractions(), st.decimals())
_NUMPY_SCALARS = st.one_of(
    st.integers(-128, 127).map(np.int8), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8), st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(width=16).map(np.float16), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64), st.floats().map(np.longdouble), st.booleans().map(np.bool_),
    st.complex_numbers(max_magnitude=2).map(np.complex128),
    st.integers(-5, 5).map(np.timedelta64), st.integers(0, 5).map(lambda n: np.datetime64(n, "s")),
    st.text(max_size=3).map(np.str_), st.binary(max_size=3).map(np.bytes_))
_VALUES = st.one_of(
    _SCALARS, _NUMPY_SCALARS,
    st.one_of(_SCALARS, _NUMPY_SCALARS).map(np.array),  # 0-d arrays
    st.one_of(st.floats(0, 1), st.booleans()).map(lambda v: np.array([v])),
    st.lists(st.floats(0, 1), max_size=2), st.floats(0, 1).map(lambda v: [[v]]))


@example(key="a", row={0: 0.3})  # a mapping's keys were read as the row
@example(key="a", row=b"\x00")  # and a byte string's bytes
@example(key=5, row=[0.5])  # a key that is not text was made text
@settings(max_examples=500)
@given(key=st.just("a"), row=_VALUES.map(lambda value: [value]))
def test_one_rule_reads_a_membership_everywhere(key, row):
    got = _read(lambda: make_fuzzy_soft_set(["u"], {key: row}).values[0, 0])
    if key != "a" or not isinstance(row, list):
        assert got == "refused"
        return
    assert got == _read(lambda: TaggedMembership(ParamTag("a"), row[0]).value)
    try:
        matrix = np.array([row])
    except (TypeError, ValueError, OverflowError):
        return
    if matrix.dtype.kind in "iuf":
        whole = _read(lambda: FuzzySoftSet(Universe.of("u"), (ParamTag("a"),), matrix).values[0, 0])
        assert whole == got


def test_lookup_canonicalizes_the_tag_text():
    s = fss(["u"], {"a1*b1": (0.3,), "a2": (0.4,), "b2": (0.5,)})
    assert s["b1*a1"].memberships == (0.3,)
    assert s[ParamTag(("b2",))].memberships == (0.5,)
    with pytest.raises(ValidationError, match="no assignment for tag 'a3'"):
        s["a3"]


@pytest.mark.parametrize("key", [5, None, ("a",), 0.5])
def test_lookup_reads_every_key_as_a_tag(key):
    s = fss(["u"], {"a": (0.3,)})
    with pytest.raises(ValidationError, match=r"^parameter label must be a non-empty string, got "):
        s[key]


# x*x + y/2 is not commutative; at p = 0.2, q = 0.8, z = 0.9 its values are
# p row: 0.14 (p,p), 0.44 (p,q), 0.49 (p,z); q row: 0.74 (q,p), 1.04 (q,q),
# 1.09 (q,z).  (q,p) collides with (p,q), and (q,q), (q,z) are out of range.
_SKEW = "x*x + y/2"


def test_collision_on_an_earlier_pair_of_a_row_is_reported_first():
    s = fss(["u"], {"p": (0.2,), "q": (0.8,)})
    g = fss(["u"], {"p": (0.2,), "q": (0.8,), "z": (0.9,)})
    with pytest.raises(TagCollisionError, match="'p\\*q'"):
        apply_connective(scalar_from_expression(_SKEW), s, g)


def test_codomain_fault_on_an_earlier_pair_of_a_row_is_reported_first():
    s = fss(["u"], {"p": (0.2,), "q": (0.8,)})
    g = fss(["u"], {"a": (0.9,), "p": (0.2,), "q": (0.8,)})  # (q,a) comes before (q,p)
    with pytest.raises(CodomainError, match="under tag 'a\\*q' at element 'u'"):
        apply_connective(scalar_from_expression(_SKEW), s, g)


def test_kernel_error_in_a_row_is_raised_before_that_rows_other_faults():
    # Row p: (p,a) = 1.8 is out of range, but (p,z) divides by zero, and the
    # kernel runs on the whole row before any of its pairs is checked.
    s = fss(["u"], {"p": (0.9,)})
    g = fss(["u"], {"a": (0.5,), "z": (0.0,)})
    with pytest.raises(DivisionByZeroError):
        apply_connective(scalar_from_expression("x/y"), s, g)
    # Rows are still taken in order: row p's fault precedes row q's kernel error.
    s = fss(["u"], {"p": (0.25,), "q": (0.0,)})
    with pytest.raises(CodomainError, match="under tag 'a\\*p'"):
        apply_connective(scalar_from_expression("y/x"), s, fss(["u"], {"a": (0.5,)}))


def test_the_pairs_before_a_codomain_fault_are_clamped_before_they_merge():
    # Under x + y, (a,b) = 1 - 5e-13 and (b,a) = 1 + 9e-13 are 1.4e-12 apart,
    # but (b,a) clamps to 1, within CLAMP_TOLERANCE of (a,b): they merge, and
    # the fault of row b after (b,a), (b,b) = 1.1, is raised.
    s = fss(["u"], {"a": (0.5,), "b": (0.6,)})
    g = fss(["u"], {"a": (0.4 + 9e-13,), "b": (0.5 - 5e-13,)})
    with pytest.raises(CodomainError, match="under tag 'b\\*b'"):
        apply_connective(scalar_from_expression("x + y"), s, g)


# --- the pair loop against the per-row reference ------------------------------------

def _reference_apply(conn, f1, f2):
    """apply_connective as one dict of row views, merged pair by pair."""
    if isinstance(conn, LiftedConnective):
        conn = conn.scalar
    scalar = require_arity(conn, 2)
    if f1.universe != f2.universe:
        raise UniverseMismatchError(
            "operands are defined over different universes "
            f"({list(f1.universe.elements)} vs {list(f2.universe.elements)})"
        )
    elements = f1.universe.elements
    rows: dict[ParamTag, np.ndarray] = {}
    with np.errstate(all="ignore"):
        for tag_a, row in zip(f1.tags, f1.values):
            raw = np.broadcast_to(np.asarray(scalar(row, f2.values), dtype=float),
                                  f2.values.shape)

            def where(index):
                tag = combine_tags(tag_a, f2.tags[index[0]])
                return (f"connective {scalar.name!r} under tag {tag.text!r} "
                        f"at element {elements[index[1]]!r}")

            try:
                block, fault = into_unit_interval(raw, where), None
            except CodomainError as err:
                block, fault = into_unit_interval(raw[:err.index[0]], where), err
            for tag_b, vector in zip(f2.tags, block):
                tag = combine_tags(tag_a, tag_b)
                previous = rows.setdefault(tag, vector)
                if previous is not vector and np.abs(previous - vector).max() > CLAMP_TOLERANCE:
                    raise TagCollisionError(
                        f"tag pairs ({tag_a.text}, {tag_b.text}) collide on canonical tag "
                        f"{tag.text!r} with different membership vectors"
                    )
            if fault is not None:
                raise fault
    return FuzzySoftSet(f1.universe, tuple(rows), list(rows.values()))


# _SKEW, but dividing by zero on a row of x that holds 0.
_SKEW_THEN_DIVIDE = "x*x + y/2 + 0/x"
# Commutative and not, clamped just below 0 and just above 1, out of range,
# dividing by a row that holds 0, and producing -0.0.
_DIFFERENTIAL_EXPRESSIONS = [
    "max(x, y)", "x*y", _SKEW, "y", "x - y", "x + y",
    "x*y - 0.0000000000005", "min(1, x + y) + 0.0000000000005", "x/y", "-x*y",
    # Colliding pairs 1e-13 * |x - y| apart, which merge, and 1e-11 * |x - y|.
    "x*y + (x - y) / 10000000000000", "x*y + (x - y) / 100000000000",
    _SKEW_THEN_DIVIDE,
]
# " " and "!" sort before "*": the tag a! is after a*b, though its text is before.
_tag_texts = st.lists(st.sampled_from(["a", "b", "c", "a!", " ", "a b"]),
                      min_size=1, max_size=3).map("*".join)
_memberships = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 1e-13, 1 - 1e-13]),
                         st.floats(0, 1))


@st.composite
def _operands(draw):
    size = draw(st.integers(1, 3))
    universe = [f"u{k}" for k in range(size)]

    def one_set():
        texts = draw(st.lists(_tag_texts, min_size=1, max_size=5,
                              unique_by=lambda text: ParamTag.parse(text)))
        rows = [draw(st.lists(_memberships, min_size=size, max_size=size)) for _ in texts]
        return fss(universe, zip(texts, rows))

    left = one_set()
    return left, left if draw(st.booleans()) else one_set()


_PQ = fss(["u"], {"p": (0.2,), "q": (0.8,)})
_PQZ = fss(["u", "v"], {"p": (0.2, 0.2), "q": (0.8, 0.8), "z": (0.0, 0.5)})
# Prefix tags, a repeated label, and labels below "*", whose text order is
# not their tag order (" " < "!" < "*" < "a").
_PREFIXES = fss(["u", "v"], {"a": (0.5, 0.0), "a*b": (0.25, 1.0), "a*a": (1.0, 0.5),
                             "a!": (0.75, 0.25), " ": (0.1, -0.0)})
# Under max, (a*b, a) and (a*a, b) merge on a*a*b.
_SPACES = fss(["u", "v"], {"b": (0.5, 1.0), "a b": (0.3, 1.0), "!": (0.2, 0.0), "a": (1.0, 0.1)})


# A row whose collision comes before its out-of-range pair, one whose
# out-of-range pair comes first, and a collision 1.2e-13 apart, which merges;
# then text order against tag order, a product of one row per kernel block
# whose merges cross blocks, and a collision in row q's block before a
# division by zero in row z's (with one block: before q's out-of-range pair).
@example(_SKEW, (_PQ, fss(["u"], {"p": (0.2,), "q": (0.8,), "z": (0.9,)})), APPLY_BLOCK_VALUES)
@example(_SKEW, (_PQ, fss(["u"], {"a": (0.9,), "p": (0.2,), "q": (0.8,)})), APPLY_BLOCK_VALUES)
@example("x*y + (x - y) / 10000000000000", (_PQ, _PQ), APPLY_BLOCK_VALUES)
@example("max(x, y)", (_PREFIXES, _SPACES), APPLY_BLOCK_VALUES)
@example("x*y", (_PREFIXES, _PREFIXES), 1)
@example(_SKEW_THEN_DIVIDE, (_PQZ, _PQZ), 1)
@example(_SKEW_THEN_DIVIDE, (_PQZ, _PQZ), APPLY_BLOCK_VALUES)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_DIFFERENTIAL_EXPRESSIONS), _operands(),
       st.sampled_from([APPLY_BLOCK_VALUES, 1, 7]))
def test_apply_matches_the_per_row_reference(expression, operands, block_values):
    conn = scalar_from_expression(expression, arity=2)
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sets, "APPLY_BLOCK_VALUES", block_values)
        for apply in (apply_connective, _reference_apply):
            try:
                out = apply(conn, *operands)
            except FuzzySoftError as err:
                outcomes.append((type(err), str(err), getattr(err, "index", None)))
            else:
                outcomes.append((out.tags, out.values.view(np.uint64).tolist()))
    assert outcomes[0] == outcomes[1]


def test_the_widened_reference_examples_reach_their_paths():
    # The examples above are only worth having if they take the paths
    # named: a collision ahead of a later block's division by zero, and
    # results whose order differs from the order of the tag texts.
    conn = scalar_from_expression(_SKEW_THEN_DIVIDE, arity=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sets, "APPLY_BLOCK_VALUES", 1)
        with pytest.raises(TagCollisionError, match=r"\(q, p\)"):
            apply_connective(conn, _PQZ, _PQZ)
        with pytest.raises(DivisionByZeroError):
            apply_connective(conn, _PQZ, fss(["u", "v"], {"p": (0.2, 0.2)}))
    texts = [tag.text for tag in apply_connective(builtin("maximum"), _PREFIXES, _SPACES).tags]
    assert texts != sorted(texts)
    assert "a*a" in texts and "a*a*b" in texts


# --- the size bound on a product ----------------------------------------------------

def test_product_is_bounded_before_anything_is_allocated():
    # 64 x 64 tags over 4096 elements is the largest product the bound
    # admits; 65 x 65 would need a 132 MiB result and is refused first.
    assert CHECK_MAX_ARRAY_VALUES is MAX_ARRAY_VALUES
    assert 64 * 64 * 4096 == MAX_ARRAY_VALUES < 65 * 65 * 4096
    universe = Universe(tuple(f"u{k}" for k in range(4096)))
    left = FuzzySoftSet(universe, tuple(ParamTag.parse(f"a{i}") for i in range(65)),
                        np.zeros((65, 4096)))
    right = FuzzySoftSet(universe, tuple(ParamTag.parse(f"b{i}") for i in range(65)),
                         np.zeros((65, 4096)))
    message = ("the product of 65 by 65 tags over 4096 elements needs 17305600 values, "
               "more than MAX_ARRAY_VALUES = 16777216")
    # 512 x 512 tags is the most pairs the pair bound admits; at U = 1 the
    # 513 x 512 product is far under MAX_ARRAY_VALUES but is refused.
    assert 512 * 512 == MAX_PAIRS < 513 * 512
    one = Universe.of("u")
    wide_left = FuzzySoftSet(one, tuple(ParamTag.parse(f"a{i}") for i in range(513)),
                             np.zeros((513, 1)))
    wide_right = FuzzySoftSet(one, tuple(ParamTag.parse(f"b{i}") for i in range(512)),
                              np.zeros((512, 1)))
    wide_message = ("the product of 513 by 512 tags makes 262656 tag pairs, "
                    "more than MAX_PAIRS = 262144")
    tracemalloc.start()
    try:
        for operation in (union_fss, intersect_fss,
                          lambda f1, f2: apply_connective(builtin("product"), f1, f2)):
            with pytest.raises(ProductSizeError) as err:
                operation(left, right)
            assert str(err.value) == message
            with pytest.raises(ProductSizeError) as err:
                operation(wide_left, wide_right)
            assert str(err.value) == wide_message
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**10, f"peak {peak / 2**10:.0f} KiB"


def test_apply_holds_one_result_matrix():
    # The shape of the apply-deep benchmark: 10 tags applied to themselves
    # at U = 2000, 100 pairs merged into 55 tags.  The (100, 2000) pair
    # matrix (1.5 MiB) and the gathered result (0.8 MiB) peak at 2.5 MiB;
    # a second full-size copy of the pair matrix would reach 4 MiB.
    universe = [f"u{k}" for k in range(2000)]
    rows = np.random.default_rng(1).random((10, 2000))
    s = fss(universe, {f"a{i}": row for i, row in enumerate(rows.tolist())})
    conn = scalar_from_expression("max(x + y - 1, 0)", arity=2)
    tracemalloc.start()
    try:
        out = apply_connective(conn, s, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 55
    assert peak <= 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_apply_at_max_pairs_peaks_near_its_result():
    # The most pairs the pair bound admits, 512 x 512 tags at U = 1: 262,144
    # result tags kept at 16 B each (value and ranks) and a peak of 14.3 MiB
    # on CPython 3.11.  The bound leaves room for other object sizes and
    # still fails building the result's ParamTags as well (32.4 MiB), or a
    # dict entry and a label tuple per pair (52.4 MiB).
    one = Universe.of("u")
    rng = np.random.default_rng(512)
    left = FuzzySoftSet(one, tuple(ParamTag.parse(f"a{i}") for i in range(512)),
                        rng.random((512, 1)))
    right = FuzzySoftSet(one, tuple(ParamTag.parse(f"b{i}") for i in range(512)),
                         rng.random((512, 1)))
    tracemalloc.start()
    try:
        out = union_fss(left, right)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == MAX_PAIRS
    assert out.tags[1].text == "a0*b1" and out.values[1, 0] == max(left.values[0, 0],
                                                                    right.values[1, 0])
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"
