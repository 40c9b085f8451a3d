import ast
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzysoft import (
    CandidateEvaluationError,
    CheckConfig,
    builtin,
    check_implication_axioms,
    check_negation_axioms,
    check_tconorm_axioms,
    check_tnorm_axioms,
    classify_elements,
    dual_of,
    find_equilibria,
    lift_negation,
    scalar_from_expression,
)
from fuzzysoft import analysis
from fuzzysoft.analysis import (
    CUBE_TILE_POINTS,
    MAX_CUBE_POINTS,
    AxiomCheck,
    AxiomReport,
    ClassificationReport,
    EquilibriumEntry,
    EquilibriumResult,
    Witness,
    ZeroDivisor,
    _Axiom,
    _cube_tiles,
    _grid_matrix,
    _locate_failure,
    _part_witness,
    _screen_tiles,
    _smallest_violation,
    _sorted_pair,
    _tile_inner,
    _verify,
    grid_points,
)
from fuzzysoft.connectives import ScalarConnective, builtin_names, resolve_connective
from fuzzysoft.errors import ConfigError, EvalError, FuzzySoftError, ValidationError
from fuzzysoft.expr import pretty_print
from fuzzysoft.record import Record
import reference
from test_expr import COMMUTATIVE_OPS, asts, joined_with_its_swap

FAST = CheckConfig(grid_steps=16, random_samples=200, seed=5)


def _with_fn(scalar, fn):
    """``scalar`` with its body replaced by the callable ``fn``."""
    return ScalarConnective(**{**vars(scalar), "fn": fn})


def _on_the_array_path(scalar):
    """``scalar`` with its body wrapped: a plain callable, on half-size cube tiles."""
    return _with_fn(scalar, lambda *args: scalar.fn(*args))


_CHECKERS = {"tnorm": check_tnorm_axioms, "tconorm": check_tconorm_axioms,
             "implication": check_implication_axioms, "negation": check_negation_axioms}


def _outcome(run):
    """A report's JSON text (NaN and -0.0 spelled out), or the error's type, message and point."""
    try:
        return json.dumps(run().to_dict())
    except CandidateEvaluationError as err:
        return type(err).__name__, str(err), repr(err.point)


def _agreed(kind, candidate, cfg):
    """The ``_outcome`` of the check, once the reference (``tests/reference.py``) gives it too."""
    lifted = lift_negation(candidate) if kind == "negation" else candidate
    outcome = _outcome(lambda: _CHECKERS[kind](candidate, cfg))
    assert outcome == _outcome(lambda: reference.check(kind, lifted, cfg))
    return outcome


# --- axiom suites --------------------------------------------------------------

@pytest.mark.parametrize("name", ["product", "minimum", "lukasiewicz"])
def test_builtin_tnorms_pass(name):
    report = check_tnorm_axioms(builtin(name), FAST)
    assert report.passed, report.failures()
    assert [c.label for c in report.checks] == ["codomain", "i", "ii", "iii", "iv", "v"]


@pytest.mark.parametrize("name", ["maximum", "probsum", "boundedsum"])
def test_builtin_tconorms_pass(name):
    report = check_tconorm_axioms(builtin(name), FAST)
    assert report.passed, report.failures()


@pytest.mark.parametrize("name", ["standard-negation", "sugeno(1)", "sugeno(0.5)"])
def test_builtin_negations_pass(name):
    report = check_negation_axioms(builtin(name), cfg=FAST)
    assert report.passed, report.failures()


@pytest.mark.parametrize(
    "name", ["lukasiewicz-implication", "godel-implication", "kleene-dienes-implication"]
)
def test_builtin_implications_pass(name):
    report = check_implication_axioms(builtin(name), FAST)
    assert report.passed, report.failures()


def test_expression_candidates_pass_their_kind():
    assert check_tnorm_axioms(scalar_from_expression("x*y"), FAST).passed
    assert check_tconorm_axioms(scalar_from_expression("x+y-x*y"), FAST).passed
    assert check_negation_axioms(scalar_from_expression("1-x", arity=1), cfg=FAST).passed


# --- negative controls with reproducible witnesses ------------------------------

def test_probsum_fails_tnorm_boundary():
    report = check_tnorm_axioms(builtin("probsum"), FAST)
    assert not report.passed
    failed = report.check("i")
    assert not failed.passed
    w = failed.witness
    # smallest lexicographic witness on the grid: f(1, 0) = 1, want 0
    assert w.args == (1.0, 0.0)
    assert w.got == 1.0 and w.want == 0.0
    # witness re-evaluates to a violation beyond tolerance
    re_got = float(builtin("probsum")(*w.args))
    assert re_got == w.got
    assert abs(re_got - w.want) > FAST.tolerance


def test_scaled_product_fails_boundary():
    report = check_tnorm_axioms(scalar_from_expression("x*y/2"), FAST)
    failed = report.check("i")
    assert not failed.passed
    x, y = failed.witness.args
    assert x == 1.0
    assert abs(y / 2.0 - y) > FAST.tolerance


def test_product_fails_tconorm_boundary():
    report = check_tconorm_axioms(builtin("product"), FAST)
    failed = report.check("i")
    assert not failed.passed
    x, y = failed.witness.args
    assert x == 0.0
    assert failed.witness.got == 0.0
    assert abs(failed.witness.got - y) > FAST.tolerance


def test_minimum_fails_implication_falsity_boundary():
    report = check_implication_axioms(scalar_from_expression("min(x,y)"), FAST)
    failed = report.check("iv")
    assert not failed.passed
    w = failed.witness
    assert w.args[0] == 0.0
    assert w.want == 1.0
    assert w.got == 0.0
    re_got = min(*w.args)
    assert abs(re_got - w.want) > FAST.tolerance


def test_noncommutative_candidate_fails_iii():
    report = check_tnorm_axioms(scalar_from_expression("x*y*y"), FAST)
    failed = report.check("iii")
    assert not failed.passed
    x, y = failed.witness.args
    lhs, rhs = x * y * y, y * x * x
    assert abs(lhs - rhs) > FAST.tolerance
    assert failed.witness.got == lhs
    assert failed.witness.want == rhs


def test_nonmonotone_candidate_fails_v():
    # decreasing in both arguments, with passing boundaries impossible;
    # monotonicity is what we probe here
    report = check_tnorm_axioms(scalar_from_expression("(1-x)*(1-y)"), FAST)
    failed = report.check("v")
    assert not failed.passed
    x1, y1, x2, y2 = failed.witness.args
    assert x1 <= x2 and y1 <= y2
    f = scalar_from_expression("(1-x)*(1-y)")
    assert f(x1, y1) > f(x2, y2) + FAST.tolerance


def test_imperfect_involution_fails_iii():
    report = check_negation_axioms(scalar_from_expression("1-x*x", arity=1), cfg=FAST)
    failed = report.check("iii")
    assert not failed.passed
    # frozen derived value: n(n(0.5)) for n(x) = 1 - x^2 is exactly 0.4375
    n = scalar_from_expression("1-x*x", arity=1)
    assert n(n(0.5)) == 0.4375
    (x,) = failed.witness.args
    assert abs(n(n(x)) - x) > FAST.tolerance


def test_codomain_violation_detected():
    report = check_tnorm_axioms(scalar_from_expression("x*y*2"), FAST)
    failed = report.check("codomain")
    assert not failed.passed
    x, y = failed.witness.args
    assert x * y * 2 > 1.0 + FAST.tolerance


# --- report structure ------------------------------------------------------------

def test_report_is_deterministic():
    candidate = scalar_from_expression("x+y-x*y")
    first = check_tnorm_axioms(candidate, FAST)
    second = check_tnorm_axioms(candidate, FAST)
    assert first.to_dict() == second.to_dict()


def test_grid_completeness_point_counts():
    report = check_tnorm_axioms(builtin("product"), FAST)
    n = FAST.grid_steps + 1
    m = FAST.random_samples
    assert report.check("codomain").points == n * n + m
    assert report.check("i").points == n + m
    assert report.check("iii").points == n * n + m
    assert report.check("iv").points == n**3 + m
    assert report.check("v").points == 2 * n * (n - 1) + m


class _FixedDraw:
    """A generator stand-in whose ``random`` returns the given draw."""

    def __init__(self, draw):
        self.draw = np.asarray(draw, dtype=float)

    def random(self, shape):
        assert shape == self.draw.shape
        return self.draw.copy()


@pytest.mark.parametrize("rng", [
    _FixedDraw([[0.5, 0.5], [0.75, 0.25], [0.25, 0.75], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                [5e-324, 5e-324], [5e-324, 0.0]]),
    *(np.random.default_rng(seed) for seed in range(5)),
])
def test_sorted_pair_has_the_bits_of_a_row_sort(rng):
    count = len(rng.draw) if isinstance(rng, _FixedDraw) else 1000
    state = None if isinstance(rng, _FixedDraw) else rng.bit_generator.state
    low, high = _sorted_pair(rng, count)
    if state is not None:
        rng.bit_generator.state = state
    want = np.sort(rng.random((count, 2)), axis=1)
    assert low.tobytes() == np.ascontiguousarray(want[:, 0]).tobytes()
    assert high.tobytes() == np.ascontiguousarray(want[:, 1]).tobytes()


def test_zero_samples_is_grid_only():
    cfg = CheckConfig(grid_steps=8, random_samples=0)
    report = check_tnorm_axioms(builtin("minimum"), cfg)
    assert report.passed
    assert report.check("iv").points == 9**3


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(grid_steps=1)
    with pytest.raises(ValueError):
        CheckConfig(tolerance=0.0)
    for tolerance in (1.0, 2.0):
        with pytest.raises(ValueError, match="tolerance must be < 1"):
            CheckConfig(tolerance=tolerance)
    assert CheckConfig(tolerance=0.999).tolerance == 0.999
    with pytest.raises(ValueError):
        CheckConfig(random_samples=-1)


@pytest.mark.parametrize("field, value, message", [
    # Grid points past 1 (2.5 steps put one at 1.2) would fail a t-norm there.
    ("grid_steps", 2.5, "grid_steps must be an integer, got 2.5"),
    ("random_samples", 2.5, "random_samples must be an integer, got 2.5"),
    ("random_samples", True, "random_samples must be an integer, got True"),
    ("grid_steps", np.True_, "grid_steps must be an integer, got np.True_"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", "0", "seed must be an integer, got '0'"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("tolerance", "1e-9", "tolerance must be a real number, got '1e-9'"),
    ("tolerance", None, "tolerance must be a real number, got None"),
    ("tolerance", False, "tolerance must be a real number, got False"),
    ("tolerance", 1e-9j, r"tolerance must be a real number, got 1e-09j"),
])
def test_config_refuses_a_setting_it_cannot_honour(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CheckConfig(**{field: value})


def test_a_config_refusal_is_a_package_error_and_a_value_error():
    with pytest.raises(FuzzySoftError, match="^grid_steps must be an integer, got 'a'$") as err:
        CheckConfig(grid_steps="a")
    assert type(err.value) is ConfigError
    assert isinstance(err.value, ValidationError) and isinstance(err.value, ValueError)


def test_config_stores_plain_numbers_that_reports_serialize():
    cfg = CheckConfig(grid_steps=np.int64(8), random_samples=np.int32(10),
                      tolerance=np.float32(0.5), seed=np.uint8(3))
    assert [type(value) for value in vars(cfg).values()] == [int, int, float, int]
    assert cfg == CheckConfig(grid_steps=8, random_samples=10, tolerance=0.5, seed=3)
    report = check_tnorm_axioms(builtin("product"), cfg)
    assert json.loads(json.dumps(report.to_dict()))["config"] == {
        "grid_steps": 8, "random_samples": 10, "tolerance": 0.5, "seed": 3}


def test_candidate_evaluation_error_carries_point():
    exploding = scalar_from_expression("x/y")
    with pytest.raises(CandidateEvaluationError) as err:
        check_tnorm_axioms(exploding, FAST)
    assert err.value.point == (0.0, 0.0)


# --- family negation ---------------------------------------------------------------

def test_family_negation_reports_per_label():
    family = lift_negation(
        {"a1": builtin("standard-negation"), "a2": builtin("sugeno(1)")}
    )
    report = check_negation_axioms(family, cfg=FAST)
    params = {c.param for c in report.checks}
    assert params == {"a1", "a2"}
    assert report.passed


def test_family_negation_failure_names_label():
    family = lift_negation(
        {"ok": builtin("standard-negation"),
         "bad": scalar_from_expression("1-x*x", arity=1)}
    )
    report = check_negation_axioms(family, cfg=FAST)
    assert report.check("iii", param="ok").passed
    assert not report.check("iii", param="bad").passed


def test_a_negation_check_covers_each_entry_then_the_default():
    # x is not a negation: negate_fss maps every tag but a through it.
    family = lift_negation({"a": builtin("standard-negation")},
                           default=scalar_from_expression("x", arity=1))
    report = check_negation_axioms(family, cfg=FAST)
    _agreed("negation", family, FAST)
    assert report.candidate == "family(a: standard-negation, *: x)"
    assert [check.param for check in report.checks] == ["a"] * 4 + [None] * 4
    assert all(check.passed for check in report.checks if check.param == "a")
    assert not report.passed
    assert {check.label for check in report.failures()} == {"i", "ii"}
    assert {check.param for check in report.failures()} == {None}
    # A lone default or a uniform negation is one scalar, checked once under None.
    for candidate in (lift_negation({}, default=builtin("sugeno(1)")), builtin("sugeno(1)")):
        report = check_negation_axioms(candidate, cfg=FAST)
        assert report.passed and [check.param for check in report.checks] == [None] * 4


# --- duality theorem ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["product", "minimum", "lukasiewicz"])
def test_dual_of_passing_tnorm_passes_tconorm_suite(name):
    report = check_tconorm_axioms(dual_of(builtin(name)), FAST)
    assert report.passed, report.failures()


def test_dual_of_expression_tnorm_passes():
    report = check_tconorm_axioms(dual_of(scalar_from_expression("x*y")), FAST)
    assert report.passed


# --- classification ---------------------------------------------------------------------

def test_classify_minimum():
    cfg = CheckConfig(grid_steps=10)
    report = classify_elements(builtin("minimum"), cfg)
    grid = tuple(k / 10 for k in range(11))
    assert report.idempotents == grid
    assert report.nilpotents == (0.0,)
    assert report.zero_divisors == ()


def test_classify_product():
    report = classify_elements(builtin("product"), CheckConfig(grid_steps=10))
    assert report.idempotents == (0.0, 1.0)
    assert report.nilpotents == (0.0,)
    assert report.zero_divisors == ()


def test_classify_bounded_difference():
    report = classify_elements(builtin("lukasiewicz"), CheckConfig(grid_steps=10))
    assert report.idempotents == (0.0, 1.0)
    assert report.nilpotents == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    values = report.zero_divisor_values
    assert values == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    # 0.8 has a witness but is not nilpotent: f(0.8, 0.8) = 0.6
    entry = next(z for z in report.zero_divisors if z.value == 0.8)
    assert float(builtin("lukasiewicz")(entry.value, entry.witness)) <= report.tolerance
    assert 0.8 not in report.nilpotents
    assert abs(float(builtin("lukasiewicz")(0.8, 0.8)) - 0.6) <= 1e-12
    # every non-zero nilpotent is confirmed a zero divisor
    assert set(report.nonzero_nilpotents) <= set(values)
    assert report.confirmed_nilpotent_zero_divisors == report.nonzero_nilpotents


def test_classify_zero_divisor_witness_is_first_ascending():
    report = classify_elements(builtin("lukasiewicz"), CheckConfig(grid_steps=10))
    for z in report.zero_divisors:
        # the recorded witness is the smallest positive grid value that works
        k = 1
        while float(builtin("lukasiewicz")(z.value, k / 10)) > report.tolerance:
            k += 1
        assert z.witness == k / 10


def test_boundary_idempotence_for_all_builtin_tnorms():
    for name in ("product", "minimum", "lukasiewicz"):
        report = classify_elements(builtin(name), CheckConfig(grid_steps=16))
        assert 0.0 in report.idempotents
        assert 1.0 in report.idempotents


# --- equilibria ---------------------------------------------------------------------------

def _oracle_fixed_point(fn, iters=200):
    """Independent bisection oracle: fixed iteration count, sign-product test."""
    def d(t):
        return fn(t) - t

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if d(lo) * d(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def test_standard_negation_equilibrium_is_half():
    result = find_equilibria(builtin("standard-negation"), ["a1", "a2"])
    assert result.count == 2
    for entry in result.entries:
        assert abs(entry.value - 0.5) <= 1e-9
        assert entry.is_equilibrium


def test_sugeno_equilibrium_matches_oracles():
    result = find_equilibria(builtin("sugeno(1)"), ["a1"])
    got = result.entry("a1").value
    closed_form = math.sqrt(2.0) - 1.0
    oracle = _oracle_fixed_point(lambda t: (1.0 - t) / (1.0 + t))
    assert abs(got - closed_form) <= 1e-9
    assert abs(got - oracle) <= 1e-9


def test_family_has_one_equilibrium_per_label():
    family = lift_negation(
        {"a1": builtin("standard-negation"), "a2": builtin("sugeno(1)")}
    )
    result = find_equilibria(family, ["a1", "a2"])
    assert result.count == 2
    assert abs(result.entry("a1").value - 0.5) <= 1e-9
    assert abs(result.entry("a2").value - (math.sqrt(2) - 1)) <= 1e-9
    # never more equilibria than labels, even with repeats in the request
    repeated = find_equilibria(family, ["a1", "a1", "a2"])
    assert repeated.count == 2


@pytest.mark.parametrize("labels", [["a*b", "b*a"], ["b*a", "a*b", "b*a"]])
def test_equilibria_count_each_tag_once_under_its_first_label(labels):
    result = find_equilibria({"a*b": builtin("sugeno(1)")}, labels)
    assert [entry.label for entry in result.entries] == labels[:1]
    assert result.count == 1


@pytest.mark.parametrize("text, fixed_point", [("x*x", 0.0), ("0.5 + x/2", 1.0)])
def test_a_fixed_point_at_an_end_of_the_interval_is_returned_exactly(text, fixed_point):
    entry = find_equilibria(scalar_from_expression(text, arity=1), ["a"]).entry("a")
    assert (entry.value, entry.residual, entry.is_equilibrium) == (fixed_point, 0.0, True)


def test_reports_refuse_a_label_they_do_not_hold():
    with pytest.raises(KeyError, match="no check labelled 'vi' \\(param=None\\)"):
        check_tnorm_axioms(builtin("product"), FAST).check("vi")
    with pytest.raises(KeyError, match="no entry for label 'b'"):
        find_equilibria(builtin("standard-negation"), ["a"]).entry("b")


def test_no_sign_change_is_a_verdict_not_an_error():
    result = find_equilibria(scalar_from_expression("0-1-x", arity=1), ["a1"])
    entry = result.entry("a1")
    assert not entry.is_equilibrium
    assert entry.value is None
    assert "sign change" in entry.note


def test_grid_points_are_correctly_rounded_quotients():
    # Checks, classification and ``dual --table`` all take their points here.
    for steps in range(1, 1024):
        assert grid_points(steps).tolist() == [k / steps for k in range(steps + 1)]
        assert np.array_equal(grid_points(steps), np.arange(steps + 1) / steps)


# --- configuration bounds --------------------------------------------------------

def test_config_bounds_the_largest_array_without_allocating():
    # Sizes in use: the default, the golden reports' grid 180, the benchmark's
    # grid 256 and 20,000 samples, and the largest grid the bound admits.
    for grid, samples in ((64, 10000), (180, 2000), (256, 20000), (1023, 2**22)):
        CheckConfig(grid_steps=grid, random_samples=samples)
    assert (1023 + 1) ** 3 == MAX_CUBE_POINTS < (1024 + 1) ** 3
    with pytest.raises(ValueError, match="grid_steps = 1024 needs a grid cube of 1076890625 "
                                         "points, more than MAX_CUBE_POINTS = 1073741824"):
        CheckConfig(grid_steps=1024)
    with pytest.raises(ValueError, match="random_samples = 4194305 needs an array"):
        CheckConfig(random_samples=2**22 + 1)
    with pytest.raises(ValueError, match="grid_steps"):
        CheckConfig(grid_steps=10**12)


# --- relations -------------------------------------------------------------------

_TOL = 2.0**-20  # exact sums with 0.5 and 1.0, so each band edge is hit exactly


@pytest.mark.parametrize("relation, want, within, beyond", [
    ("==", 0.5, [0.5 - _TOL, 0.5 + _TOL], [0.5 - 2 * _TOL, 0.5 + 2 * _TOL]),
    ("<=", 0.5, [0.5 + _TOL], [0.5 + 2 * _TOL]),
    (">=", 0.5, [0.5 - _TOL], [0.5 - 2 * _TOL]),
    ("in [0, 1]", None, [-_TOL, 1.0 + _TOL], [-2 * _TOL, 1.0 + 2 * _TOL]),
], ids=["equal", "at-most", "at-least", "codomain"])
def test_a_relation_holds_up_to_the_tolerance_and_nan_violates_it(relation, want, within,
                                                                   beyond):
    def violated(got):
        """Whether each value, as a part of its own, violates the relation."""
        return [_part_witness((0.0,), np.array([v]), want, relation, _TOL) is not None
                for v in got]

    assert violated(within) == [False] * len(within)
    assert violated(beyond) == [True] * len(beyond)
    assert violated([math.nan]) == [True]
    assert _part_witness((np.empty(0),), np.empty(0), want, relation, _TOL) is None


# --- witness selection -------------------------------------------------------------

def _lexsort_witness(parts):
    """Reference: gather every violation of every part and take the first
    row of a stable lexsort, as the verifier once did."""
    rows, got_bad, want_bad = [], [], []
    for cols, got, want, bad in parts:
        if bad.any():
            rows.append(np.column_stack([np.broadcast_to(c, bad.shape)[bad] for c in cols]))
            got_bad.append(got[bad])
            want_bad.append(np.broadcast_to(want, bad.shape)[bad])
    if not rows:
        return None
    rows = np.concatenate(rows)
    index = int(np.lexsort(rows.T[::-1])[0])
    return (tuple(float(v) for v in rows[index]),
            float(np.concatenate(got_bad)[index]), float(np.concatenate(want_bad)[index]))


def _streamed_witness(parts):
    """Each part reduced on its own; a later part replaces the kept point
    only with a strictly smaller tuple, as ``_verify`` does.  Each point
    has its own got, so (args, got, want) names the point picked."""
    best = None
    for cols, got, want, bad in parts:
        if bad.any():
            found = _smallest_violation(cols, got, want, bad, "==")
            if best is None or found.args < best.args:
                best = found
    return None if best is None else (best.args, best.got, best.want)


#: Few distinct values, so equal columns and equal tuples are common.
_POOL = np.array([0.0, 0.25, 0.5, 1.0])


@st.composite
def _violation_parts(draw):
    """Parts of one axiom: the same number of columns in each, each column
    a scalar or an array broadcasting to the part's 1-D or (b, n, n)
    shape, a random violation mask, and got values that tell the points
    apart.  A part may reuse the previous part's columns, so identical
    tuples turn up in different parts."""
    arity = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            shape = (draw(st.integers(1, 12)),)
            layouts = [(), shape]
        else:
            b, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
            shape = (b, n, n)
            layouts = [(), (b, 1, 1), (1, n, 1), (1, 1, n)]
        if parts and parts[-1][3].shape == shape and draw(st.booleans()):
            cols = parts[-1][0]
        else:
            cols = tuple(float(rng.choice(_POOL)) if layout == () else rng.choice(_POOL, layout)
                         for layout in (draw(st.sampled_from(layouts)) for _ in range(arity)))
        bad = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))
        got = rng.random(shape)
        want = float(rng.random()) if draw(st.booleans()) else rng.random(shape)
        parts.append((cols, got, want, bad))
    return parts


@settings(max_examples=300, deadline=None)
@given(_violation_parts())
def test_streamed_witness_matches_the_lexsort_pick(parts):
    assert _streamed_witness(parts) == _lexsort_witness(parts)


def test_witness_ties_go_to_the_earlier_part():
    cols = (np.array([0.5, 0.25]), 1.0)
    first = (cols, np.array([0.1, 0.2]), 0.0, np.array([False, True]))
    second = (cols, np.array([0.3, 0.4]), 0.0, np.array([True, True]))
    expected = ((0.25, 1.0), 0.2, 0.0)  # the first part's second point
    assert _streamed_witness([first, second]) == _lexsort_witness([first, second]) == expected


def test_verify_gives_a_tie_to_the_grid_point():
    # Both parts violate everywhere and share the smallest tuple (0.5,);
    # the grid part reads F (got 3), the samples call (got 2).
    axiom = _Axiom("t", "tie", "==", lambda F, g: (((np.array([0.75, 0.5]),), F, 0.0),),
                   lambda rng, m: (np.array([0.9, 0.5]),), lambda f, x: (f(x), 0.0))
    check = _verify(axiom, lambda x: np.full(np.shape(x), 2.0),
                    np.full(2, 3.0), np.array([0.0]),
                    np.random.default_rng(0), CheckConfig(random_samples=2))
    assert check.witness == Witness((0.5,), 3.0, 0.0, "==")
    assert check.points == 4 and not check.passed


def test_failing_check_memory_is_bounded_by_one_cube_slab():
    # 181 grid points: associativity walks a 4M-point slab and a second one,
    # and fails at almost every point.  Holding the violations, as a gather
    # and sort would, costs several slabs; the streamed witness needs only
    # the slab's got, want and one evaluation temporary.
    slab_bytes = 4_000_000 * 8
    tracemalloc.start()
    try:
        report = check_tnorm_axioms(resolve_connective("x*y*y", 2),
                                    CheckConfig(grid_steps=180, random_samples=2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [c.label for c in report.failures()] == ["i", "iii", "iv"]
    assert peak < 4 * slab_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_passing_check_memory_is_bounded_by_cache_sized_cube_tiles():
    # The benchmark's passing check: 257**3 triples, walked in tiles whose
    # inner values are views of the grid matrix, with grid parts that are
    # views of it too (2.9 MiB in a fresh process).  n**2-length grid
    # argument columns peaked at 9.9 MiB; 4M-point slabs that called the
    # candidate for the inner values, at 100 MiB.
    tracemalloc.start()
    try:
        report = check_tnorm_axioms(resolve_connective("max(x + y - 1, 0)", 2),
                                    CheckConfig(grid_steps=256, random_samples=20000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# --- the tiled cube walk ---------------------------------------------------------

_CUBE_LABELS = {"tnorm": "iv", "implication": "v"}


def _cube_agreed(kind, text, steps, **settings):
    """``_agreed`` for the check of ``text`` with no samples, so its cube axiom decides."""
    cfg = CheckConfig(grid_steps=steps, random_samples=0, **settings)
    return _agreed(kind, scalar_from_expression(text), cfg)


def _check_of(outcome, label):
    """The check labelled ``label`` in a report's JSON text."""
    return next(check for check in json.loads(outcome)["checks"] if check["label"] == label)


def _tile_of(triple, steps):
    """The number of the unmirrored cube tile that holds a grid triple."""
    i, j = (round(v * steps) for v in triple[:2])
    return next(number for number, (xs, ys, _) in enumerate(_cube_tiles(steps + 1))
                if xs.start <= i < xs.stop and (ys.start or 0) <= j < (ys.stop or steps + 1))


#: Associative below the threshold t, so the first violation has x > t.
_LATE = "min(x, y) + 0.001*max(x - {t}, 0)*max(y - {t}, 0)"


@pytest.mark.parametrize("kind, text, steps, first_tile", [
    ("tnorm", "x*y*y", 100, 0),
    ("tnorm", "max(x + y - 1, 0)", 100, None),
    ("tnorm", _LATE.format(t=0.7), 100, 23),
    ("tnorm", _LATE.format(t=0.98), 100, 33),
    ("tnorm", _LATE.format(t=0.99), 181, 361),
    ("implication", "min(1, 1 - x + y*y)", 100, 0),
    ("implication", "max(1 - x, y)", 181, None),
])
def test_tiled_cube_matches_the_reference(kind, text, steps, first_tile):
    # Grid 100 walks blocks of 3 x-planes; grid 181 walks blocks of y-rows,
    # two tiles to a plane.
    n = steps + 1
    assert (n * n <= CUBE_TILE_POINTS) == (steps == 100)
    witness = _check_of(_cube_agreed(kind, text, steps), _CUBE_LABELS[kind])["witness"]
    assert (None if witness is None else _tile_of(witness["args"], steps)) == first_tile


@pytest.mark.parametrize("kind, text, steps", [
    ("tnorm", "x*y*y", 100),
    ("tnorm", _LATE.format(t=0.7), 100),
    ("tnorm", _LATE.format(t=0.99), 181),
    ("tnorm", "pow(x - y, 0.5)", 100),
    ("implication", "min(1, 1 - x + y*y)", 100),
    ("implication", "max(1 - x, y)", 181),
])
def test_array_path_cube_matches_the_reference(kind, text, steps):
    # A candidate that is not a compiled expression walks half-size tiles
    # and returns fresh arrays.
    candidate = _on_the_array_path(scalar_from_expression(text))
    _agreed(kind, candidate, CheckConfig(grid_steps=steps, random_samples=0))


def test_tiled_cube_raises_at_the_same_point_as_the_reference():
    # x*y*y violates associativity in the first tile; the candidate raises
    # only on off-grid second arguments with x >= 0.5, which no grid matrix
    # value gives, but the outer call f(x, f(y, z)) of a later tile does.
    steps = 100
    g = np.arange(steps + 1, dtype=float) / steps
    inner = scalar_from_expression("x*y*y")

    def raising(x, y):
        if np.any((np.asarray(x) >= 0.5) & ~np.isin(y, g)):
            raise EvalError("off-grid second argument")
        return inner(x, y)

    cfg = CheckConfig(grid_steps=steps, random_samples=0)
    assert _tile_of(check_tnorm_axioms(inner, cfg).check("iv").witness.args, steps) == 0
    error, message, point = _agreed("tnorm", _with_fn(inner, raising), cfg)
    assert error == "CandidateEvaluationError" and point.startswith("(0.5, ")


# --- the mirrored cube walk ------------------------------------------------------------

@pytest.mark.parametrize("most", [2**15, 2**14])
def test_unmirrored_cube_tiles_are_unchanged(most):
    # Where tiles split decides which side an evaluation error is named in.
    for n in range(2, 301):
        assert list(_cube_tiles(n, most)) == list(reference.cube_tiles(n, most)), n


def _ranges(tile, n):
    return [range(*axis.indices(n)) for axis in tile]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("most", [1, 4, 40, 2**10, 2**14, 2**15])
def test_screen_tiles_cover_the_ascending_triples_in_order_of_their_first_plane(most, k):
    # k = 2 covers every a <= b for any c, and k = 3 every a <= b <= c.
    for n in [*range(2, 41), 101, 182, 257]:
        covered = np.zeros((n, n, n), dtype=bool)
        first = 0
        for tile in _screen_tiles(n, most, k):
            xs, ys, zs = _ranges(tile, n)
            assert 0 < len(xs) * len(ys) * len(zs) <= min(n ** 3, max(most, n))
            assert xs.start >= first
            first = xs.start
            covered[xs.start:xs.stop, ys.start:ys.stop, zs.start:zs.stop] = True
        a, b, c = np.ogrid[:n, :n, :n]
        assert covered[(a <= b) & ((b <= c) if k == 3 else (c >= 0))].all(), n


def test_tiles_at_the_benchmark_grid():
    assert len(list(_cube_tiles(257))) == 771

    def extent(k):
        tiles = [_ranges(tile, 257) for tile in _screen_tiles(257, CUBE_TILE_POINTS, k)]
        return len(tiles), sum(len(xs) * len(ys) * len(zs) for xs, ys, zs in tiles)

    # Against 8,520,321 triples with a <= b and 2,862,209 with a <= b <= c.
    assert extent(2) == (321, 8_717_183)
    assert extent(3) == (207, 3_332_249)


#: Symmetric, and raises only where f(x, f(y, z)) or f(f(x, y), z) sums to
#: c: never on the grid matrix at 100 steps for these c.  At c = 1.0625
#: the first raising triple, (0.11, 0.75, 0.98), lies in the fourth tile of
#: the unmirrored walk (x-planes 9 to 11), and raises in the second side
#: only: the first side raises no earlier than x = 0.16.
_RAISES_IN_THE_CUBE = "x*y + 0*(1/(x + y - {c}))"

#: Symmetric, and associative below the threshold t.
_LATE_SYMMETRIC = "min(x, y) + 0.001*(max(x - {t}, 0)*max(y - {t}, 0))"


def test_a_mirrored_walk_raises_where_the_reference_does():
    text = _RAISES_IN_THE_CUBE.format(c=1.0625)
    assert scalar_from_expression(text).fn.symmetric
    error, message, point = _cube_agreed("tnorm", text, 100)
    assert error == "CandidateEvaluationError" and point == repr((0.11 * 0.75, 0.98))
    assert _tile_of((0.11, 0.75), 100) == 3


@pytest.mark.parametrize("text", [
    "x*y", "min(x, y)", "max(x + y - 1, 0)", "x + y - x*y", "min(1, 1 - x + y)",
    "max(pow(0, max(x - y, 0)), y)", "x*y*y", _LATE.format(t=0.7),
    _LATE_SYMMETRIC.format(t=0.7), _LATE_SYMMETRIC.format(t=0.99),
    *(_RAISES_IN_THE_CUBE.format(c=c) for c in (0.3125, 1.0625, 1.4375)),
    # First violations with z < x, past the first tile: associativity at
    # 181 steps (not symmetric) and exchange at both.
    "min(x, y) + 0.001*max(x - 0.5, 0)",
    "max(1 - x, y)*(1 - 0.01*max(x - 0.5, 0)*max(0.5 - y, 0))",
])
@pytest.mark.parametrize("kind", ["tnorm", "implication"])
@pytest.mark.parametrize("steps", [100, 181])
def test_a_mirrored_walk_matches_the_reference(text, kind, steps):
    # Grid 100 walks blocks of x-planes; grid 181 walks blocks of y-rows.
    _cube_agreed(kind, text, steps)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["implication", "tconorm", "tnorm"]),
       text=st.one_of(asts.map(pretty_print),
                      st.builds(joined_with_its_swap, asts.map(pretty_print), COMMUTATIVE_OPS)),
       steps=st.sampled_from([100, 181]))
def test_a_mirrored_walk_matches_the_reference_on_random_expressions(kind, text, steps):
    _cube_agreed(kind, text, steps)


@pytest.mark.parametrize("text", [
    "max(x + y - 1, 0)", "min(1, 1 - x + y)", _LATE_SYMMETRIC.format(t=0.99),
    # Fails first at (253, 253, 254) / 256, in the tile of y-rows 127 to 253.
    _LATE_SYMMETRIC.format(t=0.985),
    # Raises first at (231, 241, 252) / 256, in the second side, inside the
    # exchange screen tile of a-planes 231 to 237 and the associativity one
    # of a-planes 207 to 246.
    _RAISES_IN_THE_CUBE.format(c=1.8338470458984375),
])
@pytest.mark.parametrize("kind", ["tnorm", "implication"])
def test_a_mirrored_walk_matches_the_reference_at_the_benchmark_grid(text, kind):
    # Grid 256 is where screen tiles differ most from the walk's: blocks of
    # 16 b-rows in 7 a-planes (exchange), or in 7 to 40 (associativity),
    # against three y-row tiles in every x-plane.
    _cube_agreed(kind, text, 256)


# --- the sorted-triple screen of associativity -------------------------------------------

#: Symmetric, and NaN where min(x, y) > c: 10**200 squared is inf, and 0 * inf
#: is NaN.  At a sorted triple whose least coordinate alone is at most c,
#: the screen's first value is NaN and the other two are that coordinate.
_NAN_ABOVE = "min(x, y) + 0*(max(min(x, y) - {c}, 0)*%s*%s)" % (("1" + "0" * 200,) * 2)

#: Symmetric expressions with a parameter c, in order: four associative up
#: to rounding (the last the Hamacher product), one off by up to 1e-10 * c,
#: one failing above c, one associative at c = 1 only, one raising in the
#: cube for some c, and one NaN above c; then |x - y| and its negation, in
#: which two of the screen's three values agree at every sorted triple
#: (the first two, and the last two).
_ASSOCIATIVE_FAMILIES = (
    "x*y*{c}", "x + y - x*y*{c}", "min(min(x, y), {c})", "x*y/({c} + (1 - {c})*(x + y - x*y))",
    "min(x, y) + x*y*{c}*0.0000000001", _LATE_SYMMETRIC.replace("{t}", "{c}"),
    "max(x + y - {c}, 0)", _RAISES_IN_THE_CUBE, _NAN_ABOVE,
    "max(x, y) - min(x, y)", "min(x, y) - max(x, y)",
)

_symmetric_texts = st.one_of(
    st.builds(joined_with_its_swap, asts.map(pretty_print), COMMUTATIVE_OPS).map(
        lambda text: text.replace("pow", "max")),
    st.builds(str.format, st.sampled_from(_ASSOCIATIVE_FAMILIES),
              c=st.sampled_from(["0", "0.25", "0.3", "0.5", "0.99", "1", "0.3125", "1.0625",
                                 "1.4375", "1.863"])),
)


@settings(max_examples=200, deadline=None)
@given(text=_symmetric_texts, steps=st.sampled_from([2, 3, 7, 16, 40, 100]),
       tol=st.sampled_from([1e-12, 1e-9, 0.01]))
def test_the_screen_passes_exactly_when_the_reference_finds_nothing(text, steps, tol):
    assert scalar_from_expression(text).fn.symmetric
    if screened := _screened("tnorm", text, steps, tol):
        passed, tilings = screened
        assert tilings == ([3] if passed else [3, "walk"])


def _screened(kind, text, steps, tol):
    """Whether the agreed check of ``text`` passed its cube axiom, and the
    tilings it took, in order: the k of each screen, and "walk" for each
    walk; None if the grid matrix raises: no cube is screened."""
    try:
        _grid_matrix(scalar_from_expression(text), grid_points(steps))
    except CandidateEvaluationError:
        return None
    tilings = []
    with mock.patch.object(analysis, "_screen_tiles", lambda n, most, k:
                           tilings.append(k) or _screen_tiles(n, most, k)), \
         mock.patch.object(analysis, "_cube_tiles", lambda n, most:
                           tilings.append("walk") or _cube_tiles(n, most)):
        outcome = _cube_agreed(kind, text, steps, tolerance=tol)
    return isinstance(outcome, str) and _check_of(outcome, _CUBE_LABELS[kind])["passed"], tilings


@pytest.mark.parametrize("text", [
    *(_LATE_SYMMETRIC.format(t=t) for t in (0.19, 0.44, 0.8)),
    *(_RAISES_IN_THE_CUBE.format(c=c) for c in (1.1602999999999999, 1.6563)),
    _NAN_ABOVE.format(c=0.45),
])
def test_a_walk_after_a_failing_screen_tile_keeps_the_tiles_that_reach_its_first_plane(text):
    # At 100 steps screen tiles start at a-planes 0, 20, 45 and 81, and the
    # walk's tiles are three x-planes each, so plane 20 lies inside the
    # walk's tile of planes 18 to 20.  Each candidate but the last first
    # violates or raises at plane 20, 45 or 81.  The last fails at a = 0
    # by one NaN value of three, and with all three NaN from a = 0.46 on.
    _cube_agreed("tnorm", text, 100)


def test_a_late_failing_symmetric_walk_screens_most_of_the_cube():
    text = _LATE_SYMMETRIC.format(t=0.99)
    _cube_agreed("tnorm", text, 256)
    check, tiles = _walked_tiles("tnorm", text, 256)
    assert not check.passed
    assert len(tiles) < len(list(_screen_tiles(257, CUBE_TILE_POINTS, 2))) == 321


# --- the exchange screen, and where the walk stops ----------------------------------------

#: Implications with a parameter c, in order: Łukasiewicz and Reichenbach,
#: which exchange at c = 1 only; Kleene-Dienes capped at c, which exchanges
#: for c >= 1; one failing early, and raising in the cube for some c; one
#: exchanging, and raising in the cube for some c; and Kleene-Dienes, NaN
#: where min(x, y) > c.
_EXCHANGE_FAMILIES = (
    "min(1, {c} - x + y)", "1 - x + {c}*x*y", "max(1 - x, min(y, {c}))",
    "min(1, 1 - x + y*y) + 0*(1/(x + y - {c}))", "1 - x + x*y + 0*(1/(x + y - {c}))",
    _NAN_ABOVE.replace("min(x, y) + ", "max(1 - x, y) + "),
)

_exchange_texts = st.one_of(
    asts.map(pretty_print),
    st.builds(str.format, st.sampled_from(_EXCHANGE_FAMILIES),
              c=st.sampled_from(["0", "0.25", "0.5", "0.99", "1", "1.0625", "1.4375", "1.863"])),
)


@settings(max_examples=200, deadline=None)
@given(text=_exchange_texts, steps=st.sampled_from([2, 3, 7, 16, 40, 100]),
       tol=st.sampled_from([1e-12, 1e-9, 0.01]))
def test_the_exchange_screen_passes_exactly_when_the_reference_finds_nothing(text, steps, tol):
    if screened := _screened("implication", text, steps, tol):
        passed, tilings = screened
        assert tilings == ([2] if passed else [2, "walk"])


#: Kleene-Dienes, raised where x = 0.17 and y = 0.97: at 100 steps exchange
#: fails only where x and y are 0.03 and 0.17, in either order.
_FAILS_AT_3_AND_17 = ("max(1 - x, y) + 0.01*max(0, 0.005 - abs(x - 0.17))"
                      "*max(0, 0.005 - abs(y - 0.97))")


def test_an_exchange_screen_folds_the_rest_of_the_block_of_its_first_failure():
    # The screen's first block is a-planes 0 to 19 in b-rows of 16.  Its
    # first tile fails first at b = 3 < a = 17; the mirror, a = 3 < b = 17,
    # lies in the block's second tile, so the walk starts at plane 3.
    tiles = list(_screen_tiles(101, CUBE_TILE_POINTS, 2))[:2]
    assert [(t[0].stop, t[1].start, t[1].stop) for t in tiles] == [(20, 0, 16), (20, 16, 32)]
    witness = _check_of(_cube_agreed("implication", _FAILS_AT_3_AND_17, 100), "v")["witness"]
    assert witness["args"] == [0.03, 0.17, 0.0]


def _walked_tiles(kind, text, steps):
    """The cube check of ``text`` (or its error), and the tiles at which it
    evaluated the candidate, screen tiles first, in order."""
    candidate = scalar_from_expression(text)
    tiles = []

    def inner(layouts, tile, i, j):
        if not tiles or tiles[-1] is not tile:
            tiles.append(tile)
        return _tile_inner(layouts, tile, i, j)

    with mock.patch.object(analysis, "_tile_inner", inner):
        try:
            report = _CHECKERS[kind](candidate, CheckConfig(grid_steps=steps, random_samples=0))
        except CandidateEvaluationError as err:
            return err, tiles
    return report.check(_CUBE_LABELS[kind]), tiles


@pytest.mark.parametrize("kind, text, steps, screen_tiles, walk_tiles", [
    ("tnorm", "x*y*y", 100, 0, 1),  # not symmetric, so not screened
    ("tnorm", "(x + y)*0.5", 256, 1, 1),
    # Fails first at (1, 241, 0) / 256.  The screen folds the 17 tiles of its
    # first block (a from 0 to 6), whose first failing plane is 1, and the
    # walk goes from x-plane 1 to the fifth tile (x-plane 1, y to 253).
    ("implication", "min(1, 1 - x + y*y)", 256, 17, 2),
    # Fails first at x-plane 254, inside the last screen tile (a from 247),
    # so the walk evaluates one tile: x-plane 254, y from 254.
    ("tnorm", _LATE_SYMMETRIC.format(t=0.99), 256, 207, 1),
])
def test_a_walk_that_cannot_raise_stops_at_its_witness_tile(kind, text, steps, screen_tiles,
                                                             walk_tiles):
    assert not scalar_from_expression(text).fn.divides
    check, tiles = _walked_tiles(kind, text, steps)
    assert len(tiles) == screen_tiles + walk_tiles
    walk = list(_cube_tiles(steps + 1))
    assert tiles[-1] == walk[_tile_of(check.witness.args, steps)]
    assert len(walk) == (34 if steps == 100 else 771)


@pytest.mark.parametrize("kind, text, steps, point, tiles_walked", [
    # Not symmetric, so not screened: the walk finds its witness in its
    # first tile and walks on to the sixth (x-planes 15 to 17), which raises.
    ("tnorm", "x*y*y + 0*(1/(x + y - 1.0625))", 100, (0.16, 0.9025), 6),
    # The screen raises in its first tile, so the walk, from x-plane 0,
    # raises in its first tile too, in the second side, at
    # h(0.07, F[0.01, 0.05]).
    ("implication", "min(1, 1 - x + y*y) + 0*(1/(x + y - 1.0625))", 100,
     (0.07, 0.9924999999999999), 2),
    # Symmetric: the screen fails in its first tile and raises in its last
    # of 8 (a from 31), since x*y is 8001/8192 only at (63/64, 127/128), so
    # the walk goes from the tile of x-plane 31 to the one of 63 and 64.
    ("tnorm", "(x + y)*0.5 + 0*(1/(x*y - 0.9766845703125))", 64, (0.984375, 0.9921875), 14),
])
def test_a_walk_that_may_raise_goes_on_past_its_witness(kind, text, steps, point, tiles_walked):
    error, message, at = _cube_agreed(kind, text, steps)
    assert error == "CandidateEvaluationError" and at == repr(point)
    error, tiles = _walked_tiles(kind, text, steps)
    assert error.point == point and len(tiles) == tiles_walked
    # Without its division the candidate fails in the first tile.
    check, _ = _walked_tiles(kind, text.split(" + 0*(1/")[0], steps)
    assert _tile_of(check.witness.args, steps) == 0


# --- locating an evaluation error ------------------------------------------------------

_NUMERATORS = ("1", "x", "y", "x*y", "1-x")
_DENOMINATORS = ("x - 0.5", "y - 0.25", "x - y", "x*y - 0.25", "x + y - 1", "1 - x", "y",
                 "x - 0.75*y", "min(x, y) - 0.5")


@st.composite
def _division_cases(draw):
    terms = draw(st.lists(st.tuples(st.sampled_from(_NUMERATORS), st.sampled_from(_DENOMINATORS)),
                          min_size=1, max_size=3))
    text = " + ".join(f"{num}/({den})" for num, den in terms)
    n = draw(st.integers(2, 12))
    g = np.arange(n + 1, dtype=float) / n
    layout = draw(st.sampled_from(["grid", "cube", "samples"]))
    if layout == "grid":
        args = (g[:, None], g[None, :])
    elif layout == "cube":
        args = (g[:, None, None], (g[None, :, None] + g[None, None, :]) / 2)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        args = (rng.choice(g, 40), rng.choice(g, 40))
    return scalar_from_expression(text), args


@settings(max_examples=200, deadline=None)
@given(_division_cases())
def test_located_failure_matches_a_point_by_point_walk(case):
    candidate, args = case
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    assert repr(_locate_failure(candidate, args, shape)) == repr(
        reference.walk_to_failure(candidate, args, shape))


def test_locating_a_failure_takes_logarithmically_many_calls():
    inner = scalar_from_expression("y/(x-1)")
    calls = []

    def counted(x, y):
        calls.append(np.size(x))
        return inner(x, y)

    with pytest.raises(CandidateEvaluationError) as err:
        check_tnorm_axioms(_with_fn(inner, counted),
                           CheckConfig(grid_steps=600, random_samples=0))
    # The first failing point opens the last row: a walk makes 360,601 calls.
    assert err.value.point == (1.0, 0.0)
    assert len(calls) <= 2 * math.ceil(math.log2(601)) + 2


# --- witness re-evaluation (ROADMAP contract 3b) -----------------------------------

_EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "y", "0", "1", "0.5", "0.25", "2", "-1"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["min", "max", "pow"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        inner.map(lambda e: f"abs({e})")),
    max_leaves=6)


def _of_kind(kind, text):
    """``text`` as a candidate of ``kind``: a negation reads x for y."""
    if kind == "negation":
        return scalar_from_expression(text.replace("y", "x"), arity=1)
    return scalar_from_expression(text)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_CHECKERS)), text=_EXPRESSIONS,
       steps=st.integers(2, 12), samples=st.integers(0, 40), seed=st.integers(0, 2**16),
       tol=st.sampled_from([1e-9, 1e-3, 0.1]))
def test_every_witness_violates_its_axiom_when_evaluated_again(kind, text, steps, samples,
                                                               seed, tol):
    candidate = _of_kind(kind, text)
    cfg = CheckConfig(grid_steps=steps, random_samples=samples, seed=seed, tolerance=tol)
    report = _CHECKERS[kind](candidate, cfg=cfg)
    for check in report.checks:
        if check.passed:
            assert check.witness is None
            continue
        # The axiom as the reference states it, called with scalars.
        axiom = next(axiom for axiom in reference.AXIOMS[kind] if axiom.label == check.label)
        witness = check.witness
        assert witness.relation == axiom.relation
        evaluated = axiom.sides(lambda *args: float(candidate(*args)), *witness.args)
        assert reference.violated(*evaluated, axiom.relation, tol), (check.label, witness,
                                                                     evaluated)


# --- every check against the reference verifier ----------------------------------------

@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_CHECKERS)), text=_EXPRESSIONS,
       steps=st.integers(2, 40), samples=st.sampled_from([0, 1, 7, 300]),
       seed=st.integers(0, 2**16))
def test_checks_match_the_reference(kind, text, steps, samples, seed):
    _agreed(kind, _of_kind(kind, text),
            CheckConfig(grid_steps=steps, random_samples=samples, seed=seed))


_BUILTIN_KINDS = [
    (name, kind) for name in [*builtin_names(), "sugeno(1)", "sugeno(0.5)"] if name != "sugeno(L)"
    for kind in (["negation"] if builtin(name).arity == 1 else ["implication", "tconorm", "tnorm"])]


@pytest.mark.parametrize("name, kind", _BUILTIN_KINDS)
@pytest.mark.parametrize("steps, samples", [(2, 0), (7, 50), (40, 200)])
@pytest.mark.parametrize("path", ["register", "array"])
def test_builtins_match_the_reference(name, kind, steps, samples, path):
    # The array path calls the builtin's body as a plain callable.
    candidate = builtin(name) if path == "register" else _on_the_array_path(builtin(name))
    _agreed(kind, candidate, CheckConfig(grid_steps=steps, random_samples=samples))


@pytest.mark.parametrize("text, value", [
    ("pow(x - y, 0.5)", "NaN"),               # NaN below the diagonal
    ("pow(x*y, 0 - 1)", "Infinity"),          # +inf on the axes
    ("0 - pow(x + y, 0 - 1)", "-Infinity"),   # -inf at the origin
    ("x*y*(0 - 1)", "-0.0"),                  # -0.0 where x or y is 0
    ("x + y - 1", "-1.0"),                    # values outside [0, 1]
])
@pytest.mark.parametrize("kind", ["implication", "tconorm", "tnorm"])
def test_special_values_match_the_reference(text, value, kind):
    cfg = CheckConfig(grid_steps=12, random_samples=40)
    assert value in _agreed(kind, scalar_from_expression(text), cfg)


def _raising_on(inner, where):
    def raising(x, y):
        if np.any(where(np.asarray(x, dtype=float), np.asarray(y, dtype=float))):
            raise EvalError("raised")
        return inner(x, y)
    return _with_fn(inner, raising)


@pytest.mark.parametrize("where, samples", [
    (lambda x, y: (x == 0.5) & (y == 0.25), 0),             # a grid point: the grid matrix
    (lambda x, y: (x > 0.3001) & (x < 0.3002), 20000),      # no grid point up to 40 steps
    (lambda x, y: (x >= 0.5) & (y > 0.0) & (y < 0.01), 0),  # off-grid second arguments: the cube
])
@pytest.mark.parametrize("kind", ["implication", "tconorm", "tnorm"])
def test_raising_candidates_match_the_reference(where, samples, kind):
    cfg = CheckConfig(grid_steps=40, random_samples=samples)
    error, message, point = _agreed(kind, _raising_on(scalar_from_expression("x*y*y"), where), cfg)
    assert where(*map(np.array, ast.literal_eval(point)))


#: p = max(0, x*(0.5 - x)) vanishes at the grid points 0, 1/2 and 1 of two steps, so
#: each candidate passes its axiom there and fails it between them: its witness is a
#: sample, of one of the shapes that the draw schedule has.
_P = "max(0, {v}*(0.5 - {v}))"


@pytest.mark.parametrize("kind, text, label", [
    ("tnorm", "x*y - " + _P.format(v="x"), "codomain"),  # two uniform columns
    ("tnorm", "x*y + %s*%s" % (_P.format(v="x"), _P.format(v="y")), "iv"),  # three
    ("tnorm", "x*y - 2*" + _P.format(v="x"), "v"),  # two sorted pairs
    ("implication", "max(1 - x, y) + 10*" + _P.format(v="x"), "i"),  # a sorted pair, a repeat
], ids=["uniform-2", "uniform-3", "sorted-pairs", "sorted-pair-and-repeat"])
def test_a_sampled_witness_matches_the_reference(kind, text, label):
    cfg = CheckConfig(grid_steps=2, random_samples=200)
    witness = _check_of(_agreed(kind, scalar_from_expression(text), cfg), label)["witness"]
    assert not {2 * v for v in witness["args"]} <= {0.0, 1.0, 2.0}, witness


# --- report serialization ----------------------------------------------------
# The hand-written ``to_dict`` of each report record, as it was before one
# base class serialized them all: the reference for the shared ``to_dict``.

def _reference_witness(w):
    return {"args": list(w.args), "got": w.got, "want": w.want, "relation": w.relation}


def _reference_check(c):
    return {
        "label": c.label,
        "description": c.description,
        "param": c.param,
        "passed": c.passed,
        "points": c.points,
        "witness": None if c.witness is None else _reference_witness(c.witness),
    }


def _reference_report(r):
    return {
        "kind": r.kind,
        "candidate": r.candidate,
        "config": dict(vars(r.config)),
        "passed": r.passed,
        "checks": [_reference_check(check) for check in r.checks],
    }


def _reference_classification(r):
    return {
        "candidate": r.candidate,
        "grid_steps": r.grid_steps,
        "tolerance": r.tolerance,
        "idempotents": list(r.idempotents),
        "nilpotents": list(r.nilpotents),
        "zero_divisors": [{"value": z.value, "witness": z.witness} for z in r.zero_divisors],
        "confirmed_nilpotent_zero_divisors": list(r.confirmed_nilpotent_zero_divisors),
    }


def _reference_equilibria(r):
    return {
        "tolerance": r.tolerance,
        "count": r.count,
        "entries": [dict(vars(e)) for e in r.entries],
    }


_REFERENCE_TO_DICT = {
    CheckConfig: lambda c: dict(vars(c)),
    Witness: _reference_witness,
    AxiomCheck: _reference_check,
    AxiomReport: _reference_report,
    ZeroDivisor: lambda z: {"value": z.value, "witness": z.witness},
    ClassificationReport: _reference_classification,
    EquilibriumEntry: lambda e: dict(vars(e)),
    EquilibriumResult: _reference_equilibria,
}

_REPORT_CASES = {
    "tnorm-pass": lambda: check_tnorm_axioms(builtin("product"), FAST),
    "tnorm-fail": lambda: check_tnorm_axioms(scalar_from_expression("x*y*y"), FAST),
    "implication": lambda: check_implication_axioms(builtin("lukasiewicz-implication"), FAST),
    # b fails involution, so its witnesses carry a param
    "negation-family": lambda: check_negation_axioms(
        {"a": builtin("standard-negation"), "b": scalar_from_expression("1 - x*x", arity=1)},
        cfg=FAST),
    "classification": lambda: classify_elements(builtin("lukasiewicz"), CheckConfig(grid_steps=10)),
    # b never crosses n(x) = x, so its entry has no value
    "equilibria": lambda: find_equilibria(
        {"a": builtin("standard-negation"), "b": scalar_from_expression("0-1-x", arity=1)},
        ["a", "b"]),
}


@pytest.mark.parametrize("case", _REPORT_CASES)
def test_to_dict_matches_the_hand_written_reference(case):
    report = _REPORT_CASES[case]()
    reference = _REFERENCE_TO_DICT[type(report)](report)
    assert report.to_dict() == reference
    assert (json.dumps(report.to_dict(), sort_keys=True, indent=2)
            == json.dumps(reference, sort_keys=True, indent=2))


def _record_types(value) -> set:
    if isinstance(value, tuple):
        return set().union(*map(_record_types, value))
    if isinstance(value, Record):
        return {type(value)}.union(*map(_record_types, vars(value).values()))
    return set()


def test_reference_cases_reach_every_report_record():
    reports = {case: run() for case, run in _REPORT_CASES.items()}
    assert {check.param for check in reports["negation-family"].failures()} == {"b"}
    assert reports["classification"].confirmed_nilpotent_zero_divisors
    assert reports["equilibria"].entry("b").value is None
    assert set().union(*map(_record_types, reports.values())) == set(_REFERENCE_TO_DICT)
