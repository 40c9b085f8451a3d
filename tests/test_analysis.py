import dataclasses
import json
import math
import tracemalloc
import warnings
from functools import partial
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
    continuity_probe,
    dual_of,
    find_equilibria,
    lift_negation,
    scalar_from_expression,
)
from fuzzysoft import analysis
from fuzzysoft.analysis import (
    CUBE_TILE_POINTS,
    MAX_ARRAY_VALUES,
    AxiomCheck,
    AxiomReport,
    ClassificationReport,
    ContinuityEstimate,
    EquilibriumEntry,
    EquilibriumResult,
    Witness,
    ZeroDivisor,
    _Axiom,
    _IMPLICATION_AXIOMS,
    _TCONORM_AXIOMS,
    _TNORM_AXIOMS,
    _call,
    _cube_tiles,
    _grid_matrix,
    _locate_failure,
    _smallest_violation,
    _tile_inner,
    _verify,
    _violations,
    _walk_cube,
    grid_points,
)
from fuzzysoft.connectives import builtin_names, resolve_connective
from fuzzysoft.errors import DslError, EvalError, FuzzySoftError
from fuzzysoft.expr import CompiledExpr, pretty_print
from fuzzysoft.record import Record
from test_expr import COMMUTATIVE_OPS, asts, joined_with_its_swap

FAST = CheckConfig(grid_steps=16, random_samples=200, seed=5)


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


def test_no_sign_change_is_a_verdict_not_an_error():
    result = find_equilibria(scalar_from_expression("0-1-x", arity=1), ["a1"])
    entry = result.entry("a1")
    assert not entry.is_equilibrium
    assert entry.value is None
    assert "sign change" in entry.note


# --- continuity probe -----------------------------------------------------------------------

_CONTINUOUS_BINARY_BUILTINS = (
    "product", "minimum", "lukasiewicz", "maximum", "probsum", "boundedsum",
    "lukasiewicz-implication", "kleene-dienes-implication",
)


@pytest.mark.parametrize("name", _CONTINUOUS_BINARY_BUILTINS)
def test_probe_clears_lipschitz_builtins(name):
    cfg = CheckConfig(grid_steps=32)
    estimate = continuity_probe(builtin(name), cfg)
    # per-axis Lipschitz-1, so adjacent jumps stay within 2 grid spacings
    assert estimate.max_jump <= 2.0 / estimate.fine_steps + 1e-12
    assert not estimate.suspected_discontinuity


def test_probe_flags_jump():
    estimate = continuity_probe(builtin("godel-implication"), CheckConfig(grid_steps=32))
    assert estimate.suspected_discontinuity
    x1, y1, x2, y2 = estimate.at
    g = builtin("godel-implication")
    assert abs(float(g(x2, y2)) - float(g(x1, y1))) == estimate.max_jump


def test_probe_of_an_infinite_grid_matrix_warns_nothing():
    # 1/x is inf along x = 0, so adjacent differences there are inf - inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = continuity_probe(scalar_from_expression("pow(x, -1)"),
                                    CheckConfig(grid_steps=4))
    # An undefined jump counts as unbounded, so the pole is flagged.
    assert estimate.to_dict() == {
        "candidate": "pow(x, -1)", "fine_steps": 16, "spacing": 0.0625,
        "max_jump": math.inf, "at": [0.0, 0.0, 0.0625, 0.0], "threshold": 0.625,
        "suspected_discontinuity": True}


def test_grid_points_are_correctly_rounded_quotients():
    # Checks, the probe and ``dual --table`` all take their points here.
    for steps in range(1, 1024):
        assert grid_points(steps).tolist() == [k / steps for k in range(steps + 1)]
        assert np.array_equal(grid_points(steps), np.arange(steps + 1) / steps)


@pytest.mark.parametrize("name", ["godel-implication", "lukasiewicz"])
def test_probe_memory_is_the_grid_matrix_and_one_jump_matrix(name):
    # Grid 300: a 1201 x 1201 matrix of 11 MiB.  The probe holds it, one
    # axis's jumps (absolute values taken in place) and their NaN mask;
    # a copy for the absolute values and the other axis's jumps made 4.
    matrix_bytes = (4 * 300 + 1) ** 2 * 8
    tracemalloc.start()
    try:
        continuity_probe(builtin(name), CheckConfig(grid_steps=300))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * matrix_bytes, f"peak {peak / matrix_bytes:.2f} matrices"


@pytest.mark.parametrize("text", ["pow(x, -1)", "pow(x, -1)*0 + x*y", "pow(x - 2, 0.5)"])
def test_probe_counts_an_undefined_jump_as_unbounded(text):
    # inf - inf and inf * 0 put NaN into the differences or the grid matrix.
    estimate = continuity_probe(scalar_from_expression(text), CheckConfig(grid_steps=4))
    assert estimate.max_jump == math.inf
    assert estimate.suspected_discontinuity


# --- configuration bounds --------------------------------------------------------

def test_config_bounds_the_largest_array_without_allocating():
    # Sizes in use: the default, the golden reports' grid 180, the benchmark's
    # grid 256 and 20,000 samples, and the largest grid the bound admits.
    for grid, samples in ((64, 10000), (180, 2000), (256, 20000), (1023, 2**22)):
        CheckConfig(grid_steps=grid, random_samples=samples)
    assert (4 * 1023 + 1) ** 2 <= MAX_ARRAY_VALUES < (4 * 1024 + 1) ** 2
    with pytest.raises(ValueError, match="grid_steps = 1024 needs an array"):
        CheckConfig(grid_steps=1024)
    with pytest.raises(ValueError, match="random_samples = 4194305 needs an array"):
        CheckConfig(random_samples=2**22 + 1)
    with pytest.raises(ValueError, match="grid_steps"):
        CheckConfig(grid_steps=10**12)


# --- witness selection -------------------------------------------------------------

def _lexsort_witness(parts):
    """Reference: gather every violation of every part and take the first
    row of a stable lexsort, as the verifier once did."""
    rows, got_bad, want_bad, where = [], [], [], []
    for number, (cols, got, want, bad) in enumerate(parts):
        if bad.any():
            rows.append(np.column_stack([np.broadcast_to(c, bad.shape)[bad] for c in cols]))
            got_bad.append(got[bad])
            want_bad.append(np.broadcast_to(want, bad.shape)[bad])
            where += [(number, int(i)) for i in np.flatnonzero(bad)]
    if not rows:
        return None
    rows = np.concatenate(rows)
    index = int(np.lexsort(rows.T[::-1])[0])
    return (where[index], tuple(float(v) for v in rows[index]),
            float(np.concatenate(got_bad)[index]), float(np.concatenate(want_bad)[index]))


def _streamed_witness(parts):
    """Each part reduced on its own; a later part replaces the kept point
    only with a strictly smaller tuple, as ``_verify`` does."""
    best = None
    for number, (cols, got, want, bad) in enumerate(parts):
        if bad.any():
            index, found = _smallest_violation(cols, got, want, bad, "==")
            if best is None or found.args < best[1].args:
                best = ((number, index), found)
    if best is None:
        return None
    return best[0], best[1].args, best[1].got, best[1].want


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
    expected = ((0, 1), (0.25, 1.0), 0.2, 0.0)
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

_CUBE_CHECKS = {"tnorm": (check_tnorm_axioms, "iv"),
                "implication": (check_implication_axioms, "v")}


def _whole_cube_check(candidate, kind, steps, tol):
    """Reference: the whole cube in one broadcast, witness the first row of
    a stable lexsort of the violating triples; (witness, points)."""
    g = np.arange(steps + 1, dtype=float) / steps
    x, y, z = g[:, None, None], g[None, :, None], g[None, None, :]
    f = partial(_call, candidate)
    got = f(x, f(y, z))
    want = f(f(x, y), z) if kind == "tnorm" else f(y, f(x, z))
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(got - want) <= tol)
    if not bad.any():
        return None, bad.size
    triples = [np.broadcast_to(c, bad.shape)[bad] for c in (x, y, z)]
    first = np.lexsort(triples[::-1])[0]
    return (Witness(tuple(float(c[first]) for c in triples), float(got[bad][first]),
                    float(want[bad][first]), "=="), bad.size)


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
def test_tiled_cube_matches_one_broadcast(kind, text, steps, first_tile):
    # Grid 100 walks blocks of 3 x-planes; grid 181 walks blocks of y-rows,
    # two tiles to a plane.
    n = steps + 1
    assert (n * n <= CUBE_TILE_POINTS) == (steps == 100)
    candidate = scalar_from_expression(text)
    check_fn, label = _CUBE_CHECKS[kind]
    check = check_fn(candidate, CheckConfig(grid_steps=steps, random_samples=0)).check(label)
    witness, points = _whole_cube_check(candidate, kind, steps, CheckConfig().tolerance)
    assert (check.witness, check.points, check.passed) == (witness, points, witness is None)
    assert (None if witness is None else _tile_of(witness.args, steps)) == first_tile


@pytest.mark.parametrize("kind, text, steps", [
    ("tnorm", "x*y*y", 100),
    ("tnorm", _LATE.format(t=0.7), 100),
    ("tnorm", _LATE.format(t=0.99), 181),
    ("tnorm", "pow(x - y, 0.5)", 100),
    ("implication", "min(1, 1 - x + y*y)", 100),
    ("implication", "max(1 - x, y)", 181),
])
def test_array_path_cube_matches_one_broadcast(kind, text, steps):
    # A candidate that is not a compiled expression walks half-size tiles
    # and returns fresh arrays.
    inner = scalar_from_expression(text)
    candidate = dataclasses.replace(inner, fn=lambda x, y: inner.fn(x, y))
    check_fn, label = _CUBE_CHECKS[kind]
    check = check_fn(candidate, CheckConfig(grid_steps=steps, random_samples=0)).check(label)
    witness, points = _whole_cube_check(candidate, kind, steps, CheckConfig().tolerance)
    assert repr((check.witness, check.points)) == repr((witness, points))


def test_tiled_cube_raises_at_the_same_point_as_one_broadcast():
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
    candidate = dataclasses.replace(inner, fn=raising)
    with pytest.raises(CandidateEvaluationError) as whole:
        _whole_cube_check(candidate, "tnorm", steps, cfg.tolerance)
    with pytest.raises(CandidateEvaluationError) as tiled:
        check_tnorm_axioms(candidate, cfg)
    assert whole.value.point[0] == 0.5
    assert repr(tiled.value.point) == repr(whole.value.point)


# --- the mirrored cube walk ------------------------------------------------------------

def _unmirrored_tiles(n, most):
    """The tiling of the cube walk before mirrored tiles were sized by
    their clipped extent."""
    rows = max(1, most // n)
    if rows >= n:
        block = rows // n
        for x in range(0, n, block):
            yield slice(x, x + block), slice(None), slice(None)
    else:
        for x in range(n):
            for y in range(0, n, rows):
                yield slice(x, x + 1), slice(y, y + rows), slice(None)


@pytest.mark.parametrize("most", [2**15, 2**14])
def test_unmirrored_cube_tiles_are_unchanged(most):
    # Where tiles split decides which side an evaluation error is named in.
    for n in range(2, 301):
        assert list(_cube_tiles(n, most)) == list(_unmirrored_tiles(n, most)), n


def _ranges(tile, n):
    return [range(*axis.indices(n)) for axis in tile]


@pytest.mark.parametrize("mirror", [1, 2])
@pytest.mark.parametrize("n, most", [(2, 2**15), (3, 4), (17, 2**15), (17, 40), (101, 2**15),
                                     (182, 2**15), (257, 2**15), (257, 2**14), (300, 2**15)])
def test_mirrored_cube_tiles_cover_the_half_cube_in_c_order(mirror, n, most):
    tiles = [_ranges(tile, n) for tile in _cube_tiles(n, most, mirror)]
    covered = np.zeros((n, n, n), dtype=bool)
    last = (-1, -1, -1)
    for xs, ys, zs in tiles:
        assert 0 < len(xs) * len(ys) * len(zs) <= max(most, n)
        # The mirror axis starts at the first x-plane, or, when it is the
        # y-rows of one plane, where the plane's previous tile stopped.
        start = (ys, zs)[mirror - 1].start
        assert start == xs.start or (mirror, xs[0], start) == (1, last[0], last[1] + 1)
        # Every triple of a tile comes after every triple of the tiles before.
        assert (xs[0], ys[0], zs[0]) > last
        last = (xs[-1], ys[-1], zs[-1])
        covered[xs[0]:xs[-1] + 1, ys[0]:ys[-1] + 1, zs[0]:zs[-1] + 1] = True
    x = np.arange(n)
    half = (x[None, :, None] if mirror == 1 else x[None, None, :]) >= x[:, None, None]
    assert covered[np.broadcast_to(half, covered.shape)].all()


@pytest.mark.parametrize("mirror", [1, 2])
def test_mirrored_cube_tiles_at_the_benchmark_grid_are_about_half(mirror):
    assert len(list(_cube_tiles(257))) == 771
    assert len(list(_cube_tiles(257, mirror=mirror))) <= 350


def _full_walk_cube(axiom, candidate, F, g, tol):
    """Reference: the cube walk with every tile whole, as it ran before a
    mirrored axiom walked half the cube."""
    n = len(g)
    compiled = isinstance(getattr(candidate, "fn", None), CompiledExpr)
    most = CUBE_TILE_POINTS if compiled else CUBE_TILE_POINTS // 2
    size = min(n ** 3, max(most, n))
    buffers = [np.empty(size) for _ in range(candidate.fn.registers + 2 if compiled else 1)]
    layouts = [np.expand_dims(F, k) for k in range(3)]
    workspace = {}  # tile shape -> (diff, f, h)

    def views(shape):
        diff, *regs = (b[:math.prod(shape)].reshape(shape) for b in buffers)
        if not regs:
            return diff, partial(_call, candidate), partial(_call, candidate)
        got, want, *scratch = regs
        return (diff, partial(_call, candidate, regs=[got, *scratch]),
                partial(_call, candidate, regs=[want, *scratch]))

    witness, points = None, 0
    for tile in _cube_tiles(n, most):
        cols = (g[tile[0], None, None], g[None, tile[1], None], g[None, None, tile[2]])
        shape = (cols[0].size, cols[1].size, n)
        if shape not in workspace:
            workspace[shape] = views(shape)
        diff, f, h = workspace[shape]
        got, want = axiom.sides(f, h, partial(_tile_inner, layouts, tile), *cols)
        points += diff.size
        if witness is None:
            np.subtract(got, want, out=diff)
            if not (diff.max() <= tol and diff.min() >= -tol):
                bad = ~(np.abs(diff, out=diff) <= tol)
                witness = _smallest_violation(cols, got, want, bad, "==")[1]
        del got, want
    return witness, points


def _cube_outcome(kind, candidate, steps, walk=_walk_cube):
    """The cube axiom's check (witness repr, points, passed), or the
    error's type, message and point, with ``walk`` as the cube walk."""
    axiom = next(axiom for axiom in _BINARY_AXIOMS[kind] if axiom.grid is None)
    g = np.arange(steps + 1, dtype=float) / steps
    F = _grid_matrix(candidate, g)
    with mock.patch.object(analysis, "_walk_cube", walk):
        try:
            check = _verify(axiom, candidate, F, g, np.random.default_rng(0),
                            CheckConfig(grid_steps=steps, random_samples=0))
        except CandidateEvaluationError as err:
            return type(err), str(err), repr(err.point)
    return repr(check.witness), check.points, check.passed


#: Symmetric, and raises only where f(x, f(y, z)) or f(f(x, y), z) sums to
#: c: never on the grid matrix at 100 steps for these c.  At c = 1.0625
#: the first raising triple, (0.11, 0.75, 0.98), lies in the fourth tile of
#: the unmirrored walk (x-planes 9 to 11), and raises in the second side
#: only: the first side raises no earlier than x = 0.16.
_RAISES_IN_THE_CUBE = "x*y + 0*(1/(x + y - {c}))"

#: Symmetric, and associative below the threshold t.
_LATE_SYMMETRIC = "min(x, y) + 0.001*(max(x - {t}, 0)*max(y - {t}, 0))"


def test_a_mirrored_walk_raises_where_the_full_walk_does():
    candidate = scalar_from_expression(_RAISES_IN_THE_CUBE.format(c=1.0625))
    assert candidate.fn.symmetric
    outcome = _cube_outcome("tnorm", candidate, 100)
    assert outcome == _cube_outcome("tnorm", candidate, 100, _full_walk_cube)
    assert outcome[0] is CandidateEvaluationError
    assert outcome[2] == repr((0.11 * 0.75, 0.98))
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
def test_a_mirrored_walk_matches_the_full_walk(text, kind, steps):
    # Grid 100 walks blocks of x-planes; grid 181 walks blocks of y-rows.
    _assert_the_walks_match(kind, text, steps)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["implication", "tconorm", "tnorm"]),
       text=st.one_of(asts.map(pretty_print),
                      st.builds(joined_with_its_swap, asts.map(pretty_print), COMMUTATIVE_OPS)),
       steps=st.sampled_from([100, 181]))
def test_a_mirrored_walk_matches_the_full_walk_on_random_expressions(kind, text, steps):
    _assert_the_walks_match(kind, text, steps)


@pytest.mark.parametrize("text", [
    "max(x + y - 1, 0)", "min(1, 1 - x + y)", _LATE_SYMMETRIC.format(t=0.99),
    # Raises first at (231, 241, 252) / 256, in the second side, inside the
    # mirrored associativity tile of x-planes 228 to 231.
    _RAISES_IN_THE_CUBE.format(c=1.8338470458984375),
])
@pytest.mark.parametrize("kind", ["tnorm", "implication"])
def test_a_mirrored_walk_matches_the_full_walk_at_the_benchmark_grid(text, kind):
    # Grid 256 is where mirrored tiles differ most from unmirrored ones:
    # two or three y-row tiles a plane up to x-plane 129, then blocks of
    # whole clipped planes, against three y-row tiles in every plane.
    _assert_the_walks_match(kind, text, 256)


def test_a_mirrored_walk_that_raises_reports_the_point_of_the_full_walk():
    # The first raising triple, (0.9, 0.97, 0.99), raises in the second
    # side only, and the unmirrored tile that holds it (x-planes 90 to 92)
    # raises in no first side.  The mirrored tile that holds it spans
    # x-planes 87 to 100, and its first side raises at (0.97, 0.94, 0.95):
    # a walk of mirrored tiles alone would name that point.
    candidate = scalar_from_expression(_RAISES_IN_THE_CUBE.format(c=1.863))
    outcome = _cube_outcome("tnorm", candidate, 100)
    assert outcome == _cube_outcome("tnorm", candidate, 100, _full_walk_cube)
    assert outcome[2] == repr((0.9 * 0.97, 0.99))
    assert [t[0] for t in _cube_tiles(101, mirror=2) if t[0].start <= 90 < t[0].stop] == [
        slice(87, 110)]
    mirrored_only = partial(_cube_tiles, mirror=2)
    with mock.patch.object(analysis, "_cube_tiles", lambda n, most, mirror=None:
                           mirrored_only(n, most)):
        assert _cube_outcome("tnorm", candidate, 100)[2] == repr((0.97, 0.94 * 0.95))


def _assert_the_walks_match(kind, text, steps):
    candidate = scalar_from_expression(text)
    try:
        outcome = _cube_outcome(kind, candidate, steps)
    except CandidateEvaluationError:  # the grid matrix raises: no cube is walked
        return
    assert outcome == _cube_outcome(kind, candidate, steps, _full_walk_cube)


# --- locating an evaluation error ------------------------------------------------------

def _walk_to_failure(candidate, args, shape):
    """Reference: call the candidate point by point in C order."""
    broadcast = [np.broadcast_to(np.asarray(a, dtype=float), shape) for a in args]
    for idx in np.ndindex(shape):
        point = tuple(float(b[idx]) for b in broadcast)
        try:
            candidate(*point)
        except (DslError, FuzzySoftError):
            return point
    return tuple(float("nan") for _ in args)


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
        _walk_to_failure(candidate, args, shape))


def test_locating_a_failure_takes_logarithmically_many_calls():
    inner = scalar_from_expression("y/(x-1)")
    calls = []

    def counted(x, y):
        calls.append(np.size(x))
        return inner(x, y)

    with pytest.raises(CandidateEvaluationError) as err:
        check_tnorm_axioms(dataclasses.replace(inner, fn=counted),
                           CheckConfig(grid_steps=600, random_samples=0))
    # The first failing point opens the last row: a walk makes 360,601 calls.
    assert err.value.point == (1.0, 0.0)
    assert len(calls) <= 2 * math.ceil(math.log2(601)) + 2


# --- witness re-evaluation (ROADMAP contract 3b) -----------------------------------

def _pair_sides_scalar(f, x1, y1, x2, y2):
    return f(x1, y1), f(x2, y2)


def _unit_boundary(unit: float, free: int):
    def sides(f, x, y):
        assert (x, y)[1 - free] == unit
        return f(x, y), (x, y)[free]
    return sides


def _falsity_boundary(f, x, y):
    assert x == 0.0
    return f(x, y), 1.0


#: Each axiom written again with scalar calls: (kind, label) -> (relation, sides).
_SCALAR_AXIOMS = {
    **{(kind, label): entry
       for kind, unit in (("tnorm", 1.0), ("tconorm", 0.0))
       for label, entry in {
           "codomain": ("in [0, 1]", lambda f, x, y: (f(x, y), None)),
           "i": ("==", _unit_boundary(unit, 1)),
           "ii": ("==", _unit_boundary(unit, 0)),
           "iii": ("==", lambda f, x, y: (f(x, y), f(y, x))),
           "iv": ("==", lambda f, x, y, z: (f(x, f(y, z)), f(f(x, y), z))),
           "v": ("<=", _pair_sides_scalar),
       }.items()},
    ("implication", "codomain"): ("in [0, 1]", lambda f, x, y: (f(x, y), None)),
    ("implication", "i"): (">=", _pair_sides_scalar),
    ("implication", "ii"): ("<=", _pair_sides_scalar),
    ("implication", "iii"): ("==", _unit_boundary(1.0, 1)),
    ("implication", "iv"): ("==", _falsity_boundary),
    ("implication", "v"): ("==", lambda f, x, y, z: (f(x, f(y, z)), f(y, f(x, z)))),
    ("negation", "codomain"): ("in [0, 1]", lambda f, x: (f(x), None)),
    ("negation", "i"): ("==", lambda f, x: (f(x), 1.0 - x)),
    ("negation", "ii"): (">=", lambda f, x1, x2: (f(x1), f(x2))),
    ("negation", "iii"): ("==", lambda f, x: (f(f(x)), x)),
}


def _holds(got: float, want: float | None, relation: str, tol: float) -> bool:
    if relation == "==":
        return abs(got - want) <= tol
    if relation == "<=":
        return got <= want + tol
    if relation == ">=":
        return got >= want - tol
    return -tol <= got <= 1.0 + tol


_EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "y", "0", "1", "0.5", "0.25", "2", "-1"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["min", "max", "pow"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        inner.map(lambda e: f"abs({e})")),
    max_leaves=6)

_CHECKERS = {"tnorm": check_tnorm_axioms, "tconorm": check_tconorm_axioms,
             "implication": check_implication_axioms, "negation": check_negation_axioms}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_CHECKERS)), text=_EXPRESSIONS,
       steps=st.integers(2, 12), samples=st.integers(0, 40), seed=st.integers(0, 2**16),
       tol=st.sampled_from([1e-9, 1e-3, 0.1]))
def test_every_witness_violates_its_axiom_when_evaluated_again(kind, text, steps, samples,
                                                               seed, tol):
    arity = 1 if kind == "negation" else 2
    candidate = scalar_from_expression(text.replace("y", "x") if arity == 1 else text,
                                       arity=arity)
    cfg = CheckConfig(grid_steps=steps, random_samples=samples, seed=seed, tolerance=tol)
    report = _CHECKERS[kind](candidate, cfg=cfg)
    for check in report.checks:
        if check.passed:
            assert check.witness is None
            continue
        relation, sides = _SCALAR_AXIOMS[kind, check.label]
        witness = check.witness
        assert witness.relation == relation
        evaluated = sides(lambda *args: float(candidate(*args)), *witness.args)
        assert not _holds(*evaluated, relation, tol), (check.label, witness, evaluated)


# --- grid parts as views of the grid matrix --------------------------------------------

def _repeated_pairs(g):
    return np.repeat(g, len(g)), np.tile(g, len(g))


def _repeated_adjacent(g, axis):
    n = len(g)
    if axis == 0:
        y = np.tile(g, n - 1)
        return np.repeat(g[:-1], n), y, np.repeat(g[1:], n), y
    x = np.repeat(g, n - 1)
    return x, np.tile(g[:-1], n), x, np.tile(g[1:], n)


def _repeated_adjacent_both(g):
    return tuple(map(np.concatenate, zip(_repeated_adjacent(g, 0), _repeated_adjacent(g, 1))))


#: Each binary grid part as n**2-length argument columns: (kind, label) -> columns(g).
_GATHERED_GRIDS = {
    **{(kind, label): grid
       for kind, unit in (("tnorm", 1.0), ("tconorm", 0.0))
       for label, grid in {
           "codomain": _repeated_pairs,
           "i": lambda g, unit=unit: (unit, g),
           "ii": lambda g, unit=unit: (g, unit),
           "iii": _repeated_pairs,
           "v": _repeated_adjacent_both,
       }.items()},
    ("implication", "codomain"): _repeated_pairs,
    ("implication", "i"): partial(_repeated_adjacent, axis=0),
    ("implication", "ii"): partial(_repeated_adjacent, axis=1),
    ("implication", "iii"): lambda g: (1.0, g),
    ("implication", "iv"): lambda g: (0.0, g),
}

_BINARY_AXIOMS = {"tnorm": _TNORM_AXIOMS, "tconorm": _TCONORM_AXIOMS,
                  "implication": _IMPLICATION_AXIOMS}


def _gathered_check(kind, candidate, cfg):
    """Reference: the binary check as the verifier once ran it.  Each grid
    part builds n**2-length argument columns and gathers the grid matrix at
    them by rint; the cube walk and the samples are the module's own."""
    g = np.arange(cfg.grid_steps + 1, dtype=float) / cfg.grid_steps
    F = _grid_matrix(candidate, g)

    def table(x, y):
        return F[np.rint(np.multiply(x, cfg.grid_steps)).astype(np.intp),
                 np.rint(np.multiply(y, cfg.grid_steps)).astype(np.intp)]

    rng = np.random.default_rng(cfg.seed)
    call = partial(_call, candidate)
    checks = []
    for axiom in _BINARY_AXIOMS[kind]:
        sample = None if axiom.draw is None else axiom.draw(rng, cfg.random_samples)
        with np.errstate(all="ignore"):
            if axiom.grid is None:
                witness, points = _walk_cube(axiom, candidate, F, g, cfg.tolerance)
                parts = [] if sample is None else [
                    (partial(axiom.sides, call, call, lambda i, j: call(sample[i], sample[j])),
                     sample)]
            else:
                witness, points = None, 0
                parts = [(partial(axiom.sides, table), _GATHERED_GRIDS[kind, axiom.label](g))]
                if sample is not None:
                    parts.append((partial(axiom.sides, call), sample))
            for sides, cols in parts:
                got, want = sides(*cols)
                got = np.broadcast_to(np.asarray(got, dtype=float),
                                      np.broadcast_shapes(*map(np.shape, cols)))
                bad = _violations(got, want, axiom.relation, cfg.tolerance)
                points += bad.size
                if bad.any():
                    found = _smallest_violation(cols, got, want, bad, axiom.relation)[1]
                    if witness is None or found.args < witness.args:
                        witness = found
        checks.append(AxiomCheck(axiom.label, axiom.description, witness is None, witness,
                                 points))
    return AxiomReport(kind, candidate.name, cfg, tuple(checks))


def _outcome(run):
    """A report's JSON text (NaN and -0.0 spelled out), or the error's
    type, message and point."""
    try:
        return json.dumps(run().to_dict())
    except CandidateEvaluationError as err:
        return type(err).__name__, str(err), repr(err.point)


def _array_path_check(kind, candidate, cfg):
    """Reference: the module's own check, with the candidate's body wrapped
    so that the cube walk takes the array path, not the register path."""
    forced = dataclasses.replace(candidate, fn=lambda x, y: candidate.fn(x, y))
    return _CHECKERS[kind](forced, cfg)


def _assert_views_match_the_gather(kind, candidate, steps, samples, seed=0,
                                   reference=_gathered_check):
    cfg = CheckConfig(grid_steps=steps, random_samples=samples, seed=seed)
    outcome = _outcome(lambda: _CHECKERS[kind](candidate, cfg))
    assert outcome == _outcome(lambda: reference(kind, candidate, cfg))
    return outcome


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_BINARY_AXIOMS)), text=_EXPRESSIONS,
       steps=st.integers(2, 40), samples=st.sampled_from([0, 1, 7, 300]),
       seed=st.integers(0, 2**16))
def test_grid_views_match_the_gathered_columns(kind, text, steps, samples, seed):
    _assert_views_match_the_gather(kind, scalar_from_expression(text), steps, samples, seed)


@pytest.mark.parametrize("name", [n for n in builtin_names() if n != "sugeno(L)"
                                  and builtin(n).arity == 2])
@pytest.mark.parametrize("kind", sorted(_BINARY_AXIOMS))
@pytest.mark.parametrize("steps, samples, reference", [
    (2, 0, _gathered_check), (7, 50, _gathered_check), (40, 200, _gathered_check),
    (40, 200, _array_path_check),  # the register path against the array path
], ids=["2-0", "7-50", "40-200", "40-200-array-path"])
def test_grid_views_match_the_gathered_columns_on_builtins(name, kind, steps, samples,
                                                           reference):
    _assert_views_match_the_gather(kind, builtin(name), steps, samples, reference=reference)


@pytest.mark.parametrize("text, value", [
    ("pow(x - y, 0.5)", "NaN"),               # NaN below the diagonal
    ("pow(x*y, 0 - 1)", "Infinity"),          # +inf on the axes
    ("0 - pow(x + y, 0 - 1)", "-Infinity"),   # -inf at the origin
    ("x*y*(0 - 1)", "-0.0"),                  # -0.0 where x or y is 0
    ("x + y - 1", "-1.0"),                    # values outside [0, 1]
])
@pytest.mark.parametrize("kind", sorted(_BINARY_AXIOMS))
def test_grid_views_match_the_gathered_columns_on_special_values(text, value, kind):
    report = _assert_views_match_the_gather(kind, scalar_from_expression(text), 12, 40)
    assert value in report


def _raising_on(inner, where):
    def raising(x, y):
        if np.any(where(np.asarray(x, dtype=float), np.asarray(y, dtype=float))):
            raise EvalError("raised")
        return inner(x, y)
    return dataclasses.replace(inner, fn=raising)


@pytest.mark.parametrize("where, samples", [
    (lambda x, y: (x == 0.5) & (y == 0.25), 0),             # a grid point: the grid matrix
    (lambda x, y: (x > 0.3001) & (x < 0.3002), 20000),      # no grid point up to 40 steps
    (lambda x, y: (x >= 0.5) & (y > 0.0) & (y < 0.01), 0),  # off-grid second arguments: the cube
])
@pytest.mark.parametrize("kind", sorted(_BINARY_AXIOMS))
def test_grid_views_match_the_gathered_columns_when_the_candidate_raises(where, samples, kind):
    candidate = _raising_on(scalar_from_expression("x*y*y"), where)
    _assert_views_match_the_gather(kind, candidate, 40, samples)
    with pytest.raises(CandidateEvaluationError) as err:
        _CHECKERS[kind](candidate, CheckConfig(grid_steps=40, random_samples=samples))
    assert where(*map(np.array, err.value.point))


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
    ContinuityEstimate: lambda e: {**vars(e), "at": list(e.at)},
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
    "continuity": lambda: continuity_probe(builtin("godel-implication"), CheckConfig(grid_steps=8)),
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
