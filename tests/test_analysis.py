import dataclasses
import math
import tracemalloc
import warnings
from functools import partial

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
from fuzzysoft.analysis import (
    CUBE_TILE_POINTS,
    MAX_ARRAY_VALUES,
    Witness,
    _Axiom,
    _call,
    _cube_tiles,
    _locate_failure,
    _smallest_violation,
    _verify,
)
from fuzzysoft.connectives import resolve_connective
from fuzzysoft.errors import DslError, EvalError, FuzzySoftError

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
    with pytest.raises(ValueError):
        CheckConfig(random_samples=-1)


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
    report = estimate.to_dict()
    assert math.isnan(report.pop("max_jump"))
    assert report == {"candidate": "pow(x, -1)", "fine_steps": 16, "spacing": 0.0625,
                      "at": [0.0, 0.0, 0.0, 0.0625], "threshold": 0.625,
                      "suspected_discontinuity": False}


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
    # the grid part reads the table (got 3), the samples call (got 2).
    axiom = _Axiom("t", "tie", "==", lambda g: (np.array([0.75, 0.5]),),
                   lambda rng, m: (np.array([0.9, 0.5]),), lambda f, x: (f(x), 0.0))
    check = _verify(axiom, lambda x: np.full(np.shape(x), 2.0),
                    lambda x: np.full(np.shape(x), 3.0), np.array([0.0]),
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
    # inner values are views of the grid matrix (10 MiB).  4M-point slabs
    # that called the candidate for the inner values peaked at 100 MiB.
    tracemalloc.start()
    try:
        report = check_tnorm_axioms(resolve_connective("max(x + y - 1, 0)", 2),
                                    CheckConfig(grid_steps=256, random_samples=20000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
    """The number of the cube tile that holds a grid triple."""
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
