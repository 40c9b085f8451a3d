"""Axiom verification with counterexample search, element classification
and equilibrium solving.

Every check evaluates the candidate over a regular grid on [0, 1] plus a
configurable number of pseudo-random samples drawn from one seeded
generator, so identical inputs always produce identical reports.  The
samples are drawn axiom by axiom in table order: x before y, a sorted pair
as the min and max of an (m, 2) draw (``_sorted_pair``), an argument
shared by both points of a pair as one draw repeated, and a boundary
axiom draws only its free column.  A
failed check carries a witness that re-evaluates to a violation beyond the
tolerance: the lexicographically smallest violating argument tuple over
the grid points (or grid cube) and the samples, equal tuples going to the
first found, grid before samples.  Each part is reduced to its smallest
violation as it is evaluated.  Grid parts of binary axioms are views of
the grid matrix F.  The grid cube is walked in tiles (``_walk_cube``), so
a check holds one cache-sized tile of the cube in memory, however many
points violate.

Each axiom is one row of a table (label, description, relation, grid
parts, seeded sample draw, and the two sides the relation compares);
one function, ``_verify``, evaluates the rows of all four kinds.  Every
report's ``to_dict()`` is JSON-ready: its fields, then its derived values.

Sampling falsifies, it does not prove: a report in which every axiom
passes means no counterexample was found at the examined points.

Unless noted otherwise, comparisons use an absolute tolerance; membership
values live in [0, 1], where absolute error is the natural metric.
Monotonicity and antitonicity are checked between adjacent grid points
along each axis (which implies the quantified property on the whole
grid), plus jointly on sampled pairs of pairs.  Associativity and
exchange check the full grid cube, so their cost grows with the cube of
the grid resolution; the default 64 steps gives roughly 275k triples,
all counted in ``points``.  A compiled expression first screens the
triples onto which the axiom mirrors the rest: exchange its x <= y half,
and associativity, when the expression is ``symmetric``, its sorted
triples, a sixth of the cube; the cube is walked only from the first
plane where the screen fails (``_walk_cube``).
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .connectives import LiftedConnective, ScalarConnective, lift_negation, require_arity
from .errors import CandidateEvaluationError, ConfigError, DslError, FuzzySoftError
from .expr import CompiledExpr
from .record import Record
from .sets import MAX_ARRAY_VALUES
from .tags import ParamTag, number_or_none

#: Bisection stops once the bracket is narrower than this; three orders
#: of magnitude finer than the default verdict tolerance.
BISECTION_BRACKET = 1e-12

#: Most points of the grid cube a check may walk, 1024**3: the largest
#: grid is 1023 steps.  The cube costs time, not memory, since a walk
#: holds one tile of it.
MAX_CUBE_POINTS = 2**30

#: Most points in one tile of the grid cube: each float64 buffer of the
#: walk's workspace is 256 KiB, so a tile's registers and difference stay
#: in a 2 MiB L2 cache.  A tile allocates no tile-sized array: when tile
#: temporaries come from the heap, some heap layouts trim and regrow it
#: every tile, which costs a fresh process about 8x the page faults.  A
#: candidate whose ``fn`` is not a ``CompiledExpr`` allocates its own
#: arrays, so it walks half-size tiles and drops each tile's arrays before
#: the next; at grids 64 to 256 that cut its page faults by up to 50x.
CUBE_TILE_POINTS = 2**15


class _Report(Record):
    """A record whose ``to_dict`` is JSON-ready: its fields in order, then
    the properties named in ``_derived``, with each nested report as its
    dict and each tuple as a list."""

    _derived = ()

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self._fields + self._derived}


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value.to_dict() if isinstance(value, _Report) else value


class CheckConfig(_Report):
    """Shared configuration for every verification routine.

    A check of n grid steps walks the (n + 1)**3 points of the grid cube,
    so ``MAX_CUBE_POINTS`` = 1024**3 caps n at 1023, where a check takes
    seconds, not minutes, and holds one tile of the cube; the (samples, 4)
    pair-of-pairs columns may not exceed ``MAX_ARRAY_VALUES``, which caps
    the samples at 2**22.  The counts and the seed are stored as ``int``
    (``operator.index``, no ``bool``) and the tolerance as a ``float``
    that is positive and below 1: memberships lie in [0, 1], so a
    tolerance of 1 or more admits any difference between two of them, and
    ``x + y`` would pass as a t-norm.  A refusal is a ``ConfigError``.
    """

    grid_steps: int = 64
    random_samples: int = 10000
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name, least in (("grid_steps", 2), ("random_samples", 0), ("seed", 0)):
            value = number_or_none(getattr(self, name), operator.index)
            if value is None:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)
        tolerance = number_or_none(self.tolerance)
        if tolerance is None:
            raise ConfigError(f"tolerance must be a real number, got {self.tolerance!r}")
        object.__setattr__(self, "tolerance", tolerance)
        if (points := (self.grid_steps + 1) ** 3) > MAX_CUBE_POINTS:
            raise ConfigError(f"grid_steps = {self.grid_steps} needs a grid cube of {points} "
                              f"points, more than MAX_CUBE_POINTS = {MAX_CUBE_POINTS}")
        if (size := 4 * self.random_samples) > MAX_ARRAY_VALUES:
            raise ConfigError(f"random_samples = {self.random_samples} needs an array of {size} "
                              f"values, more than MAX_ARRAY_VALUES = {MAX_ARRAY_VALUES}")
        if not 0 < self.tolerance < math.inf:
            raise ConfigError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.tolerance >= 1:
            raise ConfigError(f"tolerance must be < 1, got {self.tolerance}: "
                              "memberships lie in [0, 1]")


class Witness(_Report):
    """A reproducible counterexample: re-evaluating the candidate at
    ``args`` violates the stated relation beyond the tolerance."""

    args: tuple[float, ...]
    got: float
    want: float | None
    relation: str


class AxiomCheck(_Report):
    """Verdict for one axiom; ``param`` names the family label for
    per-parameter negation checks."""

    label: str
    description: str
    passed: bool
    witness: Witness | None
    points: int
    param: str | None = None


class AxiomReport(_Report):
    """All axiom verdicts for one candidate under one configuration."""

    kind: str
    candidate: str
    config: CheckConfig
    checks: tuple[AxiomCheck, ...]

    _derived = ("passed",)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def check(self, label: str, param: str | None = None) -> AxiomCheck:
        for entry in self.checks:
            if entry.label == label and entry.param == param:
                return entry
        raise KeyError(f"no check labelled {label!r} (param={param!r})")


class ZeroDivisor(_Report):
    value: float
    witness: float


class ClassificationReport(_Report):
    """Grid scan for idempotent, nilpotent and zero-divisor elements."""

    candidate: str
    grid_steps: int
    tolerance: float
    idempotents: tuple[float, ...]
    nilpotents: tuple[float, ...]
    zero_divisors: tuple[ZeroDivisor, ...]

    _derived = ("confirmed_nilpotent_zero_divisors",)

    @property
    def nonzero_nilpotents(self) -> tuple[float, ...]:
        return tuple(v for v in self.nilpotents if v > 0.0)

    @property
    def zero_divisor_values(self) -> tuple[float, ...]:
        return tuple(z.value for z in self.zero_divisors)

    @property
    def confirmed_nilpotent_zero_divisors(self) -> tuple[float, ...]:
        """Non-zero nilpotents that also appear among the zero divisors
        (each is its own witness, since f(x, x) vanished)."""
        divisors = set(self.zero_divisor_values)
        return tuple(v for v in self.nonzero_nilpotents if v in divisors)


class EquilibriumEntry(_Report):
    """Fixed-point verdict for one parameter label."""

    label: str
    value: float | None
    residual: float | None
    is_equilibrium: bool
    note: str | None = None


class EquilibriumResult(_Report):
    entries: tuple[EquilibriumEntry, ...]
    tolerance: float

    _derived = ("count",)

    @property
    def equilibria(self) -> tuple[EquilibriumEntry, ...]:
        return tuple(e for e in self.entries if e.is_equilibrium)

    @property
    def count(self) -> int:
        return len(self.equilibria)

    def entry(self, label: str) -> EquilibriumEntry:
        for entry in self.entries:
            if entry.label == label:
                return entry
        raise KeyError(f"no entry for label {label!r}")


# ---------------------------------------------------------------------------
# Evaluation helpers


def grid_points(steps: int) -> np.ndarray:
    """The ``steps + 1`` points ``k / steps`` of [0, 1], each correctly rounded."""
    return np.arange(steps + 1, dtype=float) / steps


def _locate_failure(candidate: ScalarConnective, args, shape) -> tuple[float, ...]:
    """The first point in C order at which the candidate raises.  Evaluation
    is elementwise, so bisect the leading axis for the first row that
    raises, then that row, down to one point that a scalar call confirms:
    O(log N) calls on views, not a walk over the N points."""
    def raises(cols) -> bool:
        try:
            with np.errstate(all="ignore"):
                candidate(*cols)
        except (DslError, FuzzySoftError):
            return True
        return False

    views = [np.broadcast_to(np.asarray(a, dtype=float), shape) for a in args]
    while views[0].ndim:
        lo, hi = 0, views[0].shape[0]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if raises([v[lo:mid] for v in views]) else (mid, hi)
        views = [v[lo] for v in views]
    point = tuple(map(float, views))
    return point if raises(point) else (float("nan"),) * len(args)


def _call(candidate: ScalarConnective, *args, regs=None):
    """Evaluate on broadcasting arrays, into the register file ``regs`` of a
    compiled expression if given, under the caller's ``np.errstate``; wrap
    evaluation errors with the first (lexicographically smallest)
    offending point.  The value comes back as the candidate returns it."""
    try:
        return candidate(*args) if regs is None else candidate.fn(*args, regs=regs)
    except (DslError, FuzzySoftError) as err:
        point = _locate_failure(candidate, args, np.broadcast_shapes(*map(np.shape, args)))
        raise CandidateEvaluationError(
            f"candidate {candidate.name!r} failed at {point}: {err}", point
        ) from err


def _grid_matrix(candidate: ScalarConnective, g: np.ndarray) -> np.ndarray:
    """f at every pair of grid points, as an (n, n) float matrix."""
    with np.errstate(all="ignore"):
        out = _call(candidate, g[:, None], g[None, :])
    return np.broadcast_to(np.asarray(out, dtype=float), (len(g), len(g)))


def _binary_grid(candidate: ScalarConnective, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid points of ``steps`` and a binary candidate's grid matrix on them."""
    require_arity(candidate, 2)
    g = grid_points(steps)
    return g, _grid_matrix(candidate, g)


def _violations(got: np.ndarray, want, relation: str, tol: float) -> np.ndarray:
    if relation == "==":
        diff = np.subtract(got, want)
        return ~(np.abs(diff, out=diff) <= tol)
    if relation == "<=":
        return ~(got <= want + tol)
    if relation == ">=":
        return ~(got >= want - tol)
    return ~((got >= -tol) & (got <= 1.0 + tol))  # "in [0, 1]"


def _smallest_violation(cols, got, want, bad: np.ndarray, relation: str) -> tuple[int, Witness]:
    """The C-order index in ``bad`` of the lexicographically smallest
    violating argument tuple (of equal tuples the first, as a stable sort
    keeps), and its witness.  Needs ``bad.any()`` and NaN-free columns."""
    mask = bad
    for col in cols:
        col = np.broadcast_to(col, bad.shape)
        mask = mask & (col == np.min(col, where=mask, initial=np.inf))
    index = int(np.argmax(mask))
    at = np.unravel_index(index, bad.shape)

    def pick(values) -> float:
        return float(np.broadcast_to(values, bad.shape)[at])

    return index, Witness(tuple(map(pick, cols)), pick(got),
                          None if want is None else pick(want), relation)


# ---------------------------------------------------------------------------
# Argument columns: grid points and seeded samples


def _adjacent(F: np.ndarray, g: np.ndarray, axis: int) -> tuple:
    """Neighbours along one axis: columns (x1, y1, x2, y2) as open meshes, and F at both."""
    if axis == 0:
        return (g[:-1, None], g[None, :], g[1:, None], g[None, :]), F[:-1, :], F[1:, :]
    return (g[:, None], g[None, :-1], g[:, None], g[None, 1:]), F[:, :-1], F[:, 1:]


def _cube_tiles(n: int, most: int = CUBE_TILE_POINTS, mirror: bool = False):
    """The grid cube of ``n`` points a side as index ranges (xs, ys, zs) in
    C order, each tile at most ``max(most, n)`` points: a block of
    x-planes, or, when one plane is larger than ``most``, a block of
    y-rows inside one plane; z spans the grid.  With ``mirror`` y starts
    at the tile's first x-plane a, which leaves n * (n - a) points a
    plane, and tiles are sized by that clipped extent; they cover every
    triple with x <= y (347 tiles at 256 steps, where the full cube takes
    771)."""
    x = 0
    while x < n:
        clip = x if mirror else 0
        plane = n * (n - clip)
        if plane <= most:
            block = most // plane
            yield slice(x, x + block), slice(x if mirror else None, None), slice(None)
            x += block
        else:
            rows = max(1, most // n)
            for y in range(clip, n, rows):
                yield slice(x, x + 1), slice(y, y + rows), slice(None)
            x += 1


def _screen_tiles(n: int, most: int = CUBE_TILE_POINTS):
    """The sorted triples a <= b <= c of the grid cube of ``n`` points a
    side, as index ranges (as, bs, cs) in order of their first a, each
    tile at most ``max(most, n)`` points: a block of a from a0, up to 16
    rows of b from b0 >= a0, and c from b0.  A block takes as many
    a-planes as fit in its first, largest tile (207 tiles and 3.3M points
    at 256 steps, for 2.8M sorted triples)."""
    a = 0
    while a < n:
        rows = max(1, min(16, most // (n - a)))
        block = max(1, most // (rows * (n - a)))
        for b in range(a, n, rows):
            yield slice(a, a + block), slice(b, b + rows), slice(b, None)
        a += block


def _tile_inner(layouts, tile: tuple[slice, ...], i: int, j: int) -> np.ndarray:
    """f at a tile's argument columns i < j, as a view of the grid matrix F
    laid out along the tile's axes (``layouts[k]`` is F with a unit axis k
    inserted): no candidate call, no gather."""
    k = 3 - i - j
    return layouts[k][tile[:k] + (slice(None),) + tile[k + 1:]]


def _uniform(count: int):
    return lambda rng, m: tuple(rng.random(m) for _ in range(count))


def _sorted_pair(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """A (count, 2) draw sorted along its rows, as its two columns: the
    bits of ``np.sort(draw, axis=1)``, since a draw holds no NaN or -0.0."""
    a, b = rng.random((count, 2)).T
    return np.minimum(a, b), np.maximum(a, b)


def _pair_draw(sort_x: bool, sort_y: bool):
    """Sampled columns (x1, y1, x2, y2), x drawn first: a sorted pair per
    argument, or one value repeated."""
    def draw(rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        x1, x2 = _sorted_pair(rng, m) if sort_x else (rng.random(m),) * 2
        y1, y2 = _sorted_pair(rng, m) if sort_y else (rng.random(m),) * 2
        return x1, y1, x2, y2
    return draw


# ---------------------------------------------------------------------------
# The axiom table and its evaluator


class _Axiom(Record):
    """One axiom: ``grid(F, g)`` gives its grid parts as (columns, got,
    want), got and want to satisfy ``relation``; F is a binary candidate's
    grid matrix, read by slicing, or a negation candidate.  ``sides(f,
    *args)`` gives (got, want) at the columns ``draw(rng, m)`` (``None``:
    no samples).  Columns may be floats; they broadcast.  With ``grid``
    ``None`` the axiom walks the grid cube, its relation is "==", and its
    sides are ``sides(f, h, inner, x, y, z)``: got is a call of f and want
    a call of h (the candidate, each side with its own output), and
    ``inner(i, j)`` is f at argument columns i and j.  ``screen(fn)`` is
    None or (tiles, count) for the compiled expression ``fn``: the cube
    violates or raises exactly when, at some triple of ``tiles(n, most)``,
    the first ``count`` of f(a, F[b, c]), f(b, F[a, c]) and f(c, F[a, b])
    spread beyond the tolerance or raise (``_walk_cube``)."""

    label: str
    description: str
    relation: str
    grid: Callable | None
    draw: Callable | None
    sides: Callable
    screen: Callable | None = None


def _pair_sides(f, x1, y1, x2, y2):
    return f(x1, y1), f(x2, y2)


_BINARY_CODOMAIN = _Axiom("codomain", "values stay in [0, 1]", "in [0, 1]",
                          lambda F, g: (((g[:, None], g[None, :]), F, None),),
                          _uniform(2), lambda f, x, y: (f(x, y), None))


# The unit's row or column of F is its last (unit 1) or its first (unit 0).
def _unit_first(label: str, description: str, unit: float) -> _Axiom:
    return _Axiom(label, description, "==", lambda F, g: (((unit, g), F[-int(unit), :], g),),
                  lambda rng, m: (unit, rng.random(m)), lambda f, x, y: (f(x, y), y))


def _binary_axioms(unit: float, name: str) -> tuple[_Axiom, ...]:
    """The t-norm axioms (unit 1) or the t-conorm axioms (unit 0), after
    Klement, Mesiar and Pap, *Triangular Norms*."""
    return (
        _BINARY_CODOMAIN,
        _unit_first("i", f"boundary f({name}, y) = y", unit),
        _Axiom("ii", f"boundary f(x, {name}) = x", "==",
               lambda F, g: (((g, unit), F[:, -int(unit)], g),),
               lambda rng, m: (rng.random(m), unit), lambda f, x, y: (f(x, y), x)),
        _Axiom("iii", "commutativity f(x, y) = f(y, x)", "==",
               lambda F, g: (((g[:, None], g[None, :]), F, F.T),), _uniform(2),
               lambda f, x, y: (f(x, y), f(y, x))),
        _Axiom("iv", "associativity f(x, f(y, z)) = f(f(x, y), z)", "==", None, _uniform(3),
               lambda f, h, inner, x, y, z: (f(x, inner(1, 2)), h(inner(0, 1), z)),
               lambda fn: (_screen_tiles, 3) if fn.symmetric else None),
        _Axiom("v", "monotonicity: f(x1, y1) <= f(x2, y2) whenever x1 <= x2 and y1 <= y2",
               "<=", lambda F, g: (_adjacent(F, g, 0), _adjacent(F, g, 1)),
               _pair_draw(True, True), _pair_sides),
    )


_TNORM_AXIOMS = _binary_axioms(1.0, "1")
_TCONORM_AXIOMS = _binary_axioms(0.0, "0")

#: After Baczyński and Jayaram, *Fuzzy Implications*.
_IMPLICATION_AXIOMS = (
    _BINARY_CODOMAIN,
    _Axiom("i", "antitone in the first argument: h(x1, y) >= h(x2, y) for x1 <= x2", ">=",
           lambda F, g: (_adjacent(F, g, 0),), _pair_draw(True, False), _pair_sides),
    _Axiom("ii", "monotone in the second argument: h(x, y1) <= h(x, y2) for y1 <= y2", "<=",
           lambda F, g: (_adjacent(F, g, 1),), _pair_draw(False, True), _pair_sides),
    _unit_first("iii", "boundary h(1, y) = y", 1.0),
    _Axiom("iv", "boundary h(0, y) = 1", "==", lambda F, g: (((0.0, g), F[0, :], 1.0),),
           lambda rng, m: (0.0, rng.random(m)), lambda f, x, y: (f(x, y), 1.0)),
    _Axiom("v", "exchange h(x, h(y, z)) = h(y, h(x, z))", "==", None, _uniform(3),
           lambda f, h, inner, x, y, z: (f(x, inner(1, 2)), h(y, inner(0, 2))),
           lambda fn: (partial(_cube_tiles, mirror=True), 2)),
)

_ENDS = np.array([1.0, 0.0])

_NEGATION_AXIOMS = (
    _Axiom("codomain", "values stay in [0, 1]", "in [0, 1]", lambda f, g: (((g,), f(g), None),),
           _uniform(1), lambda f, x: (f(x), None)),
    _Axiom("i", "boundary n(1) = 0 and n(0) = 1", "==",
           lambda f, g: (((_ENDS,), f(_ENDS), 1.0 - _ENDS),), None,
           lambda f, x: (f(x), 1.0 - x)),
    _Axiom("ii", "antitonicity: n(x1) >= n(x2) for x1 <= x2", ">=",
           lambda f, g: (((g[:-1], g[1:]), f(g[:-1]), f(g[1:])),), _sorted_pair,
           lambda f, x1, x2: (f(x1), f(x2))),
    _Axiom("iii", "involution n(n(x)) = x", "==", lambda f, g: (((g,), f(f(g)), g),),
           _uniform(1), lambda f, x: (f(f(x)), x)),
)


def _walk_cube(axiom: _Axiom, candidate, F: np.ndarray, g: np.ndarray,
               tol: float) -> tuple[Witness | None, int]:
    """(witness, points) of an axiom over the grid cube, under the caller's
    ``np.errstate``; points counts all n**3 triples, walked or not.

    The witness and any evaluation error come from one walk over the tiles
    of ``_cube_tiles`` in C order, got before want in each: the first tile
    that violates holds the smallest violation, and the first that raises
    names the error.  The walk owns one workspace: flat buffers the size of
    the largest tile, viewed per tile, for a tile's |got - want| and, for a
    compiled expression (every builtin, parsed expression and dual), the
    register files of its two sides (a first register each, the rest
    shared), so a tile allocates no tile-sized array.  Any other candidate
    (an ``fn`` that is not a ``CompiledExpr``) is called as usual on
    half-size tiles (``CUBE_TILE_POINTS`` gives the reasons) over the whole
    cube.  A tile passes when its largest difference is at most ``tol`` and
    its smallest at least ``-tol`` (NaN fails); only a failing tile builds
    its mask.

    A compiled expression's screen (``_Axiom.screen``) decides where the
    walk starts.  Exchange swaps got and want when x and y swap, so on the
    x <= y half f(a, F[b, c]) and f(b, F[a, c]) are got and want of every
    triple.  Associativity of a ``symmetric`` expression is screened on the
    sorted triples a <= b <= c (``_screen_tiles``): at (x, y, z), want
    f(F[x, y], z) is f(z, F[x, y]), F[y, z] is F[z, y] and f(x, +0) is
    f(x, -0), each but for the sign of a zero, which changes no magnitude
    and no raise (``CompiledExpr.symmetric``), so over a triple's six
    orderings got and want run through every pair of f(a, F[b, c]),
    f(b, F[a, c]) and f(c, F[a, b]).  A screen tile passes when the spread
    of its values, max - min, is at most ``tol`` (NaN fails), which is
    their largest difference since rounding is monotone; the workspace
    holds their running minimum and maximum, the value just evaluated and
    the scratch registers.  So the cube violates or raises
    exactly when a screen tile does.  Screen tiles come in order of their
    first a, so every triple whose least screened coordinate lies below the
    first failing plane, or below the first a of a tile that raises, passed:
    the walk skips each tile whose x or y all lie below it.

    The walk stops at its witness tile unless a later one may raise.  Only
    division raises (``CompiledExpr.divides``), so the screen of an
    expression that divides runs to its end, past its failures without
    folding, to learn whether a tile raises."""
    n = len(g)
    fn = getattr(candidate, "fn", None)
    compiled = isinstance(fn, CompiledExpr)
    most = CUBE_TILE_POINTS if compiled else CUBE_TILE_POINTS // 2
    size = min(n ** 3, max(most, n))
    buffers = [np.empty(size) for _ in range(fn.registers + 2 if compiled else 1)]
    layouts = [np.expand_dims(F, k) for k in range(3)]

    def views(tile):
        """A tile's argument columns, and the workspace buffers in its shape."""
        cols = (g[tile[0], None, None], g[None, tile[1], None], g[None, None, tile[2]])
        shape = tuple(col.size for col in cols)
        return cols, [b[:math.prod(shape)].reshape(shape) for b in buffers]

    def screen(tiles, count: int) -> tuple[int | None, bool]:
        """The first plane a at which a screen tile fails or raises (None if
        none does), and whether some tile raises."""
        start = n
        for tile in tiles(n, most):
            if tile[0].start >= start and not fn.divides:
                break
            (a, b, c), (lo, hi, value, *scratch) = views(tile)
            inner = partial(_tile_inner, layouts, tile)
            # A tile past the first failing plane only learns whether it raises.
            folds = tile[0].start < start
            try:
                fn(a, inner(1, 2), regs=[lo, *scratch])
                fn(b, inner(0, 2), regs=[value, *scratch])
                if folds:
                    np.maximum(lo, value, out=hi)
                    np.minimum(lo, value, out=lo)
                if count == 3:
                    fn(c, inner(0, 1), regs=[value, *scratch])
                    if folds:
                        np.maximum(hi, value, out=hi)
                        np.minimum(lo, value, out=lo)
            except (DslError, FuzzySoftError):
                return tile[0].start, True
            if folds and not np.subtract(hi, lo, out=hi).max() <= tol:
                first_failing = int(np.argmin((hi <= tol).all(axis=(1, 2))))
                start = min(start, tile[0].start + first_failing)
        return (None if start == n else start), False

    start, may_raise = 0, not compiled or fn.divides
    if compiled and (plan := axiom.screen(fn)):
        start, may_raise = screen(*plan)
        if start is None:
            return None, n ** 3
    witness = None
    for tile in _cube_tiles(n, most):
        if min(tile[0].stop, tile[1].stop or n) <= start:
            continue
        cols, (diff, *regs) = views(tile)
        if regs:
            f, h = (partial(_call, candidate, regs=[r, *regs[2:]]) for r in regs[:2])
        else:
            f = h = partial(_call, candidate)
        got, want = axiom.sides(f, h, partial(_tile_inner, layouts, tile), *cols)
        # C order over an increasing grid is lexicographic order: once a
        # tile has given the witness, no later tile holds a strictly
        # smaller tuple, so later tiles are only evaluated, to raise.
        if witness is None:
            np.subtract(got, want, out=diff)
            if not (diff.max() <= tol and diff.min() >= -tol):
                bad = ~(np.abs(diff, out=diff) <= tol)
                witness = _smallest_violation(cols, got, want, bad, "==")[1]
                if not may_raise:
                    break
        del got, want  # before the next tile's sides are allocated
    return witness, n ** 3


def _verify(axiom: _Axiom, candidate: Callable, F: np.ndarray | None, g: np.ndarray,
            rng: np.random.Generator, cfg: CheckConfig, param: str | None = None) -> AxiomCheck:
    """Evaluate one axiom on its grid parts, or on the grid cube, then on
    its samples; the witness is the lexicographically smallest violation.

    A binary grid part is a view of the grid matrix ``F``, as is each cube
    tile's inner values; a negation (``F`` None) has its grid parts call."""
    sample = None if axiom.draw is None else axiom.draw(rng, cfg.random_samples)
    call = partial(_call, candidate)
    # NaN, from inf - inf say, violates; no part warns.
    with np.errstate(all="ignore"):
        if axiom.grid is None:
            witness, points = _walk_cube(axiom, candidate, F, g, cfg.tolerance)
            parts, sides = [], partial(axiom.sides, call, call,
                                       lambda i, j: call(sample[i], sample[j]))
        else:
            witness, points = None, 0
            parts, sides = [*axiom.grid(call if F is None else F, g)], partial(axiom.sides, call)
        if sample is not None:
            parts.append((sample, *sides(*sample)))
        for cols, got, want in parts:
            got = np.broadcast_to(np.asarray(got, dtype=float),
                                  np.broadcast_shapes(*map(np.shape, cols)))
            bad = _violations(got, want, axiom.relation, cfg.tolerance)
            points += bad.size
            if bad.any():
                found = _smallest_violation(cols, got, want, bad, axiom.relation)[1]
                # Strictly smaller only: on a tie the earlier part's point stays.
                if witness is None or found.args < witness.args:
                    witness = found
    return AxiomCheck(axiom.label, axiom.description, witness is None, witness, points, param)


def _check_binary(
    kind: str, axioms: tuple[_Axiom, ...], candidate: ScalarConnective, cfg: CheckConfig | None
) -> AxiomReport:
    cfg = cfg or CheckConfig()
    g, F = _binary_grid(candidate, cfg.grid_steps)
    rng = np.random.default_rng(cfg.seed)
    checks = tuple(_verify(axiom, candidate, F, g, rng, cfg) for axiom in axioms)
    return AxiomReport(kind, candidate.name, cfg, checks)


def check_tnorm_axioms(candidate: ScalarConnective, cfg: CheckConfig | None = None) -> AxiomReport:
    """Verify the five t-norm axioms: boundary with 1 in each argument,
    commutativity, associativity, and joint monotonicity."""
    return _check_binary("tnorm", _TNORM_AXIOMS, candidate, cfg)


def check_tconorm_axioms(candidate: ScalarConnective, cfg: CheckConfig | None = None) -> AxiomReport:
    """Mirror of the t-norm check with the boundary taken at 0."""
    return _check_binary("tconorm", _TCONORM_AXIOMS, candidate, cfg)


def check_implication_axioms(candidate: ScalarConnective, cfg: CheckConfig | None = None) -> AxiomReport:
    """Verify the five implication axioms: antitone in the first argument,
    monotone in the second, the two boundary identities, and exchange."""
    return _check_binary("implication", _IMPLICATION_AXIOMS, candidate, cfg)


# ---------------------------------------------------------------------------
# Negation checks


def check_negation_axioms(
    candidate: ScalarConnective | Mapping[str, ScalarConnective] | LiftedConnective,
    cfg: CheckConfig | None = None,
) -> AxiomReport:
    """Verify the negation axioms: boundary swaps of 0 and 1,
    antitonicity, and involution, for every scalar the negation can call.

    ``candidate`` may be one unary scalar (applied uniformly), a
    tag-to-scalar mapping, or an already-lifted negation, as
    ``lift_negation`` takes them.  Each family entry is checked under its
    canonical tag text as ``param``; then the scalar that every other tag
    gets, the uniform scalar or the family's default, with ``param`` None.
    """
    cfg = cfg or CheckConfig()
    lifted = lift_negation(candidate)
    rest = lifted.scalar or lifted.default
    scalars = (lifted.family or ()) + (((None, rest),) if rest else ())
    g = grid_points(cfg.grid_steps)
    rng = np.random.default_rng(cfg.seed)
    checks = [_verify(axiom, scalar, None, g, rng, cfg, param)
              for param, scalar in scalars for axiom in _NEGATION_AXIOMS]
    return AxiomReport("negation", lifted.name, cfg, tuple(checks))


# ---------------------------------------------------------------------------
# Classification and equilibria


def classify_elements(candidate: ScalarConnective, cfg: CheckConfig | None = None) -> ClassificationReport:
    """Scan the grid for idempotent elements (f(x, x) = x), nilpotent
    elements (f(x, x) = 0) and zero divisors (x > 0 with some y > 0 such
    that f(x, y) = 0), all within the configured tolerance.

    The zero-divisor witness search walks the positive grid in ascending
    order and keeps the first hit, so witnesses are deterministic.  The
    scan takes a check's ``CheckConfig``, so ``MAX_CUBE_POINTS`` caps its
    ``grid_steps`` at 1023 too, though it builds only the (n + 1)**2 grid
    matrix and walks no cube.
    """
    cfg = cfg or CheckConfig()
    g, F = _binary_grid(candidate, cfg.grid_steps)
    tol = cfg.tolerance
    diag = np.diagonal(F)

    idempotents = tuple(float(v) for v in g[np.abs(diag - g) <= tol])
    nilpotents = tuple(float(v) for v in g[np.abs(diag) <= tol])

    positive = g[1:]
    zero_hits = np.abs(F[1:, 1:]) <= tol
    zero_divisors = tuple(ZeroDivisor(float(positive[i]), float(positive[np.argmax(zero_hits[i])]))
                          for i in np.flatnonzero(zero_hits.any(axis=1)))
    return ClassificationReport(
        candidate=candidate.name,
        grid_steps=cfg.grid_steps,
        tolerance=tol,
        idempotents=idempotents,
        nilpotents=nilpotents,
        zero_divisors=zero_divisors,
    )


def _bisect_fixed_point(scalar: ScalarConnective) -> float | None:
    """Bisection for n(x) = x on [0, 1].

    Needs n(0) - 0 >= 0 and n(1) - 1 <= 0 to bracket a crossing; any
    candidate satisfying the negation boundary axioms qualifies, since
    then n(0) = 1 and n(1) = 0.  Returns None when no bracket exists."""
    d0 = float(scalar(0.0)) - 0.0
    d1 = float(scalar(1.0)) - 1.0
    if d0 == 0.0:
        return 0.0
    if d1 == 0.0:
        return 1.0
    if d0 < 0.0 or d1 > 0.0:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_BRACKET:
        mid = 0.5 * (lo + hi)
        if float(scalar(mid)) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_equilibria(
    negation: ScalarConnective | Mapping[str, ScalarConnective] | LiftedConnective,
    labels: Sequence[str],
    cfg: CheckConfig | None = None,
) -> EquilibriumResult:
    """Locate, per parameter label, the fixed point of the negation by
    bisection on n(x) - x down to a 1e-12 bracket.

    An entry is an equilibrium iff its residual |n(x*) - x*| is within
    the configured tolerance; non-existence is a verdict, not an error.
    At most one equilibrium is reported per label, so the total count
    never exceeds the number of distinct tags.  Each label is read as a
    tag with ``ParamTag.parse``, so ``"b*a"`` finds the entry of tag
    ``a*b``; a label naming a tag given before is dropped, and an entry
    keeps the first label of its tag as given.
    """
    cfg = cfg or CheckConfig()
    lifted = lift_negation(negation)
    tags: dict[ParamTag, str] = {}
    for label in labels:
        tags.setdefault(ParamTag.parse(label), label)
    entries = []
    for tag, label in tags.items():
        scalar = lifted.scalar_for(tag)
        x_star = _bisect_fixed_point(scalar)
        if x_star is None:
            entries.append(
                EquilibriumEntry(label, None, None, False,
                                 note="no sign change of n(x) - x on [0, 1]")
            )
            continue
        residual = abs(float(scalar(x_star)) - x_star)
        entries.append(
            EquilibriumEntry(label, x_star, residual, residual <= cfg.tolerance)
        )
    return EquilibriumResult(tuple(entries), cfg.tolerance)
