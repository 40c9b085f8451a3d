"""Axiom verification with counterexample search, element classification,
equilibrium solving, and a continuity probe.

Every check evaluates the candidate over a regular grid on [0, 1] plus a
configurable number of pseudo-random samples drawn from a seeded
generator, so identical inputs always produce identical reports.  A
failed check carries a witness that re-evaluates to a violation beyond the
tolerance: the lexicographically smallest violating argument tuple over
the grid points (or grid cube) and the samples, equal tuples going to the
first found, grid before samples.  Each part is reduced to its smallest
violation as it is evaluated, and the grid cube is walked in C order in
tiles of at most 2**15 points whose inner values are views of the grid
matrix, so a check holds one cache-sized tile of the cube in memory,
however many points violate.

Each axiom is one row of a table (label, description, relation, grid
points, seeded sample draw, and the two sides the relation compares);
one function, ``_verify``, evaluates the rows of all four kinds.

Sampling falsifies, it does not prove: a report in which every axiom
passes means no counterexample was found at the examined points.

Unless noted otherwise, comparisons use an absolute tolerance; membership
values live in [0, 1], where absolute error is the natural metric.
Monotonicity and antitonicity are checked between adjacent grid points
along each axis (which implies the quantified property on the whole
grid), plus jointly on sampled pairs of pairs.  Associativity and
exchange walk the full grid cube, so their cost grows with the cube of
the grid resolution; the default 64 steps gives roughly 275k triples.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .connectives import (
    LIFT_NEGATION,
    LiftedConnective,
    ScalarConnective,
    lift_negation,
    require_arity,
)
from .errors import ArityError, CandidateEvaluationError, DslError, FuzzySoftError
from .tags import ParamTag

#: Bisection stops once the bracket is narrower than this; three orders
#: of magnitude finer than the default verdict tolerance.
BISECTION_BRACKET = 1e-12

#: The continuity probe flags a jump larger than this multiple of the
#: fine-grid spacing (builtin connectives move at most one spacing per
#: step along an axis).
CONTINUITY_JUMP_FACTOR = 10.0

#: Largest float64 array (2**24 values, 128 MiB) a ``CheckConfig`` may
#: create: the continuity probe's (4n + 1)**2 grid matrix caps n at 1023,
#: and the (samples, 4) pair-of-pairs columns cap the samples at 2**22.
MAX_ARRAY_VALUES = 2**24

#: Most points in one tile of the grid cube: each float64 temporary of a
#: tile is 256 KiB, so an expression's few live temporaries stay in a
#: 2 MiB L2 cache.  Larger tiles leave the heap trimmed and regrown per
#: tile, which costs a fresh process more page faults than it saves.
CUBE_TILE_POINTS = 2**15


@dataclass(frozen=True)
class CheckConfig:
    """Shared configuration for every verification routine."""

    grid_steps: int = 64
    random_samples: int = 10000
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.grid_steps < 2:
            raise ValueError(f"grid_steps must be >= 2, got {self.grid_steps}")
        if self.random_samples < 0:
            raise ValueError(f"random_samples must be >= 0, got {self.random_samples}")
        for name, size in (("grid_steps", (4 * self.grid_steps + 1) ** 2),
                           ("random_samples", 4 * self.random_samples)):
            if size > MAX_ARRAY_VALUES:
                raise ValueError(f"{name} = {getattr(self, name)} needs an array of {size} "
                                 f"values, more than MAX_ARRAY_VALUES = {MAX_ARRAY_VALUES}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Witness:
    """A reproducible counterexample: re-evaluating the candidate at
    ``args`` violates the stated relation beyond the tolerance."""

    args: tuple[float, ...]
    got: float
    want: float | None
    relation: str

    def to_dict(self) -> dict:
        return {
            "args": list(self.args),
            "got": self.got,
            "want": self.want,
            "relation": self.relation,
        }


@dataclass(frozen=True)
class AxiomCheck:
    """Verdict for one axiom; ``param`` names the family label for
    per-parameter negation checks."""

    label: str
    description: str
    passed: bool
    witness: Witness | None
    points: int
    param: str | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "description": self.description,
            "param": self.param,
            "passed": self.passed,
            "points": self.points,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


@dataclass(frozen=True)
class AxiomReport:
    """All axiom verdicts for one candidate under one configuration."""

    kind: str
    candidate: str
    config: CheckConfig
    checks: tuple[AxiomCheck, ...]

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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "candidate": self.candidate,
            "config": self.config.to_dict(),
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
        }


@dataclass(frozen=True)
class ZeroDivisor:
    value: float
    witness: float

    def to_dict(self) -> dict:
        return {"value": self.value, "witness": self.witness}


@dataclass(frozen=True)
class ClassificationReport:
    """Grid scan for idempotent, nilpotent and zero-divisor elements."""

    candidate: str
    grid_steps: int
    tolerance: float
    idempotents: tuple[float, ...]
    nilpotents: tuple[float, ...]
    zero_divisors: tuple[ZeroDivisor, ...]

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

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "grid_steps": self.grid_steps,
            "tolerance": self.tolerance,
            "idempotents": list(self.idempotents),
            "nilpotents": list(self.nilpotents),
            "zero_divisors": [z.to_dict() for z in self.zero_divisors],
            "confirmed_nilpotent_zero_divisors": list(self.confirmed_nilpotent_zero_divisors),
        }


@dataclass(frozen=True)
class EquilibriumEntry:
    """Fixed-point verdict for one parameter label."""

    label: str
    value: float | None
    residual: float | None
    is_equilibrium: bool
    note: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EquilibriumResult:
    entries: tuple[EquilibriumEntry, ...]
    tolerance: float

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

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "count": self.count,
            "entries": [e.to_dict() for e in self.entries],
        }


@dataclass(frozen=True)
class ContinuityEstimate:
    """Heuristic continuity estimate from a fine-grid scan; never a proof."""

    candidate: str
    fine_steps: int
    spacing: float
    max_jump: float
    at: tuple[float, float, float, float]
    threshold: float
    suspected_discontinuity: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "at": list(self.at)}


# ---------------------------------------------------------------------------
# Evaluation helpers


def _grid(cfg: CheckConfig) -> np.ndarray:
    return np.arange(cfg.grid_steps + 1, dtype=float) / cfg.grid_steps


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


def _call(candidate: ScalarConnective, *args) -> np.ndarray:
    """Evaluate on broadcast arrays; wrap evaluation errors with the
    first (lexicographically smallest) offending point."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    try:
        with np.errstate(all="ignore"):
            out = candidate(*args)
    except (DslError, FuzzySoftError) as err:
        point = _locate_failure(candidate, args, shape)
        raise CandidateEvaluationError(
            f"candidate {candidate.name!r} failed at {point}: {err}", point
        ) from err
    return np.broadcast_to(np.asarray(out, dtype=float), shape)


def _violations(got: np.ndarray, want, relation: str, tol: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # NaN, from inf - inf say, violates
        if relation == "==":
            diff = np.subtract(got, want)
            return ~(np.abs(diff, out=diff) <= tol)
        if relation == "<=":
            return ~(got <= want + tol)
        if relation == ">=":
            return ~(got >= want - tol)
        if relation == "in [0, 1]":
            return ~((got >= -tol) & (got <= 1.0 + tol))
    raise ValueError(f"unknown relation {relation!r}")


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


def _pairs(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every grid pair (x, y), x-major."""
    return np.repeat(g, len(g)), np.tile(g, len(g))


def _adjacent(g: np.ndarray, axis: int) -> tuple[np.ndarray, ...]:
    """Neighbouring grid points along one axis, as columns (x1, y1, x2, y2)."""
    n = len(g)
    if axis == 0:
        y = np.tile(g, n - 1)
        return np.repeat(g[:-1], n), y, np.repeat(g[1:], n), y
    x = np.repeat(g, n - 1)
    return x, np.tile(g[:-1], n), x, np.tile(g[1:], n)


def _cube_tiles(n: int):
    """The grid cube of ``n`` points a side as index ranges (xs, ys, zs) in
    C order, each tile at most ``CUBE_TILE_POINTS`` points: a block of
    x-planes, or, when one plane is larger than that, a block of y-rows
    inside one plane.  z always spans the grid."""
    rows = max(1, CUBE_TILE_POINTS // n)
    if rows >= n:
        block = rows // n
        for x in range(0, n, block):
            yield slice(x, x + block), slice(None), slice(None)
    else:
        for x in range(n):
            for y in range(0, n, rows):
                yield slice(x, x + 1), slice(y, y + rows), slice(None)


def _tile_inner(F: np.ndarray, tile: tuple[slice, ...], i: int, j: int) -> np.ndarray:
    """f at a tile's argument columns i < j, as a view of the grid matrix F
    laid out along the tile's axes: no candidate call, no gather."""
    return np.expand_dims(F[tile[i], tile[j]], 3 - i - j)


def _uniform(count: int):
    return lambda rng, m: tuple(rng.random(m) for _ in range(count))


def _sorted_pair(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    draw = np.sort(rng.random((count, 2)), axis=1)
    return draw[:, 0], draw[:, 1]


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


@dataclass(frozen=True)
class _Axiom:
    """One axiom: ``sides(f, *args)`` returns the (got, want) pair that
    must satisfy ``relation``, evaluated at the argument columns
    ``grid(g)`` and ``draw(rng, m)`` (``None``: no samples).  Columns may
    be floats; they broadcast.  With ``grid`` ``None`` the axiom walks the
    whole grid cube, and its sides are ``sides(f, inner, x, y, z)``, where
    ``inner(i, j)`` is f at argument columns i and j."""

    label: str
    description: str
    relation: str
    grid: Callable | None
    draw: Callable | None
    sides: Callable


def _pair_sides(f, x1, y1, x2, y2):
    return f(x1, y1), f(x2, y2)


_BINARY_CODOMAIN = _Axiom("codomain", "values stay in [0, 1]", "in [0, 1]", _pairs,
                          _uniform(2), lambda f, x, y: (f(x, y), None))


def _unit_first(label: str, description: str, unit: float) -> _Axiom:
    return _Axiom(label, description, "==", lambda g: (unit, g),
                  lambda rng, m: (unit, rng.random(m)), lambda f, x, y: (f(x, y), y))


def _unit_second(label: str, description: str, unit: float) -> _Axiom:
    return _Axiom(label, description, "==", lambda g: (g, unit),
                  lambda rng, m: (rng.random(m), unit), lambda f, x, y: (f(x, y), x))


def _binary_axioms(unit: float, name: str) -> tuple[_Axiom, ...]:
    """The t-norm axioms (unit 1) or the t-conorm axioms (unit 0), after
    Klement, Mesiar and Pap, *Triangular Norms*."""
    return (
        _BINARY_CODOMAIN,
        _unit_first("i", f"boundary f({name}, y) = y", unit),
        _unit_second("ii", f"boundary f(x, {name}) = x", unit),
        _Axiom("iii", "commutativity f(x, y) = f(y, x)", "==", _pairs, _uniform(2),
               lambda f, x, y: (f(x, y), f(y, x))),
        _Axiom("iv", "associativity f(x, f(y, z)) = f(f(x, y), z)", "==", None, _uniform(3),
               lambda f, inner, x, y, z: (f(x, inner(1, 2)), f(inner(0, 1), z))),
        _Axiom("v", "monotonicity: f(x1, y1) <= f(x2, y2) whenever x1 <= x2 and y1 <= y2",
               "<=", lambda g: tuple(map(np.concatenate, zip(_adjacent(g, 0),
                                                             _adjacent(g, 1)))),
               _pair_draw(True, True), _pair_sides),
    )


_TNORM_AXIOMS = _binary_axioms(1.0, "1")
_TCONORM_AXIOMS = _binary_axioms(0.0, "0")

#: After Baczyński and Jayaram, *Fuzzy Implications*.
_IMPLICATION_AXIOMS = (
    _BINARY_CODOMAIN,
    _Axiom("i", "antitone in the first argument: h(x1, y) >= h(x2, y) for x1 <= x2", ">=",
           lambda g: _adjacent(g, 0), _pair_draw(True, False), _pair_sides),
    _Axiom("ii", "monotone in the second argument: h(x, y1) <= h(x, y2) for y1 <= y2", "<=",
           lambda g: _adjacent(g, 1), _pair_draw(False, True), _pair_sides),
    _unit_first("iii", "boundary h(1, y) = y", 1.0),
    _Axiom("iv", "boundary h(0, y) = 1", "==", lambda g: (0.0, g),
           lambda rng, m: (0.0, rng.random(m)), lambda f, x, y: (f(x, y), 1.0)),
    _Axiom("v", "exchange h(x, h(y, z)) = h(y, h(x, z))", "==", None, _uniform(3),
           lambda f, inner, x, y, z: (f(x, inner(1, 2)), f(y, inner(0, 2)))),
)

_NEGATION_AXIOMS = (
    _Axiom("codomain", "values stay in [0, 1]", "in [0, 1]", lambda g: (g,), _uniform(1),
           lambda f, x: (f(x), None)),
    _Axiom("i", "boundary n(1) = 0 and n(0) = 1", "==", lambda g: (np.array([1.0, 0.0]),),
           None, lambda f, x: (f(x), 1.0 - x)),
    _Axiom("ii", "antitonicity: n(x1) >= n(x2) for x1 <= x2", ">=",
           lambda g: (g[:-1], g[1:]), _sorted_pair, lambda f, x1, x2: (f(x1), f(x2))),
    _Axiom("iii", "involution n(n(x)) = x", "==", lambda g: (g,), _uniform(1),
           lambda f, x: (f(f(x)), x)),
)


def _verify(
    axiom: _Axiom,
    call: Callable,
    table: Callable | None,
    g: np.ndarray,
    rng: np.random.Generator,
    cfg: CheckConfig,
    param: str | None = None,
    F: np.ndarray | None = None,
) -> AxiomCheck:
    """Evaluate one axiom on its grid points, or on the grid cube, then on
    its samples; the witness is the lexicographically smallest violation.

    Binary grids read their values from ``table`` (the grid matrix ``F``,
    computed once), and each cube tile takes its inner values as views of
    ``F``.  A unary grid is a single row of points, so with no ``table``
    the grid and the samples are evaluated in one call each, grid first."""
    sample = None if axiom.draw is None else axiom.draw(rng, cfg.random_samples)
    on_samples = partial(axiom.sides, call)
    tiles = 0  # how many leading parts are cube tiles, in C order
    if axiom.grid is None:
        parts = [(partial(axiom.sides, call, partial(_tile_inner, F, tile)),
                  (g[tile[0], None, None], g[None, tile[1], None], g[None, None, tile[2]]))
                 for tile in _cube_tiles(len(g))]
        tiles = len(parts)
        if sample is not None:
            on_samples = partial(on_samples, lambda i, j: call(sample[i], sample[j]))
    elif table is None and sample is not None:
        parts = [(on_samples, tuple(map(np.concatenate, zip(axiom.grid(g), sample))))]
        sample = None
    else:
        parts = [(partial(axiom.sides, table or call), axiom.grid(g))]
    if sample is not None:
        parts.append((on_samples, sample))

    points, witness = 0, None
    for number, (sides, cols) in enumerate(parts):
        got, want = sides(*cols)
        bad = _violations(got, want, axiom.relation, cfg.tolerance)
        points += bad.size
        # C order over an increasing grid is lexicographic order: once a
        # cube tile has given the witness, no later tile holds a strictly
        # smaller tuple, so later tiles are evaluated and counted only.
        if (witness is None or number >= tiles) and bad.any():
            found = _smallest_violation(cols, got, want, bad, axiom.relation)[1]
            # Strictly smaller only: on a tie the earlier part's point stays.
            if witness is None or found.args < witness.args:
                witness = found
        # Free this part's values before the next cube tile is computed.
        del got, want
    return AxiomCheck(axiom.label, axiom.description, witness is None, witness, points, param)


def _check_binary(
    kind: str, axioms: tuple[_Axiom, ...], candidate: ScalarConnective, cfg: CheckConfig | None
) -> AxiomReport:
    cfg = cfg or CheckConfig()
    require_arity(candidate, 2)
    g = _grid(cfg)
    call = partial(_call, candidate)
    F = call(g[:, None], g[None, :])

    def table(x, y):
        return F[np.rint(np.multiply(x, cfg.grid_steps)).astype(np.intp),
                 np.rint(np.multiply(y, cfg.grid_steps)).astype(np.intp)]

    rng = np.random.default_rng(cfg.seed)
    checks = tuple(_verify(axiom, call, table, g, rng, cfg, F=F) for axiom in axioms)
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


def _as_negation_lift(
    candidate: ScalarConnective | Mapping[str, ScalarConnective] | LiftedConnective,
) -> LiftedConnective:
    if isinstance(candidate, LiftedConnective):
        if candidate.kind != LIFT_NEGATION:
            raise ArityError(f"expected a negation lift, got kind {candidate.kind!r}")
        return candidate
    return lift_negation(candidate)


def check_negation_axioms(
    candidate: ScalarConnective | Mapping[str, ScalarConnective] | LiftedConnective,
    labels: Sequence[str] | None = None,
    cfg: CheckConfig | None = None,
) -> AxiomReport:
    """Verify the negation axioms per parameter label: boundary swaps of
    0 and 1, antitonicity, and involution.

    ``candidate`` may be one unary scalar (applied uniformly), a
    label-to-scalar mapping, or an already-lifted negation.  With no
    explicit ``labels``, a family is checked on its own labels and a
    uniform negation once.
    """
    cfg = cfg or CheckConfig()
    lifted = _as_negation_lift(candidate)
    if labels is None:
        if lifted.family:
            labels = tuple(label for label, _ in lifted.family)
        else:
            labels = (None,)

    g = _grid(cfg)
    rng = np.random.default_rng(cfg.seed)
    checks: list[AxiomCheck] = []
    for label in labels:
        if label is None:
            scalar = lifted.scalar if lifted.scalar is not None else lifted.default
        else:
            scalar = lifted.scalar_for(ParamTag(label))
        call = partial(_call, scalar)
        checks += [_verify(axiom, call, None, g, rng, cfg, label) for axiom in _NEGATION_AXIOMS]
    return AxiomReport("negation", lifted.name, cfg, tuple(checks))


# ---------------------------------------------------------------------------
# Classification, equilibria, continuity


def classify_elements(candidate: ScalarConnective, cfg: CheckConfig | None = None) -> ClassificationReport:
    """Scan the grid for idempotent elements (f(x, x) = x), nilpotent
    elements (f(x, x) = 0) and zero divisors (x > 0 with some y > 0 such
    that f(x, y) = 0), all within the configured tolerance.

    The zero-divisor witness search walks the positive grid in ascending
    order and keeps the first hit, so witnesses are deterministic.
    """
    cfg = cfg or CheckConfig()
    require_arity(candidate, 2)
    g = _grid(cfg)
    tol = cfg.tolerance
    F = _call(candidate, g[:, None], g[None, :])
    diag = _call(candidate, g, g)

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
    never exceeds the number of labels.
    """
    cfg = cfg or CheckConfig()
    lifted = _as_negation_lift(negation)
    entries = []
    for label in dict.fromkeys(labels):
        scalar = lifted.scalar_for(ParamTag(label))
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


def continuity_probe(candidate: ScalarConnective, cfg: CheckConfig | None = None) -> ContinuityEstimate:
    """Heuristic continuity scan on a grid four times finer than the
    configured one: the largest jump between adjacent neighbours along
    either axis is compared against ``CONTINUITY_JUMP_FACTOR`` spacings
    (builtins move at most one spacing per step).  A flag here suggests a
    discontinuity; the absence of one proves nothing.
    """
    cfg = cfg or CheckConfig()
    require_arity(candidate, 2)
    fine_steps = 4 * cfg.grid_steps
    g = np.arange(fine_steps + 1, dtype=float) / fine_steps
    spacing = 1.0 / fine_steps
    F = _call(candidate, g[:, None], g[None, :])

    found = []  # (largest jump, its two points) along x, then along y
    for axis in (0, 1):
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and argmax picks NaN
            jumps = np.abs(np.diff(F, axis=axis))
        i, j = np.unravel_index(np.argmax(jumps), jumps.shape)
        at = (g[i], g[j], g[i + 1 - axis], g[j + axis])
        found.append((float(jumps[i, j]), tuple(map(float, at))))
    max_jump, at = found[0] if found[0][0] >= found[1][0] else found[1]
    threshold = CONTINUITY_JUMP_FACTOR * spacing
    return ContinuityEstimate(
        candidate=candidate.name,
        fine_steps=fine_steps,
        spacing=spacing,
        max_jump=max_jump,
        at=at,
        threshold=threshold,
        suspected_discontinuity=max_jump > threshold,
    )
