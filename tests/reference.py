"""A reference verifier for the axiom checks, independent of their engine.

``check(kind, candidate, cfg)`` restates every axiom of the four kinds from
its textbook statement (Klement, Mesiar and Pap, *Triangular Norms*, 2000;
Baczyński and Jayaram, *Fuzzy Implications*, 2008) and evaluates it with
plain calls of the candidate: no grid matrix read back, no screen, early
stop or register file.  From ``fuzzysoft`` it imports only the report
records, the errors it raises or catches, ``CUBE_TILE_POINTS``, and
``CompiledExpr`` as a type, so a fault in a piece of ``analysis`` cannot
show on both sides of a test.  A grid part is a fresh call on a mesh of
the points k / steps.  A cube axiom is evaluated over the C-order tiling
of the grid cube (``cube_tiles``; half-size tiles for an ``fn`` that is
not a ``CompiledExpr``), got before want; the tiling decides only where an
evaluation error is reported.  Samples follow the documented draw
schedule on one ``np.random.default_rng(cfg.seed)`` per check: axioms in
table order, x before y, a sorted pair as the min and max of an (m, 2)
draw, an unsorted one as one draw repeated, a boundary axiom's free column.

The report is the one ``check_*`` gives.  A witness is the lexicographically
smallest violation, grid parts before samples, equal tuples to the earlier
part; NaN violates.  ``points`` counts every point evaluated.  An error is the
first call that raises, in evaluation order (for each axiom its grid parts,
the codomain's being the check's grid matrix, its cube tiles, its samples),
at the first point in C order that raises (``walk_to_failure``).
"""

from functools import partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from fuzzysoft import (AxiomCheck, AxiomReport, CandidateEvaluationError, CheckConfig,
                       FuzzySoftError, Witness)
from fuzzysoft.analysis import CUBE_TILE_POINTS
from fuzzysoft.expr import CompiledExpr


class Axiom(NamedTuple):
    """``sides(f, *args)`` is (got, want), got to stand in ``relation`` to
    want; ``grid(g)`` lists the grid parts' argument columns (None: the
    grid cube); ``draw(rng, m)`` gives the sampled columns (None: none)."""

    label: str
    description: str
    relation: str
    sides: Callable
    grid: Callable | None
    draw: Callable | None


#: relation -> whether got stands in it to want, within tol.
_HOLDS = {
    "==": lambda got, want, tol: np.abs(got - want) <= tol,
    "<=": lambda got, want, tol: got <= want + tol,
    ">=": lambda got, want, tol: got >= want - tol,
    "in [0, 1]": lambda got, want, tol: (-tol <= got) & (got <= 1.0 + tol),
}


def violated(got, want, relation: str, tol: float) -> np.ndarray:
    """Where ``got`` does not stand in ``relation`` to ``want`` within ``tol``; NaN does not."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        return ~_HOLDS[relation](np.asarray(got, dtype=float), want, tol)


def _uniform(count: int):
    return lambda rng, m: [rng.random(m) for _ in range(count)]


def _pair(rng, m: int, sort: bool):  # the min and max of an (m, 2) draw, or one draw twice
    draw = rng.random((m, 2 if sort else 1))
    return draw.min(axis=1), draw.max(axis=1)


def _pairs(sort_x: bool, sort_y: bool):
    def draw(rng, m):
        (x1, x2), (y1, y2) = _pair(rng, m, sort_x), _pair(rng, m, sort_y)  # x drawn first
        return x1, y1, x2, y2
    return draw


def _mesh(g):
    return [(g[:, None], g[None, :])]


def _x_steps(g):  # (x1, y1, x2, y2) at adjacent grid points along x
    return g[:-1, None], g[None, :], g[1:, None], g[None, :]


def _y_steps(g):  # and along y
    return g[:, None], g[None, :-1], g[:, None], g[None, 1:]


def _two_points(f, x1, y1, x2, y2):
    return f(x1, y1), f(x2, y2)


_CODOMAIN = Axiom("codomain", "values stay in [0, 1]", "in [0, 1]",
                  lambda f, x, y: (f(x, y), None), _mesh, _uniform(2))


def _boundary(label: str, description: str, unit: float, want, fixed: int = 0) -> Axiom:
    """f(unit, y) = want(y), or f(x, unit) = want(x) if ``fixed`` is 1, at the grid
    points and sampled free values; its sides refuse a point off the boundary."""
    def sides(f, *args):
        assert np.all(args[fixed] == unit), f"{args} is off the boundary {unit}"
        return f(*args), want(args[1 - fixed])

    def on(free, edge):
        return (edge, free) if fixed == 0 else (free, edge)
    return Axiom(label, description, "==", sides, lambda g: [on(g, g[g == unit])],
                 lambda rng, m: on(rng.random(m), unit))


def _binary(unit: float, name: str) -> tuple[Axiom, ...]:
    """A t-norm (unit 1) or a t-conorm (unit 0): a commutative, associative
    and monotone map of [0, 1]² into [0, 1] with neutral element ``unit``."""
    return (
        _CODOMAIN,
        _boundary("i", f"boundary f({name}, y) = y", unit, lambda y: y),
        _boundary("ii", f"boundary f(x, {name}) = x", unit, lambda x: x, fixed=1),
        Axiom("iii", "commutativity f(x, y) = f(y, x)", "==",
              lambda f, x, y: (f(x, y), f(y, x)), _mesh, _uniform(2)),
        Axiom("iv", "associativity f(x, f(y, z)) = f(f(x, y), z)", "==",
              lambda f, x, y, z: (f(x, f(y, z)), f(f(x, y), z)), None, _uniform(3)),
        Axiom("v", "monotonicity: f(x1, y1) <= f(x2, y2) whenever x1 <= x2 and y1 <= y2",
              "<=", _two_points, lambda g: [_x_steps(g), _y_steps(g)], _pairs(True, True)),
    )


AXIOMS = {
    "tnorm": _binary(1.0, "1"),
    "tconorm": _binary(0.0, "0"),
    "implication": (
        _CODOMAIN,
        Axiom("i", "antitone in the first argument: h(x1, y) >= h(x2, y) for x1 <= x2", ">=",
              _two_points, lambda g: [_x_steps(g)], _pairs(True, False)),
        Axiom("ii", "monotone in the second argument: h(x, y1) <= h(x, y2) for y1 <= y2", "<=",
              _two_points, lambda g: [_y_steps(g)], _pairs(False, True)),
        _boundary("iii", "boundary h(1, y) = y", 1.0, lambda y: y),
        _boundary("iv", "boundary h(0, y) = 1", 0.0, lambda y: 1.0),
        Axiom("v", "exchange h(x, h(y, z)) = h(y, h(x, z))", "==",
              lambda f, x, y, z: (f(x, f(y, z)), f(y, f(x, z))), None, _uniform(3)),
    ),
    "negation": (
        Axiom("codomain", "values stay in [0, 1]", "in [0, 1]", lambda f, x: (f(x), None),
              lambda g: [(g,)], _uniform(1)),
        Axiom("i", "boundary n(1) = 0 and n(0) = 1", "==", lambda f, x: (f(x), 1.0 - x),
              lambda g: [(g[[0, -1]],)], None),
        Axiom("ii", "antitonicity: n(x1) >= n(x2) for x1 <= x2", ">=",
              lambda f, x1, x2: (f(x1), f(x2)), lambda g: [(g[:-1], g[1:])],
              lambda rng, m: _pair(rng, m, True)),
        Axiom("iii", "involution n(n(x)) = x", "==", lambda f, x: (f(f(x)), x),
              lambda g: [(g,)], _uniform(1)),
    ),
}


def cube_tiles(n: int, most: int):
    """The grid cube of ``n`` points a side as index ranges (xs, ys, zs)
    in C order: blocks of whole x-planes when a plane fits in ``most``
    points, else blocks of ``most // n`` y-rows of one plane."""
    rows = max(1, most // n)
    if rows >= n:
        for x in range(0, n, rows // n):
            yield slice(x, x + rows // n), slice(None), slice(None)
    else:
        for x in range(n):
            for y in range(0, n, rows):
                yield slice(x, x + 1), slice(y, y + rows), slice(None)


def _cube(candidate, g):
    compiled = isinstance(candidate.fn, CompiledExpr)
    for xs, ys, zs in cube_tiles(len(g), CUBE_TILE_POINTS if compiled else CUBE_TILE_POINTS // 2):
        yield g[xs, None, None], g[None, ys, None], g[None, None, zs]


def _raises(candidate, *args) -> bool:
    try:
        candidate(*args)
    except FuzzySoftError:
        return True
    return False


def walk_to_failure(candidate, args, shape) -> tuple[float, ...]:
    """The first point in C order at which the candidate raises, called
    point by point with scalars; NaNs if no point does."""
    flat = [np.broadcast_to(np.asarray(a, dtype=float), shape).ravel() for a in args]
    for point in zip(*flat):
        if _raises(candidate, *(point := tuple(map(float, point)))):
            return point
    return (float("nan"),) * len(args)


def _call(candidate, *args):
    try:
        return candidate(*args)
    except FuzzySoftError as err:
        # Walk only the first raising run of 256 points: a whole tile takes seconds.
        flat = [column.ravel() for column in np.broadcast_arrays(*args)]
        runs = ([column[k:k + 256] for column in flat] for k in range(0, flat[0].size, 256))
        run = next((run for run in runs if _raises(candidate, *run)), flat)
        point = walk_to_failure(candidate, run, run[0].shape)
        raise CandidateEvaluationError(
            f"candidate {candidate.name!r} failed at {point}: {err}", point) from err


def _smallest(cols, got, want, bad, relation: str) -> Witness | None:
    """The witness at the lexicographically smallest violating tuple, of
    equal tuples the first in C order; None if nothing violates."""
    if not bad.any():
        return None
    smallest = bad  # the violations whose leading coordinates are least so far
    for col in cols:
        col = np.broadcast_to(col, bad.shape)
        smallest = smallest & (col == col.min(where=smallest, initial=np.inf))
    at = np.unravel_index(np.argmax(smallest), bad.shape)

    def pick(values) -> float:
        return float(np.broadcast_to(values, bad.shape)[at])

    return Witness(tuple(map(pick, cols)), pick(got), None if want is None else pick(want),
                   relation)


def _check(axiom: Axiom, candidate, g, rng, cfg: CheckConfig, param) -> AxiomCheck:
    sample = axiom.draw and axiom.draw(rng, cfg.random_samples)
    parts = chain(axiom.grid(g) if axiom.grid else _cube(candidate, g),
                  [] if sample is None else [sample])
    witness, points = None, 0
    with np.errstate(all="ignore"):
        for cols in parts:
            got, want = axiom.sides(partial(_call, candidate), *cols)
            got = np.broadcast_to(np.asarray(got, dtype=float),
                                  np.broadcast_shapes(*map(np.shape, cols)))
            bad = violated(got, want, axiom.relation, cfg.tolerance)
            points += bad.size
            found = _smallest(cols, got, want, bad, axiom.relation)
            if found is not None and (witness is None or found.args < witness.args):
                witness = found
    return AxiomCheck(axiom.label, axiom.description, witness is None, witness, points, param)


def check(kind: str, candidate, cfg: CheckConfig) -> AxiomReport:
    """The report of ``check_<kind>_axioms``; a negation must be lifted
    (``lift_negation``): each family entry is checked under its tag, then
    the scalar every other tag gets, under None."""
    g = np.arange(cfg.grid_steps + 1, dtype=float) / cfg.grid_steps
    rng = np.random.default_rng(cfg.seed)
    scalars = [(None, candidate)]
    if kind == "negation":
        rest = candidate.scalar or candidate.default
        scalars = [*(candidate.family or ()), *([(None, rest)] if rest else [])]
    checks = tuple(_check(axiom, scalar, g, rng, cfg, param)
                   for param, scalar in scalars for axiom in AXIOMS[kind])
    return AxiomReport(kind, candidate.name, cfg, checks)
