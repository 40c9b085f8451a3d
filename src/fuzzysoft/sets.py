"""Fuzzy sets over finite universes, fuzzy soft sets, and their operations.

A fuzzy soft set assigns a fuzzy set over a fixed finite universe to each
parameter tag.  It is stored as one read-only (P, U) float64 matrix,
``fss.values``, whose rows follow the sorted canonical tags ``fss.tags``;
``fss[tag]``, ``fss.assignments`` and ``tau_family`` build ``FuzzySet``
row views when read.  Binary operations between two fuzzy soft sets
produce one row per pair of source tags, under the canonical product tag;
when two source pairs collapse to the same canonical tag they are merged,
keeping the first pair's row, if every element is within
``CLAMP_TOLERANCE`` of it; a larger difference is an error.  Union and
intersection are ``apply_connective`` of the builtins that
``SET_OPERATIONS`` names.  ``apply_connective`` writes every pair's row into
one (P1 * P2, U) result matrix, keys the pairs by their sorted label
tuples, and checks each repeated pair against the first pair with its key;
the result's rows are gathered from that matrix in one step.  The fuzzy
soft negation, ``negate_fss``, maps each tag's row under that tag's unary
scalar and keeps the tags; the complement is its ``standard-negation``
case.

All types are immutable values; operations are pure functions.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, count, repeat
from operator import eq, is_, ne
from typing import Iterable, Mapping, Sequence

import numpy as np

from .connectives import (
    CLAMP_TOLERANCE,
    LiftedConnective,
    ScalarConnective,
    builtin,
    check_arity,
    into_unit_interval,
    lift_negation,
    require_arity,
)
from .errors import (
    CodomainError,
    ProductSizeError,
    TagCollisionError,
    UniverseMismatchError,
    ValidationError,
)
from .record import Record
from .tags import NOT_NUMBERS, ParamTag, canonical_tags, combine_tags

#: Largest float64 array (2**24 values, 128 MiB) one operation may create:
#: a binary set operation's P1 * P2 * U result values, and the arrays of a
#: ``CheckConfig`` (see ``analysis``).
MAX_ARRAY_VALUES = 2**24

#: Largest number of tag pairs (P1 * P2) one binary set operation may form
#: (2**18, so 512 by 512 tags).  Measured at U = 1 with 262,144 distinct
#: result tags: a tracemalloc peak of 266 B and 112 B kept per result tag
#: (its tag, label tuple and value), 70 MiB in all; the CLI ``apply`` of
#: that product peaked at 102 MiB RSS and ran 1.2 s.  From U = 64 up,
#: ``MAX_ARRAY_VALUES`` is the tighter bound.
MAX_PAIRS = 2**18

#: Each set operation that is a lifted connective, and its binary builtin.
SET_OPERATIONS = {"union": "maximum", "intersect": "minimum"}


class Universe(Record):
    """An ordered, non-empty sequence of distinct element identifiers; a
    faulty element's ``ValidationError`` carries its ``index``."""

    elements: tuple[str, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValidationError("a universe needs at least one element")
        seen = set()
        for index, element in enumerate(elements):
            if not isinstance(element, str) or not element:
                raise ValidationError(
                    f"universe element must be a non-empty string, got {element!r}", index)
            if element in seen:
                raise ValidationError(f"duplicate universe element {element!r}", index)
            seen.add(element)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def of(cls, *elements: str) -> "Universe":
        return cls(tuple(elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


class FuzzySet(Record):
    """Membership values in [0, 1], one per universe element, in order:
    a row of a ``FuzzySoftSet``, built when read and not checked again."""

    universe: Universe
    memberships: tuple[float, ...]


def _float_matrix(values) -> np.ndarray | None:
    """``values`` as a 2-D float array, or None where numpy cannot make one
    or where a value is one of the ``NOT_NUMBERS``, which numpy would take
    as a number.  Only an object array or a non-array is scanned by value."""
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        if array.ndim != 2 or kind in "SUbcmM" or (kind == "O" and any(
                isinstance(v, NOT_NUMBERS) for v in array.flat)):
            return None
        if not isinstance(values, np.ndarray) and not {bool, np.bool_}.isdisjoint(
                map(type, chain.from_iterable(values))):
            return None
        return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        return None


class FuzzySoftSet(Record):
    """A universe plus one membership row per canonical parameter tag.

    ``values`` is a read-only float64 matrix, one row per tag in the order
    of the sorted ``tags`` and one column per universe element.  The
    constructor sorts the given tags and rows together and is the one place
    the set invariants are checked.  Equality is exact; the hash covers the
    universe and the tags.
    """

    universe: Universe
    tags: tuple[ParamTag, ...]
    values: np.ndarray

    def __post_init__(self):
        tags = tuple(self.tags)
        if not tags:
            raise ValidationError("a fuzzy soft set needs at least one parameter tag")
        if not (isinstance(self.values, np.ndarray)
                and self.values.shape == (len(tags), len(self.universe))):
            if len(self.values) != len(tags):
                raise ValidationError(f"{len(self.values)} membership rows for the "
                                      f"{len(tags)} tags {[tag.text for tag in tags]}")
            for tag, row in zip(tags, self.values):
                if len(row) != len(self.universe):
                    raise ValidationError(
                        f"tag {tag.text!r}: expected {len(self.universe)} membership values "
                        f"for universe {list(self.universe.elements)}, got {len(row)}"
                    )
        values = _float_matrix(self.values)
        if values is None:
            for tag, row in zip(tags, self.values):
                for element, value in zip(self.universe.elements, row):
                    if _float_matrix([[value]]) is None:
                        raise ValidationError(f"tag {tag.text!r}: membership {value!r} "
                                              f"for element {element!r} is not a number")
        outside = ~((values >= 0.0) & (values <= 1.0))
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValidationError(
                f"tag {tags[i].text!r}: membership {float(values[i, j])!r} "
                f"for element {self.universe.elements[j]!r} is outside [0, 1]"
            )
        labels = [tag.labels for tag in tags]
        order = sorted(range(len(tags)), key=labels.__getitem__)
        tags = tuple(map(tags.__getitem__, order))
        labels = list(map(labels.__getitem__, order))
        duplicate = next(compress(count(), map(eq, labels, labels[1:])), None)
        if duplicate is not None:
            raise ValidationError(f"duplicate parameter tag {tags[duplicate].text!r}")
        values = values[order]
        values.flags.writeable = False
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "values", values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySoftSet):
            return NotImplemented
        return (self.universe == other.universe and self.tags == other.tags
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.universe, self.tags))

    @property
    def assignments(self) -> tuple[tuple[ParamTag, FuzzySet], ...]:
        """(tag, approximation) pairs in tag order."""
        return tuple(zip(self.tags, tau_family(self)))

    def approximation(self, tag: ParamTag | str) -> FuzzySet:
        if isinstance(tag, str):
            tag = ParamTag.parse(tag)
        i = bisect_left(self.tags, tag)
        if i == len(self.tags) or self.tags[i] != tag:
            raise ValidationError(f"no assignment for tag {tag.text!r}")
        return FuzzySet(self.universe, tuple(self.values[i].tolist()))

    __getitem__ = approximation

    def __len__(self) -> int:
        return len(self.tags)


def make_fuzzy_soft_set(
    universe: Universe | Sequence[str],
    assignments: Mapping[ParamTag | str, Sequence[float]]
    | Iterable[tuple[ParamTag | str, Sequence[float]]],
) -> FuzzySoftSet:
    """Validated construction from tag -> membership-sequence pairs.

    Tags may be given as ``ParamTag`` or as text (``"a1"`` or ``"a1*b1"``).
    Every membership sequence must match the universe length with values
    in [0, 1]; errors name the offending tag and element.
    """
    if not isinstance(universe, Universe):
        universe = Universe(tuple(universe))
    items = list(assignments.items() if isinstance(assignments, Mapping) else assignments)
    tags = tuple(tag if isinstance(tag, ParamTag) else ParamTag.parse(str(tag))
                 for tag, _ in items)
    return FuzzySoftSet(universe, tags, [tuple(values) for _, values in items])


def tau_family(fss: FuzzySoftSet, distinct: bool = False) -> tuple[FuzzySet, ...]:
    """The family of approximations, one per tag, in canonical tag order.

    With ``distinct=True``, identical fuzzy sets reached under different
    tags are reported once (set semantics), keeping first-seen order.
    """
    family = tuple(FuzzySet(fss.universe, tuple(row)) for row in fss.values.tolist())
    return tuple(dict.fromkeys(family)) if distinct else family


def negate_fss(
    negation: ScalarConnective | Mapping[str, ScalarConnective] | LiftedConnective,
    fss: FuzzySoftSet,
) -> FuzzySoftSet:
    """The fuzzy soft negation: each tag's row under that tag's negation.

    ``negation`` is a unary scalar, a tag-to-scalar mapping or a negation
    lift, as ``lift_negation`` takes them.  Every tag's scalar is looked up
    (``scalar_for``) before anything is evaluated, so a product tag with no
    entry and no default raises ``MissingLabelError`` first.  Each distinct
    scalar is then called once, on all of its rows together, in the order
    of its first tag, and its outputs are codomain-checked with
    near-boundary clamping, as in ``apply_connective``; a ``CodomainError``
    names the tag and element, and its ``index`` is in that call's output.
    The result has the universe and tags of ``fss``.
    """
    lifted = lift_negation(negation)
    scalars = list(map(lifted.scalar_for, fss.tags))
    values = np.empty_like(fss.values)
    with np.errstate(all="ignore"):
        for scalar in dict(zip(map(id, scalars), scalars)).values():
            rows = list(compress(count(), map(is_, scalars, repeat(scalar))))
            take = rows if len(rows) < len(scalars) else slice(None)
            part = fss.values[take]
            raw = np.broadcast_to(np.asarray(scalar(part), dtype=float), part.shape)

            def where(at: tuple[int, ...]) -> str:
                return (f"negation {scalar.name!r} under tag {fss.tags[rows[at[0]]].text!r} "
                        f"at element {fss.universe.elements[at[1]]!r}")

            values[take] = into_unit_interval(raw, where)
    return FuzzySoftSet(fss.universe, fss.tags, values)


def complement_fss(fss: FuzzySoftSet) -> FuzzySoftSet:
    """Complement every approximation, each membership m becoming 1 - m:
    ``negate_fss`` under ``standard-negation``, with the same tags.

    1 - (1 - m) reproduces m exactly only when 1 - m is itself
    representable (true for all multiples of 2**-53, e.g. anything drawn
    from a standard uniform generator).
    """
    return negate_fss(builtin("standard-negation"), fss)


def apply_connective(
    conn: LiftedConnective | ScalarConnective,
    f1: FuzzySoftSet,
    f2: FuzzySoftSet,
) -> FuzzySoftSet:
    """Combine two fuzzy soft sets pointwise under a binary connective.

    For every tag pair (a, b) the result assigns, under the canonical
    product tag, the vector ``scalar(m1(u), m2(u))`` per element.  The
    scalar is called once per row of ``f1``, against all rows of ``f2``,
    and its outputs are codomain-checked with near-boundary clamping and
    written into one (P1 * P2, U) matrix, pair (i, j) in row i * P2 + j.
    Two pairs collapsing to one canonical tag are merged into the first
    pair's row when every element is within ``CLAMP_TOLERANCE`` (absolute)
    of it, otherwise ``TagCollisionError`` is raised: each pair is keyed by
    its sorted label tuple, and a pair whose key was seen before is
    compared with the first pair that had it.  The result's rows are
    gathered from the matrix, in sorted key order, in one step.  More than
    ``MAX_PAIRS`` tag pairs (P1 * P2) or ``MAX_ARRAY_VALUES`` values
    (P1 * P2 * U) raise ``ProductSizeError`` before anything is allocated
    or evaluated.  A scalar that passes ``check_tnorm_axioms`` at its
    tolerance (1e-9 by default) can still collide here: the Hamacher
    product with an epsilon in its divisor deviates from associativity by
    up to 2.5e-11, so T(S, T(S, S)) raises ``TagCollisionError``.

    Faults are reported row of ``f1`` by row.  An error raised by the
    scalar anywhere in a row comes first.  Then the row's pairs are taken
    in order; for each, an out-of-range output (``CodomainError``, whose
    ``index`` is (pair in the row, element)) is reported before a
    collision with an earlier pair.
    """
    if isinstance(conn, LiftedConnective):
        conn = check_arity(conn, 2).scalar
    scalar = require_arity(conn, 2)
    if f1.universe != f2.universe:
        raise UniverseMismatchError(
            "operands are defined over different universes "
            f"({list(f1.universe.elements)} vs {list(f2.universe.elements)})"
        )
    elements = f1.universe.elements
    p1, p2 = len(f1.tags), len(f2.tags)
    if p1 * p2 > MAX_PAIRS:
        raise ProductSizeError(
            f"the product of {p1} by {p2} tags makes {p1 * p2} tag pairs, "
            f"more than MAX_PAIRS = {MAX_PAIRS}"
        )
    size = p1 * p2 * len(elements)
    if size > MAX_ARRAY_VALUES:
        raise ProductSizeError(
            f"the product of {p1} by {p2} tags over {len(elements)} "
            f"elements needs {size} values, more than MAX_ARRAY_VALUES = {MAX_ARRAY_VALUES}"
        )
    labels_b = [tag.labels for tag in f2.tags]
    pair_values = np.empty((p1 * p2, len(elements)))  # pair (i, j) in row i * p2 + j
    first: dict[tuple[str, ...], int] = {}
    with np.errstate(all="ignore"):
        for i, (tag_a, row) in enumerate(zip(f1.tags, f1.values)):
            raw = np.broadcast_to(np.asarray(scalar(row, f2.values), dtype=float),
                                  f2.values.shape)

            def where(index: tuple[int, ...]) -> str:
                tag = combine_tags(tag_a, f2.tags[index[0]])
                return (f"connective {scalar.name!r} under tag {tag.text!r} "
                        f"at element {elements[index[1]]!r}")

            start = i * p2
            try:
                pair_values[start:start + p2] = into_unit_interval(raw, where)
                checked, fault = p2, None
            except CodomainError as err:
                # The pairs before the out-of-range one are still checked first.
                checked, fault = err.index[0], err
                pair_values[start:start + checked] = into_unit_interval(raw[:checked], where)
            pairs, labels_a = range(start, start + checked), tag_a.labels
            row_keys = [tuple(sorted(labels_a + labels)) for labels in labels_b[:checked]]
            firsts = list(map(first.setdefault, row_keys, pairs))
            # Only a pair whose key has an earlier first pair is compared.
            for j in compress(range(checked), map(ne, firsts, pairs)):
                if np.abs(pair_values[firsts[j]] - pair_values[pairs[j]]).max() > CLAMP_TOLERANCE:
                    tag = combine_tags(tag_a, f2.tags[j])
                    raise TagCollisionError(
                        f"tag pairs ({tag_a.text}, {f2.tags[j].text}) collide on canonical "
                        f"tag {tag.text!r} with different membership vectors"
                    )
            if fault is not None:
                raise fault
    keys = sorted(first)
    values = pair_values[[first[key] for key in keys]]
    del pair_values
    return FuzzySoftSet(f1.universe, canonical_tags(keys), values)


def union_fss(f1: FuzzySoftSet, f2: FuzzySoftSet) -> FuzzySoftSet:
    """Union: pointwise maximum under canonical product tags."""
    return apply_connective(builtin(SET_OPERATIONS["union"]), f1, f2)


def intersect_fss(f1: FuzzySoftSet, f2: FuzzySoftSet) -> FuzzySoftSet:
    """Intersection: pointwise minimum under canonical product tags."""
    return apply_connective(builtin(SET_OPERATIONS["intersect"]), f1, f2)


def render_fss(fss: FuzzySoftSet) -> str:
    """Deterministic plain-text rendering used by scripts and the CLI."""
    lines = [f"universe: {' '.join(fss.universe.elements)}"]
    for tag, row in zip(fss.tags, fss.values.tolist()):
        lines.append(f"{tag.text}: {' '.join(map(repr, row))}")
    return "\n".join(lines)
