"""Fuzzy sets over finite universes, fuzzy soft sets, and their operations.

A fuzzy soft set assigns a fuzzy set over a fixed finite universe to each
parameter tag.  It is stored as one read-only (P, U) float64 matrix,
``fss.values``, whose rows follow the sorted canonical tags, and the tags
as label ranks, the one layout of every set (see ``FuzzySoftSet``).
``fss[tag]``, ``fss.assignments`` and ``tau_family`` build ``FuzzySet``
row views when read.  A binary operation, ``apply_connective``, gives one
row per pair of source tags under their canonical product tag, and
merges pairs that collapse to one tag; union and intersection are it
under the builtins that ``SET_OPERATIONS`` names.  The fuzzy soft
negation, ``negate_fss``, maps each tag's row under that tag's unary
scalar; the complement is its ``standard-negation`` case.

All types are immutable values; operations are pure functions.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, count, repeat
from operator import is_
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
from .tags import ParamTag, canonical_tags, combine_tags, is_text, number_or_none

#: Largest float64 array (2**24 values, 128 MiB) one operation may create:
#: a binary set operation's P1 * P2 * U result values, and the arrays of a
#: ``CheckConfig`` (see ``analysis``).
MAX_ARRAY_VALUES = 2**24

#: Largest number of tag pairs (P1 * P2) one binary set operation may form
#: (2**18, so 512 by 512 tags).  Measured at U = 1 with 262,144 distinct
#: result tags: a tracemalloc peak of 57 B and 16 B kept per result tag
#: (its value and its ranks), 14.3 MiB in all, and 120 B kept per tag
#: once its ``tags`` are read; the CLI ``apply`` of that product peaked at
#: 46 MiB RSS and ran 0.23-0.32 s (2-core Xeon VM, CPython 3.11).  From
#: U = 64 up, ``MAX_ARRAY_VALUES`` is the tighter bound.
MAX_PAIRS = 2**18

#: Values per kernel block of ``apply_connective``: the binary scalar runs
#: on ``max(1, APPLY_BLOCK_VALUES // (P2 * U))`` rows of the left operand at
#: a time, so a block's arrays hold 128 KiB unless one row of pairs needs
#: more.  Blocks of 2**16 values raised the CLI's peak RSS on 10 by 10 tags
#: over U = 2000 by 0.4 MiB and were no faster on 80 by 80 tags over U = 8.
APPLY_BLOCK_VALUES = 2**14

#: Each set operation that is a lifted connective, and its binary builtin.
SET_OPERATIONS = {"union": "maximum", "intersect": "minimum"}


class Universe(Record):
    """An ordered, non-empty sequence of distinct element identifiers; a
    faulty element's ``ValidationError`` carries its ``index``."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.elements, str) or not isinstance(self.elements, Iterable):
            raise ValidationError(f"universe elements must be a sequence, not {self.elements!r}")
        elements = tuple(self.elements)
        if not elements:
            raise ValidationError("a universe needs at least one element")
        seen = set()
        for index, element in enumerate(elements):
            if not isinstance(element, str) or not element:
                raise ValidationError(
                    f"universe element must be a non-empty string, got {element!r}", index)
            if not is_text(element):
                raise ValidationError(f"universe element {element!r} is not valid Unicode text "
                                      "(it holds a lone surrogate)", index)
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


def _is_sequence(value) -> bool:
    """A sequence, not text or bytes, or an array of one or more dimensions."""
    if isinstance(value, np.ndarray):
        return value.ndim > 0
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


class FuzzySoftSet(Record):
    """A universe plus one membership row per canonical parameter tag.

    ``values`` is a read-only float64 matrix, one row per tag in the order
    of the sorted ``tags`` and one column per universe element.  An int or
    float ndarray of shape (P, U) is read whole, anything else row by row,
    a row being any sequence but a mapping, text or bytes, and value by
    value with ``number_or_none``: a membership is any real number (int,
    float, numpy real scalar, ``Fraction``, ``Decimal``), and ``bool``,
    text, bytes, complex, dates, ``None`` and arrays with dimensions are
    refused.  The constructor range-checks the rows in the given order,
    naming the given tag of a faulty row, refuses a repeated tag and sorts
    tags and rows together into a copy; every fault is a ``ValidationError``.
    Equality is exact; the hash covers the universe and the tags.

    The tags are stored as a label table, ``_labels``, the sorted tuple of
    the distinct labels they use, and a rank matrix, ``_ranks``, a
    read-only (P, K) int32 array with one row per tag: its labels' ranks
    in the table, ascending, then -1 up to the longest tag's K labels.
    Rows compare as label tuples do (a prefix of a tag sorts first), so
    the sort and the duplicate check are numpy passes.  That is the one
    layout of every set, however it was built.  The constructor converts
    the given tags to ranks and keeps none of them; ``document_to_fss``,
    ``apply_connective`` and ``negate_fss`` check and order their rows
    where they make them and hand them over through ``_ranked``, which
    checks nothing.  ``vars()`` holds the two in place of ``tags``, which a
    set builds on first read and keeps.  ``len``, ``==``, ``hash`` and
    ``save_fss`` read the ranks, never the tags.
    """

    universe: Universe
    tags: tuple[ParamTag, ...]
    values: np.ndarray

    def __post_init__(self):
        tags = tuple(self.tags) if isinstance(self.tags, Iterable) else ()
        if not tags:
            raise ValidationError(
                f"a fuzzy soft set needs at least one parameter tag, got {self.tags!r}")
        if not isinstance(self.universe, Universe):
            raise ValidationError(f"universe must be a Universe, got {self.universe!r}")
        if not all(isinstance(tag, ParamTag) for tag in tags):
            tag = next(tag for tag in tags if not isinstance(tag, ParamTag))
            raise ValidationError(f"parameter tag must be a ParamTag, got {tag!r}")
        labels = [tag.labels for tag in tags]
        values, elements = self.values, self.universe.elements
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
                and values.shape == (len(tags), len(elements))):
            if not _is_sequence(values):
                raise ValidationError(f"membership rows {values!r} are not a sequence")
            if len(values) != len(tags):
                raise ValidationError(f"{len(values)} membership rows for the "
                                      f"{len(tags)} tags {[tag.text for tag in tags]}")
            for tag, row in zip(tags, values):
                if not _is_sequence(row):
                    raise ValidationError(
                        f"tag {tag.text!r}: membership row {row!r} is not a sequence")
                if len(row) != len(elements):
                    raise ValidationError(f"tag {tag.text!r}: expected {len(elements)} membership "
                                          f"values for universe {list(elements)}, got {len(row)}")
            rows = [list(map(number_or_none, row)) for row in values]
            for tag, row, numbers in zip(tags, values, rows):
                if None in numbers:
                    j = numbers.index(None)
                    raise ValidationError(f"tag {tag.text!r}: membership {row[j]!r} "
                                          f"for element {elements[j]!r} is not a number")
            values = rows
        del self.__dict__["tags"]  # kept as ranks only, and built again when read
        values = np.asarray(values, dtype=float)
        if (outside := ~((values >= 0.0) & (values <= 1.0))).any():
            i, j = np.argwhere(outside)[0]
            raise ValidationError(f"tag {tags[i].text!r}: membership {float(values[i, j])!r} "
                                  f"for element {elements[j]!r} is outside [0, 1]")
        labels, ranks, order = _rank_matrix(labels)
        if (same := (ranks[1:] == ranks[:-1]).all(axis=1)).any():
            raise ValidationError(f"duplicate parameter tag {tags[order[same.argmax()]].text!r}")
        values = values[order]
        values.flags.writeable = ranks.flags.writeable = False
        self.__dict__.update(values=values, _labels=labels, _ranks=ranks)

    @classmethod
    def _ranked(cls, universe: Universe, labels: tuple[str, ...], ranks: np.ndarray,
                values: np.ndarray) -> "FuzzySoftSet":
        """Hand over a set the package builds: a label table, a rank matrix
        whose rows strictly increase, and a float matrix over ``universe``,
        both frozen and kept as they are; nothing is checked or copied."""
        fss = object.__new__(cls)
        values.flags.writeable = ranks.flags.writeable = False
        fss.__dict__.update(universe=universe, values=values, _labels=labels, _ranks=ranks)
        return fss

    def __getattr__(self, name):
        # A set lacks one attribute, its tags, until they are read.
        if name != "tags" or "_ranks" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        tags = self.__dict__["tags"] = canonical_tags(_label_tuples(self._ranks, self._labels))
        return tags

    def _tag(self, i: int) -> ParamTag:
        """The tag of row ``i``, built alone (for a message)."""
        return canonical_tags(_label_tuples(self._ranks[i:i + 1], self._labels))[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySoftSet):
            return NotImplemented
        return (self.universe == other.universe and self._labels == other._labels
                and np.array_equal(self._ranks, other._ranks)
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.universe, self._labels, self._ranks.shape, self._ranks.tobytes()))

    @property
    def assignments(self) -> tuple[tuple[ParamTag, FuzzySet], ...]:
        """(tag, approximation) pairs in tag order."""
        return tuple(zip(self.tags, tau_family(self)))

    def approximation(self, tag: ParamTag | str) -> FuzzySet:
        if not isinstance(tag, ParamTag):
            tag = ParamTag.parse(tag)
        i = bisect_left(self.tags, tag)
        if i == len(self.tags) or self.tags[i] != tag:
            raise ValidationError(f"no assignment for tag {tag.text!r}")
        return FuzzySet(self.universe, tuple(self.values[i].tolist()))

    __getitem__ = approximation

    def __len__(self) -> int:
        return len(self._ranks)


def _rank_matrix(labels: list[tuple[str, ...]]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The label table of tags with these label tuples, their rank matrix
    in sorted order, and the order that maps its rows back (row k is the
    tag of ``labels[order[k]]``): the one place given tags are sorted.

    All labels are sorted once, stably (a document's keys often arrive in
    runs that are in order already), and a label's rank is the number of
    distinct labels before it in that order."""
    flat = np.fromiter(chain.from_iterable(labels), dtype=object)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    new = np.ones(len(flat), dtype=bool)  # each label that differs from the one before
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    sorted_ranks = np.cumsum(new, dtype=np.int32) - 1
    table = tuple(flat[new].tolist())
    if len(flat) == len(labels):  # every tag has one label, so tags sort as labels do
        return table, sorted_ranks[:, None], order
    flat_ranks = np.empty(len(flat), dtype=np.int32)
    flat_ranks[order] = sorted_ranks
    lengths = np.fromiter(map(len, labels), dtype=np.intp, count=len(labels))
    ranks = np.full((len(labels), lengths.max()), -1, dtype=np.int32)
    ranks[np.arange(ranks.shape[1]) < lengths[:, None]] = flat_ranks
    order = np.lexsort(ranks.T[::-1])
    return table, ranks[order], order


def _label_tuples(keys: np.ndarray, labels: Sequence[str]) -> list[tuple[str, ...]]:
    """The label tuple of each row of ranks ``keys`` (padded with -1), built
    a column at a time: one ``zip`` for each number of labels."""
    names, lengths = np.array(labels, dtype=object), np.count_nonzero(keys >= 0, axis=1)
    tuples = np.empty(len(keys), dtype=object)
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == length)
        group = zip(*names[keys[rows, :length]].T.tolist())
        if len(rows) == len(keys):
            return list(group)
        tuples[rows] = np.fromiter(group, dtype=object, count=len(rows))
    return tuples.tolist()


def make_fuzzy_soft_set(
    universe: Universe | Sequence[str],
    assignments: Mapping[ParamTag | str, Sequence[float]]
    | Iterable[tuple[ParamTag | str, Sequence[float]]],
) -> FuzzySoftSet:
    """Validated construction from tag -> membership-sequence pairs.

    Tags may be given as ``ParamTag`` or as text (``"a1"`` or ``"a1*b1"``)
    that ``ParamTag.parse`` reads.  Every membership sequence is read as a
    ``FuzzySoftSet`` row: any sequence but a mapping, text or bytes, of
    real numbers (not ``bool``, text, bytes, complex, dates, ``None`` or
    arrays with dimensions) in [0, 1], one per universe element; errors
    are ``ValidationError``s that name the offending tag and element.
    """
    universe = Universe(universe)
    try:
        items = list(assignments.items() if isinstance(assignments, Mapping) else assignments)
        tags = tuple(tag if isinstance(tag, ParamTag) else ParamTag.parse(tag) for tag, _ in items)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"assignments must be (tag, memberships) pairs: {err}") from None
    return FuzzySoftSet(universe, tags, [values for _, values in items])


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
    lift, as ``lift_negation`` takes them.  A uniform negation reads no
    tag.  A family looks up every tag's scalar (``scalar_for``) before
    anything is evaluated, so a product tag with no entry and no default
    raises ``MissingLabelError`` first.  Each distinct
    scalar is then called once, on all of its rows together, in the order
    of its first tag, and its outputs are codomain-checked with
    near-boundary clamping, as in ``apply_connective``; a ``CodomainError``
    names the tag and element, and its ``index`` is in that call's output.
    The result has the universe and the label ranks of ``fss``.
    """
    lifted = lift_negation(negation)
    if lifted.scalar is not None:
        scalars = [lifted.scalar] * len(fss)
    else:
        scalars = list(map(lifted.scalar_for, fss.tags))
    values = np.empty_like(fss.values)
    with np.errstate(all="ignore"):
        for scalar in dict(zip(map(id, scalars), scalars)).values():
            rows = list(compress(count(), map(is_, scalars, repeat(scalar))))
            take = rows if len(rows) < len(scalars) else slice(None)
            part = fss.values[take]
            raw = np.broadcast_to(np.asarray(scalar(part), dtype=float), part.shape)

            def where(at: tuple[int, ...]) -> str:
                return (f"negation {scalar.name!r} under tag {fss._tag(rows[at[0]]).text!r} "
                        f"at element {fss.universe.elements[at[1]]!r}")

            values[take] = into_unit_interval(raw, where)
    return FuzzySoftSet._ranked(fss.universe, fss._labels, fss._ranks, values)


def complement_fss(fss: FuzzySoftSet) -> FuzzySoftSet:
    """Complement every approximation, each membership m becoming 1 - m:
    ``negate_fss`` under ``standard-negation``, with the same tags.

    1 - (1 - m) reproduces m exactly only when 1 - m is itself
    representable (true for all multiples of 2**-53, e.g. anything drawn
    from a standard uniform generator).
    """
    return negate_fss(builtin("standard-negation"), fss)


def _run_kernel(scalar: ScalarConnective, f1: FuzzySoftSet, f2: FuzzySoftSet,
                out: np.ndarray, rows: range) -> tuple[int, Exception] | None:
    """Write the checked values of ``rows`` of ``f1`` against all of ``f2``
    into their pairs' rows of ``out``; return the first fault as (pair
    index, error), with the pairs before it written, or None.  A block of
    more than one row that raises is run again one row at a time, so an
    error is the one its row raises alone."""
    p2, elements = len(f2), f1.universe.elements
    start = rows.start * p2

    def where(index: tuple[int, ...]) -> str:
        i, j = divmod(start + index[0], p2)
        tag = combine_tags(f1._tag(i), f2._tag(j))
        return (f"connective {scalar.name!r} under tag {tag.text!r} "
                f"at element {elements[index[1]]!r}")

    try:
        raw = np.asarray(scalar(f1.values[rows.start:rows.stop, None], f2.values), dtype=float)
        raw = np.broadcast_to(raw, (len(rows), p2, len(elements))).reshape(-1, len(elements))
    except Exception as err:
        if len(rows) == 1:
            return start, err
    else:
        try:
            out[start:rows.stop * p2] = into_unit_interval(raw, where)
            return None
        except CodomainError as err:
            if len(rows) == 1:
                checked = err.index[0]
                np.clip(raw[:checked], 0.0, 1.0, out=out[start:start + checked])
                return start + checked, err
    faults = (_run_kernel(scalar, f1, f2, out, range(i, i + 1)) for i in rows)
    return next(filter(None, faults), None)


def apply_connective(
    conn: LiftedConnective | ScalarConnective,
    f1: FuzzySoftSet,
    f2: FuzzySoftSet,
) -> FuzzySoftSet:
    """Combine two fuzzy soft sets pointwise under a binary connective.

    For every tag pair (a, b) the result assigns, under the canonical
    product tag, the vector ``scalar(m1(u), m2(u))`` per element.  The
    scalar is called on blocks of rows of ``f1``, as an (R, 1, U) array of
    about ``APPLY_BLOCK_VALUES`` // (P2 * U) rows, against the (P2, U)
    matrix of ``f2``, so it must broadcast elementwise; its outputs are
    codomain-checked with near-boundary clamping, a block at a time, and
    written into one (P1 * P2, U) matrix, pair (i, j) in row i * P2 + j.
    Each pair's product tag is a row of label ranks (see ``FuzzySoftSet``),
    and one stable sort of the rows gives the result's tag order; the
    first pair of each run of equal rows is the one kept.
    Two pairs collapsing to one canonical tag are merged into the kept
    pair's row when every element is within ``CLAMP_TOLERANCE``
    (absolute) of it, otherwise ``TagCollisionError`` is raised.  More
    than ``MAX_PAIRS`` tag pairs (P1 * P2) or ``MAX_ARRAY_VALUES`` values
    (P1 * P2 * U) raise ``ProductSizeError`` before anything is allocated
    or evaluated.  A scalar that passes ``check_tnorm_axioms`` at its
    tolerance (1e-9 by default) can still collide here: the Hamacher
    product with an epsilon in its divisor deviates from associativity by
    up to 2.5e-11, so T(S, T(S, S)) raises ``TagCollisionError``.

    Faults are reported in pair order.  A block that raises is run again
    one row at a time, and an error the scalar raises on row i is a fault
    at pair (i, 0); an out-of-range output (``CodomainError``, whose
    ``index`` is (pair in the row, element)) is a fault at its pair.  The
    first fault is raised only if no earlier pair collides; otherwise the
    earliest colliding pair's ``TagCollisionError`` is.
    """
    if isinstance(conn, LiftedConnective):
        conn = check_arity(conn, 2).scalar
    scalar = require_arity(conn, 2)
    if f1.universe != f2.universe:
        raise UniverseMismatchError(
            "operands are defined over different universes "
            f"({list(f1.universe.elements)} vs {list(f2.universe.elements)})"
        )
    width = len(f1.universe)
    p1, p2 = len(f1), len(f2)
    if p1 * p2 > MAX_PAIRS:
        raise ProductSizeError(
            f"the product of {p1} by {p2} tags makes {p1 * p2} tag pairs, "
            f"more than MAX_PAIRS = {MAX_PAIRS}"
        )
    size = p1 * p2 * width
    if size > MAX_ARRAY_VALUES:
        raise ProductSizeError(
            f"the product of {p1} by {p2} tags over {width} "
            f"elements needs {size} values, more than MAX_ARRAY_VALUES = {MAX_ARRAY_VALUES}"
        )
    pair_values = np.empty((p1 * p2, width))  # pair (i, j) in row i * p2 + j
    step, fault = max(1, APPLY_BLOCK_VALUES // (p2 * width)), None
    with np.errstate(all="ignore"):
        for i in range(0, p1, step):
            fault = _run_kernel(scalar, f1, f2, pair_values, range(i, min(i + step, p1)))
            if fault is not None:
                break
    labels = tuple(sorted({*f1._labels, *f2._labels}))
    rank, pad = dict(zip(labels, count())), len(labels)
    # Each operand's ranks in the merged table; its padding -1 takes the
    # remap's last entry, pad, so that it sorts last.
    first, second = (np.array([*map(rank.__getitem__, f._labels), pad], dtype=np.int32)[f._ranks]
                     for f in (f1, f2))
    # Row i * p2 + j: pair (i, j)'s label ranks, sorted, the padding last and then -1.
    keys = np.empty((p1, p2, first.shape[1] + second.shape[1]), dtype=np.int32)
    keys[:, :, :first.shape[1]] = first[:, None]
    keys[:, :, first.shape[1]:] = second
    keys = np.sort(keys.reshape(p1 * p2, -1), axis=1)
    keys[keys == pad] = -1
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    kept = np.ones(len(order), dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=kept[1:])
    # The kept pair of each pair's key, and the other pairs before the fault, in order.
    first_of = np.empty_like(order)
    first_of[order] = order[kept][np.cumsum(kept) - 1]
    limit = p1 * p2 if fault is None else fault[0]
    repeats = np.flatnonzero(first_of[:limit] != np.arange(limit))
    chunk = max(1, APPLY_BLOCK_VALUES // width)
    for k in range(0, len(repeats), chunk):
        pairs = repeats[k:k + chunk]
        apart = pair_values[pairs]
        apart -= pair_values[first_of[pairs]]
        apart = np.abs(apart, out=apart).max(axis=1) > CLAMP_TOLERANCE
        if apart.any():
            i, j = divmod(int(pairs[apart.argmax()]), p2)
            tag_a, tag_b = f1._tag(i), f2._tag(j)
            raise TagCollisionError(
                f"tag pairs ({tag_a.text}, {tag_b.text}) collide on canonical tag "
                f"{combine_tags(tag_a, tag_b).text!r} with different membership vectors"
            )
    if fault is not None:
        raise fault[1]
    return FuzzySoftSet._ranked(f1.universe, labels, keys[kept], pair_values[order[kept]])


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
