"""Canonical parameter tags and tagged membership values.

A parameter tag is a multiset of atomic labels, kept in sorted order so
that products of parameter sets taken in any order or grouping compare
equal: combining ``{a}`` with ``{b}`` gives the same tag as combining
``{b}`` with ``{a}``, and combining is associative as literal equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .record import Record

#: Separator used in the textual form of a product tag; banned from labels.
RESERVED_SEPARATOR = "*"

#: Types that float() or numpy would take as a membership value, though
#: they are not real numbers.
NOT_NUMBERS = (str, bytes, bool, np.bool_, complex, np.complexfloating,
               np.datetime64, np.timedelta64, type(None))


def number_or_none(value, convert=float):
    """``convert(value)``, or None for one of the ``NOT_NUMBERS`` or a refused value."""
    if isinstance(value, NOT_NUMBERS):
        return None
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        return None


@dataclass(frozen=True, order=True, slots=True)
class ParamTag:
    """A canonical multiset of atomic parameter labels.

    Duplicates are kept: combining ``{a}`` with ``{a}`` yields ``{a, a}``.
    Tags sort lexicographically by their label tuple, which fixes the
    deterministic ordering used everywhere tags are enumerated.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = self.labels
        if isinstance(labels, str):
            labels = (labels,)
        labels = tuple(labels)
        if not labels:
            raise ValidationError("a parameter tag needs at least one label")
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValidationError(f"parameter label must be a non-empty string, got {label!r}")
            if RESERVED_SEPARATOR in label:
                raise ValidationError(
                    f"parameter label {label!r} contains the reserved separator "
                    f"{RESERVED_SEPARATOR!r}"
                )
        object.__setattr__(self, "labels", tuple(sorted(labels)))

    @classmethod
    def parse(cls, text: str) -> "ParamTag":
        """Parse the textual form, e.g. ``"b1*a1"`` -> tag ``a1*b1``; text
        that is not a valid tag, or a value that is not text, raises
        ``ValidationError``."""
        return cls(tuple(text.split(RESERVED_SEPARATOR)) if isinstance(text, str) else (text,))

    @property
    def text(self) -> str:
        """Canonical textual form: labels sorted, joined with ``*``."""
        return RESERVED_SEPARATOR.join(self.labels)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"ParamTag({self.text!r})"


def canonical_tags(label_tuples: Iterable[tuple[str, ...]]) -> tuple[ParamTag, ...]:
    """One tag per label tuple, each already valid and sorted, unchecked.

    This is the one builder that skips ``__post_init__``, for labels taken
    from valid tags: the sorted labels of valid tags make a valid tag.
    ``combine_tags`` builds through it; text from outside, such as a
    document key or a negation family key, is read with ``ParamTag.parse``.
    """
    new, set_labels = object.__new__, ParamTag.labels.__set__
    tags = []
    for labels in label_tuples:
        tag = new(ParamTag)
        set_labels(tag, labels)
        tags.append(tag)
    return tuple(tags)


def combine_tags(t1: ParamTag, t2: ParamTag) -> ParamTag:
    """Multiset union of two tags, re-canonicalized.

    Commutative and associative as literal equality, so iterated products
    of parameter sets are indistinguishable regardless of order/grouping.
    """
    return canonical_tags((tuple(sorted(t1.labels + t2.labels)),))[0]


@total_ordering
class TaggedMembership(Record):
    """A parameter tag paired with a membership value in [0, 1].

    Ordering is defined only between values carrying the same tag;
    comparing across distinct tags raises ``ValidationError``.
    """

    tag: ParamTag
    value: float

    def __post_init__(self):
        value = number_or_none(self.value)
        if value is None:
            raise ValidationError(f"membership value {self.value!r} for tag "
                                  f"{self.tag.text!r} is not a number")
        if not 0.0 <= value <= 1.0:
            raise ValidationError(
                f"membership value {value!r} for tag {self.tag.text!r} is outside [0, 1]"
            )
        object.__setattr__(self, "value", value)

    def _require_same_tag(self, other: "TaggedMembership") -> None:
        if not isinstance(other, TaggedMembership):
            raise TypeError(f"cannot compare TaggedMembership with {type(other).__name__}")
        if self.tag != other.tag:
            raise ValidationError(
                f"ordering is undefined between distinct tags "
                f"{self.tag.text!r} and {other.tag.text!r}"
            )

    def __lt__(self, other: "TaggedMembership") -> bool:
        self._require_same_tag(other)
        return self.value < other.value

    def __repr__(self) -> str:
        return f"({self.tag.text}, {self.value!r})"
