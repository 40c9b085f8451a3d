"""Loading and saving fuzzy soft sets as JSON documents.

Document shape::

    {
      "universe": ["u1", "u2"],
      "parameters": {
        "a1":    {"u1": 0.3, "u2": 0.7},
        "a1*b1": {"u1": 0.5, "u2": 0.2}
      }
    }

A parameter key is the canonical text of its tag: atomic labels joined
with ``*`` in sorted order (non-canonical key order is accepted on load
and re-canonicalized).  Every universe element must appear under every
parameter -- there are no implicit zero memberships, and no object may
repeat a key.  ``document_to_fss`` reports a document's first fault with
its JSON path.  ``save_fss`` writes one exact byte layout, which it
states, so load(save(s)) == s bit-exactly.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import DocumentError, ValidationError
from .sets import FuzzySoftSet, Universe, _rank_matrix
from .tags import RESERVED_SEPARATOR, read_tag_text


#: Values per block of ``save_fss``: one block's distinct strings, indices
#: and text layout stay well under a MiB.
SAVE_BLOCK_VALUES = 4096

#: Largest document file ``load_fss`` reads: a load raises the peak RSS by up
#: to about 38 bytes a file byte (compact, one int membership a parameter,
#: keys of one to four letters: 37.8 B on 4,194,287 bytes, 2-core Xeon VM,
#: CPython 3.11), so about 152 MiB, less than an apply at
#: ``MAX_ARRAY_VALUES`` values takes (about 270 MiB).
MAX_DOCUMENT_BYTES = 2**22


class _RepeatedKey(dict):
    """A decoded JSON object that names ``key`` more than once."""


def _decode_object(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that keeps the first repeated key of an object
    for ``document_to_fss`` to report with its JSON path."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _RepeatedKey(obj)
        obj.key = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
    return obj


def fss_to_document(fss: FuzzySoftSet) -> dict:
    """Plain-dict form of a fuzzy soft set, with deterministic ordering."""
    elements = fss.universe.elements
    parameters = {tag.text: dict(zip(elements, row))
                  for tag, row in zip(fss.tags, fss.values.tolist())}
    return {"universe": list(elements), "parameters": parameters}


def document_to_fss(doc, source: str = "document") -> FuzzySoftSet:
    """Validate a decoded JSON document and build the fuzzy soft set.

    The first fault raises a ``DocumentError`` with its JSON path, in the
    order of a field-by-field walk: the top-level keys, the universe
    element by element, repeated keys, then each parameter in document
    order (its tag, its key set, then each membership's type and range).
    A parameter is checked as a whole row: it is walked value by value
    only when its values are not all floats, and the float rows are
    range-checked once, stacked.  Before a later row's fault is raised
    the rows ahead of it get that stacked check, so theirs comes first.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"{source} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {"universe", "parameters"})
    if unknown:
        raise DocumentError(f"unknown top-level keys {unknown}", json_path=unknown[0])
    if "universe" not in doc:
        raise DocumentError("missing required key 'universe'", json_path="universe")
    if "parameters" not in doc:
        raise DocumentError("missing required key 'parameters'", json_path="parameters")

    raw_universe = doc["universe"]
    if not isinstance(raw_universe, list) or not raw_universe:
        raise DocumentError("'universe' must be a non-empty array of strings",
                            json_path="universe")
    try:
        universe = Universe(tuple(raw_universe))
    except ValidationError as err:
        raise DocumentError(str(err), json_path=f"universe[{err.index}]") from None
    elements = universe.elements
    element_set = set(elements)

    raw_parameters = doc["parameters"]
    if not isinstance(raw_parameters, dict) or not raw_parameters:
        raise DocumentError("'parameters' must be a non-empty object",
                            json_path="parameters")
    repeating = ((f"parameters.{key}.", value) for key, value in raw_parameters.items()
                 if isinstance(value, _RepeatedKey))  # a path only for an object that repeats
    for path, obj in [("", doc), ("parameters.", raw_parameters), *repeating]:
        if isinstance(obj, _RepeatedKey):
            raise DocumentError(f"duplicate key {obj.key!r}", json_path=path + obj.key)
    rows: list[list[float]] = []
    seen: dict[tuple[str, ...], str] = {}  # each key's sorted labels, and the key
    fault = None
    try:
        for key, mapping in raw_parameters.items():
            try:
                labels = read_tag_text(key)
            except ValidationError as err:
                raise DocumentError(f"bad parameter tag {key!r}: {err}",
                                    json_path=f"parameters.{key}") from None
            if (first := seen.setdefault(labels, key)) != key:
                raise DocumentError(
                    f"parameter keys {first!r} and {key!r} are the same canonical tag "
                    f"{RESERVED_SEPARATOR.join(labels)!r}",
                    json_path=f"parameters.{key}",
                )
            if not isinstance(mapping, dict):
                raise DocumentError("parameter value must be an object of memberships",
                                    json_path=f"parameters.{key}")
            if mapping.keys() != element_set:
                missing = [e for e in elements if e not in mapping]
                if missing:
                    raise DocumentError(
                        f"missing membership for element(s) {missing} (no implicit zeros)",
                        json_path=f"parameters.{key}",
                    )
                extra = min(mapping.keys() - element_set)
                raise DocumentError(f"element {extra!r} is not in the universe",
                                    json_path=f"parameters.{key}.{extra}")
            row = list(map(mapping.__getitem__, elements))
            if set(map(type, row)) != {float}:
                for element, value in zip(elements, row):
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise DocumentError(f"membership must be a number, got {value!r}",
                                            json_path=f"parameters.{key}.{element}")
                    if not 0 <= value <= 1:  # exact, even for ints too large for a float
                        raise DocumentError(f"membership {value!r} is outside [0, 1]",
                                            json_path=f"parameters.{key}.{element}")
            rows.append(row)
    except DocumentError as err:
        fault = err
    # Float rows were not range-checked one by one: any fault of theirs
    # comes before the fault of a later row.
    matrix = np.array(rows, dtype=float)
    if (outside := ~((matrix >= 0.0) & (matrix <= 1.0))).any():
        i, j = np.argwhere(outside)[0]
        raise DocumentError(f"membership {rows[i][j]!r} is outside [0, 1]",
                            json_path=f"parameters.{list(seen.values())[i]}.{elements[j]}")
    if fault is not None:
        raise fault
    labels, ranks, order = _rank_matrix(list(seen))
    return FuzzySoftSet._ranked(universe, labels, ranks, matrix[order])


def load_fss(path: str | Path) -> FuzzySoftSet:
    """Read and validate a JSON fuzzy soft set file of at most ``MAX_DOCUMENT_BYTES``.

    A regular file is refused on its size before anything is read; any
    other file (a FIFO, a device) is read up to one byte past the cap."""
    path = Path(path)
    try:
        if (size := path.stat().st_size) > MAX_DOCUMENT_BYTES:
            raise DocumentError(f"{path} is {size} bytes, more than "
                                f"MAX_DOCUMENT_BYTES = {MAX_DOCUMENT_BYTES}")
        with path.open("rb") as handle:
            data = handle.read(MAX_DOCUMENT_BYTES + 1)
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from None
    if len(data) > MAX_DOCUMENT_BYTES:
        raise DocumentError(f"{path} holds more than "
                            f"MAX_DOCUMENT_BYTES = {MAX_DOCUMENT_BYTES} bytes")
    try:
        # Drop the bytes once decoded and the text once parsed: neither is held
        # while the document is built and validated.
        text = data.decode("utf-8")
        del data
        doc = json.loads(text, object_pairs_hook=_decode_object)
        del text
    except RecursionError:
        raise DocumentError(f"{path} is not valid JSON: nesting too deep") from None
    except ValueError as err:  # not UTF-8, JSONDecodeError, or an integer past the digit limit
        raise DocumentError(f"{path} is not valid JSON: {err}") from None
    return document_to_fss(doc, source=str(path))


def _reprs(block: np.ndarray, table: list) -> np.ndarray:
    """``float.__repr__`` of every value of ``block``, as an object array of
    its shape, made once per distinct bit pattern.

    ``table`` holds at most one entry, the previous block's (sorted bits,
    texts): a pattern found there reuses its string, and only the others
    are repr-ed.  The entry is taken out and dropped before those are made,
    and this block's goes in its place, so the strings of one block at a
    time are alive.
    """
    distinct, inverse = np.unique(block.reshape(-1).view(np.uint64), return_inverse=True)
    bits, texts = table.pop() if table else (distinct[:0], np.empty(0, dtype=object))
    at = np.searchsorted(bits, distinct)
    found = at < len(bits)
    found[found] = bits[at[found]] == distinct[found]
    text = np.empty(len(distinct), dtype=object)
    text[found] = texts[at[found]]
    del bits, texts
    missing = np.flatnonzero(~found)
    text[missing] = np.fromiter(map(float.__repr__, distinct[missing].view(np.float64).tolist()),
                                dtype=object, count=len(missing))
    table.append((distinct, text))
    return text[inverse.reshape(block.shape)]


def save_fss(fss: FuzzySoftSet, path: str | Path) -> None:
    """Write a fuzzy soft set document, one block of rows at a time.

    The bytes are those of ``json.dump(fss_to_document(fss), handle,
    indent=2)`` plus a newline: a two-space indent, one universe element
    or membership per line, strings through the stdlib's own ASCII quoter
    (``\\uXXXX`` escapes, as ``ensure_ascii`` gives), values through
    ``float.__repr__``, the shortest decimal that round-trips, as ``json``
    writes finite floats (the set invariant rules out NaN and infinities;
    ``-0.0`` stays ``-0.0``), the universe in stored order and rows in
    sorted tag order.

    A block is ``max(1, SAVE_BLOCK_VALUES // U)`` rows.  Its values are
    deduplicated by bit pattern (so ``-0.0`` and ``0.0`` stay apart) and
    each distinct one is repr-ed once, unless the previous block had it:
    then its text is reused.  A union or intersection only picks input
    values, so most of its result repeats, within and across blocks.  The
    previous block's texts are dropped before new ones are made, so a save
    still holds at most one block's strings.  The block's strings, the
    element prefixes and the tag heads are laid out in one object array
    and joined into one write.  A head is built from the set's label table
    and rank matrix, each label quoted once per save, so a save builds no
    ``ParamTag`` and joins no tag text.  Working in blocks keeps the extra
    memory to one block's strings and indices whatever the set's size; a
    whole-matrix dedupe held them all at once and raised the peak RSS of
    a save by several MiB.
    """
    path = Path(path)
    values = fss.values
    elements = fss.universe.elements
    prefixes = [",\n      " + encode_basestring_ascii(element) + ": " for element in elements]
    prefixes[0] = prefixes[0][1:]
    # A tag's head is its labels, quoted and unquoted again, with "*"
    # between them: escaping works per character and never escapes "*",
    # so these are the bytes of quoting the tag's text.  Rank -1 (padding)
    # reads the last entry, "", and its separator is "" too.
    names = np.array([*(encode_basestring_ascii(label)[1:-1] for label in fss._labels), ""],
                     dtype=object)
    separators = np.array(["", RESERVED_SEPARATOR], dtype=object)
    head = 2 * fss._ranks.shape[1] + 1  # the opening, the labels and separators, the colon
    rows = max(1, SAVE_BLOCK_VALUES // len(elements))
    table: list = []  # the previous block's value texts, for _reprs
    with path.open("w", encoding="utf-8") as handle:
        handle.write('{\n  "universe": [\n    '
                     + ",\n    ".join(map(encode_basestring_ascii, elements))
                     + '\n  ],\n  "parameters": {')
        for start in range(0, len(values), rows):
            block = values[start:start + rows]
            # A block as text: each row's tag head, then the prefix and
            # value of each element, then the closing brace.  A fresh
            # layout lets the last block's strings go before new ones come.
            ranks = fss._ranks[start:start + rows]
            layout = np.empty((len(block), head + 2 * len(elements) + 1), dtype=object)
            layout[:, 0] = ',\n    "'
            layout[:, 1:head - 1:2] = names[ranks]
            layout[:, 2:head - 1:2] = separators[(ranks[:, 1:] >= 0).view(np.int8)]
            layout[:, head - 1] = '": {'
            layout[:, head:-1:2] = prefixes
            layout[:, head + 1:-1:2] = _reprs(block, table)
            layout[:, -1] = "\n    }"
            if start == 0:
                layout[0, 0] = layout[0, 0][1:]
            handle.write("".join(layout.reshape(-1).tolist()))
        handle.write("\n  }\n}\n")
