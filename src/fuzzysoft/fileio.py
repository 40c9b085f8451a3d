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
repeat a key.  Saving is deterministic, so load(save(s)) == s bit-exactly.
``save_fss`` writes exactly the bytes of ``json.dump(doc, indent=2)``
followed by a newline: two-space indent, one universe element or
membership per line, strings with ASCII ``\\uXXXX`` escapes (as
``ensure_ascii`` gives), values as the shortest decimal that round-trips
(``float.__repr__``, so ``-0.0`` stays ``-0.0``), the universe in stored
order, rows in sorted tag order, and a trailing newline.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import DocumentError, ValidationError
from .sets import FuzzySoftSet, Universe
from .tags import ParamTag


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

    Raises ``DocumentError`` with the JSON path of the offending field.
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
    elements_seen: set[str] = set()
    for index, element in enumerate(raw_universe):
        if not isinstance(element, str) or not element:
            raise DocumentError(
                f"universe element must be a non-empty string, got {element!r}",
                json_path=f"universe[{index}]",
            )
        if element in elements_seen:
            raise DocumentError(f"duplicate universe element {element!r}",
                                json_path=f"universe[{index}]")
        elements_seen.add(element)
    universe = Universe(tuple(raw_universe))

    raw_parameters = doc["parameters"]
    if not isinstance(raw_parameters, dict) or not raw_parameters:
        raise DocumentError("'parameters' must be a non-empty object",
                            json_path="parameters")
    objects = [("", doc), ("parameters.", raw_parameters)]
    objects += [(f"parameters.{key}.", value) for key, value in raw_parameters.items()]
    for path, obj in objects:
        if isinstance(obj, _RepeatedKey):
            raise DocumentError(f"duplicate key {obj.key!r}", json_path=path + obj.key)
    rows: list[list[float]] = []
    seen: dict[ParamTag, str] = {}
    for key, mapping in raw_parameters.items():
        path = f"parameters.{key}"
        try:
            tag = ParamTag.parse(key)
        except ValidationError as err:
            raise DocumentError(f"bad parameter tag {key!r}: {err}", json_path=path) from None
        if tag in seen:
            raise DocumentError(
                f"parameter keys {seen[tag]!r} and {key!r} are the same canonical tag "
                f"{tag.text!r}",
                json_path=path,
            )
        seen[tag] = key
        if not isinstance(mapping, dict):
            raise DocumentError("parameter value must be an object of memberships",
                                json_path=path)
        missing = [e for e in universe.elements if e not in mapping]
        if missing:
            raise DocumentError(
                f"missing membership for element(s) {missing} (no implicit zeros)",
                json_path=path,
            )
        extra = sorted(set(mapping) - set(universe.elements))
        if extra:
            raise DocumentError(f"element {extra[0]!r} is not in the universe",
                                json_path=f"{path}.{extra[0]}")
        for element in universe.elements:
            value = mapping[element]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DocumentError(
                    f"membership must be a number, got {value!r}",
                    json_path=f"{path}.{element}",
                )
            if not 0 <= value <= 1:  # exact, even for ints too large for a float
                raise DocumentError(
                    f"membership {value!r} is outside [0, 1]",
                    json_path=f"{path}.{element}",
                )
        rows.append([mapping[element] for element in universe.elements])
    return FuzzySoftSet(universe, tuple(seen), rows)


def load_fss(path: str | Path) -> FuzzySoftSet:
    """Read and validate a fuzzy soft set document from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_decode_object)
    except RecursionError:
        raise DocumentError(f"{path} is not valid JSON: nesting too deep") from None
    except ValueError as err:  # JSONDecodeError, or an integer past the digit limit
        raise DocumentError(f"{path} is not valid JSON: {err}") from None
    return document_to_fss(doc, source=str(path))


def save_fss(fss: FuzzySoftSet, path: str | Path) -> None:
    """Write a fuzzy soft set document, streaming one tag row at a time.

    The bytes are those of ``json.dump(fss_to_document(fss), handle,
    indent=2)`` plus a newline: strings go through the stdlib's own ASCII
    quoter and values through ``float.__repr__``, as ``json`` does for
    finite floats (the set invariant rules out NaN and infinities).
    """
    path = Path(path)
    keys = [encode_basestring_ascii(element) for element in fss.universe.elements]
    prefixes = [",\n      " + key + ": " for key in keys]
    prefixes[0] = prefixes[0][1:]
    with path.open("w", encoding="utf-8") as handle:
        handle.write('{\n  "universe": [\n    ' + ",\n    ".join(keys)
                     + '\n  ],\n  "parameters": {')
        separator = "\n    "
        for tag, row in zip(fss.tags, fss.values):
            handle.write(separator + encode_basestring_ascii(tag.text) + ": {"
                         + "".join(map(str.__add__, prefixes,
                                       map(float.__repr__, row.tolist())))
                         + "\n    }")
            separator = ",\n    "
        handle.write("\n  }\n}\n")
