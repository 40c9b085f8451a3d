import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from fuzzysoft import (
    DocumentError,
    FuzzySoftError,
    FuzzySoftSet,
    ParamTag,
    TagCollisionError,
    Universe,
    ValidationError,
    document_to_fss,
    fss_to_document,
    intersect_fss,
    load_fss,
    make_fuzzy_soft_set,
    save_fss,
    union_fss,
)
from fuzzysoft import fileio
from fuzzysoft.fileio import MAX_DOCUMENT_BYTES, SAVE_BLOCK_VALUES, _RepeatedKey, _decode_object


def test_load_simple_document(tmp_path):
    path = tmp_path / "s.fss"
    path.write_text(json.dumps({
        "universe": ["u1", "u2"],
        "parameters": {"a1": {"u1": 0.3, "u2": 0.7}},
    }))
    s = load_fss(path)
    assert s["a1"].memberships == (0.3, 0.7)


def test_out_of_range_membership_has_json_path(tmp_path):
    path = tmp_path / "bad.fss"
    path.write_text(json.dumps({
        "universe": ["u1", "u2"],
        "parameters": {"a1": {"u1": 0.3, "u2": 1.2}},
    }))
    with pytest.raises(DocumentError) as err:
        load_fss(path)
    assert err.value.json_path == "parameters.a1.u2"


def test_tag_is_canonicalized_on_load_and_save(tmp_path):
    path = tmp_path / "s.fss"
    path.write_text(json.dumps({
        "universe": ["u"],
        "parameters": {"b1*a1": {"u": 0.5}},
    }))
    s = load_fss(path)
    assert s.tags[0].text == "a1*b1"
    out = tmp_path / "out.fss"
    save_fss(s, out)
    assert '"a1*b1"' in out.read_text()


def test_duplicate_canonical_tags_rejected():
    doc = {"universe": ["u"], "parameters": {"a*b": {"u": 0.5}, "b*a": {"u": 0.5}}}
    with pytest.raises(DocumentError) as err:
        document_to_fss(doc)
    assert "canonical" in str(err.value)


def test_missing_element_is_an_error_no_implicit_zeros():
    doc = {"universe": ["u1", "u2"], "parameters": {"a1": {"u1": 0.3}}}
    with pytest.raises(DocumentError) as err:
        document_to_fss(doc)
    assert "u2" in str(err.value)
    assert "implicit" in str(err.value)


def test_extra_element_is_an_error():
    doc = {"universe": ["u1"], "parameters": {"a1": {"u1": 0.3, "zz": 0.1}}}
    with pytest.raises(DocumentError) as err:
        document_to_fss(doc)
    assert err.value.json_path == "parameters.a1.zz"


def test_duplicate_universe_element_rejected_at_first_repeat():
    doc = {"universe": ["u1", "u2", "u1", "u2"], "parameters": {"a1": {"u1": 0.3, "u2": 0.7}}}
    with pytest.raises(DocumentError) as err:
        document_to_fss(doc)
    assert err.value.json_path == "universe[2]"
    assert "duplicate universe element 'u1'" in str(err.value)


@pytest.mark.parametrize("universe, index, message", [
    (["u1", 7], 1, "universe element must be a non-empty string, got 7"),
    (["u1", "u2", ""], 2, "universe element must be a non-empty string, got ''"),
    (["u1", None, "u1"], 1, "universe element must be a non-empty string, got None"),
    (["u1", "u2", "u2", 3], 2, "duplicate universe element 'u2'"),
    (["u1", "\udc80"], 1,
     "universe element '\\udc80' is not valid Unicode text (it holds a lone surrogate)"),
])
def test_each_universe_fault_is_the_universes_own_at_its_index(universe, index, message):
    with pytest.raises(ValidationError) as err:
        Universe(tuple(universe))
    assert (str(err.value), err.value.index) == (message, index)
    doc = {"universe": universe, "parameters": {"a1": {"u1": 0.5}}}
    with pytest.raises(DocumentError) as err:
        document_to_fss(doc)
    assert str(err.value) == f"{message} (at universe[{index}])"
    assert err.value.json_path == f"universe[{index}]"


def test_a_key_holding_a_lone_surrogate_is_a_bad_tag_at_its_path(tmp_path):
    # Valid JSON whose key decodes to a string no UTF-8 text can hold.
    path = tmp_path / "bad.fss"
    path.write_text('{"universe": ["u"], "parameters": {"a": {"u": 0.5}, '
                    '"b*\\ud800": {"u": 0.25}}}', encoding="ascii")
    with pytest.raises(DocumentError) as err:
        load_fss(path)
    assert err.value.json_path == "parameters.b*\ud800"
    assert str(err.value) == ("bad parameter tag 'b*\\ud800': parameter label '\\ud800' is not "
                              "valid Unicode text (it holds a lone surrogate) "
                              "(at parameters.b*\ud800)")


def test_non_numeric_membership_rejected():
    doc = {"universe": ["u1"], "parameters": {"a1": {"u1": "high"}}}
    with pytest.raises(DocumentError):
        document_to_fss(doc)
    doc = {"universe": ["u1"], "parameters": {"a1": {"u1": True}}}
    with pytest.raises(DocumentError):
        document_to_fss(doc)


def test_malformed_and_missing_files(tmp_path):
    with pytest.raises(DocumentError):
        load_fss(tmp_path / "absent.fss")
    bad = tmp_path / "bad.fss"
    bad.write_text("{not json")
    with pytest.raises(DocumentError):
        load_fss(bad)
    array = tmp_path / "array.fss"
    array.write_text("[1, 2]")
    with pytest.raises(DocumentError):
        load_fss(array)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_the_byte_cap_holds_for_a_fifo(tmp_path):
    # A FIFO's size is 0, so only the bounded read can stop it.
    fifo = tmp_path / "pipe.fss"
    os.mkfifo(fifo)

    def feed():
        chunk = b" " * 2**16
        try:
            with open(fifo, "wb") as handle:
                for _ in range(3 * MAX_DOCUMENT_BYTES // 2 // len(chunk)):
                    handle.write(chunk)
                handle.write(b"[]")
        except BrokenPipeError:
            pass  # the reader closed its end at the cap

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with pytest.raises(DocumentError, match=f"holds more than MAX_DOCUMENT_BYTES = "
                                            f"{MAX_DOCUMENT_BYTES} bytes"):
        load_fss(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_a_regular_file_is_read_at_its_own_size(tmp_path):
    # Reading up to the cap reserved a MAX_DOCUMENT_BYTES buffer, so every
    # load peaked at 4 MiB by tracemalloc, however small its file.
    path = tmp_path / "s.fss"
    save_fss(make_fuzzy_soft_set(["u1", "u2"], {"a": (0.25, 0.5)}), path)
    load_fss(path)
    tracemalloc.start()
    try:
        load_fss(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**18, f"peak {peak / 2**20:.2f} MiB"


def test_a_file_that_grew_after_its_size_was_read_is_read_whole(tmp_path, monkeypatch):
    path = tmp_path / "s.fss"
    fss = make_fuzzy_soft_set(["u1", "u2"], {"a": (0.25, 0.5)})
    save_fss(fss, path)
    stat = type(path).stat

    def stat_at_ten_bytes(self, **kwargs):
        fields = stat(self, **kwargs)
        return os.stat_result((*fields[:6], 10, *fields[7:]))

    monkeypatch.setattr(type(path), "stat", stat_at_ten_bytes)
    assert path.stat().st_size == 10
    assert load_fss(path) == fss


def test_unknown_top_level_key_rejected():
    with pytest.raises(DocumentError):
        document_to_fss({"universe": ["u"], "parameters": {"a": {"u": 1}}, "extra": 1})


def test_save_is_deterministic_and_sorted(tmp_path):
    s = make_fuzzy_soft_set(
        ["u2", "u1"], {"a2*b1": (0.25, 1.0), "a1*b1": (0.5, 0.125)}
    )
    first = tmp_path / "one.fss"
    second = tmp_path / "two.fss"
    save_fss(s, first)
    save_fss(s, second)
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    # universe keeps stored order; tags are emitted sorted
    assert text.index('"u2"') < text.index('"u1"')
    assert text.index('"a1*b1"') < text.index('"a2*b1"')
    # shortest round-trip decimals
    assert '"u2": 0.5' in text
    assert "0.50000" not in text


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(17)
    for case in range(10):
        size = int(rng.integers(1, 6))
        universe = [f"u{i}" for i in range(size)]
        tags = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
        s = make_fuzzy_soft_set(
            universe, {t: tuple(rng.random(size)) for t in tags}
        )
        path = tmp_path / f"case{case}.fss"
        save_fss(s, path)
        assert load_fss(path) == s


memberships = st.floats(0, 1, allow_nan=False)


@given(st.lists(memberships, min_size=2, max_size=2),
       st.lists(memberships, min_size=2, max_size=2))
def test_document_round_trip_through_json_text(v1, v2):
    s = make_fuzzy_soft_set(["u1", "u2"], {"a": tuple(v1), "b*c": tuple(v2)})
    doc = json.loads(json.dumps(fss_to_document(s)))
    assert document_to_fss(doc) == s


# --- repeated JSON keys ----------------------------------------------------------

@pytest.mark.parametrize("text,path", [
    ('{"universe": ["u1"], "parameters": {"a": {"u1": 0.1}}, "universe": ["u1"]}',
     "universe"),
    ('{"universe": ["u1"], "parameters": {"a": {"u1": 0.1}, "a": {"u1": 0.2}}}',
     "parameters.a"),
    ('{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 0.1, "u2": 0.3, "u1": 0.2}}}',
     "parameters.a.u1"),
], ids=["top-level", "parameter", "element"])
def test_repeated_key_is_rejected_with_its_json_path(tmp_path, text, path):
    doc = tmp_path / "repeated.fss"
    doc.write_text(text)
    with pytest.raises(DocumentError) as err:
        load_fss(doc)
    assert err.value.json_path == path
    assert f"duplicate key {path.rsplit('.', 1)[-1]!r}" in str(err.value)


def test_finding_repeated_keys_builds_nothing_per_parameter():
    # 50,000 one-int parameters: the load peaked at 384 B a parameter while
    # it listed a (path, object) pair for every parameter to find the one
    # that repeats a key, and at 255 B once only such an object gets a path.
    n = 50_000
    doc = _decode(json.dumps({"universe": ["u"],
                              "parameters": {f"k{i}": {"u": 1} for i in range(n)}}))
    tracemalloc.start()
    try:
        fss = document_to_fss(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fss) == n
    assert peak < 320 * n, f"peak {peak / n:.0f} B a parameter"


# --- the block writer against json.dump ------------------------------------------

def _reference_bytes(fss) -> bytes:
    return (json.dumps(fss_to_document(fss), indent=2) + "\n").encode()


edge_values = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 1 - 2**-53])
hostile_chars = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\xe9", "\U0001d11e"]),
    st.characters(blacklist_categories=("Cs",)),
)
names = st.text(hostile_chars, min_size=1, max_size=6)
labels = names.filter(lambda label: "*" not in label)


@st.composite
def fuzzy_soft_sets(draw):
    universe = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    tags = draw(st.lists(st.lists(labels, min_size=1, max_size=3), min_size=1, max_size=5,
                         unique_by=lambda tag: tuple(sorted(tag))))
    rows = draw(st.lists(st.lists(edge_values | memberships, min_size=len(universe),
                                  max_size=len(universe)),
                         min_size=len(tags), max_size=len(tags)))
    return make_fuzzy_soft_set(universe, zip(map(ParamTag, tags), rows))


def _pooled_set(tags: int, width: int, pool, seed: int = 0):
    """A set whose values are drawn from ``pool``, with tags ``t0000``..."""
    values = np.random.default_rng(seed).choice(pool, size=(tags, width))
    return make_fuzzy_soft_set([f"u{k}" for k in range(width)],
                               {f"t{i:04d}": row for i, row in enumerate(values.tolist())})


@given(fuzzy_soft_sets())
@example(make_fuzzy_soft_set(["u"], {"a": (0.5,)}))
@example(make_fuzzy_soft_set(['q"\\\x01\xe9\U0001d11e', "u"],
                             {"b\x1f*\u2028": (5e-324, 1 - 2**-53), "a": (-0.0, 1.0)}))
# heavy repeats: every value from a pool of two or three
@example(_pooled_set(40, 7, [0.25, 0.75]))
@example(_pooled_set(40, 7, [0.0, 0.1, 1.0]))
# -0.0 and 0.0 in one block keep their own text
@example(make_fuzzy_soft_set(["u1", "u2", "u3"], {"a": (-0.0, 0.0, -0.0), "b": (0.0, 0.0, -0.0)}))
# a single distinct value
@example(_pooled_set(5, 4, [0.3]))
# rows spanning several blocks, the last one short
@example(_pooled_set(2 * (SAVE_BLOCK_VALUES // 3) + 5, 3, [0.0, 0.5, 1 / 3, 1.0, 5e-324]))
# a universe larger than a block: each row is its own block
@example(_pooled_set(3, SAVE_BLOCK_VALUES + 7, np.random.default_rng(1).random(50)))
def test_save_writes_the_bytes_of_json_dump(tmp_path_factory, fss):
    path = tmp_path_factory.getbasetemp() / "writer.fss"
    save_fss(fss, path)
    assert path.read_bytes() == _reference_bytes(fss)
    assert load_fss(path) == fss


@pytest.mark.parametrize("block_values", [1, 2, 3, 4, 5, 7])
def test_save_reuses_texts_across_blocks_byte_for_byte(tmp_path, monkeypatch, block_values):
    # 0.25 skips the middle rows and comes back; -0.0 and 0.0 trade places
    # across every block boundary.
    rows = [(0.25, -0.0), (0.0, 0.5), (-0.0, 0.0), (0.5, -0.0), (0.0, 0.25), (-0.0, 0.25),
            (0.25, 0.0)]
    fss = make_fuzzy_soft_set(["u1", "u2"], {f"t{i}": row for i, row in enumerate(rows)})
    monkeypatch.setattr(fileio, "SAVE_BLOCK_VALUES", block_values)
    save_fss(fss, tmp_path / "s.fss")
    assert (tmp_path / "s.fss").read_bytes() == _reference_bytes(fss)
    assert np.array_equal(np.signbit(load_fss(tmp_path / "s.fss").values), np.signbit(fss.values))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1 / 3, 1.0, 5e-324, 1 - 2**-53]),
                min_size=1, max_size=4, unique_by=lambda v: np.float64(v).view(np.uint64)))
def test_save_with_small_blocks_writes_the_bytes_of_json_dump(tmp_path_factory, block_values,
                                                              tags, width, seed, pool):
    fss = _pooled_set(tags, width, pool, seed)
    path = tmp_path_factory.getbasetemp() / "small-blocks.fss"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "SAVE_BLOCK_VALUES", block_values)
        save_fss(fss, path)
    assert path.read_bytes() == _reference_bytes(fss)


def test_save_writes_the_bytes_of_json_dump_for_a_wide_union(tmp_path):
    rng = np.random.default_rng(80)
    universe = [f"u{i}" for i in range(8)]
    a = make_fuzzy_soft_set(universe, {f"a{i:03d}": rng.random(8) for i in range(80)})
    b = make_fuzzy_soft_set(universe, {f"b{i:03d}": rng.random(8) for i in range(80)})
    union = union_fss(a, b)
    assert len(union.tags) == 80 * 80
    save_fss(union, tmp_path / "union.fss")
    assert (tmp_path / "union.fss").read_bytes() == _reference_bytes(union)


# A quote, a backslash, control, non-ASCII and astral characters, labels
# below "*" ("a" is a prefix of "a b"; "a!" sorts after "a*x" by label
# tuple and before it by text) and drawn labels.
product_labels = st.sampled_from(["a", "a b", "a!", "x", '"', "\\", "\x00", "\x1f\n",
                                  "\xe9", "\u2028", "\U0001d11e"]) | labels


@st.composite
def product_operands(draw):
    """A union or an intersection and operands A and B whose A ∘ (A ∘ B)
    has tags of mixed label counts with repeated labels."""
    universe = draw(st.lists(names, min_size=1, max_size=3, unique=True))

    def operand():
        tags = draw(st.lists(st.lists(product_labels, min_size=1, max_size=2), min_size=1,
                             max_size=4, unique_by=lambda tag: tuple(sorted(tag))))
        rows = draw(st.lists(st.lists(edge_values | memberships, min_size=len(universe),
                                      max_size=len(universe)),
                             min_size=len(tags), max_size=len(tags)))
        return make_fuzzy_soft_set(universe, zip(map(ParamTag, tags), rows))

    return draw(st.sampled_from([union_fss, intersect_fss])), operand(), operand()


@settings(max_examples=200, deadline=None)
@given(product_operands())
@example((union_fss, make_fuzzy_soft_set(["u"], {"a": (0.5,), "a b": (0.25,), "a!": (1.0,)}),
          make_fuzzy_soft_set(["u"], {"a": (0.0,), "x": (0.75,), 'q"\\': (-0.0,)})))
def test_save_of_a_ranked_result_writes_the_bytes_of_its_document(tmp_path_factory, operands):
    combine, a, b = operands
    try:
        s = combine(a, combine(a, b))
    except TagCollisionError:  # two tags of A hold the labels of two others
        reject()
    path = tmp_path_factory.getbasetemp() / "ranked.fss"
    save_fss(s, path)
    assert "tags" not in vars(s)  # the heads came from the label table and the ranks
    written = path.read_bytes()
    assert written == _reference_bytes(s)
    rebuilt = FuzzySoftSet(s.universe, tuple(s.tags), s.values)
    assert rebuilt == s and hash(rebuilt) == hash(s)
    save_fss(rebuilt, path)
    assert path.read_bytes() == written
    assert load_fss(path) == s


def test_save_holds_one_block_of_strings_at_a_time(tmp_path):
    # 55 x 2000 all-distinct values: deduplicating and joining the whole
    # matrix at once would hold about 7.7 MiB of strings and indices.
    values = np.random.default_rng(3).random((55, 2000))
    fss = make_fuzzy_soft_set([f"u{k:04d}" for k in range(2000)],
                              {f"a{i:02d}": row for i, row in enumerate(values.tolist())})
    assert len(np.unique(fss.values)) == fss.values.size
    save_fss(fss, tmp_path / "warm.fss")
    tracemalloc.start()
    try:
        save_fss(fss, tmp_path / "distinct.fss")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert (tmp_path / "distinct.fss").read_bytes() == _reference_bytes(fss)


_JSON_KEYS = st.sampled_from(["universe", "parameters", "u1", "u2", "a1", "a1*b1", "b1*a1",
                              "", "*", "a 1"]) | st.text(max_size=5)


# Hypothesis checks that an extend function uses its argument by reading
# the function's source back from this file, so editing the file while the
# suite runs shifts the lines it reads and fails the check, and the suite.
def _json_containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(_JSON_KEYS, children, max_size=4)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_KEYS, _json_containers,
    max_leaves=20)


_MEMBERSHIPS = st.fixed_dictionaries({"u1": _JSON_VALUES | st.floats(0, 1),
                                      "u2": _JSON_VALUES | st.floats(0, 1)})


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES | st.fixed_dictionaries({"universe": _JSON_VALUES, "parameters": _JSON_VALUES})
       | st.fixed_dictionaries({"universe": st.just(["u1", "u2"]),
                                "parameters": st.dictionaries(_JSON_KEYS,
                                                              _JSON_VALUES | _MEMBERSHIPS,
                                                              max_size=3)}))
def test_document_decoding_totality(doc):
    # any decoded JSON either builds a set or raises a FuzzySoftError
    try:
        document_to_fss(doc)
    except FuzzySoftError:
        pass


# --- the row-wise validator against the field-by-field loop ---------------------

# The reference: a field-by-field loop that reports the first fault in
# document order, value by value.  ``document_to_fss`` must give the same
# set, or the same error with the same JSON path.
def _checked_document(doc, source: str) -> FuzzySoftSet:
    """``document_to_fss`` field by field: the first fault raises a
    ``DocumentError`` with its JSON path."""
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


def _outcome(build, doc):
    """The set ``build`` gives, with its value bits, or its error's type,
    message and JSON path."""
    try:
        fss = build(doc)
    except FuzzySoftError as err:
        return type(err), str(err), getattr(err, "json_path", None)
    return fss, fss.values.view(np.uint64).tolist()


def _assert_same_as_the_loop(doc):
    assert (_outcome(document_to_fss, doc)
            == _outcome(lambda d: _checked_document(d, "document"), doc))


def _decode(text: str):
    return json.loads(text, object_pairs_hook=_decode_object)


_MALFORMED = [
    '{"universe": ["u1", "u2"], "parameters": {"a1": {"u1": 0.3, "u2": 1.2}}}',
    '{"universe": ["u"], "parameters": {"a*b": {"u": 0.5}, "b*a": {"u": 0.5}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a1": {"u1": 0.3}}}',
    '{"universe": ["u1"], "parameters": {"a1": {"u1": 0.3, "zz": 0.1}}}',
    '{"universe": ["u1", "u2", "u1", "u2"], "parameters": {"a1": {"u1": 0.3, "u2": 0.7}}}',
    '{"universe": ["u1"], "parameters": {"a1": {"u1": "high"}}}',
    '{"universe": ["u1"], "parameters": {"a1": {"u1": true}}}',
    '[1, 2]',
    '{"universe": ["u"], "parameters": {"a": {"u": 1}}, "extra": 1}',
    '{"universe": ["u1"], "parameters": {"a": {"u1": 0.1}}, "universe": ["u1"]}',
    '{"universe": ["u1"], "parameters": {"a": {"u1": 0.1}, "a": {"u1": 0.2}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 0.1, "u2": 0.3, "u1": 0.2}}}',
    '{"universe": ["u1"], "parameters": {"a": {"u1": NaN}}}',
    '{"universe": ["u1"], "parameters": {"a": {"u1": Infinity}}}',
    '{"universe": ["u1"], "parameters": {"a": {"u1": -Infinity}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 0, "u2": 1}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u2": 0.5, "u1": 0.25}}}',
    '{"universe": ["u1", ""], "parameters": {"a": {"u1": 0.5, "": 0.25}}}',
    '{"universe": [], "parameters": {"a": {}}}',
    '{"universe": ["u1"], "parameters": {}}',
    '{"universe": ["u1"], "parameters": {"a**b": {"u1": 0.5}}}',
    '{"universe": ["u1"], "parameters": {"a": [0.5]}}',
    '{"universe": ["u1"]}',
    '{"parameters": {"a": {"u1": 0.5}}}',
    # faults across rows: the first in document order wins
    '{"universe": ["u1"], "parameters": {"a": {"u1": 1.5}, "b**c": {"u1": 0.5}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 0.5, "u2": NaN}, '
    '"b": {"u1": 1, "u2": "x"}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 0, "u2": 1}, '
    '"b": {"u1": 0.5, "u2": -0.5}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 0.5, "u2": 2.0}, '
    '"b": {"u1": 0.5}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 0.5, "u2": 0.25}, '
    '"b": {"u1": 0.5, "u2": 2}}}',
    # within a walked row, a range fault before a type fault; an int past float range
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 2, "u2": "x"}}}',
    '{"universe": ["u1"], "parameters": {"a": {"u1": 1' + "0" * 400 + '}}}',
    # the first of several extra elements in sorted order
    '{"universe": ["u1"], "parameters": {"a": {"u1": 0.5, "zz": 0.1, "yy": 0.2}}}',
    # repeated keys at two levels at once: the outer object's comes first
    '{"universe": ["u1"], "parameters": {"a": {"u1": 0.5, "u1": 0.1}}, "universe": ["u1"]}',
    '{"universe": ["u1"], "parameters": {"a": {"u1": 0.3}, "a": {"u1": 0.5, "u1": 0.1}}}',
    # a repeated key comes before any tag fault, and the first repeating parameter's first
    '{"universe": ["u1"], "parameters": {"a**b": {"u1": 0.5}, "c": {"u1": 0.1, "u1": 0.2}}}',
    '{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 0.5, "u2": 0.5}, '
    '"b": {"u2": 0.1, "u1": 0.2, "u2": 0.3}, "c": {"u1": 0.1, "u1": 0.2, "u2": 0.0}}}',
]


@pytest.mark.parametrize("text", _MALFORMED)
def test_one_pass_check_matches_the_loop_on_malformed_documents(text):
    _assert_same_as_the_loop(_decode(text))


def test_one_pass_check_builds_float_documents_and_defers_the_rest():
    valid = _decode('{"universe": ["u1", "u2"], "parameters": '
                    '{"b*a": {"u2": 0.5, "u1": -0.0}, "c": {"u1": 1.0, "u2": 0.0}}}')
    _assert_same_as_the_loop(valid)
    ints = _decode('{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 1, "u2": 0}}}')
    floats = _decode('{"universe": ["u1", "u2"], "parameters": {"a": {"u1": 1.0, "u2": 0.0}}}')
    _assert_same_as_the_loop(ints)
    assert _outcome(document_to_fss, ints) == _outcome(document_to_fss, floats)


_ODD_VALUES = (st.sampled_from([0, 1, True, False, 2, -1, 10**400, "0.5", None, [], {}])
               | st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-0.0",
                                  "1.0000000000000002", "-5e-324"]).map(json.loads))
_MEMBERSHIP = st.floats(0, 1) | st.just(-0.0)
_TAGS = st.sampled_from(["a", "b", "c", "a*b", "a*a", "c*b*a", "b*c"])
_BAD_TAGS = st.sampled_from(["", "*", "a**b", "a*", "a b"])


@st.composite
def near_valid_documents(draw):
    """Decoded documents that are valid, or nearly: each rare branch below
    breaks or bends one part, and objects may repeat a key as JSON text can."""
    def rarely(odds: int = 8) -> bool:
        return draw(st.sampled_from(range(odds))) == odds // 2

    universe = list(draw(st.permutations(["u1", "u2", "u3"])))[:draw(st.integers(1, 3))]

    def memberships():
        elements = list(draw(st.permutations(universe)))  # any order, as JSON may have
        if rarely():
            elements.pop()
        if rarely():
            elements.append(draw(st.sampled_from(["u1", "u2", "zz", ""])))
        return _decode_object([(element, draw(_ODD_VALUES) if rarely(40) else draw(_MEMBERSHIP))
                               for element in elements])

    tags = draw(st.lists(_TAGS, min_size=1, max_size=4, unique=True))
    if rarely():
        tags.append(draw(_TAGS | _BAD_TAGS | st.sampled_from(["b*a", "a*c*b"])))
    parameters = [(tag, draw(_ODD_VALUES) if rarely() else memberships()) for tag in tags]
    stated = list(universe)
    if rarely():
        stated.append(draw(st.sampled_from(["u1", "", 1, None])))
    top = [("universe", draw(_ODD_VALUES) if rarely() else stated),
           ("parameters", _decode_object(parameters))]
    if rarely():
        top.reverse()
    if rarely():
        top.pop(draw(st.integers(0, 1)))
    if rarely():
        top.append((draw(st.sampled_from(["universe", "parameters", "extra"])),
                    draw(_ODD_VALUES)))
    return _decode_object(top)


@settings(max_examples=300, deadline=None)
@given(near_valid_documents())
def test_one_pass_check_matches_the_loop_on_near_valid_documents(doc):
    _assert_same_as_the_loop(doc)
