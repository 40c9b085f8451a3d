import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzysoft import (
    DocumentError,
    FuzzySoftError,
    ParamTag,
    document_to_fss,
    fss_to_document,
    load_fss,
    make_fuzzy_soft_set,
    save_fss,
    union_fss,
)


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


# --- the streaming writer against json.dump ---------------------------------------

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


@given(fuzzy_soft_sets())
@example(make_fuzzy_soft_set(["u"], {"a": (0.5,)}))
@example(make_fuzzy_soft_set(['q"\\\x01\xe9\U0001d11e', "u"],
                             {"b\x1f*\u2028": (5e-324, 1 - 2**-53), "a": (-0.0, 1.0)}))
def test_save_writes_the_bytes_of_json_dump(tmp_path_factory, fss):
    path = tmp_path_factory.getbasetemp() / "writer.fss"
    save_fss(fss, path)
    assert path.read_bytes() == _reference_bytes(fss)
    assert load_fss(path) == fss


def test_save_writes_the_bytes_of_json_dump_for_a_wide_union(tmp_path):
    rng = np.random.default_rng(80)
    universe = [f"u{i}" for i in range(8)]
    a = make_fuzzy_soft_set(universe, {f"a{i:03d}": rng.random(8) for i in range(80)})
    b = make_fuzzy_soft_set(universe, {f"b{i:03d}": rng.random(8) for i in range(80)})
    union = union_fss(a, b)
    assert len(union.tags) == 80 * 80
    save_fss(union, tmp_path / "union.fss")
    assert (tmp_path / "union.fss").read_bytes() == _reference_bytes(union)


_JSON_KEYS = st.sampled_from(["universe", "parameters", "u1", "u2", "a1", "a1*b1", "b1*a1",
                              "", "*", "a 1"]) | st.text(max_size=5)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_KEYS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_KEYS, children, max_size=4),
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
