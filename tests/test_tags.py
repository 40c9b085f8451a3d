import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzysoft import ParamTag, TaggedMembership, ValidationError, combine_tags

labels = st.text(alphabet="abcxyz123", min_size=1, max_size=4)
label_lists = st.lists(labels, min_size=1, max_size=4)


def test_canonical_sorting():
    assert ParamTag(("b", "a")).labels == ("a", "b")
    assert ParamTag("a").labels == ("a",)
    assert ParamTag(("b", "a")).text == "a*b"


def test_parse_round_trip():
    tag = ParamTag.parse("b1*a1")
    assert tag.text == "a1*b1"
    assert ParamTag.parse(tag.text) == tag


def test_combine_is_multiset_union():
    a, b = ParamTag("a"), ParamTag("b")
    assert combine_tags(a, b).labels == ("a", "b")
    assert combine_tags(b, a).labels == ("a", "b")
    # duplicates are kept
    assert combine_tags(a, a).labels == ("a", "a")


def test_reserved_separator_rejected():
    with pytest.raises(ValidationError):
        ParamTag(("a*b",))
    with pytest.raises(ValidationError):
        ParamTag(())
    with pytest.raises(ValidationError):
        ParamTag(("",))


@given(label_lists, label_lists)
def test_combine_commutative(l1, l2):
    t1, t2 = ParamTag(tuple(l1)), ParamTag(tuple(l2))
    assert combine_tags(t1, t2) == combine_tags(t2, t1)


@given(label_lists, label_lists, label_lists)
def test_combine_associative(l1, l2, l3):
    t1, t2, t3 = ParamTag(tuple(l1)), ParamTag(tuple(l2)), ParamTag(tuple(l3))
    assert combine_tags(combine_tags(t1, t2), t3) == combine_tags(t1, combine_tags(t2, t3))


def test_tag_ordering_is_lexicographic():
    assert ParamTag(("a1", "b1")) < ParamTag(("a2", "b1"))
    assert sorted([ParamTag("b"), ParamTag("a")])[0] == ParamTag("a")


def test_tagged_membership_validation():
    tag = ParamTag("a")
    TaggedMembership(tag, 0.0)
    TaggedMembership(tag, 1.0)
    with pytest.raises(ValidationError):
        TaggedMembership(tag, 1.2)
    with pytest.raises(ValidationError):
        TaggedMembership(tag, -0.1)
    with pytest.raises(ValidationError):
        TaggedMembership(tag, float("nan"))


@pytest.mark.parametrize("value", ["0.5", b"0.5", "x", None, 10**400, object(),
                                   True, False, np.True_, np.False_,
                                   # float() would drop the imaginary part,
                                   # or take a date or duration's count.
                                   0.5j, np.complex128(0.5), np.complex64(1),
                                   np.timedelta64(1), np.datetime64(1, "s")])
def test_tagged_membership_refuses_a_value_that_is_not_a_number(value):
    with pytest.raises(ValidationError, match=r"^membership value .* for tag 'a' is not a number$"):
        TaggedMembership(ParamTag("a"), value)


@pytest.mark.parametrize("tag", ["a", None, ("a",)])
def test_tagged_membership_refuses_a_tag_that_is_not_a_param_tag(tag):
    with pytest.raises(ValidationError, match=r"^a membership's tag must be a ParamTag, got "):
        TaggedMembership(tag, 0.5)


class _FloatOfOneElement(np.ndarray):
    """An array whose float() is its one element, as before numpy 2.4."""

    def __float__(self):
        return float(self.reshape(-1)[0])


@pytest.mark.parametrize("value", [np.array([0.5]), np.array([[0.5]]), np.array(True),
                                   np.array("0.5"), np.array(None),
                                   np.array([0.5]).view(_FloatOfOneElement)])
def test_tagged_membership_refuses_an_array_unless_it_holds_one_real_number(value):
    with pytest.raises(ValidationError, match=r"^membership value .* for tag 'a' is not a number$"):
        TaggedMembership(ParamTag("a"), value)
    assert TaggedMembership(ParamTag("a"), np.array(0.5)).value == 0.5


def test_ordering_only_within_a_tag():
    tag = ParamTag("a")
    assert TaggedMembership(tag, 0.2) <= TaggedMembership(tag, 0.5)
    assert TaggedMembership(tag, 0.5) >= TaggedMembership(tag, 0.2)
    with pytest.raises(ValidationError):
        _ = TaggedMembership(ParamTag("a"), 0.2) <= TaggedMembership(ParamTag("b"), 0.5)
    with pytest.raises(TypeError, match="^cannot compare TaggedMembership with float$"):
        _ = TaggedMembership(tag, 0.2) < 0.5


def test_tags_and_memberships_print_their_canonical_text():
    tag = ParamTag.parse("b*a")
    assert (str(tag), repr(tag)) == ("a*b", "ParamTag('a*b')")
    assert repr(TaggedMembership(tag, 0.25)) == "(a*b, 0.25)"


@given(st.floats(0, 1), st.floats(0, 1))
def test_same_tag_ordering_mirrors_values(x, y):
    tag = ParamTag("a")
    assert (TaggedMembership(tag, x) <= TaggedMembership(tag, y)) == (x <= y)


@given(label_lists, label_lists)
def test_combine_equals_a_validated_tag(l1, l2):
    a, b = ParamTag(tuple(l1)), ParamTag(tuple(l2))
    combined, validated = combine_tags(a, b), ParamTag(a.labels + b.labels)
    assert combined == validated
    assert hash(combined) == hash(validated)
    assert combined.text == validated.text
    assert combined.labels == tuple(sorted(l1 + l2))


@pytest.mark.parametrize("value", [None, 1, ("a", "b"), ParamTag("a")])
def test_parse_refuses_a_value_that_is_not_text(value):
    with pytest.raises(ValidationError, match="^parameter label must be a non-empty string, got "):
        ParamTag.parse(value)


@pytest.mark.parametrize("text, label", [("\ud800", "\ud800"), ("a*b\udfffc", "b\udfffc"),
                                         ("\ud83d\ude00", "\ud83d\ude00")])
def test_a_label_holding_a_lone_surrogate_is_refused(text, label):
    # JSON's "\ud800" decodes to such a string, which UTF-8 cannot encode.
    message = f"parameter label {label!r} is not valid Unicode text (it holds a lone surrogate)"
    for build in (ParamTag.parse, lambda text: ParamTag(text.split("*"))):
        with pytest.raises(ValidationError) as err:
            build(text)
        assert str(err.value) == message
    assert ParamTag.parse("\U0001f600*\u00e9").labels == ("\u00e9", "\U0001f600")


@pytest.mark.parametrize("value", [5, None])
def test_a_label_container_that_is_not_iterable_is_one_bad_label(value):
    message = rf"^parameter label must be a non-empty string, got {value!r}$"
    with pytest.raises(ValidationError, match=message):
        ParamTag(value)
    with pytest.raises(ValidationError, match=message):
        ParamTag.parse(value)
