"""Canonical serialization: the encoder built once writes the bytes that
``json.dumps`` writes with the canonical settings."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcgov.canon import canonical_dumps, canonical_object, digest_of, sha256_hex

#: Keys and strings: ASCII, quotes and escapes, non-ASCII and astral text.
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n", "é", "ü", "☃", "\U0001f600", "a\u0000b"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0, 0.0, -0.0, 1, 1.0, 1e16, 1e-7, 2**53 + 1])
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


def reference_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=True)


@given(VALUES)
@settings(max_examples=300, deadline=None)
def test_canonical_dumps_writes_the_json_dumps_bytes(value):
    assert canonical_dumps(value) == reference_dumps(value)


@given(st.dictionaries(TEXT, VALUES, max_size=5))
@settings(max_examples=100, deadline=None)
def test_canonical_object_composes_the_same_bytes(members):
    texts = [(key, canonical_dumps(value)) for key, value in members.items()]
    assert canonical_object(texts) == canonical_dumps(members) == reference_dumps(members)


@pytest.mark.parametrize(
    "value",
    [
        True,
        False,
        None,
        1,
        1.0,
        {"b": 1, "a": 1.0, "c": [True, None, False]},
        {"é": "☃", "ascii": "x"},
        [[], {}, [{}], {"": ""}],
        "plain",
        -0.0,
    ],
)
def test_ints_floats_bools_and_none_keep_their_json_spelling(value):
    assert canonical_dumps(value) == reference_dumps(value)
    assert digest_of(value) == sha256_hex(reference_dumps(value))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nan_and_infinities_are_refused(bad):
    for value in (bad, [1, bad], {"k": {"deep": [bad]}}):
        with pytest.raises(ValueError):
            canonical_dumps(value)
    # a refusal leaves nothing behind that changes a later encoding
    assert canonical_dumps({"k": [1.5]}) == '{"k":[1.5]}'


def test_values_that_json_cannot_encode_are_refused():
    with pytest.raises(TypeError):
        canonical_dumps({"k": object()})
    with pytest.raises(TypeError):
        canonical_dumps({("a",): "tuple key"})


def test_a_cyclic_value_is_refused():
    # canonical data is a tree; the encoder keeps no circular-reference
    # markers, so a cycle ends at the recursion limit
    cyclic: list = []
    cyclic.append(cyclic)
    with pytest.raises(RecursionError):
        canonical_dumps(cyclic)
    assert canonical_dumps([[1]]) == "[[1]]"
