"""The CLI's JSON writer against ``json`` itself.

``cli._dumps`` must write the bytes of ``json.dumps(value, sort_keys=True,
indent=2)`` for every value that ``json`` writes, and raise ``TypeError``
for every value that ``json`` refuses with one.  Values are nested dicts,
lists and tuples of strings with escapes, control and non-ASCII
characters, big ints, floats with -0.0, 1e300, NaN and both infinities,
bools and None; dict keys are strings, ints, floats, bools and None, mixed
keys included, which neither can sort.  Examples are derandomized.
"""

import json
from enum import IntEnum

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from momentangle.cli import _dumps  # noqa: E402

STRINGS = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "/", "\n\r\t\b\f", "\x00\x01\x1f\x7f", "é", "€", "😀", "\ud800", "\u2028", ""]
)
INTS = st.integers(-(10**6), 10**6) | st.sampled_from([2**63, -(2**64), 10**40, -(10**300)])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1e300, -1e-300, 0.1, float("nan"), float("inf"), float("-inf")]
)
LEAVES = st.none() | st.booleans() | INTS | FLOATS | STRINGS
KEYS = STRINGS | INTS | FLOATS | st.none() | st.booleans()


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(STRINGS, children, max_size=4)
        | st.dictionaries(KEYS, children, max_size=3)
    )


VALUES = st.recursive(LEAVES, containers, max_leaves=24)


def assert_same(value):
    try:
        expected = json.dumps(value, sort_keys=True, indent=2)
    except TypeError:
        with pytest.raises(TypeError):
            _dumps(value)
    else:
        assert _dumps(value) == expected


@settings(max_examples=400, derandomize=True, deadline=None)
@given(VALUES)
def test_the_writer_writes_what_json_writes(value):
    assert_same(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        (),
        [[], {}, ()],
        {"a": {}, "b": [[]]},
        -0.0,
        1e300,
        float("nan"),
        [float("inf"), float("-inf")],
        {1.5: 0, float("nan"): 1},
        10**400,
        "\x00\x1f\"\\é😀\ud800",
        {True: 1, False: 0, None: 2},
        {"x": IntEnum("E", "A B").B},  # a subclass is written by its base type
    ],
)
def test_edge_values(value):
    assert_same(value)


@pytest.mark.parametrize(
    "value",
    [object(), {"a": {1, 2}}, [b"bytes"], {(1, 2): 3}, {1: 1, "a": 2}, [complex(1, 2)]],
    ids=["object", "set", "bytes", "tuple key", "mixed keys", "complex"],
)
def test_a_type_json_refuses_raises_type_error(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _dumps(value)
