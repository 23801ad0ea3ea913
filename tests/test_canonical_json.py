"""``canonical_json`` renders byte-for-byte what ``json.dumps`` did.

Every settle key, disk-cache checksum and event-log hash goes through
this function, so one changed byte would silently invalidate every
``--cache-dir`` store and every pinned digest.  It encodes through one
module-level encoder instead of a ``json.dumps`` call per value; the
property below pins that choice against the call it replaced, over
nested dicts and lists with non-ASCII and control-character strings (in
keys and values), big ints, signed zeros, subnormals, huge floats, NaN,
infinities, bools and ``None``.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import tracing
from repro.sim import cache


def _reference(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan,
               math.inf, -math.inf, 2.0 ** 53 + 1, 0.1)

#: Control characters, quotes and escapes, non-ASCII (BMP and astral)
#: and lone surrogates, mixed with plain text.
strings = st.text(
    alphabet=st.sampled_from(
        "\x00\x01\x08\t\n\x0b\x0c\r\x1f\x7f\"\\/ aZ"
        "\u00e9\u00a0\u20ac\u2028\ufeff\U0001f600\ud800\udfff"
    )
    | st.characters(),
    max_size=12,
)

leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2 ** 256), max_value=2 ** 256)
    | st.floats()
    | st.sampled_from(EDGE_FLOATS)
    | strings
)

values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(strings, children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_matches_json_dumps_byte_for_byte(value):
    assert cache.canonical_json(value) == _reference(value)


def test_edge_scalars():
    for value in EDGE_FLOATS + (True, False, None, 2 ** 200, -(2 ** 200)):
        assert cache.canonical_json(value) == _reference(value)
    assert cache.canonical_json({"\x00é": [-0.0, math.nan]}) == (
        '{"\\u0000\\u00e9":[-0.0,NaN]}'
    )


def test_one_encoder():
    # The cache layer and the span tracer render through the same function.
    assert cache.canonical_json is tracing.canonical_json
