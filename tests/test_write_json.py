"""``harness.write_json`` against ``json.dumps``, whose bytes it writes.

The Hypothesis tests live in a module of their own: test_config imports
test_harness while it generates examples, where a ``@given`` may not be
applied.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from addcubic import harness

# Floats whose shortest repr switches notation or sits at a range edge.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e16, 9007199254740993.0, 1e-5, 1e-4,
               0.1, 1e22, -1.5)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_FLOATS),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children), max_leaves=30)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_write_json_writes_the_bytes_json_dumps_writes(doc):
    with tempfile.TemporaryDirectory() as scratch:
        path = harness.write_json(Path(scratch) / "r.json", doc)
        assert path.read_bytes() == _dumps(doc).encode("utf-8")


def _place(doc, bad, data):
    """``doc`` with ``bad`` put in one place, drawn."""
    if isinstance(doc, dict) and doc and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(doc)))
        return {**doc, key: _place(doc[key], bad, data)}
    if isinstance(doc, (list, tuple)) and doc and data.draw(st.booleans()):
        n = data.draw(st.integers(0, len(doc) - 1))
        return [*doc[:n], _place(doc[n], bad, data), *doc[n + 1:]]
    return [doc, bad] if data.draw(st.booleans()) else {"v": doc, "bad": bad}


@settings(max_examples=100, deadline=None)
@given(json_values, st.sampled_from((math.inf, -math.inf, math.nan)),
       st.data())
def test_write_json_refuses_a_non_finite_float_anywhere(doc, bad, data):
    doc = _place(doc, bad, data)
    with pytest.raises(ValueError) as refused:
        _dumps(doc)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "out" / "r.json"
        with pytest.raises(OverflowError) as raised:
            harness.write_json(path, doc)
        assert not path.parent.exists()
    assert str(raised.value).startswith("r.json: ")
    assert str(raised.value).endswith(f": {refused.value}")


class Count(int):
    pass


def test_write_json_refuses_other_keys_and_types(tmp_path):
    # Reports hold str keys and values of the JSON types alone.
    for doc in ({1: "a"}, {"a": {None: 1}}, {"a": 1, 2: 3}, {"a": Count(1)},
                [{1.5}]):
        with pytest.raises(TypeError):
            harness.write_json(tmp_path / "r.json", doc)
        assert not (tmp_path / "r.json").exists()
