"""``records.json_text`` writes ``json.dumps(doc, indent=1,
allow_nan=False)`` and a newline, and ``records.write_json`` writes the
same bytes, serially or with forked workers."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gadmm import problems, records

from conftest import assert_nothing_left, count_forks

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1e-7, 123456789.0]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('\0\n\r\t"\\\x7f é€😀')))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    FLOATS,
    TEXT,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(FLOATS, min_size=1, max_size=8),
        st.dictionaries(TEXT, children, max_size=5),
    )


DOCS = st.recursive(SCALARS, containers, max_leaves=40)


def reference(doc):
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def float_lists_hold_only_floats(node):
    """Whether every list of ``node`` that starts with a float holds only
    floats, as :func:`records.write_json` asks."""
    if isinstance(node, dict):
        return all(float_lists_hold_only_floats(v) for v in node.values())
    if isinstance(node, list):
        if node and type(node[0]) is float:
            return all(type(v) is float for v in node)
        return all(float_lists_hold_only_floats(v) for v in node)
    return True


@settings(max_examples=150, deadline=None)
@given(DOCS)
def test_json_text_is_json_dumps(doc):
    assert records.json_text(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{}, [], {"a": {}, "b": [], "c": [[]], "d": [{}]}, (1.0, "a"),
                                 {"t": (0.5, [True, None])}, 10**400 // 10**100, -0.0, ""])
def test_edge_documents(doc):
    assert records.json_text(doc) == reference(doc)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
@given(doc=DOCS.filter(float_lists_hold_only_floats), cpus=st.sampled_from([1, 3]))
def test_write_json_writes_the_same_bytes_serial_and_forked(tmp_path, monkeypatch, doc, cpus):
    # one number per worker's share: with 3 CPUs any document of two or
    # more numbers in lists is split across forked workers
    monkeypatch.setattr(records, "CELLS_PER_WORKER", 1)
    count_forks(monkeypatch, cpus=cpus)
    path = tmp_path / "doc.json"
    records.write_json(path, doc)
    assert path.read_bytes() == reference(doc).encode()
    assert_nothing_left(tmp_path, ["doc.json"])


@pytest.mark.parametrize("cpus", [1, 3])
def test_instance_document_keeps_its_bytes(tmp_path, monkeypatch, cpus):
    doc = problems.instance_to_dict(problems.generate_lasso(7, 10, 20, 0.1))
    monkeypatch.setattr(records, "CELLS_PER_WORKER", 50)
    counted = count_forks(monkeypatch, cpus=cpus)
    records.write_json(tmp_path / "inst.json", doc)
    assert len(counted) == cpus - 1
    assert (tmp_path / "inst.json").read_bytes() == reference(doc).encode()
    assert records.json_text(doc) == reference(doc)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("place", ["scalar", "nested", "list", "mixed-list"])
def test_non_finite_number_raises_jsons_value_error(tmp_path, value, place):
    doc = {
        "scalar": value,
        "nested": {"a": [1, {"b": value}]},
        "list": [0.5, 1.5, value, 2.5],
        "mixed-list": [1, "x", value],
    }[place]
    with pytest.raises(ValueError) as want:
        reference(doc)
    with pytest.raises(ValueError) as got:
        records.json_text(doc)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as got:
        records.write_json(tmp_path / "doc.json", doc)
    assert str(got.value) == str(want.value)
    assert_nothing_left(tmp_path, [])


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", 1j, np.int64(1), np.bool_(True)])
def test_value_json_refuses_raises_type_error(tmp_path, value):
    doc = {"checks": [{"lhs": value}]}
    with pytest.raises(TypeError) as want:
        reference(doc)
    with pytest.raises(TypeError) as got:
        records.json_text(doc)
    assert str(got.value) == str(want.value)
    with pytest.raises(TypeError):
        records.write_json(tmp_path / "doc.json", doc)
    assert_nothing_left(tmp_path, [])


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_keys_other_than_strings_are_refused(key):
    with pytest.raises(TypeError, match="keys must be str"):
        records.json_text({key: 1})
