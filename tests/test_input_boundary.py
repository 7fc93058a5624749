"""Malformed inputs reach ``gadmm run`` as exit 1 with the field named, and
never as a traceback."""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gadmm import cli, problems


@pytest.fixture(scope="module")
def documents():
    """Valid instance documents: a QP (quadratic f and g) and a lasso split
    (quadratic f, l1 g)."""
    return {
        "qp": problems.instance_to_dict(problems.generate_qp(1, 3, 2, 2)),
        "lasso": problems.instance_to_dict(problems.generate_lasso(1, 3, 6, 0.2)),
    }


def run_doc(tmp_path, doc, *extra):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    argv = ["run", "--instance", str(path), "--h2", "linearized", "--max-iter", "3"]
    argv += ["--out", str(tmp_path / "out")]
    return cli.main(argv + list(extra))


def with_field(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, leaf = path
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[leaf] = value
    return doc


@pytest.mark.parametrize("block", ["f", "g"])
@pytest.mark.parametrize("value", [[1.0], {"c": 1.0}], ids=["list", "object"])
def test_constant_term_must_be_a_number(tmp_path, capsys, documents, block, value):
    doc = with_field(documents["qp"], (block, "c"), value)
    assert run_doc(tmp_path, doc) == 1
    assert f"'{block}.c'" in capsys.readouterr().err


def test_h_file_matrix_must_be_numbers(tmp_path, capsys, documents):
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps({"matrix": {"rows": [[1.0]]}}))
    assert run_doc(tmp_path, documents["qp"], "--h1", f"file:{h_path}") == 1
    assert "field 'matrix'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [(("A", 0), "1.5"), (("A", 0), True), (("f", "q", 1), "0.5"), (("g", "mu"), "0.2")],
    ids=["string-in-A", "bool-in-A", "string-in-f.q", "string-mu"],
)
def test_strings_and_bools_are_not_reals(tmp_path, capsys, documents, field, value):
    doc = documents["lasso" if field[0] == "g" else "qp"]
    assert run_doc(tmp_path, with_field(doc, field, value)) == 1
    name = ".".join(k for k in field if isinstance(k, str))
    assert f"'{name}'" in capsys.readouterr().err


def test_integer_beyond_float_range_is_refused(tmp_path, capsys, documents):
    # JSON integers are unbounded; float() of this one raises OverflowError
    huge = 10**400
    for field in (("A", 0), ("f", "c")):
        assert run_doc(tmp_path, with_field(documents["qp"], field, huge)) == 1
        assert f"'{'.'.join(k for k in field if isinstance(k, str))}'" in capsys.readouterr().err
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps({"matrix": [[huge, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert run_doc(tmp_path, documents["qp"], "--h1", f"file:{h_path}") == 1
    assert "field 'matrix'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n", "p", "m"])
def test_bool_dimension_is_not_an_integer(tmp_path, capsys, documents, key):
    doc = with_field(documents["qp"], (key,), True)
    assert run_doc(tmp_path, doc) == 1
    assert f"field '{key}' must be a positive integer" in capsys.readouterr().err


def field_paths(doc, prefix=()):
    """The key paths of every field of a document, nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.just(10**400),
    st.text(max_size=5).filter(lambda s: s not in ("quadratic", "l1", "zero")),
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=3),
    st.lists(st.one_of(st.none(), st.booleans(), st.text(max_size=3)), min_size=1, max_size=3),
    st.dictionaries(st.sampled_from(["x", "P", "mu"]), st.integers(0, 3), max_size=2),
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fuzzed_instance_exits_with_a_documented_code(tmp_path_factory, documents, data):
    kind = data.draw(st.sampled_from(sorted(documents)))
    doc = documents[kind]
    path = data.draw(st.sampled_from(sorted(field_paths(doc))))
    target = doc
    for key in path:
        target = target[key]
    if isinstance(target, list) and data.draw(st.booleans()):
        # one entry of an array, or the whole array one entry short
        if data.draw(st.booleans()):
            entry = data.draw(st.integers(0, len(target) - 1))
            path, target = path + (entry,), target[entry]
            value = data.draw(JUNK)
        else:
            value = target[:-1]
    else:
        value = data.draw(JUNK)
    assume(value != target)
    tmp_path = tmp_path_factory.mktemp("fuzz")
    code = run_doc(tmp_path, with_field(doc, path, value))
    # every replacement is invalid except dropping the optional solution
    assert code == (0 if path == ("solution",) and value is None else 1), (path, value)


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--h1", "linearized:inf"], "error: h1: tau must be positive and finite, got inf\n"),
        (["--beta", "inf"], "error: beta must be positive and finite, got inf\n"),
    ],
    ids=["tau", "beta"],
)
def test_non_finite_flag_is_named(tmp_path, capsys, documents, flags, message):
    assert run_doc(tmp_path, documents["qp"], *flags) == 1
    assert capsys.readouterr().err == message


FLAG_NAMES = ("alpha", "beta", "stop_tol", "max_iter", "h1", "h2")
SPECIAL = ["inf", "-inf", "nan", "-0", "1e400", "", "abc", "1,5", "0x1p0", "--"]
FINITE = st.floats(-3.0, 3.0).map(repr)


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fuzzed_flags_exit_with_a_documented_code(tmp_path_factory, documents, data):
    """``gadmm run`` with drawn flag values exits 0, or 1 with one stderr line
    naming a flag; never a traceback or a warning."""
    value = st.one_of(FINITE, st.sampled_from(SPECIAL))
    argv = ["--max-iter=" + data.draw(st.one_of(st.integers(-1, 5).map(str), value))]
    for flag in ("alpha", "beta", "stop-tol"):
        if data.draw(st.booleans()):
            argv.append(f"--{flag}={data.draw(value)}")
    for flag in ("h1", "h2"):
        mode = data.draw(st.sampled_from(["zero", "linearized", "linearized:"]))
        if mode == "linearized:":
            mode += data.draw(st.one_of(value, st.floats(0, 1e3).map(repr)))
        argv.append(f"--{flag}={mode}")
    tmp_path = tmp_path_factory.mktemp("flags")
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        warnings.simplefilter("always")
        code = run_doc(tmp_path, documents["qp"], *argv)  # later flags win
    assert [str(w.message) for w in caught] == [], argv
    stderr = err.getvalue()
    assert "Traceback" not in stderr and "Warning" not in stderr, argv
    if code == 1:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
        assert any(name in stderr.replace("-", "_") for name in FLAG_NAMES), (argv, stderr)
    else:
        assert code == 0 and stderr == "", (argv, stderr)
