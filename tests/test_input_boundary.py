"""Malformed inputs reach ``gadmm run`` as exit 1 with the field named, and
never as a traceback."""

import contextlib
import copy
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gadmm import cli, oracles, problems


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
# finite, but their products, reciprocals or squares leave the float range
EXTREME = ["1e308", "-1e308", "1e-320", "5e-324"]
FINITE = st.floats(-3.0, 3.0).map(repr)


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--beta", "1e308"], "x-subproblem matrix P + beta*Op'Op + H overflows at beta=1e+308"),
        (
            ["--beta", "1e308", "--h1", "linearized"],
            "h1: tau=inf at beta=1e+308 is out of range: "
            "tau*I - beta*Op'Op and the prox step 1/tau must be finite",
        ),
        (["--beta", "1e-320", "--h1", "linearized"], "h1: tau="),
        (["--beta", "1e-320"], "proximal metric overflows at alpha=1.0, beta=1e-320"),
        (["--alpha", "1e-310"], "proximal metric overflows at alpha=1e-310, beta=1.0"),
    ],
    ids=["beta-huge", "beta-huge-linearized", "beta-tiny-linearized", "beta-tiny", "alpha-tiny"],
)
def test_finite_extreme_flag_is_named(tmp_path, flags, message):
    """An extreme finite flag value is refused with one line naming it,
    before numpy can warn about the overflow it causes."""
    path = tmp_path / "instance.json"
    problems.save_instance(problems.generate_qp(1, 8, 6, 4), path)
    argv = ["run", "--instance", str(path), "--max-iter", "5", "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        warnings.simplefilter("always")
        code = cli.main(argv + flags)
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert err.getvalue().startswith("error: " + message) and err.getvalue().count("\n") == 1
    assert flags[0][2:] in err.getvalue()


@pytest.mark.parametrize(
    "kind,alpha,h1",
    [
        pytest.param("lasso", "2", "zero", id="zero"),
        pytest.param("lasso", "2", "linearized", id="linearized"),
        pytest.param("1-d", "1", "zero", id="constant-alpha-1"),
        pytest.param("1-d", "1.5", "zero", id="constant-alpha-1.5"),
    ],
)
def test_overflowing_stage_map_is_named(tmp_path, documents, kind, alpha, h1):
    # on the lasso, beta*alpha*I, the A x_k coefficient of the multiplier
    # rows, overflows, while the x-subproblem matrix P + beta*I and its
    # linearized weight stay finite; on the 1-D QP every coefficient stays
    # finite and the constant column's beta*alpha*b overflows
    if kind == "lasso":
        doc = documents["lasso"]
    else:
        quad = oracles.Quadratic([[1.0]], [0.0])
        inst = problems.SeparableInstance(quad, quad, [[1e-10]], [[1e-10]], [3.0])
        doc = problems.instance_to_dict(inst)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    argv = ["run", "--instance", str(path), "--beta", "1e308", "--alpha", alpha, "--h1", h1]
    argv += ["--h2", "linearized", "--max-iter", "3", "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert err.getvalue() == (
        f"error: y-block stage map overflows at alpha={float(alpha)!r}, beta=1e+308\n"
    )


def test_linearized_weight_of_a_huge_operator_is_refused(tmp_path, capsys, documents):
    # beta*||A||^2 overflows: the automatic tau is inf, refused before any solve
    doc = copy.deepcopy(documents["qp"])
    del doc["solution"]
    doc["A"] = (np.asarray(doc["A"]) * 1e200).tolist()
    assert run_doc(tmp_path, doc, "--h1", "linearized") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: h1: tau=inf at beta=1.0 is out of range") and err.count("\n") == 1


def test_overflowing_stored_solution_is_refused_without_a_warning(tmp_path, capsys, documents):
    # the stored solution's residual overflows, so its gap is inf
    doc = copy.deepcopy(documents["qp"])
    doc["A"] = (np.asarray(doc["A"]) * 1e200).tolist()
    assert run_doc(tmp_path, doc) == 1
    assert capsys.readouterr().err == (
        "error: instance file: stored solution fails the optimality check (gap inf)\n"
    )


H_FILE_REJECTIONS = {
    "nan": (b"[[NaN]]", "H has non-finite entries"),
    "infinity": (b"Infinity", "H has non-finite entries"),
    "beyond-float-range": (b"[[1e400]]", "H has non-finite entries"),
    "empty-array": (b"[]", "H must be 2-D, got shape (0,)"),
    "3-d": (b"[[[1]]]", "H must be 2-D, got shape (1, 1, 1)"),
    "not-json": (b"[[1,", "Expecting value"),
    "not-utf-8": (b"\xff[[1]]", "'utf-8' codec can't decode byte 0xff"),
    "not-square": (b"[[1, 0]]", "H must be square, got shape (1, 2)"),
    "not-psd": (b"[[1, 0], [0, -1]]", "H is not positive semidefinite"),
    "asymmetry-overflows": (b"[[1e308, -1e308], [1e308, 1]]", "H is not symmetric"),
}


@pytest.mark.parametrize("content,message", H_FILE_REJECTIONS.values(), ids=H_FILE_REJECTIONS)
def test_h_file_rejection_names_flag_and_file(tmp_path, capsys, documents, content, message):
    h_path = tmp_path / "h.json"
    h_path.write_bytes(content)
    assert run_doc(tmp_path, documents["qp"], "--h2", f"file:{h_path}") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: h2: file '{h_path}': {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "verify", "bench"])
def test_wrong_size_h_file_names_the_file(tmp_path, capsys, documents, command):
    inst_path, h_path = tmp_path / "instance.json", tmp_path / "h.json"
    inst_path.write_text(json.dumps(documents["qp"]))
    h_path.write_text(json.dumps(np.eye(2).tolist()))  # the x block has 3 variables
    extra = {
        "run": ["--out", str(tmp_path / "out")],
        "verify": ["--trajectory", str(tmp_path / "trajectory.csv")],
        "bench": ["--alpha-grid", "1", "--out", str(tmp_path / "out")],
    }[command]
    argv = [command, "--instance", str(inst_path), "--h1", f"file:{h_path}"]
    assert cli.main(argv + extra) == 1
    assert capsys.readouterr().err == f"error: h1: file '{h_path}': H has 2 rows, expected 3\n"


H_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
    st.sampled_from([10**400, True, None, "1", 1e308, -1e308, 5e-324, math.nan, math.inf]),
)
H_ROWS = st.lists(st.lists(H_ENTRY, max_size=4), max_size=4)
H_MATRIX = st.one_of(H_ROWS, H_ENTRY, st.lists(H_ROWS, max_size=2))


def h_document(dim):
    """h-mode file contents: JSON of a matrix, a wrapped matrix or junk, a
    diagonal PSD matrix of the block's size, or raw bytes."""
    diagonal = st.lists(st.floats(0.0, 3.0), min_size=dim, max_size=dim).map(
        lambda d: np.diag(d).tolist()
    )
    matrix = st.one_of(H_MATRIX, diagonal)
    doc = st.one_of(
        matrix,
        st.fixed_dictionaries({"matrix": matrix}),
        st.dictionaries(st.sampled_from(["matrix", "rows"]), matrix, max_size=2),
    )
    return st.one_of(doc.map(lambda d: json.dumps(d).encode()), st.binary(max_size=8))


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fuzzed_h_file_exits_with_a_documented_code(tmp_path_factory, documents, data):
    """``gadmm run --h1/--h2 file:PATH`` exits 0, or 1 with one stderr line
    naming the flag; never a traceback or a warning."""
    flag, dim = data.draw(st.sampled_from([("h1", 3), ("h2", 2)]))
    content = data.draw(h_document(dim))
    tmp_path = tmp_path_factory.mktemp("hfile")
    h_path = tmp_path / "h.json"
    h_path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        warnings.simplefilter("always")
        code = run_doc(tmp_path, documents["qp"], f"--{flag}", f"file:{h_path}")
    assert [str(w.message) for w in caught] == [], content
    stderr = err.getvalue()
    if code == 1:
        assert stderr.startswith(f"error: {flag}") and stderr.count("\n") == 1, (content, stderr)
    else:
        assert code == 0 and stderr == "", (content, stderr)


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
    naming a flag; never a traceback or a warning.  A draw with an extreme
    finite value may also exit 2 with one ``solver error:`` line: at
    ``--beta 1e308`` beta*A'A stays finite on this QP and swamps P."""
    value = st.one_of(FINITE, st.sampled_from(SPECIAL + EXTREME))
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
    extreme = any(arg.split("=", 1)[1].split(":")[-1] in EXTREME for arg in argv)
    if code == 1:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
        assert any(name in stderr.replace("-", "_") for name in FLAG_NAMES), (argv, stderr)
    elif code == 2 and extreme:
        assert stderr.startswith("solver error: ") and stderr.count("\n") == 1, (argv, stderr)
    else:
        assert code == 0 and stderr == "", (argv, stderr)
