"""The trajectory CSV contract: what ``load_trajectory_csv`` accepts, and how
``gadmm verify`` rejects a corrupt file (exit 1, one ``error:`` line naming
the file row)."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gadmm import cli, problems, solver

N, P, M = 3, 2, 2
K = 5


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A QP instance file and the CSV lines of a K = 5 run on it."""
    root = tmp_path_factory.mktemp("recorded")
    inst_path = root / "qp.json"
    problems.save_instance(problems.generate_qp(1, N, P, M), inst_path)
    out = root / "run"
    argv = ["run", "--instance", str(inst_path), "--max-iter", str(K), "--stop-tol", "0"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    return inst_path, (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()


def with_cell(lines, row, col, value):
    """The lines with one cell replaced; ``row`` counts file rows from 1."""
    lines = list(lines)
    cells = lines[row - 1].split(",")
    cells[col] = value
    lines[row - 1] = ",".join(cells)
    return lines


CORRUPTIONS = {
    "short-row": (lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0]] + ls[5:], "row 5 has 11 cells"),
    "long-row": (lambda ls: ls[:4] + [ls[4] + ",0.5"] + ls[5:], "row 5 has 13 cells"),
    "skipped-k": (lambda ls: with_cell(ls, 5, 0, "4"), "not contiguous at row 5"),
    "float-k": (lambda ls: with_cell(ls, 5, 0, "3.0"), "row 5: iteration index '3.0'"),
    "non-numeric-x": (lambda ls: with_cell(ls, 5, 1, "abc"), "row 5 has a non-numeric cell"),
    "non-numeric-x-row-0": (lambda ls: with_cell(ls, 2, 1, "abc"), "row 2 has a non-numeric"),
    "non-numeric-k-row-0": (lambda ls: with_cell(ls, 2, 0, "abc"), "row 2 has a non-numeric"),
    "underscore-x-row-0": (lambda ls: with_cell(ls, 2, 1, "1_0"), "row 2 has a non-numeric"),
    "blank-line": (lambda ls: ls[:4] + [""] + ls[4:], "row 5 has 0 cells"),
    "header-only": (lambda ls: ls[:1], "no rows"),
    "empty": (lambda ls: [], "unexpected header None"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_file_is_named_and_exits_one(tmp_path, capsys, recorded, case):
    inst_path, lines = recorded
    corrupt, message = CORRUPTIONS[case]
    path = tmp_path / "trajectory.csv"
    path.write_text("".join(line + "\r\n" for line in corrupt(lines)), encoding="utf-8")
    inst = problems.load_instance(inst_path)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        solver.load_trajectory_csv(path, inst, solver.GadmmParams(beta=1.0))
    assert str(info.value).startswith("trajectory file: ")
    code = cli.main(["verify", "--instance", str(inst_path), "--trajectory", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_first_bad_row_is_named(tmp_path, recorded):
    # a non-finite cell at row 3 is reported only after every row has
    # parsed; a cell-count error at row 6 comes first
    inst_path, lines = recorded
    lines = with_cell(lines, 3, 1, "nan")
    lines = with_cell(lines, 7, 0, "9")
    lines[5] += ",0"
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inst = problems.load_instance(inst_path)
    with pytest.raises(ValueError, match="row 6 has 13 cells"):
        solver.load_trajectory_csv(path, inst, solver.GadmmParams(beta=1.0))


def test_row_0_cells_after_gamma_are_not_read(tmp_path, recorded):
    inst_path, lines = recorded
    inst, params = problems.load_instance(inst_path), solver.GadmmParams(beta=1.0)
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    clean = solver.load_trajectory_csv(path, inst, params)
    for col in range(1 + N + P + M, len(lines[1].split(","))):
        lines = with_cell(lines, 2, col, "junk")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    back = solver.load_trajectory_csv(path, inst, params)
    for name in ("X", "Y", "G", "Gt"):
        assert np.array_equal(getattr(back, name), getattr(clean, name)), name


EXTREME = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.1, 1 / 3, 1.0000000000000002]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.fixture(scope="module")
def base_trajectory():
    """A run on a QP with its metric built, whose iterates a test replaces."""
    inst = problems.generate_qp(1, N, P, M)
    traj = solver.run(inst, solver.GadmmParams(beta=1.0, max_iter=1, stop_tol=0.0))
    traj.metric  # built once; dataclasses.replace keeps it
    return traj


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), iterations=st.integers(0, 4), newline=st.sampled_from(["\r\n", "\n"]))
def test_round_trip_is_bit_identical(tmp_path_factory, base_trajectory, data, iterations, newline):
    def draw(rows, cols):
        return data.draw(hnp.arrays(np.float64, (rows, cols), elements=EXTREME))

    traj = dataclasses.replace(
        base_trajectory,
        Z=np.hstack([draw(iterations + 1, N), draw(iterations + 1, P), draw(iterations + 1, M)]),
        Gt=draw(iterations, M),
    )
    path = tmp_path_factory.mktemp("round-trip") / "trajectory.csv"
    solver.save_trajectory_csv(traj, path)
    if newline == "\n":
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    back = solver.load_trajectory_csv(path, traj.instance, traj.params)
    for name in ("X", "Y", "G", "Gt"):
        want, got = getattr(traj, name), getattr(back, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


@pytest.mark.parametrize(
    "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]
)
def test_lines_break_only_at_newlines(tmp_path, char):
    # str.splitlines would end file row 7 at ``char`` and find a blank row 8;
    # the cell parser decides instead, so the file loads or row 7 is named
    inst = problems.generate_qp(1, N, P, M)
    params = solver.GadmmParams(beta=1.0, max_iter=10, stop_tol=0.0)
    path = tmp_path / "trajectory.csv"
    solver.save_trajectory_csv(solver.run(inst, params), path)
    clean = solver.load_trajectory_csv(path, inst, params)
    lines = path.read_bytes().decode().split("\r\n")
    lines[6] += char
    path.write_bytes("\r\n".join(lines).encode())
    try:
        back = solver.load_trajectory_csv(path, inst, params)
    except ValueError as exc:
        assert "row 7" in str(exc)
    else:
        for name in ("X", "Y", "G", "Gt"):
            assert np.array_equal(getattr(back, name), getattr(clean, name)), name


def test_bare_carriage_return_is_not_a_line_break(tmp_path, recorded):
    inst_path, lines = recorded
    path = tmp_path / "trajectory.csv"
    path.write_text("\r".join(lines) + "\r", encoding="utf-8")
    inst = problems.load_instance(inst_path)
    with pytest.raises(ValueError, match="unexpected header"):
        solver.load_trajectory_csv(path, inst, solver.GadmmParams(beta=1.0))
