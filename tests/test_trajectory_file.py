"""The trajectory CSV contract: what ``load_trajectory_csv`` accepts, and how
``gadmm verify`` rejects a corrupt file (exit 1, one ``error:`` line naming
the file row, or the columns a file of another layout has too many)."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gadmm import certificates, cli, hpe, problems, records, solver

from conftest import count_forks

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
    "short-row": (lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0]] + ls[5:], "row 5 has 7 cells"),
    "long-row": (lambda ls: ls[:4] + [ls[4] + ",0.5"] + ls[5:], "row 5 has 9 cells"),
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
    with pytest.raises(ValueError, match="row 6 has 9 cells"):
        solver.load_trajectory_csv(path, inst, solver.GadmmParams(beta=1.0))


@pytest.mark.parametrize("value", ["", "junk"], ids=["blank", "junk"])
def test_row_0_is_read_like_every_row(tmp_path, recorded, value):
    # row 0 holds every cell, its gamma cells included
    inst_path, lines = recorded
    assert lines[0] == "k,x0,x1,x2,y0,y1,gamma0,gamma1"
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join(with_cell(lines, 2, N + P + M, value)) + "\n", encoding="utf-8")
    inst = problems.load_instance(inst_path)
    with pytest.raises(ValueError, match="row 2 has a non-numeric cell"):
        solver.load_trajectory_csv(path, inst, solver.GadmmParams(beta=1.0))


def test_old_layout_names_its_extra_columns(tmp_path, capsys, recorded):
    # a file with the gamma_tilde, dxM and kkt_gap columns of earlier
    # versions, row 0's gamma_tilde and dxM cells blank
    inst_path, lines = recorded
    extra = ["gamma_tilde0", "gamma_tilde1", "dxM", "kkt_gap"]
    old = [",".join([lines[0], *extra]), lines[1] + ",,,,0.5"]
    old += [line + ",0.25,-0.25,0.125,0.5" for line in lines[2:]]
    path = tmp_path / "trajectory.csv"
    path.write_text("".join(line + "\r\n" for line in old), encoding="utf-8")
    code = cli.main(["verify", "--instance", str(inst_path), "--trajectory", str(path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: trajectory file: unexpected columns gamma_tilde0, gamma_tilde1, dxM, kkt_gap\n"
    )


def test_finite_row_whose_gamma_tilde_overflows_is_named(tmp_path, capsys, recorded):
    # gamma_tilde_3 = gamma_2 - beta(A x_3 + B y_2 - b) is derived from file
    # rows 4 and 5: with gamma_2's first cell -1e308 and (A x_3)'s first
    # entry about 1e308, every cell is finite but gamma_tilde_3 overflows
    inst_path, lines = recorded
    inst, params = problems.load_instance(inst_path), solver.GadmmParams(beta=1.0)
    lines = with_cell(lines, 4, 1 + N + P, "-1e308")
    for col in range(1, 1 + N):
        lines = with_cell(lines, 5, col, repr(math.copysign(1e308, inst.A[0, col - 1])))
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    Z = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
    assert np.isfinite(Z).all() and not np.isfinite(hpe.gamma_tilde(inst, Z, 1.0)[2]).all()
    with pytest.raises(ValueError) as info:
        solver.load_trajectory_csv(path, inst, params)
    assert str(info.value) == "trajectory file: non-finite iterate value in row 5"
    code = cli.main(["verify", "--instance", str(inst_path), "--trajectory", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


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
    )
    path = tmp_path_factory.mktemp("round-trip") / "trajectory.csv"
    solver.save_trajectory_csv(traj, path)
    if newline == "\n":
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    # finite cells whose derived gamma_tilde_k overflows are refused, naming
    # the file row of z_k; every other record reads back bit for bit
    overflows = ~np.isfinite(hpe.gamma_tilde(traj.instance, traj.Z, traj.params.beta)).all(axis=1)
    if overflows.any():
        row = int(np.argmax(overflows)) + 3
        with pytest.raises(ValueError, match=f"non-finite iterate value in row {row}$"):
            solver.load_trajectory_csv(path, traj.instance, traj.params)
        return
    back = solver.load_trajectory_csv(path, traj.instance, traj.params)
    assert back.Z.shape == traj.Z.shape
    assert np.array_equal(back.Z.view(np.int64), traj.Z.view(np.int64))


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
        assert np.array_equal(back.Z, clean.Z)


def test_bare_carriage_return_is_not_a_line_break(tmp_path, recorded):
    inst_path, lines = recorded
    path = tmp_path / "trajectory.csv"
    path.write_text("\r".join(lines) + "\r", encoding="utf-8")
    inst = problems.load_instance(inst_path)
    with pytest.raises(ValueError, match="unexpected header"):
        solver.load_trajectory_csv(path, inst, solver.GadmmParams(beta=1.0))


@pytest.mark.parametrize("kind", ["qp", "lasso"])
def test_report_of_a_run_read_back_is_byte_identical(tmp_path, kind):
    # the record is z_0..z_K, which the file holds bit for bit, and the
    # verifier derives everything else from it
    if kind == "qp":
        inst, h = problems.generate_qp(1, 8, 6, 4), solver.ZeroH()
    else:
        inst, h = problems.generate_lasso(7, 10, 20, 0.1), solver.LinearizedH()
    params = solver.GadmmParams(beta=1.0, alpha=1.5, h1=h, h2=h, max_iter=200, stop_tol=0.0)
    traj = solver.run(inst, params)
    path = tmp_path / "trajectory.csv"
    solver.save_trajectory_csv(traj, path)
    back = solver.load_trajectory_csv(path, inst, params)
    reports = [certificates.full_verification(t, inst.solution).to_dict() for t in (traj, back)]
    assert records.json_text(reports[0]) == records.json_text(reports[1])


# Cells whose shortest text has 15, 16 and 17 significant digits: a
# mantissa of that many digits times a power of ten, read as a double.
DECIMAL_DIGITS = st.builds(
    lambda digits, mantissa, exp: float(f"{mantissa % 10**digits}e{exp}"),
    st.sampled_from([15, 16, 17]),
    st.integers(10**16, 10**17 - 1),
    st.integers(-330, 300),
)
ANY_CELL = st.one_of(
    EXTREME,
    st.sampled_from([math.inf, -math.inf, math.nan, 1e16, 12345678901234568.0, 9.9999999999999984e16]),
    st.floats(1e16, 1e17, exclude_max=True),
    DECIMAL_DIGITS,
    st.integers(-(10**6), 10**6).map(lambda i: i / 10),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 6))
def test_write_then_read_is_bit_exact(tmp_path_factory, data, rows, cols):
    table = data.draw(hnp.arrays(np.float64, (rows, cols), elements=ANY_CELL))
    header = ["k", *(f"c{j}" for j in range(cols))]
    path = tmp_path_factory.mktemp("cells") / "table.csv"
    records.write_csv(path, header, table)
    back = records.read_csv(path, header)
    assert np.array_equal(back.view(np.int64), table.view(np.int64))


def test_short_decimals_keep_their_repr(tmp_path):
    # 0.1 is mu of an l1 block, whose clamped multipliers are exactly +-mu;
    # 1/3 and pi need 17 digits here, where their repr has 16
    cells = [0.1, -0.1, 0.0, -0.0, 3.0, 1 / 3, -math.pi]
    path = tmp_path / "table.csv"
    records.write_csv(path, ["k", *(f"c{j}" for j in range(len(cells)))], np.array([cells]))
    row = path.read_bytes().split(b"\r\n")[1].decode()
    assert row == "0,0.1,-0.1,0.0,-0.0,3.0,0.33333333333333331,-3.1415926535897931"
    assert row.split(",")[6:] == ["%.17g" % (1 / 3), "%.17g" % -math.pi]


def test_rows_of_different_formats_give_the_serial_bytes_forked(tmp_path, monkeypatch):
    # 3000 rows of 21 cells split into three ranges; every row mixes short
    # decimals and 17-digit cells in its own pattern
    rng = np.random.default_rng(5)
    table = rng.standard_normal((3000, 20))
    short = rng.random(table.shape) < 0.3
    table[short] = np.round(table[short], 1)
    header = ["k", *(f"c{j}" for j in range(20))]
    serial, forked = tmp_path / "serial.csv", tmp_path / "forked.csv"
    assert count_forks(monkeypatch, cpus=1) == []
    records.write_csv(serial, header, table)
    counted = count_forks(monkeypatch, cpus=3)
    records.write_csv(forked, header, table)
    assert len(counted) == 2
    assert forked.read_bytes() == serial.read_bytes()
    assert np.array_equal(records.read_csv(forked, header).view(np.int64), table.view(np.int64))


def test_file_of_repr_cells_verifies_as_the_new_one(tmp_path, recorded):
    # a trajectory written with every cell's shortest repr, as earlier
    # versions did, holds the same doubles and gives the same report
    inst_path, lines = recorded
    new = tmp_path / "trajectory.csv"
    new.write_text("".join(line + "\r\n" for line in lines), encoding="utf-8")
    header = lines[0].split(",")
    Z = records.read_csv(new, header)
    old = tmp_path / "old.csv"
    with open(old, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, z in enumerate(Z.tolist()):
            writer.writerow([str(k), *map(repr, z)])
    assert old.read_bytes() != new.read_bytes()
    assert np.array_equal(records.read_csv(old, header).view(np.int64), Z.view(np.int64))
    reports = []
    for path in (new, old):
        report = tmp_path / f"{path.stem}-verify.json"
        argv = ["verify", "--instance", str(inst_path), "--trajectory", str(path)]
        assert cli.main(argv + ["--stop-tol", "0", "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
