"""``scripts/verdict_digest.py`` on the lasso-replay benchmark workload: a
digest matches itself, a flipped verdict or a changed output file is
reported, and so is how far the last row's iterate cells and the summary's
final values moved; a changed verify.json is a note.  The script pins BLAS
to one thread before numpy loads.  The iterate cells are
picked by header name, so a digest of the layout with gamma_tilde cells
compares with one of the current layout."""

import copy
import os
import runpy
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "verdict_digest.py")


@pytest.fixture(scope="module")
def script():
    return runpy.run_path(SCRIPT)


@pytest.fixture(scope="module")
def lasso_digest(script):
    return script["digest"](["lasso-replay"])


def test_digest_records_each_command_mode(lasso_digest):
    (entry,) = lasso_digest.values()
    assert entry["run"] == 0 and entry["iterations"] == 2000
    assert sorted(entry["sha256"]) == ["summary.json", "trajectory.csv", "verify.json"]
    assert all(len(h) == 64 for h in entry["sha256"].values())
    # x, y and gamma of the lasso's 10/10/10 split at k = 2000, by name
    names = [f"{block}{i}" for block in ("x", "y", "gamma") for i in range(10)]
    assert list(entry["last_row"]) == names
    assert all(isinstance(v, float) for v in entry["last_row"].values())
    # final_step_metric and final_kkt_gap, finite after 2000 steps
    assert len(entry["final"]) == 2 and all(v >= 0.0 for v in entry["final"])
    assert "verify_full" not in entry and entry["verify"]["exit"] == 0
    rows = entry["verify"]["rows"]
    assert len(rows) == 18 and all(row["pass"] for row in rows.values())


def test_digest_matches_itself(script, lasso_digest):
    diffs, notes = script["compare"](lasso_digest, copy.deepcopy(lasso_digest))
    assert diffs == []
    assert notes == [
        "largest relative worst_slack difference: 0 (-)",
        "largest relative last-row iterate difference: 0 (-)",
        "largest relative summary final-value difference: 0 (-)",
    ]


def test_flipped_pass_is_reported(script, lasso_digest):
    flipped = copy.deepcopy(lasso_digest)
    flipped["lasso-replay/0"]["verify"]["rows"]["rho_bound"]["pass"] = False
    diffs, _ = script["compare"](flipped, lasso_digest)
    assert diffs == ["lasso-replay/0 verify rho_bound: pass True -> False"]


def test_changed_output_file_is_reported(script, lasso_digest):
    changed = copy.deepcopy(lasso_digest)
    changed["lasso-replay/0"]["sha256"]["trajectory.csv"] = "0" * 64
    diffs, _ = script["compare"](changed, lasso_digest)
    assert diffs == ["lasso-replay/0: trajectory.csv differs"]


def test_changed_report_is_a_note(script, lasso_digest):
    changed = copy.deepcopy(lasso_digest)
    changed["lasso-replay/0"]["sha256"]["verify.json"] = "0" * 64
    diffs, notes = script["compare"](changed, lasso_digest)
    assert diffs == []
    assert notes[3:] == ["lasso-replay/0: verify.json differs"]


def test_moved_last_row_is_a_note(script, lasso_digest):
    moved = copy.deepcopy(lasso_digest)
    row = moved["lasso-replay/0"]["last_row"]
    row["x3"] += 1e-12 * (1.0 + abs(row["x3"]))
    diffs, notes = script["compare"](moved, lasso_digest)
    assert diffs == []
    assert notes[1] == "largest relative last-row iterate difference: 1e-12 (lasso-replay/0)"
    assert notes[3] == "lasso-replay/0: last-row iterate cells differ by 1e-12"


def test_moved_final_value_is_a_note(script, lasso_digest):
    moved = copy.deepcopy(lasso_digest)
    final = moved["lasso-replay/0"]["final"]
    final[1] += 1e-13 * (1.0 + abs(final[1]))
    diffs, notes = script["compare"](moved, lasso_digest)
    assert diffs == []
    assert notes[2] == "largest relative summary final-value difference: 1e-13 (lasso-replay/0)"
    assert notes[3] == "lasso-replay/0: summary final values differ by 1e-13"



def old_layout(digest, shift=0.0):
    """``digest`` as an earlier version of the script wrote it: each last row
    a list of its x, y and gamma cells, the first one moved by ``shift``,
    then its gamma_tilde cells."""
    old = copy.deepcopy(digest)
    for entry in old.values():
        cells = list(entry["last_row"].values())
        cells[0] += shift
        entry["last_row"] = cells + [0.5] * 10
    return old


def test_old_layout_digest_compares_on_the_iterate_cells(script, lasso_digest):
    diffs, notes = script["compare"](lasso_digest, old_layout(lasso_digest))
    assert diffs == []
    assert notes[1] == "largest relative last-row iterate difference: 0 (-)"
    x0 = lasso_digest["lasso-replay/0"]["last_row"]["x0"]
    diffs, notes = script["compare"](lasso_digest, old_layout(lasso_digest, 1e-9 * (1.0 + abs(x0))))
    assert diffs == []
    assert notes[3] == "lasso-replay/0: last-row iterate cells differ by 1e-09"


def test_old_layout_csv_gives_the_same_cells(script, tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    new.write_text("k,x0,y0,gamma0\r\n0,0.0,0.0,0.0\r\n1,0.25,-1.5,2.0\r\n")
    old.write_text(
        "k,x0,y0,gamma0,gamma_tilde0,dxM,kkt_gap\r\n"
        "0,0.0,0.0,0.0,,,3.0\r\n1,0.25,-1.5,2.0,1.75,0.5,0.125\r\n"
    )
    cells = {"x0": 0.25, "y0": -1.5, "gamma0": 2.0}
    assert script["_last_row"](str(new)) == script["_last_row"](str(old)) == cells


# Loads the script in a fresh process, then prints the thread count of the
# OpenBLAS that numpy loaded, or None if it loaded no OpenBLAS.
BLAS_THREADS_PROBE = r"""
import ctypes, re, runpy, sys
runpy.run_path(sys.argv[1])
threads = None
for lib in set(re.findall(r"/\S*openblas\S*\.so\S*", open("/proc/self/maps").read())):
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get = getattr(ctypes.CDLL(lib), name, None)
        threads = get() if get is not None else threads
print(threads)
"""


def test_blas_threads_are_pinned_before_numpy_loads():
    # numpy is already loaded in pytest's process, so the pin is checked in
    # a process started with two BLAS threads
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {**os.environ, **dict.fromkeys(threads, "2")}
    probe = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE, SCRIPT], env=env,
                           capture_output=True, text=True, check=True)
    if probe.stdout.strip() == "None":
        pytest.skip("numpy loaded no OpenBLAS")
    assert probe.stdout.strip() == "1"
