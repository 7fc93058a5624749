#!/usr/bin/env python3
"""Record the verdicts of the benchmark's commands, and compare two records.

Every command of ``perfbench/workloads.WORKLOADS`` runs through
``gadmm.cli.main`` in a temporary directory: ``gadmm run``, then ``gadmm
verify`` on the trajectory it wrote, with the command's own verify flags
(``--verify-full`` changes nothing: every k is always checked).
The digest, written as JSON to OUT.json, holds each command's exit codes
and iteration count, the sha256 of the trajectory.csv and summary.json its
run wrote and of the verify.json its verify wrote, the x, y and gamma
cells of that CSV's last row (z_K), keyed by their header names, the
summary's final_step_metric and final_kkt_gap, and each report row's pass,
first_k, worst_k and worst_slack.  The cells are picked by name, so a CSV
with the gamma_tilde, dxM and kkt_gap columns of earlier versions gives the
same cells, and a digest written when the last row was a list of its x, y,
gamma and gamma_tilde cells compares with a new one on the x, y and gamma
cells.
The gadmm package is imported from this checkout's ``src``, with BLAS pinned
to one thread, as perfbench pins it, since a dense QP's records differ at
rounding level between thread counts.

Given a baseline digest, the script prints every exit-code, iteration,
output-file, pass and first_k difference, the largest relative worst_slack
difference |s - s_base| / (1 + |s_base|), the largest relative differences
of the last-row iterate cells and of the summary's final values, measured
the same way, overall and for each command whose values differ, and every
moved worst_k, and each command whose verify.json differs (a note: a
refactor may move worst slacks by rounding).  It exits 1 when there is a
difference of the first kind.

Usage: python scripts/verdict_digest.py OUT.json [BASELINE.json]
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

# before numpy is first imported, which reads these once
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (perfbench is a directory of scripts, not a package)

sys.path.insert(0, workloads.SRC)
from gadmm import cli  # noqa: E402

ROW_FIELDS = ("pass", "first_k", "worst_k", "worst_slack")
RUN_FILES = ("trajectory.csv", "summary.json")
REPORT_FILE = "verify.json"
FINAL_FIELDS = ("final_step_metric", "final_kkt_gap")
ITERATE_CELL = re.compile(r"(x|y|gamma)[0-9]+")
# (digest field, its note's label, its per-command lines' label)
RECORDED_VALUES = (
    ("last_row", "last-row iterate", "last-row iterate cells"),
    ("final", "summary final-value", "summary final values"),
)


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(out_dir, name):
    """The hex sha256 of a file the command wrote, None (null) if it wrote none."""
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _last_row(path):
    """The x, y and gamma cells of a trajectory CSV's last row, by header
    name; the other columns (k, and gamma_tilde, dxM and kkt_gap in files
    of earlier versions) are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, last = lines[0].split(","), lines[-1].split(",")
    return {name: float(cell) for name, cell in zip(header, last) if ITERATE_CELL.fullmatch(name)}


def _command_digest(cmd, inst_path, out_dir) -> dict:
    entry = {"command": dataclasses.asdict(cmd)}
    entry["run"] = _quiet(workloads.run_argv(cmd, inst_path, out_dir))
    summary = _read_json(os.path.join(out_dir, "summary.json")) if entry["run"] == 0 else None
    entry["iterations"] = summary and summary["iterations"]
    entry["final"] = summary and [summary[f] for f in FINAL_FIELDS]
    entry["sha256"] = {name: _sha256(out_dir, name) for name in RUN_FILES}
    traj = os.path.join(out_dir, "trajectory.csv")
    entry["last_row"] = _last_row(traj) if os.path.exists(traj) else None
    report = os.path.join(out_dir, REPORT_FILE)
    code, rows = _quiet(workloads.verify_argv(cmd, inst_path, traj, report)), None
    if os.path.exists(report):  # verify writes its report before a failure exits 3
        checks = _read_json(report)["checks"]
        rows = {r["name"]: {f: r[f] for f in ROW_FIELDS} for r in checks}
    entry["verify"] = {"exit": code, "rows": rows}
    entry["sha256"][REPORT_FILE] = _sha256(out_dir, REPORT_FILE)
    return entry


def digest(names=None) -> dict:
    """The digest of every command of the named workloads (all by default),
    keyed ``workload/index``."""
    doc = {}
    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            for inst in workload.instances:
                if _quiet(workloads.generate_argv(inst, tmp)) != 0:
                    raise RuntimeError(f"gadmm generate failed for {inst}")
            for idx, cmd in enumerate(workload.commands):
                inst_path = os.path.join(tmp, cmd.instance + ".json")
                doc[f"{name}/{idx}"] = _command_digest(cmd, inst_path, os.path.join(tmp, f"c{idx}"))
    return doc


def _relative_gap(new, base) -> float:
    """|new - base| / (1 + |base|); a slack written as null (not finite)
    matches only another null."""
    if new == base:
        return 0.0
    if new is None or base is None:
        return math.inf
    return abs(new - base) / (1.0 + abs(base))


def _paired(new, base) -> tuple:
    """Two recorded values as lists compared cell by cell.  A last row is a
    dict of cells by header name; one from an older digest is a list that
    starts with the x, y and gamma cells in header order, so its first cells
    take the other digest's names.  Rows of other names do not pair."""
    if not isinstance(new, dict) and not isinstance(base, dict):
        return new or [], base or []
    names = list(new if isinstance(new, dict) else base)
    new, base = (r if isinstance(r, dict) else dict(zip(names, r or [])) for r in (new, base))
    if new.keys() != base.keys():
        return [None], []
    return [new[name] for name in names], [base[name] for name in names]


def compare(new, base) -> tuple:
    """Return ``(differences, notes)``: one line per exit-code, iteration,
    output-file, pass or first_k difference (or entry found in one digest
    only), and the report lines for worst_slack, the last-row iterate
    cells, the summary's final values, the verify.json hash and worst_k."""
    diffs, moved, cells, reports = [], [], [], []
    worst_gap, worst_at = 0.0, "-"
    worst = {field: (0.0, "-") for field, _, _ in RECORDED_VALUES}  # (difference, where)

    def only_in(where, new_entry):
        diffs.append(f"{where}: only in the {'baseline' if new_entry is None else 'new digest'}")

    for key in sorted(new.keys() | base.keys()):
        a, b = new.get(key), base.get(key)
        if a is None or b is None:
            only_in(key, a)
            continue
        diffs += [f"{key}: {f} {b[f]} -> {a[f]}" for f in ("run", "iterations") if a[f] != b[f]]
        ha, hb = a.get("sha256", {}), b.get("sha256", {})
        diffs += [f"{key}: {name} differs" for name in RUN_FILES if ha.get(name) != hb.get(name)]
        if ha.get(REPORT_FILE) != hb.get(REPORT_FILE):
            reports.append(f"{key}: {REPORT_FILE} differs")
        for field, label, cells_label in RECORDED_VALUES:
            ra, rb = _paired(a.get(field), b.get(field))
            gap = max(map(_relative_gap, ra, rb), default=0.0) if len(ra) == len(rb) else math.inf
            if gap > 0.0:
                cells.append(f"{key}: {cells_label} differ by {gap:.3g}")
            if gap > worst[field][0]:
                worst[field] = (gap, key)
        va, vb = a["verify"], b["verify"]
        if va["exit"] != vb["exit"]:
            diffs.append(f"{key} verify: exit {vb['exit']} -> {va['exit']}")
        rows_a, rows_b = va["rows"] or {}, vb["rows"] or {}
        for row in sorted(rows_a.keys() | rows_b.keys()):
            x, y, where = rows_a.get(row), rows_b.get(row), f"{key} verify {row}"
            if x is None or y is None:
                only_in(where, x)
                continue
            diffs += [f"{where}: {f} {y[f]} -> {x[f]}" for f in ("pass", "first_k") if x[f] != y[f]]
            if x["worst_k"] != y["worst_k"]:
                moved.append(f"{where}: worst_k {y['worst_k']} -> {x['worst_k']}")
            gap = _relative_gap(x["worst_slack"], y["worst_slack"])
            if gap > worst_gap:
                worst_gap, worst_at = gap, where
    notes = [f"largest relative worst_slack difference: {worst_gap:.3g} ({worst_at})"]
    for field, label, _ in RECORDED_VALUES:
        gap, where = worst[field]
        notes.append(f"largest relative {label} difference: {gap:.3g} ({where})")
    return diffs, notes + cells + reports + moved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    doc = digest()
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")
    if len(argv) == 1:
        return 0
    diffs, notes = compare(doc, _read_json(argv[1]))
    for line in diffs + notes:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
