"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import Command, Instance, Workload

sys.path.insert(0, workloads.SRC)

# A reduced workload that takes every path the real ones take: lasso at
# alpha = 2, QP runs to tolerance on both sides of alpha = 2, and a
# full-grid verification.
TINY = Workload(
    name="tiny",
    why="reduced size for tests",
    instances=(
        Instance("lasso3", "lasso", 3, (("n", 4), ("m-data", 8), ("mu", 0.1))),
        Instance("qp2", "qp", 2, (("n", 4), ("p", 3), ("m", 2))),
    ),
    commands=(
        Command("lasso3", 2.0, 60, 0.0, h="linearized"),
        Command("qp2", 1.0, 2000, 1e-9),
        Command("qp2", 2.0, 2000, 1e-9),
        Command("qp2", 1.5, 40, 0.0, verify_full=True),
    ),
)


def _bench(workload, seed, trace, **kw):
    kw.setdefault("min_ops", 1)
    kw.setdefault("setup_reps", 1)
    result, detail, _ = run.bench(workload, seed, 0, trace, **kw)
    return result, detail


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_each_workload(name, trace):
    result, detail = _bench(workloads.WORKLOADS[name], 0, trace)
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.LAYER_METRICS if trace else run.E2E_METRICS
    assert list(result["metrics"]) == list(expected)
    assert all(math.isfinite(v) for v in _values(result).values())
    json.dumps(result, allow_nan=False)
    json.dumps(detail, allow_nan=False)


def test_counts_repeat_exactly_across_runs_and_seeds():
    first, detail = _bench(TINY, 1, 1, min_ops=2)
    second, _ = _bench(TINY, 2, 1, min_ops=2)
    assert first["correct"] and second["correct"]
    assert detail["counts_repeat"] and all(detail["counts_repeat"].values())
    a, b = _values(first), _values(second)
    for name in run.COUNT_METRICS:
        assert a[name] == b[name], name
    assert a["solver.iterations"] > 100


def test_injected_failure_is_counted_and_metrics_stay_reported():
    calls = []

    def truncate_first_trajectory(out_dir):
        calls.append(out_dir)
        if len(calls) == 1:
            path = os.path.join(out_dir, "trajectory.csv")
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data[: len(data) // 2])

    result, detail = _bench(TINY, 1, 0, min_ops=2, fault=truncate_first_trajectory)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert not result["correct"]
    assert detail["failed_frac"] == 0.5 and detail["errors"]
    values = _values(result)
    assert list(values) == list(run.E2E_METRICS)
    assert all(math.isfinite(v) and v > 0 for v in values.values())


def test_nonfinite_report_values_are_counted(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"pass": true, "checks": [{"worst_slack": Infinity}, '
                    '{"worst_slack": -Infinity}, {"worst_slack": NaN}, {"worst_slack": 1.5}]}')
    report = run.load_json_lenient(path)
    assert run.count_nonfinite(report) == 3
    assert run.check_report(report, None) == []


def test_check_run_applies_the_stopping_contract():
    stop = Command("qp", 1.0, 100, 1e-9)
    fixed = Command("qp", 1.0, 100, 0.0)
    ok = {"iterations": 40, "final_step_metric": 1e-10, "final_kkt_gap": 1e-11}
    assert run.check_run(stop, ok) == []
    assert run.check_run(stop, dict(ok, iterations=100))
    assert run.check_run(stop, dict(ok, final_kkt_gap=1e-8))
    assert run.check_run(fixed, dict(ok, iterations=100)) == []
    assert run.check_run(fixed, ok)


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(20, 0, -1)))
    assert (value, pct, beyond) == (10, 50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_exits_nonzero_without_gadmm_sources(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench")
    bench_json = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        shutil.copy(bench_json, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qp-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
