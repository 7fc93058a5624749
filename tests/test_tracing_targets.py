"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions
by module and attribute name; every name it lists must exist, or the
traced benchmark run breaks."""

import csv
import importlib
import importlib.util
import os

import numpy as np

from gadmm import cli, hpe, linalg, problems

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tracer_targets():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def owner_of(module, attr):
    """(object holding the attribute, its last name), looked up the way the
    tracer does; a dotted attribute names a method."""
    owner = importlib.import_module(f"gadmm.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = []
    for module, attr, _ in targets:
        owner, leaf = owner_of(module, attr)
        # inherited names do not count: the tracer reads the owner's __dict__
        if leaf not in owner.__dict__:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_build_metric_probes_through_the_module_attribute(monkeypatch):
    # the benchmark reads ``linalg.is_psd_s`` off the is_psd span under
    # build_metric, so the probe on M must go through that attribute, once
    inst = problems.generate_qp(1, 6, 5, 3)
    real = linalg.is_psd
    calls = []

    def counting(Q, *args, **kwargs):
        calls.append(np.shape(Q))
        return real(Q, *args, **kwargs)

    monkeypatch.setattr(linalg, "is_psd", counting)
    hpe.build_metric(inst, np.zeros((6, 6)), np.zeros((5, 5)), 1.0, 1.5)
    assert calls == [(14, 14)]


def count_calls(monkeypatch, module, attr, calls):
    """Replace ``module.attr`` with a wrapper that counts its calls in
    ``calls["module.attr"]``."""
    owner, leaf = owner_of(module, attr)
    real, name = owner.__dict__[leaf], f"{module}.{attr}"

    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, leaf, counting)


def test_verify_calls_every_certificate_target(tmp_path, monkeypatch):
    # the benchmark's per-layer metrics read these wrappers; a check that
    # bypasses its module attribute would read as zero time, not as an error
    targets = [(m, a) for m, a, _ in tracer_targets() if m in ("hpe", "certificates")]
    inst_path = tmp_path / "qp.json"
    problems.save_instance(problems.generate_qp(1, 6, 5, 3), inst_path)
    flags = ["--instance", str(inst_path), "--alpha", "1.5", "--max-iter", "50", "--stop-tol", "0"]
    assert cli.main(["run", *flags, "--out", str(tmp_path / "run")]) == 0
    calls = dict.fromkeys((f"{m}.{a}" for m, a in targets), 0)
    for module, attr in targets:
        count_calls(monkeypatch, module, attr, calls)
    verify = ["verify", *flags, "--trajectory", str(tmp_path / "run" / "trajectory.csv"),
              "--out", str(tmp_path / "report.json")]
    assert cli.main(verify) == 0
    assert [name for name, n in calls.items() if n == 0] == []


def test_bench_makes_one_ergodic_pass(monkeypatch, tmp_path):
    calls = {"certificates._ergodic_checks": 0, "certificates.pointwise_certificate": 0}
    for name in calls:
        count_calls(monkeypatch, *name.split(".", 1), calls)
    inst_path = tmp_path / "qp.json"
    problems.save_instance(problems.generate_qp(1, 6, 5, 3), inst_path)
    bench = ["bench", "--instance", str(inst_path), "--alpha-grid", "1.5", "--max-iter", "200",
             "--stop-tol", "1e-9", "--out", str(tmp_path / "bench")]
    assert cli.main(bench) == 0
    with open(tmp_path / "bench" / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["verification"] for row in rows] == ["pass"]
    assert calls == {"certificates._ergodic_checks": 1, "certificates.pointwise_certificate": 1}
