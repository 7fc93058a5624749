"""Closed-loop benchmark of the gadmm user pipeline: run, record, replay, certify.

One client runs operations back to back for ``--seconds`` seconds.  An
operation runs every command of the workload as a user would, through
``gadmm.cli.main`` in this process: ``gadmm run`` (solve, trajectory CSV,
summary JSON) and then ``gadmm verify`` (load instance and CSV, replay the
certificates, report JSON).  Every output is checked; an operation that
fails a check is counted, not fatal.

    python3 perfbench/run.py --workload qp-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate and the metrics are the per-layer ones (see ``tracing.py``),
including the tracing overhead.  The line before it holds sample counts,
tail percentile, failures and the environment.  Spans of a traced run
are written to ``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# The tail percentile needs ten operations beyond it, so a run measures at
# least eleven operations even if that takes longer than --seconds.
MIN_OPS = 11
# Each traced run alternates untraced and traced operations, at least this
# many of each.
MIN_TRACED_OPS = 3
# Set-up runs in fresh processes; its metric is the median of this many.
SETUP_REPS = 7
# Repeats of the solver micro-measurements in a traced run.
MICRO_REPS = 3
# OpenBLAS and OpenMP threads, pinned before numpy loads.  One thread keeps
# dense timings steady on a shared 2-core machine and is the
# single-threaded baseline.
BLAS_THREADS = 1
# HostProbe kernel times at the reference host speed: the medians on the
# 2-core machine the bounds were set on (see README.md).
REFERENCE_PYTHON_S = 0.0016
REFERENCE_BLAS_S = 0.00042
# A stopping tolerance that never fires: the stopping rule runs every
# iteration, and the run still lasts max_iter iterations.
NEVER_STOP_TOL = 1e-300

E2E_METRICS = {
    "setup_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "pipeline_s.tail": "s",
    "certified_iter_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {
    "problems.generate_s": "s",
    "problems.ground_truth_s": "s",
    "problems.load_instance_s": "s",
    "problems.kkt_gap_calls": "count",
    "problems.kkt_gap_busy_s": "s",
    "problems.kkt_gap_calls_per_iter": "count/iter",
    "problems.self_s": "s",
    "solver.setup_s": "s",
    "solver.iter_us": "us",
    "solver.stop_rule_us": "us",
    "solver.iterations": "count",
    "solver.save_csv_s": "s",
    "solver.load_csv_s": "s",
    "solver.csv_bytes": "B",
    "solver.self_s": "s",
    "linalg.as_vector_calls": "count",
    "linalg.as_vector_busy_s": "s",
    "linalg.seminorm_sq_calls": "count",
    "linalg.seminorm_sq_busy_s": "s",
    "linalg.is_psd_s": "s",
    "linalg.spd_factor_s": "s",
    "linalg.self_s": "s",
    "oracles.fenchel_gap_calls": "count",
    "oracles.fenchel_gap_busy_s": "s",
    "oracles.fenchel_gap_calls_per_iter": "count/iter",
    "oracles.self_s": "s",
    "hpe.metric_builds_per_verify": "count",
    "hpe.build_metric_s": "s",
    "hpe.certify_hpe_s": "s",
    "hpe.check_delta_s": "s",
    "hpe.check_rho_s": "s",
    "hpe.check_rho_contractive_s": "s",
    "hpe.check_fejer_s": "s",
    "hpe.self_s": "s",
    "certificates.pointwise_s": "s",
    "certificates.ergodic_s": "s",
    "certificates.full_verification_self_s": "s",
    "certificates.self_s": "s",
    "cli.run_self_s": "s",
    "cli.verify_self_s": "s",
    "cli.report_nonfinite_values": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer values that must repeat exactly across operations, runs and seeds.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "B")
) + ("problems.kkt_gap_calls_per_iter", "oracles.fenchel_gap_calls_per_iter")


class SetupError(RuntimeError):
    """The workload's inputs could not be generated."""


@dataclass
class OpResult:
    """Timings and outcome of one operation."""

    run_s: float = 0.0
    verify_s: float = 0.0
    iterations: int = 0
    csv_bytes: int = 0
    nonfinite: int = 0
    errors: list = field(default_factory=list)
    slowness: float = 1.0  # host slowness around the operation (HostProbe)

    @property
    def pipeline_s(self) -> float:
        return self.run_s + self.verify_s


class HostProbe:
    """Measures how slowly the shared host runs code right now.

    On a shared machine the same code runs up to 1.5 times slower for
    seconds to minutes at a time, in pure Python and in BLAS alike, and no
    run length averages that out.  The probe times two fixed kernels that
    share no code with gadmm, a Python loop and a small matrix product,
    each the best of three, and returns their mean time relative to the
    reference times.  It runs between operations, never inside a timed
    command, and each operation's times are divided by the mean of the
    probes taken just before and just after it.
    """

    def __init__(self):
        import numpy as np  # here, so that main() pins BLAS threads first

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((120, 120))
        self._b = rng.standard_normal((120, 120))

    def _python(self):
        total = 0
        for i in range(20000):
            total += i * i % 7
        return total

    def _blas(self):
        for _ in range(6):
            self._a @ self._b

    @staticmethod
    def _best_of_3(kernel) -> float:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def slowness(self) -> float:
        return 0.5 * (
            self._best_of_3(self._python) / REFERENCE_PYTHON_S
            + self._best_of_3(self._blas) / REFERENCE_BLAS_S
        )


# ---------------------------------------------------------------------------
# output checks


def load_json_lenient(path):
    """Parse JSON that may hold the non-standard tokens Infinity and NaN."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def count_nonfinite(doc) -> int:
    """Number of infinite or NaN numbers anywhere in a parsed JSON document."""
    if isinstance(doc, float):
        return 0 if math.isfinite(doc) else 1
    if isinstance(doc, dict):
        return sum(count_nonfinite(v) for v in doc.values())
    if isinstance(doc, list):
        return sum(count_nonfinite(v) for v in doc)
    return 0


def check_run(cmd, summary) -> list:
    """Failures of one ``gadmm run`` against its summary JSON."""
    iters = summary["iterations"]
    if cmd.stop_tol == 0:
        if iters != cmd.max_iter:
            return [f"stop_tol=0 run recorded {iters} of {cmd.max_iter} iterations"]
        return []
    errors = []
    if iters >= cmd.max_iter:
        errors.append(f"run hit max_iter={cmd.max_iter} before stop_tol={cmd.stop_tol:g}")
    step, gap = summary["final_step_metric"], summary["final_kkt_gap"]
    if step is None or not step <= cmd.stop_tol or not gap <= cmd.stop_tol:
        errors.append(f"final step {step} or gap {gap} exceeds stop_tol={cmd.stop_tol:g}")
    return errors


def check_report(report, iterations) -> list:
    errors = []
    if report.get("pass") is not True:
        errors.append(f"report does not pass: {report.get('pass')!r}")
    replayed = report.get("meta", {}).get("iterations")
    if replayed != iterations:
        errors.append(f"verify replayed {replayed} iterations, run recorded {iterations}")
    return errors


# ---------------------------------------------------------------------------
# one operation


def _command(cli, name, argv, tracer):
    """Run one gadmm command in-process; returns (exit code or None, seconds, message)."""
    out = io.StringIO()
    span = tracer.span(name, "cli") if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), span:
            rc = cli.main(argv)
    except Exception as exc:  # a crash is one failed operation, not a failed benchmark
        return None, time.perf_counter() - start, f"{name} raised {exc!r}"
    return rc, time.perf_counter() - start, out.getvalue().strip()


def run_operation(cli, order, inputs, out_root, tracer=None, fault=None) -> OpResult:
    """Run then verify every command in ``order``; check every output.

    ``fault(out_dir)``, when given, runs between each run and its verify.
    """
    op = OpResult()
    for idx, cmd in enumerate(order):
        out_dir = os.path.join(out_root, f"c{idx}")
        inst_path = os.path.join(inputs, cmd.instance + ".json")
        traj_path = os.path.join(out_dir, "trajectory.csv")
        report_path = os.path.join(out_dir, "report.json")
        rc, secs, msg = _command(cli, "cli.run", workloads.run_argv(cmd, inst_path, out_dir), tracer)
        op.run_s += secs
        if rc != 0:
            op.errors.append(f"{cmd}: run exited {rc}: {msg}")
            continue
        if fault is not None:
            fault(out_dir)
        argv = workloads.verify_argv(cmd, inst_path, traj_path, report_path)
        rc, secs, msg = _command(cli, "cli.verify", argv, tracer)
        op.verify_s += secs
        if rc != 0:
            op.errors.append(f"{cmd}: verify exited {rc}: {msg}")
            continue
        try:
            summary = load_json_lenient(os.path.join(out_dir, "summary.json"))
            report = load_json_lenient(report_path)
            iters = summary["iterations"]
            errors = check_run(cmd, summary) + check_report(report, iters)
            op.csv_bytes += os.path.getsize(traj_path)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            op.errors.append(f"{cmd}: unreadable output: {exc!r}")
            continue
        op.iterations += iters
        op.nonfinite += count_nonfinite(report)
        op.errors.extend(f"{cmd}: {e}" for e in errors)
    return op


# ---------------------------------------------------------------------------
# statistics


def tail(values) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it.  Below eleven samples it is the maximum."""
    vals = sorted(values)
    n = len(vals)
    if n < 11:
        return vals[-1], 100.0, 0
    return vals[n - 11], 100.0 * (n - 10) / n, 10


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workload, work, reps, probe) -> tuple:
    """Generate the workload's inputs ``reps`` times in fresh processes.

    Returns (set-up seconds of each repeat, each divided by the host
    slowness around it, the same undivided, directory of the last inputs).
    """
    scaled, times = [], []
    before = probe.slowness()
    for rep in range(reps):
        out = os.path.join(work, f"inputs{rep}")
        os.makedirs(out)
        argvs = [workloads.generate_argv(inst, out) for inst in workload.instances]
        proc = subprocess.run(
            [sys.executable, workloads.__file__, json.dumps(argvs)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"input generation failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        after = probe.slowness()
        scaled.append(times[-1] / (0.5 * (before + after)))
        before = after
    return scaled, times, out


# ---------------------------------------------------------------------------
# traced measurements


def _layer_values(stats, op, n_verify) -> dict:
    calls, busy = stats.total_calls, stats.total_busy
    iters = max(op.iterations, 1)
    psd_on_m = stats.durations.get(("hpe.build_metric", "linalg.is_psd"), [])
    self_by_name = stats.self_by_name
    vals = {
        "problems.load_instance_s": busy("problems.load_instance"),
        "problems.kkt_gap_calls": calls("problems.kkt_gap"),
        "problems.kkt_gap_busy_s": busy("problems.kkt_gap"),
        "problems.kkt_gap_calls_per_iter": calls("problems.kkt_gap", "cli.run") / iters,
        "solver.iterations": op.iterations,
        "solver.save_csv_s": busy("solver.save_trajectory_csv"),
        "solver.load_csv_s": busy("solver.load_trajectory_csv"),
        "solver.csv_bytes": op.csv_bytes,
        "linalg.as_vector_calls": calls("linalg.as_vector"),
        "linalg.as_vector_busy_s": busy("linalg.as_vector"),
        "linalg.seminorm_sq_calls": calls("linalg.seminorm_sq"),
        "linalg.seminorm_sq_busy_s": busy("linalg.seminorm_sq"),
        "linalg.is_psd_s": _median(psd_on_m),
        "linalg.spd_factor_s": busy("linalg.SpdFactor.__init__"),
        "oracles.fenchel_gap_calls": calls("oracles.fenchel_gap"),
        "oracles.fenchel_gap_busy_s": busy("oracles.fenchel_gap"),
        "oracles.fenchel_gap_calls_per_iter": calls("oracles.fenchel_gap", "cli.verify") / iters,
        "hpe.metric_builds_per_verify": calls("hpe.build_metric", "cli.verify") / n_verify,
        "hpe.build_metric_s": busy("hpe.build_metric"),
        "hpe.certify_hpe_s": busy("hpe.certify_hpe"),
        "hpe.check_delta_s": busy("hpe.check_delta_inequalities"),
        "hpe.check_rho_s": busy("hpe.check_rho_bound"),
        "hpe.check_rho_contractive_s": busy("hpe.check_rho_contractive_bound"),
        "hpe.check_fejer_s": busy("hpe.check_fejer"),
        "certificates.pointwise_s": busy("certificates.pointwise_certificate"),
        "certificates.ergodic_s": busy("certificates._ergodic_checks"),
        "certificates.full_verification_self_s": self_by_name["certificates.full_verification"],
        "cli.run_self_s": self_by_name["cli.run"],
        "cli.verify_self_s": self_by_name["cli.verify"],
        "cli.report_nonfinite_values": op.nonfinite,
    }
    for layer in tracing.LAYERS:
        vals[f"{layer}.self_s"] = stats.self_time[layer]
    return vals


def traced_generation(cli, tracer, workload, work, reps) -> dict:
    """problems.generate_s (ground truth included) and ground_truth_s."""
    gen, truth = [], []
    for rep in range(reps):
        out = os.path.join(work, f"traced-inputs{rep}")
        os.makedirs(out)
        tracer.begin_op(f"setup{rep}")
        with contextlib.redirect_stdout(io.StringIO()):
            for inst in workload.instances:
                cli.main(workloads.generate_argv(inst, out))
        busy = tracer.stats.total_busy
        gen.append(busy("problems.generate_qp") + busy("problems.generate_lasso"))
        truth.append(busy("problems.solve_ground_truth"))
    return {"problems.generate_s": _median(gen), "problems.ground_truth_s": _median(truth)}


def solver_micro(order, inputs, reps) -> dict:
    """solver.setup_s, solver.iter_us and solver.stop_rule_us via solver.run.

    Each command's run is repeated for as many iterations as it records,
    with the stopping rule off and with a tolerance that never fires.
    """
    from gadmm import problems, solver

    cases = []
    for cmd in order:
        inst = problems.load_instance(os.path.join(inputs, cmd.instance + ".json"))
        mode = solver.LinearizedH() if cmd.h == "linearized" else solver.ZeroH()

        def params(max_iter, stop_tol, cmd=cmd, mode=mode):
            return solver.GadmmParams(
                beta=1.0, alpha=cmd.alpha, h1=mode, h2=mode, max_iter=max_iter, stop_tol=stop_tol
            )

        iters = solver.run(inst, params(cmd.max_iter, cmd.stop_tol)).iterations
        cases.append((inst, params, iters, cmd.stop_tol))
    total_iters = sum(iters for _, _, iters, _ in cases)

    def timed(inst, prm):
        start = time.perf_counter()
        solver.run(inst, prm)
        return time.perf_counter() - start

    setup, plain, guarded = [], [], []
    for _ in range(reps):
        s = p = g = 0.0
        for inst, params, iters, stop_tol in cases:
            s += timed(inst, params(0, stop_tol))
            p += timed(inst, params(iters, 0.0)) - timed(inst, params(0, 0.0))
            g += timed(inst, params(iters, NEVER_STOP_TOL)) - timed(inst, params(0, NEVER_STOP_TOL))
        setup.append(s)
        plain.append(p)
        guarded.append(g - p)
    return {
        "solver.setup_s": _median(setup),
        "solver.iter_us": 1e6 * _median(plain) / total_iters,
        "solver.stop_rule_us": 1e6 * _median(guarded) / total_iters,
    }


# ---------------------------------------------------------------------------
# the benchmark


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def bench(workload, seed, seconds, trace, *, min_ops=None, setup_reps=SETUP_REPS,
          fault=None) -> tuple:
    """Measure one workload.  Returns (result, detail, tracer or None).

    A run lasts ``seconds`` and at least ``min_ops`` operations (of each
    kind, when traced); ``fault(out_dir)`` is passed to every timed
    operation (see :func:`run_operation`).
    """
    if min_ops is None:
        min_ops = MIN_TRACED_OPS if trace else MIN_OPS
    from gadmm import certificates, cli, hpe, linalg, oracles, problems, solver

    modules = {
        "linalg": linalg, "oracles": oracles, "problems": problems, "solver": solver,
        "hpe": hpe, "certificates": certificates,
    }
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"{workload.name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    probe = HostProbe()
    try:
        setup_scaled, setup_times, inputs = measure_setup(workload, work, setup_reps, probe)
        order = workloads.command_order(workload, seed)
        ops_dir = os.path.join(work, "ops")
        warm = run_operation(cli, order, inputs, ops_dir)  # untimed warm-up
        tracer = tracing.Tracer(modules) if trace else None
        plain_ops, traced_ops, traced_values = [], [], []
        start = time.perf_counter()
        before = probe.slowness()
        while (time.perf_counter() - start < seconds
               or len(plain_ops) < min_ops or (trace and len(traced_ops) < min_ops)):
            gc.collect()
            if trace and len(traced_ops) < len(plain_ops):
                tracer.begin_op(len(plain_ops) + len(traced_ops))
                with tracer.installed():
                    op = run_operation(cli, order, inputs, ops_dir, tracer, fault)
                traced_ops.append(op)
                traced_values.append(_layer_values(tracer.stats, op, len(order)))
            else:
                op = run_operation(cli, order, inputs, ops_dir, fault=fault)
                plain_ops.append(op)
            after = probe.slowness()
            op.slowness = 0.5 * (before + after)
            before = after
        if trace:
            with tracer.installed():
                generation = traced_generation(cli, tracer, workload, work, 3)
            micro = solver_micro(order, inputs, MICRO_REPS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    ops = plain_ops + traced_ops
    failed = sum(1 for op in ops if op.errors)
    good = [op for op in plain_ops if not op.errors] or plain_ops
    pipeline = [op.pipeline_s / op.slowness for op in good]
    tail_value, tail_pct, beyond = tail(pipeline)
    if trace:
        values = {name: _median([v[name] for v in traced_values]) for name in traced_values[0]}
        values.update(generation)
        values.update(micro)
        traced_good = [op for op in traced_ops if not op.errors] or traced_ops
        values["trace.overhead_s"] = (
            _median([op.pipeline_s / op.slowness for op in traced_good]) - _median(pipeline)
        )
        units = LAYER_METRICS
        repeats = {
            name: len({v[name] for v in traced_values}) == 1
            for name in COUNT_METRICS if name in traced_values[0]
        }
    else:
        values = {
            "setup_s": _median(setup_scaled),
            "run_s": _median([op.run_s / op.slowness for op in good]),
            "verify_s": _median([op.verify_s / op.slowness for op in good]),
            "pipeline_s": _median(pipeline),
            "pipeline_s.tail": tail_value,
            "certified_iter_per_s": _median(
                [op.iterations * op.slowness / op.pipeline_s for op in good]
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_METRICS
        repeats = {}
    result = {
        "correct": failed == 0 and not warm.errors and all(repeats.values()),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "operations": {"untraced": len(plain_ops), "traced": len(traced_ops)},
        "timing_samples": len(good),
        "setup_samples": len(setup_times),
        "pipeline_tail": {"percentile": tail_pct, "samples_beyond": beyond},
        "failed_frac": failed / len(ops),
        "errors": [e for op in [warm] + ops for e in op.errors][:10],
        "counts_repeat": repeats,
        "warm_up_operation": True,
        "host_slowness": _median([op.slowness for op in ops]),
        "wall_s": {
            "setup_s": _median(setup_times),
            "run_s": _median([op.run_s for op in good]),
            "verify_s": _median([op.verify_s for op in good]),
            "pipeline_s": _median([op.pipeline_s for op in good]),
        },
        "command_order": [f"{c.instance}@alpha={c.alpha:g}" for c in order],
        "environment": environment(),
    }
    return result, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "gadmm", "cli.py")):
        print(f"error: no gadmm sources under {workloads.SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, workloads.SRC)
    workload = workloads.WORKLOADS[args.workload]
    try:
        result, detail, tracer = bench(workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl")
    line = json.dumps(result, allow_nan=False)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, allow_nan=False)
    print(json.dumps(detail, allow_nan=False))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
