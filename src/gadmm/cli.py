"""Command-line front end.

Subcommands: generate an instance, run the solver, verify the recorded
certificates, and sweep the relaxation factor over a grid.  Exit codes
are a stable contract for scripts: 0 success, 1 configuration or I/O
error, otherwise the ``exit_code`` of the error's class in :mod:`gadmm.errors`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import certificates, hpe, linalg, problems, records, solver
from .errors import ConfigError, GadmmError

EXIT_OK = 0
EXIT_CONFIG = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_h_mode(raw: str, name: str, dim: int):
    """The proximal-weight mode of flag ``name`` (h1 or h2), which its
    error messages name, for a block of ``dim`` variables."""
    if raw == "zero":
        return solver.ZeroH()
    if raw == "linearized":
        return solver.LinearizedH()
    if raw.startswith("linearized:"):
        try:
            return solver.LinearizedH(tau=float(raw.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"{name}: bad tau in '{raw}'") from exc
    if raw.startswith("file:"):
        path = raw.split(":", 1)[1]
        try:  # ValueError covers JSON and UTF-8 errors, and ExplicitH's checks
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if isinstance(data, dict):
                data = data.get("matrix")
            cells = np.asarray(data, dtype=object)
            with contextlib.suppress(OverflowError):  # a JSON integer beyond float range
                if all(type(v) in (int, float) for v in cells.flat):  # JSON numbers, not bools
                    h = solver.ExplicitH(cells.astype(float))
                    linalg.as_matrix(h.matrix, rows=dim, name="H")  # square: ExplicitH checked
                    return h
            raise ValueError("field 'matrix' must hold only real numbers")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{name}: file '{path}': {exc}") from exc
    raise ConfigError(f"{name}: unrecognized proximal-weight mode '{raw}'")


def _add_solver_flags(p):
    p.add_argument("--alpha", type=float, default=1.0, help="relaxation factor in (0, 2]")
    p.add_argument("--beta", type=float, default=1.0, help="penalty parameter > 0")
    p.add_argument("--h1", default="zero", help="zero | linearized[:tau] | file:PATH")
    p.add_argument("--h2", default="zero", help="zero | linearized[:tau] | file:PATH")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--stop-tol", type=float, default=1e-8, help="0 disables early stopping")


def _params(args, inst, alpha=None):
    return solver.GadmmParams(
        beta=args.beta,
        alpha=args.alpha if alpha is None else alpha,
        h1=_parse_h_mode(args.h1, "h1", inst.n),
        h2=_parse_h_mode(args.h2, "h2", inst.p),
        max_iter=args.max_iter,
        stop_tol=args.stop_tol,
    )


def _cmd_generate(args) -> int:
    for name, low in (("seed", 0), ("n", 1), ("p", 1), ("m", 1), ("m_data", 1)):
        value = getattr(args, name)
        if value < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")
    if args.kind == "qp" and args.m > args.n + args.p:
        raise ConfigError(f"--m must be at most --n + --p = {args.n + args.p}, got {args.m}")
    if args.kind == "qp":
        inst = problems.generate_qp(args.seed, args.n, args.p, args.m)
    else:
        inst = problems.generate_lasso(args.seed, args.n, args.m_data, args.mu)
    problems.save_instance(inst, args.out)
    print(f"wrote {args.kind} instance (n={inst.n}, p={inst.p}, m={inst.m}) to {args.out}")
    return EXIT_OK


def _run_summary(traj) -> dict:
    """The summary of a run: its final values are the step and gap of the
    trajectory's ``final_terms``, null where not finite."""
    final_step, final_gap = (v if math.isfinite(v) else None for v in traj.final_terms[1:])
    return {
        "iterations": traj.iterations,
        "final_kkt_gap": final_gap,
        "final_step_metric": final_step,
        "alpha": traj.params.alpha,
        "beta": traj.params.beta,
        "stopped_early": traj.stopped_early,
    }


def _cmd_run(args) -> int:
    inst = problems.load_instance(args.instance)
    params = _params(args, inst)
    traj = solver.run(inst, params)
    os.makedirs(args.out, exist_ok=True)
    solver.save_trajectory_csv(traj, os.path.join(args.out, "trajectory.csv"))
    summary = _run_summary(traj)
    records.write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"ran {traj.iterations} iterations; outputs in {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the trajectory is read first, so that workers parse its tail rows
    # while this process parses the instance; its errors come after the
    # instance's and the flags', and a bad reference point's after its own
    with records.TrajectoryText(args.trajectory) as text:
        text.parse_tail(args.instance)
        inst = problems.load_instance(args.instance)
        if inst.solution is None:
            raise ConfigError("verification needs an instance with a stored solution")
        params = _params(args, inst)
        traj = solver.load_trajectory_csv(text, inst, params)
    report = certificates.full_verification(traj, inst.solution)
    doc = report.to_dict()
    if args.out:
        records.write_json(args.out, doc)
    else:
        sys.stdout.write(records.json_text(doc))
    report.raise_first()
    print("all checks pass", file=sys.stderr)
    return EXIT_OK


_BENCH_COLUMNS = [
    "alpha",
    "iterations",
    "stopped_early",
    "final_kkt_gap",
    "pointwise_ratio",
    "ergodic_r_ratio",
    "ergodic_eps_ratio",
    "verification",
    "first_failure",
]
# the report rows of the three ratio columns, in column order
_BENCH_BOUNDS = ("pointwise_bound", "ergodic_residual_bound", "ergodic_eps_bound")


def _bound_ratio(row) -> str:
    """lhs/rhs of a bound's report row at its last checked k; empty where the
    row has no ks (alpha = 2), its rhs is not positive, or its lhs is NaN."""
    if not row.ks.size:
        return ""
    lhs, rhs = float(row.lhs[-1]), float(row.rhs[-1])
    return repr(lhs / rhs) if rhs > 0 and not math.isnan(lhs) else ""


def _cmd_bench(args) -> int:
    if args.max_iter < 1:  # the bound ratios are read at the last ergodic k
        raise ConfigError(f"bench needs --max-iter of at least 1, got {args.max_iter}")
    inst = problems.load_instance(args.instance)
    if inst.solution is None:
        raise ConfigError("bench needs an instance with a stored solution")
    try:
        grid = [float(v) for v in args.alpha_grid.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --alpha-grid '{args.alpha_grid}'") from exc
    if not grid:
        raise ConfigError("empty --alpha-grid")
    for alpha in grid:  # every alpha is checked before the first run
        try:
            hpe.sigma_alpha(solver.GadmmParams(beta=1.0, alpha=alpha).alpha)
        except ConfigError as exc:
            raise ConfigError(f"--alpha-grid: {exc}") from exc
    hpe.check_reference(inst, inst.solution)  # before the first run, as each replay does
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for alpha in grid:
        params = _params(args, inst, alpha=alpha)
        traj = solver.run(inst, params)
        report = certificates.full_verification(traj, inst.solution)
        summary = _run_summary(traj)
        failure = report.earliest_failure
        bounds = {r.name: r for r in report.rows}
        rows.append(
            [
                repr(alpha),
                str(summary["iterations"]),
                str(summary["stopped_early"]).lower(),
                "" if summary["final_kkt_gap"] is None else repr(summary["final_kkt_gap"]),
                *(_bound_ratio(bounds[name]) for name in _BENCH_BOUNDS),
                "pass" if report.passed else "fail",
                "" if failure is None else f"{failure.name}@k={failure.first_k}",
            ]
        )
    out_path = os.path.join(args.out, "bench.csv")
    with records.atomic_open(out_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BENCH_COLUMNS)
        writer.writerows(rows)
    print(f"wrote {len(rows)}-row sweep to {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gadmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance")
    gen.add_argument("--kind", choices=("qp", "lasso"), required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--p", type=int, default=6, help="qp only")
    gen.add_argument("--m", type=int, default=4, help="qp only")
    gen.add_argument("--m-data", type=int, default=20, help="lasso only")
    gen.add_argument("--mu", type=float, default=0.1, help="lasso only")
    gen.add_argument("--out", required=True, help="instance JSON path")
    gen.set_defaults(func=_cmd_generate)

    run_p = sub.add_parser("run", help="run the solver on an instance")
    run_p.add_argument("--instance", required=True)
    _add_solver_flags(run_p)
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(func=_cmd_run)

    ver = sub.add_parser("verify", help="verify a recorded trajectory")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--trajectory", required=True, help="trajectory CSV from 'run'")
    _add_solver_flags(ver)
    ver.add_argument("--out", help="verification report JSON path")
    ver.add_argument(
        "--verify-full",
        action="store_true",
        help="accepted and ignored: every check runs at every k",
    )
    ver.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="sweep the relaxation factor")
    bench.add_argument("--instance", required=True)
    bench.add_argument("--alpha-grid", required=True, help="comma-separated alphas")
    _add_solver_flags(bench)
    bench.add_argument("--out", required=True, help="output directory")
    bench.set_defaults(func=_cmd_bench)
    return parser


# One parser per process: building it takes about 1 ms, paid by every
# command, and parse_args keeps no state on the parser between calls.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    command = "gadmm"
    try:
        args = _parser().parse_args(argv)
        command = f"gadmm {args.command}"
        for name, value in vars(args).items():
            # Python 3.11's argparse reads "--flag=--" as an empty list and
            # skips the flag's type; no flag takes a list
            if isinstance(value, list):
                raise ConfigError(f"argument --{name.replace('_', '-')}: expected one argument")
        return args.func(args)
    except GadmmError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's allocation failure, for one
        print(f"error: {command} ran out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
