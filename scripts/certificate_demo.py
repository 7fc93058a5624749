#!/usr/bin/env python3
"""End-to-end demo: generate, run, record, verify.

Runs the extreme relaxation alpha = 2 on a lasso split with both blocks
linearized, then replays the recorded trajectory through every
certificate check and prints the worst slack of each one, with the two
sides of its inequality lhs <= rhs + tol at that k.

Usage: python scripts/certificate_demo.py [OUTDIR]
"""

import os
import sys

from gadmm import certificates, problems, solver
from gadmm.solver import GadmmParams, LinearizedH

HEADER = f"{'check':<28} {'result':>7} {'worst slack':>14} {'at k':>6} {'lhs':>14} {'rhs':>14}"


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "out"
    os.makedirs(outdir, exist_ok=True)
    inst = problems.generate_lasso(7, 10, 20, 0.1)
    problems.save_instance(inst, os.path.join(outdir, "lasso.json"))
    params = GadmmParams(
        beta=1.0, alpha=2.0, h1=LinearizedH(), h2=LinearizedH(),
        max_iter=5000, stop_tol=0.0,
    )
    traj = solver.run(inst, params)
    csv_path = os.path.join(outdir, "trajectory.csv")
    solver.save_trajectory_csv(traj, csv_path)
    replay = solver.load_trajectory_csv(csv_path, inst, params)
    report = certificates.full_verification(replay, inst.solution)
    print(f"ran {traj.iterations} iterations at alpha=2, beta=1 (both blocks linearized)")
    print(HEADER)
    for row in report.rows:
        d = row.to_dict()
        k = "-" if row.worst_k is None else str(row.worst_k)
        lhs, rhs = ("-" if d[side] is None else f"{d[side]:.3e}" for side in ("lhs", "rhs"))
        print(
            f"{row.name:<28} {'pass' if row.passed else 'FAIL':>7} "
            f"{row.worst_slack:>14.3e} {k:>6} {lhs:>14} {rhs:>14}"
        )
    print("overall:", "pass" if report.passed else "FAIL")


if __name__ == "__main__":
    main()
