#!/usr/bin/env python3
"""Sweep the relaxation factor on one QP and one lasso instance.

For each alpha: run with early stopping enabled, verify every certificate,
and report iterations-to-tolerance plus how tight the ergodic bounds are
at the final iteration (lhs/rhs, smaller = looser bound).

Usage: python scripts/alpha_sweep.py [OUTDIR]
"""

import math
import os
import sys

from gadmm import certificates, problems
from gadmm.solver import GadmmParams, LinearizedH, ZeroH

ALPHAS = (0.5, 1.0, 1.5, 1.9, 2.0)


def sweep(name, inst, h2, max_iter=4000, stop_tol=1e-9):
    print(f"\n== {name} (n={inst.n}, p={inst.p}, m={inst.m}) ==")
    print(f"{'alpha':>6} {'iters':>6} {'verified':>9} {'r_ratio':>10} {'eps_ratio':>10}")
    rows = []
    for alpha in ALPHAS:
        params = GadmmParams(
            beta=1.0, alpha=alpha, h2=h2, max_iter=max_iter, stop_tol=stop_tol
        )
        traj, report, bounds, (_, r_ratio, eps_ratio) = certificates.run_and_verify(inst, params)
        r_ratio, eps_ratio = (math.nan if r is None else r for r in (r_ratio, eps_ratio))
        print(
            f"{alpha:>6.2f} {traj.iterations:>6d} "
            f"{'pass' if report.passed else 'FAIL':>9} "
            f"{r_ratio:>10.3e} {eps_ratio:>10.3e}"
        )
        rows.append((alpha, traj, bounds))
    return rows


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "out"
    os.makedirs(outdir, exist_ok=True)
    qp = problems.generate_qp(1, 8, 6, 4)
    lasso = problems.generate_lasso(7, 10, 20, 0.1)
    for name, inst, h2 in (("random QP", qp, ZeroH()), ("lasso split", lasso, LinearizedH())):
        rows = sweep(name, inst, h2)
        for alpha, traj, bounds in rows:
            tag = f"{name.split()[-1]}_alpha{alpha:g}".replace(".", "p")
            certificates.save_bound_report_csv(bounds, os.path.join(outdir, f"bounds_{tag}.csv"))
    print(f"\nbound tables written to {outdir}/")


if __name__ == "__main__":
    main()
