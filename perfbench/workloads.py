"""Workload definitions for the gadmm benchmark.

A workload is a fixed set of generated instances and a list of commands.
One operation runs every command as a user would: ``gadmm run`` on an
instance, then ``gadmm verify`` on the trajectory it wrote.  Instance
seeds are part of the workload, so iteration and call counts repeat
exactly across benchmark seeds; the benchmark seed fixes the order in
which an operation's commands run (see :func:`command_order`).

Run as a script, this module is the set-up step a user pays before the
first ``gadmm run``: it imports gadmm, runs the given ``gadmm generate``
commands (instances with their ground truth, written as instance JSON)
and prints the elapsed time as JSON on its last line.

    python3 perfbench/workloads.py '[["generate", "--kind", "qp", ...], ...]'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass(frozen=True)
class Instance:
    """Arguments of one ``gadmm generate`` call; ``name`` is the file stem."""

    name: str
    kind: str
    seed: int
    dims: tuple  # ((flag, value), ...) in ``gadmm generate`` flag order


@dataclass(frozen=True)
class Command:
    """One ``gadmm run`` on an instance followed by ``gadmm verify``."""

    instance: str
    alpha: float
    max_iter: int
    stop_tol: float
    h: str = "zero"  # proximal-weight mode of both blocks
    verify_full: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple
    commands: tuple


def _lasso(seed, n, m_data, mu):
    return Instance(f"lasso{seed}", "lasso", seed, (("n", n), ("m-data", m_data), ("mu", mu)))


def _qp(seed, n, p, m):
    return Instance(f"qp{seed}", "qp", seed, (("n", n), ("p", p), ("m", m)))


SWEEP_ALPHAS = (0.5, 1.0, 1.5, 1.9, 2.0)

# Sizes keep one operation near 1.5 s on a 2-core machine, so that a
# 30-second run holds well over the eleven operations the tail percentile
# needs.  The shapes and code paths are those of the ROADMAP baseline;
# only the iteration counts of the two long runs are shortened.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lasso-replay",
            why=(
                "small lasso with a long linearized alpha=2 run: per-iteration Python work "
                "in hpe loops, as_vector revalidation and the CSV writer dominates"
            ),
            instances=(_lasso(7, 10, 20, 0.1),),
            commands=(Command("lasso7", 2.0, 2000, 0.0, h="linearized"),),
        ),
        Workload(
            name="qp-sweep",
            why=(
                "25 short QP runs to tolerance over the alpha grid: stopping rule, "
                "Cholesky solves and fixed per-command costs dominate"
            ),
            instances=tuple(_qp(s, 8, 6, 4) for s in range(1, 6)),
            commands=tuple(
                Command(f"qp{s}", a, 4000, 1e-9) for s in range(1, 6) for a in SWEEP_ALPHAS
            ),
        ),
        Workload(
            name="qp-large-full",
            why=(
                "450-dimensional QP verified at every k: the PSD probe on M, dense BLAS "
                "and the O(K^2 dim) full-grid ergodic pass dominate"
            ),
            instances=(_qp(1, 200, 150, 100),),
            commands=(Command("qp1", 1.5, 250, 0.0, verify_full=True),),
        ),
    )
}


def command_order(workload: Workload, seed: int) -> list:
    """The order of the workload's commands inside every operation of a run."""
    order = list(workload.commands)
    random.Random(seed).shuffle(order)
    return order


def generate_argv(inst: Instance, out_dir: str) -> list:
    argv = ["generate", "--kind", inst.kind, "--seed", str(inst.seed)]
    for flag, value in inst.dims:
        argv += [f"--{flag}", str(value)]
    return argv + ["--out", os.path.join(out_dir, inst.name + ".json")]


def run_argv(cmd: Command, inst_path: str, out_dir: str) -> list:
    return ["run", "--instance", inst_path] + _solver_flags(cmd) + ["--out", out_dir]


def verify_argv(cmd: Command, inst_path: str, traj_path: str, report_path: str) -> list:
    argv = ["verify", "--instance", inst_path, "--trajectory", traj_path]
    argv += _solver_flags(cmd) + ["--out", report_path]
    return argv + (["--verify-full"] if cmd.verify_full else [])


def _solver_flags(cmd: Command) -> list:
    return [
        "--alpha", repr(cmd.alpha),
        "--beta", "1.0",
        "--h1", cmd.h,
        "--h2", cmd.h,
        "--max-iter", str(cmd.max_iter),
        "--stop-tol", repr(cmd.stop_tol),
    ]


def _setup_main(argv) -> int:
    """Run the ``gadmm generate`` argument lists in ``argv[0]`` (JSON) and
    print the time from before ``import gadmm`` to the last file written."""
    argvs = json.loads(argv[0])
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from gadmm import cli

    with contextlib.redirect_stdout(io.StringIO()):
        for gen in argvs:
            rc = cli.main(gen)
            if rc != 0:
                print(f"gadmm {' '.join(gen)} exited {rc}", file=sys.stderr)
                return 1
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(_setup_main(sys.argv[1:]))
