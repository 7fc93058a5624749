"""The stopping rule of ``solver.run``: each term must hold, cheap terms
are tested first, and the stopping k is the first k where the full
criterion holds, computed here from a recorded run with stacked calls."""

import math

import numpy as np
import pytest

from gadmm import linalg, problems, solver
from gadmm.solver import GadmmParams, LinearizedH, ZeroH

ORACLE_MAX_ITER = 600


def criterion_terms(traj):
    """Per k = 1..K: the constraint residual, the step M-seminorm and the
    first-order gap at (x_k, y_k, gamma_tilde_k), from stacked calls."""
    X, Y, G, Gt = traj.X, traj.Y, traj.G, traj.Gt
    inst = traj.instance
    steps = np.hstack([np.diff(X, axis=0), np.diff(Y, axis=0), np.diff(G, axis=0)])
    step = np.sqrt(linalg.seminorm_sq(traj.metric.op, steps))
    gap = problems.kkt_gaps(inst, X[1:], Y[1:], Gt)
    resid = problems.constraint_residual(inst, X[1:], Y[1:])
    return resid, step, gap


def counting(monkeypatch, module, name):
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


CASES = {
    "qp-zero": (lambda: problems.generate_qp(1, 8, 6, 4), ZeroH()),
    "qp-linearized": (lambda: problems.generate_qp(1, 8, 6, 4), LinearizedH()),
    "lasso": (lambda: problems.generate_lasso(7, 10, 20, 0.1), LinearizedH()),
}


@pytest.mark.parametrize("tol", [1e-4, 1e-9])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9, 2.0])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stopping_k_matches_oracle(case, alpha, tol, monkeypatch):
    make, mode = CASES[case]
    inst = make()

    def params(stop_tol):
        return GadmmParams(
            beta=1.0, alpha=alpha, h1=mode, h2=mode, max_iter=ORACLE_MAX_ITER, stop_tol=stop_tol
        )

    full = solver.run(inst, params(0.0))
    resid, step, gap = criterion_terms(full)
    holds = (step <= tol) & (gap <= tol)
    assert holds.any(), "the oracle run never meets the criterion; raise ORACLE_MAX_ITER"
    first = int(np.argmax(holds)) + 1

    gap_calls = counting(monkeypatch, problems, "kkt_gap")
    stopped = solver.run(inst, params(tol))
    assert stopped.iterations == first
    assert np.array_equal(stopped.X, full.X[: first + 1])
    assert np.array_equal(stopped.Gt, full.Gt[:first])
    # the residual inside the gap is the pre-tested term, bit for bit
    assert np.all(resid <= gap)
    # the gap is computed only at the k where both cheaper terms hold
    pretests = (resid[:first] <= tol) & (step[:first] <= tol)
    assert len(gap_calls) == int(pretests.sum())


def test_nan_gap_never_stops(monkeypatch):
    # Python's max(step, nan) returns step; the rule must not stop on NaN
    inst = problems.generate_qp(1, 8, 6, 4)
    monkeypatch.setattr(problems, "kkt_gap", lambda inst, point: math.nan)
    params = GadmmParams(beta=1.0, alpha=1.0, max_iter=500, stop_tol=1e-6)
    assert solver.run(inst, params).iterations == 500


def test_unreachable_tolerance_skips_the_gap(monkeypatch):
    inst = problems.generate_qp(1, 8, 6, 4)
    gap_calls = counting(monkeypatch, problems, "kkt_gap")
    params = GadmmParams(beta=1.0, alpha=1.0, max_iter=200, stop_tol=1e-300)
    assert solver.run(inst, params).iterations == 200
    assert gap_calls == []


def test_constraint_residual_rows_match_one_point_calls():
    inst = problems.generate_qp(3, 5, 4, 3)
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((7, inst.n)), rng.standard_normal((7, inst.p))
    stacked = problems.constraint_residual(inst, X, Y)
    single = [problems.constraint_residual(inst, x, y) for x, y in zip(X, Y)]
    assert np.array_equal(stacked, single)
    direct = np.linalg.norm(X @ inst.A.T + Y @ inst.B.T - inst.b, axis=1)
    assert np.allclose(stacked, direct, rtol=1e-14, atol=0.0)
