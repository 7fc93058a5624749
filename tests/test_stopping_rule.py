"""The stopping rule of ``solver.run``: each term must hold, cheap terms
are tested first, and the stopping k is the first k where the full
criterion holds, computed here from a recorded run with stacked calls.
The summary's final values and ``stopped_early`` read the loop's own
terms, for a run and for its record read back."""

import math

import numpy as np
import pytest

from gadmm import cli, problems, solver
from gadmm.solver import GadmmParams, LinearizedH, ZeroH

from conftest import gamma_tilde

ORACLE_MAX_ITER = 600


def criterion_terms(traj):
    """Per k = 1..K: the constraint residual, the step M-seminorm and the
    first-order gap at (x_k, y_k, gamma_tilde_k), from stacked calls."""
    inst, X, Y = traj.instance, traj.X[1:], traj.Y[1:]
    step = np.sqrt(traj.metric.seminorm_sq(np.diff(traj.Z, axis=0)))
    return (problems.constraint_residual(inst, X, Y), step,
            problems.kkt_gaps(inst, X, Y, gamma_tilde(traj)))


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

    gap_calls = counting(monkeypatch, problems, "kkt_gaps")
    stopped = solver.run(inst, params(tol))
    assert stopped.iterations == first
    assert np.array_equal(stopped.Z, full.Z[: first + 1])
    # the residual inside the gap is the pre-tested term, bit for bit
    assert np.all(resid <= gap)
    # the gap is computed only at the k where both cheaper terms hold
    pretests = (resid[:first] <= tol) & (step[:first] <= tol)
    assert len(gap_calls) == int(pretests.sum())
    # the one-point terms at the stopping k are the arrays' up to rounding
    k = first
    loop = list(solver.stop_terms(inst, stopped.metric, 1.0, stopped.Z[k - 1 : k + 1]))
    arrays = [resid[k - 1], step[k - 1], gap[k - 1]]
    assert np.all(np.abs(np.subtract(loop, arrays)) <= 1e-12 * (1.0 + np.abs(arrays)))


def recorded_terms(monkeypatch):
    """Wrap solver.stop_terms so that each call's terms, as far as its
    consumer takes them, are appended to the returned list."""
    real, seen = solver.stop_terms, []

    def recording(*args):
        terms = []
        seen.append(terms)
        for term in real(*args):
            terms.append(term)
            yield term

    monkeypatch.setattr(solver, "stop_terms", recording)
    return seen


@pytest.mark.parametrize("tol", [1e-4, 1e-9])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9, 2.0])
@pytest.mark.parametrize("case", sorted(CASES))
def test_summary_reads_the_loops_terms(case, alpha, tol, monkeypatch, tmp_path):
    # a run that stops, and one cut a step short of its stopping k
    make, mode = CASES[case]
    inst = make()
    first = None
    for max_iter in (ORACLE_MAX_ITER, None):
        params = GadmmParams(beta=1.0, alpha=alpha, h1=mode, h2=mode,
                             max_iter=max_iter or first - 1, stop_tol=tol)
        seen = recorded_terms(monkeypatch)
        traj = solver.run(inst, params)
        monkeypatch.undo()
        first = first or traj.iterations
        assert len(seen) == traj.iterations
        loop = seen[-1]
        fired = len(loop) == 3 and all(t <= tol for t in loop)
        assert fired is (max_iter is not None)
        assert traj.stopped_early is fired
        # each term the loop took at k = K, bit for bit, and the summary's two
        assert [repr(t) for t in traj.final_terms[: len(loop)]] == [repr(t) for t in loop]
        summary = cli._run_summary(traj)
        finals = [t if math.isfinite(t) else None for t in traj.final_terms[1:]]
        assert [summary["final_step_metric"], summary["final_kkt_gap"]] == finals
        path = tmp_path / f"{traj.iterations}.csv"
        solver.save_trajectory_csv(traj, path)
        back = solver.load_trajectory_csv(path, inst, params)
        assert back.stopped_early is fired
        assert cli._run_summary(back) == summary


def test_nan_gap_never_stops(monkeypatch):
    # Python's max(step, nan) returns step; the rule must not stop on NaN
    inst = problems.generate_qp(1, 8, 6, 4)
    monkeypatch.setattr(problems, "kkt_gaps", lambda inst, X, Y, G: math.nan)
    params = GadmmParams(beta=1.0, alpha=1.0, max_iter=500, stop_tol=1e-6)
    assert solver.run(inst, params).iterations == 500


def test_unreachable_tolerance_skips_the_gap(monkeypatch):
    inst = problems.generate_qp(1, 8, 6, 4)
    gap_calls = counting(monkeypatch, problems, "kkt_gaps")
    params = GadmmParams(beta=1.0, alpha=1.0, max_iter=200, stop_tol=1e-300)
    assert solver.run(inst, params).iterations == 200
    assert gap_calls == []


def test_constraint_residual_rows_match_one_point_calls():
    inst = problems.generate_qp(3, 5, 4, 3)
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((7, inst.n)), rng.standard_normal((7, inst.p))
    stacked = problems.constraint_residual(inst, X, Y)
    single = [problems.constraint_residual(inst, x, y) for x, y in zip(X, Y)]
    assert np.allclose(stacked, single, rtol=1e-14, atol=0.0)
    direct = np.linalg.norm(X @ inst.A.T + Y @ inst.B.T - inst.b, axis=1)
    assert np.allclose(stacked, direct, rtol=1e-14, atol=0.0)
