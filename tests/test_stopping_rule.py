"""The stopping rule of ``solver.run``: each term must hold, cheap terms
are tested first, and the stopping k is the first k where the full
criterion holds, computed here from a recorded run with stacked calls.
Term 1 is taken from the engine's own products A x_k and B y_k, bit for
bit the one-point residual, and ``solver.stop_terms`` runs only at the k
where it holds; a NaN or infinite residual never passes.  The summary's
final values and ``stopped_early`` read the loop's own terms, for a run
and for its record read back."""

import math

import numpy as np
import pytest

from gadmm import cli, oracles, problems, solver
from gadmm.errors import DivergenceError
from gadmm.solver import ExplicitH, GadmmParams, LinearizedH, ZeroH

from conftest import gamma_tilde, make_l1_x_instance, random_spd

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


# name: (instance, h1, h2)
CASES = {
    "qp-zero": (lambda: problems.generate_qp(1, 8, 6, 4), ZeroH(), ZeroH()),
    "qp-linearized": (lambda: problems.generate_qp(1, 8, 6, 4), LinearizedH(), LinearizedH()),
    "qp-explicit": (
        lambda: problems.generate_qp(1, 8, 6, 4),
        ExplicitH(0.5 * np.eye(8)),
        ExplicitH(random_spd(np.random.default_rng(5), 6, ridge=0.0)),
    ),
    "lasso": (lambda: problems.generate_lasso(7, 10, 20, 0.1), LinearizedH(), LinearizedH()),
    "l1-x": (make_l1_x_instance, LinearizedH(), ZeroH()),
}


@pytest.mark.parametrize("tol", [1e-4, 1e-9])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9, 2.0])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stopping_k_matches_oracle(case, alpha, tol, monkeypatch):
    make, h1, h2 = CASES[case]
    inst = make()

    def params(stop_tol):
        return GadmmParams(
            beta=1.0, alpha=alpha, h1=h1, h2=h2, max_iter=ORACLE_MAX_ITER, stop_tol=stop_tol
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
    make, h1, h2 = CASES[case]
    inst = make()
    first = None
    for max_iter in (ORACLE_MAX_ITER, None):
        params = GadmmParams(beta=1.0, alpha=alpha, h1=h1, h2=h2,
                             max_iter=max_iter or first - 1, stop_tol=tol)
        seen = recorded_terms(monkeypatch)
        traj = solver.run(inst, params)
        monkeypatch.undo()
        first = first or traj.iterations
        # stop_terms runs at the k where term 1 holds, and only there
        resid = [problems.constraint_residual(inst, x, y) for x, y in zip(traj.X[1:], traj.Y[1:])]
        assert len(seen) == sum(r <= tol for r in resid)
        loop = seen[-1] if resid[-1] <= tol else [resid[-1]]
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


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9, 2.0])
@pytest.mark.parametrize("case", sorted(CASES))
def test_term_one_is_the_one_point_residual(case, alpha, monkeypatch):
    # the loop's term 1, from the engine's A x_k and B y_k, at every k
    make, h1, h2 = CASES[case]
    inst = make()
    real, seen = solver._Engine.fill, []

    def fill(eng, Z, k):
        real(eng, Z, k)
        seen.append(eng.residual())

    monkeypatch.setattr(solver._Engine, "fill", fill)
    traj = solver.run(inst, GadmmParams(beta=1.0, alpha=alpha, h1=h1, h2=h2,
                                        max_iter=ORACLE_MAX_ITER, stop_tol=0.0))
    assert len(seen) == traj.iterations == ORACLE_MAX_ITER
    one_point = [problems.constraint_residual(inst, x, y) for x, y in zip(traj.X[1:], traj.Y[1:])]
    assert [repr(float(r)) for r in seen] == [repr(float(r)) for r in one_point]


@pytest.mark.parametrize("tol", [1e-9, 1e300])
def test_diverging_run_never_passes_term_one(tol, monkeypatch):
    # x_1 near 1.7e306 overflows the y-stage: the residual is inf at k = 1
    # and NaN after it, so no k reaches stop_terms, the run goes on to
    # max_iter, and the scan after it names the k it names at stop_tol = 0
    inst = problems.SeparableInstance(
        oracles.Quadratic([[1.0]], [-1.7e308]), oracles.Quadratic([[1.0]], [0.0]),
        [[1.0]], [[1.0]], [1.0],
    )

    def diverged_at(stop_tol):
        params = GadmmParams(beta=100.0, alpha=2.0, max_iter=5, stop_tol=stop_tol)
        with pytest.raises(DivergenceError) as info:
            solver.run(inst, params)
        return info.value.k

    calls = counting(monkeypatch, solver, "stop_terms")
    assert diverged_at(tol) == diverged_at(0.0) == 1
    assert calls == []


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
