import os
from types import SimpleNamespace

import numpy as np
import pytest

from gadmm import hpe, oracles, problems, records, solver


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail every test after which this process still has a child to reap,
    such as a forked CSV worker that a writer or reader path left behind."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped (waitpid: pid {pid})")


def make_one_d_instance():
    """f = x^2/2, g = y^2/2, x + y = 3; optimum at (1.5, 1.5) with
    multiplier 1.5 (x* = gamma*, y* = gamma*, x* + y* = 3)."""
    return problems.SeparableInstance(
        oracles.Quadratic([[1.0]], [0.0]),
        oracles.Quadratic([[1.0]], [0.0]),
        [[1.0]],
        [[1.0]],
        [3.0],
        solution=problems.KktPoint([1.5], [1.5], [1.5]),
    )


@pytest.fixture
def one_d_instance():
    return make_one_d_instance()


def run_full(inst, alpha, beta=1.0, iters=200, h1=None, h2=None):
    """Run with early stopping disabled so every iteration is recorded."""
    params = solver.GadmmParams(
        beta=beta,
        alpha=alpha,
        h1=h1 if h1 is not None else solver.ZeroH(),
        h2=h2 if h2 is not None else solver.ZeroH(),
        max_iter=iters,
        stop_tol=0.0,
    )
    return solver.run(inst, params)


def gamma_tilde(traj):
    """gamma_tilde_k for k = 1..K (row k-1), derived from the record as the
    verifier derives it."""
    return hpe.gamma_tilde(traj.instance, traj.Z, traj.params.beta)


def state(traj, k):
    """Iterate k of a trajectory as a namespace: x, y, gamma, and for k >= 1
    gamma_tilde and the steps dx, dy, dgamma (None at k = 0)."""
    if not 0 <= k <= traj.iterations:
        raise IndexError(f"k={k} outside 0..{traj.iterations}")
    x, y, gamma = traj.X[k], traj.Y[k], traj.G[k]
    st = SimpleNamespace(k=k, x=x, y=y, gamma=gamma, gamma_tilde=None, dx=None, dy=None, dgamma=None)
    if k > 0:
        st.gamma_tilde = gamma_tilde(traj)[k - 1]
        st.dx, st.dy, st.dgamma = x - traj.X[k - 1], y - traj.Y[k - 1], gamma - traj.G[k - 1]
    return st


def state_pairs(traj):
    """(state k-1, state k) for k = 1..K."""
    return [(state(traj, k - 1), state(traj, k)) for k in range(1, traj.iterations + 1)]


def rate_estimate(points) -> float:
    """Least-squares slope of log(value) against log(k) over the tail half
    of the series; needs at least 10 strictly positive points."""
    pts = sorted((int(k), float(v)) for k, v in points)
    if len(pts) < 10:
        raise ValueError(f"need at least 10 points, got {len(pts)}")
    if any(v <= 0.0 for _, v in pts):
        raise ValueError("rate estimation needs strictly positive values")
    tail = pts[len(pts) // 2 :]
    logk = np.log([k for k, _ in tail])
    logv = np.log([v for _, v in tail])
    slope, _ = np.polyfit(logk, logv, 1)
    return float(slope)


def metric_matrix(metric):
    """The dense matrix M of a :class:`gadmm.hpe.ProximalMetric`."""
    return metric.apply(np.eye(metric.side))


def random_spd(rng, dim, ridge=1.0):
    G = rng.standard_normal((dim, dim))
    return G @ G.T / dim + ridge * np.eye(dim)


def count_forks(monkeypatch, cpus, fork=None):
    """Make the writers and the reader see ``cpus`` usable CPUs and record
    each ``os.fork`` call in the returned list; ``fork`` replaces the real
    one."""
    calls, fork = [], fork or os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(records, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted)
    return calls


def assert_nothing_left(directory, names):
    """Only ``names`` are in ``directory`` (no temporary file), and this
    process has no child left to reap."""
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
