import dataclasses
import math
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


# f = 0.4||x||_1, g = y1^2 + y2^2/2 + (y1 - y2)/2, x1 + x3 + y1 = 1,
# x2 + x3 + y2 = -1, written by hand in the instance file's layout: the one
# instance whose x-block prox (the soft threshold) acts before the engine
# forms A x_k.  Linearized x-runs end with x3 = 0 exactly.
L1_X_DOC = {
    "n": 3, "p": 2, "m": 2,
    "A": [1.0, 0.0, 1.0, 0.0, 1.0, 1.0],
    "B": [1.0, 0.0, 0.0, 1.0],
    "b": [1.0, -1.0],
    "f": {"variant": "l1", "mu": 0.4},
    "g": {"variant": "quadratic", "P": [2.0, 0.0, 1.0], "q": [0.5, -0.5], "c": 0.0},
}


def make_l1_x_instance():
    return problems.instance_from_dict(L1_X_DOC)


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


def reference_run(inst, params, x0, y0, gamma0, iters):
    """The rows z_0..z_iters as the engine computed them before it wrote
    into its record in place: each step stacks fresh inputs with
    np.concatenate and applies the stage maps T1 and T2 with np.dot, the
    l1 prox as ``prox_solver`` builds it, and the rows are collected in
    lists and stacked at the end."""
    eng = solver._Engine(inst, params)
    proxes = []
    for F, mode, op, dim, name in ((inst.f, params.h1, inst.A, inst.n, "h1"),
                                   (inst.g, params.h2, inst.B, inst.p, "h2")):
        _, tau = solver._resolve_h(mode, op, params.beta, dim, name)
        proxes.append(F.prox_solver(1.0 / tau) if isinstance(F, oracles.L1) else None)
    phi_x, phi_y = proxes
    one = np.ones(1)
    x, y, gamma = (np.asarray(v, dtype=float) for v in (x0, y0, gamma0))
    By = inst.B @ y
    xs, ys, gs = [x], [y], [gamma]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            head = (x,) if eng._x_in else ()
            x = np.dot(eng._T1, np.concatenate(head + (By, gamma, one)))
            x = x if phi_x is None else phi_x(x)
            head = (y,) if eng._y_in else ()
            out = np.dot(eng._T2, np.concatenate(head + (np.dot(inst.A, x), By, gamma, one)))
            y = out[: inst.p] if phi_y is None else phi_y(out[: inst.p])
            By = np.dot(inst.B, y)
            gamma = out[inst.p :] - params.beta * By
            xs.append(x)
            ys.append(y)
            gs.append(gamma)
    return np.hstack([xs, ys, gs])


def reference_check(name, ks, lhs, rhs, tol, tolerance, note=""):
    """The verdict of lhs <= rhs + tol at the iterations ``ks`` as each
    report row was reduced on its own before :func:`gadmm.hpe.settle` read
    the rows as one table: a namespace with ``passed``, ``worst_slack``,
    ``worst_k``, ``first_k`` and the row's ``to_dict()``."""
    lhs, rhs, tol = (np.asarray(v, dtype=float) for v in (lhs, rhs, tol))
    rhs, tol = (v if v.shape else np.zeros(lhs.shape) + v for v in (rhs, tol))
    ks = np.asarray(ks, dtype=int)
    slack = rhs + tol - lhs
    if slack.size == 0:
        passed, low, worst_k, first_k, note = True, math.inf, None, None, note or "no iterations"
    else:
        worst = int(np.argmin(slack))
        low = float(slack[worst])
        if math.isfinite(low):
            worst = int(np.argmax(slack <= low + hpe.WORST_K_BAND * (1.0 + abs(low))))
        bad = np.flatnonzero(~(slack >= 0.0))
        first_k = int(ks[bad[0]]) if bad.size else None
        passed, worst_k = first_k is None, int(ks[worst])
    at_worst = [math.nan] * 3
    if worst_k is not None:
        at = int(np.searchsorted(ks, worst_k))
        at_worst = [float(lhs[at]), float(rhs[at]), float(tol[at])]
    finite = math.isfinite(low)
    doc = {
        "name": name,
        "pass": passed,
        "worst_slack": low if finite else None,
        "worst_k": worst_k,
        "first_k": first_k,
        **{key: v if math.isfinite(v) else None for key, v in zip(("lhs", "rhs", "tol"), at_worst)},
        "tolerance": tolerance,
        "note": note or ("" if finite else "non-finite slack"),
    }
    return SimpleNamespace(passed=passed, worst_slack=low, worst_k=worst_k, first_k=first_k,
                           to_dict=lambda: doc)


def same_bits(a, b):
    """Whether two float arrays have the same shape and the same bits."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def gamma_tilde(traj):
    """gamma_tilde_k for k = 1..K (row k-1), derived from the record as the
    verifier derives it."""
    return hpe.gamma_tilde(traj.instance, traj.Z, traj.params.beta)


def shifted(traj, k, delta, block="gamma"):
    """A copy of the record with ``delta`` added to row k of one block (x,
    y or gamma); a record's Z is read-only, and the copy derives its own
    gamma_tilde."""
    n, p = traj.instance.n, traj.instance.n + traj.instance.p
    Z = traj.Z.copy()
    Z[k, {"x": slice(0, n), "y": slice(n, p), "gamma": slice(p, None)}[block]] += delta
    return dataclasses.replace(traj, Z=Z)


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
