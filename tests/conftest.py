import numpy as np
import pytest

from gadmm import oracles, problems, solver


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


def state_pairs(traj):
    """(state k-1, state k) for k = 1..K."""
    return [(traj.state(k - 1), traj.state(k)) for k in range(1, traj.iterations + 1)]


def random_spd(rng, dim, ridge=1.0):
    G = rng.standard_normal((dim, dim))
    return G @ G.T / dim + ridge * np.eye(dim)
