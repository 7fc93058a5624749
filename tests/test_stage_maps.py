"""The engine's two precomposed stage maps against the subproblems they
evaluate, solved one block at a time."""

import numpy as np
import pytest

from gadmm import hpe, oracles, problems, solver
from gadmm.solver import ExplicitH, GadmmParams, LinearizedH, ZeroH

from conftest import random_spd, run_full


def reference_block(F, op, resolved, beta, u_prev, gamma, s, r):
    """One block's minimizer from the shift ``s`` (direct solve) or the
    residual ``r`` = Op u_prev + s (one prox step of F/tau)."""
    H, tau = resolved
    if tau is not None:
        return F.prox_solver(1.0 / tau)(u_prev + (op.T @ (gamma - beta * r)) / tau)
    P, q = problems._quadratic_parts(F, op.shape[1])
    rhs = op.T @ gamma - q - beta * (op.T @ s) + H @ u_prev
    return np.linalg.solve(P + beta * (op.T @ op) + H, rhs)


def reference_step(inst, params, x_prev, y_prev, gamma_prev):
    """(x_k, y_k, gamma_k, gamma_tilde_k) from the module docstring's
    subproblems and multiplier updates, each evaluated as written."""
    A, B, b = inst.A, inst.B, inst.b
    beta, alpha = params.beta, params.alpha
    h1 = solver._resolve_h(params.h1, A, beta, inst.n, "h1")
    h2 = solver._resolve_h(params.h2, B, beta, inst.p, "h2")
    By_prev = B @ y_prev
    x_shift = By_prev - b
    x = reference_block(inst.f, A, h1, beta, x_prev, gamma_prev, x_shift, A @ x_prev + x_shift)
    half_resid = A @ x + By_prev - b
    relaxed = alpha * half_resid
    y = reference_block(inst.g, B, h2, beta, y_prev, gamma_prev, relaxed - By_prev, relaxed)
    gamma = gamma_prev - beta * (relaxed + (B @ y - By_prev))
    return x, y, gamma, gamma_prev - beta * half_resid


def block_choices(rng, dim):
    """(name, function, H mode) for one block: a quadratic or zero function
    with each mode, and l1 with the linearized mode only."""
    quad = oracles.Quadratic(random_spd(rng, dim, ridge=0.5), rng.standard_normal(dim))
    modes = [("zero", ZeroH()), ("explicit", ExplicitH(random_spd(rng, dim))),
             ("linearized", LinearizedH())]
    choices = [
        (f"{fname}-{mname}", F, mode)
        for fname, F in (("quadratic", quad), ("zero", oracles.Zero()))
        for mname, mode in modes
    ]
    return choices + [("l1-linearized", oracles.L1(0.3), LinearizedH())]


X_CHOICES = [
    "quadratic-zero", "quadratic-explicit", "quadratic-linearized",
    "zero-zero", "zero-explicit", "zero-linearized", "l1-linearized",
]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("x_choice", X_CHOICES)
def test_one_iteration_matches_the_subproblems(alpha, x_choice):
    # n, p < m, so beta*A'A and beta*B'B are positive definite and a zero
    # function with a zero H still has a unique minimizer
    n, p, m, beta = 4, 3, 6, 0.9
    rng = np.random.default_rng(sum(map(ord, x_choice)))
    A, B, b = rng.standard_normal((m, n)), rng.standard_normal((m, p)), rng.standard_normal(m)
    (f, h1), = [(F, mode) for name, F, mode in block_choices(rng, n) if name == x_choice]
    for y_choice, g, h2 in block_choices(rng, p):
        inst = problems.SeparableInstance(f, g, A, B, b)
        params = GadmmParams(beta=beta, alpha=alpha, h1=h1, h2=h2)
        x_prev, y_prev, gamma_prev = (rng.standard_normal(d) for d in (n, p, m))
        eng = solver._Engine(inst, params)
        got = eng.step(x_prev, y_prev, gamma_prev, B @ y_prev)
        want = reference_step(inst, params, x_prev, y_prev, gamma_prev)
        for name, u, v in zip(("x", "y", "gamma", "gamma_tilde"), got, want):
            tol = 1e-12 * (1.0 + np.max(np.abs(v)))
            assert np.max(np.abs(u - v)) <= tol, (y_choice, name)
        assert np.array_equal(got[4], B @ got[1])  # B y_k, carried forward


def test_subproblem_residuals_at_benchmark_scale():
    # ||P u + q - v||_inf / (1 + ||v||_inf + ||P u||_inf + ||q||_inf) with v
    # the replay's subgradient rows: 5.4e-14 (x) and 9.9e-14 (y) here
    inst = problems.generate_qp(1, 200, 150, 100)
    rep = hpe.Replay(run_full(inst, alpha=1.5, iters=50), inst.solution)
    for F, U, V in ((inst.f, rep.X[1:], rep.Vf), (inst.g, rep.Y[1:], rep.Vg)):
        PU = U @ F.P.T
        scale = 1.0 + np.max(np.abs(V), axis=1) + np.max(np.abs(PU), axis=1)
        scale += np.max(np.abs(F.q))
        assert np.max(np.max(np.abs(PU + F.q - V), axis=1) / scale) <= 1e-12
