"""Acceptance suite: every criterion at its pinned tolerance, one
pass/fail line per criterion (run with ``pytest -s`` to see them).

Scale: 10 random strictly convex QP instances (n=6, p=5, m=3) and 3
consensus-l1 instances (n=8), runs up to 5000 iterations, early stopping
disabled so the bounds are exercised at every k.
"""

import functools

import numpy as np
import pytest

from gadmm import certificates, hpe, oracles, problems, solver
from gadmm.certificates import bound_constants
from gadmm.solver import GadmmParams, LinearizedH

from conftest import gamma_tilde, make_one_d_instance, rate_estimate, run_full, state
from test_oracles import grid_gap
from test_solver import vanilla_admm

QP_SEEDS = tuple(range(1, 11))
QP_DIMS = (6, 5, 3)
QP_ITERS = 2000
HPE_ALPHAS = (0.5, 1.0, 1.5, 2.0)
POINTWISE_ALPHAS = (0.5, 1.0, 1.5, 1.9)
LASSO_SEEDS = (7, 8, 9)
LASSO_ALPHAS = (1.0, 2.0)
LASSO_ITERS = {7: 5000, 8: 1500, 9: 1500}

REL_TOL = 1e-7
GAP_TOL = 1e-8
IDENTITY_TOL = 1e-10
SPLIT_TOL = 1e-8


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                print(f"[{'PASS' if ok else 'FAIL'}] {name}")

        return wrapper

    return deco


def rel_slack_ok(lhs, rhs):
    return lhs <= rhs + REL_TOL * (1.0 + max(abs(lhs), abs(rhs)))


def rows_by_name(rows):
    return {r.name: r for r in rows}


@pytest.fixture(scope="module")
def qp_suite():
    return {seed: problems.generate_qp(seed, *QP_DIMS) for seed in QP_SEEDS}


@pytest.fixture(scope="module")
def qp_runs(qp_suite):
    cache = {}

    def get(seed, alpha):
        key = (seed, alpha)
        if key not in cache:
            cache[key] = run_full(qp_suite[seed], alpha=alpha, beta=1.0, iters=QP_ITERS)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def lasso_suite():
    return {seed: problems.generate_lasso(seed, 8, 16, 0.2) for seed in LASSO_SEEDS}


@pytest.fixture(scope="module")
def lasso_runs(lasso_suite):
    cache = {}

    def get(seed, alpha):
        key = (seed, alpha)
        if key not in cache:
            cache[key] = run_full(
                lasso_suite[seed],
                alpha=alpha,
                beta=1.0,
                iters=LASSO_ITERS[seed],
                h1=LinearizedH(),
                h2=LinearizedH(),
            )
        return cache[key]

    return get


def _all_runs(qp_suite, qp_runs, lasso_suite, lasso_runs, qp_alphas=HPE_ALPHAS):
    for seed in QP_SEEDS:
        for alpha in qp_alphas:
            yield qp_suite[seed].solution, qp_runs(seed, alpha)
    for seed in LASSO_SEEDS:
        for alpha in LASSO_ALPHAS:
            yield lasso_suite[seed].solution, lasso_runs(seed, alpha)


@criterion("criterion 1: per-iteration certificates (inequality, inclusions, identities)")
def test_criterion_1_hpe_certification(qp_suite, qp_runs, lasso_suite, lasso_runs):
    checked = 0
    for z_star, traj in _all_runs(qp_suite, qp_runs, lasso_suite, lasso_runs):
        c = rows_by_name(hpe.certify_hpe(hpe.Replay(traj, z_star)))
        ineq = c["hpe_inequality"]
        scale = np.maximum(np.abs(ineq.lhs), np.abs(ineq.rhs))
        ok = ineq.rhs - ineq.lhs >= -REL_TOL * (1.0 + scale)
        assert np.all(ok), (traj.params.alpha, ineq.ks[~ok])
        assert np.all(c["hpe_inclusion_f"].lhs <= GAP_TOL)
        assert np.all(c["hpe_inclusion_g"].lhs <= GAP_TOL)
        assert np.all(c["multiplier_identity"].lhs <= IDENTITY_TOL)
        assert np.all(c["constraint_identity"].lhs <= IDENTITY_TOL)
        checked += len(ineq.ks)
    assert checked >= 40 * QP_ITERS


@criterion("criterion 2: pointwise bound for alpha in (0,2), alpha=2 rejected")
def test_criterion_2_pointwise_bound(qp_suite, qp_runs):
    for seed in QP_SEEDS:
        for alpha in POINTWISE_ALPHAS:
            traj = qp_runs(seed, alpha)
            pw = certificates.pointwise_certificate(hpe.Replay(traj, qp_suite[seed].solution))
            running_min, rhs = pw.lhs, pw.rhs
            assert len(running_min) == QP_ITERS
            for lhs_k, rhs_k in zip(running_min, rhs):
                assert rel_slack_ok(lhs_k, rhs_k), (seed, alpha)
    traj2 = qp_runs(QP_SEEDS[0], 2.0)
    with pytest.raises(ValueError):
        certificates.pointwise_certificate(hpe.Replay(traj2, qp_suite[QP_SEEDS[0]].solution))


@criterion("criterion 3: ergodic bounds at every k, including alpha=2")
def test_criterion_3_ergodic_bounds(qp_suite, qp_runs, lasso_suite, lasso_runs):
    sig1, c1, ct1 = bound_constants(1.0)
    assert (c1, ct1) == (pytest.approx(3.0), pytest.approx(40.5))
    sig2, c2, ct2 = bound_constants(2.0)
    assert (c2, ct2) == (pytest.approx(1.0), pytest.approx(12.0))
    for z_star, traj in _all_runs(qp_suite, qp_runs, lasso_suite, lasso_runs):
        erg = rows_by_name(certificates.ergodic_certificate(hpe.Replay(traj, z_star)))
        r_row, eps_row = erg["ergodic_residual_bound"], erg["ergodic_eps_bound"]
        eps_x, eps_y = -erg["ergodic_eps_x_nonneg"].lhs, -erg["ergodic_eps_y_nonneg"].lhs
        for k, r_lhs, r_rhs, eps_sum, eps_rhs in zip(
            r_row.ks, r_row.lhs, r_row.rhs, eps_x + eps_y, eps_row.rhs
        ):
            assert rel_slack_ok(r_lhs, r_rhs), (traj.params.alpha, k)
            assert rel_slack_ok(eps_sum, eps_rhs), (traj.params.alpha, k)


@criterion("criterion 4: running-maximum bound on the full suite, including alpha=2")
def test_criterion_4_rho_bound(qp_suite, qp_runs, lasso_suite, lasso_runs):
    for z_star, traj in _all_runs(qp_suite, qp_runs, lasso_suite, lasso_runs):
        row = hpe.check_rho_bound(hpe.Replay(traj, z_star))
        assert row.passed, (traj.params.alpha, row.worst_k, row.worst_slack)
        assert all(rel_slack_ok(rho, bound) for rho, bound in zip(row.lhs, row.rhs))


@criterion("criterion 5: epsilon split identity at every k")
def test_criterion_5_epsilon_split(qp_suite, qp_runs, lasso_suite, lasso_runs):
    for z_star, traj in _all_runs(qp_suite, qp_runs, lasso_suite, lasso_runs):
        erg = rows_by_name(certificates.ergodic_certificate(hpe.Replay(traj, z_star)))
        split = erg["eps_split_identity"]
        assert split.ks.tolist() == list(range(1, traj.iterations + 1))
        eps_x, eps_y = -erg["ergodic_eps_x_nonneg"].lhs, -erg["ergodic_eps_y_nonneg"].lhs
        for k, resid, eps_sum in zip(split.ks, split.lhs, eps_x + eps_y):
            # |eps_m| >= |eps_x + eps_y| - resid: no looser than SPLIT_TOL (1 + |eps_m|)
            assert resid <= SPLIT_TOL * (1.0 + abs(eps_sum) - resid), (traj.params.alpha, k)


@criterion("criterion 6: alpha=1, H=0 matches an independent standard ADMM to 1e-10")
def test_criterion_6_vanilla_equivalence():
    for seed in range(1, 6):
        inst = problems.generate_qp(seed, *QP_DIMS)
        beta = 1.0
        traj = run_full(inst, alpha=1.0, beta=beta, iters=100)
        oracle_states, oracle_halves = vanilla_admm(inst, beta, 100)
        for k, (x, y, g) in enumerate(oracle_states):
            assert np.max(np.abs(traj.X[k] - x)) <= 1e-10
            assert np.max(np.abs(traj.Y[k] - y)) <= 1e-10
            assert np.max(np.abs(traj.G[k] - g)) <= 1e-10
        for gt, gh in zip(gamma_tilde(traj), oracle_halves):
            assert np.max(np.abs(gt - gh)) <= 1e-10


@criterion("criterion 7: scalar hand trajectory reproduced to 1e-12")
def test_criterion_7_hand_trajectory():
    inst = make_one_d_instance()
    st1 = state(solver.run(inst, GadmmParams(beta=1.0, alpha=1.0, max_iter=1, stop_tol=0)), 1)
    assert abs(st1.x[0] - 1.5) <= 1e-12
    assert abs(st1.y[0] - 0.75) <= 1e-12
    assert abs(st1.gamma[0] - 0.75) <= 1e-12
    assert abs(st1.gamma_tilde[0] - 1.5) <= 1e-12
    st2 = state(solver.run(inst, GadmmParams(beta=1.0, alpha=2.0, max_iter=1, stop_tol=0)), 1)
    assert abs(st2.x[0] - 1.5) <= 1e-12
    assert abs(st2.y[0] - 1.5) <= 1e-12
    assert abs(st2.gamma[0] - 1.5) <= 1e-12


@criterion("criterion 8: empirical slopes (ergodic <= -0.9, pointwise <= -0.45)")
def test_criterion_8_empirical_rates(qp_suite, qp_runs):
    for seed in QP_SEEDS[:5]:
        traj = qp_runs(seed, 1.0)
        z_star = qp_suite[seed].solution
        pre = hpe.Replay(traj, z_star)
        r_row = rows_by_name(certificates.ergodic_certificate(pre))["ergodic_residual_bound"]
        r_series = list(zip(r_row.ks.tolist(), r_row.lhs.tolist()))
        assert rate_estimate(r_series) <= -0.9, seed
        running_min = np.minimum.accumulate(pre.step_norms)
        pw_series = [
            (k + 1, float(v)) for k, v in enumerate(running_min) if v > 1e-14
        ]
        assert len(pw_series) >= 10
        assert rate_estimate(pw_series) <= -0.45, seed


@criterion("criterion 9: prox-optimality and grid agreement, 1000 probes per variant")
def test_criterion_9_oracle_soundness():
    rng = np.random.default_rng(2024)

    def random_quadratic(dim):
        G = rng.standard_normal((dim, dim))
        return oracles.Quadratic(G @ G.T / dim + 0.2 * np.eye(dim), rng.standard_normal(dim))

    variants = {
        "quadratic": random_quadratic,
        "l1": lambda dim: oracles.L1(rng.uniform(0.1, 3.0)),
        "zero": lambda dim: oracles.Zero(),
    }
    for kind, make in variants.items():
        for _ in range(1000):
            dim = int(rng.integers(1, 5))
            F = make(dim)
            t = float(rng.uniform(0.05, 5.0))
            v = rng.standard_normal(dim) * 3.0
            p = F.prox_solver(t)(v)
            assert oracles.fenchel_gap(F, (v - p) / t, p) <= GAP_TOL, kind
    # 1-D grid agreement per variant
    for _ in range(1000):
        pcoef = rng.uniform(0.2, 3.0)
        F = oracles.Quadratic([[pcoef]], rng.standard_normal(1))
        x = float(rng.uniform(-2, 2))
        u = float(rng.uniform(-2, 2))
        assert abs(
            oracles.fenchel_gap(F, [u], [x]) - grid_gap(F, u, x, -30, 30, 60001)
        ) <= 1e-6
    for _ in range(1000):
        mu = rng.uniform(0.5, 2.0)
        F = oracles.L1(mu)
        x = float(rng.uniform(-2, 2))
        u = float(rng.uniform(-mu, mu))
        assert abs(
            oracles.fenchel_gap(F, [u], [x]) - grid_gap(F, u, x, -40, 40, 80001)
        ) <= 1e-6
    for _ in range(1000):
        F = oracles.Zero()
        x = float(rng.uniform(-2, 2))
        assert abs(oracles.fenchel_gap(F, [0.0], [x]) - grid_gap(F, 0.0, x)) <= 1e-6
