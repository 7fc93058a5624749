import math

import numpy as np
import pytest

from gadmm import hpe, problems, solver
from gadmm.certificates import VerificationReport
from gadmm.errors import CertificationError
from gadmm.problems import KktPoint
from gadmm.solver import GadmmParams

from conftest import run_full, state_pairs


def hand_eig_2x2(a, b, c):
    """Eigenvalues of [[a, b], [b, c]] from the characteristic polynomial."""
    tr, det = a + c, a * c - b * b
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return sorted([(tr - disc) / 2.0, (tr + disc) / 2.0])


def metric_identity_residual(metric, z_prev, z_k, z_tilde, probe) -> float:
    """Residual of the algebraic expansion used by the Fejer argument:

        ||z-z_k||^2_M - ||z-z_{k-1}||^2_M
      = ||z~-z_k||^2_M - ||z~-z_{k-1}||^2_M + 2 <M(z_{k-1}-z_k), z-z~>

    for an arbitrary probe point z; holds identically, so the residual is
    pure rounding.
    """
    lhs = metric.seminorm_sq(probe - z_k) - metric.seminorm_sq(probe - z_prev)
    cross = 2.0 * float((metric.matrix @ (z_prev - z_k)) @ (probe - z_tilde))
    rhs = metric.seminorm_sq(z_tilde - z_k) - metric.seminorm_sq(z_tilde - z_prev) + cross
    return abs(lhs - rhs)


class TestSigmaAlpha:
    def test_alpha_two_is_one(self):
        assert hpe.sigma_alpha(2.0) == pytest.approx(1.0)

    def test_alpha_one_is_half(self):
        assert hpe.sigma_alpha(1.0) == pytest.approx(0.5)

    def test_alpha_half(self):
        assert hpe.sigma_alpha(0.5) == pytest.approx(4.0 / 7.0)

    def test_interior_values_below_one(self):
        for alpha in (0.1, 0.5, 1.0, 1.5, 1.9):
            assert 0.0 < hpe.sigma_alpha(alpha) < 1.0

    def test_out_of_range(self):
        for alpha in (0.0, -1.0, 2.1):
            with pytest.raises(ValueError):
                hpe.sigma_alpha(alpha)


class TestBuildMetric:
    def test_alpha_one_block_diagonal(self):
        inst = problems.generate_qp(1, 3, 2, 2)
        beta = 1.7
        h1 = np.zeros((3, 3))
        h2 = np.zeros((2, 2))
        metric = hpe.build_metric(inst, h1, h2, beta, 1.0)
        M = metric.matrix
        # the y-gamma coupling vanishes at alpha = 1
        assert np.allclose(M[3:5, 5:], 0.0)
        assert np.allclose(M[5:, 3:5], 0.0)
        assert np.allclose(M[3:5, 3:5], beta * inst.B.T @ inst.B)
        assert np.allclose(M[5:, 5:], np.eye(2) / beta)
        assert np.allclose(M[:3, :3], 0.0)

    def test_one_d_unit_case(self, one_d_instance):
        metric = hpe.build_metric(
            one_d_instance, np.zeros((1, 1)), np.zeros((1, 1)), 1.0, 1.0
        )
        assert np.allclose(metric.matrix, np.diag([0.0, 1.0, 1.0]))

    def test_alpha_two_scalar_hand_eigenvalues(self, one_d_instance):
        metric = hpe.build_metric(
            one_d_instance, np.zeros((1, 1)), np.zeros((1, 1)), 1.0, 2.0
        )
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, -0.5], [0.0, -0.5, 0.5]])
        assert np.allclose(metric.matrix, expected)
        # eigenvalues {0} U eig([[.5,-.5],[-.5,.5]]) = {0, 0, 1}, all >= 0
        lo, hi = hand_eig_2x2(0.5, -0.5, 0.5)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(1.0)

    def test_psd_over_parameter_grid(self):
        inst = problems.generate_qp(2, 4, 3, 2)
        for alpha in (0.1, 0.5, 1.0, 1.5, 1.9, 2.0):
            for beta in (0.1, 1.0, 10.0):
                params = GadmmParams(beta=beta, alpha=alpha)
                h1, h2 = solver.resolve_prox_terms(inst, params)
                metric = hpe.build_metric(inst, h1, h2, beta, alpha)
                assert metric.side == 9


def certify(traj, z_star):
    """The rows of :func:`hpe.certify_hpe` by name, and their report."""
    rows = hpe.certify_hpe(hpe.Replay(traj, z_star))
    return {r.name: r for r in rows}, VerificationReport(rows)


class TestCertifyHpe:
    def test_hand_numbers_alpha_one(self, one_d_instance):
        traj = run_full(one_d_instance, alpha=1.0, iters=1)
        z_star = one_d_instance.solution
        rows, report = certify(traj, z_star)
        report.raise_first()
        # |z~1 - z1|_M^2 = 0.75^2, sigma |z~1 - z0|_M^2 = (0.75^2 + 1.5^2)/2,
        # d0 = 4.5 so eta0 = 4 * 0.5 * 4.5 = 9
        ineq = rows["hpe_inequality"]
        assert ineq.lhs[0] == pytest.approx(0.5625, abs=1e-12)
        assert ineq.rhs[0] == pytest.approx(1.40625 + 9.0, abs=1e-12)
        assert ineq.rhs[0] - ineq.lhs[0] == pytest.approx(0.84375 + 9.0, abs=1e-12)
        assert hpe.Replay(traj, z_star).eta[1] == 0.0
        assert rows["hpe_inclusion_f"].lhs[0] <= 1e-12
        assert rows["hpe_inclusion_g"].lhs[0] <= 1e-12
        assert rows["constraint_identity"].lhs[0] <= 1e-12
        assert rows["multiplier_identity"].lhs[0] <= 1e-12

    def test_fixed_point_trajectory(self):
        inst = problems.generate_qp(3, 4, 3, 2)
        sol = inst.solution
        params = GadmmParams(beta=1.0, alpha=1.3, max_iter=10, stop_tol=0.0)
        traj = solver.run(inst, params, x0=sol.x, y0=sol.y, gamma0=sol.gamma)
        rows, report = certify(traj, sol)
        report.raise_first()
        ineq = rows["hpe_inequality"]
        assert np.all(np.abs(ineq.lhs) <= 1e-12)
        assert np.all(ineq.rhs - ineq.lhs >= -1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_random_qp_certifies(self, alpha):
        inst = problems.generate_qp(4, 5, 4, 3)
        traj = run_full(inst, alpha=alpha, beta=1.3, iters=150)
        rows, report = certify(traj, inst.solution)
        report.raise_first()
        assert len(rows["hpe_inequality"].ks) == 150

    def test_corrupted_multiplier_caught(self, one_d_instance):
        traj = run_full(one_d_instance, alpha=1.0, iters=10)
        traj.G[5] += 0.5
        rows, report = certify(traj, one_d_instance.solution)
        with pytest.raises(CertificationError) as err:
            report.raise_first()
        assert err.value.k == 5
        assert len(rows["hpe_inequality"].ks) == 10

    def test_rejects_bad_reference(self, one_d_instance):
        traj = run_full(one_d_instance, alpha=1.0, iters=3)
        with pytest.raises(ValueError, match="reference"):
            hpe.Replay(traj, KktPoint([0.0], [0.0], [0.0]))


class TestRho:
    def test_hand_value_one_d(self, one_d_instance):
        traj = run_full(one_d_instance, alpha=1.0, iters=1)
        rho = hpe.rho_sequence(hpe.Replay(traj, one_d_instance.solution))
        assert rho[0] == pytest.approx(2.8125, abs=1e-12)

    def test_constant_at_fixed_point(self):
        inst = problems.generate_qp(5, 4, 3, 2)
        sol = inst.solution
        params = GadmmParams(beta=1.0, alpha=1.0, max_iter=8, stop_tol=0.0)
        traj = solver.run(inst, params, x0=sol.x, y0=sol.y, gamma0=sol.gamma)
        assert np.all(hpe.rho_sequence(hpe.Replay(traj, sol)) <= 1e-15)

    def test_nondecreasing(self):
        inst = problems.generate_qp(6, 5, 4, 3)
        traj = run_full(inst, alpha=1.5, beta=0.8, iters=100)
        rho = hpe.rho_sequence(hpe.Replay(traj, inst.solution))
        assert np.all(np.diff(rho) >= 0.0)

    def test_bound_constant_alpha_one(self, one_d_instance):
        # at alpha = 1 the bound is 4*3*[1 + 4*0.5] * d0 = 36 d0
        traj = run_full(one_d_instance, alpha=1.0, iters=20)
        row = hpe.check_rho_bound(hpe.Replay(traj, one_d_instance.solution))
        d0 = hpe.initial_distance_sq(traj, one_d_instance.solution)
        assert f"bound={36.0 * d0:.6g}" == row.note
        assert row.passed

    def test_bound_holds_alpha_grid(self):
        inst = problems.generate_qp(1, 5, 4, 3)
        for alpha in (0.5, 1.0, 1.5, 2.0):
            traj = run_full(inst, alpha=alpha, beta=1.0, iters=500)
            assert hpe.check_rho_bound(hpe.Replay(traj, inst.solution)).passed

    def test_contractive_bound_alpha_below_two(self):
        inst = problems.generate_qp(2, 4, 3, 2)
        traj = run_full(inst, alpha=1.5, beta=1.0, iters=200)
        assert hpe.check_rho_contractive_bound(hpe.Replay(traj, inst.solution)).passed
        traj2 = run_full(inst, alpha=2.0, beta=1.0, iters=10)
        with pytest.raises(ValueError):
            hpe.check_rho_contractive_bound(hpe.Replay(traj2, inst.solution))


class TestCompanionChecks:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_delta_inequalities(self, alpha):
        inst = problems.generate_lasso(1, 6, 12, 0.4)
        traj = run_full(
            inst, alpha=alpha, beta=1.0, iters=200, h2=solver.LinearizedH()
        )
        assert hpe.check_delta_inequalities(hpe.Replay(traj, inst.solution)).passed

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_delta_inequalities_lasso_seeds(self, seed):
        inst = problems.generate_lasso(seed, 6, 12, 0.3)
        traj = run_full(inst, alpha=1.5, beta=1.0, iters=150, h2=solver.LinearizedH())
        row = hpe.check_delta_inequalities(hpe.Replay(traj, inst.solution))
        assert row.passed and row.worst_slack >= -1e-8

    def test_delta_inequality_trivial_without_h2(self):
        # with H2 = 0 the k >= 2 inequality reads 2 <B dy, dgamma> >= 0
        inst = problems.generate_qp(7, 4, 3, 2)
        traj = run_full(inst, alpha=1.0, beta=1.0, iters=100)
        BDY = np.diff(traj.Y, axis=0) @ inst.B.T
        DG = np.diff(traj.G, axis=0)
        assert np.all(2.0 * np.einsum("ij,ij->i", BDY, DG)[1:] >= -1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_fejer_monotonicity(self, alpha):
        inst = problems.generate_qp(8, 5, 4, 3)
        traj = run_full(inst, alpha=alpha, beta=1.2, iters=300)
        assert hpe.check_fejer(hpe.Replay(traj, inst.solution)).passed

    def test_metric_identity_random_probes(self):
        inst = problems.generate_qp(9, 4, 3, 2)
        traj = run_full(inst, alpha=1.7, beta=0.9, iters=30)
        metric = hpe.metric_for(traj)
        rng = np.random.default_rng(0)
        dim = metric.side
        for prev, st in state_pairs(traj):
            z_prev = np.concatenate([prev.x, prev.y, prev.gamma])
            z_k = np.concatenate([st.x, st.y, st.gamma])
            z_til = np.concatenate([st.x, st.y, st.gamma_tilde])
            for _ in range(3):
                probe = rng.standard_normal(dim) * 5.0
                resid = metric_identity_residual(metric, z_prev, z_k, z_til, probe)
                assert resid <= 1e-8


def test_initial_distance_checks_block_lengths():
    # a length-1 block would broadcast against x_0 if it were not checked first
    inst = problems.generate_qp(2, 4, 3, 2)
    traj = run_full(inst, alpha=1.0, iters=3)
    sol = inst.solution
    with pytest.raises(ValueError, match="x has length 1, expected 4"):
        hpe.initial_distance_sq(traj, KktPoint(sol.x[:1], sol.y, sol.gamma))
