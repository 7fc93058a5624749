import math

import numpy as np
import pytest

from gadmm import hpe, linalg, problems, solver
from gadmm.certificates import VerificationReport
from gadmm.errors import CertificationError, InternalCheckError
from gadmm.problems import KktPoint
from gadmm.solver import GadmmParams

from conftest import metric_matrix, random_spd, run_full, shifted, state_pairs


def reference_metric(inst, h1, h2, beta, alpha):
    """M assembled densely from the paper's formula."""
    n, p, m = inst.n, inst.p, inst.m
    B, c = inst.B, (1.0 - alpha) / alpha
    M = np.zeros((n + p + m, n + p + m))
    M[:n, :n] = h1
    M[n : n + p, n : n + p] = h2 + (beta / alpha) * B.T @ B
    M[n : n + p, n + p :] = c * B.T
    M[n + p :, n : n + p] = c * B
    M[n + p :, n + p :] = np.eye(m) / (alpha * beta)
    return M


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
    cross = 2.0 * float(metric.apply(z_prev - z_k) @ (probe - z_tilde))
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
        M = metric_matrix(metric)
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
        assert np.allclose(metric_matrix(metric), np.diag([0.0, 1.0, 1.0]))

    def test_alpha_two_scalar_hand_eigenvalues(self, one_d_instance):
        metric = hpe.build_metric(
            one_d_instance, np.zeros((1, 1)), np.zeros((1, 1)), 1.0, 2.0
        )
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, -0.5], [0.0, -0.5, 0.5]])
        assert np.allclose(metric_matrix(metric), expected)
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


H_MODES = {
    "zero": lambda dim, rng: solver.ZeroH(),
    "linearized": lambda dim, rng: solver.LinearizedH(),
    "explicit": lambda dim, rng: solver.ExplicitH(random_spd(rng, dim, ridge=0.0)),
}


def metric_case(kind, mode, alpha, seed=0):
    """(instance, metric, resolved h1 and h2, beta) of one instance kind and
    proximal-weight mode."""
    if kind == "qp":
        inst = problems.generate_qp(3, 6, 5, 3)
    else:
        inst = problems.generate_lasso(7, 8, 16, 0.2)
    rng = np.random.default_rng(seed)
    params = GadmmParams(beta=1.3, alpha=alpha, h1=H_MODES[mode](inst.n, rng),
                         h2=H_MODES[mode](inst.p, rng))
    h1, h2 = solver.resolve_prox_terms(inst, params)
    return inst, hpe.build_metric(inst, h1, h2, params.beta, alpha), h1, h2, params.beta


class TestProximalMetric:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9, 2.0])
    @pytest.mark.parametrize("mode", list(H_MODES))
    @pytest.mark.parametrize("kind", ["qp", "lasso"])
    def test_apply_identity_is_the_paper_metric(self, kind, mode, alpha):
        inst, metric, h1, h2, beta = metric_case(kind, mode, alpha)
        expected = reference_metric(inst, h1, h2, beta, alpha)
        assert np.allclose(metric_matrix(metric), expected, rtol=1e-14, atol=1e-14)
        assert (metric.h1 is None) == (mode == "zero")

    @pytest.mark.parametrize("mode", list(H_MODES))
    @pytest.mark.parametrize("kind", ["qp", "lasso"])
    def test_seminorm_matches_the_dense_form(self, kind, mode):
        inst, metric, h1, h2, beta = metric_case(kind, mode, 1.5, seed=1)
        M = reference_metric(inst, h1, h2, beta, 1.5)
        rng = np.random.default_rng(2)
        V = rng.standard_normal((40, metric.side)) * 3.0
        got, expected = metric.seminorm_sq(V), np.vecdot(V, V @ M)
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)
        assert isinstance(metric.seminorm_sq(V[3]), float)
        assert metric.seminorm_sq(V[3]) == pytest.approx(expected[3], rel=1e-12)
        assert np.allclose(metric.apply(V), V @ M, rtol=1e-12, atol=1e-12)
        assert np.allclose(metric.apply(V[5]), (V @ M)[5], rtol=1e-12, atol=1e-12)

    def test_seminorm_clamps_rounding_in_the_null_space(self):
        # at alpha = 2 with zero H, (0, y, gamma) with gamma = beta B y lies in
        # the null space of W, and x is in the null space of H1 = 0
        inst = problems.generate_qp(2, 4, 3, 2)
        metric = hpe.build_metric(inst, np.zeros((4, 4)), np.zeros((3, 3)), 1.0, 2.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.standard_normal(4) * 10.0, rng.standard_normal(3) * 10.0
            assert metric.seminorm_sq(np.concatenate([x, y, inst.B @ y])) >= 0.0

    @pytest.mark.parametrize("block", ["h1", "h2"])
    def test_indefinite_weight_fails_the_probe(self, block):
        inst = problems.generate_qp(3, 6, 5, 3)
        h = {"h1": np.zeros((6, 6)), "h2": np.zeros((5, 5))}
        h[block] = -1e-6 * np.eye(h[block].shape[0])
        assert not linalg.is_psd(reference_metric(inst, h["h1"], h["h2"], 1.0, 1.5))
        with pytest.raises(InternalCheckError, match="failed the PSD probe"):
            hpe.build_metric(inst, h["h1"], h["h2"], 1.0, 1.5)

    def test_large_qp_holds_no_array_past_the_y_gamma_block(self):
        # the 200/150/100 zero-H QP of the qp-large-full benchmark workload
        inst = problems.generate_qp(1, 200, 150, 100)
        metric = hpe.build_metric(inst, np.zeros((200, 200)), np.zeros((150, 150)), 1.0, 1.5)
        held = [v for v in vars(metric).values() if isinstance(v, np.ndarray)]
        assert metric.h1 is None and held
        assert max(a.size for a in held) <= (150 + 100) ** 2
        assert all(not a.flags.writeable for a in held)


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
        traj = shifted(run_full(one_d_instance, alpha=1.0, iters=10), 5, 0.5)
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

    @pytest.mark.parametrize("alpha, factor", [(0.5, None), (1.0, 36.0), (1.5, None), (2.0, 5.0)])
    def test_bound_closed_form(self, alpha, factor):
        # 4(1+2alpha)[alpha + 4(2-alpha)sigma] d0 / alpha^3, sigma = 1/(1 + alpha(2-alpha))
        sigma = 1.0 / (1.0 + alpha * (2.0 - alpha))
        closed = 4.0 * (1.0 + 2.0 * alpha) * (alpha + 4.0 * (2.0 - alpha) * sigma) / alpha**3
        if factor is not None:
            assert closed == pytest.approx(factor, rel=1e-15)
        inst = problems.generate_qp(1, 3, 2, 2)
        rep = hpe.Replay(run_full(inst, alpha=alpha, iters=20), inst.solution)
        row = hpe.check_rho_bound(rep)
        assert rep.d0 > 0
        assert np.allclose(row.rhs, closed * rep.d0, rtol=1e-14, atol=0.0)

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
