import math

import numpy as np
import pytest

from gadmm import certificates, oracles, problems, solver
from gadmm.certificates import (
    VerificationReport,
    bound_constants,
    ergodic_certificate,
    full_verification,
    pointwise_certificate,
    running_mean,
)
from gadmm.hpe import Replay
from gadmm.solver import GadmmParams, LinearizedH

from conftest import gamma_tilde, make_one_d_instance, rate_estimate, run_full, shifted, state


def ergodic_rows(rep):
    """The ergodic rows of a replay by name."""
    return {r.name: r for r in ergodic_certificate(rep)}


class TestBoundConstants:
    def test_alpha_one(self):
        sig, c, ct = bound_constants(1.0)
        assert sig == pytest.approx(0.5)
        assert c == pytest.approx(3.0)
        assert ct == pytest.approx(40.5)

    def test_alpha_two(self):
        sig, c, ct = bound_constants(2.0)
        assert sig == pytest.approx(1.0)
        assert c == pytest.approx(1.0)
        assert ct == pytest.approx(12.0)

    def test_pointwise_factor_alpha_one(self):
        # 2[alpha(1+sigma) + 8(2-alpha)sigma] / (alpha(1-sigma)) = 22 at alpha=1
        assert certificates.pointwise_constant(1.0, 1.0) == pytest.approx(math.sqrt(22.0))

    def test_pointwise_factor_rejects_alpha_two(self):
        with pytest.raises(ValueError):
            certificates.pointwise_constant(2.0, 1.0)


class TestCheckedIterations:
    def test_full(self):
        # every row of the report checks every k = 1..K; at alpha = 2 only
        # the two not-applicable rows have none
        qp, lasso = problems.generate_qp(6, 4, 3, 2), problems.generate_lasso(7, 6, 12, 0.2)
        runs = [
            (qp, run_full(qp, alpha=1.5, iters=37)),
            (lasso, run_full(lasso, alpha=2.0, iters=37, h1=LinearizedH(), h2=LinearizedH())),
        ]
        for inst, traj in runs:
            report = full_verification(traj, inst.solution)
            assert report.passed, report.earliest_failure
            unchecked = {r.name for r in report.rows if not r.ks.size}
            interior = traj.params.alpha < 2.0
            assert unchecked == (set() if interior else {"pointwise_bound", "rho_contractive_bound"})
            assert len(report.rows) == 18
            assert all(r.ks.tolist() == list(range(1, 38)) for r in report.rows if r.ks.size)

    def test_empty(self, one_d_instance):
        traj = run_full(one_d_instance, alpha=1.0, iters=0)
        assert full_verification(traj, one_d_instance.solution).rows == []
        with pytest.raises(ValueError, match="no iterations"):
            ergodic_certificate(Replay(traj, one_d_instance.solution))


class TestErgodicPoint:
    def test_k_one_is_first_iterate(self, one_d_instance):
        traj = run_full(one_d_instance, alpha=1.0, iters=5)
        erg = ergodic_rows(Replay(traj, one_d_instance.solution))
        ks = erg["ergodic_eps_bound"].ks
        st = state(traj, 1)
        assert ks[0] == 1
        assert np.allclose(running_mean(traj.X[1:])[0], st.x)
        assert np.allclose(running_mean(traj.Y[1:])[0], st.y)
        assert np.allclose(running_mean(gamma_tilde(traj))[0], st.gamma_tilde)
        assert -erg["ergodic_eps_x_nonneg"].lhs[0] == pytest.approx(0.0, abs=1e-15)
        assert -erg["ergodic_eps_y_nonneg"].lhs[0] == pytest.approx(0.0, abs=1e-15)

    def test_residual_average_telescopes(self):
        # the ergodic residual row's lhs is ||(z_k - z_0)/k||_M, and z_k - z_0
        # is the sum of the first k steps
        inst = problems.generate_qp(1, 4, 3, 2)
        traj = run_full(inst, alpha=1.5, beta=1.1, iters=50)
        rep = Replay(traj, inst.solution)
        row = ergodic_rows(rep)["ergodic_residual_bound"]
        n, p = inst.n, inst.p
        for k in (1, 7, 50):
            dsum = np.zeros(n + p + inst.m)
            for dz in np.diff(traj.Z, axis=0)[:k]:
                dsum += dz
            assert np.allclose(dsum[:n], traj.X[k] - traj.X[0], atol=1e-12)
            z0, zk = state(traj, 0), state(traj, k)
            assert np.allclose(dsum[n + p :], zk.gamma - z0.gamma, atol=1e-15)
            r_norm = np.sqrt(rep.metric.seminorm_sq(dsum / k))
            assert row.lhs[k - 1] == pytest.approx(r_norm, rel=1e-12, abs=1e-15)

    def test_hand_cross_check_k_two(self, one_d_instance):
        # oracle: direct evaluation of the two-term averaged sums with the
        # metric assembled explicitly (diag(0, 1, 1) for this instance)
        traj = run_full(one_d_instance, alpha=1.0, iters=2)
        s1, s2 = state(traj, 1), state(traj, 2)
        M = np.diag([0.0, 1.0, 1.0])
        x_avg = (s1.x + s2.x) / 2
        y_avg = (s1.y + s2.y) / 2
        gt_avg = (s1.gamma_tilde + s2.gamma_tilde) / 2
        ztil_avg = np.concatenate([x_avg, y_avg, gt_avg])
        eps_metric = 0.0
        for st in (s1, s2):
            dz = np.concatenate([st.dx, st.dy, st.dgamma])
            ztil = np.concatenate([st.x, st.y, st.gamma_tilde])
            eps_metric += float((M @ dz) @ (ztil_avg - ztil))
        eps_metric /= 2.0
        erg = ergodic_rows(Replay(traj, one_d_instance.solution))
        ks = erg["ergodic_eps_bound"].ks
        assert ks[1] == 2
        assert np.allclose(running_mean(traj.X[1:])[1], x_avg)
        assert erg["ergodic_eps_bound"].lhs[1] == pytest.approx(eps_metric, abs=1e-12)
        assert erg["eps_split_identity"].lhs[1] <= 1e-12


class TestEpsilonSplit:
    def test_k_one_both_sides_zero(self, one_d_instance):
        traj = run_full(one_d_instance, alpha=1.0, iters=1)
        split = ergodic_rows(Replay(traj, one_d_instance.solution))["eps_split_identity"]
        assert split.lhs[0] <= 1e-15

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_random_qp_relative(self, alpha):
        inst = problems.generate_qp(2, 5, 4, 3)
        traj = run_full(inst, alpha=alpha, beta=0.9, iters=120)
        erg = ergodic_rows(Replay(traj, inst.solution))
        split, eps_sum = erg["eps_split_identity"], erg["ergodic_eps_bound"].lhs
        assert split.ks.tolist() == list(range(1, 121))
        # |eps^a| >= |eps_x + eps_y| - split, so this is no looser than 1e-8 (1 + |eps^a|)
        assert np.all(split.lhs <= 1e-8 * (1.0 + np.abs(eps_sum) - split.lhs))


def centred_sum(V, Z, k):
    """Oracle: (1/k) sum_{i<=k} <v_i, z_i - z^a_k>, centred at the mean first."""
    Z = Z[:k]
    return float(np.sum(V[:k] * (Z - Z.mean(axis=0)))) / k


def averaged_inclusion(traj, k):
    """Oracle: the averaged inclusion at k, formed directly from the averaged
    iterates and the averaged step (z_k - z_0)/k, one matrix-vector product
    per operator.  Returns the two conjugate gaps and the constraint residual."""
    inst, alpha, beta = traj.instance, traj.params.alpha, traj.params.beta
    A, B = inst.A, inst.B
    c = (1.0 - alpha) / alpha
    xa, ya = traj.X[1 : k + 1].mean(axis=0), traj.Y[1 : k + 1].mean(axis=0)
    gta = gamma_tilde(traj)[:k].mean(axis=0)
    rx, ry, rg = ((Z[k] - Z[0]) / k for Z in (traj.X, traj.Y, traj.G))
    h2_total = traj.h2 + (beta / alpha) * (B.T @ B)
    gap_f = oracles.fenchel_gap(inst.f, A.T @ gta - traj.h1 @ rx, xa)
    gap_g = oracles.fenchel_gap(inst.g, B.T @ gta - h2_total @ ry - c * (B.T @ rg), ya)
    resid = c * (B @ ry) + rg / (alpha * beta) + A @ xa + B @ ya - inst.b
    return gap_f, gap_g, float(np.linalg.norm(resid))


class TestErgodicPrefixSums:
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_matches_centred_sums_at_every_k(self, alpha):
        inst = problems.generate_qp(2, 5, 4, 3)
        traj = run_full(inst, alpha=alpha, beta=0.9, iters=300)
        rep = Replay(traj, inst.solution)
        erg = ergodic_rows(rep)
        ks = erg["ergodic_eps_bound"].ks
        assert ks.tolist() == list(range(1, 301))
        X, Y = traj.X[1:], traj.Y[1:]
        x_avg, y_avg, gt_avg = (running_mean(Z) for Z in (X, Y, gamma_tilde(traj)))
        z_tilde = np.hstack([X, Y, gamma_tilde(traj)])  # the rows z~_k
        eps_x, eps_y = -erg["ergodic_eps_x_nonneg"].lhs, -erg["ergodic_eps_y_nonneg"].lhs
        eps_sum, split = erg["ergodic_eps_bound"].lhs, erg["eps_split_identity"].lhs

        def close(value, oracle):
            return abs(value - oracle) <= 1e-12 * (1.0 + abs(oracle))

        for k in ks:
            i = k - 1
            assert np.array_equal(x_avg[i], X[:k].mean(axis=0))
            assert np.array_equal(y_avg[i], Y[:k].mean(axis=0))
            assert np.array_equal(gt_avg[i], gamma_tilde(traj)[:k].mean(axis=0))
            assert close(eps_x[i], centred_sum(rep.Vf, X, k)), k
            assert close(eps_y[i], centred_sum(rep.Vg, Y, k)), k
            # the metric epsilon lies within the split residual of eps_x + eps_y
            metric_eps = centred_sum(-rep.MDZ, z_tilde, k)
            assert close(eps_sum[i], metric_eps), k
            assert split[i] <= 1e-12 * (1.0 + abs(metric_eps)), k

    @pytest.mark.parametrize(
        "make, h", [(lambda: problems.generate_qp(2, 5, 4, 3), None),
                    (lambda: problems.generate_lasso(3, 5, 10, 0.3), LinearizedH())],
        ids=["qp", "lasso"],
    )
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_averaged_inclusion_matches_direct_formula(self, make, h, alpha):
        inst = make()
        traj = run_full(inst, alpha=alpha, beta=0.9, iters=300, h1=h, h2=h)
        # a shifted multiplier breaks the identities at k = 8 and 9, so the
        # averaged residual at k = 8 is more than rounding
        traj = shifted(traj, 8, 0.01)
        erg = ergodic_rows(Replay(traj, inst.solution))
        gaps_f, gaps_g = erg["ergodic_inclusion_f"].lhs, erg["ergodic_inclusion_g"].lhs
        residuals = erg["ergodic_constraint_identity"].lhs
        assert residuals[7] > 1e-4
        for k in erg["ergodic_constraint_identity"].ks:
            gap_f, gap_g, cons = averaged_inclusion(traj, k)
            assert np.isclose(gaps_f[k - 1], gap_f, rtol=0.0, atol=1e-12), k
            assert np.isclose(gaps_g[k - 1], gap_g, rtol=0.0, atol=1e-12), k
            assert np.isclose(residuals[k - 1], cons, rtol=0.0, atol=1e-12), k

    def test_long_verification(self, one_d_instance):
        traj = run_full(one_d_instance, alpha=2.0, iters=20_000)
        report = full_verification(traj, one_d_instance.solution)
        assert report.passed, report.earliest_failure
        assert report.meta["iterations"] == 20_000
        assert all(np.array_equal(r.ks, np.arange(1, 20_001)) for r in report.rows if r.ks.size)


class TestPointwise:
    def test_bound_holds_random_qp(self):
        inst = problems.generate_qp(1, 5, 4, 3)
        for alpha in (0.5, 1.0, 1.5, 1.9):
            traj = run_full(inst, alpha=alpha, beta=1.0, iters=400)
            pw = pointwise_certificate(Replay(traj, inst.solution))
            VerificationReport([pw]).raise_first()
            assert np.all(pw.lhs <= pw.rhs + 1e-7 * (1.0 + pw.rhs))

    def test_alpha_two_rejected(self):
        inst = problems.generate_qp(1, 4, 3, 2)
        traj = run_full(inst, alpha=2.0, beta=1.0, iters=10)
        with pytest.raises(ValueError, match="alpha = 2"):
            pointwise_certificate(Replay(traj, inst.solution))

    def test_start_at_solution(self):
        inst = problems.generate_qp(3, 4, 3, 2)
        sol = inst.solution
        params = GadmmParams(beta=1.0, alpha=1.0, max_iter=5, stop_tol=0.0)
        traj = solver.run(inst, params, x0=sol.x, y0=sol.y, gamma0=sol.gamma)
        pw = pointwise_certificate(Replay(traj, sol))
        VerificationReport([pw]).raise_first()
        assert np.all(pw.lhs <= 1e-9)
        assert np.all(pw.rhs <= 1e-6)  # d0 = 0 makes the bound collapse too


class TestErgodicCertificate:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_random_qp(self, alpha):
        inst = problems.generate_qp(4, 5, 4, 3)
        traj = run_full(inst, alpha=alpha, beta=1.2, iters=300)
        rows = ergodic_certificate(Replay(traj, inst.solution))
        VerificationReport(rows).raise_first()
        assert all(r.ks[-1] == 300 for r in rows)

    def test_lasso_linearized_alpha_two(self):
        # the headline configuration: relaxation at its extreme value with
        # both blocks linearized
        inst = problems.generate_lasso(7, 8, 16, 0.2)
        traj = run_full(
            inst, alpha=2.0, beta=1.0, iters=600, h1=LinearizedH(), h2=LinearizedH()
        )
        rows = ergodic_certificate(Replay(traj, inst.solution))
        VerificationReport(rows).raise_first()
        erg = {r.name: r for r in rows}
        r_row, eps_row = erg["ergodic_residual_bound"], erg["ergodic_eps_bound"]
        assert np.all(r_row.lhs <= r_row.rhs + 1e-7 * (1.0 + r_row.rhs))
        eps_x, eps_y = -erg["ergodic_eps_x_nonneg"].lhs, -erg["ergodic_eps_y_nonneg"].lhs
        assert np.array_equal(eps_row.lhs, eps_x + eps_y)
        assert np.all(eps_row.lhs <= eps_row.rhs + 1e-7 * (1.0 + eps_row.rhs))

    def test_eps_nonnegative(self):
        inst = problems.generate_qp(5, 4, 4, 2)
        for alpha in (0.5, 1.0, 1.5, 2.0):
            traj = run_full(inst, alpha=alpha, beta=0.8, iters=200)
            rows = ergodic_certificate(Replay(traj, inst.solution))
            VerificationReport(rows).raise_first()
            erg = {r.name: r for r in rows}
            eps_x, eps_y = -erg["ergodic_eps_x_nonneg"].lhs, -erg["ergodic_eps_y_nonneg"].lhs
            assert np.all(eps_x >= -1e-7 * (1.0 + np.abs(eps_x)))
            assert np.all(eps_y >= -1e-7 * (1.0 + np.abs(eps_y)))

    @pytest.mark.parametrize("alpha, ct", [(1.0, 40.5), (2.0, 12.0)])
    def test_eps_bound_rhs_is_ct_d0_over_k(self, alpha, ct):
        inst = problems.generate_qp(1, 3, 2, 2)
        rep = Replay(run_full(inst, alpha=alpha, iters=100), inst.solution)
        row = ergodic_rows(rep)["ergodic_eps_bound"]
        assert rep.d0 > 0
        for k in (1, 2, 7, 30, 100):
            assert row.rhs[k - 1] == pytest.approx(ct * rep.d0 / k, rel=1e-14)

    def test_eps_decaying_like_one_over_sqrt_k_fails(self, one_d_instance):
        # replace the x block of an honest record by a_i = (-1)^i c i^(-1/4)
        # and its subgradient by a_i, so eps_x(k) = mean(a^2) - mean(a)^2 is
        # about 2c^2/sqrt(k); eps_y = 0.  c^2 = ct d0 / sqrt(K) keeps k = 1
        # inside the O(1/k) bound and crosses it near k = K/4
        K = 400
        rep = Replay(run_full(one_d_instance, alpha=1.0, iters=K), one_d_instance.solution)
        i = np.arange(1, K + 1)
        a = (-1.0) ** i * math.sqrt(40.5 * rep.d0 / math.sqrt(K)) * i**-0.25
        rep.Z = rep.Z.copy()  # the record is read-only; z~'s x block is read off Z
        rep.Z[1:, 0], rep.Vf[:, 0], rep.Vg[:, 0] = a, a, 0.0
        row = ergodic_rows(rep)["ergodic_eps_bound"]
        assert rate_estimate(zip(i[1:], row.lhs[1:])) == pytest.approx(-0.5, abs=0.05)
        assert not row.passed
        assert 1 < row.first_k < K

    def test_every_k(self):
        inst = problems.generate_qp(6, 4, 3, 2)
        traj = run_full(inst, alpha=1.0, beta=1.0, iters=40)
        rows = ergodic_certificate(Replay(traj, inst.solution))
        VerificationReport(rows).raise_first()
        assert all(r.ks.tolist() == list(range(1, 41)) for r in rows)


class TestRateEstimate:
    def test_one_over_k(self):
        pts = [(k, 1.0 / k) for k in range(1, 101)]
        assert rate_estimate(pts) == pytest.approx(-1.0, abs=1e-10)

    def test_one_over_sqrt_k(self):
        pts = [(k, 1.0 / math.sqrt(k)) for k in range(1, 101)]
        assert rate_estimate(pts) == pytest.approx(-0.5, abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="10"):
            rate_estimate([(k, 1.0 / k) for k in range(1, 9)])

    def test_nonpositive_values(self):
        pts = [(k, 1.0 / k) for k in range(1, 20)] + [(20, 0.0)]
        with pytest.raises(ValueError, match="positive"):
            rate_estimate(pts)


class TestReports:
    def test_full_verification_passes(self):
        inst = problems.generate_qp(8, 5, 4, 3)
        for alpha in (1.0, 2.0):
            traj = run_full(inst, alpha=alpha, beta=1.0, iters=150)
            report = full_verification(traj, inst.solution)
            assert report.passed, report.earliest_failure
            names = {r.name for r in report.rows}
            assert "hpe_inequality" in names
            assert "rho_bound" in names
            assert "pointwise_bound" in names
            assert "ergodic_eps_bound" in names
            assert "eps_split_identity" in names

    def test_full_verification_alpha_two_marks_pointwise(self):
        inst = problems.generate_qp(8, 4, 3, 2)
        traj = run_full(inst, alpha=2.0, beta=1.0, iters=20)
        report = full_verification(traj, inst.solution)
        row = next(r for r in report.rows if r.name == "pointwise_bound")
        assert row.passed and row.note == "not-applicable at alpha=2"

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_large_values_certify(self, alpha):
        # x + y = 3e4: at the solution 1.5e4, f(x) and f*(u) are near 1e8,
        # so a gap formed as F(x) + F*(u) - <u, x> rounds to -2e-8 and
        # failed the 1e-8 inclusion tolerance at k = 4 (alpha 1) and 13 (0.5)
        one_d = make_one_d_instance()
        inst = problems.SeparableInstance(
            one_d.f, one_d.g, one_d.A, one_d.B, [3e4],
            solution=problems.KktPoint([1.5e4], [1.5e4], [1.5e4]),
        )
        report = full_verification(run_full(inst, alpha=alpha, iters=2000), inst.solution)
        assert report.passed, report.earliest_failure

    def test_full_verification_catches_corruption(self):
        inst = problems.generate_qp(9, 4, 3, 2)
        traj = shifted(run_full(inst, alpha=1.0, beta=1.0, iters=30), 10, 0.25, "x")
        report = full_verification(traj, inst.solution)
        assert not report.passed
        assert report.earliest_failure.worst_k == 10
