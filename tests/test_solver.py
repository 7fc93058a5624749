import csv
import dataclasses
import errno
import os
import threading
import tracemalloc

import numpy as np
import pytest

from gadmm import cli, hpe, linalg, oracles, problems, records, solver
from gadmm.errors import ConfigError, DivergenceError, NotPositiveDefiniteError
from gadmm.problems import KktPoint
from gadmm.solver import ExplicitH, GadmmParams, LinearizedH

from conftest import (
    assert_nothing_left,
    count_forks,
    gamma_tilde,
    make_one_d_instance,
    run_full,
    state,
    state_pairs,
)


def vanilla_admm(inst, beta, iters, x0=None, y0=None, gamma0=None):
    """Standard two-block ADMM written directly from its textbook recursion,
    for quadratic blocks only.  Returns the iterate list [(x, y, gamma)]
    and the intermediate multipliers gamma_half_k = gamma_{k-1}
    - beta (A x_k + B y_{k-1} - b).  Independent of the engine under test."""
    A, B, b = inst.A, inst.B, inst.b
    Pf, qf = inst.f.P, inst.f.q
    Pg, qg = inst.g.P, inst.g.q
    x = np.zeros(inst.n) if x0 is None else np.asarray(x0, dtype=float)
    y = np.zeros(inst.p) if y0 is None else np.asarray(y0, dtype=float)
    g = np.zeros(inst.m) if gamma0 is None else np.asarray(gamma0, dtype=float)
    Kx = Pf + beta * (A.T @ A)
    Ky = Pg + beta * (B.T @ B)
    iterates = [(x.copy(), y.copy(), g.copy())]
    halves = []
    for _ in range(iters):
        x = np.linalg.solve(Kx, A.T @ g - qf - beta * (A.T @ (B @ y - b)))
        halves.append(g - beta * (A @ x + B @ y - b))
        y = np.linalg.solve(Ky, B.T @ g - qg - beta * (B.T @ (A @ x - b)))
        g = g - beta * (A @ x + B @ y - b)
        iterates.append((x.copy(), y.copy(), g.copy()))
    return iterates, halves


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GadmmParams(beta=0.0)
        with pytest.raises(ConfigError):
            GadmmParams(beta=1.0, alpha=0.0)
        with pytest.raises(ConfigError):
            GadmmParams(beta=1.0, alpha=2.5)
        with pytest.raises(ConfigError):
            GadmmParams(beta=1.0, max_iter=-1)
        with pytest.raises(ConfigError):
            GadmmParams(beta=1.0, h1=LinearizedH(tau=-1.0))

    def test_alpha_two_accepted(self):
        GadmmParams(beta=1.0, alpha=2.0)

    def test_explicit_h_must_be_psd(self):
        with pytest.raises(ValueError, match="^H is not positive semidefinite$"):
            ExplicitH([[-1.0]])

    def test_operator_factory(self):
        mat = np.diag([0.0, 1.0])
        h = ExplicitH(mat)
        assert np.array_equal(h.matrix, mat) and h.matrix is not mat
        assert not h.matrix.flags.writeable
        with pytest.raises(ValueError, match=r"^H must be square, got shape \(2, 3\)$"):
            ExplicitH(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "mat, message",
        [
            (np.diag([1.0, -1.0]), "H is not positive semidefinite"),
            (np.array([[1.0, 1.0], [0.0, 1.0]]), "H is not symmetric"),
            (np.array([[1.0, 3.0], [0.0, 1.0]]), "H is not symmetric"),  # and indefinite
        ],
    )
    def test_operator_factory_messages(self, mat, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExplicitH(mat)

    def test_linearized_tau_floor(self):
        inst = make_one_d_instance()
        # ||A||^2 = 1, beta = 2 -> tau must be >= 2
        params = GadmmParams(beta=2.0, h1=LinearizedH(tau=1.0))
        with pytest.raises(ConfigError, match="tau"):
            solver.resolve_prox_terms(inst, params)

    def test_linearized_auto_margin(self):
        inst = make_one_d_instance()
        params = GadmmParams(beta=2.0, h1=LinearizedH(), h2=LinearizedH())
        h1, h2 = solver.resolve_prox_terms(inst, params)
        # tau = 1.01 * beta * 1 -> H = tau - beta = 0.02
        assert h1[0, 0] == pytest.approx(0.02)
        assert linalg.is_psd(h1)


def first_step(inst, params, x_prev, y_prev, gamma_prev):
    """(x_k, y_k, gamma_k) from (x_{k-1}, y_{k-1}, gamma_{k-1}): row 1 of a
    one-iteration run."""
    params = dataclasses.replace(params, max_iter=1, stop_tol=0.0)
    traj = solver.run(inst, params, x_prev, y_prev, gamma_prev)
    return traj.X[1], traj.Y[1], traj.G[1]


class TestSubproblems:
    def test_x_scalar_oracle(self, one_d_instance):
        # argmin x^2/2 + (x - 3)^2/2 = 1.5 by scalar calculus
        params = GadmmParams(beta=1.0, alpha=1.0)
        x1, _, _ = first_step(one_d_instance, params, [0.0], [0.0], [0.0])
        assert x1 == pytest.approx([1.5], abs=1e-12)

    def test_y_scalar_oracle_alpha_one(self, one_d_instance):
        # argmin y^2/2 + (y - 1.5)^2/2 = 0.75 at x_1 = 1.5
        params = GadmmParams(beta=1.0, alpha=1.0)
        _, y1, _ = first_step(one_d_instance, params, [0.0], [0.0], [0.0])
        assert y1 == pytest.approx([0.75], abs=1e-12)

    def test_y_scalar_oracle_alpha_two(self, one_d_instance):
        # argmin y^2/2 + (y - 3)^2/2 = 1.5 at x_1 = 1.5
        params = GadmmParams(beta=1.0, alpha=2.0)
        _, y1, _ = first_step(one_d_instance, params, [0.0], [0.0], [0.0])
        assert y1 == pytest.approx([1.5], abs=1e-12)

    def test_zero_objective_quadratic_completion(self):
        rng = np.random.default_rng(4)
        n = 3
        inst = problems.SeparableInstance(
            oracles.Zero(),
            oracles.Quadratic(np.eye(n), np.zeros(n)),
            np.eye(n),
            rng.standard_normal((n, n)),
            rng.standard_normal(n),
        )
        beta = 2.0
        params = GadmmParams(beta=beta)
        y_prev = rng.standard_normal(n)
        g_prev = rng.standard_normal(n)
        x1, _, _ = first_step(inst, params, np.zeros(n), y_prev, g_prev)
        expected = inst.b - inst.B @ y_prev + g_prev / beta
        assert np.allclose(x1, expected, atol=1e-12)

    def test_zero_objective_y_side(self):
        rng = np.random.default_rng(5)
        n = 3
        inst = problems.SeparableInstance(
            oracles.Quadratic(np.eye(n), np.zeros(n)),
            oracles.Zero(),
            rng.standard_normal((n, n)),
            np.eye(n),
            rng.standard_normal(n),
        )
        beta = 1.5
        params = GadmmParams(beta=beta, alpha=1.0)
        x_prev = rng.standard_normal(n)
        g_prev = rng.standard_normal(n)
        x_new, y1, _ = first_step(inst, params, x_prev, np.zeros(n), g_prev)
        expected = inst.b - inst.A @ x_new + g_prev / beta
        assert np.allclose(y1, expected, atol=1e-12)

    def test_linearized_l1_zero_data(self):
        n = 3
        inst = problems.SeparableInstance(
            oracles.L1(1.0),
            oracles.Quadratic(np.eye(n), np.zeros(n)),
            np.eye(n),
            -np.eye(n),
            np.zeros(n),
        )
        params = GadmmParams(beta=1.0, h1=LinearizedH())
        x1, _, _ = first_step(inst, params, np.zeros(n), np.zeros(n), np.zeros(n))
        assert np.allclose(x1, 0.0)

    def test_l1_without_linearized_rejected(self):
        n = 2
        inst = problems.SeparableInstance(
            oracles.L1(1.0),
            oracles.Quadratic(np.eye(n), np.zeros(n)),
            np.eye(n),
            -np.eye(n),
            np.zeros(n),
        )
        params = GadmmParams(beta=1.0)
        with pytest.raises(ConfigError, match="linearized"):
            first_step(inst, params, np.zeros(n), np.zeros(n), np.zeros(n))

    def test_singular_subproblem_refused(self):
        # zero objective and a rank-deficient block make the x update singular
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        inst = problems.SeparableInstance(
            oracles.Zero(), oracles.Quadratic(np.eye(2), np.zeros(2)), A, np.eye(2), [1.0, 0.0]
        )
        params = GadmmParams(beta=1.0)
        with pytest.raises(NotPositiveDefiniteError):
            first_step(inst, params, np.zeros(2), np.zeros(2), np.zeros(2))

    def test_first_order_residual_direct(self):
        rng = np.random.default_rng(11)
        inst = problems.generate_qp(11, 5, 4, 3)
        params = GadmmParams(beta=1.7, alpha=1.3)
        x_prev = rng.standard_normal(5)
        y_prev = rng.standard_normal(4)
        g_prev = rng.standard_normal(3)
        x1, y1, _ = first_step(inst, params, x_prev, y_prev, g_prev)
        # gradient of the x subproblem objective at the returned point
        grad = (
            inst.f.grad(x1)
            - inst.A.T @ g_prev
            + params.beta * (inst.A.T @ (inst.A @ x1 + inst.B @ y_prev - inst.b))
        )
        assert np.linalg.norm(grad) <= 1e-9
        relaxed = params.alpha * (inst.A @ x1 + inst.B @ y_prev - inst.b)
        grad_y = (
            inst.g.grad(y1)
            - inst.B.T @ g_prev
            + params.beta * (inst.B.T @ (relaxed + inst.B @ (y1 - y_prev)))
        )
        assert np.linalg.norm(grad_y) <= 1e-9

    def test_recorded_subgradients_match_gradients(self):
        # the replay's subgradient rows v_k are exact in exact arithmetic, so
        # P u_k + q - v_k is the solve's rounding: about 6e-15 here, and
        # about 5e-14 were K^-1 applied alone
        inst = problems.generate_qp(1, 40, 30, 20)
        rep = hpe.Replay(run_full(inst, alpha=1.5, iters=100), inst.solution)
        for F, U, V in ((inst.f, rep.X[1:], rep.Vf), (inst.g, rep.Y[1:], rep.Vg)):
            PU = U @ F.P.T
            scale = 1.0 + np.max(np.abs(V), axis=1) + np.max(np.abs(PU), axis=1)
            scale += np.max(np.abs(F.q))
            assert np.max(np.max(np.abs(PU + F.q - V), axis=1) / scale) <= 2e-14

    def test_first_order_residual_linearized(self):
        rng = np.random.default_rng(12)
        inst = problems.generate_qp(12, 4, 3, 2)
        params = GadmmParams(beta=0.8, alpha=1.0, h1=LinearizedH(), h2=LinearizedH())
        h1, h2 = solver.resolve_prox_terms(inst, params)
        x_prev = rng.standard_normal(4)
        y_prev = rng.standard_normal(3)
        g_prev = rng.standard_normal(2)
        x1, _, _ = first_step(inst, params, x_prev, y_prev, g_prev)
        grad = (
            inst.f.grad(x1)
            - inst.A.T @ g_prev
            + params.beta * (inst.A.T @ (inst.A @ x1 + inst.B @ y_prev - inst.b))
            + h1 @ (x1 - x_prev)
        )
        assert np.linalg.norm(grad) <= 1e-9


class TestStep:
    def test_hand_composition_alpha_one(self, one_d_instance):
        params = GadmmParams(beta=1.0, alpha=1.0, max_iter=1, stop_tol=0)
        st = state(solver.run(one_d_instance, params), 1)
        assert st.x == pytest.approx([1.5], abs=1e-12)
        assert st.y == pytest.approx([0.75], abs=1e-12)
        assert st.gamma == pytest.approx([0.75], abs=1e-12)
        assert st.gamma_tilde == pytest.approx([1.5], abs=1e-12)

    def test_hand_composition_alpha_two(self, one_d_instance):
        params = GadmmParams(beta=1.0, alpha=2.0, max_iter=1, stop_tol=0)
        st = state(solver.run(one_d_instance, params), 1)
        assert st.x == pytest.approx([1.5], abs=1e-12)
        assert st.y == pytest.approx([1.5], abs=1e-12)
        assert st.gamma == pytest.approx([1.5], abs=1e-12)
        gap = problems.kkt_gap(one_d_instance, KktPoint(st.x, st.y, st.gamma))
        assert gap <= 1e-12

    def test_fixed_point_at_solution(self):
        inst = problems.generate_qp(3, 4, 3, 2)
        sol = inst.solution
        for alpha in (0.5, 1.0, 2.0):
            params = GadmmParams(beta=1.3, alpha=alpha, max_iter=1, stop_tol=0)
            st = state(solver.run(inst, params, sol.x, sol.y, sol.gamma), 1)
            assert np.allclose(st.x, sol.x, atol=1e-9)
            assert np.allclose(st.y, sol.y, atol=1e-9)
            assert np.allclose(st.gamma, sol.gamma, atol=1e-9)
            assert np.linalg.norm(st.dx) <= 1e-9
            assert np.linalg.norm(st.dy) <= 1e-9
            assert np.linalg.norm(st.dgamma) <= 1e-9


class TestRun:
    def test_converges_on_one_d(self, one_d_instance):
        params = GadmmParams(beta=1.0, alpha=1.0, max_iter=200, stop_tol=1e-10)
        traj = solver.run(one_d_instance, params)
        final = state(traj, traj.iterations)
        gap = problems.kkt_gap(one_d_instance, KktPoint(final.x, final.y, final.gamma))
        assert gap <= 1e-8
        assert traj.iterations < 200

    def test_max_iter_zero(self, one_d_instance):
        params = GadmmParams(beta=1.0, max_iter=0)
        traj = solver.run(one_d_instance, params)
        assert traj.iterations == 0
        assert traj.X.shape[0] == 1

    def test_matches_vanilla_admm(self):
        # alpha = 1, H = 0 must reproduce the textbook two-block recursion
        for seed in (1, 2, 3, 4, 5):
            inst = problems.generate_qp(seed, 5, 4, 3)
            beta = 1.2
            traj = run_full(inst, alpha=1.0, beta=beta, iters=100)
            oracle, halves = vanilla_admm(inst, beta, 100)
            for k, (x, y, g) in enumerate(oracle):
                assert np.allclose(traj.X[k], x, atol=1e-10)
                assert np.allclose(traj.Y[k], y, atol=1e-10)
                assert np.allclose(traj.G[k], g, atol=1e-10)
            for gt, gh in zip(gamma_tilde(traj), halves):
                assert np.allclose(gt, gh, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.9])
    def test_zero_mode_equals_explicit_zero_h(self, alpha):
        # zero mode skips the H products an explicit all-zero H still adds;
        # the iterates agree bit for bit, up to the sign of a zero
        inst = problems.generate_qp(2, 6, 5, 3)
        zero = run_full(inst, alpha=alpha, iters=60)
        h1, h2 = ExplicitH(np.zeros((6, 6))), ExplicitH(np.zeros((5, 5)))
        explicit = run_full(inst, alpha=alpha, iters=60, h1=h1, h2=h2)
        for name in ("X", "Y", "G"):
            assert np.array_equal(getattr(zero, name), getattr(explicit, name))

    def test_deltas_are_differences(self):
        inst = problems.generate_qp(6, 4, 4, 2)
        traj = run_full(inst, alpha=1.4, beta=0.7, iters=20)
        for prev, st in state_pairs(traj):
            assert np.array_equal(st.dx, st.x - prev.x)
            assert np.array_equal(st.dy, st.y - prev.y)
            assert np.array_equal(st.dgamma, st.gamma - prev.gamma)
            assert np.array_equal(st.dx, np.diff(traj.X, axis=0)[st.k - 1])

    def test_multiplier_identities(self):
        # both linear identities tying the recorded sequences together
        for alpha in (0.5, 1.0, 1.7, 2.0):
            inst = problems.generate_qp(7, 5, 3, 4)
            beta = 1.1
            traj = run_full(inst, alpha=alpha, beta=beta, iters=60)
            A, B, b = inst.A, inst.B, inst.b
            for prev, st in state_pairs(traj):
                lhs = st.gamma_tilde - prev.gamma
                rhs = (st.dgamma + beta * (B @ st.dy)) / alpha
                assert np.linalg.norm(lhs - rhs) <= 1e-10
                resid = (
                    (1.0 - alpha) / alpha * (B @ st.dy)
                    + st.dgamma / (alpha * beta)
                    + (A @ st.x + B @ st.y - b)
                )
                assert np.linalg.norm(resid) <= 1e-10

    def test_subgradient_inclusions(self):
        for alpha in (0.5, 1.0, 2.0):
            inst = problems.generate_qp(8, 4, 4, 3)
            traj = run_full(inst, alpha=alpha, beta=0.9, iters=40)
            gap_f, gap_g, cons = hpe.inclusion_residuals(hpe.Replay(traj, inst.solution))
            assert len(gap_f) == 40
            assert np.all(gap_f <= 1e-8)
            assert np.all(gap_g <= 1e-8)
            assert np.all(cons <= 1e-10)

    def test_step_coupling_inequality(self):
        # 2 <B dy_k, dgamma_k> >= |dy_k|_{H2}^2 - |dy_{k-1}|_{H2}^2 for k >= 2
        inst = problems.generate_qp(9, 5, 4, 3)
        traj = run_full(inst, alpha=1.5, beta=1.0, iters=80, h2=LinearizedH())
        B = inst.B
        prev_sq = None
        for _, st in state_pairs(traj):
            dy_sq = linalg.seminorm_sq(traj.h2, st.dy)
            if st.k >= 2:
                lhs = 2.0 * float((B @ st.dy) @ st.dgamma)
                assert lhs >= dy_sq - prev_sq - 1e-8
            prev_sq = dy_sq

    def test_mixed_modes(self):
        # direct quadratic x block, linearized l1 y block
        inst = problems.generate_lasso(4, 6, 12, 0.3)
        params = GadmmParams(
            beta=1.0, alpha=1.8, h2=LinearizedH(), max_iter=300, stop_tol=1e-9
        )
        traj = solver.run(inst, params)
        final = state(traj, traj.iterations)
        gap = problems.kkt_gap(inst, KktPoint(final.x, final.y, final.gamma_tilde))
        assert gap <= 1e-6

    def test_linearized_equals_explicit_weight(self):
        # the prox route with tau and the direct route with the explicit
        # weight tau*I - beta*Op'Op are the same iteration
        inst = problems.generate_qp(13, 4, 3, 2)
        beta = 1.3
        tau1 = 1.5 * beta * np.linalg.norm(inst.A, 2) ** 2
        tau2 = 1.5 * beta * np.linalg.norm(inst.B, 2) ** 2
        lin = run_full(
            inst, alpha=1.6, beta=beta, iters=40,
            h1=LinearizedH(tau=tau1), h2=LinearizedH(tau=tau2),
        )
        exp = run_full(
            inst, alpha=1.6, beta=beta, iters=40,
            h1=ExplicitH(tau1 * np.eye(4) - beta * inst.A.T @ inst.A),
            h2=ExplicitH(tau2 * np.eye(3) - beta * inst.B.T @ inst.B),
        )
        assert np.allclose(lin.X, exp.X, atol=1e-10)
        assert np.allclose(lin.Y, exp.Y, atol=1e-10)
        assert np.allclose(lin.G, exp.G, atol=1e-10)

    @pytest.mark.parametrize(
        "max_iter, stop_tol",
        [
            pytest.param(m, tol, id=str(m) if tol == 0.0 else f"{m}-tol1e-9")
            for tol in (0.0, 1e-9)
            for m in (3, 5)
        ],
    )
    def test_divergence_names_first_nonfinite_k(
        self, one_d_instance, monkeypatch, max_iter, stop_tol
    ):
        # gamma_3 overflows and every later step reads it; no term of the
        # stopping rule holds at a non-finite or NaN iterate, so the run
        # goes on to max_iter and the scan after it names k = 3
        real = solver._Engine.fill
        calls = []

        def overflow_third(self, Z, k):
            calls.append(None)
            real(self, Z, k)
            if len(calls) == 3:
                Z[k, self.inst.n + self.inst.p :] = np.inf

        monkeypatch.setattr(solver._Engine, "fill", overflow_third)
        params = GadmmParams(beta=1.0, alpha=1.0, max_iter=max_iter, stop_tol=stop_tol)
        with pytest.raises(DivergenceError, match="k=3") as info:
            solver.run(one_d_instance, params)
        assert info.value.k == 3
        assert len(calls) == max_iter

    def test_record_grows_with_the_run_not_max_iter(self, one_d_instance):
        # the record is appended to, never preallocated by max_iter
        params = GadmmParams(beta=1.0, alpha=1.0, max_iter=10**9, stop_tol=1e-10)
        tracemalloc.start()
        try:
            traj = solver.run(one_d_instance, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.iterations < 100
        assert peak < 2**20

    @pytest.mark.parametrize("kind", ["lasso", "qp"])
    def test_no_per_iteration_validation(self, monkeypatch, kind):
        # data is checked where it enters the package, so the number of
        # as_vector calls in a run does not grow with the iteration count
        if kind == "lasso":
            inst = problems.generate_lasso(7, 10, 20, 0.1)
        else:
            inst = problems.generate_qp(1, 8, 6, 4)
        real = linalg.as_vector
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "as_vector", counted)
        counts = []
        for max_iter in (10, 200):
            params = GadmmParams(
                beta=1.0, alpha=1.5, h1=LinearizedH(), h2=LinearizedH(),
                max_iter=max_iter, stop_tol=0,
            )
            calls.clear()
            assert solver.run(inst, params).iterations == max_iter
            counts.append(len(calls))
        assert counts[0] == counts[1]


def scaled(F, s):
    """F with its linear data times s and its constant times s^2."""
    if isinstance(F, oracles.Quadratic):
        return oracles.Quadratic(F.P, s * F.q, s * s * F.c)
    if isinstance(F, oracles.L1):
        return oracles.L1(s * F.mu)
    return F


class TestDataScaleEquivariance:
    """Scaling q, b and mu by s = 2^j and c by s^2 scales every iterate by
    exactly s: each stage of the engine is linear in these data, and a
    power of two multiplies without rounding."""

    def instances(self):
        lasso_h = (LinearizedH(), LinearizedH())
        # the zero-block instance of test_cli.py's data-scale-1e3 test
        zero_block = problems.SeparableInstance(
            oracles.Zero(),
            oracles.Quadratic(np.eye(2), [1000.0, -2000.0]),
            [[1.0], [1.0]],
            np.eye(2),
            [3000.0, 1000.0],
        )
        return [
            (problems.generate_qp(1, 8, 6, 4), (None, None)),
            (problems.generate_qp(2, 8, 6, 4), (None, None)),
            (problems.generate_lasso(7, 10, 20, 0.1), lasso_h),
            (problems.generate_lasso(3, 10, 20, 0.1), lasso_h),
            (zero_block, (None, None)),
        ]

    def test_run_scales_bit_for_bit(self):
        for case, (inst, (h1, h2)) in enumerate(self.instances()):
            for alpha in (0.5, 1.5, 2.0):
                base = run_full(inst, alpha=alpha, iters=300, h1=h1, h2=h2).Z
                for j in range(-60, 61, 10):
                    s = 2.0**j
                    inst_s = problems.SeparableInstance(
                        scaled(inst.f, s), scaled(inst.g, s), inst.A, inst.B, s * inst.b
                    )
                    Z = run_full(inst_s, alpha=alpha, iters=300, h1=h1, h2=h2).Z
                    assert np.array_equal(Z, s * base), (case, alpha, j)


def cell_text(v):
    """The text of one trajectory cell: its ``repr`` when it equals itself
    rounded to 12 decimals, else 17 significant digits."""
    return repr(v) if v == np.round(v, 12) else "%.17g" % v


def rowwise_trajectory_csv(traj, path):
    """The trajectory CSV written one ``csv.writer`` row at a time, k and
    the cells of z_k, each through :func:`cell_text`: the reference for the
    bytes of :func:`solver.save_trajectory_csv`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(solver.trajectory_header(traj.instance))
        for k, z in enumerate(traj.Z):
            writer.writerow([str(k), *map(cell_text, z.tolist())])


def writer_trajectory(kind, iters):
    """A run whose CSV rows have 20 cells (a QP with zero H) or 34 (a lasso
    with both blocks linearized)."""
    if kind == "qp-zero":
        return run_full(problems.generate_qp(4, 8, 6, 5), alpha=1.9, iters=iters)
    inst = problems.generate_lasso(7, 11, 16, 0.2)
    return run_full(inst, alpha=2.0, iters=iters, h1=LinearizedH(), h2=LinearizedH())


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        inst = problems.generate_qp(10, 4, 3, 2)
        traj = run_full(inst, alpha=1.5, beta=1.0, iters=25)
        path = tmp_path / "traj.csv"
        solver.save_trajectory_csv(traj, path)
        back = solver.load_trajectory_csv(path, inst, traj.params)
        assert back.iterations == traj.iterations
        assert np.array_equal(traj.X, back.X)
        assert np.array_equal(traj.Y, back.Y)
        assert np.array_equal(traj.G, back.G)

    def test_deterministic_bytes(self, tmp_path):
        inst = problems.generate_qp(10, 4, 3, 2)
        params = GadmmParams(beta=1.0, alpha=1.5, max_iter=25, stop_tol=0.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        solver.save_trajectory_csv(solver.run(inst, params), p1)
        solver.save_trajectory_csv(solver.run(inst, params), p2)
        assert p1.read_bytes() == p2.read_bytes()

    # With three usable CPUs a table of c cells is split among
    # min(3, c // CELLS_PER_WORKER) processes, the writer and its forks.  QP
    # rows have 20 cells and lasso rows 34, so the tables of 3000 iterations
    # split their 3001 rows 1000/1000/1001, and the QP's of 2000 1000/1001.
    LARGE_FORKS = {
        (2000, "qp-zero"): 1,
        (3000, "qp-zero"): 2,
        (2000, "lasso-linearized"): 2,
        (3000, "lasso-linearized"): 2,
    }

    @pytest.mark.parametrize("kind", ["qp-zero", "lasso-linearized"])
    @pytest.mark.parametrize("iters", [0, 1, 40, 2000, 3000])
    def test_matches_rowwise_writer(self, tmp_path, monkeypatch, kind, iters):
        traj = writer_trajectory(kind, iters)
        counted = count_forks(monkeypatch, cpus=3)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        solver.save_trajectory_csv(traj, got)
        assert len(counted) == self.LARGE_FORKS.get((iters, kind), 0)
        rowwise_trajectory_csv(traj, want)
        assert got.read_bytes() == want.read_bytes()
        assert_nothing_left(tmp_path, ["got.csv", "want.csv"])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("nope\n1,2,3\n")
        inst = problems.generate_qp(10, 4, 3, 2)
        with pytest.raises(ValueError, match="header"):
            solver.load_trajectory_csv(path, inst, GadmmParams(beta=1.0))


class FailingFile:
    """A file, or its binary ``buffer``, whose write of data for which
    ``fails(data)`` is true raises ENOSPC."""

    def __init__(self, fh, fails):
        self._fh, self._fails = fh, fails

    def write(self, data):
        if self._fails(data):
            raise OSError(errno.ENOSPC, "disk full")
        return self._fh.write(data)

    @property
    def buffer(self):
        return FailingFile(self._fh.buffer, self._fails)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


class TestParallelWriter:
    """The forked writer of :func:`solver.save_trajectory_csv` gives the
    serial bytes, or the original error, whatever fails, and leaves no
    temporary file and no child process."""

    @pytest.fixture(scope="class")
    def traj(self):
        return writer_trajectory("lasso-linearized", 2000)

    @pytest.fixture(scope="class")
    def serial(self, traj, tmp_path_factory):
        path = tmp_path_factory.mktemp("serial") / "want.csv"
        rowwise_trajectory_csv(traj, path)
        return path.read_bytes()

    @pytest.mark.parametrize("first_failure", [1, 2])
    def test_fork_failure_leaves_the_ranges_to_the_parent(
        self, tmp_path, monkeypatch, traj, serial, first_failure
    ):
        real = os.fork

        def failing():
            if len(counted) >= first_failure:
                raise OSError(errno.EAGAIN, "fork refused")
            return real()

        counted = count_forks(monkeypatch, cpus=3, fork=failing)
        solver.save_trajectory_csv(traj, tmp_path / "got.csv")
        assert len(counted) == first_failure  # no fork is tried after a failure
        assert (tmp_path / "got.csv").read_bytes() == serial
        assert_nothing_left(tmp_path, ["got.csv"])

    @pytest.mark.parametrize("failure", ["raises", "short", "long"])
    def test_failed_worker_range_is_formatted_by_the_parent(
        self, tmp_path, monkeypatch, traj, serial, failure
    ):
        # the workers format rows 667..1333 and 1334..2000; the second one
        # raises, or exits 0 having written one row too few or too many
        parent, real = os.getpid(), records._write_rows

        def failing_in_a_worker(write, table, start, stop):
            if os.getpid() == parent or start != 1334:
                real(write, table, start, stop)
            elif failure == "raises":
                raise RuntimeError("worker failed")
            elif failure == "short":
                real(write, table, start, stop - 1)
            else:
                real(write, table, start, stop)
                write("2001,junk\r\n")

        monkeypatch.setattr(records, "_write_rows", failing_in_a_worker)
        counted = count_forks(monkeypatch, cpus=3)
        solver.save_trajectory_csv(traj, tmp_path / "got.csv")
        assert len(counted) == 2
        assert (tmp_path / "got.csv").read_bytes() == serial
        assert_nothing_left(tmp_path, ["got.csv"])

    @pytest.mark.parametrize("stage", ["own-rows", "copy"])
    def test_write_error_propagates(self, tmp_path, monkeypatch, traj, stage):
        # each worker's share (about 0.5 MB) overfills its pipe, so a worker
        # is still blocked on its write when the parent's write fails
        if stage == "own-rows":
            fails = lambda data: isinstance(data, str) and data.startswith("100,")  # noqa: E731
        else:
            fails = lambda data: isinstance(data, bytes)  # noqa: E731
        opener = lambda *args, **kwargs: FailingFile(open(*args, **kwargs), fails)  # noqa: E731
        monkeypatch.setattr(records, "open", opener, raising=False)
        counted = count_forks(monkeypatch, cpus=3)
        with pytest.raises(OSError, match="disk full"):
            solver.save_trajectory_csv(traj, tmp_path / "got.csv")
        assert len(counted) == 2
        assert_nothing_left(tmp_path, [])

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch, traj, serial):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            counted = count_forks(monkeypatch, cpus=3)
            solver.save_trajectory_csv(traj, tmp_path / "got.csv")
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert counted == []
        assert (tmp_path / "got.csv").read_bytes() == serial
        assert_nothing_left(tmp_path, ["got.csv"])


def parallel_load(path, traj):
    """Load ``path`` as ``gadmm verify`` does: read it, fork its workers
    beside an instance file of 0 bytes, then load."""
    with records.TrajectoryText(path) as text:
        text.parse_tail(os.devnull)
        return solver.load_trajectory_csv(text, traj.instance, traj.params)


def load_error(load):
    """The message of the ValueError that ``load()`` raises."""
    with pytest.raises(ValueError) as info:
        load()
    return str(info.value)


class TestParallelReader:
    """The forked reader of :class:`records.TrajectoryText` gives the serial
    parse, or the serial error, whatever fails, and leaves no child
    process and no temporary file."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """A lasso run of 2001 rows of 34 cells, and its CSV's lines: two
        parts on 2 CPUs, three on 3."""
        traj = writer_trajectory("lasso-linearized", 2000)
        path = tmp_path_factory.mktemp("reader") / "traj.csv"
        solver.save_trajectory_csv(traj, path)
        return traj, path.read_bytes().decode().split("\r\n")[:-1]

    def write(self, directory, lines):
        path = directory / "traj.csv"
        path.write_text("".join(line + "\r\n" for line in lines), encoding="utf-8")
        return path

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("split", ["1", "mid", "K"])
    def test_matches_serial_parse(self, tmp_path, monkeypatch, recorded, cpus, split):
        traj, lines = recorded
        path = self.write(tmp_path, lines)
        rows = len(lines) - 1
        first = {"1": 1, "mid": rows // 2, "K": rows - 1}[split]
        bounds = []

        def forced(rows_, parts, other_bytes):
            tail = [first + (rows - first) * i // (parts - 1) for i in range(parts)]
            bounds.append(sorted({0, *tail}))
            return bounds[-1]

        monkeypatch.setattr(records, "_read_bounds", forced)
        counted = count_forks(monkeypatch, cpus=cpus)
        got = parallel_load(path, traj)
        assert len(counted) == len(bounds[0]) - 2 == (1 if split == "K" else cpus - 1)
        serial = solver.load_trajectory_csv(path, traj.instance, traj.params)
        assert got.Z.tobytes() == serial.Z.tobytes() == traj.Z.tobytes()
        assert_nothing_left(tmp_path, ["traj.csv"])

    def test_bounds_balance_bytes(self):
        rows = ["x" * 9] * 100  # 10 characters a row with its newline
        assert records._read_bounds(rows, 2, 0) == [0, 50, 100]
        assert records._read_bounds(rows, 2, 200) == [0, 40, 100]
        assert records._read_bounds(rows, 2, 10**6) == [0, 1, 100]  # row 0 stays here
        assert records._read_bounds(rows, 3, 0) == [0, 33, 66, 100]
        # qp-large-full: a 2.36 MB instance beside a 2.24 MB CSV of 251 rows
        # leaves this process row 0 alone
        rows = ["x" * 8927] * 251
        assert records._read_bounds(rows, 2, 2_360_625) == [0, 1, 251]

    @pytest.mark.parametrize("first_failure", [1, 2])
    def test_fork_failure_leaves_the_ranges_to_the_parent(
        self, tmp_path, monkeypatch, recorded, first_failure
    ):
        traj, lines = recorded
        path = self.write(tmp_path, lines)
        real = os.fork

        def failing():
            if len(counted) >= first_failure:
                raise OSError(errno.EAGAIN, "fork refused")
            return real()

        counted = count_forks(monkeypatch, cpus=3, fork=failing)
        got = parallel_load(path, traj)
        assert len(counted) == first_failure  # no fork is tried after a failure
        assert got.Z.tobytes() == traj.Z.tobytes()
        assert_nothing_left(tmp_path, ["traj.csv"])

    @pytest.mark.parametrize("failure", ["raises", "row-short", "row-long", "byte-long", "exit-3"])
    def test_failed_worker_range_is_parsed_by_the_parent(
        self, tmp_path, monkeypatch, recorded, failure
    ):
        # the second worker raises; sends one row too few, or one row or
        # byte too many ahead of its rows; or sends wrong values of the
        # right size and exits 3
        traj, lines = recorded
        path = self.write(tmp_path, lines)
        parent, real, real_exit = os.getpid(), records._parse_rows, os._exit

        def failing_in_a_worker(rows, dtype):
            parsed = real(rows, dtype)
            if os.getpid() == parent or parsed["k"][-1] != len(lines) - 2:
                return parsed
            if failure == "raises":
                raise RuntimeError("worker failed")
            if failure == "row-short":
                return parsed[:-1]
            if failure == "row-long":
                return np.concatenate([parsed[:1], parsed])
            if failure == "byte-long":
                return np.concatenate([np.zeros(1, np.uint8), parsed.view(np.uint8)])
            monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
            parsed["v"] += 1.0
            return parsed

        monkeypatch.setattr(records, "_parse_rows", failing_in_a_worker)
        counted = count_forks(monkeypatch, cpus=3)
        got = parallel_load(path, traj)
        assert len(counted) == 2
        assert got.Z.tobytes() == traj.Z.tobytes()
        assert_nothing_left(tmp_path, ["traj.csv"])

    # Corruptions at file rows 1500 (in the worker's range on 2 CPUs, which
    # starts near row 1000) and, for the pairs, 100 (in this process's).
    CORRUPTIONS = {
        "non-numeric": lambda ls: with_cells(ls, {1500: (3, "abc")}),
        "non-finite": lambda ls: with_cells(ls, {1500: (3, "inf")}),
        "float-k": lambda ls: with_cells(ls, {1500: (0, "1498.0")}),
        "skipped-k": lambda ls: with_cells(ls, {1500: (0, "1499")}),
        "short-row": lambda ls: ls[:1499] + [ls[1499].rsplit(",", 1)[0]] + ls[1500:],
        "blank-line": lambda ls: ls[:1499] + [""] + ls[1499:],
        "both-non-numeric": lambda ls: with_cells(ls, {100: (3, "abc"), 1500: (3, "abc")}),
        "both-non-finite": lambda ls: with_cells(ls, {100: (3, "nan"), 1500: (3, "abc")}),
        "here-non-finite-worker-k": lambda ls: with_cells(ls, {100: (3, "nan"), 1500: (0, "7")}),
    }
    MESSAGES = {
        "non-numeric": "row 1500 has a non-numeric cell",
        "non-finite": "non-finite iterate value in row 1500",
        "float-k": "row 1500: iteration index '1498.0' is not an integer",
        "skipped-k": "iteration indices not contiguous at row 1500",
        "short-row": "row 1500 has 33 cells",
        "blank-line": "row 1500 has 0 cells",
        "both-non-numeric": "row 100 has a non-numeric cell",
        "both-non-finite": "row 1500 has a non-numeric cell",  # parse errors come first
        "here-non-finite-worker-k": "iteration indices not contiguous at row 1500",
    }

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_bad_row_is_named_as_serial(self, tmp_path, monkeypatch, recorded, case):
        traj, lines = recorded
        path = self.write(tmp_path, self.CORRUPTIONS[case](lines))
        serial = load_error(lambda: solver.load_trajectory_csv(path, traj.instance, traj.params))
        counted = count_forks(monkeypatch, cpus=2)
        assert load_error(lambda: parallel_load(path, traj)) == serial
        assert len(counted) == 1
        assert serial == "trajectory file: " + self.MESSAGES[case]
        assert_nothing_left(tmp_path, ["traj.csv"])

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch, recorded):
        traj, lines = recorded
        path = self.write(tmp_path, lines)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            counted = count_forks(monkeypatch, cpus=3)
            got = parallel_load(path, traj)
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert counted == []
        assert got.Z.tobytes() == traj.Z.tobytes()
        assert_nothing_left(tmp_path, ["traj.csv"])

    VERIFY_FLAGS = ["--alpha", "2", "--h1", "linearized", "--h2", "linearized"]

    @pytest.mark.parametrize(
        "case, forks, message",
        [
            ("bad-json", 1, "error: instance file: not valid JSON"),
            ("no-solution", 1, "error: verification needs an instance with a stored solution"),
            ("missing-trajectory", 0, "error: [Errno 2] No such file or directory"),
            ("missing-trajectory-bad-json", 0, "error: instance file: not valid JSON"),
            ("missing-instance", 0, "error: [Errno 2] No such file or directory"),
            ("passes", 1, "all checks pass"),
        ],
    )
    def test_verify_reports_in_the_serial_order(
        self, tmp_path, monkeypatch, capsys, recorded, case, forks, message
    ):
        # the worker starts before the instance is read, and an instance
        # error still comes before the trajectory's (row 1500 is bad too)
        traj, lines = recorded
        inst = traj.instance
        if case == "no-solution":
            inst = dataclasses.replace(inst, solution=None)
        if case != "missing-instance":
            problems.save_instance(inst, tmp_path / "inst.json")
        if case.endswith("bad-json"):
            text = (tmp_path / "inst.json").read_text()
            (tmp_path / "inst.json").write_text(text[: len(text) // 2])
        if case in ("bad-json", "no-solution"):
            lines = with_cells(lines, {1500: (3, "abc")})
        if not case.startswith("missing-trajectory"):
            self.write(tmp_path, lines)
        argv = ["verify", "--instance", str(tmp_path / "inst.json"),
                "--trajectory", str(tmp_path / "traj.csv"), "--out", str(tmp_path / "report.json")]
        counted = count_forks(monkeypatch, cpus=2)
        code = cli.main(argv + self.VERIFY_FLAGS)
        assert (code, len(counted)) == (0 if case == "passes" else 1, forks)
        assert capsys.readouterr().err.startswith(message)
        left = ["inst.json"] * (case != "missing-instance")
        left += ["traj.csv"] * (not case.startswith("missing-trajectory"))
        assert_nothing_left(tmp_path, left + ["report.json"] * (case == "passes"))

    def test_benchmark_verifies_fork_only_for_large_tables(self, tmp_path, monkeypatch):
        # the 27 commands of perfbench's workloads on 2 CPUs: one worker
        # each for lasso-replay and qp-large-full, none for the 25 qp-sweep
        # tables of at most about 2.5k cells
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import workloads

        counted, forks = count_forks(monkeypatch, cpus=2), {}
        for name, workload in workloads.WORKLOADS.items():
            for inst in workload.instances:
                assert cli.main(workloads.generate_argv(inst, str(tmp_path))) == 0
            for idx, cmd in enumerate(workload.commands):
                inst_path, out = str(tmp_path / f"{cmd.instance}.json"), tmp_path / f"{name}{idx}"
                assert cli.main(workloads.run_argv(cmd, inst_path, str(out))) == 0
                before = len(counted)
                argv = workloads.verify_argv(
                    cmd, inst_path, str(out / "trajectory.csv"), str(out / "report.json")
                )
                assert cli.main(argv) == 0
                forks.setdefault(name, []).append(len(counted) - before)
        assert forks == {"lasso-replay": [1], "qp-sweep": [0] * 25, "qp-large-full": [1]}


def with_cells(lines, cells):
    """The lines with cells replaced: ``cells`` maps a file row (from 1) to
    (column, value)."""
    lines = list(lines)
    for row, (col, value) in cells.items():
        parts = lines[row - 1].split(",")
        parts[col] = value
        lines[row - 1] = ",".join(parts)
    return lines
