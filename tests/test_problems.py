import dataclasses
import json
import math
import os

import numpy as np
import pytest

from gadmm import certificates, cli, oracles, problems
from gadmm.errors import ConfigError
from gadmm.problems import KktPoint, SeparableInstance

from conftest import assert_nothing_left, count_forks, run_full, same_bits


class TestKktGap:
    def test_closed_form_optimum(self, one_d_instance):
        # stationarity gives x = gamma, y = gamma, and x + y = 3
        gap = problems.kkt_gap(one_d_instance, KktPoint([1.5], [1.5], [1.5]))
        assert gap <= 1e-10

    def test_origin_dominated_by_constraint(self, one_d_instance):
        gap = problems.kkt_gap(one_d_instance, KktPoint([0.0], [0.0], [0.0]))
        assert gap == pytest.approx(3.0)

    def test_zero_objectives_symmetric_split(self):
        inst = SeparableInstance(
            oracles.Zero(), oracles.Zero(), np.eye(3), -np.eye(3), np.zeros(3)
        )
        v = np.array([0.3, -1.2, 4.0])
        assert problems.kkt_gap(inst, KktPoint(v, v, np.zeros(3))) == pytest.approx(0.0)


class TestGenerateQp:
    def test_solution_is_tight(self):
        inst = problems.generate_qp(1, 4, 3, 2)
        assert problems.kkt_gap(inst, inst.solution) <= 1e-8

    def test_deterministic(self):
        a = problems.generate_qp(1, 4, 3, 2)
        b = problems.generate_qp(1, 4, 3, 2)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.f.P, b.f.P)
        assert np.array_equal(a.solution.x, b.solution.x)

    def test_scalar_instance_matches_hand_solve(self):
        inst = problems.generate_qp(2, 1, 1, 1)
        pf = float(inst.f.P[0, 0])
        qf = float(inst.f.q[0])
        pg = float(inst.g.P[0, 0])
        qg = float(inst.g.q[0])
        a = float(inst.A[0, 0])
        b_ = float(inst.B[0, 0])
        rhs = float(inst.b[0])
        # Cramer's rule on [[pf,0,-a],[0,pg,-b],[a,b,0]] (x,y,g) = (-qf,-qg,rhs)
        K = np.array([[pf, 0.0, -a], [0.0, pg, -b_], [a, b_, 0.0]])
        det = np.linalg.det(K)
        sol = []
        for col in range(3):
            Kc = K.copy()
            Kc[:, col] = [-qf, -qg, rhs]
            sol.append(np.linalg.det(Kc) / det)
        assert inst.solution.x[0] == pytest.approx(sol[0], rel=1e-10)
        assert inst.solution.y[0] == pytest.approx(sol[1], rel=1e-10)
        assert inst.solution.gamma[0] == pytest.approx(sol[2], rel=1e-10)

    def test_full_row_rank(self):
        for seed in range(1, 6):
            inst = problems.generate_qp(seed, 6, 5, 3)
            ab = np.hstack([inst.A, inst.B])
            assert float(np.min(np.linalg.eigvalsh(ab @ ab.T))) > 1e-6

    def test_m_too_large_rejected(self):
        with pytest.raises(ConfigError):
            problems.generate_qp(1, 2, 2, 5)


class TestGenerateLasso:
    def test_consensus_structure(self):
        inst = problems.generate_lasso(7, 10, 20, 0.1)
        assert np.array_equal(inst.A, np.eye(10))
        assert np.array_equal(inst.B, -np.eye(10))
        assert np.array_equal(inst.b, np.zeros(10))
        assert isinstance(inst.g, oracles.L1)

    def test_reference_point_is_tight(self):
        inst = problems.generate_lasso(7, 10, 20, 0.1)
        assert problems.kkt_gap(inst, inst.solution) <= 1e-6

    def test_huge_mu_kills_solution(self):
        rng = np.random.default_rng(3)
        C = rng.standard_normal((15, 6))
        d = rng.standard_normal(15)
        mu = 10.0 * float(np.max(np.abs(C.T @ d)))
        inst = problems.generate_lasso(3, 6, 15, mu)
        assert np.allclose(inst.solution.y, 0.0, atol=1e-12)

    def test_deterministic(self):
        a = problems.generate_lasso(5, 6, 12, 0.5)
        b = problems.generate_lasso(5, 6, 12, 0.5)
        assert np.array_equal(a.f.P, b.f.P)
        assert np.array_equal(a.solution.x, b.solution.x)

    def test_bad_mu(self):
        with pytest.raises(ConfigError):
            problems.generate_lasso(1, 4, 8, 0.0)

    # (seed, n, m_data, mu) of the lassos the tests generate; the
    # benchmark's are read from perfbench's workloads
    TEST_LASSOS = [
        (0, 1, 1, 0.1), (0, 3, 2, 1e300), (1, 3, 6, 0.2), (1, 6, 12, 0.2), (2, 6, 12, 0.2),
        (1, 6, 12, 0.4), (2, 5, 10, 0.3), (3, 5, 10, 0.3), (4, 6, 12, 0.3), (5, 6, 12, 0.5),
        (7, 6, 12, 0.2), (7, 8, 16, 0.2), (8, 8, 16, 0.2), (9, 8, 16, 0.2), (7, 10, 20, 0.1),
        (8575, 3, 1, 1e-5), (9741, 17, 16, 1.92),
        *((seed, 6, 12, 0.3) for seed in range(1, 6)),
    ]

    def test_every_generated_reference_is_exact(self, monkeypatch):
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import workloads

        bench = [
            (inst.seed, *(value for _, value in inst.dims))
            for workload in workloads.WORKLOADS.values()
            for inst in workload.instances
            if inst.kind == "lasso"
        ]
        assert bench
        gaps = {}
        for case in self.TEST_LASSOS + bench:
            inst = problems.generate_lasso(*case)
            gaps[case] = problems.kkt_gap(inst, inst.solution)
        assert max(gaps.values()) <= 1e-13, gaps


class TestSolveGroundTruth:
    def test_one_d(self, one_d_instance):
        sol = problems.solve_ground_truth(one_d_instance)
        assert np.allclose(sol.x, [1.5], atol=1e-12)
        assert np.allclose(sol.y, [1.5], atol=1e-12)
        assert np.allclose(sol.gamma, [1.5], atol=1e-12)

    def test_block_elimination(self):
        # f = |x|^2/2, g = |y|^2/2, A = B = I: x = y = gamma = b/2
        n = 4
        b = np.array([1.0, -2.0, 0.5, 3.0])
        inst = SeparableInstance(
            oracles.Quadratic(np.eye(n), np.zeros(n)),
            oracles.Quadratic(np.eye(n), np.zeros(n)),
            np.eye(n),
            np.eye(n),
            b,
        )
        sol = problems.solve_ground_truth(inst)
        assert np.allclose(sol.x, b / 2, atol=1e-12)
        assert np.allclose(sol.y, b / 2, atol=1e-12)
        assert np.allclose(sol.gamma, b / 2, atol=1e-12)

    def test_feasibility_only(self):
        # zero objectives, invertible A, B = 0: x = A^{-1} b, gamma = 0
        A = np.array([[2.0, 1.0], [0.0, 1.0]])
        b = np.array([3.0, 1.0])
        inst = SeparableInstance(oracles.Zero(), oracles.Zero(), A, np.zeros((2, 2)), b)
        sol = problems.solve_ground_truth(inst)
        assert np.allclose(sol.x, np.linalg.solve(A, b), atol=1e-10)
        assert np.allclose(sol.gamma, 0.0, atol=1e-10)

    def test_duplicate_columns_come_from_the_path(self, monkeypatch):
        # f = (1/2)(x1 + x2)^2 - x1 - x2: the path's first active block is
        # P itself, which is singular
        calls, real = [], problems.lasso_path
        monkeypatch.setattr(problems, "lasso_path", lambda *a: calls.append(a) or real(*a))
        inst = SeparableInstance(
            oracles.Quadratic(np.ones((2, 2)), [-1.0, -1.0]),
            oracles.L1(0.1),
            np.eye(2),
            -np.eye(2),
            np.zeros(2),
        )
        sol = problems.solve_ground_truth(inst)
        assert len(calls) == 1
        assert problems.kkt_gap(inst, sol) <= problems.SOLUTION_GAP_TOL
        assert sol.x.sum() == pytest.approx(0.9)

    def test_every_collinear_column_lasso_gets_a_reference(self):
        # consensus lassos with one column a multiple of another (by 1, -1
        # or a random factor), exactly or to within a relative 1e-9, at mu
        # down to 1e-6: tied joins, singular active blocks, and a twin
        # leaving while the other stays
        rng = np.random.default_rng(0)
        gaps = []
        for _ in range(1000):
            m, n = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            C, d = rng.standard_normal((m, n)), rng.standard_normal(m)
            i, j = rng.choice(n, 2, replace=False)
            eps = rng.choice([0.0, 1e-17, 1e-15, 1e-9])
            u = rng.uniform(-2, 2)
            mult = rng.choice([1.0, -1.0, u])
            mu = 10.0 ** rng.uniform(-6, 0)
            C[:, j] = mult * C[:, i] * (1 + eps)
            inst = SeparableInstance(
                oracles.Quadratic(C.T @ C, -C.T @ d, 0.5 * float(d @ d)),
                oracles.L1(mu),
                np.eye(n),
                -np.eye(n),
                np.zeros(n),
            )
            gaps.append(problems.kkt_gap(inst, problems.solve_ground_truth(inst)))
        assert max(gaps) <= 1e-10

    def test_unsupported_structure(self):
        inst = SeparableInstance(
            oracles.Quadratic(np.eye(2), np.zeros(2)),
            oracles.L1(1.0),
            np.array([[1.0, 0.0]]),
            np.array([[1.0, 1.0]]),
            [1.0],
        )
        with pytest.raises(ConfigError):
            problems.solve_ground_truth(inst)


class TestInstanceIo:
    def test_round_trip_exact(self, tmp_path):
        inst = problems.generate_qp(1, 4, 3, 2)
        path = tmp_path / "inst.json"
        problems.save_instance(inst, path)
        back = problems.load_instance(path)
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.B, inst.B)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.f.P, inst.f.P)
        assert np.array_equal(back.f.q, inst.f.q)
        assert back.f.c == inst.f.c
        assert np.array_equal(back.solution.x, inst.solution.x)
        assert np.array_equal(back.solution.gamma, inst.solution.gamma)

    def test_round_trip_lasso(self, tmp_path):
        inst = problems.generate_lasso(2, 5, 10, 0.3)
        path = tmp_path / "inst.json"
        problems.save_instance(inst, path)
        back = problems.load_instance(path)
        assert back.g.mu == inst.g.mu
        assert np.array_equal(back.solution.y, inst.solution.y)

    def test_missing_field_named(self, tmp_path):
        inst = problems.generate_qp(1, 3, 2, 2)
        doc = problems.instance_to_dict(inst)
        del doc["B"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'B'"):
            problems.load_instance(path)

    def test_dimension_mismatch_named(self, tmp_path):
        inst = problems.generate_qp(1, 3, 2, 2)
        doc = problems.instance_to_dict(inst)
        doc["b"] = doc["b"][:-1]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'b'"):
            problems.load_instance(path)

    def test_bad_variant(self, tmp_path):
        inst = problems.generate_qp(1, 3, 2, 2)
        doc = problems.instance_to_dict(inst)
        doc["f"]["variant"] = "cubic"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="variant"):
            problems.load_instance(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="JSON"):
            problems.load_instance(path)


def quadratics(inst):
    return [F for F in (inst.f, inst.g) if isinstance(F, oracles.Quadratic)]


class TestPackedP:
    """A quadratic's P is stored as its upper triangle, row by row, and
    comes back as the exactly symmetric matrix the quadratic holds."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: problems.generate_qp(1, 8, 6, 4),
            lambda: problems.generate_qp(3, 1, 1, 1),
            lambda: problems.generate_qp(4, 30, 20, 10),
            lambda: problems.generate_lasso(7, 10, 20, 0.1),
            lambda: problems.generate_lasso(2, 5, 10, 0.3),
        ],
        ids=["qp-8-6-4", "qp-1-1-1", "qp-30-20-10", "lasso-10", "lasso-5"],
    )
    def test_save_and_load_is_bit_exact(self, tmp_path, make):
        inst = make()
        problems.save_instance(inst, tmp_path / "inst.json")
        back = problems.load_instance(tmp_path / "inst.json")
        for name in ("A", "B", "b"):
            assert same_bits(getattr(back, name), getattr(inst, name))
        for F, G in zip(quadratics(back), quadratics(inst)):
            assert same_bits(F.P, G.P) and same_bits(F.q, G.q) and F.c == G.c
        for name in ("x", "y", "gamma"):
            assert same_bits(getattr(back.solution, name), getattr(inst.solution, name))
        doc = json.loads((tmp_path / "inst.json").read_text())
        assert len(doc["f"]["P"]) == inst.n * (inst.n + 1) // 2

    def test_the_packed_list_is_the_upper_triangle_row_by_row(self):
        P = np.array([[4.0, 1.0, 2.0], [1.0, 5.0, 3.0], [2.0, 3.0, 6.0]])
        inst = SeparableInstance(
            oracles.Quadratic(P, np.zeros(3)), oracles.Zero(), np.eye(3), -np.eye(3), np.zeros(3)
        )
        assert problems.instance_to_dict(inst)["f"]["P"] == [4.0, 1.0, 2.0, 5.0, 3.0, 6.0]

    def test_a_slightly_asymmetric_p_comes_back_mirrored(self, tmp_path):
        P = np.array([[2.0, 0.5, 0.25], [0.5, 3.0, -0.125], [0.25, -0.125, 1.0]])
        P[2, 0] += 1e-12  # within linalg.is_symmetric's tolerance
        F = oracles.Quadratic(P, [1.0, -1.0, 0.5])
        mirrored = np.triu(P) + np.triu(P, 1).T
        assert same_bits(F.P, mirrored) and not np.array_equal(F.P, P)
        inst = SeparableInstance(F, oracles.Zero(), np.eye(3), -np.eye(3), np.zeros(3))
        problems.save_instance(inst, tmp_path / "inst.json")
        assert same_bits(problems.load_instance(tmp_path / "inst.json").f.P, mirrored)

    @pytest.mark.parametrize("block", ["f", "g"])
    def test_the_full_square_layout_exits_1_naming_the_field(self, tmp_path, capsys, block):
        inst = problems.generate_qp(1, 4, 3, 2)
        doc = problems.instance_to_dict(inst)
        dim = inst.n if block == "f" else inst.p
        doc[block]["P"] = getattr(inst, block).P.ravel().tolist()
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        argv = ["run", "--instance", str(path), "--max-iter", "3", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"field '{block}.P' must be a list of {dim * (dim + 1) // 2} reals" in err
        assert f"got {dim * dim}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "seed, n, p, m",
        [(1, 200, 150, 100), (1, 8, 6, 4), (2, 1, 1, 1), (5, 17, 9, 6), (7, 64, 36, 24)],
    )
    def test_every_generated_qp_p_is_its_own_transpose(self, monkeypatch, seed, n, p, m):
        # the matrices handed to Quadratic, before it mirrors them: since they
        # are already exactly symmetric (G @ G.T goes through syrk), storing
        # the upper triangle changes no bit of a generated instance
        handed = raw_quadratic_inputs(monkeypatch)
        problems.generate_qp(seed, n, p, m)
        assert [P.shape for P in handed] == [(n, n), (p, p)]
        assert all(np.array_equal(P, P.T) for P in handed)

    @pytest.mark.parametrize("seed, n, m_data", [(7, 10, 20), (1, 3, 6), (9, 17, 16), (3, 40, 25)])
    def test_every_generated_lasso_p_is_its_own_transpose(self, monkeypatch, seed, n, m_data):
        handed = raw_quadratic_inputs(monkeypatch)
        problems.generate_lasso(seed, n, m_data, 0.2)
        assert [P.shape for P in handed] == [(n, n)]
        assert all(np.array_equal(P, P.T) for P in handed)


def raw_quadratic_inputs(monkeypatch):
    """Record a copy of the P handed to each new Quadratic, as given."""
    handed, real = [], oracles.Quadratic.__post_init__

    def recording(self):
        handed.append(np.array(self.P, dtype=float))
        real(self)

    monkeypatch.setattr(oracles.Quadratic, "__post_init__", recording)
    return handed


def json_reference(inst) -> bytes:
    """The bytes :func:`problems.save_instance` writes, from json's own
    indenting encoder."""
    return (json.dumps(problems.instance_to_dict(inst), indent=1) + "\n").encode()


def zero_block_instance():
    inst = SeparableInstance(
        oracles.Zero(), oracles.Quadratic(np.eye(2), [1.0, -2.0]), np.eye(2), -np.eye(2), np.zeros(2)
    )
    return dataclasses.replace(inst, solution=problems.solve_ground_truth(inst))


def signed_zero_and_subnormal_instance():
    """-0.0 and the smallest subnormal, 5e-324, in lists and scalars."""
    return SeparableInstance(
        oracles.Quadratic(np.eye(2), [-0.0, 5e-324], c=-0.0),
        oracles.L1(5e-324),
        [[1.0, -0.0]],
        [[5e-324]],
        [-0.0],
    )


INSTANCES = {
    "qp-8-6-4": lambda: problems.generate_qp(1, 8, 6, 4),
    "qp-200-150-100": lambda: problems.generate_qp(1, 200, 150, 100),
    "lasso": lambda: problems.generate_lasso(7, 10, 20, 0.1),
    "no-solution": lambda: dataclasses.replace(problems.generate_qp(2, 5, 4, 3), solution=None),
    "zero-block": zero_block_instance,
    "signed-zero-and-subnormal": signed_zero_and_subnormal_instance,
}


class TestInstanceBytes:
    """:func:`problems.save_instance` writes json.dump(indent=1)'s bytes in
    one pass, forking nothing whatever the usable CPUs, and leaves no
    temporary file."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("case", sorted(INSTANCES))
    def test_matches_json(self, tmp_path, monkeypatch, case, cpus):
        inst = INSTANCES[case]()
        counted = count_forks(monkeypatch, cpus=cpus)
        problems.save_instance(inst, tmp_path / "inst.json")
        assert counted == []
        assert (tmp_path / "inst.json").read_bytes() == json_reference(inst)
        assert_nothing_left(tmp_path, ["inst.json"])

    @pytest.mark.parametrize("where", ["scalar", "list"])
    def test_non_finite_number_refused(self, tmp_path, monkeypatch, where):
        # the dataclasses refuse these, so they are set past their checks
        if where == "scalar":
            g = oracles.L1(1.0)
            object.__setattr__(g, "mu", math.inf)
            inst = SeparableInstance(oracles.Zero(), g, np.eye(2), -np.eye(2), np.zeros(2))
        else:
            inst = dataclasses.replace(problems.generate_qp(1, 3, 2, 2), solution=None)
            b = inst.b.copy()
            b[-1] = math.nan
            object.__setattr__(inst, "b", b)
        counted = count_forks(monkeypatch, cpus=3)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            problems.save_instance(inst, tmp_path / "inst.json")
        assert counted == []
        assert_nothing_left(tmp_path, [])


def test_stored_solution_validated():
    # the instance builds; its stored solution is checked where it is read
    make_bad = SeparableInstance(
        oracles.Quadratic([[1.0]], [0.0]),
        oracles.Quadratic([[1.0]], [0.0]),
        [[1.0]],
        [[1.0]],
        [3.0],
        solution=KktPoint([0.0], [0.0], [0.0]),
    )
    traj = run_full(make_bad, alpha=1.0, iters=5)
    with pytest.raises(ValueError, match="reference point fails the optimality check"):
        certificates.full_verification(traj, make_bad.solution)


def test_generated_suite_satisfies_reference_gap():
    for seed in range(1, 6):
        inst = problems.generate_qp(seed, 5, 4, 3)
        assert problems.kkt_gap(inst, inst.solution) <= 1e-6
    for seed in (1, 2):
        inst = problems.generate_lasso(seed, 6, 12, 0.2)
        assert problems.kkt_gap(inst, inst.solution) <= 1e-6


class TestLassoPath:
    """:func:`problems.lasso_path` solves l1-regularized least squares with
    a singular P exactly, tied and collinear columns included."""

    @pytest.mark.parametrize(
        "seed, twin",
        [pytest.param(seed, None, id=str(seed)) for seed in range(30)]
        + [
            pytest.param(seed, twin, id=f"{seed}-twin{twin[0]:+g}-eps{twin[1]:g}")
            for seed in range(10)
            for twin in ((1.0, 0.0), (-1.0, 0.0), (1.0, 1e-15), (-1.0, 1e-9))
        ],
    )
    def test_minimizer_meets_the_optimality_conditions(self, seed, twin):
        # twin = (mult, eps) sets column 1 to mult * column 0 * (1 + eps)
        rng = np.random.default_rng(seed)
        n, m_data = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        C, d = rng.standard_normal((m_data, n)), rng.standard_normal(m_data)
        mu = 10.0 ** rng.uniform(-10, 0)
        if twin is not None:
            C[:, 1] = twin[0] * C[:, 0] * (1 + twin[1])
        P, q = C.T @ C, -C.T @ d
        x = problems.lasso_path(P, q, mu)
        g, on = P @ x + q, x != 0
        assert np.allclose(g[on], -mu * np.sign(x[on]), rtol=0, atol=1e-12)
        assert np.all(np.abs(g[~on]) <= mu + 1e-12)

    def test_mu_above_every_gradient_entry_gives_zero(self):
        assert not problems.lasso_path(np.eye(2), np.array([0.5, -0.25]), 0.5).any()

    def test_unsettled_proximal_gradient_case_comes_from_the_path(self, monkeypatch):
        # n = 3 variables and one data row: P has rank 1, and at mu = 1e-5
        # proximal gradient is still moving after a million steps
        calls, real = [], problems.lasso_path
        monkeypatch.setattr(problems, "lasso_path", lambda *a: calls.append(a) or real(*a))
        inst = problems.generate_lasso(8575, 3, 1, 1e-5)
        assert len(calls) == 1
        assert problems.kkt_gap(inst, inst.solution) <= 1e-12

    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.99, 1.0, 10.0])
    def test_lasso_without_a_minimizer_is_named(self, mu):
        # P = ones(2, 2) and q = [-1, 1]: along v = (1, -1), Pv = 0 and the
        # objective's slope is q'v + mu||v||_1 = 2(mu - 1), so below mu = 1
        # there is no minimizer, and from mu = 1 on x = 0 is one
        inst = SeparableInstance(
            oracles.Quadratic(np.ones((2, 2)), np.array([-1.0, 1.0])),
            oracles.L1(mu),
            np.eye(2),
            -np.eye(2),
            np.zeros(2),
        )
        if mu < 1.0:
            with pytest.raises(ConfigError, match=f"^the lasso has no minimizer at mu={mu!r}"):
                problems.solve_ground_truth(inst)
        else:
            assert not problems.solve_ground_truth(inst).x.any()
