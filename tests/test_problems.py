import dataclasses
import errno
import json
import math
import os

import numpy as np
import pytest

from gadmm import oracles, problems
from gadmm.errors import ConfigError
from gadmm.problems import KktPoint, SeparableInstance

from conftest import assert_nothing_left, count_forks


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


def format_through(monkeypatch, wrap):
    """Make :func:`problems.save_instance` format its numbers with
    ``wrap(write, units)`` in place of its own ``write``."""
    real = problems.write_in_parts

    def wrapped(path, units, cells, write, lines, **kwargs):
        real(path, units, cells, wrap(write, units), lines, **kwargs)

    monkeypatch.setattr(problems, "write_in_parts", wrapped)


@pytest.fixture(scope="module")
def large_qp():
    """98,400 numbers: three parts on 3 CPUs, with both inner bounds in f.P."""
    return problems.generate_qp(1, 200, 150, 100)


class TestInstanceBytes:
    """:func:`problems.save_instance` writes json.dump(indent=1)'s bytes,
    serially or with forked workers, whatever fails, and leaves no
    temporary file and no child process."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("case", sorted(INSTANCES))
    def test_matches_json(self, tmp_path, monkeypatch, case, cpus):
        inst = INSTANCES[case]()
        counted = count_forks(monkeypatch, cpus=cpus)
        problems.save_instance(inst, tmp_path / "inst.json")
        assert len(counted) == (2 if case == "qp-200-150-100" and cpus == 3 else 0)
        assert (tmp_path / "inst.json").read_bytes() == json_reference(inst)
        assert_nothing_left(tmp_path, ["inst.json"])

    @pytest.mark.parametrize("cpus", [2, 3, 6])
    def test_every_split_of_a_small_instance(self, tmp_path, monkeypatch, cpus):
        # 192 numbers in cpus parts: on 6 CPUs the bound at 32 is the first
        # number of B.  Every worker's bytes are taken, so this process
        # formats only the first part.
        inst, parent, formatted = problems.generate_qp(1, 8, 6, 4), os.getpid(), []

        def recording(write, units):
            def record(emit, start, stop):
                if os.getpid() == parent:
                    formatted.append((start, stop))
                write(emit, start, stop)

            return record

        format_through(monkeypatch, recording)
        monkeypatch.setattr(problems, "CELLS_PER_WORKER", 1)
        counted = count_forks(monkeypatch, cpus=cpus)
        problems.save_instance(inst, tmp_path / "inst.json")
        assert len(counted) == cpus - 1
        assert formatted == [(0, 192 // cpus), (192, 192)]
        assert (tmp_path / "inst.json").read_bytes() == json_reference(inst)
        assert_nothing_left(tmp_path, ["inst.json"])

    @pytest.mark.parametrize("first_failure", [1, 2])
    def test_fork_failure_leaves_the_ranges_to_the_parent(
        self, tmp_path, monkeypatch, large_qp, first_failure
    ):
        real = os.fork

        def failing():
            if len(counted) >= first_failure:
                raise OSError(errno.EAGAIN, "fork refused")
            return real()

        counted = count_forks(monkeypatch, cpus=3, fork=failing)
        problems.save_instance(large_qp, tmp_path / "inst.json")
        assert len(counted) == first_failure  # no fork is tried after a failure
        assert (tmp_path / "inst.json").read_bytes() == json_reference(large_qp)
        assert_nothing_left(tmp_path, ["inst.json"])

    @pytest.mark.parametrize("failure", ["raises", "short", "long", "exit-3"])
    def test_failed_worker_range_is_formatted_by_the_parent(
        self, tmp_path, monkeypatch, large_qp, failure
    ):
        # the last worker raises; sends one number too few or too many; or
        # sends wrong digits of the right length and exits 3
        parent, real_exit = os.getpid(), os._exit

        def failing(write, units):
            def failing_in_a_worker(emit, start, stop):
                if os.getpid() == parent or stop != units:
                    write(emit, start, stop)
                elif failure == "raises":
                    raise RuntimeError("worker failed")
                elif failure == "short":
                    write(emit, start, stop - 1)
                elif failure == "long":
                    write(emit, start, stop)
                    emit(",\n   1.0")
                else:
                    monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
                    write(lambda text: emit(text.replace("1", "2")), start, stop)

            return failing_in_a_worker

        format_through(monkeypatch, failing)
        counted = count_forks(monkeypatch, cpus=3)
        problems.save_instance(large_qp, tmp_path / "inst.json")
        assert len(counted) == 2
        assert (tmp_path / "inst.json").read_bytes() == json_reference(large_qp)
        assert_nothing_left(tmp_path, ["inst.json"])

    @pytest.mark.parametrize("where", ["scalar", "list", "worker-list"])
    def test_non_finite_number_refused(self, tmp_path, monkeypatch, large_qp, where):
        # the dataclasses refuse these, so they are set past their checks
        if where == "scalar":
            g = oracles.L1(1.0)
            object.__setattr__(g, "mu", math.inf)
            inst = SeparableInstance(oracles.Zero(), g, np.eye(2), -np.eye(2), np.zeros(2))
        else:  # b is in the first worker's part of the large QP
            inst = problems.generate_qp(1, 3, 2, 2) if where == "list" else large_qp
            inst = dataclasses.replace(inst, solution=None)
            b = inst.b.copy()
            b[-1] = math.nan
            object.__setattr__(inst, "b", b)
        counted = count_forks(monkeypatch, cpus=3)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            problems.save_instance(inst, tmp_path / "inst.json")
        assert len(counted) == (2 if where == "worker-list" else 0)
        assert_nothing_left(tmp_path, [])


def test_stored_solution_validated():
    with pytest.raises(ValueError, match="optimality"):
        make_bad = SeparableInstance(
            oracles.Quadratic([[1.0]], [0.0]),
            oracles.Quadratic([[1.0]], [0.0]),
            [[1.0]],
            [[1.0]],
            [3.0],
            solution=KktPoint([0.0], [0.0], [0.0]),
        )


def test_generated_suite_satisfies_reference_gap():
    for seed in range(1, 6):
        inst = problems.generate_qp(seed, 5, 4, 3)
        assert problems.kkt_gap(inst, inst.solution) <= 1e-6
    for seed in (1, 2):
        inst = problems.generate_lasso(seed, 6, 12, 0.2)
        assert problems.kkt_gap(inst, inst.solution) <= 1e-6
