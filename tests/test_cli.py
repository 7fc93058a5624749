import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gadmm import certificates, cli, errors, hpe, linalg, oracles, problems, records, solver
from gadmm.errors import CertificationError, InternalCheckError

from conftest import L1_X_DOC, make_l1_x_instance, make_one_d_instance, shifted
from test_stopping_rule import criterion_terms


def strict_json(text):
    """json.loads that refuses the non-standard constants NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def write_one_d(tmp_path):
    path = tmp_path / "one_d.json"
    problems.save_instance(make_one_d_instance(), path)
    return path


def write_qp(tmp_path, seed=1):
    path = tmp_path / f"qp{seed}.json"
    problems.save_instance(problems.generate_qp(seed, 4, 3, 2), path)
    return path


class TestGenerate:
    def test_qp(self, tmp_path):
        out = tmp_path / "inst.json"
        code = cli.main(
            ["generate", "--kind", "qp", "--seed", "3", "--n", "4", "--p", "3", "--m", "2",
             "--out", str(out)]
        )
        assert code == 0
        inst = problems.load_instance(out)
        assert (inst.n, inst.p, inst.m) == (4, 3, 2)
        assert inst.solution is not None

    def test_lasso(self, tmp_path):
        out = tmp_path / "inst.json"
        code = cli.main(
            ["generate", "--kind", "lasso", "--seed", "7", "--n", "6", "--m-data", "12",
             "--mu", "0.2", "--out", str(out)]
        )
        assert code == 0
        inst = problems.load_instance(out)
        assert np.array_equal(inst.A, np.eye(6))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "qp", "--n", "0"], "--n must be at least 1, got 0"),
            (["--kind", "qp", "--p", "0"], "--p must be at least 1, got 0"),
            (["--kind", "qp", "--m", "0"], "--m must be at least 1, got 0"),
            (["--kind", "lasso", "--m-data", "0"], "--m-data must be at least 1, got 0"),
            (["--kind", "qp", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["--kind", "lasso", "--mu", "inf"], "mu must be positive and finite, got inf"),
            (["--kind", "lasso", "--mu", "nan"], "mu must be positive and finite, got nan"),
            (["--kind", "qp", "--n", "2", "--p", "2", "--m", "5"],
             "--m must be at most --n + --p = 4, got 5"),
        ],
        ids=["n", "p", "m", "m-data", "seed", "mu-inf", "mu-nan", "m-above-n-plus-p"],
    )
    def test_bad_flag_is_named(self, tmp_path, capsys, argv, message):
        out = tmp_path / "inst.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["generate", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "qp", "--n", "1", "--p", "1", "--m", "1"],
            ["--kind", "qp", "--n", "1", "--p", "1", "--m", "2", "--seed", "0"],
            ["--kind", "lasso", "--n", "1", "--m-data", "1"],
            ["--kind", "lasso", "--n", "3", "--m-data", "2", "--mu", "1e300"],
        ],
    )
    def test_written_instance_loads(self, tmp_path, argv):
        out = tmp_path / "inst.json"
        assert cli.main(["generate", *argv, "--out", str(out)]) == 0
        problems.save_instance(problems.load_instance(out), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == out.read_bytes()

    def test_lasso_whose_proximal_gradient_stops_short(self, tmp_path):
        # m-data < n makes P singular: proximal gradient, stopped at a move of
        # 1e-10, leaves a gap of about 1e-3; the exact path's is at rounding level
        out = tmp_path / "inst.json"
        argv = ["--kind", "lasso", "--seed", "9741", "--n", "17", "--m-data", "16", "--mu", "1.92"]
        assert cli.main(["generate", *argv, "--out", str(out)]) == 0
        inst = problems.load_instance(out)
        assert problems.kkt_gap(inst, inst.solution) <= 1e-13

    def test_out_of_memory_names_the_command(self, tmp_path, monkeypatch, capsys):
        detail = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

        def no_memory(*args):
            raise MemoryError(detail)

        monkeypatch.setattr(problems, "generate_qp", no_memory)
        argv = ["generate", "--kind", "qp", "--n", "100000", "--out", str(tmp_path / "i.json")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: gadmm generate ran out of memory: {detail}\n"


class TestRun:
    def test_one_step_convergence_alpha_two(self, tmp_path):
        inst_path = write_one_d(tmp_path)
        out = tmp_path / "run"
        code = cli.main(
            ["run", "--instance", str(inst_path), "--alpha", "2.0", "--beta", "1.0",
             "--max-iter", "50", "--stop-tol", "1e-10", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 1
        assert summary["final_kkt_gap"] <= 1e-10
        assert summary["stopped_early"] is True

    def test_summary_is_the_last_csv_row(self, tmp_path):
        # the final values are the final_terms of the recorded rows, so the
        # file read back gives them, and stopped_early, bit for bit
        inst = problems.generate_qp(1, 8, 6, 4)
        inst_path = tmp_path / "qp.json"
        problems.save_instance(inst, inst_path)
        lin = solver.LinearizedH()
        for name, flags, params, stopped_early in (
            ("tol", ["--alpha", "1.9", "--stop-tol", "1e-9"],
             solver.GadmmParams(beta=1.0, alpha=1.9, stop_tol=1e-9), True),
            ("max-iter", ["--alpha", "2.0", "--h1", "linearized", "--h2", "linearized",
                          "--max-iter", "300", "--stop-tol", "0"],
             solver.GadmmParams(beta=1.0, alpha=2.0, h1=lin, h2=lin, stop_tol=0.0), False),
        ):
            out = tmp_path / name
            assert cli.main(["run", "--instance", str(inst_path), *flags, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            with open(out / "trajectory.csv", newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            assert summary["stopped_early"] is stopped_early
            assert int(last["k"]) == summary["iterations"] > 0
            back = solver.load_trajectory_csv(out / "trajectory.csv", inst, params)
            _, step, gap = back.final_terms
            assert repr(step) == repr(summary["final_step_metric"])
            assert repr(gap) == repr(summary["final_kkt_gap"])
            assert back.stopped_early is stopped_early

    def test_stopped_early_says_whether_the_rule_fired(self, tmp_path):
        # on this QP the rule fires at k = 78: a max_iter of 78 ends the run
        # there with the same record, and 77 ends it one step short
        inst_path = tmp_path / "qp.json"
        assert cli.main(["generate", "--kind", "qp", "--seed", "1", "--out", str(inst_path)]) == 0
        base = ["--instance", str(inst_path), "--stop-tol", "1e-9"]
        for max_iter, iterations, stopped_early in (("1000", 78, True), ("78", 78, True),
                                                    ("77", 77, False)):
            out = tmp_path / max_iter
            assert cli.main(["run", *base, "--max-iter", max_iter, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert (summary["iterations"], summary["stopped_early"]) == (iterations, stopped_early)
            assert cli.main(["bench", *base, "--max-iter", max_iter, "--alpha-grid", "1",
                             "--out", str(out / "bench")]) == 0
            with open(out / "bench" / "bench.csv") as fh:
                (row,) = csv.DictReader(fh)
            assert row["stopped_early"] == str(stopped_early).lower()
        traj = (tmp_path / "1000" / "trajectory.csv").read_bytes()
        assert (tmp_path / "78" / "trajectory.csv").read_bytes() == traj

    def test_run_evaluates_the_diagnostics_once(self, tmp_path, monkeypatch):
        # the summary's final values and stopped_early: the stopping rule's
        # terms at k = K, evaluated once.  The loop evaluates them only at
        # the k where term 1 holds (none at tol 0 or 1e-300), and where the
        # rule fires, the terms it took at K are the final ones
        real, calls = solver.stop_terms, []
        monkeypatch.setattr(solver, "stop_terms", lambda *args: calls.append(None) or real(*args))
        inst_path = write_qp(tmp_path)
        inst = problems.load_instance(inst_path)
        for tol, max_iter in (("0", "40"), ("1e-300", "40"), ("1e-6", "1000")):
            calls.clear()
            out = tmp_path / tol
            assert cli.main(["run", "--instance", str(inst_path), "--max-iter", max_iter,
                             "--stop-tol", tol, "--out", str(out)]) == 0
            fired = strict_json((out / "summary.json").read_text())["stopped_early"]
            assert fired is (tol == "1e-6")
            Z = records.read_csv(out / "trajectory.csv", solver.trajectory_header(inst))
            X, Y = Z[1:, : inst.n], Z[1:, inst.n : inst.n + inst.p]
            passes = [problems.constraint_residual(inst, x, y) <= float(tol) for x, y in zip(X, Y)]
            loop_calls = 0 if tol == "0" else sum(passes)
            assert len(calls) == loop_calls + (not fired)

    def test_l1_x_block_stops_where_the_criterion_first_holds(self, tmp_path):
        # the one engine path that thresholds x_k before it forms A x_k
        path = tmp_path / "l1x.json"
        path.write_text(json.dumps(L1_X_DOC))
        out = tmp_path / "run"
        assert cli.main(["run", "--instance", str(path), "--h1", "linearized", "--alpha", "1.7",
                         "--stop-tol", "1e-6", "--out", str(out)]) == 0
        summary = strict_json((out / "summary.json").read_text())
        inst = make_l1_x_instance()
        params = solver.GadmmParams(beta=1.0, alpha=1.7, h1=solver.LinearizedH(), max_iter=1000,
                                    stop_tol=0.0)
        full = solver.run(inst, params)
        holds = np.logical_and.reduce([t <= 1e-6 for t in criterion_terms(full)])
        assert holds.any()
        first = int(np.argmax(holds)) + 1
        assert summary["iterations"] == first
        assert summary["stopped_early"] is True
        Z = records.read_csv(out / "trajectory.csv", solver.trajectory_header(inst))
        assert np.array_equal(Z, full.Z[: first + 1])
        assert np.any(Z[1:, : inst.n] == 0.0)  # the threshold zeroed an x entry

    def test_max_iter_zero(self, tmp_path):
        inst_path = write_one_d(tmp_path)
        out = tmp_path / "run0"
        code = cli.main(
            ["run", "--instance", str(inst_path), "--max-iter", "0", "--out", str(out)]
        )
        assert code == 0
        summary = strict_json((out / "summary.json").read_text())
        assert summary["iterations"] == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert rows == ["k,x0,y0,gamma0", "0,0.0,0.0,0.0"]  # header + k=0
        # no step at k = 0; the gap is the one at (x_0, y_0, gamma_0)
        assert summary["final_step_metric"] is None
        origin = problems.KktPoint([0.0], [0.0], [0.0])
        assert summary["final_kkt_gap"] == problems.kkt_gap(make_one_d_instance(), origin)

    def test_deterministic_outputs(self, tmp_path):
        inst_path = write_qp(tmp_path)
        args = ["run", "--instance", str(inst_path), "--alpha", "1.5", "--max-iter", "40",
                "--stop-tol", "0"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_missing_instance_is_config_error(self, tmp_path):
        code = cli.main(
            ["run", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_solver_error_exit_two(self, tmp_path, capsys):
        # zero objective with a rank-deficient x block: subproblem not
        # strictly convex at any beta, as P + H = 0 is singular too
        from gadmm import oracles
        from gadmm.problems import SeparableInstance

        inst = SeparableInstance(
            oracles.Zero(),
            oracles.Quadratic(np.eye(2), np.zeros(2)),
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.eye(2),
            [1.0, 0.0],
        )
        path = tmp_path / "bad.json"
        problems.save_instance(inst, path)
        code = cli.main(["run", "--instance", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "solver error: x-subproblem matrix P + beta*Op'Op + H at beta=1.0 "
            "is not positive definite (subproblem not strictly convex)\n"
        )

    def test_huge_beta_factor_failure_names_beta(self, tmp_path, capsys):
        # P + beta*A'A is finite, but beta*A'A swamps P and A'A is singular,
        # so the Cholesky factorization fails while P + H factors: a bad
        # beta (exit 1), named on the one stderr line
        path = tmp_path / "qp.json"
        problems.save_instance(problems.generate_qp(1, 8, 6, 4), path)
        for beta in ("1e16", "1e200"):
            code = cli.main(
                ["run", "--instance", str(path), "--beta", beta, "--out", str(tmp_path / "o")]
            )
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: x-subproblem matrix P + beta*Op'Op + H at beta={float(beta)!r} "
                "is not positive definite: beta*Op'Op swamps P + H\n"
            )

    def test_overflowing_summary_writes_null(self, tmp_path, capsys):
        inst = problems.SeparableInstance(
            oracles.Quadratic([[1.0]], [0.0]), oracles.Quadratic([[1.0]], [0.0]),
            [[1.0]], [[1.0]], [1e307],
        )
        path = tmp_path / "huge.json"
        problems.save_instance(inst, path)
        out = tmp_path / "run"
        assert cli.main(
            ["run", "--instance", str(path), "--max-iter", "5", "--stop-tol", "0",
             "--out", str(out)]
        ) == 0
        summary = strict_json((out / "summary.json").read_text())
        assert summary["final_kkt_gap"] is None
        assert summary["final_step_metric"] is None
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "mode, stop_tol",
        [
            pytest.param(mode, tol, id=mode if tol == "0" else f"{mode}-tol{tol}")
            for tol in ("0", "1e-9")
            for mode in ("zero", "linearized")
        ],
    )
    def test_overflowing_iterate_exit_two(self, tmp_path, capsys, mode, stop_tol):
        # every stage map entry is finite, but f's linear term puts x_1 near
        # 1.7e306 and beta*alpha*A x_1 overflows in the y-stage: a solver
        # failure at k=1, with or without the stopping rule
        inst = problems.SeparableInstance(
            oracles.Quadratic([[1.0]], [-1.7e308]), oracles.Quadratic([[1.0]], [0.0]),
            [[1.0]], [[1.0]], [1.0],
        )
        path = tmp_path / "huge.json"
        problems.save_instance(inst, path)
        code = cli.main(
            ["run", "--instance", str(path), "--beta", "100", "--alpha", "2",
             "--max-iter", "5", "--stop-tol", stop_tol, "--h1", mode, "--h2", mode,
             "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert "k=1 has non-finite entries" in capsys.readouterr().err

    def test_metric_probe_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        # build_metric turns a failed PSD probe on M into an InternalCheckError;
        # it alone probes a block at the floor of the whole metric
        real = linalg.is_psd

        def probe_fails(Q, floor=None):
            return real(Q) if floor is None else False

        monkeypatch.setattr(linalg, "is_psd", probe_fails)
        code = cli.main(
            ["run", "--instance", str(write_qp(tmp_path)), "--max-iter", "5",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: ") and "proximal metric" in err

    def test_bad_alpha_is_config_error(self, tmp_path):
        inst_path = write_one_d(tmp_path)
        code = cli.main(
            ["run", "--instance", str(inst_path), "--alpha", "3.0", "--out",
             str(tmp_path / "o")]
        )
        assert code == 1


class TestVerify:
    def _run_then_verify_args(self, tmp_path, alpha="1.0", extra=()):
        inst_path = write_qp(tmp_path)
        out = tmp_path / "run"
        assert cli.main(
            ["run", "--instance", str(inst_path), "--alpha", alpha, "--max-iter", "60",
             "--stop-tol", "0", "--out", str(out)]
        ) == 0
        return [
            "verify", "--instance", str(inst_path),
            "--trajectory", str(out / "trajectory.csv"),
            "--alpha", alpha, "--out", str(tmp_path / "report.json"), *extra,
        ]

    def test_passing_run(self, tmp_path):
        args = self._run_then_verify_args(tmp_path)
        assert cli.main(args) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert any(c["name"] == "hpe_inequality" for c in report["checks"])

    def test_corrupted_gamma_exit_three(self, tmp_path, capsys):
        args = self._run_then_verify_args(tmp_path)
        traj_path = args[4]
        lines = open(traj_path).read().splitlines()
        header = lines[0].split(",")
        gcol = header.index("gamma0")
        cells = lines[20].split(",")
        cells[gcol] = repr(float(cells[gcol]) + 1.0)
        lines[20] = ",".join(cells)
        with open(traj_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert "certification failed" in err
        report = json.loads((tmp_path / "report.json").read_text())
        first_bad = next(c for c in report["checks"] if not c["pass"])
        assert first_bad["name"] in (
            "hpe_inequality",
            "multiplier_identity",
            "constraint_identity",
        )
        # the one stderr line names the earliest violation, as raise_first() does
        inst = problems.load_instance(args[2])
        traj = solver.load_trajectory_csv(traj_path, inst, solver.GadmmParams(beta=1.0))
        with pytest.raises(CertificationError) as info:
            certificates.full_verification(traj, inst.solution).raise_first()
        assert err == f"certification failed: {info.value}\n"
        assert f"{info.value.check} violated at k={info.value.k} " in err
        # every row says where it first failed; the stderr line names one of them
        assert all((c["first_k"] is None) == c["pass"] for c in report["checks"])
        named = next(c for c in report["checks"] if c["name"] == info.value.check)
        assert named["first_k"] == info.value.k

    def test_internal_check_error_exit_two(self, tmp_path, monkeypatch, capsys):
        args = self._run_then_verify_args(tmp_path)

        def broken(*_):
            raise InternalCheckError("conjugate gap below the rounding band")

        monkeypatch.setattr(oracles, "fenchel_gap", broken)
        assert cli.main(args) == 2
        assert "rounding band" in capsys.readouterr().err

    def _set_cell(self, traj_path, column, value):
        lines = open(traj_path).read().splitlines()
        col = lines[0].split(",").index(column)
        cells = lines[20].split(",")
        cells[col] = value
        lines[20] = ",".join(cells)
        with open(traj_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def test_infinite_conjugate_gap_report_is_strict_json(self, tmp_path):
        # a gamma_19 far outside the l1 ball puts gamma_tilde_20, and with
        # it the y-block conjugate, outside its domain
        inst_path = tmp_path / "lasso.json"
        inst = problems.generate_lasso(7, 6, 12, 0.2)
        problems.save_instance(inst, inst_path)
        flags = ["--instance", str(inst_path), "--alpha", "1.5", "--h1", "linearized",
                 "--h2", "linearized", "--max-iter", "40", "--stop-tol", "0"]
        out = tmp_path / "run"
        assert cli.main(["run", *flags, "--out", str(out)]) == 0
        traj_path = out / "trajectory.csv"
        self._set_cell(traj_path, "gamma0", "1000.0")
        report_path = tmp_path / "report.json"
        args = ["verify", *flags, "--trajectory", str(traj_path), "--out", str(report_path)]
        assert cli.main(args) == 3
        checks = strict_json(report_path.read_text())["checks"]
        for name in ("hpe_inclusion_g", "ergodic_inclusion_g"):
            row = next(c for c in checks if c["name"] == name)
            assert row["note"] == "conjugate outside its domain"
            assert row["worst_slack"] is None and row["lhs"] is None and row["rhs"] >= 0.0
        params = solver.GadmmParams(
            beta=1.0, alpha=1.5, h1=solver.LinearizedH(), h2=solver.LinearizedH()
        )
        traj = solver.load_trajectory_csv(traj_path, inst, params)
        report = certificates.full_verification(traj, inst.solution)
        assert [r.to_dict() for r in report.rows] == checks
        finite = [r for r in report.rows if math.isfinite(r.worst_slack)]
        assert len(finite) >= 10
        for row in finite:
            slack = row.rhs + row.tol - row.lhs
            at = list(row.ks).index(row.worst_k)
            assert row.worst_slack == slack.min(), row.name
            band = hpe.WORST_K_BAND * (1.0 + abs(row.worst_slack))
            assert row.worst_slack <= slack[at] <= row.worst_slack + band, row.name
            written = row.to_dict()
            assert (written["lhs"], written["rhs"]) == (row.lhs[at], row.rhs[at]), row.name
        # each finite row's slack is recomputed from the file alone
        for row in checks:
            if row["worst_slack"] is not None:
                slack = row["rhs"] + row["tol"] - row["lhs"]
                band = hpe.WORST_K_BAND * (1.0 + abs(row["worst_slack"]))
                assert abs(slack - row["worst_slack"]) <= band, row["name"]

    def test_verify_derives_gamma_tilde_once(self, tmp_path, monkeypatch):
        # the scan of the loaded record derives it, and the replay reads it
        inst_path = write_qp(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--instance", str(inst_path), "--max-iter", "40",
                         "--stop-tol", "0", "--out", str(out)]) == 0
        real, calls = hpe.gamma_tilde, []
        monkeypatch.setattr(hpe, "gamma_tilde", lambda *args: calls.append(None) or real(*args))
        assert cli.main(["verify", "--instance", str(inst_path), "--trajectory",
                         str(out / "trajectory.csv"), "--stop-tol", "0",
                         "--out", str(tmp_path / "report.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("column", ["x0", "gamma1"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_config_error(self, tmp_path, cell, column):
        args = self._run_then_verify_args(tmp_path)
        self._set_cell(args[4], column, cell)
        assert cli.main(args) == 1

    @pytest.mark.parametrize("column", ["y1", "gamma0", "x1"])
    def test_non_finite_cell_named_by_row_at_load(self, tmp_path, column):
        args = self._run_then_verify_args(tmp_path)
        self._set_cell(args[4], column, "nan")
        inst = problems.load_instance(args[2])
        with pytest.raises(ValueError, match="row 21"):
            solver.load_trajectory_csv(args[4], inst, solver.GadmmParams(beta=1.0))

    def test_reports_are_strict_json(self, tmp_path, capsysbinary):
        args = self._run_then_verify_args(tmp_path, alpha="2.0")
        assert cli.main(args) == 0
        written = (tmp_path / "report.json").read_bytes()
        report = strict_json(written.decode())
        skipped = [c for c in report["checks"] if c["worst_slack"] is None]
        assert {c["name"] for c in skipped} == {"rho_contractive_bound", "pointwise_bound"}
        assert all(c["note"] == "not-applicable at alpha=2" for c in skipped)
        capsysbinary.readouterr()
        assert cli.main(args[:-2]) == 0  # report to stdout
        out = capsysbinary.readouterr().out
        assert out == written
        assert strict_json(out.decode())["pass"] is True
        inst_path = args[2]
        out0 = tmp_path / "run0"
        assert cli.main(
            ["run", "--instance", inst_path, "--max-iter", "0", "--out", str(out0)]
        ) == 0
        assert cli.main(
            ["verify", "--instance", inst_path, "--trajectory", str(out0 / "trajectory.csv"),
             "--out", str(tmp_path / "rep0.json")]
        ) == 0
        assert strict_json((tmp_path / "rep0.json").read_text())["meta"]["iterations"] == 0

    def test_stdout_report_is_whole_or_nothing(self, tmp_path, monkeypatch, capsys):
        args = self._run_then_verify_args(tmp_path)
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main(args[:-2]) == 0
        assert capsys.readouterr().out == (tmp_path / "report.json").read_text()
        # a number that cannot be written, in the last check: nothing before
        # it reaches stdout either
        to_dict = certificates.VerificationReport.to_dict

        def last_lhs_infinite(report):
            doc = to_dict(report)
            doc["checks"][-1]["lhs"] = math.inf
            return doc

        monkeypatch.setattr(certificates.VerificationReport, "to_dict", last_lhs_infinite)
        assert cli.main(args[:-2]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "not JSON compliant" in err

    def test_overflowing_d0_is_named(self, tmp_path, capsys):
        # f = x^2/2, g = y^2/2, x + y = 1e200: a correct run, but
        # d0 = ||z* - z0||^2_M is about 1e400
        inst = problems.SeparableInstance(
            oracles.Quadratic([[1.0]], [0.0]),
            oracles.Quadratic([[1.0]], [0.0]),
            [[1.0]],
            [[1.0]],
            [1e200],
            solution=problems.KktPoint([5e199], [5e199], [5e199]),
        )
        inst_path, out = tmp_path / "big.json", tmp_path / "run"
        problems.save_instance(inst, inst_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--instance", str(inst_path), "--out", str(out)]) == 0
            capsys.readouterr()
            code = cli.main(["verify", "--instance", str(inst_path),
                             "--trajectory", str(out / "trajectory.csv")])
        stdout, err = capsys.readouterr()
        assert (code, stdout) == (1, "")
        assert err.startswith("error: d0 = ") and "overflows" in err and err.count("\n") == 1

    def test_alpha_two_skips_pointwise(self, tmp_path):
        args = self._run_then_verify_args(tmp_path, alpha="2.0")
        assert cli.main(args) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        row = next(c for c in report["checks"] if c["name"] == "pointwise_bound")
        assert row["note"] == "not-applicable at alpha=2"
        assert any(c["name"] == "ergodic_eps_bound" and c["pass"] for c in report["checks"])

    def test_full_grid_flag(self, tmp_path):
        # --verify-full is accepted and changes nothing: every k is checked
        args = self._run_then_verify_args(tmp_path, extra=("--verify-full",))
        assert cli.main(args) == 0
        full = (tmp_path / "report.json").read_bytes()
        assert cli.main(args[:-1]) == 0
        assert (tmp_path / "report.json").read_bytes() == full
        report = json.loads(full)
        assert report["meta"]["iterations"] == 60
        assert not {"full_grid", "checked_iterations"} & report["meta"].keys()

    @pytest.mark.parametrize("alpha", ["1e-300", "1e-100"])
    def test_alpha_too_small_to_certify_is_named(self, tmp_path, capsys, alpha):
        # sigma = 1/(1 + alpha(2-alpha)) rounds to 1: at 1e-300 the bound
        # constants divided by alpha^3 = 0, at 1e-100 a check blamed alpha = 2
        args = self._run_then_verify_args(tmp_path, alpha=alpha)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: alpha={alpha} is too small to certify: "
            "sigma rounds to 1\n"
        )
        assert not (tmp_path / "report.json").exists()

    def test_zero_iteration_run_verifies_vacuously(self, tmp_path, capsys):
        inst_path = write_qp(tmp_path)
        out = tmp_path / "run0"
        assert cli.main(
            ["run", "--instance", str(inst_path), "--max-iter", "0", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["verify", "--instance", str(inst_path),
                 "--trajectory", str(out / "trajectory.csv"),
                 "--out", str(tmp_path / "rep.json")]
            )
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "all checks pass\n"
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["pass"] is True and report["meta"]["iterations"] == 0

    def test_zero_block_at_data_scale_1e3_certifies(self, tmp_path, capsys):
        # a hand-written instance with an exact solution: f = 0, g = |y|^2/2
        # + q'y, x + y_1 = 3000, x + y_2 = 1000.  The zero block's gap
        # -<u, x> is -1.4e-9 at rounding-level u, which a rounding band on
        # the three-term gap used to stop with exit 2
        inst_path, out = tmp_path / "scaled.json", tmp_path / "run"
        inst_path.write_text(json.dumps({
            "n": 1, "p": 2, "m": 2,
            "A": [1.0, 1.0], "B": [1.0, 0.0, 0.0, 1.0], "b": [3000.0, 1000.0],
            "f": {"variant": "zero"},
            "g": {"variant": "quadratic", "P": [1.0, 0.0, 1.0], "q": [1000.0, -2000.0]},
            "solution": {"x": [1500.0], "y": [1500.0, -500.0], "gamma": [2500.0, -2500.0]},
        }))
        flags = ["--instance", str(inst_path), "--alpha", "1.5", "--max-iter", "200",
                 "--stop-tol", "0"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", *flags, "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            code = cli.main(["verify", *flags, "--trajectory", str(out / "trajectory.csv"),
                             "--out", str(tmp_path / "rep.json")])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "all checks pass\n"

    def test_instance_without_solution_rejected(self, tmp_path):
        inst = problems.generate_qp(1, 4, 3, 2)
        from dataclasses import replace

        bare = replace(inst, solution=None)
        inst_path = tmp_path / "bare.json"
        problems.save_instance(bare, inst_path)
        out = tmp_path / "run"
        assert cli.main(
            ["run", "--instance", str(inst_path), "--max-iter", "10", "--stop-tol", "0",
             "--out", str(out)]
        ) == 0
        code = cli.main(
            ["verify", "--instance", str(inst_path),
             "--trajectory", str(out / "trajectory.csv")]
        )
        assert code == 1


class TestBench:
    def test_single_cell_matches_run(self, tmp_path):
        inst_path = write_qp(tmp_path)
        out_run = tmp_path / "run"
        assert cli.main(
            ["run", "--instance", str(inst_path), "--alpha", "1.0", "--max-iter", "80",
             "--stop-tol", "1e-9", "--out", str(out_run)]
        ) == 0
        summary = json.loads((out_run / "summary.json").read_text())
        out_bench = tmp_path / "bench"
        assert cli.main(
            ["bench", "--instance", str(inst_path), "--alpha-grid", "1.0",
             "--max-iter", "80", "--stop-tol", "1e-9", "--out", str(out_bench)]
        ) == 0
        with open(out_bench / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert int(rows[0]["iterations"]) == summary["iterations"]
        assert rows[0]["final_kkt_gap"] == repr(summary["final_kkt_gap"])
        assert rows[0]["verification"] == "pass"
        # each ratio is lhs/rhs at the last checked k of its report row
        inst = problems.load_instance(inst_path)
        traj = solver.run(inst, solver.GadmmParams(beta=1.0, alpha=1.0, max_iter=80, stop_tol=1e-9))
        report = {r.name: r for r in certificates.full_verification(traj, inst.solution).rows}
        for column, name in (
            ("pointwise_ratio", "pointwise_bound"),
            ("ergodic_r_ratio", "ergodic_residual_bound"),
            ("ergodic_eps_ratio", "ergodic_eps_bound"),
        ):
            lhs, rhs = report[name].lhs[-1], report[name].rhs[-1]
            assert rows[0][column] == repr(float(lhs / rhs)), column

    def test_grid_on_lasso(self, tmp_path):
        inst_path = tmp_path / "lasso.json"
        problems.save_instance(problems.generate_lasso(7, 6, 12, 0.2), inst_path)
        out = tmp_path / "bench"
        code = cli.main(
            ["bench", "--instance", str(inst_path), "--alpha-grid", "0.5,1,1.5,1.9,2",
             "--h2", "linearized", "--max-iter", "150", "--stop-tol", "0",
             "--out", str(out)]
        )
        assert code == 0
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert all(r["verification"] == "pass" for r in rows)
        assert rows[-1]["pointwise_ratio"] == ""  # alpha = 2

    def test_nonfinite_gap_is_an_empty_cell(self, tmp_path):
        # after one step the l1 block's Fenchel gap is +inf, which
        # summary.json writes as null
        inst_path = tmp_path / "lasso7.json"
        problems.save_instance(problems.generate_lasso(7, 10, 20, 0.1), inst_path)
        flags = ["--instance", str(inst_path), "--h1", "linearized", "--h2", "linearized",
                 "--max-iter", "1"]
        assert cli.main(["run", *flags, "--alpha", "2", "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["final_kkt_gap"] is None
        out = tmp_path / "bench"
        assert cli.main(["bench", *flags, "--alpha-grid", "1,2", "--out", str(out)]) == 0
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["final_kkt_gap"] for r in rows] == ["", ""]

    def test_start_at_solution_leaves_ratios_empty(self, tmp_path):
        # d0 = 0 makes every bound's rhs zero: no ratio is defined
        inst = problems.SeparableInstance(
            oracles.Quadratic([[1.0]], [0.0]), oracles.Quadratic([[1.0]], [0.0]),
            [[1.0]], [[1.0]], [0.0], solution=problems.KktPoint([0.0], [0.0], [0.0]),
        )
        inst_path = tmp_path / "origin.json"
        problems.save_instance(inst, inst_path)
        out = tmp_path / "bench"
        assert cli.main(
            ["bench", "--instance", str(inst_path), "--alpha-grid", "1,2", "--out", str(out)]
        ) == 0
        with open(out / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["verification"] for r in rows] == ["pass", "pass"]
        for r in rows:
            assert r["pointwise_ratio"] == r["ergodic_r_ratio"] == r["ergodic_eps_ratio"] == ""

    def test_empty_grid(self, tmp_path):
        inst_path = write_qp(tmp_path)
        code = cli.main(
            ["bench", "--instance", str(inst_path), "--alpha-grid", ",",
             "--out", str(tmp_path / "b")]
        )
        assert code == 1

    @pytest.mark.parametrize("grid, bad", [("3", "3.0"), ("1,0", "0.0"), ("1.5,nan", "nan")])
    def test_alpha_outside_range_names_the_grid(self, tmp_path, capsys, grid, bad):
        inst_path = write_qp(tmp_path)
        out = tmp_path / "b"
        code = cli.main(["bench", "--instance", str(inst_path), "--alpha-grid", grid,
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --alpha-grid: alpha must lie in (0, 2], got {bad}\n"
        )
        assert not out.exists()

    def test_alpha_too_small_to_certify_names_the_grid(self, tmp_path, capsys):
        inst_path = write_qp(tmp_path)
        out = tmp_path / "b"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["bench", "--instance", str(inst_path), "--alpha-grid", "1,1e-300",
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --alpha-grid: alpha=1e-300 is too small to certify: "
            "sigma rounds to 1\n"
        )
        assert not out.exists()

    def test_zero_iterations_is_config_error(self, tmp_path, capsys):
        # no iteration means no ergodic k to read the bound ratios at
        inst_path = write_qp(tmp_path)
        code = cli.main(
            ["bench", "--instance", str(inst_path), "--alpha-grid", "1", "--max-iter", "0",
             "--out", str(tmp_path / "b")]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: bench needs --max-iter of at least 1, got 0\n"

    def test_failure_column_names_what_verify_names(self, tmp_path, monkeypatch):
        # a large corruption of gamma_50 and a small one of gamma_5, which
        # the multiplier identity is the first row to see: the earliest
        # violation is at k=5
        inst = problems.generate_qp(9, 4, 3, 2)
        inst_path = tmp_path / "qp9.json"
        problems.save_instance(inst, inst_path)
        run = solver.run

        def corrupted_run(inst, params):
            return shifted(shifted(run(inst, params), 50, 0.25), 5, 1e-6)

        monkeypatch.setattr(solver, "run", corrupted_run)
        out = tmp_path / "bench"
        assert cli.main(
            ["bench", "--instance", str(inst_path), "--alpha-grid", "1", "--max-iter", "200",
             "--stop-tol", "0", "--out", str(out)]
        ) == 0
        with open(out / "bench.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert row["verification"] == "fail"
        params = solver.GadmmParams(beta=1.0, alpha=1.0, max_iter=200, stop_tol=0.0)
        report = certificates.full_verification(corrupted_run(inst, params), inst.solution)
        with pytest.raises(CertificationError) as err:
            report.raise_first()
        assert (err.value.check, err.value.k) == ("multiplier_identity", 5)
        assert row["first_failure"] == "multiplier_identity@k=5"


# exit code and label of every error class
EXIT_TABLE = {
    "GadmmError": (2, "error"),
    "ConfigError": (1, "error"),
    "NotPositiveDefiniteError": (2, "solver error"),
    "IterationLimitError": (2, "solver error"),
    "DivergenceError": (2, "solver error"),
    "InternalCheckError": (2, "internal check failed"),
    "CertificationError": (3, "certification failed"),
}
ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.GadmmError)
]


def test_exit_table_covers_every_error_class():
    assert sorted(cls.__name__ for cls in ERROR_CLASSES) == sorted(EXIT_TABLE)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_sets_exit_code_and_label(tmp_path, monkeypatch, capsys, cls):
    assert (cls.exit_code, cls.label) == EXIT_TABLE[cls.__name__]
    kwargs = {"k": 3} if cls is errors.DivergenceError else {}

    def fail(*args):
        raise cls("what went wrong", **kwargs)

    monkeypatch.setattr(problems, "generate_qp", fail)
    argv = ["generate", "--kind", "qp", "--out", str(tmp_path / "i.json")]
    assert cli.main(argv) == cls.exit_code
    assert capsys.readouterr().err == f"{cls.label}: what went wrong\n"


def test_cli_import_needs_no_scipy():
    # a fresh interpreter, so modules the test run already imported do not count
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, gadmm.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


class TestParsing:
    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_h_mode_parsing(self):
        from gadmm import solver

        assert isinstance(cli._parse_h_mode("zero", "h1", 2), solver.ZeroH)
        assert cli._parse_h_mode("linearized", "h1", 2).tau is None
        assert cli._parse_h_mode("linearized:2.5", "h1", 2).tau == 2.5
        with pytest.raises(Exception):
            cli._parse_h_mode("banana", "h1", 2)

    def test_h_mode_from_file(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 2.0]]}))
        mode = cli._parse_h_mode(f"file:{path}", "h1", 2)
        assert np.array_equal(mode.matrix, [[1.0, 0.0], [0.0, 2.0]])

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_consecutive_calls_share_no_state(self, tmp_path, monkeypatch):
        # main reuses one parser; flags of one call must not become the
        # defaults of the next, also across a failed parse
        seen_params, seen_loaded = [], []
        run, load = solver.run, solver.load_trajectory_csv

        def recording_run(inst, params):
            seen_params.append(params)
            return run(inst, params)

        def recording_load(text, inst, params):
            seen_loaded.append(params)
            return load(text, inst, params)

        monkeypatch.setattr(solver, "run", recording_run)
        monkeypatch.setattr(solver, "load_trajectory_csv", recording_load)
        inst = str(write_qp(tmp_path))
        traj = str(tmp_path / "a" / "trajectory.csv")
        flags = ["--alpha", "1.5", "--beta", "2", "--h1", "linearized", "--h2",
                 "linearized:100", "--max-iter", "7", "--stop-tol", "0"]
        assert cli.main(["run", "--instance", inst, *flags, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["verify", "--instance", inst, "--trajectory", traj, *flags,
                         "--verify-full", "--out", str(tmp_path / "full.json")]) == 0
        assert cli.main(["run", "--no-such-flag"]) == 1
        assert cli.main(["run", "--instance", inst, "--out", str(tmp_path / "b")]) == 0
        assert cli.main(["verify", "--instance", inst, "--trajectory", traj, *flags,
                         "--out", str(tmp_path / "plain.json")]) == 0
        custom = solver.GadmmParams(
            beta=2.0, alpha=1.5, h1=solver.LinearizedH(), h2=solver.LinearizedH(tau=100.0),
            max_iter=7, stop_tol=0.0,
        )
        assert seen_params == [custom, solver.GadmmParams(beta=1.0)]
        assert seen_loaded == [custom, custom]
        assert (tmp_path / "full.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
