"""One replay per verification and one raise path."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from gadmm import certificates, cli, hpe, oracles, problems
from gadmm.errors import CertificationError
from gadmm.solver import ExplicitH, LinearizedH

from conftest import gamma_tilde, run_full, shifted


@pytest.fixture
def metric_builds(monkeypatch):
    """Counts calls of hpe.build_metric from anywhere in the package."""
    calls = []
    real = hpe.build_metric

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hpe, "build_metric", counting)
    return calls


@pytest.fixture
def gap_checks(monkeypatch):
    """Records calls of problems.kkt_gaps from anywhere in the package, each
    as the qualified names of its caller and its caller's caller:
    problems.kkt_gap goes through it, and so does the engine's gap."""
    calls = []
    real = problems.kkt_gaps

    def counting(*args):
        caller = sys._getframe(1)
        calls.append((caller.f_code.co_qualname, caller.f_back.f_code.co_qualname))
        return real(*args)

    monkeypatch.setattr(problems, "kkt_gaps", counting)
    return calls


def test_full_verification_builds_the_metric_once(metric_builds):
    inst = problems.generate_qp(2, 4, 3, 2)
    traj = run_full(inst, alpha=1.5, beta=1.0, iters=40)
    assert metric_builds == []
    report = certificates.full_verification(traj, inst.solution)
    assert report.passed
    assert len(metric_builds) == 1


@pytest.mark.parametrize("stop_tol", ["1e-9", "0"])
def test_cli_run_builds_the_metric_at_most_once(tmp_path, metric_builds, stop_tol):
    inst_path = tmp_path / "qp.json"
    problems.save_instance(problems.generate_qp(1, 4, 3, 2), inst_path)
    out = tmp_path / "run"
    args = ["--instance", str(inst_path), "--max-iter", "200", "--stop-tol", stop_tol]
    assert cli.main(["run", *args, "--out", str(out)]) == 0
    assert len(metric_builds) <= 1
    del metric_builds[:]
    verify = ["verify", *args, "--trajectory", str(out / "trajectory.csv"),
              "--out", str(tmp_path / "report.json")]
    assert cli.main(verify) == 0
    assert len(metric_builds) == 1


def test_the_stored_solution_is_checked_only_by_the_replay(tmp_path, gap_checks):
    inst_path = tmp_path / "qp.json"
    problems.save_instance(problems.generate_qp(1, 4, 3, 2), inst_path)
    args = ["--instance", str(inst_path), "--max-iter", "50", "--stop-tol", "0"]
    assert gap_checks == [("kkt_gap", "solve_ground_truth")]  # generate checks once
    del gap_checks[:]
    assert cli.main(["run", *args, "--out", str(tmp_path / "run")]) == 0
    # loading the instance checks nothing; the one gap is the final one
    assert gap_checks == [("stop_terms", "Trajectory.final_terms")]
    del gap_checks[:]
    verify = ["verify", *args, "--trajectory", str(tmp_path / "run" / "trajectory.csv"),
              "--out", str(tmp_path / "report.json")]
    assert cli.main(verify) == 0
    # the one check is the replay's, of the stored solution
    assert gap_checks == [("kkt_gap", "check_reference")]


def test_replay_checks_any_other_reference(gap_checks):
    inst = problems.generate_qp(2, 4, 3, 2)
    traj = run_full(inst, alpha=1.5, beta=1.0, iters=20)
    sol = inst.solution
    del gap_checks[:]
    assert certificates.full_verification(traj, problems.KktPoint(sol.x, sol.y, sol.gamma)).passed
    assert len(gap_checks) == 1
    bad = problems.KktPoint(sol.x + 1.0, sol.y, sol.gamma)
    with pytest.raises(ValueError, match="^reference point fails the optimality check"):
        certificates.full_verification(traj, bad)


def _companion_rows(rep):
    return [
        hpe.check_delta_inequalities(rep),
        hpe.check_rho_bound(rep),
        hpe.check_rho_contractive_bound(rep),
        hpe.check_fejer(rep),
    ]


def _eps_rows(rep):
    return [r for r in certificates.ergodic_certificate(rep) if r.name.endswith("_nonneg")]


# (family, corruption of the recorded columns, rows checked, expected check,
# expected k).
# hpe: three checks fail at k=10, the tie goes to the first in report order.
# companion: rho_contractive_bound is worst at k=13 but first fails at k=12,
# together with the two rows reported before and after it.
# pointwise: worst at k=2, first at k=1.
# ergodic: ergodic_eps_x_nonneg and ergodic_eps_y_nonneg fail at k=2, after
# the inclusion rows at k=1; on their own, the x half is named, being
# reported first.
CORRUPTIONS = [
    ("hpe", "gamma", 10, 0.25, hpe.certify_hpe, "hpe_inequality", 10),
    ("companion", "y", 12, 5.0, _companion_rows, "delta_y_gamma_inequality", 12),
    ("pointwise", "gamma", 1, 100.0, lambda rep: [certificates.pointwise_certificate(rep)],
     "pointwise_bound", 1),
    ("ergodic", "gamma", 0, 1.0, certificates.ergodic_certificate, "ergodic_inclusion_f", 1),
    ("ergodic-eps", "gamma", 0, 1.0, _eps_rows, "ergodic_eps_x_nonneg", 2),
]


@pytest.mark.parametrize(
    "family,block,row,shift,checks,name,k", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS]
)
def test_raise_first_names_the_earliest_violation(family, block, row, shift, checks, name, k):
    inst = problems.generate_qp(9, 4, 3, 2)
    traj = run_full(inst, alpha=1.0, beta=1.0, iters=30)
    assert certificates.full_verification(traj, inst.solution).passed
    traj = shifted(traj, row, shift, block)
    result = certificates.VerificationReport(checks(hpe.Replay(traj, inst.solution)))
    assert not result.passed
    with pytest.raises(CertificationError) as err:
        result.raise_first()
    assert (err.value.check, err.value.k) == (name, k)
    failing = [r for r in result.rows if not r.passed]
    assert min(r.first_k for r in failing) == k


def test_raise_first_prefers_the_earliest_k_then_report_order():
    ks = np.arange(1, 10)

    def failing(name, first_k):
        return hpe.check(name, ks, (ks >= first_k) * 1.0, 0.0, 0.0, "-")

    passing = hpe.check("fine", ks, np.zeros(9), 1.0, 0.0, "-")
    report = certificates.VerificationReport(
        rows=[passing, failing("late", 7), failing("early", 3), failing("tied", 3)]
    )
    assert report.earliest_failure.name == "early"
    with pytest.raises(CertificationError) as err:
        report.raise_first()
    assert (err.value.check, err.value.k) == ("early", 3)


def test_worst_k_is_the_first_k_within_the_band():
    slack = np.array([1.0, 1e-8, 1e-8 - 1e-22, 5.0])
    row = hpe.check("tied", np.arange(1, 5), -slack, 0.0, 0.0, "-")
    assert row.worst_k == 2
    assert row.worst_slack == 1e-8 - 1e-22
    assert row.passed and row.first_k is None


@pytest.mark.parametrize("low", [math.nan, -math.inf])
def test_worst_k_is_the_argmin_of_a_non_finite_minimum(low):
    slack = np.array([1.0, -1.0, low, low, 2.0])
    row = hpe.check("broken", np.arange(1, 6), -slack, 0.0, 0.0, "-")
    assert row.worst_k == 3
    assert not row.passed and row.first_k == 2
    assert row.to_dict()["worst_slack"] is None


def test_full_report_raises_at_the_corrupted_iteration():
    inst = problems.generate_qp(9, 4, 3, 2)
    traj = shifted(run_full(inst, alpha=1.0, beta=1.0, iters=30), 10, 0.25)
    report = certificates.full_verification(traj, inst.solution)
    with pytest.raises(CertificationError) as err:
        report.raise_first()
    assert (err.value.check, err.value.k) == ("hpe_inequality", 10)


def test_raise_first_is_quiet_on_a_passing_report():
    inst = problems.generate_qp(9, 4, 3, 2)
    traj = run_full(inst, alpha=2.0, beta=1.0, iters=30)
    certificates.full_verification(traj, inst.solution).raise_first()


def test_inclusion_rows_read_the_stacked_gaps_exactly():
    # the gaps are differences of O(1) terms, so they agree to an absolute bound
    inst = problems.generate_lasso(3, 5, 10, 0.3)
    traj = run_full(inst, alpha=1.5, beta=1.0, iters=25, h2=LinearizedH())
    rep = hpe.Replay(traj, inst.solution)
    gap_f, gap_g, _ = hpe.inclusion_residuals(rep)
    for k in range(1, traj.iterations + 1):
        single_f = oracles.fenchel_gap(inst.f, rep.Vf[k - 1], traj.X[k])
        single_g = oracles.fenchel_gap(inst.g, rep.Vg[k - 1], traj.Y[k])
        assert abs(gap_f[k - 1] - single_f) <= 1e-12
        assert abs(gap_g[k - 1] - single_g) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("case", ["qp-zero", "qp-linearized", "qp-explicit", "lasso-linearized"])
def test_inclusion_rows_match_the_block_formulas(case, alpha):
    # Vf, Vg and resid are read off M dz; the reference writes M's three
    # block rows out by hand and applies H1, H2 as H1', H2'
    beta = 0.9
    kind, weight = case.split("-")
    if kind == "lasso":
        inst = problems.generate_lasso(7, 10, 20, 0.1)
    else:
        inst = problems.generate_qp(1, 8, 6, 4)
    if weight == "zero":
        h1 = h2 = None
    elif weight == "linearized":
        h1 = h2 = LinearizedH()
    else:
        rng = np.random.default_rng(5)
        R1, R2 = rng.standard_normal((inst.n, inst.n)), rng.standard_normal((inst.p, inst.p))
        h1, h2 = ExplicitH(R1 @ R1.T / inst.n), ExplicitH(R2 @ R2.T / inst.p)
    traj = run_full(inst, alpha=alpha, beta=beta, iters=50, h1=h1, h2=h2)
    rep = hpe.Replay(traj, inst.solution)
    c = (1.0 - alpha) / alpha
    DX, DY, DG = (np.diff(a, axis=0) for a in (traj.X, traj.Y, traj.G))
    BDY = DY @ inst.B.T
    X, Y = traj.X[1:], traj.Y[1:]
    want = {
        "Vf": gamma_tilde(traj) @ inst.A - DX @ traj.h1.T,
        "Vg": (gamma_tilde(traj) - (beta / alpha) * BDY - c * DG) @ inst.B - DY @ traj.h2.T,
        "resid": c * BDY + DG / (alpha * beta) + X @ inst.A.T + Y @ inst.B.T - inst.b,
    }
    for name, ref in want.items():
        err = np.abs(getattr(rep, name) - ref).max(axis=1)
        assert np.all(err <= 1e-13 * (1.0 + np.abs(ref).max(axis=1))), name


def _verification_peak(traj, z_star) -> int:
    """The tracemalloc peak of one full_verification above its entry level."""
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        certificates.full_verification(traj, z_star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - entry


@pytest.mark.parametrize(
    "make, alpha, h, ks, limit",
    [
        (lambda: problems.generate_qp(1, 200, 150, 100), 1.5, None, (100, 300), 7.0),
        (lambda: problems.generate_lasso(7, 10, 20, 0.1), 2.0, LinearizedH(), (1000, 3000), 7.5),
    ],
    ids=["qp", "lasso"],
)
def test_verification_working_set_per_byte_of_record(make, alpha, h, ks, limit):
    # the slope of the peak between two record lengths leaves out what does
    # not grow with K (M, the instance's factors): it counts the K-row arrays
    # alive at once, per byte of the record Z.  It read 9.4 (qp) and 10.1
    # (lasso) while the replay kept z~, every step block and each average.
    inst = make()
    trajs = [run_full(inst, alpha=alpha, iters=k, h1=h, h2=h) for k in ks]
    peaks = [_verification_peak(traj, inst.solution) for traj in trajs]
    slope = (peaks[1] - peaks[0]) / (trajs[1].Z.nbytes - trajs[0].Z.nbytes)
    assert slope <= limit
