"""Engine faults the verifier must catch: one stage of ``solver._Engine``
with its pre-prox rows scaled by (1 + delta), a consistent wrong subproblem
whose record is otherwise honest.  Each fault is pinned at the delta where
the checks catch it, through the gamma_tilde the verifier derives from the
record, and the clean runs must pass."""

import pytest

from gadmm import certificates, problems, solver
from gadmm.solver import GadmmParams, LinearizedH, ZeroH

RUNS = {
    "qp": (lambda: problems.generate_qp(1, 8, 6, 4), 1.5, ZeroH()),
    "lasso": (lambda: problems.generate_lasso(7, 10, 20, 0.1), 2.0, LinearizedH()),
}

# (run, stage, delta, the check that fails first): x scales all of T1, y
# the v_y rows of T2.  A quadratic block's gap is quadratic in the
# subgradient's error, the l1 block's linear, hence the spread of deltas.
FAULTS = [
    ("qp", "x", 1e-5, "hpe_inclusion_f"),
    ("qp", "y", 1e-4, "hpe_inclusion_g"),
    ("lasso", "x", 1e-4, "hpe_inclusion_f"),
    ("lasso", "y", 1e-8, "hpe_inclusion_g"),
]


def verify(monkeypatch, run, stage, delta):
    make, alpha, mode = RUNS[run]
    inst = make()
    real = solver._Engine.__init__

    def faulty(self, inst, params):
        real(self, inst, params)
        if stage == "x":
            self._T1 = self._T1 * (1.0 + delta)
        else:
            self._T2 = self._T2.copy()
            self._T2[: inst.p] *= 1.0 + delta

    monkeypatch.setattr(solver._Engine, "__init__", faulty)
    params = GadmmParams(beta=1.0, alpha=alpha, h1=mode, h2=mode, max_iter=300, stop_tol=0.0)
    return certificates.full_verification(solver.run(inst, params), inst.solution)


@pytest.mark.parametrize("run, stage, delta, check", FAULTS, ids=[f"{r}-{s}" for r, s, *_ in FAULTS])
def test_fault_is_caught(monkeypatch, run, stage, delta, check):
    report = verify(monkeypatch, run, stage, delta)
    assert not report.passed
    assert report.earliest_failure.name == check


@pytest.mark.parametrize("run", sorted(RUNS))
def test_clean_run_passes(monkeypatch, run):
    report = verify(monkeypatch, run, "x", 0.0)
    assert report.passed, report.earliest_failure
