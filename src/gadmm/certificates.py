"""Pointwise and ergodic complexity certificates.

Two families of closed-form bounds are checked against a recorded
trajectory, both driven by d0 = ||z* - z0||^2_M and the relative-error
constant sigma = 1/(1 + alpha(2-alpha)):

Pointwise (alpha strictly inside (0, 2)):

    min_{i<=k} ||(dx_i, dy_i, dgamma_i)||_M
        <= sqrt( 2[alpha(1+sigma) + 8(2-alpha)sigma] d0 / (alpha(1-sigma)) ) / sqrt(k).

Ergodic (any alpha in (0, 2]), for the averaged iterates
(x_k^a, y_k^a, gt_k^a) over i = 1..k, the averaged steps
r_k^a = (z_k - z_0)/k, and the transported epsilon values

    eps_x = (1/k) sum_i <H1 dx_i - A'gt_i, x^a - x_i>,
    eps_y = (1/k) sum_i <(H2 + (beta/alpha)B'B) dy_i
                          + ((1-alpha)/alpha) B'dgamma_i - B'gt_i, y^a - y_i>:

    ||r_k^a||_M <= 2 sqrt(c d0) / k,        c  = (alpha + 4(2-alpha)sigma)/alpha,
    eps_x + eps_y <= ct d0 / k,             ct = 3[3 alpha^2 + 4(1+2alpha)sigma]
                                                  [alpha + 4(2-alpha)sigma] / (2 alpha^3),

with eps_x, eps_y >= 0, the averaged inclusion holding with those
epsilons, and eps_x + eps_y splitting the metric-level averaged epsilon

    eps^a = (1/k) sum_i <M dz_i, z~^a - z~_i>

exactly.  The averaged inclusion is the transportation formula: its
subgradients and constraint residual are the averages of the replay's
subgradient and residual rows.  Every k = 1..K is checked, read off one
set of prefix sums in O(K dim): an average is :func:`running_mean`,
``np.cumsum(axis=0)`` of the stored rows at row k-1 over k, and each
epsilon (v_i the subgradient rows for eps_x and eps_y,
v_i = -M dz_i for eps^a) sums the iterates anchored at the last one,
d_i = z_i - z_K:

    (1/k) sum_i <v_i, z_i - z^a_k> = (1/k) sum_i <v_i, d_i> - <v^a_k, d^a_k>.

These are plain running sums.  For blocks of two or more columns they give
``mean(axis=0)`` over rows 1..k bit for bit, since numpy adds the rows of a
C-ordered array one after another; ``mean`` sums a one-column block
pairwise, so there the two differ by rounding.  Against exact arithmetic
at K = 1e5 the epsilons were off by at most 2.1e-18 (lasso, n = 10) and
7.7e-17 (QP, dims 5/4/3).

Every check reads one :class:`gadmm.hpe.Replay` of the trajectory and
returns :func:`gadmm.hpe.check` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import hpe, oracles, solver
from .errors import CertificationError
from .hpe import REL, Replay, ReportRow, cert_tol, check, gap_note, not_applicable, sigma_alpha

# Allowance for the averaged constraint identity and the epsilon split.
ERGODIC_IDENTITY_TOL = 1e-8


def bound_constants(alpha) -> tuple[float, float, float]:
    """(sigma, c, ct): the relative-error constant and the two ergodic
    bound constants.  At alpha=1: (0.5, 3, 40.5); at alpha=2: (1, 1, 12)."""
    sig = sigma_alpha(alpha)
    base = alpha + 4.0 * (2.0 - alpha) * sig
    ct = 3.0 * (3.0 * alpha**2 + 4.0 * (1.0 + 2.0 * alpha) * sig) * base / (2.0 * alpha**3)
    return sig, base / alpha, ct


def pointwise_constant(alpha, d0) -> float:
    """The k-free factor of the pointwise bound; defined for alpha in (0,2)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ValueError("pointwise bound undefined at alpha = 2 (sigma = 1)")
    sig = sigma_alpha(alpha)
    return math.sqrt(
        2.0 * (alpha * (1.0 + sig) + 8.0 * (2.0 - alpha) * sig) * d0 / (alpha * (1.0 - sig))
    )


def running_mean(rows) -> np.ndarray:
    """The mean of the first k rows (or entries) of ``rows`` for each
    k = 1..len(rows), read off one running sum."""
    sums = np.cumsum(rows, axis=0)
    sums /= np.arange(1, len(rows) + 1).reshape((-1,) + (1,) * (np.ndim(rows) - 1))
    return sums


def pointwise_certificate(rep: Replay) -> ReportRow:
    """The pointwise bound at every recorded k.  Rejects alpha = 2, where
    the bound is undefined."""
    running_min = np.minimum.accumulate(rep.step_norms)
    rhs = pointwise_constant(rep.alpha, rep.d0) / np.sqrt(rep.ks.astype(float))
    return check("pointwise_bound", rep.ks, running_min, rhs, cert_tol(running_min, rhs), REL)


def _ergodic_checks(rep: Replay) -> list:
    """The rows of the two ergodic bounds, the epsilon nonnegativity, the
    averaged inclusion, the averaged constraint identity, and the epsilon
    split at every k = 1..K, all read off one set of prefix sums."""
    if rep.K == 0:
        raise ValueError("trajectory has no iterations")
    inst, d0, k = rep.traj.instance, rep.d0, rep.ks
    _, c_a, ct_a = bound_constants(rep.alpha)
    n, p = inst.n, inst.p
    R = rep.Z[1:] - rep.Z[0]  # the averaged step (z_k - z_0)/k, in place
    R /= k[:, None]
    r_lhs = np.sqrt(np.maximum(rep.metric.seminorm_sq(R), 0.0))
    del R  # only its norm is kept: free it before the averages are built
    D = rep.Ztil - rep.Ztil[-1]  # z~_i - z~_K
    Da = running_mean(D)

    def transported(V, Va, cols):
        """(1/k) sum_i <v_i, z_i - z^a_k> over the columns ``cols`` of z~."""
        return running_mean(np.vecdot(V, D[:, cols])) - np.vecdot(Va, Da[:, cols])

    Za = running_mean(rep.Ztil)
    Vfa, Vga = running_mean(rep.Vf), running_mean(rep.Vg)
    eps_x = transported(rep.Vf, Vfa, slice(0, n))
    eps_y = transported(rep.Vg, Vga, slice(n, n + p))
    eps_sum = eps_x + eps_y
    m_eps = -transported(rep.MDZ, running_mean(rep.MDZ), slice(None))
    r_rhs = 2.0 * math.sqrt(c_a * d0) / k
    eps_rhs = ct_a * d0 / k
    gap_f = oracles.fenchel_gap(inst.f, Vfa, Za[:, :n])
    gap_g = oracles.fenchel_gap(inst.g, Vga, Za[:, n : n + p])
    resid = running_mean(rep.resid)
    tol = ERGODIC_IDENTITY_TOL
    return [
        check("ergodic_residual_bound", k, r_lhs, r_rhs, cert_tol(r_lhs, r_rhs), REL),
        check("ergodic_eps_bound", k, eps_sum, eps_rhs, cert_tol(eps_sum, eps_rhs), REL),
        check("ergodic_eps_x_nonneg", k, -eps_x, 0.0, cert_tol(eps_x), REL),
        check("ergodic_eps_y_nonneg", k, -eps_y, 0.0, cert_tol(eps_y), REL),
        check("ergodic_inclusion_f", k, gap_f, np.maximum(eps_x, 0.0), cert_tol(eps_x), REL,
              gap_note(gap_f)),
        check("ergodic_inclusion_g", k, gap_g, np.maximum(eps_y, 0.0), cert_tol(eps_y), REL,
              gap_note(gap_g)),
        check("ergodic_constraint_identity", k, np.sqrt(np.vecdot(resid, resid)), 0.0, tol,
              f"{tol:g}"),
        check("eps_split_identity", k, np.abs(m_eps - eps_sum), 0.0, tol * (1 + np.abs(m_eps)),
              f"{tol:g} relative"),
    ]


# the library name of the ergodic rows; full_verification calls
# _ergodic_checks through the module, where perfbench's tracer wraps it
ergodic_certificate = _ergodic_checks


# ---------------------------------------------------------------------------
# whole-trajectory verification report


@dataclass
class VerificationReport:
    """Report rows with the verdict over all of them."""

    rows: list
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def earliest_failure(self) -> Optional[ReportRow]:
        """The earliest violation: the failing row with the smallest first
        violating k, ties going to the row reported first; None if every
        check passes."""
        return min((r for r in self.rows if not r.passed), key=lambda r: r.first_k, default=None)

    def raise_first(self) -> None:
        """Raise :class:`CertificationError` for :attr:`earliest_failure`.
        Returns quietly when every check passes."""
        row = self.earliest_failure
        if row is not None:
            raise CertificationError(
                f"{row.name} violated at k={row.first_k} "
                f"(worst slack {row.worst_slack:.3e} at k={row.worst_k})",
                k=row.first_k,
                check=row.name,
            )

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "meta": self.meta,
            "checks": [r.to_dict() for r in self.rows],
        }


def full_verification(traj: solver.Trajectory, z_star) -> VerificationReport:
    """Run every check on one replay of a recorded trajectory.

    Nothing raises here; failures land in the report, and
    :meth:`VerificationReport.raise_first` names the earliest one.
    """
    rep = Replay(traj, z_star)
    alpha = rep.alpha
    meta = {"alpha": alpha, "beta": rep.beta, "iterations": rep.K, "d0": rep.d0}
    if rep.K == 0:
        meta["note"] = "no iterations recorded; all checks vacuous"
        return VerificationReport(rows=[], meta=meta)
    sig, c_a, ct_a = bound_constants(alpha)
    interior, na = alpha < 2.0, not_applicable
    rows = [
        *hpe.certify_hpe(rep),
        hpe.check_delta_inequalities(rep),
        hpe.check_rho_bound(rep),
        hpe.check_rho_contractive_bound(rep) if interior else na("rho_contractive_bound"),
        hpe.check_fejer(rep),
        pointwise_certificate(rep) if interior else na("pointwise_bound"),
        *_ergodic_checks(rep),
    ]
    meta.update(sigma=sig, c_alpha=c_a, c_tilde_alpha=ct_a)
    return VerificationReport(rows=rows, meta=meta)
