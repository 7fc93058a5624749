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
subgradient and residual rows.  All checked k are read off one set of
prefix sums, so the full grid costs O(K dim): an average is
``np.cumsum(axis=0)`` of the stored rows at row k-1, over k, and each
epsilon (v_i the subgradient rows for eps_x and eps_y, v_i = -M dz_i for
eps^a) sums the iterates anchored at the last one, d_i = z_i - z_K:

    (1/k) sum_i <v_i, z_i - z^a_k> = (1/k) sum_i <v_i, d_i> - <v^a_k, d^a_k>.

These are plain running sums.  For blocks of two or more columns they give
``mean(axis=0)`` over rows 1..k bit for bit, since numpy adds the rows of a
C-ordered array one after another; ``mean`` sums a one-column block
pairwise, so there the two differ by rounding.  Against exact arithmetic
at K = 1e5 the epsilons were off by at most 2.1e-18 (lasso, n = 10) and
7.7e-17 (QP, dims 5/4/3).

Every check reads one :class:`gadmm.hpe.Replay` of the trajectory.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hpe, oracles, solver
from .hpe import REL, Checks, Replay, cert_tol, gap_note, not_applicable, sigma_alpha, slack_row

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


def checked_iterations(total, full=False) -> list[int]:
    """The k values at which ergodic quantities are evaluated: powers of
    two plus the final iteration, or every k in full mode."""
    if total < 1:
        return []
    if full:
        return list(range(1, total + 1))
    return [1 << i for i in range(total.bit_length()) if 1 << i < total] + [total]


BOUND_CSV_COLUMNS = [
    "k", "pointwise_lhs", "pointwise_rhs", "ergodic_r_lhs", "ergodic_r_rhs",
    "ergodic_eps_lhs", "ergodic_eps_rhs", "eps_x", "eps_y", "split_residual",
]


def save_bound_report_csv(table: dict, path) -> None:
    """Write a :func:`bound_table`, one row per checked k; NaN is a blank cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUND_CSV_COLUMNS)
        for k, *vals in zip(*(table[col].tolist() for col in BOUND_CSV_COLUMNS)):
            writer.writerow([k] + ["" if math.isnan(v) else repr(float(v)) for v in vals])


@dataclass
class PointwiseCertificate(Checks):
    """The pointwise bound at every recorded k, indexed by k-1."""

    running_min: np.ndarray
    rhs: np.ndarray
    rows: list


def pointwise_certificate(rep: Replay) -> PointwiseCertificate:
    """Check the pointwise bound at every recorded k.  Rejects alpha = 2,
    where the bound is undefined."""
    factor = pointwise_constant(rep.alpha, rep.d0)
    running_min = np.minimum.accumulate(rep.step_norms)
    rhs = factor / np.sqrt(rep.ks.astype(float))
    slack = rhs + cert_tol(running_min, rhs) - running_min
    row = slack_row("pointwise_bound", slack, rep.ks, REL)
    return PointwiseCertificate(running_min, rhs, [row])


@dataclass
class ErgodicCertificate(Checks):
    """All ergodic measurements, one entry (or row) per checked iteration ``k``."""

    k: np.ndarray
    x_avg: np.ndarray            # means of x_1..x_k, one row per k
    y_avg: np.ndarray
    gamma_tilde_avg: np.ndarray
    r_avg: np.ndarray            # averaged step (z_k - z_0)/k, blocks x, y, gamma
    r_lhs: np.ndarray
    r_rhs: np.ndarray
    eps_x: np.ndarray
    eps_y: np.ndarray
    eps_rhs: np.ndarray
    inclusion_gap_f: np.ndarray
    inclusion_gap_g: np.ndarray
    constraint_residual: np.ndarray
    metric_eps: np.ndarray
    split_residual: np.ndarray
    rows: list


def _ergodic_checks(rep: Replay, ks) -> ErgodicCertificate:
    """The two ergodic bounds, the epsilon nonnegativity, the averaged
    inclusion, the averaged constraint identity, and the epsilon split at
    the iterations ``ks``, all read off one set of prefix sums."""
    if not ks:
        raise ValueError("trajectory has no iterations")
    inst, d0 = rep.traj.instance, rep.d0
    _, c_a, ct_a = bound_constants(rep.alpha)
    k = np.array(ks, dtype=int)
    kf = k.astype(float)
    at_k = k - 1  # prefix-sum row holding the sum over i = 1..k

    def average(rows):
        return np.cumsum(rows, axis=0)[at_k] / kf[:, None]

    n, p = inst.n, inst.p
    D = rep.Ztil - rep.Ztil[-1]  # z~_i - z~_K
    Da = average(D)

    def transported(V, Va, cols):
        """(1/k) sum_i <v_i, z_i - z^a_k> over the columns ``cols`` of z~."""
        return np.cumsum(np.vecdot(V, D[:, cols]))[at_k] / kf - np.vecdot(Va, Da[:, cols])

    Xa, Ya, Gta = np.split(average(rep.Ztil), [n, n + p], axis=1)
    Vfa, Vga = average(rep.Vf), average(rep.Vg)
    R = np.hstack([rep.X[k] - rep.X[0], rep.Y[k] - rep.Y[0], rep.G[k] - rep.G[0]]) / kf[:, None]
    eps_x = transported(rep.Vf, Vfa, slice(0, n))
    eps_y = transported(rep.Vg, Vga, slice(n, n + p))
    m_eps = -transported(rep.MDZ, average(rep.MDZ), slice(None))
    r_lhs = np.sqrt(np.maximum(rep.metric.seminorm_sq(R), 0.0))
    r_rhs = 2.0 * math.sqrt(c_a * d0) / kf
    eps_rhs = ct_a * d0 / kf
    gap_f = oracles.fenchel_gap(inst.f, Vfa, Xa)
    gap_g = oracles.fenchel_gap(inst.g, Vga, Ya)
    resid = average(rep.resid)
    cons = np.sqrt(np.vecdot(resid, resid))
    eps_sum = eps_x + eps_y
    split = np.abs(m_eps - eps_sum)
    rel = functools.partial(slack_row, ks=k, tolerance=REL)
    tol = ERGODIC_IDENTITY_TOL
    rows = [
        rel("ergodic_residual_bound", r_rhs + cert_tol(r_lhs, r_rhs) - r_lhs),
        rel("ergodic_eps_bound", eps_rhs + cert_tol(eps_sum, eps_rhs) - eps_sum),
        rel("ergodic_eps_nonneg", np.minimum(eps_x + cert_tol(eps_x), eps_y + cert_tol(eps_y))),
        rel(
            "ergodic_inclusion_f",
            np.maximum(eps_x, 0.0) + cert_tol(eps_x) - gap_f,
            note=gap_note(gap_f),
        ),
        rel(
            "ergodic_inclusion_g",
            np.maximum(eps_y, 0.0) + cert_tol(eps_y) - gap_g,
            note=gap_note(gap_g),
        ),
        slack_row("ergodic_constraint_identity", tol - cons, k, f"{tol:g}"),
        slack_row("eps_split_identity", tol * (1 + np.abs(m_eps)) - split, k, f"{tol:g} relative"),
    ]
    return ErgodicCertificate(
        k, Xa, Ya, Gta, R, r_lhs, r_rhs, eps_x, eps_y, eps_rhs,
        gap_f, gap_g, cons, m_eps, split, rows,
    )


def ergodic_certificate(rep: Replay, full_grid=False) -> ErgodicCertificate:
    """The ergodic checks at the power-of-two grid, or at every k."""
    return _ergodic_checks(rep, checked_iterations(rep.K, full=full_grid))


def bound_table(rep: Replay, full_grid=False) -> dict:
    """Bound comparisons at the checked iterations: one array per column of
    :data:`BOUND_CSV_COLUMNS`, the pointwise columns NaN at alpha = 2."""
    erg = ergodic_certificate(rep, full_grid)
    nan = np.full(len(erg.k), math.nan)
    pw = pointwise_certificate(rep) if rep.alpha < 2.0 else None
    columns = (
        erg.k,
        pw.running_min[erg.k - 1] if pw else nan,
        pw.rhs[erg.k - 1] if pw else nan,
        erg.r_lhs,
        erg.r_rhs,
        erg.eps_x + erg.eps_y,
        erg.eps_rhs,
        np.maximum(erg.eps_x, 0.0),
        np.maximum(erg.eps_y, 0.0),
        erg.split_residual,
    )
    return dict(zip(BOUND_CSV_COLUMNS, columns))


# ---------------------------------------------------------------------------
# whole-trajectory verification report


@dataclass
class VerificationReport(Checks):
    rows: list
    meta: dict

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "meta": self.meta,
            "checks": [r.to_dict() for r in self.rows],
        }


def full_verification(traj: solver.Trajectory, z_star, full_grid=False) -> VerificationReport:
    """Run every check on one replay of a recorded trajectory.

    Nothing raises here; failures land in the report, and
    :meth:`VerificationReport.raise_first` names the earliest one.
    """
    return verify(Replay(traj, z_star), full_grid)


def verify(rep: Replay, full_grid=False) -> VerificationReport:
    """:func:`full_verification` on an existing replay."""
    alpha = rep.alpha
    meta = {"alpha": alpha, "beta": rep.beta, "iterations": rep.K, "d0": rep.d0}
    if rep.K == 0:
        meta["note"] = "no iterations recorded; all checks vacuous"
        return VerificationReport(rows=[], meta=meta)
    sig, c_a, ct_a = bound_constants(alpha)
    ks = checked_iterations(rep.K, full=full_grid)
    interior, na = alpha < 2.0, not_applicable
    rows = [
        *hpe.certify_hpe(rep).rows,
        hpe.check_delta_inequalities(rep),
        hpe.check_rho_bound(rep),
        hpe.check_rho_contractive_bound(rep) if interior else na("rho_contractive_bound"),
        hpe.check_fejer(rep),
        *(pointwise_certificate(rep).rows if interior else [na("pointwise_bound")]),
        *_ergodic_checks(rep, ks).rows,
    ]
    meta.update(
        sigma=sig,
        c_alpha=c_a,
        c_tilde_alpha=ct_a,
        checked_iterations=ks,
        full_grid=bool(full_grid),
    )
    return VerificationReport(rows=rows, meta=meta)


def run_and_verify(inst, params):
    """Run ``params`` on ``inst`` and verify the run against
    ``inst.solution``: one point of an alpha sweep.

    Returns the trajectory, the verification report, the bound table, and
    the lhs/rhs ratios of the pointwise, ergodic r and ergodic epsilon
    bounds at the last checked k.  A ratio is None where its bound is
    undefined or has a nonpositive rhs.
    """
    traj = solver.run(inst, params)
    rep = Replay(traj, inst.solution)
    report = verify(rep)
    bounds = bound_table(rep)
    ratios = []
    for bound in ("pointwise", "ergodic_r", "ergodic_eps"):
        a, b = float(bounds[f"{bound}_lhs"][-1]), float(bounds[f"{bound}_rhs"][-1])
        ratios.append(a / b if b > 0 and not math.isnan(a) else None)
    return traj, report, bounds, tuple(ratios)
