"""Per-iteration certificates in the relaxed proximal metric.

The iteration of :mod:`gadmm.solver` is an inexact proximal-point scheme
for the first-order operator

    T(x, y, gamma) = ( df(x) - A'gamma,  dg(y) - B'gamma,  Ax + By - b )

in the seminorm induced by the block operator

    M = [ H1        0                  0              ]
        [ 0    H2 + (beta/alpha) B'B   c B'           ]      c = (1-alpha)/alpha,
        [ 0    c B                     I/(alpha*beta) ]

which is symmetric positive semidefinite for every beta > 0 and alpha in
(0, 2].  With z_k = (x_k, y_k, gamma_k), the extragradient point
z~_k = (x_k, y_k, gamma_tilde_k), the relative-error constant

    sigma_alpha = 1 / (1 + alpha(2 - alpha))        (= 1 exactly at alpha = 2)

and the error budget

    eta_0 = 4(2-alpha) sigma_alpha d0 / alpha,
    eta_k = (2-alpha) sigma_alpha ||dy_k||^2_{H2} / alpha,
    d0    = ||z* - z0||^2_M   for a first-order-optimal z*,

every iteration must satisfy the inclusion M(z_{k-1} - z_k) in T(z~_k)
(three block residuals: two conjugate gaps and one linear identity) and
the relative-error inequality

    ||z~_k - z_k||^2_M + eta_k  <=  sigma_alpha ||z~_k - z_{k-1}||^2_M + eta_{k-1}.

This module assembles M and certifies those conditions on a recorded
trajectory, together with the companion inequalities: the bound on the
running maximum rho_k = max_i ||z~_i - z_{i-1}||^2_M, the <B dy, dgamma>
inequalities that feed the error budget, and the Fejer-type monotonicity
of ||z* - z_k||^2_M + eta_k.  Certification is post-hoc and shares no
state with the iteration engine.

A :class:`Replay` evaluates every per-iteration quantity once, as arrays
over k; each check reads it and returns an array of slacks (>= 0 where the
check holds) turned into a :class:`ReportRow`.  :meth:`Checks.raise_first`
is the one place a failed check becomes a :class:`CertificationError`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import linalg, oracles, problems
from .errors import CertificationError, ConfigError, GadmmError, NotPositiveDefiniteError

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Trajectory

# Relative certificate tolerance: inequalities get 1e-7 * (1 + magnitude)
# of slack, since they compare differences of squared seminorms whose
# rounding noise scales with magnitude.
CERT_REL_TOL = 1e-7

# Conjugate-gap allowance for the per-iteration inclusions.
INCLUSION_GAP_TOL = 1e-8

# Allowance for the linear identities tying the recorded sequences together.
IDENTITY_TOL = 1e-10

# A report row's worst_k is the first k whose slack lies within
# WORST_K_BAND * (1 + |minimum|) of the minimum slack.  Many rows tie to
# within rounding (a slack equal to its tolerance at several k), so an
# exact argmin would let the last bits of a sum pick the reported k.
WORST_K_BAND = 1e-12


def cert_tol(*magnitudes):
    """1e-7 * (1 + the largest magnitude), elementwise over arrays."""
    big = functools.reduce(np.maximum, (np.abs(m) for m in magnitudes), 0.0)
    return CERT_REL_TOL * (1.0 + big)


def sigma_alpha(alpha) -> float:
    """Relative-error constant 1/(1 + alpha(2-alpha)); equals 1 at alpha=2."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    return 1.0 / (1.0 + alpha * (2.0 - alpha))


def build_metric(inst, h1, h2, beta, alpha) -> linalg.PsdOperator:
    """Assemble the block operator M and run the PSD probe on it.  An alpha
    or beta near the ends of the float range that overflows an entry of M
    raises :class:`ConfigError`."""
    n, p, m = inst.n, inst.p, inst.m
    h1 = linalg.as_matrix(h1, rows=n, cols=n, name="h1")
    h2 = linalg.as_matrix(h2, rows=p, cols=p, name="h2")
    beta = float(beta)
    alpha = float(alpha)
    sigma_alpha(alpha)  # range check
    if not beta > 0:
        raise ValueError("beta must be positive")
    c = (1.0 - alpha) / alpha
    B = inst.B
    M = np.zeros((n + p + m, n + p + m))
    M[:n, :n] = h1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        M[n : n + p, n : n + p] = h2 + (beta / alpha) * (B.T @ B)
        M[n : n + p, n + p :] = c * B.T
        M[n + p :, n : n + p] = c * B
        M[n + p :, n + p :] = np.eye(m) / (alpha * beta)
    if not np.isfinite(M).all():
        raise ConfigError(f"proximal metric overflows at alpha={alpha!r}, beta={beta!r}")
    try:
        return linalg.PsdOperator.from_matrix(M, name="proximal metric")
    except NotPositiveDefiniteError as exc:
        raise GadmmError(
            "assembled proximal metric failed the PSD probe (assembly bug)"
        ) from exc


def metric_for(traj: "Trajectory") -> linalg.PsdOperator:
    """The trajectory's proximal metric, built once and kept on it."""
    return traj.metric


def initial_distance_sq(traj: "Trajectory", z_star: problems.KktPoint) -> float:
    """d0 = ||z* - z0||^2_M for the trajectory's initial point."""
    inst = traj.instance
    parts = (
        (z_star.x, traj.X[0], inst.n, "x"),
        (z_star.y, traj.Y[0], inst.p, "y"),
        (z_star.gamma, traj.G[0], inst.m, "gamma"),
    )
    diff = np.concatenate([linalg.as_vector(v, dim=d, name=k) - z0 for v, z0, d, k in parts])
    return metric_for(traj).seminorm_sq(diff)


# ---------------------------------------------------------------------------
# report rows and the raise path


@dataclass
class ReportRow:
    """One named check over a whole trajectory, with its worst slack and the
    first iteration where the slack went negative (None if it never did)."""

    name: str
    passed: bool
    worst_slack: float
    worst_k: Optional[int]
    tolerance: str
    note: str = ""
    first_k: Optional[int] = None

    def to_dict(self) -> dict:
        finite = math.isfinite(self.worst_slack)
        return {
            "name": self.name,
            "pass": self.passed,
            "worst_slack": self.worst_slack if finite else None,
            "worst_k": self.worst_k,
            "first_k": self.first_k,
            "tolerance": self.tolerance,
            "note": self.note or ("" if finite else "non-finite slack"),
        }


def slack_row(name, slack, ks, tolerance, note="") -> ReportRow:
    """Turn one check's slacks at iterations ``ks`` into a report row.

    ``worst_slack`` is the exact minimum; ``worst_k`` is the first k within
    :data:`WORST_K_BAND` of it (the argmin when the minimum is not finite).
    """
    slack = np.asarray(slack, dtype=float)
    if slack.size == 0:
        return ReportRow(name, True, math.inf, None, tolerance, note or "no iterations")
    worst = int(np.argmin(slack))
    low = float(slack[worst])
    if math.isfinite(low):
        worst = int(np.argmax(slack <= low + WORST_K_BAND * (1.0 + abs(low))))
    bad = np.flatnonzero(~(slack >= 0.0))
    first_k = int(ks[bad[0]]) if bad.size else None
    return ReportRow(name, first_k is None, low, int(ks[worst]), tolerance, note, first_k)


def not_applicable(name) -> ReportRow:
    return ReportRow(name, True, math.inf, None, "-", "not-applicable at alpha=2")


def gap_note(gaps) -> str:
    return "conjugate outside its domain" if np.isinf(gaps).any() else ""


class Checks:
    """Report rows with the verdict over all of them."""

    rows: list

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


# ---------------------------------------------------------------------------
# the shared replay


class Replay:
    """One pass over a recorded trajectory against a reference point z*.

    Built once per verification: it checks the reference, takes M from the
    trajectory, and evaluates as arrays over k = 1..K (row k-1) the steps,
    the budgets eta_0..eta_K, the extragradient gaps, M dz_k and the step
    norms, the subgradient rows of both subproblems, the inclusion gaps,
    and the constraint-identity residual rows with their norms.  Each
    operator is applied to a whole stack of rows in one matrix product.
    """

    def __init__(self, traj: "Trajectory", z_star: problems.KktPoint):
        inst = traj.instance
        gap = problems.kkt_gap(inst, z_star)
        if not gap <= problems.SOLUTION_GAP_TOL:
            raise ValueError(f"reference point fails the optimality check (gap {gap:.3e})")
        self.traj, self.z_star = traj, z_star
        self.alpha, self.beta = traj.params.alpha, traj.params.beta
        self.sigma = sigma_alpha(self.alpha)
        self.metric = metric_for(traj)
        self.d0 = initial_distance_sq(traj, z_star)
        self.K = traj.iterations
        self.ks = np.arange(1, self.K + 1)
        self.X, self.Y, self.G, self.Gt = traj.X, traj.Y, traj.G, traj.Gt
        self.DX, self.DY, self.DG = (np.diff(a, axis=0) for a in (self.X, self.Y, self.G))
        self.dy_sq = linalg.seminorm_sq(traj.h2, self.DY)
        self.eta = eta_sequence(self)
        self.egaps = extragradient_gaps_sq(self)
        DZ = np.hstack([self.DX, self.DY, self.DG])
        self.MDZ = DZ @ self.metric.matrix
        self.step_norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", DZ, self.MDZ), 0.0))
        self.Ztil = np.hstack([self.X[1:], self.Y[1:], self.Gt])
        c = (1.0 - self.alpha) / self.alpha
        self.BDY = self.DY @ inst.B.T
        # the exact subgradients produced by the two subproblems
        self.Vf = self.Gt @ inst.A - self.DX @ traj.h1.T
        coupled = self.Gt - (self.beta / self.alpha) * self.BDY - c * self.DG
        self.Vg = coupled @ inst.B - self.DY @ traj.h2.T
        self.gap_f, self.gap_g, self.resid = inclusion_residuals(self)
        self.cons = np.sqrt(np.vecdot(self.resid, self.resid))


def eta_sequence(rep: Replay) -> np.ndarray:
    """Error budgets eta_0..eta_K."""
    coef = (2.0 - rep.alpha) * rep.sigma / rep.alpha
    return np.concatenate([[4.0 * coef * rep.d0], coef * rep.dy_sq])


def extragradient_gaps_sq(rep: Replay) -> np.ndarray:
    """||z~_k - z_{k-1}||^2_M for k = 1..K."""
    return rep.metric.seminorm_sq(np.hstack([rep.DX, rep.DY, rep.Gt - rep.G[:-1]]))


def rho_sequence(rep: Replay) -> np.ndarray:
    """Running maximum rho_k = max_{i<=k} ||z~_i - z_{i-1}||^2_M (k = 1..K)."""
    return np.maximum.accumulate(rep.egaps)


def inclusion_residuals(rep: Replay) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block residuals of M(z_{k-1} - z_k) in T(z~_k), one entry or row per k:

    - conjugate gap of A'gamma_tilde - H1 dx at x (must vanish),
    - conjugate gap of B'gamma_tilde - (H2 + (beta/alpha)B'B) dy
      - ((1-alpha)/alpha) B' dgamma at y (must vanish),
    - the row ((1-alpha)/alpha) B dy + dgamma/(alpha beta) + Ax + By - b,
      whose norm must vanish.
    """
    inst = rep.traj.instance
    alpha, beta = rep.alpha, rep.beta
    X, Y = rep.X[1:], rep.Y[1:]
    gap_f = oracles.fenchel_gap(inst.f, rep.Vf, X)
    gap_g = oracles.fenchel_gap(inst.g, rep.Vg, Y)
    resid = (1.0 - alpha) / alpha * rep.BDY + rep.DG / (alpha * beta)
    return gap_f, gap_g, resid + X @ inst.A.T + Y @ inst.B.T - inst.b


# ---------------------------------------------------------------------------
# the checks


@dataclass
class HpeCertificate(Checks):
    """The per-iteration conditions, one entry per k = 1..K."""

    k: np.ndarray
    lhs: np.ndarray                  # ||z~_k - z_k||^2_M + eta_k
    rhs: np.ndarray                  # sigma ||z~_k - z_{k-1}||^2_M + eta_{k-1}
    slack: np.ndarray                # rhs - lhs (must be >= -tol)
    inclusion_gap_f: np.ndarray
    inclusion_gap_g: np.ndarray
    constraint_residual: np.ndarray  # linear identity on (dy, dgamma, Ax+By-b)
    multiplier_residual: np.ndarray  # || gamma_tilde - gamma_prev - (dgamma + beta B dy)/alpha ||
    eta: np.ndarray
    identity_tol: np.ndarray         # resolved allowance for the two identities at each k
    rows: list


REL = f"{CERT_REL_TOL:g} relative"


def certify_hpe(rep: Replay) -> HpeCertificate:
    """Evaluate the per-iteration conditions at every k >= 1: the
    relative-error inequality, the two inclusions and the two identities."""
    n, p = rep.traj.instance.n, rep.traj.instance.p
    to_iter = np.hstack([np.zeros((rep.K, n + p)), rep.Gt - rep.G[1:]])
    lhs = rep.metric.seminorm_sq(to_iter) + rep.eta[1:]
    rhs = rep.sigma * rep.egaps + rep.eta[:-1]
    slack = rhs - lhs
    mult = rep.Gt - rep.G[:-1] - (rep.DG + rep.beta * rep.BDY) / rep.alpha
    mult = np.sqrt(np.vecdot(mult, mult))
    biggest = [np.abs(a).max(axis=1, initial=0.0) for a in (rep.Gt, rep.G[1:], rep.G[:-1])]
    id_tol = IDENTITY_TOL * (1.0 + np.maximum.reduce(biggest))
    gap = functools.partial(slack_row, ks=rep.ks, tolerance=f"{INCLUSION_GAP_TOL:g}")
    ident = functools.partial(slack_row, ks=rep.ks, tolerance=f"{IDENTITY_TOL:g} scaled")
    rows = [
        slack_row("hpe_inequality", slack + cert_tol(lhs, rhs), rep.ks, REL),
        gap("hpe_inclusion_f", INCLUSION_GAP_TOL - rep.gap_f, note=gap_note(rep.gap_f)),
        gap("hpe_inclusion_g", INCLUSION_GAP_TOL - rep.gap_g, note=gap_note(rep.gap_g)),
        ident("multiplier_identity", id_tol - mult),
        ident("constraint_identity", id_tol - rep.cons),
    ]
    return HpeCertificate(
        rep.ks, lhs, rhs, slack, rep.gap_f, rep.gap_g, rep.cons, mult, rep.eta[1:], id_tol, rows
    )


def _bound_row(name, rep, bound) -> ReportRow:
    rho = rho_sequence(rep)
    return slack_row(name, bound + cert_tol(bound, rho) - rho, rep.ks, REL, f"bound={bound:.6g}")


def check_rho_bound(rep: Replay) -> ReportRow:
    """rho_k <= 4(1+2alpha)[alpha + 4(2-alpha)sigma] d0 / alpha^3 for all k.

    This is the bound that keeps the ergodic certificates finite even at
    alpha = 2, where the relative-error constant equals one.
    """
    alpha, sig = rep.alpha, rep.sigma
    bound = 4.0 * (1.0 + 2.0 * alpha) * (alpha + 4.0 * (2.0 - alpha) * sig) * rep.d0 / alpha**3
    return _bound_row("rho_bound", rep, bound)


def check_rho_contractive_bound(rep: Replay) -> ReportRow:
    """rho_k <= (d0 + eta_0)/(1 - sigma), valid only when sigma < 1 (alpha < 2)."""
    if rep.sigma >= 1.0:
        raise ValueError("contractive rho bound undefined at alpha = 2 (sigma = 1)")
    return _bound_row("rho_contractive_bound", rep, (rep.d0 + rep.eta[0]) / (1.0 - rep.sigma))


def check_delta_inequalities(rep: Replay) -> ReportRow:
    """The <B dy_k, dgamma_k> inequalities that feed the error budget:

        2 <B dy_1, dgamma_1> >= ||dy_1||^2_{H2} - 4 d0,
        2 <B dy_k, dgamma_k> >= ||dy_k||^2_{H2} - ||dy_{k-1}||^2_{H2}   (k >= 2).
    """
    inner = 2.0 * np.vecdot(rep.BDY, rep.DG)
    lower = rep.dy_sq - np.concatenate([[4.0 * rep.d0], rep.dy_sq[:-1]])
    slack = inner - lower + cert_tol(inner, lower)
    return slack_row("delta_y_gamma_inequality", slack, rep.ks, REL)


def check_fejer(rep: Replay) -> ReportRow:
    """Monotonicity of ||z* - z_k||^2_M + eta_k along the run."""
    zs = rep.z_star
    dist = rep.metric.seminorm_sq(np.hstack([zs.x - rep.X, zs.y - rep.Y, zs.gamma - rep.G]))
    vals = dist + rep.eta
    prev, cur = vals[:-1], vals[1:]
    return slack_row("fejer_monotonicity", prev - cur + cert_tol(prev, cur), rep.ks, REL)

