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

This module assembles M as its two diagonal blocks, M = H1 (+) W with W on
(y, gamma), probes each nonzero block at M's floor PSD_TOL * max(1, max|diag
M|), and certifies those conditions on a recorded trajectory, together with
the companion inequalities: the bound on the running maximum rho_k = max_i
||z~_i - z_{i-1}||^2_M, the <B dy, dgamma> inequalities that feed the error
budget, and the Fejer-type monotonicity of ||z* - z_k||^2_M + eta_k.
Certification is post-hoc and shares no state with the iteration engine.

A :class:`Replay` evaluates every per-iteration quantity once, as arrays
over k; each check reads it and states its condition as lhs <= rhs + tol at
every k, which :func:`check` turns into a :class:`ReportRow`.  The one place
a failed check raises is :meth:`gadmm.certificates.VerificationReport.raise_first`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import linalg, oracles, problems
from .errors import ConfigError, InternalCheckError

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
    """Relative-error constant sigma = 1/(1 + alpha(2-alpha)); equals 1 at
    alpha=2.  Below 2 the bounds divide by 1 - sigma and by alpha^3, so an
    alpha at which sigma rounds to 1 raises :class:`ConfigError`."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    sigma = 1.0 / (1.0 + alpha * (2.0 - alpha))
    if sigma == 1.0 and alpha < 2.0:
        raise ConfigError(f"alpha={alpha!r} is too small to certify: sigma rounds to 1")
    return sigma


@dataclass(frozen=True)
class ProximalMetric:
    """M = H1 (+) W as its diagonal blocks: ``h1`` (None when zero) on the
    first ``n`` coordinates, ``w`` on (y, gamma); qscale = 1 + max|M|."""

    n: int
    h1: Optional[np.ndarray]
    w: np.ndarray
    qscale: float

    @property
    def side(self) -> int:
        return self.n + self.w.shape[0]

    def apply(self, V) -> np.ndarray:
        """V @ M, for one row or a stack of rows."""
        V, n = linalg.as_rows(V, dim=self.side, name="V"), self.n
        out = np.zeros(V.shape)
        out[..., n:] = V[..., n:] @ self.w
        if self.h1 is not None:
            out[..., :n] = V[..., :n] @ self.h1
        return out

    def seminorm_sq(self, v):
        """||v||^2_M of one vector or each row of a stack (:func:`linalg.clamp_rounding`)."""
        v, n = linalg.as_rows(v, dim=self.side, name="v"), self.n
        val = np.vecdot(v[..., n:], v[..., n:] @ self.w)
        if self.h1 is not None:
            val += np.vecdot(v[..., :n], v[..., :n] @ self.h1)
        return linalg.clamp_rounding(val, v, self.qscale)


def build_metric(inst, h1, h2, beta, alpha) -> ProximalMetric:
    """Assemble M = H1 (+) W and probe each nonzero block at M's floor
    PSD_TOL * max(1, max|diag M|), at which M passes iff every block does; a
    failed probe is an assembly bug (:class:`InternalCheckError`).  An alpha
    or beta that overflows an entry of W raises :class:`ConfigError`."""
    n, p, m = inst.n, inst.p, inst.m
    h1 = linalg.as_matrix(h1, rows=n, cols=n, name="h1")
    h2 = linalg.as_matrix(h2, rows=p, cols=p, name="h2")
    beta, alpha = float(beta), float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if not beta > 0:
        raise ValueError("beta must be positive")
    c, B = (1.0 - alpha) / alpha, inst.B
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        yy = h2 + (beta / alpha) * (B.T @ B)
        W = np.block([[yy, c * B.T], [c * B, np.eye(m) / (alpha * beta)]])
    if not np.isfinite(W).all():
        raise ConfigError(f"proximal metric overflows at alpha={alpha!r}, beta={beta!r}")
    H1 = h1.copy() if h1.any() else None
    blocks = [b for b in (H1, W) if b is not None]
    floor = linalg.PSD_TOL * max(1.0, *(np.max(np.abs(np.diag(b)), initial=0.0) for b in blocks))
    if not all(linalg.is_psd(b, floor=floor) for b in blocks):
        raise InternalCheckError("assembled proximal metric failed the PSD probe")
    for b in blocks:
        b.setflags(write=False)
    return ProximalMetric(n, H1, W, 1.0 + max(float(np.max(np.abs(b))) for b in blocks))


def metric_for(traj: "Trajectory") -> ProximalMetric:
    """The trajectory's proximal metric, built once and kept on it."""
    return traj.metric


def gamma_tilde(inst, Z, beta) -> np.ndarray:
    """The multipliers gamma_tilde_k = gamma_{k-1} - beta(A x_k + B y_{k-1} - b)
    of the extragradient points z~_k, for k = 1..K (row k-1), derived from
    the rows z_0..z_K of ``Z``.  An entry that overflows is inf or nan,
    without a warning."""
    n, p = inst.n, inst.n + inst.p
    with np.errstate(over="ignore", invalid="ignore"):
        return Z[:-1, p:] - beta * (Z[1:, :n] @ inst.A.T + Z[:-1, n:p] @ inst.B.T - inst.b)


def z_row(inst, point: problems.KktPoint) -> np.ndarray:
    """The point (x, y, gamma) as one row z, each block's length checked."""
    parts = ((point.x, inst.n, "x"), (point.y, inst.p, "y"), (point.gamma, inst.m, "gamma"))
    return np.concatenate([linalg.as_vector(v, dim=d, name=k) for v, d, k in parts])


def initial_distance_sq(traj: "Trajectory", z_star: problems.KktPoint) -> float:
    """d0 = ||z* - z0||^2_M for the trajectory's initial point."""
    return metric_for(traj).seminorm_sq(z_row(traj.instance, z_star) - traj.Z[0])


# ---------------------------------------------------------------------------
# report rows


@dataclass
class ReportRow:
    """One named check lhs <= rhs + tol at the iterations ``ks``: the three
    arrays, the worst slack and the first iteration where the check failed
    (None if it never did).  Built by :func:`check`."""

    name: str
    ks: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tol: np.ndarray
    tolerance: str
    passed: bool
    worst_slack: float
    worst_k: Optional[int]
    first_k: Optional[int]
    note: str = ""

    def to_dict(self) -> dict:
        """The row as strict JSON, with lhs, rhs and tol at ``worst_k``; a
        non-finite number is written as null."""
        lhs = rhs = tol = math.nan
        if self.worst_k is not None:
            at = int(np.searchsorted(self.ks, self.worst_k))
            lhs, rhs, tol = float(self.lhs[at]), float(self.rhs[at]), float(self.tol[at])
        finite = math.isfinite(self.worst_slack)
        return {
            "name": self.name,
            "pass": self.passed,
            "worst_slack": self.worst_slack if finite else None,
            "worst_k": self.worst_k,
            "first_k": self.first_k,
            "lhs": lhs if math.isfinite(lhs) else None,
            "rhs": rhs if math.isfinite(rhs) else None,
            "tol": tol if math.isfinite(tol) else None,
            "tolerance": self.tolerance,
            "note": self.note or ("" if finite else "non-finite slack"),
        }


def check(name, ks, lhs, rhs, tol, tolerance, note="") -> ReportRow:
    """The report row of lhs <= rhs + tol at the iterations ``ks``; rhs and
    tol may be scalars.

    The slack rhs + tol - lhs decides the row: it fails at every k where
    the slack is negative or NaN.  ``worst_slack`` is the exact minimum;
    ``worst_k`` is the first k within :data:`WORST_K_BAND` of it (the argmin
    when the minimum is not finite).
    """
    lhs, rhs, tol = (np.asarray(v, dtype=float) for v in (lhs, rhs, tol))
    # a scalar rhs or tol is repeated over k (np.broadcast_arrays costs more than the check)
    rhs, tol = (v if v.shape else np.zeros(lhs.shape) + v for v in (rhs, tol))
    ks = np.asarray(ks, dtype=int)
    slack = rhs + tol - lhs
    if slack.size == 0:
        return ReportRow(name, ks, lhs, rhs, tol, tolerance, True, math.inf, None, None,
                         note or "no iterations")
    worst = int(np.argmin(slack))
    low = float(slack[worst])
    if math.isfinite(low):
        worst = int(np.argmax(slack <= low + WORST_K_BAND * (1.0 + abs(low))))
    bad = np.flatnonzero(~(slack >= 0.0))
    first_k = int(ks[bad[0]]) if bad.size else None
    return ReportRow(
        name, ks, lhs, rhs, tol, tolerance, first_k is None, low, int(ks[worst]), first_k, note
    )


def not_applicable(name) -> ReportRow:
    return check(name, [], [], [], [], "-", "not-applicable at alpha=2")


def gap_note(gaps) -> str:
    return "conjugate outside its domain" if np.isinf(gaps).any() else ""


# ---------------------------------------------------------------------------
# the shared replay


class Replay:
    """One pass over a recorded trajectory against a reference point z*.

    Built once per verification: it checks z* unless it is the instance's
    stored solution (checked when the instance was built), takes M from the
    trajectory, refuses a d0 that overflows (:class:`ConfigError`), and
    evaluates as arrays over k = 1..K (row k-1) the multipliers
    gamma_tilde_k (:func:`gamma_tilde`), the steps, the budgets
    eta_0..eta_K, the extragradient gaps, M dz_k and the step norms, the
    inclusion's block rows read off M dz_k (the subgradient rows of both
    subproblems and the constraint-identity residual rows), the inclusion
    gaps and the residual norms, each in one product per block of M.
    """

    def __init__(self, traj: "Trajectory", z_star: problems.KktPoint):
        inst = traj.instance
        gap = 0.0 if z_star is inst.solution else problems.kkt_gap(inst, z_star)
        if not gap <= problems.SOLUTION_GAP_TOL:
            raise ValueError(f"reference point fails the optimality check (gap {gap:.3e})")
        self.traj, self.z_star = traj, z_star
        self.alpha, self.beta = traj.params.alpha, traj.params.beta
        self.sigma = sigma_alpha(self.alpha)
        self.metric = metric_for(traj)
        with np.errstate(over="ignore", invalid="ignore"):
            self.d0 = initial_distance_sq(traj, z_star)
        if not math.isfinite(self.d0):
            raise ConfigError(f"d0 = ||z* - z0||^2_M overflows ({self.d0!r}): too far to certify")
        self.K = traj.iterations
        self.ks = np.arange(1, self.K + 1)
        n, p = inst.n, inst.p
        self.Z, self.X, self.Y = traj.Z, traj.X, traj.Y
        self.Gt = gamma_tilde(inst, self.Z, self.beta)
        DZ = np.diff(self.Z, axis=0)
        self.DX, self.DY, self.DG = DZ[:, :n], DZ[:, n : n + p], DZ[:, n + p :]
        self.Ztil = np.hstack([self.Z[1:, : n + p], self.Gt])
        self.dy_sq = linalg.seminorm_sq(traj.h2, self.DY) if traj.h2.any() else np.zeros(self.K)
        self.eta = eta_sequence(self)
        self.egaps = extragradient_gaps_sq(self)
        self.MDZ = self.metric.apply(DZ)
        self.step_norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", DZ, self.MDZ), 0.0))
        self.BDY = self.DY @ inst.B.T
        # the exact subgradients produced by the two subproblems
        self.Vf = self.Gt @ inst.A - self.MDZ[:, :n]
        self.Vg = self.Gt @ inst.B - self.MDZ[:, n : n + p]
        self.gap_f, self.gap_g, self.resid = inclusion_residuals(self)
        self.cons = np.sqrt(np.vecdot(self.resid, self.resid))


def eta_sequence(rep: Replay) -> np.ndarray:
    """Error budgets eta_0..eta_K."""
    coef = (2.0 - rep.alpha) * rep.sigma / rep.alpha
    return np.concatenate([[4.0 * coef * rep.d0], coef * rep.dy_sq])


def extragradient_gaps_sq(rep: Replay) -> np.ndarray:
    """||z~_k - z_{k-1}||^2_M for k = 1..K."""
    return rep.metric.seminorm_sq(rep.Ztil - rep.Z[:-1])


def rho_sequence(rep: Replay) -> np.ndarray:
    """Running maximum rho_k = max_{i<=k} ||z~_i - z_{i-1}||^2_M (k = 1..K)."""
    return np.maximum.accumulate(rep.egaps)


def inclusion_residuals(rep: Replay) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block residuals of M(z_{k-1} - z_k) in T(z~_k), one entry or row per k,
    with (u, v, w) the x, y and gamma blocks of M dz_k:

    - conjugate gap of A'gamma_tilde - u at x (must vanish),
    - conjugate gap of B'gamma_tilde - v at y (must vanish),
    - the row w + Ax + By - b, whose norm must vanish.
    """
    inst = rep.traj.instance
    X, Y = rep.X[1:], rep.Y[1:]
    gap_f = oracles.fenchel_gap(inst.f, rep.Vf, X)
    gap_g = oracles.fenchel_gap(inst.g, rep.Vg, Y)
    return gap_f, gap_g, rep.MDZ[:, inst.n + inst.p :] + X @ inst.A.T + Y @ inst.B.T - inst.b


# ---------------------------------------------------------------------------
# the checks


REL = f"{CERT_REL_TOL:g} relative"


def certify_hpe(rep: Replay) -> list:
    """The rows of the per-iteration conditions at every k >= 1: the
    relative-error inequality, the two inclusions and the two identities."""
    ks, G = rep.ks, rep.traj.G
    lhs = rep.metric.seminorm_sq(rep.Ztil - rep.Z[1:]) + rep.eta[1:]
    rhs = rep.sigma * rep.egaps + rep.eta[:-1]
    mult = rep.Gt - G[:-1] - (rep.DG + rep.beta * rep.BDY) / rep.alpha
    biggest = [np.abs(a).max(axis=1, initial=0.0) for a in (rep.Gt, G[1:], G[:-1])]
    id_tol = IDENTITY_TOL * (1.0 + np.maximum.reduce(biggest))
    gap_tol, ident = f"{INCLUSION_GAP_TOL:g}", f"{IDENTITY_TOL:g} scaled"
    return [
        check("hpe_inequality", ks, lhs, rhs, cert_tol(lhs, rhs), REL),
        check("hpe_inclusion_f", ks, rep.gap_f, 0.0, INCLUSION_GAP_TOL, gap_tol,
              gap_note(rep.gap_f)),
        check("hpe_inclusion_g", ks, rep.gap_g, 0.0, INCLUSION_GAP_TOL, gap_tol,
              gap_note(rep.gap_g)),
        check("multiplier_identity", ks, np.sqrt(np.vecdot(mult, mult)), 0.0, id_tol, ident),
        check("constraint_identity", ks, rep.cons, 0.0, id_tol, ident),
    ]


def _bound_row(name, rep, bound) -> ReportRow:
    rho = rho_sequence(rep)
    return check(name, rep.ks, rho, bound, cert_tol(bound, rho), REL, f"bound={bound:.6g}")


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
    return check("delta_y_gamma_inequality", rep.ks, lower, inner, cert_tol(inner, lower), REL)


def check_fejer(rep: Replay) -> ReportRow:
    """Monotonicity of ||z* - z_k||^2_M + eta_k along the run."""
    dist = rep.metric.seminorm_sq(z_row(rep.traj.instance, rep.z_star) - rep.Z)
    vals = dist + rep.eta
    prev, cur = vals[:-1], vals[1:]
    return check("fejer_monotonicity", rep.ks, cur, prev, cert_tol(prev, cur), REL)

