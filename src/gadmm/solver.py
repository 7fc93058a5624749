"""The relaxed proximal ADMM iteration engine.

One iteration, for penalty beta > 0, relaxation factor alpha in (0, 2]
and symmetric PSD proximal weights H1, H2, solves one subproblem per
block u, with function F, operator Op and weight H,

    u_k = argmin_u  F(u) - <gamma_{k-1}, Op u> + (beta/2)||Op u + s||^2
                    + (1/2)||u - u_{k-1}||^2_H,

first the x-block (f, A, H1) with s = B y_{k-1} - b, then the y-block
(g, B, H2) with s = alpha(A x_k + B y_{k-1} - b) - B y_{k-1}: alpha enters
only through the y-block's shift.  Then

    gamma_k = gamma_{k-1} - beta[alpha(A x_k + B y_{k-1} - b) + B(y_k - y_{k-1})].

The multiplier gamma_tilde_k = gamma_{k-1} - beta(A x_k + B y_{k-1} - b),
at which both subproblems' optimality inclusions hold, is a function of
rows k-1 and k (:func:`hpe.gamma_tilde`), not an output of the engine.
With alpha = 1 and H1 = H2 = 0 this is the standard two-block ADMM.

A quadratic or zero F with a zero or explicit H is solved directly, from
the factored matrix P + beta*Op'Op + H.  The linearized mode picks
H = tau*I - beta*Op'Op, which cancels the quadratic coupling and reduces
the subproblem to one proximal step of F at the residual r = Op u_{k-1} + s,

    u_k = prox_{F/tau}( u_{k-1} + (1/tau) Op'(gamma_{k-1} - beta*r) ),

with r = A x_{k-1} + B y_{k-1} - b for x and r = alpha(A x_k + B y_{k-1} - b)
for y, requiring tau >= beta*||Op||^2 so that H stays PSD.

The engine does not set up and solve a subproblem on every iteration.
Each block's minimizer is u_k = phi(v) at the pre-prox point

    v = Gu u_{k-1} + Gg (gamma_{k-1} - beta*s) + g0,

with Gu, Gg and g0 fixed for the run.  A direct block has Gu = K^-1 H,
Gg = K^-1 Op' and g0 = -K^-1 q for K = P + beta*Op'Op + H, and phi is the
identity.  A linearized block has Gu = H/tau, Gg = Op'/tau, g0 = 0 and
phi = prox_{F/tau}.  For a quadratic or zero F that prox,
(tP + I)^-1 (. - tq) with t = 1/tau, is affine and is folded into Gu, Gg
and g0, so only an l1 block keeps a separate prox: the soft threshold.
Both shifts are affine in the vectors the loop carries, so one iteration
is two affine stages, each one matrix product, plus the prox:

    x_k = phi_x( T1 u1 ),          u1 = [x_{k-1}; B y_{k-1}; gamma_{k-1}; 1],
    [v_y; gbar_k] = T2 u2,         u2 = [y_{k-1}; A x_k; B y_{k-1}; gamma_{k-1}; 1],
    y_k = phi_y(v_y),   gamma_k = gbar_k - beta B y_k,

where gbar_k = gamma_{k-1} - beta*s is the y-block's argument of Gg, and
x_{k-1} (y_{k-1}) is an input only when H1 (H2) has a nonzero entry.  The
iterates equal the subproblems' minimizers up to rounding.

The loop allocates nothing per step: u1 and u2 are allocated once and
refilled from row k-1 of the record, and each stage writes into row k or
into u2's slots for A x_k and B y_k (read next step as B y_{k-1}).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import hpe, linalg, oracles, problems, records
from .errors import ConfigError, DivergenceError, NotPositiveDefiniteError

# Auto mode picks tau = AUTO_TAU_MARGIN * beta * ||Op||^2, strictly above
# the PSD threshold so H = tau*I - beta*Op'Op is positive definite.
AUTO_TAU_MARGIN = 1.01

_FIRST_ROWS = 1024  # rows of the record before it first doubles (see run)


@dataclass(frozen=True)
class ZeroH:
    """No proximal weight (H = 0)."""


@dataclass(frozen=True)
class ExplicitH:
    """A user-supplied symmetric PSD proximal weight; any other matrix
    raises ValueError."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = linalg.as_matrix(self.matrix, name="H").copy()
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"H must be square, got shape {mat.shape}")
        if not linalg.is_psd(mat):
            kind = "positive semidefinite" if linalg.is_symmetric(mat) else "symmetric"
            raise ValueError(f"H is not {kind}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class LinearizedH:
    """H = tau*I - beta*Op'Op; tau=None resolves to a margin above beta*||Op||^2."""

    tau: Optional[float] = None


HMode = Union[ZeroH, ExplicitH, LinearizedH]


@dataclass(frozen=True)
class GadmmParams:
    """Algorithm configuration.

    ``stop_tol`` > 0 stops :func:`run` at the first k where every term of
    the stopping rule is <= ``stop_tol``: the constraint residual, then the
    step M-seminorm, then the first-order gap (see :func:`run`).
    ``stop_tol`` = 0 disables the rule and always runs the full
    ``max_iter`` iterations (useful when exercising the bounds).
    """

    beta: float
    alpha: float = 1.0
    h1: HMode = field(default_factory=ZeroH)
    h2: HMode = field(default_factory=ZeroH)
    max_iter: int = 1000
    stop_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "stop_tol", float(self.stop_tol))
        if not 0 < self.beta < math.inf:
            raise ConfigError(f"beta must be positive and finite, got {self.beta!r}")
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigError(f"alpha must lie in (0, 2], got {self.alpha!r}")
        if not isinstance(self.max_iter, int) or self.max_iter < 0:
            raise ConfigError("max_iter must be a nonnegative integer")
        if not self.stop_tol >= 0:
            raise ConfigError("stop_tol must be nonnegative")
        for name, mode in (("h1", self.h1), ("h2", self.h2)):
            if not isinstance(mode, (ZeroH, ExplicitH, LinearizedH)):
                raise ConfigError(f"{name} must be ZeroH, ExplicitH or LinearizedH")
            tau = mode.tau if isinstance(mode, LinearizedH) else None
            if tau is not None and not 0 < tau < math.inf:
                raise ConfigError(f"{name}: tau must be positive and finite, got {tau!r}")


@dataclass
class Trajectory:
    """A recorded run: the instance, the configuration, the resolved
    proximal weights, and the iterates stored once, as rows.

    Row k of ``Z`` holds z_k = (x_k, y_k, gamma_k) for k = 0..K, written
    there by :func:`run` as it computes it, and Z is made read-only; ``X``,
    ``Y``, ``G`` are views of Z's column blocks.  Steps are row differences.
    The multipliers gamma_tilde_k (``Gt``), the proximal metric M and
    ``final_terms`` are derived on first use and kept.
    """

    instance: problems.SeparableInstance
    params: GadmmParams
    h1: np.ndarray
    h2: np.ndarray
    Z: np.ndarray
    _metric: Optional[hpe.ProximalMetric] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.Z.setflags(write=False)  # what is derived from it is kept

    @property
    def X(self) -> np.ndarray:
        return self.Z[:, : self.instance.n]

    @property
    def Y(self) -> np.ndarray:
        return self.Z[:, self.instance.n : self.instance.n + self.instance.p]

    @property
    def G(self) -> np.ndarray:
        return self.Z[:, self.instance.n + self.instance.p :]

    @property
    def iterations(self) -> int:
        return self.Z.shape[0] - 1

    @property
    def metric(self) -> hpe.ProximalMetric:
        if self._metric is None:
            self._metric = hpe.build_metric(
                self.instance, self.h1, self.h2, self.params.beta, self.params.alpha
            )
        return self._metric

    @functools.cached_property
    def Gt(self) -> np.ndarray:
        """gamma_tilde_k for k = 1..K (row k-1), :func:`hpe.gamma_tilde` of Z, read-only."""
        Gt = hpe.gamma_tilde(self.instance, self.Z, self.params.beta)
        Gt.setflags(write=False)
        return Gt

    @functools.cached_property
    def final_terms(self) -> tuple:
        """The three terms of :func:`stop_terms` at k = K; at K = 0, NaN and
        NaN, then the gap :func:`problems.kkt_gaps` at z_0.  Where the
        stopping rule fired, :func:`run` stores the loop's own terms here,
        so they are not computed again."""
        inst = self.instance
        with np.errstate(over="ignore", invalid="ignore"):  # huge finite iterates: inf
            if self.iterations == 0:
                gap = problems.kkt_gaps(inst, self.X[0], self.Y[0], self.G[0])
                return math.nan, math.nan, float(gap)
            return tuple(stop_terms(inst, self.metric, self.params.beta, self.Z[-2:]))

    @property
    def stopped_early(self) -> bool:
        """Whether every term of the stopping rule at ``params.stop_tol``
        holds at the last step (``final_terms``): for a run, whether the
        rule fired; False at stop_tol = 0 and at K = 0."""
        tol = self.params.stop_tol
        return tol > 0 and all(t <= tol for t in self.final_terms)


def _resolve_h(mode: HMode, op: np.ndarray, beta: float, dim: int, name: str):
    """Return (H, tau) for one block; tau is None unless linearized."""
    if isinstance(mode, ZeroH):
        return np.zeros((dim, dim)), None
    if isinstance(mode, ExplicitH):
        return linalg.as_matrix(mode.matrix, rows=dim, cols=dim, name=name), None
    gram_norm = linalg.spectral_norm_sq(op)
    tau = mode.tau if mode.tau is not None else AUTO_TAU_MARGIN * beta * gram_norm
    if not tau > 0:
        raise ConfigError(f"{name}: resolved tau must be positive (operator block is zero?)")
    if tau < beta * gram_norm * (1.0 - 1e-12):
        raise ConfigError(
            f"{name}: tau={tau:g} is below beta*||Op||^2={beta * gram_norm:g}; "
            "the linearized proximal weight would not be PSD"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        H = tau * np.eye(dim) - beta * (op.T @ op)
    if not (math.isfinite(1.0 / tau) and np.isfinite(H).all()):
        raise ConfigError(
            f"{name}: tau={tau!r} at beta={beta!r} is out of range: "
            "tau*I - beta*Op'Op and the prox step 1/tau must be finite"
        )
    return H, tau


def resolve_prox_terms(inst, params) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the two proximal-weight modes into concrete matrices."""
    h1, _ = _resolve_h(params.h1, inst.A, params.beta, inst.n, "h1")
    h2, _ = _resolve_h(params.h2, inst.B, params.beta, inst.p, "h2")
    return h1, h2


def _pre_prox(F, op, resolved, beta: float, block: str):
    """One block's subproblem (see the module docstring) as its pre-prox map
    v = Gu u_prev + Gg (gamma_prev - beta*s) + g0 and the threshold ``thr``
    of an l1 F's prox, None for the identity.  ``Gu`` is None when H has no
    nonzero entry, so an all-zero explicit H builds the same map as zero H."""
    H, tau = resolved  # from _resolve_h
    dim = op.shape[1]
    fac, thr = None, None
    if tau is None:
        parts = problems.quadratic_parts(F, dim)
        if parts is None:
            raise ConfigError(f"{block} block: a nonsmooth objective requires the linearized mode")
        P, q = parts
        scale = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            K = P + beta * (op.T @ op) + H
        name = f"{block}-subproblem matrix P + beta*Op'Op + H"
        if not np.isfinite(K).all():
            raise ConfigError(f"{name} overflows at beta={beta!r}")
        try:
            fac = linalg.SpdFactor(K, name=f"{name} at beta={beta!r}")
        except NotPositiveDefiniteError:
            with contextlib.suppress(NotPositiveDefiniteError):  # P + H singular too: exit 2
                linalg.SpdFactor(P + H)
                msg = f"{name} at beta={beta!r} is not positive definite"
                raise ConfigError(f"{msg}: beta*Op'Op swamps P + H") from None
            raise
    else:
        # the prox point's argument u_prev + Op'(gamma_prev - beta*r)/tau,
        # r = Op u_prev + s, is H u_prev/tau + Op'(gamma_prev - beta*s)/tau
        scale, q = 1.0 / tau, np.zeros(dim)
        try:
            with np.errstate(over="ignore"):  # a huge step overflows tP + I
                if isinstance(F, oracles.Quadratic):
                    # prox(v) = (tP + I)^-1 (v - tq) is affine: fold it in
                    q, fac = F.q, linalg.SpdFactor(scale * F.P + np.eye(dim))
                elif isinstance(F, oracles.L1):
                    thr = scale * F.mu  # prox_{F/tau} is soft_threshold(., thr)
        except ValueError as exc:
            name = "h1" if block == "x" else "h2"
            raise ConfigError(f"{name}: tau={tau!r} at beta={beta!r}: {exc}") from exc
    solve = (lambda a: a) if fac is None else fac.solve
    Gu = solve(H * scale) if H.any() else None
    return Gu, solve(op.T * scale), solve(q * -scale), thr


class _Engine:
    """Per-run state: the two stage maps of one iteration and their inputs
    u1 and u2 (see the module docstring), whose trailing 1 applies each
    map's constant term, allocated once and refilled by :meth:`fill`."""

    def __init__(self, inst: problems.SeparableInstance, params: GadmmParams):
        self.inst = inst
        beta, alpha = params.beta, params.alpha
        # both weights resolve before either block sets up, so a bad mode
        # (exit 1) is reported ahead of a matrix that fails to factor (exit 2)
        h1 = _resolve_h(params.h1, inst.A, beta, inst.n, "h1")
        h2 = _resolve_h(params.h2, inst.B, beta, inst.p, "h2")
        self.h1, self.h2 = h1[0], h2[0]
        Gu1, Gg1, g01, self._thr_x = _pre_prox(inst.f, inst.A, h1, beta, "x")
        Gu2, Gg2, g02, self._thr_y = _pre_prox(inst.g, inst.B, h2, beta, "y")
        self._x_in, self._y_in = Gu1 is not None, Gu2 is not None
        n, p, m = inst.n, inst.p, inst.m
        hx, hy = n * self._x_in, p * self._y_in
        b, eye = inst.b[:, None], np.eye(m)
        ba, bc = beta * alpha, beta * (1.0 - alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            # columns: x_{k-1} (if Gu1), B y_{k-1}, gamma_{k-1}, 1
            T1 = np.hstack([Gu1] * self._x_in + [-beta * Gg1, Gg1, g01[:, None] + beta * (Gg1 @ b)])
            # rows: v_y, gbar_k; columns: y_{k-1} (if Gu2), A x_k,
            # B y_{k-1}, gamma_{k-1}, 1
            T2 = np.empty((p + m, hy + 3 * m + 1))
            if self._y_in:
                T2[:p, :hy], T2[p:, :hy] = Gu2, 0.0
            T2[:p, hy : hy + m], T2[p:, hy : hy + m] = -ba * Gg2, -ba * eye
            T2[:p, hy + m : hy + 2 * m], T2[p:, hy + m : hy + 2 * m] = bc * Gg2, bc * eye
            T2[:p, hy + 2 * m : -1], T2[p:, hy + 2 * m : -1] = Gg2, eye
            T2[:p, -1:], T2[p:, -1:] = g02[:, None] + Gg2 @ (ba * b), ba * b
        if not np.isfinite(T1).all():
            raise ConfigError(f"x-block stage map overflows at beta={beta!r}")
        if not np.isfinite(T2).all():
            raise ConfigError(f"y-block stage map overflows at alpha={alpha!r}, beta={beta!r}")
        self._T1, self._T2 = T1, T2
        self._u1, self._u2 = np.ones(hx + 2 * m + 1), np.ones(hy + 3 * m + 1)
        self.Ax, self.By, self._gamma = np.split(self._u2[hy:-1], 3)
        self._tail1, self._tail2 = self._u1[hx:], self._u2[hy + m :]  # [B y; gamma; 1]
        self._beta = np.array(beta)  # 0-d: a float operand is converted on every call
        self._cuts = n, n + p
        self._resid = np.empty(m)

    def fill(self, Z, k):
        """Write z_k into row k of Z from row k-1 and from B y_{k-1} in u2's
        slot ``By``, which it leaves holding B y_k; the slot ``Ax`` holds
        A x_k."""
        n, p = self._cuts
        prev, row = Z[k - 1], Z[k]
        self._gamma[...] = prev[p:]
        self._tail1[...] = self._tail2
        if self._x_in:
            self._u1[:n] = prev[:n]
        if self._y_in:
            self._u2[: p - n] = prev[n:p]
        x, y, gamma = row[:n], row[n:p], row[p:]
        np.dot(self._T1, self._u1, out=x)
        if self._thr_x is not None:
            oracles.soft_threshold(x, self._thr_x, out=x)
        np.dot(self.inst.A, x, out=self.Ax)
        np.dot(self._T2, self._u2, out=row[n:])  # [v_y; gbar_k]
        if self._thr_y is not None:
            oracles.soft_threshold(y, self._thr_y, out=y)
        np.dot(self.inst.B, y, out=self.By)
        gamma -= self._beta * self.By

    def residual(self) -> float:
        """||A x_k + B y_k - b|| from the products A x_k and B y_k that
        :meth:`fill` left in u2: the bits of
        :func:`problems.constraint_residual` at (x_k, y_k)."""
        resid = np.add(self.Ax, self.By, out=self._resid)
        resid -= self.inst.b
        return math.sqrt(np.vecdot(resid, resid))


def stop_terms(inst, metric, beta, rows):
    """The terms of the stopping rule of :func:`run` at one step, in the
    order it checks them, each computed only when the consumer asks for it.

    ``rows`` is z_{k-1} and z_k, two rows of a record.  The residual is
    computed by the code that computes the same term inside the gap's max,
    so checking it first never changes which k stops the run.  The gap's
    gamma_tilde_k is :func:`hpe.gamma_tilde` of the two rows.  :func:`run`
    calls it only at the k where its own residual, from the engine's
    products, holds.
    """
    n, p = inst.n, inst.n + inst.p
    new = rows[1]
    yield problems.constraint_residual(inst, new[:n], new[n:p])
    yield math.sqrt(metric.seminorm_sq(new - rows[0]))
    yield float(problems.kkt_gaps(inst, new[:n], new[n:p], hpe.gamma_tilde(inst, rows, beta)[0]))


def _first_nonfinite(traj: Trajectory) -> Optional[int]:
    """The first k whose row z_k, or whose gamma_tilde_k (k >= 1), has a
    non-finite entry; None if there is none."""
    bad = ~np.isfinite(traj.Z).all(axis=1)
    bad[1:] |= ~np.isfinite(traj.Gt).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def run(inst, params, x0=None, y0=None, gamma0=None) -> Trajectory:
    """Iterate from (x0, y0, gamma0), zeros by default, until max_iter or
    until the stopping rule fires.

    The stopping rule (when stop_tol > 0) stops at the first k where each
    of the terms of :func:`stop_terms` is <= stop_tol, in this order:
      1. the constraint residual ||A x_k + B y_k - b||;
      2. the step seminorm ||(dx_k, dy_k, dgamma_k)||_M, the certified
         pointwise residual;
      3. the first-order gap :func:`problems.kkt_gaps` at
         (x_k, y_k, gamma_tilde_k), the point where the subproblem
         inclusions hold (its max includes term 1).
    A later term is computed only when the earlier ones hold, and a NaN
    term never stops the run.  Term 1 is first taken, at every k, from the
    products A x_k and B y_k that the engine has just formed, which gives
    the bits of :func:`problems.constraint_residual`; :func:`stop_terms`
    runs only at the k where it holds.  Where the rule fires, its three
    terms become the trajectory's ``final_terms``, which ``stopped_early``
    compares with stop_tol again.

    The engine writes each z_k into row k of the record Z
    (:meth:`_Engine.fill`), where the stopping rule reads it.  Z starts with
    min(max_iter, _FIRST_ROWS) + 1 rows, doubles when full, up to
    max_iter + 1, and is trimmed to K + 1 rows: its memory follows K.

    Neither the steps nor the stopping rule check their data: a non-finite
    iterate does not stop the loop, and floating-point warnings are
    silenced inside it.  After the loop, one scan of the recorded rows
    raises :class:`DivergenceError` naming the first k whose x, y, gamma,
    or gamma_tilde derived from them (``Gt``), has a non-finite entry, so a
    run that diverges is reported once it reaches max_iter.
    """
    eng = _Engine(inst, params)
    x, y, gamma = (
        np.zeros(d) if v is None else linalg.as_vector(v, dim=d, name=name)
        for v, d, name in ((x0, inst.n, "x0"), (y0, inst.p, "y0"), (gamma0, inst.m, "gamma0"))
    )
    tol, max_iter = params.stop_tol, params.max_iter
    metric = hpe.build_metric(inst, eng.h1, eng.h2, params.beta, params.alpha) if tol > 0 else None
    Z = np.empty((min(max_iter, _FIRST_ROWS) + 1, inst.n + inst.p + inst.m))
    Z[0] = np.concatenate([x, y, gamma])
    eng.By[...] = inst.B @ y
    k, held = 0, ()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            if k == len(Z):  # full: double, up to max_iter + 1 rows
                Z = np.concatenate([Z, np.empty((min(k, max_iter + 1 - k), Z.shape[1]))])
            eng.fill(Z, k)
            if metric is not None and eng.residual() <= tol:  # term 1; NaN fails
                terms = stop_terms(inst, metric, params.beta, Z[k - 1 : k + 1])
                held = tuple(itertools.takewhile(lambda t: t <= tol, terms))
                if len(held) == 3:
                    break
    Z = Z if k + 1 == len(Z) else Z[: k + 1].copy()
    traj = Trajectory(inst, params, eng.h1, eng.h2, Z, _metric=metric)
    if len(held) == 3:  # the rule fired at K: its terms are the final ones
        traj.final_terms = held
    k = _first_nonfinite(traj)
    if k is not None:
        raise DivergenceError(f"iteration diverged: iterate k={k} has non-finite entries", k=k)
    return traj


# ---------------------------------------------------------------------------
# trajectory files (CSV)


def trajectory_header(inst) -> list[str]:
    blocks = (("x", inst.n), ("y", inst.p), ("gamma", inst.m))
    return ["k", *(f"{name}{i}" for name, dim in blocks for i in range(dim))]


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the header k, x0.., y0.., gamma0.., then one row per iteration:
    k and z_k, every float as its shortest ``repr`` or with 17 significant
    digits, both of which read back bit for bit, by
    :func:`records.write_csv`."""
    records.write_csv(path, trajectory_header(traj.instance), traj.Z)


def load_trajectory_csv(path, inst, params) -> Trajectory:
    """Rebuild a trajectory from a CSV written by :func:`save_trajectory_csv`
    (a path or a :class:`records.TrajectoryText`, read by
    :func:`records.read_csv`): the rows z_0..z_K, bit for bit, from which the
    certificate checks derive everything else.  After every row has parsed
    and the proximal weights have resolved, the first file row with a
    non-finite x, y or gamma cell, or whose gamma_tilde (``Gt``) overflows,
    raises :class:`ValueError`."""
    Z = records.read_csv(path, trajectory_header(inst))
    traj = Trajectory(inst, params, *resolve_prox_terms(inst, params), Z)
    k = _first_nonfinite(traj)
    if k is not None:
        raise ValueError(f"trajectory file: non-finite iterate value in row {k + 2}")
    return traj
