"""The relaxed proximal ADMM iteration engine.

One iteration, for penalty beta > 0, relaxation factor alpha in (0, 2]
and symmetric PSD proximal weights H1, H2:

    x_k = argmin_x  f(x) - <gamma_{k-1}, Ax> + (beta/2)||Ax + B y_{k-1} - b||^2
                    + (1/2)||x - x_{k-1}||^2_{H1}

    y_k = argmin_y  g(y) - <gamma_{k-1}, By>
                    + (beta/2)||alpha(A x_k + B y_{k-1} - b) + B(y - y_{k-1})||^2
                    + (1/2)||y - y_{k-1}||^2_{H2}

    gamma_k = gamma_{k-1} - beta[alpha(A x_k + B y_{k-1} - b) + B(y_k - y_{k-1})]

together with the intermediate multiplier

    gamma_tilde_k = gamma_{k-1} - beta(A x_k + B y_{k-1} - b),

the point at which both subproblems' optimality inclusions hold.  With
alpha = 1 and H1 = H2 = 0 this is the standard two-block ADMM.

The linearized mode picks H = tau*I - beta*Op'Op (Op the block's
constraint matrix), which cancels the quadratic coupling and reduces the
subproblem to a single proximal step of the block function:

    x_k = prox_{f/tau1}( x_{k-1} + (1/tau1) A'(gamma_{k-1}
                          - beta(A x_{k-1} + B y_{k-1} - b)) )
    y_k = prox_{g/tau2}( y_{k-1} + (1/tau2) B'(gamma_{k-1}
                          - alpha*beta(A x_k + B y_{k-1} - b)) )

requiring tau >= beta*||Op||^2 so that H stays PSD.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import hpe, linalg, problems
from .errors import ConfigError, DivergenceError

# Auto mode picks tau = AUTO_TAU_MARGIN * beta * ||Op||^2, strictly above
# the PSD threshold so H = tau*I - beta*Op'Op is positive definite.
AUTO_TAU_MARGIN = 1.01


@dataclass(frozen=True)
class ZeroH:
    """No proximal weight (H = 0)."""


@dataclass(frozen=True)
class ExplicitH:
    """A user-supplied symmetric PSD proximal weight."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = linalg.as_matrix(self.matrix, name="H").copy()
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
        if not self.beta > 0:
            raise ConfigError("beta must be positive")
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigError("alpha must lie in (0, 2]")
        if not isinstance(self.max_iter, int) or self.max_iter < 0:
            raise ConfigError("max_iter must be a nonnegative integer")
        if not self.stop_tol >= 0:
            raise ConfigError("stop_tol must be nonnegative")
        for name, mode in (("h1", self.h1), ("h2", self.h2)):
            if not isinstance(mode, (ZeroH, ExplicitH, LinearizedH)):
                raise ConfigError(f"{name} must be ZeroH, ExplicitH or LinearizedH")
            if isinstance(mode, LinearizedH) and mode.tau is not None and not mode.tau > 0:
                raise ConfigError(f"{name}: tau must be positive")


@dataclass(frozen=True)
class IterateState:
    """One iterate, as returned by :func:`step` and :meth:`Trajectory.state`.
    Deltas and the intermediate multiplier are absent at k = 0."""

    k: int
    x: np.ndarray
    y: np.ndarray
    gamma: np.ndarray
    gamma_tilde: Optional[np.ndarray] = None
    dx: Optional[np.ndarray] = None
    dy: Optional[np.ndarray] = None
    dgamma: Optional[np.ndarray] = None


@dataclass
class Trajectory:
    """A recorded run: the instance, the configuration, the resolved
    proximal weights, and the iterates stored as columns.

    Row k of ``X``, ``Y``, ``G`` holds x_k, y_k, gamma_k for k = 0..K, and
    row k-1 of ``Gt`` holds gamma_tilde_k for k = 1..K.  Steps are row
    differences of these arrays and are not stored.  The proximal metric M
    is built on first use and kept.
    """

    instance: problems.SeparableInstance
    params: GadmmParams
    h1: np.ndarray
    h2: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    G: np.ndarray
    Gt: np.ndarray
    _metric: Optional[hpe.ProximalMetric] = field(default=None, repr=False, compare=False)

    @property
    def iterations(self) -> int:
        return self.X.shape[0] - 1

    @property
    def metric(self) -> hpe.ProximalMetric:
        if self._metric is None:
            self._metric = hpe.build_metric(
                self.instance, self.h1, self.h2, self.params.beta, self.params.alpha
            )
        return self._metric

    def state(self, k: int) -> IterateState:
        if not 0 <= k <= self.iterations:
            raise IndexError(f"k={k} outside 0..{self.iterations}")
        x, y, gamma = self.X[k], self.Y[k], self.G[k]
        if k == 0:
            return IterateState(k=0, x=x, y=y, gamma=gamma)
        return IterateState(
            k=k,
            x=x,
            y=y,
            gamma=gamma,
            gamma_tilde=self.Gt[k - 1],
            dx=x - self.X[k - 1],
            dy=y - self.Y[k - 1],
            dgamma=gamma - self.G[k - 1],
        )

    @property
    def final(self) -> IterateState:
        return self.state(self.iterations)


def _resolve_h(mode: HMode, op: np.ndarray, beta: float, dim: int, name: str):
    """Return (H, tau) for one block; tau is None unless linearized."""
    if isinstance(mode, ZeroH):
        return np.zeros((dim, dim)), None
    if isinstance(mode, ExplicitH):
        mat = linalg.as_matrix(mode.matrix, rows=dim, cols=dim, name=name)
        try:
            linalg.PsdOperator.from_matrix(mat, name=name)
        except linalg.NotPositiveDefiniteError as exc:
            raise ConfigError(str(exc)) from exc
        return mat, None
    gram_norm = linalg.spectral_norm_sq(op)
    tau = mode.tau if mode.tau is not None else AUTO_TAU_MARGIN * beta * gram_norm
    if not tau > 0:
        raise ConfigError(f"{name}: resolved tau must be positive (operator block is zero?)")
    if tau < beta * gram_norm * (1.0 - 1e-12):
        raise ConfigError(
            f"{name}: tau={tau:g} is below beta*||Op||^2={beta * gram_norm:g}; "
            "the linearized proximal weight would not be PSD"
        )
    return tau * np.eye(dim) - beta * (op.T @ op), tau


def resolve_prox_terms(inst, params) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the two proximal-weight modes into concrete matrices."""
    h1, _ = _resolve_h(params.h1, inst.A, params.beta, inst.n, "h1")
    h2, _ = _resolve_h(params.h2, inst.B, params.beta, inst.p, "h2")
    return h1, h2


class _Engine:
    """Per-run state: resolved weights and prefactored subproblem solvers."""

    def __init__(self, inst: problems.SeparableInstance, params: GadmmParams):
        self.inst = inst
        self.params = params
        A, B = inst.A, inst.B
        beta, alpha = params.beta, params.alpha
        self.h1, self.tau1 = _resolve_h(params.h1, A, beta, inst.n, "h1")
        self.h2, self.tau2 = _resolve_h(params.h2, B, beta, inst.p, "h2")
        self._x_direct = self._direct_solver(inst.f, A, self.h1, params.h1, "x")
        self._y_direct = self._direct_solver(inst.g, B, self.h2, params.h2, "y")
        if self.tau1 is not None:
            self._x_prox = inst.f.prox_solver(1.0 / self.tau1)
        if self.tau2 is not None:
            self._y_prox = inst.g.prox_solver(1.0 / self.tau2)

    def _direct_solver(self, F, op, h, mode, block):
        if isinstance(mode, LinearizedH):
            return None
        parts = problems._quadratic_parts(F, op.shape[1])
        if parts is None:
            raise ConfigError(
                f"{block} block: a nonsmooth objective requires the linearized mode"
            )
        P, q = parts
        K = P + self.params.beta * (op.T @ op) + h
        return linalg.SpdFactor(K, name=f"{block}-subproblem matrix"), q

    def x_update(self, x_prev, y_prev, gamma_prev, By_prev=None):
        A, B, b = self.inst.A, self.inst.B, self.inst.b
        beta = self.params.beta
        if By_prev is None:
            By_prev = B @ y_prev
        if self._x_direct is not None:
            fac, q = self._x_direct
            rhs = A.T @ gamma_prev - q - beta * (A.T @ (By_prev - b))
            if not isinstance(self.params.h1, ZeroH):  # a zero H adds nothing
                rhs += self.h1 @ x_prev
            return fac.solve(rhs)
        tau = self.tau1
        resid = A @ x_prev + By_prev - b
        v = x_prev + (A.T @ (gamma_prev - beta * resid)) / tau
        return self._x_prox(v)

    def y_update(self, x_new, y_prev, gamma_prev, Ax_new=None, By_prev=None):
        A, B, b = self.inst.A, self.inst.B, self.inst.b
        beta, alpha = self.params.beta, self.params.alpha
        if Ax_new is None:
            Ax_new = A @ x_new
        if By_prev is None:
            By_prev = B @ y_prev
        relaxed = alpha * (Ax_new + By_prev - b)
        if self._y_direct is not None:
            fac, q = self._y_direct
            rhs = B.T @ gamma_prev - q - beta * (B.T @ (relaxed - By_prev))
            if not isinstance(self.params.h2, ZeroH):  # a zero H adds nothing
                rhs += self.h2 @ y_prev
            return fac.solve(rhs)
        v = y_prev + (B.T @ (gamma_prev - beta * relaxed)) / self.tau2
        return self._y_prox(v)

    def advance(self, x_prev, y_prev, gamma_prev, By_prev):
        """One iteration; returns (x_k, y_k, gamma_k, gamma_tilde_k, B y_k) so
        the caller can carry the product forward."""
        A, B, b = self.inst.A, self.inst.B, self.inst.b
        beta, alpha = self.params.beta, self.params.alpha
        x = self.x_update(x_prev, y_prev, gamma_prev, By_prev=By_prev)
        Ax = A @ x
        half_resid = Ax + By_prev - b
        y = self.y_update(x, y_prev, gamma_prev, Ax_new=Ax, By_prev=By_prev)
        By = B @ y
        gamma = gamma_prev - beta * (alpha * half_resid + (By - By_prev))
        gamma_tilde = gamma_prev - beta * half_resid
        return x, y, gamma, gamma_tilde, By


def solve_x_subproblem(inst, params, y_prev, x_prev, gamma_prev) -> np.ndarray:
    return _Engine(inst, params).x_update(
        linalg.as_vector(x_prev, dim=inst.n, name="x_prev"),
        linalg.as_vector(y_prev, dim=inst.p, name="y_prev"),
        linalg.as_vector(gamma_prev, dim=inst.m, name="gamma_prev"),
    )


def solve_y_subproblem(inst, params, x_new, y_prev, gamma_prev) -> np.ndarray:
    return _Engine(inst, params).y_update(
        linalg.as_vector(x_new, dim=inst.n, name="x_new"),
        linalg.as_vector(y_prev, dim=inst.p, name="y_prev"),
        linalg.as_vector(gamma_prev, dim=inst.m, name="gamma_prev"),
    )


def step(inst, params, state: IterateState) -> IterateState:
    """One iteration from an arbitrary state (resolves and factors per call;
    use :func:`run` for whole trajectories)."""
    x, y, gamma, gamma_tilde, _ = _Engine(inst, params).advance(
        state.x, state.y, state.gamma, inst.B @ state.y
    )
    return IterateState(
        k=state.k + 1,
        x=x,
        y=y,
        gamma=gamma,
        gamma_tilde=gamma_tilde,
        dx=x - state.x,
        dy=y - state.y,
        dgamma=gamma - state.gamma,
    )


def initial_state(inst, x0=None, y0=None, gamma0=None) -> IterateState:
    x0 = np.zeros(inst.n) if x0 is None else linalg.as_vector(x0, dim=inst.n, name="x0")
    y0 = np.zeros(inst.p) if y0 is None else linalg.as_vector(y0, dim=inst.p, name="y0")
    gamma0 = (
        np.zeros(inst.m) if gamma0 is None else linalg.as_vector(gamma0, dim=inst.m, name="gamma0")
    )
    return IterateState(k=0, x=x0, y=y0, gamma=gamma0)


def _stop_rule_holds(inst, metric, tol, prev, new, gamma_tilde) -> bool:
    """Every term of the stopping rule of :func:`run` is <= tol.

    The residual pre-test is computed by the code that computes the same
    term inside the gap's max, so the pre-tests never change which k stops
    the run.  A NaN term compares false and so never stops it.
    """
    x, y, gamma = new
    if not problems.constraint_residual(inst, x, y) <= tol:
        return False
    dz = np.concatenate([x - prev[0], y - prev[1], gamma - prev[2]])
    if not math.sqrt(linalg.seminorm_sq(metric.op, dz)) <= tol:
        return False
    return problems.kkt_gap(inst, problems.KktPoint(x, y, gamma_tilde)) <= tol


def run(inst, params, x0=None, y0=None, gamma0=None) -> Trajectory:
    """Iterate until max_iter or until the stopping rule fires.

    The stopping rule (when stop_tol > 0) stops at the first k where each
    of these terms is <= stop_tol, evaluated in this order:
      1. the constraint residual ||A x_k + B y_k - b||;
      2. the step seminorm ||(dx_k, dy_k, dgamma_k)||_M, the certified
         pointwise residual;
      3. the first-order gap :func:`problems.kkt_gap` at
         (x_k, y_k, gamma_tilde_k), the point where the subproblem
         inclusions hold (its max includes term 1).
    A later term is computed only when the earlier ones hold.  Raises
    :class:`DivergenceError` naming the first k whose x, y, gamma or
    gamma_tilde has a non-finite entry.
    """
    eng = _Engine(inst, params)
    start = initial_state(inst, x0, y0, gamma0)
    metric = None
    if params.stop_tol > 0:
        metric = hpe.build_metric(inst, eng.h1, eng.h2, params.beta, params.alpha)
    x, y, gamma = start.x, start.y, start.gamma
    xs, ys, gs, gts = [x], [y], [gamma], []
    By = inst.B @ y
    failure = None
    try:
        for _ in range(params.max_iter):
            x_new, y_new, gamma_new, gamma_tilde, By = eng.advance(x, y, gamma, By)
            xs.append(x_new)
            ys.append(y_new)
            gs.append(gamma_new)
            gts.append(gamma_tilde)
            if metric is not None and _stop_rule_holds(
                inst, metric, params.stop_tol, (x, y, gamma), (x_new, y_new, gamma_new), gamma_tilde
            ):
                break
            x, y, gamma = x_new, y_new, gamma_new
    except ValueError as exc:  # a subproblem or the stopping rule met non-finite data
        failure = exc
    X, Y, G = np.array(xs), np.array(ys), np.array(gs)
    Gt = np.array(gts).reshape(len(gts), inst.m)
    finite = np.isfinite(np.hstack([X[1:], Y[1:], G[1:], Gt])).all(axis=1)
    if failure is not None or not finite.all():
        # the first non-finite recorded iterate, else the step that failed
        k = int(np.argmin(finite)) + 1 if not finite.all() else len(gts) + 1
        raise DivergenceError(
            f"iteration diverged: iterate k={k} has non-finite entries", k=k
        ) from failure
    return Trajectory(
        instance=inst,
        params=params,
        h1=eng.h1,
        h2=eng.h2,
        X=X,
        Y=Y,
        G=G,
        Gt=Gt,
        _metric=metric,
    )


# ---------------------------------------------------------------------------
# trajectory files (CSV)


def trajectory_header(inst) -> list[str]:
    cols = ["k"]
    cols += [f"x{i}" for i in range(inst.n)]
    cols += [f"y{i}" for i in range(inst.p)]
    cols += [f"gamma{i}" for i in range(inst.m)]
    cols += [f"gamma_tilde{i}" for i in range(inst.m)]
    cols += ["dxM", "kkt_gap"]
    return cols


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one row per iteration: k, x, y, gamma, gamma_tilde, the
    M-seminorm of the step, and the first-order gap.  Floats are written
    with full round-trip precision."""
    inst = traj.instance
    X, Y, G, Gt = traj.X, traj.Y, traj.G, traj.Gt
    steps = np.hstack([np.diff(X, axis=0), np.diff(Y, axis=0), np.diff(G, axis=0)])
    dxm = np.vstack([[0.0], np.sqrt(traj.metric.seminorm_sq(steps))[:, None]])
    # the gap at (x_0, y_0, gamma_0), then at (x_k, y_k, gamma_tilde_k)
    gaps = problems.kkt_gaps(inst, X, Y, np.vstack([G[:1], Gt]))[:, None]
    table = np.hstack([X, Y, G, np.vstack([np.zeros((1, inst.m)), Gt]), dxm, gaps])
    blank = slice(inst.n + inst.p + inst.m, inst.n + inst.p + 2 * inst.m + 1)
    # No cell needs CSV quoting, so joining with "," and "\r\n" gives the
    # bytes csv.writer would.  Rows are formatted one at a time, which keeps
    # the memory held to one row of strings.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(trajectory_header(inst)) + "\r\n")
        for k, row in enumerate(table):
            cells = list(map(repr, row.tolist()))
            if k == 0:  # x_0, y_0, gamma_0 have no gamma_tilde or step
                cells[blank] = [""] * (inst.m + 1)
            fh.write(f"{k}," + ",".join(cells) + "\r\n")


def load_trajectory_csv(path, inst, params) -> Trajectory:
    """Rebuild a trajectory from a CSV written by :func:`save_trajectory_csv`.

    The recorded intermediate multipliers are taken from the file so that
    the certificate checks exercise what was actually written.  Rows with
    a non-finite iterate cell are rejected here, once, with their row
    number.
    """
    n, p, m = inst.n, inst.p, inst.m
    expected = trajectory_header(inst)
    cut = 1 + n + p + m
    iterates, multipliers = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ValueError(f"trajectory file: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise ValueError(f"trajectory file: row {lineno} has {len(row)} cells")
            k = int(row[0])
            if k != len(iterates):
                raise ValueError(f"trajectory file: iteration indices not contiguous at row {lineno}")
            iterates.append([float(v) for v in row[1:cut]])
            if k > 0:
                multipliers.append([float(v) for v in row[cut : cut + m]])
    if not iterates:
        raise ValueError("trajectory file: no rows")
    Z = np.array(iterates)
    Gt = np.array(multipliers).reshape(len(multipliers), m)
    bad = ~np.isfinite(Z).all(axis=1)
    bad[1:] |= ~np.isfinite(Gt).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad)) + 2
        raise ValueError(f"trajectory file: non-finite iterate value in row {row}")
    h1, h2 = resolve_prox_terms(inst, params)
    return Trajectory(
        instance=inst,
        params=params,
        h1=h1,
        h2=h2,
        X=np.ascontiguousarray(Z[:, :n]),
        Y=np.ascontiguousarray(Z[:, n : n + p]),
        G=np.ascontiguousarray(Z[:, n + p :]),
        Gt=Gt,
    )
