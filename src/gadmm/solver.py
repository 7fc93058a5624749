"""The relaxed proximal ADMM iteration engine.

One iteration, for penalty beta > 0, relaxation factor alpha in (0, 2]
and symmetric PSD proximal weights H1, H2, solves one subproblem per
block u, with function F, operator Op and weight H,

    u_k = argmin_u  F(u) - <gamma_{k-1}, Op u> + (beta/2)||Op u + s||^2
                    + (1/2)||u - u_{k-1}||^2_H,

first the x-block (f, A, H1) with s = B y_{k-1} - b, then the y-block
(g, B, H2) with s = alpha(A x_k + B y_{k-1} - b) - B y_{k-1}: alpha enters
only through the y-block's shift.  Then

    gamma_k = gamma_{k-1} - beta[alpha(A x_k + B y_{k-1} - b) + B(y_k - y_{k-1})]

together with the intermediate multiplier

    gamma_tilde_k = gamma_{k-1} - beta(A x_k + B y_{k-1} - b),

the point at which both subproblems' optimality inclusions hold.  With
alpha = 1 and H1 = H2 = 0 this is the standard two-block ADMM.

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

    x_k = phi_x( T1 [x_{k-1}; B y_{k-1}; gamma_{k-1}; 1] ),
    [v_y; gbar_k; gamma_tilde_k] = T2 [y_{k-1}; A x_k; B y_{k-1}; gamma_{k-1}; 1],
    y_k = phi_y(v_y),   gamma_k = gbar_k - beta B y_k,

where gbar_k = gamma_{k-1} - beta*s is the y-block's argument of Gg, and
x_{k-1} (y_{k-1}) is an input only when H1 (H2) has a nonzero entry.  The
iterates equal the subproblems' minimizers up to rounding.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import hpe, linalg, oracles, problems
from .errors import ConfigError, DivergenceError, NotPositiveDefiniteError

# Auto mode picks tau = AUTO_TAU_MARGIN * beta * ||Op||^2, strictly above
# the PSD threshold so H = tau*I - beta*Op'Op is positive definite.
AUTO_TAU_MARGIN = 1.01

# The trailing entry of each stage's input, which applies its constant term.
_ONE = np.ones(1)


@dataclass(frozen=True)
class ZeroH:
    """No proximal weight (H = 0)."""


@dataclass(frozen=True)
class ExplicitH:
    """A user-supplied symmetric PSD proximal weight; any other matrix
    raises ValueError."""

    matrix: np.ndarray

    def __post_init__(self):
        try:
            op = linalg.PsdOperator.from_matrix(self.matrix, name="H")
        except NotPositiveDefiniteError as exc:
            raise ValueError(str(exc)) from exc
        object.__setattr__(self, "matrix", op.matrix)


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
            raise ConfigError("alpha must lie in (0, 2]")
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

    Row k of ``Z`` holds z_k = (x_k, y_k, gamma_k) for k = 0..K, and row
    k-1 of ``Gt`` holds gamma_tilde_k for k = 1..K; ``X``, ``Y``, ``G`` are
    views of Z's column blocks.  Steps are row differences and are not
    stored.  The proximal metric M is built on first use and kept.
    """

    instance: problems.SeparableInstance
    params: GadmmParams
    h1: np.ndarray
    h2: np.ndarray
    Z: np.ndarray
    Gt: np.ndarray
    _metric: Optional[linalg.PsdOperator] = field(default=None, repr=False, compare=False)

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
    def metric(self) -> linalg.PsdOperator:
        if self._metric is None:
            self._metric = hpe.build_metric(
                self.instance, self.h1, self.h2, self.params.beta, self.params.alpha
            )
        return self._metric


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
    v = Gu u_prev + Gg (gamma_prev - beta*s) + g0 and prox ``phi``, None for
    the identity.  ``Gu`` is None when H has no nonzero entry, so an
    all-zero explicit H builds the same map as the zero mode."""
    H, tau = resolved  # from _resolve_h
    dim = op.shape[1]
    fac, phi = None, None
    if tau is None:
        parts = problems._quadratic_parts(F, dim)
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
                    phi = F.prox_solver(scale)
        except ValueError as exc:
            name = "h1" if block == "x" else "h2"
            raise ConfigError(f"{name}: tau={tau!r} at beta={beta!r}: {exc}") from exc
    solve = (lambda a: a) if fac is None else fac.solve
    Gu = solve(H * scale) if H.any() else None
    return Gu, solve(op.T * scale), solve(q * -scale), phi


class _Engine:
    """Per-run state: the two stage maps of one iteration (see the module
    docstring).  Each is one matrix applied to the vectors the loop carries,
    stacked with a trailing 1 that applies the constant term."""

    def __init__(self, inst: problems.SeparableInstance, params: GadmmParams):
        self.inst = inst
        self.params = params
        beta, alpha = params.beta, params.alpha
        # both weights resolve before either block sets up, so a bad mode
        # (exit 1) is reported ahead of a matrix that fails to factor (exit 2)
        h1 = _resolve_h(params.h1, inst.A, beta, inst.n, "h1")
        h2 = _resolve_h(params.h2, inst.B, beta, inst.p, "h2")
        self.h1, self.h2 = h1[0], h2[0]
        Gu1, Gg1, g01, self._phi_x = _pre_prox(inst.f, inst.A, h1, beta, "x")
        Gu2, Gg2, g02, self._phi_y = _pre_prox(inst.g, inst.B, h2, beta, "y")
        self._x_in, self._y_in = Gu1 is not None, Gu2 is not None
        b, eye = inst.b[:, None], np.eye(inst.m)
        ba, bc = beta * alpha, beta * (1.0 - alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            # columns: x_{k-1} (if Gu1), B y_{k-1}, gamma_{k-1}, 1
            T1 = np.hstack([Gu1] * self._x_in + [-beta * Gg1, Gg1, g01[:, None] + beta * (Gg1 @ b)])
            # rows: v_y, gbar_k, gamma_tilde_k; columns: y_{k-1} (if Gu2),
            # A x_k, B y_{k-1}, gamma_{k-1}, 1
            T2 = np.block(
                [
                    [-ba * Gg2, bc * Gg2, Gg2, g02[:, None] + Gg2 @ (ba * b)],
                    [-ba * eye, bc * eye, eye, ba * b],
                    [-beta * eye, -beta * eye, eye, beta * b],
                ]
            )
            if self._y_in:
                T2 = np.hstack([np.vstack([Gu2, np.zeros((2 * inst.m, inst.p))]), T2])
        if not np.isfinite(T1).all():
            raise ConfigError(f"x-block stage map overflows at beta={beta!r}")
        if not np.isfinite(T2).all():
            raise ConfigError(f"y-block stage map overflows at alpha={alpha!r}, beta={beta!r}")
        self._T1, self._T2 = T1, T2

    def x_stage(self, x_prev, By_prev, gamma_prev):
        """x_k from x_{k-1}, B y_{k-1} and gamma_{k-1}."""
        head = (x_prev,) if self._x_in else ()
        v = np.dot(self._T1, np.concatenate(head + (By_prev, gamma_prev, _ONE)))
        return v if self._phi_x is None else self._phi_x(v)

    def y_stage(self, y_prev, Ax, By_prev, gamma_prev):
        """(y_k, gamma_k, gamma_tilde_k, B y_k) from y_{k-1}, A x_k,
        B y_{k-1} and gamma_{k-1}."""
        p, m = self.inst.p, self.inst.m
        head = (y_prev,) if self._y_in else ()
        out = np.dot(self._T2, np.concatenate(head + (Ax, By_prev, gamma_prev, _ONE)))
        y = out[:p] if self._phi_y is None else self._phi_y(out[:p])
        By = np.dot(self.inst.B, y)
        return y, out[p : p + m] - self.params.beta * By, out[p + m :], By

    def step(self, x_prev, y_prev, gamma_prev, By_prev):
        """One iteration; returns (x_k, y_k, gamma_k, gamma_tilde_k, B y_k)
        so the caller can carry B y_k forward."""
        x = self.x_stage(x_prev, By_prev, gamma_prev)
        return (x, *self.y_stage(y_prev, np.dot(self.inst.A, x), By_prev, gamma_prev))


def stop_terms(inst, metric, prev, new, gamma_tilde):
    """The terms of the stopping rule of :func:`run` at one iterate, in the
    order it checks them, each computed only when the consumer asks for it.

    ``prev`` and ``new`` are (x, y, gamma) at k-1 and k.  The residual is
    computed by the code that computes the same term inside the gap's max,
    so checking it first never changes which k stops the run.
    """
    x, y, gamma = new
    yield problems.constraint_residual(inst, x, y)
    dz = np.concatenate([x - prev[0], y - prev[1], gamma - prev[2]])
    yield math.sqrt(linalg.seminorm_sq(metric, dz))
    yield float(problems.kkt_gaps(inst, x, y, gamma_tilde))


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
    term never stops the run.

    Neither the steps nor the stopping rule check their data: a non-finite
    iterate does not stop the loop, and floating-point warnings are
    silenced inside it.  After
    the loop, one scan of the recorded rows raises :class:`DivergenceError`
    naming the first k whose x, y, gamma or gamma_tilde has a non-finite
    entry, so a run that diverges is reported once it reaches max_iter.
    """
    eng = _Engine(inst, params)
    x = np.zeros(inst.n) if x0 is None else linalg.as_vector(x0, dim=inst.n, name="x0")
    y = np.zeros(inst.p) if y0 is None else linalg.as_vector(y0, dim=inst.p, name="y0")
    gamma = (
        np.zeros(inst.m) if gamma0 is None else linalg.as_vector(gamma0, dim=inst.m, name="gamma0")
    )
    metric = None
    if params.stop_tol > 0:
        metric = hpe.build_metric(inst, eng.h1, eng.h2, params.beta, params.alpha)
    xs, ys, gs, gts = [x], [y], [gamma], []
    By = inst.B @ y
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.max_iter):
            x_new, y_new, gamma_new, gamma_tilde, By = eng.step(x, y, gamma, By)
            xs.append(x_new)
            ys.append(y_new)
            gs.append(gamma_new)
            gts.append(gamma_tilde)
            if metric is not None and all(
                t <= params.stop_tol
                for t in stop_terms(
                    inst, metric, (x, y, gamma), (x_new, y_new, gamma_new), gamma_tilde
                )
            ):
                break
            x, y, gamma = x_new, y_new, gamma_new
    Z = np.hstack([xs, ys, gs])
    Gt = np.array(gts).reshape(len(gts), inst.m)
    finite = np.isfinite(Z[1:]).all(axis=1) & np.isfinite(Gt).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise DivergenceError(f"iteration diverged: iterate k={k} has non-finite entries", k=k)
    return Trajectory(
        instance=inst,
        params=params,
        h1=eng.h1,
        h2=eng.h2,
        Z=Z,
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


@np.errstate(over="ignore", invalid="ignore")  # huge finite iterates: inf
def diagnostics(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Over k = 0..K, the step M-seminorm ||z_k - z_{k-1}||_M (NaN at k = 0)
    and the gap :func:`problems.kkt_gaps` at (x_0, y_0, gamma_0), then at
    (x_k, y_k, gamma_tilde_k): stacked products, so an entry can differ from
    the stopping rule's one-point term by rounding."""
    step = np.sqrt(traj.metric.seminorm_sq(np.diff(traj.Z, axis=0)))
    gap = problems.kkt_gaps(traj.instance, traj.X, traj.Y, np.vstack([traj.G[:1], traj.Gt]))
    return np.concatenate([[math.nan], step]), gap


def _write_rows(write, table, start, stop, blank) -> None:
    """Pass the CSV line of each of rows start..stop-1 of the writer's
    table, k first, to ``write``.  No cell needs CSV quoting, so joining
    with "," and "\\r\\n" gives the bytes csv.writer would, and one row
    of strings is held at a time."""
    for k, row in enumerate(table[start:stop], start):
        cells = list(map(repr, row.tolist()))
        if k == 0:  # x_0, y_0, gamma_0 have no gamma_tilde or step
            cells[blank] = [""] * (blank.stop - blank.start)
        write(f"{k}," + ",".join(cells) + "\r\n")


def save_trajectory_csv(traj: Trajectory, path) -> tuple[np.ndarray, np.ndarray]:
    """Write one row per iteration: k, x, y, gamma, gamma_tilde, and the
    two arrays of :func:`diagnostics`, the step seminorm and the gap, which
    it returns.  Floats are written with full round-trip precision.

    A large table is formatted on every usable CPU, with the same bytes as
    one process, by :func:`problems.write_in_parts`, whose units are the
    rows.  The table is written by this process alone when it has fewer
    than twice :data:`problems.CELLS_PER_WORKER` cells or one CPU is
    usable, when ``os.fork`` does not exist, when another Python thread is
    running, or when ``fork`` fails; and a range whose worker exits
    non-zero or writes the wrong number of rows is formatted here.
    """
    inst, (step, gap) = traj.instance, diagnostics(traj)
    gt = np.vstack([np.zeros((1, inst.m)), traj.Gt])
    table = np.hstack([traj.Z, gt, step[:, None], gap[:, None]])
    blank = slice(inst.n + inst.p + inst.m, inst.n + inst.p + 2 * inst.m + 1)
    rows = len(table)
    problems.write_in_parts(
        path,
        rows,
        rows * (table.shape[1] + 1),
        lambda emit, start, stop: _write_rows(emit, table, start, stop, blank),
        lambda start, stop: stop - start,
        head=",".join(trajectory_header(inst)) + "\r\n",
        newline="",
    )
    return step, gap


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``, broken only at ``\\r\\n`` and ``\\n``
    (:meth:`str.splitlines` also breaks at ``\\r``, form feeds and other
    separators, which are left to the cell parser here)."""
    *lines, last = text.split("\n")
    lines = [line[:-1] if line[-1:] == "\r" else line for line in lines]
    if last:
        lines.append(last)
    return lines


def _cells(line: str) -> list[str]:
    return line.split(",") if line else []  # a blank line has no cells


def _parse_rows(lines, dtype) -> np.ndarray:
    """Comma-separated lines through numpy's C text reader, which refuses
    quoted, empty and non-numeric cells, and a non-integer in an integer
    field."""
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _row_dtype(ncols):
    """A row of ``ncols`` cells: k, then the other cells as one float vector."""
    return np.dtype([("k", np.int64), ("v", np.float64, (ncols - 1,))])


def _read_bounds(rows, parts, other_bytes) -> list[int]:
    """Bounds of the row ranges of :meth:`TrajectoryText.parse_tail`.

    This process takes the rows that end within max(0, (J + C)/parts - J)
    characters, J = ``other_bytes`` and C those of ``rows``, and row 0
    always, so that its rows and its other work of J bytes, which parses
    at about the same speed, come to about 1/parts of the whole; the
    workers share the other rows evenly by characters.  A range that would
    be empty is dropped.
    """
    ends = np.cumsum([len(row) + 1 for row in rows])
    total = int(ends[-1])
    head = max(0.0, (other_bytes + total) / parts - other_bytes)
    cuts = head + (total - head) * np.arange(parts - 1) / (parts - 1)
    inner = np.clip(np.searchsorted(ends, cuts, side="right"), 1, len(rows))
    return sorted({0, len(rows), *inner.tolist()})


class TrajectoryText:
    """The lines of a trajectory CSV, read once by this process, for
    :func:`load_trajectory_csv`.

    An error reading the file (:class:`OSError`, or :class:`ValueError`
    for text that is not UTF-8) is kept and raised by :meth:`lines`, so a
    caller that checks other inputs first reports their errors first.
    :meth:`parse_tail` forks workers that parse the tail rows while this
    process does other work.  Use it as a context manager: leaving the
    ``with`` block calls :meth:`close`.
    """

    def __init__(self, path):
        self._workers, self._error = [], None
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                self._lines = _split_lines(fh.read())
        except (OSError, ValueError) as exc:
            self._lines, self._error = None, exc

    def lines(self) -> list[str]:
        if self._error is not None:
            raise self._error
        return self._lines

    def parse_tail(self, other_bytes) -> None:
        """Fork the workers of a large table, before this process does
        other work of ``other_bytes`` bytes (see :func:`_read_bounds`).

        The table has as many parts as the writer would split it into
        (:func:`problems._worker_count`), typed by the header's cell count, which
        :func:`load_trajectory_csv` checks before it takes their rows.
        Each worker parses the range of rows it inherited with
        :func:`_parse_rows` and sends the array's bytes; it never opens
        the file.  A failed fork leaves the ranges not yet forked to
        :meth:`parse`.
        """
        if self._error is not None or len(self._lines) < 2:
            return
        rows = self._lines[1:]
        ncols = len(_cells(self._lines[0]))
        parts = 1 + problems._worker_count(len(rows) * ncols)
        if parts == 1:
            return
        dtype = _row_dtype(ncols)
        bounds = _read_bounds(rows, parts, other_bytes)

        def parsed(start, stop):
            return _parse_rows(rows[start:stop], dtype).tobytes()

        for start, stop in zip(bounds[1:-1], bounds[2:]):
            try:
                self._workers.append(problems._RowsWorker(parsed, start, stop, self._workers))
            except OSError:
                break

    def parse(self, rows, dtype):
        """Rows 0..K, the lines ``rows``, parsed into one array of
        ``dtype``, or None when a range does not parse into one row per
        line.  This process parses the rows before the first worker's
        range and after the last one's; each worker's range is read from
        its pipe, and parsed here when the worker exits non-zero or sends
        the wrong number of bytes."""
        table, done, ranges = np.empty(len(rows), dtype), 0, []
        for worker in self._workers:
            ranges += [(done, worker.start, None), (worker.start, worker.stop, worker)]
            done = worker.stop
        for start, stop, worker in ranges + [(done, len(rows), None)]:
            part = table[start:stop]
            if start == stop or (worker is not None and worker.read_into(part)):
                continue
            try:
                parsed = _parse_rows(rows[start:stop], dtype)
            except ValueError:
                return None
            if len(parsed) != stop - start:  # loadtxt skips blank lines
                return None
            part[...] = parsed
        return table

    def close(self) -> None:
        """Reap every worker left and let go of the lines, which are not
        needed once the rows are loaded."""
        self._lines = None
        for worker in self._workers:
            worker.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _raise_first_bad_row(rows, dtype, ncols) -> None:
    """Raise the error of the first bad row of ``rows``, the lines of rows
    0..K (file rows 2..), checking each row as :func:`load_trajectory_csv`
    documents."""
    for k, line in enumerate(rows):
        row, cells = k + 2, _cells(line)
        if len(cells) != ncols:
            raise ValueError(f"trajectory file: row {row} has {len(cells)} cells")
        try:
            (parsed,) = _parse_rows([line], dtype)
        except ValueError:
            try:
                _parse_rows([line], np.float64)
            except ValueError:
                raise ValueError(f"trajectory file: row {row} has a non-numeric cell") from None
            raise ValueError(
                f"trajectory file: row {row}: iteration index {cells[0]!r} is not an integer"
            ) from None
        if parsed["k"] != k:
            raise ValueError(f"trajectory file: iteration indices not contiguous at row {row}")
    # not reached: a row that fails the bulk read fails here on its own
    raise ValueError("trajectory file: rows 0..K do not parse")


def load_trajectory_csv(path, inst, params) -> Trajectory:
    """Rebuild a trajectory from a CSV written by :func:`save_trajectory_csv`.

    ``path`` is the file's path, or a :class:`TrajectoryText` read from it
    whose tail rows may be parsed by workers already; their rows are taken
    only after the header matches ``inst``.  The recorded intermediate
    multipliers are taken from the file so that the certificate checks
    exercise what was actually written.  Rows 0..K go through
    :func:`numpy.loadtxt`, in one call here or one per range
    (:meth:`TrajectoryText.parse`), which parses every cell and refuses
    quoted cells.  Row 0 (k = 0) has no gamma_tilde or step, so its cells
    after gamma are not read: they are replaced by ``nan`` before the
    parse.  Lines end at ``\\r\\n`` or ``\\n`` and nowhere else: a bare
    ``\\r``, a form feed or another Unicode line separator is part of its
    cell, which the parser then accepts or refuses.

    Each of these raises :class:`ValueError`, naming the file row where
    there is one (the header is row 1): a header that is not
    :func:`trajectory_header`; no row 0; a row (a blank line included)
    with the wrong number of cells; a k that is not an integer or not the
    row's index; a cell that is not a number; and, after every row has
    parsed, the first row with a non-finite x, y, gamma or gamma_tilde
    cell.  Rows are checked in file order, so the first bad row is named,
    however the rows were split among workers.
    """
    m = inst.m
    expected = trajectory_header(inst)
    ncols, cut = len(expected), 1 + inst.n + inst.p + m
    text = path if isinstance(path, TrajectoryText) else TrajectoryText(path)
    lines = text.lines()
    header = _cells(lines[0]) if lines else None
    if header != expected:
        raise ValueError(f"trajectory file: unexpected header {header}")
    rows = lines[1:]
    if not rows:
        raise ValueError("trajectory file: no rows")
    first = _cells(rows[0])  # the cell count is kept: a row 0 of the wrong length fails
    rows[0] = ",".join(first[:cut] + ["nan"] * (len(first) - cut))
    dtype = _row_dtype(ncols)
    table = text.parse(rows, dtype)
    # loadtxt skips blank lines, so a blank line leaves the k column short
    if table is None or not np.array_equal(table["k"], np.arange(len(rows))):
        _raise_first_bad_row(rows, dtype, ncols)
    values = table["v"]
    Z = np.ascontiguousarray(values[:, : cut - 1])
    Gt = np.ascontiguousarray(values[1:, cut - 1 : cut - 1 + m])
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
        Z=Z,
        Gt=Gt,
    )
