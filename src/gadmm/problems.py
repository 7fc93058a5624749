"""Separable problem instances, their generators and ground truth, and
the mapping between an instance and its JSON document (the file's bytes
are written by :mod:`gadmm.records`).

An instance is the tuple (f, g, A, B, b) for

    min f(x) + g(y)   subject to   A x + B y = b,

with f, g convex block functions from :mod:`gadmm.oracles`, plus an
optional first-order-optimal reference point (x*, y*, gamma*) solving

    0 in df(x) - A' gamma,   0 in dg(y) - B' gamma,   A x + B y - b = 0.

Generators produce instances whose reference point is computed by an
independent route (a direct saddle-system solve for quadratic blocks, the
exact solution path for the consensus l1 split, tied and collinear columns
included), never by the ADMM engine itself.

In the JSON document a quadratic's P, which :class:`oracles.Quadratic`
holds exactly symmetric, is stored once: its upper triangle, row by row,
n(n+1)/2 numbers, mirrored back into the full matrix on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg, oracles, records
from .errors import ConfigError, IterationLimitError

# A reference point must pass the first-order optimality check at this gap:
# where the ground truth computes it, and where a replay reads it.
SOLUTION_GAP_TOL = 1e-6

# Full-row-rank requirement on [A B] for generated instances: smallest
# eigenvalue of [A B][A B]' must exceed this within _RANK_TRIES draws.
_ROW_RANK_TOL, _RANK_TRIES = 1e-6, 50
# The lasso path has at most _PATH_MAX_KINKS kinks per variable, and takes
# every join and leave within _PATH_TIE_TOL * lam of the next at once.
_PATH_MAX_KINKS, _PATH_TIE_TOL = 10, 1e-12


@dataclass(frozen=True)
class KktPoint:
    """A candidate first-order point (x, y, gamma)."""

    x: np.ndarray
    y: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "gamma"):
            v = linalg.as_vector(getattr(self, name), name=name).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class SeparableInstance:
    """The tuple (f, g, A, B, b) and an optional reference point, whose
    shapes are checked here; its optimality is checked where it is read."""

    f: oracles.ConvexFunction
    g: oracles.ConvexFunction
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    solution: Optional[KktPoint] = None

    def __post_init__(self):
        A = linalg.as_matrix(self.A, name="A").copy()
        B = linalg.as_matrix(self.B, rows=A.shape[0], name="B").copy()
        b = linalg.as_vector(self.b, dim=A.shape[0], name="b").copy()
        for arr in (A, B, b):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        if self.f.dim is not None and self.f.dim != A.shape[1]:
            raise ValueError(f"f has dimension {self.f.dim}, A has {A.shape[1]} columns")
        if self.g.dim is not None and self.g.dim != B.shape[1]:
            raise ValueError(f"g has dimension {self.g.dim}, B has {B.shape[1]} columns")
        if self.solution is not None:
            for name, dim in (("x", self.n), ("y", self.p), ("gamma", self.m)):
                linalg.as_vector(getattr(self.solution, name), dim=dim, name=f"solution.{name}")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]


def kkt_gap(inst: SeparableInstance, point: KktPoint) -> float:
    """Worst violation of the three first-order conditions at a point.

    Returns max of the two conjugate gaps (of A'gamma at x for f, of
    B'gamma at y for g) and the constraint residual norm; zero exactly at
    a first-order-optimal point (up to conjugate tolerances).  A reference
    point must pass it at :data:`SOLUTION_GAP_TOL` where it is computed
    (:func:`solve_ground_truth`) and where it is read (:class:`gadmm.hpe.Replay`).
    """
    # a KktPoint's vectors are 1-D and finite: only their lengths are checked
    x = linalg.as_rows(point.x, dim=inst.n, name="x")
    y = linalg.as_rows(point.y, dim=inst.p, name="y")
    gamma = linalg.as_rows(point.gamma, dim=inst.m, name="gamma")
    return float(kkt_gaps(inst, x, y, gamma))


def kkt_gaps(inst: SeparableInstance, X, Y, G):
    """:func:`kkt_gap` at one point, or at each row of stacked points
    (rows x_i, y_i, gamma_i).  A stack goes through one matrix product per
    operator, so its rows can differ from the one-point calls by rounding."""
    gap_f = oracles.fenchel_gap(inst.f, G @ inst.A, X)
    gap_g = oracles.fenchel_gap(inst.g, G @ inst.B, Y)
    return np.maximum(np.maximum(gap_f, gap_g), constraint_residual(inst, X, Y))


def constraint_residual(inst: SeparableInstance, X, Y):
    """||A x + B y - b|| at one point, or at each row of stacked points:
    the residual term of :func:`kkt_gaps`, computed by the same code."""
    resid = X @ inst.A.T + Y @ inst.B.T - inst.b
    return np.sqrt(np.vecdot(resid, resid))


# ---------------------------------------------------------------------------
# generators


def _random_strongly_convex_quadratic(rng, dim) -> oracles.Quadratic:
    G = rng.standard_normal((dim, dim))
    P = G @ G.T / dim + np.eye(dim)
    q = rng.standard_normal(dim)
    return oracles.Quadratic(P, q, 0.0)


def generate_qp(seed, n, p, m) -> SeparableInstance:
    """Random strictly convex quadratic instance with full-row-rank [A B].

    Strict convexity plus the rank condition make the multiplier unique,
    which the certificate checks need for a meaningful reference distance.
    Deterministic in the seed; b is built from a random feasible pair.
    """
    if m > n + p:
        raise ConfigError(f"m={m} must be at most n+p={n + p}")
    rng = np.random.default_rng(seed)
    f = _random_strongly_convex_quadratic(rng, n)
    g = _random_strongly_convex_quadratic(rng, p)
    for _ in range(_RANK_TRIES):
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, p))
        ab = np.hstack([A, B])
        if float(np.min(np.linalg.eigvalsh(ab @ ab.T))) > _ROW_RANK_TOL:
            break
    else:
        raise ConfigError("could not draw a full-row-rank [A B] within the resampling cap")
    xbar = rng.standard_normal(n)
    ybar = rng.standard_normal(p)
    b = A @ xbar + B @ ybar
    inst = SeparableInstance(f, g, A, B, b)
    return replace(inst, solution=solve_ground_truth(inst))


def generate_lasso(seed, n, m_data, mu) -> SeparableInstance:
    """Consensus split of a lasso problem:

        f(x) = (1/2)||C x - d||^2,  g(y) = mu ||y||_1,  x - y = 0,

    encoded as A = I, B = -I, b = 0.  The reference point comes from
    :func:`solve_ground_truth`, independent of the ADMM engine.
    """
    if not 0 < mu < math.inf:
        raise ConfigError(f"mu must be positive and finite, got {mu}")
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((m_data, n))
    d = rng.standard_normal(m_data)
    f = oracles.Quadratic(C.T @ C, -C.T @ d, 0.5 * float(d @ d))
    g = oracles.L1(mu)
    inst = SeparableInstance(f, g, np.eye(n), -np.eye(n), np.zeros(n))
    return replace(inst, solution=solve_ground_truth(inst))


# ---------------------------------------------------------------------------
# ground truth


def quadratic_parts(F, dim):
    """(P, q) of a quadratic or zero function of ``dim`` variables, None
    for any other function."""
    if isinstance(F, oracles.Quadratic):
        return F.P, F.q
    if isinstance(F, oracles.Zero):
        return np.zeros((dim, dim)), np.zeros(dim)
    return None


def _is_consensus_l1(inst) -> bool:
    if not isinstance(inst.f, oracles.Quadratic) or not isinstance(inst.g, oracles.L1):
        return False
    if inst.n != inst.p or inst.m != inst.n:
        return False
    eye = np.eye(inst.n)
    return (
        np.allclose(inst.A, eye, rtol=0.0, atol=1e-12)
        and np.allclose(inst.B, -eye, rtol=0.0, atol=1e-12)
        and np.allclose(inst.b, 0.0, rtol=0.0, atol=1e-12)
    )


def _kkt_linear_solve(inst, pf, qf, pg, qg) -> KktPoint:
    n, p, m = inst.n, inst.p, inst.m
    K = np.zeros((n + p + m, n + p + m))
    K[:n, :n] = pf
    K[:n, n + p :] = -inst.A.T
    K[n : n + p, n : n + p] = pg
    K[n : n + p, n + p :] = -inst.B.T
    K[n + p :, :n] = inst.A
    K[n + p :, n : n + p] = inst.B
    rhs = np.concatenate([-qf, -qg, inst.b])
    z = None
    try:
        z = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        pass
    if z is None or not np.linalg.norm(K @ z - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs)):
        # Singular saddle system: accept a least-squares point only if it
        # actually solves the system (consistent but rank-deficient, e.g.
        # feasibility-only instances); otherwise the multiplier is not
        # pinned down and the instance is rejected.
        z, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        if not np.linalg.norm(K @ z - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs)):
            raise ConfigError("singular saddle system: non-unique multiplier")
    return KktPoint(z[:n], z[n : n + p], z[n + p :])


def lasso_path(P, q, mu) -> np.ndarray:
    """A minimizer of (1/2)x'Px + q'x + mu||x||_1, followed along the path
    of minimizers from lam = max|q|, where 0 is one, down to lam = mu
    (Efron, Hastie, Johnstone and Tibshirani, 2004).  On the path the
    gradient Px + q is -lam s on the active set, s the signs each entry took
    on joining it, and at most lam in size off it.  Between kinks the active
    entries solve that equation by least squares, the minimum-norm solution
    where tied or collinear columns make the block singular, and move
    linearly in lam until one reaches 0 and leaves or an inactive |Px + q|
    reaches lam and joins; every event within _PATH_TIE_TOL * lam of the
    first happens at once.  Px + q is unique along the path even where x is
    not (Tibshirani, 2013).  The part v of s in the active block's null space
    has Pv = 0, and a slope q'v + mu||v||_1 below -_PATH_TIE_TOL * (max|q| +
    mu) an entry means no minimizer at mu (:class:`ConfigError`).  A path
    with over _PATH_MAX_KINKS kinks a variable raises :class:`IterationLimitError`."""
    n = q.shape[0]
    lam = float(np.max(np.abs(q), initial=0.0))
    s = np.where(np.abs(q) == lam, -np.sign(q), 0.0)
    for _ in range(_PATH_MAX_KINKS * n):
        on = s != 0
        block, rhs = P[np.ix_(on, on)], np.stack([-q[on] - lam * s[on], s[on]], axis=1)
        x, d = np.zeros((2, n))  # x and dx/d(-lam)
        sol, _, rank, _ = np.linalg.lstsq(block, rhs, rcond=None)
        x[on], d[on] = sol.T
        if lam <= mu:
            return x
        if rank < block.shape[0]:  # v, in the null space lstsq cut off
            null = np.linalg.svd(block)[0][:, rank:]
            v = null @ (null.T @ s[on])
            if q[on] @ v + mu * np.abs(v).sum() < -_PATH_TIE_TOL * (np.abs(q).max() + mu) * v.size:
                raise ConfigError(f"the lasso has no minimizer at mu={mu!r}: its objective "
                                  "falls without bound along a null direction of P")
        g, a = P @ x + q, P @ d  # and dg/d(-lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(a > -1, (lam - g) / (1 + a), np.inf)  # g + t a reaches lam - t
            down = np.where(a < 1, (lam + g) / (1 - a), np.inf)  # or -(lam - t)
            t = np.where(on, np.where(d * s < 0, -x / d, np.inf), np.minimum(up, down))
        t = np.maximum(t, 0.0)  # an event that rounding puts behind lam happens now
        step = min(float(np.min(t)), lam - mu)
        lam -= step
        hit = t <= step + _PATH_TIE_TOL * lam
        # a leaving entry drops its sign, a joining one takes -sign(Px + q)
        s[hit] = np.where(on, 0.0, np.where(up <= down, -1.0, 1.0))[hit]
    raise IterationLimitError("lasso solution path did not reach mu")


def _consensus_point(inst, x) -> KktPoint:
    # A = I, so the multiplier is the smooth gradient, clipped into the
    # dual-feasible box so that -gamma lies in dom g* despite rounding
    gamma = np.clip(inst.f.grad(x), -inst.g.mu, inst.g.mu)
    return KktPoint(x, x.copy(), gamma)


def solve_ground_truth(inst: SeparableInstance) -> KktPoint:
    """Reference first-order point for quadratic or consensus-l1 instances.

    Quadratic blocks go through a direct solve of the saddle system.  The
    consensus l1 split goes through :func:`lasso_path`, whatever the rank
    of P and however its columns tie; the multiplier is the smooth block's gradient, which is unique
    even where the minimizer is not.
    """
    parts_f = quadratic_parts(inst.f, inst.n)
    parts_g = quadratic_parts(inst.g, inst.p)
    if parts_f is not None and parts_g is not None:
        point = _kkt_linear_solve(inst, *parts_f, *parts_g)
    elif _is_consensus_l1(inst):
        point = _consensus_point(inst, lasso_path(inst.f.P, inst.f.q, inst.g.mu))
    else:
        raise ConfigError(
            "ground truth is available only for quadratic blocks or a consensus l1 split"
        )
    gap = kkt_gap(inst, point)
    if not gap <= SOLUTION_GAP_TOL:
        raise ConfigError(f"reference point failed the optimality check (gap {gap:.3e})")
    return point


# ---------------------------------------------------------------------------
# instance files (JSON)


def _fun_to_json(F):
    if isinstance(F, oracles.Quadratic):
        return {
            "variant": "quadratic",
            "P": F.P[linalg.upper_triangle(F.dim)].tolist(),
            "q": F.q.tolist(),
            "c": float(F.c),
        }
    if isinstance(F, oracles.L1):
        return {"variant": "l1", "mu": float(F.mu)}
    if isinstance(F, oracles.Zero):
        return {"variant": "zero"}
    raise ValueError(f"unsupported function type {type(F).__name__}")


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise ValueError(f"instance file: field '{path}' must be an object")
    if key not in obj:
        raise ValueError(f"instance file: missing field '{key}'" + (f" in '{path}'" if path else ""))
    return obj[key]


# The JSON numbers.  A bool is not one, though Python makes it an int.
_REAL_TYPES = {int, float}


def _reals(raw, count, path):
    if not isinstance(raw, list) or len(raw) != count:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ValueError(f"instance file: field '{path}' must be a list of {count} reals, got {got}")
    if not set(map(type, raw)) <= _REAL_TYPES:
        raise ValueError(f"instance file: field '{path}' holds a non-numeric entry")
    try:
        values = np.asarray(raw, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"instance file: field '{path}' holds an out-of-range entry") from exc
    if not np.isfinite(values).all():  # Infinity, NaN or a literal like 1e400
        raise ValueError(f"instance file: field '{path}' holds a non-finite entry")
    return values


def _real(raw, path) -> float:
    try:
        value = float(raw) if type(raw) in _REAL_TYPES else math.nan
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"instance file: field '{path}' must be a finite real")
    return value


def _fun_from_json(obj, dim, path):
    variant = _require(obj, "variant", path)
    if variant == "quadratic":
        packed = _reals(_require(obj, "P", path), dim * (dim + 1) // 2, f"{path}.P")
        upper = linalg.upper_triangle(dim)
        P = np.empty((dim, dim))
        P[upper] = packed
        P.T[upper] = packed
        q = _reals(_require(obj, "q", path), dim, f"{path}.q")
        c = _real(obj.get("c", 0.0), f"{path}.c")
        try:
            return oracles.Quadratic(P, q, c)
        except ValueError as exc:
            raise ValueError(f"instance file: field '{path}': {exc}") from exc
    if variant == "l1":
        mu = _real(_require(obj, "mu", path), f"{path}.mu")
        try:
            return oracles.L1(mu)
        except ValueError as exc:
            raise ValueError(f"instance file: field '{path}.mu': {exc}") from exc
    if variant == "zero":
        return oracles.Zero()
    raise ValueError(f"instance file: field '{path}.variant' must be one of quadratic/l1/zero")


def instance_to_dict(inst: SeparableInstance) -> dict:
    """The JSON document of ``inst``: A and B row-major, and a quadratic's
    P as its upper triangle, row by row (P is exactly symmetric, so the
    triangle is all of it)."""
    doc = {
        "n": inst.n,
        "p": inst.p,
        "m": inst.m,
        "A": inst.A.ravel().tolist(),
        "B": inst.B.ravel().tolist(),
        "b": inst.b.tolist(),
        "f": _fun_to_json(inst.f),
        "g": _fun_to_json(inst.g),
    }
    if inst.solution is not None:
        doc["solution"] = {
            "x": inst.solution.x.tolist(),
            "y": inst.solution.y.tolist(),
            "gamma": inst.solution.gamma.tolist(),
        }
    return doc


def instance_from_dict(doc: dict) -> SeparableInstance:
    dims = {}
    for key in ("n", "p", "m"):
        raw = _require(doc, key, "")
        if type(raw) is not int or raw <= 0:
            raise ValueError(f"instance file: field '{key}' must be a positive integer")
        dims[key] = raw
    n, p, m = dims["n"], dims["p"], dims["m"]
    A = _reals(_require(doc, "A", ""), m * n, "A").reshape(m, n)
    B = _reals(_require(doc, "B", ""), m * p, "B").reshape(m, p)
    b = _reals(_require(doc, "b", ""), m, "b")
    f = _fun_from_json(_require(doc, "f", ""), n, "f")
    g = _fun_from_json(_require(doc, "g", ""), p, "g")
    sol, solution = doc.get("solution"), None
    if sol is not None:
        solution = KktPoint(*(_reals(_require(sol, key, "solution"), dim, f"solution.{key}")
                              for key, dim in (("x", n), ("y", p), ("gamma", m))))
    try:
        return SeparableInstance(f, g, A, B, b, solution)
    except ValueError as exc:
        raise ValueError(f"instance file: {exc}") from exc


def save_instance(inst: SeparableInstance, path) -> None:
    """Write ``inst`` as :func:`records.write_json` writes
    ``instance_to_dict(inst)``, each number the shortest decimal that
    round-trips its double, so load(save(inst)) reproduces every number,
    each P's lower triangle included, since it mirrors the upper."""
    records.write_json(path, instance_to_dict(inst))


def load_instance(path) -> SeparableInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"instance file: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError("instance file: top level must be an object")
    return instance_from_dict(doc)
