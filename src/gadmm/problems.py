"""Separable problem instances, generators, ground truth, instance I/O,
and the atomic writer that every output file of the package goes through.

An instance is the tuple (f, g, A, B, b) for

    min f(x) + g(y)   subject to   A x + B y = b,

with f, g convex block functions from :mod:`gadmm.oracles`, plus an
optional first-order-optimal reference point (x*, y*, gamma*) solving

    0 in df(x) - A' gamma,   0 in dg(y) - B' gamma,   A x + B y - b = 0.

Generators produce instances whose reference point is computed by an
independent route (a direct saddle-system solve for quadratic blocks, a
proximal-gradient fixed point for the consensus l1 split), never by the
ADMM engine itself.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg, oracles
from .errors import ConfigError, IterationLimitError

# A stored reference point must pass the first-order optimality check at
# this gap for the instance to be accepted.
SOLUTION_GAP_TOL = 1e-6

# Full-row-rank requirement on [A B] for generated instances: smallest
# eigenvalue of [A B][A B]' must exceed this within _RANK_TRIES draws.
_ROW_RANK_TOL, _RANK_TRIES = 1e-6, 50
# The proximal-gradient reference stops at a move of at most _ISTA_TOL.
_ISTA_TOL, _ISTA_MAX_ITER = 1e-10, 1_000_000


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
            sol = self.solution
            linalg.as_vector(sol.x, dim=self.n, name="solution.x")
            linalg.as_vector(sol.y, dim=self.p, name="solution.y")
            linalg.as_vector(sol.gamma, dim=self.m, name="solution.gamma")
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
                gap = kkt_gap(self, sol)
            if not gap <= SOLUTION_GAP_TOL:
                raise ValueError(
                    f"stored solution fails the optimality check (gap {gap:.3e})"
                )

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
    a first-order-optimal point (up to conjugate tolerances).
    """
    x = linalg.as_vector(point.x, dim=inst.n, name="x")
    y = linalg.as_vector(point.y, dim=inst.p, name="y")
    gamma = linalg.as_vector(point.gamma, dim=inst.m, name="gamma")
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

    encoded as A = I, B = -I, b = 0.  The reference point comes from a
    proximal-gradient fixed point, independent of the ADMM engine.
    """
    if not mu > 0:
        raise ConfigError("mu must be positive")
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((m_data, n))
    d = rng.standard_normal(m_data)
    f = oracles.Quadratic(C.T @ C, -C.T @ d, 0.5 * float(d @ d))
    g = oracles.L1(mu)
    inst = SeparableInstance(f, g, np.eye(n), -np.eye(n), np.zeros(n))
    return replace(inst, solution=solve_ground_truth(inst))


# ---------------------------------------------------------------------------
# ground truth


def _quadratic_parts(F, dim):
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


def ista_reference(P, q, mu) -> np.ndarray:
    """Proximal-gradient fixed point of (1/2)x'Px + q'x + mu||x||_1.

    Runs with step 1/L (L the largest eigenvalue of P) until the iterate
    moves by at most ``_ISTA_TOL``; used as the reference oracle for
    consensus l1 instances.
    """
    P = linalg.as_matrix(P, name="P")
    q = linalg.as_vector(q, dim=P.shape[0], name="q")
    lip = math.sqrt(linalg.spectral_norm_sq(P))
    t = 1.0 / lip if lip > 0 else 1.0
    x = np.zeros(q.shape[0])
    for _ in range(_ISTA_MAX_ITER):
        xn = oracles.soft_threshold(x - t * (P @ x + q), t * mu)
        if float(np.linalg.norm(xn - x)) <= _ISTA_TOL:
            return xn
        x = xn
    raise IterationLimitError("proximal-gradient reference run did not reach tolerance")


def solve_ground_truth(inst: SeparableInstance) -> KktPoint:
    """Reference first-order point for quadratic or consensus-l1 instances.

    Quadratic blocks go through a direct solve of the saddle system; the
    consensus l1 split goes through the proximal-gradient fixed point,
    with the multiplier recovered from the smooth block's gradient.
    """
    parts_f = _quadratic_parts(inst.f, inst.n)
    parts_g = _quadratic_parts(inst.g, inst.p)
    if parts_f is not None and parts_g is not None:
        point = _kkt_linear_solve(inst, *parts_f, *parts_g)
    elif _is_consensus_l1(inst):
        x = ista_reference(inst.f.P, inst.f.q, inst.g.mu)
        # A = I, so the multiplier is the smooth gradient; clip it into the
        # dual-feasible box so -gamma lands inside dom g* despite the last
        # ~1e-10 of fixed-point error (the f-block gap this introduces is
        # quadratic in the clip distance, far below the acceptance gap).
        gamma = np.clip(inst.f.grad(x), -inst.g.mu, inst.g.mu)
        point = KktPoint(x, x.copy(), gamma)
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
            "P": [float(v) for v in F.P.ravel()],
            "q": [float(v) for v in F.q],
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
        return np.asarray(raw, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"instance file: field '{path}' holds an out-of-range entry") from exc


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
        P = _reals(_require(obj, "P", path), dim * dim, f"{path}.P").reshape(dim, dim)
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
    doc = {
        "n": inst.n,
        "p": inst.p,
        "m": inst.m,
        "A": [float(v) for v in inst.A.ravel()],
        "B": [float(v) for v in inst.B.ravel()],
        "b": [float(v) for v in inst.b],
        "f": _fun_to_json(inst.f),
        "g": _fun_to_json(inst.g),
    }
    if inst.solution is not None:
        doc["solution"] = {
            "x": [float(v) for v in inst.solution.x],
            "y": [float(v) for v in inst.solution.y],
            "gamma": [float(v) for v in inst.solution.gamma],
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
    solution = None
    if "solution" in doc and doc["solution"] is not None:
        sol = doc["solution"]
        solution = KktPoint(
            _reals(_require(sol, "x", "solution"), n, "solution.x"),
            _reals(_require(sol, "y", "solution"), p, "solution.y"),
            _reals(_require(sol, "gamma", "solution"), m, "solution.gamma"),
        )
    try:
        return SeparableInstance(f, g, A, B, b, solution)
    except ValueError as exc:
        raise ValueError(f"instance file: {exc}") from exc


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Open ``path`` for writing UTF-8 text through a temporary sibling that
    replaces it when the ``with`` body ends, so a write that fails or is
    interrupted leaves the old file, or no file, at ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_instance(inst: SeparableInstance, path) -> None:
    # json emits the shortest decimal that round-trips each double (at most
    # 17 significant digits), so load(save(inst)) reproduces every number.
    with atomic_open(path) as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> SeparableInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"instance file: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError("instance file: top level must be an object")
    return instance_from_dict(doc)
