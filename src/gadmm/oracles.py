"""Convex block functions and their oracles.

Each supported function exposes the four oracles the solver and the
certificate checks rely on: value, proximal map, convex conjugate, and
the conjugate gap

    gap(u, x) = F(x) + F*(u) - <u, x>,

which is the least epsilon such that u is an epsilon-subgradient of F
at x (gap <= eps  iff  F(v) >= F(x) + <u, v - x> - eps for all v).

Three variants -- quadratics, scaled l1 norms, and the zero function --
cover the supported problem classes with closed-form conjugates, so the
epsilon-subgradient membership checks are exact up to rounding.

``value``, ``conjugate`` and :func:`fenchel_gap` take one vector or a
stack of row vectors; a stack gives one result per row, from matrix
products over the whole stack, so it can differ from the one-vector
calls by rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import linalg
from .errors import InternalCheckError, NotPositiveDefiniteError

# Relative slack when testing membership in the domain of the l1 conjugate
# (the mu-ball): prox outputs land exactly on the boundary and rounding
# must not push them outside.
_BALL_SLACK = 1e-12

# Negative conjugate-gap band attributed to rounding; anything below it
# means a broken value/conjugate pair and raises.
_GAP_BAND = 1e-9

# Residual tolerance of the range test used by the conjugate of a
# singular quadratic.
_RANGE_TOL = 1e-8


def _out(val, like):
    """A float for a one-vector call, the array of per-row values for a stack."""
    return float(val) if like.ndim == 1 else val


def soft_threshold(v, thr) -> np.ndarray:
    """Componentwise shrinkage sign(v_i) * max(|v_i| - thr, 0) of a float
    array, unchecked: it is the l1 prox map the solver runs every step.
    It is computed as v - clip(v, -thr, thr), three ufunc calls where the
    formula takes five, with the same values; a zero comes out as +0.0."""
    return v - np.minimum(np.maximum(v, -thr), thr)


@dataclass(frozen=True)
class Quadratic:
    """v -> (1/2) v'Pv + q'v + c with symmetric positive semidefinite P."""

    P: np.ndarray
    q: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        q = linalg.as_vector(self.q, name="q")
        P = linalg.as_matrix(self.P, rows=q.shape[0], cols=q.shape[0], name="P")
        if not linalg.is_psd(P):
            if not linalg.is_symmetric(P):
                raise ValueError("P must be symmetric")
            raise ValueError("P must be positive semidefinite")
        P = P.copy()
        P.setflags(write=False)
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def value(self, v):
        v = linalg.as_rows(v, self.dim, "v")
        return _out(0.5 * np.vecdot(v, v @ self.P.T) + np.vecdot(v, self.q) + self.c, v)

    def grad(self, v) -> np.ndarray:
        v = linalg.as_vector(v, dim=self.dim, name="v")
        return self.P @ v + self.q

    def prox_solver(self, t):
        """Return v -> argmin_u value(u) + ||u - v||^2 / (2t), with the
        system matrix tP + I factored once.  The returned map takes a float
        vector of length ``dim`` and does not check it."""
        if not t > 0:
            raise ValueError("prox step t must be positive")
        fac = linalg.SpdFactor(t * self.P + np.eye(self.dim))
        tq = t * self.q
        return lambda v: fac.solve(v - tq)

    @functools.cached_property
    def _p_factor(self):
        """The factor of P, built on first use; None when P is singular."""
        try:
            return linalg.SpdFactor(self.P)
        except NotPositiveDefiniteError:
            return None

    def conjugate(self, u):
        """sup_v <u,v> - value(v).

        Equals (1/2)(u-q)' P^{-1} (u-q) - c when u - q lies in the range
        of P, and +inf otherwise (singular P handled by a least-squares
        solve plus a range test).
        """
        u = linalg.as_rows(u, self.dim, "u")
        r = u - self.q
        fac = self._p_factor
        if fac is not None:
            x = fac.solve(r.T).T
            val = 0.5 * np.vecdot(r, x) - self.c
        else:
            x = np.linalg.lstsq(self.P, r.T, rcond=None)[0].T
            d = x @ self.P.T - r
            in_range = np.sqrt(np.vecdot(d, d)) <= _RANGE_TOL * (1.0 + np.sqrt(np.vecdot(r, r)))
            val = np.where(in_range, 0.5 * np.vecdot(r, x) - self.c, math.inf)
        return _out(val, u)


@dataclass(frozen=True)
class L1:
    """v -> mu * ||v||_1 with 0 < mu < inf."""

    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

    @property
    def dim(self):
        return None  # any dimension

    def value(self, v):
        v = linalg.as_rows(v, name="v")
        return _out(self.mu * np.sum(np.abs(v), axis=-1), v)

    def prox_solver(self, t):
        if not t > 0:
            raise ValueError("prox step t must be positive")
        thr = t * self.mu
        return lambda v: soft_threshold(v, thr)

    def conjugate(self, u):
        """Indicator of the ||.||_inf ball of radius mu."""
        u = linalg.as_rows(u, name="u")
        radius = self.mu * (1.0 + _BALL_SLACK) + _BALL_SLACK
        inside = np.max(np.abs(u), axis=-1, initial=0.0) <= radius
        return _out(np.where(inside, 0.0, math.inf), u)


@dataclass(frozen=True)
class Zero:
    """v -> 0."""

    @property
    def dim(self):
        return None  # any dimension

    def value(self, v):
        v = linalg.as_rows(v, name="v")
        return _out(np.zeros(v.shape[:-1]), v)

    def prox_solver(self, t):
        if not t > 0:
            raise ValueError("prox step t must be positive")
        return lambda v: v.copy()

    def conjugate(self, u):
        """Indicator of the origin (within an absolute tolerance)."""
        u = linalg.as_rows(u, name="u")
        inside = np.max(np.abs(u), axis=-1, initial=0.0) <= linalg.PSD_TOL
        return _out(np.where(inside, 0.0, math.inf), u)


ConvexFunction = Union[Quadratic, L1, Zero]


def fenchel_gap(F: ConvexFunction, u, x):
    """Least eps such that u is an eps-subgradient of F at x.

    Returns F(x) + F*(u) - <u, x>.  For a quadratic whose P factors, that
    is (1/2) r'P^-1 r with r = Px + q - u, and it is computed in that form,
    which is never negative and does not subtract terms of the size of
    F(x) from each other.  Otherwise the three terms are summed, clamped at
    zero from below within a rounding band, and +inf when u lies outside
    the domain of F*; a negative value beyond the band signals a broken
    value/conjugate pair and raises.  ``u`` and ``x`` are one pair of
    vectors (returns a float) or stacks of row pairs (returns one gap per
    row).
    """
    u = linalg.as_rows(u, name="u")
    x = linalg.as_rows(x, name="x")
    if x.shape != u.shape:
        raise ValueError(f"x has shape {x.shape}, expected {u.shape}")
    fac = F._p_factor if isinstance(F, Quadratic) else None
    if fac is not None:
        r = x @ F.P.T + F.q - linalg.as_rows(u, F.dim, "u")
        return _out(0.5 * fac.inv_norm_sq(r.T), u)
    conj = np.asarray(F.conjugate(u))
    val = np.asarray(F.value(x))
    pairing = np.vecdot(u, x)
    with np.errstate(invalid="ignore"):  # inf - inf where u is outside dom F*
        gap = np.where(np.isinf(conj), math.inf, val + conj - pairing)
    neg = gap < 0.0
    if np.any(neg):
        band = _GAP_BAND * (1.0 + np.abs(val) + np.abs(conj) + np.abs(pairing))
        if np.any(gap < -band):
            worst = float(np.min(gap))
            raise InternalCheckError(
                f"conjugate gap {worst:.3e} below the rounding band: broken conjugate pair"
            )
        gap = np.where(neg, 0.0, gap)
    return _out(gap, u)
