"""Convex block functions and their oracles.

Each supported function has a value, a proximal map and a convex
conjugate, and :func:`fenchel_gap` gives its conjugate gap

    gap(u, x) = F(x) + F*(u) - <u, x>,

the least epsilon such that u is an epsilon-subgradient of F at x
(gap <= eps  iff  F(v) >= F(x) + <u, v - x> - eps for all v).  The package
reads only the l1 prox map :func:`soft_threshold` (the solver), the gap (the
certificate checks) and a quadratic's gradient (the lasso reference); the
other oracles, ``prox_solver`` among them, are references for the tests.

Three variants -- quadratics, scaled l1 norms and the zero function --
have closed-form conjugates, and each gap has one closed form, clamped at
zero, that never raises: a quadratic's is (1/2) r'P^+r with r = Px + q - u
(+inf where u - q leaves the range of P), and that of l1 and zero is
F(x) - <u, x> where F*(u) = 0 (+inf elsewhere).

``value``, ``conjugate`` and :func:`fenchel_gap` take one vector or a
stack of row vectors; a stack gives one result per row, from matrix
products over the whole stack, so it can differ from the one-vector
calls by rounding.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError

# Relative slack when testing membership in the domain of the l1 conjugate
# (the mu-ball): prox outputs land exactly on the boundary and rounding
# must not push them outside.
_BALL_SLACK = 1e-12

# Residual tolerance of the range test of a singular quadratic's
# conjugate and gap.
_RANGE_TOL = 1e-8


def _out(val, like):
    """A float for a one-vector call, the array of per-row values for a stack."""
    return float(val) if like.ndim == 1 else val


def soft_threshold(v, thr, out=None) -> np.ndarray:
    """Componentwise shrinkage sign(v_i) * max(|v_i| - thr, 0) of a float
    array, unchecked: the l1 prox map the solver runs in place (``out=v``)
    every step.  It is computed as v - clip(v, -thr, thr), three ufunc calls
    where the formula takes five, with the same values; a zero comes out as +0.0."""
    return np.subtract(v, np.minimum(np.maximum(v, -thr), thr), out=out)


@dataclass(frozen=True)
class Quadratic:
    """v -> (1/2) v'Pv + q'v + c with symmetric positive semidefinite P.

    P is accepted when it passes :func:`linalg.is_psd`, which allows an
    asymmetry within :data:`linalg.PSD_TOL`; it is then stored exactly
    symmetric, its upper triangle mirrored onto the lower, so every reader
    and the instance file's packed upper triangle see the same matrix."""

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
        upper = linalg.upper_triangle(q.shape[0])
        P.T[upper] = P[upper]
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
    def _p_inverse(self):
        """The factor of P when P factors and its eigenvalues all clear
        numpy's rank cutoff dim*eps*max|eig|, else (P^+, N): P^+ with every
        eigenvalue under the cutoff, negative ones too, taken as zero, and N
        the projector onto the eigenvectors so dropped."""
        cutoff = self.dim * np.finfo(float).eps
        with contextlib.suppress(NotPositiveDefiniteError), np.errstate(over="ignore"):
            fac = linalg.SpdFactor(self.P)
            # a cheap proof: trace(P^-1) >= 1/min eig and ||P||_1 >= max eig
            # (an overflow makes it inf and sends P to the eigenvalues)
            if fac.inv_trace() * cutoff * np.linalg.norm(self.P, 1) < 1.0:
                return fac
        scale = float(np.max(np.abs(self.P))) or 1.0  # eigh(P / scale) cannot overflow
        lam, V = np.linalg.eigh(self.P / scale)
        keep = lam > cutoff * np.max(np.abs(lam))
        R, N = V[:, keep], V[:, ~keep]
        return (R / lam[keep]) @ R.T / scale, N @ N.T

    def _half_pinv_sq(self, r, u):
        """(1/2) r'P^+r for each row of r, and +inf on the rows where u - q
        leaves the range of P, the domain of the conjugate.  When P factors
        it is computed as (1/2)||L^-1 r||^2, never negative or +inf."""
        inv = self._p_inverse
        if isinstance(inv, linalg.SpdFactor):
            return 0.5 * inv.inv_norm_sq(r.T)
        pinv, null = inv
        w = u - self.q
        d = w @ null.T
        in_range = np.sqrt(np.vecdot(d, d)) <= _RANGE_TOL * (1.0 + np.sqrt(np.vecdot(w, w)))
        return np.where(in_range, 0.5 * np.vecdot(r, r @ pinv.T), math.inf)

    def conjugate(self, u):
        """sup_v <u,v> - value(v): (1/2) w'P^+w - c with w = u - q when w
        lies in the range of P, and +inf otherwise."""
        u = linalg.as_rows(u, self.dim, "u")
        return _out(self._half_pinv_sq(u - self.q, u) - self.c, u)


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
    """Least eps such that u is an eps-subgradient of F at x, that is
    F(x) + F*(u) - <u, x>, in one closed form per kind of F:

    - a quadratic: (1/2) r'P^+r with r = Px + q - u, and +inf where u - q
      leaves the range of P, so no terms of the size of F(x) cancel;
    - l1 and zero: F(x) - <u, x> where F*(u) = 0, and +inf elsewhere.

    A negative value, which only rounding can produce, is clamped to zero
    (-0.0 is kept); no gap raises.  ``u`` and ``x`` are one pair of vectors
    (returns a float) or stacks of row pairs (returns one gap per row)."""
    u = linalg.as_rows(u, F.dim, "u")
    x = linalg.as_rows(x, name="x")
    if x.shape != u.shape:
        raise ValueError(f"x has shape {x.shape}, expected {u.shape}")
    if isinstance(F, Quadratic):
        gap = F._half_pinv_sq(x @ F.P.T + F.q - u, u)
    else:
        conj, val, pairing = F.conjugate(u), F.value(x), np.vecdot(u, x)
        with np.errstate(invalid="ignore"):  # inf - inf where u is outside dom F*
            gap = np.where(np.isinf(conj), math.inf, val - pairing)
    return _out(np.where(gap < 0.0, 0.0, gap), u)
