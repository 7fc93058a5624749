"""Dense linear algebra: seminorms, SPD solves, spectral norms, and a PSD
probe that passes a symmetric matrix iff its smallest eigenvalue exceeds
-PSD_TOL * max(1, max|diag|), so matrices a little below zero pass too.

Everything is desk scale: dense numpy arrays and one direct factorization
per kernel (Cholesky or SVD), no sparsity and no iterative methods.  All
operations are pure functions and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError

# Absolute floor for symmetry / positive-semidefiniteness probes.  All
# downstream certificate checks budget at least 1e-6 of slack, two orders
# above the noise these tolerances admit.
PSD_TOL = 1e-9


def as_vector(v, dim=None, name="vector") -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    out = np.asarray(v, dtype=float)
    if out.ndim == 0:
        out = out.reshape(1)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    if dim is not None and out.shape[0] != dim:
        raise ValueError(f"{name} has length {out.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


def as_rows(v, dim=None, name="vector") -> np.ndarray:
    """Coerce to one 1-D float vector or a 2-D stack of row vectors,
    optionally checking the row length.  Finiteness is not checked: data
    is checked once, where it enters the package."""
    out = np.asarray(v, dtype=float)
    if out.ndim == 0:
        out = out.reshape(1)
    if out.ndim > 2:
        raise ValueError(f"{name} must be a vector or a stack of rows, got shape {out.shape}")
    if dim is not None and out.shape[-1] != dim:
        raise ValueError(f"{name} has length {out.shape[-1]}, expected {dim}")
    return out


def as_matrix(a, rows=None, cols=None, name="matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, optionally checking its shape."""
    out = np.asarray(a, dtype=float)
    if out.ndim == 0:
        out = out.reshape(1, 1)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if rows is not None and out.shape[0] != rows:
        raise ValueError(f"{name} has {out.shape[0]} rows, expected {rows}")
    if cols is not None and out.shape[1] != cols:
        raise ValueError(f"{name} has {out.shape[1]} columns, expected {cols}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


@np.errstate(over="ignore")  # entries near the float limit: an infinite gap fails
def is_symmetric(Q) -> bool:
    Q = as_matrix(Q)
    if Q.shape[0] != Q.shape[1]:
        return False
    gap = float(np.max(np.abs(Q - Q.T), initial=0.0))
    return gap <= PSD_TOL * (1.0 + float(np.max(np.abs(Q), initial=0.0)))


def is_psd(Q) -> bool:
    """Probe positive semidefiniteness: a square, symmetric ``Q`` passes iff
    ``Q + floor*I`` has a Cholesky factor, ``floor = PSD_TOL * max(1,
    max|diag Q|)``, that is iff ``lambda_min(Q) > -floor`` up to rounding,
    so a matrix with ``lambda_min`` in ``(-floor, 0)`` passes as well.

    When ``max|Q| >= 2``, ``Q`` and the floor are first scaled by ``2**-e``,
    ``e`` the even number that brings ``max|Q|`` into ``[0.5, 2)``, so
    ``Q + floor*I`` cannot overflow.  An even power of two scales every
    step of the factorization exactly, barring underflow, so the scaling
    changes no verdict below the float limit.
    """
    Q = as_matrix(Q)
    if not is_symmetric(Q):
        return False
    floor = PSD_TOL * max(1.0, float(np.max(np.abs(np.diag(Q)), initial=0.0)))
    e = 2 * (max(math.frexp(float(np.abs(Q).max(initial=0.0)))[1], 0) // 2)
    shifted = np.ldexp(Q, -e)
    shifted.flat[:: Q.shape[0] + 1] += math.ldexp(floor, -e)  # the diagonal
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class PsdOperator:
    """A validated symmetric positive semidefinite matrix."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, mat, name="operator") -> "PsdOperator":
        mat = as_matrix(mat, name=name)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"{name} must be square, got shape {mat.shape}")
        if not is_psd(mat):
            if not is_symmetric(mat):
                raise NotPositiveDefiniteError(f"{name} is not symmetric")
            raise NotPositiveDefiniteError(f"{name} is not positive semidefinite")
        mat = mat.copy()
        mat.setflags(write=False)
        return cls(mat)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    def seminorm_sq(self, v):
        return seminorm_sq(self, v)


def seminorm_sq(Q, v):
    """Squared seminorm <Qv, v> induced by a symmetric PSD Q.

    ``v`` is one vector (returns a float) or a stack of row vectors
    (returns one value per row).  Tiny negative values from rounding are
    clamped to zero.  A negative value beyond the rounding band is
    returned as-is: it means Q was not PSD after all, and the caller's
    probes are expected to catch that.  A stack is one matrix product
    ``v @ Q.T``, so its rows can differ from one-vector calls by rounding.
    """
    Q = Q.matrix if isinstance(Q, PsdOperator) else as_matrix(Q, name="Q")
    if Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    v = as_rows(v, dim=Q.shape[0], name="v")
    val = np.vecdot(v, v @ Q.T)
    neg = val < 0.0
    if np.any(neg):
        qscale = 1.0 + (float(np.max(np.abs(Q))) if Q.size else 0.0)
        band = PSD_TOL * (1.0 + np.vecdot(v, v) * qscale)
        val = np.where(neg & (val >= -band), 0.0, val)
    return float(val) if v.ndim == 1 else val


class SpdFactor:
    """A symmetric positive definite matrix K = L L^T, kept as the inverse
    L^-1 of its Cholesky factor.

    Refuses (raises) on non-PD input instead of regularizing: a silently
    perturbed subproblem would invalidate the certificate checks downstream.
    """

    def __init__(self, K, name="system matrix"):
        K = as_matrix(K, name=name)
        if K.shape[0] != K.shape[1]:
            raise ValueError(f"{name} must be square, got shape {K.shape}")
        if not is_symmetric(K):
            raise NotPositiveDefiniteError(f"{name} is not symmetric")
        try:
            self._L_inv = np.linalg.inv(np.linalg.cholesky(K))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"{name} is not positive definite (subproblem not strictly convex)"
            ) from exc
        self.side = K.shape[0]

    def solve(self, rhs) -> np.ndarray:
        """Solve for one right-hand side, or for each column of a (side, k) block.

        ``u = L^-T (L^-1 rhs)``, two matrix products.  It runs while the
        engine builds its stage maps, not per iteration.  Only the shape is
        checked: a non-finite right-hand side gives a non-finite solution,
        which the engine's check of its stage maps reports.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 0:
            rhs = rhs.reshape(1)
        if rhs.ndim > 2 or rhs.shape[0] != self.side:
            raise ValueError(f"right-hand side has shape {rhs.shape}, expected {self.side} rows")
        # np.dot: the products of @, with less call overhead
        return np.dot(self._L_inv.T, np.dot(self._L_inv, rhs))

    def inv_norm_sq(self, rhs):
        """rhs' K^-1 rhs for one vector, or for each column of a (side, k)
        block, computed as ||L^-1 rhs||^2 and so never negative."""
        w = np.dot(self._L_inv, np.asarray(rhs, dtype=float))
        return (w * w).sum(axis=0)


def spectral_norm_sq(A) -> float:
    """Squared spectral norm ||A||_2^2, the largest singular value of A
    (from its SVD) squared."""
    A = as_matrix(A, name="A")
    if A.size == 0:
        raise ValueError("A must be nonempty")
    norm = float(np.linalg.norm(A, 2))
    return norm * norm  # inf past the float limit, where ** would raise OverflowError
