"""Dense linear algebra: seminorms, SPD solves, spectral norms, and a PSD
probe that passes a symmetric matrix iff its smallest eigenvalue exceeds
-PSD_TOL * max(1, max|diag|), so matrices a little below zero pass too.

Everything is desk scale: dense numpy arrays and one direct factorization
per kernel (Cholesky or SVD), no sparsity and no iterative methods.  All
operations are pure functions and never mutate their inputs.
"""

from __future__ import annotations

import functools
import math

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


@functools.cache
def upper_triangle(dim):
    """The boolean mask of the upper triangle of a dim x dim matrix, made
    once per dimension and read-only.  ``Q[mask]`` lists the triangle row
    by row, the packed order of a symmetric matrix, and ``Q.T[mask] = v``
    writes such a list into the lower triangle."""
    mask = np.triu(np.ones((dim, dim), dtype=bool))
    mask.setflags(write=False)
    return mask


@np.errstate(over="ignore")  # entries near the float limit: an infinite gap fails
def is_symmetric(Q) -> bool:
    Q = as_matrix(Q)
    if Q.shape[0] != Q.shape[1]:
        return False
    gap = float(np.max(np.abs(Q - Q.T), initial=0.0))
    return gap <= PSD_TOL * (1.0 + float(np.max(np.abs(Q), initial=0.0)))


def is_psd(Q, floor=None) -> bool:
    """Probe positive semidefiniteness: a square, symmetric ``Q`` passes iff
    ``Q + floor*I`` has a Cholesky factor, ``floor = PSD_TOL * max(1,
    max|diag Q|)``, that is iff ``lambda_min(Q) > -floor`` up to rounding,
    so a matrix with ``lambda_min`` in ``(-floor, 0)`` passes as well.
    A diagonal block is probed at its block-diagonal matrix's ``floor``.

    When ``max|Q| >= 2``, ``Q`` and the floor are first scaled by ``2**-e``,
    ``e`` the even number that brings ``max|Q|`` into ``[0.5, 2)``, so
    ``Q + floor*I`` cannot overflow.  An even power of two scales every
    step of the factorization exactly, barring underflow, so the scaling
    changes no verdict below the float limit.
    """
    Q = as_matrix(Q)
    if not is_symmetric(Q):
        return False
    if floor is None:
        floor = PSD_TOL * max(1.0, float(np.max(np.abs(np.diag(Q)), initial=0.0)))
    e = 2 * (max(math.frexp(float(np.abs(Q).max(initial=0.0)))[1], 0) // 2)
    shifted = np.ldexp(Q, -e)
    shifted.flat[:: Q.shape[0] + 1] += math.ldexp(floor, -e)  # the diagonal
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def seminorm_sq(Q, v):
    """Squared seminorm <Qv, v> of a symmetric PSD matrix Q, for one vector or
    each row of a stack (:func:`clamp_rounding`).  A stack is one product
    ``v @ Q.T``, so its rows can differ from one-vector calls by rounding."""
    Q = as_matrix(Q, name="Q")
    if Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    v = as_rows(v, dim=Q.shape[0], name="v")
    return clamp_rounding(np.vecdot(v, v @ Q.T), v, 1.0 + float(np.max(np.abs(Q), initial=0.0)))


def clamp_rounding(val, v, qscale):
    """The values ``val`` of <Qv, v> (a float for one vector ``v``), those in
    ``[-band, 0)`` set to zero: ``band = PSD_TOL * (1 + |v|^2 qscale)``, ``qscale = 1 + max|Q|``.
    A value below ``-band`` means Q is not PSD; it is kept for the probes to catch."""
    neg = val < 0.0
    if neg.any():  # the method: np.any costs more than the rest on one vector
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
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"{name} is not positive definite (subproblem not strictly convex)"
            ) from exc
        self._L_inv, self.side = np.linalg.inv(L), K.shape[0]

    @classmethod
    def of_cholesky(cls, L):
        """The factor of K = L L^T, from a lower Cholesky factor ``L`` that
        the caller has already computed, unchecked."""
        fac = cls.__new__(cls)
        fac._L_inv, fac.side = np.linalg.inv(L), L.shape[0]
        return fac

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

    def inv_trace(self) -> float:
        """trace(K^-1) = ||L^-1||_F^2."""
        return float(np.vdot(self._L_inv, self._L_inv))

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
