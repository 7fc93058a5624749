"""Dense linear algebra: seminorms, SPD solves, spectral norms, and PSD
probes by LAPACK's pivoted Cholesky with an explicit Schur-complement tail.

Everything is desk scale: dense numpy arrays and direct factorizations,
no sparsity, no Krylov methods.  All operations are pure functions and
never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.lapack import dpotrs, dpstrf

from .errors import InternalCheckError, IterationLimitError, NotPositiveDefiniteError

# Absolute floor for symmetry / positive-semidefiniteness probes.  All
# downstream certificate checks budget at least 1e-6 of slack, two orders
# above the noise these tolerances admit.
PSD_TOL = 1e-9

# Relative residual required from direct SPD solves.
SOLVE_TOL = 1e-10


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


def symmetry_gap(Q) -> float:
    Q = np.asarray(Q, dtype=float)
    if Q.size == 0:
        return 0.0
    return float(np.max(np.abs(Q - Q.T)))


def _is_symmetric(Q, tol) -> bool:
    """:func:`is_symmetric` on an array :func:`as_matrix` has already checked."""
    if Q.shape[0] != Q.shape[1]:
        return False
    scale = 1.0 + (float(np.max(np.abs(Q))) if Q.size else 0.0)
    return symmetry_gap(Q) <= tol * scale


def is_symmetric(Q, tol=PSD_TOL) -> bool:
    return _is_symmetric(as_matrix(Q), tol)


def is_psd(Q, tol=PSD_TOL) -> bool:
    """Probe positive semidefiniteness with LAPACK's pivoted Cholesky ``dpstrf``.

    A non-square or asymmetric ``Q`` fails.  Otherwise ``dpstrf`` factors
    with diagonal pivoting (the largest remaining pivot first) and stops
    when that pivot is ``<= floor``, ``floor = tol * max(1, max|diag Q|)``.
    ``dpstrf`` does not return the block left unfactored, so its Schur
    complement ``S = Q[t, t] - L21 L21'`` is formed here from the pivot
    order ``t`` of the remaining rows and their factor rows ``L21``.  The
    matrix passes iff ``min(diag S) >= -floor`` and ``max|S| <= 10 floor``,
    which for a PSD matrix must hold; a full-rank factorization passes.
    Ref: Hammarling, Higham & Lucas, "LAPACK-style codes for pivoted
    Cholesky and QR updating" (2007).
    """
    if not tol >= 0:
        # dpstrf reads a negative tol as "use the LAPACK default"
        raise ValueError(f"tol must be nonnegative, got {tol}")
    Q = as_matrix(Q)
    if not _is_symmetric(Q, tol):
        return False
    floor = tol * max(1.0, float(np.max(np.abs(np.diag(Q)), initial=0.0)))
    factor, piv, rank, info = dpstrf(Q, tol=floor, lower=1)
    if info < 0:
        raise InternalCheckError(f"dpstrf rejected its argument {-info}")
    if rank == Q.shape[0]:
        return True
    tail = piv[rank:] - 1
    L21 = factor[rank:, :rank]
    S = Q[np.ix_(tail, tail)] - L21 @ L21.T
    return float(np.min(np.diag(S))) >= -floor and float(np.max(np.abs(S))) <= 10.0 * floor


@dataclass(frozen=True)
class PsdOperator:
    """A validated symmetric positive semidefinite matrix."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, mat, tol=PSD_TOL, name="operator") -> "PsdOperator":
        mat = as_matrix(mat, name=name)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"{name} must be square, got shape {mat.shape}")
        if not is_psd(mat, tol):
            if not is_symmetric(mat, tol):
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


def _unwrap(Q) -> np.ndarray:
    return Q.matrix if isinstance(Q, PsdOperator) else as_matrix(Q, name="Q")


def seminorm_sq(Q, v):
    """Squared seminorm <Qv, v> induced by a symmetric PSD Q.

    ``v`` is one vector (returns a float) or a stack of row vectors
    (returns one value per row).  Tiny negative values from rounding are
    clamped to zero.  A negative value beyond the rounding band is
    returned as-is: it means Q was not PSD after all, and the caller's
    probes are expected to catch that.  A stack is one matrix product
    ``v @ Q.T``, so its rows can differ from one-vector calls by rounding.
    """
    Q = _unwrap(Q)
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
    """Cached Cholesky factorization of a symmetric positive definite matrix.

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
            self._factor, _ = cho_factor(K, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"{name} is not positive definite (subproblem not strictly convex)"
            ) from exc
        self.side = K.shape[0]

    def solve(self, rhs) -> np.ndarray:
        """Solve for one right-hand side, or for each column of a (side, k) block.

        Calls LAPACK ``dpotrs`` on the stored factor directly: the call
        ``cho_solve`` makes after its argument handling, so the result is
        the same bit for bit.  Only the shape is checked: this runs on every
        iteration, and a non-finite right-hand side gives a non-finite
        solution, which :func:`gadmm.solver.run` reports after its loop.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 0:
            rhs = rhs.reshape(1)
        if rhs.ndim > 2 or rhs.shape[0] != self.side:
            raise ValueError(f"right-hand side has shape {rhs.shape}, expected {self.side} rows")
        out, info = dpotrs(self._factor, rhs, lower=1)
        if info != 0:
            raise InternalCheckError(f"dpotrs rejected its argument {-info}")
        return out


def spectral_norm_sq(A, rel_tol=1e-8, max_iter=100_000) -> float:
    """Largest eigenvalue of AtA, by power iteration with a fixed start.

    The Rayleigh quotient along power iterates of a PSD matrix is
    nondecreasing, so stagnation of the estimate (well below ``rel_tol``)
    is a sound stopping test.  The start vector is drawn from a fixed-seed
    generator: deterministic, and almost surely not orthogonal to the
    leading eigenspace (an all-ones start can be).
    """
    A = as_matrix(A, name="A")
    if A.size == 0:
        raise ValueError("A must be nonempty")
    S = A.T @ A
    d = S.shape[0]
    v = np.random.default_rng(1789).standard_normal(d)
    v /= float(np.linalg.norm(v))
    w = S @ v
    lam = float(v @ w)
    tol = rel_tol * 1e-4
    for _ in range(max_iter):
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = S @ v
        new = float(v @ w)
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return new
        lam = new
    raise IterationLimitError("power iteration did not stabilize")
