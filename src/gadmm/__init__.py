"""Relaxed proximal ADMM with per-iteration numerical convergence certificates.

The solver handles linearly constrained separable convex problems

    min f(x) + g(y)   subject to   A x + B y = b

with a relaxation factor alpha in (0, 2], a penalty beta > 0, and
optional proximal weights (including the linearized mode that reduces
each subproblem to a single proximal step).  The certificate modules
re-derive, on a recorded trajectory, every inequality the method is
supposed to satisfy: the inexact proximal-point conditions in the block
seminorm, the pointwise O(1/sqrt(k)) bound, and the ergodic O(1/k)
bounds including the extreme relaxation alpha = 2.
"""

from .certificates import VerificationReport, ergodic_certificate, full_verification
from .errors import CertificationError
from .hpe import Replay, certify_hpe
from .problems import generate_lasso
from .solver import GadmmParams, LinearizedH, run

__all__ = [
    "CertificationError",
    "GadmmParams",
    "LinearizedH",
    "Replay",
    "VerificationReport",
    "certify_hpe",
    "ergodic_certificate",
    "full_verification",
    "generate_lasso",
    "run",
]

__version__ = "0.1.0"
