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

from .certificates import (
    VerificationReport,
    bound_constants,
    bound_table,
    ergodic_certificate,
    full_verification,
    pointwise_certificate,
)
from .errors import (
    CertificationError,
    ConfigError,
    DivergenceError,
    GadmmError,
    InternalCheckError,
    IterationLimitError,
    NotPositiveDefiniteError,
)
from .hpe import (
    Replay,
    ReportRow,
    build_metric,
    certify_hpe,
    check_delta_inequalities,
    check_fejer,
    check_rho_bound,
    metric_for,
    rho_sequence,
    sigma_alpha,
)
from .oracles import L1, Quadratic, Zero, fenchel_gap
from .problems import (
    KktPoint,
    SeparableInstance,
    generate_lasso,
    generate_qp,
    kkt_gap,
    load_instance,
    save_instance,
    solve_ground_truth,
)
from .solver import (
    ExplicitH,
    GadmmParams,
    LinearizedH,
    Trajectory,
    ZeroH,
    load_trajectory_csv,
    run,
    save_trajectory_csv,
)

__all__ = [
    "CertificationError",
    "ConfigError",
    "DivergenceError",
    "ExplicitH",
    "GadmmError",
    "GadmmParams",
    "InternalCheckError",
    "IterationLimitError",
    "KktPoint",
    "L1",
    "LinearizedH",
    "NotPositiveDefiniteError",
    "Quadratic",
    "Replay",
    "ReportRow",
    "SeparableInstance",
    "Trajectory",
    "VerificationReport",
    "Zero",
    "ZeroH",
    "bound_constants",
    "bound_table",
    "build_metric",
    "certify_hpe",
    "check_delta_inequalities",
    "check_fejer",
    "check_rho_bound",
    "ergodic_certificate",
    "fenchel_gap",
    "full_verification",
    "generate_lasso",
    "generate_qp",
    "kkt_gap",
    "load_instance",
    "load_trajectory_csv",
    "metric_for",
    "pointwise_certificate",
    "rho_sequence",
    "run",
    "save_instance",
    "save_trajectory_csv",
    "sigma_alpha",
    "solve_ground_truth",
]

__version__ = "0.1.0"
