"""Weighted, preconditioned GCR/GMRES solvers with convergence-bound
estimators, additive Schwarz preconditioning and a convection-diffusion-
reaction finite element testbed."""

from .bounds import (
    BoundReport,
    HermitianSplit,
    compute_bound_report,
    fov_distance,
    spectral_radius_skew,
    split,
)
from .cdr import (
    AssembledCdr,
    CdrProblemSpec,
    StructuredMesh,
    analytic_rho_bound,
    assemble,
    build_mesh,
    reference_problem,
)
from .linalg import (
    CholeskyFactor,
    LinearOperator,
    NotPositiveDefiniteError,
    SingularMatrixError,
    cholesky,
    gen_sym_eig,
    sym_eig,
)
from .schwarz import (
    PartitionSpec,
    SchwarzPreconditioner,
    SubdomainMaps,
    build_partition,
    build_preconditioner,
)
from .solvers import (
    IterationTrace,
    LinearSystem,
    SolveConfig,
    SolveResult,
    gmres_arnoldi_oracle,
    whp_gcr,
    wp_gcr_left,
    wp_gcr_right,
)
from .weighting import (
    InvalidWeightError,
    NotHermitianPreconditionerError,
    PreconditionerHandle,
    WeightOperator,
)

__version__ = "0.1.0"
