"""Weighted, preconditioned GCR/GMRES solvers with convergence-bound
estimators, additive Schwarz preconditioning and a convection-diffusion-
reaction finite element testbed."""

from .bounds import (
    BoundReport,
    HermitianSplit,
    analytic_rho_bound,
    compute_bound_report,
    fov_distance,
    johnson_identity_check,
    spectral_radius_skew,
    split,
    weighted_operator_norm,
)
from .cdr import AssembledCdr, CdrProblemSpec, StructuredMesh, assemble, build_mesh, reference_problem
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
    build_coarse_space,
    build_partition,
    build_preconditioner,
    condition_number,
)
from .solvers import (
    IterationTrace,
    LinearSystem,
    SolveConfig,
    SolveResult,
    gmres_arnoldi_oracle,
    whp_gcr,
    whp_gcr_alt_a,
    whp_gcr_alt_b,
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
