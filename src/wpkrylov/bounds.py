"""Convergence-bound quantities for the weighted, preconditioned solvers.

Everything here is desk scale: operators are densified (dimension cap in
:mod:`wpkrylov.linalg`) and handled with dense factorizations.  The
bound report densifies the preconditioner H once, as one blocked
application to the identity when its operator has a block action (the
Schwarz preconditioners do); when the weight W is found to equal H, that
matrix and its one Cholesky factor serve for W as well.  Only eigenvalues
are computed, never eigenvectors.  The reported per-iteration
contraction factors are

* bound1: from the infimum of the normalized quadratic-form quotient of
  the preconditioned operator in the weighted geometry (the sharpest of
  the three, valid for any nonsingular preconditioner),
* bound2: the product-of-infima form available when the preconditioner
  is SPD and also the inner-product weight,
* bound3: the split into the preconditioned-symmetric-part condition
  number and the skewness measure rho, additionally requiring a positive
  definite symmetric part.

With C the whitened preconditioned operator, S = sym(C) and K = C^T C,
two quantities are exact without a search in n dimensions.  The
distance of the numerical range of C from zero is a closed form in the
extreme eigenvalues of S.  The infimum behind bound1 equals, by duality, the maximum over t >= 0
of the concave smallest eigenvalue of t S - t^2 K / 4, a search in one
variable.  There is no duality gap because the joint range of the two
quadratic forms is convex (Toeplitz-Hausdorff; for real vectors
Brickman, Proc. AMS 12 (1961) 61-66).  See K. Gustafson, *Antieigenvalue
Analysis* (World Scientific 2012) for the quotient, and Eisenstat, Elman
and Schultz (SIAM J. Numer. Anal. 20, 1983) for the one-step GCR bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg
import scipy.optimize

from .linalg import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    cholesky,
    densify,
    gen_sym_eig,
    sym_eig,
)
from .weighting import PreconditionerHandle, WeightOperator

__all__ = [
    "HermitianSplit",
    "BoundReport",
    "split",
    "spectral_radius_skew",
    "fov_distance",
    "weighted_operator_norm",
    "compute_bound_report",
    "johnson_identity_check",
    "analytic_rho_bound",
]

# bound1 is computed up to this dimension.  Its dual search costs one
# smallest-eigenvalue solve per step: at n = 841, the size of the m = 30
# two-level report, 26 solves of 0.03 s would about double the report.
RAYLEIGH_DIM_LIMIT = 512


@dataclass
class HermitianSplit:
    """Symmetric part and skew-symmetric part of a real operator."""

    m_part: np.ndarray
    n_part: np.ndarray

    def __post_init__(self):
        self.m_part = np.asarray(self.m_part, dtype=float)
        self.n_part = np.asarray(self.n_part, dtype=float)
        if self.m_part.shape != self.n_part.shape or self.m_part.ndim != 2:
            raise ValueError("split parts must be square matrices of equal shape")

    @property
    def dim(self) -> int:
        return self.m_part.shape[0]


def split(a) -> HermitianSplit:
    """Split a (densifiable) operator into symmetric and skew parts."""
    dense = densify(a)
    return HermitianSplit(m_part=0.5 * (dense + dense.T), n_part=0.5 * (dense - dense.T))


def spectral_radius_skew(hs: HermitianSplit) -> float:
    """Spectral radius of M^{-1} N for the split A = M + N, M SPD.

    The eigenvalues of M^{-1} N are purely imaginary pairs; their largest
    modulus equals the largest singular value of L^{-1} N L^{-T} where
    M = L L^T, which keeps all arithmetic real and symmetric.
    """
    factor = cholesky(hs.m_part)
    y = scipy.linalg.solve_triangular(factor.lower, hs.n_part, lower=True)
    c = scipy.linalg.solve_triangular(factor.lower, y.T, lower=True).T
    return _spectral_norm(c)


def _spectral_norm(c: np.ndarray) -> float:
    """Largest singular value, from the eigenvalues of C^T C."""
    gram = c.T @ c
    vals = sym_eig(0.5 * (gram + gram.T), vectors=False)
    return float(np.sqrt(max(vals[-1], 0.0)))


def _whiten(b_dense: np.ndarray, w_factor: CholeskyFactor) -> np.ndarray:
    """Map B to L^T B L^{-T} with W = L L^T, turning W-geometry Euclidean."""
    y = scipy.linalg.solve_triangular(w_factor.lower, b_dense.T, lower=True).T
    return w_factor.lower.T @ y


def _whitened(b, w: WeightOperator) -> np.ndarray:
    b_dense = densify(b)
    return b_dense if w.is_identity else _whiten(b_dense, cholesky(densify(w)))


def fov_distance(b, w: WeightOperator) -> float:
    """Distance from zero to the W-numerical range of a real operator.

    The range is the set of W-Rayleigh quotients over complex vectors,
    that of C = L^T B L^{-T} (W = L L^T).  It is convex and, C being
    real, symmetric about the real axis, so its point nearest zero is
    real; it meets the real axis in [lambda_min(S), lambda_max(S)] with
    S = sym(C).  The distance is therefore 0 when that interval holds
    zero, and max(lambda_min(S), -lambda_max(S)) otherwise -- exact, with
    no search over rotation angles.
    """
    c = _whitened(b, w)
    return _min_abs_over_range(sym_eig(0.5 * (c + c.T), vectors=False))


def weighted_operator_norm(b, w: WeightOperator) -> float:
    """Operator norm induced by the W-norm."""
    return _spectral_norm(_whitened(b, w))


def _min_normalized_quotient(c: np.ndarray, s_vals: np.ndarray) -> float:
    """Infimum over y of (y^T S y)^2 / (||C y||^2 ||y||^2), S = sym(C),
    given the eigenvalues of S.

    The quotient is unchanged by C -> -C, so a negative definite S is
    handled as -S; when [lambda_min, lambda_max] holds zero, some y has
    y^T S y = 0 and the infimum is 0.  Otherwise it is exactly the
    maximum over t >= 0 of the concave phi(t) = lambda_min(t S - t^2 K / 4),
    K = C^T C.  With u = y^T S y and v = ||C y||^2 for a unit y,
    u^2/v >= t u - t^2 v / 4 for every t, with equality at t = 2u/v, so
    phi(t) never exceeds the quotient.  The maximum of phi is the
    infimum of the convex u^2/v over the convex hull of the joint range
    of (u, v).  For n >= 3 that range is convex itself (Brickman 1961).
    For n = 2 it is an ellipse, and its hull adds only interior points,
    where u^2/v > 0 has no minimum.  The maximizer is t* = 2u/v at the
    minimizing y, and t* <= 2/sigma_min(C) <= 2/lambda_min(S) brackets
    the bounded scalar search.
    """
    d = _min_abs_over_range(s_vals)
    if d == 0.0:
        return 0.0
    s_mat = math.copysign(0.5, s_vals[0]) * (c + c.T)
    k_mat = c.T @ c

    def neg_phi(t):
        m = t * s_mat - (0.25 * t * t) * k_mat
        return -scipy.linalg.eigvalsh(m, subset_by_index=[0, 0])[0]

    # no absolute tolerance: the search stops on its relative step
    # sqrt(eps) * t, since t* may lie far inside the bracket
    res = scipy.optimize.minimize_scalar(neg_phi, bounds=(0.0, 2.0 / d), method="bounded",
                                         options={"xatol": 0.0})
    return float(np.clip(-res.fun, 0.0, 1.0))


@dataclass
class BoundReport:
    """Computed bound inputs and the three per-iteration contraction factors.

    Fields a given preconditioner/weight combination cannot support are
    left as None rather than failing the whole report.
    """

    lambda_min: float | None = None
    lambda_max: float | None = None
    kappa: float | None = None
    rho: float | None = None
    fov_distance: float | None = None
    op_norm: float | None = None
    bound1: float | None = None
    bound2: float | None = None
    bound3: float | None = None
    alpha_analytic: float | None = None

    def predicted_iterations(self, target: float = 1e-6) -> int | None:
        """Iterations after which bound3^i drops below the target ratio."""
        if self.bound3 is None or self.bound3 >= 1.0:
            return None
        if self.bound3 <= 0.0:
            return 1
        return int(math.ceil(math.log(target) / math.log(self.bound3)))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "BoundReport":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


def direct_bound3(kappa: float, rho: float) -> float:
    """Contraction factor from a known condition number and skewness measure."""
    if kappa < 1.0:
        raise ValueError("condition number must be >= 1")
    value = 1.0 - (1.0 / kappa) / (1.0 + rho * rho)
    return float(np.sqrt(np.clip(value, 0.0, 1.0)))


def _operators_match(first, second, dim: int, probes: int = 8) -> bool:
    rng = np.random.default_rng(0xD1FF)
    for _ in range(probes):
        v = rng.standard_normal(dim)
        fv = first(v)
        sv = second(v)
        scale = max(np.linalg.norm(fv), np.linalg.norm(sv), 1e-300)
        if np.linalg.norm(fv - sv) > 1e-12 * scale:
            return False
    return True


def compute_bound_report(a, h: PreconditionerHandle, w: WeightOperator) -> BoundReport:
    """Evaluate every bound quantity the given (A, H, W) triple supports.

    bound1 needs only an SPD weight; bound2 additionally requires the
    preconditioner to be SPD and equal to the weight; bound3 also needs
    the symmetric part of A to be positive definite.  Whether W equals H
    is decided by probing both on random vectors; when it does, H is the
    only one of the two that is densified and factored.
    """
    a_dense = densify(a)
    n = a_dense.shape[0]
    w_is_h = _operators_match(h.apply, w.apply, n)
    h_dense = densify(h)
    report = BoundReport()

    b_dense = a_dense @ h_dense
    w_factor = None
    if not w.is_identity:
        w_factor = cholesky(h_dense if w_is_h else densify(w))
    c = b_dense if w_factor is None else _whiten(b_dense, w_factor)

    s_vals = sym_eig(0.5 * (c + c.T), vectors=False)
    report.fov_distance = _min_abs_over_range(s_vals)  # closed form, see fov_distance
    report.op_norm = _spectral_norm(c)
    if n <= RAYLEIGH_DIM_LIMIT:
        inf_quotient = _min_normalized_quotient(c, s_vals)
        report.bound1 = float(np.sqrt(1.0 - inf_quotient))

    if not (h.hermitian_flag and w_is_h):
        return report
    if w_factor is not None:
        h_factor = w_factor  # W = H: the whitening factor is the factor of H
    else:
        try:
            h_factor = cholesky(h_dense)
        except NotPositiveDefiniteError:
            return report
    hs = split(a_dense)
    lh = h_factor.lower
    hm = lh.T @ hs.m_part @ lh
    hm_eigs = sym_eig(0.5 * (hm + hm.T), vectors=False)
    report.lambda_min = float(hm_eigs[0])
    report.lambda_max = float(hm_eigs[-1])
    if hm_eigs[0] > 0.0:
        report.kappa = float(hm_eigs[-1] / hm_eigs[0])

    # second estimate: product of the two generalized infima
    try:
        a_inv = np.linalg.inv(a_dense)
    except np.linalg.LinAlgError:
        a_inv = None
    if a_inv is not None:
        m_of_inv = 0.5 * (a_inv + a_inv.T)
        inv_eigs = gen_sym_eig(m_of_inv, h_factor)
        inf1 = _min_abs_over_range(inv_eigs)
        inf2 = _min_abs_over_range(hm_eigs)
        report.bound2 = float(np.sqrt(np.clip(1.0 - inf1 * inf2, 0.0, 1.0)))

    try:
        report.rho = spectral_radius_skew(hs)
    except NotPositiveDefiniteError:
        report.rho = None
    if report.rho is not None and report.kappa is not None:
        report.bound3 = direct_bound3(report.kappa, report.rho)
    return report


def _min_abs_over_range(eigs: np.ndarray) -> float:
    """Infimum of |t| over the interval spanned by the eigenvalues."""
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0 <= hi:
        return 0.0
    return min(abs(lo), abs(hi))


def johnson_identity_check(hs: HermitianSplit, a_inv) -> tuple[float, float]:
    """Both sides of the identity linking the split of A and of A^{-1}.

    Returns (lhs, rhs): the smallest generalized eigenvalue of the
    pencil (sym part of A^{-1}, inverse of sym part of A), and
    1 / (1 + rho^2).  For positive definite A the two agree.
    """
    a_inv = np.asarray(a_inv, dtype=float)
    factor = cholesky(hs.m_part)
    m_inverse = factor.solve(np.eye(hs.dim))
    m_of_inv = 0.5 * (a_inv + a_inv.T)
    eigs = gen_sym_eig(m_of_inv, 0.5 * (m_inverse + m_inverse.T))
    rho = spectral_radius_skew(hs)
    return float(eigs[0]), float(1.0 / (1.0 + rho * rho))


def _central_divergence(a_field, x: float, y: float, step: float = 1e-6) -> float:
    ax_p = a_field(x + step, y)[0]
    ax_m = a_field(x - step, y)[0]
    ay_p = a_field(x, y + step)[1]
    ay_m = a_field(x, y - step)[1]
    return float((ax_p - ax_m) / (2 * step) + (ay_p - ay_m) / (2 * step))


def _coeff_at(coeff, x: float, y: float) -> float:
    return float(coeff(x, y)) if callable(coeff) else float(coeff)


def analytic_rho_bound(problem) -> float:
    """Mesh-independent upper bound on the skewness measure of the
    convection-diffusion-reaction operator.

    Evaluates half the sup-norm of the convection field divided by the
    square root of inf(nu) * inf(c0 + div(a)/2), sampling the suprema and
    infima over the mesh vertices plus the four domain corners.  The
    divergence is obtained by central differences on the coefficient
    callbacks.
    """
    m = problem.mesh_divisions
    pts = [(i / m, j / m) for j in range(m + 1) for i in range(m + 1)]
    pts += [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    a_max = 0.0
    nu_inf = math.inf
    c_inf = math.inf
    for x, y in pts:
        ax, ay = problem.a_field(x, y)
        a_max = max(a_max, math.hypot(float(ax), float(ay)))
        nu_inf = min(nu_inf, _coeff_at(problem.nu, x, y))
        # interior divergence sample; nudge boundary points inward
        xi = min(max(x, 1e-5), 1.0 - 1e-5)
        yi = min(max(y, 1e-5), 1.0 - 1e-5)
        c_inf = min(
            c_inf,
            _coeff_at(problem.c0, x, y) + 0.5 * _central_divergence(problem.a_field, xi, yi),
        )
    if nu_inf <= 0.0:
        raise ValueError("viscosity must be positive everywhere")
    if c_inf <= 0.0:
        raise ValueError("reaction plus half the convection divergence must be positive")
    if a_max == 0.0:
        return 0.0
    return 0.5 * a_max / math.sqrt(nu_inf * c_inf)
