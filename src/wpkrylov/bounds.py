"""Convergence-bound quantities for the weighted, preconditioned solvers.

Every field is an extreme eigenvalue of an operator T that is
self-adjoint in an inner product X the code can apply, found by Lanczos
with full reorthogonalization (Saad, *Iterative Methods for Sparse
Linear Systems*, 2nd ed., SIAM 2003, section 6.7.3).  A = M + N (M
symmetric, N skew) is read from the matrix its operator keeps, or from
its densified action when it keeps none.  When the weight W equals the
preconditioner H and H is symmetric positive definite -- the paper's
arrangement -- the operators are

* lambda_min and lambda_max of T = H M, with X = M or -M when either is
  positive definite (sparse factor), X = M H M otherwise;
* ||C||^2 = lambda_max of T = H A^T H A, with X = A^T H A;
* the infimum behind bound2, 1 / lambda_max of T = H A^T M^{-1} A with
  X = A^T M^{-1} A (signs taken so that X is positive definite), since
  sym(A^{-1}) = A^{-1} M A^{-T};
* rho^2 = lambda_max of T = M^{-1} N^T M^{-1} N, with X = M.

Here C = L^T A L (H = L L^T) is the preconditioned operator whitened by
W = H, and S = sym(C) = L^T M L is congruent to M.  By Sylvester's law
of inertia S is definite exactly when M is, which fixes the signs above
and makes the distance of the numerical range from zero exact.

For any other weight, C = L^T (A H) L^{-T} with W = L L^T is applied as
a map, X = I: L = I for the identity weight, else the Cholesky factor of
the densified W.  C^T applies H^T: H when H is marked symmetric, else
its transposed action; H is never densified.
The reported per-iteration contraction factors are

* bound1: from the infimum of the normalized quadratic-form quotient of
  the preconditioned operator in the weighted geometry (the sharpest of
  the three, valid for any nonsingular preconditioner),
* bound2: the product-of-infima form available when the preconditioner
  is SPD and also the inner-product weight,
* bound3: the split into the preconditioned-symmetric-part condition
  number and the skewness measure rho, additionally requiring a positive
  definite symmetric part.

With S = sym(C) and K = C^T C, two quantities are exact without a
search in n dimensions.  The distance of the numerical range of C from
zero is a closed form in the extreme eigenvalues of S.  The infimum
behind bound1 equals, by duality, the maximum over t >= 0 of the
concave smallest eigenvalue of t S - t^2 K / 4, a search in one
variable (S negated when it is negative definite: the quotient is the
same for -C).  For W = H, with F = t M - t^2 A^T H A / 4, t S - t^2 K / 4
is L^T F L = L^T (F H) L^{-T}, so the eigenvalue is the smallest of F H,
which is self-adjoint in the H inner product.  There is no duality gap
because the joint range of the two quadratic forms is convex
(Toeplitz-Hausdorff; for real vectors Brickman, Proc. AMS 12 (1961)
61-66).  See K. Gustafson, *Antieigenvalue Analysis* (World Scientific
2012) for the quotient, and Eisenstat, Elman and Schultz (SIAM J.
Numer. Anal. 20, 1983) for the one-step GCR bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

from . import cdr
from .linalg import (
    EigenSolverError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    aslinearoperator,
    check_symmetric,
    cholesky,
    densify,
    gen_sym_eig,
    sparse_lu_factor,
    sparse_spd_factor,
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

# bound1 is searched up to this dimension; above it, it is reported only
# when the numerical range holds 0 (bound1 = 1, no search).  A cost cap,
# not an accuracy limit: each step of the dual search is one Lanczos
# solve.  At n = 841 (m = 30, two-level 2x2, W = H) the search takes
# about 0.11 s against about 0.013 s for the rest of the report.
RAYLEIGH_DIM_LIMIT = 512

# Lanczos stops with EigenSolverError after this many steps unless the
# dimension is reached first, where its Ritz values are exact.
LANCZOS_STEP_LIMIT = 500
# a needed Ritz value theta_j is accepted once beta_k |s_kj| <= this * |theta_j|
_LANCZOS_RTOL = 1e-12
# a new Lanczos vector this short against the part of T v inside the
# basis is round-off: the Krylov space is invariant and its Ritz values
# are eigenvalues
_LANCZOS_INVARIANT = 1e-14
_LANCZOS_SEED = 0x1A2C
# the absolute accuracy LAPACK recommends for bisection to the most
# accurate eigenvalues: twice the smallest normal number
_BISECTION_TOL = 2.0 * np.finfo(float).tiny


def _as_part(part):
    if scipy.sparse.issparse(part):
        return scipy.sparse.csr_array(part, dtype=float)
    return np.asarray(part, dtype=float)


@dataclass
class HermitianSplit:
    """Symmetric part and skew-symmetric part of a real operator, as
    dense arrays or scipy.sparse.csr_array (any scipy.sparse input is
    converted; a float64 csr_array is kept as it is, not copied)."""

    m_part: np.ndarray | scipy.sparse.csr_array
    n_part: np.ndarray | scipy.sparse.csr_array

    def __post_init__(self):
        self.m_part = _as_part(self.m_part)
        self.n_part = _as_part(self.n_part)
        if self.m_part.shape != self.n_part.shape or self.m_part.ndim != 2:
            raise ValueError("split parts must be square matrices of equal shape")

    @property
    def dim(self) -> int:
        return self.m_part.shape[0]


def _matrix(a):
    """The matrix of an operator: a scipy.sparse matrix as it is, the
    matrix a LinearOperator was built from, or else its densified action."""
    if scipy.sparse.issparse(a):
        return a
    lin = aslinearoperator(a)
    return densify(lin) if lin.matrix is None else lin.matrix


def split(a) -> HermitianSplit:
    """Split an operator into symmetric and skew parts; they are sparse
    when it keeps a sparse matrix, dense otherwise."""
    mat = _matrix(a)
    return _split(mat, _transposed(mat))


def _split(mat, mat_t) -> HermitianSplit:
    """The split of a matrix given its transpose (:func:`_transposed`)."""
    return HermitianSplit(m_part=0.5 * (mat + mat_t), n_part=0.5 * (mat - mat_t))


def _x_norm(u: np.ndarray, xu: np.ndarray) -> float:
    """sqrt(u^T X u) given xu = X u; round-off below zero reads as 0, and
    NotPositiveDefiniteError when the value is negative beyond it."""
    square = float(u @ xu)
    if square >= 0.0:
        return math.sqrt(square)
    if square < -1e-12 * np.linalg.norm(u) * np.linalg.norm(xu):
        raise NotPositiveDefiniteError(
            pivot=-1, message="Lanczos inner product is not positive semidefinite")
    return 0.0


def _ritz_ends(alpha: np.ndarray, beta: np.ndarray, ends) -> tuple[list, list]:
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal
    ``alpha`` and off-diagonal ``beta`` at the indices ``ends`` into the
    ascending eigenvalues, and the last entry of each one's unit
    eigenvector (its sign is arbitrary), as lists of floats.

    Each value is found alone by bisection (LAPACK dstebz), and their
    vectors by one inverse iteration call (dstein): O(k) for a k x k
    matrix, where the whole eigendecomposition is O(k^2).
    EigenSolverError when either routine reports a failure.
    """
    k = alpha.size
    if k == 1:  # dstebz takes no empty off-diagonal
        return [float(alpha[0])] * len(ends), [1.0] * len(ends)
    found = []
    for j, end in enumerate(ends):
        index = end % k + 1  # LAPACK counts from 1
        _, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(
            alpha, beta, 3, 0.0, 0.0, index, index, _BISECTION_TOL, b"B")
        if info:
            raise EigenSolverError(f"tridiagonal bisection failed (dstebz info {info})")
        found.append((int(iblock[0]), float(w[0]), j))
    # dstein takes the values grouped by block, ascending within a block
    found.sort()
    for i, (block, value, _) in enumerate(found):
        w[i], iblock[i] = value, block
    vec, info = scipy.linalg.lapack.dstein(alpha, beta, w[:len(found)], iblock, isplit)
    if info:
        raise EigenSolverError(f"tridiagonal inverse iteration failed (dstein info {info})")
    theta, last = [0.0] * len(found), [0.0] * len(found)
    for (_, value, j), end_entry in zip(found, vec[-1].tolist()):
        theta[j], last[j] = value, end_entry
    return theta, last


def _lanczos_extremes(apply_t, apply_x, n: int, ends, after_x: bool = False,
                      limit: int | None = None) -> np.ndarray:
    """Extreme eigenvalues of an operator T that is self-adjoint in the
    inner product <u, v>_X = u^T X v, X positive semidefinite.

    ``ends`` are indices into the ascending eigenvalues (0 the smallest,
    -1 the largest); the Ritz values at those indices are returned.
    With ``after_x``, T = F X and ``apply_t`` is F: it is applied to the
    X-image the routine already holds for the basis vector.
    Lanczos runs in the X inner product with full reorthogonalization
    (classical Gram-Schmidt twice per step) from a fixed random vector.
    Each step applies T once, and X once to the new vector after its
    orthogonalization; X times every basis vector is kept beside it, so
    no inner product needs another application.  (Updating that image by
    the recurrence of the vector instead of applying X amplifies its
    error by about 1/beta per step.)  It stops when every needed Ritz
    value theta_j has the residual bound beta_k |s_kj| <= 1e-12 |theta_j|
    (s_kj the last entry of its eigenvector of the tridiagonal matrix;
    Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998, section
    13.2), when the Krylov space is invariant to working precision, or
    at step n.  The test computes only the needed pairs, O(k) at step k
    (:func:`_ritz_ends`), so a step costs its applies of T and X, its
    reorthogonalization and O(k) more.  Beyond min(n, limit) steps it
    raises EigenSolverError; the limit is LANCZOS_STEP_LIMIT unless given.

    With X singular, T maps null(X) into itself (X T = T^T X) and the
    values are those of T on the quotient space by null(X).  When X
    vanishes on the start vector, all of them are taken as 0.
    """
    ends = list(ends)
    limit = min(n, LANCZOS_STEP_LIMIT if limit is None else limit)
    basis = np.empty((limit, n))
    images = np.empty((limit, n))  # X times each basis vector
    alpha = np.zeros(limit)
    beta = np.zeros(limit)
    v = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    xv = apply_x(v)
    norm = _x_norm(v, xv)
    if norm == 0.0:
        return np.zeros(len(ends))
    previous = 0.0  # beta of the step before (none before the first)
    for k in range(limit):
        np.divide(v, norm, out=basis[k])
        np.divide(xv, norm, out=images[k])
        # a copy: it is updated in place
        w = np.array(apply_t(images[k] if after_x else basis[k]), dtype=float)
        diagonal = 0.0
        for _ in range(2):
            coeffs = images[:k + 1] @ w
            w -= coeffs @ basis[:k + 1]
            diagonal += float(coeffs[k])
        xw = apply_x(w)
        norm = _x_norm(w, xw)
        alpha[k], beta[k] = diagonal, norm
        # the X-norm of the part of T v_k inside the basis
        in_basis = math.hypot(diagonal, previous)
        theta, last = _ritz_ends(alpha[:k + 1], beta[:k], ends)
        if (k + 1 == n or norm <= _LANCZOS_INVARIANT * in_basis
                or all(norm * abs(s) <= _LANCZOS_RTOL * abs(t) for t, s in zip(theta, last))):
            return np.array(theta)
        v, xv, previous = w, xw, norm
    raise EigenSolverError(f"Lanczos did not converge in {limit} steps")


def spectral_radius_skew(hs: HermitianSplit) -> float:
    """Spectral radius of M^{-1} N for the split A = M + N, M SPD.

    The eigenvalues of M^{-1} N are purely imaginary pairs +-i mu, and
    mu^2 are the eigenvalues of M^{-1} N^T M^{-1} N = -(M^{-1} N)^2,
    which is self-adjoint and positive semidefinite in the M inner
    product.  Lanczos finds the largest with one sparse factorization of
    M, for dense and sparse parts alike; NotPositiveDefiniteError when M
    is not positive definite.
    """
    return _skew_radius(hs, sparse_spd_factor(check_symmetric(hs.m_part)))


def _transposed(mat):
    """mat^T formed once for repeated products: CSR for a sparse mat, a
    view of a dense one."""
    return mat.T.tocsr() if scipy.sparse.issparse(mat) else mat.T


def _skew_radius(hs: HermitianSplit, m_factor) -> float:
    """spectral_radius_skew given a factor of M (its ``solve``)."""
    m_part, n_part = hs.m_part, hs.n_part
    n_t = _transposed(n_part)
    (top,) = _lanczos_extremes(lambda v: m_factor.solve(n_t @ m_factor.solve(n_part @ v)),
                               lambda v: m_part @ v, hs.dim, (-1,))
    return math.sqrt(max(top, 0.0))


def _euclidean_maps(apply_b, apply_bt, w: WeightOperator):
    """C = L^T B L^{-T} and C^T as maps, given those of B and B^T and
    W = L L^T: the W-geometry of B made Euclidean.  L = I for the
    identity weight, else the Cholesky factor of the densified W."""
    if w.is_identity:
        return apply_b, apply_bt
    lower = cholesky(densify(w)).lower

    def c(v):
        return lower.T @ apply_b(scipy.linalg.solve_triangular(lower, v, lower=True, trans="T"))

    def ct(v):
        return scipy.linalg.solve_triangular(lower, apply_bt(lower @ v), lower=True)

    return c, ct


def _sym_extremes(c, ct, n: int) -> tuple[float, float]:
    """Smallest and largest eigenvalue of sym(C) = (C + C^T) / 2."""
    lo, hi = _lanczos_extremes(lambda v: 0.5 * (c(v) + ct(v)), np.copy, n, (0, -1))
    return float(lo), float(hi)


def _norm(c, ct, n: int) -> float:
    """||C||, from the largest eigenvalue of C^T C."""
    (top,) = _lanczos_extremes(lambda v: ct(c(v)), np.copy, n, (-1,))
    return math.sqrt(max(float(top), 0.0))


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
    mat = _matrix(b)
    return _min_abs_over_range(_sym_extremes(*_euclidean_maps(mat.dot, mat.T.dot, w), mat.shape[0]))


def weighted_operator_norm(b, w: WeightOperator) -> float:
    """Operator norm induced by the W-norm."""
    mat = _matrix(b)
    return _norm(*_euclidean_maps(mat.dot, mat.T.dot, w), mat.shape[0])


def _dual_bound1(pencil, apply_x, n: int, d: float, after_x: bool = False) -> float | None:
    """bound1 = sqrt(1 - q), q the infimum over y of
    (y^T S y)^2 / (||C y||^2 ||y||^2), S = sym(C), given the distance d
    of the numerical range of C from zero: 1 when d = 0, where some y has
    y^T S y = 0, and None when n exceeds RAYLEIGH_DIM_LIMIT.

    ``pencil(t, v)`` applies the F for which F X (``after_x``, as in
    :func:`_lanczos_extremes`) has the eigenvalues of t s S - t^2 K / 4,
    K = C^T C and s the sign of the definite S (the quotient is the same
    for -C).  q is the maximum over t >= 0 of the concave
    phi(t) = lambda_min(t s S - t^2 K / 4): with u = y^T s S y and
    v = ||C y||^2 for a unit y, u^2/v >= t u - t^2 v / 4 for every t, with
    equality at t = 2u/v, so phi never exceeds the quotient, and its
    maximum is the infimum of the convex u^2/v over the convex hull of the
    joint range of (u, v).  For n >= 3 that range is convex itself
    (Brickman 1961); for n = 2 it is an ellipse, whose hull adds only
    interior points, where u^2/v > 0 has no minimum.  The maximizer
    t* = 2u/v <= 2/sigma_min(C) <= 2/d brackets the bounded scalar search.
    Each phi is one Lanczos solve, allowed n steps: there its Ritz values
    are exact.  scipy.optimize is imported here, past both early returns,
    so that only a report that runs the search pays for loading it.
    """
    if d == 0.0:
        return 1.0
    if n > RAYLEIGH_DIM_LIMIT:
        return None
    import scipy.optimize

    def neg_phi(t):
        return -_lanczos_extremes(lambda v: pencil(t, v), apply_x, n, (0,), after_x, limit=n)[0]

    # no absolute tolerance: the search stops on its relative step
    # sqrt(eps) * t, since t* may lie far inside the bracket
    res = scipy.optimize.minimize_scalar(neg_phi, bounds=(0.0, 2.0 / d), method="bounded",
                                         options={"xatol": 0.0})
    return float(np.sqrt(1.0 - np.clip(-res.fun, 0.0, 1.0)))


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
        """Iterations after which bound3^i drops below the target ratio:
        0 for a target of at least 1, None without a bound3 below 1, and
        ValueError unless the target is positive and finite."""
        if not (math.isfinite(target) and target > 0.0):
            raise ValueError(f"target ratio must be positive and finite, got {target!r}")
        if target >= 1.0:
            return 0
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


def _operators_match(first, second, dim: int) -> bool:
    """Whether two operators give finite images that agree to 1e-12
    relative on 8 random vectors."""
    rng = np.random.default_rng(0xD1FF)
    for _ in range(8):
        v = rng.standard_normal(dim)
        fv = first(v)
        sv = second(v)
        if not (np.isfinite(fv).all() and np.isfinite(sv).all()):
            return False
        scale = max(np.linalg.norm(fv), np.linalg.norm(sv), 1e-300)
        if np.linalg.norm(fv - sv) > 1e-12 * scale:
            return False
    return True


def _definiteness(m_part):
    """(sign, factor): sign * M is positive definite and factor is its
    sparse factor, or (0, None) when M is neither positive nor negative
    definite.  M is an exactly symmetric part (:func:`split`,
    check_symmetric), so a compressed sparse M's arrays are those of its
    CSC form, and it is factored with no conversion."""
    if scipy.sparse.issparse(m_part) and m_part.format in ("csr", "csc"):
        m_part = scipy.sparse.csc_matrix((m_part.data, m_part.indices, m_part.indptr),
                                         shape=m_part.shape)
    for sign in (1, -1):
        try:
            return sign, sparse_spd_factor(m_part if sign > 0 else -m_part)
        except NotPositiveDefiniteError:
            pass
    return 0, None


def _hm_extremes(apply_h, m_part, sign: int) -> tuple[float, float]:
    """Smallest and largest eigenvalue of H M for H SPD, given the
    definiteness sign of M (see :func:`_definiteness`).

    H M is self-adjoint in the inner product of sign * M when that is
    positive definite, and of M H M always.  M H M is singular with M,
    and Lanczos then finds only the eigenvalues off null(M), where H M
    vanishes.  A matrix M that is not definite gives L^T M L, and so H M,
    an eigenvalue <= 0 and one >= 0 (inertia), so 0 joins the range.
    """
    def hm(v):
        return apply_h(m_part @ v)

    if sign:
        def inner(v):
            return sign * (m_part @ v)
    else:
        def inner(v):
            return m_part @ hm(v)

    lo, hi = _lanczos_extremes(hm, inner, m_part.shape[0], (0, -1))
    return (float(lo), float(hi)) if sign else (min(float(lo), 0.0), max(float(hi), 0.0))


def _w_equal_h_report(a_mat, h: PreconditionerHandle) -> BoundReport:
    """The report for W = H with H SPD (see the module docstring)."""
    n = a_mat.shape[0]
    a_t = _transposed(a_mat)
    hs = _split(a_mat, a_t)
    sign, m_factor = _definiteness(hs.m_part)
    lo, hi = _hm_extremes(h.apply, hs.m_part, sign)
    report = BoundReport(lambda_min=lo, lambda_max=hi, fov_distance=_min_abs_over_range((lo, hi)))
    if lo > 0.0:
        report.kappa = hi / lo

    def gram(v):  # A^T H A
        return a_t @ h.apply(a_mat @ v)

    (top,) = _lanczos_extremes(h.apply, gram, n, (-1,), after_x=True)
    report.op_norm = math.sqrt(max(float(top), 0.0))

    # bound2's first infimum: min |lambda| over the pencil sym(A^{-1}) y = lambda H y
    inf1 = None
    if sign:
        def inv_gram(v):  # A^T (sign M)^{-1} A, positive definite
            return a_t @ m_factor.solve(a_mat @ v)

        (top,) = _lanczos_extremes(h.apply, inv_gram, n, (-1,), after_x=True)
        inf1 = 1.0 / float(top)
    else:
        # sym(A^{-1}) has the inertia of M: its range holds 0 when A is invertible
        try:
            sparse_lu_factor(a_mat)
            inf1 = 0.0
        except SingularMatrixError:
            pass
    if inf1 is not None:
        report.bound2 = float(np.sqrt(np.clip(1.0 - inf1 * report.fov_distance, 0.0, 1.0)))

    if sign > 0:
        report.rho = _skew_radius(hs, m_factor)
    if report.rho is not None and report.kappa is not None:
        report.bound3 = direct_bound3(report.kappa, report.rho)

    def pencil(t, v):  # (t sign M - t^2 A^T H A / 4) v
        return (t * sign) * (hs.m_part @ v) - (0.25 * t * t) * gram(v)

    report.bound1 = _dual_bound1(pencil, h.apply, n, report.fov_distance, after_x=True)
    return report


def _weighted_report(a_mat, h: PreconditionerHandle, w: WeightOperator) -> BoundReport:
    """fov_distance, op_norm and bound1 of C = L^T (A H) L^{-T}, W = L L^T,
    for any weight, with C^T from H^T; all three None when H has no
    transposed action."""
    n = a_mat.shape[0]
    if not h.hermitian_flag:
        try:
            h.apply_transpose(np.zeros(n))
        except ValueError:  # an H known only by its action
            return BoundReport()
    a_t = _transposed(a_mat)
    c, ct = _euclidean_maps(lambda v: a_mat @ h.apply(v),
                            lambda v: h.apply_transpose(a_t @ v), w)
    lo, hi = _sym_extremes(c, ct, n)
    report = BoundReport(fov_distance=_min_abs_over_range((lo, hi)), op_norm=_norm(c, ct, n))

    def pencil(t, v):  # (t sign(S) S - t^2 C^T C / 4) v
        cv = c(v)
        return (0.5 * t * math.copysign(1.0, lo)) * (cv + ct(v)) - (0.25 * t * t) * ct(cv)

    report.bound1 = _dual_bound1(pencil, np.copy, n, report.fov_distance)
    return report


def compute_bound_report(a, h: PreconditionerHandle, w: WeightOperator) -> BoundReport:
    """Evaluate every bound quantity the given (A, H, W) triple supports.

    bound1 needs only an SPD weight; bound2 additionally requires the
    preconditioner to be SPD and equal to the weight; bound3 also needs
    the symmetric part of A to be positive definite.  W equals H when it
    applies H's own operator (``h.as_weight()``, a weight on the callable
    H wraps, or on ``h.apply``), else when the two agree on random probe
    vectors.  Every field comes from Lanczos solves that apply H, and H^T
    for W != H, to vectors only; an H with no H^T leaves the fields that
    need it None.  bound1 is 1 when the numerical range holds 0, and
    otherwise searched up to RAYLEIGH_DIM_LIMIT.
    """
    a_mat = _matrix(a)
    if h.hermitian_flag and (h.same_operator_as(w)
                             or _operators_match(h.apply, w.apply, a_mat.shape[0])):
        return _w_equal_h_report(a_mat, h)
    return _weighted_report(a_mat, h, w)


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
    1 / (1 + rho^2).  For positive definite A the two agree.  Dense
    throughout: a sparse M is densified.
    """
    a_inv = np.asarray(a_inv, dtype=float)
    factor = cholesky(densify(hs.m_part))
    m_inverse = factor.solve(np.eye(hs.dim))
    m_of_inv = 0.5 * (a_inv + a_inv.T)
    eigs = gen_sym_eig(m_of_inv, 0.5 * (m_inverse + m_inverse.T))
    rho = spectral_radius_skew(hs)
    return float(eigs[0]), float(1.0 / (1.0 + rho * rho))


def analytic_rho_bound(problem) -> float:
    """Mesh-independent upper bound on the skewness measure of the
    convection-diffusion-reaction operator.

    Evaluates half the sup-norm of the convection field divided by the
    square root of inf(nu) * inf(c0 + div(a)/2), sampling the suprema and
    infima over the mesh vertices, the four domain corners among them.
    The coefficients are evaluated on arrays as in ``cdr.assemble``, and
    the divergence by its central differences, at the vertices nudged
    1e-5 inside the domain.
    """
    grid = np.arange(problem.mesh_divisions + 1) / problem.mesh_divisions
    x, y = np.meshgrid(grid, grid)
    ax, ay = cdr._vector_field(problem.a_field, x, y)
    a_max = float(np.max(np.hypot(ax, ay)))
    nu_inf = float(np.min(cdr._scalar_field(problem.nu, x, y)))
    xi, yi = (np.clip(t, 1e-5, 1.0 - 1e-5) for t in (x, y))
    c_inf = float(np.min(cdr._scalar_field(problem.c0, x, y)
                         + 0.5 * cdr._divergence(problem.a_field, xi, yi)))
    if nu_inf <= 0.0:
        raise ValueError("viscosity must be positive everywhere")
    if c_inf <= 0.0:
        raise ValueError("reaction plus half the convection divergence must be positive")
    if a_max == 0.0:
        return 0.0
    return 0.5 * a_max / math.sqrt(nu_inf * c_inf)
