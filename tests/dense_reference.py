"""Dense helpers that only tests use: an LU solve for reference
solutions, the weighted inner product and norm written out from their
definitions, <x, y>_W = y^T W x and ||x||_W, and both sides of the
identity linking the splits of A and of A^{-1}.
"""

import warnings

import numpy as np
import scipy.linalg

from wpkrylov.bounds import HermitianSplit, spectral_radius_skew
from wpkrylov.linalg import (
    SingularMatrixError,
    _as_square,
    _as_vector,
    cholesky,
    densify,
    gen_sym_eig,
)
from wpkrylov.weighting import InvalidWeightError, WeightOperator


def lu_solve(a, b) -> np.ndarray:
    """Solve a x = b by LU with partial pivoting."""
    m = _as_square(a)
    rhs = _as_vector(b, m.shape[0])
    with warnings.catch_warnings():
        # singularity is detected below with an explicit pivot threshold
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=True)
    diag = np.abs(np.diag(lu))
    threshold = m.shape[0] * np.finfo(float).eps * max(np.abs(m).max(), 0.0)
    if diag.min() <= threshold:
        raise SingularMatrixError(pivot=int(np.argmin(diag)))
    return scipy.linalg.lu_solve((lu, piv), rhs)


def w_inner(w: WeightOperator, x, y) -> float:
    """<x, y>_W = y^T W x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (w.dim,) or y.shape != (w.dim,):
        raise ValueError("dimension mismatch in weighted inner product")
    return float(w.apply(x) @ y)


def w_norm(w: WeightOperator, x) -> float:
    """||x||_W, guarding against a slightly negative round-off radicand."""
    x = np.asarray(x, dtype=float)
    radicand = w_inner(w, x, x)
    if radicand < 0.0:
        # tolerate round-off; anything beyond it means the weight is not SPD
        if radicand < -1e-14 * float(x @ x):
            raise InvalidWeightError(f"negative weighted norm radicand {radicand}")
        radicand = 0.0
    return float(np.sqrt(radicand))


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
