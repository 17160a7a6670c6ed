"""The Lanczos loop of the bound report with the whole tridiagonal
eigendecomposition at every step, the reference that tests hold
bounds._lanczos_extremes to, and the condition number of H M that it
gives.

Each step runs scipy.linalg.eigh_tridiagonal on the k x k tridiagonal
matrix with all its eigenvectors, O(k^2), and reads the Ritz values at
``ends`` and the last entries of their eigenvectors from it.  The
stopping rule and its tolerances are those of bounds._lanczos_extremes.
"""

import math

import numpy as np
import scipy.linalg

from wpkrylov import bounds
from wpkrylov.linalg import EigenSolverError


def lanczos_extremes(apply_t, apply_x, n, ends, after_x=False, limit=None):
    ends = list(ends)
    limit = min(n, bounds.LANCZOS_STEP_LIMIT if limit is None else limit)
    basis = np.empty((limit, n))
    images = np.empty((limit, n))
    alpha = np.zeros(limit)
    beta = np.zeros(limit)
    v = np.random.default_rng(bounds._LANCZOS_SEED).standard_normal(n)
    xv = apply_x(v)
    norm = bounds._x_norm(v, xv)
    if norm == 0.0:
        return np.zeros(len(ends))
    for k in range(limit):
        basis[k] = v / norm
        images[k] = xv / norm
        w = np.array(apply_t(images[k] if after_x else basis[k]), dtype=float)
        for _ in range(2):
            coeffs = images[:k + 1] @ w
            w -= coeffs @ basis[:k + 1]
            alpha[k] += coeffs[k]
        xw = apply_x(w)
        beta[k] = bounds._x_norm(w, xw)
        in_basis = math.hypot(alpha[k], beta[k - 1]) if k else abs(alpha[k])
        theta, vecs = scipy.linalg.eigh_tridiagonal(alpha[:k + 1], beta[:k])
        picked = theta[ends]
        if (k + 1 == n or beta[k] <= bounds._LANCZOS_INVARIANT * in_basis
                or np.all(beta[k] * np.abs(vecs[-1, ends])
                          <= bounds._LANCZOS_RTOL * np.abs(picked))):
            return picked
        v, xv, norm = w, xw, beta[k]
    raise EigenSolverError(f"Lanczos did not converge in {limit} steps")


def hm_condition_number(apply_h, m):
    """lambda_max / lambda_min of H M for H and M symmetric positive
    definite, by the loop above in the M inner product, where H M is
    self-adjoint; H is applied to vectors only."""
    lo, hi = lanczos_extremes(lambda v: apply_h(m @ v), lambda v: m @ v, m.shape[0], (0, -1))
    return float(hi / lo)
