"""Dense helpers that only tests use: an LU solve for reference
solutions, and the weighted inner product and norm written out from
their definitions, <x, y>_W = y^T W x and ||x||_W.
"""

import warnings

import numpy as np
import scipy.linalg

from wpkrylov.linalg import SingularMatrixError, _as_square, _as_vector
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
