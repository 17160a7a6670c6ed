"""Dense and sparse kernels shared by the whole toolkit.

Vectors are 1-D float64 numpy arrays, dense matrices are 2-D float64
arrays in row-major order, and sparse matrices are scipy.sparse
csr_array objects, used as they are.  A matrix from outside the program
(a Matrix Market file or the finite element assembly) is checked once,
where it enters, by ``_validated_csr``.  Factorizations and eigensolves
delegate to LAPACK (via numpy/scipy) behind the small wrappers below,
which add the dimension checks, pivot thresholds and error types the
rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs

__all__ = [
    "DENSIFY_LIMIT",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
    "EigenSolverError",
    "LinearOperator",
    "CholeskyFactor",
    "BandedCholesky",
    "aslinearoperator",
    "densify",
    "cholesky",
    "check_symmetric",
    "sparse_spd_factor",
    "banded_spd_factor",
    "sparse_lu_factor",
    "sym_eig",
    "gen_sym_eig",
]

# Operators are materialized to dense (by application to basis vectors)
# only up to this dimension; larger requests fail loudly.
DENSIFY_LIMIT = 4096


class NotPositiveDefiniteError(Exception):
    """A symmetric matrix failed a positive-definiteness requirement."""

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = pivot
        super().__init__(message or f"matrix is not positive definite (pivot {pivot})")


class SingularMatrixError(Exception):
    """An LU factorization met a (numerically) zero pivot."""

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = pivot
        super().__init__(message or f"matrix is singular to working precision (pivot {pivot})")


class EigenSolverError(Exception):
    """The symmetric eigensolver failed to converge."""


def _check_real(x, name: str) -> None:
    """ValueError naming x when its dtype is complex, whose imaginary part
    a cast to float would drop; for an array a dtype test, which reads
    none of its entries."""
    if np.iscomplexobj(x):
        raise ValueError(f"{name} is complex; only real systems are supported")


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    _check_real(x, "vector")
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def _as_image(y) -> np.ndarray:
    _check_real(y, "operator image")
    return np.asarray(y, dtype=float)


def _as_square(a) -> np.ndarray:
    _check_real(a, "matrix")
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def check_symmetric(s):
    """Return the symmetric part of a dense or scipy.sparse matrix after
    checking that it differs from its transpose by at most 1e-10 relative
    to its largest entry (or to 1); ValueError otherwise.

    A canonical CSR matrix whose transpose has its pattern (an assembled
    M, say) is checked and averaged on its data arrays; like the sparse
    sum, that drops the entries that cancel to exact zeros.
    """
    # converted once: s - s.T and s + s.T would each convert the CSC transpose
    t = s.T.tocsr() if scipy.sparse.issparse(s) else s.T
    if (scipy.sparse.issparse(s) and s.format == "csr" and s.has_canonical_format
            and np.array_equal(s.indptr, t.indptr) and np.array_equal(s.indices, t.indices)):
        if np.abs(s.data - t.data).max(initial=0.0) > 1e-10 * max(
                np.abs(s.data).max(initial=0.0), 1.0):
            raise ValueError("matrix is not symmetric")
        t.data = t.data + s.data
        t.eliminate_zeros()
        t.data = 0.5 * t.data  # float, as 0.5 * (s + t) is for integer data
        return t
    scale = max(abs(s).max(), 1.0)
    if abs(s - t).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (s + t)


class LinearOperator:
    """A square operator known only through its action on vectors.

    An optional transposed action maps x to A^T x; without it,
    :meth:`apply_transpose` raises ValueError.  An operator built from a
    matrix keeps it as ``matrix`` (shared, not copied: read it only);
    otherwise ``matrix`` is None.
    """

    def __init__(self, dim: int, apply, transpose=None, matrix=None):
        self.dim = int(dim)
        self._apply = apply
        self._transpose = transpose
        self.matrix = matrix

    def apply(self, x) -> np.ndarray:
        return _as_image(self._apply(_as_vector(x, self.dim)))

    __call__ = apply

    def apply_transpose(self, x) -> np.ndarray:
        if self._transpose is None:
            raise ValueError("operator has no transposed action")
        return _as_image(self._transpose(_as_vector(x, self.dim)))

    @classmethod
    def from_dense(cls, a) -> "LinearOperator":
        return cls.from_matrix(_as_square(a))

    @classmethod
    def from_matrix(cls, m) -> "LinearOperator":
        """The action of a square dense or scipy.sparse matrix and of its transpose."""
        _check_real(m, "matrix")
        return cls(m.shape[0], m.dot, transpose=m.T.dot, matrix=m)

    @classmethod
    def identity(cls, dim: int) -> "LinearOperator":
        return cls(dim, np.copy, transpose=np.copy)


def aslinearoperator(obj, dim: int | None = None) -> LinearOperator:
    """Coerce a dense array, scipy.sparse matrix, callable or operator to LinearOperator.

    A callable with an ``apply_transpose`` method (a preconditioner
    handle, say) keeps it as the transposed action, and one with a
    ``matrix`` (a weight built from one) keeps that matrix.
    """
    if isinstance(obj, LinearOperator):
        return obj
    if scipy.sparse.issparse(obj):
        return LinearOperator.from_matrix(obj)
    if callable(obj):
        if dim is None:
            dim = getattr(obj, "dim", None)
        if dim is None:
            raise ValueError("dim is required when wrapping a bare callable")
        return LinearOperator(dim, obj, transpose=getattr(obj, "apply_transpose", None),
                              matrix=getattr(obj, "matrix", None))
    return LinearOperator.from_dense(obj)


def densify(op) -> np.ndarray:
    """An operator as a dense matrix: the matrix it keeps (shared when dense),
    else its action on each column of the identity, up to DENSIFY_LIMIT."""
    if isinstance(op, np.ndarray):
        return _as_square(op)
    if scipy.sparse.issparse(op):
        return op.toarray()
    lin = aslinearoperator(op)
    if lin.matrix is not None:
        return densify(lin.matrix)
    if lin.dim > DENSIFY_LIMIT:
        raise ValueError(f"refusing to densify operator of dimension {lin.dim} > {DENSIFY_LIMIT}")
    return np.column_stack([lin.apply(column) for column in np.eye(lin.dim)])


def _validated_csr(m) -> scipy.sparse.csr_array:
    """A scipy.sparse matrix from outside the program as a canonical
    float64 csr_array: duplicate entries summed, column indices sorted.
    ValueError unless every entry is finite and real."""
    _check_real(m, "matrix")
    m = scipy.sparse.csr_array(m, dtype=float)
    m.sum_duplicates()  # sorts the indices of every row first
    if not np.all(np.isfinite(m.data)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass
class CholeskyFactor:
    """Lower-triangular factor L with L L^T equal to the factored matrix."""

    lower: np.ndarray

    def solve(self, b) -> np.ndarray:
        """The solution for a vector, or for every column of a block."""
        x, info = dpotrs(self.lower, np.asarray(b, dtype=float), lower=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return x


def cholesky(s) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    Fails with NotPositiveDefiniteError when LAPACK meets a nonpositive
    pivot, or when a pivot falls at or below dim * eps * max(diag),
    which flags numerically semidefinite inputs.
    """
    m = check_symmetric(_as_square(s))
    n = m.shape[0]
    c, info = dpotrf(m, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    lower = np.tril(c)
    pivots = np.diag(lower) ** 2
    threshold = n * np.finfo(float).eps * max(np.diag(m).max(), 0.0)
    if pivots.min() <= threshold:
        raise NotPositiveDefiniteError(pivot=int(np.argmin(pivots)))
    return CholeskyFactor(lower=lower)


def sparse_spd_factor(s) -> scipy.sparse.linalg.SuperLU:
    """Sparse factor P^T L U P of a symmetric positive definite matrix.

    SuperLU runs in symmetric mode: minimum-degree ordering on A^T + A
    and diagonal pivots only, so U = D L^T and the pivots are those of
    Cholesky.  Symmetry is the caller's to check (check_symmetric), once
    for a whole matrix rather than per block.  Fails with
    NotPositiveDefiniteError when SuperLU has to pivot off the diagonal
    or meets a singular column (its pivot is then the index of a zero row
    or column, when there is one), or when a pivot falls at or below
    dim * eps * max(diag) -- the threshold of :func:`cholesky`.
    """
    s = scipy.sparse.csc_matrix(s)
    n = s.shape[0]
    try:
        factor = scipy.sparse.linalg.splu(
            s, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NotPositiveDefiniteError(pivot=_empty_line(s),
                                       message=f"matrix is singular: {exc}") from exc
    if not np.array_equal(factor.perm_r, factor.perm_c):
        raise NotPositiveDefiniteError(
            pivot=-1, message="matrix is not positive definite (off-diagonal pivot)")
    pivots = factor.U.diagonal()
    threshold = n * np.finfo(float).eps * max(s.diagonal().max(), 0.0)
    if pivots.min() <= threshold:
        # column j of U is column i of s where perm_c[i] == j
        raise NotPositiveDefiniteError(pivot=int(np.argsort(factor.perm_c)[np.argmin(pivots)]))
    return factor


@dataclass
class BandedCholesky:
    """Band Cholesky factor U^T U of P^T S P, S symmetric positive definite.

    ``upper`` is U in LAPACK's upper band storage, (bandwidth + 1) x n
    and Fortran-ordered; ``perm`` maps each position of the factored
    order to the row of S there (P v = v[perm]), or is None when S is
    factored in its own order.
    """

    upper: np.ndarray
    perm: np.ndarray | None = None

    @property
    def bandwidth(self) -> int:
        return self.upper.shape[0] - 1

    def solve_in_factored_order(self, b: np.ndarray) -> np.ndarray:
        """y with U^T U y = b, that is P x for S x = P^T b: the solve with
        no permutation, for a caller that keeps its vectors in the factored
        order.  ``b`` is a float64 vector or n x k block the caller gives
        up: LAPACK overwrites it where it can (a C-ordered block is
        copied)."""
        x, info = dpbtrs(self.upper, b, lower=0, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        return x


def _bandwidth(rows: np.ndarray, cols: np.ndarray) -> int:
    """The upper bandwidth, which is the bandwidth of a symmetric pattern."""
    return int((cols - rows).max(initial=0))


def banded_spd_factor(s) -> BandedCholesky:
    """Band Cholesky factor of a sparse symmetric positive definite matrix.

    This is the envelope method for matrices from a lattice (George & Liu,
    *Computer Solution of Large Sparse Positive Definite Systems*, 1981):
    the factor fills the band and nothing outside it, so it takes
    n * (bandwidth + 1) entries and the solve is two band triangular
    sweeps (LAPACK dpbtrf/dpbtrs, upper form).  The order is the
    matrix's own or its reverse Cuthill-McKee order, whichever has the
    smaller bandwidth; RCM keeps each diagonal block of a block-diagonal
    matrix contiguous.  Symmetry is the caller's to check
    (check_symmetric).  Fails with NotPositiveDefiniteError when a
    leading minor is not positive definite, or when a pivot falls at or
    below dim * eps * max(diag) -- the threshold of :func:`cholesky`; its
    pivot is an index in the caller's order.
    """
    # imported here: the graph package costs about 1 MB, which a program
    # without Schwarz preconditioners has no use for
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    if not (scipy.sparse.issparse(s) and s.format == "csc"):
        s = scipy.sparse.csc_array(s)
    n = s.shape[0]
    rows = s.indices
    cols = np.repeat(np.arange(n), np.diff(s.indptr))
    perm = reverse_cuthill_mckee(s, symmetric_mode=True)
    position = np.empty(n, dtype=np.intp)
    position[perm] = np.arange(n)
    reordered = position[rows], position[cols]
    own, width = _bandwidth(rows, cols), _bandwidth(*reordered)
    if width < own:
        rows, cols = reordered
    else:
        perm, width = None, own
    upper = np.flatnonzero(rows <= cols)
    # U(r, c) sits at row width + r - c, column c of the Fortran-ordered band
    band = np.zeros((width + 1) * n)
    band[cols[upper] * width + width + rows[upper]] = s.data[upper]
    band = band.reshape((width + 1, n), order="F")
    # the diagonal is the band's last row, which the factor overwrites
    threshold = n * np.finfo(float).eps * max(band[width].max(initial=0.0), 0.0)
    factor, info = dpbtrf(band, lower=0, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    if info == 0:
        pivots = factor[width] ** 2
        failed = int(np.argmin(pivots)) if pivots.min() <= threshold else -1
    else:
        failed = info - 1
    if failed >= 0:
        raise NotPositiveDefiniteError(pivot=failed if perm is None else int(perm[failed]))
    return BandedCholesky(factor, perm)


def sparse_lu_factor(a) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU factor of a square matrix with SuperLU's default
    threshold partial pivoting; SingularMatrixError when it is exactly
    singular, with the index of a zero row or column as its pivot when
    there is one (SuperLU does not report the failed column)."""
    a = scipy.sparse.csc_matrix(a)
    try:
        return scipy.sparse.linalg.splu(a)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrixError(pivot=_empty_line(a),
                                  message=f"matrix is singular: {exc}") from exc


def _empty_line(a: scipy.sparse.csc_matrix) -> int:
    """The first index whose row or column of a square sparse matrix
    holds no nonzero value, or -1."""
    nonzero = a.copy()
    nonzero.eliminate_zeros()
    empty = ((np.diff(nonzero.indptr) == 0)
             | (np.bincount(nonzero.indices, minlength=a.shape[0]) == 0))
    return int(np.argmax(empty)) if empty.any() else -1


def sym_eig(s, vectors: bool = True):
    """Eigenvalues (ascending) of a symmetric matrix, with orthonormal
    eigenvectors as (values, vectors) unless vectors=False, which returns
    the values alone and skips the work of forming the vectors."""
    m = check_symmetric(_as_square(s))
    try:
        if not vectors:
            return np.linalg.eigvalsh(m)
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK non-convergence
        raise EigenSolverError(str(exc)) from exc
    return vals, vecs


def gen_sym_eig(s, m) -> np.ndarray:
    """Ascending eigenvalues of the pencil S y = lambda M y with M SPD.

    Reduces through M = L L^T to the ordinary symmetric problem for
    L^{-1} S L^{-T}.  M may be given as its CholeskyFactor, so a caller
    that already factored it does not factor it again.
    """
    s = check_symmetric(_as_square(s))
    factor = m if isinstance(m, CholeskyFactor) else cholesky(m)
    y = scipy.linalg.solve_triangular(factor.lower, s, lower=True)
    reduced = scipy.linalg.solve_triangular(factor.lower, y.T, lower=True).T
    return sym_eig(0.5 * (reduced + reduced.T), vectors=False)
