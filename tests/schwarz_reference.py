"""The Schwarz set-up through COO, searchsorted and sparse arithmetic,
the reference that tests hold schwarz.build_preconditioner and
linalg.check_symmetric to.

``local_blocks`` finds, for each stored entry (i, j) of a row of A, its
column position by a binary search of the sorted keys owner * n + index,
and builds B from COO triplets; ``banded_factor`` fills the band by 2-D
fancy indexing; ``symmetric_part`` forms 0.5 (S + S^T) by sparse sums;
the coarse basis Z is summed from COO and Z^T converted from Z.  The
factor and the apply receive arrays that the package's own set-up must
reproduce bit for bit.
"""

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpbtrf, dpstrf
from scipy.sparse.csgraph import reverse_cuthill_mckee

from wpkrylov.linalg import BandedCholesky, cholesky, sparse_lu_factor
from wpkrylov.schwarz import SchwarzPreconditioner


def symmetric_part(s):
    """0.5 (S + S^T) by sparse (or dense) arithmetic; ValueError unless S
    is symmetric to 1e-10 of its largest entry (or of 1)."""
    t = s.T.tocsr() if scipy.sparse.issparse(s) else s.T
    scale = max(abs(s).max(), 1.0)
    if abs(s - t).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (s + t)


def concatenated(maps, n):
    sizes = np.array([len(sub) for sub in maps.subdomains], dtype=np.int64)
    return (np.concatenate(maps.subdomains).astype(np.int64),
            np.repeat(np.arange(len(sizes)), sizes))


def local_blocks(csr, index, owner):
    """B in canonical CSC form: entry (a, b) is A[index[a], index[b]] when
    a and b belong to one subdomain."""
    n = csr.shape[0]
    keys = owner * n + index
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = csr.indptr[index]
    lengths = csr.indptr[index + 1] - starts
    rows = np.repeat(np.arange(len(index)), lengths)
    flat = np.arange(len(rows)) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    wanted = owner[rows] * n + csr.indices[flat]
    at = np.minimum(np.searchsorted(sorted_keys, wanted), len(keys) - 1)
    inside = sorted_keys[at] == wanted
    size = len(index)
    return scipy.sparse.csc_matrix(
        (csr.data[flat[inside]], (rows[inside], order[at[inside]])), shape=(size, size))


def banded_factor(s) -> BandedCholesky:
    """Band Cholesky in the narrower of the own and the RCM order, the
    band filled by 2-D indexing (no pivot checks)."""
    s = scipy.sparse.csc_matrix(s)
    n = s.shape[0]
    rows = s.indices
    cols = np.repeat(np.arange(n, dtype=rows.dtype), np.diff(s.indptr))
    perm = reverse_cuthill_mckee(s, symmetric_mode=True)
    position = np.empty(n, dtype=perm.dtype)
    position[perm] = np.arange(n)
    own = int(np.abs(rows - cols).max())
    reordered = int(np.abs(position[rows] - position[cols]).max())
    if reordered < own:
        rows, cols, width = position[rows], position[cols], reordered
    else:
        perm, width = None, own
    upper = rows <= cols
    band = np.zeros((width + 1, n), order="F")
    band[width + rows[upper] - cols[upper], cols[upper]] = s.data[upper]
    factor, info = dpbtrf(band, lower=0, overwrite_ab=1)
    assert info == 0
    return BandedCholesky(factor, perm)


def gram_matrix(z, mz):
    gram = (z.T @ mz).toarray()
    return 0.5 * (gram + gram.T)


def coarse_space(maps, m_csr, index, owner):
    """(Z, Z^T, M Z, Gram matrix), Z rank-filtered."""
    n = m_csr.shape[0]
    counts = np.bincount(index, minlength=n)
    z = scipy.sparse.csr_array((1.0 / counts[index], (index, owner)),
                               shape=(n, len(maps.subdomains)))
    mz = scipy.sparse.csr_array(m_csr @ z)
    gram = gram_matrix(z, mz)
    _, piv, rank, _ = dpstrf(gram, lower=1, tol=1e-12 * max(gram.diagonal().max(), 0.0))
    if rank < z.shape[1]:
        keep = np.sort(piv[:rank] - 1)
        z, mz, gram = z[:, keep], mz[:, keep], gram[np.ix_(keep, keep)]
    return z, z.T.tocsr(), mz, gram


def scatter(index, n):
    """R^T in CSR: row i holds unknown i's positions in the index, ascending."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(index, minlength=n))))
    return scipy.sparse.csr_array((np.ones(len(index)), np.argsort(index, kind="stable"),
                                   indptr), shape=(n, len(index)))


def build(matrix, maps, mode, coarse_basis=None):
    """(preconditioner, B, Gram matrix or None) built from the reference
    pieces; B is the CSC matrix the local factorization receives.  A
    given coarse basis is used as it is."""
    n = matrix.shape[0]
    index, owner = concatenated(maps, n)
    if mode == "one_level_nonsym":
        local_matrix, factor = matrix.tocsr(), sparse_lu_factor
    else:
        local_matrix, factor = symmetric_part(matrix).tocsr(), banded_factor
    blocks = local_blocks(local_matrix, index, owner)
    coarse, gram = None, None
    if mode == "two_level_sym":
        if coarse_basis is None:
            z, zt, mz, gram = coarse_space(maps, local_matrix, index, owner)
        else:
            z = scipy.sparse.csr_array(coarse_basis)
            mz = scipy.sparse.csr_array(local_matrix @ z)
            zt, gram = z.T.tocsr(), gram_matrix(z, mz)
        coarse = (z, zt, mz, cholesky(gram))
    precond = SchwarzPreconditioner(mode, n, index, scatter(index, n), factor(blocks), coarse)
    return precond, blocks, gram
