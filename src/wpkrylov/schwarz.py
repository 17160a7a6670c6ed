"""One- and two-level additive Schwarz preconditioners.

Subdomains come from a deterministic structured partition (contiguous
strips or a p x q grid of the lattice), grown by graph adjacency of the
matrix sparsity for overlap.  Every stage works on all subdomains at
once, in time linear in the number of unknowns and stored entries:

* the partition labels each unknown with its core by binning the
  coordinates once, and grows the overlap from the columns of the cores'
  own unknowns;
* the local blocks R_s M R_s^T are gathered, in one pass over the rows
  of the concatenated index R = [R_1; ...; R_N], into one block-diagonal
  matrix B, which is factored once.  The symmetric modes factor B, made
  of blocks of the symmetric part, by band Cholesky (the envelope method
  of George & Liu, 1981): a subdomain of a lattice has a band about as
  wide as the subdomain (28 for m = 100 on a 4 x 4 grid with one overlap
  layer), and the factor fills only that band, n_loc * (bandwidth + 1)
  entries, where n_loc is the length of R.  An indefinite or singular
  block is rejected as Cholesky rejects it.  The non-symmetric one-level
  mode factors blocks of the full operator by SuperLU (sparse LU with
  partial pivoting).  A failed pivot is reported as the global unknown
  it belongs to.  (The global M of the bound report stays on SuperLU:
  its band is the mesh width, 400 at m = 400, where a band factor would
  take 511 MB and SuperLU's minimum-degree order 134 MB.)

The local sum is then R^T B^{-1} R v, with R v the gather v[index].  The
two-level mode adds a coarse solve together with its deflation
projector: with coarse basis Z and G = Z^T M Z (small and dense,
factored by dense Cholesky),

    apply(v) = P R^T B^{-1} R P^T v + Z G^{-1} Z^T v,
    P = I - Z G^{-1} Z^T M.

With c = G^{-1} Z^T v and l = R^T B^{-1} R (v - MZ c) this is
l + Z (c - G^{-1} (MZ)^T l), so the sparse product MZ, formed once,
replaces every SpMV with M in the apply.

The coarse space is spanned by partition-of-unity indicator vectors, one
per subdomain (entry 1/membership-count inside the subdomain), stored as
a sparse n x N matrix; their sum is exactly the all-ones vector.  This
substitutes for a spectral coarse space, preserving the two-level
structure at the cost of a weaker condition-number guarantee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpstrf

from .bounds import _definiteness, _hm_extremes
from .linalg import (
    BandedCholesky,
    NotPositiveDefiniteError,
    SingularMatrixError,
    banded_spd_factor,
    check_symmetric,
    cholesky,
    sparse_lu_factor,
)
from .weighting import PreconditionerHandle, WeightOperator

__all__ = [
    "PartitionSpec",
    "SubdomainMaps",
    "SchwarzPreconditioner",
    "build_partition",
    "build_coarse_space",
    "build_preconditioner",
    "condition_number",
    "dump_partition_json",
]


@dataclass
class PartitionSpec:
    """Requested decomposition: subdomain count, layout and overlap."""

    n_subdomains: int
    layout: str = "strips"
    grid_shape: tuple[int, int] | None = None
    overlap_layers: int = 1

    def __post_init__(self):
        if self.n_subdomains < 1:
            raise ValueError("n_subdomains must be positive")
        if self.layout not in ("strips", "grid"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.overlap_layers < 0:
            raise ValueError("overlap_layers must be nonnegative")
        if self.grid_shape is not None:
            p, q = self.grid_shape
            if p * q != self.n_subdomains:
                raise ValueError("grid_shape must factor n_subdomains")


@dataclass
class SubdomainMaps:
    """Overlapped subdomain index sets, and the coloring data they imply."""

    subdomains: list

    @property
    def membership_counts(self) -> np.ndarray:
        """The number of subdomains holding each unknown."""
        return np.bincount(np.concatenate(self.subdomains))

    @property
    def color_count(self) -> int:
        """The most subdomains any one unknown lies in."""
        return int(self.membership_counts.max())


def _near_square_factors(n: int) -> tuple[int, int]:
    q = max(d for d in range(1, int(np.sqrt(n)) + 1) if n % d == 0)
    return n // q, q


def _bands(values: np.ndarray, count: int) -> np.ndarray:
    """The band of each value when its distinct values, ascending, are
    split into count contiguous bands as np.array_split splits them."""
    distinct, which = np.unique(values, return_inverse=True)
    sizes = np.full(count, len(distinct) // count)
    sizes[:len(distinct) % count] += 1
    return np.repeat(np.arange(count), sizes)[which]


def _entries(indptr: np.ndarray, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every stored entry of the given rows (CSR) or columns (CSC) of a
    compressed matrix: (position in ``lines`` it came from, position in
    the matrix's indices and data)."""
    starts = indptr[lines]
    lengths = indptr[lines + 1] - starts
    source = np.repeat(np.arange(len(lines)), lengths)
    first = np.cumsum(lengths) - lengths
    return source, np.arange(len(source)) + np.repeat(starts - first, lengths)


def _grow_overlap(keys: np.ndarray, core_of: np.ndarray, csc, layers: int) -> np.ndarray:
    """Add, per layer, every unknown i with a stored entry (i, j) for some
    j already in the subdomain.  ``keys`` encode (subdomain s, unknown j)
    as s * n + j, sorted, so each subdomain's unknowns are ascending and
    together; they stay so."""
    n = len(core_of)
    for _ in range(layers):
        source, flat = _entries(csc.indptr, keys % n)
        owner, reached = (keys // n)[source], csc.indices[flat]
        outside = core_of[reached] != owner  # a subdomain holds its core already
        # sort and drop repeats (np.union1d is an order of magnitude slower here)
        keys = np.sort(np.concatenate([keys, owner[outside] * n + reached[outside]]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
    return keys


def build_partition(m_matrix: scipy.sparse.csr_array, spec: PartitionSpec,
                    coords: np.ndarray | None = None) -> SubdomainMaps:
    """Partition the unknowns of a matrix into overlapped subdomains.

    Strips are contiguous bands: bands of lattice rows when coordinates
    are supplied, contiguous index ranges otherwise (equivalent for
    lexicographically ordered lattice unknowns).  The grid layout needs
    coordinates and bins them into p x q blocks, numbered row of blocks
    by row of blocks.  Overlap is grown through the sparsity graph of the
    matrix, one adjacency layer at a time, so every unknown coupled to a
    subdomain joins it.
    """
    n = m_matrix.shape[0]
    count = spec.n_subdomains
    if count > n:
        raise ValueError("more subdomains than unknowns")
    if spec.layout == "strips":
        if coords is not None:
            core_of = _bands(np.round(coords[:, 1], 12), count)
        else:
            core_of = _bands(np.arange(n), count)
    else:
        if coords is None:
            raise ValueError("grid layout requires coordinates")
        p, q = spec.grid_shape if spec.grid_shape is not None else _near_square_factors(count)
        core_of = (_bands(np.round(coords[:, 1], 12), q) * p
                   + _bands(np.round(coords[:, 0], 12), p))
    if np.bincount(core_of, minlength=count).min() == 0:
        raise ValueError("a subdomain core came out empty; reduce n_subdomains")

    keys = _grow_overlap(np.sort(core_of * n + np.arange(n)), core_of, m_matrix.tocsc(),
                         spec.overlap_layers)
    owner, index = np.divmod(keys, n)
    ends = np.cumsum(np.bincount(owner, minlength=count))
    return SubdomainMaps(np.split(index, ends[:-1]))


def _concatenated(maps: SubdomainMaps, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, owner): the subdomains' unknowns one after another, and the
    subdomain each position belongs to.  ValueError unless every index is
    an unknown and every unknown lies in some subdomain."""
    sizes = np.array([len(sub) for sub in maps.subdomains], dtype=np.int64)
    index = np.concatenate(maps.subdomains).astype(np.int64)
    if len(index) and (index.min() < 0 or index.max() >= n):
        raise ValueError(f"a subdomain holds an index outside 0..{n - 1}")
    uncovered = np.flatnonzero(np.bincount(index, minlength=n) == 0)
    if len(uncovered):
        raise ValueError(f"unknown {uncovered[0]} lies in no subdomain "
                         f"({len(uncovered)} uncovered)")
    return index, np.repeat(np.arange(len(sizes)), sizes)


def build_coarse_space(maps: SubdomainMaps,
                       m_matrix: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """Partition-of-unity coarse basis, one vector per subdomain, as a
    sparse n x N matrix.

    Vectors that make the coarse Gram matrix (numerically) rank
    deficient are dropped by pivoted Cholesky with a relative pivot
    threshold.
    """
    return _pou_coarse_space(maps, m_matrix, *_concatenated(maps, m_matrix.shape[0]))[0]


def _pou_coarse_space(maps: SubdomainMaps, m_csr, index: np.ndarray, owner: np.ndarray):
    """The rank-filtered coarse basis Z, M Z and the dense Gram matrix
    Z^T M Z."""
    n = m_csr.shape[0]
    counts = np.bincount(index, minlength=n)
    z = scipy.sparse.csr_array((1.0 / counts[index], (index, owner)),
                               shape=(n, len(maps.subdomains)))
    mz = scipy.sparse.csr_array(m_csr @ z)
    gram = _gram(z, mz)
    _, piv, rank, _ = dpstrf(gram, lower=1, tol=1e-12 * max(gram.diagonal().max(), 0.0))
    if rank == 0:
        raise ValueError("coarse space is empty after rank filtering")
    if rank < z.shape[1]:
        keep = np.sort(piv[:rank] - 1)
        z, mz, gram = z[:, keep], mz[:, keep], gram[np.ix_(keep, keep)]
    return z, mz, gram


def _gram(z, mz) -> np.ndarray:
    gram = (z.T @ mz).toarray()
    return 0.5 * (gram + gram.T)


def _local_blocks(csr, index: np.ndarray, owner: np.ndarray):
    """The block-diagonal matrix of the blocks R_s A R_s^T, in CSC form,
    with rows and columns in the order of the concatenated index: entry
    (a, b) is A[index[a], index[b]] when a and b belong to one subdomain.
    Each row of A is read once per subdomain holding its unknown."""
    n = csr.shape[0]
    keys = owner * n + index
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    rows, flat = _entries(csr.indptr, index)
    wanted = owner[rows] * n + csr.indices[flat]
    at = np.minimum(np.searchsorted(sorted_keys, wanted), len(keys) - 1)
    inside = sorted_keys[at] == wanted
    size = len(index)
    return scipy.sparse.csc_matrix(
        (csr.data[flat[inside]], (rows[inside], order[at[inside]])), shape=(size, size))


class SchwarzPreconditioner:
    """Assembled additive Schwarz operator in one of three modes.

    ``coarse_basis`` is the sparse (scipy.sparse.csr_array) n x N coarse
    basis Z of the two-level mode, None in the one-level modes.
    """

    def __init__(self, mode, dim: int, maps: SubdomainMaps, index: np.ndarray, local_factor,
                 coarse=None):
        self.mode = mode
        self.dim = dim
        self.maps = maps
        # R^T: adds each local value into the unknown it came from; each row
        # holds its unknown's positions in the concatenated index, ascending
        columns = np.argsort(index, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(index, minlength=dim))))
        self._local = local_factor
        self._local_solve = local_factor.solve
        if isinstance(local_factor, BandedCholesky):
            # the band factor's order is composed into the gather and the
            # scatter, so the solve runs in place on the gathered vector
            self._local_solve = local_factor.solve_in_factored_order
            if local_factor.perm is not None:
                position = np.empty_like(local_factor.perm)
                position[local_factor.perm] = np.arange(len(position))
                # the rows keep their order (unsorted columns now), so they
                # sum their entries in the same order
                index, columns = index[local_factor.perm], position[columns]
        self._index = index
        self._scatter = scipy.sparse.csr_array((np.ones(len(index)), columns, indptr),
                                               shape=(dim, len(index)))
        self.coarse_basis, self._mz, self._coarse_factor = (coarse if coarse is not None
                                                            else (None,) * 3)
        if coarse is not None:  # Z^T and (MZ)^T in CSR: a transpose view costs more per apply
            self._zt, self._mzt = self.coarse_basis.T.tocsr(), self._mz.T.tocsr()

    @property
    def is_symmetric(self) -> bool:
        return self.mode in ("one_level_sym", "two_level_sym")

    def _local_sum(self, v: np.ndarray) -> np.ndarray:
        return self._scatter @ self._local_solve(v[self._index])

    def apply(self, v) -> np.ndarray:
        """H v for a vector, or H applied to every column of an n x k block
        at once (the local and coarse solves and the SpMVs all take blocks)."""
        v = np.asarray(v, dtype=float)
        if self.coarse_basis is None:
            return self._local_sum(v)
        coarse = self._coarse_factor.solve(self._zt @ v)  # G^{-1} Z^T v
        local = self._local_sum(v - self._mz @ coarse)
        return local + self.coarse_basis @ (coarse - self._coarse_factor.solve(self._mzt @ local))

    __call__ = apply

    def apply_transpose(self, v) -> np.ndarray:
        """H^T v: H v in the symmetric modes, else R^T B^{-T} R v by the
        transposed solves of the local LU factor."""
        if self.is_symmetric:
            return self.apply(v)
        return self._scatter @ self._local.solve(np.asarray(v, dtype=float)[self._index], trans="T")

    def project_deflation(self, v) -> np.ndarray:
        """The deflation projector P = I - Z G^{-1} Z^T M applied to v."""
        if self.coarse_basis is None:
            raise ValueError("no coarse space attached")
        v = np.asarray(v, dtype=float)
        return v - self.coarse_basis @ self._coarse_factor.solve(self._mzt @ v)

    def as_handle(self) -> PreconditionerHandle:
        return PreconditionerHandle(self.dim, self, hermitian_flag=self.is_symmetric)

    def as_weight(self, validate: bool = True) -> WeightOperator:
        if not self.is_symmetric:
            raise ValueError("the non-symmetric mode cannot define an inner product")
        return WeightOperator(self.dim, self, validate=validate)


def build_preconditioner(matrix: scipy.sparse.csr_array, maps: SubdomainMaps, mode: str,
                         coarse_basis=None) -> SchwarzPreconditioner:
    """Factor the local (and coarse) blocks and return the preconditioner.

    Symmetric modes expect the symmetric part of the operator (ValueError
    otherwise) and factor its blocks by band Cholesky (banded_spd_factor,
    in their own order or in reverse Cuthill-McKee order, whichever band
    is narrower; n_loc * (bandwidth + 1) entries), raising
    NotPositiveDefiniteError on a block that is not positive definite;
    the non-symmetric one-level mode expects the full operator and
    factors its blocks with sparse LU, raising SingularMatrixError on a
    singular block.  The error's ``pivot`` is the global unknown where
    the factorization failed when it can be named, else -1.  ValueError
    when the maps leave an unknown in no subdomain.  For the two-level
    mode a missing coarse basis (dense or sparse, n x N) is built from
    partition-of-unity constants.
    """
    if mode not in ("one_level_sym", "two_level_sym", "one_level_nonsym"):
        raise ValueError(f"unknown preconditioner mode {mode!r}")
    index, owner = _concatenated(maps, matrix.shape[0])
    if mode == "one_level_nonsym":
        factor, local_matrix = sparse_lu_factor, matrix.tocsr()
    else:
        factor, local_matrix = banded_spd_factor, check_symmetric(matrix).tocsr()
    try:
        local_factor = factor(_local_blocks(local_matrix, index, owner))
    except (NotPositiveDefiniteError, SingularMatrixError) as exc:
        if exc.pivot < 0:
            raise
        dof = int(index[exc.pivot])
        failure = "singular" if isinstance(exc, SingularMatrixError) else "not positive definite"
        raise type(exc)(dof, f"the local block of subdomain {owner[exc.pivot]} is {failure} "
                             f"(pivot at unknown {dof})") from exc

    coarse = None
    if mode == "two_level_sym":
        if coarse_basis is None:
            z, mz, gram = _pou_coarse_space(maps, local_matrix, index, owner)
        else:
            z = scipy.sparse.csr_array(coarse_basis)
            mz = scipy.sparse.csr_array(local_matrix @ z)
            gram = _gram(z, mz)
        coarse = (z, mz, cholesky(gram))
    return SchwarzPreconditioner(mode, matrix.shape[0], maps, index, local_factor, coarse)


def condition_number(precond: SchwarzPreconditioner,
                     m_matrix: scipy.sparse.csr_array) -> float:
    """Ratio of the extreme eigenvalues of the preconditioned symmetric
    part H M, by Lanczos in the M inner product; H is applied to vectors
    only.  ValueError unless M and H M are positive definite."""
    m = check_symmetric(m_matrix)
    sign, _ = _definiteness(m)
    if sign > 0:
        lo, hi = _hm_extremes(precond.apply, m, sign)
        if lo > 0.0:
            return hi / lo
    raise ValueError("preconditioned symmetric part is not positive definite")


def dump_partition_json(maps: SubdomainMaps, path) -> None:
    """Write dof -> subdomain membership lists (ascending) for external
    inspection."""
    sizes = [len(sub) for sub in maps.subdomains]
    index = np.concatenate(maps.subdomains)
    # a stable sort by unknown keeps each unknown's subdomains ascending
    owners = np.repeat(np.arange(len(sizes)), sizes)[np.argsort(index, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(index)).tolist()
    memberships = [owners[start:end] for start, end in zip([0] + ends[:-1], ends)]
    payload = {
        "n_subdomains": len(maps.subdomains),
        "color_count": maps.color_count,
        "memberships": memberships,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))  # json.dump streams through the slower Python encoder
