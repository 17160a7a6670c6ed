"""One- and two-level additive Schwarz preconditioners.

Subdomains come from a deterministic structured partition (contiguous
strips or a p x q grid of the lattice), grown by graph adjacency of the
matrix sparsity for overlap.  Local blocks are sliced from the sparse
matrix and factored by SuperLU (sparse direct): the symmetric modes
factor blocks of the symmetric part in symmetric mode with diagonal
pivots, so an indefinite or singular block is rejected as it would be
by Cholesky; the non-symmetric one-level mode factors blocks of the
full operator with partial pivoting.  The two-level mode adds a coarse
solve together with its deflation projector: with coarse basis Z and
G = Z^T M Z (small and dense, factored by dense Cholesky),

    apply(v) = P [sum_s R_s^T (R_s M R_s^T)^{-1} R_s] P^T v
               + Z G^{-1} Z^T v,      P = I - Z G^{-1} Z^T M.

The coarse space is spanned by partition-of-unity indicator vectors, one
per subdomain (entry 1/membership-count inside the subdomain); their sum
is exactly the all-ones vector.  This substitutes for a spectral coarse
space, preserving the two-level structure at the cost of a weaker
condition-number guarantee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpstrf

from .bounds import _definiteness, _hm_extremes
from .linalg import (
    CsrMatrix,
    check_symmetric,
    cholesky,
    sparse_lu_factor,
    sparse_spd_factor,
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
    """Overlapped subdomain index sets with their coloring data."""

    subdomains: list
    membership_counts: np.ndarray
    color_count: int
    coarse_basis: np.ndarray | None = None


def _near_square_factors(n: int) -> tuple[int, int]:
    q = max(d for d in range(1, int(np.sqrt(n)) + 1) if n % d == 0)
    return n // q, q


def _grow_overlap(indices: np.ndarray, adjacency, layers: int) -> np.ndarray:
    mask = np.zeros(adjacency.shape[0], dtype=bool)
    mask[indices] = True
    for _ in range(layers):
        reached = adjacency @ mask.astype(float) > 0.0
        mask |= reached
    return np.flatnonzero(mask)


def build_partition(m_matrix: CsrMatrix, spec: PartitionSpec,
                    coords: np.ndarray | None = None) -> SubdomainMaps:
    """Partition the unknowns of a matrix into overlapped subdomains.

    Strips are contiguous bands: bands of lattice rows when coordinates
    are supplied, contiguous index ranges otherwise (equivalent for
    lexicographically ordered lattice unknowns).  The grid layout needs
    coordinates and bins them into p x q blocks.  Overlap is grown
    through the sparsity graph of the matrix, one adjacency layer at a
    time, so every unknown coupled to a subdomain joins it.
    """
    n = m_matrix.rows
    if spec.n_subdomains > n:
        raise ValueError("more subdomains than unknowns")
    if spec.layout == "strips":
        if coords is not None:
            rows = np.unique(np.round(coords[:, 1], 12))
            bands = np.array_split(rows, spec.n_subdomains)
            row_of = np.round(coords[:, 1], 12)
            cores = [np.flatnonzero(np.isin(row_of, band)) for band in bands]
        else:
            cores = np.array_split(np.arange(n), spec.n_subdomains)
    else:
        if coords is None:
            raise ValueError("grid layout requires coordinates")
        p, q = spec.grid_shape if spec.grid_shape is not None else _near_square_factors(
            spec.n_subdomains
        )
        xs = np.unique(np.round(coords[:, 0], 12))
        ys = np.unique(np.round(coords[:, 1], 12))
        x_bands = np.array_split(xs, p)
        y_bands = np.array_split(ys, q)
        x_of = np.round(coords[:, 0], 12)
        y_of = np.round(coords[:, 1], 12)
        cores = [
            np.flatnonzero(np.isin(x_of, xb) & np.isin(y_of, yb))
            for yb in y_bands
            for xb in x_bands
        ]
    for core in cores:
        if len(core) == 0:
            raise ValueError("a subdomain core came out empty; reduce n_subdomains")

    adjacency = m_matrix.to_scipy()
    adjacency.data = np.ones_like(adjacency.data)
    subdomains = [_grow_overlap(core, adjacency, spec.overlap_layers) for core in cores]

    counts = np.zeros(n, dtype=int)
    for sub in subdomains:
        counts[sub] += 1
    if counts.min() == 0:
        raise ValueError("partition does not cover every unknown")
    return SubdomainMaps(
        subdomains=subdomains,
        membership_counts=counts,
        color_count=int(counts.max()),
    )


def build_coarse_space(maps: SubdomainMaps, m_matrix: CsrMatrix) -> np.ndarray:
    """Partition-of-unity coarse basis, one vector per subdomain.

    Vectors that make the coarse Gram matrix (numerically) rank
    deficient are dropped by pivoted Cholesky with a relative pivot
    threshold.  The basis is stored on the maps and returned.
    """
    return _pou_coarse_space(maps, m_matrix)[0]


def _pou_coarse_space(maps: SubdomainMaps, m_matrix: CsrMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The rank-filtered coarse basis Z (also stored on the maps) and its
    Gram matrix Z^T M Z."""
    n = m_matrix.rows
    z = np.zeros((n, len(maps.subdomains)))
    for k, sub in enumerate(maps.subdomains):
        z[sub, k] = 1.0 / maps.membership_counts[sub]
    gram = _gram(z, m_matrix)
    _, piv, rank, _ = dpstrf(gram, lower=1, tol=1e-12 * max(gram.diagonal().max(), 0.0))
    if rank == 0:
        raise ValueError("coarse space is empty after rank filtering")
    keep = np.sort(piv[:rank] - 1)
    maps.coarse_basis = z[:, keep]
    return maps.coarse_basis, gram[np.ix_(keep, keep)]


def _gram(z: np.ndarray, m_matrix: CsrMatrix) -> np.ndarray:
    gram = z.T @ (m_matrix.csr @ z)
    return 0.5 * (gram + gram.T)


class SchwarzPreconditioner:
    """Assembled additive Schwarz operator in one of three modes."""

    def __init__(self, mode, matrix: CsrMatrix, maps: SubdomainMaps,
                 coarse_basis: np.ndarray | None, local_factors, coarse_factor):
        self.mode = mode
        self.dim = matrix.rows
        self.maps = maps
        self._matrix = matrix.csr
        self._locals = local_factors
        self._coarse_basis = coarse_basis
        self._coarse_factor = coarse_factor

    @property
    def is_symmetric(self) -> bool:
        return self.mode in ("one_level_sym", "two_level_sym")

    def _coarse_solve(self, v: np.ndarray) -> np.ndarray:
        return self._coarse_basis @ self._coarse_factor.solve(self._coarse_basis.T @ v)

    def _local_sum(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for sub, fac in zip(self.maps.subdomains, self._locals):
            out[sub] += fac.solve(v[sub])
        return out

    def apply(self, v) -> np.ndarray:
        """H v for a vector, or H applied to every column of an n x k block
        at once (SuperLU, the coarse solve and the SpMVs all take blocks)."""
        v = np.asarray(v, dtype=float)
        if self.mode != "two_level_sym":
            return self._local_sum(v)
        coarse = self._coarse_solve(v)
        deflated = v - self._matrix @ coarse  # P^T v
        local = self._local_sum(deflated)
        projected = local - self._coarse_solve(self._matrix @ local)  # P (.)
        return projected + coarse

    __call__ = apply

    def project_deflation(self, v) -> np.ndarray:
        """The deflation projector P = I - Z G^{-1} Z^T M applied to v."""
        if self._coarse_basis is None:
            raise ValueError("no coarse space attached")
        v = np.asarray(v, dtype=float)
        return v - self._coarse_solve(self._matrix @ v)

    def matmat(self, v) -> np.ndarray:
        """H applied to every column of an n x k block, in one apply."""
        return self.apply(v)

    def as_handle(self) -> PreconditionerHandle:
        return PreconditionerHandle(self.dim, self, hermitian_flag=self.is_symmetric)

    def as_weight(self, validate: bool = True) -> WeightOperator:
        if not self.is_symmetric:
            raise ValueError("the non-symmetric mode cannot define an inner product")
        return WeightOperator(self.dim, self, validate=validate)


def build_preconditioner(matrix: CsrMatrix, maps: SubdomainMaps, mode: str,
                         coarse_basis: np.ndarray | None = None) -> SchwarzPreconditioner:
    """Factor the local (and coarse) blocks and return the preconditioner.

    Symmetric modes expect the symmetric part of the operator (ValueError
    otherwise) and factor its blocks with sparse symmetric-mode SuperLU,
    raising NotPositiveDefiniteError on a block that is not positive
    definite; the non-symmetric one-level mode expects the full operator
    and factors its blocks with sparse LU, raising SingularMatrixError on
    a singular block.  For the two-level mode a missing coarse basis is
    built from partition-of-unity constants.
    """
    if mode not in ("one_level_sym", "two_level_sym", "one_level_nonsym"):
        raise ValueError(f"unknown preconditioner mode {mode!r}")
    if mode == "one_level_nonsym":
        factor = sparse_lu_factor
        csc = matrix.csr.tocsc()
    else:
        factor = sparse_spd_factor
        csc = check_symmetric(matrix.csr).tocsc()
    locals_ = [factor(csc[sub][:, sub]) for sub in maps.subdomains]

    coarse_factor = None
    if mode == "two_level_sym":
        if coarse_basis is None and maps.coarse_basis is None:
            coarse_basis, gram = _pou_coarse_space(maps, matrix)
        else:
            coarse_basis = maps.coarse_basis if coarse_basis is None else coarse_basis
            gram = _gram(coarse_basis, matrix)
        coarse_factor = cholesky(gram)
    else:
        coarse_basis = None

    return SchwarzPreconditioner(mode, matrix, maps, coarse_basis, locals_, coarse_factor)


def condition_number(precond: SchwarzPreconditioner, m_matrix: CsrMatrix) -> float:
    """Ratio of the extreme eigenvalues of the preconditioned symmetric
    part H M, by Lanczos in the M inner product; H is applied to vectors
    only.  ValueError unless M and H M are positive definite."""
    m = check_symmetric(m_matrix.csr)
    sign, _ = _definiteness(m)
    if sign > 0:
        lo, hi = _hm_extremes(precond.apply, m, sign)
        if lo > 0.0:
            return hi / lo
    raise ValueError("preconditioned symmetric part is not positive definite")


def dump_partition_json(maps: SubdomainMaps, path) -> None:
    """Write dof -> subdomain membership lists for external inspection."""
    n = len(maps.membership_counts)
    memberships: list[list[int]] = [[] for _ in range(n)]
    for s, sub in enumerate(maps.subdomains):
        for dof in sub:
            memberships[int(dof)].append(s)
    payload = {
        "n_subdomains": len(maps.subdomains),
        "color_count": maps.color_count,
        "memberships": memberships,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
