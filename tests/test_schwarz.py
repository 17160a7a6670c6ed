import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from wpkrylov import schwarz
from wpkrylov.bounds import compute_bound_report
from wpkrylov.cdr import CdrProblemSpec, assemble
from wpkrylov.linalg import (
    LinearOperator,
    NotPositiveDefiniteError,
    SingularMatrixError,
    check_symmetric,
    densify,
)
from wpkrylov.schwarz import (
    PartitionSpec,
    SubdomainMaps,
    build_partition,
    build_preconditioner,
)
from wpkrylov.solvers import LinearSystem, SolveConfig, whp_gcr
from wpkrylov.weighting import PreconditionerHandle, WeightOperator

import lanczos_reference
import schwarz_reference


def reference_partition(m_matrix, spec, coords):
    """Subdomains as one np.isin per core and one n-length SpMV per
    subdomain and overlap layer."""
    n = m_matrix.shape[0]
    if spec.layout == "strips" and coords is None:
        cores = np.array_split(np.arange(n), spec.n_subdomains)
    elif spec.layout == "strips":
        row_of = np.round(coords[:, 1], 12)
        cores = [np.flatnonzero(np.isin(row_of, band))
                 for band in np.array_split(np.unique(row_of), spec.n_subdomains)]
    else:
        p, q = spec.grid_shape
        x_of, y_of = np.round(coords[:, 0], 12), np.round(coords[:, 1], 12)
        cores = [np.flatnonzero(np.isin(x_of, xb) & np.isin(y_of, yb))
                 for yb in np.array_split(np.unique(y_of), q)
                 for xb in np.array_split(np.unique(x_of), p)]
    adjacency = m_matrix.copy()
    adjacency.data = np.ones_like(adjacency.data)
    subdomains = []
    for core in cores:
        mask = np.zeros(n, dtype=bool)
        mask[core] = True
        for _ in range(spec.overlap_layers):
            mask |= adjacency @ mask.astype(float) > 0.0
        subdomains.append(np.flatnonzero(mask))
    return subdomains


class TestPartition:
    def test_single_subdomain(self, cdr_assembled):
        assembled = cdr_assembled(6)
        maps = build_partition(assembled.m_matrix, PartitionSpec(1),
                               coords=assembled.dof_coords)
        assert len(maps.subdomains) == 1
        assert np.array_equal(np.sort(maps.subdomains[0]), np.arange(assembled.dof_count))

    def test_strips_coverage_and_coloring(self, cdr_assembled):
        assembled = cdr_assembled(10)
        maps = build_partition(assembled.m_matrix, PartitionSpec(3, "strips"),
                               coords=assembled.dof_coords)
        counts = np.bincount(np.concatenate(maps.subdomains), minlength=assembled.dof_count)
        # one overlap layer: an unknown lies in at most two strips
        assert counts.min() >= 1
        assert counts.max() == 2

    def test_grid_coverage(self, cdr_assembled):
        assembled = cdr_assembled(20)
        spec = PartitionSpec(4, "grid", grid_shape=(2, 2))
        maps = build_partition(assembled.m_matrix, spec, coords=assembled.dof_coords)
        assert len(maps.subdomains) == 4
        counts = np.zeros(assembled.dof_count, dtype=int)
        for sub in maps.subdomains:
            counts[sub] += 1
        assert counts.min() >= 1

    def test_grid_needs_coordinates(self, cdr_assembled):
        assembled = cdr_assembled(6)
        with pytest.raises(ValueError):
            build_partition(assembled.m_matrix, PartitionSpec(4, "grid"))

    def test_too_many_subdomains(self):
        m = scipy.sparse.eye_array(3, format="csr")
        with pytest.raises(ValueError):
            build_partition(m, PartitionSpec(5))

    @pytest.mark.parametrize("overlap", [0, 1, 2])
    @pytest.mark.parametrize("count, layout, grid_shape, with_coords",
                             [(3, "strips", None, True), (5, "strips", None, False),
                              (6, "grid", (3, 2), True)])
    def test_matches_isin_and_spmv_growth(self, cdr_assembled, count, layout, grid_shape,
                                          with_coords, overlap):
        assembled = cdr_assembled(13)
        coords = assembled.dof_coords if with_coords else None
        spec = PartitionSpec(count, layout, grid_shape=grid_shape, overlap_layers=overlap)
        maps = build_partition(assembled.m_matrix, spec, coords=coords)
        expected = reference_partition(assembled.m_matrix, spec, coords)
        assert len(maps.subdomains) == len(expected)
        for got, want in zip(maps.subdomains, expected):
            assert np.array_equal(got, want)


class TestCoarseSpace:
    def test_single_subdomain_constant(self, cdr_assembled):
        assembled = cdr_assembled(6)
        maps = build_partition(assembled.m_matrix, PartitionSpec(1),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        basis = precond.coarse_basis.toarray()
        assert basis.shape[1] == 1
        assert np.allclose(basis[:, 0], 1.0)

    def test_disjoint_indicators(self, cdr_assembled):
        assembled = cdr_assembled(8)
        spec = PartitionSpec(2, "strips", overlap_layers=0)
        maps = build_partition(assembled.m_matrix, spec, coords=assembled.dof_coords)
        basis = build_preconditioner(assembled.m_matrix, maps, "two_level_sym").coarse_basis
        gram = (basis.T @ basis).toarray()
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() == 0.0

    def test_partition_of_unity(self, cdr_assembled):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        basis = build_preconditioner(assembled.m_matrix, maps, "two_level_sym").coarse_basis
        assert np.array_equal(basis.sum(axis=1), np.ones(assembled.dof_count))

    def test_preconditioner_basis_is_sparse_partition_of_unity(self, cdr_assembled):
        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(9, "grid"),
                               coords=assembled.dof_coords)
        basis = build_preconditioner(assembled.m_matrix, maps, "two_level_sym").coarse_basis
        assert scipy.sparse.issparse(basis) and basis.shape == (assembled.dof_count, 9)
        assert basis.nnz == sum(len(sub) for sub in maps.subdomains)
        assert np.array_equal(basis.sum(axis=1), np.ones(assembled.dof_count))

    def test_rank_filter_drops_a_repeated_subdomain(self, cdr_assembled):
        # subdomain 1 listed twice: its two indicator vectors are equal, so
        # the Gram matrix is singular and one of them is dropped
        assembled = cdr_assembled(12)
        s0, s1, s2 = build_partition(assembled.m_matrix, PartitionSpec(3, "strips"),
                                     coords=assembled.dof_coords).subdomains
        maps = SubdomainMaps(subdomains=[s0, s1, s1, s2])
        counts = np.bincount(np.concatenate(maps.subdomains))
        unfiltered = np.zeros((assembled.dof_count, 4))
        for k, sub in enumerate(maps.subdomains):
            unfiltered[sub, k] = 1.0 / counts[sub]
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        basis = precond.coarse_basis.toarray()
        assert basis.shape == (assembled.dof_count, 3)
        assert all(any(np.array_equal(column, kept) for kept in unfiltered.T)
                   for column in basis.T)
        precond.as_weight(validate=True)

    def test_build_preconditioner_leaves_the_maps_alone(self, cdr_assembled):
        # the basis belongs to the preconditioner: building one does not
        # feed a later preconditioner, which filters against its matrix
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        before = [sub.copy() for sub in maps.subdomains]
        build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        assert vars(maps).keys() == {"subdomains"}
        assert all(np.array_equal(a, b) for a, b in zip(maps.subdomains, before))


class TestPreconditioner:
    def test_single_subdomain_is_exact_inverse(self, cdr_assembled):
        assembled = cdr_assembled(8)
        maps = build_partition(assembled.m_matrix, PartitionSpec(1),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "one_level_sym")
        # symmetric system preconditioned by its exact inverse
        m_sp = assembled.m_matrix
        system = LinearSystem(
            assembled.operator().__class__(assembled.dof_count, lambda v: m_sp @ v),
            assembled.rhs,
        )
        result = whp_gcr(system, precond.as_handle(), SolveConfig())
        assert result.status == "converged"
        assert result.iterations <= 2

    def test_symmetry_probe(self, cdr_assembled):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(3, "strips"),
                               coords=assembled.dof_coords)
        for mode in ("one_level_sym", "two_level_sym"):
            precond = build_preconditioner(assembled.m_matrix, maps, mode)
            rng = np.random.default_rng(1)
            for _ in range(8):
                v = rng.standard_normal(assembled.dof_count)
                u = rng.standard_normal(assembled.dof_count)
                hv = precond.apply(v)
                hu = precond.apply(u)
                scale = np.linalg.norm(hv) * np.linalg.norm(u)
                assert abs(hv @ u - v @ hu) <= 1e-11 * max(scale, 1e-30)

    def test_two_level_is_spd_weight(self, cdr_assembled):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        precond.as_weight(validate=True)  # probe validation must pass

    def test_coarse_residual_annihilation(self, cdr_assembled):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        basis = build_preconditioner(assembled.m_matrix, maps, "two_level_sym").coarse_basis
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym",
                                       coarse_basis=basis)
        m_sp = assembled.m_matrix
        rng = np.random.default_rng(2)
        for _ in range(5):
            # Z^T M P = 0 for the deflation projector P = I - Z G^{-1} Z^T M, so
            # the coarse solve alone sets the coarse part: Z^T M H v = Z^T v
            v = rng.standard_normal(assembled.dof_count)
            coarse_residual = basis.T @ (v - m_sp @ precond.apply(v))
            scale = np.linalg.norm(basis.T @ v)
            assert np.linalg.norm(coarse_residual) <= 1e-9 * max(scale, 1e-30)

    def test_nonsym_mode_refuses_weight_view(self, cdr_assembled):
        assembled = cdr_assembled(8)
        maps = build_partition(assembled.m_matrix, PartitionSpec(2, "strips"),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.full_matrix(), maps, "one_level_nonsym")
        with pytest.raises(ValueError):
            precond.as_weight()


class TestConditionNumber:
    def test_exact_inverse_gives_one(self, cdr_assembled):
        assembled = cdr_assembled(8)
        maps = build_partition(assembled.m_matrix, PartitionSpec(1),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "one_level_sym")
        kappa = lanczos_reference.hm_condition_number(precond.apply, assembled.m_matrix)
        assert kappa == pytest.approx(1.0, rel=1e-8)

    def test_identity_preconditioner_diagonal_matrix(self):
        handle = PreconditionerHandle.identity(10)
        m = scipy.sparse.csr_array(np.diag(np.arange(1.0, 11.0)))
        kappa = lanczos_reference.hm_condition_number(handle.apply, m)
        assert kappa == pytest.approx(10.0, rel=1e-10)

    def test_matches_dense_reference(self, cdr_assembled):
        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        h_dense = densify(precond)
        lh = np.linalg.cholesky(0.5 * (h_dense + h_dense.T))
        vals = np.linalg.eigvalsh(lh.T @ assembled.m_matrix.toarray() @ lh)
        kappa = lanczos_reference.hm_condition_number(precond.apply, assembled.m_matrix)
        assert kappa == pytest.approx(vals[-1] / vals[0], rel=1e-10)

    def test_two_level_improves_on_one_level(self, cdr_assembled):
        assembled = cdr_assembled(30)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        one = build_preconditioner(assembled.m_matrix, maps, "one_level_sym")
        two = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        # kappa of the W = H report on the symmetric system M
        kappa_one, kappa_two = (
            compute_bound_report(assembled.m_matrix, h, h.as_weight()).kappa
            for h in (one.as_handle(), two.as_handle()))
        assert np.isfinite(kappa_two)
        assert kappa_two < kappa_one


def dense_reference_apply(precond, maps, matrix, v):
    """H v from dense Cholesky (symmetric modes) or dense LU factors of the
    subdomain blocks of the maps H was built on, and a dense coarse solve
    on the same basis."""
    dense = matrix.toarray()
    if precond.mode == "one_level_nonsym":
        factors = [scipy.linalg.lu_factor(dense[np.ix_(sub, sub)]) for sub in maps.subdomains]
        solve = scipy.linalg.lu_solve
    else:
        factors = [scipy.linalg.cho_factor(dense[np.ix_(sub, sub)]) for sub in maps.subdomains]
        solve = scipy.linalg.cho_solve

    def local_sum(w):
        out = np.zeros_like(w)
        for sub, fac in zip(maps.subdomains, factors):
            out[sub] += solve(fac, w[sub])
        return out

    if precond.mode != "two_level_sym":
        return local_sum(v)
    z = precond.coarse_basis
    gram = scipy.linalg.cho_factor(z.T @ dense @ z)

    def coarse(w):
        return z @ scipy.linalg.cho_solve(gram, z.T @ w)

    c = coarse(v)
    local = local_sum(v - dense @ c)
    return local - coarse(dense @ local) + c


class TestSparseFactors:
    @pytest.mark.parametrize("mode", ["one_level_sym", "two_level_sym", "one_level_nonsym"])
    def test_matches_dense_reference(self, cdr_assembled, mode):
        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        matrix = assembled.full_matrix() if mode == "one_level_nonsym" else assembled.m_matrix
        precond = build_preconditioner(matrix, maps, mode)
        rng = np.random.default_rng(3)
        for _ in range(4):
            v = rng.standard_normal(assembled.dof_count)
            expected = dense_reference_apply(precond, maps, matrix, v)
            got = precond.apply(v)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_rcm_ordered_two_level_matches_dense_reference(self, cdr_assembled):
        # these local blocks are factored in reverse Cuthill-McKee order,
        # which the apply composes into its gather and scatter
        assembled = cdr_assembled(30)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        assert precond._local.perm is not None
        rng = np.random.default_rng(9)
        for v in (rng.standard_normal(precond.dim), rng.standard_normal((precond.dim, 3))):
            expected = dense_reference_apply(precond, maps, assembled.m_matrix, v)
            got = precond.apply(v)
            assert got.shape == v.shape
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("mode", ["one_level_sym", "two_level_sym"])
    def test_indefinite_block_rejected(self, cdr_assembled, mode):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        m_sp = assembled.m_matrix.tolil()
        m_sp[5, 5] = -m_sp[5, 5]
        with pytest.raises(NotPositiveDefiniteError) as info:
            build_preconditioner(m_sp.tocsr(), maps, mode)
        # the pivot is a global unknown of a subdomain that holds unknown 5
        holding_5 = [sub for sub in maps.subdomains if 5 in sub]
        assert holding_5 and any(info.value.pivot in sub for sub in holding_5)
        assert f"unknown {info.value.pivot}" in str(info.value)

    @pytest.mark.parametrize("mode", ["one_level_sym", "two_level_sym"])
    def test_nonsymmetric_input_rejected(self, cdr_assembled, mode):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        with pytest.raises(ValueError, match="not symmetric"):
            build_preconditioner(assembled.full_matrix(), maps, mode)

    def test_nonsym_singular_block_rejected(self, cdr_assembled):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        a_sp = assembled.full_matrix().tolil()
        a_sp[7, :] = 0.0
        with pytest.raises(SingularMatrixError) as info:
            build_preconditioner(a_sp.tocsr(), maps, "one_level_nonsym")
        assert info.value.pivot == 7  # the zero row, as a global unknown

    @pytest.mark.parametrize("mode", ["one_level_sym", "two_level_sym", "one_level_nonsym"])
    def test_uncovered_unknown_rejected(self, cdr_assembled, mode):
        assembled = cdr_assembled(8)
        n = assembled.dof_count
        maps = SubdomainMaps(subdomains=[np.arange(0, 20), np.arange(21, n)])
        matrix = assembled.full_matrix() if mode == "one_level_nonsym" else assembled.m_matrix
        with pytest.raises(ValueError, match="unknown 20 lies in no subdomain"):
            build_preconditioner(matrix, maps, mode)

    def test_block_larger_than_4096_is_exact_inverse(self, cdr_assembled):
        assembled = cdr_assembled(70)
        assert assembled.dof_count > 4096
        maps = build_partition(assembled.m_matrix, PartitionSpec(1),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "one_level_sym")
        v = np.random.default_rng(4).standard_normal(assembled.dof_count)
        residual = assembled.m_matrix @ precond.apply(v) - v
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(v)


class TestBlockApply:
    @pytest.mark.parametrize("mode", ["one_level_sym", "two_level_sym", "one_level_nonsym"])
    def test_block_densify_matches_column_loop(self, cdr_assembled, mode):
        # H applied to the whole identity at once against densify, which
        # applies it column by column
        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        matrix = assembled.full_matrix() if mode == "one_level_nonsym" else assembled.m_matrix
        precond = build_preconditioner(matrix, maps, mode)
        columns = densify(precond.as_handle())
        block = precond.apply(np.eye(precond.dim))
        assert np.linalg.norm(block - columns) <= 1e-14 * np.linalg.norm(columns)

    @pytest.mark.parametrize("mode", ["one_level_sym", "two_level_sym", "one_level_nonsym"])
    def test_three_column_block_matches_column_applies(self, cdr_assembled, mode):
        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        matrix = assembled.full_matrix() if mode == "one_level_nonsym" else assembled.m_matrix
        precond = build_preconditioner(matrix, maps, mode)
        block = np.random.default_rng(5).standard_normal((precond.dim, 3))
        columns = np.column_stack([precond.apply(block[:, j]) for j in range(3)])
        got = precond.apply(block)
        assert got.shape == block.shape
        assert np.linalg.norm(got - columns) <= 1e-14 * np.linalg.norm(columns)

    def test_cdr_operator_block_densify_matches_column_loop(self, cdr_assembled):
        op = cdr_assembled(20).operator()
        block = densify(op)
        columns = densify(LinearOperator(op.dim, op.apply))
        assert np.linalg.norm(block - columns) <= 1e-14 * np.linalg.norm(columns)


class TestTransposedApply:
    @pytest.fixture(scope="class")
    def preconds(self, cdr_assembled):
        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        return {mode: build_preconditioner(
                    assembled.full_matrix() if mode == "one_level_nonsym"
                    else assembled.m_matrix, maps, mode)
                for mode in ("one_level_sym", "two_level_sym", "one_level_nonsym")}

    @pytest.mark.parametrize("mode", ["one_level_sym", "two_level_sym", "one_level_nonsym"])
    def test_adjoint_identity(self, preconds, mode):
        precond = preconds[mode]
        rng = np.random.default_rng(6)
        for action in (precond, precond.as_handle()):
            for _ in range(3):
                x, y = rng.standard_normal(precond.dim), rng.standard_normal(precond.dim)
                hx = action.apply(x)
                gap = abs(y @ hx - action.apply_transpose(y) @ x)
                assert gap <= 1e-13 * np.linalg.norm(y) * np.linalg.norm(hx)

    def test_nonsymmetric_transpose_is_not_h(self, preconds):
        precond = preconds["one_level_nonsym"]
        y = np.random.default_rng(7).standard_normal(precond.dim)
        ht_y = precond.apply_transpose(y)
        assert np.linalg.norm(ht_y - precond.apply(y)) > 1e-3 * np.linalg.norm(ht_y)
        assert np.allclose(ht_y, densify(precond.as_handle()).T @ y, rtol=0,
                           atol=1e-13 * np.linalg.norm(ht_y))

    def test_nonsymmetric_transpose_matches_dense_reference(self, preconds, cdr_assembled):
        precond = preconds["one_level_nonsym"]
        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        h_dense = dense_reference_apply(precond, maps, assembled.full_matrix(),
                                        np.eye(precond.dim))
        y = np.random.default_rng(10).standard_normal(precond.dim)
        want = h_dense.T @ y
        assert np.linalg.norm(precond.apply_transpose(y) - want) <= 1e-12 * np.linalg.norm(want)

    def test_symmetric_transpose_is_h(self, preconds):
        precond = preconds["two_level_sym"]
        y = np.random.default_rng(8).standard_normal(precond.dim)
        assert np.array_equal(precond.apply_transpose(y), precond.apply(y))


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.flags.f_contiguous == want.flags.f_contiguous
            and got.tobytes(order="A") == want.tobytes(order="A"))


def assert_same_sparse(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert same_bits(got.data, want.data)


def _reversed(maps):
    return SubdomainMaps([sub[::-1].copy() for sub in maps.subdomains])


class TestSetupMatchesReference:
    """Every array that the local and coarse factors and the apply hold,
    and H v itself, is bitwise that of the COO and searchsorted set-up
    in tests/schwarz_reference.py."""

    CASES = {
        "m100-grid4x4": (100, PartitionSpec(16, "grid", grid_shape=(4, 4)), False),
        "m30-grid2x2": (30, PartitionSpec(4, "grid", grid_shape=(2, 2)), False),
        "m60-strips5": (60, PartitionSpec(5, "strips"), False),
        "m40-grid3x2": (40, PartitionSpec(6, "grid", grid_shape=(3, 2)), False),
        "m50-grid3x3": (50, PartitionSpec(9, "grid", grid_shape=(3, 3)), False),
        "m30-overlap0": (30, PartitionSpec(4, "grid", grid_shape=(2, 2), overlap_layers=0),
                         False),
        "m30-overlap2": (30, PartitionSpec(4, "grid", grid_shape=(2, 2), overlap_layers=2),
                         False),
        "m30-grid2x2-reversed": (30, PartitionSpec(4, "grid", grid_shape=(2, 2)), True),
        "m60-strips5-reversed": (60, PartitionSpec(5, "strips"), True),
    }

    @staticmethod
    def maps_of(assembled, spec, reverse):
        maps = build_partition(assembled.m_matrix, spec, coords=assembled.dof_coords)
        return _reversed(maps) if reverse else maps

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("mode", ["one_level_sym", "two_level_sym"])
    def test_symmetric_modes(self, cdr_assembled, case, mode):
        m, spec, reverse = self.CASES[case]
        assembled = cdr_assembled(m)
        maps = self.maps_of(assembled, spec, reverse)
        matrix = assembled.m_matrix
        want, want_blocks, want_gram = schwarz_reference.build(matrix, maps, mode)
        got = build_preconditioner(matrix, maps, mode)

        symmetric = check_symmetric(matrix)
        index, owner, scatter = schwarz._concatenated(maps, matrix.shape[0])
        assert_same_sparse(schwarz._local_blocks(symmetric, index, owner).T, want_blocks)
        assert same_bits(got._local.upper, want._local.upper)
        assert (got._local.perm is None) == (want._local.perm is None)
        if want._local.perm is not None:
            # by value: RCM returns B's index dtype, int64 from the gather of
            # the assembled M, int32 from the reference's COO build
            assert np.array_equal(got._local.perm, want._local.perm)
        assert np.array_equal(got._index, want._index)
        assert_same_sparse(got._scatter, want._scatter)
        if mode == "two_level_sym":
            assert_same_sparse(got.coarse_basis, want.coarse_basis)
            assert_same_sparse(got._zt, want._zt)
            assert_same_sparse(got._mz, want._mz)
            assert_same_sparse(got._mzt, want._mzt)
            gram = schwarz._pou_coarse_space(maps, symmetric, index, owner, scatter)[3]
            assert same_bits(gram, want_gram)
            assert same_bits(got._coarse_factor.lower, want._coarse_factor.lower)
        rng = np.random.default_rng(5)
        for v in (rng.standard_normal(matrix.shape[0]), rng.standard_normal((matrix.shape[0], 3))):
            assert same_bits(got.apply(v), want.apply(v))

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_given_coarse_basis(self, cdr_assembled, dense):
        m, spec, _ = self.CASES["m40-grid3x2"]
        assembled = cdr_assembled(m)
        maps = self.maps_of(assembled, spec, False)
        basis = build_preconditioner(assembled.m_matrix, maps, "two_level_sym").coarse_basis
        basis = basis.toarray() if dense else basis
        want, _, _ = schwarz_reference.build(assembled.m_matrix, maps, "two_level_sym", basis)
        got = build_preconditioner(assembled.m_matrix, maps, "two_level_sym", basis)
        for part in ("coarse_basis", "_zt", "_mz", "_mzt"):
            assert_same_sparse(getattr(got, part), getattr(want, part))
        assert same_bits(got._coarse_factor.lower, want._coarse_factor.lower)
        v = np.random.default_rng(7).standard_normal(assembled.dof_count)
        assert same_bits(got.apply(v), want.apply(v))

    @pytest.mark.parametrize("case", ["m30-grid2x2", "m40-grid3x2", "m30-grid2x2-reversed"])
    def test_nonsymmetric_mode(self, cdr_assembled, case):
        m, spec, reverse = self.CASES[case]
        assembled = cdr_assembled(m)
        maps = self.maps_of(assembled, spec, reverse)
        matrix = assembled.full_matrix()
        want, want_blocks, _ = schwarz_reference.build(matrix, maps, "one_level_nonsym")
        got = build_preconditioner(matrix, maps, "one_level_nonsym")

        index, owner, _ = schwarz._concatenated(maps, matrix.shape[0])
        # what SuperLU receives: B in CSC form, as the blocks of A^T in CSR form
        assert_same_sparse(schwarz._local_blocks(matrix.T.tocsr(), index, owner).T, want_blocks)
        for part in ("L", "U"):
            assert_same_sparse(getattr(got._local, part), getattr(want._local, part))
        assert np.array_equal(got._local.perm_c, want._local.perm_c)
        assert np.array_equal(got._local.perm_r, want._local.perm_r)
        assert np.array_equal(got._index, want._index)
        assert_same_sparse(got._scatter, want._scatter)
        v = np.random.default_rng(6).standard_normal(matrix.shape[0])
        assert same_bits(got.apply(v), want.apply(v))
        assert same_bits(got.apply_transpose(v), want.apply_transpose(v))
