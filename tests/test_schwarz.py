import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from wpkrylov.cdr import CdrProblemSpec, assemble
from wpkrylov.linalg import (
    LinearOperator,
    NotPositiveDefiniteError,
    SingularMatrixError,
    densify,
)
from wpkrylov.schwarz import (
    PartitionSpec,
    SubdomainMaps,
    build_coarse_space,
    build_partition,
    build_preconditioner,
    condition_number,
    dump_partition_json,
)
from wpkrylov.solvers import LinearSystem, SolveConfig, whp_gcr
from wpkrylov.weighting import PreconditionerHandle, WeightOperator


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
        assert maps.color_count == 1
        assert len(maps.subdomains) == 1
        assert np.array_equal(np.sort(maps.subdomains[0]), np.arange(assembled.dof_count))

    def test_strips_coverage_and_coloring(self, cdr_assembled):
        assembled = cdr_assembled(10)
        maps = build_partition(assembled.m_matrix, PartitionSpec(3, "strips"),
                               coords=assembled.dof_coords)
        counts = np.zeros(assembled.dof_count, dtype=int)
        for sub in maps.subdomains:
            counts[sub] += 1
        assert counts.min() >= 1
        assert maps.color_count == 2

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
        counts = np.bincount(np.concatenate(expected), minlength=assembled.dof_count)
        assert np.array_equal(maps.membership_counts, counts)
        assert maps.color_count == counts.max()

    def test_dump_json(self, cdr_assembled, tmp_path):
        assembled = cdr_assembled(6)
        maps = build_partition(assembled.m_matrix, PartitionSpec(2, "strips"),
                               coords=assembled.dof_coords)
        path = tmp_path / "partition.json"
        dump_partition_json(maps, path)
        payload = json.loads(path.read_text())
        assert payload["n_subdomains"] == 2
        assert len(payload["memberships"]) == assembled.dof_count
        assert all(payload["memberships"])

    @pytest.mark.parametrize("overlap", [0, 2])
    @pytest.mark.parametrize("count, layout, grid_shape", [(3, "strips", None),
                                                           (6, "grid", (3, 2))])
    def test_dump_json_matches_membership_loop(self, cdr_assembled, tmp_path, count, layout,
                                               grid_shape, overlap):
        assembled = cdr_assembled(13)
        spec = PartitionSpec(count, layout, grid_shape=grid_shape, overlap_layers=overlap)
        maps = build_partition(assembled.m_matrix, spec, coords=assembled.dof_coords)
        memberships = [[] for _ in range(assembled.dof_count)]
        for s, sub in enumerate(maps.subdomains):
            for dof in sub:
                memberships[int(dof)].append(s)
        expected = {"n_subdomains": count, "color_count": maps.color_count,
                    "memberships": memberships}
        path = tmp_path / "partition.json"
        dump_partition_json(maps, path)
        assert path.read_text(encoding="utf-8") == json.dumps(expected)


class TestCoarseSpace:
    def test_single_subdomain_constant(self, cdr_assembled):
        assembled = cdr_assembled(6)
        maps = build_partition(assembled.m_matrix, PartitionSpec(1),
                               coords=assembled.dof_coords)
        basis = build_coarse_space(maps, assembled.m_matrix).toarray()
        assert basis.shape[1] == 1
        assert np.allclose(basis[:, 0], 1.0)

    def test_disjoint_indicators(self, cdr_assembled):
        assembled = cdr_assembled(8)
        spec = PartitionSpec(2, "strips", overlap_layers=0)
        maps = build_partition(assembled.m_matrix, spec, coords=assembled.dof_coords)
        basis = build_coarse_space(maps, assembled.m_matrix).toarray()
        gram = basis.T @ basis
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() == 0.0

    def test_partition_of_unity(self, cdr_assembled):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        basis = build_coarse_space(maps, assembled.m_matrix)
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
        counts = maps.membership_counts
        unfiltered = np.zeros((assembled.dof_count, 4))
        for k, sub in enumerate(maps.subdomains):
            unfiltered[sub, k] = 1.0 / counts[sub]
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        basis = precond.coarse_basis.toarray()
        assert basis.shape == (assembled.dof_count, 3)
        assert all(any(np.array_equal(column, kept) for kept in unfiltered.T)
                   for column in basis.T)
        assert np.array_equal(build_coarse_space(maps, assembled.m_matrix).toarray(), basis)
        precond.as_weight(validate=True)

    def test_build_coarse_space_leaves_the_maps_alone(self, cdr_assembled):
        # the basis belongs to the preconditioner: building one first does
        # not feed a later preconditioner, which filters against its matrix
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        before = [sub.copy() for sub in maps.subdomains]
        build_coarse_space(maps, assembled.m_matrix)
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

    def test_deflation_projector_idempotent(self, cdr_assembled):
        assembled = cdr_assembled(12)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(assembled.dof_count)
            once = precond.project_deflation(v)
            twice = precond.project_deflation(once)
            assert np.linalg.norm(twice - once) <= 1e-10 * max(np.linalg.norm(once), 1e-30)

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
        basis = build_coarse_space(maps, assembled.m_matrix)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym",
                                       coarse_basis=basis)
        m_sp = assembled.m_matrix
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.standard_normal(assembled.dof_count)
            projected = precond.project_deflation(v)
            coarse_residual = basis.T @ (m_sp @ projected)
            scale = np.linalg.norm(basis.T @ (m_sp @ v))
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
        kappa = condition_number(precond, assembled.m_matrix)
        assert kappa == pytest.approx(1.0, rel=1e-8)

    def test_identity_preconditioner_diagonal_matrix(self):
        handle = PreconditionerHandle.identity(10)
        m = scipy.sparse.csr_array(np.diag(np.arange(1.0, 11.0)))
        assert condition_number(handle, m) == pytest.approx(10.0, rel=1e-10)

    def test_matches_dense_reference(self, cdr_assembled):
        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        h_dense = densify(precond)
        lh = np.linalg.cholesky(0.5 * (h_dense + h_dense.T))
        vals = np.linalg.eigvalsh(lh.T @ assembled.m_matrix.toarray() @ lh)
        kappa = condition_number(precond, assembled.m_matrix)
        assert kappa == pytest.approx(vals[-1] / vals[0], rel=1e-10)

    def test_indefinite_symmetric_part_is_rejected(self):
        handle = PreconditionerHandle.identity(3)
        with pytest.raises(ValueError):
            condition_number(handle, scipy.sparse.csr_array(np.diag([1.0, -1.0, 2.0])))

    def test_two_level_improves_on_one_level(self, cdr_assembled):
        assembled = cdr_assembled(30)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        one = build_preconditioner(assembled.m_matrix, maps, "one_level_sym")
        two = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        kappa_one = condition_number(one, assembled.m_matrix)
        kappa_two = condition_number(two, assembled.m_matrix)
        assert np.isfinite(kappa_two)
        assert kappa_two < kappa_one


def dense_reference_apply(precond, matrix, v):
    """H v from dense Cholesky (symmetric modes) or dense LU factors of the
    same subdomain blocks, and a dense coarse solve on the same basis."""
    dense = matrix.toarray()
    if precond.mode == "one_level_nonsym":
        factors = [scipy.linalg.lu_factor(dense[np.ix_(sub, sub)])
                   for sub in precond.maps.subdomains]
        solve = scipy.linalg.lu_solve
    else:
        factors = [scipy.linalg.cho_factor(dense[np.ix_(sub, sub)])
                   for sub in precond.maps.subdomains]
        solve = scipy.linalg.cho_solve

    def local_sum(w):
        out = np.zeros_like(w)
        for sub, fac in zip(precond.maps.subdomains, factors):
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
            expected = dense_reference_apply(precond, matrix, v)
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
            expected = dense_reference_apply(precond, assembled.m_matrix, v)
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
        h_dense = dense_reference_apply(precond, cdr_assembled(20).full_matrix(),
                                        np.eye(precond.dim))
        y = np.random.default_rng(10).standard_normal(precond.dim)
        want = h_dense.T @ y
        assert np.linalg.norm(precond.apply_transpose(y) - want) <= 1e-12 * np.linalg.norm(want)

    def test_symmetric_transpose_is_h(self, preconds):
        precond = preconds["two_level_sym"]
        y = np.random.default_rng(8).standard_normal(precond.dim)
        assert np.array_equal(precond.apply_transpose(y), precond.apply(y))
