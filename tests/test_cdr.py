import numpy as np
import pytest
import scipy.sparse

from wpkrylov.bounds import HermitianSplit, spectral_radius_skew
from wpkrylov.cdr import (
    CdrProblemSpec,
    assemble,
    build_mesh,
    l2_error,
    reference_problem,
)
from wpkrylov.linalg import lu_solve


class TestMesh:
    def test_counts_m2(self):
        mesh = build_mesh(2)
        assert mesh.vertices.shape == (9, 2)
        assert mesh.triangles.shape == (8, 3)

    def test_counts_m10(self):
        mesh = build_mesh(10)
        assert mesh.vertices.shape[0] == 121
        assert mesh.triangles.shape[0] == 200

    def test_uniform_areas(self):
        mesh = build_mesh(3)
        pts = mesh.vertices[mesh.triangles]
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        assert np.allclose(areas, 1.0 / 18.0)
        assert np.all(areas > 0)

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            build_mesh(1)


class TestAssembly:
    def test_single_interior_dof_laplacian(self):
        spec = CdrProblemSpec(mesh_divisions=2, nu=1.0, c0=0.0)
        assembled = assemble(spec)
        assert assembled.dof_count == 1
        assert assembled.m_matrix.toarray()[0, 0] == pytest.approx(4.0)

    def test_zero_convection_gives_zero_skew(self):
        assembled = assemble(CdrProblemSpec(mesh_divisions=5, nu=1.0, c0=1.0))
        assert assembled.n_matrix.nnz == 0 or np.abs(assembled.n_matrix.toarray()).max() == 0.0

    def test_reference_rho(self, cdr_assembled):
        assembled = cdr_assembled(10)
        hs = HermitianSplit(assembled.m_matrix.toarray(), assembled.n_matrix.toarray())
        assert spectral_radius_skew(hs) == pytest.approx(0.3136, abs=0.01)

    def test_skew_part_exactly_antisymmetric(self, cdr_assembled):
        n_dense = cdr_assembled(8).n_matrix.toarray()
        assert np.array_equal(n_dense, -n_dense.T)

    def test_quadratic_forms(self, cdr_assembled):
        assembled = cdr_assembled(8)
        rng = np.random.default_rng(0)
        m_dense = assembled.m_matrix.toarray()
        n_dense = assembled.n_matrix.toarray()
        for _ in range(10):
            x = rng.standard_normal(assembled.dof_count)
            assert abs(x @ n_dense @ x) <= 1e-12 * np.abs(n_dense).max() * (x @ x)
            assert x @ m_dense @ x > 0.0

    def test_refinement_stability_of_rho(self, cdr_assembled):
        rhos = []
        for m in (10, 20, 30):
            assembled = cdr_assembled(m)
            hs = HermitianSplit(assembled.m_matrix.toarray(),
                                assembled.n_matrix.toarray())
            rhos.append(spectral_radius_skew(hs))
        assert max(rhos) - min(rhos) < 0.03

    def test_rejects_negative_viscosity(self):
        with pytest.raises(ValueError):
            assemble(CdrProblemSpec(mesh_divisions=4, nu=-1.0, c0=1.0))

    @pytest.mark.parametrize("bc", ["elimination", "penalization"])
    def test_rejects_non_finite_viscosity(self, bc):
        # NaN passes the nu > 0 check, since it compares false; the
        # finiteness check of the assembled matrices rejects it
        def nu(x, y):
            return np.where(np.asarray(x) > 0.5, np.nan, 1.0)

        with pytest.raises(ValueError, match="finite"):
            assemble(CdrProblemSpec(mesh_divisions=6, nu=nu, c0=1.0, bc=bc))

    @pytest.mark.parametrize("bc", ["elimination", "penalization"])
    def test_matrices_are_canonical_csr_arrays(self, bc):
        assembled = assemble(reference_problem(mesh_divisions=6, bc=bc))
        for part in (assembled.m_matrix, assembled.n_matrix, assembled.full_matrix()):
            assert isinstance(part, scipy.sparse.csr_array)
            assert part.dtype == np.float64 and part.has_canonical_format

    def test_penalization_mode(self):
        spec = reference_problem(mesh_divisions=6, bc="penalization")
        assembled = assemble(spec)
        mesh = assembled.mesh
        assert assembled.dof_count == mesh.vertices.shape[0]
        n_dense = assembled.n_matrix.toarray()
        assert np.array_equal(n_dense, -n_dense.T)
        diag = assembled.m_matrix.toarray().diagonal()
        boundary = mesh.boundary_mask
        assert diag[boundary].min() > 1e8 * diag[~boundary].max()
        assert np.all(assembled.rhs[boundary] == 0.0)


class TestPaperCoefficients:
    def test_source_peak(self):
        spec = reference_problem()
        assert float(spec.f_rhs(0.5, 0.1)) == pytest.approx(1.0)

    def test_rotation_center(self):
        spec = reference_problem()
        ax, ay = spec.a_field(0.5, 0.1)
        assert float(ax) == 0.0 and float(ay) == 0.0

    def test_far_corner_magnitude(self):
        spec = reference_problem()
        ax, ay = spec.a_field(1.0, 1.0)
        assert np.hypot(float(ax), float(ay)) == pytest.approx(6.469, abs=0.001)


class TestManufacturedSolution:
    def test_second_order_convergence(self):
        errors = {}
        for m in (8, 16):
            spec = CdrProblemSpec(
                mesh_divisions=m,
                nu=1.0,
                c0=0.0,
                f_rhs=lambda x, y: 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y),
            )
            assembled = assemble(spec)
            u = lu_solve(assembled.m_matrix.toarray(), assembled.rhs)
            errors[m] = l2_error(
                assembled, u, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
            )
        assert errors[8] / errors[16] >= 3.5
