import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from wpkrylov.bounds import HermitianSplit, spectral_radius_skew
from wpkrylov.cdr import (
    CdrProblemSpec,
    assemble,
    build_mesh,
    l2_error,
    reference_problem,
)

from cdr_reference import reference_assemble
from dense_reference import lu_solve


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
        # finiteness check of the coefficients rejects it
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


# cdr.assemble against the triangle-by-triangle COO assembly of
# tests/cdr_reference.py, on draws in the style of test_properties.py
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# the two assemblies sum the same element terms in another order
ENTRY_RTOL = 1e-13


def draw_problem(m, bc, nu, c0, expansion, f):
    """A problem with constant or variable nu, c0 and f, and a rotating
    convection field whose divergence is expansion * (1 + 2 x), so that
    c0 + div(a)/2 stays nonnegative."""
    def convection(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (-3.0 * (y - 0.4) + expansion * x * x, 3.0 * (x - 0.6) + expansion * y)

    return CdrProblemSpec(mesh_divisions=m, nu=nu, c0=c0, a_field=convection, f_rhs=f, bc=bc)


def variable(scale):
    return lambda x, y: scale * (1.0 + 0.5 * np.sin(3.0 * np.asarray(x) + np.asarray(y)))


def constant_or_variable(low, high):
    scales = st.floats(low, high)
    return scales | scales.map(variable)


problems = st.builds(
    draw_problem,
    m=st.integers(2, 24),
    bc=st.sampled_from(["elimination", "penalization"]),
    nu=constant_or_variable(0.01, 10.0),
    c0=st.just(0.0) | constant_or_variable(0.0, 10.0),
    expansion=st.just(0.0) | st.floats(0.1, 3.0),
    f=constant_or_variable(-2.0, 2.0),
)


def assert_entries_close(got, expected):
    """Same pattern, and each entry within ENTRY_RTOL of its row's largest."""
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    # every row holds its diagonal entry, so none is empty
    row_max = np.maximum.reduceat(np.abs(expected.data), expected.indptr[:-1])
    bound = ENTRY_RTOL * np.repeat(row_max, np.diff(expected.indptr))
    assert np.all(np.abs(got.data - expected.data) <= bound)


@EXAMPLES
@given(problems)
def test_assembly_matches_the_triangle_by_triangle_reference(problem):
    got = assemble(problem)
    expected = reference_assemble(problem)
    assert_entries_close(got.m_matrix, expected.m_matrix)
    assert_entries_close(got.n_matrix, expected.n_matrix)
    assert np.abs(got.rhs - expected.rhs).max() <= ENTRY_RTOL * np.abs(expected.rhs).max()
    assert np.array_equal(got.dof_vertices, expected.dof_vertices)
    m_dense = got.m_matrix.toarray()
    n_dense = got.n_matrix.toarray()
    assert np.array_equal(m_dense, m_dense.T)
    assert np.array_equal(n_dense, -n_dense.T)


def nan_right_half(x, y):
    return np.where(np.asarray(x) > 0.5, np.nan, 1.0)


def contracting(x, y):
    # divergence -4: c0 + div(a)/2 < 0 wherever c0 < 2
    return -2.0 * np.asarray(x, dtype=float), -2.0 * np.asarray(y, dtype=float)


BAD_INPUTS = {
    "viscosity": (dict(nu=-1.0), "viscosity must be positive"),
    "variable viscosity": (dict(nu=lambda x, y: np.asarray(x) - 0.5), "viscosity must be positive"),
    "reaction": (dict(c0=lambda x, y: np.asarray(y) - 0.5), "must be nonnegative"),
    "contraction": (dict(c0=1.0, a_field=contracting), "must be nonnegative"),
    "nan viscosity": (dict(nu=nan_right_half), "finite"),
    "nan reaction": (dict(c0=nan_right_half), "finite"),
    # only the mass entries of the bottom edges see it, and elimination drops them
    "nan reaction on the boundary": (dict(c0=lambda x, y: np.where(np.asarray(y) == 0.0,
                                                                 np.nan, 1.0)), "finite"),
    "nan convection": (dict(a_field=lambda x, y: (nan_right_half(x, y), 0.0)), "finite"),
}


@EXAMPLES
@given(st.integers(2, 24), st.sampled_from(["elimination", "penalization"]),
       st.sampled_from(sorted(BAD_INPUTS)))
def test_assembly_rejects_what_the_reference_rejects(m, bc, kind):
    fields, message = BAD_INPUTS[kind]
    problem = CdrProblemSpec(mesh_divisions=m, bc=bc, **fields)
    for assembly in (assemble, reference_assemble):
        with pytest.raises(ValueError, match=message):
            assembly(problem)


def test_each_coefficient_sees_each_mid_edge_point_once():
    m = 9
    seen = {"nu": [], "c0": [], "f": [], "a": []}

    def recording(name, value):
        def field(x, y):
            seen[name].append(np.column_stack([np.ravel(x), np.ravel(y)]))
            return value(x, y)
        return field

    problem = reference_problem(mesh_divisions=m)
    problem.nu = recording("nu", lambda x, y: 1.0 + np.asarray(x))
    problem.c0 = recording("c0", lambda x, y: 1.0 + np.asarray(y))
    problem.f_rhs = recording("f", problem.f_rhs)
    problem.a_field = recording("a", problem.a_field)
    assemble(problem)

    mesh = build_mesh(m)
    pts = mesh.vertices[mesh.triangles]
    mid_edges = np.unique((0.5 * (pts[:, [0, 1, 0]] + pts[:, [1, 2, 2]])).reshape(-1, 2), axis=0)
    assert len(mid_edges) == 3 * m * m + 2 * m
    for name in ("nu", "c0", "f"):
        points = np.concatenate(seen[name])
        assert len(points) == len(mid_edges)
        assert np.array_equal(np.unique(points, axis=0), mid_edges)
    assert sum(len(p) for p in seen["a"]) <= 5 * len(mid_edges)
