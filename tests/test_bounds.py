import math

import numpy as np
import pytest

import scipy.linalg
import scipy.optimize

from wpkrylov import bounds
from wpkrylov.bounds import (
    RAYLEIGH_DIM_LIMIT,
    BoundReport,
    _lanczos_extremes,
    _min_abs_over_range,
    HermitianSplit,
    analytic_rho_bound,
    compute_bound_report,
    direct_bound3,
    fov_distance,
    johnson_identity_check,
    spectral_radius_skew,
    split,
    weighted_operator_norm,
)
from wpkrylov.cdr import CdrProblemSpec, assemble, reference_problem
from wpkrylov.linalg import (
    EigenSolverError,
    LinearOperator,
    NotPositiveDefiniteError,
    cholesky,
    densify,
    gen_sym_eig,
    sym_eig,
)
from wpkrylov.solvers import LinearSystem, SolveConfig, wp_gcr_right
from wpkrylov.weighting import PreconditionerHandle, WeightOperator

from conftest import make_pd_system, make_spd


class TestSplit:
    def test_symmetric_gives_zero_skew(self):
        rng = np.random.default_rng(0)
        s = make_spd(rng, 6)
        hs = split(s)
        assert np.abs(hs.n_part).max() == 0.0
        assert np.allclose(hs.m_part, s)

    def test_skew_gives_zero_symmetric(self):
        n = np.array([[0.0, 2.0], [-2.0, 0.0]])
        hs = split(n)
        assert np.abs(hs.m_part).max() == 0.0

    def test_hand_example(self):
        hs = split(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.allclose(hs.m_part, [[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(hs.n_part, [[0.0, 1.0], [-1.0, 0.0]])

    def test_parts_recombine(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 30))
        hs = split(a)
        assert np.abs(hs.m_part + hs.n_part - a).max() <= 1e-13 * np.abs(a).max()
        assert np.abs(hs.m_part - hs.m_part.T).max() <= 1e-13 * np.abs(a).max()
        assert np.abs(hs.n_part + hs.n_part.T).max() <= 1e-13 * np.abs(a).max()


class TestSpectralRadiusSkew:
    def test_symmetric_is_zero(self):
        rng = np.random.default_rng(2)
        assert spectral_radius_skew(split(make_spd(rng, 8))) <= 1e-12

    def test_unit_rotation(self):
        hs = HermitianSplit(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert spectral_radius_skew(hs) == pytest.approx(1.0, abs=1e-12)

    def test_reference_problem_coarse_mesh(self, cdr_assembled):
        assembled = cdr_assembled(10)
        hs = HermitianSplit(assembled.m_matrix.toarray(), assembled.n_matrix.toarray())
        assert spectral_radius_skew(hs) == pytest.approx(0.3136, abs=0.01)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        skew = rng.standard_normal((10, 10))
        a = make_spd(rng, 10) + 0.5 * (skew - skew.T)
        base = spectral_radius_skew(split(a))
        for c in (0.1, 10.0):
            scaled = spectral_radius_skew(split(c * a))
            assert scaled == pytest.approx(base, rel=1e-10)

    def test_requires_positive_definite_part(self):
        hs = HermitianSplit(np.diag([1.0, -1.0]), np.zeros((2, 2)))
        with pytest.raises(NotPositiveDefiniteError):
            spectral_radius_skew(hs)

    def test_joint_coefficient_scaling_quarters_rho(self, cdr_assembled):
        # scaling nu = c0 by 4 scales the symmetric part by 4 and leaves the
        # skew part alone, so the measure drops by exactly 4
        base = cdr_assembled(10)
        scaled = assemble(reference_problem(nu=4.0, c0=4.0, mesh_divisions=10))
        rho_base = spectral_radius_skew(
            HermitianSplit(base.m_matrix.toarray(), base.n_matrix.toarray())
        )
        rho_scaled = spectral_radius_skew(
            HermitianSplit(scaled.m_matrix.toarray(), scaled.n_matrix.toarray())
        )
        assert rho_scaled == pytest.approx(rho_base / 4.0, rel=1e-10)


def _spectral_norm(c):
    """Largest singular value, from the eigenvalues of C^T C."""
    gram = c.T @ c
    vals = sym_eig(0.5 * (gram + gram.T), vectors=False)
    return float(np.sqrt(max(vals[-1], 0.0)))


def _whiten(b, w_dense):
    """L^T B L^{-T} with W = L L^T."""
    lower = cholesky(w_dense).lower
    return lower.T @ scipy.linalg.solve_triangular(lower, b.T, lower=True).T


def _min_normalized_quotient(c, s_vals):
    """Infimum over y of (y^T S y)^2 / (||C y||^2 ||y||^2), S = sym(C),
    given the eigenvalues of S (ascending): 0 when they hold zero, else
    the maximum over t >= 0 of lambda_min(t s S - t^2 C^T C / 4), s the
    sign of S, by a bounded scalar search over (0, 2 / min |lambda(S)|)
    with one dense smallest-eigenvalue solve per step."""
    d = _min_abs_over_range(s_vals)
    if d == 0.0:
        return 0.0
    s_mat = math.copysign(0.5, s_vals[0]) * (c + c.T)
    k_mat = c.T @ c

    def neg_phi(t):
        m = t * s_mat - (0.25 * t * t) * k_mat
        return -scipy.linalg.eigvalsh(m, subset_by_index=[0, 0])[0]

    res = scipy.optimize.minimize_scalar(neg_phi, bounds=(0.0, 2.0 / d), method="bounded",
                                         options={"xatol": 0.0})
    return float(np.clip(-res.fun, 0.0, 1.0))


def dense_bound1(c, s_vals):
    return float(np.sqrt(1.0 - _min_normalized_quotient(c, s_vals)))


def dense_weighted_report(a, h_dense, w_dense=None):
    """fov_distance, op_norm and bound1 from the dense C = L^T (A H) L^{-T}
    with W = L L^T (L = I without w_dense), as the report for a weight
    other than H used to compute them."""
    b = a @ h_dense
    c = b if w_dense is None else _whiten(b, w_dense)
    s_vals = sym_eig(0.5 * (c + c.T), vectors=False)
    return BoundReport(fov_distance=_min_abs_over_range(s_vals), op_norm=_spectral_norm(c),
                       bound1=dense_bound1(c, s_vals))


@pytest.fixture
def no_densify(monkeypatch):
    """Fail any densification the bound report asks for."""
    def refuse(op, *args, **kwargs):
        raise AssertionError("densify called")

    monkeypatch.setattr(bounds, "densify", refuse)


class TestFovDistance:
    def test_spd_gives_min_eigenvalue(self):
        a = np.diag([2.0, 5.0, 9.0])
        assert fov_distance(a, WeightOperator.identity(3)) == pytest.approx(2.0, abs=1e-10)

    def test_skew_contains_zero(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert fov_distance(a, WeightOperator.identity(2)) == 0.0

    def test_negative_definite(self):
        a = np.diag([-3.0, -7.0])
        assert fov_distance(a, WeightOperator.identity(2)) == pytest.approx(3.0, abs=1e-10)

    def test_symmetric_equals_clipped_min_eig(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            s = rng.standard_normal((7, 7))
            s = 0.5 * (s + s.T)
            d = fov_distance(s, WeightOperator.identity(7))
            expected = max(0.0, min(np.linalg.eigvalsh(s)))
            # the range of a symmetric matrix with eigenvalues of both signs
            # contains zero; otherwise the distance is an extreme eigenvalue
            vals = np.linalg.eigvalsh(s)
            if vals[0] <= 0.0 <= vals[-1]:
                expected = 0.0
            elif vals[-1] < 0.0:
                expected = -vals[-1]
            assert d == pytest.approx(expected, abs=1e-10)

    def test_monte_carlo_rayleigh_upper_bounds(self):
        rng = np.random.default_rng(5)
        n = 6
        sym = make_spd(rng, n)
        skew = rng.standard_normal((n, n))
        a = sym + 0.4 * (skew - skew.T)
        d = fov_distance(a, WeightOperator.identity(n))
        assert d > 0.0
        smallest = np.inf
        for _ in range(100_000):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            quotient = abs(np.vdot(u, a @ u)) / np.vdot(u, u).real
            smallest = min(smallest, quotient)
        assert d <= smallest * (1.0 + 1e-10) + 1e-12

    def test_weighted_reduces_to_whitened(self):
        rng = np.random.default_rng(6)
        n = 5
        w_dense = make_spd(rng, n)
        a = make_spd(rng, n)
        d = fov_distance(a, WeightOperator.from_dense(w_dense))
        lw = np.linalg.cholesky(w_dense)
        c = lw.T @ a @ np.linalg.inv(lw.T)
        expected = min(np.linalg.eigvalsh(0.5 * (c + c.T)))
        assert d == pytest.approx(max(expected, 0.0), rel=1e-9)


class TestBoundReport:
    def test_exact_inverse_preconditioner(self):
        rng = np.random.default_rng(7)
        h_dense = make_spd(rng, 6)
        a = np.linalg.inv(h_dense)
        a = 0.5 * (a + a.T)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.from_dense(h_dense)
        report = compute_bound_report(a, h, w)
        assert report.kappa == pytest.approx(1.0, rel=1e-9)
        assert report.rho == pytest.approx(0.0, abs=1e-10)
        assert report.bound3 == pytest.approx(0.0, abs=1e-5)

    def test_worked_numbers(self):
        assert direct_bound3(63.0, 1.0) == pytest.approx(0.996, abs=0.0005)
        report = BoundReport(kappa=63.0, rho=1.0, bound3=direct_bound3(63.0, 1.0))
        assert abs(report.predicted_iterations(1e-6) - 3468) <= 1

    def test_trivial_prediction(self):
        report = BoundReport(kappa=1.0, rho=0.0, bound3=direct_bound3(1.0, 0.0))
        assert report.predicted_iterations(1e-6) == 1

    def test_chain_ordering(self):
        rng = np.random.default_rng(8)
        n = 10
        skew = rng.standard_normal((n, n))
        a = make_spd(rng, n) + 0.4 * (skew - skew.T)
        m_part = 0.5 * (a + a.T)
        h_dense = np.linalg.inv(m_part)
        h_dense = 0.5 * (h_dense + h_dense.T)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.from_dense(h_dense)
        report = compute_bound_report(a, h, w)
        assert 0.0 <= report.bound1 <= report.bound2 + 1e-12
        assert report.bound2 <= report.bound3 + 1e-12
        assert report.bound3 <= 1.0

    def test_non_spd_preconditioner_gets_partial_report(self):
        rng = np.random.default_rng(9)
        a = make_spd(rng, 5)
        h = PreconditionerHandle.from_dense(np.triu(np.ones((5, 5))), hermitian_flag=False)
        w = WeightOperator.identity(5)
        report = compute_bound_report(a, h, w)
        assert report.bound1 is not None
        assert report.bound2 is None and report.bound3 is None

    def test_bound1_dominates_general_weighted_run(self):
        # nonsymmetric preconditioner, non-identity SPD weight
        rng = np.random.default_rng(10)
        n = 12
        skew = rng.standard_normal((n, n))
        a = make_spd(rng, n, shift=3.0) + 0.3 * (skew - skew.T)
        h_dense = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
        w_dense = make_spd(rng, n)
        h = PreconditionerHandle.from_dense(h_dense)
        w = WeightOperator.from_dense(w_dense)
        report = compute_bound_report(a, h, w)
        assert report.bound1 is not None and 0.0 < report.bound1 < 1.0
        b = rng.standard_normal(n)
        res = wp_gcr_right(LinearSystem(a, b), h, w, SolveConfig(rel_tolerance=1e-8))
        norms = res.trace.residual_norm_weighted
        for i, value in enumerate(norms):
            assert value / norms[0] <= report.bound1**i * (1.0 + 1e-10)

    def test_bound1_is_invariant_under_negation(self):
        # a negative definite symmetric part gives the same quotient as its
        # negation; a 0 infimum there would make bound1 the trivial 1
        rng = np.random.default_rng(45)
        n = 10
        skew = rng.standard_normal((n, n))
        a = make_spd(rng, n) + 0.4 * (skew - skew.T)
        h = PreconditionerHandle.identity(n)
        w = WeightOperator.identity(n)
        plus = compute_bound_report(a, h, w).bound1
        minus = compute_bound_report(-a, h, w).bound1
        assert 0.0 < plus < 1.0
        assert minus == pytest.approx(plus, rel=1e-14, abs=0.0)
        res = wp_gcr_right(LinearSystem(-a, rng.standard_normal(n)), h, w,
                           SolveConfig(rel_tolerance=1e-8))
        assert res.status == "converged"
        norms = res.trace.residual_norm_weighted
        for i, value in enumerate(norms):
            assert value / norms[0] <= minus**i * (1.0 + 1e-10)

    def test_roundtrip_dict(self):
        report = BoundReport(kappa=2.0, rho=0.5, bound3=0.9)
        again = BoundReport.from_dict(report.to_dict())
        assert again == report

    def test_mesh_problem_report_dominates_run(self, cdr_assembled):
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner
        from wpkrylov.solvers import whp_gcr

        assembled = cdr_assembled(30)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        h = precond.as_handle()
        w = precond.as_weight(validate=False)
        report = compute_bound_report(assembled.operator(), h, w)
        assert report.bound3 is not None and report.bound3 < 1.0
        predicted = report.predicted_iterations(1e-6)
        result = whp_gcr(LinearSystem(assembled.operator(), assembled.rhs), h,
                         SolveConfig())
        assert result.status == "converged"
        assert result.iterations <= predicted


class _Counted:
    """An operator that counts its applications."""

    def __init__(self, dim, apply):
        self.dim = dim
        self._apply = apply
        self.vectors = 0

    def __call__(self, v):
        self.vectors += 1
        return self._apply(v)


class TestBlockedReport:
    # n = 529 is above RAYLEIGH_DIM_LIMIT, so bound1 is not computed and
    # not part of the comparison
    @pytest.fixture(scope="class")
    def schwarz_h(self, cdr_assembled):
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(24)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        return assembled, precond

    def test_w_equal_h_never_gives_h_an_n_column_block(self, schwarz_h, no_densify):
        assembled, precond = schwarz_h
        n = precond.dim
        assert n > RAYLEIGH_DIM_LIMIT
        counted = _Counted(n, precond.apply)
        handle = PreconditionerHandle(n, counted, hermitian_flag=True)
        weight = WeightOperator(n, handle.apply, validate=False)
        report = compute_bound_report(assembled.operator(), handle, weight)
        # H is applied to vectors only (a callable has no other action):
        # 8 probes each through H and W = H, then the Lanczos steps
        assert counted.vectors > 16
        assert report.bound2 is not None and report.bound3 is not None

    def test_w_equal_h_bound1_search_applies_h_to_vectors_only(self, cdr_assembled, no_densify):
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(16)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        n = precond.dim
        assert n <= RAYLEIGH_DIM_LIMIT
        counted = _Counted(n, precond.apply)
        handle = PreconditionerHandle(n, counted, hermitian_flag=True)
        report = compute_bound_report(assembled.operator(), handle,
                                      WeightOperator(n, handle.apply, validate=False))
        assert report.bound1 is not None and 0.0 < report.bound1 < 1.0

    def test_op_norm_solve_applies_h_twice_per_step(self, schwarz_h, monkeypatch):
        assembled, precond = schwarz_h
        n = precond.dim
        counted = _Counted(n, precond.apply)
        handle = PreconditionerHandle(n, counted, hermitian_flag=True)
        solves = []  # (steps, H applies) of each Lanczos solve
        lanczos = bounds._lanczos_extremes

        def recorded(apply_t, *args, **kwargs):
            steps = []
            before = counted.vectors

            def stepped(v):
                steps.append(1)
                return apply_t(v)

            out = lanczos(stepped, *args, **kwargs)
            solves.append((len(steps), counted.vectors - before))
            return out

        monkeypatch.setattr(bounds, "_lanczos_extremes", recorded)
        report = compute_bound_report(assembled.operator(), handle,
                                      WeightOperator(n, handle.apply, validate=False))
        assert report.op_norm is not None
        # the solves run as H M, H A^T H A (op_norm), H A^T M^{-1} A, M^{-1} N^T M^{-1} N;
        # op_norm applies H once in T and once in X per step, plus X on the start vector
        steps, h_applies = solves[1]
        assert steps > 1
        assert h_applies == 2 * steps + 1

    def test_w_equal_h_report_matches_column_loop(self, schwarz_h):
        assembled, precond = schwarz_h
        n = precond.dim
        handle = precond.as_handle()
        report = compute_bound_report(assembled.operator(), handle,
                                      WeightOperator(n, handle.apply, validate=False))
        # reference: every operator known only through its vector action
        loop_h = PreconditionerHandle(n, lambda v: precond.apply(v), hermitian_flag=True)
        reference = compute_bound_report(
            LinearOperator(n, assembled.operator().apply), loop_h,
            WeightOperator(n, lambda v: precond.apply(v), validate=False))
        got, want = report.to_dict(), reference.to_dict()
        assert [k for k, v in got.items() if v is None] == ["bound1", "alpha_analytic"]
        for key, value in want.items():
            if value is None:
                assert got[key] is None
            else:
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    def test_identity_weight_is_not_densified(self, no_densify):
        # a symmetric H is its own transpose: it is applied to vectors only
        a, h_dense, _ = make_pd_system(41, n=12)
        counted = _Counted(12, lambda x: h_dense @ x)
        h = PreconditionerHandle(12, counted, hermitian_flag=True)
        report = compute_bound_report(a, h, WeightOperator.identity(12))
        assert counted.vectors > 1
        assert_reports_agree(report, dense_weighted_report(a, h_dense))
        assert report.op_norm == pytest.approx(np.linalg.norm(a @ h_dense, 2), rel=1e-12)
        assert report.kappa is None and report.bound2 is None

    def test_other_spd_weight_is_densified(self, monkeypatch):
        a, h_dense, _ = make_pd_system(42, n=12)
        w_dense = make_spd(np.random.default_rng(43), 12)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        counted = _Counted(12, lambda x: w_dense @ x)
        w = WeightOperator(12, counted, validate=False)
        factored = []
        monkeypatch.setattr(bounds, "cholesky",
                            lambda s: factored.append(s.shape) or cholesky(s))
        report = compute_bound_report(a, h, w)
        # W is densified once, one vector apply per column, and factored
        # once; one more apply is the first probe of whether W equals H
        assert counted.vectors == 1 + 12
        assert factored == [(12, 12)]
        assert_reports_agree(report, dense_weighted_report(a, h_dense, w_dense))
        assert report.bound1 is not None
        assert report.kappa is None and report.bound2 is None and report.bound3 is None


    @pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
    def test_report_fov_is_the_closed_form(self, sign):
        # positive definite, negative definite and indefinite symmetric parts
        rng = np.random.default_rng(44)
        skew = rng.standard_normal((6, 6))
        sym = sign * make_spd(rng, 6) if sign else np.diag([-2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
        a = sym + 0.3 * (skew - skew.T)
        w_dense = make_spd(rng, 6)
        h = PreconditionerHandle.identity(6)
        for w, dense_w in ((WeightOperator.identity(6), None),
                           (WeightOperator.from_dense(w_dense), w_dense)):
            report = compute_bound_report(a, h, w)
            want = dense_weighted_report(a, np.eye(6), dense_w).fov_distance
            assert report.fov_distance == pytest.approx(want, rel=1e-10, abs=0.0)
            assert fov_distance(a, w) == pytest.approx(want, rel=1e-10, abs=0.0)
            assert (report.fov_distance > 0.0) == bool(sign)


def dense_w_equal_h_report(a, h_dense):
    """The report for W = H from the dense formulas the matrix-free one
    replaced: C = L^T A L with H = L L^T, eigenvalues of sym(C), of
    C^T C, of the pencil (sym(A^{-1}), H) and of L_M^{-1} N L_M^{-T}."""
    n = a.shape[0]
    lh = cholesky(h_dense).lower
    c = lh.T @ a @ lh
    s_vals = sym_eig(0.5 * (c + c.T), vectors=False)
    gram = c.T @ c
    report = BoundReport(
        lambda_min=float(s_vals[0]), lambda_max=float(s_vals[-1]),
        fov_distance=_min_abs_over_range(s_vals),
        op_norm=float(np.sqrt(sym_eig(0.5 * (gram + gram.T), vectors=False)[-1])))
    if s_vals[0] > 0.0:
        report.kappa = float(s_vals[-1] / s_vals[0])
    if n <= RAYLEIGH_DIM_LIMIT or report.fov_distance == 0.0:
        report.bound1 = dense_bound1(c, s_vals)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        a_inv = None
    if a_inv is not None:
        inv_eigs = gen_sym_eig(0.5 * (a_inv + a_inv.T), cholesky(h_dense))
        inf1 = _min_abs_over_range(inv_eigs)
        report.bound2 = float(np.sqrt(np.clip(1.0 - inf1 * report.fov_distance, 0.0, 1.0)))
    try:
        m_lower = cholesky(0.5 * (a + a.T)).lower
    except NotPositiveDefiniteError:
        m_lower = None
    if m_lower is not None:
        y = scipy.linalg.solve_triangular(m_lower, 0.5 * (a - a.T), lower=True)
        skew = scipy.linalg.solve_triangular(m_lower, y.T, lower=True).T
        report.rho = float(np.linalg.norm(skew, 2))
    if report.rho is not None and report.kappa is not None:
        report.bound3 = direct_bound3(report.kappa, report.rho)
    return report


def assert_reports_agree(got, want, rtol=1e-10):
    """Same None fields; bound1 equal to 1e-12 relative, the others to
    rtol, lambda_min and lambda_max relative to op_norm = ||C|| >= |lambda|
    (they are round-off when M = 0)."""
    got, want = got.to_dict(), want.to_dict()
    assert [k for k, v in got.items() if v is None] == [k for k, v in want.items() if v is None]
    scale = want["op_norm"]
    for key, value in want.items():
        if value is None:
            continue
        if key in ("lambda_min", "lambda_max"):
            assert abs(got[key] - value) <= rtol * scale, key
        else:
            tol = 1e-12 if key == "bound1" else rtol
            assert got[key] == pytest.approx(value, rel=tol, abs=0.0), key


def _with_symmetric_part(rng, n, eigs, skew_scale=0.5):
    """A = M + N with M of the given eigenvalues in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sym = (q * np.asarray(eigs, dtype=float)) @ q.T
    skew = rng.standard_normal((n, n))
    return 0.5 * (sym + sym.T) + skew_scale * (skew - skew.T)


def _exactly_singular(rng, n):
    """An indefinite symmetric part bordered by a zero row and column."""
    a = np.zeros((n, n))
    a[1:, 1:] = _with_symmetric_part(rng, n - 1, np.linspace(-2.0, 3.0, n - 1))
    return a


SPECIAL_SYSTEMS = {
    "negative-definite": lambda rng: _with_symmetric_part(rng, 12, -np.linspace(0.5, 4.0, 12)),
    "indefinite": lambda rng: _with_symmetric_part(rng, 12, np.linspace(-2.0, 3.0, 12)),
    "singular-m": lambda rng: _with_symmetric_part(rng, 12, np.r_[-1.0, 0.0, np.ones(10)]),
    "zero-m": lambda rng: _with_symmetric_part(rng, 12, np.zeros(12)),
    "singular-a": lambda rng: _exactly_singular(rng, 12),
}


# bound1 of the two-level 2x2 report on the reference problem, W = H,
# from the dense search on C = L^T A L
RECORDED_BOUND1 = {16: 0.8018936248710226, 22: 0.8485226796166253}


def _nonsymmetric_h(rng, n):
    return np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)


class TestMatrixFreeReport:
    """The report against the dense formulas it replaced."""

    def test_criterion_06_systems(self):
        from conftest import make_pd_system

        for seed in range(20):
            a, h_dense, _ = make_pd_system(seed)
            h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
            got = compute_bound_report(a, h, WeightOperator.from_dense(h_dense))
            assert_reports_agree(got, dense_w_equal_h_report(a, h_dense))

    @pytest.mark.parametrize("m", [16, 22, 24, 30])
    def test_schwarz_reports(self, cdr_assembled, m):
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(m)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        handle = precond.as_handle()
        got = compute_bound_report(assembled.operator(), handle,
                                   WeightOperator(precond.dim, handle.apply, validate=False))
        h_dense = densify(precond)
        want = dense_w_equal_h_report(assembled.full_matrix().toarray(),
                                      0.5 * (h_dense + h_dense.T))
        assert_reports_agree(got, want)
        # bound1 is searched up to n = 512: m = 22 gives n = 441, m = 24 n = 529
        if m in RECORDED_BOUND1:
            assert got.bound1 == pytest.approx(RECORDED_BOUND1[m], rel=1e-12, abs=0.0)
        else:
            assert got.bound1 is None

    @pytest.mark.parametrize("name", sorted(SPECIAL_SYSTEMS))
    def test_symmetric_part_not_positive_definite(self, name):
        rng = np.random.default_rng(47)
        a = SPECIAL_SYSTEMS[name](rng)
        h_dense = make_spd(rng, a.shape[0])
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        got = compute_bound_report(a, h, WeightOperator.from_dense(h_dense))
        assert_reports_agree(got, dense_w_equal_h_report(a, h_dense))
        assert got.rho is None and got.bound3 is None
        assert (got.bound2 is None) == (name == "singular-a")

    @pytest.mark.parametrize("weight", ["identity", "general"])
    @pytest.mark.parametrize("h_kind", ["symmetric", "nonsymmetric"])
    @pytest.mark.parametrize("system", ["pd-0", "pd-1", "pd-2", *sorted(SPECIAL_SYSTEMS)])
    def test_weight_other_than_h(self, system, h_kind, weight):
        rng = np.random.default_rng(49)
        if system in SPECIAL_SYSTEMS:
            a = SPECIAL_SYSTEMS[system](rng)
        else:
            a, _, _ = make_pd_system(int(system[3:]), n=12)
        n = a.shape[0]
        if h_kind == "symmetric":
            h_dense = make_spd(rng, n)
            h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        else:
            h_dense = _nonsymmetric_h(rng, n)
            h = PreconditionerHandle.from_dense(h_dense)
        w_dense = make_spd(rng, n) if weight == "general" else None
        w = WeightOperator.identity(n) if w_dense is None else WeightOperator.from_dense(w_dense)
        got = compute_bound_report(a, h, w)
        assert_reports_agree(got, dense_weighted_report(a, h_dense, w_dense))
        b = a @ h_dense
        assert fov_distance(b, w) == pytest.approx(got.fov_distance, rel=1e-10, abs=0.0)
        assert weighted_operator_norm(b, w) == pytest.approx(got.op_norm, rel=1e-10, abs=0.0)

    def test_nonsymmetric_schwarz_h_is_not_densified(self, cdr_assembled, no_densify):
        # C^T applies H^T by the transposed solves of the local LU factors
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(24)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.full_matrix(), maps, "one_level_nonsym")
        n = precond.dim
        assert n > RAYLEIGH_DIM_LIMIT
        got = compute_bound_report(assembled.operator(), precond.as_handle(),
                                   WeightOperator.identity(n))
        b = assembled.full_matrix() @ densify(precond)
        s_vals = sym_eig(0.5 * (b + b.T), vectors=False)
        assert s_vals[0] < 0.0 < s_vals[-1]
        assert got.fov_distance == 0.0 and got.bound1 == 1.0
        assert got.op_norm == pytest.approx(np.linalg.norm(b, 2), rel=1e-10, abs=0.0)
        assert got.kappa is None and got.bound2 is None and got.bound3 is None

    @pytest.mark.parametrize("weight", ["identity", "general"])
    def test_nonsymmetric_h_without_a_transpose_leaves_its_fields_out(self, weight,
                                                                     no_densify):
        rng = np.random.default_rng(50)
        a, _, _ = make_pd_system(3, n=12)
        h_dense = _nonsymmetric_h(rng, 12)
        h = PreconditionerHandle(12, lambda v: h_dense @ v)
        w = (WeightOperator.identity(12) if weight == "identity"
             else WeightOperator.from_dense(make_spd(rng, 12)))
        report = compute_bound_report(a, h, w)
        assert all(value is None for value in report.to_dict().values())

    def test_semidefinite_symmetric_part_puts_zero_in_the_range(self):
        # H M has an exact eigenvalue 0 that Lanczos in the M H M inner
        # product cannot see; the report adds it (the dense eigenvalue is
        # round-off of either sign, so kappa is compared by hand)
        rng = np.random.default_rng(48)
        a = _with_symmetric_part(rng, 12, np.r_[0.0, np.linspace(1.0, 3.0, 11)])
        h_dense = make_spd(rng, 12)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        got = compute_bound_report(a, h, WeightOperator.from_dense(h_dense))
        want = dense_w_equal_h_report(a, h_dense)
        assert got.lambda_min == 0.0 and got.fov_distance == 0.0
        assert abs(want.lambda_min) <= 1e-12 * want.lambda_max
        assert got.lambda_max == pytest.approx(want.lambda_max, rel=1e-10)
        assert got.op_norm == pytest.approx(want.op_norm, rel=1e-10)
        assert got.kappa is None and got.rho is None and got.bound3 is None
        assert got.bound2 == 1.0 and got.bound1 == 1.0


class TestLanczosExtremes:
    def test_step_limit_raises(self, monkeypatch):
        diag = np.arange(1.0, 41.0)
        monkeypatch.setattr(bounds, "LANCZOS_STEP_LIMIT", 3)
        with pytest.raises(EigenSolverError):
            _lanczos_extremes(lambda v: diag * v, np.copy, 40, (0, -1))
        # at the dimension the Ritz values are exact, whatever the limit
        small = diag[:3]
        got = _lanczos_extremes(lambda v: small * v, np.copy, 3, (0, -1))
        assert np.allclose(got, [1.0, 3.0], rtol=1e-14, atol=0.0)

    def test_narrow_spectrum_far_from_zero(self):
        # beta / alpha starts near 1e-6 here: small, but not round-off
        diag = 1e3 + np.linspace(0.0, 1e-2, 30)
        got = _lanczos_extremes(lambda v: diag * v, np.copy, 30, (0, -1))
        assert np.allclose(got, [diag[0], diag[-1]], rtol=1e-12, atol=0.0)

    def test_zero_inner_product_gives_zero(self):
        got = _lanczos_extremes(np.zeros_like, np.zeros_like, 5, (0, -1))
        assert list(got) == [0.0, 0.0]

    def test_negative_inner_product_is_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            _lanczos_extremes(np.copy, np.negative, 3, (-1,))


def _quotient(c, y):
    """(y^T C y)^2 / (||C y||^2 ||y||^2)."""
    u = y @ c @ y
    return u * u / (np.sum((c @ y) ** 2) * (y @ y))


def _random_c(rng, n):
    """A square C whose symmetric part is definite, of either sign."""
    skew = rng.standard_normal((n, n))
    sym = make_spd(rng, n, shift=rng.uniform(0.1, 2.0))
    return rng.choice([-1.0, 1.0]) * sym + rng.uniform(0.0, 2.0) * (skew - skew.T)


def _dual_argmax(s, k, hi, points=21, rounds=16):
    """Maximizer of the concave lambda_min(t S - t^2 K / 4) over [0, hi],
    by a grid refined about its best point."""
    lo = 0.0
    for _ in range(rounds):
        ts = np.linspace(lo, hi, points)
        phi = [np.linalg.eigvalsh(t * s - 0.25 * t * t * k)[0] for t in ts]
        best = int(np.argmax(phi))
        lo, hi = ts[max(best - 1, 0)], ts[min(best + 1, points - 1)]
    return 0.5 * (lo + hi)


class TestMinNormalizedQuotient:
    """The dual value is the infimum: below every sampled quotient, and
    attained by the eigenvector at the dual maximizer."""

    def test_search_is_not_capped_by_the_step_limit(self, monkeypatch):
        # each phi of the search may run to the dimension, where its Ritz
        # values are exact, as the dense search did up to RAYLEIGH_DIM_LIMIT
        rng = np.random.default_rng(99)
        n = 40
        c = _random_c(rng, n)
        s_vals = np.linalg.eigvalsh(0.5 * (c + c.T))
        sign = np.sign(s_vals[0])

        def pencil(t, v):
            return (0.5 * t * sign) * (c @ v + c.T @ v) - (0.25 * t * t) * (c.T @ (c @ v))

        monkeypatch.setattr(bounds, "LANCZOS_STEP_LIMIT", 3)
        got = bounds._dual_bound1(pencil, np.copy, n, np.abs(s_vals).min())
        assert got == pytest.approx(dense_bound1(c, s_vals), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30])
    def test_value_is_attained_and_a_lower_bound(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            c = _random_c(rng, n)
            s_vals, s_vecs = np.linalg.eigh(0.5 * (c + c.T))
            value = _min_normalized_quotient(c, s_vals)
            assert 0.0 < value <= 1.0
            samples = list(s_vecs.T) + list(rng.standard_normal((20, n)))
            for y in samples:
                assert value <= _quotient(c, y) * (1.0 + 1e-12)
            # t* from a grid search, independent of the solver's own search
            s = np.sign(s_vals[0]) * 0.5 * (c + c.T)
            k = c.T @ c
            t_star = _dual_argmax(s, k, 2.0 / np.abs(s_vals).min())
            _, vecs = np.linalg.eigh(t_star * s - 0.25 * t_star**2 * k)
            assert _quotient(c, vecs[:, 0]) == pytest.approx(value, rel=1e-10, abs=0.0)
            # the report's Lanczos search finds the same value
            report = compute_bound_report(c, PreconditionerHandle.identity(n),
                                          WeightOperator.identity(n))
            assert report.bound1 == pytest.approx(np.sqrt(1.0 - value), rel=1e-12, abs=0.0)

    def test_two_by_two_matches_angle_scan(self):
        c = np.array([[2.0, 3.0], [-1.0, 1.0]])  # sym(C) = [[2, 1], [1, 1]] is definite
        theta = np.linspace(0.0, np.pi, 200_001)
        ys = np.stack([np.cos(theta), np.sin(theta)])
        u = np.einsum("it,ij,jt->t", ys, c, ys)
        scan = np.min(u * u / np.sum((c @ ys) ** 2, axis=0))
        value = _min_normalized_quotient(c, np.linalg.eigvalsh(0.5 * (c + c.T)))
        assert value > 0.0
        assert value <= scan * (1.0 + 1e-12)
        assert value == pytest.approx(scan, rel=1e-8)

    def test_indefinite_symmetric_part_gives_zero(self):
        rng = np.random.default_rng(46)
        skew = rng.standard_normal((6, 6))
        c = np.diag([-2.0, -1.0, 1.0, 2.0, 3.0, 4.0]) + 0.3 * (skew - skew.T)
        assert _min_normalized_quotient(c, np.linalg.eigvalsh(0.5 * (c + c.T))) == 0.0


class TestJohnsonIdentity:
    def test_symmetric_case(self):
        rng = np.random.default_rng(11)
        a = make_spd(rng, 7)
        lhs, rhs = johnson_identity_check(split(a), np.linalg.inv(a))
        assert lhs == pytest.approx(1.0, abs=1e-9)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_analytic(self):
        a = np.array([[1.0, 1.0], [-1.0, 1.0]])
        lhs, rhs = johnson_identity_check(split(a), np.linalg.inv(a))
        assert rhs == pytest.approx(0.5, abs=1e-12)
        assert lhs == pytest.approx(0.5, abs=1e-10)

    def test_random_positive_definite_50(self):
        rng = np.random.default_rng(12)
        n = 50
        skew = rng.standard_normal((n, n))
        a = make_spd(rng, n) + 0.5 * (skew - skew.T)
        lhs, rhs = johnson_identity_check(split(a), np.linalg.inv(a))
        assert abs(lhs - rhs) <= 1e-8


class TestAnalyticBound:
    def test_reference_value(self):
        assert analytic_rho_bound(reference_problem()) == pytest.approx(3.23, abs=0.01)

    def test_zero_convection(self):
        spec = CdrProblemSpec(mesh_divisions=4, nu=1.0, c0=1.0)
        assert analytic_rho_bound(spec) == 0.0

    def test_scaling(self):
        base = analytic_rho_bound(reference_problem(nu=1.0, c0=1.0))
        quarter = analytic_rho_bound(reference_problem(nu=4.0, c0=4.0))
        assert quarter == pytest.approx(base / 4.0, rel=1e-12)
        assert quarter == pytest.approx(0.8075, abs=0.0025)

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            analytic_rho_bound(reference_problem(nu=-1.0))

    def test_matches_a_per_point_loop_on_variable_coefficients(self):
        def field(x, y):  # divergence 3 cos(3x) + x + 1.5 - 2x sin(2xy)
            return np.sin(3.0 * x) + 0.5 * x * x, 1.5 * y + np.cos(2.0 * x * y)

        def nu(x, y):
            return 1.0 + x * y

        def c0(x, y):
            return 3.0 + np.sin(x + 2.0 * y)

        m, step = 13, 1e-6
        # the bound sampled vertex by vertex, divergence by central
        # differences at the vertex nudged 1e-5 inside the domain
        a_max, nu_inf, c_inf = 0.0, math.inf, math.inf
        for j in range(m + 1):
            for i in range(m + 1):
                x, y = i / m, j / m
                xi, yi = min(max(x, 1e-5), 1.0 - 1e-5), min(max(y, 1e-5), 1.0 - 1e-5)
                div = ((field(xi + step, yi)[0] - field(xi - step, yi)[0]) / (2.0 * step)
                       + (field(xi, yi + step)[1] - field(xi, yi - step)[1]) / (2.0 * step))
                a_max = max(a_max, math.hypot(*field(x, y)))
                nu_inf = min(nu_inf, nu(x, y))
                c_inf = min(c_inf, c0(x, y) + 0.5 * div)
        expected = 0.5 * a_max / math.sqrt(nu_inf * c_inf)
        spec = CdrProblemSpec(mesh_divisions=m, nu=nu, c0=c0, a_field=field)
        assert analytic_rho_bound(spec) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_weighted_operator_norm_identity_weight():
    a = np.diag([1.0, -4.0, 2.0])
    assert weighted_operator_norm(a, WeightOperator.identity(3)) == pytest.approx(4.0)
