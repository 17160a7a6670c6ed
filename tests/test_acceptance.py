"""Acceptance suite.

One test per acceptance criterion, each checked at its stated tolerance
and reporting a single PASS/FAIL line (run pytest with -s to stream
them).  Heavy problem setups are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest
import scipy.sparse

from wpkrylov.bounds import (
    HermitianSplit,
    analytic_rho_bound,
    compute_bound_report,
    direct_bound3,
    johnson_identity_check,
    spectral_radius_skew,
    split,
)
from wpkrylov.cdr import CdrProblemSpec, assemble, l2_error, reference_problem
from wpkrylov.cli import main as cli_main
from wpkrylov.linalg import LinearOperator
from wpkrylov.matrixio import write_matrix_market, write_vector
from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner
from wpkrylov.solvers import (
    LinearSystem,
    SolveConfig,
    gmres_arnoldi_oracle,
    whp_gcr,
    wp_gcr_left,
    wp_gcr_right,
)
from wpkrylov.weighting import PreconditionerHandle, WeightOperator

from conftest import make_pd_system
from dense_reference import lu_solve
from whp_alternates_reference import whp_gcr_alt_a, whp_gcr_alt_b


def report_line(number, ok, description):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


VARIANTS = {
    "full": {},
    "mr": {"truncation_window": 0},
    "orthomin1": {"truncation_window": 1},
    "orthomin3": {"truncation_window": 3},
    "restart2": {"restart_period": 2},
    "restart5": {"restart_period": 5},
}


@pytest.fixture(scope="module")
def variant_runs():
    """Criteria 5/6/10 share these 20 seeded systems x 6 variants."""
    runs = {}
    for seed in range(20):
        a, h_dense, b = make_pd_system(seed)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.from_dense(h_dense)
        for name, overrides in VARIANTS.items():
            cfg = SolveConfig(max_iterations=800, **overrides)
            runs[(seed, name)] = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
    return runs


@pytest.fixture(scope="module")
def seed_bound_reports():
    reports = {}
    for seed in range(20):
        a, h_dense, _ = make_pd_system(seed)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.from_dense(h_dense)
        reports[seed] = compute_bound_report(a, h, w)
    return reports


@pytest.fixture(scope="module")
def oracle_runs():
    """Criterion 4 (and 10): GCR vs Arnoldi GMRES on 50 seeded systems."""
    pairs = []
    for seed in range(50):
        a, h_dense, b = make_pd_system(seed)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.from_dense(h_dense)
        cfg = SolveConfig()
        gcr = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        oracle = gmres_arnoldi_oracle(LinearSystem(a, b), h, w, cfg)
        pairs.append((gcr, oracle))
    return pairs


def two_level_handle(assembled, n_sub, layout, grid_shape=None, mode="two_level_sym"):
    spec = PartitionSpec(n_sub, layout, grid_shape=grid_shape)
    maps = build_partition(assembled.m_matrix, spec, coords=assembled.dof_coords)
    matrix = assembled.full_matrix() if mode == "one_level_nonsym" else assembled.m_matrix
    return build_preconditioner(matrix, maps, mode).as_handle()


def test_criterion_01_rho_table(cdr_assembled):
    start = time.perf_counter()
    values = {}
    for m in (10, 30):
        assembled = cdr_assembled(m)
        hs = HermitianSplit(assembled.m_matrix.toarray(), assembled.n_matrix.toarray())
        values[m] = spectral_radius_skew(hs)
    elapsed = time.perf_counter() - start
    ok = (
        abs(values[10] - 0.3136) <= 0.01
        and abs(values[30] - 0.3380) <= 0.01
        and elapsed < 60.0
    )
    report_line(1, ok, f"skewness table: rho(1/10)={values[10]:.4f}, "
                       f"rho(1/30)={values[30]:.4f} in {elapsed:.1f}s")


def test_criterion_02_analytic_bound(cdr_assembled):
    bound = analytic_rho_bound(reference_problem())
    rhos = {}
    for m in (10, 20, 30):
        assembled = cdr_assembled(m)
        hs = HermitianSplit(assembled.m_matrix.toarray(), assembled.n_matrix.toarray())
        rhos[m] = spectral_radius_skew(hs)
    ratio = bound / rhos[30]
    ok = (
        abs(bound - 3.23) <= 0.01
        and all(rho <= bound for rho in rhos.values())
        and 8.0 <= ratio <= 12.0
    )
    report_line(2, ok, f"analytic bound {bound:.4f} dominates rho; "
                       f"overestimation factor {ratio:.2f} at h=1/30")


def test_criterion_03_worked_bound_numbers():
    from wpkrylov.bounds import BoundReport

    bound3 = direct_bound3(63.0, 1.0)
    predicted = BoundReport(kappa=63.0, rho=1.0, bound3=bound3).predicted_iterations(1e-6)
    ok = abs(bound3 - 0.996) <= 0.0005 and abs(predicted - 3468) <= 1
    report_line(3, ok, f"kappa=63, rho=1: bound3={bound3:.6f}, predicted={predicted}")


def test_criterion_04_oracle_equivalence(oracle_runs):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for gcr, oracle in oracle_runs:
        ok &= gcr.status == "converged" and oracle.status == "converged"
        ga = gcr.trace.residual_norm_weighted
        ob = oracle.trace.residual_norm_weighted
        ok &= len(ga) == len(ob)
        for x, y in zip(ga, ob):
            rel = abs(x - y) / max(x, y)
            worst = max(worst, rel)
            ok &= rel <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report_line(4, ok, f"GCR vs Arnoldi oracle on 50 systems: worst pointwise "
                       f"deviation {worst:.2e} (checked in {elapsed:.1f}s)")


def test_criterion_05_per_step_identity(variant_runs):
    worst = 0.0
    ok = True
    for result in variant_runs.values():
        tr = result.trace
        ok &= result.status == "converged"
        for i in range(len(tr.alpha)):
            lhs = tr.residual_norm_weighted[i + 1] ** 2 / tr.residual_norm_weighted[i] ** 2
            rhs = 1.0 - tr.gamma[i] ** 2 / (tr.delta[i] * tr.residual_norm_weighted[i] ** 2)
            worst = max(worst, abs(lhs - rhs))
            ok &= abs(lhs - rhs) <= 1e-10
    report_line(5, ok, f"per-step residual identity across {len(variant_runs)} runs: "
                       f"worst deviation {worst:.2e}")


def test_criterion_06_bound_domination(variant_runs, seed_bound_reports):
    ok = True
    worst_margin = np.inf
    for (seed, _), result in variant_runs.items():
        rep = seed_bound_reports[seed]
        ok &= rep.bound1 is not None and rep.bound3 is not None
        norms = result.trace.residual_norm_weighted
        for i, value in enumerate(norms):
            ratio = value / norms[0]
            for bound in (rep.bound1, rep.bound3):
                ok &= ratio <= bound**i * (1.0 + 1e-10)
                if bound**i > 0:
                    worst_margin = min(worst_margin, bound**i / max(ratio, 1e-300))
    report_line(6, ok, f"bound1/bound3 dominate all {len(variant_runs)} residual "
                       f"curves (tightest margin factor {worst_margin:.2f})")


def test_criterion_07_johnson_identity():
    rng = np.random.default_rng(1234)
    worst = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 31))
        g = rng.standard_normal((n, n))
        sym = g @ g.T / n + np.eye(n)
        skew = rng.standard_normal((n, n))
        a = sym + 0.5 * (skew - skew.T)
        lhs, rhs = johnson_identity_check(split(a), np.linalg.inv(a))
        worst = max(worst, abs(lhs - rhs))
        ok &= abs(lhs - rhs) <= 1e-8
    a2 = np.array([[1.0, 1.0], [-1.0, 1.0]])
    lhs2, rhs2 = johnson_identity_check(split(a2), np.linalg.inv(a2))
    ok &= abs(lhs2 - 0.5) <= 1e-10 and abs(rhs2 - 0.5) <= 1e-12
    report_line(7, ok, f"identity holds on 100 seeded matrices (worst {worst:.2e}) "
                       "and the 2x2 analytic case")


def test_criterion_08_left_right_equivalence():
    ok = True
    worst = 0.0
    for seed in range(20):
        a, h_dense, b = make_pd_system(seed)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w_right = WeightOperator.from_dense(h_dense)
        h_inv = np.linalg.inv(h_dense)
        w_left = WeightOperator.from_dense(0.5 * (h_inv + h_inv.T))
        cfg = SolveConfig(record_iterates=True)
        right = wp_gcr_right(LinearSystem(a, b), h, w_right, cfg)
        left = wp_gcr_left(LinearSystem(a, b), h, w_left, cfg)
        count = min(len(right.trace.iterates), len(left.trace.iterates))
        for xr, xl in zip(right.trace.iterates[:count], left.trace.iterates[:count]):
            rel = np.linalg.norm(xr - xl) / max(np.linalg.norm(xr), 1e-30)
            worst = max(worst, rel)
            ok &= rel <= 1e-10
    report_line(8, ok, f"left (weight H^-1) and right (weight H) iterates agree: "
                       f"worst deviation {worst:.2e}")


def test_criterion_09_alternate_equivalence(cdr_assembled):
    ok = True
    worst = 0.0
    for seed in range(10):
        # clustered spectrum: the runs terminate well before the dimension
        # bound, keeping the last search direction clear of cancellation
        rng = np.random.default_rng(seed)
        n = 12
        g = rng.standard_normal((n, n))
        sym = g @ g.T / n + 6.0 * np.eye(n)
        skew = rng.standard_normal((n, n))
        skew = 0.5 * (skew - skew.T)
        a = sym + 0.2 * np.linalg.norm(sym, 2) * skew / np.linalg.norm(skew, 2)
        b = rng.standard_normal(n)
        h = PreconditionerHandle.identity(n)
        cfg = SolveConfig(record_iterates=True, rel_tolerance=1e-9)
        base = whp_gcr(LinearSystem(a, b), h, cfg)
        for solver in (whp_gcr_alt_a, whp_gcr_alt_b):
            other = solver(LinearSystem(a, b), h, cfg)
            count = min(len(base.trace.iterates), len(other.trace.iterates))
            for xa, xb in zip(base.trace.iterates[:count], other.trace.iterates[:count]):
                rel = np.linalg.norm(xa - xb) / max(np.linalg.norm(xa), 1e-30)
                worst = max(worst, rel)
                ok &= rel <= 1e-9

    assembled = cdr_assembled(20)
    handle = two_level_handle(assembled, 4, "strips")
    system = LinearSystem(assembled.operator(), assembled.rhs)
    counts = [
        solver(system, handle, SolveConfig()).iterations
        for solver in (whp_gcr, whp_gcr_alt_a, whp_gcr_alt_b)
    ]
    ok &= max(counts) - min(counts) <= 1
    report_line(9, ok, f"storage-lean rearrangements match (worst iterate deviation "
                       f"{worst:.2e}); iteration counts {counts} on the mesh problem")


def test_criterion_10_breakdown_detection(tmp_path, variant_runs, oracle_runs):
    mtx = tmp_path / "skew.mtx"
    rhs = tmp_path / "e1.txt"
    write_matrix_market(scipy.sparse.csr_array(np.array([[0.0, 1.0], [-1.0, 0.0]])), mtx)
    write_vector(np.array([1.0, 0.0]), rhs)
    code = cli_main(["solve", "--matrix", str(mtx), "--rhs", str(rhs),
                     "--precond", "identity", "--weight", "identity",
                     "--solver", "gcr"])
    ok = code == 3
    false_breakdowns = sum(
        1 for run in variant_runs.values() if run.trace.breakdown is not None
    )
    false_breakdowns += sum(
        1 for gcr, oracle in oracle_runs
        if gcr.trace.breakdown is not None or oracle.trace.breakdown is not None
    )
    ok &= false_breakdowns == 0
    report_line(10, ok, f"skew system exits with code 3; {false_breakdowns} false "
                        "breakdowns across the equivalence and identity runs")


def test_criterion_11_scalability_trend(cdr_assembled):
    start = time.perf_counter()
    assembled = cdr_assembled(60)
    system = LinearSystem(assembled.operator(), assembled.rhs)
    counts = {}
    for n_sub, shape in ((4, (2, 2)), (8, (4, 2)), (16, (4, 4))):
        handle = two_level_handle(assembled, n_sub, "grid", grid_shape=shape)
        result = whp_gcr(system, handle, SolveConfig())
        counts[n_sub] = result.iterations
        assert result.status == "converged"
    elapsed = time.perf_counter() - start
    base = counts[4]
    ok = all(abs(c - base) <= 0.5 * base for c in counts.values()) and elapsed < 300.0
    report_line(11, ok, f"two-level scalability at m=60: iterations {counts} "
                        f"within 50% of N=4 ({elapsed:.0f}s)")


def test_criterion_12_coefficient_trend():
    counts = {}
    for coeff in (0.1, 1.0, 10.0):
        assembled = assemble(reference_problem(nu=coeff, c0=coeff, mesh_divisions=40))
        handle = two_level_handle(assembled, 4, "strips")
        system = LinearSystem(assembled.operator(), assembled.rhs)
        counts[coeff] = whp_gcr(system, handle, SolveConfig()).iterations
    assembled = assemble(reference_problem(nu=10.0, c0=10.0, mesh_divisions=40))
    handle = two_level_handle(assembled, 4, "strips")
    m_sp = assembled.m_matrix
    sym_system = LinearSystem(
        LinearOperator(assembled.dof_count, lambda v: m_sp @ v), assembled.rhs
    )
    sym_only = whp_gcr(sym_system, handle, SolveConfig()).iterations
    ok = (
        counts[0.1] > counts[1.0] > counts[10.0]
        and abs(counts[10.0] - sym_only) <= 0.3 * sym_only
    )
    report_line(12, ok, f"iteration counts decrease with the reaction/diffusion "
                        f"strength: {counts}, symmetric-part-only {sym_only}")


def test_criterion_13_inner_product_insensitivity(cdr_assembled):
    assembled = cdr_assembled(60)
    system = LinearSystem(assembled.operator(), assembled.rhs)
    ok = True
    summary = []
    for n_sub, shape in ((4, (2, 2)), (8, (4, 2))):
        handle = two_level_handle(assembled, n_sub, "grid", grid_shape=shape)
        cfg = SolveConfig(stopping_norm="euclidean")
        gm = gmres_arnoldi_oracle(system, handle, WeightOperator.identity(assembled.dof_count), cfg)
        wh = whp_gcr(system, handle, cfg)
        gap = abs(gm.iterations - wh.iterations)
        budget = max(3.0, 0.2 * max(gm.iterations, wh.iterations))
        summary.append((n_sub, gm.iterations, wh.iterations))
        ok &= gap <= budget
    report_line(13, ok, "Euclidean GMRES vs weighted GCR (Euclidean stopping): "
                        + ", ".join(f"N={n}: {g} vs {w}" for n, g, w in summary))


def test_criterion_14_nonsym_degradation():
    counts = {}
    for n_sub, m, shape in ((4, 40, (2, 2)), (8, 80, (4, 2))):
        assembled = assemble(reference_problem(nu=0.1, c0=0.1, mesh_divisions=m))
        handle = two_level_handle(assembled, n_sub, "grid", grid_shape=shape,
                                  mode="one_level_nonsym")
        system = LinearSystem(assembled.operator(), assembled.rhs)
        cfg = SolveConfig(stopping_norm="euclidean")
        result = gmres_arnoldi_oracle(system, handle,
                                      WeightOperator.identity(assembled.dof_count), cfg)
        counts[(n_sub, m)] = result.iterations
    ok = counts[(8, 80)] > counts[(4, 40)]
    report_line(14, ok, f"non-symmetric one-level preconditioning degrades: "
                        f"{counts[(4, 40)]} -> {counts[(8, 80)]} iterations")


def test_criterion_15_fem_convergence_order():
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
        errors[m] = l2_error(assembled, u,
                             lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    order = np.log2(errors[8] / errors[16])
    ok = order >= 1.8
    report_line(15, ok, f"manufactured-solution convergence order {order:.2f} "
                        f"(errors {errors[8]:.3e} -> {errors[16]:.3e})")
