"""Batch experiment driver.

Subcommands:
  solve      run one solver on a problem and write a report
  rho-table  tabulate the skewness measure over mesh resolutions
  sweep      iteration-count tables over subdomains / mesh / coefficients
             / inner product
  bounds     evaluate the convergence-bound report for a problem (or a
             direct kappa/rho pair)

Exit codes: 0 converged, 1 usage error, 2 iteration limit reached,
3 breakdown.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
import scipy.sparse

from . import bounds as bounds_mod
from . import cdr, matrixio, schwarz
from .linalg import (
    EigenSolverError,
    LinearOperator,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from .solvers import (
    LinearSystem,
    SolveConfig,
    gmres_arnoldi_oracle,
    whp_gcr,
    whp_gcr_alt_a,
    whp_gcr_alt_b,
    wp_gcr_left,
    wp_gcr_restarted,
    wp_gcr_right,
    wp_mr,
    wp_orthomin,
)
from .weighting import PreconditionerHandle, WeightOperator

# a desk-scale limit, not an algorithmic one: at m = 400 (n = 159201)
# set-up plus a two-level whp_gcr solve takes a few seconds on one core
SOLVE_MESH_BUDGET = 400
DENSE_EIG_MESH_BUDGET = 50

_EXIT_BY_STATUS = {"converged": 0, "max_iter": 2, "breakdown": 3}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_kv(tokens, what):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"{what}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


def _parse_int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _parse_float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad float list {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="wpkrylov", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("--cdr", nargs="+", metavar="KEY=VAL",
                       help="convection-diffusion-reaction problem: m=INT nu=FLOAT c0=FLOAT")
        p.add_argument("--matrix", help="Matrix Market file with A (or its symmetric part)")
        p.add_argument("--matrix-skew", help="Matrix Market file with the skew part of A")
        p.add_argument("--rhs", help="right-hand-side vector file")
        p.add_argument("--precond", default="identity",
                       choices=["identity", "one-level", "two-level", "one-level-nonsym"])
        p.add_argument("--n-sub", type=int, default=4)
        p.add_argument("--layout", default="strips",
                       help="strips | grid | grid:PxQ (grid needs lattice coordinates)")
        p.add_argument("--overlap", type=int, default=1)
        p.add_argument("--weight", default="precond", choices=["identity", "precond"])
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--max-iter", type=int, default=500)
        p.add_argument("--stop-norm", default="weighted", choices=["weighted", "euclidean"])
        p.add_argument("--force", action="store_true",
                       help="override the desk-scale mesh budgets")
        p.add_argument("--out", help="report output path")
        p.add_argument("--format", default="json", choices=["json", "csv"])

    p_solve = sub.add_parser("solve", help="run one solver")
    add_problem_flags(p_solve)
    p_solve.add_argument(
        "--solver", default="gcr",
        help="gcr | gcr-left | whp-gcr | whp-gcr-alt-a | whp-gcr-alt-b | mr | "
             "orthomin:K | gcr-restart:K | gmres-oracle",
    )

    p_rho = sub.add_parser("rho-table", help="skewness measure vs mesh size")
    p_rho.add_argument("--m-list", default="10,30")
    p_rho.add_argument("--nu", type=float, default=1.0)
    p_rho.add_argument("--c0", type=float, default=1.0)
    p_rho.add_argument("--out", help="CSV output path")

    p_sweep = sub.add_parser("sweep", help="iteration-count tables")
    add_problem_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         choices=["n-subdomains", "mesh", "coefficient", "inner-product"])
    p_sweep.add_argument("--n-sub-list", default="4,8,16")
    p_sweep.add_argument("--m-list", default="20,40")
    p_sweep.add_argument("--coeff-list", default="0.1,1,10")

    p_bounds = sub.add_parser("bounds", help="convergence-bound report")
    add_problem_flags(p_bounds)
    p_bounds.add_argument("--kappa", type=float,
                          help="direct mode: condition number of the preconditioned symmetric part")
    p_bounds.add_argument("--rho", type=float, help="direct mode: skewness measure")
    return parser


def _parse_layout(args) -> schwarz.PartitionSpec:
    layout = args.layout
    if layout == "strips":
        return schwarz.PartitionSpec(args.n_sub, "strips", overlap_layers=args.overlap)
    if layout == "grid":
        return schwarz.PartitionSpec(args.n_sub, "grid", overlap_layers=args.overlap)
    if layout.startswith("grid:"):
        try:
            p, q = (int(t) for t in layout[5:].split("x"))
        except ValueError as exc:
            raise UsageError(f"bad grid layout {layout!r}, expected grid:PxQ") from exc
        return schwarz.PartitionSpec(args.n_sub, "grid", grid_shape=(p, q),
                                     overlap_layers=args.overlap)
    raise UsageError(f"unknown layout {layout!r}")


class _Problem:
    """Operator, parts, rhs and coordinates, from either input mode."""

    def __init__(self, m_matrix, n_matrix, rhs, coords, label):
        self.m_matrix = m_matrix
        self.n_matrix = n_matrix
        self.rhs = rhs
        self.coords = coords
        self.label = label
        self.dim = m_matrix.shape[0]
        self.operator = LinearOperator.from_matrix(m_matrix + n_matrix)

    def full_matrix(self) -> scipy.sparse.csr_array:
        return self.m_matrix + self.n_matrix


def _read_file(reader, path):
    try:
        return reader(path)
    except ValueError as exc:  # every malformed matrix or vector file
        raise UsageError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from exc


def _load_problem(args) -> _Problem:
    if args.cdr:
        kv = _parse_kv(args.cdr, "--cdr")
        try:
            m = int(kv.pop("m"))
        except KeyError as exc:
            raise UsageError("--cdr needs m=INT") from exc
        nu = float(kv.pop("nu", 1.0))
        c0 = float(kv.pop("c0", 1.0))
        if kv:
            raise UsageError(f"--cdr: unknown keys {sorted(kv)}")
        if m > SOLVE_MESH_BUDGET and not args.force:
            raise UsageError(f"mesh m={m} exceeds the solve budget {SOLVE_MESH_BUDGET} "
                             "(pass --force to override)")
        assembled = cdr.assemble(cdr.reference_problem(nu=nu, c0=c0, mesh_divisions=m))
        return _Problem(assembled.m_matrix, assembled.n_matrix, assembled.rhs,
                        assembled.dof_coords, f"cdr m={m} nu={nu} c0={c0}")
    if args.matrix:
        if not args.rhs:
            raise UsageError("--rhs is required with --matrix")
        first = _read_file(matrixio.read_matrix_market, args.matrix)
        rhs = _read_file(matrixio.read_vector, args.rhs)
        if first.shape[0] != first.shape[1]:
            raise UsageError(f"{args.matrix}: matrix is {first.shape[0]}x{first.shape[1]}, "
                             "not square")
        if args.matrix_skew:
            m_part = first
            n_part = _read_file(matrixio.read_matrix_market, args.matrix_skew)
            if n_part.shape != first.shape:
                raise UsageError(f"{args.matrix_skew}: matrix is {n_part.shape[0]}x"
                                 f"{n_part.shape[1]}, --matrix is {first.shape[0]}x"
                                 f"{first.shape[1]}")
        else:
            m_part = (first + first.T) * 0.5
            n_part = (first - first.T) * 0.5
        if rhs.shape != (m_part.shape[0],):
            raise UsageError("right-hand side length does not match the matrix")
        if not np.all(np.isfinite(rhs)):
            raise UsageError("right-hand side has a non-finite entry")
        return _Problem(m_part, n_part, rhs, None, f"matrix {args.matrix}")
    raise UsageError("provide either --cdr or --matrix")


def _build_preconditioner(args, problem: _Problem):
    if args.precond == "identity":
        return PreconditionerHandle.identity(problem.dim), None
    spec = _parse_layout(args)
    if spec.layout == "grid" and problem.coords is None:
        raise UsageError("grid layout requires a --cdr problem (coordinates)")
    maps = schwarz.build_partition(problem.m_matrix, spec, coords=problem.coords)
    mode = {
        "one-level": "one_level_sym",
        "two-level": "two_level_sym",
        "one-level-nonsym": "one_level_nonsym",
    }[args.precond]
    matrix = problem.full_matrix() if mode == "one_level_nonsym" else problem.m_matrix
    try:
        precond = schwarz.build_preconditioner(matrix, maps, mode)
    except (NotPositiveDefiniteError, SingularMatrixError) as exc:
        raise UsageError(f"--precond {args.precond}: {exc}") from exc
    return precond.as_handle(), precond


def _build_weight(args, handle: PreconditionerHandle, dim: int) -> WeightOperator:
    if args.weight == "identity":
        return WeightOperator.identity(dim)
    if not handle.hermitian_flag:
        raise UsageError("--weight precond requires a symmetric preconditioner")
    return WeightOperator(dim, handle.apply, validate=False)


def _dispatch_solver(name, system, handle, weight, cfg):
    if name == "gcr":
        return wp_gcr_right(system, handle, weight, cfg)
    if name == "gcr-left":
        return wp_gcr_left(system, handle, weight, cfg)
    if name == "whp-gcr":
        return whp_gcr(system, handle, cfg)
    if name == "whp-gcr-alt-a":
        return whp_gcr_alt_a(system, handle, cfg)
    if name == "whp-gcr-alt-b":
        return whp_gcr_alt_b(system, handle, cfg)
    if name == "mr":
        return wp_mr(system, handle, weight, cfg)
    if name == "gmres-oracle":
        return gmres_arnoldi_oracle(system, handle, weight, cfg)
    if name.startswith("orthomin:"):
        return wp_orthomin(system, handle, weight, cfg, k=_positive_int(name[9:], name))
    if name.startswith("gcr-restart:"):
        return wp_gcr_restarted(system, handle, weight, cfg, k=_positive_int(name[12:], name))
    raise UsageError(f"unknown solver {name!r}")


def _positive_int(text, flag):
    try:
        value = int(text)
    except ValueError as exc:
        raise UsageError(f"bad parameter in {flag!r}") from exc
    if value < 0:
        raise UsageError(f"parameter in {flag!r} must be nonnegative")
    return value


def _write_report(args, report: matrixio.ExperimentReport):
    if not args.out:
        return
    if args.format == "json":
        matrixio.write_report_json(report, args.out)
    else:
        matrixio.write_report_csv(report, args.out)


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    handle, _ = _build_preconditioner(args, problem)
    weight = _build_weight(args, handle, problem.dim)
    cfg = SolveConfig(max_iterations=args.max_iter, rel_tolerance=args.tol,
                      stopping_norm=args.stop_norm)
    system = LinearSystem(problem.operator, problem.rhs)
    start = time.perf_counter()
    result = _dispatch_solver(args.solver, system, handle, weight, cfg)
    elapsed = time.perf_counter() - start
    report = matrixio.ExperimentReport(
        metadata={
            "problem": problem.label,
            "solver": args.solver,
            "precond": args.precond,
            "weight": args.weight,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "stop_norm": args.stop_norm,
        },
        residual_norm_weighted=result.trace.residual_norm_weighted,
        residual_norm_euclidean=result.trace.residual_norm_euclidean,
        iterations=result.iterations,
        status=result.status,
        wall_time_s=elapsed,
    )
    _write_report(args, report)
    final_w = result.trace.residual_norm_weighted[-1]
    final_2 = result.trace.residual_norm_euclidean[-1]
    print(f"status={result.status} iterations={result.iterations} "
          f"res_w={final_w:.6e} res_euclid={final_2:.6e}")
    if result.trace.breakdown is not None:
        ev = result.trace.breakdown
        print(f"breakdown at iteration {ev.iteration} (gamma={ev.gamma_value:.3e})")
    return _EXIT_BY_STATUS[result.status]


def cmd_rho_table(args) -> int:
    m_values = _parse_int_list(args.m_list)
    rows = []
    print(f"rho of the preconditioned skew part, nu={args.nu} c0={args.c0}")
    for m in m_values:
        assembled = cdr.assemble(cdr.reference_problem(nu=args.nu, c0=args.c0,
                                                        mesh_divisions=m))
        hs = bounds_mod.HermitianSplit(assembled.m_matrix, assembled.n_matrix)
        rho = bounds_mod.spectral_radius_skew(hs)
        rows.append((m, rho))
        print(f"h=1/{m}: rho={rho:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("m,h,rho\n")
            for m, rho in rows:
                handle.write(f"{m},{1.0 / m:.17g},{rho:.17g}\n")
    return 0


def _auto_grid(n_sub: int) -> str:
    p, q = schwarz._near_square_factors(n_sub)
    return f"grid:{p}x{q}"


def _iteration_count(args, assembled, precond, solver, n_sub, layout,
                     stop_norm="weighted", symmetric_only=False):
    ns = argparse.Namespace(**vars(args))
    ns.cdr = None
    ns.matrix = None
    ns.precond = precond
    ns.n_sub = n_sub
    ns.layout = layout
    if symmetric_only:
        problem = _Problem(assembled.m_matrix, scipy.sparse.csr_array(assembled.m_matrix.shape),
                           assembled.rhs, assembled.dof_coords, "sym-only")
    else:
        problem = _Problem(assembled.m_matrix, assembled.n_matrix, assembled.rhs,
                           assembled.dof_coords, "sweep")
    handle, _ = _build_preconditioner(ns, problem)
    weight = (WeightOperator.identity(problem.dim) if solver == "gmres-oracle"
              else _build_weight(ns, handle, problem.dim))
    cfg = SolveConfig(max_iterations=args.max_iter, rel_tolerance=args.tol,
                      stopping_norm=stop_norm)
    system = LinearSystem(problem.operator, problem.rhs)
    result = _dispatch_solver(solver, system, handle, weight, cfg)
    return result.iterations, result.status


def cmd_sweep(args) -> int:
    lines = []
    if args.axis == "n-subdomains":
        m = int(_parse_kv(args.cdr, "--cdr").get("m", 60)) if args.cdr else 60
        if m > SOLVE_MESH_BUDGET and not args.force:
            raise UsageError(f"mesh m={m} exceeds the solve budget")
        print(f"scalability sweep: two-level, m={m}")
        assembled = cdr.assemble(cdr.reference_problem(mesh_divisions=m))
        for n_sub in _parse_int_list(args.n_sub_list):
            layout = args.layout if args.layout != "strips" else _auto_grid(n_sub)
            iters, status = _iteration_count(args, assembled, "two-level", "whp-gcr",
                                             n_sub, layout)
            lines.append((f"N={n_sub}", iters, status))
    elif args.axis == "mesh":
        for m in _parse_int_list(args.m_list):
            if m > SOLVE_MESH_BUDGET and not args.force:
                print(f"m={m}: skipped (budget)")
                continue
            assembled = cdr.assemble(cdr.reference_problem(mesh_divisions=m))
            iters, status = _iteration_count(args, assembled, "two-level", "whp-gcr",
                                             args.n_sub, _auto_grid(args.n_sub))
            lines.append((f"m={m}", iters, status))
        print(f"mesh sweep: two-level, N={args.n_sub}")
    elif args.axis == "coefficient":
        m = int(_parse_kv(args.cdr, "--cdr").get("m", 40)) if args.cdr else 40
        print(f"coefficient sweep: two-level strips, m={m}, N={args.n_sub}")
        for coeff in _parse_float_list(args.coeff_list):
            assembled = cdr.assemble(cdr.reference_problem(nu=coeff, c0=coeff,
                                                           mesh_divisions=m))
            iters, status = _iteration_count(args, assembled, "two-level",
                                             "whp-gcr", args.n_sub, "strips")
            lines.append((f"c0=nu={coeff}", iters, status))
        assembled = cdr.assemble(cdr.reference_problem(nu=10.0, c0=10.0, mesh_divisions=m))
        iters, status = _iteration_count(args, assembled, "two-level", "whp-gcr",
                                         args.n_sub, "strips", symmetric_only=True)
        lines.append(("symmetric-part-only", iters, status))
    else:  # inner-product
        m = int(_parse_kv(args.cdr, "--cdr").get("m", 60)) if args.cdr else 60
        print(f"inner-product sweep: two-level, m={m}, Euclidean stopping")
        assembled = cdr.assemble(cdr.reference_problem(mesh_divisions=m))
        for n_sub in _parse_int_list(args.n_sub_list):
            layout = _auto_grid(n_sub)
            g_iters, g_status = _iteration_count(args, assembled, "two-level",
                                                 "gmres-oracle", n_sub, layout,
                                                 stop_norm="euclidean")
            w_iters, w_status = _iteration_count(args, assembled, "two-level",
                                                 "whp-gcr", n_sub, layout,
                                                 stop_norm="euclidean")
            lines.append((f"N={n_sub} gmres", g_iters, g_status))
            lines.append((f"N={n_sub} whp-gcr", w_iters, w_status))
    for label, iters, status in lines:
        print(f"{label}: iterations={iters} ({status})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("case,iterations,status\n")
            for label, iters, status in lines:
                handle.write(f"{label},{iters},{status}\n")
    return 0


def cmd_bounds(args) -> int:
    if args.kappa is not None or args.rho is not None:
        if args.kappa is None or args.rho is None:
            raise UsageError("direct mode needs both --kappa and --rho")
        report = bounds_mod.BoundReport(kappa=args.kappa, rho=args.rho,
                                        bound3=bounds_mod.direct_bound3(args.kappa, args.rho))
        print(f"kappa={args.kappa:.6g} rho={args.rho:.6g}")
        print(f"bound3={report.bound3:.6f}")
        print(f"predicted iterations to 1e-6: {report.predicted_iterations(1e-6)}")
        return 0

    problem = _load_problem(args)
    # only a weight other than H makes the report densify H and W
    densified = args.weight == "identity" and args.precond != "identity"
    if densified and problem.dim > (DENSE_EIG_MESH_BUDGET - 1) ** 2 and not args.force:
        raise UsageError("problem too large for dense bound computations with --weight "
                         "identity (use --force)")
    handle, _ = _build_preconditioner(args, problem)
    weight = _build_weight(args, handle, problem.dim)
    try:
        report = bounds_mod.compute_bound_report(problem.operator, handle, weight)
    except EigenSolverError as exc:
        raise UsageError(f"bound report: {exc}") from exc
    if args.cdr:
        kv = _parse_kv(args.cdr, "--cdr")
        spec = cdr.reference_problem(nu=float(kv.get("nu", 1.0)),
                                      c0=float(kv.get("c0", 1.0)),
                                      mesh_divisions=int(kv["m"]))
        report.alpha_analytic = bounds_mod.analytic_rho_bound(spec)
    for key, value in report.to_dict().items():
        if value is not None:
            print(f"{key}={value:.8g}")
    predicted = report.predicted_iterations(1e-6)
    if predicted is not None:
        print(f"predicted iterations to 1e-6: {predicted}")
    if args.out:
        rep = matrixio.ExperimentReport(metadata={"problem": problem.label},
                                        bound_report=report.to_dict())
        matrixio.write_report_json(rep, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "rho-table":
            return cmd_rho_table(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_bounds(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
