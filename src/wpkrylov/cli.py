"""Batch experiment driver.

Subcommands:
  solve      run one solver on a problem and write a report
  rho-table  tabulate the skewness measure over mesh resolutions
  sweep      iteration-count tables over subdomains / mesh / coefficients
             / inner product
  bounds     evaluate the convergence-bound report for a problem (or a
             direct kappa/rho pair)

solve, sweep and bounds share one problem pipeline: one parser turns
--cdr into the reference problem, one builder makes the preconditioner
from its kind, partition and problem, and a sweep builds the two-level H
once per row.  Each subcommand takes only the flags it reads.

Exit codes: 0 converged, 1 usage error, 2 iteration limit reached,
3 breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from . import cdr, matrixio, schwarz
from .linalg import (
    EigenSolverError,
    LinearOperator,
    NotPositiveDefiniteError,
    SingularMatrixError,
    check_symmetric,
    sparse_spd_factor,
)
from .solvers import (
    LinearSystem,
    SolveConfig,
    gmres_arnoldi_oracle,
    whp_gcr,
    wp_gcr_left,
    wp_gcr_right,
)
from .weighting import PreconditionerHandle, WeightOperator

# a desk-scale limit, not an algorithmic one: at m = 400 (n = 159201)
# set-up plus a two-level whp_gcr solve takes a few seconds on one core
SOLVE_MESH_BUDGET = 400

_EXIT_BY_STATUS = {"converged": 0, "max_iter": 2, "breakdown": 3}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_list(flag, kind, text):
    """The values of the comma-separated list flag ``flag``; an empty list
    or a bad value is a usage error that names the flag."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"{flag}: bad {kind.__name__} list {text!r}") from exc
    if not values:
        raise UsageError(f"{flag}: empty {kind.__name__} list {text!r}")
    return values


# every problem, preconditioner, solve and output flag, in help order
_FLAGS = {
    "--cdr": dict(nargs="+", metavar="KEY=VAL",
                  help="convection-diffusion-reaction problem: m=INT nu=FLOAT c0=FLOAT "
                       "(a sweep takes the keys its axis does not vary)"),
    "--matrix": dict(help="Matrix Market file with A (or its symmetric part)"),
    "--matrix-skew": dict(help="Matrix Market file with the skew part of A"),
    "--rhs": dict(help="right-hand-side vector file"),
    "--precond": dict(default="identity",
                      choices=["identity", "exact-sym", "one-level", "two-level",
                               "one-level-nonsym"],
                      help="exact-sym is H = M^{-1} (a sparse factor of the symmetric "
                           "part), the kappa = 1 reference; one-level, two-level and "
                           "one-level-nonsym are additive Schwarz"),
    "--n-sub": dict(type=int, default=4),
    "--layout": dict(default="strips",
                     help="strips | grid | grid:PxQ (grid needs lattice coordinates)"),
    "--overlap": dict(type=int, default=1),
    "--weight": dict(default="precond", choices=["identity", "precond"]),
    "--tol": dict(type=float, default=1e-6),
    "--max-iter": dict(type=int, default=500),
    "--stop-norm": dict(default="weighted", choices=["weighted", "euclidean"]),
    "--force": dict(action="store_true", help="override the desk-scale mesh budgets"),
    "--out": dict(help="report output path"),
    "--format": dict(default="json", choices=["json", "csv"]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="wpkrylov", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p, unread=()):
        for flag, kwargs in _FLAGS.items():
            if flag not in unread:
                p.add_argument(flag, **kwargs)

    p_solve = sub.add_parser("solve", help="run one solver")
    add_problem_flags(p_solve)
    p_solve.add_argument(
        "--solver", default="gcr",
        help="gcr | gcr-left | whp-gcr | mr | orthomin:K | gcr-restart:K | gmres-oracle",
    )

    p_rho = sub.add_parser("rho-table", help="skewness measure vs mesh size")
    p_rho.add_argument("--m-list", default="10,30")
    p_rho.add_argument("--nu", type=float, default=1.0)
    p_rho.add_argument("--c0", type=float, default=1.0)
    p_rho.add_argument("--out", help="CSV output path")

    p_sweep = sub.add_parser("sweep", help="iteration-count tables")
    # a sweep runs two-level whp-gcr (and GMRES) on --cdr problems and writes CSV
    add_problem_flags(p_sweep, unread=("--matrix", "--matrix-skew", "--rhs", "--precond",
                                       "--weight", "--stop-norm", "--format"))
    p_sweep.set_defaults(layout="grid")
    p_sweep.add_argument("--axis", required=True,
                         choices=["n-subdomains", "mesh", "coefficient", "inner-product"])
    p_sweep.add_argument("--n-sub-list", default="4,8,16")
    p_sweep.add_argument("--m-list", default="20,40")
    p_sweep.add_argument("--coeff-list", default="0.1,1,10")

    p_bounds = sub.add_parser("bounds", help="convergence-bound report")
    # the report runs no solver and is written as JSON
    add_problem_flags(p_bounds, unread=("--tol", "--max-iter", "--stop-norm", "--format"))
    p_bounds.add_argument("--kappa", type=float,
                          help="direct mode: condition number of the preconditioned symmetric part")
    p_bounds.add_argument("--rho", type=float, help="direct mode: skewness measure")
    return parser


def _check_coefficients(where: str, nu: float, c0: float):
    """Finite nu > 0 and c0 >= 0, as assembly needs them for the reference
    problem (its convection is divergence free)."""
    if not (0.0 < nu < math.inf and 0.0 <= c0 < math.inf):
        raise UsageError(f"{where}: needs finite nu > 0 and c0 >= 0, got nu={nu} c0={c0}")


def _cdr_spec(tokens, force: bool, keys=("m", "nu", "c0"), m=None,
              m_flag=None) -> cdr.CdrProblemSpec:
    """The reference problem that --cdr describes.

    Only the given keys are accepted.  m is the mesh when --cdr does not
    set it (None: m=INT is required), an entry of the list flag m_flag
    when that is given, which a bad mesh's error then names; nu and c0
    default to 1.  A mesh above SOLVE_MESH_BUDGET needs force.
    """
    kv = {}
    for tok in tokens or ():
        key, eq, val = tok.partition("=")
        if not eq:
            raise UsageError(f"--cdr: expected key=value, got {tok!r}")
        kv[key] = val
    unknown = sorted(set(kv) - set(keys))
    if unknown:
        raise UsageError(f"--cdr: unknown keys {unknown} (takes {', '.join(keys)})")
    m = kv.get("m", m)
    if m is None:
        raise UsageError("--cdr needs m=INT")
    try:
        m, nu, c0 = int(m), float(kv.get("nu", 1.0)), float(kv.get("c0", 1.0))
    except ValueError as exc:
        raise UsageError(f"--cdr: {exc}") from exc
    try:
        spec = cdr.reference_problem(nu=nu, c0=c0, mesh_divisions=m)
    except ValueError as exc:  # a mesh below 2
        raise UsageError(f"{m_flag}: m={m}: {exc}" if m_flag else f"--cdr: {exc}") from exc
    _check_coefficients("--cdr", nu, c0)
    if m > SOLVE_MESH_BUDGET and not force:
        raise UsageError(f"mesh m={m} exceeds the solve budget {SOLVE_MESH_BUDGET} "
                         "(pass --force to override)")
    return spec


def _partition_spec(layout: str, n_sub: int, overlap: int,
                    where: str | None = None) -> schwarz.PartitionSpec:
    """The partition the flags describe.  A spec PartitionSpec rejects is
    a usage error that starts with ``where``, the flag n_sub came from
    (by default --n-sub, --layout and --overlap with their values)."""
    kind, shape = layout, None
    if layout.startswith("grid:"):
        try:
            p, q = (int(t) for t in layout[5:].split("x"))
        except ValueError as exc:
            raise UsageError(f"bad grid layout {layout!r}, expected grid:PxQ") from exc
        kind, shape = "grid", (p, q)
    elif layout not in ("strips", "grid"):
        raise UsageError(f"unknown layout {layout!r}")
    try:
        return schwarz.PartitionSpec(n_sub, kind, grid_shape=shape, overlap_layers=overlap)
    except ValueError as exc:
        where = where or f"--n-sub {n_sub} --layout {layout} --overlap {overlap}"
        raise UsageError(f"{where}: {exc}") from exc


class _Problem:
    """Operator, symmetric part, rhs and coordinates, from either input
    mode; spec is the --cdr problem, None for matrix files."""

    def __init__(self, m_matrix, n_matrix, rhs, coords, label, spec=None):
        self.m_matrix = m_matrix
        self.rhs = rhs
        self.coords = coords
        self.label = label
        self.spec = spec
        self.dim = m_matrix.shape[0]
        self.operator = LinearOperator.from_matrix(m_matrix + n_matrix)


def _cdr_problem(spec: cdr.CdrProblemSpec) -> _Problem:
    assembled = cdr.assemble(spec)
    return _Problem(assembled.m_matrix, assembled.n_matrix, assembled.rhs,
                    assembled.dof_coords,
                    f"cdr m={spec.mesh_divisions} nu={spec.nu} c0={spec.c0}", spec)


def _read_file(reader, path):
    try:
        return reader(path)
    except ValueError as exc:  # every malformed matrix or vector file
        raise UsageError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from exc


def _load_problem(args) -> _Problem:
    if args.cdr:
        return _cdr_problem(_cdr_spec(args.cdr, args.force))
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


def _partition(spec: schwarz.PartitionSpec, problem: _Problem) -> schwarz.SubdomainMaps:
    if spec.layout == "grid" and problem.coords is None:
        raise UsageError("grid layout requires a --cdr problem (coordinates)")
    try:
        return schwarz.build_partition(problem.m_matrix, spec, coords=problem.coords)
    except ValueError as exc:  # more subdomains than the mesh can hold
        raise UsageError(f"--n-sub {spec.n_subdomains}: {exc}") from exc


# the Schwarz mode of each --precond kind that partitions the problem
_SCHWARZ_MODES = {
    "one-level": "one_level_sym",
    "two-level": "two_level_sym",
    "one-level-nonsym": "one_level_nonsym",
}


def _build_preconditioner(kind: str, maps: schwarz.SubdomainMaps | None,
                          problem: _Problem) -> PreconditionerHandle:
    if kind == "identity":
        return PreconditionerHandle.identity(problem.dim)
    if kind == "exact-sym":
        try:
            factor = sparse_spd_factor(check_symmetric(problem.m_matrix))
        except (NotPositiveDefiniteError, ValueError) as exc:  # ValueError: not symmetric
            raise UsageError(f"--precond exact-sym: {exc}") from exc
        return PreconditionerHandle(problem.dim, factor.solve, hermitian_flag=True)
    mode = _SCHWARZ_MODES[kind]
    matrix = problem.operator.matrix if mode == "one_level_nonsym" else problem.m_matrix
    try:
        return schwarz.build_preconditioner(matrix, maps, mode).as_handle()
    # ValueError: a symmetric mode given a non-symmetric M
    except (NotPositiveDefiniteError, SingularMatrixError, ValueError) as exc:
        raise UsageError(f"--precond {kind}: {exc}") from exc


def _build_weight(kind: str, handle: PreconditionerHandle, dim: int) -> WeightOperator:
    if kind == "identity":
        return WeightOperator.identity(dim)
    return handle.as_weight()


_SOLVERS = {
    "gcr": wp_gcr_right, "gcr-left": wp_gcr_left, "gmres-oracle": gmres_arnoldi_oracle,
    # W = H: needs a symmetric preconditioner
    "whp-gcr": lambda system, h, w, cfg: whp_gcr(system, h, cfg),
}

# names of wp_gcr_right with a window: the SolveConfig field each sets
_WINDOWS = {"mr": "truncation_window", "orthomin": "truncation_window",
            "gcr-restart": "restart_period"}


def _parse_solver(name: str, cfg: SolveConfig):
    """(run(system, handle, weight, cfg), cfg with the window --solver
    names): mr sets truncation_window 0, orthomin:K truncation_window K and
    gcr-restart:K restart_period K; a K SolveConfig rejects is a usage
    error."""
    kind, colon, text = name.partition(":")
    if kind not in (*_SOLVERS, *_WINDOWS) or bool(colon) != (kind in ("orthomin", "gcr-restart")):
        raise UsageError(f"unknown solver {name!r}")
    if kind in _SOLVERS:
        return _SOLVERS[kind], cfg
    try:
        k = int(text) if colon else 0
    except ValueError as exc:
        raise UsageError(f"bad parameter in {name!r}") from exc
    try:
        return wp_gcr_right, dataclasses.replace(cfg, **{_WINDOWS[kind]: k})
    except ValueError as exc:
        raise UsageError(f"--solver {name}: {exc}") from exc


def _check_pairing(precond: str, weight: str, solver: str = ""):
    """Only a symmetric H defines an inner product: reject, from the flags
    alone, a non-symmetric one as the weight or under a whp solver."""
    if precond == "one-level-nonsym" and (weight == "precond" or solver.startswith("whp-")):
        flag = "--weight precond" if weight == "precond" else f"--solver {solver}"
        raise UsageError(f"{flag} requires a symmetric preconditioner")


def _solve_config(args, stopping_norm: str) -> SolveConfig:
    """The iteration limit and tolerance of --max-iter and --tol; a value
    SolveConfig rejects is a usage error, found before any assembly."""
    try:
        return SolveConfig(max_iterations=args.max_iter, rel_tolerance=args.tol,
                           stopping_norm=stopping_norm)
    except ValueError as exc:
        raise UsageError(f"--tol {args.tol} --max-iter {args.max_iter}: {exc}") from exc


def _write_report(args, report: matrixio.ExperimentReport):
    if not args.out:
        return
    if args.format == "json":
        matrixio.write_report_json(report, args.out)
    else:
        matrixio.write_report_csv(report, args.out)


def cmd_solve(args) -> int:
    run, cfg = _parse_solver(args.solver, _solve_config(args, args.stop_norm))
    _check_pairing(args.precond, args.weight, args.solver)
    spec = _partition_spec(args.layout, args.n_sub, args.overlap)
    problem = _load_problem(args)
    maps = _partition(spec, problem) if args.precond in _SCHWARZ_MODES else None
    handle = _build_preconditioner(args.precond, maps, problem)
    weight = _build_weight(args.weight, handle, problem.dim)
    system = LinearSystem(problem.operator, problem.rhs)
    start = time.perf_counter()
    result = run(system, handle, weight, cfg)
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
        print(f"breakdown at iteration {ev.iteration} (value={ev.gamma_value:.3e})")
    return _EXIT_BY_STATUS[result.status]


def cmd_rho_table(args) -> int:
    _check_coefficients("rho-table", args.nu, args.c0)
    specs = []  # every mesh is checked before any assembly
    for m in _parse_list("--m-list", int, args.m_list):
        try:
            specs.append(cdr.reference_problem(nu=args.nu, c0=args.c0, mesh_divisions=m))
        except ValueError as exc:
            raise UsageError(f"--m-list: m={m}: {exc}") from exc
    rows = []
    print(f"rho of the preconditioned skew part, nu={args.nu} c0={args.c0}")
    for spec in specs:
        m = spec.mesh_divisions
        assembled = cdr.assemble(spec)
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


def cmd_sweep(args) -> int:
    # each axis lists its rows (label, problem, partition) before any
    # assembly; a first pass assembles each problem once and partitions
    # every row before any factorization; the second builds the two-level
    # H once per row and runs the axis's solvers on it
    cfg = _solve_config(args, "euclidean" if args.axis == "inner-product" else "weighted")
    rows = []
    solvers = [("", _SOLVERS["whp-gcr"])]
    if args.axis in ("n-subdomains", "inner-product"):
        spec = _cdr_spec(args.cdr, args.force, m=60)
        for n_sub in _parse_list("--n-sub-list", int, args.n_sub_list):
            rows.append((f"N={n_sub}", spec, _partition_spec(args.layout, n_sub, args.overlap,
                                                             f"--n-sub-list: N={n_sub}")))
        if args.axis == "n-subdomains":
            print(f"scalability sweep: two-level, m={spec.mesh_divisions}")
        else:
            print(f"inner-product sweep: two-level, m={spec.mesh_divisions}, Euclidean stopping")
            solvers = [(" gmres", _SOLVERS["gmres-oracle"]), (" whp-gcr", _SOLVERS["whp-gcr"])]
    elif args.axis == "mesh":
        partition = _partition_spec(args.layout, args.n_sub, args.overlap)
        for m in _parse_list("--m-list", int, args.m_list):
            # a row over budget is skipped
            spec = _cdr_spec(args.cdr, True, ("nu", "c0"), m=m, m_flag="--m-list")
            if m > SOLVE_MESH_BUDGET and not args.force:
                print(f"m={m}: skipped (budget)")
                continue
            rows.append((f"m={m}", spec, partition))
        print(f"mesh sweep: two-level, N={args.n_sub}")
    else:  # coefficient
        m = _cdr_spec(args.cdr, args.force, ("m",), m=40).mesh_divisions
        partition = _partition_spec(args.layout, args.n_sub, args.overlap)
        for coeff in _parse_list("--coeff-list", float, args.coeff_list):
            _check_coefficients("--coeff-list", coeff, coeff)
            rows.append((f"c0=nu={coeff}",
                         cdr.reference_problem(nu=coeff, c0=coeff, mesh_divisions=m), partition))
        # the reference convection is divergence free, so without it the
        # operator is exactly the symmetric part of the one with it
        symmetric = dataclasses.replace(cdr.reference_problem(nu=10.0, c0=10.0,
                                                              mesh_divisions=m), a_field=None)
        rows.append(("symmetric-part-only", symmetric, partition))
        print(f"coefficient sweep: two-level {args.layout}, m={m}, N={args.n_sub}")
    partitioned = []
    problem = None
    for label, spec, partition in rows:
        if problem is None or problem.spec is not spec:
            problem = _cdr_problem(spec)
        partitioned.append((label, problem, _partition(partition, problem)))
    lines = []
    for label, problem, maps in partitioned:
        handle = _build_preconditioner("two-level", maps, problem)
        # whp-gcr takes W = H by construction; GMRES runs in the Euclidean one
        weight = WeightOperator.identity(problem.dim)
        system = LinearSystem(problem.operator, problem.rhs)
        for suffix, run in solvers:
            result = run(system, handle, weight, cfg)
            lines.append((label + suffix, result.iterations, result.status))
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
        if not (math.isfinite(args.kappa) and args.kappa >= 1.0):
            raise UsageError(f"--kappa must be finite and >= 1, got {args.kappa}")
        if not (math.isfinite(args.rho) and args.rho >= 0.0):
            raise UsageError(f"--rho must be finite and >= 0, got {args.rho}")
        report = bounds_mod.BoundReport(kappa=args.kappa, rho=args.rho,
                                        bound3=bounds_mod.direct_bound3(args.kappa, args.rho))
        print(f"kappa={args.kappa:.6g} rho={args.rho:.6g}")
        print(f"bound3={report.bound3:.6f}")
        print(f"predicted iterations to 1e-6: {report.predicted_iterations(1e-6)}")
        _write_bound_report(args, "direct mode", report)
        return 0

    _check_pairing(args.precond, args.weight)
    spec = _partition_spec(args.layout, args.n_sub, args.overlap)
    problem = _load_problem(args)
    maps = _partition(spec, problem) if args.precond in _SCHWARZ_MODES else None
    handle = _build_preconditioner(args.precond, maps, problem)
    weight = _build_weight(args.weight, handle, problem.dim)
    try:
        report = bounds_mod.compute_bound_report(problem.operator, handle, weight)
    except EigenSolverError as exc:
        raise UsageError(f"bound report: {exc}") from exc
    if problem.spec is not None:
        try:
            report.alpha_analytic = cdr.analytic_rho_bound(problem.spec)
        except ValueError:  # c0 = 0 leaves the reaction no positive lower bound
            pass
    for key, value in report.to_dict().items():
        if value is not None:
            print(f"{key}={value:.8g}")
    predicted = report.predicted_iterations(1e-6)
    if predicted is not None:
        print(f"predicted iterations to 1e-6: {predicted}")
    _write_bound_report(args, problem.label, report)
    return 0


def _write_bound_report(args, problem: str, report: bounds_mod.BoundReport):
    if args.out:
        matrixio.write_report_json(
            matrixio.ExperimentReport(metadata={"problem": problem},
                                      bound_report=report.to_dict()), args.out)


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
