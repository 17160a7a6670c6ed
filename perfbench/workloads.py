"""The four benchmark workloads: inputs from a seed, set-up, the timed
call, and the correctness checks on its output.

Every workload solves or bounds the reference convection-diffusion-
reaction problem (nu = c0 = 1, rigid-rotation convection).  The seed
draws only the Gaussian load, so the operator, the preconditioner and
the bound report are the same for every seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse.linalg

from wpkrylov import bounds, cdr, schwarz, solvers, weighting

REL_TOLERANCE = 1e-6

# relative 2-norm distance allowed between an iterative solution and the
# sparse direct reference.  Stopping at a relative residual of 1e-6 leaves
# errors of 2e-7 to 5e-7 on these problems; the bound leaves a factor 20
# for other loads without letting an unconverged x through.
SOLUTION_RTOL = 1e-5

# compute_bound_report at m = 30, two-level 2x2 grid, W = H, as printed by
# ``wpkrylov bounds --cdr m=30 --precond two-level --n-sub 4 --layout grid:2x2``
RECORDED_BOUNDS = {"kappa": 16.029562, "rho": 0.335987, "bound2": 0.968319, "bound3": 0.971567}
# the recorded values carry six decimals; 1e-5 relative covers the rounding
BOUNDS_RTOL = 1e-5


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    mesh: int
    grid: tuple[int, int] | None  # two-level Schwarz grid; None means H = I
    call: str  # "whp_gcr", "wp_gcr_right" or "bounds"
    weight: str  # "validated" (as_weight()), "h" (W = H, no probe) or "euclidean"


# why each workload exists: README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in [
        Workload("whp-two-level", mesh=100, grid=(4, 4), call="whp_gcr", weight="h"),
        Workload("gcr-identity", mesh=100, grid=None, call="wp_gcr_right", weight="euclidean"),
        Workload("gcr-weighted", mesh=100, grid=(4, 4), call="wp_gcr_right", weight="validated"),
        Workload("bounds-two-level", mesh=30, grid=(2, 2), call="bounds", weight="h"),
    ]
}


def problem(workload: Workload, seed: int) -> cdr.CdrProblemSpec:
    """Reference problem with a Gaussian load whose centre and width come from the seed."""
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(0.45, 0.55), rng.uniform(0.05, 0.15)
    sharpness = rng.uniform(8.0, 12.0)

    def load(x, y):
        return np.exp(-sharpness * ((np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2))

    base = cdr.reference_problem(nu=1.0, c0=1.0, mesh_divisions=workload.mesh)
    return dataclasses.replace(base, f_rhs=load)


def reference_solution(workload: Workload, spec: cdr.CdrProblemSpec) -> np.ndarray | None:
    """Sparse direct solve of the same system; computed once, outside any timing."""
    if workload.call == "bounds":
        return None
    assembled = cdr.assemble(spec)
    a = assembled.full_matrix().to_scipy().tocsc()
    return scipy.sparse.linalg.spsolve(a, assembled.rhs)


@dataclasses.dataclass
class Prepared:
    operator: object
    rhs: np.ndarray
    handle: weighting.PreconditionerHandle
    weight: weighting.WeightOperator


def setup(workload: Workload, spec: cdr.CdrProblemSpec) -> Prepared:
    """Everything before the solver or report can start, as the CLI does it."""
    assembled = cdr.assemble(spec)
    n = assembled.dof_count
    if workload.grid is None:
        handle = weighting.PreconditionerHandle.identity(n)
    else:
        p, q = workload.grid
        maps = schwarz.build_partition(
            assembled.m_matrix, schwarz.PartitionSpec(p * q, "grid", grid_shape=(p, q)),
            coords=assembled.dof_coords)
        precond = schwarz.build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        handle = precond.as_handle()
    if workload.weight == "euclidean":
        weight = weighting.WeightOperator.identity(n)
    elif workload.weight == "validated":
        weight = precond.as_weight()
    else:
        weight = weighting.WeightOperator(n, handle.apply, validate=False)
    return Prepared(assembled.operator(), assembled.rhs, handle, weight)


def compute(workload: Workload, prepared: Prepared):
    """The timed call: a solve to REL_TOLERANCE, or the bound report."""
    if workload.call == "bounds":
        return bounds.compute_bound_report(prepared.operator, prepared.handle, prepared.weight)
    system = solvers.LinearSystem(prepared.operator, prepared.rhs)
    cfg = solvers.SolveConfig(rel_tolerance=REL_TOLERANCE)
    if workload.call == "whp_gcr":
        return solvers.whp_gcr(system, prepared.handle, cfg)
    return solvers.wp_gcr_right(system, prepared.handle, prepared.weight, cfg)


def iterations(workload: Workload, output) -> int:
    """Iterations to converge, or for the bound report the iterations
    bound3 predicts for a 1e-6 reduction (what ``wpkrylov bounds`` prints)."""
    if workload.call == "bounds":
        return output.predicted_iterations(REL_TOLERANCE)
    return output.iterations


def deviation(workload: Workload, output, reference) -> float:
    """Relative 2-norm error of a solve to the direct solve, or the largest
    relative deviation of a bound report from the recorded values."""
    if workload.call == "bounds":
        values = [getattr(output, key) for key in RECORDED_BOUNDS]
        if any(value is None for value in values):
            return math.inf
        return max(abs(value - recorded) / recorded
                   for value, recorded in zip(values, RECORDED_BOUNDS.values()))
    return float(np.linalg.norm(output.x - reference) / np.linalg.norm(reference))


def check(workload: Workload, output, reference) -> list[str]:
    """Failed checks of one output, as messages; empty when it is correct."""
    failures = []
    if workload.call == "bounds":
        values = [getattr(output, key) for key in RECORDED_BOUNDS]
        if any(value is None for value in values):
            return [f"bound report is incomplete: {output.to_dict()}"]
        if not deviation(workload, output, reference) <= BOUNDS_RTOL:
            failures.append(f"bound report {values} differs from the recorded "
                            f"{list(RECORDED_BOUNDS.values())} by more than {BOUNDS_RTOL}")
        if not 0.0 <= output.bound2 <= output.bound3 <= 1.0:
            failures.append(f"0 <= bound2 <= bound3 <= 1 fails: {output.bound2}, {output.bound3}")
        return failures
    if output.status != "converged":
        failures.append(f"solve ended with status {output.status}")
    error = deviation(workload, output, reference)
    if not error <= SOLUTION_RTOL:
        failures.append(f"relative error {error:.3e} to the direct solve exceeds {SOLUTION_RTOL}")
    return failures


def facts(workload: Workload, prepared: Prepared, output) -> dict:
    """What the output says about the solver layer, for the per-layer metrics."""
    if workload.call == "bounds":
        return {"iterations": 0, "projections": 0, "breakdowns": 0, "n": prepared.rhs.size}
    trace = output.trace
    return {
        "iterations": output.iterations,
        "projections": sum(len(row) for row in trace.phi_rows),
        "breakdowns": int(trace.breakdown is not None),
        "n": prepared.rhs.size,
    }
