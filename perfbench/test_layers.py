"""Checks of the benchmark's own instrumentation on a tiny problem (m = 10).

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pytest  # noqa: E402

import wpkrylov as wk  # noqa: E402
from layers import LAYER_UNITS, SpanTree, Tracer, instrument, layer_metrics  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    assembled = wk.assemble(wk.reference_problem(nu=1.0, c0=1.0, mesh_divisions=10))
    maps = wk.build_partition(assembled.m_matrix, wk.PartitionSpec(4, "grid", grid_shape=(2, 2)),
                              coords=assembled.dof_coords)
    return assembled, maps


def _traced_round(tiny, body):
    assembled, maps = tiny
    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("setup"):
            precond = wk.schwarz.build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
            system = wk.LinearSystem(assembled.operator(), assembled.rhs)
        with tracer.span("compute"):
            result = body(system, precond)
    return tracer.spans, result


def test_whp_gcr_applies_h_once_per_iteration_plus_two(tiny):
    spans, result = _traced_round(
        tiny, lambda system, precond: wk.solvers.whp_gcr(system, precond.as_handle(),
                                                         wk.SolveConfig()))
    assert result.status == "converged" and result.iterations > 0
    tree = SpanTree(spans)
    assert tree.count("schwarz.apply", "solvers.solve") == result.iterations + 2
    assert tree.count("linalg.a_apply", "solvers.solve") == result.iterations + 1


def test_wp_gcr_right_with_w_equal_h_applies_h_three_times(tiny):
    def body(system, precond):
        return wk.solvers.wp_gcr_right(system, precond.as_handle(),
                                       precond.as_weight(validate=False), wk.SolveConfig())

    spans, result = _traced_round(tiny, body)
    assert result.status == "converged" and result.iterations > 0
    k = result.iterations
    metrics = layer_metrics(spans, {"iterations": k, "projections": 0, "breakdowns": 0,
                                    "n": result.x.size})
    assert metrics.keys() == LAYER_UNITS.keys()
    assert metrics["schwarz.apply_calls"] == 3 * k + 2
    assert metrics["solvers.h_applies_per_iter"] == (3 * k + 2) / k
    # H r before every iteration; W for ||b||, ||r_0|| and W(Az), ||r|| per iteration
    assert metrics["weighting.h_apply_calls"] == k
    assert metrics["weighting.w_apply_calls"] == 2 * k + 2


def test_validated_weight_costs_64_probe_applies(tiny):
    assembled, maps = tiny
    tracer = Tracer()
    with instrument(tracer):
        precond = wk.schwarz.build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        precond.as_weight()
    tree = SpanTree(tracer.spans)
    assert tree.count("schwarz.apply", "weighting.weight_init") == 64


def test_instrument_restores_the_library():
    before = (wk.schwarz.SchwarzPreconditioner.__dict__["apply"], wk.bounds.cholesky,
              wk.solvers.whp_gcr, wk.cdr.AssembledCdr.operator, wk.WeightOperator.__init__)
    with instrument(Tracer()):
        assert wk.bounds.cholesky is not before[1]
    after = (wk.schwarz.SchwarzPreconditioner.__dict__["apply"], wk.bounds.cholesky,
             wk.solvers.whp_gcr, wk.cdr.AssembledCdr.operator, wk.WeightOperator.__init__)
    assert all(a is b for a, b in zip(before, after))
    assert wk.bounds.cholesky is wk.linalg.cholesky


def test_span_tree_times():
    # outer [0, 10] holds a [1, 4] (itself holding a nested a [2, 3]) and b [5, 6]
    spans = [["outer", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["a", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    tree = SpanTree(spans)
    assert tree.self_time("outer") == 6.0
    assert tree.total("a") == 3.0
    assert tree.count("a", "outer") == 2
    assert tree.count("a", "outer", outside="a") == 1


def test_benchmark_json_lists_the_printed_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {**LAYER_UNITS, **run.OVERHEAD_UNITS})
