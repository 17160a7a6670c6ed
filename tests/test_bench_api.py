"""The library API the benchmark workloads call, run end to end at small size.

``python -m pytest perfbench`` checks the benchmark's instrumentation but
never calls ``workloads.reference_solution``; this runs every workload
through problem -> reference_solution -> setup -> compute -> check, so a
library change that breaks any of those calls fails here.  The traced
round below does the same for the library names ``layers.instrument``
wraps: a rename or deletion of any of them fails here too.
"""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pytest  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402


def small(workload):
    """Solve workloads at m = 10; the bound report keeps its own m = 30,
    since it is checked against values recorded there."""
    if workload.call == "bounds":
        return workload
    return dataclasses.replace(workload, mesh=10)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_passes_its_checks(name):
    workload = small(workloads.WORKLOADS[name])
    spec = workloads.problem(workload, seed=1)
    reference = workloads.reference_solution(workload, spec)
    prepared = workloads.setup(workload, spec)
    output = workloads.compute(workload, prepared)
    assert workloads.check(workload, output, reference) == []
    assert workloads.iterations(workload, output) > 0


def test_traced_bound_report_round_passes_its_checks():
    from wpkrylov import bounds

    workload = workloads.WORKLOADS["bounds-two-level"]
    spec = workloads.problem(workload, seed=1)
    tracer = layers.Tracer()
    cholesky = bounds.cholesky
    with layers.instrument(tracer):
        assert bounds.cholesky is not cholesky  # wrapped where bounds imported it
        with tracer.span("setup"):
            prepared = workloads.setup(workload, spec)
        with tracer.span("compute"):
            output = workloads.compute(workload, prepared)
    assert workloads.check(workload, output, None) == []
    assert layers.SpanTree(tracer.spans).count("bounds.compute_bound_report", "compute") == 1
