"""The library API the benchmark workloads call, run end to end at small size.

``python -m pytest perfbench`` checks the benchmark's instrumentation but
never calls ``workloads.reference_solution``; this runs every workload
through problem -> reference_solution -> setup -> compute -> check, so a
library change that breaks any of those calls fails here.
"""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pytest  # noqa: E402

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
