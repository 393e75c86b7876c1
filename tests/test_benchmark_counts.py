"""The verify workload's pinned case counts agree with the sweeps.

The benchmark fails a verify job whose case count differs from the one it
pins, so a change to a sweep's grid or driver that moved a count would only
show there.  This test catches it with the other sweep tests.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sgn
from sgn.verify import THEOREM_IDS, verify_theorem

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# sweeps cheap enough to run at their default grids here
CHEAP = ("thm2.2", "prop2.1", "lem3.1", "thm4.1", "lem5.1", "set.bplus", "set.bplusplus", "set.theta", "set.bicyclic")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_runs_every_sweep_but_the_theta_formula(workloads):
    # thm.theta is a known gap of the verify workload
    assert sorted(workloads.VERIFY_CASES) == sorted(set(THEOREM_IDS) - {"thm.theta"})


@pytest.mark.parametrize("theorem_id", CHEAP)
def test_benchmark_case_counts_match_the_sweeps(workloads, theorem_id):
    jobs = {job.label: job for job in workloads.Verify(sgn).make_jobs(seed=1)}
    tid, options = jobs[theorem_id].data
    assert verify_theorem(tid, **options).cases_checked == workloads.VERIFY_CASES[theorem_id]
