"""The benchmark's output checks, run as a test.

perfbench exits 1 when a repeat fails an output check, for instance when a
solver change moves a detected convergence time past ``reference.json``'s
tolerance, a reproduction criterion goes missing or fails, or the CSV does
not read back bit for bit. Running its ring150 pipeline on a few reference
seeds, and its paper_repro pipeline once, here makes such a change fail the
test suite instead. Only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 47])
def test_ring150_repeat_passes_the_benchmark_checks(workloads, seed, tmp_path):
    workload = workloads.make_workload("ring150", seed, "full", workloads.load_reference())
    assert workload.expected_t_obs is not None  # a seed whose T_obs are checked
    assert workload.repeat(tmp_path).failures == []


def test_paper_repro_repeat_passes_the_benchmark_checks(workloads, tmp_path):
    workload = workloads.make_workload("paper_repro", 0, "full", workloads.load_reference())
    assert workload.repeat(tmp_path).failures == []
