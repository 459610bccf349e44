"""Smoke test of the benchmark at tiny sizes, and of its output checks.

Run from the repository root:

    python3 -m pytest -q perfbench

The benchmark's own runs take minutes; these use a 12-agent ring and
horizons of a few hundred steps, so the pipelines, the tracer and every
output check stay exercised.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper_repro",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ring_inputs_follow_the_seed():
    a = wl.ring_scenario(7, 12, 30, 5)
    assert a == wl.ring_scenario(7, 12, 30, 5)
    b = wl.ring_scenario(8, 12, 30, 5)
    assert a["graph"] != b["graph"] or a["sim"]["x0"] != b["sim"]["x0"]
    assert len(a["graph"]["edges"]) == 12 + 12 // 4


@pytest.fixture(scope="module")
def ring_run(tmp_path_factory):
    raw = wl.ring_scenario(5, 12, 30, 5)
    workdir = tmp_path_factory.mktemp("ring")
    sample, ts, tel, cols, report_path = wl.simulate_and_verify(raw, workdir, 1, 1)
    return sample, tel, cols, report_path


def test_checks_pass_on_real_output(ring_run):
    sample, tel, cols, report_path = ring_run
    assert wl.check_roundtrip(tel, cols) == []
    assert wl.check_report_file(report_path, wl.STRUCTURAL_CRITERIA) == []
    expected = {
        "T_x": wl.to_step_indices(tel.T_x_obs, 1e-3),
        "T_u": wl.to_step_indices(tel.T_u_obs, 1e-3),
    }
    assert wl.check_t_obs(tel, expected, 1e-3, 1000) == []


def test_roundtrip_check_catches_one_changed_value(ring_run):
    _, tel, cols, _ = ring_run
    tampered = {k: v.copy() for k, v in cols.items()}
    tampered["errx_1"][-1] = np.nextafter(tampered["errx_1"][-1], np.inf)
    assert wl.check_roundtrip(tel, tampered)


def test_report_check_catches_a_failed_criterion(ring_run, tmp_path):
    _, _, _, report_path = ring_run
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["criteria"][0]["status"] = "fail"
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    assert wl.check_report_file(bad, [report["criteria"][0]["name"]])


def test_t_obs_check_tolerance(ring_run):
    _, tel, _, _ = ring_run
    steps = wl.to_step_indices(tel.T_x_obs, 1e-3)
    agent = next(i for i, v in enumerate(steps) if v is not None)
    near = list(steps)
    near[agent] += wl.T_OBS_TOLERANCE_STEPS
    far = list(steps)
    far[agent] += wl.T_OBS_TOLERANCE_STEPS + 1
    u = wl.to_step_indices(tel.T_u_obs, 1e-3)
    assert wl.check_t_obs(tel, {"T_x": near, "T_u": u}, 1e-3, 1000) == []
    assert wl.check_t_obs(tel, {"T_x": far, "T_u": u}, 1e-3, 1000)
    # A reference detection at the horizon's edge is not checked.
    assert wl.check_t_obs(tel, {"T_x": far, "T_u": u}, 1e-3, far[agent]) == []


def test_reference_covers_the_declared_ring_seeds():
    seeds = wl.load_reference()["ring150"]["seeds"]
    assert set(seeds) == {str(s) for s in wl.REFERENCE_RING_SEEDS}


def test_host_speed_uses_the_probes_inside_the_interval():
    sampler = hostspeed.Sampler()
    assert sampler.speed(0.0, 1.0) == 1.0
    ref = hostspeed.REFERENCE_S
    sampler.probes = [(1.0, ref), (2.0, ref / 2)]
    assert sampler.speed(1.5, 2.5) == pytest.approx(2.0)
    # No probe inside: fall back to the mean of all of them.
    assert sampler.speed(5.0, 6.0) == pytest.approx(1 / 0.75)
