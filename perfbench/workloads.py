"""Seeded inputs, timed pipelines and output checks for the khopsim benchmark.

Each workload hands the program only a generated scenario dict (explicit
edges, explicit ``x0`` rows), runs the same library calls the command line
runs, times each phase from outside, and then checks the outputs against
values recorded at the commit that introduced this benchmark
(``reference.json``).
"""

from __future__ import annotations

import copy
import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from khopsim import plant_sim, scenario_cli

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Problem sizes. "full" is what the benchmark measures; "smoke" is the tiny
# variant the smoke test runs so the pipelines and checks cannot rot.
SIZES = {
    "full": {
        "repro_t_end": 20.0,
        "ring_n": 150,
        "ring_steps": 200,
        "ring_decimate": 5,
        # One setup batch per repeat, about 1 s long on a 2-vCPU Xeon VM.
        "setup_reps": {"paper_repro": 500, "ring150": 4},
        "verify_reps": {"paper_repro": 5, "ring150": 1},
    },
    "smoke": {
        "repro_t_end": 0.3,
        "ring_n": 12,
        "ring_steps": 30,
        "ring_decimate": 5,
        "setup_reps": {"paper_repro": 2, "ring150": 2},
        "verify_reps": {"paper_repro": 2, "ring150": 2},
    },
}

RING_X0_HALF_WIDTH = 0.25
# Detected convergence times may move by this many Euler steps before the
# ring150 check fails: two logged samples at the ring's decimation.
T_OBS_TOLERANCE_STEPS = 10
# Seeds whose ring150 detection times reference.json records. Other seeds
# run, but their detection times go unchecked.
REFERENCE_RING_SEEDS = range(100)
STRUCTURAL_CRITERIA = ("certified_gains", "iss_envelope", "csv_consistency")


# ---------------------------------------------------------------------------
# Input generation


def reproduction_scenario(t_end: float) -> dict:
    """The bundled reproduction scenario with the given horizon."""
    raw = copy.deepcopy(scenario_cli.REPRODUCTION_SCENARIO)
    raw["sim"]["t_end"] = float(t_end)
    return raw


def _distances(adj: dict, start: int) -> dict:
    """Hop distances by breadth-first search. The generator keeps its own
    search so the inputs do not depend on the program under test."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def ring_scenario(seed: int, n: int, steps: int, decimate: int) -> dict:
    """Ring of ``n`` agents plus ``n // 4`` seeded chords, k = 3, N = 2.

    The target graph is the ring plus, per agent, one edge to a seeded agent
    exactly two communication hops away, so every agent's controller needs
    at least one multi-hop estimate. ``x0`` is drawn uniformly from
    ``[-0.25, 0.25]^2`` per agent.
    """
    rng = np.random.default_rng(seed)
    ring = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    edges = set(ring)
    while len(edges) < len(ring) + n // 4:
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False) + 1)
        edges.add((a, b))
    adj = {i: [] for i in range(1, n + 1)}
    for a, b in sorted(edges):
        adj[a].append(b)
        adj[b].append(a)
    target = set(ring)
    for i in range(1, n + 1):
        dist = _distances(adj, i)
        two_hop = sorted(j for j, d in dist.items() if d == 2)
        j = two_hop[int(rng.integers(len(two_hop)))]
        target.add((min(i, j), max(i, j)))
    x0 = rng.uniform(-RING_X0_HALF_WIDTH, RING_X0_HALF_WIDTH, size=(n, 2))
    raw = reproduction_scenario(steps * scenario_cli.REPRODUCTION_SCENARIO["sim"]["dt"])
    raw["name"] = f"ring{n}-seed{seed}"
    raw["graph"] = {"n": n, "edges": [list(e) for e in sorted(edges)]}
    raw["target_graph"] = {"n": n, "edges": [list(e) for e in sorted(target)]}
    raw["sim"]["x0"] = x0.tolist()
    raw["sim"]["decimate"] = int(decimate)
    return raw


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def steps_of(raw: dict) -> int:
    return int(round(raw["sim"]["t_end"] / raw["sim"]["dt"]))


def to_step_indices(times: np.ndarray, dt: float) -> list:
    """Detected times as whole Euler steps, ``None`` where nothing was detected."""
    return [int(round(t / dt)) if np.isfinite(t) else None for t in times]


# ---------------------------------------------------------------------------
# Timed pipeline


@dataclass
class Sample:
    """Phase timings of one repeat plus what the output check found."""

    wall_s: float
    setup_s: float
    steps: int
    run_s: float
    verify_s: list
    start: float = 0.0
    end: float = 0.0
    # (start, end) of the setup batch, of ``run`` and of each verification.
    setup_span: tuple = (0.0, 0.0)
    run_span: tuple = (0.0, 0.0)
    verify_spans: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def timed_setup(raw: dict, reps: int):
    """Mean time of ``load_scenario`` + ``prepare`` over a batch of ``reps``,
    and the batch's (start, end).

    The batch is timed as a whole with the cyclic garbage collector off, so
    neither timer resolution nor a collection landing in one short setup
    decides the sample.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            scenario_cli.prepare(scenario_cli.load_scenario(raw))
        t1 = time.perf_counter()
    finally:
        gc.enable()
    return (t1 - t0) / reps, (t0, t1)


def problem_counts(ts, steps: int, samples: int) -> dict:
    pairs = int(sum(nb.eta for nb in ts.nbs))
    return {
        "steps": steps,
        "pairs": pairs,
        "pair_steps": pairs * steps,
        "eta_max": int(max(nb.eta for nb in ts.nbs)),
        "samples_logged": samples,
    }


def simulate_and_verify(raw: dict, workdir: Path, setup_reps: int, verify_reps: int):
    """Scenario dict -> tuned -> run -> CSV -> read back -> verify -> report.

    The timed wall covers one setup and everything after it. The setup batch
    before it gives the ``setup_s`` sample; the extra verifications after it
    only sharpen the ``verify_s`` median.
    """
    csv_path = workdir / "telemetry.csv"
    report_path = workdir / "report.json"
    setup_s, setup_span = timed_setup(raw, setup_reps)
    t0 = time.perf_counter()
    ts = scenario_cli.prepare(scenario_cli.load_scenario(raw))
    t1 = time.perf_counter()
    tel = plant_sim.run(ts.config)
    t2 = time.perf_counter()
    plant_sim.write_csv(tel, csv_path)
    t3 = time.perf_counter()
    cols = plant_sim.read_csv(csv_path)
    report = scenario_cli.verification_report(ts, cols)
    t4 = time.perf_counter()
    scenario_cli._write_json(report_path, report)
    t5 = time.perf_counter()
    verify_spans = [(t3, t4)]
    for _ in range(verify_reps - 1):
        t = time.perf_counter()
        scenario_cli.verification_report(ts, plant_sim.read_csv(csv_path))
        verify_spans.append((t, time.perf_counter()))
    steps = steps_of(raw)
    sample = Sample(
        wall_s=t5 - t0,
        setup_s=setup_s,
        steps=steps,
        run_s=t2 - t1,
        verify_s=[b - a for a, b in verify_spans],
        start=t0,
        end=t5,
        setup_span=setup_span,
        run_span=(t1, t2),
        verify_spans=verify_spans,
        counts=problem_counts(ts, steps, int(tel.times.size)),
    )
    sample.counts["csv_bytes"] = csv_path.stat().st_size
    return sample, ts, tel, cols, report_path


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of human-readable failures.


def check_roundtrip(tel, cols: dict) -> list:
    """The CSV read back must equal the in-memory telemetry bit for bit."""
    mem = scenario_cli.telemetry_columns(tel)
    if set(mem) != set(cols):
        return [f"CSV columns differ from telemetry: {sorted(set(mem) ^ set(cols))[:5]}"]
    bad = [k for k in mem if not np.array_equal(mem[k], cols[k])]
    return [f"CSV round trip not exact in columns {bad[:5]}"] if bad else []


def check_report_file(report_path: Path, required_pass) -> list:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    status = {c["name"]: c["status"] for c in report["criteria"]}
    failures = [
        f"criterion {name}: {status.get(name, 'missing')}"
        for name in required_pass
        if status.get(name) != "pass"
    ]
    return failures


def check_t_obs(tel, expected: dict, dt: float, horizon_steps: int) -> list:
    """Detected times within the tolerance wherever the reference detected one.

    Agents the reference never saw converge, or saw converge only within the
    tolerance of the horizon, are not checked: those verdicts depend on the
    horizon and on the logging decimation.
    """
    failures = []
    last_checked = horizon_steps - T_OBS_TOLERANCE_STEPS
    for key, got in (("T_x", tel.T_x_obs), ("T_u", tel.T_u_obs)):
        got_steps = to_step_indices(got, dt)
        for agent, (want, have) in enumerate(zip(expected[key], got_steps), 1):
            if want is None or want > last_checked:
                continue
            if have is None or abs(have - want) > T_OBS_TOLERANCE_STEPS:
                failures.append(f"{key}_obs agent {agent}: step {have}, reference {want}")
    return failures[:10]


# ---------------------------------------------------------------------------
# Workloads


class ScenarioPipeline:
    """One scenario dict through simulate and verify, checked every repeat."""

    def __init__(self, raw: dict, required_pass, setup_reps: int, verify_reps: int,
                 expected_t_obs=None):
        self.raw = raw
        self.required_pass = list(required_pass)
        self.setup_reps = setup_reps
        self.verify_reps = verify_reps
        self.expected_t_obs = expected_t_obs

    def repeat(self, workdir: Path) -> Sample:
        sample, _, tel, cols, report_path = simulate_and_verify(
            self.raw, workdir, self.setup_reps, self.verify_reps
        )
        sample.failures += check_roundtrip(tel, cols)
        sample.failures += check_report_file(report_path, self.required_pass)
        if self.expected_t_obs is not None:
            sample.failures += check_t_obs(
                tel, self.expected_t_obs, self.raw["sim"]["dt"], sample.steps
            )
        return sample


def make_workload(name: str, seed: int, size: str, reference: dict) -> ScenarioPipeline:
    cfg = SIZES[size]
    full = size == "full"
    reps = (cfg["setup_reps"][name], cfg["verify_reps"][name])
    if name == "paper_repro":
        # The bundled scenario has fixed initial states: the seed does not
        # change this input.
        required = (
            [c["name"] for c in reference["paper_repro"]["criteria"]]
            if full
            else STRUCTURAL_CRITERIA
        )
        return ScenarioPipeline(reproduction_scenario(cfg["repro_t_end"]), required, *reps)
    if name == "ring150":
        raw = ring_scenario(seed, cfg["ring_n"], cfg["ring_steps"], cfg["ring_decimate"])
        expected = reference["ring150"]["seeds"].get(str(seed)) if full else None
        return ScenarioPipeline(raw, STRUCTURAL_CRITERIA, *reps, expected_t_obs=expected)
    raise ValueError(f"unknown workload {name!r}")
