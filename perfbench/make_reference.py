"""Record the outputs the benchmark checks against, from the current program.

Run from the repository root:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``: the paper_repro criteria, and for
the ring150 seeds in ``workloads.REFERENCE_RING_SEEDS`` each agent's detected
``T_x_obs``/``T_u_obs`` as whole Euler steps. Regenerate it only when a
change is meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    from khopsim import plant_sim, scenario_cli
    import workloads as wl

    cfg = wl.SIZES["full"]
    ref = {}

    raw = wl.reproduction_scenario(cfg["repro_t_end"])
    ts = scenario_cli.prepare(scenario_cli.load_scenario(raw))
    tel = plant_sim.run(ts.config)
    report = scenario_cli.verification_report(ts, scenario_cli.telemetry_columns(tel))
    ref["paper_repro"] = {
        "criteria": [{"name": c["name"], "status": c["status"]} for c in report["criteria"]]
    }
    print("paper_repro", [c["status"] for c in report["criteria"]], flush=True)

    seeds = {}
    for seed in wl.REFERENCE_RING_SEEDS:
        raw = wl.ring_scenario(seed, cfg["ring_n"], cfg["ring_steps"], cfg["ring_decimate"])
        ts = scenario_cli.prepare(scenario_cli.load_scenario(raw))
        tel = plant_sim.run(ts.config)
        dt = raw["sim"]["dt"]
        seeds[str(seed)] = {
            "T_x": wl.to_step_indices(tel.T_x_obs, dt),
            "T_u": wl.to_step_indices(tel.T_u_obs, dt),
        }
        found = sum(v is not None for v in seeds[str(seed)]["T_x"])
        print(f"ring150 seed {seed}: {found} state detections", flush=True)
    ref["ring150"] = {
        "n": cfg["ring_n"],
        "steps": cfg["ring_steps"],
        "decimate": cfg["ring_decimate"],
        "seeds": seeds,
    }
    out = HERE / "reference.json"
    write_reference(ref, out)
    print(f"wrote {out} ({os.path.getsize(out)} bytes)")
    return 0


def write_reference(ref: dict, out: Path) -> None:
    """JSON with one ring seed per line, so the file is reviewable in a diff."""
    ring = dict(ref["ring150"])
    ring_seeds = ring.pop("seeds")
    head = json.dumps({**ref, "ring150": ring}, separators=(",", ":"))[:-2]
    body = ",\n".join(
        f'"{s}":{json.dumps(v, separators=(",", ":"))}' for s, v in ring_seeds.items()
    )
    out.write_text(head + ',"seeds":{\n' + body + "\n}}}\n", encoding="utf-8")
    if json.loads(out.read_text(encoding="utf-8")) != ref:
        raise SystemExit(f"{out} does not read back as written")


if __name__ == "__main__":
    raise SystemExit(main())
