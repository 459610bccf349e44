"""khopsim benchmark: time one workload end to end, or trace it per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper_repro --seed 0 --seconds 60 --trace 0

Workloads: ``paper_repro`` and ``ring150`` (see README.md).
With ``--trace 0`` the workload repeats untraced for ``--seconds`` and the
end-to-end metrics are medians over the repeats, with each timing rescaled
to a reference host speed (``hostspeed.py``). With ``--trace 1`` untraced
and traced repeats alternate; the per-layer metrics come from the traced
repeat with the median wall time. Every repeat's outputs are checked. The
last line of stdout is one JSON object; lines before it starting with ``#``
give the environment, quartiles and trace breakdown. The program is imported
from ``src/`` of the checkout, so a copy without it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One BLAS thread: the benchmark runs one worker, so workers x threads stays
# within nproc, and the small matrices here gain nothing from threads.
BLAS_THREADS = 1
MIN_REPEATS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
)
TIMED_FUNCTIONS = (
    "plant_sim.run",
    "plant_sim.consensus_control",
    "plant_sim.consensus_distance",
    "plant_sim.write_csv",
    "plant_sim.read_csv",
    "plant_sim.init_world",
    "plant_sim.initial_error_norms",
    "plant_sim.lambda2",
    "graph_khop.all_khop_sets",
    "graph_khop.coupling_matrices",
    "graph_khop.check_neighbor_overlap",
    "gain_tuning.tune_gains",
    "gain_tuning.certificate",
    "scenario_cli.prepare",
    "scenario_cli.evaluate_criteria",
    "scenario_cli.bound_audit",
    "scenario_cli.gain_report",
    "scenario_cli.verification_report",
)
OBSERVER = "khop_observer.observer_derivative"
SYM_EIG = "dense_linalg.sym_eig"
VERIFY_PHASE = ("plant_sim.read_csv", "scenario_cli.verification_report")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_speed(start: float, end: float) -> float:
    return 1.0


def end_to_end(samples: list, speed=unit_speed) -> dict:
    """Per-repeat series for every end-to-end timing metric, at reference
    host speed: each time is multiplied, and each rate divided, by
    ``speed(start, end)`` over its own phase (above 1 when the host was
    faster). The default leaves them unscaled."""
    return {
        "wall_s": [s.wall_s * speed(s.start, s.end) for s in samples],
        "setup_s": [s.setup_s * speed(*s.setup_span) for s in samples],
        "steps_per_s": [s.steps / s.run_s / speed(*s.run_span) for s in samples],
        "verify_s": [
            t * speed(*span) for s in samples for t, span in zip(s.verify_s, s.verify_spans)
        ],
    }


def layer_metrics(spans, sample) -> tuple:
    """Per-layer metrics of one traced repeat, as name -> (value, unit),
    and the spans of that repeat's timed window."""
    from tracer import LAYERS

    sp = spans.window(sample.start, sample.end)
    counts = sample.counts
    m = {}
    od_s = sp.total(OBSERVER)
    m[f"{OBSERVER}.s"] = (od_s, "s")
    m[f"{OBSERVER}.calls"] = (sp.calls(OBSERVER), "count")
    m[f"{OBSERVER}.us_per_pair_step"] = (od_s / counts["pair_steps"] * 1e6, "us")
    inner, run_total = sp.inside(["plant_sim.run"], OBSERVER)
    m[f"{OBSERVER}.share_of_run"] = (inner / run_total if run_total else 0.0, "ratio")
    m["plant_sim.run.self_s"] = (sp.total("plant_sim.run", "self_time"), "s")
    for fn in TIMED_FUNCTIONS:
        m[f"{fn}.s"] = (sp.total(fn), "s")
    m["plant_sim.samples_logged"] = (counts["samples_logged"], "count")
    m["plant_sim.csv_bytes"] = (counts["csv_bytes"], "bytes")
    m[f"{SYM_EIG}.s"] = (sp.total(SYM_EIG), "s")
    m[f"{SYM_EIG}.calls"] = (sp.calls(SYM_EIG), "count")
    m[f"{SYM_EIG}.max_dim"] = (spans.max_dim.get(SYM_EIG, 0), "count")
    inner, verify_total = sp.inside(VERIFY_PHASE, SYM_EIG)
    m[f"{SYM_EIG}.share_of_verify"] = (inner / verify_total if verify_total else 0.0, "ratio")
    module_self = sp.module_self()
    for module in LAYERS:
        m[f"{module}.self_s"] = (module_self[module], "s")
    m["trace.wall_s"] = (sample.wall_s, "s")
    m["trace.uncovered_s"] = (sample.wall_s - sp.covered(), "s")
    for key in ("steps", "pairs", "pair_steps", "eta_max"):
        m[key] = (counts[key], "count")
    return m, sp


def trace_lines(sp, m) -> list:
    """Human-readable breakdown of the chosen traced repeat."""
    from tracer import LAYERS

    lines = []
    total_self = sum(m[f"{mod}.self_s"][0] for mod in LAYERS)
    lines.append(
        "accounting: layer self times {:.6f} s + uncovered {:.6f} s = {:.6f} s; wall {:.6f} s".format(
            total_self, m["trace.uncovered_s"][0],
            total_self + m["trace.uncovered_s"][0], m["trace.wall_s"][0],
        )
    )
    run_rank = sp.ranking_inside("plant_sim.run")
    run_total = sp.total("plant_sim.run")
    if run_total:
        top = ", ".join(f"{k} {v / run_total:.1%}" for k, v in run_rank[:4])
        lines.append(f"largest parts of plant_sim.run (inclusive): {top}")
    verify_rank = sp.self_ranking(VERIFY_PHASE)
    verify_total = sum(sp.total(n) for n in VERIFY_PHASE)
    if verify_total:
        top = ", ".join(f"{k} {v / verify_total:.1%}" for k, v in verify_rank[:4])
        lines.append(f"largest self times in verify (read_csv + verification_report): {top}")
    return lines


def measure(workload, seconds: float, workdir: Path, tracer=None, sampler=None):
    """Repeat the workload until ``seconds`` have passed.

    Without a tracer every repeat is untraced. With one, untraced and traced
    repeats alternate, so both see the same machine conditions. A host speed
    ``sampler``, if given, probes through every repeat.
    """
    modes = (False,) if tracer is None else (False, True)
    min_repeats = MIN_REPEATS if tracer is None else 2
    results = []  # (traced, sample or None, spans or None)
    deadline = time.perf_counter() + seconds
    last = 0.0
    while True:
        traced = modes[len(results) % len(modes)]
        t = time.perf_counter()
        sample = spans = None
        if sampler:
            sampler.start()
        try:
            if traced:
                tracer.clear()
                tracer.install()
            try:
                sample = workload.repeat(workdir)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                spans = tracer.collect()
        except Exception:  # a repeat that raises counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
        finally:
            if sampler:
                sampler.stop()
        results.append((traced, sample, spans))
        last = time.perf_counter() - t
        if len(results) >= min_repeats and time.perf_counter() + last > deadline:
            break
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="khopsim benchmark")
    parser.add_argument("--workload", required=True, choices=("paper_repro", "ring150"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "khopsim" / "__init__.py").is_file():
        print(f"perfbench: no khopsim sources under {SRC}", file=sys.stderr)
        return 2

    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import hostspeed
    import tracer as tracing
    import workloads as wl

    size = "smoke" if args.smoke else "full"
    workload = wl.make_workload(args.workload, args.seed, size, wl.load_reference())
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }
    if args.workload == "ring150" and size == "full" and workload.expected_t_obs is None:
        refs = wl.REFERENCE_RING_SEEDS
        env["unchecked"] = ["T_x_obs", "T_u_obs"]
        note = (
            f"# unchecked: T_x_obs/T_u_obs, reference.json holds ring150 seeds "
            f"{refs.start}-{refs.stop - 1} only"
        )
        print(note)
        print("perfbench: " + note[2:], file=sys.stderr)

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        tracer = tracing.Tracer() if args.trace else None
        sampler = None if args.trace else hostspeed.Sampler()
        results = measure(workload, args.seconds, workdir, tracer, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [s for _, s, _ in results if s is not None and not s.failures]
    for _, s, _ in results:
        for failure in (s.failures if s is not None else ["repeat raised"]):
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
    attempted = len(results)
    failed = attempted - len(ok)
    env["repeats"] = attempted
    print("# env " + json.dumps(env, sort_keys=True))

    metrics = {}
    untraced = [s for traced, s, _ in results if not traced and s is not None]
    speed = sampler.speed if sampler else unit_speed
    speeds = [speed(s.start, s.end) for s in untraced]
    unscaled = end_to_end(untraced) if untraced else {}
    series = end_to_end(untraced, speed) if untraced else {}
    if sampler and speeds:
        q1, med, q3 = quartiles(speeds)
        print(f"# host speed: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} over repeats, "
              f"{len(sampler.probes)} probes")
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        print(f"# {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}; "
              f"unscaled median {statistics.median(unscaled[name]):.6g}")
    if not args.trace and untraced:
        for name, unit in END_TO_END:
            value = peak_rss_mb() if name == "peak_rss_mb" else statistics.median(series[name])
            metrics[name] = {"value": value, "unit": unit}
    traced = [(s, sp) for t, s, sp in results if t and s is not None and sp is not None]
    if args.trace and traced and untraced:
        traced.sort(key=lambda pair: pair[0].wall_s)
        sample, spans = traced[(len(traced) - 1) // 2]
        layer, window = layer_metrics(spans, sample)
        overhead = (
            statistics.median(s.wall_s for s, _ in traced)
            - statistics.median(s.wall_s for s in untraced)
        )
        layer["trace_overhead_s"] = (overhead, "s")
        for line in trace_lines(window, layer):
            print("# " + line)
        window.save(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    print(f"# failed_frac {failed}/{attempted}")

    correct = failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = WORK_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "env": env,
        "host_speed": speeds,
        "probes": sampler.probes if sampler else [],
        "unscaled": unscaled,
        "series": series,
        **result,
    }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
