"""Acceptance suite: every exit criterion, one test each, one printed line each.

The reproduction scenario is exercised through the real CLI entry point
(``reproduce-paper``) once per session; its telemetry and reports are then
re-analyzed here with independent recomputation (numpy eigensolver for the
spectra, direct envelope evaluation for the stability bound) rather than by
trusting the CLI's own verdicts.
"""

import json
import time

import numpy as np
import pytest

from conftest import random_connected_graph
from khopsim import (
    BoundSet,
    Graph,
    PlantModel,
    all_khop_sets,
    coupling_matrices,
    coupling_spectra,
    detect_convergence,
    tune_gains,
)
from khopsim.plant_sim import read_csv
from khopsim.scenario_cli import REPRODUCTION_SCENARIO, load_scenario, main, prepare
from test_khop_observer import structural_identity_max_error

REF_OMEGA = [2.62, 1.0, 1.0, 2.62]
REF_THETA = [3.40, 0.5, 0.5, 3.40]
REF_PI = [9.69, 1.0, 1.0, 9.69]
GOLDEN = ((3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0)


def announce(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def repro(tmp_path_factory):
    out = tmp_path_factory.mktemp("repro")
    t0 = time.perf_counter()
    rc = main(["reproduce-paper", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    report = json.loads((out / "report.json").read_text())
    cols = read_csv(out / "telemetry.csv")
    scenario = json.loads((out / "scenario.json").read_text())
    return {
        "rc": rc,
        "elapsed": elapsed,
        "report": report,
        "cols": cols,
        "scenario": scenario,
        "out": out,
    }


def test_criterion_gain_reproduction():
    graph = Graph(4, {(1, 2), (2, 3), (3, 4)})
    plant = PlantModel(N=2, A=np.zeros((2, 2)))
    bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
    t0 = time.perf_counter()
    gains, _, _ = tune_gains(graph, 3, plant, bounds, g_scale=20.0, slack=1e-3)
    elapsed = time.perf_counter() - t0
    ok = (
        np.allclose(gains.omega, REF_OMEGA, atol=0.01)
        and abs(gains.theta[0] - 3.40) <= 0.05
        and abs(gains.theta[3] - 3.40) <= 0.05
        and abs(gains.theta[1] - 0.5) <= 0.01
        and abs(gains.theta[2] - 0.5) <= 0.01
        and abs(gains.pi[0] - 9.69) <= 0.05
        and abs(gains.pi[3] - 9.69) <= 0.05
        and abs(gains.pi[1] - 1.0) <= 0.01
        and abs(gains.pi[2] - 1.0) <= 0.01
        and elapsed < 1.0
    )
    announce(
        "gain reproduction",
        ok,
        f"omega={np.round(gains.omega, 4).tolist()} theta={np.round(gains.theta, 4).tolist()} "
        f"pi={np.round(gains.pi, 4).tolist()} in {elapsed * 1e3:.1f} ms",
    )


def test_criterion_coupling_spectrum():
    graph = Graph(4, {(1, 2), (2, 3), (3, 4)})
    nbs = all_khop_sets(graph, 3)
    m2 = coupling_matrices(graph, nbs[1])
    (lmin, _), (lmax, _), _ = coupling_spectra([coupling_matrices(graph, nbs[0]), m2])
    exact_scalar = np.array_equal(m2, [[1.0]])
    eigs_ok = abs(lmin - GOLDEN[0]) < 1e-9 and abs(lmax - GOLDEN[1]) < 1e-9
    announce(
        "coupling spectrum",
        exact_scalar and eigs_ok,
        f"M_2 = {m2.tolist()}, M_1 eigenvalues ({lmin:.9f}, {lmax:.9f})",
    )


def test_criterion_coupling_pd_property_suite():
    rng = np.random.default_rng(20240811)
    t0 = time.perf_counter()
    worst = np.inf
    checked = 0
    for _ in range(200):
        g = random_connected_graph(rng, n_min=2, n_max=8)
        k = int(rng.integers(2, 5))
        for nb in all_khop_sets(g, k):
            if nb.eta == 0:
                continue
            lam = coupling_spectra([coupling_matrices(g, nb)])[0][0]
            worst = min(worst, lam)
            checked += 1
    elapsed = time.perf_counter() - t0
    announce(
        "positive-definite coupling on 200 random graphs",
        worst > 1e-9 and elapsed < 10.0,
        f"{checked} matrices, min eigenvalue {worst:.3e}, {elapsed:.2f} s",
    )


def test_criterion_structural_identity():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, n_min=2, n_max=6)
        k = int(rng.integers(2, 5))
        n_dim = int(rng.integers(1, 4))
        worst = max(worst, structural_identity_max_error(g, k, n_dim, rng))
    announce(
        "message-form signals equal the coupling-matrix form",
        worst < 1e-10,
        f"100 random instances, max deviation {worst:.2e}",
    )


def _columns(cols, prefix, agents):
    """The per-agent CSV columns ``<prefix>_<agent>`` as one ``(S, n)`` array."""
    return np.column_stack([cols[f"{prefix}_{a}"] for a in agents])


def _detection_setup(repro):
    scenario = repro["scenario"]
    gains = {row["agent"]: row for row in repro["report"]["per_agent"]}
    dt = scenario["sim"]["dt"]
    scale = scenario["sim"]["band_scale"]
    eps = scenario["sim"]["conv_eps"]
    band_x = {a: scale * gains[a]["theta"] * dt for a in gains}
    band_u = {a: scale * gains[a]["pi"] * dt for a in gains}
    return gains, eps, band_x, band_u


def test_criterion_finite_time_certificates(repro):
    ok_run = repro["rc"] == 0 and repro["elapsed"] < 30.0
    cols = repro["cols"]
    times = cols["t"]
    gains, eps, band_x, band_u = _detection_setup(repro)
    details = []
    ok_bounds = True
    agents = range(1, 5)
    t_xs = detect_convergence(times, _columns(cols, "errx", agents), eps,
                              np.array([band_x[a] for a in agents]))
    t_us = detect_convergence(times, _columns(cols, "erru", agents), eps,
                              np.array([band_u[a] for a in agents]))
    for agent, t_x, t_u in zip(agents, t_xs, t_us):
        row = gains[agent]
        in_band = np.isfinite(t_x) and np.isfinite(t_u)
        within = (
            in_band and t_x <= row["T_x_bound"] and t_u <= row["T_u_bound"]
        )
        ok_bounds = ok_bounds and within
        details.append(f"a{agent}: Tx {t_x:.3f}<={row['T_x_bound']:.0f} Tu {t_u:.3f}<={row['T_u_bound']:.0f}")
    consensus = float(cols["consdist"][-1])
    ok = ok_run and ok_bounds and consensus < 1e-2
    announce(
        "finite-time certificates on the reproduction run",
        ok,
        "; ".join(details) + f"; consensus {consensus:.2e}; {repro['elapsed']:.1f} s",
    )


def test_criterion_iss_envelope(repro):
    cols = repro["cols"]
    scenario = repro["scenario"]
    times = cols["t"]
    consdist = cols["consdist"]
    # independent lambda_2 from the target graph via LAPACK
    tg = scenario["target_graph"]
    n = tg["n"]
    lap = np.zeros((n, n))
    for i, j in tg["edges"]:
        lap[i - 1, i - 1] += 1
        lap[j - 1, j - 1] += 1
        lap[i - 1, j - 1] -= 1
        lap[j - 1, i - 1] -= 1
    w = np.linalg.eigvalsh(lap)
    lam2 = float(w[w > 1e-8][0])
    v = np.column_stack(
        [cols[f"v_{i}_{c}"] for i in range(1, n + 1) for c in range(1, 3)]
    )
    run_sup = np.maximum.accumulate(np.linalg.norm(v, axis=1))
    envelope = np.exp(-lam2 * times) * consdist[0] + run_sup / lam2
    tol = 1e-6 + 1e-9 * max(1.0, consdist[0])
    worst = float(np.max(consdist - envelope))
    announce(
        "stability envelope along the reproduction run",
        worst <= tol,
        f"lambda2 = {lam2:.3f}, worst violation {worst:.3e} <= {tol:.1e}",
    )


def test_criterion_bounded_error_audit(repro):
    cols = repro["cols"]
    times = cols["t"]
    gains, eps, band_x, band_u = _detection_setup(repro)
    t_u_all = list(detect_convergence(
        times, _columns(cols, "erru", range(1, 5)), eps, np.array([band_u[a] for a in range(1, 5)])
    ))
    ok = all(np.isfinite(t) for t in t_u_all)
    t_u_global = max(t_u_all)
    ref = int(np.searchsorted(times, t_u_global))
    worst_rise = -np.inf
    x_obs = 0.0
    for agent in range(1, 5):
        series = cols[f"errx_{agent}"]
        x_obs = max(x_obs, float(series.max()))
        allowed = series[ref] + band_x[agent]
        worst_rise = max(worst_rise, float((series[ref:] - allowed).max()))
    ok = ok and worst_rise <= 0.0 and np.isfinite(x_obs)
    announce(
        "errors stay bounded after input-observer convergence",
        ok,
        f"T_u_obs = {t_u_global:.3f} s, worst rise {worst_rise:.3e}, "
        f"max error over run {x_obs:.4f}",
    )


def test_criterion_state_convergence_independent_of_input_gains():
    # Halving every switching gain of the input observer must leave the
    # state-error convergence within the theta-based certificate times of
    # the nominal design (bounded inputs make the state observer immune to
    # the input-observer dynamics).
    baseline = prepare(load_scenario(REPRODUCTION_SCENARIO))
    assert baseline.cert is not None
    raw = json.loads(json.dumps(REPRODUCTION_SCENARIO))
    raw["gains"]["pi_scale"] = 0.5
    halved = prepare(load_scenario(raw))
    from khopsim.plant_sim import run as run_sim

    tel = run_sim(halved.config)
    ok = True
    details = []
    for idx in range(4):
        t_obs = tel.T_x_obs[idx]
        bound = baseline.cert.T_x[idx]
        ok = ok and np.isfinite(t_obs) and t_obs <= bound
        details.append(f"a{idx + 1}: {t_obs:.3f} s")
    announce(
        "state convergence unaffected by halved input-observer gains",
        ok,
        ", ".join(details) + " (all within the nominal certificates)",
    )


def test_criterion_negative_control(tmp_path):
    # Deliberately broken design: switching gains cut to a tenth and the
    # input estimates frozen at a wrong constant. At least one state error
    # must never enter its band, and the verifier must refuse to certify.
    raw = json.loads(json.dumps(REPRODUCTION_SCENARIO))
    raw["gains"]["theta_scale"] = 0.1
    raw["gains"]["overrides"] = {"pi": [0.0, 0.0, 0.0, 0.0]}
    raw["sim"]["uhat0"] = 0.8
    raw["sim"]["t_end"] = 10.0
    scen_path = tmp_path / "broken.json"
    scen_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    rc_sim = main(["simulate", "--scenario", str(scen_path), "--out", str(out)])
    rc_ver = main(
        [
            "verify",
            "--scenario",
            str(scen_path),
            "--telemetry",
            str(out / "telemetry.csv"),
            "--out",
            str(tmp_path / "v"),
        ]
    )
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    statuses = {c["name"]: c["status"] for c in report["criteria"]}
    cols = read_csv(out / "telemetry.csv")
    scenario = json.loads(scen_path.read_text())
    dt = scenario["sim"]["dt"]
    rows = report["per_agent"]
    band = np.array([scenario["sim"]["band_scale"] * row["theta"] * dt for row in rows])
    t_x = detect_convergence(
        cols["t"], _columns(cols, "errx", [row["agent"] for row in rows]),
        scenario["sim"]["conv_eps"], band,
    )
    never_in_band = list(~np.isfinite(t_x))
    ok = (
        rc_sim == 2
        and rc_ver == 2
        and statuses["certified_gains"] == "not_certified"
        and statuses["state_time_within_certificate"] == "not_certified"
        and statuses["state_band_permanence"] == "fail"
        and any(never_in_band)
    )
    announce(
        "negative control refuses certification",
        ok,
        f"simulate rc={rc_sim}, verify rc={rc_ver}, "
        f"{sum(never_in_band)}/4 agents never reach the band",
    )
