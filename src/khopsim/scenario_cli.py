"""Command-line front end: scenario files, tuning, simulation, verification.

Scenarios are JSON documents (schema version 1) naming the communication
graph, the hop horizon, the plant, the declared bounds, gain options, and
the simulation parameters. Subcommands:

* ``tune``            design gains and write the gain/certificate report
* ``simulate``        run the closed loop, write telemetry CSV + report
* ``verify``          recompute every criterion offline from a telemetry CSV
* ``sweep``           run a parameter grid (dt / theta & pi scales / k)
* ``reproduce-paper`` the bundled 4-agent path-graph consensus scenario

Exit codes: 0 success, 1 usage or input error, 2 certificates infeasible or
criteria failed, 3 divergence during simulation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import plant_sim
from .errors import (
    CertificateInfeasible,
    DivergenceDetected,
    KhopsimError,
    ProtocolError,
)
from .gain_tuning import (
    DEFAULT_SLACK,
    BoundSet,
    GainSet,
    PlantModel,
    certificate,
    tune_gains,
)
from .graph_khop import Graph, check_neighbor_overlap
from .plant_sim import Controller, SimConfig, Telemetry, lambda2, telemetry_columns

SCHEMA_VERSION = 1
ISS_TOL = 1e-6
DEFAULT_CONSENSUS_TOL = 1e-2

# Bundled reproduction scenario: 4 agents on a communication path, hop
# horizon 3, single-integrator plant in the plane, consensus over the target
# graph that adds the {1,4} edge (which only the observers can bridge).
# The declared bounds d_tilde_u = 0.5 and d_udot = 1.0 recover the reference
# design g = 20, omega = {2.62, 1.0}, theta = {3.4, 0.5}, pi = {9.7, 1.0};
# the initial conditions are this package's documented choice.
REPRODUCTION_SCENARIO = {
    "schema_version": SCHEMA_VERSION,
    "name": "reference-reproduction",
    "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
    "target_graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
    "k": 3,
    "plant": {"N": 2, "A": 0.0, "f": "zero"},
    "bounds": {"d_tilde_u": 0.5, "d_udot": 1.0, "inferred": True},
    "gains": {"g": 20.0, "slack": 1e-3, "omega_slack": 0.0},
    "controller": {"kind": "khop_consensus"},
    "sim": {
        "dt": 1e-3,
        "t_end": 20.0,
        "x0": [[0.25, -0.10], [-0.15, 0.20], [0.10, -0.25], [-0.20, 0.15]],
        "xhat0": "zero",
        "uhat0": "zero",
        "state_box": [-1.0, 1.0],
        "conv_eps": 0.04,
        "band_scale": 5.0,
        "decimate": 1,
        "consensus_tol": DEFAULT_CONSENSUS_TOL,
    },
    "outputs": {"csv": "telemetry.csv", "report": "report.json"},
}


class ScenarioError(KhopsimError):
    """Scenario file does not parse or fails schema validation."""


def _f_user_table(params: dict):
    xs = np.asarray(params["x"], dtype=float)
    ys = np.asarray(params["y"], dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ScenarioError("user-table f needs matching 1-D x/y arrays")
    if np.any(np.diff(xs) <= 0):
        raise ScenarioError("user-table x values must be strictly increasing")
    slopes = np.abs(np.diff(ys) / np.diff(xs))
    return (lambda v: np.interp(v, xs, ys)), float(slopes.max())


def resolve_f(spec) -> tuple:
    """Map a scenario f selector to (callable-or-None, Lipschitz constant)."""
    if spec is None or spec == "zero":
        return None, 0.0
    if spec == "scalar-saturation":
        return (lambda v: np.clip(v, -1.0, 1.0)), 1.0
    if isinstance(spec, dict) and spec.get("kind") == "user-table":
        return _f_user_table(spec)
    raise ScenarioError(f"unknown f selector {spec!r}")


def scenario_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _parse_graph(spec, base_dir: Path, n_hint: Optional[int] = None) -> Graph:
    if isinstance(spec, dict) and "file" in spec:
        return Graph.from_file(base_dir / spec["file"])
    if isinstance(spec, dict) and "edges" in spec:
        n = spec.get("n", n_hint)
        if n is None:
            raise ScenarioError("graph needs 'n' or a file")
        return Graph(int(n), frozenset(tuple(e) for e in spec["edges"]))
    raise ScenarioError("graph must give 'edges' (with 'n') or a 'file'")


@dataclass
class Scenario:
    """Validated scenario: raw document plus resolved domain objects."""

    raw: dict
    name: str
    graph: Graph
    target_graph: Optional[Graph]
    k: int
    plant: PlantModel
    bounds: BoundSet
    bounds_inferred: bool
    g_scale: Optional[float]
    slack: float
    omega_slack: float
    theta_scale: float
    pi_scale: float
    overrides: dict
    controller_kind: str
    dt: float
    t_end: float
    conv_eps: Optional[float]
    band_scale: float
    decimate: int
    state_box: Optional[tuple]
    consensus_tol: float
    boundary_layer: Optional[float]
    x0: np.ndarray
    xhat0_spec: object
    uhat0_spec: object
    outputs: dict

    @property
    def hash(self) -> str:
        return scenario_hash(self.raw)


def load_scenario(source, base_dir: Optional[Path] = None, seed_override=None) -> Scenario:
    """Parse and validate a scenario from a path or an in-memory dict."""
    if isinstance(source, dict):
        raw = json.loads(json.dumps(source))  # defensive copy, JSON-clean
        base = base_dir or Path(".")
    else:
        path = Path(source)
        base = base_dir or path.parent
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        return _build_scenario(raw, base, seed_override)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def _number(name: str, value, kind=float):
    """``kind(value)``, or a :class:`ScenarioError` that names the field."""
    try:
        return kind(value)
    except (OverflowError, TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ScenarioError(f"{name} must be {what}, got {value!r}") from exc


def _build_scenario(raw: dict, base: Path, seed_override) -> Scenario:
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {raw.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    graph = _parse_graph(raw["graph"], base)
    n = graph.n
    tg_spec = raw.get("target_graph")
    target_graph = _parse_graph(tg_spec, base, n_hint=n) if tg_spec else None
    k = _number("k", raw["k"], int)

    pl = raw["plant"]
    n_dim = _number("plant.N", pl["N"], int)
    if n_dim < 1:
        raise ScenarioError(f"plant.N must be >= 1, got {n_dim}")
    a_spec = pl.get("A", 0.0)
    a_mat = (
        float(a_spec) * np.eye(n_dim)
        if np.isscalar(a_spec)
        else np.asarray(a_spec, dtype=float)
    )
    f_callable, l_f = resolve_f(pl.get("f"))
    if "l_f" in pl:
        l_f = float(pl["l_f"])
    plant = PlantModel(N=n_dim, A=a_mat, f=f_callable, l_f=l_f)

    bd = raw.get("bounds", {})
    bounds = BoundSet(
        n=n,
        d_u=bd.get("d_u"),
        d_udot=bd.get("d_udot"),
        d_tilde_u=bd.get("d_tilde_u"),
    )

    gn = raw.get("gains", {})
    overrides = {}
    for key in ("omega", "theta", "pi"):
        val = gn.get("overrides", {}).get(key) if gn.get("overrides") else None
        if val is not None:
            val = np.asarray(val, dtype=float)
            if val.shape not in ((), (n,)):
                raise ScenarioError(f"gains.overrides.{key} needs {n} entries, got {val.shape}")
        overrides[key] = val

    sim = raw["sim"]
    for field_name, words in (("xhat0", ("zero", "truth")), ("uhat0", ("zero",))):
        spec_val = sim.get(field_name, "zero")
        if isinstance(spec_val, str) and spec_val not in words:
            raise ScenarioError(
                f"{field_name} must be {' or '.join(map(repr, words))}, a number, "
                "or explicit lists"
            )
    seed = seed_override if seed_override is not None else sim.get("seed")
    x0_spec = sim["x0"]
    if isinstance(x0_spec, dict):
        rng = np.random.default_rng(seed if seed is not None else 0)
        x0 = rng.uniform(x0_spec["low"], x0_spec["high"], size=(n, n_dim))
    else:
        x0 = np.asarray(x0_spec, dtype=float)

    consensus_tol = _number("sim.consensus_tol", sim.get("consensus_tol", DEFAULT_CONSENSUS_TOL))
    if not (np.isfinite(consensus_tol) and consensus_tol > 0):
        raise ScenarioError(
            f"sim.consensus_tol must be positive and finite, got {consensus_tol!r}"
        )
    box = sim.get("state_box")
    ctrl = raw.get("controller", {"kind": "zero"})

    return Scenario(
        raw=raw,
        name=raw.get("name", "unnamed"),
        graph=graph,
        target_graph=target_graph,
        k=k,
        plant=plant,
        bounds=bounds,
        bounds_inferred=bool(bd.get("inferred", False)),
        g_scale=gn.get("g"),
        slack=float(gn.get("slack", DEFAULT_SLACK)),
        omega_slack=float(gn.get("omega_slack", 0.0)),
        theta_scale=float(gn.get("theta_scale", 1.0)),
        pi_scale=float(gn.get("pi_scale", 1.0)),
        overrides=overrides,
        controller_kind=ctrl.get("kind", "zero"),
        dt=float(sim["dt"]),
        t_end=float(sim["t_end"]),
        conv_eps=sim.get("conv_eps"),
        band_scale=_number("sim.band_scale", sim.get("band_scale", plant_sim.DEFAULT_BAND_SCALE)),
        decimate=_number("sim.decimate", sim.get("decimate", 1), int),
        state_box=tuple(box) if box is not None else None,
        consensus_tol=consensus_tol,
        boundary_layer=sim.get("boundary_layer"),
        x0=x0,
        xhat0_spec=sim.get("xhat0", "zero"),
        uhat0_spec=sim.get("uhat0", "zero"),
        outputs=raw.get("outputs", {}),
    )


def _resolve_estimate_init(spec, nbs, x0: np.ndarray, n_dim: int):
    """Initial estimate vectors per agent from a scenario selector."""
    if spec == "zero" or spec is None:
        return None
    if spec == "truth":
        return [
            np.array([x0[m - 1] for m in nb.members], dtype=float).reshape(-1)
            for nb in nbs
        ]
    if np.isscalar(spec):
        return [np.full(nb.eta * n_dim, float(spec)) for nb in nbs]
    return spec  # explicit per-agent blocks; SimConfig checks and stacks them


@dataclass
class TunedScenario:
    scenario: Scenario
    gains: GainSet
    couplings: list
    config: SimConfig
    cert: object          # ConvergenceCertificate or None
    infeasible: Optional[dict]
    x_err0: np.ndarray
    u_err0: np.ndarray

    @property
    def nbs(self) -> list:
        return self.config.structure.nbs


def prepare(sc: Scenario, slack_override=None, decimate_override=None,
            boundary_layer=None) -> TunedScenario:
    """Tune gains, apply scenario scales/overrides, and build the sim config.

    Every scenario value the domain objects reject (with ``ValueError`` or
    ``TypeError``) surfaces here as one :class:`ScenarioError`, and so does
    a non-finite slack or gain scale, which would otherwise yield gains
    that no run can use but a certificate that looks valid.
    """
    slack = slack_override if slack_override is not None else sc.slack
    for name, value in (
        ("--slack" if slack_override is not None else "gains.slack", slack),
        ("gains.omega_slack", sc.omega_slack),
        ("gains.theta_scale", sc.theta_scale),
        ("gains.pi_scale", sc.pi_scale),
    ):
        if not np.isfinite(value):
            raise ScenarioError(f"{name} must be finite, got {value}")
    try:
        uhat0_mag = 0.0
        if np.isscalar(sc.uhat0_spec) and sc.uhat0_spec != "zero":
            uhat0_mag = abs(float(sc.uhat0_spec))
        elif isinstance(sc.uhat0_spec, list):
            uhat0_mag = max(
                (float(np.abs(np.asarray(b, dtype=float)).max()) for b in sc.uhat0_spec if len(b)),
                default=0.0,
            )
        gains, nbs, couplings = tune_gains(
            sc.graph,
            sc.k,
            sc.plant,
            sc.bounds,
            g_scale=sc.g_scale,
            slack=slack,
            omega_slack=sc.omega_slack,
            uhat0_mag=uhat0_mag,
        )
        omega = gains.omega.copy()
        theta = gains.theta * sc.theta_scale
        pi = gains.pi * sc.pi_scale
        for key, arr in (("omega", omega), ("theta", theta), ("pi", pi)):
            ov = sc.overrides.get(key)
            if ov is not None:
                mask = np.isfinite(ov)
                arr[mask] = ov[mask]
        gains = GainSet(G=gains.G, omega=omega, theta=theta, pi=pi)
        controller = Controller(
            kind=sc.controller_kind,
            target_graph=sc.target_graph if sc.controller_kind == "khop_consensus" else None,
        )
        config = SimConfig(
            graph=sc.graph,
            k=sc.k,
            plant=sc.plant,
            gains=gains,
            controller=controller,
            dt=sc.dt,
            t_end=sc.t_end,
            x0=sc.x0,
            xhat0=_resolve_estimate_init(sc.xhat0_spec, nbs, sc.x0, sc.plant.N),
            uhat0=_resolve_estimate_init(sc.uhat0_spec, nbs, sc.x0, sc.plant.N),
            state_box=sc.state_box,
            conv_eps=sc.conv_eps,
            band_scale=sc.band_scale,
            decimate=decimate_override if decimate_override is not None else sc.decimate,
            boundary_layer=boundary_layer if boundary_layer is not None else sc.boundary_layer,
            nbs=nbs,
        )
        x_err0, u_err0 = plant_sim.initial_error_norms(config)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    cert = None
    infeasible = None
    try:
        cert = certificate(
            couplings, gains.G, gains, sc.bounds, x_err0, u_err0, uhat0_mag=uhat0_mag
        )
    except CertificateInfeasible as exc:
        infeasible = {
            "agent": exc.agent,
            "quantity": exc.quantity,
            "value": exc.value,
            "inequality": (
                "theta lower bound (phi must be positive)"
                if exc.quantity == "phi"
                else "pi lower bound (psi must be positive)"
            ),
        }
    return TunedScenario(
        scenario=sc,
        gains=gains,
        couplings=couplings,
        config=config,
        cert=cert,
        infeasible=infeasible,
        x_err0=x_err0,
        u_err0=u_err0,
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if np.isfinite(val) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def gain_report(ts: TunedScenario) -> dict:
    """Per-agent spectral data, gains, and certificates, JSON-ready."""
    sc = ts.scenario
    per_agent = []
    for idx, cpl in enumerate(ts.couplings):
        agent = idx + 1
        entry = {
            "agent": agent,
            "eta": ts.nbs[idx].eta,
            "lambda_min": cpl.lambda_min if cpl else None,
            "lambda_max": cpl.lambda_max if cpl else None,
            "omega": ts.gains.omega[idx],
            "theta": ts.gains.theta[idx],
            "pi": ts.gains.pi[idx],
            "phi": ts.cert.phi[idx] if ts.cert else None,
            "psi": (
                ts.cert.psi[idx] if ts.cert and ts.cert.psi is not None else None
            ),
            "T_x_bound": ts.cert.T_x[idx] if ts.cert else None,
            "T_u_bound": (
                ts.cert.T_u[idx] if ts.cert and ts.cert.T_u is not None else None
            ),
            "x_err0": ts.x_err0[idx],
            "u_err0": ts.u_err0[idx],
        }
        per_agent.append(entry)
    overlap = check_neighbor_overlap(sc.graph, ts.nbs)
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {"name": sc.name, "hash": sc.hash},
        "g": float(ts.gains.G[0, 0]),
        "per_agent": per_agent,
        "T_x": ts.cert.T_x_global if ts.cert else None,
        "T_u": ts.cert.T_u_global if ts.cert else None,
        "T_xu": ts.cert.T_xu if ts.cert else None,
        "certified": ts.cert is not None,
        "infeasible": ts.infeasible,
        "bounds_inferred": sc.bounds_inferred,
        "neighbor_overlap_holds": all(r.holds for r in overlap),
        "couplings_positive_definite": all(
            c is None or c.lambda_min > 0 for c in ts.couplings
        ),
        "no_observers_needed": all(nb.eta == 0 for nb in ts.nbs),
    }
    return _jsonable(report)


def _criterion(name, status, **details):
    entry = {"name": name, "status": status}
    entry.update(details)
    return entry


def evaluate_criteria(ts: TunedScenario, tel: Telemetry) -> list:
    """Recompute every verification criterion from one telemetry record.

    ``tel`` carries the detection results (eps, band, ``T_x_obs``,
    ``T_u_obs``) that :mod:`plant_sim` decided; see
    :func:`plant_sim.telemetry_from_columns`. Each criterion carries the
    tolerance it was checked at.
    """
    sc = ts.scenario
    n = sc.graph.n
    times, errx, consdist = tel.times, tel.errx, tel.cons_dist
    active = tel.eta > 0
    band_x = tel.band_x
    t_x_obs, t_u_obs = tel.T_x_obs, tel.T_u_obs
    criteria = []

    # Gains certified at all.
    criteria.append(
        _criterion(
            "certified_gains",
            "pass" if ts.cert else "not_certified",
            details=ts.infeasible,
        )
    )

    # Observed convergence times against the certified bounds.
    for label, obs, bound_arr in (
        ("state_time_within_certificate", t_x_obs, ts.cert.T_x if ts.cert else None),
        (
            "input_time_within_certificate",
            t_u_obs,
            ts.cert.T_u if ts.cert and ts.cert.T_u is not None else None,
        ),
    ):
        if bound_arr is None:
            criteria.append(_criterion(label, "not_certified"))
            continue
        worst = None
        ok = True
        for i in range(n):
            if not active[i]:
                continue
            if not np.isfinite(obs[i]):
                ok = False
                worst = {"agent": i + 1, "observed": None, "bound": bound_arr[i]}
                break
            margin = bound_arr[i] - obs[i]
            if worst is None or margin < worst["margin"]:
                worst = {
                    "agent": i + 1,
                    "observed": obs[i],
                    "bound": bound_arr[i],
                    "margin": margin,
                }
            if obs[i] > bound_arr[i]:
                ok = False
        criteria.append(_criterion(label, "pass" if ok else "fail", worst=worst))

    # Permanence in the sliding band (state side).
    entered = all(np.isfinite(t_x_obs[i]) for i in range(n) if active[i])
    criteria.append(
        _criterion(
            "state_band_permanence",
            "pass" if entered else "fail",
            band=band_x,
            conv_eps=tel.eps_x,
            T_x_obs=t_x_obs,
        )
    )

    # After all input observers converge, state errors never rise above
    # their value at that time plus the band, and the overall error maximum
    # is finite.
    t_u_vals = t_u_obs[active] if active.any() else np.array([])
    if t_u_vals.size and np.all(np.isfinite(t_u_vals)):
        t_u_global = float(t_u_vals.max())
        ref_idx = int(np.searchsorted(times, t_u_global))
        after = times >= t_u_global
        worst_rise = float(
            np.max(errx[after] - (errx[ref_idx] + band_x)[None, :], initial=-np.inf)
        )
        bounded_ok = worst_rise <= 0.0
        criteria.append(
            _criterion(
                "error_bounded_after_input_convergence",
                "pass" if bounded_ok else "fail",
                T_u_obs_global=t_u_global,
                worst_rise=worst_rise,
                X_obs=tel.X_obs,
            )
        )
    else:
        criteria.append(
            _criterion(
                "error_bounded_after_input_convergence",
                "fail",
                detail="input observers never converged",
                X_obs=tel.X_obs,
            )
        )

    # Stability envelope: decaying initial term plus disturbance gain.
    if sc.target_graph is not None and sc.controller_kind == "khop_consensus":
        lam2 = lambda2(sc.target_graph)
        v_norm = np.linalg.norm(tel.v.reshape(len(times), -1), axis=1)
        run_sup = np.maximum.accumulate(v_norm)
        envelope = (
            np.exp(-lam2 * times) * consdist[0] + run_sup / lam2
        )
        iss_band = ISS_TOL + 1e-9 * max(1.0, consdist[0])
        worst = float(np.max(consdist - envelope))
        criteria.append(
            _criterion(
                "iss_envelope",
                "pass" if worst <= iss_band else "fail",
                lambda2=lam2,
                worst_violation=worst,
                tolerance=iss_band,
            )
        )
        final = float(consdist[-1])
        criteria.append(
            _criterion(
                "consensus_reached",
                "pass" if final < sc.consensus_tol else "fail",
                final_distance=final,
                tolerance=sc.consensus_tol,
            )
        )
    else:
        criteria.append(_criterion("iss_envelope", "skipped"))
        criteria.append(_criterion("consensus_reached", "skipped"))

    # Internal consistency of the CSV itself.
    recomputed = plant_sim.consensus_distance(tel.states)
    cons_err = float(np.max(np.abs(recomputed - consdist)))
    criteria.append(
        _criterion(
            "csv_consistency",
            "pass" if cons_err < 1e-9 else "fail",
            max_abs_difference=cons_err,
            tolerance=1e-9,
        )
    )
    return criteria


def bound_audit(ts: TunedScenario, tel: Telemetry) -> dict:
    """Observed maxima versus the declared bounds. Informational only: the
    closed-loop input derivative carries the observers' switching terms, so
    a back-inferred derivative bound is routinely exceeded without voiding
    the (sufficient) certificates."""
    sc = ts.scenario
    times = tel.times
    per_agent = []
    for i in range(1, sc.graph.n + 1):
        u = tel.inputs[:, i - 1]
        u_norm = np.linalg.norm(u, axis=1)
        du = np.diff(u, axis=0) / np.diff(times)[:, None]
        du_norm = np.linalg.norm(du, axis=1) if len(times) > 1 else np.zeros(0)
        erru = tel.erru[:, i - 1]
        entry = {
            "agent": i,
            "max_u_norm": float(u_norm.max()),
            "d_u": None if sc.bounds.d_u is None else float(sc.bounds.d_u[i - 1]),
            "max_tilde_u_norm": float(erru.max()),
            "d_tilde_u": (
                None
                if sc.bounds.d_tilde_u is None
                else float(sc.bounds.d_tilde_u[i - 1])
            ),
            "max_udot_norm": float(du_norm.max()) if du_norm.size else 0.0,
            "d_udot": (
                None if sc.bounds.d_udot is None else float(sc.bounds.d_udot[i - 1])
            ),
        }
        for key, bound in (
            ("max_u_norm", "d_u"),
            ("max_tilde_u_norm", "d_tilde_u"),
            ("max_udot_norm", "d_udot"),
        ):
            entry[f"within_{bound}"] = (
                None if entry[bound] is None else bool(entry[key] <= entry[bound])
            )
        per_agent.append(entry)
    return {"informational": True, "per_agent": per_agent}


def verification_report(ts: TunedScenario, cols: dict) -> dict:
    """Gain report plus criteria and bound audit judged from telemetry
    columns, as :func:`plant_sim.read_csv` or :func:`telemetry_columns`
    give them."""
    tel = plant_sim.telemetry_from_columns(ts.config, cols)
    criteria = evaluate_criteria(ts, tel)
    report = gain_report(ts)
    report["criteria"] = _jsonable(criteria)
    report["bound_audit"] = _jsonable(bound_audit(ts, tel))
    report["all_pass"] = all(
        c["status"] in ("pass", "skipped") for c in criteria
    )
    return report


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_csv(path: Path, tel: Telemetry) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    plant_sim.write_csv(tel, path)


def _print_criteria(criteria) -> None:
    for c in criteria:
        print(f"[{c['status'].upper():>13}] {c['name']}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_tune(args) -> int:
    sc = load_scenario(args.scenario, seed_override=args.seed)
    ts = prepare(sc, slack_override=args.slack)
    report = gain_report(ts)
    out_dir = Path(args.out)
    _write_json(out_dir / "gains.json", report)
    if ts.infeasible:
        print(
            f"infeasible: agent {ts.infeasible['agent']} violates "
            f"{ts.infeasible['inequality']}",
            file=sys.stderr,
        )
        return 2
    if report["no_observers_needed"]:
        print("no observers needed: every agent sees the network within 1 hop")
    print(f"gains written to {out_dir / 'gains.json'}")
    return 0


def _simulate(ts: TunedScenario, out_dir: Path):
    """Run, write the CSV and the report. A diverged run keeps the samples
    it logged as the CSV and re-raises."""
    sc = ts.scenario
    csv_path = out_dir / sc.outputs.get("csv", "telemetry.csv")
    try:
        tel = plant_sim.run(ts.config)
    except DivergenceDetected as exc:
        _write_csv(csv_path, exc.partial_telemetry)
        print(f"partial telemetry retained: {csv_path}", file=sys.stderr)
        raise
    _write_csv(csv_path, tel)
    report = verification_report(ts, telemetry_columns(tel))
    report_path = out_dir / sc.outputs.get("report", "report.json")
    _write_json(report_path, report)
    return report, csv_path, report_path


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario, seed_override=args.seed)
    ts = prepare(
        sc,
        slack_override=args.slack,
        decimate_override=args.decimate,
        boundary_layer=_parse_boundary_layer(args.boundary_layer),
    )
    out_dir = Path(args.out)
    has_overrides = any(v is not None for v in sc.overrides.values()) or (
        sc.theta_scale != 1.0 or sc.pi_scale != 1.0
    )
    if ts.infeasible and not has_overrides:
        print(
            f"infeasible gains and no explicit overrides: "
            f"{ts.infeasible['inequality']} (agent {ts.infeasible['agent']})",
            file=sys.stderr,
        )
        return 2
    report, csv_path, report_path = _simulate(ts, out_dir)
    _print_criteria(report["criteria"])
    print(f"telemetry: {csv_path}")
    print(f"report:    {report_path}")
    return 0 if report["all_pass"] else 2


def cmd_verify(args) -> int:
    sc = load_scenario(args.scenario, seed_override=args.seed)
    ts = prepare(sc, slack_override=args.slack)
    try:
        cols = plant_sim.read_csv(args.telemetry)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry: {exc}", file=sys.stderr)
        return 1
    expected = set(plant_sim.csv_header(sc.graph.n, sc.plant.N))
    if set(cols.keys()) != expected:
        print("telemetry schema does not match the scenario", file=sys.stderr)
        return 1
    report = verification_report(ts, cols)
    out_dir = Path(args.out)
    _write_json(out_dir / "verify.json", report)
    _print_criteria(report["criteria"])
    return 0 if report["all_pass"] else 2


_SWEEP_KEYS = ("dt", "theta_scale", "pi_scale", "k")


def _sweep_cell(raw_scenario: dict, cell: dict) -> dict:
    """Run one sweep cell; always returns a row, never raises.

    A cell whose parameters are invalid (a bad ``k`` or ``dt``) gets status
    ``error`` with the reason, and the rest of the grid still runs.
    """
    raw = json.loads(json.dumps(raw_scenario))
    if "dt" in cell:
        raw["sim"]["dt"] = cell["dt"]
    if "k" in cell:
        raw["k"] = cell["k"]
    gains = raw.setdefault("gains", {})
    if "theta_scale" in cell:
        gains["theta_scale"] = cell["theta_scale"]
    if "pi_scale" in cell:
        gains["pi_scale"] = cell["pi_scale"]
    row = dict(cell)
    try:
        sc = load_scenario(raw)
        ts = prepare(sc)
        tel = plant_sim.run(ts.config)
        report = verification_report(ts, telemetry_columns(tel))
        t_x = tel.T_x_obs[np.isfinite(tel.T_x_obs)]
        t_u = tel.T_u_obs[np.isfinite(tel.T_u_obs)]
        row.update(
            status="pass" if report["all_pass"] else "fail",
            T_x_obs_max=float(t_x.max()) if t_x.size else None,
            T_u_obs_max=float(t_u.max()) if t_u.size else None,
            X_obs=tel.X_obs,
            consensus_final=float(tel.cons_dist[-1]),
            error=None,
        )
    except (KhopsimError, ValueError) as exc:
        row.update(
            status="error",
            T_x_obs_max=None,
            T_u_obs_max=None,
            X_obs=None,
            consensus_final=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    return row


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    sc_path = Path(args.scenario)
    try:
        raw = json.loads(sc_path.read_text(encoding="utf-8"))
        grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return 1
    if not isinstance(grid, dict):
        print(f"grid must be a JSON object of value lists, got {grid!r}", file=sys.stderr)
        return 1
    unknown = set(grid) - set(_SWEEP_KEYS)
    if unknown:
        print(f"unsupported sweep keys: {sorted(unknown)}", file=sys.stderr)
        return 1
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            print(f"grid {key!r} must be a non-empty list, got {values!r}", file=sys.stderr)
            return 1
    keys = [k for k in _SWEEP_KEYS if k in grid]
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    # Under fork the pool starts every worker up front, so start no more
    # than there are cells.
    workers = min(args.jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, itertools.repeat(raw), cells))
    else:
        rows = [_sweep_cell(raw, cell) for cell in cells]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "sweep_summary.csv"
    fields = keys + ["status", "T_x_obs_max", "T_u_obs_max", "X_obs", "consensus_final", "error"]
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        # csv quotes fields with commas, such as error messages.
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(["" if row.get(f) is None else str(row.get(f)) for f in fields])
    for row in rows:
        cell_desc = " ".join(f"{k}={row[k]}" for k in keys)
        print(f"[{row['status']:>5}] {cell_desc}" + (f" ({row['error']})" if row["error"] else ""))
    print(f"summary: {summary}")
    return 0


def cmd_reproduce_paper(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario_path = out_dir / "scenario.json"
    _write_json(scenario_path, REPRODUCTION_SCENARIO)
    sc = load_scenario(REPRODUCTION_SCENARIO, base_dir=out_dir)
    ts = prepare(sc, slack_override=args.slack, decimate_override=args.decimate)
    _write_json(out_dir / "gains.json", gain_report(ts))
    if ts.infeasible:
        print(f"infeasible gains: {ts.infeasible['inequality']}", file=sys.stderr)
        return 2
    report, csv_path, report_path = _simulate(ts, out_dir)
    _print_criteria(report["criteria"])
    print(f"scenario:  {scenario_path}")
    print(f"telemetry: {csv_path}")
    print(f"report:    {report_path}")
    return 0 if report["all_pass"] else 2


def _parse_boundary_layer(value):
    if value is None or value == "off":
        return None
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(
            f"--boundary-layer must be a number or 'off', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khopsim",
        description="Multi-hop distributed observer design, simulation, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True, seed=True, slack=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default="out", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        if slack:
            p.add_argument("--slack", type=float, default=None, help="override gain slack")

    p_tune = sub.add_parser("tune", help="design gains and write the gain report")
    common(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    p_sim = sub.add_parser("simulate", help="run the closed loop and verify")
    common(p_sim)
    p_sim.add_argument("--decimate", type=int, default=None, help="log every n-th step")
    p_sim.add_argument(
        "--boundary-layer",
        default=None,
        help="sign smoothing width delta, or 'off' (default off)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="recompute criteria from telemetry CSV")
    common(p_ver)
    p_ver.add_argument("--telemetry", required=True, help="telemetry CSV path")
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    common(p_sweep, seed=False, slack=False)
    p_sweep.add_argument("--grid", required=True, help="grid JSON path")
    p_sweep.add_argument("--jobs", type=int, default=4, help="parallel workers")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser(
        "reproduce-paper", help="run the bundled 4-agent reproduction scenario"
    )
    common(p_rep, scenario=False, seed=False)
    p_rep.add_argument("--decimate", type=int, default=None)
    p_rep.set_defaults(func=cmd_reproduce_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means a failed run here.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except CertificateInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except DivergenceDetected as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 1
    except KhopsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
