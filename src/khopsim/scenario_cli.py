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
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
    TelemetryError,
)
from .gain_tuning import (
    DEFAULT_SLACK,
    BoundSet,
    GainSet,
    PlantModel,
    certificate,
    tune_gains,
)
from .graph_khop import Graph, Neighborhoods
# telemetry_columns is re-exported: perfbench and the tests read it from here.
from .plant_sim import SimConfig, Telemetry, lambda2, telemetry_columns

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


# The scenario schema, one row per field: (path, kind, constraint, default).
# An absent or null field takes its default; a REQUIRED one must be given.
# :func:`_read` is the only code that converts and checks a scenario value.
# A rule a domain object enforces (Graph, PlantModel, BoundSet, design_g,
# khop_set, tune_theta/tune_pi, resolve_f) stays there, and its row checks
# the type only. SimConfig checks t_end against dt, and x0 and the
# estimates against the graph; prepare checks the override lengths and the
# controller kind against the target graph.
REQUIRED = "required"
SCHEMA = (
    ("schema_version", "integer", "1", REQUIRED),
    ("name", "string", None, "unnamed"),
    ("graph", "object", None, REQUIRED),
    ("graph.file", "string", None, None),
    ("graph.n", "integer", None, None),
    ("graph.edges", "edges", None, None),
    ("target_graph", "object", None, None),
    ("target_graph.file", "string", None, None),
    ("target_graph.n", "integer", None, None),
    ("target_graph.edges", "edges", None, None),
    ("k", "integer", None, REQUIRED),
    ("plant", "object", None, REQUIRED),
    ("plant.N", "integer", ">= 1", REQUIRED),
    ("plant.A", "numbers", None, 0.0),
    ("plant.f", "selector", None, "zero"),
    ("plant.l_f", "number", None, None),
    ("bounds", "object", None, None),
    ("bounds.d_u", "numbers", None, None),
    ("bounds.d_udot", "numbers", None, None),
    ("bounds.d_tilde_u", "numbers", None, None),
    ("bounds.inferred", "boolean", None, False),
    ("gains", "object", None, None),
    ("gains.g", "number", None, None),
    ("gains.slack", "number", "finite", DEFAULT_SLACK),
    ("gains.omega_slack", "number", "non-negative and finite", 0.0),
    ("gains.theta_scale", "number", "non-negative and finite", 1.0),
    ("gains.pi_scale", "number", "non-negative and finite", 1.0),
    ("gains.overrides", "object", None, None),
    ("gains.overrides.omega", "numbers", None, None),
    ("gains.overrides.theta", "numbers", None, None),
    ("gains.overrides.pi", "numbers", None, None),
    ("controller", "object", None, None),
    ("controller.kind", "string", None, "zero"),
    ("sim", "object", None, REQUIRED),
    ("sim.dt", "number", "positive and finite", REQUIRED),
    ("sim.t_end", "number", None, REQUIRED),
    ("sim.x0", "initial states", None, REQUIRED),
    ("sim.seed", "integer", "non-negative", None),
    ("sim.xhat0", "state estimate", None, "zero"),
    ("sim.uhat0", "input estimate", None, "zero"),
    ("sim.state_box", "pair", "finite", None),
    ("sim.conv_eps", "number", "positive and finite", None),
    ("sim.band_scale", "number", "positive and finite", plant_sim.DEFAULT_BAND_SCALE),
    ("sim.decimate", "integer", ">= 1", 1),
    ("sim.consensus_tol", "number", "positive and finite", DEFAULT_CONSENSUS_TOL),
    ("sim.boundary_layer", "number", "positive and finite", None),
    ("outputs", "object", None, None),
    ("outputs.csv", "string", None, "telemetry.csv"),
    ("outputs.report", "string", None, "report.json"),
)
# Command-line flags that override a field; the field's row checks them.
FLAG_FIELDS = {"--seed": "sim.seed", "--slack": "gains.slack",
               "--decimate": "sim.decimate", "--boundary-layer": "sim.boundary_layer"}
OFF = object()  # a flag value that sets its field to the default (``--boundary-layer off``)


def _integer(value) -> int:
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise TypeError


def _real(value) -> float:
    if type(value) in (int, float):
        return float(value)
    raise TypeError


def _interval(value) -> tuple:
    """``{low, high}`` as two reals whose uniform draw cannot overflow."""
    low, high = _real(value["low"]), _real(value["high"])
    if not np.isfinite(high - low):
        raise ValueError
    return low, high


def _numbers(value) -> np.ndarray:
    """A number or a list of (lists of) numbers, as a float array."""
    def numeric(v):
        return type(v) in (int, float) or type(v) is list and all(map(numeric, v))
    if not numeric(value):
        raise TypeError
    return np.array(value, dtype=float)  # a ragged list raises ValueError


def _pairs(value, convert) -> list:
    if type(value) is not list or any(type(e) is not list or len(e) != 2 for e in value):
        raise TypeError
    return [(convert(a), convert(b)) for a, b in value]


def _selector(value):
    """An f registry name, or a user table ``{"kind", "x", "y"}``."""
    if type(value) is str:
        return value
    return {"kind": value["kind"], "x": _numbers(value["x"]), "y": _numbers(value["y"])}


def _of_type(*types):
    def check(value):
        if type(value) not in types:
            raise TypeError
        return value
    return check


def _estimate(*words):
    def convert(value):
        if type(value) is list:
            return [_numbers(block) for block in value]
        return value if type(value) is str and value in words else _real(value)
    return convert


# kind -> (what an error says a value must be, converter). A converter
# returns the value as the program uses it, or raises TypeError/ValueError.
_KINDS = {
    "integer": ("an integer", _integer),
    "number": ("a number", _real),
    "boolean": ("true or false", _of_type(bool)),
    "string": ("a string", _of_type(str)),
    "object": ("an object", _of_type(dict)),
    "selector": ("a name or {kind, x, y}", _selector),
    "numbers": ("a number or a list of numbers", _numbers),
    "pair": ("a list of two numbers", lambda v: _pairs([v], _real)[0]),
    "edges": ("a list of [i, j] integer pairs", lambda v: frozenset(_pairs(v, _integer))),
    "initial states": ("per-agent rows or {low, high}", lambda v: (
        _interval(v) if type(v) is dict else _numbers(v))),
    "state estimate": ("'zero', 'truth', a number or per-agent lists", _estimate("zero", "truth")),
    "input estimate": ("'zero', a number or per-agent lists", _estimate("zero")),
}
_CONSTRAINTS = {
    "1": lambda v: v == 1,
    ">= 1": lambda v: v >= 1,
    "non-negative": lambda v: v >= 0,
    "finite": lambda v: bool(np.isfinite(v).all()),
    "positive and finite": lambda v: 0 < v < np.inf,
    "non-negative and finite": lambda v: 0 <= v < np.inf,
}
# The rows with each path split and each kind and constraint looked up once.
_ROWS = tuple((path, *path.rpartition(".")[::2], *_KINDS[kind], rule,
               _CONSTRAINTS.get(rule), default) for path, kind, rule, default in SCHEMA)
# The field names each object, and the document (""), may hold.
_FIELDS = {section: {key for _, s, key, *_ in _ROWS if s == section} for _, section, *_ in _ROWS}


def _read(raw: dict, overrides: dict) -> dict:
    """Every field of :data:`SCHEMA`, converted and checked, by path.

    ``overrides`` maps a path to ``(name, value)``; the value replaces the
    document's. A bad value raises one :class:`ScenarioError` that names
    the field, or ``name`` for an override; so does a key that is not a
    field of its object.
    """
    values = {"": raw}
    for path, section, key, what, convert, constraint, holds, default in _ROWS:
        parent = values[section]
        name, value = overrides.get(path) or (path, None if parent is None else parent.get(key))
        if value is None:
            if default is REQUIRED:
                raise ScenarioError(f"{name} is required")
            values[path] = default
            continue
        try:
            value = convert(value)
        except (KeyError, OverflowError, TypeError, ValueError):
            raise ScenarioError(f"{name} must be {what}, got {value!r}") from None
        if holds is not None and not holds(value):
            raise ScenarioError(f"{name} must be {constraint}, got {value!r}")
        values[path] = value
    for section, fields in _FIELDS.items():
        for key in values[section] or ():
            if key not in fields:
                raise ScenarioError(f"unknown field {f'{section}.' if section else ''}{key}")
    return values


def resolve_f(spec) -> tuple:
    """Map a scenario f selector to (callable-or-None, Lipschitz constant)."""
    if spec == "zero":
        return None, 0.0
    if spec == "scalar-saturation":
        return (lambda v: np.clip(v, -1.0, 1.0)), 1.0
    if not (isinstance(spec, dict) and spec.get("kind") == "user-table"):
        raise ScenarioError(f"unknown f selector {spec!r}")
    xs = np.asarray(spec["x"], dtype=float)
    ys = np.asarray(spec["y"], dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ScenarioError("user-table f needs matching 1-D x/y arrays")
    if np.any(np.diff(xs) <= 0):
        raise ScenarioError("user-table x values must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        slopes = np.abs(np.diff(ys) / np.diff(xs))
    if not np.isfinite(slopes).all():
        raise ScenarioError("plant.f: a user-table slope overflows")
    return (lambda v: np.interp(v, xs, ys)), float(slopes.max())


def _graph(v: dict, section: str, base: Path) -> Graph:
    """The graph a section gives, from its file or from its ``n`` and edges."""
    if v[f"{section}.file"] is not None:
        return Graph.from_file(base / v[f"{section}.file"])
    if v[f"{section}.n"] is None or v[f"{section}.edges"] is None:
        raise ScenarioError(f"{section} must give 'n' and 'edges', or a 'file'")
    return Graph(v[f"{section}.n"], v[f"{section}.edges"])


@dataclass
class Scenario:
    """A checked scenario: the document as read, ``values`` (every field of
    :data:`SCHEMA` by path, as :func:`_read` gives it) and domain objects."""

    raw: dict
    values: dict
    graph: Graph
    target_graph: Optional[Graph]
    plant: PlantModel
    bounds: BoundSet
    x0: np.ndarray

    @property
    def hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def load_scenario(source, base_dir: Optional[Path] = None,
                  overrides: Optional[dict] = None) -> Scenario:
    """Parse and validate a scenario from a path or an in-memory dict.

    ``overrides`` maps a field's path, or a flag of :data:`FLAG_FIELDS`, to
    a value that replaces the document's unless it is ``None`` (:data:`OFF`
    restores the default). The hash is that of the document as read.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        base = base_dir or path.parent
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    else:
        raw = json.loads(json.dumps(source))  # defensive copy, JSON-clean
        base = base_dir or Path(".")
    if type(raw) is not dict:
        raise ScenarioError(f"a scenario must be a JSON object, got {type(raw).__name__}")
    try:
        v = _read(raw, {FLAG_FIELDS.get(key, key): (key, None if val is OFF else val)
                        for key, val in (overrides or {}).items() if val is not None})
        graph = _graph(v, "graph", base)
        n, n_dim, a = graph.n, v["plant.N"], v["plant.A"]
        f, l_f = resolve_f(v["plant.f"])
        with np.errstate(invalid="ignore"):  # an infinite a: PlantModel rejects it
            a = a * np.eye(n_dim) if np.ndim(a) == 0 else a
        plant = PlantModel(n_dim, a, f, l_f if v["plant.l_f"] is None else v["plant.l_f"])
        x0 = v["sim.x0"]
        if type(x0) is tuple:
            x0 = np.random.default_rng(v["sim.seed"] or 0).uniform(*x0, size=(n, n_dim))
        return Scenario(
            raw=raw,
            values=v,
            graph=graph,
            target_graph=_graph(v, "target_graph", base) if v["target_graph"] else None,
            plant=plant,
            bounds=BoundSet(n=n, d_u=v["bounds.d_u"], d_udot=v["bounds.d_udot"],
                            d_tilde_u=v["bounds.d_tilde_u"]),
            x0=x0,
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def _resolve_estimate_init(spec, nbs, x0: np.ndarray, n_dim: int):
    """Initial estimates from a scenario selector: ``None`` for zeros, one
    ``(P, N)`` array of pair estimates for ``"truth"`` and for a scalar."""
    if spec == "zero":
        return None
    if spec == "truth":
        return x0[nbs.table.target]
    if type(spec) is float:
        return np.full((len(nbs.table.target), n_dim), spec)
    return spec  # explicit per-agent blocks; SimConfig checks and stacks them


@dataclass
class TunedScenario:
    scenario: Scenario
    gains: GainSet
    spectra: tuple        # coupling_spectra: (lambda_min, lambda_max, eta) per agent
    config: SimConfig
    cert: object          # ConvergenceCertificate or None
    infeasible: Optional[dict]
    x_err0: np.ndarray
    u_err0: np.ndarray

    @property
    def nbs(self) -> Neighborhoods:
        return self.config.structure.nbs


_INEQUALITY = {"omega": "omega lower bound ({:.6g})",
               "phi": "theta lower bound (phi must be positive)",
               "psi": "pi lower bound (psi must be positive)"}


def prepare(sc: Scenario) -> TunedScenario:
    """Tune gains, apply scenario scales/overrides, and build the sim config.

    Every scenario value the domain objects reject (with ``ValueError`` or
    ``TypeError``) surfaces here as one :class:`ScenarioError`. Gains that
    break an inequality the certificate rests on (an ``omega`` below its
    bound, or a ``phi`` or ``psi`` that is not positive) get no certificate;
    a gain, ``phi`` or ``psi`` that is not finite raises
    :class:`~khopsim.errors.NumericalError` (see :func:`certificate`).
    """
    v = sc.values
    try:
        spec = v["sim.uhat0"]
        uhat0_mag = abs(spec) if type(spec) is float else 0.0
        if type(spec) is list:
            uhat0_mag = max((np.abs(b).max() for b in spec if b.size), default=0.0)
        # omega comes tuned to its bound; the slack is added here.
        tuned, nbs, spectra = tune_gains(sc.graph, v["k"], sc.plant, sc.bounds,
                                         g_scale=v["gains.g"], slack=v["gains.slack"],
                                         uhat0_mag=uhat0_mag)
        with np.errstate(over="ignore", invalid="ignore"):  # certificate refuses inf and NaN
            omega = tuned.omega + v["gains.omega_slack"]
            theta = tuned.theta * v["gains.theta_scale"]
            pi = tuned.pi * v["gains.pi_scale"]
        for key, arr in (("omega", omega), ("theta", theta), ("pi", pi)):
            ov = v[f"gains.overrides.{key}"]
            if ov is not None:
                if ov.shape not in ((), arr.shape):
                    raise ScenarioError(
                        f"gains.overrides.{key} needs {arr.size} entries, got {ov.shape}")
                np.copyto(arr, ov, where=np.isfinite(ov))
        gains = GainSet(tuned.g, omega, theta, pi)
        kind = v["controller.kind"]
        if kind not in ("zero", "khop_consensus"):
            raise ValueError(f"unknown controller kind {kind!r}")
        if kind == "khop_consensus" and sc.target_graph is None:
            raise ValueError("khop_consensus controller needs a target graph")
        config = SimConfig(
            graph=sc.graph,
            k=v["k"],
            plant=sc.plant,
            gains=gains,
            x0=sc.x0,
            target_graph=sc.target_graph if kind == "khop_consensus" else None,
            xhat0=_resolve_estimate_init(v["sim.xhat0"], nbs, sc.x0, sc.plant.N),
            uhat0=_resolve_estimate_init(spec, nbs, sc.x0, sc.plant.N),
            nbs=nbs,
            **{key: v[f"sim.{key}"] for key in ("dt", "t_end", "state_box", "conv_eps",
                                                "band_scale", "decimate", "boundary_layer")},
        )
        with np.errstate(over="ignore"):  # refused below, with the field named
            x_err0, u_err0 = plant_sim.initial_error_norms(config)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    for name, err in (("sim.xhat0", x_err0), ("sim.uhat0", u_err0)):
        if not np.isfinite(err).all():
            agent = int(np.argmax(~np.isfinite(err))) + 1
            raise ScenarioError(f"{name}: the initial estimation error of agent {agent} overflows")
    cert = infeasible = None
    try:
        cert = certificate(spectra, sc.plant, gains, sc.bounds, x_err0, u_err0,
                           uhat0_mag=uhat0_mag)
    except CertificateInfeasible as exc:
        infeasible = dict(agent=exc.agent, quantity=exc.quantity, value=exc.value,
                          inequality=_INEQUALITY[exc.quantity].format(exc.bound))
    return TunedScenario(sc, gains, spectra, config, cert, infeasible, x_err0, u_err0)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if math.isfinite(val) else None
    return obj


def _rows(**columns) -> list:
    """One row per agent, ``{"agent": i, name: column[i - 1], ...}``, from
    per-agent array columns; a ``None`` column puts ``None`` in every row."""
    n = len(next(col for col in columns.values() if col is not None))
    values = [[None] * n if col is None else col.tolist() for col in columns.values()]
    return [{"agent": i, **dict(zip(columns, row))} for i, row in enumerate(zip(*values), 1)]


def gain_report(ts: TunedScenario) -> dict:
    """Per-agent spectral data, gains, and certificates, JSON-ready."""
    sc, cert, gains = ts.scenario, ts.cert, ts.gains
    # An agent with no observer has no coupling matrix: NaN, reported as null.
    lambda_min, lambda_max, eta = ts.spectra
    per_agent = _rows(
        eta=eta, lambda_min=lambda_min, lambda_max=lambda_max,
        omega=gains.omega, theta=gains.theta, pi=gains.pi,
        phi=getattr(cert, "phi", None), psi=getattr(cert, "psi", None),
        T_x_bound=getattr(cert, "T_x", None), T_u_bound=getattr(cert, "T_u", None),
        x_err0=ts.x_err0, u_err0=ts.u_err0,
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {"name": sc.values["name"], "hash": sc.hash},
        "g": gains.g,
        "per_agent": per_agent,
        "T_x": getattr(cert, "T_x_global", None),
        "T_u": getattr(cert, "T_u_global", None),
        "T_xu": getattr(cert, "T_xu", None),
        "certified": cert is not None,
        "infeasible": ts.infeasible,
        "bounds_inferred": sc.values["bounds.inferred"],
        "no_observers_needed": not eta.any(),
    }
    return _jsonable(report)


def _criterion(name, status, **details):
    return {"name": name, "status": status, **details}


def _time_criterion(name, bound, observed, active) -> dict:
    """Observed convergence times against a certificate's per-agent bounds,
    over the agents that run an observer. The worst agent is the first one
    never detected (it has no margin), else the one with the smallest
    margin ``bound - observed``, the first of equals."""
    if bound is None:
        return _criterion(name, "not_certified")
    agents = np.flatnonzero(active)
    if not agents.size:
        return _criterion(name, "pass", worst=None)
    missed = agents[~np.isfinite(observed[agents])]
    if missed.size:
        i = int(missed[0])
        return _criterion(name, "fail", worst={"agent": i + 1, "observed": None, "bound": bound[i]})
    margin = bound[agents] - observed[agents]
    j = int(np.argmin(margin))
    i = int(agents[j])
    worst = {"agent": i + 1, "observed": observed[i], "bound": bound[i], "margin": margin[j]}
    return _criterion(name, "fail" if (margin < 0).any() else "pass", worst=worst)


def evaluate_criteria(ts: TunedScenario, tel: Telemetry) -> list:
    """Recompute every verification criterion from one telemetry record.

    ``tel`` carries the detection results (eps, band, ``T_x_obs``,
    ``T_u_obs``) that :mod:`plant_sim` decided; see
    :func:`plant_sim.telemetry_from_columns`. Each criterion carries the
    tolerance it was checked at.
    """
    v, cert, target = ts.scenario.values, ts.cert, ts.config.target_graph
    times, errx, consdist, band_x = tel.times, tel.errx, tel.cons_dist, tel.band_x
    active = tel.eta > 0
    t_x, t_u = (cert.T_x, cert.T_u) if cert else (None, None)
    criteria = [
        _criterion("certified_gains", "pass" if cert else "not_certified", details=ts.infeasible),
        _time_criterion("state_time_within_certificate", t_x, tel.T_x_obs, active),
        _time_criterion("input_time_within_certificate", t_u, tel.T_u_obs, active),
        # Permanence in the sliding band (state side).
        _criterion("state_band_permanence",
                   "pass" if np.isfinite(tel.T_x_obs[active]).all() else "fail",
                   band=band_x, conv_eps=tel.eps_x, T_x_obs=tel.T_x_obs),
    ]

    # After all input observers converge, state errors never rise above
    # their value at that time plus the band, and the overall error maximum
    # is finite. With no input observer, that time is the first sample.
    name = "error_bounded_after_input_convergence"
    t_u_obs = tel.T_u_obs[active]
    if np.isfinite(t_u_obs).all():
        t_u_global = float(t_u_obs.max(initial=times[0]))
        allowed = errx[np.searchsorted(times, t_u_global)] + band_x
        worst_rise = float(np.max(errx[times >= t_u_global] - allowed, initial=-np.inf))
        criteria.append(_criterion(name, "pass" if worst_rise <= 0.0 else "fail",
                                   T_u_obs_global=t_u_global, worst_rise=worst_rise,
                                   X_obs=tel.X_obs))
    else:
        criteria.append(_criterion(name, "fail", detail="input observers never converged",
                                   X_obs=tel.X_obs))

    # Stability envelope: decaying initial term plus disturbance gain.
    if target is not None:
        lam2 = lambda2(target)
        v_norm = np.linalg.norm(tel.v.reshape(len(times), -1), axis=1)
        envelope = np.exp(-lam2 * times) * consdist[0] + np.maximum.accumulate(v_norm) / lam2
        iss_band = ISS_TOL + 1e-9 * max(1.0, consdist[0])
        worst = float(np.max(consdist - envelope))
        final, tol = float(consdist[-1]), v["sim.consensus_tol"]
        criteria += [
            _criterion("iss_envelope", "pass" if worst <= iss_band else "fail",
                       lambda2=lam2, worst_violation=worst, tolerance=iss_band),
            _criterion("consensus_reached", "pass" if final < tol else "fail",
                       final_distance=final, tolerance=tol),
        ]
    else:
        criteria += [_criterion("iss_envelope", "skipped"),
                     _criterion("consensus_reached", "skipped")]

    # Internal consistency of the CSV itself.
    cons_err = float(np.max(np.abs(plant_sim.consensus_distance(tel.states) - consdist)))
    criteria.append(_criterion("csv_consistency", "pass" if cons_err < 1e-9 else "fail",
                               max_abs_difference=cons_err, tolerance=1e-9))
    return criteria


def bound_audit(ts: TunedScenario, tel: Telemetry) -> dict:
    """Observed maxima versus the declared bounds. Informational only: the
    closed-loop input derivative carries the observers' switching terms, so
    a back-inferred derivative bound is routinely exceeded without voiding
    the (sufficient) certificates."""
    def largest(squares):
        # Each agent's largest norm over (S, n, N) squares, 0.0 for no
        # sample. sqrt is monotone, so the root of the largest sum of squares
        # is bit for bit the largest np.linalg.norm of the samples.
        return np.sqrt(squares.sum(axis=2).max(axis=0, initial=0.0))

    u_top = largest(np.square(tel.inputs))
    udot = np.diff(tel.inputs, axis=0)  # one (S - 1, n, N) array, reused in place
    udot /= np.diff(tel.times)[:, None, None]
    observed = (  # (observed key, bound, per-agent maximum over the run)
        ("max_u_norm", "d_u", u_top),
        ("max_tilde_u_norm", "d_tilde_u", tel.erru.max(axis=0)),
        ("max_udot_norm", "d_udot", largest(np.square(udot, out=udot))),
    )
    bounds, columns = ts.scenario.bounds, {}
    for key, bound, top in observed:
        declared = getattr(bounds, bound)
        columns.update({key: top, bound: declared,
                        f"within_{bound}": None if declared is None else top <= declared})
    return {"informational": True, "per_agent": _rows(**columns)}


def verification_report(ts: TunedScenario, cols: dict) -> dict:
    """Gain report plus criteria and bound audit judged from telemetry
    columns, as :func:`plant_sim.read_csv` or :func:`telemetry_columns`
    give them."""
    return _judge(ts, plant_sim.telemetry_from_columns(ts.config, cols))


def _judge(ts: TunedScenario, tel: Telemetry) -> dict:
    """:func:`verification_report` of a run's own telemetry record."""
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


def _verdict(report: dict, /, **paths: Path) -> int:
    """Print the report's criteria and the written ``paths`` by label; the
    exit code of the verdict, 0 when all pass, else 2."""
    for c in report["criteria"]:
        print(f"[{c['status'].upper():>13}] {c['name']}")
    for label, path in paths.items():
        print(f"{label + ':':<10} {path}")
    return 0 if report["all_pass"] else 2


# ---------------------------------------------------------------------------
# Subcommands


def _flags(args) -> dict:
    """The override flags of the command line, by flag (``None`` if not given)."""
    return {flag: getattr(args, flag[2:].replace("-", "_"), None) for flag in FLAG_FIELDS}


def _flag_value(text: str):
    """A flag's text as the number it spells, else as itself; a row checks it."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def cmd_tune(args) -> int:
    ts = prepare(load_scenario(args.scenario, overrides=_flags(args)))
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
    csv_path = out_dir / sc.values["outputs.csv"]
    try:
        tel = plant_sim.run(ts.config)
    except DivergenceDetected as exc:
        _write_csv(csv_path, exc.partial_telemetry)
        print(f"partial telemetry retained: {csv_path}", file=sys.stderr)
        raise
    _write_csv(csv_path, tel)
    report = _judge(ts, tel)
    report_path = out_dir / sc.values["outputs.report"]
    _write_json(report_path, report)
    return report, csv_path, report_path


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario, overrides=_flags(args))
    ts = prepare(sc)
    out_dir = Path(args.out)
    v = sc.values
    has_overrides = v["gains.theta_scale"] != 1.0 or v["gains.pi_scale"] != 1.0 or any(
        v[f"gains.overrides.{key}"] is not None for key in ("omega", "theta", "pi"))
    if ts.infeasible and not has_overrides:
        print(
            f"infeasible gains and no explicit overrides: "
            f"{ts.infeasible['inequality']} (agent {ts.infeasible['agent']})",
            file=sys.stderr,
        )
        return 2
    report, csv_path, report_path = _simulate(ts, out_dir)
    return _verdict(report, telemetry=csv_path, report=report_path)


def cmd_verify(args) -> int:
    ts = prepare(load_scenario(args.scenario, overrides=_flags(args)))
    try:
        report = verification_report(ts, plant_sim.read_csv(args.telemetry))
    except (OSError, ValueError, TelemetryError) as exc:
        print(f"cannot read telemetry: {exc}", file=sys.stderr)
        return 1
    _write_json(Path(args.out) / "verify.json", report)
    return _verdict(report)


_SWEEP_FIELDS = {"dt": "sim.dt", "theta_scale": "gains.theta_scale",
                 "pi_scale": "gains.pi_scale", "k": "k"}


def _sweep_cell(raw: dict, base: Path, cell: dict) -> dict:
    """Run one sweep cell; always returns a row, never raises.

    A cell whose parameters are invalid (a bad ``k`` or ``dt``), or whose
    run does not fit in memory, gets status ``error`` with the reason, and
    the rest of the grid still runs.
    """
    row = dict(cell)
    try:
        sc = load_scenario(
            raw, base_dir=base, overrides={_SWEEP_FIELDS[key]: v for key, v in cell.items()}
        )
        ts = prepare(sc)
        tel = plant_sim.run(ts.config)
        report = _judge(ts, tel)
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
    except (KhopsimError, MemoryError, OSError, ValueError) as exc:
        row.update(status="error", error=f"{type(exc).__name__}: {exc}")
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
    unknown = set(grid) - set(_SWEEP_FIELDS)
    if unknown:
        print(f"unsupported sweep keys: {sorted(unknown)}", file=sys.stderr)
        return 1
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            print(f"grid {key!r} must be a non-empty list, got {values!r}", file=sys.stderr)
            return 1
    keys = [k for k in _SWEEP_FIELDS if k in grid]
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    # Under fork the pool starts every worker up front, so start no more
    # than there are cells or usable CPUs.
    workers = min(args.jobs, len(cells), plant_sim._usable_cpus())
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(
                    _sweep_cell, itertools.repeat(raw), itertools.repeat(sc_path.parent), cells
                ))
        except BrokenProcessPool as exc:  # a worker died; no summary is written
            print(f"sweep stopped: a worker process died ({exc})", file=sys.stderr)
            return 1
    else:
        rows = [_sweep_cell(raw, sc_path.parent, cell) for cell in cells]
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
    scenario_path = out_dir / "scenario.json"
    _write_json(scenario_path, REPRODUCTION_SCENARIO)
    ts = prepare(load_scenario(REPRODUCTION_SCENARIO, base_dir=out_dir, overrides=_flags(args)))
    _write_json(out_dir / "gains.json", gain_report(ts))
    if ts.infeasible:
        print(f"infeasible gains: {ts.infeasible['inequality']}", file=sys.stderr)
        return 2
    report, csv_path, report_path = _simulate(ts, out_dir)
    return _verdict(report, scenario=scenario_path, telemetry=csv_path, report=report_path)


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
            p.add_argument("--seed", type=_flag_value, help="override scenario seed")
        if slack:
            p.add_argument("--slack", type=_flag_value, help="override gain slack")

    p_tune = sub.add_parser("tune", help="design gains and write the gain report")
    common(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    p_sim = sub.add_parser("simulate", help="run the closed loop and verify")
    common(p_sim)
    p_sim.add_argument("--decimate", type=_flag_value, help="log every n-th step")
    p_sim.add_argument(
        "--boundary-layer",
        type=lambda text: OFF if text == "off" else _flag_value(text),
        help="sign smoothing width delta, or 'off' (default: the scenario's)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="recompute criteria from telemetry CSV")
    common(p_ver)
    p_ver.add_argument("--telemetry", required=True, help="telemetry CSV path")
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    common(p_sweep, seed=False, slack=False)
    p_sweep.add_argument("--grid", required=True, help="grid JSON path")
    p_sweep.add_argument("--jobs", type=int, default=4,
                         help="parallel workers, at most one per cell and usable CPU")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser(
        "reproduce-paper", help="run the bundled 4-agent reproduction scenario"
    )
    common(p_rep, scenario=False, seed=False)
    p_rep.add_argument("--decimate", type=_flag_value)
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
    except DivergenceDetected as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 1
    except (KhopsimError, MemoryError, OSError) as exc:  # a bad output path, file or size
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
