"""Fixed-step closed-loop simulation of plant, controllers, and observers.

One synchronous round: every agent computes its input from its own and
1-hop true states plus its multi-hop estimates, messages are exchanged
(carrying same-instant states, inputs, relays, and estimates), and plant
plus observers advance one explicit Euler step with a shared ``dt``.

Explicit Euler is the deliberate choice: the observer right-hand sides are
discontinuous, so higher-order smooth integrators buy nothing, and the
residual sign-chattering scales linearly with the step size. Convergence is
therefore detected as entry into a small ball followed by permanence inside
the chattering band, never as an exact zero.

The package runs and ships one form of the round, on arrays; the
per-agent message form, with one message object per sender, lives in
``tests/reference_form.py`` as the oracle the tests compare against. All P
(estimator, target) pairs are laid out once, estimator-major with members
ascending (:class:`~khopsim.khop_observer.PairLayout`), and a run keeps
one state array ``z`` of shape ``(2, P + n, N)``: plane 0 is
``[x_hat; x]`` and plane 1 is ``[u_hat; u]``, so agent ``i``'s stacked
estimate is a contiguous row block of each plane. Each pair's correction
signal is the message form's sum written down once as an ordered row of
source indices into ``[estimates; truth]``: for every 1-hop neighbor ``j``
in ascending order, ``j``'s estimate of the same target, then the relayed
true value. Rows are padded with the pair itself (``own - own = +0.0``),
and a step adds the columns in table order, so every sum rounds exactly as
the message form does. The same indices address both planes, so one gather
yields the state and the input signals together. The consensus input sums
plane-0 rows of the same kind, and the Euler update is one
``z + dt * dz`` over the whole array. :func:`run` is the only way to take
a step: per round it sets the inputs and advances ``z`` in place, through
the closures :func:`_bind_control` and :func:`_bind_advance` bind once per
run to ``z``, its buffers and views, the kernel's :class:`PairWorkspace`
and the numpy functions a step calls, so a step allocates almost nothing
and looks nothing up. Every sum is one ``np.add.reduce(..., initial=0.0)``
over the term axis, which starts from ``+0.0`` and adds the terms in table
order.

The Euler loop only copies each logged ``z`` into a bounded block. The
logged error norms and disturbance are reduced per block, after the steps
that produced it: a row-wise dot product and an ``np.bincount`` whose bins
run sample-major, so every cell accumulates its terms in the same order as
a per-sample reduction would. The steps and these reductions ignore numpy's
overflow and invalid-value warnings: divergence is checked explicitly.

The telemetry CSV of a large run is written and read on every usable CPU:
forked children format or parse row ranges and pass them back through
pipes, and the bytes and values are the same as in one process
(``SPLIT_MIN_CELLS``).

Do not regroup these sums. ``sum(estimates) - (deg + c) * own + c * truth``
is the same sum in exact arithmetic but not in floating point, and because
``sign(0) = +1`` switches on the sign of tiny differences, a one-ulp change
in a correction signal flips switching terms and grows into state
differences of order 1e-3 within a few hundred steps.
"""

from __future__ import annotations

import io
import math
import os
import shutil
import signal
import sys
import warnings
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DivergenceDetected,
    NumericalError,
    ProtocolError,
    StateBoxViolation,
    TelemetryError,
)
from .gain_tuning import GainSet, PlantModel
from .graph_khop import Graph, all_khop_sets
from .khop_observer import PairLayout, PairWorkspace, pair_derivative, pair_layout

CONV_EPS_FLOOR = 1e-6
CONV_EPS_REL = 1e-3
DEFAULT_BAND_SCALE = 5.0
LAPLACIAN_ZERO_TOL = 1e-8
# Bytes of logged state arrays :func:`run` holds before reducing them. A
# 1 MiB block ran no faster and left a higher peak RSS in the verification
# that follows the reproduction run (+0.7 MB); 256 KiB did not.
LOG_BLOCK_BYTES = 1 << 18
# Values of telemetry CSV per process when ``write_csv`` and ``read_csv``
# split a file over CPUs. Medians of 9 calls on cuts of the reproduction
# table, 2-vCPU Xeon VM, one process -> two: writing 100k values took
# 0.119 -> 0.109 s and 200k 0.287 -> 0.176 s; reading 100k values
# 0.039 -> 0.047 s (slower) and 200k 0.114 -> 0.072 s. So a file splits from
# 200k values on, and a 150-agent ring's 49k-value CSV stays in one process.
SPLIT_MIN_CELLS = 100_000
# Mean bytes of one CSV value with its separator, which sizes a file in
# values before it is read: 19.6 in the reproduction telemetry, 20.7 in a
# 150-agent ring's.
_CELL_BYTES = 20


@dataclass(frozen=True)
class Controller:
    """Input law selector.

    ``zero`` applies no input. ``khop_consensus`` drives agents toward
    agreement over a target graph whose edges may be absent from the
    communication graph; every target neighbor not reachable in one hop
    must be covered by the hop horizon, otherwise the needed estimate does
    not exist and construction fails.
    """

    kind: str
    target_graph: Optional[Graph] = None

    def __post_init__(self):
        if self.kind not in ("zero", "khop_consensus"):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.kind == "khop_consensus" and self.target_graph is None:
            raise ValueError("khop_consensus controller needs a target graph")


@dataclass(frozen=True)
class SimConfig:
    """One run's inputs plus ``structure``, the wiring built from them once
    (:func:`build_structure`). Scalars are taken as the scenario schema
    checked them; this checks the rules across fields. ``xhat0``/``uhat0``
    are per-agent estimate vectors (``None`` means zeros), kept as read-only
    ``(P, N)`` pair arrays. ``nbs`` may pass in the k-hop neighborhoods of
    ``graph`` at horizon ``k`` when the caller already has them (as
    :func:`~khopsim.gain_tuning.tune_gains` returns them); otherwise they
    are built here."""

    graph: Graph
    k: int
    plant: PlantModel
    gains: GainSet
    controller: Controller
    dt: float
    t_end: float
    x0: np.ndarray
    xhat0: Optional[list] = None
    uhat0: Optional[list] = None
    state_box: Optional[tuple] = None
    conv_eps: Optional[float] = None
    band_scale: float = DEFAULT_BAND_SCALE
    decimate: int = 1
    boundary_layer: Optional[float] = None
    structure: "SimStructure" = field(init=False, repr=False, compare=False)
    nbs: InitVar[Optional[list]] = None

    def __post_init__(self, nbs):
        if not (np.isfinite(self.t_end) and self.t_end > self.dt):
            raise ValueError(
                f"t_end must be finite and exceed dt, got t_end={self.t_end}, dt={self.dt}"
            )
        if self.t_end / self.dt > sys.maxsize:
            raise ValueError(
                f"t_end / dt must be at most {sys.maxsize} steps, "
                f"got t_end={self.t_end}, dt={self.dt}"
            )
        x0 = np.array(self.x0, dtype=float)
        if x0.shape != (self.graph.n, self.plant.N):
            raise ValueError(
                f"x0 must be ({self.graph.n}, {self.plant.N}), got {x0.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        if self.state_box is not None:
            lo, hi = self.state_box
            if np.any(x0 < lo) or np.any(x0 > hi):
                raise ValueError("x0 outside the state box")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        structure = build_structure(self, nbs)
        object.__setattr__(self, "structure", structure)
        shape = (structure.pairs.target.size, self.plant.N)
        for name, which in (("xhat0", "state"), ("uhat0", "input")):
            est = getattr(self, name)
            if est is None:
                est = np.zeros(shape)
            elif not isinstance(est, np.ndarray):  # per-agent blocks, agent 1 first
                est = np.concatenate([
                    np.array(blk, dtype=float).reshape(nb.eta * self.plant.N)
                    for blk, nb in zip(est, structure.nbs)
                ])
            # An ndarray is already stacked, as dataclasses.replace passes it.
            est = np.array(est, dtype=float).reshape(shape)
            bad = ~np.isfinite(est).all(axis=1)
            if bad.any():
                agent = int(structure.pairs.estimator[np.argmax(bad)]) + 1
                raise ValueError(f"agent {agent}: non-finite {which} estimate")
            est.setflags(write=False)
            object.__setattr__(self, name, est)


@dataclass(frozen=True)
class Telemetry:
    """Sampled run record plus detected convergence times.

    ``errx``/``erru`` hold, per estimated agent, the norm of the stacked
    error made by all of that agent's estimators (the quantity the
    finite-time certificates bound). ``v`` is the consensus-disturbance
    vector injected by estimate-based control terms.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    errx: np.ndarray
    erru: np.ndarray
    cons_dist: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    band_x: np.ndarray
    band_u: np.ndarray
    eps_x: np.ndarray
    eps_u: np.ndarray
    T_x_obs: np.ndarray
    T_u_obs: np.ndarray
    X_obs: float


@dataclass(frozen=True)
class SimStructure:
    """Static wiring a :class:`SimConfig` builds once from its graph, k and gains.

    ``control_terms`` has one column per agent: the rows of ``[x_hat; x]``,
    plane 0 of the state array, that its consensus input sums over, in the
    order one agent adds them (communication-and-target neighbors, then
    estimates of target-only neighbors), padded with the agent's own row,
    stored term-major like ``PairLayout.terms``. The ``zero`` controller
    has no rows, so every input is the empty sum ``+0.0``.
    ``disturbance_pairs`` are the pairs those estimates come from, and
    ``disturbance_bins`` their flat ``(estimator, component)`` cells in an
    ``(n, N)`` array. All arrays are read-only, as the layout's are.
    """

    nbs: list
    pairs: PairLayout
    control_terms: np.ndarray
    disturbance_pairs: np.ndarray
    disturbance_bins: np.ndarray


# Row-wise dot products with the rounding of ``a @ b`` on each row.
_row_dot = getattr(np, "vecdot", None) or (
    lambda a, b: np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
)


def consensus_distance(x: np.ndarray):
    """Euclidean distance to the consensus set of one stacked state ``(n, N)``
    (a float), or of every state in a stack ``(S, n, N)`` (an ``(S,)`` array).

    Each state's distance rounds exactly as it would on its own.
    """
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=-2, keepdims=True)
    flat = centered.reshape(-1, x.shape[-2] * x.shape[-1])
    dist = np.sqrt(_row_dot(flat, flat))
    return float(dist[0]) if x.ndim == 2 else dist


def lambda2(graph: Graph) -> float:
    """Smallest Laplacian eigenvalue above the zero tolerance.

    The spectrum comes from LAPACK (``np.linalg.eigvalsh``): ``lambda2``
    feeds only the ISS envelope check, never a gain, and the Laplacian is
    exactly symmetric with integer entries, so it needs neither the Jacobi
    solver's bits nor its symmetry checks.
    """
    w = np.linalg.eigvalsh(graph.laplacian())
    above = w[w > LAPLACIAN_ZERO_TOL]
    if above.size == 0:
        raise ValueError("Laplacian has no positive eigenvalue")
    return float(above[0])


def build_structure(config: SimConfig, nbs: Optional[list] = None) -> SimStructure:
    g = config.graph
    if nbs is None:
        nbs = all_khop_sets(g, config.k)
    pairs = pair_layout(nbs, config.gains)
    n_pairs = pairs.target.size
    control_terms = np.empty((0, g.n), dtype=np.intp)
    disturbance = []
    if config.controller.kind == "khop_consensus":
        tg = config.controller.target_graph
        if tg.n != g.n:
            raise ValueError("target graph must cover the same agents")
        rows = []
        for i in range(1, g.n + 1):
            tn = set(tg.neighbors(i))
            cn = set(g.neighbors(i))
            row = [n_pairs + j - 1 for j in sorted(tn & cn)]
            members = nbs[i - 1].members
            for j in sorted(tn - cn):
                if j not in members:
                    raise ProtocolError(
                        f"agent {i}: target neighbor {j} is neither 1-hop nor "
                        f"within the {config.k}-hop horizon"
                    )
                p = pairs.rows(i).start + members.index(j)
                row.append(p)
                disturbance.append(p)
            rows.append(row)
        width = max(len(r) for r in rows)
        control_terms = np.array(
            [r + [n_pairs + i] * (width - len(r)) for i, r in enumerate(rows)],
            dtype=np.intp,
        ).T.copy()
    disturbance = np.array(disturbance, dtype=np.intp)
    n_dim = config.plant.N
    bins = (pairs.estimator[disturbance, None] * n_dim + np.arange(n_dim)).reshape(-1)
    for arr in (control_terms, disturbance, bins):
        arr.setflags(write=False)
    return SimStructure(
        nbs=nbs,
        pairs=pairs,
        control_terms=control_terms,
        disturbance_pairs=disturbance,
        disturbance_bins=bins,
    )


def init_world(config: SimConfig) -> np.ndarray:
    """The state array at t = 0, ``(2, P + n, N)``: plane 0 is
    ``[x_hat; x]`` and plane 1 is ``[u_hat; u]``, the pair estimates laid
    out by ``config.structure.pairs`` first. The inputs start at zero; each
    round's control sets them."""
    p = config.structure.pairs.target.size
    z = np.zeros((2, p + config.graph.n, config.plant.N))
    z[0, :p] = config.xhat0
    z[0, p:] = config.x0
    z[1, :p] = config.uhat0
    return z


def _check_startable(config: SimConfig) -> None:
    """Refuse to step with a missing gain."""
    pairs = config.structure.pairs
    for which, gain in zip(("omega", "theta", "pi"), (pairs.omega, *pairs.switch)):
        bad = ~np.isfinite(gain[:, 0])
        if bad.any():
            agent = int(pairs.estimator[np.argmax(bad)]) + 1
            raise NumericalError(
                f"{which} gain missing for a member of agent {agent}'s neighborhood"
            )


def _bind_control(config: SimConfig, z: np.ndarray):
    """The consensus law bound once to a run's state array ``z``: each call
    sets every agent's input, plane 1's truth rows, from plane 0, summing
    its terms in table order from ``+0.0``."""
    s = config.structure
    p = s.pairs.target.size
    x_rows, x, u = z[0], z[0, p:], z[1, p:]
    terms = s.control_terms
    parts = np.empty((len(terms), *x.shape))
    take, subtract, add_reduce = x_rows.take, np.subtract, np.add.reduce

    def control() -> None:
        # The indices are the structure's own, all in range; see pair_derivative.
        take(terms, 0, parts, "clip")
        subtract(parts, x, parts)
        add_reduce(parts, 0, None, u, False, 0.0)

    return control


def _bind_advance(config: SimConfig, z: np.ndarray):
    """One Euler step of a run's whole state array ``z``, bound once: each
    call ``advance(t_next)`` steps ``z`` in place, then checks it
    (:func:`_check_state`).

    The step closes over the views, constants, buffers and numpy functions
    it uses, so it looks nothing up and passes every buffer positionally.
    The config's arrays are only read.
    """
    pairs, plant, boundary_layer = config.structure.pairs, config.plant, config.boundary_layer
    work = PairWorkspace(pairs, plant, z, boundary_layer)
    kernel = pair_derivative
    # A 0-d array multiplies as the float does, without its conversion.
    dt = np.array(config.dt)
    flat, x_flat = z.reshape(-1), z[0, pairs.target.size:].reshape(-1)
    box = config.state_box
    lo, hi = box if box is not None else (None, None)
    multiply, add, dot, isfinite = np.multiply, np.add, np.dot, math.isfinite
    min_reduce, max_reduce = np.minimum.reduce, np.maximum.reduce

    def advance(t_next: float) -> None:
        # Every pair sees its 1-hop neighbors' estimates and relays of the
        # same instant (zero-delay propagation), as in one message round.
        dz = kernel(pairs, plant, z, boundary_layer, work)
        multiply(dz, dt, dz)
        add(z, dz, z)
        # The sum of squares is finite unless a value is, or it overflows;
        # _check_state tells the two apart.
        if not isfinite(dot(flat, flat)) or (
            box is not None and (min_reduce(x_flat) < lo or max_reduce(x_flat) > hi)
        ):
            _check_state(config, z, t_next)

    return advance


def _check_state(config: SimConfig, z: np.ndarray, t: float) -> None:
    """Raise on a non-finite value or a state outside the box at time ``t``.

    A step calls this only when its quick checks failed; finite values whose
    sum of squares overflowed pass here.
    """
    pairs = config.structure.pairs
    p = pairs.target.size
    x = z[0, p:]
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise DivergenceDetected(t, int(np.argmax(bad)) + 1)
    bad = ~np.isfinite(z[:, :p]).all(axis=(0, 2))
    if bad.any():
        agent = int(pairs.estimator[np.argmax(bad)]) + 1
        raise DivergenceDetected(t, agent, "non-finite estimate")
    if config.state_box is not None:
        lo, hi = config.state_box
        bad = (x < lo) | (x > hi)
        if bad.any():
            agent = int(np.argwhere(bad)[0][0]) + 1
            raise StateBoxViolation(t, agent, float(x[bad][0]), (lo, hi))


def _error_norms(pairs: PairLayout, logged: np.ndarray) -> np.ndarray:
    """Per logged state array ``(S, 2, P + n, N)`` and plane, per estimated
    agent, the norm of the stacked errors of all its estimators: ``(S, 2, n)``.

    Plane 0 gives the state errors, plane 1 the input errors.
    """
    p, n = pairs.target.size, pairs.n
    diff = logged[:, :, p:].take(pairs.target, axis=2) - logged[:, :, :p]
    flat = diff.reshape(-1, diff.shape[-1])
    planes = 2 * len(logged)
    bins = (np.arange(planes)[:, None] * n + pairs.target).reshape(-1)
    sq = np.bincount(bins, weights=_row_dot(flat, flat), minlength=planes * n)
    return np.sqrt(sq).reshape(len(logged), 2, n)


def _disturbance(s: SimStructure, logged: np.ndarray) -> np.ndarray:
    """Per logged state array, the per-agent consensus disturbance: the sum
    of the estimate errors its input uses, ``(S, n, N)``."""
    p = s.pairs.target.size
    dp = s.disturbance_pairs
    x = logged[:, 0, p:]
    err = x.take(s.pairs.target[dp], axis=1) - logged[:, 0].take(dp, axis=1)
    cells = x.shape[1] * x.shape[2]
    bins = (np.arange(len(logged))[:, None] * cells + s.disturbance_bins).reshape(-1)
    v = np.bincount(bins, weights=err.reshape(-1), minlength=len(logged) * cells)
    return v.reshape(x.shape)


def initial_error_norms(config: SimConfig) -> tuple:
    """Stacked estimation-error norms per estimated agent at t = 0.

    The input error uses the controller's t = 0 output, matching how the
    run itself initializes the input vector.
    """
    z = init_world(config)
    _bind_control(config, z)()
    err = _error_norms(config.structure.pairs, z[None])
    return err[0, 0], err[0, 1]


def detect_convergence(
    times: np.ndarray, series: np.ndarray, eps: np.ndarray, band: np.ndarray
) -> np.ndarray:
    """Per column of ``series`` ``(S, n)``, the first time the column is
    inside its ``eps`` and never again leaves its ``band``: ``(n,)``.

    ``eps`` and ``band`` are per column (or one value for all). A column
    with no such time in the sampled horizon gets NaN.
    """
    series = np.asarray(series, dtype=float)
    if not len(series):
        return np.full(series.shape[1:], np.nan)
    suffix_max = np.maximum.accumulate(series[::-1], axis=0)[::-1]
    ok = (series < eps) & (suffix_max <= band)
    return np.where(ok.any(axis=0), np.asarray(times, dtype=float)[ok.argmax(axis=0)], np.nan)


def _conv_eps(config: SimConfig, err: np.ndarray) -> np.ndarray:
    """Per-agent entry radius: ``conv_eps``, or a fraction of the first logged
    error floored at ``CONV_EPS_FLOOR``."""
    if config.conv_eps is not None:
        return np.full(err.shape[1], config.conv_eps)
    first = err[0] if len(err) else np.zeros(err.shape[1])
    return np.fmax(CONV_EPS_FLOOR, CONV_EPS_REL * first)


def _assemble_telemetry(
    config: SimConfig, *, times, states, inputs, errx, erru, cons_dist, v
) -> Telemetry:
    """The logged series plus the convergence rule applied to them.

    This is the only place eps, band and detection are decided, whether the
    series come from :func:`run` or from :func:`telemetry_from_columns`.
    """
    eta = np.array([nb.eta for nb in config.structure.nbs], dtype=int)
    band_x = np.where(eta > 0, config.band_scale * config.gains.theta * config.dt, 0.0)
    band_u = np.where(eta > 0, config.band_scale * config.gains.pi * config.dt, 0.0)
    eps_x = _conv_eps(config, errx)
    eps_u = _conv_eps(config, erru)
    return Telemetry(
        times=times,
        states=states,
        inputs=inputs,
        errx=errx,
        erru=erru,
        cons_dist=cons_dist,
        v=v,
        eta=eta,
        band_x=band_x,
        band_u=band_u,
        eps_x=eps_x,
        eps_u=eps_u,
        T_x_obs=detect_convergence(times, errx, eps_x, band_x),
        T_u_obs=detect_convergence(times, erru, eps_u, band_u),
        X_obs=float(errx.max()) if errx.size else 0.0,
    )


def run(config: SimConfig) -> Telemetry:
    """Integrate to the horizon and assemble telemetry with detection.

    On divergence the samples logged so far are attached to the raised
    exception as ``partial_telemetry`` so callers can retain them.
    """
    _check_startable(config)
    s = config.structure
    z = init_world(config)
    t, p = 0.0, s.pairs.target.size
    n, n_dim = config.graph.n, config.plant.N
    n_steps, decimate = int(round(config.t_end / config.dt)), config.decimate
    # Every ``decimate``-th step is logged, and the last one always.
    n_samples = n_steps // decimate + 1 + (n_steps % decimate != 0)
    logs = {
        "times": np.zeros(n_samples),
        "states": np.zeros((n_samples, n, n_dim)),
        "inputs": np.zeros((n_samples, n, n_dim)),
        "errx": np.zeros((n_samples, n)),
        "erru": np.zeros((n_samples, n)),
        "v": np.zeros((n_samples, n, n_dim)),
    }
    times, states, inputs, errx, erru, v_log = logs.values()
    block = np.empty((min(n_samples, max(1, LOG_BLOCK_BYTES // z.nbytes)), *z.shape))
    row = reduced = 0

    def reduce_block() -> None:
        # Logged rows [reduced, row) sit in ``block``; reduce them together.
        nonlocal reduced
        logged = block[: row - reduced]
        rows = slice(reduced, row)
        states[rows] = logged[:, 0, p:]
        inputs[rows] = logged[:, 1, p:]
        err = _error_norms(s.pairs, logged)
        errx[rows], erru[rows] = err[:, 0], err[:, 1]
        v_log[rows] = _disturbance(s, logged)
        reduced = row

    def telemetry() -> Telemetry:
        if row > reduced:
            reduce_block()
        logged = {name: arr[:row] for name, arr in logs.items()}
        cons = consensus_distance(logged["states"])
        return _assemble_telemetry(config, cons_dist=cons, **logged)

    control, advance = _bind_control(config, z), _bind_advance(config, z)
    dt = config.dt
    # Divergence is detected explicitly, so the steps and the reductions of
    # their log overflow silently instead of printing numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n_steps + 1):
                control()
                if k % decimate == 0 or k == n_steps:
                    times[row] = t
                    block[row - reduced] = z
                    row += 1
                    if row - reduced == len(block):
                        reduce_block()
                if k == n_steps:
                    break
                t += dt
                advance(t)
        except DivergenceDetected as exc:
            exc.partial_telemetry = telemetry()
            raise
        return telemetry()


def _column_layout(n: int, n_dim: int) -> list:
    """``(Telemetry field, per-sample shape, CSV column names)`` in file order.

    A column is its field's prefix plus 1-based indices, agent-major
    (``x_3_2`` is agent 3's second state component).
    """
    layout = []
    for field, prefix, shape in (
        ("times", "t", ()),
        ("states", "x", (n, n_dim)),
        ("inputs", "u", (n, n_dim)),
        ("errx", "errx", (n,)),
        ("erru", "erru", (n,)),
        ("cons_dist", "consdist", ()),
        ("v", "v", (n, n_dim)),
    ):
        names = ["_".join([prefix, *(str(j + 1) for j in idx)]) for idx in np.ndindex(shape)]
        layout.append((field, shape, names))
    return layout


def csv_header(n: int, n_dim: int) -> list:
    return [name for _, _, names in _column_layout(n, n_dim) for name in names]


def telemetry_columns(tel: Telemetry) -> dict:
    """In-memory Telemetry -> the column-name -> array form of :func:`read_csv`."""
    n_samples, n, n_dim = tel.states.shape
    cols = {}
    for field, _, names in _column_layout(n, n_dim):
        cols.update(zip(names, getattr(tel, field).reshape(n_samples, len(names)).T))
    return cols


def telemetry_from_columns(config: SimConfig, cols: Mapping) -> Telemetry:
    """Inverse of :func:`telemetry_columns`: rebuild the record from columns
    (as :func:`read_csv` returns them) and apply the same convergence rule
    :func:`run` applies. Columns with no samples, or whose times are not
    finite and strictly increasing, raise :class:`TelemetryError`.
    """
    t = np.asarray(cols["t"])
    if not t.size:
        raise TelemetryError("telemetry holds no samples")
    stalled = np.concatenate(([False], t[1:] <= t[:-1]))
    for bad, problem in ((~np.isfinite(t), "is not finite"), (stalled, "does not increase")):
        if bad.any():
            raise TelemetryError(f"telemetry time t {problem} at sample {int(np.argmax(bad)) + 1}")
    rows = len(t)
    logs = {
        field: np.column_stack([cols[name] for name in names]).reshape((rows, *shape))
        for field, shape, names in _column_layout(config.graph.n, config.plant.N)
    }
    return _assemble_telemetry(config, **logs)


def _workers(cells: int) -> int:
    """Processes for a CSV of about ``cells`` values: one per
    ``SPLIT_MIN_CELLS``, at most one per CPU this process may run on, and
    one where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, cells // SPLIT_MIN_CELLS))


class _PartFailed(Exception):
    """A part of a split CSV did not finish; the caller does the whole
    file again in one process, which raises what a failure there raises."""


@contextmanager
def _forked(jobs, work):
    """Run ``work(job, out)`` in one forked child per job, ``out`` being the
    write end of the child's pipe; yield the read ends, in job order.

    A child raises warnings as errors and leaves through ``os._exit``
    (status 0 when ``work`` returned, else 1), so it runs no exit handler
    and flushes no buffer it shares with the caller. It runs no BLAS and no
    threads, so forking beside numpy's BLAS threads is safe. On leaving, the
    caller closes the pipes and reaps every child, killing them first when
    it leaves on an exception (``KeyboardInterrupt`` too), and raises
    :class:`_PartFailed` when a child could not start or did not exit 0.
    """
    children = []
    try:
        for job in jobs:
            r, w = os.pipe()
            # SIGINT waits until the child is inside its ``try``, so a
            # KeyboardInterrupt never runs the caller's code in a child.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork beside threads, such as
                    # numpy's BLAS pool; the children here use neither.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                pid = -1
            if pid == 0:
                status = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(r)
                    for _, part in children:
                        part.close()
                    warnings.simplefilter("error")
                    with open(w, "wb") as out:
                        work(job, out)
                    status = 0
                finally:
                    os._exit(status)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(w)
            if pid < 0:
                os.close(r)
                raise _PartFailed
            children.append((pid, open(r, "rb")))
        yield [part for _, part in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failed = False
        for pid, part in children:
            part.close()
            failed |= os.waitpid(pid, 0)[1] != 0
    if failed:
        raise _PartFailed


def _write_rows(fh, rows: np.ndarray) -> None:
    for row in rows:
        fh.write(",".join(map(repr, row.tolist())) + "\n")


def _format_part(rows: np.ndarray, out) -> None:
    text = io.StringIO()
    _write_rows(text, rows)
    out.write(text.getvalue().encode("utf-8"))


def _write_table(path, header: list, table: np.ndarray, workers: int) -> None:
    """The caller writes the header and the first rows; children format the
    other row ranges, which the caller appends in order as they arrive."""
    cuts = [len(table) * i // workers for i in range(workers + 1)]
    parts = [table[a:b] for a, b in zip(cuts[1:], cuts[2:]) if a < b]
    with open(path, "w", encoding="utf-8", newline="\n") as fh, \
            _forked(parts, _format_part) as texts:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, table[: cuts[1]])
        fh.flush()
        for text in texts:
            shutil.copyfileobj(text, fh.buffer)


def write_csv(tel: Telemetry, path) -> None:
    """Write telemetry rows; float formatting is shortest round-trip repr.

    Tables of ``2 * SPLIT_MIN_CELLS`` values or more are formatted on
    several CPUs (:func:`_workers`); the bytes are the same.
    """
    cols = telemetry_columns(tel)
    header, table = list(cols), np.column_stack(list(cols.values()))
    try:
        _write_table(path, header, table, _workers(table.size))
    except _PartFailed:
        _write_table(path, header, table, 1)


def _parse_rows(stream, width: int) -> np.ndarray:
    """CSV body rows from a binary stream, decoded as a UTF-8 text file is."""
    text = io.TextIOWrapper(stream, encoding="utf-8")
    try:
        with warnings.catch_warnings():
            # A body with no rows is refused by telemetry_from_columns.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(text, delimiter=",", ndmin=2)
    finally:
        text.detach()
    if not data.size:
        data = data.reshape(0, width)
    if data.shape[1] != width:
        raise ValueError("telemetry CSV malformed: column count mismatch")
    return data


def _line_cuts(fh, start: int, size: int, workers: int) -> list:
    """Byte offsets that split ``[start, size)`` into up to ``workers``
    ranges of about equal size, each moved forward to a line start."""
    cuts = [start]
    for i in range(1, workers):
        fh.seek(start + (size - start) * i // workers - 1)
        fh.readline()
        if cuts[-1] < fh.tell() < size:
            cuts.append(fh.tell())
    return cuts + [size]


def _read_rows(fh, cuts: list, width: int) -> np.ndarray:
    """Rows of the body bytes ``[cuts[0], cuts[-1])``: children parse every
    range but the last, which the caller parses from ``fh``. Any part that
    fails raises :class:`_PartFailed`."""
    fd = fh.fileno()

    def send_rows(job, out):
        a, b = job
        out.write(_parse_rows(io.BytesIO(os.pread(fd, b - a, a)), width).tobytes())

    with _forked(list(zip(cuts, cuts[1:-1])), send_rows) as parts:
        fh.seek(cuts[-2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                own = _parse_rows(fh, width)
            except (ValueError, Warning):
                raise _PartFailed from None
        received = [part.read() for part in parts]
    if not received:
        return own
    blocks = [np.frombuffer(raw).reshape(-1, width) for raw in received]
    return np.concatenate([*blocks, own])


def read_csv(path) -> dict:
    """Load a telemetry CSV back into column-name -> array form.

    Files of about ``2 * SPLIT_MIN_CELLS`` values or more (at
    ``_CELL_BYTES`` per value) are parsed on several CPUs; the values are
    the same. When any part fails, the body is parsed again in one pass,
    so a bad file gets the one-process error.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8").strip().split(",")
        start, size = fh.tell(), os.fstat(fh.fileno()).st_size
        cuts = _line_cuts(fh, start, size, _workers((size - start) // _CELL_BYTES))
        try:
            data = _read_rows(fh, cuts, len(header))
        except _PartFailed:
            fh.seek(start)
            data = _parse_rows(fh, len(header))
    return {name: data[:, idx] for idx, name in enumerate(header)}
