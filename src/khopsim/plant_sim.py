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

The round runs on arrays, in the pair form of :mod:`khopsim.khop_observer`;
the per-agent message form lives in ``tests/reference_form.py`` as the
oracle. A run keeps one state array ``z`` of shape ``(2, P + n, N)``, plane
0 ``[x_hat; x]`` and plane 1 ``[u_hat; u]``. :func:`build_structure` builds
the wiring once per config from the network's pair table: the observers'
term table (:func:`~khopsim.khop_observer.pair_layout`) and the consensus
input's, whose rows of plane 0 are summed in table order like the
observers' sums. :func:`run` is the only way to take a step: per round it
sets the inputs and advances ``z`` in place through the closures
:func:`_bind_control` and :func:`_bind_advance` bind once per run to ``z``,
its buffers and views, the kernel's :class:`PairWorkspace`, writeable copies
of the index tables (``take`` copies read-only ones on every call) and the
numpy functions a step calls. A step allocates one ufunc buffer at most,
plus, with a state box, the two byte strings its box check compares. Every
sum is one ``np.add.reduce(..., initial=0.0)`` over the term axis, which
starts from ``+0.0`` and adds the terms in table order.

The Euler loop only copies each logged ``z`` into a bounded block. The
logged error norms and disturbance are reduced per block by a reducer
:func:`run` binds once next to the step (:func:`_bind_log_reducer`):
``np.bincount`` sums whose bins run sample-major, so every cell adds its
terms in the order a per-sample reduction would, and the norms add squared
components, not BLAS dot products, so their bits do not depend on the CPU.
The logged ``v`` is ``x - x_hat`` summed over each agent's target-only
neighbors, so the controller injects ``-v``. The steps and these
reductions ignore numpy's overflow and invalid-value warnings: divergence
is checked explicitly.

Each reduced block lands in one table laid out as the telemetry CSV, a row
per sample and the columns in file order; the record keeps that table
(:class:`Telemetry`) and :func:`write_csv` writes it as it is. The CSV
spells every value as ``repr`` does, formatted in blocks by
:mod:`khopsim.float_repr`. A large run's CSV is written and read on
every usable CPU: forked children format or parse row ranges and pass them
back through pipes, and the bytes and values are the same as in one
process (``SPLIT_MIN_CELLS``).

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
from itertools import chain
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DivergenceDetected,
    NumericalError,
    ProtocolError,
    StateBoxViolation,
    TelemetryError,
)
from .float_repr import digit_tables, format_rows, write_rows
from .gain_tuning import GainSet, PlantModel
from .graph_khop import Graph, Neighborhoods, all_khop_sets
from .khop_observer import (
    PairLayout,
    PairWorkspace,
    pair_derivative,
    pair_layout,
    term_table,
)

CONV_EPS_FLOOR = 1e-6
CONV_EPS_REL = 1e-3
DEFAULT_BAND_SCALE = 5.0
# Bytes of logged state arrays :func:`run` holds before reducing them. A
# 1 MiB block ran no faster and left a higher peak RSS in the verification
# that follows the reproduction run (+0.7 MB); 256 KiB did not.
LOG_BLOCK_BYTES = 1 << 18
# Values of telemetry CSV per process when ``write_csv`` and ``read_csv``
# split a file over CPUs. Medians of 9 alternated calls on cuts of the
# reproduction table, 2-vCPU Xeon VM, one process -> two, writing with
# float_repr: writing 200k values took 0.051 -> 0.062 s, 250k 0.065 ->
# 0.078 s, 300k 0.081 -> 0.070 s and 400k 0.159 -> 0.086 s; reading 200k
# 0.044 -> 0.053 s, 250k 0.056 -> 0.064 s, 300k 0.070 -> 0.074 s and 400k
# 0.143 -> 0.094 s. So a file splits from 300k values on, and a 150-agent
# ring's 49k-value CSV stays in one process.
SPLIT_MIN_CELLS = 150_000
# Mean bytes of one CSV value with its separator, which sizes a file in
# values before it is read: 19.6 in the reproduction telemetry, 20.7 in a
# 150-agent ring's.
_CELL_BYTES = 20


@dataclass(frozen=True)
class SimConfig:
    """One run's inputs plus ``structure``, the wiring built from them once
    (:func:`build_structure`). Scalars are taken as the scenario schema
    checked them, but for the step ``dt``, which must be positive, the
    logging stride ``decimate``, a positive integer, and the
    ``boundary_layer`` width, positive and finite; this checks those and
    the rules across fields. ``xhat0``/``uhat0`` are per-agent
    estimate vectors or one ``(P, N)`` array (``None`` means zeros), kept
    as read-only ``(P, N)`` pair arrays. ``nbs`` may pass in
    the neighborhoods of ``graph`` at horizon ``k`` (as
    :func:`~khopsim.gain_tuning.tune_gains` returns them, with their pair
    table); otherwise they are built here.

    ``target_graph`` selects the input law. ``None`` applies no input.
    A graph drives the agents toward agreement over it by the k-hop
    consensus law; its edges may be absent from the communication graph,
    but every target neighbor not reachable in one hop must be within the
    hop horizon, otherwise the needed estimate does not exist and
    construction fails."""

    graph: Graph
    k: int
    plant: PlantModel
    gains: GainSet
    dt: float
    t_end: float
    x0: np.ndarray
    target_graph: Optional[Graph] = None
    xhat0: Optional[list] = None
    uhat0: Optional[list] = None
    state_box: Optional[tuple] = None
    conv_eps: Optional[float] = None
    band_scale: float = DEFAULT_BAND_SCALE
    decimate: int = 1
    boundary_layer: Optional[float] = None
    structure: "SimStructure" = field(init=False, repr=False, compare=False)
    nbs: InitVar[Optional[Neighborhoods]] = None

    def __post_init__(self, nbs):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not isinstance(self.decimate, (int, np.integer)):
            raise ValueError(f"decimate must be an integer, got {self.decimate!r}")
        if self.decimate < 1:
            raise ValueError(f"decimate must be at least 1, got {self.decimate}")
        if self.boundary_layer is not None and not self.boundary_layer > 0:
            raise ValueError(f"boundary_layer must be positive, got {self.boundary_layer}")
        if self.boundary_layer == np.inf:
            raise ValueError("boundary_layer must be finite, got inf")
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
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        if self.state_box is not None:
            lo, hi = self.state_box
            if ((x0 < lo) | (x0 > hi)).any():
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
            else:  # an ndarray is stacked already, as dataclasses.replace passes it
                if not isinstance(est, np.ndarray):  # per-agent blocks, agent 1 first
                    est = np.concatenate([np.array(blk, dtype=float).reshape(nb.eta * self.plant.N)
                                          for blk, nb in zip(est, structure.nbs)])
                est = np.array(est, dtype=float).reshape(shape)
                if (bad := ~np.isfinite(est).all(axis=1)).any():
                    agent = int(structure.pairs.estimator[np.argmax(bad)]) + 1
                    raise ValueError(f"agent {agent}: non-finite {which} estimate")
            est.setflags(write=False)
            object.__setattr__(self, name, est)


@dataclass(frozen=True)
class Telemetry:
    """Sampled run record plus detected convergence times.

    The samples are stored once, as ``table``: one row per sample, the
    columns of the telemetry CSV in file order (:func:`csv_header` for
    ``n_dim`` state components). ``times``, ``states``, ``inputs``,
    ``errx``, ``erru``, ``cons_dist`` and ``v`` are views of its columns,
    carved when the record is built, so ``dataclasses.replace(tel,
    table=...)`` gives consistent series and no series is replaced alone.

    ``errx``/``erru`` hold, per estimated agent, the norm of the stacked
    error made by all of that agent's estimators (the quantity the
    finite-time certificates bound). ``v`` is the consensus disturbance:
    per agent, ``x - x_hat`` summed over its target-only neighbors, the
    ones its input reads from estimates, so the controller injects ``-v``.
    """

    table: np.ndarray
    n_dim: int
    eta: np.ndarray
    band_x: np.ndarray
    band_u: np.ndarray
    eps_x: np.ndarray
    eps_u: np.ndarray
    T_x_obs: np.ndarray
    T_u_obs: np.ndarray
    X_obs: float
    times: np.ndarray = field(init=False, repr=False)
    states: np.ndarray = field(init=False, repr=False)
    inputs: np.ndarray = field(init=False, repr=False)
    errx: np.ndarray = field(init=False, repr=False)
    erru: np.ndarray = field(init=False, repr=False)
    cons_dist: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, series in _series(self.table, self.n_dim).items():
            object.__setattr__(self, name, series)


@dataclass(frozen=True)
class SimStructure:
    """Static wiring a :class:`SimConfig` builds once from its graph, k and
    gains (:func:`build_structure`). ``control_terms`` has one column per
    agent: the rows of ``[x_hat; x]``, plane 0 of the state array, that its
    consensus input sums, in the order one agent adds them (communication-
    and-target neighbors, then estimates of target-only neighbors), padded
    with its own row, term-major like ``PairLayout.terms``; with no target
    graph it has no rows. ``disturbance_pairs`` are the pairs those
    estimates come from, ``disturbance_bins`` their flat ``(estimator,
    component)`` cells in an ``(n, N)`` array. All arrays are read-only."""

    nbs: Neighborhoods
    pairs: PairLayout
    control_terms: np.ndarray
    disturbance_pairs: np.ndarray
    disturbance_bins: np.ndarray


def consensus_distance(x: np.ndarray) -> np.ndarray:
    """Euclidean distance to the consensus set of every state in a stack
    ``(S, n, N)``, an ``(S,)`` array.

    Each state's distance rounds exactly as it would on its own: numpy's
    sum of its squared components, the same on every CPU (a BLAS dot
    product's rounding depends on the kernel the CPU selects).
    """
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=1, keepdims=True)
    flat = centered.reshape(-1, x.shape[1] * x.shape[2])
    return np.sqrt(np.add.reduce(np.multiply(flat, flat, out=flat), axis=1))


def lambda2(graph: Graph) -> float:
    """The second Laplacian eigenvalue; a :class:`Graph` is connected with
    n >= 2, so its eigenvalue 0 is simple and this one is positive.

    The spectrum comes from LAPACK (``np.linalg.eigvalsh``): ``lambda2``
    feeds only the ISS envelope check, never a gain, and the Laplacian is
    exactly symmetric with integer entries, so it needs neither the Jacobi
    solver's bits nor its symmetry checks.
    """
    return float(np.linalg.eigvalsh(graph.laplacian())[1])


def build_structure(config: SimConfig, nbs: Optional[Neighborhoods] = None) -> SimStructure:
    g, tg, n_dim = config.graph, config.target_graph, config.plant.N
    nbs = all_khop_sets(g, config.k) if nbs is None else nbs
    if tg is not None and tg.n != g.n:
        raise ValueError("target graph must cover the same agents")
    pairs = pair_layout(nbs.table, config.gains, n_dim)
    n_pairs = pairs.target.size
    # Every (agent, target neighbor) link, agent-major, neighbors ascending.
    links = [()] * g.n if tg is None else [tg.neighbors(a) for a in range(1, g.n + 1)]
    i = np.arange(g.n).repeat(np.fromiter(map(len, links), np.intp, g.n))
    j = np.fromiter(chain.from_iterable(links), np.intp, len(i)) - 1
    pair = nbs.table.index[i, j]
    if (missing := pair == -1).any():
        a = np.argmax(missing)
        raise ProtocolError(f"agent {i[a] + 1}: target neighbor {j[a] + 1} is neither 1-hop "
                            f"nor within the {config.k}-hop horizon")
    # Per agent its communication-and-target neighbors' truth rows, then the
    # pairs estimating its target-only neighbors, padded with its own row.
    one_hop = pair == -2
    order = (2 * i + ~one_hop).argsort(kind="stable")
    control_terms = term_table(i[order], np.where(one_hop, n_pairs + j, pair)[order],
                               n_pairs + np.arange(g.n))
    disturbance = pair[~one_hop]
    bins = (pairs.estimator[disturbance, None] * n_dim + np.arange(n_dim)).reshape(-1)
    for arr in (control_terms, disturbance, bins):
        arr.setflags(write=False)
    return SimStructure(nbs, pairs, control_terms, disturbance, bins)


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
    """Refuse to step with a missing gain, a band that overflows or a negative
    switching gain, which the kernel's ``copysign`` would not apply."""
    _bands(config)
    pairs = config.structure.pairs
    for which, gain, low in zip(("omega", "theta", "pi"), (pairs.omega, *pairs.switch),
                                (-np.inf, 0.0, 0.0)):
        bad = ~(np.isfinite(gain[:, 0]) & (gain[:, 0] >= low))
        if bad.any():
            p = np.argmax(bad)
            raise NumericalError(f"{which} gain {'negative' if gain[p, 0] < low else 'missing'} "
                                 f"for a member of agent {pairs.estimator[p] + 1}'s neighborhood")


def _bind_control(config: SimConfig, z: np.ndarray):
    """The consensus law bound once to a run's state array ``z``: each call
    sets every agent's input, plane 1's truth rows, from plane 0, summing
    its terms in table order from ``+0.0``."""
    s = config.structure
    p = s.pairs.target.size
    x_rows, x, u = z[0], z[0, p:], z[1, p:]
    terms = s.control_terms.copy()  # writeable, so ``take`` uses it as it is
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
    pairs = config.structure.pairs
    work = PairWorkspace(pairs, config.plant, z, config.boundary_layer)
    kernel = pair_derivative
    # A 0-d array multiplies as the float does, without its conversion.
    dt = np.array(config.dt)
    flat, x_flat = z.reshape(-1), z[0, pairs.target.size:].reshape(-1)
    box = config.state_box
    lo, hi = box if box is not None else (None, None)
    # The states clipped into the box keep the states' bytes unless one lies
    # outside it or clip flips the sign of a zero at a zero bound. Either
    # way _check_state's exact comparisons decide, so a flipped zero would
    # cost time, not a verdict.
    clipped = np.empty_like(x_flat)
    clip, x_bytes = x_flat.clip, x_flat.tobytes
    multiply, add, dot, isfinite = np.multiply, np.add, np.dot, math.isfinite

    def advance(t_next: float) -> None:
        # Every pair sees its 1-hop neighbors' estimates and relays of the
        # same instant (zero-delay propagation), as in one message round.
        dz = kernel(work)
        multiply(dz, dt, dz)
        add(z, dz, z)
        # The sum of squares is finite unless a value is, or it overflows;
        # _check_state tells the two apart.
        if not isfinite(dot(flat, flat)) or (
            box is not None and clip(lo, hi, out=clipped).tobytes() != x_bytes()
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


def _bind_log_reducer(config: SimConfig, size: int):
    """The reduction of logged state arrays, bound once for blocks of up to
    ``size``: each call ``reduce(logged)`` on ``(S, 2, P + n, N)``,
    ``S <= size``, returns per sample the stacked error norms ``(S, 2, n)``
    (per plane and estimated agent, the norm of the errors of all its
    estimators; plane 0 gives the state errors, plane 1 the input errors)
    and the consensus disturbance ``(S, n, N)``, per agent the sum of the
    estimate errors ``x - x_hat`` its input uses.

    The reducer owns an error buffer, writeable copies of the gather
    indices, and ``np.bincount`` bin tables for a full block that run
    sample-major, so a block of ``S`` samples uses their prefix and every
    cell adds its terms in the order a per-sample reduction would. A norm's
    bin adds its squared error components from ``0.0``, pair by pair and
    component by component, so no BLAS kernel takes part and the bits are
    the same on every CPU.
    """
    s = config.structure
    pairs = s.pairs
    p, n, n_dim = pairs.target.size, pairs.n, config.plant.N
    err = np.empty((size, 2, p, n_dim))
    # Writeable, so ``take`` uses them as they are.
    target, dist_pairs = pairs.target.copy(), s.disturbance_pairs.copy()
    dist = np.empty((size, len(dist_pairs), n_dim))
    norm_bins = np.repeat(np.arange(2 * size)[:, None] * n + pairs.target, n_dim)
    dist_bins = (np.arange(size)[:, None] * n * n_dim + s.disturbance_bins).reshape(-1)
    subtract, multiply, bincount, sqrt = np.subtract, np.multiply, np.bincount, np.sqrt

    def reduce(logged: np.ndarray) -> tuple:
        m = len(logged)
        e, d = err[:m], dist[:m]
        # The indices are the layout's own, all in range; see pair_derivative.
        logged[:, :, p:].take(target, 2, e, "clip")
        subtract(e, logged[:, :, :p], e)
        e[:, 0].take(dist_pairs, 1, d, "clip")
        v = bincount(dist_bins[: d.size], d.reshape(-1), m * n * n_dim).reshape(m, n, n_dim)
        multiply(e, e, e)
        # With no pairs the sums are an integer array: no sqrt into it.
        norms = sqrt(bincount(norm_bins[: e.size], e.reshape(-1), 2 * m * n)).reshape(m, 2, n)
        return norms, v

    return reduce


def initial_error_norms(config: SimConfig) -> tuple:
    """Stacked estimation-error norms per estimated agent at t = 0.

    The input error uses the controller's t = 0 output, matching how the
    run itself initializes the input vector.
    """
    z = init_world(config)
    _bind_control(config, z)()
    err, _ = _bind_log_reducer(config, 1)(z[None])
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
    return np.fmax(CONV_EPS_FLOOR, CONV_EPS_REL * err[0])


def _bands(config: SimConfig) -> tuple:
    """``(eta, band_x, band_u)``: per agent, the neighborhood size and the
    chattering bands ``band_scale * gain * dt`` of the state (``theta``) and
    input (``pi``) observers, zero where ``eta`` is. Raises
    :class:`NumericalError` for the first agent whose band overflows from a
    finite gain; a gain that is not finite is refused elsewhere."""
    eta = np.array([nb.eta for nb in config.structure.nbs], dtype=int)
    bands = []
    for which, gain in (("theta", config.gains.theta), ("pi", config.gains.pi)):
        with np.errstate(over="ignore"):
            bands.append(np.where(eta > 0, config.band_scale * gain * config.dt, 0.0))
        if (bad := np.isfinite(gain) & ~np.isfinite(bands[-1])).any():
            raise NumericalError(f"band_scale = {config.band_scale:g} makes the {which} "
                                 f"band of agent {int(np.argmax(bad)) + 1} overflow")
    return eta, *bands


def _assemble_telemetry(config: SimConfig, table: np.ndarray) -> Telemetry:
    """The logged table plus the convergence rule applied to its series.

    This is the only place eps, band and detection are decided, whether the
    table comes from :func:`run` or from :func:`telemetry_from_columns`.
    """
    series = _series(table, config.plant.N)
    times, errx, erru = series["times"], series["errx"], series["erru"]
    eta, band_x, band_u = _bands(config)
    eps_x, eps_u = _conv_eps(config, errx), _conv_eps(config, erru)
    return Telemetry(table, config.plant.N, eta, band_x, band_u, eps_x, eps_u,
                     T_x_obs=detect_convergence(times, errx, eps_x, band_x),
                     T_u_obs=detect_convergence(times, erru, eps_u, band_u),
                     X_obs=float(errx.max()))


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
    table = np.empty((n_samples, sum(map(math.prod, _shapes(n, n_dim).values()))))
    times, states, inputs, errx, erru, cons_dist, v_log = _series(table, n_dim).values()
    block = np.empty((min(n_samples, max(1, LOG_BLOCK_BYTES // z.nbytes)), *z.shape))
    row = reduced = 0

    def reduce_block() -> None:
        # Logged rows [reduced, row) sit in ``block``; reduce them together.
        nonlocal reduced
        logged = block[: row - reduced]
        rows = slice(reduced, row)
        states[rows] = logged[:, 0, p:]
        inputs[rows] = logged[:, 1, p:]
        err, v_log[rows] = reduce_log(logged)
        errx[rows], erru[rows] = err[:, 0], err[:, 1]
        cons_dist[rows] = consensus_distance(states[rows])
        reduced = row

    def telemetry() -> Telemetry:
        if row > reduced:
            reduce_block()
        return _assemble_telemetry(config, table[:row])

    control, advance = _bind_control(config, z), _bind_advance(config, z)
    reduce_log = _bind_log_reducer(config, len(block))
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


def _shapes(n: int, n_dim: int) -> dict:
    """Each logged series' per-sample shape, by :class:`Telemetry` field in
    CSV column order."""
    agent, cell = (n,), (n, n_dim)
    return dict(times=(), states=cell, inputs=cell, errx=agent, erru=agent, cons_dist=(), v=cell)


def _column_layout(n: int, n_dim: int) -> list:
    """``(Telemetry field, per-sample shape, CSV column names)`` in file
    order; a column is its field's prefix plus 1-based indices, agent-major
    (``x_3_2`` is agent 3's second state component)."""
    agent = [f"_{a}" for a in range(1, n + 1)]
    cell = [f"{a}_{c}" for a in agent for c in range(1, n_dim + 1)]
    suffixes = {(): [""], (n,): agent, (n, n_dim): cell}
    return [(field, shape, [prefix + suffix for suffix in suffixes[shape]])
            for (field, shape), prefix in zip(_shapes(n, n_dim).items(),
                                              ("t", "x", "u", "errx", "erru", "consdist", "v"))]


def csv_header(n: int, n_dim: int) -> list:
    return [name for _, _, names in _column_layout(n, n_dim) for name in names]


def _series(table: np.ndarray, n_dim: int) -> dict:
    """The :class:`Telemetry` series of a table of CSV rows, by field: views
    of its columns, shaped per sample as :func:`_shapes` gives them."""
    n = (table.shape[1] - 2) // (3 * n_dim + 2)  # the row holds 2 + n (3 N + 2) values
    series, start = {}, 0
    for name, shape in _shapes(n, n_dim).items():
        width = math.prod(shape)
        series[name] = table[:, start:start + width].reshape(len(table), *shape)
        start += width
    return series


def telemetry_columns(tel: Telemetry) -> dict:
    """In-memory Telemetry -> the column-name -> array form of :func:`read_csv`."""
    return dict(zip(csv_header(tel.states.shape[1], tel.n_dim), tel.table.T))


def telemetry_from_columns(config: SimConfig, cols: Mapping) -> Telemetry:
    """Inverse of :func:`telemetry_columns`: rebuild the record from columns
    (as :func:`read_csv` returns them) and apply the same convergence rule
    :func:`run` applies. Columns that are not the scenario's
    (:func:`csv_header`), hold no samples, or whose times are not finite and
    strictly increasing raise :class:`TelemetryError`.
    """
    header = csv_header(config.graph.n, config.plant.N)
    if set(cols) != set(header):
        raise TelemetryError("telemetry schema does not match the scenario")
    t = np.asarray(cols["t"])
    if not t.size:
        raise TelemetryError("telemetry holds no samples")
    stalled = np.concatenate(([False], t[1:] <= t[:-1]))
    for bad, problem in ((~np.isfinite(t), "is not finite"), (stalled, "does not increase")):
        if bad.any():
            raise TelemetryError(f"telemetry time t {problem} at sample {int(np.argmax(bad)) + 1}")
    return _assemble_telemetry(config, np.column_stack([cols[name] for name in header]))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(cells: int) -> int:
    """Processes for a CSV of about ``cells`` values: one per
    ``SPLIT_MIN_CELLS``, at most one per usable CPU, and one where
    ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), cells // SPLIT_MIN_CELLS))


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


def _format_part(rows: np.ndarray, out) -> None:
    out.write(format_rows(rows))


def _write_table(path, header: list, table: np.ndarray, workers: int) -> None:
    """The caller writes the header and the first rows; children format the
    other row ranges, which the caller appends in order as they arrive.
    The children share the digit tables the caller builds first."""
    digit_tables()
    cuts = [len(table) * i // workers for i in range(workers + 1)]
    parts = [table[a:b] for a, b in zip(cuts[1:], cuts[2:]) if a < b]
    with open(path, "wb") as fh, _forked(parts, _format_part) as texts:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        write_rows(fh, table[: cuts[1]])
        for text in texts:
            shutil.copyfileobj(text, fh)


def write_csv(tel: Telemetry, path) -> None:
    """Write telemetry rows, each value spelled as ``repr`` spells it (the
    shortest round trip, :mod:`khopsim.float_repr`).

    Tables of ``2 * SPLIT_MIN_CELLS`` values or more are formatted on
    several CPUs (:func:`_workers`); the bytes are the same.
    """
    header = csv_header(tel.states.shape[1], tel.n_dim)
    try:
        _write_table(path, header, tel.table, _workers(tel.table.size))
    except _PartFailed:
        _write_table(path, header, tel.table, 1)


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
        if len(set(header)) < len(header):
            repeated = next(name for i, name in enumerate(header) if name in header[:i])
            raise ValueError(f"telemetry CSV malformed: duplicate column {repeated}")
        start, size = fh.tell(), os.fstat(fh.fileno()).st_size
        cuts = _line_cuts(fh, start, size, _workers((size - start) // _CELL_BYTES))
        try:
            data = _read_rows(fh, cuts, len(header))
        except _PartFailed:
            fh.seek(start)
            data = _parse_rows(fh, len(header))
    return {name: data[:, idx] for idx, name in enumerate(header)}
