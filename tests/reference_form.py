"""The message form of the observer and controller laws: the test oracle.

Each agent keeps stacked estimates of the states and inputs of its
multi-hop neighbors, ordered by ascending global index. One update round
consumes exactly one message per 1-hop neighbor; the correction signal for
the block estimating agent ``l`` is

    xi_l = sum over senders that also estimate l of (their estimate - ours)
         + sum over senders adjacent to l of (relayed true value - ours)

and the input-side signal ``rho`` has the same shape with inputs in place
of states. Which sums apply is decided from message content alone.

This module follows that protocol agent by agent, with one
:class:`NeighborMessage` per sender, as the paper states the laws. The
package runs and ships only the pair form
(:func:`khopsim.khop_observer.pair_derivative`); the differential and
property tests compare it against the functions here, including
:func:`consensus_control` for the consensus input and
:func:`verify_gain_inequality`, which assembles the matrix inequality that
the omega bound certifies, and :func:`sign`, the switching function
with ``sign(0) = +1`` that the pair kernel applies inline.

:func:`repr_rows` is the telemetry CSV body as ``repr`` spells it, the
oracle of the vectorized formatter.

:func:`reference_gains` and :func:`reference_certificate` are the gain
formulas agent by agent, in the order of operations that
:func:`khopsim.gain_tuning.tune_gains` and
:func:`khopsim.gain_tuning.certificate` keep on per-agent arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from khopsim.dense_linalg import sym_eigs
from khopsim.errors import CertificateInfeasible, KhopsimError, NumericalError, ProtocolError
from khopsim.gain_tuning import BoundSet, ConvergenceCertificate, GainSet, PlantModel
from khopsim.graph_khop import KHopNeighborhood


def sign(v: np.ndarray, boundary_layer: Optional[float] = None) -> np.ndarray:
    """Componentwise sign with sign(0) = +1.

    With a boundary layer the discontinuity is replaced by the saturation
    ``clip(v / delta, -1, 1)``, useful for chattering studies but never the
    default.
    """
    v = np.asarray(v, dtype=float)
    if boundary_layer is not None:
        if boundary_layer <= 0:
            raise ValueError("boundary layer width must be positive")
        return np.clip(v / boundary_layer, -1.0, 1.0)
    return np.where(v >= 0.0, 1.0, -1.0)


class MissingNeighborData(KhopsimError):
    """A required 1-hop neighbor message is absent."""


@dataclass
class ObserverState:
    """Stacked estimates held by one agent, ordered by its member list."""

    agent: int
    x_hat: np.ndarray
    u_hat: np.ndarray


@dataclass(frozen=True)
class NeighborMessage:
    """Everything one agent can tell a 1-hop neighbor in one round.

    ``relayed_states``/``relayed_inputs`` cover exactly the sender's 1-hop
    neighborhood at the same instant (zero-delay propagation), and
    ``est_states``/``est_inputs`` are the sender's stacked estimates in the
    sender's own member ordering, re-indexable via ``members``.
    """

    sender: int
    state: np.ndarray
    input: np.ndarray
    relayed_states: Mapping
    relayed_inputs: Mapping
    est_states: np.ndarray
    est_inputs: np.ndarray
    members: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "_member_pos", {m: p for p, m in enumerate(self.members)}
        )

    def estimates_agent(self, l: int) -> bool:
        return l in self._member_pos

    def est_state_block(self, l: int, n_dim: int) -> np.ndarray:
        p = self._member_pos[l]
        blk = self.est_states[p * n_dim : (p + 1) * n_dim]
        if blk.shape[0] != n_dim:
            raise ProtocolError(
                f"sender {self.sender}: estimate block for {l} has wrong size"
            )
        return blk

    def est_input_block(self, l: int, n_dim: int) -> np.ndarray:
        p = self._member_pos[l]
        blk = self.est_inputs[p * n_dim : (p + 1) * n_dim]
        if blk.shape[0] != n_dim:
            raise ProtocolError(
                f"sender {self.sender}: input-estimate block for {l} has wrong size"
            )
        return blk


@dataclass(frozen=True)
class ObserverDerivative:
    """One round's worth of observer updates for a single agent."""

    dx_hat: np.ndarray
    du_hat: np.ndarray


def _check_messages(msgs: Mapping, nb: KHopNeighborhood) -> None:
    missing = set(nb.one_hop) - set(msgs.keys())
    if missing:
        raise MissingNeighborData(
            f"agent {nb.agent}: no message from neighbors {sorted(missing)}"
        )


def _consensus_signal(
    own: np.ndarray,
    msgs: Mapping,
    nb: KHopNeighborhood,
    est_getter,
    relayed_field: str,
) -> np.ndarray:
    eta = nb.eta
    if eta == 0:
        return np.zeros(0)
    n_dim = own.shape[0] // eta
    out = np.zeros_like(own)
    for b, l in enumerate(nb.members):
        own_blk = own[b * n_dim : (b + 1) * n_dim]
        acc = out[b * n_dim : (b + 1) * n_dim]
        for j in nb.one_hop:
            msg = msgs[j]
            if msg.estimates_agent(l):
                acc += est_getter(msg, l, n_dim) - own_blk
            relayed = getattr(msg, relayed_field).get(l)
            if relayed is not None:
                rel = np.asarray(relayed, dtype=float)
                if rel.shape[0] != n_dim:
                    raise ProtocolError(
                        f"sender {j}: relayed value for {l} has wrong size"
                    )
                acc += rel - own_blk
    return out


def compute_xi(
    state: ObserverState, msgs: Mapping, nb: KHopNeighborhood
) -> np.ndarray:
    """State-correction signal assembled from this round's messages."""
    _check_messages(msgs, nb)
    return _consensus_signal(
        state.x_hat, msgs, nb, NeighborMessage.est_state_block, "relayed_states"
    )


def compute_rho(
    state: ObserverState, msgs: Mapping, nb: KHopNeighborhood
) -> np.ndarray:
    """Input-correction signal; same structure as xi with inputs throughout."""
    _check_messages(msgs, nb)
    return _consensus_signal(
        state.u_hat, msgs, nb, NeighborMessage.est_input_block, "relayed_inputs"
    )


def state_observer_derivative(
    state: ObserverState,
    msgs: Mapping,
    nb: KHopNeighborhood,
    plant: PlantModel,
    gains: GainSet,
    boundary_layer: Optional[float] = None,
) -> np.ndarray:
    """Time derivative of the stacked state estimate of one agent.

    Per member block: ``f(xh) + A xh + omega_l G xi_l + theta_l sign(G xi_l)
    + uh`` where ``uh`` is the agent's own input estimate for that block.
    """
    if nb.eta == 0:
        return np.zeros(0)
    xi = compute_xi(state, msgs, nb)
    if not np.isfinite(float(state.x_hat.sum())):
        raise NumericalError(f"agent {nb.agent}: non-finite state estimate")
    n_dim = plant.N
    G = gains.g * np.eye(n_dim)  # the matrix form; the pair kernel multiplies by g
    omega = gains.omega[np.array(nb.members) - 1]
    theta = gains.theta[np.array(nb.members) - 1]
    xh = state.x_hat.reshape(nb.eta, n_dim)
    g_xi = xi.reshape(nb.eta, n_dim) @ G.T
    dx = xh @ plant.A.T
    if plant.f is not None:
        dx += plant.f(xh)
    dx += omega[:, None] * g_xi
    dx += theta[:, None] * sign(g_xi, boundary_layer)
    dx += state.u_hat.reshape(nb.eta, n_dim)
    return dx.reshape(-1)


def input_observer_derivative(
    state: ObserverState,
    msgs: Mapping,
    nb: KHopNeighborhood,
    gains: GainSet,
    boundary_layer: Optional[float] = None,
) -> np.ndarray:
    """Time derivative of the stacked input estimate: ``pi_l sign(rho_l)``."""
    if nb.eta == 0:
        return np.zeros(0)
    rho = compute_rho(state, msgs, nb)
    n_dim = state.u_hat.shape[0] // nb.eta
    pi = gains.pi[np.array(nb.members) - 1]
    du = pi[:, None] * sign(rho.reshape(nb.eta, n_dim), boundary_layer)
    return du.reshape(-1)


def observer_derivative(
    state: ObserverState,
    msgs: Mapping,
    nb: KHopNeighborhood,
    plant: PlantModel,
    gains: GainSet,
    boundary_layer: Optional[float] = None,
) -> ObserverDerivative:
    """Both observer derivatives of one agent."""
    _check_messages(msgs, nb)
    dx = state_observer_derivative(
        state, msgs, nb, plant, gains, boundary_layer=boundary_layer
    )
    du = input_observer_derivative(
        state, msgs, nb, gains, boundary_layer=boundary_layer
    )
    return ObserverDerivative(dx_hat=dx, du_hat=du)


def consensus_control(
    i: int,
    x_own: np.ndarray,
    onehop_states: Mapping,
    est_states: Mapping,
    target_neighbors,
    ct_neighbors,
) -> np.ndarray:
    """Consensus input using true states where available, estimates elsewhere.

    Reference form of one agent's input; the simulator evaluates all agents
    at once from ``SimStructure.control_terms`` in the same order.
    """
    u = np.zeros_like(np.asarray(x_own, dtype=float))
    for j in ct_neighbors:
        u += onehop_states[j] - x_own
    for j in target_neighbors:
        if j in ct_neighbors:
            continue
        est = est_states.get(j)
        if est is None:
            raise ProtocolError(
                f"agent {i}: controller needs an estimate of agent {j}"
            )
        u += est - x_own
    return u


@dataclass(frozen=True)
class GainInequalityReport:
    holds: bool
    lambda_max: float


def verify_gain_inequality(
    m: np.ndarray,
    plant: PlantModel,
    G: np.ndarray,
    omega_i: float,
) -> GainInequalityReport:
    """Directly check the matrix inequality certified by the omega bound.

    Assembles ``(M (x) G)(I (x) A - omega (M (x) G)) + l_f ||M (x) G|| I``
    for the coupling matrix ``M = m``, symmetrizes, and reports whether its
    largest eigenvalue is negative. The omega bound is sufficient, not
    necessary, so a False answer for hand-picked gains is a valid outcome.
    """
    eta = m.shape[0]
    mg = np.kron(m, G)
    a_big = np.kron(np.eye(eta), plant.A)
    norm_mg = np.linalg.norm(mg, 2)
    full = mg @ (a_big - omega_i * mg) + plant.l_f * norm_mg * np.eye(eta * plant.N)
    w = sym_eigs([0.5 * (full + full.T)])[0]
    return GainInequalityReport(holds=bool(w[-1] < 0.0), lambda_max=float(w[-1]))


def _spectrum(m: np.ndarray) -> tuple:
    w = sym_eigs([m])[0]
    return float(w[0]), float(w[-1])


def _omega_bound(lmin: float, lmax: float, plant: PlantModel, g: float) -> float:
    return (1.0 / lmin) * (1.0 + plant.l_f * (lmax * g) / (lmin * (g * g)))


def _tilde_u(bounds: BoundSet, idx: int, eta: int, uhat0_mag: float) -> float:
    if bounds.d_tilde_u is not None:
        return float(bounds.d_tilde_u[idx])
    return float(np.sqrt(max(eta, 1)) * (bounds.d_u[idx] + uhat0_mag))


def reference_gains(matrices, plant: PlantModel, g: float, bounds: BoundSet,
                    slack: float, uhat0_mag: float = 0.0) -> tuple:
    """``(omega, theta, pi)`` agent by agent from the coupling ``matrices``
    (``None`` where an agent has none), the loop ``tune_gains`` once ran:
    NaN where an agent has no matrix, and ``pi`` NaN without a
    ``d_udot``."""
    omega, theta, pi = (np.full(len(matrices), np.nan) for _ in range(3))
    for idx, m in enumerate(matrices):
        if m is None:
            continue
        eta = m.shape[0]
        lmin, lmax = _spectrum(m)
        omega[idx] = _omega_bound(lmin, lmax, plant, g)
        ratio = (lmax * g) / (lmin * g)
        theta[idx] = ratio * _tilde_u(bounds, idx, eta, uhat0_mag) + slack
        if bounds.d_udot is not None:
            ratio = lmax / lmin
            pi[idx] = ratio * np.sqrt(eta) * float(bounds.d_udot[idx]) + slack
    return omega, theta, pi


def reference_certificate(matrices, plant: PlantModel, gains: GainSet, bounds: BoundSet,
                          x_err0, u_err0, uhat0_mag: float = 0.0) -> ConvergenceCertificate:
    """The certificate agent by agent from the coupling ``matrices``, the
    loops ``certificate`` once ran: the first ``omega`` below its bound over
    all agents, then per agent a ``phi`` and then a ``psi`` that is not
    positive, raise :class:`CertificateInfeasible`."""
    n, g = len(matrices), gains.g
    spectra = [None if m is None else _spectrum(m) for m in matrices]
    for idx, spec in enumerate(spectra):
        if spec is not None and gains.omega[idx] < (bound := _omega_bound(*spec, plant, g)):
            raise CertificateInfeasible(idx + 1, "omega", gains.omega[idx], bound)
    have_udot = bounds.d_udot is not None
    phi, t_x = np.full(n, np.nan), np.full(n, np.nan)
    psi, t_u = (np.full(n, np.nan), np.full(n, np.nan)) if have_udot else (None, None)
    for idx, (m, spec) in enumerate(zip(matrices, spectra)):
        if m is None:
            continue
        eta = m.shape[0]
        lmin, lmax = spec
        d_tu = _tilde_u(bounds, idx, eta, uhat0_mag)
        phi_i = gains.theta[idx] * lmin * g - lmax * g * d_tu
        if phi_i <= 0:
            raise CertificateInfeasible(idx + 1, "phi", phi_i)
        phi[idx] = phi_i
        t_x[idx] = lmax * g / phi_i * x_err0[idx]
        if have_udot:
            psi_i = gains.pi[idx] * lmin - lmax * np.sqrt(eta) * float(bounds.d_udot[idx])
            if psi_i <= 0:
                raise CertificateInfeasible(idx + 1, "psi", psi_i)
            psi[idx] = psi_i
            t_u[idx] = lmax / psi_i * u_err0[idx]
    active = [i for i, m in enumerate(matrices) if m is not None]
    t_x_global = float(np.max(t_x[active])) if active else 0.0
    t_u_global = (float(np.max(t_u[active])) if active else 0.0) if have_udot else None
    return ConvergenceCertificate(
        phi=phi, psi=psi, T_x=t_x, T_u=t_u, T_x_global=t_x_global,
        T_u_global=t_u_global, T_xu=t_u_global + t_x_global if have_udot else None,
    )


# The setup tables one agent and one pair at a time: the loops that
# ``coupling_matrices``, ``pair_layout`` and ``build_structure`` once ran.


def coupling_matrix(g, nb: KHopNeighborhood) -> np.ndarray:
    """One agent's ``M = L + H``: the Laplacian of the subgraph its members
    induce, plus the count of its 1-hop neighbors adjacent to each member."""
    idx = {m: p for p, m in enumerate(nb.members)}
    lap = np.zeros((nb.eta, nb.eta))
    for p, a in enumerate(nb.members):
        for b in g.neighbors(a):
            q = idx.get(b)
            if q is not None and q > p:
                lap[p, p] += 1.0
                lap[q, q] += 1.0
                lap[p, q] -= 1.0
                lap[q, p] -= 1.0
    own = set(g.neighbors(nb.agent))
    return lap + np.diag([float(len(own.intersection(g.neighbors(m)))) for m in nb.members])


def pair_tables(nbs) -> tuple:
    """``(estimator, target, offsets, terms)`` pair by pair: for pair
    ``(i, l)`` and each 1-hop neighbor ``j`` of ``i``, ascending, first the
    pair ``(j, l)`` if ``j`` estimates ``l``, then ``l``'s truth row if
    ``j`` is adjacent to ``l``; columns padded with the pair itself."""
    n = len(nbs)
    pos = {}
    for nb in nbs:
        for l in nb.members:
            pos[(nb.agent, l)] = len(pos)
    size = len(pos)
    rows = []
    for nb in nbs:
        for l in nb.members:
            row = []
            for j in nb.one_hop:
                mine = pos.get((j, l))
                if mine is not None:
                    row.append(mine)
                if l in nbs[j - 1].one_hop:
                    row.append(size + l - 1)
            rows.append(row)
    width = max((len(r) for r in rows), default=0)
    terms = np.array(
        [r + [p] * (width - len(r)) for p, r in enumerate(rows)], dtype=np.intp
    ).reshape(size, width).T.copy()
    estimator, target = (np.array(list(pos), dtype=np.intp).reshape(size, 2) - 1).T.copy()
    offsets = np.searchsorted(estimator, np.arange(n + 1))
    return estimator, target, offsets, terms


def control_wiring(graph, target_graph, k: int, nbs, offsets) -> tuple:
    """``(control_terms, disturbance_pairs, disturbance_bins / n_dim)`` agent
    by agent: its communication-and-target neighbors' truth rows, then the
    pairs estimating its target-only neighbors, padded with its own row;
    ``ProtocolError`` for the first agent with a target neighbor neither
    1-hop nor within the horizon."""
    n_pairs = int(offsets[-1])
    rows, disturbance, owners = [], [], []
    for i in range(1, graph.n + 1):
        tn = set(target_graph.neighbors(i))
        cn = set(graph.neighbors(i))
        row = [n_pairs + j - 1 for j in sorted(tn & cn)]
        members = nbs[i - 1].members
        for j in sorted(tn - cn):
            if j not in members:
                raise ProtocolError(
                    f"agent {i}: target neighbor {j} is neither 1-hop nor "
                    f"within the {k}-hop horizon"
                )
            p = int(offsets[i - 1]) + members.index(j)
            row.append(p)
            disturbance.append(p)
            owners.append(i - 1)
        rows.append(row)
    width = max(len(r) for r in rows)
    terms = np.array(
        [r + [n_pairs + i] * (width - len(r)) for i, r in enumerate(rows)], dtype=np.intp
    ).T.copy()
    return terms, np.array(disturbance, dtype=np.intp), np.array(owners, dtype=np.intp)


def repr_rows(rows: np.ndarray) -> bytes:
    """A float table's CSV body as the repr join spells it, one value at a
    time: the oracle of :func:`khopsim.float_repr.format_rows`."""
    lines = (",".join(map(repr, row)) + "\n" for row in np.asarray(rows).tolist())
    return "".join(lines).encode("utf-8")
