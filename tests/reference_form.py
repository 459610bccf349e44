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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from khopsim.dense_linalg import sym_eig
from khopsim.errors import KhopsimError, NumericalError, ProtocolError
from khopsim.gain_tuning import GainSet, PlantModel
from khopsim.graph_khop import KHopNeighborhood, ObserverCoupling


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
    G = gains.G
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
    coupling: ObserverCoupling,
    plant: PlantModel,
    G: np.ndarray,
    omega_i: float,
) -> GainInequalityReport:
    """Directly check the matrix inequality certified by the omega bound.

    Assembles ``(M (x) G)(I (x) A - omega (M (x) G)) + l_f ||M (x) G|| I``,
    symmetrizes, and reports whether its largest eigenvalue is negative.
    The omega bound is sufficient, not necessary, so a False answer for
    hand-picked gains is a valid outcome.
    """
    eta = coupling.M.shape[0]
    mg = np.kron(coupling.M, G)
    a_big = np.kron(np.eye(eta), plant.A)
    norm_mg = np.linalg.norm(mg, 2)
    full = mg @ (a_big - omega_i * mg) + plant.l_f * norm_mg * np.eye(eta * plant.N)
    w = sym_eig(0.5 * (full + full.T))
    return GainInequalityReport(holds=bool(w[-1] < 0.0), lambda_max=float(w[-1]))
