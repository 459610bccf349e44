"""Per-agent finite-time state and input observers driven by 1-hop messages.

Each agent keeps stacked estimates of the states and inputs of its
multi-hop neighbors, ordered by ascending global index. One update round
consumes exactly one message per 1-hop neighbor; the correction signal for
the block estimating agent ``l`` is

    xi_l = sum over senders that also estimate l of (their estimate - ours)
         + sum over senders adjacent to l of (relayed true value - ours)

and the input-side signal ``rho`` has the same shape with inputs in place
of states. The state estimate then follows the plant model plus a linear
and a signed correction; the input estimate moves by a signed correction
only. sign(0) = +1 throughout, so at exact agreement the estimates still
chatter by one step.

Which sums apply is decided from message content alone (a sender's message
shows which agents it estimates and which it can relay), so the update
never needs non-local knowledge.

Two forms implement the same update. The message form
(:class:`NeighborMessage`, :func:`compute_xi`, :func:`observer_derivative`)
follows the protocol agent by agent and is the reference the tests compare
against. The pair form (:class:`PairLayout`, :func:`pair_derivative`) is
what the simulator runs: the wiring never changes during a run, so every
(estimator, target) pair's message-form sum is written down once as an
ordered row of source indices into ``[estimates; truth]``. A run keeps one
state array ``z`` of shape ``(2, P + n, N)``: plane 0 is ``[x_hat; x]``
and plane 1 is ``[u_hat; u]``, so one gather along the row axis yields the
terms of ``xi`` and ``rho`` together, and one ``sign`` call switches both.
The rows keep the message form's term order, so both forms give the same
floating-point result; see :func:`pair_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import MissingNeighborData, NumericalError, ProtocolError
from .gain_tuning import GainSet, PlantModel
from .graph_khop import KHopNeighborhood


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


@dataclass(frozen=True)
class PairLayout:
    """Every (estimator, target) pair of a network, built once per run.

    Pairs are estimator-major with each agent's members ascending, so agent
    ``i``'s stacked estimate is the contiguous row block :meth:`rows`, and
    ``(P, N)`` estimate arrays are the per-agent stacks concatenated. Each
    pair carries the gains of its target (estimators of agent ``l`` apply
    ``omega_l``, ``theta_l`` and ``pi_l``) as ``(P, 1)`` columns, so a
    missing gain shows as NaN. ``switch`` stacks the switching gains
    ``[theta; pi]`` as ``(2, P, 1)``, one plane per observer, and
    ``theta``/``pi`` are its planes.

    Column ``terms[:, p]`` lists, in the message form's summation order,
    the rows of ``[estimates; truth]`` whose differences to pair ``p``'s
    own estimate make up its correction signal; see :func:`pair_layout`.
    It is stored term-major, ``(D, P)``, so that each term of every pair is
    one contiguous gather.
    """

    n: int
    estimator: np.ndarray
    target: np.ndarray
    offsets: np.ndarray
    terms: np.ndarray
    G: np.ndarray
    omega: np.ndarray
    switch: np.ndarray

    @property
    def theta(self) -> np.ndarray:
        return self.switch[0]

    @property
    def pi(self) -> np.ndarray:
        return self.switch[1]

    def rows(self, agent: int) -> slice:
        """Rows holding ``agent``'s (1-based) stacked estimates."""
        return slice(int(self.offsets[agent - 1]), int(self.offsets[agent]))


def pair_layout(nbs, gains: GainSet) -> PairLayout:
    """Pair wiring, ordered term table and per-pair gains for neighborhoods
    ``nbs`` (indexed agent-1 first).

    For pair ``p = (i, l)`` the term list walks ``i``'s 1-hop neighbors
    ``j`` in ascending order, exactly as :func:`compute_xi` walks its inbox:
    first ``j``'s own pair ``(j, l)`` if ``j`` estimates ``l``, then the
    true row of ``l`` if ``j`` can relay it. Lists are padded to a common
    length with ``p`` itself, whose term ``own - own`` adds ``+0.0`` and
    leaves the sum unchanged. The order must be kept; the
    :mod:`khopsim.plant_sim` docstring says why regrouping is unsafe.
    """
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
    return PairLayout(
        n=n,
        estimator=estimator,
        target=target,
        offsets=offsets,
        terms=terms,
        G=gains.G,
        omega=gains.omega[target, None],
        switch=np.stack((gains.theta[target, None], gains.pi[target, None])),
    )


def pair_derivative(
    layout: PairLayout,
    plant: PlantModel,
    z: np.ndarray,
    boundary_layer: Optional[float] = None,
) -> np.ndarray:
    """Time derivative of a run's whole state array ``z``, ``(2, P + n, N)``.

    Plane 0 of ``z`` is ``[x_hat; x]`` and plane 1 is ``[u_hat; u]``: the
    ``(P, N)`` pair estimates, then the ``(n, N)`` true states and the
    inputs that 1-hop neighbors relay. In the result, the pair rows hold the
    observer derivatives, per row :func:`observer_derivative`'s block update
    with the same operations in the same order; plane 0's truth rows hold
    the plant's ``x A^T + u + f(x)``; plane 1's truth rows are zero, since
    the controller sets the inputs afresh every round.
    """
    p = layout.target.size
    # Term by term in table order, like the message form's ``acc += ...``.
    parts = z.take(layout.terms, axis=1)
    parts -= z[:, None, :p]
    signal = np.zeros((2, p, z.shape[2]))
    for d in range(layout.terms.shape[0]):
        signal += parts[:, d]
    signal[0] = signal[0] @ layout.G.T  # G xi; plane 1 stays rho
    switching = layout.switch * sign(signal, boundary_layer)
    dz = np.empty(z.shape)
    # One product over estimate and truth rows alike: each block has two or
    # more rows (P is even, n >= 2), and such products round every row as
    # the block's own product would.
    np.matmul(z[0], plant.A.T, out=dz[0])
    fz = None if plant.f is None else plant.f(z[0])
    est, plant_rows = dz[0, :p], dz[0, p:]
    if fz is not None:
        est += fz[:p]
    est += layout.omega * signal[0]
    est += switching[0]
    est += z[1, :p]
    plant_rows += z[1, p:]
    if fz is not None:
        plant_rows += fz[p:]
    dz[1, :p] = switching[1]
    dz[1, p:] = 0.0
    return dz
