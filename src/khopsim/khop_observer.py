"""Finite-time state and input observers, evaluated for all agents at once.

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

The package runs and ships one form of these laws, the pair form
(:class:`PairLayout`, :func:`pair_derivative`): the wiring never changes
during a run, so every (estimator, target) pair's message sum is written
down once as an ordered row of source indices into ``[estimates; truth]``.
A run keeps one state array ``z`` of shape ``(2, P + n, N)``: plane 0 is
``[x_hat; x]`` and plane 1 is ``[u_hat; u]``, so one gather along the row
axis yields the terms of ``xi`` and ``rho`` together, and one comparison
switches both. The rows keep the order in which an agent walks its inbox,
and each sum starts from ``+0.0``, so it rounds as the per-agent message
form does; see :func:`pair_layout`. The layout holds each pair's gains at
full width, ``(P, N)`` per gain, and a run's :class:`PairWorkspace` holds
the buffers every call reuses. With a zero ``A``, as in every bundled
scenario, the kernel skips the ``x A^T`` product, which changes no bit;
see :func:`pair_derivative`. That message form, one message object per
sender, lives in ``tests/reference_form.py`` as the oracle the tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gain_tuning import GainSet, PlantModel


@dataclass(frozen=True)
class PairLayout:
    """Every (estimator, target) pair of a network, built once per run.

    Pairs are estimator-major with each agent's members ascending, so agent
    ``i``'s stacked estimate is the contiguous row block :meth:`rows`, and
    ``(P, N)`` estimate arrays are the per-agent stacks concatenated. Each
    pair carries the gains of its target (estimators of agent ``l`` apply
    ``omega_l``, ``theta_l`` and ``pi_l``) in every component, so a missing
    gain shows as NaN: ``omega`` is ``(P, N)`` and ``switch`` stacks the
    switching gains ``[theta; pi]`` as ``(2, P, N)``, one plane per
    observer. Full-width gains meet the ``(P, N)`` signals element for
    element, so a step multiplies contiguous arrays instead of broadcasting
    a column over runs of ``N`` elements.

    Column ``terms[:, p]`` lists, in the message form's summation order,
    the rows of ``[estimates; truth]`` whose differences to pair ``p``'s
    own estimate make up its correction signal; see :func:`pair_layout`.
    It is stored term-major, ``(D, P)``, so that each term of every pair is
    one contiguous gather.

    Every array is read-only: one layout serves every run of its
    :class:`~khopsim.plant_sim.SimConfig`.
    """

    n: int
    estimator: np.ndarray
    target: np.ndarray
    offsets: np.ndarray
    terms: np.ndarray
    G: np.ndarray
    omega: np.ndarray
    switch: np.ndarray

    def rows(self, agent: int) -> slice:
        """Rows holding ``agent``'s (1-based) stacked estimates."""
        return slice(int(self.offsets[agent - 1]), int(self.offsets[agent]))


def pair_layout(nbs, gains: GainSet) -> PairLayout:
    """Pair wiring, ordered term table and per-pair gains for neighborhoods
    ``nbs`` (indexed agent-1 first).

    For pair ``p = (i, l)`` the term list walks ``i``'s 1-hop neighbors
    ``j`` in ascending order, exactly as agent ``i`` walks its inbox: first
    ``j``'s own pair ``(j, l)`` if ``j`` estimates ``l``, then the true row
    of ``l`` if ``j`` can relay it. Lists are padded to a common
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
    n_dim = gains.G.shape[0]

    def full_width(gain):
        return np.repeat(gain[target, None], n_dim, axis=1)

    layout = PairLayout(
        n=n,
        estimator=estimator,
        target=target,
        offsets=offsets,
        terms=terms,
        G=np.array(gains.G, dtype=float),
        omega=full_width(gains.omega),
        switch=np.stack((full_width(gains.theta), full_width(gains.pi))),
    )
    for arr in (estimator, target, offsets, terms, layout.G, layout.omega, layout.switch):
        arr.setflags(write=False)
    return layout


class PairWorkspace:
    """The buffers and views that :func:`pair_derivative` reuses on every
    call for one state array ``z`` under one layout, plant and boundary
    layer, whose width is checked here once.

    A run builds one next to its state array and drops it with the run;
    nothing in it outlives the run or is shared between runs. The
    derivative it returns is :attr:`dz`, overwritten by the next call.
    :attr:`drift` holds plane 0's terms before the inputs, and its truth
    rows stay ``+0.0``; :attr:`switching` views its estimate rows and
    plane 1's, so the switching terms land where they are added.
    """

    def __init__(
        self,
        layout: PairLayout,
        plant: PlantModel,
        z: np.ndarray,
        boundary_layer: Optional[float] = None,
    ):
        if boundary_layer is not None and boundary_layer <= 0:
            raise ValueError("boundary layer width must be positive")
        p = layout.target.size
        self.own = z[:, None, :p]
        self.parts = np.empty((2, layout.terms.shape[0], p, z.shape[2]))
        # Planes [G xi, xi, rho]: the sums land in ``acc`` = [xi; rho], G xi
        # in plane 0, and ``signal`` = [G xi; rho] views both without a copy.
        planes = np.empty((3, p, z.shape[2]))
        self.acc, self.xi, self.gxi, self.signal = planes[1:], planes[1], planes[0], planes[::2]
        # Compared against an array rather than the float 0.0, which numpy
        # would convert on every call.
        self.zero = np.zeros(self.signal.shape)
        self.mask = np.empty(self.signal.shape, dtype=bool)
        self.neg_switch = np.negative(layout.switch)
        self.GT = layout.G.T
        self.AT = plant.A.T if plant.A.any() else None
        self.x_rows, self.u_rows = z
        # Planes [drift, dz]; ``switching`` is the estimate rows of drift and
        # of dz's plane 1. Plane 1's truth rows stay zero: the controller
        # sets the inputs.
        out = np.zeros((3, *z.shape[1:]))
        self.drift, self.dz = out[0], out[1:]
        self.drift_est, self.switching = out[0, :p], out[::2, :p]
        self.dx_rows, self.dx_est, self.plant_rows = out[1], out[1, :p], out[1, p:]


def pair_derivative(
    layout: PairLayout,
    plant: PlantModel,
    z: np.ndarray,
    boundary_layer: Optional[float] = None,
    work: Optional[PairWorkspace] = None,
) -> np.ndarray:
    """Time derivative of a run's whole state array ``z``, ``(2, P + n, N)``.

    Plane 0 of ``z`` is ``[x_hat; x]`` and plane 1 is ``[u_hat; u]``: the
    ``(P, N)`` pair estimates, then the ``(n, N)`` true states and the
    inputs that 1-hop neighbors relay. In the result, the pair rows hold the
    observer derivatives, per row the block update
    ``xh A^T + f(xh) + omega G xi + theta sign(G xi) + uh`` and
    ``pi sign(rho)``, in the message form's order; plane 0's truth rows hold
    the plant's ``x A^T + u + f(x)``; plane 1's truth rows are zero, since
    the controller sets the inputs afresh every round.

    ``work`` is the :class:`PairWorkspace` built for this layout, plant,
    ``z`` and boundary layer; without one, the call builds its own. The
    result is ``work.dz``. Every sum starts from ``+0.0`` and adds its terms
    in table order, like the message form's ``acc += ...``.

    With ``A = 0`` the ``x A^T`` product is skipped. On finite rows it is
    ``±0``, and ``±0 + v`` is ``v`` for every nonzero ``v``: the sign
    switching terms and the inputs, which are sums that start from ``+0.0``
    and so never ``-0``. The result is then the same, bit for bit.
    """
    if work is None:
        work = PairWorkspace(layout, plant, z, boundary_layer)
    parts, signal, gxi, switching = work.parts, work.signal, work.gxi, work.switching
    # The indices are the layout's own, all in range, so "clip" only spares
    # numpy the bounds-checking copy it makes for ``out`` under "raise".
    z.take(layout.terms, 1, parts, "clip")
    np.subtract(parts, work.own, parts)
    np.add.reduce(parts, 1, None, work.acc, False, 0.0)
    np.matmul(work.xi, work.GT, gxi)
    if boundary_layer is None:
        # gain * sign(v) with sign(0) = +1 is +gain where v >= 0, else -gain.
        # A masked copy into ``switching`` would spare the temporary, but it
        # runs ~3x slower than np.where at 1600 pairs.
        np.greater_equal(signal, work.zero, work.mask)
        np.copyto(switching, np.where(work.mask, layout.switch, work.neg_switch))
    else:
        # sign's saturation clip(v / delta, -1, 1), times the gains.
        np.divide(signal, boundary_layer, switching)
        np.clip(switching, -1.0, 1.0, out=switching)
        np.multiply(layout.switch, switching, switching)
    fz = None if plant.f is None else plant.f(work.x_rows)
    p = len(gxi)
    np.multiply(gxi, layout.omega, gxi)
    if work.AT is None:
        # x A^T would add ±0 here: f(xh) + omega G xi + switching.
        if fz is not None:
            np.add(fz[:p], gxi, gxi)
        np.add(gxi, work.drift_est, work.drift_est)
        lead = work.drift
    else:
        # One product over estimate and truth rows alike: each block has two
        # or more rows (P is even, n >= 2), and such products round every row
        # as the block's own product would.
        lead, est = work.dx_rows, work.dx_est
        np.matmul(work.x_rows, work.AT, lead)
        if fz is not None:
            est += fz[:p]
        est += gxi
        est += work.drift_est
    # Adds uh to the estimate rows, their last term, and u to the plant
    # rows, before f.
    np.add(lead, work.u_rows, work.dx_rows)
    if fz is not None:
        work.plant_rows += fz[p:]
    return work.dz
