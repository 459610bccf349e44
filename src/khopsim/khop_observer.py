"""Finite-time state and input observers, evaluated for all agents at once.

Each agent keeps stacked estimates of the states and inputs of its
multi-hop neighbors, ordered by ascending global index. One update round
consumes exactly one message per 1-hop neighbor; the correction signal for
the block estimating agent ``l`` is

    xi_l = sum over senders that also estimate l of (their estimate - ours)
         + sum over senders adjacent to l of (relayed true value - ours)

and the input-side signal ``rho`` has the same shape with inputs in place
of states. The state estimate then follows the plant model plus a linear
and a signed correction, both of ``g xi``, as the design matrix is
``G = g I``; the input estimate moves by a signed correction only.
sign(0) = +1 throughout, so at exact agreement the estimates still chatter
by one step. Which sums apply is decided from message content alone (a
sender's message shows which agents it estimates and which it can relay),
so the update never needs non-local knowledge.

The package runs one form of these laws, the pair form (:class:`PairLayout`,
:func:`pair_derivative`); the message form, one message object per sender,
lives in ``tests/reference_form.py`` as the oracle. The wiring never
changes during a run, so every (estimator, target) pair's message sum is
written down once, from the network's pair table, as an ordered column of
source rows of ``[estimates; truth]`` (:func:`pair_layout`). A run's state
array ``z``, ``(2, P + n, N)``, holds ``[x_hat; x]`` in plane 0 and
``[u_hat; u]`` in plane 1, so one gather yields the terms of ``xi`` and
``rho`` together, and one ``copysign`` switches both. Each sum starts from
``+0.0`` and adds in inbox order, so it rounds as the message form does. A
run's :class:`PairWorkspace` holds the buffers every call reuses and binds
the kernel's body to them once; it and :func:`pair_derivative` say which
steps the kernel skips where they change no bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gain_tuning import GainSet, PlantModel
from .graph_khop import PairTable


@dataclass(frozen=True)
class PairLayout:
    """Every (estimator, target) pair of a network, built once per run.

    Pairs are estimator-major with each agent's members ascending, so agent
    ``i``'s stacked estimate is the row block from ``offsets[i]`` to
    ``offsets[i + 1]`` (0-based ``i``), and ``(P, N)`` estimate arrays are
    the per-agent stacks concatenated. Each pair carries its target's gains
    (estimators of agent ``l`` apply ``omega_l``, ``theta_l`` and ``pi_l``)
    in every component, so a missing gain shows as NaN and a step multiplies
    contiguous arrays: ``omega`` is ``(P, N)`` and ``switch`` stacks
    ``[theta; pi]`` as ``(2, P, N)``. ``g`` is the design gain of
    ``G = g I``, shared by every pair.

    Column ``terms[:, p]`` lists, in the message form's summation order,
    the rows of ``[estimates; truth]`` whose differences to pair ``p``'s
    own estimate make up its correction signal (:func:`pair_layout`),
    term-major, ``(D, P)``, so each term of every pair is one contiguous
    gather. Every array is read-only: one layout serves every run of its
    :class:`~khopsim.plant_sim.SimConfig`.
    """

    n: int
    estimator: np.ndarray
    target: np.ndarray
    offsets: np.ndarray
    terms: np.ndarray
    g: float
    omega: np.ndarray
    switch: np.ndarray


def pair_layout(table: PairTable, gains: GainSet, n_dim: int) -> PairLayout:
    """Pair wiring, ordered term table and per-pair gains from a network's
    pair table, for agents with ``n_dim`` states.

    Pair ``p = (i, l)``'s terms walk ``i``'s 1-hop neighbors ``j`` in
    ascending order, as agent ``i`` walks its inbox: ``j``'s pair ``(j, l)``
    if ``j`` estimates ``l``, else ``l``'s true row if ``j`` relays it (never
    both). Each column is padded with ``p`` itself, whose term adds ``+0.0``.
    The order must be kept; :mod:`khopsim.plant_sim` says why.
    """
    estimator, target, offsets, index = table[:4]
    size = len(target)
    p, j = table.links(estimator)
    l = target[p]
    code = index[j, l]
    keep = code != -1
    terms = term_table(p[keep], np.where(code >= 0, code, l + size)[keep], np.arange(size))
    # [omega; theta; pi] of each pair's target, in each of its components.
    full = np.array((gains.omega, gains.theta, gains.pi))[:, target].repeat(n_dim)
    full = full.reshape(3, size, n_dim)
    layout = PairLayout(len(index), estimator, target, offsets, terms, gains.g, full[0], full[1:])
    for arr in (terms, layout.omega, layout.switch):
        arr.setflags(write=False)
    return layout


def term_table(owner, values, pad) -> np.ndarray:
    """The term-major table whose column ``c`` lists, in their order, the
    ``values`` whose ``owner`` is ``c``, padded to the longest column with
    ``pad[c]``: ``(D, len(pad))``. ``owner`` must be ascending."""
    count = np.bincount(owner, minlength=len(pad))
    table = np.empty((np.maximum.reduce(count, initial=0), len(pad)), dtype=np.intp)
    table[:] = pad
    table[np.arange(len(owner)) - (count.cumsum() - count).repeat(count), owner] = values
    return table


class PairWorkspace:
    """Everything :func:`pair_derivative` reads for one state array ``z``
    under one layout, plant and boundary layer (whose width is checked here
    once): ``z``, a writeable copy of the layout's ``terms``, its ``switch``
    and ``omega``, the plant's ``f``, and the buffers and views calls reuse.

    A run builds one next to its state array and drops it with the run;
    nothing in it outlives the run or is shared between runs. The
    derivative it returns is :attr:`dz`, overwritten by the next call.
    :attr:`drift` holds plane 0's terms before the inputs, and its truth
    rows stay ``+0.0``; :attr:`switching` views its estimate rows and
    plane 1's, so the switching terms land where they are added. The
    kernel's body is bound here once, as a closure over these buffers,
    views and numpy functions, so a call looks nothing up.
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
        self.z, self.boundary_layer, self.f = z, boundary_layer, plant.f
        self.terms, self.switch, self.omega = layout.terms.copy(), layout.switch, layout.omega
        p = layout.target.size
        self.own = z[:, None, :p]
        self.parts = np.empty((2, layout.terms.shape[0], p, z.shape[2]))
        # Planes [g xi, xi, rho]: the sums land in ``acc`` = [xi; rho], g xi
        # in plane 0, and ``signal`` = [g xi; rho] views both without a copy.
        planes = np.empty((3, p, z.shape[2]))
        self.acc, self.xi, self.gxi, self.signal = planes[1:], planes[1], planes[0], planes[::2]
        # 0-d arrays: numpy would convert the floats 0.0 and g on every call.
        self.zero, self.g = np.array(0.0), np.array(layout.g)
        # No sum is -0.0 (each starts from +0.0), but g xi is when g <= 0.5
        # and xi is a negative subnormal that g scales to half its last
        # place or less; for g > 0.5 even g * -5e-324 rounds to -5e-324.
        self.may_underflow = bool(layout.g <= 0.5)
        self.AT = plant.A.T if plant.A.any() else None
        self.x_rows, self.u_rows = z
        # Planes [drift, dz]; ``switching`` is the estimate rows of drift and
        # of dz's plane 1. Plane 1's truth rows stay zero: the controller
        # sets the inputs.
        out = np.zeros((3, *z.shape[1:]))
        self.drift, self.dz = out[0], out[1:]
        self.drift_est, self.switching = out[0, :p], out[::2, :p]
        self.dx_rows, self.dx_est, self.plant_rows = out[1], out[1, :p], out[1, p:]
        self._derivative = _bind_kernel(self)


def _bind_kernel(work: PairWorkspace):
    """:func:`pair_derivative`'s body, bound once to ``work``."""
    take, terms, parts, own, acc = work.z.take, work.terms, work.parts, work.own, work.acc
    xi, g, gxi, signal, switching = work.xi, work.g, work.gxi, work.signal, work.switching
    switch, omega, zero, layer = work.switch, work.omega, work.zero, work.boundary_layer
    may_underflow, f, AT = work.may_underflow, work.f, work.AT
    x_rows, u_rows, drift, drift_est = work.x_rows, work.u_rows, work.drift, work.drift_est
    dx_rows, dx_est, plant_rows, dz = work.dx_rows, work.dx_est, work.plant_rows, work.dz
    p = len(gxi)
    subtract, add_reduce, multiply, add = np.subtract, np.add.reduce, np.multiply, np.add
    copysign, divide, clip, matmul = np.copysign, np.divide, switching.clip, np.matmul

    def derivative() -> np.ndarray:
        # The indices are the layout's own, all in range, so "clip" only
        # spares numpy the bounds-checking copy it makes for ``out`` under
        # "raise".
        take(terms, 1, parts, "clip")
        subtract(parts, own, parts)
        add_reduce(parts, 1, None, acc, False, 0.0)
        multiply(xi, g, gxi)
        if layer is None:
            # gain * sign(v), sign(0) = +1, is the gain (run refuses negative
            # ones) with v's sign bit, as no v is -0.0: each sum starts from
            # +0.0, and adding +0.0 clears g xi's -0.0 from underflow, which
            # only g <= 0.5 can give. An inf - inf NaN has its sign bit set
            # on x86-64: -gain, as sign(NaN).
            if may_underflow:
                add(gxi, zero, gxi)
            copysign(switch, signal, switching)
        else:
            # sign's saturation clip(v / delta, -1, 1), times the gains.
            divide(signal, layer, switching)
            clip(-1.0, 1.0, out=switching)
            multiply(switch, switching, switching)
        fz = None if f is None else f(x_rows)
        multiply(gxi, omega, gxi)
        if AT is None:
            # x A^T would add ±0 here: f(xh) + omega g xi + switching.
            if fz is not None:
                add(fz[:p], gxi, gxi)
            add(gxi, drift_est, drift_est)
            lead = drift
        else:
            # One product over estimate and truth rows alike: each block has
            # two or more rows (P is even, n >= 2), and such products round
            # every row as the block's own product would.
            lead = dx_rows
            matmul(x_rows, AT, lead)
            if fz is not None:
                add(dx_est, fz[:p], dx_est)
            add(dx_est, gxi, dx_est)
            add(dx_est, drift_est, dx_est)
        # Adds uh to the estimate rows, their last term, and u to the plant
        # rows, before f.
        add(lead, u_rows, dx_rows)
        if fz is not None:
            add(plant_rows, fz[p:], plant_rows)
        return dz

    return derivative


def pair_derivative(work: PairWorkspace) -> np.ndarray:
    """Time derivative of a run's whole state array ``z``, ``(2, P + n, N)``,
    the one :class:`PairWorkspace` ``work`` was built for.

    Plane 0 of ``z`` is ``[x_hat; x]`` and plane 1 is ``[u_hat; u]``: the
    ``(P, N)`` pair estimates, then the ``(n, N)`` true states and the
    inputs that 1-hop neighbors relay. In the result, the pair rows hold the
    observer derivatives, per row the block update
    ``xh A^T + f(xh) + omega g xi + theta sign(g xi) + uh`` and
    ``pi sign(rho)``, in the message form's order; plane 0's truth rows hold
    the plant's ``x A^T + u + f(x)``; plane 1's truth rows are zero, since
    the controller sets the inputs afresh every round.

    The result is ``work.dz``. Every sum starts from ``+0.0`` and adds its
    terms in table order, like the message form's ``acc += ...``.

    With ``A = 0`` the ``x A^T`` product is skipped. On finite rows it is
    ``±0``, and ``±0 + v`` is ``v`` for every nonzero ``v``: the sign
    switching terms and the inputs, which are sums that start from ``+0.0``
    and so never ``-0``. The result is then the same, bit for bit.
    """
    return work._derivative()
