"""The paper's communication claim on the fast path: each agent
reconstructs the agents two or more hops away "exploiting only the
communication with the 1-hop neighbors" (PAPER.md).

Structurally, every term a pair's correction signal sums is part of one
1-hop message: a neighbor's estimate of the same target, or the target's
true value that a neighbor relays. Dynamically, the closed loop spreads a
change by at most one hop per Euler step, plus the one hop of the first
round's relays and inputs; input estimates lead by one hop more.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chorded_ring, connected_graphs, floyd_warshall, term_slots, unit_gains
from khopsim import all_khop_sets, init_world, plant_sim
from khopsim.khop_observer import pair_layout
from khopsim.scenario_cli import load_scenario, prepare


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.sampled_from([2, 3, 4]))
def test_every_term_is_part_of_a_one_hop_message(g, k):
    # Row r holds pair (i, l). Each real term is the row of a pair (j, l)
    # with j a 1-hop neighbor of i, or l's true row with l two hops from i.
    # Only the head pads, and a padding term names row r itself.
    layout = pair_layout(all_khop_sets(g, k).table, unit_gains(g.n), 1)
    hops = floyd_warshall(g)
    p = layout.rows.size
    order = np.argsort(layout.rows)
    estimator, target = layout.estimator[order], layout.target[order]
    for s, slot in enumerate(term_slots(layout)):
        for r, row in enumerate(slot.tolist()):
            i, l = estimator[r], target[r]
            if row == r:
                assert s < layout.head
            elif row < p:
                assert target[row] == l and hops[i, estimator[row]] == 1
            else:
                assert row - p == l and hops[i, l] == 2


def closed_loop(config, steps: int) -> list:
    """The state array of every round ``s = 0..steps`` after its inputs are
    set: ``s`` Euler steps of the fast path."""
    z = init_world(config)
    control, advance = plant_sim._bind_control(config, z), plant_sim._bind_advance(config, z)
    rounds = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps + 1):
            control()
            rounds.append(z.copy())
            advance((s + 1) * config.dt)
    return rounds


STEPS = 6


@st.composite
def perturbed_rings(draw):
    """A chorded ring (the default one or a random one), and one agent's
    state, state estimates or input estimates to move by ``delta``."""
    if draw(st.booleans()):
        raw = chorded_ring(t_end=0.05, seed=draw(st.integers(0, 2**16)))
    else:
        n = draw(st.integers(5, 12))
        chords = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3))
        raw = chorded_ring(t_end=0.05, n=n, seed=draw(st.integers(0, 2**16)),
                           chords=sorted({(min(a, b), max(a, b)) for a, b in chords
                                          if (b - a) % n not in (0, 1, n - 1)}))
    which = draw(st.sampled_from(["x0", "xhat0", "uhat0"]))
    agent = draw(st.integers(0, raw["graph"]["n"] - 1))
    return raw, which, agent, draw(st.sampled_from([0.1, -1e-3, 1e-9]))


@settings(max_examples=40, deadline=None)
@given(perturbed_rings())
def test_a_change_spreads_one_hop_per_step(case):
    # Perturb one agent's state, or its block of state or input estimates.
    # After s steps, no state, input or state estimate row of an agent more
    # than s + 1 hops away may differ by a bit, and no input estimate row of
    # one more than s + 2 away: a round's relayed true inputs are set in that
    # round from 1-hop states, and reach estimators two hops further.
    raw, which, agent, delta = case
    config = prepare(load_scenario(raw)).config
    table = config.structure.nbs.table
    value = np.array(getattr(config, which))
    value[slice(*table.offsets[agent:agent + 2]) if which != "x0" else agent] += delta
    changed = dataclasses.replace(config, **{which: value})
    pairs = config.structure.pairs
    owner = np.concatenate((pairs.estimator[np.argsort(pairs.rows)], np.arange(config.graph.n)))
    # Per plane and row of z, the hops from the perturbed agent to the row's
    # agent, and the same less the lead of the input estimates.
    hops = np.tile(floyd_warshall(config.graph)[agent][owner], (2, 1))
    reach = hops.copy()
    reach[1, : pairs.rows.size] -= 1
    for s, (a, b) in enumerate(zip(closed_loop(config, STEPS), closed_loop(changed, STEPS))):
        moved = (a.view(np.int64) != b.view(np.int64)).any(axis=2)
        assert (reach[moved] <= s + 1).all(), s
    # The change did spread beyond its own agent's neighbors.
    assert (hops[moved] >= 2).any()
