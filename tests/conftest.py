"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from khopsim import Graph, all_khop_sets, coupling_matrices, khop_set
from khopsim.gain_tuning import GainSet
from khopsim.scenario_cli import REPRODUCTION_SCENARIO
from reference_form import NeighborMessage, ObserverState

# No example database: failing examples saved in a working tree's
# ``.hypothesis/`` would replay in every later run, so results would depend
# on that directory as well as on the code. The draws stay random.
settings.register_profile("khopsim", database=None)
settings.load_profile("khopsim")


def random_connected_graph(rng, n_min=2, n_max=8, extra_edge_p=0.3) -> Graph:
    """Random spanning tree plus random extra edges; connected by construction."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < extra_edge_p:
                edges.add((u, v))
    return Graph(n, frozenset(edges))


@st.composite
def connected_graphs(draw, max_n=30) -> Graph:
    """Hypothesis strategy: a random spanning tree on 2..``max_n`` agents plus
    up to ``n`` extra edges, so graphs run from long paths to chorded cycles."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return Graph(n, frozenset(edges))


def complete_graph(n: int) -> Graph:
    """Every pair of the ``n`` agents adjacent: no agent has a 2-hop member."""
    return Graph(n, {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def unit_gains(n: int) -> GainSet:
    """All gains 1 and ``g = 1``, for tests that only need a pair layout."""
    ones = np.ones(n)
    return GainSet(g=1.0, omega=ones, theta=ones, pi=ones)


def in_row_order(layout, z: np.ndarray) -> np.ndarray:
    """A state array ``(2, P + n, N)`` with its pair rows in table order,
    as ``layout`` orders a run's rows: table pair ``q`` moves to row
    ``layout.rows[q]``."""
    out = z.copy()
    out[:, layout.rows] = z[:, : layout.rows.size]
    return out


def in_table_order(layout, z: np.ndarray) -> np.ndarray:
    """The inverse of :func:`in_row_order`."""
    out = z.copy()
    out[:, : layout.rows.size] = z[:, layout.rows]
    return out


def term_slots(layout) -> list:
    """``layout.terms`` cut into its slots: slot ``s`` lists the ``s``-th
    term of rows ``0, 1, ...``, all ``P`` rows in the head and the rows
    that have one in the tail."""
    p, slots, start = layout.rows.size, [], 0
    for s, width in enumerate(layout.widths):
        span = p if s < layout.head else width
        slots.append(layout.terms[start:start + span])
        start += span
    assert start == layout.terms.size
    return slots


def table_rows(layout) -> np.ndarray:
    """The map from rows of ``[estimates; truth]`` in ``layout``'s row order
    to the same rows in pair-table order."""
    p = layout.rows.size
    return np.concatenate((np.argsort(layout.rows), np.arange(p, p + layout.n)))


def table_terms(layout) -> np.ndarray:
    """``layout``'s terms as the padded term-major ``(D, P)`` table in
    pair-table order, a pair short of a term padded with itself."""
    p, rename = layout.rows.size, table_rows(layout)
    table = np.tile(np.arange(p), (len(layout.widths), 1))
    for s, slot in enumerate(term_slots(layout)):
        table[s, rename[: slot.size]] = rename[slot]
    return table


def floyd_warshall(g: Graph) -> np.ndarray:
    """Brute-force all-pairs shortest paths, independent of the BFS code."""
    n = g.n
    inf = float("inf")
    dist = np.full((n, n), inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in g.edges:
        dist[i - 1, j - 1] = 1.0
        dist[j - 1, i - 1] = 1.0
    for m in range(n):
        for a in range(n):
            for b in range(n):
                via = dist[a, m] + dist[m, b]
                if via < dist[a, b]:
                    dist[a, b] = via
    return dist


def component_count(g: Graph, vertices) -> int:
    """Connected components of the subgraph induced by ``vertices``."""
    vset = set(vertices)
    seen = set()
    count = 0
    for start in vertices:
        if start in seen:
            continue
        count += 1
        stack = [start]
        comp = {start}
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in vset and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
    return count


def make_world(g: Graph, k: int, n_dim: int, rng) -> dict:
    """Random truth, random estimates, and the full message exchange."""
    nbs = all_khop_sets(g, k)
    x = rng.normal(size=(g.n, n_dim))
    u = rng.normal(size=(g.n, n_dim))
    obs = [
        ObserverState(
            agent=i + 1,
            x_hat=rng.normal(size=nb.eta * n_dim),
            u_hat=rng.normal(size=nb.eta * n_dim),
        )
        for i, nb in enumerate(nbs)
    ]
    msgs = build_messages(g, nbs, x, u, obs)
    return {"nbs": nbs, "x": x, "u": u, "obs": obs, "msgs": msgs}


def build_messages(g: Graph, nbs, x, u, obs) -> dict:
    msgs = {}
    for j in range(1, g.n + 1):
        nbj = nbs[j - 1]
        msgs[j] = NeighborMessage(
            sender=j,
            state=x[j - 1],
            input=u[j - 1],
            relayed_states={m: x[m - 1] for m in g.neighbors(j)},
            relayed_inputs={m: u[m - 1] for m in g.neighbors(j)},
            est_states=obs[j - 1].x_hat,
            est_inputs=obs[j - 1].u_hat,
            members=nbj.members,
        )
    return msgs


def inbox(msgs, nb) -> dict:
    return {j: msgs[j] for j in nb.one_hop}


def short_reproduction(t_end=0.3) -> dict:
    """The bundled reproduction scenario cut to ``t_end`` seconds."""
    return dict(REPRODUCTION_SCENARIO, sim=dict(REPRODUCTION_SCENARIO["sim"], t_end=t_end))


def chorded_ring(t_end=0.3, n=12, chords=((1, 5), (3, 9), (6, 11)), seed=3) -> dict:
    """``n``-agent ring plus ``chords`` (12 agents and three chords by
    default); every agent with an agent two hops away adds one to its
    target graph, so its input depends on an estimate. ``seed`` draws
    ``x0``."""
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    comm = Graph(n, frozenset(ring + list(chords)))
    target = set(ring)
    for i in range(1, n + 1):
        two_hop = khop_set(comm, i, 2).members
        if two_hop:
            j = two_hop[i % len(two_hop)]
            target.add((min(i, j), max(i, j)))
    rng = np.random.default_rng(seed)
    sim = dict(REPRODUCTION_SCENARIO["sim"], t_end=t_end, state_box=None,
               x0=rng.uniform(-0.25, 0.25, size=(n, 2)).tolist())
    return dict(
        REPRODUCTION_SCENARIO,
        graph={"n": n, "edges": [list(e) for e in sorted(comm.edges)]},
        target_graph={"n": n, "edges": [list(e) for e in sorted(target)]},
        sim=sim,
    )


@pytest.fixture
def path4() -> Graph:
    return Graph(4, {(1, 2), (2, 3), (3, 4)})


@pytest.fixture
def path4_couplings(path4):
    nbs = all_khop_sets(path4, 3)
    return nbs, coupling_matrices(nbs)
