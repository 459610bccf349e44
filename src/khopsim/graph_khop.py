"""Communication graphs, multi-hop neighborhoods, and coupling matrices.

An undirected connected graph fixes, for every agent ``i``, the ordered set
of agents at shortest-path distance 2..k (the ones ``i`` must estimate),
and from that set the coupling matrix ``M = L + H``: the Laplacian ``L`` of
the subgraph induced by the neighborhood, plus the diagonal ``H`` that
counts each member's common 1-hop neighbors with agent ``i``. Its spectrum,
which :mod:`khopsim.gain_tuning` computes, drives every gain inequality.
These matrices and the observers' wiring are built with array operations
from one :class:`PairTable` per network (:attr:`Neighborhoods.table`).

Agents are numbered 1..n throughout (0-based in the index arrays).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .errors import GraphNotConnected, IndexOutOfRange


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph over agents 1..n.

    Construction rejects self-loops, out-of-range endpoints, and
    disconnected graphs (the observer results all assume connectivity).
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 agents, got n={self.n}")
        norm = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (1 <= i <= self.n) or not (1 <= j <= self.n):
                raise IndexOutOfRange(f"edge {{{i},{j}}} outside 1..{self.n}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))
        if len(norm) < self.n - 1:  # too few edges to connect; spares a huge n its adjacency
            raise GraphNotConnected(f"graph on {self.n} agents is not connected")
        adj = {i: [] for i in range(1, self.n + 1)}
        for i, j in norm:
            adj[i].append(j)
            adj[j].append(i)
        adj = {i: tuple(sorted(v)) for i, v in adj.items()}
        object.__setattr__(self, "_adj", adj)
        # Connectivity is mandatory: every convergence result downstream assumes it.
        if len(self._bfs(1)) != self.n:
            raise GraphNotConnected(f"graph on {self.n} agents is not connected")

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Graph":
        """Parse the edge-list format: first line ``n``, then ``i j`` lines."""
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty edge list")
        n = int(lines[0])
        edges = set()
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line: {ln!r}")
            edges.add((int(parts[0]), int(parts[1])))
        return cls(n, frozenset(edges))

    @classmethod
    def from_file(cls, path) -> "Graph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_edge_list_text(fh.read())

    def neighbors(self, i: int) -> tuple:
        if not (1 <= i <= self.n):
            raise IndexOutOfRange(f"agent index {i} outside 1..{self.n}")
        return self._adj[i]

    def laplacian(self) -> np.ndarray:
        i, j = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2).T - 1
        lap = np.zeros((self.n, self.n))
        lap[i, j] = lap[j, i] = -1.0
        np.fill_diagonal(lap, -lap.sum(axis=1))  # integer sums: exact
        return lap

    def _bfs(self, start: int, max_depth: Optional[int] = None) -> dict:
        """Distances from ``start``, to every agent or only up to ``max_depth``."""
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if dist[u] == max_depth:
                continue
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


@dataclass(frozen=True)
class KHopNeighborhood:
    """Agents at shortest-path distance 2..k from ``agent``, sorted ascending.

    ``members`` excludes the agent itself and its 1-hop neighbors; it is the
    ordered index set behind every stacked estimate vector and coupling
    matrix of this agent. ``eta == 0`` is legal and means the agent runs no
    observer.
    """

    agent: int
    members: tuple
    one_hop: tuple

    @property
    def eta(self) -> int:
        return len(self.members)


def khop_set(g: Graph, i: int, k: int) -> KHopNeighborhood:
    """Agents with a shortest path of length p, 2 <= p <= k, from agent ``i``."""
    if k < 2:
        raise ValueError(f"hop horizon must be >= 2, got k={k}")
    one_hop = g.neighbors(i)
    dist = g._bfs(i, max_depth=k)
    members = tuple(sorted(j for j, d in dist.items() if d >= 2))
    return KHopNeighborhood(agent=i, members=members, one_hop=one_hop)


class PairTable(NamedTuple):
    """A network's (estimator, target) pairs and 1-hop links as 0-based
    index arrays. Pairs run estimator-major, members ascending, agent
    ``i``'s from ``offsets[i]`` on; ``index[i, j]`` is the position of pair
    ``(i, j)``, ``-2`` where ``j`` is a 1-hop neighbor of ``i``, else ``-1``;
    ``hops`` lists each agent's ``degree`` 1-hop neighbors, ascending."""

    estimator: np.ndarray
    target: np.ndarray
    offsets: np.ndarray
    index: np.ndarray
    degree: np.ndarray
    hops: np.ndarray

    def links(self, agents) -> tuple:
        """``(r, j)`` for every 1-hop neighbor ``j`` of each ``agents[r]``,
        by ``r`` and then ``j`` ascending."""
        count = self.degree[agents]
        r = np.arange(len(agents)).repeat(count)
        skip = (self.degree.cumsum() - self.degree)[agents] - count.cumsum() + count
        return r, self.hops[skip.repeat(count) + np.arange(len(r))]


class Neighborhoods(tuple):
    """Every agent's :class:`KHopNeighborhood`, agent 1 first, and their
    :class:`PairTable`, built once, on first use, for every setup table."""

    @cached_property
    def table(self) -> PairTable:
        n, agents = len(self), np.arange(len(self))
        members, one_hop = [nb.members for nb in self], [nb.one_hop for nb in self]
        estimator = agents.repeat(np.fromiter(map(len, members), np.intp, n))
        degree = np.fromiter(map(len, one_hop), np.intp, n)
        target = np.fromiter(chain.from_iterable(members), np.intp, len(estimator)) - 1
        hops = np.fromiter(chain.from_iterable(one_hop), np.intp) - 1
        index = np.full((n, n), -1)
        index[estimator, target] = np.arange(len(target))
        index[agents.repeat(degree), hops] = -2
        offsets = estimator.searchsorted(np.arange(n + 1))
        table = PairTable(estimator, target, offsets, index, degree, hops)
        for arr in table:  # shared by every builder, and by the PairLayout
            arr.setflags(write=False)
        return table


def all_khop_sets(g: Graph, k: int) -> Neighborhoods:
    """Neighborhoods for every agent, indexed agent-1 first."""
    return Neighborhoods([khop_set(g, i, k) for i in range(1, g.n + 1)])


def coupling_matrices(nbs: Neighborhoods) -> list:
    """Every agent's coupling matrix ``M = L + H`` for the neighborhoods
    ``nbs``, ``None`` where ``eta = 0``; views into one buffer.
    ``L`` is the Laplacian of the subgraph the agent's members induce;
    ``H[j, j]`` counts the agent's 1-hop neighbors adjacent to member ``j``.
    For a connected graph ``M`` is positive definite where ``eta > 0``."""
    estimator, target, offsets, index = (table := nbs.table)[:4]
    eta = offsets[1:] - offsets[:-1]
    area = eta * eta
    base = area.cumsum() - area
    local = np.arange(len(target)) - offsets[estimator]
    row = base[estimator] + local * eta[estimator]  # where each pair's row starts
    # Each pair (i, a) against each neighbor b of a: -1 where b is a member
    # too; a diagonal entry counts the members and the 1-hop neighbors.
    p, b = table.links(target)
    q = index[estimator[p], b]
    buf = np.zeros(area.sum())
    buf[(row[p] + local[q])[q >= 0]] = -1.0
    buf[row + local] = np.bincount(p, q != -1, len(target))
    return [buf[s:s + e * e].reshape(e, e) if e else None
            for s, e in zip(base.tolist(), eta.tolist())]
