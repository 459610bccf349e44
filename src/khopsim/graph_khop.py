"""Communication graphs, multi-hop neighborhoods, and coupling matrices.

An undirected connected graph fixes, for every agent ``i``, the ordered set
of agents at shortest-path distance 2..k (the ones ``i`` must estimate),
and from that set the coupling matrix ``M = L + H``: the Laplacian ``L`` of
the subgraph induced by the neighborhood, plus the diagonal ``H`` that
counts each member's common 1-hop neighbors with agent ``i``. Its spectrum,
which :mod:`khopsim.gain_tuning` computes, drives every gain inequality.

Agents are numbered 1..n throughout, matching the usual convention for
hand-worked examples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

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
        lap = np.zeros((self.n, self.n))
        for i, j in self.edges:
            lap[i - 1, i - 1] += 1.0
            lap[j - 1, j - 1] += 1.0
            lap[i - 1, j - 1] -= 1.0
            lap[j - 1, i - 1] -= 1.0
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


def all_khop_sets(g: Graph, k: int) -> list:
    """Neighborhoods for every agent, indexed agent-1 first."""
    return [khop_set(g, i, k) for i in range(1, g.n + 1)]


def coupling_matrices(g: Graph, nb: KHopNeighborhood) -> np.ndarray:
    """The coupling matrix ``M = L + H`` of one agent's neighborhood.

    ``L`` is the Laplacian of the subgraph induced by ``nb.members`` on the
    full edge set; ``H[j, j]`` counts the common 1-hop neighbors between
    member ``j`` and the owning agent. For a connected graph ``M`` is
    positive definite whenever the neighborhood is non-empty.
    """
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
