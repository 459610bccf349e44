"""Graph, neighborhood, coupling-matrix, and pair-order tests.

Memberships are checked against a brute-force Floyd-Warshall oracle, and
the coupling matrices against hand-expanded definitions on small graphs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    component_count,
    connected_graphs,
    floyd_warshall,
    random_connected_graph,
    unit_gains,
)
from khopsim import (
    Graph,
    all_khop_sets,
    coupling_matrices,
    khop_set,
)
from khopsim.dense_linalg import sym_eigs
from khopsim.khop_observer import pair_layout
from khopsim.errors import GraphNotConnected, IndexOutOfRange

GOLDEN_MIN = (3.0 - np.sqrt(5.0)) / 2.0
GOLDEN_MAX = (3.0 + np.sqrt(5.0)) / 2.0


def cycle_graph(n):
    return Graph(n, {(i, i % n + 1) for i in range(1, n + 1)})


class TestGraph:
    def test_normalizes_edge_direction(self):
        g = Graph(3, {(2, 1), (3, 2)})
        assert g.edges == {(1, 2), (2, 3)}
        assert g.neighbors(2) == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, {(1, 1), (1, 2), (2, 3)})

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            Graph(3, {(1, 2), (2, 5)})

    def test_rejects_disconnected(self):
        with pytest.raises(GraphNotConnected):
            Graph(4, {(1, 2), (3, 4)})

    def test_rejects_disconnected_with_enough_edges(self):
        # n - 1 edges pass the edge count; the search finds agent 4 alone.
        with pytest.raises(GraphNotConnected, match="graph on 4 agents is not connected"):
            Graph(4, {(1, 2), (2, 3), (1, 3)})

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            Graph(1, set())

    def test_edge_list_text(self):
        g = Graph.from_edge_list_text("4\n1 2\n2 3\n3 4\n")
        assert g == Graph(4, {(1, 2), (2, 3), (3, 4)})

    def test_edge_list_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3\n# comment\n1 2\n2 3\n")
        g = Graph.from_file(p)
        assert g.n == 3 and g.edges == {(1, 2), (2, 3)}

    def test_laplacian(self, path4):
        lap = path4.laplacian()
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert lap[0, 0] == 1 and lap[1, 1] == 2


class TestKhopSet:
    def test_path_graph_agent1(self, path4):
        nb = khop_set(path4, 1, 3)
        assert nb.members == (3, 4) and nb.eta == 2
        assert nb.one_hop == (2,)

    def test_complete_graph_empty(self):
        g = complete_graph(4)
        for i in range(1, 5):
            assert khop_set(g, i, 3).eta == 0

    def test_cycle6_k2(self):
        g = cycle_graph(6)
        assert khop_set(g, 1, 2).members == (3, 5)
        # brute-force oracle over all agents
        dist = floyd_warshall(g)
        for i in range(1, 7):
            expected = tuple(
                j for j in range(1, 7) if 2 <= dist[i - 1, j - 1] <= 2
            )
            assert khop_set(g, i, 2).members == expected

    def test_members_match_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_connected_graph(rng)
            dist = floyd_warshall(g)
            k = int(rng.integers(2, 5))
            for i in range(1, g.n + 1):
                expected = tuple(
                    j for j in range(1, g.n + 1) if 2 <= dist[i - 1, j - 1] <= k
                )
                assert khop_set(g, i, k).members == expected

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.sampled_from((2, 3, 4)))
    def test_bounded_search_matches_full_distances(self, g, k):
        # khop_set searches only k hops deep; its members are still exactly
        # the agents at distance 2..k over the whole graph.
        real_bfs = Graph._bfs
        searched = []
        dist = floyd_warshall(g)

        def recording(self, start, max_depth=None):
            dist = real_bfs(self, start, max_depth)
            searched.append(dist)
            return dist

        for i in range(1, g.n + 1):
            expected = tuple(j for j in range(1, g.n + 1) if 2 <= dist[i - 1, j - 1] <= k)
            searched.clear()
            with mock.patch.object(Graph, "_bfs", recording):
                nb = khop_set(g, i, k)
            assert nb.members == expected
            assert len(searched) == 1 and max(searched[0].values()) <= k

    def test_symmetry_random(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            g = random_connected_graph(rng)
            k = int(rng.integers(2, 5))
            nbs = all_khop_sets(g, k)
            for nb in nbs:
                for j in nb.members:
                    assert nb.agent in nbs[j - 1].members

    def test_bad_index(self, path4):
        with pytest.raises(IndexOutOfRange):
            khop_set(path4, 9, 3)

    def test_bad_horizon(self, path4):
        with pytest.raises(ValueError):
            khop_set(path4, 1, 1)


class TestCouplingMatrices:
    def test_path_agent2_scalar(self, path4):
        m = coupling_matrices(all_khop_sets(path4, 3))[1]
        assert np.array_equal(m, [[1.0]])
        assert np.array_equal(sym_eigs([m])[0], [1.0])

    def test_path_agent1_full(self, path4):
        # Members 3 and 4 share one edge (L = [[1, -1], [-1, 1]]); agent 3
        # has one common neighbor with agent 1, agent 4 none (H = diag(1, 0)).
        m = coupling_matrices(all_khop_sets(path4, 3))[0]
        assert np.array_equal(m, [[2.0, -1.0], [-1.0, 1.0]])
        lmin, lmax = sym_eigs([m])[0]
        assert lmin == pytest.approx(GOLDEN_MIN, abs=1e-9)
        assert lmax == pytest.approx(GOLDEN_MAX, abs=1e-9)
        # consistency with published linear gain: 1/lambda_min = 2.618
        assert 1.0 / lmin == pytest.approx(2.62, abs=0.01)

    def test_single_member_no_internal_edge(self):
        # Path 1-2-3 with k=2: agent 1 estimates only agent 3, which has no
        # neighbor inside the member set (L = 0) and exactly one common
        # neighbor (H = 1).
        g = Graph(3, {(1, 2), (2, 3)})
        assert np.array_equal(coupling_matrices(all_khop_sets(g, 2))[0], [[1.0]])

    def test_coupling_positive_definite_random(self):
        # 200 random connected graphs, every coupling matrix strictly PD
        rng = np.random.default_rng(2024)
        for _ in range(200):
            g = random_connected_graph(rng)
            k = int(rng.integers(2, 5))
            for m in coupling_matrices(all_khop_sets(g, k)):
                if m is not None:
                    assert sym_eigs([m])[0][0] > 1e-9

    def test_L_is_induced_laplacian(self):
        # M = L + H with L's rows summing to zero, so H is diag(M's row
        # sums): each member's common neighbors with the agent, and L is the
        # rest.
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_connected_graph(rng, n_min=4)
            dist = floyd_warshall(g)
            k = int(rng.integers(2, 4))
            nbs = all_khop_sets(g, k)
            for nb, m in zip(nbs, coupling_matrices(nbs)):
                if m is None:
                    continue
                own = {j for j in range(1, g.n + 1) if dist[nb.agent - 1, j - 1] == 1}
                common = [sum(dist[a - 1, j - 1] == 1 for j in own) for a in nb.members]
                assert np.array_equal(m.sum(axis=1), common)
                lap = m - np.diag(common)
                offdiag = lap - np.diag(np.diag(lap))
                assert set(np.unique(offdiag)) <= {0.0, -1.0}
                w = sym_eigs([lap])[0]
                zero_mult = int(np.sum(np.abs(w) < 1e-9))
                assert zero_mult == component_count(g, nb.members)


class TestReorderErrors:
    """Regrouping the pair stack by target, as the structural identity does."""

    def test_path_block_placement(self, path4):
        nbs = all_khop_sets(path4, 3)
        pairs = pair_layout(nbs.table, unit_gains(4), 1)
        # pairs estimator-major: (1,3) (1,4) (2,4) (3,1) (4,1) (4,2)
        assert pairs.estimator.tolist() == [0, 0, 1, 2, 3, 3]
        assert pairs.target.tolist() == [2, 3, 3, 0, 0, 1]
        n_dim = 2
        vec = np.arange(12.0)
        order = np.argsort(pairs.target, kind="stable")
        out = vec.reshape(-1, n_dim)[order].reshape(-1)
        # target-major order: (3,1) (4,1) (4,2) (1,3) (1,4) (2,4)
        # target 1 comes from estimators 3 then 4
        assert np.array_equal(out[0:2], vec[6:8])    # (3,1)
        assert np.array_equal(out[2:4], vec[8:10])   # (4,1)
        assert np.array_equal(out[4:6], vec[10:12])  # (4,2)
        assert np.array_equal(out[6:8], vec[0:2])    # (1,3)
        assert np.array_equal(out[8:10], vec[2:4])   # (1,4)
        assert np.array_equal(out[10:12], vec[4:6])  # (2,4)
