"""The setup tables built from one pair table against their loop forms.

``coupling_matrices``, ``pair_layout`` and ``build_structure`` build every
agent's and every pair's table with array operations; the oracles in
``tests/reference_form.py`` build them one agent and one pair at a time.
The bytes must agree (so ``-0.0`` counts), and so must every error. The
grouped checks of ``sym_eigs`` must raise what one-matrix calls raise, for
the first bad matrix in input order.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, connected_graphs, random_connected_graph, unit_gains
from khopsim import Graph, PlantModel, SimConfig, all_khop_sets, coupling_matrices
from khopsim.dense_linalg import sym_eigs
from khopsim.errors import NumericalError, ProtocolError
from khopsim.plant_sim import _column_layout, csv_header
from reference_form import control_wiring, coupling_matrix, pair_tables


@st.composite
def networks(draw, max_n=14):
    """A connected graph, sometimes complete (no pairs at all), a hop
    horizon in {2, 3, 4} and a connected target graph on the same agents."""
    g = draw(st.one_of(connected_graphs(max_n), st.integers(2, 6).map(complete_graph)))
    n = g.n
    tree = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n))
    tg = Graph(n, frozenset(tree | {(min(a, b), max(a, b)) for a, b in extra if a != b}))
    return g, draw(st.sampled_from([2, 3, 4])), tg


def build(g, k, tg, n_dim=2):
    return SimConfig(graph=g, k=k, plant=PlantModel(n_dim, np.zeros((n_dim, n_dim))),
                     gains=unit_gains(g.n), dt=0.01, t_end=0.1, x0=np.zeros((g.n, n_dim)),
                     target_graph=tg)


@settings(max_examples=150, deadline=None)
@given(networks())
def test_coupling_matrices_match_the_loop_form_byte_for_byte(net):
    g, k, _ = net
    nbs = all_khop_sets(g, k)
    got = coupling_matrices(nbs)
    assert len(got) == g.n
    for nb, m in zip(nbs, got):
        if nb.eta == 0:
            assert m is None
        else:
            ref = coupling_matrix(g, nb)
            assert m.shape == ref.shape and m.dtype == ref.dtype
            assert m.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(networks())
def test_coupling_matrices_are_exactly_symmetric(net):
    # sym_eigs neither checks nor restores symmetry: it solves these as built.
    g, k, _ = net
    for m in coupling_matrices(all_khop_sets(g, k)):
        assert m is None or m.tobytes() == m.T.tobytes()


@settings(max_examples=150, deadline=None)
@given(networks())
def test_pair_and_control_tables_match_the_loop_form(net):
    g, k, tg = net
    nbs = all_khop_sets(g, k)
    try:
        want_control = control_wiring(g, tg, k, nbs, pair_tables(nbs)[2])
    except ProtocolError as exc:
        with pytest.raises(ProtocolError, match=f"^{re.escape(str(exc))}$"):
            build(g, k, tg)
        return
    s = build(g, k, tg).structure
    for got, want in zip((s.pairs.estimator, s.pairs.target, s.pairs.offsets, s.pairs.terms),
                         pair_tables(nbs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and not got.flags.writeable
    terms, disturbance, owners = want_control
    want_bins = (owners[:, None] * 2 + np.arange(2)).reshape(-1)
    for got, want in zip((s.control_terms, s.disturbance_pairs, s.disturbance_bins),
                         (terms, disturbance, want_bins)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and not got.flags.writeable


def test_no_target_graph_means_no_control_terms():
    g = random_connected_graph(np.random.default_rng(3), 6, 6)
    s = build(g, 3, None).structure
    assert s.control_terms.shape == (0, g.n) and s.disturbance_pairs.size == 0
    assert s.disturbance_bins.size == 0


def symmetric_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-100, 100)
    return a + a.T


def bad_matrix(rng, dim, kind):
    m = symmetric_matrix(rng, max(dim, 2))
    if kind == "non-finite":
        m[rng.integers(len(m)), rng.integers(len(m))] = rng.choice([np.nan, np.inf, -np.inf])
    else:  # an overflowing Frobenius norm
        m[:] = 1e200
    return m


def one_by_one(matrices):
    """The one-matrix calls in input order, up to the first that raises."""
    out = []
    for m in matrices:
        try:
            out.append(sym_eigs([m])[0])
        except NumericalError as exc:
            return out, str(exc)
    return out, None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=8), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["non-finite", "overflow"]), max_size=2))
def test_grouped_checks_fail_as_one_matrix_calls_do(dims, seed, kinds):
    # Up to two bad matrices, of any kind, each at a random position.
    rng = np.random.default_rng(seed)
    matrices = [symmetric_matrix(rng, d) for d in dims]
    for kind in kinds:
        at = int(rng.integers(len(matrices)))
        matrices[at] = bad_matrix(rng, dims[at], kind)
    want, error = one_by_one(matrices)
    if error is not None:
        with pytest.raises(NumericalError, match=f"^{re.escape(error)}$"):
            sym_eigs(matrices)
        return
    got = sym_eigs(matrices)
    assert len(got) == len(want)
    for w, ref in zip(got, want):
        assert w.tobytes() == ref.tobytes()


def test_stacked_norms_sum_as_one_matrix_does():
    # The grouped checks take each Frobenius norm from a stack; the sums
    # must round as a single matrix's ``(a * a).sum()`` does.
    rng = np.random.default_rng(7)
    for dim in (2, 3, 9, 17, 39, 91, 150):
        stack = rng.normal(size=(5, dim, dim)) * 10.0 ** rng.uniform(-150, 150, size=(5, 1, 1))
        sums = (stack * stack).reshape(5, -1).sum(1)
        for m, s in zip(stack, sums):
            assert (m * m).sum() == s


def column_layout_by_ndindex(n, n_dim):
    """The CSV columns as ``np.ndindex`` spells them out."""
    layout = []
    for field, prefix, shape in (("times", "t", ()), ("states", "x", (n, n_dim)),
                                 ("inputs", "u", (n, n_dim)), ("errx", "errx", (n,)),
                                 ("erru", "erru", (n,)), ("cons_dist", "consdist", ()),
                                 ("v", "v", (n, n_dim))):
        names = ["_".join([prefix, *(str(j + 1) for j in idx)]) for idx in np.ndindex(shape)]
        layout.append((field, shape, names))
    return layout


@pytest.mark.parametrize("n, n_dim", [(2, 1), (4, 2), (150, 2)])
def test_csv_columns_keep_their_names(n, n_dim):
    assert _column_layout(n, n_dim) == column_layout_by_ndindex(n, n_dim)
    assert csv_header(n, n_dim) == [name for *_, names in column_layout_by_ndindex(n, n_dim)
                                    for name in names]


def test_laplacian_matches_the_edge_loop():
    rng = np.random.default_rng(29)
    for _ in range(50):
        g = random_connected_graph(rng, 2, 30, rng.uniform(0.0, 0.5))
        lap = np.zeros((g.n, g.n))
        for i, j in g.edges:
            lap[i - 1, i - 1] += 1.0
            lap[j - 1, j - 1] += 1.0
            lap[i - 1, j - 1] -= 1.0
            lap[j - 1, i - 1] -= 1.0
        assert g.laplacian().tobytes() == lap.tobytes()
