"""Dense kernel tests: eigensolver and the spectral norms the gain design
uses.

Expected eigenvalues come from closed-form characteristic polynomials or
from numpy's independent LAPACK-backed solver, never from the kernel under
test. Its bits are checked against :mod:`reference_jacobi`, the same
rotations on numpy rows.
"""

import contextlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_jacobi
from conftest import chorded_ring, random_connected_graph
from khopsim import Graph, dense_linalg, gain_tuning, tune_gains
from khopsim.dense_linalg import JACOBI_RTOL, sym_eigs
from khopsim.errors import NumericalError
from khopsim.scenario_cli import load_scenario

GOLDEN = (3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0


class TestSymEig:
    def test_char_poly_2x2(self):
        # lambda^2 - 3 lambda + 1 = 0 for [[2,-1],[-1,1]]
        w = sym_eigs([[[2.0, -1.0], [-1.0, 1.0]]])[0]
        assert w == pytest.approx(GOLDEN, abs=1e-12)

    def test_identity(self):
        w = sym_eigs([np.eye(3)])[0]
        assert w == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_scalar(self):
        w = sym_eigs([[[7.0]]])[0]
        assert w.shape == (1,) and w[0] == 7.0

    def test_prior_full_network_comparison_matrix(self):
        # Documented comparison point: the full-network observer couples
        # agent 2 through the whole path Laplacian plus its own diagonal
        # entry, with published extreme eigenvalues 0.17 and 3.96.
        m = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [-1.0, 3.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
        w = sym_eigs([0.5 * (m + m.T)])[0]
        assert w[0] == pytest.approx(0.17, abs=5e-3)
        assert w[-1] == pytest.approx(3.96, abs=5e-3)

    def test_ascending_eigenvalues_random(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5, 8, 13, 21, 32):
            a = rng.normal(size=(dim, dim))
            m = 0.5 * (a + a.T)
            w = sym_eigs([m])[0]
            assert w.shape == (dim,)
            assert np.all(np.diff(w) >= 0.0)
            # independent oracle
            assert w == pytest.approx(np.linalg.eigvalsh(m), abs=1e-9)

    def test_laplacian_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_connected_graph(rng)
            w = sym_eigs([g.laplacian()])[0]
            assert w[0] >= -1e-10

    def test_converges_when_only_a_lower_twin_is_above_the_threshold(self):
        # After six sweeps on this Laplacian one entry below the diagonal
        # rests just above the threshold while its twin above it, the one
        # the rotations read, is below: every later sweep did nothing, and
        # a stop test over both triangles never passed.
        edges = {(1, 2), (2, 3), (2, 4), (2, 15), (3, 10), (4, 5), (4, 6), (4, 7), (4, 11),
                 (5, 8), (5, 14), (6, 9), (6, 12), (6, 15), (9, 16), (10, 13), (11, 13)}
        lap = Graph(16, edges).laplacian()
        assert_same_outcome(lap)
        assert sym_eigs([lap])[0] == pytest.approx(np.linalg.eigvalsh(lap), abs=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            sym_eigs([[[np.nan, 0.0], [0.0, 1.0]]])[0]

    def test_overflowing_norm_rejected_without_warning(self):
        # The true eigenvalues are +-1e200; an infinite threshold would skip
        # every rotation and answer [0, 0].
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="Frobenius norm"):
                sym_eigs([[[0.0, 1e200], [1e200, 0.0]]])[0]
        assert sym_eigs([[[0.0, 1e150], [1e150, 0.0]]])[0] == pytest.approx([-1e150, 1e150])

    def test_converges_when_the_squares_underflow(self):
        # Every square underflows, so the computed norm is 0 although the
        # true one is ~1e-163. A threshold of JACOBI_RTOL times a subnormal
        # stalled: a rotation's rounding no longer shrinks with the entry.
        a = np.random.default_rng(11).normal(size=(11, 11))
        unit = 0.5 * (a + a.T)
        m = unit * 1e-164
        assert np.sum(m * m) == 0.0
        assert_same_outcome(m)
        ref = np.linalg.eigvalsh(unit)
        assert np.max(np.abs(sym_eigs([m])[0] / 1e-164 - ref)) <= 1e-13 * np.max(np.abs(ref))


def assert_same_outcome(m):
    """``sym_eigs`` and the oracle give the same bits, or fail the same way
    (both run out of sweeps). The threshold is floored at the smallest
    normal float, so entries whose squares underflow the norm converge too."""
    try:
        ref = reference_jacobi.eigenvalues(m)
    except NumericalError as exc:
        with pytest.raises(NumericalError, match=re.escape(str(exc))):
            sym_eigs([m])[0]
        return
    w = sym_eigs([m])[0]
    assert w.dtype == ref.dtype and np.array_equal(w, ref)
    assert np.array_equal(np.signbit(w), np.signbit(ref))


@st.composite
def coupling_like_matrices(draw, max_n=32):
    """Integer ``L + H``: a random graph's Laplacian plus a non-negative
    integer diagonal, the shape of every coupling matrix ``M_i``."""
    n = draw(st.integers(1, max_n))
    m = np.diag(np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), float))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pairs, max_size=3 * n)):
        if i != j and m[i, j] == 0.0:
            m[i, j] = m[j, i] = -1.0
            m[i, i] += 1.0
            m[j, j] += 1.0
    return m


symmetric_floats = st.integers(1, 16).flatmap(
    lambda n: arrays(float, (n, n), elements=st.floats(-1e6, 1e6, width=64))
).map(lambda a: a + a.T)


# The oracle scans the triangle before each sweep and ``sym_eigs`` stops on a
# sweep that rotates nothing; small limits make both run out of sweeps.
sweep_limits = st.sampled_from([1, 2, 3, 64])


@contextlib.contextmanager
def limited_sweeps(sweeps):
    """``sym_eigs`` and the oracle both allowed at most ``sweeps`` sweeps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense_linalg, "_MAX_SWEEPS", sweeps)
        mp.setattr(reference_jacobi, "_MAX_SWEEPS", sweeps)
        yield


class TestRotationsOnPythonFloats:
    """``sym_eigs`` runs the oracle's rotations on Python floats; the gains
    depend on every bit of the answer, so the two must agree exactly."""

    @settings(max_examples=150, deadline=None)
    @given(coupling_like_matrices(), sweep_limits)
    def test_coupling_like_matrices_match_the_oracle_bit_for_bit(self, m, sweeps):
        with limited_sweeps(sweeps):
            assert_same_outcome(m)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_floats, sweep_limits)
    def test_symmetric_float_matrices_match_the_oracle_bit_for_bit(self, m, sweeps):
        with limited_sweeps(sweeps):
            assert_same_outcome(m)

    def test_tune_gains_unchanged_under_the_oracle(self, monkeypatch):
        sc = load_scenario(chorded_ring())

        def tuned():
            gains, _, (lmin, lmax, _) = tune_gains(sc.graph, sc.values["k"], sc.plant, sc.bounds)
            spectra = [lmin.tobytes(), lmax.tobytes()]
            arrays = [a.tobytes() for a in (gains.omega, gains.theta, gains.pi)]
            return [gains.g.hex(), *arrays], spectra

        ours = tuned()
        calls = []

        def oracle(m):
            calls.append(1)
            return reference_jacobi.eigenvalues(m)

        # coupling_spectra and design_g both solve through sym_eigs
        monkeypatch.setattr(gain_tuning, "sym_eigs", lambda ms: [oracle(m) for m in ms])
        assert tuned() == ours
        assert len(calls) == sc.graph.n + 1  # the couplings and design_g


def block_diagonal(blocks, perm):
    """The blocks on the diagonal, rows and columns then permuted by ``perm``."""
    n = sum(len(b) for b in blocks)
    m = np.zeros((n, n))
    at = 0
    for b in blocks:
        m[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return m[np.ix_(perm, perm)]


@st.composite
def shared_block_lists(draw):
    """Matrices that share blocks from one pool, each with a 1x1 companion
    block whose size sets the Frobenius norm and so moves the threshold
    across the shared blocks' entries, rows and columns permuted."""
    small_floats = st.integers(1, 5).flatmap(
        lambda n: arrays(float, (n, n), elements=st.floats(-1e3, 1e3, width=64))
    ).map(lambda a: a + a.T)
    pool = draw(st.lists(st.one_of(coupling_like_matrices(max_n=6), small_floats),
                         min_size=1, max_size=4))
    matrices = []
    for _ in range(draw(st.integers(1, 5))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))
        companion = np.array([[draw(st.sampled_from([0.0, 1.0, -1.0])) *
                               10.0 ** draw(st.floats(-2.0, 16.0))]])
        blocks = [pool[i] for i in picks] + [companion]
        n = sum(len(b) for b in blocks)
        matrices.append(block_diagonal(blocks, draw(st.permutations(range(n)))))
    return matrices


def count_solves(monkeypatch):
    """Patch the block solver to count its calls."""
    calls = []
    solve = dense_linalg._jacobi

    def counted(rows, thresh):
        calls.append(len(rows))
        return solve(rows, thresh)

    monkeypatch.setattr(dense_linalg, "_jacobi", counted)
    return calls


class TestBlocksAndTheCallCache:
    """``sym_eigs`` rotates each irreducible block alone and solves each
    distinct block once per call; every answer keeps the oracle's bits."""

    @settings(max_examples=100, deadline=None)
    @given(shared_block_lists(), sweep_limits)
    def test_shared_blocks_match_the_oracle_bit_for_bit(self, matrices, sweeps):
        with limited_sweeps(sweeps):
            refs = []
            for m in matrices:
                try:
                    refs.append(reference_jacobi.eigenvalues(m))
                except NumericalError as exc:
                    with pytest.raises(NumericalError, match=re.escape(str(exc))):
                        sym_eigs(matrices)
                    matrices = matrices[:len(refs)]
                    break
            got = sym_eigs(matrices)
        assert len(got) == len(refs)
        for w, ref in zip(got, refs):
            assert np.array_equal(w.view(np.int64), ref.view(np.int64))

    def test_a_block_is_solved_again_outside_its_threshold_interval(self, monkeypatch):
        # The shared block's off-diagonal 1e-3 lies above the threshold of
        # the first matrix and below that of the second, which skips it.
        shared = np.array([[2.0, 1e-3], [1e-3, 1.0]])
        rotates = block_diagonal([shared, [[1.0]]], [2, 0, 1])
        skips = block_diagonal([[[1e10]], shared], [1, 2, 0])
        assert JACOBI_RTOL * np.linalg.norm(rotates) < 1e-3 < JACOBI_RTOL * np.linalg.norm(skips)
        calls = count_solves(monkeypatch)
        for matrices in ([rotates, skips], [skips, rotates]):
            got = sym_eigs(matrices)
            for w, m in zip(got, matrices):
                assert np.array_equal(w, reference_jacobi.eigenvalues(m))
        assert calls == [2] * 4
        assert list(got[0]) == [1.0, 2.0, 1e10] and got[1][0] < 1.0  # skipped, rotated

    def test_a_block_is_reused_inside_its_threshold_interval(self, monkeypatch):
        shared = np.array([[2.0, -1.0], [-1.0, 1.0]])
        matrices = [block_diagonal([shared, [[c]]], [1, 2, 0]) for c in (0.0, 3.0, 1e4)]
        calls = count_solves(monkeypatch)
        got = sym_eigs(matrices)
        assert calls == [2]
        for w, m in zip(got, matrices):
            assert np.array_equal(w, reference_jacobi.eigenvalues(m))

    def test_interleaved_twin_blocks_are_solved_once(self, monkeypatch):
        m = block_diagonal([[[2.0, -1.0], [-1.0, 1.0]]] * 2, [0, 2, 1, 3])
        calls = count_solves(monkeypatch)
        assert np.array_equal(sym_eigs([m])[0], reference_jacobi.eigenvalues(m))
        assert calls == [2]

    def test_a_second_call_solves_again(self, monkeypatch):
        matrices = [np.array([[2.0, -1.0], [-1.0, 1.0]])] * 3
        calls = count_solves(monkeypatch)
        first = sym_eigs(matrices)
        second = sym_eigs(matrices)
        assert calls == [2, 2]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestSpectralNorm:
    """``tune_omega`` takes ``||M (x) G||`` as ``lambda_max(M) g`` for ``G = g I``."""

    def test_symmetric_psd_equals_lambda_max(self):
        m1 = np.array([[2.0, -1.0], [-1.0, 1.0]])
        lam_max = sym_eigs([m1])[0][-1]
        assert lam_max == pytest.approx(GOLDEN[1], abs=1e-10)
        assert np.linalg.norm(m1, 2) == pytest.approx(lam_max, abs=1e-10)

    def test_kron_norm_factorizes(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            a = rng.normal(size=(3, 3))
            a = 0.5 * (a + a.T)
            b = rng.normal(size=(2, 2))
            b = 0.5 * (b + b.T)
            assert np.linalg.norm(np.kron(a, b), 2) == pytest.approx(
                np.linalg.norm(a, 2) * np.linalg.norm(b, 2), rel=1e-10
            )

