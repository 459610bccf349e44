"""Dense kernel tests: eigensolver, the spectral norms the gain design uses,
definiteness.

Expected eigenvalues come from closed-form characteristic polynomials or
from numpy's independent LAPACK-backed solver, never from the kernel under
test.
"""

import numpy as np
import pytest

from conftest import random_connected_graph
from khopsim.dense_linalg import is_negative_definite, sym_eig
from khopsim.errors import NumericalError

GOLDEN = (3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0


class TestSymEig:
    def test_char_poly_2x2(self):
        # lambda^2 - 3 lambda + 1 = 0 for [[2,-1],[-1,1]]
        w = sym_eig([[2.0, -1.0], [-1.0, 1.0]])
        assert w == pytest.approx(GOLDEN, abs=1e-12)

    def test_identity(self):
        w = sym_eig(np.eye(3))
        assert w == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_scalar(self):
        w = sym_eig([[7.0]])
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
        w = sym_eig(0.5 * (m + m.T))
        assert w[0] == pytest.approx(0.17, abs=5e-3)
        assert w[-1] == pytest.approx(3.96, abs=5e-3)

    def test_ascending_eigenvalues_random(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5, 8, 13, 21, 32):
            a = rng.normal(size=(dim, dim))
            m = 0.5 * (a + a.T)
            w = sym_eig(m)
            assert w.shape == (dim,)
            assert np.all(np.diff(w) >= 0.0)
            # independent oracle
            assert w == pytest.approx(np.linalg.eigvalsh(m), abs=1e-9)

    def test_laplacian_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_connected_graph(rng)
            w = sym_eig(g.laplacian())
            assert w[0] >= -1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericalError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSpectralNorm:
    """``tune_omega`` takes ``||M (x) G||`` as ``lambda_max(M) lambda_max(G)``."""

    def test_symmetric_psd_equals_lambda_max(self):
        m1 = np.array([[2.0, -1.0], [-1.0, 1.0]])
        lam_max = sym_eig(m1)[-1]
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


class TestNegativeDefinite:
    def test_negative_identity(self):
        assert is_negative_definite(-np.eye(2), tol=1e-9)

    def test_zero_matrix(self):
        assert not is_negative_definite(np.zeros((2, 2)))

    def test_single_integrator_design_condition(self):
        # G = 20 I with zero drift: g(A + A^T) - 2 g^2 I = -800 I
        g = 20.0
        a = np.zeros((2, 2))
        cond = g * (a + a.T) - 2.0 * g * g * np.eye(2)
        w = sym_eig(cond)
        assert w[-1] == pytest.approx(-800.0, abs=1e-9)
        assert is_negative_definite(cond)

    def test_symmetrizes_input(self):
        # asymmetric matrix whose symmetric part is -I
        m = np.array([[-1.0, 5.0], [-5.0, -1.0]])
        assert is_negative_definite(m)
