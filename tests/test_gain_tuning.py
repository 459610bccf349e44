"""Gain design and certificate tests.

Published design values for the 4-agent path scenario (linear gains 2.62 /
1.0, switching gains 3.4 / 0.5 and 9.7 / 1.0 with g = 20) are reproduced
from the closed-form bounds; everything else is checked against direct
matrix assembly.
"""

import numpy as np
import pytest

from conftest import chorded_ring, random_connected_graph
from khopsim import (
    BoundSet,
    Graph,
    PlantModel,
    all_khop_sets,
    certificate,
    coupling_matrices,
    design_G,
    g_spectrum,
    gain_tuning,
    tune_gains,
    tune_omega,
    tune_pi,
    tune_theta,
)
from khopsim.errors import (
    CertificateInfeasible,
    CouplingNotPD,
    GainConditionViolated,
)
from khopsim.dense_linalg import is_negative_definite, sym_eig
from khopsim.gain_tuning import GainSet
from khopsim.graph_khop import ObserverCoupling
from khopsim.scenario_cli import REPRODUCTION_SCENARIO, load_scenario
from reference_form import verify_gain_inequality


def plant2(a=None, l_f=0.0):
    return PlantModel(N=2, A=np.zeros((2, 2)) if a is None else a, l_f=l_f)


def design_condition(plant, G):
    """``G^T A + A^T G - 2 G^T G``, which the design requires negative definite."""
    return G.T @ plant.A + plant.A.T @ G - 2.0 * (G.T @ G)


def scalar_coupling(value=1.0):
    m = np.array([[value]])
    return ObserverCoupling(
        L=np.zeros((1, 1)), H=m.copy(), M=m, lambda_min=value, lambda_max=value
    )


class TestDesignG:
    def test_single_integrator_explicit_scale(self):
        G = design_G(plant2(), g_scale=20.0)
        assert np.array_equal(G, 20.0 * np.eye(2))
        condition = design_condition(plant2(), G)
        assert is_negative_definite(condition)
        assert sym_eig(condition)[-1] == pytest.approx(-800.0, abs=1e-9)

    def test_stable_drift_auto(self):
        G = design_G(PlantModel(N=2, A=-np.eye(2)))
        assert np.array_equal(G, np.eye(2))

    def test_jordan_block_auto(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        G = design_G(PlantModel(N=2, A=a))
        assert np.array_equal(G, 1.5 * np.eye(2))
        assert is_negative_definite(design_condition(PlantModel(N=2, A=a), G))

    def test_violating_scale_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(GainConditionViolated):
            design_G(PlantModel(N=2, A=a), g_scale=0.3)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(GainConditionViolated):
            design_G(plant2(), g_scale=-1.0)


class TestTuneOmega:
    def test_path_agents(self, path4, path4_couplings):
        _, cpls = path4_couplings
        G = 20.0 * np.eye(2)
        assert tune_omega(cpls[0], plant2(), g_spectrum(G)) == pytest.approx(2.62, abs=0.01)
        assert tune_omega(cpls[1], plant2(), g_spectrum(G)) == pytest.approx(1.0, abs=1e-12)

    def test_lipschitz_term(self):
        # 1 * (1 + 1*1/(1*1)) = 2
        plant = PlantModel(N=1, A=np.zeros((1, 1)), l_f=1.0)
        assert tune_omega(scalar_coupling(), plant, g_spectrum(np.eye(1))) == pytest.approx(2.0)

    def test_zero_lipschitz_is_inverse_lambda_min(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_connected_graph(rng, n_min=3)
            for nb in all_khop_sets(g, 2):
                if nb.eta == 0:
                    continue
                c = coupling_matrices(g, nb)
                got = tune_omega(c, plant2(), g_spectrum(5.0 * np.eye(2)))
                assert got == pytest.approx(1.0 / c.lambda_min, rel=1e-12)

    def test_singular_coupling_rejected(self):
        c = ObserverCoupling(
            L=np.zeros((1, 1)),
            H=np.zeros((1, 1)),
            M=np.zeros((1, 1)),
            lambda_min=0.0,
            lambda_max=0.0,
        )
        with pytest.raises(CouplingNotPD):
            tune_omega(c, plant2(), g_spectrum(np.eye(2)))


class TestTuneThetaPi:
    def test_reference_design_values(self, path4_couplings):
        _, cpls = path4_couplings
        G = 20.0 * np.eye(2)
        assert tune_theta(cpls[1], g_spectrum(G), 0.5, slack=1e-9) == pytest.approx(0.5, abs=1e-6)
        assert tune_theta(cpls[0], g_spectrum(G), 0.496, slack=1e-9) == pytest.approx(3.4, abs=0.01)
        assert tune_pi(cpls[0], 2, 1.0, slack=1e-9) == pytest.approx(9.7, abs=0.01)
        assert tune_pi(cpls[1], 1, 1.0, slack=1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_zero_bound_gives_slack(self):
        c = scalar_coupling()
        assert tune_theta(c, g_spectrum(np.eye(2)), 0.0, slack=0.25) == 0.25
        assert tune_pi(c, 1, 0.0, slack=0.25) == 0.25

    def test_slack_must_be_positive(self):
        c = scalar_coupling()
        with pytest.raises(ValueError):
            tune_theta(c, g_spectrum(np.eye(2)), 1.0, slack=0.0)
        with pytest.raises(ValueError):
            tune_pi(c, 1, 1.0, slack=-1.0)


class TestGainInequality:
    def test_reference_gains_hold(self, path4, path4_couplings):
        _, cpls = path4_couplings
        G = 20.0 * np.eye(2)
        for cpl in cpls:
            omega = tune_omega(cpl, plant2(), g_spectrum(G))
            rep = verify_gain_inequality(cpl, plant2(), G, omega)
            assert rep.holds and rep.lambda_max < 0

    def test_zero_gain_with_lipschitz_fails(self):
        plant = PlantModel(N=1, A=np.zeros((1, 1)), l_f=1.0)
        rep = verify_gain_inequality(scalar_coupling(), plant, np.eye(1), 0.0)
        assert not rep.holds and rep.lambda_max == pytest.approx(1.0)

    def test_tuned_gains_always_satisfy_inequality(self):
        # sufficiency sweep: random graphs, random drift, random Lipschitz
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 100:
            g = random_connected_graph(rng, n_min=3, n_max=6)
            k = int(rng.integers(2, 4))
            n_dim = int(rng.integers(1, 4))
            a = rng.normal(size=(n_dim, n_dim))
            l_f = float(rng.uniform(0.0, 1.0))
            plant = PlantModel(N=n_dim, A=a, l_f=l_f)
            G = design_G(plant)
            for nb in all_khop_sets(g, k):
                if nb.eta == 0:
                    continue
                cpl = coupling_matrices(g, nb)
                omega = tune_omega(cpl, plant, g_spectrum(G))
                rep = verify_gain_inequality(cpl, plant, G, omega)
                assert rep.holds, (g, k, a, l_f, omega, rep.lambda_max)
                checked += 1


class TestCertificate:
    def test_scalar_plugin(self):
        cpl = scalar_coupling()
        gains = GainSet(
            G=np.eye(1),
            omega=np.array([1.0]),
            theta=np.array([1.0]),
            pi=np.array([1.0]),
        )
        bounds = BoundSet(n=1, d_udot=0.0, d_tilde_u=0.0)
        plant = PlantModel(N=1, A=np.zeros((1, 1)))
        cert = certificate([cpl], plant, gains, bounds, [2.0], [0.0])
        assert cert.phi[0] == pytest.approx(1.0)
        assert cert.T_x[0] == pytest.approx(2.0)

    def test_reference_pi_sits_on_the_bound(self, path4_couplings):
        # with pi exactly 1.0 the margin psi vanishes: infeasible
        _, cpls = path4_couplings
        gains = GainSet(
            G=20.0 * np.eye(2),
            omega=np.array([2.619, 1.0, 1.0, 2.619]),
            theta=np.array([3.43, 0.501, 0.501, 3.43]),
            pi=np.array([9.7, 1.0, 1.0, 9.7]),
        )
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        with pytest.raises(CertificateInfeasible) as err:
            certificate(cpls, plant2(), gains, bounds, np.ones(4), np.ones(4))
        assert err.value.quantity == "psi"
        # a strictly positive slack restores feasibility
        gains2 = GainSet(
            G=gains.G,
            omega=gains.omega,
            theta=gains.theta,
            pi=gains.pi + 1e-3,
        )
        cert = certificate(cpls, plant2(), gains2, bounds, np.ones(4), np.ones(4))
        assert np.all(cert.psi > 0)
        assert cert.T_xu == pytest.approx(cert.T_x_global + cert.T_u_global)

    def test_monotone_in_theta(self, path4_couplings):
        _, cpls = path4_couplings
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        base = dict(
            G=20.0 * np.eye(2),
            omega=np.array([2.619, 1.0, 1.0, 2.619]),
            pi=np.array([9.7, 1.01, 1.01, 9.7]),
        )
        prev_phi, prev_tx = None, None
        for theta1 in (3.5, 4.0, 6.0):
            gains = GainSet(theta=np.array([theta1, 0.52, 0.52, theta1]), **base)
            cert = certificate(cpls, plant2(), gains, bounds, np.ones(4), np.ones(4))
            if prev_phi is not None:
                assert cert.phi[0] > prev_phi
                assert cert.T_x[0] < prev_tx
            prev_phi, prev_tx = cert.phi[0], cert.T_x[0]

    def test_omega_below_its_bound_is_infeasible(self):
        # The bound is not strict: the tuned omega certifies, one ulp below
        # it does not, and neither does omega = 0 (which once certified
        # T_x = [2610, 250, 269, 2423] on these couplings).
        sc = load_scenario(REPRODUCTION_SCENARIO)
        tuned, _, cpls = tune_gains(sc.graph, sc.k, sc.plant, sc.bounds)
        args = (sc.bounds, np.ones(4), np.ones(4))
        assert np.all(np.isfinite(certificate(cpls, sc.plant, tuned, *args).T_x))
        one_ulp_below = tuned.omega.copy()
        one_ulp_below[2] = np.nextafter(one_ulp_below[2], 0.0)
        for omega, agent in ((one_ulp_below, 3), (np.zeros(4), 1)):
            gains = GainSet(G=tuned.G, omega=omega, theta=tuned.theta, pi=tuned.pi)
            with pytest.raises(CertificateInfeasible) as err:
                certificate(cpls, sc.plant, gains, *args)
            assert (err.value.agent, err.value.quantity) == (agent, "omega")
            assert err.value.bound == tuned.omega[agent - 1]
            assert f"omega = {omega[agent - 1]:.6g} < " in str(err.value)


class TestBoundSet:
    def test_requires_some_bound(self):
        with pytest.raises(ValueError):
            BoundSet(n=2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BoundSet(n=2, d_udot=-1.0)

    def test_broadcasts_scalars(self):
        b = BoundSet(n=3, d_udot=1.0, d_tilde_u=[0.1, 0.2, 0.3])
        assert b.d_udot.shape == (3,)
        assert b.tilde_u(2, eta_i=1) == 0.2

    def test_default_tilde_u_from_input_bound(self):
        b = BoundSet(n=2, d_u=2.0)
        assert b.tilde_u(1, eta_i=4, uhat0_mag=0.5) == pytest.approx(
            np.sqrt(4) * (2.0 + 0.5)
        )

    def test_tilde_u_unavailable(self):
        b = BoundSet(n=2, d_udot=1.0)
        with pytest.raises(ValueError):
            b.tilde_u(1, eta_i=1)


class TestTuneGains:
    def test_path_reproduction(self, path4):
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        gains, nbs, cpls = tune_gains(
            path4, 3, plant2(), bounds, g_scale=20.0, slack=1e-3
        )
        assert gains.omega == pytest.approx([2.618, 1.0, 1.0, 2.618], abs=1e-3)
        assert gains.theta == pytest.approx([3.428, 0.501, 0.501, 3.428], abs=1e-3)
        assert gains.pi == pytest.approx([9.694, 1.001, 1.001, 9.694], abs=1e-3)
        assert all(c is not None for c in cpls)

    def test_complete_graph_no_observers(self):
        g = Graph(4, {(i, j) for i in range(1, 5) for j in range(i + 1, 5)})
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        gains, nbs, cpls = tune_gains(g, 2, plant2(), bounds)
        assert all(c is None for c in cpls)
        assert np.all(np.isnan(gains.omega))

    def test_g_spectrum_computed_once(self, monkeypatch):
        # Every agent's omega and theta bound uses the same spectrum of G.
        sc = load_scenario(chorded_ring())
        real, calls = gain_tuning.g_spectrum, []

        def counted(G):
            calls.append(G)
            return real(G)

        monkeypatch.setattr(gain_tuning, "g_spectrum", counted)
        gains, _, cpls = tune_gains(sc.graph, sc.k, sc.plant, sc.bounds)
        assert sum(c is not None for c in cpls) == 12
        assert len(calls) == 1 and calls[0] is gains.G
