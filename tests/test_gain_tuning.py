"""Gain design and certificate tests.

Published design values for the 4-agent path scenario (linear gains 2.62 /
1.0, switching gains 3.4 / 0.5 and 9.7 / 1.0 with g = 20) are reproduced
from the closed-form bounds; everything else is checked against direct
matrix assembly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, random_connected_graph
from khopsim import (
    BoundSet,
    Graph,
    PlantModel,
    all_khop_sets,
    certificate,
    coupling_matrices,
    coupling_spectra,
    design_g,
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
from khopsim.dense_linalg import DEFINITENESS_TOL, sym_eigs
from khopsim.gain_tuning import GainSet
from khopsim.scenario_cli import REPRODUCTION_SCENARIO, load_scenario
from reference_form import reference_certificate, reference_gains, verify_gain_inequality


def plant2(a=None, l_f=0.0):
    return PlantModel(N=2, A=np.zeros((2, 2)) if a is None else a, l_f=l_f)


def design_condition(plant, g):
    """``G^T A + A^T G - 2 G^T G`` for ``G = g I``, which the design
    requires negative definite."""
    G = g * np.eye(plant.N)
    return G.T @ plant.A + plant.A.T @ G - 2.0 * (G.T @ G)


def negative_definite(m):
    return sym_eigs([0.5 * (m + m.T)])[0][-1] < -DEFINITENESS_TOL


def spectrum(m):
    """``(lambda_min, lambda_max)`` of one coupling matrix."""
    lmin, lmax, _ = coupling_spectra([m])
    return lmin[0], lmax[0]


def scalar_coupling(value=1.0):
    return np.array([[value]])


class TestDesignG:
    def test_single_integrator_explicit_scale(self):
        g = design_g(plant2(), g_scale=20.0)
        assert g == 20.0
        condition = design_condition(plant2(), g)
        assert negative_definite(condition)
        assert sym_eigs([condition])[0][-1] == pytest.approx(-800.0, abs=1e-9)

    def test_stable_drift_auto(self):
        assert design_g(PlantModel(N=2, A=-np.eye(2))) == 1.0

    def test_jordan_block_auto(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = design_g(PlantModel(N=2, A=a))
        assert g == 1.5
        assert negative_definite(design_condition(PlantModel(N=2, A=a), g))

    def test_violating_scale_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not negative_definite(design_condition(PlantModel(N=2, A=a), 0.3))
        with pytest.raises(GainConditionViolated):
            design_g(PlantModel(N=2, A=a), g_scale=0.3)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(GainConditionViolated):
            design_g(plant2(), g_scale=-1.0)


class TestTuneOmega:
    def test_path_agents(self, path4, path4_couplings):
        _, cpls = path4_couplings
        assert tune_omega(*spectrum(cpls[0]), plant2(), 20.0) == pytest.approx(2.62, abs=0.01)
        assert tune_omega(*spectrum(cpls[1]), plant2(), 20.0) == pytest.approx(1.0, abs=1e-12)

    def test_lipschitz_term(self):
        # 1 * (1 + 1*1/(1*1)) = 2
        plant = PlantModel(N=1, A=np.zeros((1, 1)), l_f=1.0)
        assert tune_omega(*spectrum(scalar_coupling()), plant, 1.0) == pytest.approx(2.0)

    def test_zero_lipschitz_is_inverse_lambda_min(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_connected_graph(rng, n_min=3)
            for nb in all_khop_sets(g, 2):
                if nb.eta == 0:
                    continue
                lmin, lmax = spectrum(coupling_matrices(g, nb))
                got = tune_omega(lmin, lmax, plant2(), 5.0)
                assert got == pytest.approx(1.0 / lmin, rel=1e-12)

    def test_singular_coupling_rejected(self):
        with pytest.raises(CouplingNotPD, match="agent 2: lambda_min"):
            coupling_spectra([None, np.zeros((1, 1))])


class TestTuneThetaPi:
    def test_reference_design_values(self, path4_couplings):
        _, cpls = path4_couplings
        s0, s1 = spectrum(cpls[0]), spectrum(cpls[1])
        assert tune_theta(*s1, 20.0, 0.5, slack=1e-9) == pytest.approx(0.5, abs=1e-6)
        assert tune_theta(*s0, 20.0, 0.496, slack=1e-9) == pytest.approx(3.4, abs=0.01)
        assert tune_pi(*s0, 2, 1.0, slack=1e-9) == pytest.approx(9.7, abs=0.01)
        assert tune_pi(*s1, 1, 1.0, slack=1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_zero_bound_gives_slack(self):
        c = scalar_coupling()
        assert tune_theta(*spectrum(c), 1.0, 0.0, slack=0.25) == 0.25
        assert tune_pi(*spectrum(c), 1, 0.0, slack=0.25) == 0.25

    def test_slack_must_be_positive(self):
        c = scalar_coupling()
        with pytest.raises(ValueError):
            tune_theta(*spectrum(c), 1.0, 1.0, slack=0.0)
        with pytest.raises(ValueError):
            tune_pi(*spectrum(c), 1, 1.0, slack=-1.0)


class TestGainInequality:
    def test_reference_gains_hold(self, path4, path4_couplings):
        _, cpls = path4_couplings
        for cpl in cpls:
            omega = tune_omega(*spectrum(cpl), plant2(), 20.0)
            rep = verify_gain_inequality(cpl, plant2(), 20.0 * np.eye(2), omega)
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
            g_gain = design_g(plant)
            for nb in all_khop_sets(g, k):
                if nb.eta == 0:
                    continue
                cpl = coupling_matrices(g, nb)
                omega = tune_omega(*spectrum(cpl), plant, g_gain)
                rep = verify_gain_inequality(cpl, plant, g_gain * np.eye(n_dim), omega)
                assert rep.holds, (g, k, a, l_f, omega, rep.lambda_max)
                checked += 1


class TestCertificate:
    def test_scalar_plugin(self):
        cpl = scalar_coupling()
        gains = GainSet(
            g=1.0,
            omega=np.array([1.0]),
            theta=np.array([1.0]),
            pi=np.array([1.0]),
        )
        bounds = BoundSet(n=1, d_udot=0.0, d_tilde_u=0.0)
        plant = PlantModel(N=1, A=np.zeros((1, 1)))
        cert = certificate(coupling_spectra([cpl]), plant, gains, bounds, [2.0], [0.0])
        assert cert.phi[0] == pytest.approx(1.0)
        assert cert.T_x[0] == pytest.approx(2.0)

    def test_reference_pi_sits_on_the_bound(self, path4_couplings):
        # with pi exactly 1.0 the margin psi vanishes: infeasible
        spectra = coupling_spectra(path4_couplings[1])
        gains = GainSet(
            g=20.0,
            omega=np.array([2.619, 1.0, 1.0, 2.619]),
            theta=np.array([3.43, 0.501, 0.501, 3.43]),
            pi=np.array([9.7, 1.0, 1.0, 9.7]),
        )
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        with pytest.raises(CertificateInfeasible) as err:
            certificate(spectra, plant2(), gains, bounds, np.ones(4), np.ones(4))
        assert err.value.quantity == "psi"
        # a strictly positive slack restores feasibility
        gains2 = dataclasses.replace(gains, pi=gains.pi + 1e-3)
        cert = certificate(spectra, plant2(), gains2, bounds, np.ones(4), np.ones(4))
        assert np.all(cert.psi > 0)
        assert cert.T_xu == pytest.approx(cert.T_x_global + cert.T_u_global)

    def test_monotone_in_theta(self, path4_couplings):
        spectra = coupling_spectra(path4_couplings[1])
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        base = dict(
            g=20.0,
            omega=np.array([2.619, 1.0, 1.0, 2.619]),
            pi=np.array([9.7, 1.01, 1.01, 9.7]),
        )
        prev_phi, prev_tx = None, None
        for theta1 in (3.5, 4.0, 6.0):
            gains = GainSet(theta=np.array([theta1, 0.52, 0.52, theta1]), **base)
            cert = certificate(spectra, plant2(), gains, bounds, np.ones(4), np.ones(4))
            if prev_phi is not None:
                assert cert.phi[0] > prev_phi
                assert cert.T_x[0] < prev_tx
            prev_phi, prev_tx = cert.phi[0], cert.T_x[0]

    def test_omega_below_its_bound_is_infeasible(self):
        # The bound is not strict: the tuned omega certifies, one ulp below
        # it does not, and neither does omega = 0 (which once certified
        # T_x = [2610, 250, 269, 2423] on these couplings).
        sc = load_scenario(REPRODUCTION_SCENARIO)
        tuned, _, spectra = tune_gains(sc.graph, sc.values["k"], sc.plant, sc.bounds)
        args = (sc.bounds, np.ones(4), np.ones(4))
        assert np.all(np.isfinite(certificate(spectra, sc.plant, tuned, *args).T_x))
        one_ulp_below = tuned.omega.copy()
        one_ulp_below[2] = np.nextafter(one_ulp_below[2], 0.0)
        for omega, agent in ((one_ulp_below, 3), (np.zeros(4), 1)):
            gains = dataclasses.replace(tuned, omega=omega)
            with pytest.raises(CertificateInfeasible) as err:
                certificate(spectra, sc.plant, gains, *args)
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
        assert b.tilde_u(np.ones(3, dtype=int))[1] == 0.2

    def test_default_tilde_u_from_input_bound(self):
        b = BoundSet(n=2, d_u=2.0)
        assert b.tilde_u(np.array([4, 0]), uhat0_mag=0.5) == pytest.approx(
            [np.sqrt(4) * (2.0 + 0.5), 2.0 + 0.5]
        )

    def test_tilde_u_unavailable(self):
        b = BoundSet(n=2, d_udot=1.0)
        with pytest.raises(ValueError):
            b.tilde_u(np.array([1, 0]))
        assert np.isnan(b.tilde_u(np.zeros(2, dtype=int))).all()  # no observer needs one


class TestTuneGains:
    def test_path_reproduction(self, path4):
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        gains, nbs, (_, _, eta) = tune_gains(
            path4, 3, plant2(), bounds, g_scale=20.0, slack=1e-3
        )
        assert gains.omega == pytest.approx([2.618, 1.0, 1.0, 2.618], abs=1e-3)
        assert gains.theta == pytest.approx([3.428, 0.501, 0.501, 3.428], abs=1e-3)
        assert gains.pi == pytest.approx([9.694, 1.001, 1.001, 9.694], abs=1e-3)
        assert eta.tolist() == [2, 1, 1, 2]

    def test_complete_graph_no_observers(self):
        g = Graph(4, {(i, j) for i in range(1, 5) for j in range(i + 1, 5)})
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        gains, nbs, (lmin, _, eta) = tune_gains(g, 2, plant2(), bounds)
        assert not eta.any() and np.isnan(lmin).all()
        assert np.all(np.isnan(gains.omega))


@st.composite
def gain_problems(draw):
    """A random connected graph with ``k`` 2-4, a random drift ``A`` and
    ``l_f``, a slack, per-agent bounds (``d_tilde_u`` given or derived from
    ``d_u``, ``d_udot`` given or not) and the initial input-estimate size."""
    graph = draw(connected_graphs(max_n=10))
    n, n_dim = graph.n, draw(st.integers(1, 3))
    a = draw(st.lists(st.floats(-3.0, 3.0), min_size=n_dim * n_dim, max_size=n_dim * n_dim))
    plant = PlantModel(N=n_dim, A=np.reshape(a, (n_dim, n_dim)), l_f=draw(st.floats(0.0, 5.0)))
    per_agent = st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)
    d_udot = draw(st.none() | per_agent)
    d_tilde_u = draw(st.none() | per_agent)
    d_u = draw(per_agent if d_tilde_u is None or d_udot is None else st.none() | per_agent)
    bounds = BoundSet(n=n, d_u=d_u, d_udot=d_udot, d_tilde_u=d_tilde_u)
    return (graph, draw(st.integers(2, 4)), plant, bounds, draw(st.floats(1e-6, 1.0)),
            draw(st.floats(0.0, 2.0)))


# Gain changes for the certificate: none, omega one part in 1e12 below its
# bound, and switching gains cut or raised, so that some agents fail phi,
# psi or both and the first failure decides.
SCALINGS = ({}, {"omega": 1.0 - 1e-12}, {"theta": 0.5}, {"pi": 0.5},
            {"theta": 0.5, "pi": 0.5}, {"theta": 3.0, "pi": 3.0})


@settings(max_examples=100, deadline=None)
@given(gain_problems(), st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2))
def test_gains_and_certificate_match_the_per_agent_oracle(problem, err0):
    graph, k, plant, bounds, slack, uhat0_mag = problem
    tuned, nbs, spectra = tune_gains(graph, k, plant, bounds, slack=slack, uhat0_mag=uhat0_mag)
    # The oracles take the matrices and run their own eigensolves.
    matrices = [coupling_matrices(graph, nb) if nb.eta else None for nb in nbs]
    for got, want in zip((tuned.omega, tuned.theta, tuned.pi),
                         reference_gains(matrices, plant, tuned.g, bounds, slack, uhat0_mag)):
        assert np.array_equal(got, want, equal_nan=True)
    for scaling in SCALINGS:
        gains = dataclasses.replace(
            tuned, **{name: getattr(tuned, name) * f for name, f in scaling.items()})
        args = (plant, gains, bounds, np.full(graph.n, err0[0]),
                np.full(graph.n, err0[1]), uhat0_mag)
        try:
            want = reference_certificate(matrices, *args)
        except CertificateInfeasible as exc:
            with pytest.raises(CertificateInfeasible) as err:
                certificate(spectra, *args)
            assert (err.value.agent, err.value.quantity) == (exc.agent, exc.quantity)
            assert (err.value.value, err.value.bound) == (exc.value, exc.bound)
            continue
        got = certificate(spectra, *args)
        for field in dataclasses.fields(got):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True), field.name
