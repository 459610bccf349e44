"""Closed-loop simulator tests.

The one-step check re-implements a full synchronous round with explicit
scalar loops and must match the simulator bit-for-bit (both sides are the
same explicit Euler arithmetic). The pure-consensus run is compared against
the matrix power iterate, an independent closed form for single-integrator
consensus.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import chorded_ring, connected_graphs
from khopsim import (
    BoundSet,
    Controller,
    Graph,
    PlantModel,
    SimConfig,
    Telemetry,
    consensus_distance,
    dense_linalg,
    detect_convergence,
    gain_tuning,
    init_world,
    lambda2,
    plant_sim,
    run,
    tune_gains,
)
from khopsim.dense_linalg import sym_eig
from khopsim.errors import DivergenceDetected, ProtocolError, StateBoxViolation
from khopsim.plant_sim import read_csv, write_csv
from khopsim.scenario_cli import REPRODUCTION_SCENARIO, load_scenario, prepare


def repro_config(**overrides):
    sc = load_scenario(REPRODUCTION_SCENARIO)
    ts = prepare(sc)
    if overrides:
        return dataclasses.replace(ts.config, **overrides), ts
    return ts.config, ts


def path4_gains(plant, g=None):
    graph = g or Graph(4, {(1, 2), (2, 3), (3, 4)})
    bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
    return (graph,) + tune_gains(graph, 3, plant, bounds, g_scale=20.0, slack=1e-3)


class TestConsensusDistance:
    def test_identical_states(self):
        assert consensus_distance(np.ones((3, 2)) * 4.2) == 0.0

    def test_two_agents_scalar(self):
        assert consensus_distance(np.array([[0.0], [2.0]])) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        shifted = x + np.array([10.0, -3.0, 7.0])
        assert consensus_distance(shifted) == pytest.approx(
            consensus_distance(x), rel=1e-12
        )


def test_lambda2_cycle4():
    g = Graph(4, {(1, 2), (2, 3), (3, 4), (1, 4)})
    assert lambda2(g) == pytest.approx(2.0, abs=1e-9)


def test_lambda2_path4():
    g = Graph(4, {(1, 2), (2, 3), (3, 4)})
    assert lambda2(g) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_lambda2_matches_jacobi_without_calling_it(g):
    # lambda2 feeds no gain, so it takes LAPACK's spectrum; the Jacobi
    # solver stays the reference it must agree with.
    w = sym_eig(g.laplacian())
    expected = float(w[w > plant_sim.LAPLACIAN_ZERO_TOL][0])

    def forbidden(*args, **kwargs):
        raise AssertionError("lambda2 called the Jacobi solver")

    with mock.patch.object(dense_linalg, "sym_eig", forbidden), mock.patch.object(
        plant_sim, "sym_eig", forbidden, create=True
    ):
        got = lambda2(g)
    assert abs(got - expected) <= 1e-12 * max(1.0, expected)


class TestStep:
    def test_zero_controller_states_constant(self):
        plant = PlantModel(N=2, A=np.zeros((2, 2)))
        graph, gains, nbs, _ = path4_gains(plant)
        rng = np.random.default_rng(3)
        config = SimConfig(
            graph=graph,
            k=3,
            plant=plant,
            gains=gains,
            controller=Controller(kind="zero"),
            dt=1e-3,
            t_end=1.5,
            x0=rng.normal(size=(4, 2)) * 0.3,
        )
        tel = run(config)
        assert np.array_equal(tel.states[-1], tel.states[0])
        # estimates settle into the chattering band around the constants
        assert np.all(tel.errx[-1] <= tel.band_x)
        assert np.all(tel.erru[-1] <= tel.band_u)

    def test_no_observer_activity_when_all_within_one_hop(self):
        # Two agents, horizon 2: nothing to estimate, the plant integrates
        # its own dynamics untouched.
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        plant = PlantModel(N=2, A=a)
        g = Graph(2, {(1, 2)})
        bounds = BoundSet(n=2, d_udot=0.0, d_tilde_u=0.0)
        gains, _, cpls = tune_gains(g, 2, plant, bounds)
        assert cpls == [None, None]
        config = SimConfig(
            graph=g,
            k=2,
            plant=plant,
            gains=gains,
            controller=Controller(kind="zero"),
            dt=1e-3,
            t_end=0.5,
            x0=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        tel = run(config)
        oracle = np.array([[1.0, 0.0], [0.0, 1.0]])
        for _ in range(500):
            oracle = oracle + 1e-3 * (oracle @ a.T)
        assert np.abs(tel.states[-1] - oracle).max() < 1e-12
        assert np.all(tel.errx == 0.0) and np.all(tel.erru == 0.0)

    def test_one_step_hand_expansion(self):
        # Full term-by-term re-derivation of one synchronous round with plain
        # Python loops; must agree with the simulator to round-off.
        config, ts = repro_config()
        z = init_world(config)
        plant_sim._bind_control(config, z)()
        plant_sim._bind_advance(config, z)(config.dt)

        g = config.graph
        n, n_dim, dt = 4, 2, config.dt
        x = np.array(config.x0, dtype=float)
        nbs = ts.nbs
        members = {i: nbs[i - 1].members for i in range(1, 5)}
        xhat = {i: np.zeros(len(members[i]) * n_dim) for i in range(1, 5)}
        uhat = {i: np.zeros(len(members[i]) * n_dim) for i in range(1, 5)}
        tset = {1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (1, 3)}
        omega, theta, pi = ts.gains.omega, ts.gains.theta, ts.gains.pi
        gval = 20.0

        def est_block(i, l):
            b = members[i].index(l)
            return xhat[i][b * n_dim : (b + 1) * n_dim]

        def est_input_block(i, l):
            b = members[i].index(l)
            return uhat[i][b * n_dim : (b + 1) * n_dim]

        # inputs from the consensus law
        u = np.zeros((4, n_dim))
        for i in range(1, 5):
            for j in tset[i]:
                if g.has_edge(i, j):
                    u[i - 1] += x[j - 1] - x[i - 1]
                else:
                    u[i - 1] += est_block(i, j) - x[i - 1]
        # observer corrections from the message sums
        new_xhat = {}
        new_uhat = {}
        for i in range(1, 5):
            dxh = np.zeros_like(xhat[i])
            duh = np.zeros_like(uhat[i])
            for b, l in enumerate(members[i]):
                xi_l = np.zeros(n_dim)
                rho_l = np.zeros(n_dim)
                own_x = est_block(i, l)
                own_u = est_input_block(i, l)
                for j in g.neighbors(i):
                    if l in members[j]:
                        xi_l = xi_l + est_block(j, l) - own_x
                        rho_l = rho_l + est_input_block(j, l) - own_u
                    if g.has_edge(j, l):
                        xi_l = xi_l + x[l - 1] - own_x
                        rho_l = rho_l + u[l - 1] - own_u
                sgn_x = np.where(gval * xi_l >= 0, 1.0, -1.0)
                sgn_u = np.where(rho_l >= 0, 1.0, -1.0)
                dxh[b * n_dim : (b + 1) * n_dim] = (
                    omega[l - 1] * gval * xi_l + theta[l - 1] * sgn_x + own_u
                )
                duh[b * n_dim : (b + 1) * n_dim] = pi[l - 1] * sgn_u
            new_xhat[i] = xhat[i] + dt * dxh
            new_uhat[i] = uhat[i] + dt * duh
        x_next = x + dt * u

        p = config.structure.pairs.target.size
        assert np.abs(z[0, p:] - x_next).max() <= 1e-12
        for i in range(1, 5):
            rows = config.structure.pairs.rows(i)
            assert np.abs(z[0, rows].reshape(-1) - new_xhat[i]).max() <= 1e-12
            assert np.abs(z[1, rows].reshape(-1) - new_uhat[i]).max() <= 1e-12


class TestRun:
    def test_pure_onehop_consensus_matches_matrix_power(self):
        # Target graph equal to the communication graph: no estimates in
        # the loop, so the states follow (I - dt L)^k x0 exactly.
        plant = PlantModel(N=1, A=np.zeros((1, 1)))
        graph = Graph(4, {(1, 2), (2, 3), (3, 4)})
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        gains, _, _ = tune_gains(graph, 3, plant, bounds, g_scale=20.0)
        x0 = np.array([[1.0], [-0.5], [0.25], [0.75]])
        config = SimConfig(
            graph=graph,
            k=3,
            plant=plant,
            gains=gains,
            controller=Controller(kind="khop_consensus", target_graph=graph),
            dt=1e-3,
            t_end=0.5,
            x0=x0,
        )
        tel = run(config)
        lap = graph.laplacian()
        iterate = x0.reshape(-1).copy()
        for _ in range(500):
            iterate = iterate - 1e-3 * (lap @ iterate)
        assert np.abs(tel.states[-1].reshape(-1) - iterate).max() < 1e-10
        # disagreement decays at the algebraic connectivity rate
        lam2 = lambda2(graph)
        envelope = tel.cons_dist[0] * np.exp(-lam2 * tel.times) + 1e-9
        assert np.all(tel.cons_dist <= envelope)
        assert np.all(tel.v == 0.0)

    def test_controller_rejects_unreachable_target_edge(self):
        # k = 2 on the path leaves agents 1 and 4 without estimates of each
        # other, so a target edge {1,4} cannot be implemented.
        plant = PlantModel(N=1, A=np.zeros((1, 1)))
        graph = Graph(4, {(1, 2), (2, 3), (3, 4)})
        target = Graph(4, {(1, 2), (2, 3), (3, 4), (1, 4)})
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        gains, _, _ = tune_gains(graph, 2, plant, bounds, g_scale=20.0)
        with pytest.raises(ProtocolError):
            SimConfig(
                graph=graph,
                k=2,
                plant=plant,
                gains=gains,
                controller=Controller(kind="khop_consensus", target_graph=target),
                dt=1e-3,
                t_end=0.1,
                x0=np.zeros((4, 1)),
            )

    def test_undersized_switching_gain_reports_nonconvergence(self):
        # theta far below its bound with a frozen, biased input estimate:
        # the run completes and simply reports that no state error entered
        # the band (absence of guarantee, not divergence).
        config, ts = repro_config()
        gains = ts.gains
        bad = dataclasses.replace(
            config,
            t_end=1.5,
            gains=type(gains)(
                G=gains.G,
                omega=gains.omega,
                theta=gains.theta * 0.1,
                pi=gains.pi * 0.0,
            ),
            uhat0=[np.full(nb.eta * 2, 0.8) for nb in ts.nbs],
        )
        tel = run(bad)
        assert np.all(np.isnan(tel.T_x_obs))
        assert tel.X_obs > 0

    def test_divergence_detected(self):
        plant = PlantModel(N=1, A=np.array([[2000.0]]))
        g = Graph(2, {(1, 2)})
        bounds = BoundSet(n=2, d_udot=0.0, d_tilde_u=0.0)
        gains, _, _ = tune_gains(g, 2, plant, bounds)
        config = SimConfig(
            graph=g,
            k=2,
            plant=plant,
            gains=gains,
            controller=Controller(kind="zero"),
            dt=1e-3,
            t_end=2.0,
            x0=np.array([[1.0], [1.0]]),
        )
        with np.errstate(over="ignore"), pytest.raises(DivergenceDetected) as err:
            run(config)
        assert err.value.time > 0

    def test_state_box_violation_aborts(self):
        # x' = x from 0.95 leaves the box at ln(1 / 0.95) ~ 0.0513
        plant = PlantModel(N=1, A=np.array([[1.0]]))
        g = Graph(2, {(1, 2)})
        bounds = BoundSet(n=2, d_udot=0.0, d_tilde_u=0.0)
        gains, _, _ = tune_gains(g, 2, plant, bounds)
        config = SimConfig(
            graph=g,
            k=2,
            plant=plant,
            gains=gains,
            controller=Controller(kind="zero"),
            dt=1e-3,
            t_end=1.0,
            x0=np.array([[0.95], [0.95]]),
            state_box=(-1.0, 1.0),
        )
        with pytest.raises(StateBoxViolation) as err:
            run(config)
        assert err.value.time == pytest.approx(0.051, abs=2e-3)

    @pytest.mark.parametrize("decimate", [1, 7])
    def test_partial_telemetry_is_the_run_to_the_last_logged_time(self, decimate, monkeypatch):
        # The logs are reduced after the steps that produced them, so the
        # record attached to a violation must still hold exactly the rows
        # logged before the failing step: those of a run that stops there.
        raw = chorded_ring(t_end=2.0)
        raw["plant"] = {"N": 2, "A": 1.0}
        raw["sim"] = dict(raw["sim"], state_box=[-0.3, 0.3], decimate=decimate)
        config = prepare(load_scenario(raw)).config
        # Blocks of 5 samples, so the violation falls inside a block.
        monkeypatch.setattr(plant_sim, "LOG_BLOCK_BYTES", 5 * init_world(config).nbytes)
        with pytest.raises(StateBoxViolation) as err:
            run(config)
        partial = err.value.partial_telemetry
        assert len(partial.times) > 10 and len(partial.times) % 5 != 0
        assert partial.times[-1] < err.value.time
        whole = run(dataclasses.replace(config, t_end=float(partial.times[-1])))
        for f in dataclasses.fields(whole):
            a, b = getattr(partial, f.name), getattr(whole, f.name)
            assert np.array_equal(a, b, equal_nan=True), f.name

    def test_euler_consistency_under_dt_halving(self):
        config, _ = repro_config(t_end=3.0)
        tel_a = run(config)
        tel_b = run(dataclasses.replace(config, dt=5e-4))
        assert tel_a.cons_dist[-1] < 1e-2 and tel_b.cons_dist[-1] < 1e-2
        # states and estimates stay in the box, so each input respects
        # |target neighbors| * d_max * sqrt(N); here 2 * 2 * sqrt(2)
        u_norms = np.linalg.norm(tel_a.inputs, axis=2)
        assert u_norms.max() <= 2 * 2 * np.sqrt(2.0)
        assert abs(tel_a.cons_dist[-1] - tel_b.cons_dist[-1]) <= 10 * config.dt
        # chattering residue scales with the step: half the step, half the band
        assert np.all(tel_a.errx[-1] <= tel_a.band_x)
        assert np.all(tel_b.errx[-1] <= tel_b.band_x)
        assert np.all(tel_b.band_x == tel_a.band_x / 2)

    def test_config_builds_the_wiring_once(self, monkeypatch):
        # The k-hop sets and the pair layout are fixed by the graph: building
        # the config derives them once, and nothing downstream rebuilds them.
        ts = prepare(load_scenario(chorded_ring(t_end=0.05)))
        calls = {"all_khop_sets": 0, "pair_layout": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(plant_sim, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(plant_sim, name, counted)
        config = dataclasses.replace(ts.config, decimate=5)
        assert calls == {"all_khop_sets": 1, "pair_layout": 1}
        plant_sim.initial_error_norms(config)
        tel = run(config)
        plant_sim.telemetry_from_columns(config, plant_sim.telemetry_columns(tel))
        assert calls == {"all_khop_sets": 1, "pair_layout": 1}

    def test_prepare_builds_the_khop_sets_once(self, monkeypatch):
        # Tuning needs the neighborhoods first; the config reuses them.
        calls = []
        for module in (gain_tuning, plant_sim):
            def counted(*args, _fn=module.all_khop_sets, **kwargs):
                calls.append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, "all_khop_sets", counted)
        for raw in (chorded_ring(t_end=0.05), REPRODUCTION_SCENARIO):
            calls.clear()
            prepare(load_scenario(raw))
            assert len(calls) == 1

    def test_wiring_is_read_only_and_runs_repeat(self):
        # One config serves many runs: the per-run workspace may read the
        # wiring but never write it, so a second run repeats the first.
        config, _ = repro_config(t_end=0.3)
        s = config.structure
        for arr in (s.pairs.estimator, s.pairs.target, s.pairs.offsets, s.pairs.terms,
                    s.pairs.G, s.pairs.omega, s.pairs.switch,
                    s.control_terms, s.disturbance_pairs, s.disturbance_bins):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.reshape(-1)[:1] = 0
        first, second = run(config), run(config)
        for f in dataclasses.fields(Telemetry):
            assert np.array_equal(getattr(first, f.name), getattr(second, f.name),
                                  equal_nan=True), f.name

    def test_kernel_runs_once_per_step_and_logs_reduce_after_the_loop(self, monkeypatch):
        # One observer kernel call per Euler step; the logged error norms and
        # disturbance are reduced per block of samples, never per step.
        ts = prepare(load_scenario(chorded_ring(t_end=0.05)))
        config = dataclasses.replace(ts.config, decimate=1)
        calls = dict.fromkeys(("pair_derivative", "_error_norms", "_disturbance"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(plant_sim, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(plant_sim, name, counted)
        tel = run(config)
        assert len(tel.times) == 51
        assert 51 * init_world(config).nbytes <= plant_sim.LOG_BLOCK_BYTES
        assert calls == {"pair_derivative": 50, "_error_norms": 1, "_disturbance": 1}


class TestDetection:
    def test_detect_convergence_basic(self):
        times = np.arange(6, dtype=float)
        series = np.array([[1.0, 0.5, 0.05, 0.002, 0.004, 0.003]]).T
        # enters below eps at index 3 and stays within the band
        assert detect_convergence(times, series, eps=0.01, band=0.005) == [3.0]

    def test_detect_requires_permanence(self):
        times = np.arange(5, dtype=float)
        series = np.array([[1.0, 0.001, 1.0, 0.001, 0.001]]).T
        assert detect_convergence(times, series, eps=0.01, band=0.005) == [3.0]

    def test_detect_never(self):
        times = np.arange(4, dtype=float)
        series = np.array([[1.0, 0.9, 0.8, 0.7]]).T
        assert np.isnan(detect_convergence(times, series, eps=0.01, band=0.005)).all()

    def test_detect_all_agents_at_once_with_their_own_eps_and_band(self):
        # Each column is judged alone with its own eps and band, as a loop
        # over the agents would; NaN marks a column never detected.
        times = np.arange(5, dtype=float) * 0.5
        series = np.array([
            [1.0, 1.0, 1.0, 0.0],
            [0.5, 0.05, 0.3, 0.0],
            [0.2, 0.001, 0.3, 0.0],
            [0.05, 0.001, 0.2, 0.0],
            [0.04, 0.02, 0.2, 0.0],
        ])
        eps = np.array([0.1, 0.01, 0.25, 0.1])
        band = np.array([0.1, 0.01, 0.3, 0.1])
        got = detect_convergence(times, series, eps, band)
        assert np.array_equal(got, [1.5, np.nan, 1.5, 0.0], equal_nan=True)
        assert np.isnan(detect_convergence(times[:0], series[:0], eps, band)).all()


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        config, _ = repro_config(t_end=0.05)
        tel = run(config)
        path = tmp_path / "tel.csv"
        write_csv(tel, path)
        cols = read_csv(path)
        assert np.array_equal(cols["t"], tel.times)
        assert np.array_equal(cols["x_1_1"], tel.states[:, 0, 0])
        assert np.array_equal(cols["u_4_2"], tel.inputs[:, 3, 1])
        assert np.array_equal(cols["errx_2"], tel.errx[:, 1])
        assert np.array_equal(cols["consdist"], tel.cons_dist)
        assert np.array_equal(cols["v_1_2"], tel.v[:, 0, 1])

    def test_decimation(self):
        config, _ = repro_config(t_end=0.1, decimate=10)
        tel = run(config)
        assert len(tel.times) == 11
        assert tel.times[1] == pytest.approx(0.01)
