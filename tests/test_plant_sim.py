"""Closed-loop simulator tests.

The one-step check re-implements a full synchronous round with explicit
scalar loops and must match the simulator bit-for-bit (both sides are the
same explicit Euler arithmetic). The pure-consensus run is compared against
the matrix power iterate, an independent closed form for single-integrator
consensus.
"""

import dataclasses
import tracemalloc
from itertools import accumulate, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import chorded_ring, connected_graphs, short_reproduction
from khopsim import (
    BoundSet,
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
from khopsim.dense_linalg import sym_eigs
from khopsim.errors import DivergenceDetected, NumericalError, ProtocolError, StateBoxViolation
from khopsim.plant_sim import read_csv, write_csv
from khopsim.scenario_cli import REPRODUCTION_SCENARIO, load_scenario, prepare


def repro_config(**overrides):
    sc = load_scenario(REPRODUCTION_SCENARIO)
    ts = prepare(sc)
    if overrides:
        return dataclasses.replace(ts.config, **overrides), ts
    return ts.config, ts


@pytest.fixture(scope="module")
def ring_config():
    return prepare(load_scenario(chorded_ring())).config


def path4_gains(plant, g=None):
    graph = g or Graph(4, {(1, 2), (2, 3), (3, 4)})
    bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
    return (graph,) + tune_gains(graph, 3, plant, bounds, g_scale=20.0, slack=1e-3)


class TestConsensusDistance:
    def test_identical_states(self):
        assert consensus_distance(np.ones((2, 3, 2)) * 4.2).tolist() == [0.0, 0.0]

    def test_two_agents_scalar(self):
        assert consensus_distance(np.array([[[0.0], [2.0]]])) == pytest.approx(
            [np.sqrt(2.0)]
        )

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 3))
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
    w = sym_eigs([g.laplacian()])[0]
    expected = float(w[1])

    def forbidden(*args, **kwargs):
        raise AssertionError("lambda2 called the Jacobi solver")

    with mock.patch.object(dense_linalg, "sym_eigs", forbidden), mock.patch.object(
        plant_sim, "sym_eigs", forbidden, create=True
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
        gains, _, (_, _, eta) = tune_gains(g, 2, plant, bounds)
        assert eta.tolist() == [0, 0]
        config = SimConfig(
            graph=g,
            k=2,
            plant=plant,
            gains=gains,
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
                if j in g.neighbors(i):
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
                    if l in g.neighbors(j):
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
            rows = slice(*config.structure.pairs.offsets[i - 1:i + 1])
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
            dt=1e-3,
            t_end=0.5,
            x0=x0,
            target_graph=graph,
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
                dt=1e-3,
                t_end=0.1,
                x0=np.zeros((4, 1)),
                target_graph=target,
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
                g=gains.g,
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
            dt=1e-3,
            t_end=1.0,
            x0=np.array([[0.95], [0.95]]),
            state_box=(-1.0, 1.0),
        )
        with pytest.raises(StateBoxViolation) as err:
            run(config)
        assert err.value.time == pytest.approx(0.051, abs=2e-3)

    @pytest.mark.parametrize("field, value, message", [
        ("dt", 0.0, "dt must be positive, got 0.0"),
        ("dt", -1e-3, "dt must be positive, got -0.001"),
        ("decimate", 0, "decimate must be at least 1, got 0"),
        ("decimate", 2.5, "decimate must be an integer, got 2.5"),
        ("decimate", 2.0, "decimate must be an integer, got 2.0"),
        ("boundary_layer", 0.0, "boundary_layer must be positive, got 0.0"),
        ("boundary_layer", np.inf, "boundary_layer must be finite, got inf"),
    ])
    def test_config_refuses_a_step_it_cannot_take(self, field, value, message):
        # Without the check dt = 0 and decimate = 0 divide by zero, dt < 0
        # asks numpy for a log of negative length, a float decimate fails
        # inside numpy's array allocation, a zero boundary layer would
        # divide the switching signal by zero at every step, and an
        # infinite one silently zeroes every switching term.
        config, _ = repro_config()
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(config, **{field: value})

    @settings(max_examples=30, deadline=None)
    @given(steps=st.integers(2, 60), offset=st.floats(-0.45, 0.45),
           dt=st.floats(2e-4, 2e-3), decimate=st.integers(1, 25))
    def test_run_logs_step_zero_every_decimate_th_step_and_the_last(
            self, ring_config, steps, offset, dt, decimate):
        # Every record run returns holds step 0, so the convergence rule
        # never sees an empty one.
        config = dataclasses.replace(ring_config, dt=dt, t_end=(steps + offset) * dt,
                                     decimate=decimate)
        tel = run(config)
        assert len(tel.times) == steps // decimate + 1 + (steps % decimate != 0)
        grid = list(accumulate(repeat(dt, steps), initial=0.0))  # t as run adds it up
        logged = [*range(0, steps + 1, decimate)] + ([steps] if steps % decimate else [])
        assert tel.times.tolist() == [grid[k] for k in logged]
        assert tel.times[0] == 0.0 and np.array_equal(tel.states[0], config.x0)

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

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_box_check_raises_as_the_exact_comparisons_say(self, data):
        # A step tests the box by clipping the states and comparing bytes;
        # only _check_state's exact comparisons decide. A stub kernel sets
        # each step's states to drawn values and returns a dz of -0.0, which
        # leaves every bit of z as it is (v + -0.0 is v, for v = ±0.0 too).
        lo, hi = data.draw(st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]))
        pool = [lo, hi, -0.0, 0.0, 5e-324, -5e-324, np.nextafter(lo, -np.inf),
                np.nextafter(hi, np.inf), (lo + hi) / 2, np.inf, -np.inf, np.nan]
        steps = data.draw(st.integers(2, 6))
        drawn = data.draw(arrays(np.float64, (steps, 4, 2), elements=st.sampled_from(pool)))
        config, _ = repro_config(target_graph=None, state_box=(lo, hi),
                                 x0=np.full((4, 2), (lo + hi) / 2), t_end=steps * 1e-3)
        p = config.structure.pairs.target.size
        want, t = None, 0.0
        for x in drawn:
            t += config.dt
            if not np.isfinite(x).all():
                want = (DivergenceDetected, t, int(np.argmax(~np.isfinite(x).all(axis=1))) + 1, None)
                break
            bad = (x < lo) | (x > hi)
            if bad.any():
                want = (StateBoxViolation, t, int(np.argwhere(bad)[0][0]) + 1, x[bad][0])
                break
        states = iter(drawn)

        def kernel(work):
            work.z[0, p:] = next(states)
            return np.full(work.z.shape, -0.0)

        with mock.patch.object(plant_sim, "pair_derivative", kernel):
            if want is None:
                assert len(run(config).times) == steps + 1
                return
            with pytest.raises(DivergenceDetected) as err:
                run(config)
        kind, t, agent, value = want
        assert type(err.value) is kind and (err.value.time, err.value.agent) == (t, agent)
        if value is not None:
            assert np.float64(err.value.value).tobytes() == value.tobytes()

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
                    s.pairs.omega, s.pairs.switch,
                    s.control_terms, s.disturbance_pairs, s.disturbance_bins):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.reshape(-1)[:1] = 0
        first, second = run(config), run(config)
        for f in dataclasses.fields(Telemetry):
            assert np.array_equal(getattr(first, f.name), getattr(second, f.name),
                                  equal_nan=True), f.name

    def test_a_step_copies_no_index_array(self):
        # Agent 1 is a hub, so a pair sums D > 2N terms, and a copy of the
        # read-only D x P term table, which ``take`` makes of read-only
        # indices on every call, would outweigh numpy's largest ufunc buffer.
        # The steps gather from writeable copies and may allocate that buffer
        # only: the broadcast subtract's copy of ``own``.
        n = 160
        chords = [(1, h) for h in range(4, 20, 2)] + [(a, a + n // 2) for a in range(19, n // 2, 3)]
        config = prepare(load_scenario(chorded_ring(n=n, chords=chords))).config
        s = config.structure
        z = init_world(config)
        control, advance = plant_sim._bind_control(config, z), plant_sim._bind_advance(config, z)
        bound = dict(zip(control.__code__.co_freevars, control.__closure__))["terms"].cell_contents
        work = dict(zip(advance.__code__.co_freevars, advance.__closure__))["work"].cell_contents
        assert bound.flags.writeable and work.terms.flags.writeable
        for arr in (s.pairs.terms, s.pairs.switch, s.pairs.omega, s.control_terms):
            assert not arr.flags.writeable
        limit = np.getbufsize() * z.itemsize + 4096
        d, p = s.pairs.terms.shape
        assert d > 2 * config.plant.N and d * p * s.pairs.terms.itemsize > limit
        with np.errstate(over="ignore", invalid="ignore"):
            control()
            advance(config.dt)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for k in range(2, 22):
                    control()
                    advance(k * config.dt)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= limit

    def test_a_negative_switching_gain_is_refused(self):
        # The kernel switches with copysign, which is gain * sign(v) only for
        # a gain that is not negative.
        config, _ = repro_config(t_end=0.05)
        for which in ("theta", "pi"):
            gains = dataclasses.replace(config.gains, **{which: -getattr(config.gains, which)})
            with pytest.raises(NumericalError, match=f"{which} gain negative for a member of agent 1"):
                run(dataclasses.replace(config, gains=gains))

    def test_kernel_runs_once_per_step_and_logs_reduce_after_the_loop(self, monkeypatch):
        # One observer kernel call per Euler step; the logged error norms and
        # disturbance are reduced per block of samples, never per step, by
        # one reducer bound per run.
        ts = prepare(load_scenario(chorded_ring(t_end=0.05)))
        config = dataclasses.replace(ts.config, decimate=1)
        calls = dict.fromkeys(("pair_derivative", "_bind_log_reducer", "reduce"), 0)

        def counted(fn, name):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(plant_sim, "pair_derivative",
                            counted(plant_sim.pair_derivative, "pair_derivative"))
        bind = plant_sim._bind_log_reducer
        monkeypatch.setattr(plant_sim, "_bind_log_reducer", counted(
            lambda *args: counted(bind(*args), "reduce"), "_bind_log_reducer"))
        tel = run(config)
        assert len(tel.times) == 51
        assert 51 * init_world(config).nbytes <= plant_sim.LOG_BLOCK_BYTES
        assert calls == {"pair_derivative": 50, "_bind_log_reducer": 1, "reduce": 1}


def _gamma(m: int) -> float:
    """Higham's ``gamma_m = m u / (1 - m u)``: the relative error bound of
    ``m`` roundings, ``u = 2**-53``."""
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


class TestIdealTwin:
    """The price of observation, as an identity. With ``A = 0``, no ``f``
    and the consensus law, the input is ``U = -L_T x - v``: ``L_T`` is the
    target graph's Laplacian and ``v`` the logged disturbance. So the gap
    ``e = x - x_ideal`` to the Euler run on ``-L_T x`` from the same ``x0``
    follows ``e_{k+1} = e_k + dt (-L_T e_k - v_k)`` from ``e_0 = 0``.

    The tolerance is a rounding bound. Let ``D_k = x_k - y_k - e_k`` in
    exact arithmetic, with ``y`` the ideal run and ``e`` the recursion as
    computed. Then ``D_0 = 0`` and ``D_{k+1} = (I - dt L_T) D_k + r_k``,
    where ``r_k`` collects the three computations' roundings in step k.
    ``|I - dt L_T|_inf = 1`` when ``dt`` times every degree is at most 1, so
    ``max|D_k|`` is at most the sum of the earlier ``max|r_j|``. The
    computed gap adds one rounding of the subtraction. With ``|.|`` the
    largest magnitude over agents and components, ``S = |x_k|``, ``E``
    twice the largest logged error norm (the norm bounds every component of
    ``x_j - x_hat``, and doubling it covers its own rounding), ``m`` control
    terms per agent, ``deg`` the largest degree in ``L_T``, ``U`` the logged
    input and ``u`` the unit roundoff:

    - run: ``x_{k+1} = fl(x_k + fl(dt U_k))``, exactly, as ``A = 0`` skips
      its product. Each term ``row - x_i`` of ``U`` is at most ``2S + E``
      and each of ``v``'s ``x_j - x_hat`` at most ``E``, so
      ``|U - (-L_T x - v)| <= gamma_m m (2S + 2E)``, and
      ``|r^x| <= gamma_1 |x_{k+1}| + u dt |U_k| + dt gamma_m m (2S + 2E)``;
    - ideal: ``|r^y| <= gamma_1 |y_{k+1}| + dt gamma_{n+1} 2 deg |y_k|``;
    - recursion: ``|r^e| <= gamma_1 |e_{k+1}| + dt gamma_{n+2} (2 deg |e_k| + |v_k|)``.
    """

    @pytest.mark.parametrize("raw", [short_reproduction(), chorded_ring()],
                             ids=["reproduction", "chorded_ring"])
    def test_gap_to_the_ideal_run_follows_the_logged_disturbance(self, raw):
        config = prepare(load_scenario(raw)).config
        assert config.decimate == 1 and config.plant.f is None and not config.plant.A.any()
        tel = run(config)
        lap = config.target_graph.laplacian()
        n, dt = config.graph.n, config.dt
        deg, terms = lap.diagonal().max(), len(config.structure.control_terms)
        assert dt * deg <= 1.0
        u = np.finfo(float).eps / 2
        y, e = tel.states[0].copy(), np.zeros_like(tel.states[0])
        drift = 0.0  # the bound on max|D_k|
        for k in range(len(tel.times) - 1):
            x, x_next, v = tel.states[k], tel.states[k + 1], tel.v[k]
            S, E = np.abs(x).max(), 2 * tel.errx[k].max()
            y_next = y - dt * (lap @ y)
            e_next = e + dt * (-(lap @ e) - v)
            drift += (_gamma(1) * np.abs(x_next).max() + u * dt * np.abs(tel.inputs[k]).max()
                      + dt * _gamma(terms) * terms * (2 * S + 2 * E))
            drift += _gamma(1) * np.abs(y_next).max() + dt * _gamma(n + 1) * 2 * deg * np.abs(y).max()
            drift += _gamma(1) * np.abs(e_next).max() + dt * _gamma(n + 2) * (
                2 * deg * np.abs(e).max() + np.abs(v).max())
            y, e = y_next, e_next
            gap = x_next - y
            assert np.abs(gap - e).max() <= drift + _gamma(1) * np.abs(gap).max(), k + 1
        # The identity is not vacuous: the estimates moved the run off the ideal one.
        assert np.abs(e).max() > 1e3 * drift


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
