"""Observer update-law tests.

The load-bearing check is the structural identity: the message-driven
correction signals, regrouped by estimated agent, must equal
``-(M (x) I_N)`` times the stacked estimate deviations; that equivalence
is what connects the communication protocol to the spectral convergence
analysis. The remaining tests pin the sign convention, locality, and the
scalar sliding-mode behavior against closed-form oracles.
"""

import copy

import numpy as np
import pytest

from conftest import build_messages, inbox, make_world, random_connected_graph, unit_gains
from khopsim import (
    BoundSet,
    Graph,
    PlantModel,
    all_khop_sets,
    coupling_matrices,
    tune_gains,
)
from khopsim.errors import ProtocolError
from khopsim.gain_tuning import GainSet
from khopsim.khop_observer import pair_layout
from reference_form import (
    MissingNeighborData,
    ObserverState,
    compute_rho,
    compute_xi,
    input_observer_derivative,
    observer_derivative,
    sign,
    state_observer_derivative,
)


def reference_setup(n_dim=2):
    g = Graph(4, {(1, 2), (2, 3), (3, 4)})
    plant = PlantModel(N=n_dim, A=np.zeros((n_dim, n_dim)))
    bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
    gains, nbs, spectra = tune_gains(g, 3, plant, bounds, g_scale=20.0, slack=1e-3)
    return g, plant, gains, nbs, spectra


def structural_identity_max_error(g, k, n_dim, rng):
    """Max deviation between message-form signals and the matrix form."""
    world = make_world(g, k, n_dim, rng)
    nbs, x, u, obs, msgs = (
        world["nbs"],
        world["x"],
        world["u"],
        world["obs"],
        world["msgs"],
    )
    xi_all = np.concatenate(
        [compute_xi(obs[i], inbox(msgs, nbs[i]), nbs[i]) for i in range(g.n)]
    )
    rho_all = np.concatenate(
        [compute_rho(obs[i], inbox(msgs, nbs[i]), nbs[i]) for i in range(g.n)]
    )
    # estimate deviations (estimate minus truth), estimator-grouped
    dev_x = np.concatenate(
        [
            obs[i].x_hat - x[[m - 1 for m in nbs[i].members]].reshape(-1)
            for i in range(g.n)
        ]
    )
    dev_u = np.concatenate(
        [
            obs[i].u_hat - u[[m - 1 for m in nbs[i].members]].reshape(-1)
            for i in range(g.n)
        ]
    )
    # regroup the pair blocks target-major, estimators ascending per target
    order = np.argsort(pair_layout(nbs.table, unit_gains(g.n), 1).target, kind="stable")
    xi_by_target, rho_by_target, dev_x_t, dev_u_t = (
        vec.reshape(-1, n_dim)[order].reshape(-1) for vec in (xi_all, rho_all, dev_x, dev_u)
    )
    worst = 0.0
    offset = 0
    for m in coupling_matrices(nbs):
        if m is None:
            continue
        size = len(m) * n_dim
        m_big = np.kron(m, np.eye(n_dim))
        sl = slice(offset, offset + size)
        worst = max(worst, np.abs(xi_by_target[sl] + m_big @ dev_x_t[sl]).max())
        worst = max(worst, np.abs(rho_by_target[sl] + m_big @ dev_u_t[sl]).max())
        offset += size
    return worst


class TestCorrectionSignals:
    def test_zero_error_gives_zero_xi(self):
        g, plant, gains, nbs, _ = reference_setup()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 2))
        u = rng.normal(size=(4, 2))
        obs = [
            ObserverState(
                agent=i + 1,
                x_hat=x[[m - 1 for m in nbs[i].members]].reshape(-1),
                u_hat=u[[m - 1 for m in nbs[i].members]].reshape(-1),
            )
            for i in range(4)
        ]
        msgs = build_messages(g, nbs, x, u, obs)
        for i in range(4):
            assert np.abs(compute_xi(obs[i], inbox(msgs, nbs[i]), nbs[i])).max() == 0.0
            assert np.abs(compute_rho(obs[i], inbox(msgs, nbs[i]), nbs[i])).max() == 0.0

    def test_path_agent2_expansion(self):
        # Agent 2 estimates only agent 4. Agent 1 also estimates agent 4
        # (consensus term); agent 3 is adjacent to 4 and relays its true
        # state. Agent 3 does not estimate 4, so it contributes no
        # estimate-consensus term.
        g, plant, gains, nbs, _ = reference_setup(n_dim=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 1))
        u = np.zeros((4, 1))
        obs = [
            ObserverState(
                agent=i + 1,
                x_hat=rng.normal(size=nbs[i].eta),
                u_hat=np.zeros(nbs[i].eta),
            )
            for i in range(4)
        ]
        msgs = build_messages(g, nbs, x, u, obs)
        xi2 = compute_xi(obs[1], inbox(msgs, nbs[1]), nbs[1])
        own = obs[1].x_hat[0]
        x_hat_1_4 = obs[0].x_hat[1]  # agent 1's member list is (3, 4)
        expected = (x_hat_1_4 - own) + (x[3, 0] - own)
        assert xi2[0] == pytest.approx(expected, abs=1e-14)

    def test_structural_identity_random(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            g = random_connected_graph(rng, n_min=2, n_max=6)
            k = int(rng.integers(2, 5))
            n_dim = int(rng.integers(1, 4))
            assert structural_identity_max_error(g, k, n_dim, rng) < 1e-10

    def test_missing_message(self):
        g, plant, gains, nbs, _ = reference_setup()
        world = make_world(g, 3, 2, np.random.default_rng(3))
        partial = dict(world["msgs"])
        del partial[3]
        with pytest.raises(MissingNeighborData):
            compute_xi(world["obs"][1], {j: partial[j] for j in (1,)}, nbs[1])

    def test_malformed_estimate_block(self):
        g, plant, gains, nbs, _ = reference_setup()
        world = make_world(g, 3, 2, np.random.default_rng(4))
        msgs = world["msgs"]
        bad = copy.copy(msgs[1])
        object.__setattr__(bad, "est_states", np.zeros(3))  # wrong stacking
        broken = dict(msgs)
        broken[1] = bad
        with pytest.raises(ProtocolError):
            compute_xi(world["obs"][1], inbox(broken, nbs[1]), nbs[1])


class TestStateObserverDerivative:
    def test_sign_zero_convention(self):
        # At exact agreement the switching term still pushes with +1: the
        # derivative is theta_l per component.
        g, plant, gains, nbs, _ = reference_setup()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2))
        u = np.zeros((4, 2))
        obs = [
            ObserverState(
                agent=i + 1,
                x_hat=x[[m - 1 for m in nbs[i].members]].reshape(-1),
                u_hat=np.zeros(nbs[i].eta * 2),
            )
            for i in range(4)
        ]
        msgs = build_messages(g, nbs, x, u, obs)
        dx = state_observer_derivative(obs[0], inbox(msgs, nbs[0]), nbs[0], plant, gains)
        theta_members = np.repeat([gains.theta[2], gains.theta[3]], 2)
        assert dx == pytest.approx(theta_members, abs=1e-14)

    def test_boundary_layer_matches_plant_at_zero_error(self):
        # With the saturation variant, exact agreement gives exactly the
        # true plant derivative per block.
        g = Graph(4, {(1, 2), (2, 3), (3, 4)})
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        plant = PlantModel(N=2, A=a)
        bounds = BoundSet(n=4, d_udot=1.0, d_tilde_u=0.5)
        gains, nbs, _ = tune_gains(g, 3, plant, bounds, g_scale=20.0)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 2))
        u = rng.normal(size=(4, 2))
        obs = [
            ObserverState(
                agent=i + 1,
                x_hat=x[[m - 1 for m in nbs[i].members]].reshape(-1),
                u_hat=u[[m - 1 for m in nbs[i].members]].reshape(-1),
            )
            for i in range(4)
        ]
        msgs = build_messages(g, nbs, x, u, obs)
        for i in range(4):
            dx = state_observer_derivative(
                obs[i], inbox(msgs, nbs[i]), nbs[i], plant, gains,
                boundary_layer=0.1,
            )
            truth = np.concatenate(
                [a @ x[m - 1] + u[m - 1] for m in nbs[i].members]
            )
            assert dx == pytest.approx(truth, abs=1e-12)

    def test_locality(self):
        # Derivatives depend on message content only: changing anything
        # outside the 1-hop exchange cannot change the result.
        g, plant, gains, nbs, _ = reference_setup()
        rng = np.random.default_rng(7)
        world = make_world(g, 3, 2, rng)
        ref = observer_derivative(
            world["obs"][0], inbox(world["msgs"], nbs[0]), nbs[0], plant, gains
        )
        x2 = world["x"].copy()
        x2[2] += 100.0  # agent 3 is not 1-hop to agent 1; message set for 1
        u2 = world["u"].copy()
        u2[3] -= 50.0
        msgs2 = build_messages(g, nbs, x2, u2, world["obs"])
        # agent 1 only hears agent 2, whose message content about agents
        # 1..2 is unchanged; rebuild agent 2's message from original data
        msgs_mixed = dict(msgs2)
        msgs_mixed[2] = world["msgs"][2]
        out = observer_derivative(
            world["obs"][0], inbox(msgs_mixed, nbs[0]), nbs[0], plant, gains
        )
        assert np.array_equal(out.dx_hat, ref.dx_hat)
        assert np.array_equal(out.du_hat, ref.du_hat)

    def test_scalar_error_dynamics_oracle(self):
        # Path 1-2-3, hop horizon 2, scalar states: agent 1 estimates agent
        # 3 with M = [1]. With the true state frozen and the input estimate
        # clamped, the estimation error must follow
        #   e' = -omega g e - theta sign(g e) + u_tilde
        # exactly (explicit Euler on both sides).
        g = Graph(3, {(1, 2), (2, 3)})
        plant = PlantModel(N=1, A=np.zeros((1, 1)))
        bounds = BoundSet(n=3, d_udot=0.0, d_tilde_u=0.2)
        gains, nbs, _ = tune_gains(g, 2, plant, bounds, g_scale=2.0, slack=0.05)
        omega3, theta3 = gains.omega[2], gains.theta[2]
        gval = 2.0
        dt = 1e-3
        u_tilde = -0.15  # frozen input-estimate offset
        x = np.array([[0.3], [-0.1], [0.7]])
        u = np.zeros((3, 1))
        obs = [
            ObserverState(agent=1, x_hat=np.array([0.2]), u_hat=np.array([-u_tilde])),
            ObserverState(agent=2, x_hat=np.zeros(0), u_hat=np.zeros(0)),
            ObserverState(agent=3, x_hat=np.array([0.5]), u_hat=np.array([0.0])),
        ]
        # oracle trajectory for agent 1's error on agent 3
        e = x[2, 0] - obs[0].x_hat[0]
        for _ in range(400):
            msgs = build_messages(g, nbs, x, u, obs)
            dx1 = state_observer_derivative(
                obs[0], inbox(msgs, nbs[0]), nbs[0], plant, gains
            )
            # plant frozen (u = 0, A = 0): only the estimate moves
            obs[0] = ObserverState(1, obs[0].x_hat + dt * dx1, obs[0].u_hat)
            e = e + dt * (
                -omega3 * gval * e - theta3 * np.sign(gval * e if e != 0 else 1.0)
                + u_tilde
            )
            assert x[2, 0] - obs[0].x_hat[0] == pytest.approx(e, abs=1e-12)


class TestInputObserver:
    def test_sign_zero_chatter(self):
        g, plant, gains, nbs, _ = reference_setup()
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 2))
        u = rng.normal(size=(4, 2))
        obs = [
            ObserverState(
                agent=i + 1,
                x_hat=np.zeros(nbs[i].eta * 2),
                u_hat=u[[m - 1 for m in nbs[i].members]].reshape(-1),
            )
            for i in range(4)
        ]
        msgs = build_messages(g, nbs, x, u, obs)
        du = input_observer_derivative(obs[0], inbox(msgs, nbs[0]), nbs[0], gains)
        pi_members = np.repeat([gains.pi[2], gains.pi[3]], 2)
        assert du == pytest.approx(pi_members, abs=1e-14)

    def test_scalar_sliding_oracle_sine_input(self):
        # Agent 1 estimates agent 3's input u = sin(t) starting from
        # u_hat = -1, switching gain 2. The error obeys e' = cos t - 2
        # while e > 0, so e(t) = 1 + sin t - 2t and the reaching time
        # solves 1 + sin(t*) = 2 t* (bisection oracle). After reaching,
        # |e| stays within (pi + sup|u'|) dt.
        g = Graph(3, {(1, 2), (2, 3)})
        pi_gain = 2.0
        gains = GainSet(
            g=1.0,
            omega=np.array([1.0, 1.0, 1.0]),
            theta=np.array([1.0, 1.0, 1.0]),
            pi=np.array([pi_gain, pi_gain, pi_gain]),
        )
        nbs = all_khop_sets(g, 2)
        # 1 + sin t - 2t falls from 1 at t = 0 to sin 2 - 3 < 0 at t = 2.
        lo, hi = 0.0, 2.0
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if 1.0 + np.sin(mid) - 2.0 * mid > 0.0 else (lo, mid)
        t_star = 0.5 * (lo + hi)
        dt = 1e-4
        steps = 20000
        x = np.zeros((3, 1))
        obs = [
            ObserverState(agent=1, x_hat=np.zeros(1), u_hat=np.array([-1.0])),
            ObserverState(agent=2, x_hat=np.zeros(0), u_hat=np.zeros(0)),
            ObserverState(agent=3, x_hat=np.zeros(1), u_hat=np.zeros(1)),
        ]
        crossing = None
        late_errors = []
        for step_i in range(steps):
            t = step_i * dt
            u = np.array([[0.0], [0.0], [np.sin(t)]])
            msgs = build_messages(g, nbs, x, u, obs)
            du1 = input_observer_derivative(obs[0], inbox(msgs, nbs[0]), nbs[0], gains)
            e = u[2, 0] - obs[0].u_hat[0]
            assert du1[0] == pi_gain * (1.0 if e >= 0 else -1.0)
            obs[0] = ObserverState(1, obs[0].x_hat, obs[0].u_hat + dt * du1)
            e_next = np.sin(t + dt) - obs[0].u_hat[0]
            if crossing is None and e_next <= 0.0:
                crossing = t + dt
            if t > 1.5 * t_star:
                late_errors.append(abs(e_next))
        assert crossing == pytest.approx(t_star, abs=5 * dt)
        assert max(late_errors) <= (pi_gain + 1.0) * dt + 1e-12


def test_sign_helper():
    assert np.array_equal(sign(np.array([-2.0, 0.0, 3.0])), [-1.0, 1.0, 1.0])
    assert sign(np.array([0.05]), boundary_layer=0.1)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        sign(np.zeros(1), boundary_layer=0.0)
