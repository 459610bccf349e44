"""Pair-array observer engine against the message form.

The simulator evaluates every (estimator, target) pair at once from an
ordered term table. Its contract is stronger than agreement to round-off:
with ``A = 0`` (every bundled scenario) each sum is formed in the message
form's order, so results must be bit-identical, because ``sign(0) = +1``
turns one-ulp differences into different trajectories.
The whole-run tests replay the closed loop with per-agent
``NeighborMessage`` exchanges and demand an identical ``Telemetry``, field
by field.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    build_messages,
    chorded_ring,
    connected_graphs,
    in_row_order,
    in_table_order,
    inbox,
    short_reproduction,
    term_slots,
)
from khopsim import (
    Graph,
    PlantModel,
    Telemetry,
    all_khop_sets,
    consensus_distance,
    init_world,
    plant_sim,
    run,
)
from khopsim.gain_tuning import GainSet
from khopsim import khop_observer
from khopsim.khop_observer import PairWorkspace, pair_derivative, pair_layout
from khopsim.scenario_cli import load_scenario, prepare
from reference_form import (
    ObserverState,
    consensus_control,
    observer_derivative,
    padded_pair_derivative,
    pair_tables,
    sign,
)


@st.composite
def networks(draw):
    """Connected graph (random spanning tree plus chords), k and N."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    chords = draw(
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n)
    )
    edges |= {(min(a, b), max(a, b)) for a, b in chords if a != b}
    k = draw(st.sampled_from([2, 3, 4]))
    n_dim = draw(st.sampled_from([1, 2]))
    seed = draw(st.integers(0, 2**32 - 1))
    return Graph(n, frozenset(edges)), k, n_dim, seed


def random_round(g, k, n_dim, rng):
    """Random truth, estimates and positive gains; some estimates exact, so
    correction signals that are exactly zero (the sign(0) case) occur."""
    nbs = all_khop_sets(g, k)
    x = rng.normal(size=(g.n, n_dim))
    u = rng.normal(size=(g.n, n_dim))
    obs = []
    for i, nb in enumerate(nbs):
        rows = [m - 1 for m in nb.members]
        exact = rng.random(nb.eta) < 0.3
        x_hat = np.where(exact[:, None], x[rows], rng.normal(size=(nb.eta, n_dim)))
        u_hat = np.where(exact[:, None], u[rows], rng.normal(size=(nb.eta, n_dim)))
        obs.append(ObserverState(i + 1, x_hat.reshape(-1), u_hat.reshape(-1)))
    return nbs, x, u, obs


def both_forms(g, nbs, x, u, obs, plant, gains, boundary_layer):
    msgs = build_messages(g, nbs, x, u, obs)
    ref = [
        observer_derivative(obs[i], inbox(msgs, nbs[i]), nbs[i], plant, gains,
                            boundary_layer=boundary_layer)
        for i in range(g.n)
    ]
    n_dim = plant.N
    ref_dx = np.concatenate([r.dx_hat for r in ref]).reshape(-1, n_dim)
    ref_du = np.concatenate([r.du_hat for r in ref]).reshape(-1, n_dim)
    x_hat = np.concatenate([o.x_hat for o in obs]).reshape(-1, n_dim)
    u_hat = np.concatenate([o.u_hat for o in obs]).reshape(-1, n_dim)
    layout = pair_layout(nbs.table, gains, n_dim)
    z = np.stack((np.concatenate((x_hat, x)), np.concatenate((u_hat, u))))
    dz = in_table_order(layout, pair_derivative(
        PairWorkspace(layout, plant, in_row_order(layout, z), boundary_layer)))
    p = len(x_hat)
    # The truth rows carry the plant; the input rows are the controller's.
    plant_dx = x @ plant.A.T + u
    if plant.f is not None:
        plant_dx += plant.f(x)
    assert np.array_equal(dz[0, p:], plant_dx)
    assert np.all(dz[1, p:] == 0.0)
    return (dz[0, :p], dz[1, :p]), (ref_dx, ref_du)


def random_gains(rng, n, g):
    return GainSet(
        g=g,
        omega=rng.uniform(0.5, 3.0, n),
        theta=rng.uniform(0.1, 4.0, n),
        pi=rng.uniform(0.1, 10.0, n),
    )


@settings(max_examples=60, deadline=None)
@given(networks(), st.floats(0.5, 30.0), st.sampled_from([None, 0.05]), st.booleans())
def test_pair_kernel_bit_identical_for_scalar_design(net, g_val, boundary_layer, with_f):
    # A = 0, so the kernel skips the x A^T product, with and without a
    # saturating f. The kernel's g xi meets the oracle's xi (g I)^T.
    g, k, n_dim, seed = net
    rng = np.random.default_rng(seed)
    nbs, x, u, obs = random_round(g, k, n_dim, rng)
    plant = PlantModel(
        N=n_dim,
        A=np.zeros((n_dim, n_dim)),
        f=(lambda v: np.clip(v, -0.5, 0.5)) if with_f else None,
        l_f=1.0 if with_f else 0.0,
    )
    gains = random_gains(rng, g.n, g_val)
    (dx, du), (ref_dx, ref_du) = both_forms(g, nbs, x, u, obs, plant, gains,
                                            boundary_layer)
    assert np.array_equal(dx, ref_dx)
    assert np.array_equal(du, ref_du)


@settings(max_examples=60, deadline=None)
@given(networks(), st.booleans())
def test_pair_kernel_matches_for_general_plant(net, with_f):
    g, k, n_dim, seed = net
    rng = np.random.default_rng(seed)
    nbs, x, u, obs = random_round(g, k, n_dim, rng)
    plant = PlantModel(
        N=n_dim,
        A=rng.normal(size=(n_dim, n_dim)),
        f=(lambda v: np.clip(v, -0.5, 0.5)) if with_f else None,
        l_f=1.0 if with_f else 0.0,
    )
    gains = random_gains(rng, g.n, float(rng.uniform(0.5, 30.0)))
    (dx, du), (ref_dx, ref_du) = both_forms(g, nbs, x, u, obs, plant, gains, None)
    assert np.abs(dx - ref_dx).max(initial=0.0) <= 1e-12
    assert np.array_equal(du, ref_du)


def message_form_run(config):
    """The closed loop with one NeighborMessage per agent per step, as the
    simulator ran it before the pair engine, logging every step.

    Returns the series ``times``, ``states``, ``inputs``, ``errx``, ``erru``
    and ``v``. The plant steps as ``x + dt * (x A^T + u + f(x))``; the error
    norms and the disturbance are reduced one step at a time, each cell
    adding its terms in pair order, and a norm its squared components
    pair by pair and component by component.
    """
    g, plant, dt = config.graph, config.plant, config.dt
    nbs = all_khop_sets(g, config.k)
    tg = config.target_graph
    offsets = nbs.table.offsets
    obs = [
        ObserverState(
            i + 1,
            np.array(config.xhat0[slice(*offsets[i:i + 2])], dtype=float).reshape(-1),
            np.array(config.uhat0[slice(*offsets[i:i + 2])], dtype=float).reshape(-1),
        )
        for i, nb in enumerate(nbs)
    ]
    target = np.array([l - 1 for nb in nbs for l in nb.members], dtype=np.intp)

    def error_norm(truth, est):
        diff = truth[target] - est.reshape(-1, plant.N)
        sq = np.bincount(np.repeat(target, plant.N), weights=(diff * diff).reshape(-1),
                         minlength=g.n)
        return np.sqrt(sq)

    x = np.array(config.x0, dtype=float)
    t = 0.0
    logs = {name: [] for name in ("times", "states", "inputs", "errx", "erru", "v")}
    n_steps = int(round(config.t_end / dt))
    for step_i in range(n_steps + 1):
        u = np.zeros_like(x)
        v = np.zeros_like(x)
        for i, nb in enumerate(nbs, 1):
            if tg is None:
                continue
            onehop = {j: x[j - 1] for j in nb.one_hop}
            est = {
                l: obs[i - 1].x_hat[b * plant.N : (b + 1) * plant.N]
                for b, l in enumerate(nb.members)
            }
            ct = tuple(j for j in tg.neighbors(i) if j in g.neighbors(i))
            t_only = tuple(j for j in tg.neighbors(i) if j not in g.neighbors(i))
            u[i - 1] = consensus_control(i, x[i - 1], onehop, est, ct + t_only, ct)
            for j in t_only:
                v[i - 1] += x[j - 1] - est[j]
        logs["times"].append(t)
        logs["states"].append(x.copy())
        logs["inputs"].append(u)
        logs["errx"].append(error_norm(x, np.concatenate([o.x_hat for o in obs])))
        logs["erru"].append(error_norm(u, np.concatenate([o.u_hat for o in obs])))
        logs["v"].append(v)
        if step_i == n_steps:
            break
        msgs = build_messages(g, nbs, x, u, obs)
        derivs = [
            observer_derivative(obs[i], inbox(msgs, nbs[i]), nbs[i], plant,
                                config.gains, boundary_layer=config.boundary_layer)
            for i in range(g.n)
        ]
        dx = x @ plant.A.T + u
        if plant.f is not None:
            dx += plant.f(x)
        x = x + dt * dx
        t = t + dt
        obs = [
            ObserverState(o.agent, o.x_hat + dt * d.dx_hat, o.u_hat + dt * d.du_hat)
            for o, d in zip(obs, derivs)
        ]
    return {name: np.array(series) for name, series in logs.items()}


def message_form_telemetry(config):
    """:func:`message_form_run` sampled at ``config.decimate`` and judged by
    the simulator's one convergence rule."""
    series = message_form_run(config)
    n_steps = len(series["times"]) - 1
    rows = list(range(0, n_steps + 1, config.decimate))
    if rows[-1] != n_steps:
        rows.append(n_steps)
    logged = {name: arr[rows] for name, arr in series.items()}
    logged["cons_dist"] = consensus_distance(logged["states"])
    layout = plant_sim._column_layout(config.graph.n, config.plant.N)
    table = np.hstack([logged[name].reshape(len(rows), -1) for name, *_ in layout])
    return plant_sim._assemble_telemetry(config, table)


def assert_same_telemetry(got, want):
    for f in dataclasses.fields(Telemetry):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b, equal_nan=True), f.name


def config_of(raw, **changes):
    ts = prepare(load_scenario(raw))
    return dataclasses.replace(ts.config, **{"decimate": 1, **changes})


def assert_same_run(raw, **changes):
    config = config_of(raw, **changes)
    assert_same_telemetry(run(config), message_form_telemetry(config))


def test_run_matches_message_form_on_reproduction():
    assert_same_run(short_reproduction())


def test_run_matches_message_form_on_chorded_ring():
    assert_same_run(chorded_ring())


def test_run_matches_message_form_decimated_over_small_log_blocks(monkeypatch):
    # 300 steps at decimate 7 log 44 samples; blocks of 5 leave a partial
    # last block, so every reduction path runs.
    config = config_of(chorded_ring(), decimate=7)
    z_bytes = 2 * (config.structure.pairs.target.size + config.graph.n) * 2 * 8
    monkeypatch.setattr(plant_sim, "LOG_BLOCK_BYTES", 5 * z_bytes)
    assert_same_telemetry(run(config), message_form_telemetry(config))


@pytest.mark.parametrize(
    "raw, changes",
    [
        (short_reproduction(), {"boundary_layer": 0.05, "decimate": 7}),
        (dict(chorded_ring(), controller={"kind": "zero"}), {"decimate": 7}),
    ],
    ids=["boundary_layer", "zero_controller"],
)
def test_run_matches_message_form_on_variant(raw, changes):
    assert_same_run(raw, **changes)


def test_run_matches_message_form_with_saturating_plant():
    raw = chorded_ring(t_end=0.2)
    raw["plant"] = {"N": 2, "A": [[-0.2, 0.5], [-0.5, -0.2]], "f": "scalar-saturation"}
    # Large enough that the saturation clips some states.
    raw["sim"]["x0"] = (6.0 * np.array(raw["sim"]["x0"])).tolist()
    config = config_of(raw)
    # A one-row ``xh @ A.T`` rounds differently from the same row inside a
    # larger product, so the message form agrees only while every agent
    # estimates at least two others.
    assert min(nb.eta for nb in config.structure.nbs) >= 2
    assert np.abs(config.x0).max() > 1.0
    assert_same_telemetry(run(config), message_form_telemetry(config))


def test_run_matches_message_form_with_signed_zeros_in_a_box():
    # -0.0 in x0, estimates that agree exactly with it and input estimates
    # of -0.0: the first rounds see zero correction signals (sign(0) = +1)
    # and signed zeros in both planes, and the state box is checked.
    raw = short_reproduction(t_end=0.2)
    x0 = np.array(raw["sim"]["x0"])
    x0[0] = -0.0
    x0[2, 1] = -0.0
    raw["sim"]["x0"] = x0.tolist()
    config = config_of(raw)
    pairs = config.structure.pairs
    config = dataclasses.replace(
        config, xhat0=config.x0[pairs.target], uhat0=np.full((pairs.target.size, 2), -0.0)
    )
    assert config.state_box is not None and np.signbit(config.x0).any()
    assert np.signbit(config.uhat0).all() and np.array_equal(config.xhat0, config.x0[pairs.target])
    assert_same_telemetry(run(config), message_form_telemetry(config))


@st.composite
def ring_runs(draw):
    """A random chorded ring and one run variant, as (raw scenario, config
    changes): the boundary layer, the zero controller, the saturating
    ``f``, or a nonzero ``A``; logged at decimate 1 or 7."""
    n = draw(st.integers(5, 10))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    chords = {(min(a, b), max(a, b)) for a, b in draw(st.lists(pairs, max_size=3))
              if (b - a) % n not in (0, 1, n - 1)}
    raw = chorded_ring(t_end=0.05, n=n, chords=sorted(chords),
                       seed=draw(st.integers(0, 2**16)))
    changes = {"decimate": draw(st.sampled_from([1, 7]))}
    variant = draw(st.sampled_from(["boundary_layer", "zero_controller", "saturation", "plant_A"]))
    if variant == "boundary_layer":
        changes["boundary_layer"] = 0.05
    elif variant == "zero_controller":
        raw["controller"] = {"kind": "zero"}
    elif variant == "saturation":
        raw["plant"] = {"N": 2, "A": 0.0, "f": "scalar-saturation"}
        raw["sim"]["x0"] = (6.0 * np.array(raw["sim"]["x0"])).tolist()
    else:
        raw["plant"] = {"N": 2, "A": [[-0.2, 0.5], [-0.5, -0.2]]}
    return raw, changes, variant


@settings(max_examples=40, deadline=None)
@given(ring_runs())
def test_run_matches_message_form_on_random_chorded_rings(case):
    raw, changes, variant = case
    config = config_of(raw, **changes)
    if variant == "plant_A":
        # A one-row ``xh @ A.T`` rounds differently from the same row inside
        # a larger product; see test_run_matches_message_form_with_saturating_plant.
        assume(min(nb.eta for nb in config.structure.nbs) >= 2)
    assert_same_telemetry(run(config), message_form_telemetry(config))


@settings(max_examples=25, deadline=None)
@given(ring_runs(), st.integers(1, 12), st.integers(1, 30), st.integers(0, 10**4))
def test_log_blocks_of_any_size_reduce_as_one_block(case, decimate, block_samples, spare):
    # The reducer's bin tables are built for a full block and a partial
    # block uses their prefix, so any block size gives the bits of one block.
    raw, changes, _ = case
    config = config_of(raw, **{**changes, "decimate": decimate})
    whole = run(config)
    z_bytes = init_world(config).nbytes
    assert len(whole.times) * z_bytes <= plant_sim.LOG_BLOCK_BYTES
    with mock.patch.object(plant_sim, "LOG_BLOCK_BYTES", block_samples * z_bytes + spare % z_bytes):
        assert_same_telemetry(run(config), whole)


@settings(max_examples=30, deadline=None)
@given(networks())
def test_layout_gains_are_the_targets_in_every_component(net):
    g, k, n_dim, seed = net
    gains = random_gains(np.random.default_rng(seed), g.n, 1.0)
    layout = pair_layout(all_khop_sets(g, k).table, gains, n_dim)
    p = layout.target.size
    assert layout.switch.shape == (2, p, n_dim) and layout.switch.flags.c_contiguous
    assert layout.omega.shape == (p, n_dim) and layout.omega.flags.c_contiguous
    for name, full in zip(("omega", "theta", "pi"), (layout.omega, *layout.switch)):
        for c in range(n_dim):
            assert np.array_equal(full[layout.rows, c], getattr(gains, name)[layout.target]), name


def switching_layout(raw, g_val):
    """A chorded ring's pair layout with ``G = g_val I``, ``omega = 0`` and
    random positive switching gains, and its number of agents."""
    g = Graph(raw["graph"]["n"], frozenset(map(tuple, raw["graph"]["edges"])))
    rng = np.random.default_rng(len(g.edges))
    gains = GainSet(g=g_val, omega=np.zeros(g.n), theta=rng.uniform(0.1, 4.0, g.n),
                    pi=rng.uniform(0.1, 10.0, g.n))
    return pair_layout(all_khop_sets(g, raw["k"]).table, gains, 2), g.n


def switching_terms(layout, z):
    """``pair_derivative``'s switching terms on ``z``, ``(2, P, N)``, and
    the ones ``gain * sign(signal)`` gives from its sums, with
    ``sign(0) = +1``, as float bits, and the workspace. There is no drift
    and ``omega = 0``, so the drift rows end up holding exactly the state
    switching terms: each is a nonzero gain added to ``0 * g xi = ±0``."""
    work = PairWorkspace(layout, PlantModel(N=2, A=np.zeros((2, 2))), z)
    pair_derivative(work)
    xi, rho = work.acc
    want = layout.switch * sign(np.stack((np.multiply(xi, work.g), rho)))
    got = np.stack((work.drift_est, work.dz[1, : layout.target.size]))
    return got.view(np.int64), want.view(np.int64), work


# Exact zeros of both signs, the smallest subnormals and a few normal values:
# most sums are exactly zero, and some ``g xi`` underflow to -0.0.
SWITCHING_POOL = np.array([0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 1e-320, 0.25, -1.0])


@settings(max_examples=60, deadline=None)
@given(ring_runs(), st.sampled_from([0.125, 0.5, 1.0, 7.5]), st.integers(0, 2**32 - 1))
def test_switching_is_the_gain_times_sign_bit_for_bit(case, g_val, seed):
    layout, n = switching_layout(case[0], g_val)
    z = np.random.default_rng(seed).choice(SWITCHING_POOL, size=(2, layout.target.size + n, 2))
    got, want, work = switching_terms(layout, z)
    assert np.array_equal(got, want)
    # No sum is -0.0, so copysign takes the sign that sign() reads.
    assert not (np.signbit(work.acc) & (work.acc == 0.0)).any()


def underflow_case(g_val):
    """Every estimate 5e-324 and every truth +0.0: a pair with one truth
    term has xi = -5e-324. Its ``g xi`` and :func:`switching_terms`."""
    layout, n = switching_layout(chorded_ring(), g_val)
    z = np.zeros((2, layout.target.size + n, 2))
    z[:, : layout.target.size] = 5e-324
    got, want, work = switching_terms(layout, z)
    return np.multiply(work.xi, work.g), got, want, work


def test_switching_treats_an_underflowed_signal_as_zero():
    # g xi = 0.5 * -5e-324 underflows to -0.0. sign(-0.0) = +1, so its
    # switching term is +theta, not the -theta of -0.0's sign bit.
    gxi, got, want, work = underflow_case(0.5)
    assert (np.signbit(gxi) & (gxi == 0.0)).any() and work.may_underflow
    assert np.array_equal(got, want)


def test_switching_just_above_half_keeps_the_smallest_signal():
    # With g just above 0.5, g xi rounds to -5e-324, never to -0.0, so the
    # kernel skips the add that clears -0.0 and still switches as sign does.
    gxi, got, want, work = underflow_case(np.nextafter(0.5, 1.0))
    assert not (np.signbit(gxi) & (gxi == 0.0)).any() and (gxi == -5e-324).any()
    assert not work.may_underflow
    assert np.array_equal(got, want)


def test_switching_on_an_inf_minus_inf_signal_is_minus_gain():
    # A pair whose first two terms add up to +inf and whose third is -inf:
    # its sums are inf - inf = NaN in both planes, and sign(NaN) = -1. Its
    # state row adds omega g xi = NaN, so the input row shows the switching.
    layout, n = switching_layout(chorded_ring(), 1.0)
    slots = term_slots(layout)
    firsts = [[s[r] for s in slots[:3] if r < s.size] for r in range(layout.rows.size)]
    p = next(r for r, t in enumerate(firsts) if len({*t, r}) == 4)
    terms = firsts[p]
    z = np.zeros((2, layout.target.size + n, 2))
    z[:, p] = 5e307
    z[:, terms[:2]] = 1.7e308  # each minus 5e307 is 1.2e308
    z[:, terms[2]] = -1.3e308  # minus 5e307 overflows to -inf
    with np.errstate(over="ignore", invalid="ignore"):
        got, want, work = switching_terms(layout, z)
    assert np.isnan(work.acc[:, p]).all() and (want[1, p] < 0).all()  # -pi, as bits
    assert np.array_equal(got[1, p], want[1, p]), (
        "copysign gives the gains the sign bit of NaN, and inf - inf gave a "
        "NaN without it on this platform, so sign(NaN) = -1 no longer holds")


# Signed zeros, subnormals, a normal below and above 1 and large values, so
# sums cancel exactly, underflow and overflow.
ORACLE_POOL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2e-308, 0.3, -1.5, 1e308, -1e308])


@st.composite
def oracle_cases(draw):
    """A network, from ``connected_graphs`` or a random chorded ring, k, N
    and the kernel's inputs: a state array drawn from ``ORACLE_POOL`` and
    normals, sometimes with an ``inf - inf`` term, positive gains with
    ``g`` at, below or just above 0.5 or larger, with or without a boundary
    layer, ``A = 0`` or not, and no ``f`` or a tabulated one."""
    if draw(st.booleans()):
        g = draw(connected_graphs(14))
    else:
        n = draw(st.integers(5, 12))
        chords = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3))
        raw = chorded_ring(n=n, chords=sorted({(min(a, b), max(a, b)) for a, b in chords
                                               if (b - a) % n not in (0, 1, n - 1)}))
        g = Graph(n, frozenset(map(tuple, raw["graph"]["edges"])))
    k, n_dim = draw(st.sampled_from([2, 3, 4])), draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g_val = draw(st.sampled_from([0.125, 0.5, np.nextafter(0.5, 1.0), 1.0, 7.5]))
    gains = random_gains(rng, g.n, g_val)
    a = rng.normal(size=(n_dim, n_dim)) if draw(st.booleans()) else np.zeros((n_dim, n_dim))
    f = None
    if draw(st.booleans()):
        knots, values = np.sort(rng.normal(size=6)), rng.normal(size=6)
        f = lambda v: np.interp(v, knots, values)  # noqa: E731
    plant = PlantModel(N=n_dim, A=a, f=f, l_f=0.0 if f is None else 10.0)
    boundary_layer = draw(st.sampled_from([None, 0.05]))
    nbs = all_khop_sets(g, k)
    p = len(nbs.table.target)
    z = np.where(rng.random((2, p + g.n, n_dim)) < 0.5,
                 rng.choice(ORACLE_POOL, (2, p + g.n, n_dim)), rng.normal(size=(2, p + g.n, n_dim)))
    if p and draw(st.booleans()):
        # A pair with a truth term: its estimate and that truth row +inf.
        terms = pair_tables(nbs)[3]
        q = int(np.argmax((terms >= p).any(axis=0)))
        z[:, q] = z[:, terms[terms[:, q] >= p, q][0]] = np.inf
    return nbs, gains, plant, boundary_layer, z


@settings(max_examples=150, deadline=None)
@given(oracle_cases(), st.sampled_from([0, 1, 16, khop_observer.HEAD_PAD_VALUES]))
def test_pair_derivative_matches_the_padded_kernel_bit_for_bit(case, head_pad_values):
    # Small graphs pad every slot at the default HEAD_PAD_VALUES; the lower
    # limits give them tails, and 0 an empty head. A run never steps an
    # estimate that is not finite, so no pair's own estimate is infinite but
    # the inf - inf pair's, which is NaN either way: with an infinite own
    # estimate a padded slot adds NaN where the tail adds nothing.
    nbs, gains, plant, boundary_layer, z = case
    with mock.patch.object(khop_observer, "HEAD_PAD_VALUES", head_pad_values):
        layout = pair_layout(nbs.table, gains, plant.N)
    _, target, _, terms = pair_tables(nbs)
    full = np.array((gains.omega, gains.theta, gains.pi))[:, target, None].repeat(plant.N, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        want_dz, want_acc = padded_pair_derivative(terms, gains.g, full[0], full[1:], plant, z,
                                                   boundary_layer)
        work = PairWorkspace(layout, plant, in_row_order(layout, z), boundary_layer)
        dz = in_table_order(layout, pair_derivative(work))
    assert dz.view(np.int64).tobytes() == want_dz.view(np.int64).tobytes()
    assert work.acc[:, layout.rows].tobytes() == want_acc.tobytes()


def test_the_reproduction_layout_has_no_tail():
    # Six pairs, two with a second term: padding four rows costs less than
    # a tail slot's two calls, so the step keeps one take, one subtract and
    # one reduce.
    pairs = config_of(short_reproduction()).structure.pairs
    assert pairs.widths == (6, 2) and pairs.head == 2
    assert pairs.terms.size == pairs.head * pairs.rows.size == 12
