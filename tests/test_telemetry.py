"""One telemetry rulebook: what ``run`` records is what ``verify`` reads.

``run`` fills the ``consdist`` column from the stacked logged states in one
call per log block, so :func:`consensus_distance` must round each state of
a stack exactly as it rounds that state alone. A CSV written from a run and read back
must rebuild, through :func:`telemetry_from_columns`, the very record the
run returned, detection results included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import chorded_ring, short_reproduction
from khopsim.plant_sim import (
    Telemetry,
    consensus_distance,
    csv_header,
    read_csv,
    run,
    telemetry_from_columns,
    write_csv,
)
from khopsim.scenario_cli import load_scenario, prepare


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(0, 6), st.integers(1, 40), st.integers(1, 3)).flatmap(
        lambda shape: arrays(
            np.float64, shape, elements=st.floats(-1e6, 1e6, allow_subnormal=False)
        )
    )
)
def test_stacked_consensus_distance_equals_per_state_calls(stack):
    # The reference is the per-state formula the CSV column is written with:
    # numpy's sum of the squared components, which uses no BLAS kernel.
    reference = [np.sqrt(np.add.reduce(np.square(x - x.mean(axis=0, keepdims=True)).reshape(-1)))
                 for x in stack]
    per_state = [consensus_distance(x[None])[0] for x in stack]
    assert np.array_equal(consensus_distance(stack), np.array(reference, dtype=float))
    assert np.array_equal(np.array(per_state, dtype=float), np.array(reference, dtype=float))


@pytest.mark.parametrize("decimate", [1, 7])
@pytest.mark.parametrize(
    "raw", [short_reproduction(), chorded_ring()], ids=["reproduction", "chorded_ring"]
)
def test_csv_round_trip_rebuilds_the_run(raw, decimate, tmp_path):
    ts = prepare(load_scenario(raw))
    config = dataclasses.replace(ts.config, decimate=decimate)
    tel = run(config)
    assert np.isfinite(tel.T_x_obs).any()
    write_csv(tel, tmp_path / "telemetry.csv")
    back = telemetry_from_columns(config, read_csv(tmp_path / "telemetry.csv"))
    for field in dataclasses.fields(Telemetry):
        want, got = getattr(tel, field.name), getattr(back, field.name)
        assert np.shape(got) == np.shape(want), field.name
        assert np.array_equal(got, want, equal_nan=True), field.name


SERIES = ("times", "states", "inputs", "errx", "erru", "cons_dist", "v")


def test_the_series_are_views_of_the_one_table():
    tel = run(prepare(load_scenario(short_reproduction(0.05))).config)
    for name in SERIES:
        assert np.shares_memory(getattr(tel, name), tel.table), name
    columns = dict(zip(csv_header(4, 2), tel.table.T))
    for name, series in (("t", tel.times), ("x_3_2", tel.states[:, 2, 1]),
                         ("u_1_1", tel.inputs[:, 0, 0]), ("errx_2", tel.errx[:, 1]),
                         ("erru_4", tel.erru[:, 3]), ("consdist", tel.cons_dist),
                         ("v_1_2", tel.v[:, 0, 1])):
        assert np.array_equal(columns[name], series), name
    assert tel.v[:, 0].any()  # agent 1 reads agent 4 from estimates
    # A new table brings its own series; a series cannot be swapped alone.
    cut = dataclasses.replace(tel, table=tel.table[3:7])
    for name in SERIES:
        assert np.array_equal(getattr(cut, name), getattr(tel, name)[3:7]), name
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(tel, times=tel.times[:1])
