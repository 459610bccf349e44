"""The telemetry CSV written and read on several CPUs is the one-process CSV.

``write_csv`` and ``read_csv`` hand row ranges to forked children once a
table holds ``2 * SPLIT_MIN_CELLS`` values. These tests lower the threshold
so that small tables split, and compare with a threshold no table reaches.
The worker count stays capped at the CPUs this process may run on, so no
test starts more processes than there are cores.
"""

import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import short_reproduction
from khopsim import plant_sim
from khopsim.plant_sim import (
    Telemetry,
    _column_layout,
    read_csv,
    run,
    telemetry_columns,
    write_csv,
)
from khopsim.scenario_cli import load_scenario, main, prepare

# A one-value threshold splits every table of two or more values.
SPLIT = 1
SERIAL = sys.maxsize

# Values whose repr is special: signed zeros, subnormals, infinities, NaN,
# the smallest normal, and neighbours of repr's switch to exponent form at
# 1e-4 and 1e16.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 2.2250738585072014e-308, np.inf,
           -np.inf, np.nan, 1e-4, 9.999999999999999e-05, -1.0000000000000002e-04,
           1e16, 9999999999999998.0, -1.0000000000000002e16, 0.1, 1.7976931348623157e308]


def telemetry_of(table: np.ndarray, n: int, n_dim: int) -> Telemetry:
    """A Telemetry whose CSV columns are ``table``'s, in order."""
    fields, start = {}, 0
    for field, shape, names in _column_layout(n, n_dim):
        cols = table[:, start:start + len(names)]
        fields[field] = cols.reshape(len(table), *shape)
        start += len(names)
    empty = np.empty(0)
    return Telemetry(eta=empty, band_x=empty, band_u=empty, eps_x=empty, eps_u=empty,
                     T_x_obs=empty, T_u_obs=empty, X_obs=0.0, **fields)


@st.composite
def tables(draw):
    n, n_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    width = 2 + 3 * n * n_dim + 2 * n
    rows = draw(st.integers(1, 40))
    values = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
    flat = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
    return np.array(flat, dtype=float).reshape(rows, width), n, n_dim


def written(tel: Telemetry, path: Path, threshold: int) -> bytes:
    with mock.patch.object(plant_sim, "SPLIT_MIN_CELLS", threshold):
        write_csv(tel, path)
    return path.read_bytes()


def read(path: Path, threshold: int) -> dict:
    with mock.patch.object(plant_sim, "SPLIT_MIN_CELLS", threshold):
        return read_csv(path)


def assert_same_bits(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name in want:
        assert got[name].view(np.int64).tolist() == want[name].view(np.int64).tolist(), name


def test_worker_count_is_capped_at_the_usable_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert plant_sim._workers(2 * plant_sim.SPLIT_MIN_CELLS - 1) == 1
    monkeypatch.setattr(plant_sim, "SPLIT_MIN_CELLS", SPLIT)
    assert plant_sim._workers(10**9) == cpus
    assert plant_sim._workers(1) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert plant_sim._workers(10**9) == os.cpu_count()
    monkeypatch.delattr(os, "fork")
    assert plant_sim._workers(10**9) == 1


@settings(max_examples=60, deadline=None)
@given(tables())
def test_split_write_and_read_match_one_process(case):
    table, n, n_dim = case
    tel = telemetry_of(table, n, n_dim)
    with tempfile.TemporaryDirectory() as tmp:
        one, split = Path(tmp) / "one.csv", Path(tmp) / "split.csv"
        assert written(tel, split, SPLIT) == written(tel, one, SERIAL)
        assert_same_bits(read(one, SPLIT), read(one, SERIAL))
        assert sorted(os.listdir(tmp)) == ["one.csv", "split.csv"]


def test_short_reproduction_splits_byte_and_bit_identical(tmp_path):
    tel = run(prepare(load_scenario(short_reproduction(0.3))).config)
    # Calls made in this process: a part that failed would show as a second
    # call of the one-process writer or parser.
    calls = {"_forked": [], "_write_table": [], "_parse_rows": []}
    with contextlib.ExitStack() as stack:
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(plant_sim, name)):
                calls[_name].append(len(args[0]) if _name == "_forked" else 1)
                return _fn(*args)

            stack.enter_context(mock.patch.object(plant_sim, name, counted))
        split = written(tel, tmp_path / "split.csv", SPLIT)
        cols = read(tmp_path / "split.csv", SPLIT)
    children = len(os.sched_getaffinity(0)) - 1
    assert calls == {"_forked": [children] * 2, "_write_table": [1], "_parse_rows": [1]}
    assert split == written(tel, tmp_path / "one.csv", SERIAL)
    assert_same_bits(cols, read(tmp_path / "one.csv", SERIAL))
    assert_same_bits(cols, {k: np.asarray(v) for k, v in telemetry_columns(tel).items()})


@contextlib.contextmanager
def recorded_forks():
    """The pids of the children forked inside the block; on leaving, each
    must already be reaped."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", recording):
        yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def short_run_dir(tmp_path):
    raw = short_reproduction(1.0)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    tel = run(prepare(load_scenario(raw)).config)
    write_csv(tel, tmp_path / "telemetry.csv")
    return tmp_path


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
@pytest.mark.parametrize("where", [0.25, 0.75], ids=["child_part", "own_part"])
def test_ragged_row_fails_verify_as_one_process_does(short_run_dir, capsys, where):
    lines = (short_run_dir / "telemetry.csv").read_text().splitlines(keepends=True)
    bad = int(len(lines) * where)
    lines[bad] = lines[bad].rsplit(",", 1)[0] + "\n"
    ragged = short_run_dir / "ragged.csv"
    ragged.write_text("".join(lines), encoding="utf-8")
    argv = ["verify", "--scenario", str(short_run_dir / "scenario.json"),
            "--telemetry", str(ragged), "--out", str(short_run_dir / "v")]
    outcomes = []
    for threshold in (SPLIT, SERIAL):
        with mock.patch.object(plant_sim, "SPLIT_MIN_CELLS", threshold), recorded_forks() as pids:
            rc = main(argv)
        outcomes.append((rc, capsys.readouterr().err))
        assert len(pids) == (1 if threshold == SPLIT else 0)
    assert outcomes[0] == outcomes[1]
    rc, err = outcomes[0]
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith("cannot read telemetry: the number of columns changed")
    assert sorted(os.listdir(short_run_dir)) == ["ragged.csv", "scenario.json", "telemetry.csv"]


def test_failing_child_leaves_the_one_process_bytes(short_run_dir):
    tel = run(prepare(load_scenario(short_reproduction(1.0))).config)
    path = short_run_dir / "again.csv"

    def failing(rows, out):
        raise OSError("no space left")

    with mock.patch.object(plant_sim, "_format_part", failing), recorded_forks() as pids:
        data = written(tel, path, SPLIT)
    assert len(pids) == len(os.sched_getaffinity(0)) - 1
    assert data == (short_run_dir / "telemetry.csv").read_bytes()


def test_failing_fork_leaves_the_one_process_bytes(short_run_dir):
    tel = run(prepare(load_scenario(short_reproduction(1.0))).config)

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    with mock.patch.object(os, "fork", no_fork):
        data = written(tel, short_run_dir / "again.csv", SPLIT)
        cols = read(short_run_dir / "again.csv", SPLIT)
    assert data == (short_run_dir / "telemetry.csv").read_bytes()
    assert_same_bits(cols, read(short_run_dir / "telemetry.csv", SERIAL))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_interrupt_reaps_every_child(short_run_dir):
    tel = run(prepare(load_scenario(short_reproduction(1.0))).config)
    caller = os.getpid()
    write_rows = plant_sim.write_rows

    def interrupted(fh, rows):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        write_rows(fh, rows)

    with mock.patch.object(plant_sim, "write_rows", interrupted), recorded_forks() as pids:
        with pytest.raises(KeyboardInterrupt):
            written(tel, short_run_dir / "again.csv", SPLIT)
    assert len(pids) == len(os.sched_getaffinity(0)) - 1
    assert sorted(os.listdir(short_run_dir)) == ["again.csv", "scenario.json", "telemetry.csv"]


def test_blank_lines_and_crlf_read_as_one_process(tmp_path):
    body = "".join(f"{i}.5,{-i}e-300,nan\r\n" + ("\n" if i % 7 == 0 else "") for i in range(300))
    path = tmp_path / "odd.csv"
    path.write_bytes(("a,b,c\r\n" + body).encode("utf-8"))
    assert_same_bits(read(path, SPLIT), read(path, SERIAL))
    assert read(path, SERIAL)["b"][3] == -3e-300
