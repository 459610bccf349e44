"""The vectorized CSV formatter spells every value as ``repr`` does.

``format_rows`` is compared byte for byte with the repr join of
``reference_form.repr_rows``: on sets that reach every branch of the
digit search (random bit patterns, subnormals, powers of two, neighbours
of powers of ten, large integers, ties), on the telemetry tables of the
reproduction and a chorded ring, and on hypothesis tables. The exponent
tables are checked against exact integer arithmetic.
"""

import dataclasses
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chorded_ring, short_reproduction
from khopsim import float_repr, plant_sim
from khopsim.float_repr import CHUNK_VALUES, format_rows, write_rows
from khopsim.scenario_cli import load_scenario, prepare
from reference_form import repr_rows

SEED = 20261020


def assert_spelled_as_repr(values, width=7):
    """``values`` laid out ``width`` to a row (zero-padded) format as repr."""
    values = np.asarray(values, dtype=np.float64).ravel()
    table = np.concatenate([values, np.zeros(-values.size % width)]).reshape(-1, width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = format_rows(table)
    want = repr_rows(table)
    if got != want:
        for got_row, want_row, row in zip(got.split(b"\n"), want.split(b"\n"), table):
            assert got_row == want_row, [v.hex() for v in row]
    assert got == want


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_named_values():
    assert_spelled_as_repr([
        0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 100.0, 1e15, 123.456, 5e-324, -5e-324,
        1.5e-323, 2.2250738585072014e-308, 2.225e-308, 1.7976931348623157e308,
        1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5, 0.001,
        np.inf, -np.inf, np.nan, -np.nan, 20.00000000000146, 2.0**53, 2.0**53 + 2,
    ])


def test_random_bit_patterns():
    rng = np.random.default_rng(SEED)
    assert_spelled_as_repr(from_bits(rng.integers(0, 2**64, 100_000, dtype=np.uint64)))


def test_scaled_normals():
    rng = np.random.default_rng(SEED + 1)
    scale = 10.0 ** rng.integers(-6, 17, 100_000)
    assert_spelled_as_repr(rng.standard_normal(100_000) * scale)


def test_smallest_subnormals():
    assert_spelled_as_repr(from_bits(np.arange(1, 100_000)))


def test_powers_of_two_and_their_predecessors():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_spelled_as_repr(np.concatenate([powers, np.nextafter(powers, 0.0), -powers]))


def test_neighbours_of_powers_of_ten():
    tens = np.array([10.0**k for k in range(-30, 31)] + [1e-320, 1e-310, 1e300, 1e308])
    steps = np.arange(-10, 11)
    bits = tens.view(np.int64)[:, None] + steps[None, :]
    assert_spelled_as_repr(bits.view(np.float64))


def test_large_integers_ties_and_dyadic_rationals():
    rng = np.random.default_rng(SEED + 2)
    integers = rng.integers(2**53, 2**63, 20_000, dtype=np.uint64).astype(np.float64)
    integers *= 2.0 ** rng.integers(0, 13, 20_000)
    odd_fives = (2 * rng.integers(0, 10**6, 20_000) + 1) * 5.0 * 10.0 ** rng.integers(-8, 9, 20_000)
    dyadic = rng.integers(-(2**40), 2**40, 20_000) / 2.0 ** rng.integers(0, 60, 20_000)
    assert_spelled_as_repr(np.concatenate([integers, odd_fives, dyadic]))


@pytest.mark.parametrize("raw", [short_reproduction(0.5), chorded_ring(0.3)],
                         ids=["reproduction", "chorded_ring"])
def test_telemetry_tables(raw):
    tel = plant_sim.run(prepare(load_scenario(raw)).config)
    cols = plant_sim.telemetry_columns(tel)
    table = np.column_stack(list(cols.values()))
    assert format_rows(table) == repr_rows(table)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 6))
    values = st.floats() | st.integers(0, 2**64 - 1).map(lambda b: float(from_bits(b)))
    flat = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
    return np.array(flat, dtype=np.float64).reshape(rows, width)


@settings(max_examples=200, deadline=None)
@given(tables())
def test_hypothesis_tables(table):
    assert format_rows(table) == repr_rows(table)


def test_chunks_cover_rows_of_any_width():
    # A table wider than a chunk, one whose rows do not divide a chunk, and
    # the empty table; write_rows streams what format_rows returns.
    rng = np.random.default_rng(SEED + 3)
    for shape in ((3, CHUNK_VALUES + 5), (301, 33), (0, 4)):
        table = rng.standard_normal(shape)
        assert format_rows(table) == repr_rows(table)
        parts = []

        class Sink:
            write = parts.append

        write_rows(Sink, table)
        assert b"".join(parts) == repr_rows(table)
        assert all(len(part) <= 24 * max(CHUNK_VALUES, shape[1]) for part in parts)


def exact_floor_log10(num: int, den: int) -> int:
    k = len(str(num)) - len(str(den))
    return k if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else k - 1


def test_exponent_constants_are_exact():
    consts, point = float_repr.digit_tables()[:2]
    for row in range(0, 4094):
        bq, flat = divmod(row, 2)
        q = max(bq, 1) - 1075
        irregular = flat and bq > 1
        num, den = (3 if irregular else 1) << max(q, 0), (4 if irregular else 1) << max(-q, 0)
        k = exact_floor_log10(num, den)
        assert point[row] == k + 16, row
        e = (10**-k).bit_length() - 1 if k <= 0 else -((10**k - 1).bit_length())
        assert 2**e <= 10**-k < 2**(e + 1) if k <= 0 else 2**e * 10**k <= 1 < 2**(e + 1) * 10**k
        g = int(consts[6, row]) << 63 | int(consts[4, row]) << 32 | int(consts[5, row])
        # g - 1 <= 10**-k / 2**(e - 125) < g, and g fills 126 bits.
        r = e - 125
        if k <= 0:
            assert (g - 1) << max(r, 0) <= 10**-k << max(-r, 0) < g << max(r, 0)
        else:
            assert (g - 1) * 10**k <= 1 << -r < g * 10**k
        assert 2**125 <= g < 2**126
        assert int(consts[6, row]) == int(consts[7, row]) << 32 | int(consts[8, row])
        h = q + e + 2
        # c < 2**53 shifted by h + 2 stays below 2**63, as _mulhi needs.
        assert int(consts[1, row]) == h + 2 <= 10
        assert int(consts[2, row]) == (1 if irregular else 2) << h
        assert int(consts[3, row]) == 2 << h


def test_tables_build_on_first_use():
    code = ("import khopsim; from khopsim import float_repr; "
            "print(float_repr.digit_tables.cache_info().currsize)")
    src = Path(float_repr.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "0"


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # Below the split threshold, so the caller formats everything. The long
    # table repeats the short one ten times, so both hold the same values.
    # write_csv writes the record's table as it is, so the peak is the chunk
    # workspace and one chunk's text, whatever the row count.
    tel = plant_sim.run(prepare(load_scenario(short_reproduction(0.5))).config)
    peaks = []
    for repeats in (1, 10):
        cut = dataclasses.replace(tel, table=np.concatenate([tel.table[-200:]] * repeats))
        plant_sim.write_csv(cut, tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            plant_sim.write_csv(cut, tmp_path / f"{repeats}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16_384, peaks
