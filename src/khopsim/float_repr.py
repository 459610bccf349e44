"""A float table's CSV body with every value spelled as ``repr`` spells it.

``repr`` writes the shortest decimal that reads back to the same double,
the nearest one when several are shortest, in fixed notation when its
decimal point lies 3 places left to 16 places right of its first digit.
:func:`format_rows` finds those digits for a block of values with numpy
alone, by Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020): three fixed-size 64 x 128-bit products per value, built here from
32-bit limbs, and no loop over digits. Two departures from the paper's
Java reference give Python's shortest rather than Java's two-digit
minimum: the shorter candidate is tried from ``s >= 10`` on (not 100), and
the smallest subnormals are not rescaled, so ``5e-324`` stays ``5e-324``.

A value's text is picked out of a fixed field of five little-endian 64-bit
words: a sign and the ``0.000`` of a leading-zero fraction, then the 17
significant digits, each in a 16-bit lane with a candidate point above it
(the 17th lane carries the separator instead). One mask per value, taken
from a table by (sign, decimal point, last digit kept), keeps the bytes
its spelling uses; the NUL bytes left are dropped in one pass. Exponent
notation and non-finite values (0.2 % of the reproduction's values) are
spelled by ``repr`` one at a time and spliced in.

The tables are built once per process on first use (:func:`digit_tables`),
from exact Python integers. A call works through the table in chunks of
whole rows in one fixed workspace and raises no numpy warning. ``uint64``
and ``int64`` arrays never meet in one operation, because numpy before 2.0
promotes that mix to float64.
"""
from __future__ import annotations

import sys
from functools import cache

import numpy as np

# Values per chunk (whole rows); the workspace takes 320 bytes per value.
# Medians of 9 alternated calls on a 2-vCPU Xeon VM, reproduction table and
# 150-agent ring table: 2 048-value chunks took 294 and 364 ns per value,
# 4 096 took 269 and 302 ns, 8 192 took 241 and 286 ns but double the
# 1.3 MB workspace, and with it the peak memory of writing a CSV.
CHUNK_VALUES = 4096

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
# Field bytes: the sign at 0, "0." at 1-2 and zeros at 3-5; digit j at
# 6 + 2j with a candidate point after it at 7 + 2j, the separator at 39 in
# place of the 17th digit's point. Word 0 ends with the first digit's lane,
# a "0" the digit is added to and a point.
_WORDS = 5
_PREFIX = _U(int.from_bytes(b"-0.0000.", "little"))
_POINTS = _U(0x2E30_2E30_2E30_2E30)     # "0" under each digit, "." above
_SEP = 7 + 2 * 16
# Code of a fixed spelling: sign * _PER_SIGN + (point + 3) * 17 + the last
# digit kept, for decimal points -3..16; one more code for repr's values.
_MIN_POINT, _MAX_POINT = -3, 16
_PER_SIGN = (_MAX_POINT - _MIN_POINT + 1) * 17
_BY_REPR = 2 * _PER_SIGN
_POW10 = np.array([10**i for i in range(18)], dtype=_U)


@cache
def digit_tables() -> tuple:
    """The exponent constants, the keep masks and their lengths, and each
    4-digit group's last nonzero digit.

    Exponent rows are indexed by ``2 * biased exponent + (fraction == 0)``.
    ``consts`` holds, per row: the hidden bit; ``h + 2``, which shifts ``c``
    to ``cb << h``; the distances from there to the rounding interval's
    ends, ``cbl << h`` and ``cbr << h``; the 32-bit limbs of ``g0``; ``g1``
    and its limbs, where ``g = g1 * 2**63 + g0`` over-approximates
    ``10**-k`` in 126 bits. ``point`` is ``k + 16``, the decimal point of a
    16-digit ``s``; non-finite rows get one no fixed spelling has.
    """
    if sys.byteorder != "little":
        raise RuntimeError("float_repr lays text out in little-endian words")
    bq = np.repeat(np.arange(2048, dtype=np.int64), 2)
    irregular = (np.arange(4096) % 2 == 1) & (bq > 1)
    q = np.maximum(bq, 1) - 1075
    # floor(log10(2**q)), floor(log10(3/4 * 2**q)) for irregular spacing,
    # and floor(log2(10**-k)); the tests check them against exact integers.
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + ((-k * 913_124_641_741) >> 38) + 2
    ks = range(int(k.min()), int(k.max()) + 1)
    g = [_g(kk) for kk in ks]
    g1 = np.array([x >> 63 for x in g], dtype=_U)[k - ks[0]]
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=_U)[k - ks[0]]
    hu = h.astype(_U)
    consts = np.stack([
        np.where(bq > 0, _U(1 << 52), _U(0)),
        hu + _U(2),
        np.where(irregular, _U(1), _U(2)) << hu,
        _U(2) << hu,
        g0 >> _U(32), g0 & _M32,
        g1, g1 >> _U(32), g1 & _M32,
    ])
    point = np.where(bq == 2047, 1 << 20, k + 16)
    masks = _keep_masks()
    group = np.arange(10**4)
    trailing = sum((group % 10**i == 0).astype(np.int64) for i in (1, 2, 3))
    # A zero group reads -13, so that four zero groups leave the first digit
    # (position 0) as the last nonzero one.
    last4 = np.where(group > 0, 3 - trailing, -13)
    return consts, point, masks.view(_U), (masks > 0).sum(axis=1), last4


def _g(k: int) -> int:
    """``floor(10**-k / 2**r) + 1`` with ``r = floor(log2(10**-k)) - 125``."""
    if k <= 0:
        r = (10**-k).bit_length() - 1 - 125
        return (10**-k << -r if r <= 0 else 10**-k >> r) + 1
    r = -(10**k - 1).bit_length() - 125
    return (1 << -r) // 10**k + 1


def _keep_masks() -> np.ndarray:
    """0xFF on each field byte a code keeps; repr's code, the last row,
    keeps only the separator, before which the caller puts repr's text."""
    neg, point, last = np.ix_(range(2), range(_MIN_POINT, _MAX_POINT + 1), range(17))
    j = np.arange(17)
    keep = np.zeros((2, _MAX_POINT - _MIN_POINT + 1, 17, 8 * _WORDS), dtype=bool)
    keep[..., 0] = neg
    keep[..., 1:3] = (point <= 0)[..., None]
    keep[..., 3:6] = np.arange(3) < -point[..., None]
    keep[..., 6:_SEP:2] = j <= last[..., None]
    keep[..., 7:_SEP - 1:2] = j[:16] == point[..., None] - 1
    keep = np.concatenate([keep.reshape(_BY_REPR, -1), np.zeros((1, 8 * _WORDS), bool)])
    keep[:, _SEP] = True
    return np.where(keep, np.uint8(255), np.uint8(0))


class _Workspace:
    """The buffers of chunks of up to ``rows`` rows of ``width`` values.
    A chunk of ``m`` values uses the first ``m``-sized part of each."""

    def __init__(self, rows: int, width: int):
        m = rows * width
        self.u64 = np.empty(28 * m, dtype=_U)
        self.flags = np.empty(8 * m, dtype=bool)
        self.field = np.empty((m, _WORDS), dtype=_U)
        # Word 4's constant: its last lane's high byte is the separator.
        self.sep = np.full(m, _POINTS & _U(2**56 - 1) | _U(ord(",") << 56))
        self.sep[width - 1::width] = _POINTS & _U(2**56 - 1) | _U(ord("\n") << 56)
        self.text = bytearray(8 * _WORDS * m)
        self.words = np.frombuffer(self.text, dtype=_U)


def format_rows(table: np.ndarray) -> bytes:
    """The CSV body of a 2-D float table: one line per row, values joined
    by commas, each spelled exactly as ``repr`` spells it."""
    parts = []
    _format(table, parts.append)
    return b"".join(parts)


def write_rows(out, table: np.ndarray) -> None:
    """Write :func:`format_rows` of ``table`` to the binary stream ``out``,
    holding the text of one chunk at a time."""
    _format(table, out.write)


def _format(table: np.ndarray, emit) -> None:
    table = np.asarray(table, dtype=np.float64)
    rows, width = table.shape
    if not width:
        emit(b"\n" * rows)
        return
    step = max(1, CHUNK_VALUES // width)
    ws = _Workspace(min(step, rows), width)
    for a in range(0, rows, step):
        _format_chunk(ws, table[a:a + step], emit)


def _mulhi(ah, al, bh, bl, out, p, r) -> None:
    """``out`` = the high 64 bits of ``a * b``, from 32-bit limbs; ``a`` and
    ``b`` are below 2**63, so the two middle products add without carry.
    ``p`` and ``r`` are scratch of ``out``'s shape."""
    np.multiply(al, bl, out=r)
    np.right_shift(r, _U(32), out=r)
    np.multiply(al, bh, out=p)
    np.multiply(ah, bl, out=out)
    np.add(p, out, out=p)                   # the middle products
    np.bitwise_and(p, _M32, out=out)
    np.add(r, out, out=r)
    np.right_shift(p, _U(32), out=p)
    np.right_shift(r, _U(32), out=r)
    np.add(p, r, out=p)
    np.multiply(ah, bh, out=out)
    np.add(out, p, out=out)


def _format_chunk(ws: _Workspace, block: np.ndarray, emit) -> None:
    """Emit the text of one chunk of whole rows, in one or more parts."""
    consts_t, point_t, masks, lengths, last4 = digit_tables()
    x = np.ascontiguousarray(block).reshape(-1)
    m = x.size
    bits = x.view(_U)
    u = ws.u64
    k = u[:4 * m].reshape(4, m)
    c, odd = u[4 * m:6 * m].reshape(2, m)
    hi_limb, lo_limb, cp, z, p, r = u[6 * m:24 * m].reshape(6, 3, m)
    idx, point, code, last = u[24 * m:28 * m].view(np.int64).reshape(4, m)
    uidx = idx.view(_U)
    f = ws.flags[:8 * m].reshape(8, m)

    # The exponent row, 2 * biased exponent + (fraction == 0), and the
    # significand c.
    np.bitwise_and(bits, _U((1 << 52) - 1), out=c)
    np.equal(c, _U(0), out=f[0])
    np.right_shift(bits, _U(51), out=uidx)
    np.bitwise_and(uidx, _U(0xFFE), out=uidx)
    np.bitwise_or(uidx, f[0], out=uidx)
    np.take(consts_t[:4], idx, axis=1, out=k)
    hidden, shift, to_low, to_high = k
    np.bitwise_or(c, hidden, out=c)
    np.bitwise_and(c, _U(1), out=odd)

    # vb, vbl, vbr: g times cb << h, cbl << h and cbr << h, over 2**127 and
    # rounded to odd as the reference's rop computes it, in one stack:
    # z = x1 + y0 / 2 with x1:x0 = g0 * cp and y1:y0 = g1 * cp, then
    # vb = y1 + z / 2**63, its low bit set when z has other bits.
    np.left_shift(c, shift, out=cp[0])
    np.subtract(cp[0], to_low, out=cp[1])
    np.add(cp[0], to_high, out=cp[2])
    np.right_shift(cp, _U(32), out=hi_limb)
    np.bitwise_and(cp, _M32, out=lo_limb)
    np.take(consts_t[4:6], idx, axis=1, out=k[:2])
    _mulhi(k[0], k[1], hi_limb, lo_limb, z, p, r)
    np.take(consts_t[6:9], idx, axis=1, out=k[:3])
    np.multiply(k[0], cp, out=p)
    np.right_shift(p, _U(1), out=p)
    np.add(z, p, out=z)
    vbs = cp
    _mulhi(k[1], k[2], hi_limb, lo_limb, vbs, p, r)
    np.right_shift(z, _U(63), out=p)
    np.add(vbs, p, out=vbs)
    np.bitwise_and(z, _M63, out=z)
    np.add(z, _M63, out=z)
    np.right_shift(z, _U(63), out=z)
    np.bitwise_or(vbs, z, out=vbs)
    vb, vbl, vbr = vbs

    # The digits d: s' * 10 or s' * 10 + 10 when exactly one is in the
    # rounding interval (s >= 10), else s or s + 1 when exactly one is,
    # else the nearer of the two, the even one on a tie.
    s, lo, hi = hi_limb
    a, b, w = lo_limb
    d = c
    up, wp, short, u_in, w_in, t_pick, t = f[1:]
    np.right_shift(vb, _U(2), out=s)
    np.add(vbl, odd, out=lo)
    np.subtract(vbr, odd, out=hi)
    np.floor_divide(s, _U(10), out=a)
    np.multiply(a, _U(10), out=a)           # s' * 10
    np.left_shift(a, _U(2), out=b)
    np.less_equal(lo, b, out=up)
    np.add(b, _U(40), out=b)
    np.less_equal(b, hi, out=wp)
    np.not_equal(up, wp, out=short)
    np.greater_equal(s, _U(10), out=t)
    np.logical_and(short, t, out=short)
    np.left_shift(s, _U(2), out=b)
    np.less_equal(lo, b, out=u_in)
    np.add(b, _U(4), out=w)
    np.less_equal(w, hi, out=w_in)
    np.add(b, _U(2), out=b)                 # 4 * (s + 1/2)
    np.greater(vb, b, out=t_pick)
    np.equal(vb, b, out=t)
    np.bitwise_and(s, _U(1), out=w)
    np.logical_and(t, w, out=t)
    np.logical_or(t_pick, t, out=t_pick)
    np.not_equal(u_in, w_in, out=t)
    np.copyto(t_pick, w_in, where=t)
    np.add(s, t_pick, out=d)
    np.copyto(d, a, where=short)
    np.logical_and(short, wp, out=short)
    np.add(d, _U(10), out=d, where=short)

    # 17 digits: d has 16 or 17 for normal values; zeros and subnormals
    # (exponent rows 0 and 1) are scaled one by one.
    big = f[0]
    np.greater_equal(d, _U(10**16), out=big)
    np.take(point_t, idx, out=point)
    np.add(point, big, out=point)
    digits, first, low16 = z
    np.multiply(d, _U(10), out=digits)
    np.copyto(digits, d, where=big)
    np.less(uidx, _U(2), out=f[1])
    if f[1].any():
        sel = np.flatnonzero(f[1])
        ds = d[sel]
        n = np.searchsorted(_POW10, ds, side="right")
        digits[sel] = ds * _POW10[17 - n]
        point[sel] = point_t[0] - 16 + n
        zero = sel[(bits[sel] & _M63) == 0]
        digits[zero] = 0
        point[zero] = 1
    # The first digit, then four groups of 4 digits.
    np.floor_divide(digits, _U(10**16), out=first)
    np.multiply(first, _U(10**16), out=low16)
    np.subtract(digits, low16, out=low16)
    eights, scratch = p[:2], r[:2]
    np.floor_divide(low16, _U(10**8), out=eights[0])
    np.multiply(eights[0], _U(10**8), out=eights[1])
    np.subtract(low16, eights[1], out=eights[1])
    groups = u[6 * m:10 * m].reshape(4, m)
    np.floor_divide(eights, _U(10**4), out=groups[0::2])
    np.multiply(groups[0::2], _U(10**4), out=scratch)
    np.subtract(eights, scratch, out=groups[1::2])
    t1 = u[10 * m:14 * m].reshape(4, m)
    t2 = u[18 * m:22 * m].reshape(4, m)
    lasts = t1.view(np.int64)
    np.take(last4, groups.view(np.int64), out=lasts)
    np.add(lasts, np.arange(1, 17, 4)[:, None], out=lasts)
    np.maximum(lasts[:2], lasts[2:], out=lasts[:2])
    np.maximum(lasts[0], lasts[1], out=last)
    # Each group's digits into 16-bit lanes: a = y // 100, b = y % 100 in
    # 32-bit lanes, then each lane's tens and units (exact: y < 10**4).
    np.multiply(groups, _U(5243), out=t1)
    np.right_shift(t1, _U(19), out=t1)
    np.multiply(t1, _U(100), out=t2)
    np.subtract(groups, t2, out=groups)
    np.left_shift(groups, _U(32), out=groups)
    np.bitwise_or(groups, t1, out=groups)
    np.multiply(groups, _U(103), out=t1)
    np.right_shift(t1, _U(10), out=t1)
    np.bitwise_and(t1, _U(0xF_0000_000F), out=t1)
    np.multiply(t1, _U(10), out=t2)
    np.subtract(groups, t2, out=groups)
    np.left_shift(groups, _U(16), out=groups)
    np.bitwise_or(groups, t1, out=groups)
    field = ws.field[:m]
    np.left_shift(first, _U(48), out=field[:, 0])
    np.bitwise_or(field[:, 0], _PREFIX, out=field[:, 0])
    np.bitwise_or(groups[:3], _POINTS, out=field.T[1:4])
    np.bitwise_or(groups[3], ws.sep[:m], out=field[:, 4])

    # The code: sign, point and the last digit kept, the last nonzero one or
    # the units digit, whichever is later.
    np.maximum(last, point, out=code)
    np.subtract(point, _MIN_POINT, out=idx)
    np.multiply(idx, 17, out=idx)
    np.add(code, idx, out=code)
    np.less(bits.view(np.int64), 0, out=f[1])
    np.add(code, _PER_SIGN, out=code, where=f[1])
    by_repr = f[1]
    np.greater(uidx, _U((_MAX_POINT - _MIN_POINT) * 17 + 16), out=by_repr)
    np.copyto(code, _BY_REPR, where=by_repr)
    words = ws.words[:_WORDS * m].reshape(m, _WORDS)
    np.take(masks, code, axis=0, out=words)
    np.bitwise_and(words, field, out=words)
    ws.words[_WORDS * m:] = 0
    body = ws.text.translate(None, b"\0")
    if not by_repr.any():
        emit(body)
        return
    sel = np.flatnonzero(by_repr)
    ends = idx
    np.take(lengths, code, out=ends)
    np.cumsum(ends, out=ends)
    view, start = memoryview(body), 0
    for end, value in zip(ends[sel].tolist(), x[sel].tolist()):
        emit(view[start:end - 1])
        emit(repr(value).encode("ascii"))
        start = end - 1
    emit(view[start:])
