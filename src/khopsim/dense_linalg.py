"""Dense symmetric kernels for the gain inequalities, with their tolerances.

The eigensolver runs cyclic Jacobi rotations on the eigenvalues alone, for the
small matrices whose spectra feed the gains, both in ``gain_tuning``: the
coupling matrices ``M`` in ``coupling_spectra`` (``eta_i`` rows) and the
symmetric part of the plant drift in ``design_g`` (``N`` rows).
It rotates Python floats, as numpy's ~1 us per call outweighs the arithmetic on
rows this short, with the operations and order of the numpy form
(``tests/reference_jacobi.py``), bit for bit: the gains and, through ``sign``
switching, the convergence times in ``perfbench/reference.json`` move with the
last bits. LAPACK waits for a benchmark-only re-record of that file; the
target graph's ``lambda2``, which feeds no gain, already uses it.

A sweep skips exactly the entries at or below the threshold, so the first
sweep that rotates nothing proves convergence, as in classical threshold
Jacobi (Rutishauser, Numer. Math. 9, 1966): it changed nothing, and it saw
the state that the oracle's scan of the triangle before each sweep accepts.
The solver stops there, after the oracle's rotations in the oracle's order,
and never scans the matrix as an array.

A coupling matrix ``L + H`` on a ring-like graph is often block diagonal up
to a permutation: its 2..k-hop members fall into separate arcs. Each block,
a connected component of the exact-nonzero pattern off the diagonal, rotates
alone, in the cyclic order of its ascending original indices, under the
threshold from the whole matrix's norm. This keeps every bit. A rotation in
one block reads and writes only that block's entries and the exact zeros
that join it to the others, which it maps to ``+0.0``. Those are never
above the threshold, so none of them is ever the entry a rotation
annihilates, and a block that has converged sees only skips while the
others go on. So each block gets the whole solve's rotations, in its
order, with its float operations, and ``_MAX_SWEEPS`` bounds each block as
it bounded the whole.

:func:`sym_eigs` also solves each distinct block once per call. The threshold
enters no arithmetic, only the decisions to skip or rotate. So a block solved
at one threshold gives the same bits at any threshold at or above the largest
entry it skipped and below the smallest it rotated, where every decision
comes out the same.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

# Centralized tolerances. Verification code must reference these named
# constants rather than re-inventing thresholds.
SYMMETRY_RTOL = 1e-12       # allowed |a_ij - a_ji|, relative to max(1, |a_ij|)
JACOBI_RTOL = 1e-12         # off-diagonal threshold, relative to Frobenius norm
DEFINITENESS_TOL = 1e-9     # eigenvalue margin for definiteness decisions

_MAX_SWEEPS = 64
_TINY = np.finfo(float).tiny


def _symmetric(m) -> np.ndarray:
    """A fresh float copy of ``m``, checked square, finite and symmetric
    within ``SYMMETRY_RTOL``, with its representation-level asymmetry removed."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalError("matrix contains non-finite entries")
    scale = np.maximum(1.0, np.abs(a))
    if (np.abs(a - a.T) > SYMMETRY_RTOL * scale).any():
        raise NumericalError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def sym_eigs(matrices) -> list:
    """Eigenvalues of each symmetric matrix, ascending, by cyclic Jacobi
    rotations.

    A sweep rotates every entry above the diagonal, the ones the rotations
    read, whose magnitude exceeds the threshold: the larger of
    ``JACOBI_RTOL`` times the Frobenius norm of the input, which must not
    overflow, and ``_TINY``, the smallest normal float. Where the squares
    underflow the norm, a subnormal threshold would stall: a rotation's
    rounding no longer shrinks with the entry below ``_TINY``. Iteration stops
    after the first sweep that rotates nothing: that sweep changed nothing,
    and it found every such entry at or below the threshold, so it stops in
    the state that a scan of the triangle before each sweep would accept,
    after the same rotations. At most ``_MAX_SWEEPS`` sweeps run, and the
    last of them must rotate nothing, else ``NumericalError``.

    Each irreducible block rotates alone, under the whole matrix's
    threshold, with the same bits as the whole-matrix solve (module
    docstring), and each distinct block is solved once per call. A block's
    answer is kept, for this call only, under its bytes (so ``-0.0`` and
    ``+0.0`` differ) with the interval of thresholds in which its solve
    makes the same decisions: at least the largest entry it skipped and
    below the smallest it rotated. A matrix whose threshold lies in that
    interval reuses it. A matrix's eigenvalues do not depend on the other
    matrices of the call.
    """
    solved = {}  # block bytes -> [(largest skipped, smallest rotated, diagonal)]
    out = []
    for m in matrices:
        a = _symmetric(m)
        n = a.shape[0]
        d = a.diagonal().tolist()
        if n > 1:
            with np.errstate(over="ignore"):
                fro = float(np.sqrt((a * a).sum()))
            if fro == np.inf:
                raise NumericalError("the Frobenius norm of the matrix overflows")
            thresh = max(JACOBI_RTOL * fro, _TINY)
            for idx in _blocks(a):
                b = a if len(idx) == n else a.take(idx, 0).take(idx, 1)
                key = b.tobytes()
                for skipped, smallest, w in solved.get(key, ()):
                    if skipped <= thresh < smallest:
                        break
                else:
                    skipped, smallest, w = _jacobi(b.tolist(), thresh)
                    solved.setdefault(key, []).append((skipped, smallest, w))
                for i, x in zip(idx, w):
                    d[i] = x
        w = np.array(d)
        out.append(w[w.argsort(kind="stable")])
    return out


def _blocks(a) -> list:
    """The connected components of ``a``'s exact-nonzero pattern above the
    diagonal that have two or more rows, each as ascending indices."""
    root = list(range(a.shape[0]))
    ps, qs = np.nonzero(a)
    for p, q in zip(ps.tolist(), qs.tolist()):
        if p < q:
            while root[p] != p:
                p = root[p]
            while root[q] != q:
                q = root[q]
            root[max(p, q)] = min(p, q)
    comps = {}
    for i, r in enumerate(root):
        while root[r] != r:
            r = root[r]
        comps.setdefault(r, []).append(i)
    return [idx for idx in comps.values() if len(idx) > 1]


def _jacobi(rows, thresh) -> tuple:
    """Rotate the symmetric ``rows`` in place until a sweep rotates nothing;
    return the largest magnitude skipped, the smallest rotated and the
    diagonal."""
    n = len(rows)
    skipped, smallest = 0.0, math.inf
    order = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]  # cyclic, by rows
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p, q in order:
            apq = rows[p][q]
            mag = abs(apq)
            if mag <= thresh:
                if mag > skipped:
                    skipped = mag
                continue
            rotated = True
            if mag < smallest:  # a NaN is rotated at every threshold
                smallest = mag
            tau = (rows[q][q] - rows[p][p]) / (2.0 * apq)
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            # a <- G^T a G by the (p, q) Givens rotation: rows, then columns
            rp, rq = rows[p], rows[q]
            rows[p] = [c * x - s * y for x, y in zip(rp, rq)]
            rows[q] = [s * x + c * y for x, y in zip(rp, rq)]
            for row in rows:
                x, y = row[p], row[q]
                row[p] = c * x - s * y
                row[q] = s * x + c * y
        if not rotated:
            break
    else:
        raise NumericalError("Jacobi iteration did not converge")
    return skipped, smallest, [row[i] for i, row in enumerate(rows)]
