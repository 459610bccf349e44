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
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    scale = np.maximum(1.0, np.abs(a))
    if np.any(np.abs(a - a.T) > SYMMETRY_RTOL * scale):
        raise NumericalError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def sym_eig(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi rotations.

    A sweep rotates every entry above the diagonal, the ones the rotations
    read, whose magnitude exceeds ``JACOBI_RTOL`` times the Frobenius norm of
    the input, which must not overflow. Iteration stops after the first sweep
    that rotates nothing: that sweep changed nothing, and it found every such
    entry at or below the threshold, so it stops in the state that a scan of
    the triangle before each sweep would accept, after the same rotations.
    At most ``_MAX_SWEEPS`` sweeps run, and the last of them must rotate
    nothing, else ``NumericalError``.
    """
    a = _symmetric(m)
    n = a.shape[0]
    rows = a.tolist()
    if n > 1:
        with np.errstate(over="ignore"):
            fro = float(np.sqrt(np.sum(a * a)))
        if fro == np.inf:
            raise NumericalError("the Frobenius norm of the matrix overflows")
        thresh = JACOBI_RTOL * max(fro, _TINY)
        order = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]  # cyclic, by rows
        for _ in range(_MAX_SWEEPS):
            rotated = False
            for p, q in order:
                apq = rows[p][q]
                if abs(apq) <= thresh:
                    continue
                rotated = True
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
    w = np.array([row[i] for i, row in enumerate(rows)])
    return w[np.argsort(w, kind="stable")]
