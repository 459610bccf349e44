"""Dense symmetric kernels for the gain inequalities, with their tolerances.

The eigensolver runs cyclic Jacobi rotations on the eigenvalues alone, for the
small matrices whose spectra feed the gains: the coupling matrices (``eta_i``
rows) and the plant drift in ``design_G`` and ``G`` (``N`` rows). It rotates
Python floats, as numpy's ~1 us per call outweighs the arithmetic on rows this
short, with the operations and order of the numpy form
(``tests/reference_jacobi.py``), bit for bit: the gains and, through ``sign``
switching, the convergence times in ``perfbench/reference.json`` move with the
last bits. LAPACK waits for a benchmark-only re-record of that file; the
target graph's ``lambda2``, which feeds no gain, already uses it.
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

    Iteration stops once every off-diagonal entry is below ``JACOBI_RTOL``
    relative to the Frobenius norm of the input, which must not overflow.
    """
    a = _symmetric(m)
    n = a.shape[0]
    if n > 1:
        with np.errstate(over="ignore"):
            fro = float(np.sqrt(np.sum(a * a)))
        if fro == np.inf:
            raise NumericalError("the Frobenius norm of the matrix overflows")
        thresh = JACOBI_RTOL * max(fro, np.finfo(float).tiny)
        rows = a.tolist()
        for _ in range(_MAX_SWEEPS):
            if np.abs(np.array(rows)[~np.eye(n, dtype=bool)]).max() <= thresh:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = rows[p][q]
                    if abs(apq) <= thresh:
                        continue
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
        else:
            raise NumericalError("Jacobi iteration did not converge")
    w = np.diag(rows if n > 1 else a)
    return w[np.argsort(w, kind="stable")]


def is_negative_definite(m, tol: float = DEFINITENESS_TOL) -> bool:
    """True iff the symmetric part of ``m`` has lambda_max < -tol."""
    a = np.asarray(m, dtype=float)
    return bool(sym_eig(0.5 * (a + a.T))[-1] < -tol)
