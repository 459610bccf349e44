"""The cyclic Jacobi eigensolver with its rotations on numpy rows: the test oracle.

:func:`khopsim.dense_linalg.sym_eigs` runs the same rotations, in the same
order and with the same floating-point operations, on Python floats. The
differential tests require the two to agree bit for bit, because the
tuned gains, and through the observers' ``sign`` switching the run's
convergence times, move with the last bits of the coupling spectra.
"""

from __future__ import annotations

import numpy as np

from khopsim.dense_linalg import _MAX_SWEEPS, JACOBI_RTOL
from khopsim.errors import NumericalError


def symmetric(m) -> np.ndarray:
    """A fresh float copy of the exactly symmetric ``m``, checked finite:
    the check ``sym_eigs`` runs, one matrix at a time."""
    a = np.array(m, dtype=float)
    if not np.isfinite(a).all():
        raise NumericalError("matrix contains non-finite entries")
    return a


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi rotations.

    Iteration stops once every entry above the diagonal is at or below the
    larger of ``JACOBI_RTOL`` times the Frobenius norm of the input and the
    smallest normal float.
    """
    a = symmetric(m)
    n = a.shape[0]
    if n > 1:
        fro = float(np.sqrt(np.sum(a * a)))
        thresh = max(JACOBI_RTOL * fro, np.finfo(float).tiny)
        # Python floats overflow silently, as in the rotations of sym_eigs;
        # numpy scalars would warn.
        with np.errstate(over="ignore"):
            for _ in range(_MAX_SWEEPS):
                off = np.abs(a[np.triu_indices(n, 1)]).max()
                if off <= thresh:
                    break
                for p in range(n - 1):
                    for q in range(p + 1, n):
                        apq = a[p, q]
                        if abs(apq) <= thresh:
                            continue
                        tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                        if tau >= 0.0:
                            t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                        else:
                            t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                        c = 1.0 / np.sqrt(1.0 + t * t)
                        s = t * c
                        # a <- G^T a G with the Givens rotation in the (p, q) plane
                        rp, rq = a[p, :].copy(), a[q, :].copy()
                        a[p, :] = c * rp - s * rq
                        a[q, :] = s * rp + c * rq
                        cp, cq = a[:, p].copy(), a[:, q].copy()
                        a[:, p] = c * cp - s * cq
                        a[:, q] = s * cp + c * cq
            else:
                raise NumericalError("Jacobi iteration did not converge")
    w = np.diag(a).copy()
    return w[np.argsort(w, kind="stable")]
