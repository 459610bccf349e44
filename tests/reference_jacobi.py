"""The cyclic Jacobi eigensolver with its rotations on numpy rows: the test oracle.

:func:`khopsim.dense_linalg.sym_eig` runs the same rotations, in the same
order and with the same floating-point operations, on Python floats. The
differential tests require the two to agree bit for bit, because the
tuned gains, and through the observers' ``sign`` switching the run's
convergence times, move with the last bits of the coupling spectra.
"""

from __future__ import annotations

import numpy as np

from khopsim.dense_linalg import _MAX_SWEEPS, JACOBI_RTOL, _symmetric
from khopsim.errors import NumericalError


def sym_eig(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi rotations.

    Iteration stops once every off-diagonal entry is below ``JACOBI_RTOL``
    relative to the Frobenius norm of the input.
    """
    a = _symmetric(m)
    n = a.shape[0]
    if n > 1:
        fro = float(np.sqrt(np.sum(a * a)))
        thresh = JACOBI_RTOL * max(fro, np.finfo(float).tiny)
        for _ in range(_MAX_SWEEPS):
            off = np.abs(a - np.diag(np.diag(a))).max()
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
