"""Dense symmetric kernels backing the observer mathematics.

The spectral quantities used by the gain inequalities (lambda_min/lambda_max
of coupling matrices, definiteness tests) are computed here so that the
numerical tolerances live in exactly one place.

The eigensolver is a cyclic Jacobi iteration on the eigenvalues alone. It
serves only the small matrices whose spectra feed the gains: the coupling
matrices (``eta_i`` rows), the plant drift in ``design_G`` and ``G``
(``N`` rows). No caller needs the eigenvectors. The target graph's
``lambda2``, which feeds no gain, comes from LAPACK instead.
"""

from __future__ import annotations

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


def is_negative_definite(m, tol: float = DEFINITENESS_TOL) -> bool:
    """True iff the symmetric part of ``m`` has lambda_max < -tol."""
    a = np.asarray(m, dtype=float)
    return bool(sym_eig(0.5 * (a + a.T))[-1] < -tol)
