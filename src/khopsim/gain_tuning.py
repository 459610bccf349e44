"""Observer gain design and finite-time convergence certificates.

One design scalar and three per-agent scalars parametrize the observers:

* ``g`` sets the design matrix ``G = g I`` of the state-observer
  correction; ``G^T A + A^T G - 2 G^T G < 0`` (negative definite) then
  reads ``g > lambda_max((A + A^T)/2)``.
* ``omega_i`` scales the linear consensus correction and has a closed-form
  lower bound from the coupling spectrum and the Lipschitz constant.
* ``theta_i`` scales the discontinuous state correction and must dominate
  the input-estimation-error bound.
* ``pi_i`` scales the discontinuous input correction and must dominate the
  input-derivative bound.

From valid gains the convergence-time certificates ``T_x,i`` and ``T_u,i``
follow, together with their network-wide maxima and the composite horizon
``T_xu = T_u + T_x``. Every bound and certificate is evaluated for all
agents at once, on the per-agent arrays of :func:`coupling_spectra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dense_linalg import DEFINITENESS_TOL, sym_eigs
from .errors import (
    CertificateInfeasible,
    CouplingNotPD,
    GainConditionViolated,
    NumericalError,
)
from .graph_khop import Graph, all_khop_sets, coupling_matrices

DEFAULT_SLACK = 1e-3


@dataclass(frozen=True)
class PlantModel:
    """Per-agent dynamics ``x_dot = f(x) + A x + u`` with Lipschitz ``f``.

    ``f`` maps an ``(..., N)`` array row by row, so one call evaluates every
    agent or every estimate at once.
    """

    N: int
    A: np.ndarray
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    l_f: float = 0.0

    def __post_init__(self):
        a = np.array(self.A, dtype=float)
        if a.shape != (self.N, self.N):
            raise ValueError(f"A must be {self.N}x{self.N}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("A contains non-finite entries")
        if not 0 <= self.l_f < np.inf:
            raise ValueError(f"l_f must be finite and >= 0, got {self.l_f!r}")
        a.setflags(write=False)
        object.__setattr__(self, "A", a)


@dataclass(frozen=True)
class BoundSet:
    """Known bounds on inputs, input derivatives, and input-estimation errors.

    At least one of ``d_u`` / ``d_udot`` must be supplied. ``d_tilde_u`` is
    the per-agent bound on the stacked input-estimation-error norm used by
    the theta inequality; when absent it can be defaulted from ``d_u``.
    """

    n: int
    d_u: Optional[np.ndarray] = None
    d_udot: Optional[np.ndarray] = None
    d_tilde_u: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.d_u is None and self.d_udot is None:
            raise ValueError("need a bound on the input or on its derivative")
        for name in ("d_u", "d_udot", "d_tilde_u"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = np.broadcast_to(np.asarray(val, dtype=float), (self.n,)).copy()
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite and >= 0")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def tilde_u(self, eta: np.ndarray, uhat0_mag: float = 0.0) -> np.ndarray:
        """Per-agent d_tilde_u, for agents with ``eta`` multi-hop neighbors.

        Falls back to the conservative stack bound
        ``sqrt(eta) * (d_u + max initial input-estimate magnitude)`` when
        only an input bound is known.
        """
        if self.d_tilde_u is not None:
            return self.d_tilde_u
        if self.d_u is None:
            if np.any(eta):
                raise ValueError("d_tilde_u not given and no input bound to derive it from")
            return np.full(self.n, np.nan)  # no agent runs an observer
        return np.sqrt(np.maximum(eta, 1)) * (self.d_u + uhat0_mag)


@dataclass(frozen=True)
class GainSet:
    """The design gain ``g`` of ``G = g I`` and the per-agent gains.

    Arrays are agent-indexed (entry 0 is agent 1); agents without a
    multi-hop neighborhood carry NaN since they run no observer.
    """

    g: float
    omega: np.ndarray
    theta: np.ndarray
    pi: np.ndarray


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Finite-time bounds implied by valid gains and declared error bounds.

    ``T_x``/``T_u`` are agent-indexed arrays (NaN where eta = 0); the global
    values are maxima over agents with observers, and ``T_xu`` bounds the
    time after which both observers have converged.
    """

    phi: np.ndarray
    psi: Optional[np.ndarray]
    T_x: np.ndarray
    T_u: Optional[np.ndarray]
    T_x_global: float
    T_u_global: Optional[float]
    T_xu: Optional[float]


def coupling_spectra(matrices) -> tuple:
    """``(lambda_min, lambda_max, eta)`` of the agent-indexed coupling
    ``matrices`` ``M``, as per-agent arrays: NaN spectra and ``eta = 0``
    where an agent has no matrix (``None``). This is the one eigensolve of
    each ``M``, in one :func:`sym_eigs` call, so a block that several
    agents share is solved once. Raises :class:`CouplingNotPD` for the first
    agent whose ``M`` is not positive definite.
    """
    spectra = iter(sym_eigs([m for m in matrices if m is not None]))
    rows = [(np.nan, np.nan, 0) if m is None else (*next(spectra)[[0, -1]], len(m))
            for m in matrices]
    lmin, lmax, eta = map(np.array, zip(*rows))
    if (not_pd := lmin <= DEFINITENESS_TOL).any():
        i = int(np.argmax(not_pd))
        raise CouplingNotPD(f"agent {i + 1}: lambda_min(M) = {lmin[i]:.3g} not positive")
    return lmin, lmax, eta


def design_g(plant: PlantModel, g_scale: Optional[float] = None) -> float:
    """The gain ``g`` of ``G = g I``, which must satisfy
    ``G^T A + A^T G - 2 G^T G < 0``.

    With ``S = (A + A^T)/2`` that matrix is ``2 g (S - g I)``, whose largest
    eigenvalue ``2 g (lambda_max(S) - g)`` must lie below
    ``-DEFINITENESS_TOL``. Automatic selection takes ``lambda_max(S)``
    (floored at zero) plus one. A supplied ``g_scale`` is verified and
    rejected if it violates the condition.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # sym_eigs rejects a non-finite S
        lam = float(sym_eigs([0.5 * (plant.A + plant.A.T)])[0][-1])
    if g_scale is None:
        g = max(0.0, lam) + 1.0
    else:
        g = float(g_scale)
        if not 0.0 < g < np.inf:
            raise GainConditionViolated(f"g must be positive and finite, got {g}")
    top = 2.0 * g * (lam - g)  # Python floats: an overflow is silent
    if not np.isfinite(top):
        raise GainConditionViolated(f"g = {g} overflows the design condition on G")
    if not top < -DEFINITENESS_TOL:
        raise GainConditionViolated(f"g = {g} violates the design condition on G "
                                    f"(lambda_max {top:.6g} not < 0)")
    return g


def tune_omega(lambda_min, lambda_max, plant: PlantModel, g: float):
    """Smallest admissible linear gain, for one coupling spectrum or per
    agent (:func:`coupling_spectra`).

    The bound is
    ``(1/lmin(M)) (1 + l_f ||M (x) G|| / (lmin(M) lmin(G^T G)))``
    and the inequality is non-strict, so the bound is admissible. With
    ``G = g I`` the Kronecker norm is ``lambda_max(M) g`` and
    ``lmin(G^T G) = g^2``.
    """
    return (1.0 / lambda_min) * (
        1.0 + plant.l_f * (lambda_max * g) / (lambda_min * (g * g)))


def tune_theta(lambda_min, lambda_max, g: float, d_tilde_u, slack: float = DEFAULT_SLACK):
    """Discontinuous state gain dominating the input-estimation-error bound."""
    if slack <= 0:
        raise ValueError("theta inequality is strict; slack must be > 0")
    return (lambda_max * g) / (lambda_min * g) * d_tilde_u + slack


def tune_pi(lambda_min, lambda_max, eta, d_udot, slack: float = DEFAULT_SLACK):
    """Discontinuous input gain dominating the input-derivative bound."""
    if slack <= 0:
        raise ValueError("pi inequality is strict; slack must be > 0")
    return lambda_max / lambda_min * np.sqrt(eta) * d_udot + slack


def _first_agent(flags: dict):
    """``(agent index, name)`` of the first set flag of named per-agent
    flag arrays, agent by agent and in the given order within an agent;
    ``None`` if none is set."""
    hits = np.argwhere(np.array(list(flags.values())).T)
    return (int(hits[0, 0]), list(flags)[hits[0, 1]]) if len(hits) else None


def certificate(spectra, plant: PlantModel, gains: GainSet, bounds: BoundSet,
                x_err0, u_err0, uhat0_mag: float = 0.0) -> ConvergenceCertificate:
    """Evaluate the finite-time certificates for every agent with an observer.

    ``spectra`` is :func:`coupling_spectra`'s ``(lambda_min, lambda_max,
    eta)``; ``x_err0`` and ``u_err0`` are the initial stacked-error norms
    per agent. Raises
    :class:`NumericalError` for the first agent with an observer whose gain
    (``pi`` only when ``d_udot`` is known), phi or psi is not finite. Then
    raises :class:`CertificateInfeasible` when any ``omega`` is below its
    :func:`tune_omega` bound, then when a phi or psi margin is not strictly
    positive. Input-side bounds are only produced when ``d_udot`` is known.
    """
    lmin, lmax, eta = spectra
    g, active, have_udot = gains.g, eta > 0, bounds.d_udot is not None
    if not g > DEFINITENESS_TOL:
        raise GainConditionViolated(f"G = g I must be positive definite, got g = {g}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        bound = tune_omega(lmin, lmax, plant, g)
        margin = {"phi": gains.theta * lmin * g - lmax * g * bounds.tilde_u(eta, uhat0_mag)}
        t_x = lmax * g / margin["phi"] * np.asarray(x_err0, dtype=float)
        t_u = None
        if have_udot:  # ||M (x) I|| = lambda_max(M) for symmetric PSD M
            margin["psi"] = gains.pi * lmin - lmax * np.sqrt(eta) * bounds.d_udot
            t_u = lmax / margin["psi"] * np.asarray(u_err0, dtype=float)
    values = {"omega": gains.omega, "theta": gains.theta} | (
        {"pi": gains.pi} if have_udot else {}) | margin
    if bad := _first_agent({k: active & ~np.isfinite(v) for k, v in values.items()}):
        i, name = bad
        raise NumericalError(f"agent {i + 1}: {name} = {values[name][i]} is not finite")
    if bad := _first_agent({"omega": gains.omega < bound}):  # not strict
        i = bad[0]
        raise CertificateInfeasible(i + 1, "omega", gains.omega[i], bound[i])
    if bad := _first_agent({k: m <= 0 for k, m in margin.items()}):
        i, name = bad
        raise CertificateInfeasible(i + 1, name, margin[name][i])
    t_x_global = float(np.max(t_x[active], initial=0.0))
    t_u_global = float(np.max(t_u[active], initial=0.0)) if have_udot else None
    return ConvergenceCertificate(margin["phi"], margin.get("psi"), t_x, t_u, t_x_global,
                                  t_u_global, t_u_global + t_x_global if have_udot else None)


def tune_gains(graph: Graph, k: int, plant: PlantModel, bounds: BoundSet,
               g_scale: Optional[float] = None, slack: float = DEFAULT_SLACK,
               uhat0_mag: float = 0.0) -> tuple:
    """Tune the full gain set for a network.

    Returns ``(gains, nbs, spectra)``, ``spectra`` being the per-agent
    :func:`coupling_spectra`; ``omega`` sits on its lower bound. A gain
    that overflows stays non-finite, for :func:`certificate` to refuse.
    """
    g = design_g(plant, g_scale)
    nbs = all_khop_sets(graph, k)
    spectra = coupling_spectra(coupling_matrices(nbs))
    lmin, lmax, eta = spectra
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega = tune_omega(lmin, lmax, plant, g)
        theta = tune_theta(lmin, lmax, g, bounds.tilde_u(eta, uhat0_mag), slack)
        pi = (np.full(graph.n, np.nan) if bounds.d_udot is None
              else tune_pi(lmin, lmax, eta, bounds.d_udot, slack))
    return GainSet(g, omega, theta, pi), nbs, spectra
