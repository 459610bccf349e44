"""Observer gain design and finite-time convergence certificates.

Three per-agent scalars and one shared design matrix parametrize the
observers:

* ``G`` couples the state-observer correction; it must satisfy
  ``G^T A + A^T G - 2 G^T G < 0`` (negative definite).
* ``omega_i`` scales the linear consensus correction and has a closed-form
  lower bound from the coupling spectrum and the Lipschitz constant.
* ``theta_i`` scales the discontinuous state correction and must dominate
  the input-estimation-error bound.
* ``pi_i`` scales the discontinuous input correction and must dominate the
  input-derivative bound.

From valid gains the convergence-time certificates ``T_x,i`` and ``T_u,i``
follow, together with their network-wide maxima and the composite horizon
``T_xu = T_u + T_x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dense_linalg import DEFINITENESS_TOL, is_negative_definite, sym_eig
from .errors import (
    CertificateInfeasible,
    CouplingNotPD,
    GainConditionViolated,
)
from .graph_khop import Graph, ObserverCoupling, all_khop_sets, coupling_matrices

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

    def tilde_u(self, i: int, eta_i: int, uhat0_mag: float = 0.0) -> float:
        """Resolve d_tilde_u for agent ``i`` (1-based).

        Falls back to the conservative stack bound
        ``sqrt(eta) * (d_u + max initial input-estimate magnitude)`` when
        only an input bound is known.
        """
        if self.d_tilde_u is not None:
            return float(self.d_tilde_u[i - 1])
        if self.d_u is None:
            raise ValueError(
                "d_tilde_u not given and no input bound to derive it from"
            )
        return float(np.sqrt(max(eta_i, 1)) * (self.d_u[i - 1] + uhat0_mag))


@dataclass(frozen=True)
class GainSet:
    """Design matrix and per-agent gains.

    Arrays are agent-indexed (entry 0 is agent 1); agents without a
    multi-hop neighborhood carry NaN since they run no observer.
    """

    G: np.ndarray
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


def design_G(plant: PlantModel, g_scale: Optional[float] = None) -> np.ndarray:
    """Design ``G = g I`` satisfying ``G^T A + A^T G - 2 G^T G < 0``.

    For scalar multiples of the identity the condition reduces to
    ``g > lambda_max((A + A^T)/2)``; automatic selection takes that maximum
    (floored at zero) plus one. A supplied ``g_scale`` is verified and
    rejected if it violates the condition.
    """
    sym_a = 0.5 * (plant.A + plant.A.T)
    w = sym_eig(sym_a)
    if g_scale is None:
        g = max(0.0, float(w[-1])) + 1.0
    else:
        g = g_scale
        if not 0.0 < g < np.inf:
            raise GainConditionViolated(f"g must be positive and finite, got {g}")
    G = g * np.eye(plant.N)
    with np.errstate(over="ignore", invalid="ignore"):  # sym_eig rejects a non-finite one
        condition = G.T @ plant.A + plant.A.T @ G - 2.0 * (G.T @ G)
    if not is_negative_definite(condition):
        raise GainConditionViolated(
            f"g = {g} violates the design condition on G (lambda_max "
            f"{sym_eig(0.5 * (condition + condition.T))[-1]:.6g} not < 0)"
        )
    return G


def g_spectrum(G: np.ndarray) -> tuple:
    """``(lambda_min(G), lambda_max(G))``, the only facts about ``G`` that the
    gain bounds and certificates use; ``G`` must be positive definite."""
    w = sym_eig(G)
    lo, hi = float(w[0]), float(w[-1])
    if lo <= DEFINITENESS_TOL:
        raise GainConditionViolated("G must be symmetric positive definite")
    return lo, hi


def tune_omega(
    coupling: ObserverCoupling,
    plant: PlantModel,
    g_spec: tuple,
) -> float:
    """Smallest admissible linear gain for one agent.

    The bound is
    ``(1/lmin(M)) (1 + l_f ||M (x) G|| / (lmin(M) lmin(G^T G)))``
    and the inequality is non-strict, so the bound is admissible. The
    Kronecker norm factorizes as ``||M|| ||G||``, both spectral. ``g_spec``
    is :func:`g_spectrum` of ``G``.
    """
    lmin = coupling.lambda_min
    if lmin <= DEFINITENESS_TOL:
        raise CouplingNotPD(f"lambda_min(M) = {lmin:.3g} not positive")
    g_lo, g_hi = g_spec
    norm_mg = coupling.lambda_max * g_hi
    lmin_gtg = g_lo * g_lo
    return float((1.0 / lmin) * (1.0 + plant.l_f * norm_mg / (lmin * lmin_gtg)))


def tune_theta(
    coupling: ObserverCoupling,
    g_spec: tuple,
    d_tilde_u_i: float,
    slack: float = DEFAULT_SLACK,
) -> float:
    """Discontinuous state gain dominating the input-estimation-error bound.

    ``g_spec`` is :func:`g_spectrum` of ``G``.
    """
    if slack <= 0:
        raise ValueError("theta inequality is strict; slack must be > 0")
    g_lo, g_hi = g_spec
    ratio = (coupling.lambda_max * g_hi) / (coupling.lambda_min * g_lo)
    return float(ratio * d_tilde_u_i + slack)


def tune_pi(
    coupling: ObserverCoupling,
    eta_i: int,
    d_udot_i: float,
    slack: float = DEFAULT_SLACK,
) -> float:
    """Discontinuous input gain dominating the input-derivative bound."""
    if slack <= 0:
        raise ValueError("pi inequality is strict; slack must be > 0")
    ratio = coupling.lambda_max / coupling.lambda_min
    return float(ratio * np.sqrt(eta_i) * d_udot_i + slack)


def certificate(
    couplings,
    plant: PlantModel,
    gains: GainSet,
    bounds: BoundSet,
    x_err0,
    u_err0,
    uhat0_mag: float = 0.0,
) -> ConvergenceCertificate:
    """Evaluate the finite-time certificates for every agent with an observer.

    ``couplings`` is agent-indexed with ``None`` where eta = 0; ``x_err0``
    and ``u_err0`` are the initial stacked-error norms per agent. Raises
    :class:`CertificateInfeasible` when any ``omega`` is below its
    :func:`tune_omega` bound, then when a phi or psi margin is not strictly
    positive. Input-side bounds are only produced when ``d_udot`` is known.
    """
    n = len(couplings)
    x_err0 = np.broadcast_to(np.asarray(x_err0, dtype=float), (n,))
    u_err0 = np.broadcast_to(np.asarray(u_err0, dtype=float), (n,))
    g_lo, g_hi = g_spec = g_spectrum(gains.G)
    for idx, cpl in enumerate(couplings):  # the omega inequality is not strict
        if cpl is not None and gains.omega[idx] < (bound := tune_omega(cpl, plant, g_spec)):
            raise CertificateInfeasible(idx + 1, "omega", gains.omega[idx], bound)
    have_udot = bounds.d_udot is not None
    phi = np.full(n, np.nan)
    t_x = np.full(n, np.nan)
    psi = np.full(n, np.nan) if have_udot else None
    t_u = np.full(n, np.nan) if have_udot else None
    for idx, cpl in enumerate(couplings):
        if cpl is None:
            continue
        agent = idx + 1
        eta = cpl.M.shape[0]
        d_tu = bounds.tilde_u(agent, eta, uhat0_mag)
        th = gains.theta[idx]
        phi_i = th * cpl.lambda_min * g_lo - cpl.lambda_max * g_hi * d_tu
        if phi_i <= 0:
            raise CertificateInfeasible(agent, "phi", phi_i)
        phi[idx] = phi_i
        t_x[idx] = cpl.lambda_max * g_hi / phi_i * x_err0[idx]
        if have_udot:
            # ||M (x) I|| = lambda_max(M) for symmetric PSD M
            psi_i = gains.pi[idx] * cpl.lambda_min - cpl.lambda_max * np.sqrt(
                eta
            ) * float(bounds.d_udot[idx])
            if psi_i <= 0:
                raise CertificateInfeasible(agent, "psi", psi_i)
            psi[idx] = psi_i
            t_u[idx] = cpl.lambda_max / psi_i * u_err0[idx]
    active = [i for i, c in enumerate(couplings) if c is not None]
    t_x_global = float(np.max(t_x[active])) if active else 0.0
    t_u_global = None
    t_xu = None
    if have_udot:
        t_u_global = float(np.max(t_u[active])) if active else 0.0
        t_xu = t_u_global + t_x_global
    return ConvergenceCertificate(
        phi=phi,
        psi=psi,
        T_x=t_x,
        T_u=t_u,
        T_x_global=t_x_global,
        T_u_global=t_u_global,
        T_xu=t_xu,
    )


def tune_gains(
    graph: Graph,
    k: int,
    plant: PlantModel,
    bounds: BoundSet,
    g_scale: Optional[float] = None,
    slack: float = DEFAULT_SLACK,
    uhat0_mag: float = 0.0,
) -> tuple:
    """Tune the full gain set for a network.

    Returns ``(gains, nbs, couplings)`` where ``couplings`` is agent-indexed
    with ``None`` for agents without multi-hop neighbors; ``omega`` sits on
    its lower bound.
    """
    G = design_G(plant, g_scale)
    g_spec = g_spectrum(G)
    nbs = all_khop_sets(graph, k)
    couplings = [
        coupling_matrices(graph, nb) if nb.eta > 0 else None for nb in nbs
    ]
    n = graph.n
    omega = np.full(n, np.nan)
    theta = np.full(n, np.nan)
    pi = np.full(n, np.nan)
    for idx, cpl in enumerate(couplings):
        if cpl is None:
            continue
        agent = idx + 1
        eta = cpl.M.shape[0]
        omega[idx] = tune_omega(cpl, plant, g_spec)
        theta[idx] = tune_theta(
            cpl, g_spec, bounds.tilde_u(agent, eta, uhat0_mag), slack=slack
        )
        pi[idx] = (
            tune_pi(cpl, eta, float(bounds.d_udot[idx]), slack=slack)
            if bounds.d_udot is not None
            else np.nan
        )
    return GainSet(G=G, omega=omega, theta=theta, pi=pi), nbs, couplings
