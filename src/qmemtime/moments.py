"""Exact first- and second-moment dynamics and their steady-state limits.

The mean follows mu(t) = e^{tA} mu(0) + psi(t) b with psi the integrated
exponential; the noise-response second moment V solves the Lyapunov ODE
V' = A V + V A^T + Lambda(mu(t)) from V(0) = 0; and the weighted
mean-square deviation of the variables from their initial values is

    Delta(t) = <Sigma, (e^{tA}-I) Pi (e^{tA}-I)^T + cross terms + V(t)>_Re.

A system's dynamics (drift, offset and the affine parts of Lambda) are
derived once, by :meth:`Propagator.of <qmemtime.propagate.Propagator.of>`,
and every function here that takes a system reads them from there.  The
mean, V and Delta at the grid nodes are read off the mean's transition
matrix and the product closure alpha + beta . mu of the second moment
(see :mod:`qmemtime.propagate`); matrix exponentials come from
scaling-and-squaring, and the steady-state second moment is read off the
same closure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import sections_dot
from .errors import (AdmissibilityError, IntegrationError,
                     InternalConsistencyError)
from .linalg import expm_psi, require_hurwitz
from .propagate import Propagator, step_spacings

#: Mean-square deviations in [-NEG_DELTA_TOL, 0) are clipped to zero;
#: anything more negative indicates an internal inconsistency.
NEG_DELTA_TOL = 1e-10


@dataclass(frozen=True)
class InitialMoments:
    """Initial mean mu0 with the derived second-moment pair (P, Pi).

    Pi = P + i Theta . mu0 is the second-moment matrix of the initial
    variables and must be PSD (up to roundoff) for mu0 to be admissible;
    P = Re Pi = alpha + Re(beta) . mu0.
    """

    mu0: np.ndarray
    P: np.ndarray
    Pi: np.ndarray


def initial_moments(sc, mu0, tol=1e-10):
    """Build :class:`InitialMoments`, rejecting inadmissible means."""
    mu0 = np.ascontiguousarray(np.asarray(mu0, dtype=float))
    if mu0.shape != (sc.n,):
        raise ValueError(f"initial mean has shape {mu0.shape}, expected ({sc.n},)")
    P = sc.alpha + sections_dot(sc.re_beta, mu0)
    P = (P + P.T) / 2.0
    Pi = P + 1j * sections_dot(sc.theta, mu0)
    lam_min = float(np.linalg.eigvalsh(Pi).min())
    if lam_min < -tol:
        raise AdmissibilityError(
            f"initial mean gives an indefinite second-moment matrix "
            f"(min eigenvalue {lam_min:.3e} < -{tol:g})"
        )
    for arr in (mu0, P, Pi):
        arr.setflags(write=False)
    return InitialMoments(mu0=mu0, P=P, Pi=Pi)


@dataclass(frozen=True)
class WeightingSpec:
    """Weighting matrix Sigma = F^T F with a full-row-rank factor F."""

    Sigma: np.ndarray
    F: np.ndarray
    nu: int


def weighting_from_sigma(Sigma, rank_tol=1e-12):
    """Factor a PSD weighting matrix as Sigma = F^T F."""
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise ValueError(f"weighting matrix must be square, got {Sigma.shape}")
    if np.abs(Sigma - Sigma.T).max() > 1e-10 * max(1.0, np.abs(Sigma).max()):
        raise ValueError("weighting matrix is not symmetric")
    Sigma = (Sigma + Sigma.T) / 2.0
    w, v = np.linalg.eigh(Sigma)
    scale = max(1.0, float(w.max(initial=0.0)))
    if w.min(initial=0.0) < -1e-10 * scale:
        raise ValueError(f"weighting matrix is not PSD (min eigenvalue {w.min():.3e})")
    keep = w > rank_tol * scale
    F = np.sqrt(w[keep])[:, None] * v[:, keep].T
    if np.abs(Sigma - F.T @ F).max() > 1e-10 * scale:
        raise InternalConsistencyError("weighting factorization residual above 1e-10")
    Sigma.setflags(write=False)
    F.setflags(write=False)
    return WeightingSpec(Sigma=Sigma, F=F, nu=int(keep.sum()))


def weighting_from_factor(F):
    """Wrap an explicit full-row-rank factor F."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("factor must be a 2-d array")
    if np.linalg.matrix_rank(F) < F.shape[0]:
        raise ValueError("factor rows are linearly dependent; full row rank required")
    Sigma = F.T @ F
    Sigma = (Sigma + Sigma.T) / 2.0
    F = F.copy()
    Sigma.setflags(write=False)
    F.setflags(write=False)
    return WeightingSpec(Sigma=Sigma, F=F, nu=F.shape[0])


@dataclass(frozen=True)
class MomentTrajectory:
    """Moments along a grid: mean, second moment of the noise response,
    and the weighted mean-square deviation from the initial variables."""

    grid: np.ndarray
    mu: np.ndarray
    V: np.ndarray
    Delta: np.ndarray


def psi_matrix(A, t):
    """Integral of e^{sA} over [0, t], valid for singular A."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return expm_psi(A, t)[1]


def _validate_grid(grid):
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid must be a 1-d array with at least two nodes")
    if g[0] != 0.0:
        raise ValueError(f"grid must start at t=0, got t0={g[0]}")
    if not np.all(np.diff(g) > 0):
        raise ValueError("grid must be strictly increasing")
    return g


def _clean_delta(delta):
    worst = float(delta.min())
    if worst < -NEG_DELTA_TOL:
        raise InternalConsistencyError(
            f"mean-square deviation fell to {worst:.3e}, below -{NEG_DELTA_TOL:g}"
        )
    return np.where(delta < 0.0, 0.0, delta)


def moment_trajectory(sys, init, weights, grid):
    """Propagate (mu, V, Delta) over ``grid``; the workhorse behind
    :func:`second_moment_V`, :func:`deviation_delta`, and the CLI export.

    ``weights`` may be None when only (mu, V) are of interest; Delta is
    then reported for Sigma = I.  Constants that are not associative
    raise :class:`~qmemtime.errors.StructureDefectError`, since the
    moments are read off the product closure.
    """
    grid = _validate_grid(grid)
    prop = Propagator.of(sys)
    Sigma = weights.Sigma if weights is not None else np.eye(sys.n)
    mu, V, delta = prop.trajectory(init, Sigma, grid)
    # min and max carry a NaN through and show an infinity, with no
    # temporary the size of V.
    Vr = V.view(float)
    if not np.isfinite([Vr.min(), Vr.max(), mu.min(), mu.max()]).all():
        raise IntegrationError(
            f"moment propagation produced non-finite values (drift norm "
            f"{prop.norm_a:.3e}, grid spacing {np.diff(grid).max():.3e})"
        )
    return MomentTrajectory(grid=grid, mu=mu, V=V, Delta=_clean_delta(delta))


def mean_trajectory(coeffs, init, grid):
    """Mean along ``grid`` by exact steps e^{hA} mu + psi(h) b, one per
    spacing h of :func:`~qmemtime.propagate.step_spacings`."""
    grid = _validate_grid(grid)
    out = np.empty((grid.size, init.mu0.size))
    out[0] = mu = init.mu0
    steps = {}
    for k, h in enumerate(step_spacings(grid).tolist(), start=1):
        if h not in steps:
            steps[h] = expm_psi(coeffs.A, h)
        Eh, ph = steps[h]
        out[k] = mu = Eh @ mu + ph @ coeffs.b
    return out


def mean_limit(coeffs):
    """Steady-state mean -A^{-1} b; raises NotHurwitzError otherwise."""
    require_hurwitz(coeffs.A, context="the steady-state mean")
    return -np.linalg.solve(coeffs.A, coeffs.b)


def second_moment_V(sys, init, grid):
    """Second moment V(t_k) of the noise response along ``grid``."""
    return moment_trajectory(sys, init, None, grid).V


def deviation_delta(sys, init, weights, grid):
    """Weighted mean-square deviation Delta(t_k) along ``grid``."""
    return moment_trajectory(sys, init, weights, grid).Delta


def _delta_rate0(prop, init, Sigma):
    """The first right-hand derivative <Sigma, Re Lambda(mu0)> of Delta at
    t = 0, and Re Lambda(mu0)."""
    lam0 = prop.lam(init.mu0).real
    return float(np.sum(Sigma * lam0)), lam0


def delta_derivatives0(sys, init, weights):
    """First two right-hand derivatives of Delta at t = 0.

    The first is <Sigma, Re Lambda(0)> and is nonnegative; the second is
    <Sigma, 2APA^T + 2A(Re Lambda(0) + 2 mu0 b^T) + Re Lambda'(0)>
    + 2|Fb|^2, quadratic and convex in the energy vector through A.
    """
    prop = Propagator.of(sys)
    A, b, Sigma = prop.A, prop.b, weights.Sigma
    d1, lam0 = _delta_rate0(prop, init, Sigma)
    # Lambda is affine in the mean, so its rate is the linear part at mu'(0).
    lamd = np.tensordot(A @ init.mu0 + b, prop.lam_mu, axes=1).real
    inner = (2.0 * A @ init.P @ A.T
             + 2.0 * A @ (lam0 + 2.0 * np.outer(init.mu0, b))
             + lamd)
    d2 = float(np.sum(Sigma * inner) + 2.0 * b @ Sigma @ b)
    return d1, d2


@dataclass(frozen=True)
class SteadyState:
    """Limits of the moment dynamics when the drift is Hurwitz."""

    mu_inf: np.ndarray
    P_inf: np.ndarray
    Lambda_inf: np.ndarray
    Delta_inf: float


def steady_state(sys, init, weights):
    """Steady-state (mu, P, Lambda, Delta) for a Hurwitz drift.

    P_inf solves A P + P A^T + Re Lambda_inf = 0; the limit deviation is
    <Sigma, P> - 2 mu_inf^T Sigma mu0 + |F mu_inf|^2 + <Sigma, P_inf>,
    whose sign is not asserted (the cross term may be negative).  The
    limits of the system are derived once, by
    :meth:`Propagator.limits <qmemtime.propagate.Propagator.limits>`, and
    returned read-only; only Delta_inf is computed per call.
    """
    mu_inf, lam_inf, P_inf = Propagator.of(sys).limits()
    Sigma = weights.Sigma
    delta_inf = float(np.sum(Sigma * init.P)
                      - 2.0 * mu_inf @ Sigma @ init.mu0
                      + mu_inf @ Sigma @ mu_inf
                      + np.sum(Sigma * P_inf))
    return SteadyState(mu_inf=mu_inf, P_inf=P_inf, Lambda_inf=lam_inf,
                       Delta_inf=delta_inf)


def reference_norm(init, weights):
    """The weighted size <Sigma, P> = ||F sqrt(P)||^2 of the initial
    variables, against which deviations are measured."""
    return float(np.sum(weights.Sigma * init.P))
