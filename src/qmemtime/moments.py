"""Exact first- and second-moment dynamics and their steady-state limits.

The mean follows mu(t) = e^{tA} mu(0) + psi(t) b with psi the integrated
exponential; the noise-response second moment V solves the Lyapunov ODE
V' = A V + V A^T + Lambda(mu(t)) from V(0) = 0; and the weighted
mean-square deviation of the variables from their initial values is

    Delta(t) = <Sigma, (e^{tA}-I) Pi (e^{tA}-I)^T + cross terms + V(t)>_Re.

A system's dynamics (drift, offset and the closure check of Lambda) are
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
from .errors import AdmissibilityError, IntegrationError, InternalConsistencyError
from .propagate import Propagator

#: Mean-square deviations in [-NEG_DELTA_TOL, 0) are clipped to zero;
#: anything more negative indicates an internal inconsistency.
NEG_DELTA_TOL = 1e-10

#: An admissible mean gives an initial Pi with no eigenvalue below -this.
ADMISSIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class InitialMoments:
    """Initial mean mu0 with the derived second-moment pair (P, Pi).

    Pi = P + i Theta . mu0 is the second-moment matrix of the initial
    variables and must be PSD (up to roundoff) for mu0 to be admissible;
    P = Re Pi = alpha + Re(beta) . mu0.  The three arrays are read-only.
    """

    mu0: np.ndarray
    P: np.ndarray
    Pi: np.ndarray

    def __post_init__(self):
        for arr in (self.mu0, self.P, self.Pi):
            arr.setflags(write=False)


def initial_moments(sc, mu0):
    """Build :class:`InitialMoments`, rejecting inadmissible means."""
    mu0 = np.ascontiguousarray(np.asarray(mu0, dtype=float))
    if mu0.shape != (sc.n,):
        raise ValueError(f"initial mean has shape {mu0.shape}, expected ({sc.n},)")
    if not np.isfinite(mu0).all():
        raise ValueError("initial mean has non-finite entries")
    P = sc.alpha + sections_dot(sc.re_beta, mu0)
    P = (P + P.T) / 2.0
    Pi = P + 1j * sections_dot(sc.theta, mu0)
    lam_min = float(np.linalg.eigvalsh(Pi).min())
    if lam_min < -ADMISSIBILITY_TOL:
        raise AdmissibilityError(
            f"initial mean gives an indefinite second-moment matrix "
            f"(min eigenvalue {lam_min:.3e} < -{ADMISSIBILITY_TOL:g})"
        )
    return InitialMoments(mu0=mu0, P=P, Pi=Pi)


@dataclass(frozen=True)
class WeightingSpec:
    """A checked weighting matrix Sigma: real, symmetric, PSD and read-only."""

    Sigma: np.ndarray

    def __post_init__(self):
        self.Sigma.setflags(write=False)


def weighting_from_sigma(Sigma):
    """Check a weighting matrix: square, finite, symmetric and PSD, each to
    a floor relative to its own scale, so s Sigma passes iff Sigma does."""
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise ValueError(f"weighting matrix must be square, got {Sigma.shape}")
    if not np.isfinite(Sigma).all():
        raise ValueError("weighting matrix has non-finite entries")
    if np.abs(Sigma - Sigma.T).max() > 1e-10 * np.abs(Sigma).max(initial=0.0):
        raise ValueError("weighting matrix is not symmetric")
    Sigma = (Sigma + Sigma.T) / 2.0
    w = np.linalg.eigvalsh(Sigma)
    if w.min(initial=0.0) < -1e-10 * float(np.abs(w).max(initial=0.0)):
        raise ValueError(f"weighting matrix is not PSD (min eigenvalue {w.min():.3e})")
    return WeightingSpec(Sigma=Sigma)


def weighting_from_factor(F):
    """The weighting Sigma = F^T F of an explicit full-row-rank factor F."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("factor must be a 2-d array")
    if not np.isfinite(F).all():
        raise ValueError("factor has non-finite entries")
    if np.linalg.matrix_rank(F) < F.shape[0]:
        raise ValueError("factor rows are linearly dependent; full row rank required")
    Sigma = F.T @ F
    Sigma = (Sigma + Sigma.T) / 2.0
    return WeightingSpec(Sigma=Sigma)


@dataclass(frozen=True)
class MomentTrajectory:
    """Moments along a grid: mean, second moment of the noise response,
    and the weighted mean-square deviation from the initial variables."""

    grid: np.ndarray
    mu: np.ndarray
    V: np.ndarray
    Delta: np.ndarray


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
    :func:`deviation_delta` and the CLI export.

    ``weights`` may be None when only (mu, V) are of interest; Delta is
    then reported for Sigma = I.  Constants that are not associative
    raise :class:`~qmemtime.errors.StructureDefectError`, since the
    moments are read off the product closure.
    """
    grid = _validate_grid(grid)
    prop = Propagator.of(sys)
    Sigma = weights.Sigma if weights is not None else np.eye(sys.n)
    with np.errstate(over="ignore", invalid="ignore"):
        mu, V, delta = prop.trajectory(init, Sigma, grid)
    # An overflow shows here, in one exact pass over each array: a sum could
    # overflow from finite entries, and a product with zeros may skip them.
    if not (np.isfinite(V.view(float)).all() and np.isfinite(mu).all()):
        raise IntegrationError(
            f"moment propagation produced non-finite values (drift norm "
            f"{prop.norm_a:.3e}, grid spacing {np.diff(grid).max():.3e})"
        )
    return MomentTrajectory(grid=grid, mu=mu, V=V, Delta=_clean_delta(delta))


def deviation_delta(sys, init, weights, grid):
    """Weighted mean-square deviation Delta(t_k) along ``grid``."""
    return moment_trajectory(sys, init, weights, grid).Delta


def delta_derivatives0(sys, init, weights):
    """First two right-hand derivatives of Delta at t = 0.

    The first is <Sigma, Re Lambda(mu0)> and is nonnegative.  Delta(t) =
    <L, Phi_t^T> (see :mod:`qmemtime.propagate`), so the second is <L,
    (Ahat^2)^T> for the generator Ahat = [[A, b], [0, 0]] of Phi: quadratic
    and convex in the energy vector through A.  A drift so large that
    the second is not a finite double raises :class:`IntegrationError`.
    """
    dev = Propagator.of(sys).deviation(init, weights)
    d2 = dev.ddot0
    return dev.rate0, d2


@dataclass(frozen=True)
class SteadyState:
    """Limits of the moment dynamics when the drift is Hurwitz."""

    mu_inf: np.ndarray
    P_inf: np.ndarray
    Lambda_inf: np.ndarray
    Delta_inf: float


def steady_state(sys, init, weights):
    """Steady-state (mu, P, Lambda, Delta) for a Hurwitz drift.

    P_inf solves A P + P A^T + Re Lambda_inf = 0.  The limits of the system
    are derived once, by :attr:`Propagator.limits
    <qmemtime.propagate.Propagator.limits>`, and returned read-only, and
    Delta_inf, whose sign is not asserted, once for ``init`` and ``weights``
    by the :class:`~qmemtime.propagate.Deviation` that the march reads.
    """
    prop = Propagator.of(sys)
    mu_inf, lam_inf, P_inf = prop.limits
    delta_inf = prop.deviation(init, weights).limit
    return SteadyState(mu_inf=mu_inf, P_inf=P_inf, Lambda_inf=lam_inf,
                       Delta_inf=delta_inf)


def reference_norm(init, weights):
    """The weighted size <Sigma, P> = ||F sqrt(P)||^2 of the initial
    variables, against which deviations are measured."""
    return float(np.sum(weights.Sigma * init.P))
