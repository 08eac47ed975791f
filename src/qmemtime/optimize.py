"""Closed-form energy optimization of the quadratic deviation growth.

The second derivative of the deviation at t = 0 is a convex quadratic in
the energy vector E, with gradient 8(2RE + K) and Hessian 16R for the
matrix R = mho^T (P kron Sigma) mho and a vector K assembled from the
coupling-dependent pieces of the dynamics.  Both are read off the
deviation functional and the isolated drifts (see :func:`rk_matrices`),
with no Kronecker product and no n^4 array.  Maximizing the quadratic
decoherence-time expansion over E is therefore the stationarity problem
2RE + K = 0: unique when R is positive definite, minimum-norm with a
flagged null space when R is singular, and E = 0 is optimal exactly when
K vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, StationarityError
from .propagate import Propagator

#: Eigenvalues of R up to this share of its mean eigenvalue count as zero.
STATIONARITY_TOL = 1e-10


@dataclass(frozen=True)
class OptimalityData:
    """Stationarity data 2RE + K = 0 and its solution."""

    R: np.ndarray
    K: np.ndarray
    E_star: np.ndarray
    residual: float
    zero_energy_optimal: bool
    unique: bool
    null_dim: int


def rk_matrices(sys, init, weights):
    """The pair (R, K) of the energy-stationarity system.

    Delta''(0) = tr(L11 A^2) + g^T A b for the blocks L = [[L11, 0], [g^T,
    kappa]] of :meth:`Propagator.functional
    <qmemtime.propagate.Propagator.functional>`, with A = sum_j E_j D_j +
    Atilde and the isolated drifts D_j = 2 Theta <> e_j.  Its Hessian 16R
    and its gradient 8K at E = 0 give R_jk = (tr(L11 D_j D_k) + tr(L11 D_k
    D_j)) / 16, which is mho^T (P kron Sigma) mho, and K_j = (tr(L11 (D_j
    Atilde + Atilde D_j)) + g^T D_j b) / 8: O(n^4) flops, O(n^3) memory.
    Both are independent of the energy vector of ``sys``; an overflow raises IntegrationError.
    """
    prop = Propagator.of(sys)
    n, D, At = sys.n, prop.D, prop.co.Atilde
    L = prop.deviation(init, weights).L
    L11, g = L[:n, :n], L[n, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        # tr(L11 D_j D_k) = <(L11 D_j)^T, D_k>
        T = (D.transpose(0, 2, 1) @ L11.T).reshape(n, n * n) @ D.reshape(n, n * n).T
        R = (T + T.T) / 16.0
        K = D.reshape(n, n * n) @ ((At @ L11 + L11 @ At).T + np.outer(g, prop.b)).ravel() / 8.0
    if not (np.isfinite(R).all() and np.isfinite(K).all()):
        raise IntegrationError(f"(R, K) overflow a double (drift norm {prop.norm_a:.3e})")
    return R, K


def optimal_energy(R, K):
    """Solve the stationarity system 2RE + K = 0.

    With R positive definite (smallest eigenvalue above the scale-aware
    tol = ``STATIONARITY_TOL`` trace(R) / n) the solution is unique.  A
    singular R yields the minimum-norm solution flagged non-unique with
    its null-space dimension, provided K lies in the range of R; otherwise
    the inputs are inconsistent with convexity and
    :class:`StationarityError` is raised.
    """
    R = np.asarray(R, dtype=float)
    K = np.asarray(K, dtype=float)
    n = R.shape[0]
    tol = STATIONARITY_TOL * float(np.trace(R)) / n
    w, v = np.linalg.eigh((R + R.T) / 2.0)
    ktol = max(tol, 1e-12 * max(1.0, float(np.abs(K).max(initial=0.0))))

    if w.min() > tol:
        e_star = -0.5 * np.linalg.solve(R, K)
        unique, null_dim = True, 0
    else:
        keep = w > tol
        null_dim = int(n - keep.sum())
        coef = v.T @ K
        out_of_range = float(np.linalg.norm(coef[~keep]))
        if out_of_range > ktol:
            raise StationarityError(
                f"K has a component of norm {out_of_range:.3e} outside the "
                "range of a singular R; the quadratic would be unbounded "
                "below along a null direction, contradicting its convexity"
            )
        e_star = v[:, keep] @ (-0.5 * coef[keep] / w[keep])
        unique = False

    residual = float(np.linalg.norm(2.0 * R @ e_star + K))
    zero_opt = float(np.abs(K).max(initial=0.0)) <= ktol
    return OptimalityData(R=R, K=K, E_star=e_star, residual=residual,
                          zero_energy_optimal=zero_opt, unique=unique,
                          null_dim=null_dim)
