"""Small dense linear-algebra helpers shared by the dynamics modules.

Everything here is a few lines of numpy on matrices of order <= a few
tens, where robustness beats cleverness: the integrated exponential by a
Taylor series of a block matrix plus squaring, and the vectorized
Lyapunov solve behind the decay certificate of an infinite tau.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationError, NotHurwitzError

__all__ = ["expm_psi", "solve_lyapunov", "spectral_norm", "hurwitz_margin"]

#: Eigenvalue real parts must be below -HURWITZ_TOL to certify decay.
HURWITZ_TOL = 1e-10


def _taylor_terms(theta):
    """Series length for a generator of norm bound rho over a step
    theta / rho: the tail theta^k / k! drops below 2^-60, plus two terms
    for a source chain (constant -> mean -> second moment)."""
    k, term = 0, 1.0
    while term > 2.0 ** -60:
        k += 1
        term *= theta / k
    return k + 2


def expm_psi(A, t):
    """Return (e^{tA}, psi(t)) with psi(t) the integral of e^{sA} over [0, t].

    Both are blocks of the exponential of t [[A, I], [0, 0]], which stays
    valid when A is singular (the inverse-based formula for psi does not).
    Its Taylor series is summed over h = t / 2^j with h max(1, ||A||_1)
    <= 1/2 (the block's 1-norm bound): psi(h) / h = sum_k (hA)^k / (k+1)!
    by Horner's rule and e^{hA} = I + A psi(h).  The blocks are then
    squared back up j times by (E, P) -> (E E, E P + P); see Moler & Van
    Loan, "Nineteen dubious ways to compute the exponential of a matrix,
    twenty-five years later", SIAM Review 45(1), 2003.  A zero A gives (I,
    t I) at any finite t; otherwise a t with 2 |t| max(1, ||A||_1) past the
    largest double raises IntegrationError.
    """
    A = np.asarray(A, dtype=float)
    t = float(t)
    eye = np.eye(A.shape[0])
    if math.isfinite(t) and not A.any():
        return eye, t * eye
    rho = max(1.0, float(np.abs(A).sum(axis=0).max()))
    theta = abs(t) * rho
    if not math.isfinite(theta / 0.5):
        raise IntegrationError(f"the exponential over t = {t:.3e} overflows "
                               f"(norm bound {rho:.3e})")
    squarings = max(0, math.ceil(math.log2(theta / 0.5))) if theta > 0 else 0
    h = math.ldexp(t, -squarings)
    hA = h * A
    acc = eye
    for k in range(_taylor_terms(abs(h) * rho), 0, -1):
        acc = hA @ acc
        acc *= 1.0 / (k + 1)
        acc += eye
    E, P = eye + hA @ acc, h * acc
    for _ in range(squarings):
        E, P = E @ E, E @ P + P
    return E, P


def solve_lyapunov(A, Q):
    """Solve A P + P A^T + Q = 0 by vectorizing to a linear system.

    Uses the column-major identities col(AP) = (I kron A) col(P) and
    col(P A^T) = (A kron I) col(P); at the matrix orders handled here the
    dense n^2-by-n^2 solve is cheap and has no special-solver dependency.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    lin = np.kron(eye, A) + np.kron(A, eye)
    vec = np.linalg.solve(lin, -Q.reshape(-1, order="F"))
    P = vec.reshape(n, n, order="F")
    return (P + P.T) / 2.0


def spectral_norm(A):
    return float(np.linalg.norm(np.asarray(A, dtype=float), 2))


def hurwitz_margin(A):
    """Largest eigenvalue real part of A (negative means Hurwitz)."""
    return float(np.linalg.eigvals(np.asarray(A, dtype=float)).real.max())


def _require_margin(margin, context):
    """Raise :class:`NotHurwitzError` unless the :func:`hurwitz_margin`
    ``margin`` is below -HURWITZ_TOL."""
    if margin >= -HURWITZ_TOL:
        raise NotHurwitzError(
            f"drift matrix is not Hurwitz for {context}: max Re(eig) = {margin:.3e}"
        )
