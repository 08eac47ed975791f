"""Small dense linear-algebra helpers shared by the dynamics modules.

Everything here is a few lines of numpy on matrices of order <= a few
tens, where robustness beats cleverness: the exponential by a Taylor
series plus squaring, and the decay Gramian behind the certificate of an
infinite tau by squared Smith doubling of a block exponential.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationError

__all__ = ["expm", "decay_gramian", "spectral_norm", "hurwitz_margin"]

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


def expm(A, t):
    """Return e^{tA}.

    The Taylor series of e^{hA} is summed by Horner's rule over h = t / 2^j
    with h max(1, ||A||_1) <= 1/2, then squared back up j times; see Moler
    & Van Loan, "Nineteen dubious ways to compute the exponential of a
    matrix, twenty-five years later", SIAM Review 45(1), 2003.  A zero A
    gives I at any finite t; otherwise a t with 2 |t| max(1, ||A||_1) past
    the largest double raises IntegrationError.
    """
    A = np.asarray(A, dtype=float)
    t = float(t)
    eye = np.eye(A.shape[0])
    if math.isfinite(t) and not A.any():
        return eye
    rho = max(1.0, float(np.abs(A).sum(axis=0).max()))
    theta = abs(t) * rho
    if not math.isfinite(theta / 0.5):
        raise IntegrationError(f"the exponential over t = {t:.3e} overflows "
                               f"(norm bound {rho:.3e})")
    squarings = max(0, math.ceil(math.log2(theta / 0.5))) if theta > 0 else 0
    h = math.ldexp(t, -squarings)
    hA = h * A
    E = eye
    for k in range(_taylor_terms(abs(h) * rho), 0, -1):
        E = hA @ E
        E *= 1.0 / k
        E += eye
    for _ in range(squarings):
        E = E @ E
    return E


def decay_gramian(A, h):
    """X = the integral of e^{sA^T} e^{sA} over s >= 0, which solves A^T X
    + X A = -I for a Hurwitz A, or None.

    X_h, the integral over [0, h], is E_h^T F12 with E_h and F12 blocks of
    the exponential of h [[-A^T, I], [0, A]] (Van Loan, "Computing
    integrals involving the matrix exponential", IEEE TAC 23(3), 1978).
    Squared Smith doubling (Smith, "Matrix equation XA + BX = C", SIAM J.
    Appl. Math. 16(1), 1968), X <- X + E^T X E and E <- E^2, then runs
    until max |E| <= 2^-27, for at most 64 doublings.  It is None where E
    is not negligible by then or X is not finite.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:], block[n:, n:] = -A.T, np.eye(n), A
    with np.errstate(over="ignore", invalid="ignore"):
        F = expm(block, h)
        E = F[n:, n:]
        X = E.T @ F[:n, n:]
        for _ in range(64):
            if np.abs(E).max() <= 2.0 ** -27:
                break
            X, E = X + E.T @ X @ E, E @ E
        if not (np.abs(E).max() <= 2.0 ** -27 and np.isfinite(X).all()):
            return None
    return (X + X.T) / 2.0


def spectral_norm(A):
    return float(np.linalg.norm(np.asarray(A, dtype=float), 2))


def hurwitz_margin(A):
    """Largest eigenvalue real part of A (negative means Hurwitz)."""
    return float(np.linalg.eigvals(np.asarray(A, dtype=float)).real.max())
