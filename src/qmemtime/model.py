"""Drift, offset, and diffusion coefficients of the quasilinear dynamics.

Given structure constants, an energy vector E, and affine coupling
parameters (M, N), this module assembles the coefficient set of the
moment dynamics: the isolated drift A0 = 2 Theta <> E, the coupling
contribution Atilde (quadratic in M, N), the drift offset b, and the
averaged diffusion matrix

    Lambda(mu) = 4 mho^T ((alpha + beta . mu) kron (M^T Omega M)) mho,

which is affine in the mean vector mu.  Products close, X_j X_k =
alpha_jk + beta_jk . X, so Lambda is read off the closure in O(n^3)
(see :meth:`Propagator.lam <qmemtime.propagate.Propagator.lam>`), which
holds where the product table is associative; the O(n^4) sandwich itself
is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import StructureConstants, col, sections_diamond, stack_mho


@dataclass(frozen=True)
class SystemParams:
    """A concrete system: constants plus energy and coupling parameters.

    ``M`` has one row per field channel (an even count, since the field
    noise comes in conjugate quadrature pairs) and ``N`` is the constant
    offset of the coupling.
    """

    sc: StructureConstants
    E: np.ndarray
    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        n = self.sc.n
        E = np.ascontiguousarray(np.asarray(self.E, dtype=float))
        M = np.ascontiguousarray(np.asarray(self.M, dtype=float))
        N = np.ascontiguousarray(np.asarray(self.N, dtype=float))
        if E.shape != (n,):
            raise ValueError(f"energy vector has shape {E.shape}, expected ({n},)")
        if M.ndim != 2 or M.shape[1] != n:
            raise ValueError(f"coupling matrix has shape {M.shape}, expected (m, {n})")
        m = M.shape[0]
        if m % 2 != 0 or m < 2:
            raise ValueError(f"coupling channel count m={m} must be even and >= 2")
        if N.shape != (m,):
            raise ValueError(f"coupling offset has shape {N.shape}, expected ({m},)")
        for name, arr in (("energy vector", E), ("coupling matrix", M), ("coupling offset", N)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)

    @property
    def n(self):
        return self.sc.n

    @property
    def m(self):
        return self.M.shape[0]

    def with_energy(self, E):
        """This system with the energy vector ``E``: a new instance, which
        derives its own dynamics."""
        return replace(self, E=E)


def ito_matrix(m):
    """Ito matrix pair (Omega, J) for m field channels.

    J is block diagonal with 2x2 skew blocks [[0, 1], [-1, 0]] and
    Omega = I + iJ is Hermitian PSD with eigenvalues {0, 2}.
    """
    if m % 2 != 0 or m < 2:
        raise ValueError(f"channel count m={m} must be even and >= 2")
    bj = np.array([[0.0, 1.0], [-1.0, 0.0]])
    J = np.kron(np.eye(m // 2), bj)
    Omega = np.eye(m) + 1j * J
    return Omega, J


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the mean/second-moment dynamics for one system."""

    A0: np.ndarray
    Atilde: np.ndarray
    A: np.ndarray
    b: np.ndarray


def coefficients(sys):
    """Assemble the coefficient set of ``sys``.

    A0 = 2 Theta <> E,
    Atilde = 2 Theta <> (M^T J N)
             + 2 sum_l Theta_l M^T (M theta_(l..) + J M Re(beta)_(l..)),
    b = -2 mho^T col(M^T J M alpha), with mho = stack_mho(Theta).

    The slices theta_(l..) = ``theta[:, l, :].T`` and Re(beta)_(l..) fix
    the *first* array index, which differs from the sections (third index
    fixed) for arrays without full index symmetry.
    """
    sc, M, N = sys.sc, sys.M, sys.N
    n, m = sys.n, sys.m
    theta = sc.theta
    _, J = ito_matrix(m)

    A0 = 2.0 * sections_diamond(theta, sys.E)

    MtJN = M.T @ (J @ N)
    acc = np.zeros((n, n))
    for ell in range(n):
        inner = M @ theta[:, ell, :].T + J @ (M @ sc.re_beta[:, ell, :].T)
        acc += theta[ell] @ (M.T @ inner)
    Atilde = 2.0 * sections_diamond(theta, MtJN) + 2.0 * acc

    S = M.T @ J @ M @ sc.alpha
    b = -2.0 * stack_mho(theta).T @ col(S)

    return CoefficientSet(A0=A0, Atilde=Atilde, A=A0 + Atilde, b=b)


def lambda_matrix(sys, mu):
    """Averaged diffusion matrix Lambda at mean vector ``mu``.

    Hermitian; PSD whenever alpha + beta . mu is PSD (an admissible mean).
    Read off the product closure by the system's propagator, so constants
    that are not associative raise StructureDefectError.
    """
    from .propagate import Propagator  # propagate builds on this module
    return Propagator.of(sys).lam(np.asarray(mu, dtype=float))
