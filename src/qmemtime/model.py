"""Drift, offset, and diffusion coefficients of the quasilinear dynamics.

Given structure constants, an energy vector E, and affine coupling
parameters (M, N), this module assembles the coefficient set of the
moment dynamics: the isolated drift A0 = 2 Theta <> E, the coupling
contribution Atilde (quadratic in M, N), the drift offset b, the optional
selected-output pair (C, d), and the averaged diffusion matrix

    Lambda(mu) = 4 mho^T ((alpha + beta . mu) kron (M^T Omega M)) mho,

which is affine in the mean vector mu.  Products close, X_j X_k =
alpha_jk + beta_jk . X, so Lambda is also read off the closure in O(n^3)
(see :meth:`Propagator.lam <qmemtime.propagate.Propagator.lam>`); the
sandwich itself is evaluated only at single means, by
:func:`lambda_sandwich`, to check that the closure holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import StructureConstants, col, sections_diamond, stack_mho


@dataclass(frozen=True)
class SystemParams:
    """A concrete system: constants plus energy and coupling parameters.

    ``M`` has one row per field channel (an even count, since the field
    noise comes in conjugate quadrature pairs), ``N`` is the constant
    offset of the coupling, and ``D``, when present, selects conjugate
    pairs of rows of a permutation for the observed outputs.
    """

    sc: StructureConstants
    E: np.ndarray
    M: np.ndarray
    N: np.ndarray
    D: np.ndarray = None

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
        for arr in (E, M, N):
            arr.setflags(write=False)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)
        if self.D is not None:
            D = np.ascontiguousarray(np.asarray(self.D, dtype=float))
            _check_output_selector(D, m)
            D.setflags(write=False)
            object.__setattr__(self, "D", D)

    @property
    def n(self):
        return self.sc.n

    @property
    def m(self):
        return self.M.shape[0]

    def with_energy(self, E):
        """This system with the energy vector ``E``.  If the dynamics of
        this system are derived already, the new system takes over their
        energy-independent parts and derives only the drift."""
        moved = replace(self, E=np.asarray(E, dtype=float))
        prop = self.__dict__.get("_propagator")
        if prop is not None:
            moved.__dict__["_propagator"] = prop._with_energy(moved)
        return moved


def _check_output_selector(D, m):
    r = D.shape[0]
    if D.ndim != 2 or D.shape[1] != m:
        raise ValueError(f"output selector has shape {D.shape}, expected (r, {m})")
    if r % 2 != 0 or r > m:
        raise ValueError(f"output count r={r} must be even and <= m={m}")
    if not np.all((D == 0.0) | (D == 1.0)) or not np.all(D.sum(axis=1) == 1.0):
        raise ValueError("output selector rows must each contain a single unit entry")
    cols = np.argmax(D, axis=1)
    if len(set(cols.tolist())) != r:
        raise ValueError("output selector rows must select distinct channels")
    # Rows must keep quadrature partners together: channel pairs (2a, 2a+1).
    for i in range(0, r, 2):
        if cols[i] % 2 != 0 or cols[i + 1] != cols[i] + 1:
            raise ValueError(
                f"output rows {i},{i + 1} select channels {cols[i]},{cols[i + 1]}; "
                "conjugate pairs (2a, 2a+1) are required"
            )


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
    C: np.ndarray
    d: np.ndarray
    Omega: np.ndarray
    J: np.ndarray


def _isolated_drift(sys):
    """The drift A0 = 2 Theta <> E of the uncoupled system, the one
    coefficient that depends on the energy vector."""
    return 2.0 * sections_diamond(sys.sc.theta, sys.E)


def coefficients(sys):
    """Assemble the coefficient set of ``sys``.

    A0 = 2 Theta <> E,
    Atilde = 2 Theta <> (M^T J N)
             + 2 sum_l Theta_l M^T (M theta_(l..) + J M Re(beta)_(l..)),
    b = -2 mho^T col(M^T J M alpha), with mho = stack_mho(Theta),
    C = 2 D J M and d = 2 D J N when an output selector is present.

    The slices theta_(l..) = ``theta[:, l, :].T`` and Re(beta)_(l..) fix
    the *first* array index, which differs from the sections (third index
    fixed) for arrays without full index symmetry.
    """
    sc, M, N = sys.sc, sys.M, sys.N
    n, m = sys.n, sys.m
    theta = sc.theta
    Omega, J = ito_matrix(m)

    A0 = _isolated_drift(sys)

    MtJN = M.T @ (J @ N)
    acc = np.zeros((n, n))
    for ell in range(n):
        inner = M @ theta[:, ell, :].T + J @ (M @ sc.re_beta[:, ell, :].T)
        acc += theta[ell] @ (M.T @ inner)
    Atilde = 2.0 * sections_diamond(theta, MtJN) + 2.0 * acc

    S = M.T @ J @ M @ sc.alpha
    b = -2.0 * stack_mho(theta).T @ col(S)

    C = d = None
    if sys.D is not None:
        C = 2.0 * sys.D @ J @ M
        d = 2.0 * sys.D @ J @ N

    return CoefficientSet(A0=A0, Atilde=Atilde, A=A0 + Atilde, b=b, C=C, d=d,
                          Omega=Omega, J=J)


def lambda_sandwich(sys, mu):
    """The Kronecker sandwich Lambda(mu) at one mean, by the double sum 4
    sum_j Theta_j^T G (sum_k Pi_jk Theta_k) with G = M^T Omega M and Pi =
    alpha + beta . mu, in O(n^4) flops and O(n^3) memory: the paper's
    definition, which the propagator checks the closure form against."""
    n = sys.n
    Omega, _ = ito_matrix(sys.m)
    G = sys.M.T @ Omega @ sys.M
    th = sys.sc.theta
    Pi = sys.sc.alpha + (mu @ sys.sc.beta.reshape(n, n * n)).reshape(n, n)
    W = G @ (Pi @ th.reshape(n, n * n)).reshape(n, n, n)  # G sum_k Pi_jk Theta_k, for each j
    return 4.0 * th.reshape(n * n, n).T @ W.reshape(n * n, n)


def lambda_matrix(sys, mu):
    """Averaged diffusion matrix Lambda at mean vector ``mu``.

    Hermitian; PSD whenever alpha + beta . mu is PSD (an admissible mean).
    Read off the product closure by the system's propagator, so constants
    that are not associative raise StructureDefectError.
    """
    from .propagate import Propagator  # propagate builds on this module
    return Propagator.of(sys).lam(np.asarray(mu, dtype=float))


def lambda_dot0(sys, mu0):
    """Time derivative of Lambda along the mean flow, at t = 0.

    Lambda is affine in the mean and the mean satisfies mu' = A mu + b,
    so this is the linear part of Lambda at A mu0 + b.
    """
    from .propagate import Propagator
    prop = Propagator.of(sys)
    return prop.lam(prop.A @ np.asarray(mu0, dtype=float) + prop.b, 0.0)
