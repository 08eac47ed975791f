"""Structure constants and section products of quasilinear system algebras.

A family of n self-adjoint system variables X_1..X_n is "algebraically
closed" when every pairwise product X_j X_k is an affine combination
alpha_jk I + sum_l beta_jkl X_l.  This module holds the constant arrays
(alpha, beta), the commutation array Theta = Im(beta), the two section
products used throughout the package, and the n^2-by-n vertical stack of
Theta sections that turns the different products into plain matrix algebra.
The product table of the extended basis (I, X_1..X_n) checks the constants
without a matrix representation: its associativity and commutation defects
vanish for every family of matrices that realizes them.

Conventions
-----------
A three-index array gamma_jkl is an (n, n, n) ndarray, read-only in
:class:`StructureConstants`, with ``gamma[l, j, k] = gamma_jkl``.  So ``gamma[l]`` is the "section"
gamma_(..l), the n-by-n matrix with the third index fixed;
``gamma[:, :, k].T`` is (gamma_jkl)_{jl}, the middle index fixed; and
``gamma[:, l, :].T`` is (gamma_lab)_{ab}, the first index fixed.  ``col``
is column-major vectorization, so ``col(2 Theta diamond E)`` equals
``2 mho @ E`` with ``mho`` the vertical stack of Theta sections.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureDefectError

#: Defect size below which inputs are symmetrized/Hermitized silently;
#: anything larger is rejected so user errors are not hidden by repair.
REPAIR_TOL = 1e-12


def col(mat):
    """Column-major (column-stacking) vectorization of a matrix."""
    return np.asarray(mat).reshape(-1, order="F")


def sections_dot(gamma, u):
    """Section-weighted sum: gamma . u = sum_l gamma_l u_l.

    Linear in ``u``; column k of the result equals ``gamma[:, :, k].T @ u``.
    """
    gamma, u = np.asarray(gamma), np.asarray(u)
    if u.shape != (gamma.shape[0],):
        raise ValueError(f"vector length {u.shape} does not match {gamma.shape[0]} sections")
    return np.einsum("ljk,l->jk", gamma, u)


def sections_diamond(gamma, u):
    """Column-assembled product: gamma <> u = [gamma_1 u, ..., gamma_n u].

    Related to :func:`sections_dot` by (gamma . u) v = (gamma <> v) u for
    commuting numeric vectors.
    """
    gamma, u = np.asarray(gamma), np.asarray(u)
    if u.shape != (gamma.shape[0],):
        raise ValueError(f"vector length {u.shape} does not match {gamma.shape[0]} sections")
    return np.einsum("kjl,l->jk", gamma, u)


def stack_mho(theta):
    """Vertical stack [Theta_1; ...; Theta_n] of shape (n^2, n).

    Satisfies col(Theta <> (2E)) = 2 mho @ E and
    mho.T @ col(S) = sum_k Theta_k.T @ S[:, k].
    """
    n = len(theta)
    return np.reshape(theta, (n * n, n))


class StructureConstants:
    """Constants (alpha, beta) closing the system-variable algebra.

    Parameters
    ----------
    alpha : (n, n) array_like
        Real symmetric coefficient of the identity in each product.
    beta : (n, n, n) array_like
        Complex Hermitian sections, ``beta[l] = beta_l``, weighting the
        variables.

    Construction symmetrizes alpha and Hermitizes the beta sections when
    the defect is below ``REPAIR_TOL`` and rejects larger defects.  The
    commutation array ``theta = Im(beta)``, with real antisymmetric
    sections, and ``re_beta = Re(beta)`` are derived once.  All four
    arrays are read-only, so whatever is derived from them stays valid.
    """

    __slots__ = ("n", "alpha", "beta", "theta", "re_beta")

    def __init__(self, alpha, beta):
        alpha = np.array(np.asarray(alpha), dtype=float)
        if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
            raise ValueError(f"alpha must be square, got shape {alpha.shape}")
        n = alpha.shape[0]
        beta = np.array(beta, dtype=complex)
        if beta.shape != (n, n, n):
            raise ValueError(f"beta stack shape {beta.shape} does not match n={n}")

        report = validate_structure(alpha, beta, tol=REPAIR_TOL)
        if not report.passed:
            raise StructureDefectError(
                f"structure-constant defect {report.worst_defect:.3e} at {report.worst_index} "
                f"exceeds repair tolerance {REPAIR_TOL:g}"
            )

        self.n = n
        self.alpha = (alpha + alpha.T) / 2.0
        self.beta = (beta + np.conj(np.transpose(beta, (0, 2, 1)))) / 2.0
        # Im of a Hermitized section is exactly antisymmetric:
        # (a - b) / 2 == -((b - a) / 2) in IEEE arithmetic.
        self.theta = self.beta.imag.copy()
        self.re_beta = self.beta.real.copy()
        for arr in (self.alpha, self.beta, self.theta, self.re_beta):
            arr.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, StructureConstants)
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.beta, other.beta)
        )

    def __repr__(self):
        return f"StructureConstants(n={self.n})"


class StructureReport:
    """Result of :func:`validate_structure`; never raises."""

    __slots__ = ("alpha_asymmetry", "beta_nonhermiticity", "theta_defect",
                 "worst_defect", "worst_index", "tol", "passed")

    def __init__(self, alpha_asymmetry, beta_nonhermiticity, theta_defect,
                 worst_defect, worst_index, tol):
        self.alpha_asymmetry = alpha_asymmetry
        self.beta_nonhermiticity = beta_nonhermiticity
        self.theta_defect = theta_defect
        self.worst_defect = worst_defect
        self.worst_index = worst_index
        self.tol = tol
        self.passed = worst_defect <= tol

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"StructureReport({status}, alpha={self.alpha_asymmetry:.3e}, "
                f"beta={self.beta_nonhermiticity:.3e}, theta={self.theta_defect:.3e}, "
                f"worst={self.worst_index})")


def validate_structure(alpha, beta, tol=1e-12):
    """Measure how far (alpha, beta) are from a valid constant set.

    Reports the largest asymmetry of alpha, the largest non-Hermiticity
    over the sections ``beta[l]``, and the largest symmetry defect of their
    imaginary parts, together with the location of the worst offender,
    given as (j, k, l) of beta_jkl.  Passes iff every defect is at most
    ``tol``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=complex)
    n = alpha.shape[0]

    d_alpha = np.abs(alpha - alpha.T)
    alpha_defect = float(d_alpha.max()) if n else 0.0
    a_idx = tuple(int(i) for i in np.unravel_index(int(d_alpha.argmax()),
                                                   d_alpha.shape)) if n else (0, 0)

    d_beta = np.abs(beta - np.conj(np.transpose(beta, (0, 2, 1))))
    beta_defect = float(d_beta.max())
    b_flat = np.unravel_index(int(d_beta.argmax()), d_beta.shape)
    b_idx = (int(b_flat[1]), int(b_flat[2]), int(b_flat[0]))

    theta = beta.imag
    d_theta = np.abs(theta + np.transpose(theta, (0, 2, 1)))
    theta_defect = float(d_theta.max())
    t_flat = np.unravel_index(int(d_theta.argmax()), d_theta.shape)
    t_idx = (int(t_flat[1]), int(t_flat[2]), int(t_flat[0]))

    defects = [
        (alpha_defect, ("alpha",) + a_idx),
        (beta_defect, ("beta",) + b_idx),
        (theta_defect, ("theta",) + t_idx),
    ]
    worst_defect, worst_index = max(defects, key=lambda d: d[0])
    return StructureReport(alpha_defect, beta_defect, theta_defect,
                           worst_defect, worst_index, tol)


def pauli_structure():
    """Structure constants of the three-variable spin algebra.

    alpha is the 3x3 identity and the commutation array consists of the
    Levi-Civita symbols, so beta = i * theta and the diamond product acts
    as the vector cross product.
    """
    theta = np.zeros((3, 3, 3))
    for j, k, ell, sign in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                            (1, 0, 2, -1.0), (2, 1, 0, -1.0), (0, 2, 1, -1.0)):
        theta[ell, j, k] = sign
    return StructureConstants(np.eye(3), 1j * theta)


def _product_table(sc):
    """Table T of the extended basis (I, X_1..X_n), index 0 the identity:
    the product of basis elements i and j is sum_l T[i, j, l] X_l."""
    n = sc.n
    T = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    T[0] = T[:, 0] = np.eye(n + 1)
    T[1:, 1:, 0] = sc.alpha
    T[1:, 1:, 1:] = np.transpose(sc.beta, (1, 2, 0))
    return T


def _table_defects(T, theta):
    """Defects of the identities that every matrix representation satisfies,
    read off the table T of (I, X_1..X_n) alone: associativity, the largest
    |(e_a e_b) e_c - e_a (e_b e_c)|, and the commutation relation, the
    largest |T[j, k] - T[k, j] - 2i theta_jk| over the variables j, k."""
    # For each a, (e_a e_b) e_c = sum_l T[a, b, l] T[l, c, :] and
    # e_a (e_b e_c) = sum_l T[b, c, l] T[a, l, :]; one a at a time keeps
    # memory at order n^3.
    assoc = max(float(np.abs(np.tensordot(Ta, T, 1) - T @ Ta).max()) for Ta in T)
    comm = T[1:, 1:] - np.transpose(T[1:, 1:], (1, 0, 2))
    comm[..., 1:] -= 2j * np.transpose(theta, (1, 2, 0))
    return assoc, float(np.abs(comm).max())
