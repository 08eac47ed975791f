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
A three-index array gamma_jkl is stored as a stack of n "sections":
``stack[l]`` is the n-by-n matrix gamma_(..l) with the third index fixed.
``col`` is column-major vectorization, so ``col(2 Theta diamond E)`` equals
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


class SectionArray:
    """A complex n-by-n-by-n array stored as a stack of n sections.

    ``sections[l]`` is the matrix gamma_(..l); accessors expose the other
    two slicing directions so formulas can be transcribed literally.
    """

    __slots__ = ("sections",)

    def __init__(self, sections):
        arr = np.asarray(sections)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected an (n, n, n) section stack, got shape {arr.shape}")
        arr = np.array(arr, dtype=complex if np.iscomplexobj(arr) else float)
        arr.setflags(write=False)
        self.sections = arr

    @property
    def n(self):
        return self.sections.shape[0]

    def section(self, ell):
        """Section gamma_l: the matrix (gamma_jkl)_{jk} with l fixed."""
        return self.sections[ell]

    def mid_slice(self, k):
        """The matrix (gamma_jkl)_{jl} with the middle index k fixed."""
        return self.sections[:, :, k].T

    def first_slice(self, ell):
        """The matrix (gamma_lab)_{ab} with the first index fixed."""
        return self.sections[:, ell, :].T

    def entry(self, j, k, ell):
        return self.sections[ell, j, k]

    def __eq__(self, other):
        return isinstance(other, SectionArray) and np.array_equal(self.sections, other.sections)

    def __repr__(self):
        return f"SectionArray(n={self.n}, dtype={self.sections.dtype})"


def _as_stack(gamma):
    return gamma.sections if isinstance(gamma, SectionArray) else np.asarray(gamma)


def sections_dot(gamma, u):
    """Section-weighted sum: gamma . u = sum_l gamma_l u_l.

    Linear in ``u``; column k of the result equals ``mid_slice(k) @ u``.
    """
    stack = _as_stack(gamma)
    u = np.asarray(u)
    if u.shape != (stack.shape[0],):
        raise ValueError(f"vector length {u.shape} does not match {stack.shape[0]} sections")
    return np.einsum("ljk,l->jk", stack, u)


def sections_diamond(gamma, u):
    """Column-assembled product: gamma <> u = [gamma_1 u, ..., gamma_n u].

    Related to :func:`sections_dot` by (gamma . u) v = (gamma <> v) u for
    commuting numeric vectors.
    """
    stack = _as_stack(gamma)
    u = np.asarray(u)
    if u.shape != (stack.shape[0],):
        raise ValueError(f"vector length {u.shape} does not match {stack.shape[0]} sections")
    return np.einsum("kjl,l->jk", stack, u)


def stack_mho(theta):
    """Vertical stack [Theta_1; ...; Theta_n] of shape (n^2, n).

    Satisfies col(Theta <> (2E)) = 2 mho @ E and
    mho.T @ col(S) = sum_k Theta_k.T @ S[:, k].
    """
    stack = _as_stack(theta)
    n = stack.shape[0]
    return stack.reshape(n * n, n)


class StructureConstants:
    """Constants (alpha, beta) closing the system-variable algebra.

    Parameters
    ----------
    alpha : (n, n) array_like
        Real symmetric coefficient of the identity in each product.
    beta : (n, n, n) array_like or SectionArray
        Stack of complex Hermitian sections beta_l weighting the variables.

    Construction symmetrizes alpha and Hermitizes the beta sections when
    the defect is below ``REPAIR_TOL`` and rejects larger defects.  The
    commutation array ``theta = Im(beta)`` is derived and cached; its
    sections are real antisymmetric.
    """

    __slots__ = ("n", "alpha", "beta", "theta", "re_beta", "mho")

    def __init__(self, alpha, beta):
        alpha = np.array(np.asarray(alpha), dtype=float)
        if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
            raise ValueError(f"alpha must be square, got shape {alpha.shape}")
        n = alpha.shape[0]
        stack = np.array(_as_stack(beta), dtype=complex)
        if stack.shape != (n, n, n):
            raise ValueError(f"beta stack shape {stack.shape} does not match n={n}")

        report = validate_structure(alpha, stack, tol=REPAIR_TOL)
        if not report.passed:
            raise StructureDefectError(
                f"structure-constant defect {report.worst_defect:.3e} at {report.worst_index} "
                f"exceeds repair tolerance {REPAIR_TOL:g}"
            )

        alpha = (alpha + alpha.T) / 2.0
        stack = (stack + np.conj(np.transpose(stack, (0, 2, 1)))) / 2.0

        theta = stack.imag.copy()
        # Antisymmetry of Im(beta_l) follows from Hermiticity; assert it.
        skew_defect = np.abs(theta + np.transpose(theta, (0, 2, 1))).max()
        if skew_defect > 4 * REPAIR_TOL:
            raise StructureDefectError(
                f"commutation sections are not antisymmetric (defect {skew_defect:.3e})"
            )
        theta = (theta - np.transpose(theta, (0, 2, 1))) / 2.0

        self.n = n
        self.alpha = alpha
        self.beta = SectionArray(stack)
        self.theta = SectionArray(theta)
        self.re_beta = SectionArray(stack.real.copy())
        self.mho = stack_mho(self.theta)
        self.alpha.setflags(write=False)
        self.mho.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, StructureConstants)
            and np.array_equal(self.alpha, other.alpha)
            and self.beta == other.beta
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
    over the beta sections, and the largest symmetry defect of the
    imaginary parts, together with the location of the worst offender.
    Passes iff every defect is at most ``tol``.
    """
    alpha = np.asarray(alpha, dtype=float)
    stack = np.asarray(_as_stack(beta), dtype=complex)
    n = alpha.shape[0]

    d_alpha = np.abs(alpha - alpha.T)
    alpha_defect = float(d_alpha.max()) if n else 0.0
    a_idx = tuple(int(i) for i in np.unravel_index(int(d_alpha.argmax()),
                                                   d_alpha.shape)) if n else (0, 0)

    d_beta = np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1))))
    beta_defect = float(d_beta.max())
    b_flat = np.unravel_index(int(d_beta.argmax()), d_beta.shape)
    # Stack layout is (section, row, col); report as (row, col, section).
    b_idx = (int(b_flat[1]), int(b_flat[2]), int(b_flat[0]))

    theta = stack.imag
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
    T[1:, 1:, 1:] = np.transpose(sc.beta.sections, (1, 2, 0))
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
    comm[..., 1:] -= 2j * np.transpose(_as_stack(theta), (1, 2, 0))
    return assoc, float(np.abs(comm).max())
