"""Explicit matrix representations, the tests' brute-force ground truth.

Everything the algebraic layer claims about structure constants can be
checked against a concrete family of Hermitian matrices: products and
commutators are evaluated literally, and the constants are recovered by
entrywise least squares over the matrix space.  The two-system composite
variables are built here as well, as Kronecker embeddings.  The package
itself checks constants from their product table and builds no matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qmemtime.algebra import StructureConstants
from qmemtime.errors import DomainError, RepresentationError

HERMITICITY_TOL = 1e-12


class DegenerateBasisError(DomainError):
    """The matrices (I, X_1..X_n) are linearly dependent; the fit is singular."""


@dataclass(frozen=True)
class Representation:
    """A family of Hermitian d-by-d matrices standing in for the variables."""

    X: tuple
    label: str = ""

    def __post_init__(self):
        mats = tuple(np.asarray(x, dtype=complex) for x in self.X)
        for i, x in enumerate(mats):
            if x.ndim != 2 or x.shape[0] != x.shape[1]:
                raise ValueError(f"variable {i} is not square: shape {x.shape}")
            if x.shape != mats[0].shape:
                raise ValueError("all variables must share one matrix dimension")
            if np.abs(x - x.conj().T).max() > HERMITICITY_TOL:
                raise ValueError(f"variable {i} is not Hermitian within {HERMITICITY_TOL:g}")
        object.__setattr__(self, "X", mats)

    @property
    def d(self):
        return self.X[0].shape[0]

    @property
    def n(self):
        return len(self.X)


def qubit_representation():
    """The three spin matrices on C^2."""
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    s3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return Representation((s1, s2, s3), label="qubit")


def tensor_representation(r1, r2):
    """Composite variables of two families on the joint space.

    The n1 + n2 + n1*n2 variables are, in order: X_j x I, I x X_k, and the
    products X_j x X_k with (j, k) in row-major order, so entry
    n1 + n2 + (j*n2 + k) of the stack is X_j^(1) x X_k^(2).  The first two
    blocks commute with each other by construction.
    """
    d1, d2 = r1.d, r2.d
    i1, i2 = np.eye(d1), np.eye(d2)
    block1 = [np.kron(x, i2) for x in r1.X]
    block2 = [np.kron(i1, x) for x in r2.X]
    block12 = [np.kron(xj, xk) for xj in r1.X for xk in r2.X]
    label = f"{r1.label or 'sys1'}(x){r2.label or 'sys2'}"
    return Representation(tuple(block1 + block2 + block12), label=label)


@dataclass(frozen=True)
class StructureFit:
    """Recovered constants together with the worst product residual."""

    constants: StructureConstants
    residual: float


def fit_structure_constants(rep, residual_tol=1e-10):
    """Recover (alpha, beta) from a representation by least squares.

    Each product X_j X_k is regressed onto the basis (I, X_1, ..., X_n)
    over the d^2-dimensional matrix space.  The recovered alpha is
    symmetrized and the beta sections Hermitized; the reported residual
    is the largest entrywise reconstruction error measured with the
    repaired constants.

    Raises
    ------
    DegenerateBasisError
        If (I, X_1..X_n) are linearly dependent.
    RepresentationError
        If the residual exceeds ``residual_tol`` (products do not lie in
        the affine span of the variables).
    """
    n, d = rep.n, rep.d
    basis = np.empty((d * d, n + 1), dtype=complex)
    basis[:, 0] = np.eye(d).reshape(-1)
    for k, x in enumerate(rep.X):
        basis[:, k + 1] = x.reshape(-1)

    rank = np.linalg.matrix_rank(basis, tol=1e-10 * max(1.0, np.abs(basis).max()))
    if rank < n + 1:
        raise DegenerateBasisError(
            f"variables and identity span only {rank} of {n + 1} dimensions"
        )

    rhs = np.empty((d * d, n * n), dtype=complex)
    for j in range(n):
        for k in range(n):
            rhs[:, j * n + k] = (rep.X[j] @ rep.X[k]).reshape(-1)
    coef, *_ = np.linalg.lstsq(basis, rhs, rcond=None)

    alpha = coef[0].reshape(n, n).real
    alpha = (alpha + alpha.T) / 2.0
    stack = np.empty((n, n, n), dtype=complex)
    for ell in range(n):
        sec = coef[ell + 1].reshape(n, n)
        stack[ell] = (sec + sec.conj().T) / 2.0

    sc = StructureConstants(alpha, stack)
    report = check_algebra(rep, sc, tol=residual_tol)
    if report.product_error > residual_tol:
        raise RepresentationError(
            f"products leave the affine span of the variables "
            f"(residual {report.product_error:.3e} > {residual_tol:g})"
        )
    return StructureFit(sc, report.product_error)


@dataclass(frozen=True)
class AlgebraReport:
    """Worst-case errors of the product and commutator identities."""

    product_error: float
    ccr_error: float
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed",
                           self.product_error <= self.tol and self.ccr_error <= self.tol)


def check_algebra(rep, sc, tol=1e-10):
    """Verify the product closure and commutation relations of ``rep``.

    Reports the max over (j, k) of the entrywise norms of
    ``X_j X_k - alpha_jk I - sum_l beta_jkl X_l`` and of
    ``[X_j, X_k] - 2i sum_l theta_jkl X_l``; passes iff both are <= tol.
    """
    n, d = rep.n, rep.d
    if sc.n != n:
        raise ValueError(f"representation has {n} variables but constants have {sc.n}")
    eye = np.eye(d)
    beta = sc.beta
    theta = sc.theta

    prod_err = 0.0
    ccr_err = 0.0
    for j in range(n):
        for k in range(n):
            affine = sc.alpha[j, k] * eye
            comm_affine = np.zeros((d, d), dtype=complex)
            for ell in range(n):
                affine = affine + beta[ell, j, k] * rep.X[ell]
                comm_affine = comm_affine + 2j * theta[ell, j, k] * rep.X[ell]
            prod = rep.X[j] @ rep.X[k]
            comm = prod - rep.X[k] @ rep.X[j]
            prod_err = max(prod_err, float(np.abs(prod - affine).max()))
            ccr_err = max(ccr_err, float(np.abs(comm - comm_affine).max()))
    return AlgebraReport(prod_err, ccr_err, tol)
