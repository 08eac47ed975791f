"""Two systems joined by a direct energy coupling.

The composite carries n1 + n2 + n1*n2 variables: each subsystem's own,
plus their pairwise products, whose energy weights form the direct
coupling vector E12.  The joint structure constants follow in closed form
from the subsystem constants, because (X_j x Y_k)(X_a x Y_b) =
(X_j X_a) x (Y_k Y_b); any two subsystems with associative constants
compose.  The joint coupling parameters embed each subsystem's (M, N) on
its own block so fields act locally.  The optimal E12 solves the reduced
stationarity system 2 R12 E12 + Q = 0 with Q = K12 + 2(R1 E1 + R2 E2)
read off the composite's full (R, K).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import ASSOCIATIVITY_TOL, StructureConstants, _associativity_defect, _product_table
from .errors import RepresentationError
from .model import SystemParams
from .optimize import optimal_energy, rk_matrices


@dataclass(frozen=True)
class CompositeSystem:
    """A validated composite with its joint constants and block layout."""

    sub1: SystemParams
    sub2: SystemParams
    system: SystemParams

    @property
    def n1(self):
        return self.sub1.n

    @property
    def n2(self):
        return self.sub2.n

    @property
    def blocks(self):
        """Index ranges of the (sub1, sub2, product) variable blocks."""
        n1, n2 = self.n1, self.n2
        return (slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, n1 + n2 + n1 * n2))

    @property
    def E1(self):
        return self.system.E[self.blocks[0]]

    @property
    def E2(self):
        return self.system.E[self.blocks[1]]

    def as_system(self):
        """The composite as an ordinary system for all downstream analysis."""
        return self.system


def _joint_table(T1, T2):
    """Product table of the extended composite basis (I x I, X_j x I,
    I x Y_k, X_j x Y_k), (j, k) row-major, from the subsystem tables:
    (x y)(x' y') = (x x') (y y') for commuting subsystem factors."""
    n1, n2 = T1.shape[0] - 1, T2.shape[0] - 1
    # Each composite basis element as a pair (a, b) of subsystem basis indices.
    a = np.r_[0, 1:n1 + 1, np.zeros(n2, int), np.repeat(np.arange(1, n1 + 1), n2)]
    b = np.r_[0, np.zeros(n1, int), 1:n2 + 1, np.tile(np.arange(1, n2 + 1), n1)]
    return T1[np.ix_(a, a, a)] * T2[np.ix_(b, b, b)]


def compose(sub1, sub2, E12):
    """Build the direct-energy-coupled composite of two systems.

    The joint product table over the extended basis (I, X_1..X_n) is the
    Kronecker product of the subsystem tables, taken in the variable layout
    (X_j x I, I x Y_k, X_j x Y_k) with (j, k) row-major.  A subsystem whose
    table fails :func:`~qmemtime.algebra._associativity_defect` raises
    RepresentationError; no matrix representation is built.  The joint
    coupling matrix places M1 and M2 on the subsystem blocks with exact
    zeros elsewhere, and the joint Ito matrix is block diagonal over the
    two field families by construction.
    """
    n1, n2 = sub1.n, sub2.n
    n = n1 + n2 + n1 * n2
    m1, m2 = sub1.m, sub2.m
    E12 = np.asarray(E12, dtype=float)
    if E12.shape != (n1 * n2,):
        raise ValueError(f"direct coupling vector has shape {E12.shape}, "
                         f"expected ({n1 * n2},)")

    T1, T2 = _product_table(sub1.sc), _product_table(sub2.sc)
    for label, T in (("sub1", T1), ("sub2", T2)):
        defect = _associativity_defect(T)
        if defect > ASSOCIATIVITY_TOL:
            raise RepresentationError(f"{label} constants are not associative "
                                      f"(relative defect {defect:.3e})")
    T = _joint_table(T1, T2)
    sc = StructureConstants(T[1:, 1:, 0].real, np.transpose(T[1:, 1:, 1:], (2, 0, 1)))

    E = np.concatenate([sub1.E, sub2.E, E12])
    M = np.zeros((m1 + m2, n))
    M[:m1, :n1] = sub1.M
    M[m1:, n1:n1 + n2] = sub2.M
    N = np.concatenate([sub1.N, sub2.N])

    system = SystemParams(sc=sc, E=E, M=M, N=N)
    return CompositeSystem(sub1=sub1, sub2=sub2, system=system)


def product_mean(mu01, mu02):
    """Composite initial mean of two uncorrelated subsystems.

    The product-block means are the outer products of the subsystem
    means, the canonical admissible choice; admissibility of the result
    is still checked where the mean enters the moment dynamics.
    """
    mu01 = np.asarray(mu01, dtype=float)
    mu02 = np.asarray(mu02, dtype=float)
    return np.concatenate([mu01, mu02, np.kron(mu01, mu02)])


@dataclass(frozen=True)
class BlockOptimality:
    """Bottom block row of the composite (R, K) and the reduced solution."""

    R1: np.ndarray
    R2: np.ndarray
    R12: np.ndarray
    K12: np.ndarray
    Q: np.ndarray = None
    E12_star: np.ndarray = None
    residual: float = None
    unique: bool = None
    null_dim: int = None


def partition_rk(composite, init, weights):
    """Extract (R1, R2, R12, K12) from the composite's full (R, K)."""
    R, K = rk_matrices(composite.as_system(), init, weights)
    b1, b2, b3 = composite.blocks
    return BlockOptimality(R1=R[b3, b1], R2=R[b3, b2], R12=R[b3, b3], K12=K[b3])


def optimal_direct_coupling(blocks, E1, E2):
    """Solve 2 R12 E12 + Q = 0 with Q = K12 + 2(R1 E1 + R2 E2).

    Positive definite R12 gives the unique solution -R12^{-1} Q / 2;
    singular R12 is handled exactly as in :func:`optimal_energy`
    (minimum norm, flagged non-unique).  The solution is affine in
    (E1, E2) through Q.
    """
    E1 = np.asarray(E1, dtype=float)
    E2 = np.asarray(E2, dtype=float)
    Q = blocks.K12 + 2.0 * (blocks.R1 @ E1 + blocks.R2 @ E2)
    od = optimal_energy(blocks.R12, Q)
    return replace(blocks, Q=Q, E12_star=od.E_star, residual=od.residual,
                   unique=od.unique, null_dim=od.null_dim)
