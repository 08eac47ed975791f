"""The moment trajectory against the GKSL generator of the paper's QSDE on
a matrix representation (see :func:`oracles.gksl_moments`), which uses
neither the structure constants nor the moment formulas."""

import functools

import numpy as np
import pytest

from qmemtime.model import SystemParams
from qmemtime.moments import initial_moments, moment_trajectory, weighting_from_sigma

from dense import fit_structure_constants, qubit_representation, tensor_representation
from oracles import gell_mann_representation, gksl_moments

REPRESENTATIONS = {
    "qubit": qubit_representation,
    "su(3)": lambda: gell_mann_representation(3),
    "two qubits": lambda: tensor_representation(qubit_representation(), qubit_representation()),
}


@functools.lru_cache(maxsize=None)
def _fitted(label):
    rep = REPRESENTATIONS[label]()
    return rep, fit_structure_constants(rep).constants


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("label", list(REPRESENTATIONS))
def test_trajectory_matches_gksl_generator(label, seed):
    rep, sc = _fitted(label)
    n, d = rep.n, rep.d
    rng = np.random.default_rng(seed)
    E, M, N = rng.standard_normal(n), 0.5 * rng.standard_normal((2, n)), 0.3 * rng.standard_normal(2)
    # the mean of a density matrix is admissible
    root = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = root @ root.conj().T
    mu0 = np.einsum("ab,jba->j", rho / np.trace(rho), np.array(rep.X)).real
    F = rng.standard_normal((n, n))
    weights = weighting_from_sigma(F.T @ F / n)
    # 69 steps: two chunks of 32 and one of 5 nodes
    grid = np.linspace(0.0, 3.0, 70)
    traj = moment_trajectory(SystemParams(sc=sc, E=E, M=M, N=N), initial_moments(sc, mu0),
                             weights, grid)
    mu, S, delta = gksl_moments(rep, E, M, N, mu0, weights.Sigma, grid)
    closure = sc.alpha + np.tensordot(traj.mu, sc.beta, axes=1)
    for got, want in ((traj.mu, mu), (closure, S), (traj.Delta, delta)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
