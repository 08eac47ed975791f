import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# In CI (GitHub Actions sets CI), property tests draw the same examples on
# every run and print the blob that replays a failure locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

from qmemtime.algebra import pauli_structure
from qmemtime.model import SystemParams, coefficients
from qmemtime.moments import initial_moments, weighting_from_sigma


@pytest.fixture(scope="session")
def pauli():
    return pauli_structure()


class WorkedExample:
    """Three-variable spin system with two field channels coupled to the
    first two variables, zero energy and offsets, zero initial mean, and
    identity weighting.  Expected values were each confirmed against the
    independent oracles in oracles.py before being frozen here."""

    A = np.diag([-2.0, -2.0, -4.0])
    b = np.array([0.0, 0.0, 4.0])
    re_lambda0 = np.diag([4.0, 4.0, 8.0])
    lambda0 = np.array([[4.0, 4.0j, 0.0],
                        [-4.0j, 4.0, 0.0],
                        [0.0, 0.0, 8.0]])
    lambda_dot0 = np.diag([0.0, 0.0, -32.0])
    delta_dot0 = 16.0
    delta_ddot0 = -48.0
    tau_prime0 = 3.0 / 16.0
    tau_second0 = 27.0 / 256.0
    R = 2.0 * np.eye(3)
    K = np.zeros(3)
    mu_inf = np.array([0.0, 0.0, 1.0])
    re_lambda_inf = np.diag([4.0, 4.0, 0.0])
    P_inf = np.diag([1.0, 1.0, 0.0])
    delta_inf = 6.0

    def __init__(self, sc):
        self.sc = sc
        self.M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        self.sys = SystemParams(sc=sc, E=np.zeros(3), M=self.M, N=np.zeros(2))
        self.init = initial_moments(sc, np.zeros(3))
        self.weights = weighting_from_sigma(np.eye(3))
        self.co = coefficients(self.sys)


@pytest.fixture(scope="session")
def worked(pauli):
    return WorkedExample(pauli)


def random_instance(sc, rng, m=2, coupling_scale=1.0, mean_scale=0.8):
    """A random admissible spin-structure instance (system, init)."""
    E = rng.standard_normal(sc.n)
    M = coupling_scale * rng.standard_normal((m, sc.n))
    N = 0.5 * rng.standard_normal(m)
    mu0 = rng.standard_normal(sc.n)
    mu0 *= mean_scale / max(1.0, np.linalg.norm(mu0))
    sys = SystemParams(sc=sc, E=E, M=M, N=N)
    return sys, initial_moments(sc, mu0)


@pytest.fixture
def marched_nodes(monkeypatch):
    """The node counts of the DeviationMarch.first_crossing calls made while
    the test runs."""
    from qmemtime.propagate import DeviationMarch
    runs = []
    find = DeviationMarch.first_crossing
    monkeypatch.setattr(DeviationMarch, "first_crossing",
                        lambda self, nodes, *a: runs.append(nodes) or find(self, nodes, *a))
    return runs


@pytest.fixture(scope="session")
def make_instance(pauli):
    def _make(rng, **kw):
        return random_instance(pauli, rng, **kw)
    return _make
