import numpy as np
import pytest

from qmemtime.algebra import StructureConstants
from qmemtime.errors import RepresentationError
from qmemtime.interconnect import (compose, optimal_direct_coupling,
                                   partition_rk, product_mean)
from qmemtime.model import SystemParams
from qmemtime.moments import (delta_derivatives0, deviation_delta,
                              initial_moments, weighting_from_sigma)
from qmemtime.optimize import optimal_energy, rk_matrices

from dense import (Representation, check_algebra, fit_structure_constants,
                   qubit_representation, tensor_representation)
from oracles import gell_mann_representation, k_kron


@pytest.fixture(scope="module")
def qubit_pair(pauli):
    rng = np.random.default_rng(40)
    sub1 = SystemParams(sc=pauli, E=np.array([0.1, 0.0, 0.2]),
                        M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                        N=np.array([0.0, 0.1]))
    sub2 = SystemParams(sc=pauli, E=np.array([0.0, 0.3, 0.0]),
                        M=0.7 * rng.standard_normal((2, 3)),
                        N=np.array([0.2, 0.0]))
    comp = compose(sub1, sub2, np.zeros(9))
    mu0 = product_mean([0.1, 0.0, 0.2], [0.0, -0.1, 0.3])
    init = initial_moments(comp.as_system().sc, mu0)
    weights = weighting_from_sigma(np.eye(15))
    return comp, init, weights


def test_compose_shapes_and_blocks(qubit_pair):
    comp, _, _ = qubit_pair
    cs = comp.as_system()
    assert cs.n == 15 and cs.m == 4
    b1, b2, b3 = comp.blocks
    assert (b1.stop, b2.stop, b3.stop) == (3, 6, 15)
    # fields act on their own subsystem blocks only
    assert np.all(cs.M[:2, 3:] == 0.0)
    assert np.all(cs.M[2:, :3] == 0.0)
    assert np.all(cs.M[2:, 6:] == 0.0)


def test_compose_alpha_block_structure(qubit_pair):
    comp, _, _ = qubit_pair
    alpha = comp.as_system().sc.alpha
    assert np.abs(alpha - np.eye(15)).max() <= 1e-10  # I3, I3, I3 (x) I3


def test_composite_ccr_verified_against_dense(qubit_pair):
    comp, _, _ = qubit_pair
    rep = tensor_representation(qubit_representation(), qubit_representation())
    report = check_algebra(rep, comp.as_system().sc, tol=1e-10)
    assert report.passed


def test_isolated_composite_is_frozen(pauli):
    sub = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    comp = compose(sub, sub, np.zeros(9))
    cs = comp.as_system()
    init = initial_moments(cs.sc, product_mean([0.2, 0.0, 0.1], [0.0, 0.0, 0.4]))
    w = weighting_from_sigma(np.eye(15))
    delta = deviation_delta(cs, init, w, np.linspace(0.0, 1.0, 5))
    assert np.abs(delta).max() == 0.0


def test_partition_matches_full_rows(qubit_pair):
    comp, init, weights = qubit_pair
    blocks = partition_rk(comp, init, weights)
    R, K = rk_matrices(comp.as_system(), init, weights)
    b3 = comp.blocks[2]
    assert np.array_equal(np.hstack([blocks.R1, blocks.R2, blocks.R12]), R[b3])
    assert np.array_equal(blocks.K12, K[b3])


def test_k12_two_paths_agree(pauli):
    sub = SystemParams(sc=pauli, E=np.zeros(3),
                       M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                       N=np.zeros(2))
    comp = compose(sub, sub, np.zeros(9))
    init = initial_moments(comp.as_system().sc, np.zeros(15))
    w = weighting_from_sigma(np.eye(15))
    blocks = partition_rk(comp, init, w)
    _, K = rk_matrices(comp.as_system(), init, w)
    assert np.abs(blocks.K12 - K[6:]).max() <= 1e-14


def test_composite_k_matches_kron_oracle(qubit_pair):
    comp, init, _ = qubit_pair
    F = np.random.default_rng(41).standard_normal((15, 15))
    weights = weighting_from_sigma(F.T @ F)
    _, K = rk_matrices(comp.as_system(), init, weights)
    ref = k_kron(comp.as_system(), init, weights)
    assert np.abs(K - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_block_weighting_keeps_psd(qubit_pair):
    comp, init, _ = qubit_pair
    sigma = np.zeros((15, 15))
    sigma[:3, :3] = np.eye(3)
    w = weighting_from_sigma(sigma)
    blocks = partition_rk(comp, init, w)
    assert np.linalg.eigvalsh(blocks.R12).min() >= -1e-10


def test_direct_coupling_zero_energies(qubit_pair):
    comp, init, weights = qubit_pair
    blocks = partition_rk(comp, init, weights)
    sol = optimal_direct_coupling(blocks, np.zeros(3), np.zeros(3))
    assert np.array_equal(sol.Q, blocks.K12)
    expected = optimal_energy(blocks.R12, blocks.K12).E_star
    assert np.abs(sol.E12_star - expected).max() == 0.0


def test_direct_coupling_affine_in_energies(qubit_pair):
    comp, init, weights = qubit_pair
    rng = np.random.default_rng(41)
    blocks = partition_rk(comp, init, weights)
    base = optimal_direct_coupling(blocks, comp.E1, comp.E2)
    d1 = rng.standard_normal(3)
    one = optimal_direct_coupling(blocks, comp.E1 + d1, comp.E2)
    two = optimal_direct_coupling(blocks, comp.E1 + 2.0 * d1, comp.E2)
    gap = (two.E12_star - base.E12_star) - 2.0 * (one.E12_star - base.E12_star)
    assert np.abs(gap).max() <= 1e-10


def test_direct_coupling_stationarity_by_finite_differences(qubit_pair):
    comp, init, weights = qubit_pair
    blocks = partition_rk(comp, init, weights)
    sol = optimal_direct_coupling(blocks, comp.E1, comp.E2)
    cs = comp.as_system()
    E_at = np.concatenate([comp.E1, comp.E2, sol.E12_star])
    h = 1e-5
    grad = np.empty(9)
    for k in range(9):
        bump = np.zeros(15)
        bump[6 + k] = h
        _, up = delta_derivatives0(cs.with_energy(E_at + bump), init, weights)
        _, dn = delta_derivatives0(cs.with_energy(E_at - bump), init, weights)
        grad[k] = (up - dn) / (2.0 * h)
    assert np.abs(grad).max() <= 1e-6


def test_reduced_solution_matches_projected_full_problem(qubit_pair):
    comp, init, weights = qubit_pair
    blocks = partition_rk(comp, init, weights)
    sol = optimal_direct_coupling(blocks, comp.E1, comp.E2)
    R, K = rk_matrices(comp.as_system(), init, weights)
    b3 = comp.blocks[2]
    frozen = np.concatenate([comp.E1, comp.E2, np.zeros(9)])
    rhs = -(2.0 * R @ frozen + K)[b3]
    projected = np.linalg.solve(2.0 * R[b3, b3], rhs)
    assert np.abs(projected - sol.E12_star).max() <= 1e-10


def test_composite_derivatives_match_trajectory(qubit_pair):
    comp, init, weights = qubit_pair
    cs = comp.as_system()
    d1, d2 = delta_derivatives0(cs, init, weights)
    hs = np.array([2e-4, 1e-4])
    deltas = deviation_delta(cs, init, weights, np.concatenate([[0.0], hs[::-1]]))[1:][::-1]
    d1_fd = deltas / hs - 0.5 * d2 * hs
    assert np.abs(d1_fd - d1).max() <= 1e-4 * max(1.0, abs(d1))


def test_product_mean_layout():
    mu = product_mean([1.0, 2.0], [3.0, 4.0, 5.0])
    assert np.array_equal(mu[:2], [1.0, 2.0])
    assert np.array_equal(mu[2:5], [3.0, 4.0, 5.0])
    assert np.array_equal(mu[5:], np.kron([1.0, 2.0], [3.0, 4.0, 5.0]))


def test_compose_requires_known_representation(pauli):
    theta = pauli.theta.copy()
    sc = StructureConstants(2.0 * np.eye(3), 1j * theta)  # rescaled, not spin
    sub = SystemParams(sc=sc, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    with pytest.raises(RepresentationError):
        compose(sub, sub, np.zeros(9))


def _assert_matches_dense_fit(sc1, sc2, rep1, rep2):
    sub1 = SystemParams(sc=sc1, E=np.zeros(sc1.n), M=np.zeros((2, sc1.n)), N=np.zeros(2))
    sub2 = SystemParams(sc=sc2, E=np.zeros(sc2.n), M=np.zeros((2, sc2.n)), N=np.zeros(2))
    closed = compose(sub1, sub2, np.zeros(sc1.n * sc2.n)).as_system().sc
    fit = fit_structure_constants(tensor_representation(rep1, rep2)).constants
    assert closed.n == fit.n == sc1.n + sc2.n + sc1.n * sc2.n
    assert np.abs(closed.alpha - fit.alpha).max() <= 1e-10
    assert np.abs(closed.beta - fit.beta).max() <= 1e-10


def test_compose_matches_dense_fit_qubit_pair(pauli):
    q = qubit_representation()
    _assert_matches_dense_fit(pauli, pauli, q, q)


def test_compose_matches_dense_fit_qubit_qutrit(pauli):
    gm = gell_mann_representation(3)
    qutrit = fit_structure_constants(gm).constants
    _assert_matches_dense_fit(pauli, qutrit, qubit_representation(), gm)


def test_compose_rescaled_spin(pauli):
    """X' = cX is associative but not the spin algebra, so it composes."""
    c = 2.0
    sc = StructureConstants(c * c * np.eye(3), c * pauli.beta)
    rep = Representation(tuple(c * x for x in qubit_representation().X))
    _assert_matches_dense_fit(sc, sc, rep, rep)


def test_compose_rejects_bad_coupling_shape(pauli):
    sub = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    with pytest.raises(ValueError):
        compose(sub, sub, np.zeros(8))
