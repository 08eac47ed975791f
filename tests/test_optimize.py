import numpy as np
import pytest

from qmemtime.decoherence import CrossingOptions, decoherence_time
from qmemtime.errors import StationarityError
from qmemtime.interconnect import (compose, optimal_direct_coupling,
                                   partition_rk, product_mean)
from qmemtime.model import SystemParams, lambda_matrix
from qmemtime.moments import (delta_derivatives0, initial_moments,
                              weighting_from_sigma)
from qmemtime.optimize import optimal_energy, rk_matrices

from oracles import gradient_check, k_kron, tau_energy_gradient


def test_rk_worked_example(worked):
    R, K = rk_matrices(worked.sys, worked.init, worked.weights)
    assert np.abs(R - 2.0 * np.eye(3)).max() <= 1e-12
    assert np.abs(K).max() <= 1e-12


def test_k_assembly_from_parts(worked):
    # Atilde P + Re Lambda(0) / 2 + b mu0^T vanishes entry by entry here
    parts = (worked.co.Atilde @ worked.init.P
             + 0.5 * lambda_matrix(worked.sys, worked.init.mu0).real
             + np.outer(worked.co.b, worked.init.mu0))
    assert np.abs(parts).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k_matches_kron_oracle(make_instance, seed):
    rng = np.random.default_rng(seed)
    sys, init = make_instance(rng)
    assert np.abs(init.mu0).min() > 0.0
    F = rng.standard_normal((3, 3))
    weights = weighting_from_sigma(F.T @ F)
    _, K = rk_matrices(sys, init, weights)
    ref = k_kron(sys, init, weights)
    assert np.abs(K - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_k_zero_without_coupling(pauli, worked):
    sys = SystemParams(sc=pauli, E=np.array([0.3, -0.2, 0.5]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    R, K = rk_matrices(sys, worked.init, worked.weights)
    assert np.abs(K).max() == 0.0
    R_ref, _ = rk_matrices(worked.sys, worked.init, worked.weights)
    assert np.abs(R - R_ref).max() == 0.0


def test_r_independent_of_energy_and_coupling(pauli, worked):
    rng = np.random.default_rng(30)
    R_ref, _ = rk_matrices(worked.sys, worked.init, worked.weights)
    for _ in range(5):
        sys = SystemParams(sc=pauli, E=rng.standard_normal(3),
                           M=rng.standard_normal((4, 3)),
                           N=rng.standard_normal(4))
        R, _ = rk_matrices(sys, worked.init, worked.weights)
        assert np.abs(R - R_ref).max() == 0.0


def test_rk_independent_of_probe_energy(worked):
    R1, K1 = rk_matrices(worked.sys, worked.init, worked.weights)
    R2, K2 = rk_matrices(worked.sys.with_energy(np.array([1.0, -2.0, 3.0])),
                         worked.init, worked.weights)
    assert np.abs(R1 - R2).max() == 0.0
    assert np.abs(K1 - K2).max() == 0.0


def test_optimal_energy_worked(worked):
    od = optimal_energy(worked.R, worked.K)
    assert np.abs(od.E_star).max() == 0.0
    assert od.zero_energy_optimal
    assert od.unique
    assert od.residual == 0.0


def test_optimal_energy_diagonal_solve():
    od = optimal_energy(2.0 * np.eye(3), np.array([2.0, 0.0, 0.0]))
    assert np.abs(od.E_star - np.array([-0.5, 0.0, 0.0])).max() <= 1e-14
    assert not od.zero_energy_optimal


def test_optimal_energy_singular_minimum_norm():
    od = optimal_energy(np.diag([2.0, 2.0, 0.0]), np.array([2.0, 0.0, 0.0]))
    assert np.abs(od.E_star - np.array([-0.5, 0.0, 0.0])).max() <= 1e-12
    assert not od.unique
    assert od.null_dim == 1


def test_optimal_energy_infeasible_raises():
    with pytest.raises(StationarityError):
        optimal_energy(np.diag([2.0, 2.0, 0.0]), np.array([0.0, 0.0, 1.0]))


def test_gradient_identity_worked(worked):
    report = gradient_check(worked.sys, worked.init, worked.weights,
                            np.array([0.0, 0.0, 1.0]))
    assert np.abs(report.analytic - np.array([0.0, 0.0, 32.0])).max() <= 1e-12
    assert report.max_rel_dev <= 1e-5


def test_gradient_vanishes_at_stationary_point(worked):
    R, K = rk_matrices(worked.sys, worked.init, worked.weights)
    od = optimal_energy(R, K)
    report = gradient_check(worked.sys, worked.init, worked.weights, od.E_star)
    assert np.abs(report.numeric).max() <= 1e-6 * max(
        1.0, np.abs(report.analytic).max())


def test_gradient_identity_random_instances(make_instance):
    rng = np.random.default_rng(31)
    for _ in range(10):
        sys, init = make_instance(rng)
        sigma = rng.standard_normal((3, 3))
        w = weighting_from_sigma(sigma @ sigma.T + 0.5 * np.eye(3))
        report = gradient_check(sys, init, w, rng.standard_normal(3))
        assert report.max_rel_dev <= 1e-5


def test_hessian_matches_curvature(worked, make_instance):
    rng = np.random.default_rng(32)
    sys, init = make_instance(rng)
    w = weighting_from_sigma(np.eye(3))
    R, _ = rk_matrices(sys, init, w)
    h = 1e-4
    H = np.empty((3, 3))

    def ddot(E):
        return delta_derivatives0(sys.with_energy(E), init, w)[1]

    E0 = rng.standard_normal(3)
    for j in range(3):
        for k in range(3):
            ej = np.zeros(3); ej[j] = h
            ek = np.zeros(3); ek[k] = h
            H[j, k] = (ddot(E0 + ej + ek) - ddot(E0 + ej - ek)
                       - ddot(E0 - ej + ek) + ddot(E0 - ej - ek)) / (4 * h * h)
    assert np.abs(H - 16.0 * R).max() <= 1e-4 * max(1.0, np.abs(16.0 * R).max())


def test_stationary_point_is_global_minimum(make_instance):
    rng = np.random.default_rng(33)
    sys, init = make_instance(rng)
    w = weighting_from_sigma(np.eye(3))
    R, K = rk_matrices(sys, init, w)
    od = optimal_energy(R, K)
    base = delta_derivatives0(sys.with_energy(od.E_star), init, w)[1]
    for _ in range(50):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        assert base <= delta_derivatives0(
            sys.with_energy(od.E_star + d), init, w)[1] + 1e-10


def test_zero_k_means_zero_energy_stationary(worked):
    R, K = rk_matrices(worked.sys, worked.init, worked.weights)
    assert np.abs(K).max() <= 1e-12
    report = gradient_check(worked.sys, worked.init, worked.weights, np.zeros(3))
    assert np.abs(report.numeric).max() <= 1e-8


def test_tau_gradient_matches_central_differences(make_instance):
    sys, init = make_instance(np.random.default_rng(3))
    w = weighting_from_sigma(np.eye(3))
    opts, h = CrossingOptions(tol=1e-14), 1e-4
    numeric = np.empty(3)
    for k in range(3):
        bump = np.zeros(3)
        bump[k] = h
        up, dn = (decoherence_time(sys.with_energy(sys.E + s * bump), init, w, 0.1, opts).value
                  for s in (1.0, -1.0))
        numeric[k] = (up - dn) / (2.0 * h)
    exact = tau_energy_gradient(sys, init, w, 0.1)
    assert np.abs(exact - numeric).max() <= 1e-4 * np.abs(exact).max()


def _tau_gradient_ratios(sys, init, w, E, block=slice(None)):
    """max |dtau/dE| over ``block`` at eps 0.02 over that at 0.01, and at
    0.01 over that at 0.005."""
    g = [np.abs(tau_energy_gradient(sys.with_energy(E), init, w, eps)[block]).max()
         for eps in (0.02, 0.01, 0.005)]
    return g[0] / g[1], g[1] / g[2]


def _perfbench_composite(pauli):
    """The two-qubit composite of the benchmark's composite workload."""
    sub1 = SystemParams(sc=pauli, E=np.array([0.1, 0.0, 0.2]),
                        M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), N=np.array([0.0, 0.1]))
    sub2 = SystemParams(sc=pauli, E=np.array([0.0, 0.3, 0.0]),
                        M=0.7 * np.random.default_rng(0).standard_normal((2, 3)),
                        N=np.array([0.2, 0.0]))
    comp = compose(sub1, sub2, np.zeros(9))
    init = initial_moments(comp.system.sc, product_mean([0.1, 0.0, 0.2], [0.0, -0.1, 0.3]))
    return comp, init, weighting_from_sigma(np.eye(comp.system.n))


def test_optimum_is_stationary_for_exact_tau_to_its_order(make_instance, pauli):
    # tau - tau_hat is O(eps^3) and only the eps^2 term of tau_hat depends on
    # E, so at its optimum dtau/dE is O(eps^3), against O(eps^2) elsewhere
    sys, init = make_instance(np.random.default_rng(3))
    w = weighting_from_sigma(np.eye(3))
    E_star = optimal_energy(*rk_matrices(sys, init, w)).E_star
    assert min(_tau_gradient_ratios(sys, init, w, E_star)) > 6.0
    assert all(3.0 <= r <= 5.5 for r in _tau_gradient_ratios(sys, init, w, np.zeros(3)))

    comp, init, w = _perfbench_composite(pauli)
    E12_star = optimal_direct_coupling(partition_rk(comp, init, w), comp.E1, comp.E2).E12_star
    product = comp.blocks[2]
    for E12, low, high in ((E12_star, 6.0, np.inf), (np.zeros(9), 3.0, 5.5)):
        E = np.concatenate([comp.E1, comp.E2, E12])
        assert all(low <= r <= high
                   for r in _tau_gradient_ratios(comp.system, init, w, E, product))


def test_zero_k_energy_is_stationary_for_exact_tau(worked):
    # W_tau is diagonal on the variables and each D_l has a zero diagonal,
    # so every tr(W_tau D_l) is a sum of exact zeros
    assert optimal_energy(*rk_matrices(worked.sys, worked.init, worked.weights)).zero_energy_optimal
    for eps in (0.02, 0.01, 0.005):
        grad = tau_energy_gradient(worked.sys, worked.init, worked.weights, eps)
        assert np.abs(grad).max() == 0.0
