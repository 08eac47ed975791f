"""Acceptance suite: one test per shipped criterion, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside the pytest verdicts.
"""

import functools

import numpy as np

from qmemtime.algebra import sections_diamond
from qmemtime.decoherence import decoherence_time, tau_expansion
from qmemtime.interconnect import (compose, optimal_direct_coupling,
                                   partition_rk, product_mean)
from qmemtime.linalg import spectral_norm
from qmemtime.model import SystemParams, coefficients, lambda_matrix
from qmemtime.moments import (delta_derivatives0, deviation_delta,
                              initial_moments, mean_limit,
                              second_moment_V, steady_state,
                              weighting_from_sigma)
from qmemtime.optimize import gradient_check, optimal_energy, rk_matrices

from conftest import random_instance
from dense import (check_algebra, fit_structure_constants,
                   qubit_representation, tensor_representation)
from oracles import v_quadrature


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d}: FAIL  {title}")
                raise
            print(f"criterion {num:2d}: PASS  {title}")
        return run
    return deco


@criterion(1, "spin structure constants recovered from the qubit matrices")
def test_criterion_1_pauli_golden(pauli):
    fit = fit_structure_constants(qubit_representation())
    assert np.abs(fit.constants.alpha - np.eye(3)).max() <= 1e-12
    assert np.abs(fit.constants.beta - pauli.beta).max() <= 1e-12


@criterion(2, "algebra and commutation checks, qubit and two-qubit composite")
def test_criterion_2_algebra_oracle(pauli):
    assert check_algebra(qubit_representation(), pauli, tol=1e-12).passed
    joint = tensor_representation(qubit_representation(), qubit_representation())
    fit = fit_structure_constants(joint)
    assert check_algebra(joint, fit.constants, tol=1e-10).passed
    alpha = fit.constants.alpha
    assert np.abs(alpha - np.eye(15)).max() <= 1e-10  # diag(a1, a2, a1 (x) a2)
    assert np.abs(alpha[:3, 3:]).max() <= 1e-12
    assert np.abs(alpha[3:6, 6:]).max() <= 1e-12


@criterion(3, "diamond product acts as the cross product")
def test_criterion_3_cross_product(pauli):
    rng = np.random.default_rng(101)
    for _ in range(100):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        err = np.abs(sections_diamond(pauli.theta, u) @ v - np.cross(u, v)).max()
        assert err <= 1e-12


@criterion(4, "isolated drift orthogonal to energy with imaginary spectrum")
def test_criterion_4_isolated_invariants(pauli):
    rng = np.random.default_rng(102)
    for _ in range(100):
        E = rng.standard_normal(3)
        sys = SystemParams(sc=pauli, E=E, M=np.zeros((2, 3)), N=np.zeros(2))
        A0 = coefficients(sys).A0
        assert np.abs(E @ A0).max() <= 1e-12
        eigs = np.linalg.eigvals(A0)
        scale = max(1.0, np.abs(eigs).max())
        assert np.abs(eigs.real).max() <= 1e-9 * scale
        assert np.abs(eigs).min() <= 1e-9 * scale
        for lam in eigs:
            assert np.abs(eigs + lam).min() <= 1e-9 * scale


@criterion(5, "worked example: drift, offset, diffusion, derivatives, optimum, limits")
def test_criterion_5_worked_example(worked):
    co, init, weights = worked.co, worked.init, worked.weights
    assert np.abs(co.A - worked.A).max() <= 1e-10
    assert np.abs(co.b - worked.b).max() <= 1e-10
    lam0 = lambda_matrix(worked.sys, init.mu0)
    assert np.abs(lam0.real - worked.re_lambda0).max() <= 1e-10

    d1, d2 = delta_derivatives0(worked.sys, init, weights)
    assert abs(d1 - worked.delta_dot0) <= 1e-6
    assert abs(d2 - worked.delta_ddot0) <= 1e-6

    expn = tau_expansion(worked.sys, init, weights)
    assert abs(expn.tau_prime0 - worked.tau_prime0) <= 1e-6
    assert abs(expn.tau_second0 - worked.tau_second0) <= 1e-6

    R, K = rk_matrices(worked.sys, init, weights)
    assert np.abs(R - worked.R).max() <= 1e-10
    assert np.abs(K - worked.K).max() <= 1e-10
    assert optimal_energy(R, K).zero_energy_optimal

    assert np.abs(mean_limit(co) - worked.mu_inf).max() <= 1e-10
    ss = steady_state(worked.sys, init, weights)
    assert np.abs(ss.P_inf - worked.P_inf).max() <= 1e-10
    assert abs(ss.Delta_inf - worked.delta_inf) <= 1e-10


@criterion(6, "Lyapunov-ODE second moment matches the quadrature oracle")
def test_criterion_6_ode_vs_quadrature(pauli):
    rng = np.random.default_rng(103)
    checked = 0
    for _ in range(10):
        sys, init = random_instance(pauli, rng, coupling_scale=0.6)
        h = 0.01 / max(1.0, spectral_norm(coefficients(sys).A))
        grid = np.array([0.0, 0.5, 1.25, 2.0])
        V = second_moment_V(sys, init, grid)
        for i, t in enumerate(grid[1:], start=1):
            Vq = v_quadrature(sys, init, t, int(np.ceil(t / (h / 2.0))))
            rel = np.linalg.norm(V[i] - Vq) / max(np.linalg.norm(Vq), 1e-12)
            assert rel <= 1e-6
            checked += 1
    assert checked == 30


@criterion(7, "short-time Taylor remainder of the deviation stays cubic")
def test_criterion_7_taylor_consistency(worked):
    ratios = []
    for h in (1e-2, 5e-3, 2.5e-3):
        d = deviation_delta(worked.sys, worked.init, worked.weights,
                            np.array([0.0, h]))[-1]
        ratios.append((d - worked.delta_dot0 * h
                       - 0.5 * worked.delta_ddot0 * h * h) / h ** 3)
    assert (max(ratios) - min(ratios)) / abs(np.mean(ratios)) <= 0.20


@criterion(8, "energy gradient identity against central differences")
def test_criterion_8_gradient_identity(pauli):
    rng = np.random.default_rng(104)
    for _ in range(25):
        sys, init = random_instance(pauli, rng)
        sigma = rng.standard_normal((3, 3))
        weights = weighting_from_sigma(sigma @ sigma.T + 0.3 * np.eye(3))
        report = gradient_check(sys, init, weights, rng.standard_normal(3))
        assert report.max_rel_dev <= 1e-5


@criterion(9, "stationary energy is the global minimum of the quadratic growth")
def test_criterion_9_optimality(pauli):
    rng = np.random.default_rng(105)
    for _ in range(10):
        sys, init = random_instance(pauli, rng)
        weights = weighting_from_sigma(np.eye(3))
        R, K = rk_matrices(sys, init, weights)
        od = optimal_energy(R, K)
        if np.linalg.eigvalsh(R).min() > 1e-10:
            assert od.residual <= 1e-10
        base = delta_derivatives0(sys.with_energy(od.E_star), init, weights)[1]
        for _ in range(50):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            other = delta_derivatives0(sys.with_energy(od.E_star + d),
                                       init, weights)[1]
            assert base <= other + 1e-10


@criterion(10, "two-qubit direct-coupling optimum: gradient, assembly, affinity")
def test_criterion_10_direct_coupling(pauli):
    rng = np.random.default_rng(106)
    sub1 = SystemParams(sc=pauli, E=np.array([0.1, 0.0, 0.2]),
                        M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                        N=np.array([0.0, 0.1]))
    sub2 = SystemParams(sc=pauli, E=np.array([0.0, 0.3, 0.0]),
                        M=0.7 * rng.standard_normal((2, 3)),
                        N=np.array([0.2, 0.0]))
    comp = compose(sub1, sub2, np.zeros(9))
    cs = comp.as_system()
    init = initial_moments(cs.sc, product_mean([0.1, 0.0, 0.2], [0.0, -0.1, 0.3]))
    weights = weighting_from_sigma(np.eye(15))

    blocks = partition_rk(comp, init, weights)
    sol = optimal_direct_coupling(blocks, comp.E1, comp.E2)

    # Q assembled through the full stationarity system
    R, K = rk_matrices(cs, init, weights)
    frozen = np.concatenate([comp.E1, comp.E2, np.zeros(9)])
    q_full = (2.0 * R @ frozen + K)[comp.blocks[2]]
    assert np.abs(q_full - sol.Q).max() <= 1e-12

    # vanishing finite-difference subvector gradient at the optimum
    E_at = np.concatenate([comp.E1, comp.E2, sol.E12_star])
    h = 1e-5
    for k in range(9):
        bump = np.zeros(15)
        bump[6 + k] = h
        _, up = delta_derivatives0(cs.with_energy(E_at + bump), init, weights)
        _, dn = delta_derivatives0(cs.with_energy(E_at - bump), init, weights)
        assert abs((up - dn) / (2.0 * h)) <= 1e-6

    # affinity in the subsystem energies
    d1 = rng.standard_normal(3)
    base = optimal_direct_coupling(blocks, comp.E1, comp.E2)
    one = optimal_direct_coupling(blocks, comp.E1 + d1, comp.E2)
    two = optimal_direct_coupling(blocks, comp.E1 + 2.0 * d1, comp.E2)
    gap = (two.E12_star - base.E12_star) - 2.0 * (one.E12_star - base.E12_star)
    assert np.abs(gap).max() <= 1e-10


@criterion(11, "decoherence time: monotone in eps, linear rate, infinite when frozen")
def test_criterion_11_decoherence_behavior(pauli, worked):
    rng = np.random.default_rng(107)
    weights = weighting_from_sigma(np.eye(3))
    for _ in range(20):
        sys, init = random_instance(pauli, rng)
        values = [decoherence_time(sys, init, weights, eps).value
                  for eps in (0.05, 0.1, 0.2)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    expn = tau_expansion(worked.sys, worked.init, worked.weights)
    tau = decoherence_time(worked.sys, worked.init, worked.weights, 1e-4).value
    assert abs(tau / 1e-4 - expn.tau_prime0) <= 0.02 * expn.tau_prime0

    frozen = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)),
                          N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    assert decoherence_time(frozen, init, weights, 0.01).is_infinite
