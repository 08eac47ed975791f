import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as sexpm

from qmemtime import moments, propagate
from qmemtime.errors import (AdmissibilityError, IntegrationError,
                             NotHurwitzError)
from qmemtime.linalg import expm_psi, solve_lyapunov, spectral_norm
from qmemtime.model import SystemParams, coefficients
from qmemtime.moments import (delta_derivatives0, deviation_delta,
                              initial_moments, mean_limit,
                              mean_trajectory, moment_trajectory, psi_matrix,
                              reference_norm, second_moment_V, steady_state,
                              weighting_from_factor, weighting_from_sigma)

from oracles import (delta_upsilon, mean_rk4, psi_simpson, v_quadrature)


# -- initial moments and weights --------------------------------------------

def test_initial_moments_derived_matrices(pauli):
    mu0 = np.array([0.2, -0.1, 0.4])
    init = initial_moments(pauli, mu0)
    assert np.abs(init.P - np.eye(3)).max() == 0.0  # Re(beta) = 0 here
    assert np.abs(init.Pi - init.Pi.conj().T).max() == 0.0
    assert np.abs(init.Pi.real - init.P).max() == 0.0
    assert np.linalg.eigvalsh(init.Pi).min() >= -1e-10


def test_initial_moments_rejects_inadmissible(pauli):
    # beyond the unit ball the second-moment matrix goes indefinite
    with pytest.raises(AdmissibilityError):
        initial_moments(pauli, np.array([0.0, 0.0, 1.5]))


def test_weighting_factorization_round_trip():
    rng = np.random.default_rng(20)
    F = rng.standard_normal((2, 3))
    w = weighting_from_factor(F)
    assert w.nu == 2
    assert np.abs(w.Sigma - F.T @ F).max() <= 1e-12
    w2 = weighting_from_sigma(w.Sigma)
    assert w2.nu == 2
    assert np.abs(w2.F.T @ w2.F - w.Sigma).max() <= 1e-10


def test_weighting_rejects_bad_inputs():
    with pytest.raises(ValueError):
        weighting_from_sigma(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        weighting_from_sigma(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        weighting_from_factor(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))


# -- integrated exponential ---------------------------------------------------

def test_psi_zero_drift():
    assert np.abs(psi_matrix(np.zeros((3, 3)), 2.5) - 2.5 * np.eye(3)).max() <= 1e-14


def test_psi_diagonal_long_time_limit(worked):
    psi = psi_matrix(worked.A, 60.0)
    assert np.abs(psi - np.diag([0.5, 0.5, 0.25])).max() <= 1e-12


def test_psi_matches_quadrature(worked):
    rng = np.random.default_rng(21)
    A = rng.standard_normal((3, 3))
    for t in (0.3, 1.1):
        assert np.abs(psi_matrix(A, t) - psi_simpson(A, t, 800)).max() <= 1e-7
    assert np.abs(psi_matrix(worked.A, 0.0)).max() == 0.0


def test_psi_derivative_is_exponential(worked):
    h = 1e-6
    t = 0.7
    fd = (psi_matrix(worked.A, t + h) - psi_matrix(worked.A, t - h)) / (2 * h)
    assert np.abs(fd - sexpm(worked.A * t)).max() <= 1e-8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 15), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 10.0), abscissa=st.floats(-2.0, 0.5),
       singular=st.booleans(), t=st.floats(0.0, 20.0))
def test_expm_psi_matches_block_expm(n, seed, scale, abscissa, singular, t):
    """Both blocks agree with scipy's exponential of t [[A, I], [0, 0]] for
    scaled, singular and unstable drifts (largest eigenvalue real part
    scale * abscissa before the singular column is cut)."""
    M = np.random.default_rng(seed).standard_normal((n, n)) / np.sqrt(n)
    A = scale * (M - (np.linalg.eigvals(M).real.max() - abscissa) * np.eye(n))
    if singular:
        A[:, 0] = 0.0
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = A
    blk[:n, n:] = np.eye(n)
    ref = sexpm(t * blk)
    for got, want in zip(expm_psi(A, t), (ref[:n, :n], ref[:n, n:])):
        err = np.linalg.norm(got - want, 1)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(want, 1))


def test_psi_rejects_negative_time(worked):
    with pytest.raises(ValueError):
        psi_matrix(worked.A, -0.1)


# -- mean dynamics ------------------------------------------------------------

def test_mean_constant_when_uncoupled(pauli):
    sys = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.array([0.3, 0.0, -0.2]))
    mu = mean_trajectory(coefficients(sys), init, np.linspace(0.0, 2.0, 9))
    assert np.abs(mu - init.mu0).max() <= 1e-14


def test_mean_worked_closed_form(worked):
    grid = np.linspace(0.0, 2.0, 21)
    mu = mean_trajectory(worked.co, worked.init, grid)
    expected = np.column_stack([np.zeros_like(grid), np.zeros_like(grid),
                                1.0 - np.exp(-4.0 * grid)])
    assert np.abs(mu - expected).max() <= 1e-12


def test_mean_matches_ode_oracle(make_instance):
    rng = np.random.default_rng(22)
    sys, init = make_instance(rng)
    co = coefficients(sys)
    mu = mean_trajectory(co, init, np.array([0.0, 0.8]))
    assert np.abs(mu[-1] - mean_rk4(co, init.mu0, 0.8)).max() <= 1e-9


def test_mean_one_exponential_per_spacing(make_instance, monkeypatch):
    rng = np.random.default_rng(23)
    sys, init = make_instance(rng)
    co = coefficients(sys)
    grid = np.array([0.0, 0.25, 0.5, 0.625, 0.75, 1.25, 1.5, 1.625])
    expected = []
    for t in grid:
        Et, pt = expm_psi(co.A, t)
        expected.append(Et @ init.mu0 + pt @ co.b)
    calls = []
    monkeypatch.setattr(moments, "expm_psi",
                        lambda A, t: calls.append(t) or expm_psi(A, t))
    mu = mean_trajectory(co, init, grid)
    assert sorted(calls) == [0.125, 0.25, 0.5]
    assert np.abs(mu - expected).max() <= 1e-12


def test_mean_limit_worked(worked):
    assert np.abs(mean_limit(worked.co) - worked.mu_inf).max() <= 1e-12


def test_mean_limit_requires_hurwitz(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    with pytest.raises(NotHurwitzError):
        mean_limit(coefficients(sys))


def test_mean_limit_identity_drift(pauli, worked):
    co = coefficients(worked.sys)
    v = np.array([1.0, -2.0, 0.5])
    synthetic = type(co)(A0=np.zeros((3, 3)), Atilde=-np.eye(3), A=-np.eye(3),
                         b=v, C=None, d=None, Omega=co.Omega, J=co.J)
    assert np.abs(mean_limit(synthetic) - v).max() <= 1e-14


# -- second moment ------------------------------------------------------------

def test_v_zero_without_coupling(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.2, 0.0, 0.4]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    V = second_moment_V(sys, init, np.linspace(0.0, 1.0, 11))
    assert np.abs(V).max() == 0.0


def test_v_matches_quadrature_on_random_instances(make_instance):
    rng = np.random.default_rng(23)
    for _ in range(3):
        sys, init = make_instance(rng, coupling_scale=0.6)
        co = coefficients(sys)
        h = min(0.5, 0.01 / max(1.0, spectral_norm(co.A)))
        grid = np.array([0.0, 0.5, 2.0])
        V = second_moment_V(sys, init, grid)
        for i, t in enumerate(grid[1:], start=1):
            Vq = v_quadrature(sys, init, t, int(np.ceil(t / (h / 2.0))))
            rel = np.linalg.norm(V[i] - Vq) / max(np.linalg.norm(Vq), 1e-12)
            assert rel <= 1e-6


def test_v_worked_scalar_component(worked):
    """V_33 obeys v' = -8v + 8 e^{-4t}, whose solution is
    2(e^{-4t} - e^{-8t}); solved by hand as an independent check."""
    grid = np.linspace(0.0, 1.0, 11)
    V = second_moment_V(worked.sys, worked.init, grid)
    expected = 2.0 * (np.exp(-4.0 * grid) - np.exp(-8.0 * grid))
    assert np.abs(V[:, 2, 2].real - expected).max() <= 1e-8


def test_v_initial_derivatives(worked):
    """V(h) expands as Lambda(0) h + (A L + L A^T + L'(0)) h^2 / 2."""
    from qmemtime.model import lambda_dot0, lambda_matrix

    lam0 = lambda_matrix(worked.sys, worked.init.mu0)
    lamd = lambda_dot0(worked.sys, worked.init.mu0)
    vddot = worked.A @ lam0 + lam0 @ worked.A.T + lamd
    for h in (1e-3, 5e-4):
        V = second_moment_V(worked.sys, worked.init, np.array([0.0, h]))[-1]
        quad = lam0 * h + 0.5 * vddot * h * h
        assert np.abs(V - quad).max() <= 200.0 * h ** 3


def test_v_converges_to_steady_state(worked):
    t_end = 10.0 / 2.0  # ten slowest-decay time constants
    V = second_moment_V(worked.sys, worked.init, np.array([0.0, t_end]))
    assert np.linalg.norm(V[-1].real - worked.P_inf) <= 1e-4 * max(
        1.0, np.linalg.norm(worked.P_inf))


def test_v_is_hermitian_psd_along_trajectory(make_instance):
    rng = np.random.default_rng(24)
    sys, init = make_instance(rng)
    V = second_moment_V(sys, init, np.linspace(0.0, 1.5, 7))
    assert np.abs(V[0]).max() == 0.0
    for vk in V:
        assert np.abs(vk - vk.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(vk.real).min() >= -1e-8


# -- deviation ----------------------------------------------------------------

def test_delta_zero_for_frozen_system(pauli):
    sys = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.array([0.1, 0.2, -0.3]))
    w = weighting_from_sigma(np.eye(3))
    delta = deviation_delta(sys, init, w, np.linspace(0.0, 3.0, 13))
    assert np.abs(delta).max() == 0.0


def test_delta_rotation_is_periodic(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    w = weighting_from_sigma(np.eye(3))
    grid = np.array([0.0, np.pi / 4, np.pi / 2, np.pi, 2 * np.pi])
    delta = deviation_delta(sys, init, w, grid)
    expected = 4.0 * (1.0 - np.cos(2.0 * grid))  # plane rotation at rate 2
    assert np.abs(delta - expected).max() <= 1e-9
    assert delta[3] <= 1e-9 and delta[4] <= 1e-9


def test_delta_worked_small_time(worked):
    grid = np.array([0.0, 1e-3, 2e-3, 4e-3])
    delta = deviation_delta(worked.sys, worked.init, worked.weights, grid)
    quad = 16.0 * grid - 24.0 * grid ** 2
    assert np.abs(delta - quad).max() <= 30.0 * grid[-1] ** 3  # cubic remainder


def test_delta_matches_upsilon_assembly(make_instance):
    rng = np.random.default_rng(25)
    sys, init = make_instance(rng, coupling_scale=0.6)
    w = weighting_from_sigma(np.eye(3))
    co = coefficients(sys)
    h = min(0.45, 0.01 / max(1.0, spectral_norm(co.A)))
    grid = np.array([0.0, 0.9])
    delta = deviation_delta(sys, init, w, grid)
    vq = v_quadrature(sys, init, 0.9, int(np.ceil(0.9 / (h / 2.0))))
    assert abs(delta[-1] - delta_upsilon(sys, init, w, 0.9, vq)) <= 1e-7


def test_trajectory_invariants(worked):
    traj = moment_trajectory(worked.sys, worked.init, worked.weights,
                             np.linspace(0.0, 2.0, 41))
    assert traj.Delta[0] == 0.0
    assert traj.Delta.min() >= 0.0
    assert np.abs(traj.V[0]).max() == 0.0
    assert np.abs(traj.mu[0] - worked.init.mu0).max() == 0.0


@pytest.mark.parametrize("where, bad", [("V real", np.nan), ("V imag", -np.inf),
                                        ("mu", np.inf), ("mu", np.nan)])
def test_non_finite_trajectory_raises(worked, monkeypatch, where, bad):
    trajectory = propagate.Propagator.trajectory

    def planted(self, *args):
        mu, V, delta = trajectory(self, *args)
        if where == "mu":
            mu[-1, 1] = bad
        else:
            V.view(float)[3, 0, 2 * 1 + (where == "V imag")] = bad
        return mu, V, delta

    monkeypatch.setattr(propagate.Propagator, "trajectory", planted)
    with pytest.raises(IntegrationError):
        moment_trajectory(worked.sys, worked.init, worked.weights, np.linspace(0.0, 1.0, 6))


def test_grid_validation(worked):
    with pytest.raises(ValueError):
        deviation_delta(worked.sys, worked.init, worked.weights, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        deviation_delta(worked.sys, worked.init, worked.weights, np.array([0.0, 0.0]))


# -- derivatives at zero ------------------------------------------------------

def test_delta_derivatives_worked(worked):
    d1, d2 = delta_derivatives0(worked.sys, worked.init, worked.weights)
    assert abs(d1 - worked.delta_dot0) <= 1e-12
    assert abs(d2 - worked.delta_ddot0) <= 1e-12


def test_delta_derivatives_pure_rotation(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    w = weighting_from_sigma(np.eye(3))
    d1, d2 = delta_derivatives0(sys, init, w)
    A0 = coefficients(sys).A0
    assert d1 == 0.0
    assert abs(d2 - 2.0 * np.trace(A0 @ A0.T)) <= 1e-12


def test_delta_derivatives_scale_with_weighting(worked):
    w2 = weighting_from_sigma(2.0 * np.eye(3))
    d1, d2 = delta_derivatives0(worked.sys, worked.init, worked.weights)
    e1, e2 = delta_derivatives0(worked.sys, worked.init, w2)
    assert abs(e1 - 2.0 * d1) <= 1e-12
    assert abs(e2 - 2.0 * d2) <= 1e-12


def test_delta_derivatives_match_finite_differences(make_instance):
    rng = np.random.default_rng(26)
    sys, init = make_instance(rng, coupling_scale=0.8)
    w = weighting_from_sigma(np.eye(3))
    d1, d2 = delta_derivatives0(sys, init, w)
    hs = np.array([4e-4, 2e-4, 1e-4])
    deltas = deviation_delta(sys, init, w, np.concatenate([[0.0], hs[::-1]]))[1:][::-1]
    d1_fd = np.array([(d / h) for d, h in zip(deltas, hs)])
    # Richardson: Delta(h)/h = d1 + d2 h/2 + O(h^2)
    d1_extrap = 2.0 * d1_fd[2] - d1_fd[1]
    assert abs(d1_extrap - d1) <= 1e-5 * max(1.0, abs(d1))
    d2_fd = 2.0 * (deltas - d1 * hs) / hs ** 2
    d2_extrap = 2.0 * d2_fd[2] - d2_fd[1]
    assert abs(d2_extrap - d2) <= 1e-4 * max(1.0, abs(d2))


def test_taylor_ratio_bounded(worked):
    ratios = []
    for h in (1e-2, 5e-3, 2.5e-3):
        d = deviation_delta(worked.sys, worked.init, worked.weights,
                            np.array([0.0, h]))[-1]
        ratios.append((d - worked.delta_dot0 * h - 0.5 * worked.delta_ddot0 * h * h)
                      / h ** 3)
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    assert spread <= 0.2


def test_isolated_mean_energy_conserved(pauli):
    rng = np.random.default_rng(27)
    E = rng.standard_normal(3)
    sys = SystemParams(sc=pauli, E=E, M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.array([0.3, -0.4, 0.2]))
    mu = mean_trajectory(coefficients(sys), init, np.linspace(0.0, 3.0, 16))
    energies = mu @ E
    assert np.abs(energies - energies[0]).max() <= 1e-10


# -- steady state -------------------------------------------------------------

def test_steady_state_worked(worked):
    ss = steady_state(worked.sys, worked.init, worked.weights)
    assert np.abs(ss.mu_inf - worked.mu_inf).max() <= 1e-12
    assert np.abs(ss.Lambda_inf.real - worked.re_lambda_inf).max() <= 1e-12
    assert np.abs(ss.P_inf - worked.P_inf).max() <= 1e-10
    assert abs(ss.Delta_inf - worked.delta_inf) <= 1e-10


def test_steady_state_requires_hurwitz(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    w = weighting_from_sigma(np.eye(3))
    for _ in range(2):  # the failure is not kept in place of the limits
        with pytest.raises(NotHurwitzError, match="for the steady-state mean"):
            steady_state(sys, init, w)


def test_steady_state_limits_derived_once(worked, monkeypatch):
    fresh = dataclasses.replace(worked.sys)
    first = steady_state(fresh, worked.init, worked.weights)
    calls = []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a, f=np.linalg.solve: calls.append(a) or f(*a))
    second = steady_state(fresh, worked.init, worked.weights)
    assert calls == []
    for name in ("mu_inf", "P_inf", "Lambda_inf", "Delta_inf"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    # Delta_inf is per initial mean; the kept limits are not
    init = initial_moments(worked.sc, np.array([0.0, 0.0, 0.3]))
    other = steady_state(fresh, init, worked.weights)
    assert calls == []
    assert np.array_equal(other.P_inf, first.P_inf)
    assert other.Delta_inf == pytest.approx(worked.delta_inf - 0.6, abs=1e-12)


def test_steady_state_solves_eigenvalues_once(worked, monkeypatch):
    """The Hurwitz margin is read from the system's propagator, which solves
    for the eigenvalues of A once; steady_state adds no second solve."""
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
    fresh = SystemParams(sc=worked.sc, E=np.zeros(3), M=worked.M, N=np.zeros(2))
    for _ in range(2):
        ss = steady_state(fresh, worked.init, worked.weights)
    assert len(calls) == 1
    assert np.abs(ss.mu_inf - worked.mu_inf).max() <= 1e-12


def test_lyapunov_solver_zero_source():
    rng = np.random.default_rng(28)
    A = -np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    assert np.abs(solve_lyapunov(A, np.zeros((4, 4)))).max() <= 1e-12
    Q = rng.standard_normal((4, 4))
    Q = Q @ Q.T
    P = solve_lyapunov(A, Q)
    assert np.abs(A @ P + P @ A.T + Q).max() <= 1e-10 * max(1.0, np.abs(Q).max())


def test_delta_converges_to_limit(worked):
    delta = deviation_delta(worked.sys, worked.init, worked.weights,
                            np.array([0.0, 5.0]))
    assert abs(delta[-1] - worked.delta_inf) <= 1e-3


def test_reference_norm_worked(worked):
    assert reference_norm(worked.init, worked.weights) == pytest.approx(3.0, abs=1e-14)
