import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as sexpm

from qmemtime import propagate
from qmemtime.errors import (AdmissibilityError, IntegrationError,
                             NotHurwitzError)
from qmemtime.interconnect import compose, product_mean
from qmemtime.linalg import expm, spectral_norm
from qmemtime.model import SystemParams, coefficients
from qmemtime.moments import (InitialMoments, WeightingSpec, delta_derivatives0,
                              deviation_delta, initial_moments, moment_trajectory,
                              reference_norm, steady_state,
                              weighting_from_factor, weighting_from_sigma)

from oracles import (delta_upsilon, mean_rk4, psi_simpson, solve_lyapunov, v_quadrature)


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
    assert np.abs(w.Sigma - F.T @ F).max() <= 1e-12
    # a rank-2 Sigma = F^T F is PSD, and passes its check unchanged
    assert np.array_equal(weighting_from_sigma(w.Sigma).Sigma, w.Sigma)


def test_inputs_built_directly_are_read_only(pauli):
    # a propagator keeps the march of the init and weights objects it was
    # given, so their arrays cannot change under it, however they are built
    init = InitialMoments(mu0=np.zeros(3), P=np.eye(3), Pi=np.eye(3) + 0j)
    weights = WeightingSpec(Sigma=np.eye(3))
    built = (initial_moments(pauli, np.zeros(3)), weighting_from_sigma(np.eye(3)),
             weighting_from_factor(np.eye(3)[:2]))
    for owner in (init, weights, *built):
        for field in dataclasses.fields(owner):
            with pytest.raises(ValueError, match="read-only"):
                getattr(owner, field.name)[0] = 1.0


def test_weighting_rejects_bad_inputs():
    with pytest.raises(ValueError):
        weighting_from_sigma(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        weighting_from_sigma(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        weighting_from_factor(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))


@pytest.mark.parametrize("build", ["mu0", "Sigma", "F"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inputs_reject_non_finite(pauli, build, bad):
    # a NaN Sigma used to give an empty factor and a NaN Delta_inf, and an
    # infinite one a TrivialWeightError; a NaN mean failed in eigvalsh
    value = {"mu0": np.zeros(3), "Sigma": np.eye(3), "F": np.eye(3)[:2]}[build]
    value.flat[-1] = bad
    call = {"mu0": lambda v: initial_moments(pauli, v), "Sigma": weighting_from_sigma,
            "F": weighting_from_factor}[build]
    with pytest.raises(ValueError, match="non-finite"):
        call(value)


# -- exponential and transition matrix ---------------------------------------

def _generator(A, B):
    """[[A, B], [0, 0]], whose exponential at t has the top right block
    psi(t) B, psi(t) the integral of e^{sA} over [0, t]."""
    B = np.reshape(B, (A.shape[0], -1))
    return np.block([[A, B], [np.zeros((B.shape[1], A.shape[0] + B.shape[1]))]])


def test_psi_zero_drift(worked):
    # a zero drift moves the mean by t b: [[0, b], [0, 0]] is nilpotent
    b = np.array([0.3, -1.0, 2.0])
    assert np.abs(expm(_generator(np.zeros((3, 3)), b), 2.5)[:3, 3] - 2.5 * b).max() <= 1e-14
    # a zero matrix is exact at any finite t, also where 2 |t| overflows
    # the norm bound; any other matrix raises there
    for t in (0.0, 2.5, 1.7e308, -1.7e308):
        assert np.array_equal(expm(np.zeros((3, 3)), t), np.eye(3))
    for A in (worked.A, 1e-300 * np.eye(3)):
        with pytest.raises(IntegrationError, match="overflows"):
            expm(A, 1.7e308)


def test_psi_diagonal_long_time_limit(worked):
    # psi(60) b = -A^{-1} b = mu_inf, and all of psi(60) from [[A, I], [0, 0]]
    Phi = propagate.Propagator.of(worked.sys).transition(60.0)
    assert np.abs(Phi[:3, 3] - worked.mu_inf).max() <= 1e-12
    psi = expm(_generator(worked.A, np.eye(3)), 60.0)[:3, 3:]
    assert np.abs(psi - np.diag([0.5, 0.5, 0.25])).max() <= 1e-12


def test_psi_matches_quadrature(worked):
    rng = np.random.default_rng(21)
    A, b = rng.standard_normal((3, 3)), rng.standard_normal(3)
    for t in (0.3, 1.1):
        want = psi_simpson(A, t, 800) @ b
        assert np.abs(expm(_generator(A, b), t)[:3, 3] - want).max() <= 1e-7
    assert np.array_equal(propagate.Propagator.of(worked.sys).transition(0.0), np.eye(4))


def test_psi_derivative_is_exponential(worked):
    # d/dt psi(t) b = e^{tA} b, on the last column of the transition matrix
    transition = propagate.Propagator.of(worked.sys).transition
    h = 1e-6
    t = 0.7
    fd = (transition(t + h)[:3, 3] - transition(t - h)[:3, 3]) / (2 * h)
    assert np.abs(fd - sexpm(worked.A * t) @ worked.b).max() <= 1e-8 * np.abs(worked.b).max()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 15), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 10.0), abscissa=st.floats(-2.0, 0.5),
       singular=st.booleans(), t=st.floats(0.0, 20.0))
def test_expm_matches_block_expm(n, seed, scale, abscissa, singular, t):
    """The exponentials of t A and of t [[A, b], [0, 0]] agree with
    scipy's for scaled, singular and unstable drifts (largest eigenvalue
    real part scale * abscissa before the singular column is cut)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    A = scale * (M - (np.linalg.eigvals(M).real.max() - abscissa) * np.eye(n))
    if singular:
        A[:, 0] = 0.0
    for G in (A, _generator(A, scale * rng.standard_normal(n))):
        want = sexpm(t * G)
        err = np.linalg.norm(expm(G, t) - want, 1)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(want, 1))


# -- mean dynamics ------------------------------------------------------------

def test_mean_constant_when_uncoupled(pauli):
    sys = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.array([0.3, 0.0, -0.2]))
    mu = moment_trajectory(sys, init, None, np.linspace(0.0, 2.0, 9)).mu
    assert np.abs(mu - init.mu0).max() <= 1e-14


def test_mean_worked_closed_form(worked):
    grid = np.linspace(0.0, 2.0, 21)
    mu = moment_trajectory(worked.sys, worked.init, None, grid).mu
    expected = np.column_stack([np.zeros_like(grid), np.zeros_like(grid),
                                1.0 - np.exp(-4.0 * grid)])
    assert np.abs(mu - expected).max() <= 1e-12


def test_mean_matches_ode_oracle(make_instance):
    rng = np.random.default_rng(22)
    sys, init = make_instance(rng)
    co = coefficients(sys)
    mu = moment_trajectory(sys, init, None, np.array([0.0, 0.8])).mu
    assert np.abs(mu[-1] - mean_rk4(co, init.mu0, 0.8)).max() <= 1e-9


def test_mean_limit_worked(worked):
    mu_inf = propagate.Propagator.of(worked.sys).mean_limit
    assert np.abs(mu_inf - worked.mu_inf).max() <= 1e-12


# -- second moment ------------------------------------------------------------

def test_v_zero_without_coupling(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.2, 0.0, 0.4]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    V = moment_trajectory(sys, init, None, np.linspace(0.0, 1.0, 11)).V
    assert np.abs(V).max() == 0.0


def test_v_matches_quadrature_on_random_instances(make_instance):
    rng = np.random.default_rng(23)
    for _ in range(3):
        sys, init = make_instance(rng, coupling_scale=0.6)
        co = coefficients(sys)
        h = min(0.5, 0.01 / max(1.0, spectral_norm(co.A)))
        grid = np.array([0.0, 0.5, 2.0])
        V = moment_trajectory(sys, init, None, grid).V
        for i, t in enumerate(grid[1:], start=1):
            Vq = v_quadrature(sys, init, t, int(np.ceil(t / (h / 2.0))))
            rel = np.linalg.norm(V[i] - Vq) / max(np.linalg.norm(Vq), 1e-12)
            assert rel <= 1e-6


def test_v_worked_scalar_component(worked):
    """V_33 obeys v' = -8v + 8 e^{-4t}, whose solution is
    2(e^{-4t} - e^{-8t}); solved by hand as an independent check."""
    grid = np.linspace(0.0, 1.0, 11)
    V = moment_trajectory(worked.sys, worked.init, None, grid).V
    expected = 2.0 * (np.exp(-4.0 * grid) - np.exp(-8.0 * grid))
    assert np.abs(V[:, 2, 2].real - expected).max() <= 1e-8


def test_v_initial_derivatives(worked):
    """V(h) expands as Lambda(0) h + (A L + L A^T + L'(0)) h^2 / 2."""
    from qmemtime.model import lambda_matrix

    lam0 = lambda_matrix(worked.sys, worked.init.mu0)
    # Lambda is affine in the mean, so its rate is its linear part at A mu0 + b
    lamd = (lambda_matrix(worked.sys, worked.co.A @ worked.init.mu0 + worked.co.b)
            - lambda_matrix(worked.sys, np.zeros(3)))
    vddot = worked.A @ lam0 + lam0 @ worked.A.T + lamd
    for h in (1e-3, 5e-4):
        V = moment_trajectory(worked.sys, worked.init, None, np.array([0.0, h])).V[-1]
        quad = lam0 * h + 0.5 * vddot * h * h
        assert np.abs(V - quad).max() <= 200.0 * h ** 3


def test_v_converges_to_steady_state(worked):
    t_end = 10.0 / 2.0  # ten slowest-decay time constants
    V = moment_trajectory(worked.sys, worked.init, None, np.array([0.0, t_end])).V
    assert np.linalg.norm(V[-1].real - worked.P_inf) <= 1e-4 * max(
        1.0, np.linalg.norm(worked.P_inf))


def test_v_is_hermitian_psd_along_trajectory(make_instance):
    rng = np.random.default_rng(24)
    sys, init = make_instance(rng)
    V = moment_trajectory(sys, init, None, np.linspace(0.0, 1.5, 7)).V
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
    # the mean stays at mu0 over spacings whose 2 |t| overflows a double
    for grid in ([0.0, 1.7e308], np.linspace(0.0, 1.7e308, 40)):
        traj = moment_trajectory(sys, init, w, np.array(grid))
        assert np.array_equal(traj.mu, np.broadcast_to(init.mu0, traj.mu.shape))
        assert np.abs(traj.Delta).max() == 0.0


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


def _plant(monkeypatch, where, bad):
    """Make the propagator's trajectory return ``bad`` at one entry of V or
    mu, or, for ``where`` = "all", fill V and mu with +-``bad``."""
    trajectory = propagate.Propagator.trajectory

    def planted(self, *args):
        mu, V, delta = trajectory(self, *args)
        if where == "all":
            for arr in (mu, V.view(float)):
                arr.ravel()[:] = np.where(np.arange(arr.size) % 3, bad, -bad)
        elif where == "mu":
            mu[-1, 1] = bad
        else:
            V.view(float)[3, 0, 2 * 1 + (where == "V imag")] = bad
        return mu, V, delta

    monkeypatch.setattr(propagate.Propagator, "trajectory", planted)


@pytest.mark.parametrize("where, bad", [("V real", np.nan), ("V imag", -np.inf),
                                        ("V real", np.inf), ("V imag", np.nan),
                                        ("mu", np.inf), ("mu", np.nan)])
def test_non_finite_trajectory_raises(worked, monkeypatch, where, bad):
    _plant(monkeypatch, where, bad)
    with pytest.raises(IntegrationError, match="non-finite values"):
        moment_trajectory(worked.sys, worked.init, worked.weights, np.linspace(0.0, 1.0, 6))


@pytest.mark.parametrize("bad", [1e300, np.finfo(float).max])
def test_huge_finite_trajectory_passes(worked, monkeypatch, bad):
    # the overflow check is exact: entries whose sum overflows are finite
    _plant(monkeypatch, "all", bad)
    traj = moment_trajectory(worked.sys, worked.init, worked.weights, np.linspace(0.0, 1.0, 6))
    assert np.abs(traj.V.view(float)).min() == bad and np.abs(traj.mu).min() == bad


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
    mu = moment_trajectory(sys, init, None, np.linspace(0.0, 3.0, 16)).mu
    energies = mu @ E
    assert np.abs(energies - energies[0]).max() <= 1e-10


# -- steady state -------------------------------------------------------------

def test_steady_state_worked(worked):
    ss = steady_state(worked.sys, worked.init, worked.weights)
    assert np.abs(ss.mu_inf - worked.mu_inf).max() <= 1e-12
    assert np.abs(ss.Lambda_inf.real - worked.re_lambda_inf).max() <= 1e-12
    assert np.abs(ss.P_inf - worked.P_inf).max() <= 1e-10
    assert abs(ss.Delta_inf - worked.delta_inf) <= 1e-10


def test_delta_inf_matches_second_moment_form(pauli, make_instance):
    # Delta_inf = <Sigma, P> - 2 mu_inf^T Sigma mu0 + |F mu_inf|^2 + <Sigma, P_inf>,
    # the limit of E|F (X_t - X_0)|^2, against g . mu_inf + L_nn read off
    # the functional; the composite has a nonzero Re beta, which spin lacks
    rng = np.random.default_rng(31)
    sub = SystemParams(sc=pauli, E=np.array([0.1, 0.0, 0.2]), M=np.eye(3)[:2],
                       N=np.array([0.0, 0.1]))
    composite = compose(sub, sub, 0.3 * np.ones(9)).as_system()
    cases = [(composite, initial_moments(composite.sc,
                                         product_mean([0.1, 0.0, 0.2], [0.0, -0.1, 0.3])))]
    while len(cases) < 5:
        sys, init = make_instance(rng)
        if propagate.Propagator.of(sys).margin < -1e-3:
            cases.append((sys, init))
    for sys, init in cases:
        G = rng.standard_normal((sys.n, sys.n))
        w = weighting_from_sigma(G @ G.T / sys.n)
        ss = steady_state(sys, init, w)
        Sigma, mu_inf, mu0 = w.Sigma, ss.mu_inf, init.mu0
        want = (np.sum(Sigma * init.P) - 2.0 * mu_inf @ Sigma @ mu0
                + mu_inf @ Sigma @ mu_inf + np.sum(Sigma * ss.P_inf))
        assert ss.Delta_inf == pytest.approx(want, rel=1e-12, abs=1e-12)


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
