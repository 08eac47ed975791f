import numpy as np
import pytest

from qmemtime.algebra import StructureConstants, col, stack_mho
from qmemtime.model import (SystemParams, coefficients, ito_matrix,
                            lambda_dot0, lambda_matrix)

from oracles import lambda_affine, lambda_kron


def test_ito_matrix_smallest():
    Omega, J = ito_matrix(2)
    assert np.array_equal(J, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(Omega, np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
    eigs = np.sort(np.linalg.eigvalsh(Omega))
    assert np.abs(eigs - np.array([0.0, 2.0])).max() <= 1e-14


def test_ito_matrix_block_structure():
    _, J = ito_matrix(4)
    bj = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(J[:2, :2], bj)
    assert np.array_equal(J[2:, 2:], bj)
    assert np.all(J[:2, 2:] == 0.0)
    with pytest.raises(ValueError):
        ito_matrix(3)


def test_uncoupled_zero_energy_coefficients(pauli):
    sys = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    co = coefficients(sys)
    assert np.all(co.A == 0.0) and np.all(co.b == 0.0)
    assert np.all(co.Atilde == 0.0)


def test_isolated_rotation_generator(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    co = coefficients(sys)
    expected = 2.0 * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.abs(co.A - expected).max() <= 1e-14
    eigs = np.sort_complex(np.linalg.eigvals(co.A))
    assert np.abs(eigs - np.array([-2.0j, 0.0, 2.0j])).max() <= 1e-12


def test_worked_example_drift_and_offset(worked):
    assert np.abs(worked.co.A - worked.A).max() <= 1e-12
    assert np.abs(worked.co.Atilde - worked.A).max() <= 1e-12
    assert np.abs(worked.co.b - worked.b).max() <= 1e-12
    assert np.abs(worked.co.A - (worked.co.A0 + worked.co.Atilde)).max() == 0.0


def test_atilde_uses_first_index_slices():
    """Literal index-loop assembly of the coupling drift must agree for a
    structure whose slice matrices differ from its sections."""
    rng = np.random.default_rng(11)
    n, m = 4, 2
    secs = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    secs = (secs + np.conj(np.transpose(secs, (0, 2, 1)))) / 2.0
    alpha = rng.standard_normal((n, n))
    sc = StructureConstants((alpha + alpha.T) / 2.0, secs)
    th = sc.theta
    assert np.abs(th[:, 0, :].T - th[0]).max() > 1e-3  # slices differ from sections

    M = rng.standard_normal((m, n))
    N = rng.standard_normal(m)
    sys = SystemParams(sc=sc, E=np.zeros(n), M=M, N=N)
    _, J = ito_matrix(m)

    theta_flat = np.empty((n, n, n))
    re_beta_flat = np.empty((n, n, n))
    for j in range(n):
        for k in range(n):
            for ell in range(n):
                theta_flat[j, k, ell] = th[ell, j, k]
                re_beta_flat[j, k, ell] = sc.beta[ell, j, k].real
    acc = np.zeros((n, n))
    for ell in range(n):
        acc += th[ell] @ M.T @ (M @ theta_flat[ell] + J @ M @ re_beta_flat[ell])
    mtjn = M.T @ J @ N
    diamond = np.column_stack([th[k] @ mtjn for k in range(n)])
    expected = 2.0 * diamond + 2.0 * acc

    assert np.abs(coefficients(sys).Atilde - expected).max() <= 1e-12


def test_offset_vector_against_literal_stacking(pauli, worked):
    S = worked.M.T @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ worked.M @ pauli.alpha
    mho = stack_mho(pauli.theta)
    expected = -2.0 * mho.T @ np.asarray(col(S))
    assert np.abs(worked.co.b - expected).max() == 0.0


def test_output_coefficients_from_selector(pauli, worked):
    D = np.eye(2)
    sys = SystemParams(sc=pauli, E=np.zeros(3), M=worked.M,
                       N=np.array([0.5, -0.25]), D=D)
    co = coefficients(sys)
    _, J = ito_matrix(2)
    assert np.abs(co.C - 2.0 * D @ J @ worked.M).max() == 0.0
    assert np.abs(co.d - 2.0 * D @ J @ sys.N).max() == 0.0
    no_d = coefficients(worked.sys)
    assert no_d.C is None and no_d.d is None


def test_output_selector_validation(pauli, worked):
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])  # splits a quadrature pair
    with pytest.raises(ValueError):
        SystemParams(sc=pauli, E=np.zeros(3), M=worked.M, N=np.zeros(2), D=bad)


def test_lambda_zero_coupling(pauli):
    sys = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    assert np.all(lambda_matrix(sys, np.zeros(3)) == 0)
    assert np.all(lambda_dot0(sys, np.zeros(3)) == 0)


def test_lambda_worked_values(worked):
    lam0 = lambda_matrix(worked.sys, np.zeros(3))
    assert np.abs(lam0 - worked.lambda0).max() <= 1e-12
    assert np.abs(lam0.real - worked.re_lambda0).max() <= 1e-12
    lam_pole = lambda_matrix(worked.sys, np.array([0.0, 0.0, 1.0]))
    assert np.abs(lam_pole.real - np.diag([4.0, 4.0, 0.0])).max() <= 1e-12


def test_lambda_matches_kron_oracle(make_instance):
    rng = np.random.default_rng(12)
    for _ in range(10):
        sys, init = make_instance(rng)
        mu = rng.standard_normal(3) * 0.5
        lam = lambda_matrix(sys, mu)
        assert np.abs(lam - lambda_kron(sys, mu)).max() <= 1e-12
        assert np.abs(lam - lam.conj().T).max() <= 1e-13


def test_lambda_affine_in_mean(worked):
    rng = np.random.default_rng(13)
    lam_0 = lambda_matrix(worked.sys, np.zeros(3))
    for _ in range(10):
        m1, m2 = rng.standard_normal(3), rng.standard_normal(3)
        gap = (lambda_matrix(worked.sys, m1 + m2) - lambda_matrix(worked.sys, m1)
               - lambda_matrix(worked.sys, m2) + lam_0)
        assert np.abs(gap).max() <= 1e-12


def test_lambda_psd_for_admissible_mean(make_instance):
    rng = np.random.default_rng(14)
    for _ in range(10):
        sys, init = make_instance(rng)
        lam = lambda_matrix(sys, init.mu0)
        assert np.linalg.eigvalsh(lam).min() >= -1e-10


def test_lambda_affine_decomposition(worked, make_instance):
    # Lambda and its rate are read off the product closure; the oracle
    # assembles the affine parts of the Kronecker sandwich
    rng = np.random.default_rng(15)
    for sys in [worked.sys] + [make_instance(rng)[0] for _ in range(3)]:
        C0, Cmu = lambda_affine(sys)
        co = coefficients(sys)
        for _ in range(5):
            mu = rng.standard_normal(3)
            want = C0 + np.einsum("l,lad->ad", mu, Cmu)
            assert np.abs(lambda_matrix(sys, mu) - want).max() <= 1e-12 * np.abs(want).max()
            rate = np.einsum("l,lad->ad", co.A @ mu + co.b, Cmu)
            assert (np.abs(lambda_dot0(sys, mu) - rate).max()
                    <= 1e-12 * max(1.0, np.abs(rate).max()))


def test_lambda_dot_worked_and_finite_difference(worked):
    lamd = lambda_dot0(worked.sys, np.zeros(3))
    assert np.abs(lamd - worked.lambda_dot0).max() <= 1e-12
    # finite difference of t -> Lambda(mu(t)) using the mean ODE
    h = 1e-6
    mu_h = h * worked.b  # mu(h) = h b + O(h^2) from mu(0) = 0
    fd = (lambda_matrix(worked.sys, mu_h) - lambda_matrix(worked.sys, np.zeros(3))) / h
    assert np.abs(fd - lamd).max() <= 1e-5 * max(1.0, np.abs(lamd).max())


def test_lambda_dot_finite_difference_random_instance(make_instance):
    from scipy.linalg import expm as sexpm

    from qmemtime.moments import psi_matrix

    rng = np.random.default_rng(19)
    sys, init = make_instance(rng)
    co = coefficients(sys)
    lamd = lambda_dot0(sys, init.mu0)
    h = 1e-6
    mu_h = sexpm(co.A * h) @ init.mu0 + psi_matrix(co.A, h) @ co.b
    fd = (lambda_matrix(sys, mu_h) - lambda_matrix(sys, init.mu0)) / h
    assert np.abs(fd - lamd).max() <= 1e-5 * max(1.0, np.abs(lamd).max())


def test_lambda_dot_zero_at_stationary_mean(pauli, worked):
    mu_star = np.array([0.0, 0.0, 1.0])  # A mu + b = 0 for the worked system
    assert np.abs(worked.co.A @ mu_star + worked.co.b).max() <= 1e-12
    assert np.abs(lambda_dot0(worked.sys, mu_star)).max() <= 1e-12


def test_energy_orthogonal_to_isolated_drift(pauli):
    rng = np.random.default_rng(16)
    for _ in range(100):
        E = rng.standard_normal(3)
        sys = SystemParams(sc=pauli, E=E, M=np.zeros((2, 3)), N=np.zeros(2))
        co = coefficients(sys)
        assert np.abs(E @ co.A0).max() <= 1e-12


def test_isolated_spectrum_imaginary_and_symmetric(pauli):
    rng = np.random.default_rng(17)
    for _ in range(100):
        E = rng.standard_normal(3)
        sys = SystemParams(sc=pauli, E=E, M=np.zeros((2, 3)), N=np.zeros(2))
        eigs = np.linalg.eigvals(coefficients(sys).A0)
        scale = max(1.0, np.abs(eigs).max())
        assert np.abs(eigs.real).max() <= 1e-9 * scale
        assert np.abs(eigs).min() <= 1e-9 * scale  # zero belongs to the spectrum
        for lam in eigs:  # symmetric about the origin
            assert np.abs(eigs + lam).min() <= 1e-9 * scale


def test_vectorized_isolated_drift(pauli):
    rng = np.random.default_rng(18)
    mho = stack_mho(pauli.theta)
    for _ in range(20):
        E = rng.standard_normal(3)
        sys = SystemParams(sc=pauli, E=E, M=np.zeros((2, 3)), N=np.zeros(2))
        co = coefficients(sys)
        assert np.abs(np.asarray(col(co.A0)) - 2.0 * mho @ E).max() <= 1e-14


def test_system_params_validation(pauli):
    with pytest.raises(ValueError):
        SystemParams(sc=pauli, E=np.zeros(4), M=np.zeros((2, 3)), N=np.zeros(2))
    with pytest.raises(ValueError):
        SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((3, 3)), N=np.zeros(3))
    with pytest.raises(ValueError):
        SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(3))
