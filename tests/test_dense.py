import numpy as np
import pytest
from scipy.linalg import expm as sexpm

from qmemtime.algebra import StructureConstants, pauli_structure, sections_diamond

from dense import (DegenerateBasisError, Representation, check_algebra,
                   fit_structure_constants, qubit_representation,
                   tensor_representation)


def test_qubit_matrices_exact():
    rep = qubit_representation()
    s1, s2, s3 = rep.X
    assert np.array_equal(s2, np.array([[0, -1j], [1j, 0]]))
    assert np.abs(s1 @ s2 - 1j * s3).max() == 0.0
    for s in rep.X:
        assert np.abs(s @ s - np.eye(2)).max() == 0.0


def test_fit_recovers_spin_constants():
    fit = fit_structure_constants(qubit_representation())
    pauli = pauli_structure()
    assert np.abs(fit.constants.alpha - np.eye(3)).max() <= 1e-12
    assert np.abs(fit.constants.beta - pauli.beta).max() <= 1e-12
    assert fit.residual <= 1e-12


def test_tensor_representation_layout():
    q = qubit_representation()
    rep = tensor_representation(q, q)
    assert rep.n == 15 and rep.d == 4
    # block ordering: entry n1 + n2 + (j*n2 + k) is X_j (x) X_k
    for j in range(3):
        for k in range(3):
            idx = 3 + 3 + j * 3 + k
            assert np.abs(rep.X[idx] - np.kron(q.X[j], q.X[k])).max() == 0.0
    assert np.abs(rep.X[6] - np.kron(q.X[0], q.X[0])).max() == 0.0


def test_tensor_blocks_commute():
    q = qubit_representation()
    rep = tensor_representation(q, q)
    worst = 0.0
    for a in rep.X[0:3]:
        for b in rep.X[3:6]:
            worst = max(worst, np.abs(a @ b - b @ a).max())
    assert worst <= 1e-14


def test_composite_alpha_block_diagonal():
    q = qubit_representation()
    fit = fit_structure_constants(tensor_representation(q, q))
    alpha = fit.constants.alpha
    expected = np.eye(15)  # diag(a1, a2, a1 (x) a2) with unit subsystem alphas
    assert np.abs(alpha - expected).max() <= 1e-10
    assert np.abs(alpha[0:3, 3:]).max() <= 1e-12


def test_composite_theta_sections_antisymmetric():
    q = qubit_representation()
    fit = fit_structure_constants(tensor_representation(q, q))
    th = fit.constants.theta
    assert not np.iscomplexobj(th)
    assert np.abs(th + np.transpose(th, (0, 2, 1))).max() <= 1e-12


def test_degenerate_basis_rejected():
    rep = Representation((np.eye(2),), label="identity-only")
    with pytest.raises(DegenerateBasisError):
        fit_structure_constants(rep)


def test_check_algebra_golden_and_composite():
    q = qubit_representation()
    assert check_algebra(q, pauli_structure(), tol=1e-12).passed
    fit = fit_structure_constants(tensor_representation(q, q))
    assert check_algebra(tensor_representation(q, q), fit.constants, tol=1e-10).passed


def test_check_algebra_detects_flipped_ccr(pauli):
    beta = pauli.beta.copy()
    theta = beta.imag.copy()
    theta[2, 0, 1] = -1.0  # flip one orientation pair
    theta[2, 1, 0] = 1.0
    bad = StructureConstants(pauli.alpha, pauli.beta.real + 1j * theta)
    report = check_algebra(qubit_representation(), bad, tol=1e-10)
    assert not report.passed
    assert report.ccr_error > 1e-2


def test_fit_round_trip_passes_at_ten_times_residual():
    q = qubit_representation()
    for rep in (q, tensor_representation(q, q)):
        fit = fit_structure_constants(rep)
        tol = max(10.0 * fit.residual, 1e-14)
        assert check_algebra(rep, fit.constants, tol=tol).passed


def test_isolated_flow_conserves_energy_observable(pauli):
    """The dense-matrix flow e^{tA0} X(0) leaves E^T X invariant."""
    rng = np.random.default_rng(6)
    rep = qubit_representation()
    E = rng.standard_normal(3)
    A0 = 2.0 * sections_diamond(pauli.theta, E)
    H0 = sum(E[k] * rep.X[k] for k in range(3))
    for t in (0.1, 1.0):
        flow = sexpm(A0 * t)
        Ht = sum((E @ flow)[k] * rep.X[k] for k in range(3))
        assert np.abs(Ht - H0).max() <= 1e-12


def test_representation_rejects_nonhermitian():
    with pytest.raises(ValueError):
        Representation((np.array([[0.0, 1.0], [0.0, 0.0]]),))
