"""Lambda, the derivatives of Delta at 0 and (R, K) are read off the
product closure; the Kronecker sandwich checks them here.  At run time the
closure is guarded by the associativity test of the product table."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemtime.algebra import (StructureConstants, _associativity_defect, _product_table,
                              pauli_structure)
from qmemtime.decoherence import decoherence_time, tau_expansion
from qmemtime.errors import StructureDefectError
from qmemtime.model import SystemParams, coefficients, lambda_matrix
from qmemtime.moments import (delta_derivatives0, initial_moments,
                              moment_trajectory, weighting_from_sigma)
from qmemtime.optimize import rk_matrices
from qmemtime.propagate import Propagator

from conftest import random_instance
from oracles import (delta_derivatives_affine, k_kron, lambda_affine,
                     lambda_kron, lambda_sandwich, r_kron)
from test_certificate import _qutrit_pair
from test_propagate import _composite_case, _qubit_qutrit_case, _random_weights


def _rel(got, want):
    return np.abs(got - want).max() / max(1e-300, np.abs(want).max())


def _check_against_oracles(system, init, weights, mu):
    R, K = rk_matrices(system, init, weights)
    assert _rel(R, r_kron(system, init, weights)) <= 1e-12
    assert _rel(K, k_kron(system, init, weights)) <= 1e-12
    lam = lambda_matrix(system, mu)
    assert _rel(lam, lambda_kron(system, mu)) <= 1e-12
    C0, Cmu = lambda_affine(system)
    assert _rel(lam, C0 + np.tensordot(mu, Cmu, axes=1)) <= 1e-12
    co = coefficients(system)
    v = co.A @ mu + co.b  # the rate of the mean at mu
    scale = np.abs(Cmu).max() * max(1.0, np.abs(v).max())
    rate = lambda_matrix(system, v) - lambda_matrix(system, np.zeros(system.n))  # Lambda is affine
    assert np.abs(rate - np.tensordot(v, Cmu, axes=1)).max() <= 1e-12 * scale
    d1, d2 = delta_derivatives0(system, init, weights)
    d1_ref, d2_ref = delta_derivatives_affine(system, init, weights)
    assert abs(d1 - d1_ref) <= 1e-12 * d1_ref
    # d2 is a quadratic in E with Hessian 16R, and may cancel to near 0
    assert abs(d2 - d2_ref) <= 1e-12 * max(abs(d2_ref), np.abs(R).max())


@pytest.mark.parametrize("case", ["spin", "composite", "qubit-qutrit"])
def test_closure_forms_match_kronecker_oracles(case):
    if case == "spin":
        system, init = random_instance(pauli_structure(), np.random.default_rng(21))
    else:
        system, init = _composite_case() if case == "composite" else _qubit_qutrit_case()
    if case == "qubit-qutrit":
        assert np.abs(system.sc.re_beta).max() > 0.1
    system = dataclasses.replace(system)
    weights = _random_weights(system.n, 22)
    mu = 0.3 * np.random.default_rng(23).standard_normal(system.n)
    _check_against_oracles(system, init, weights, mu)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), coupling=st.floats(0.1, 3.0),
       rank=st.integers(1, 3))
def test_closure_forms_match_oracles_on_random_spins(seed, coupling, rank):
    rng = np.random.default_rng(seed)
    system, init = random_instance(pauli_structure(), rng, m=2 * rng.integers(1, 3),
                                   coupling_scale=coupling)
    F = rng.standard_normal((rank, 3))
    weights = weighting_from_sigma(F.T @ F)  # PSD, of rank ``rank``
    _check_against_oracles(system, init, weights, 0.5 * rng.standard_normal(3))


def _spin_couplings(sc, seed):
    rng = np.random.default_rng(seed)
    return SystemParams(sc=sc, E=rng.standard_normal(3), M=rng.standard_normal((2, 3)),
                        N=rng.standard_normal(2))


def _probe_means(n):
    # mu = 0 and the propagator's pseudo-random probe mean
    return np.zeros(n), 2.0 * (np.arange(1, n + 1) * 0.6180339887498949 % 1.0) - 1.0


def _closure_against_sandwich(system, mu):
    """|closure form - sandwich| of Lambda at ``mu``, relative to their terms."""
    prop = Propagator(system)
    form, size = prop._closure_form(prop.co.Atilde, prop.b, mu)
    sandwich = lambda_sandwich(system, mu)
    return np.abs(form - sandwich).max() / max(1.0, size, np.abs(sandwich).max())


@pytest.mark.parametrize("kind", ["alpha I, beta 2i Theta", "alpha 2I, spin beta"])
def test_guard_needs_the_second_mean(kind):
    # Both constants are not associative, yet the closure form of Lambda
    # matches the sandwich at mu = 0; only its linear part is off, which
    # the pseudo-random probe mean shows.  The table test needs no mean.
    spin = pauli_structure()
    if kind.startswith("alpha I"):
        bad = StructureConstants(np.eye(3), 2j * spin.theta)
    else:
        bad = StructureConstants(2.0 * np.eye(3), spin.beta)
    system = _spin_couplings(bad, 31)
    zero, probe = _probe_means(3)
    assert _closure_against_sandwich(system, zero) <= 1e-15
    assert _closure_against_sandwich(system, probe) > 1e-3
    prop = Propagator(system)
    assert prop._defect == _associativity_defect(_product_table(bad)) > 1e-3
    init = initial_moments(bad, np.array([0.05, 0.0, 0.02]))
    weights = weighting_from_sigma(np.eye(3))
    for call in (lambda: decoherence_time(system, init, weights, 0.1),
                 lambda: tau_expansion(system, init, weights),
                 lambda: rk_matrices(system, init, weights),
                 lambda: lambda_matrix(system, zero),
                 lambda: moment_trajectory(system, init, weights, np.linspace(0.0, 1.0, 5))):
        with pytest.raises(StructureDefectError, match="not associative"):
            call()


def test_guard_rejects_uncoupled_non_associative_constants():
    # Without coupling the closure form of Lambda is exactly 0, and so is
    # the sandwich, at every mean: no probe of Lambda sees these constants
    bad = StructureConstants(2.0 * np.eye(3), pauli_structure().beta)
    system = SystemParams(sc=bad, E=np.array([0.3, -0.2, 0.5]), M=np.zeros((2, 3)),
                          N=np.zeros(2))
    init = initial_moments(bad, np.array([0.2, 0.0, 0.1]))
    assert _closure_against_sandwich(system, _probe_means(3)[1]) == 0.0
    with pytest.raises(StructureDefectError, match="not associative"):
        moment_trajectory(system, init, weighting_from_sigma(np.eye(3)), np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("c", [1e-150, 1e-3, 1e5, 1e150])
def test_guard_holds_for_rescaled_constants(c):
    # X' = c X measures as X.  Relative to max|T|^2 = 4 c^4 in the basis of
    # the X', the defect of the non-associative set would be 1.5e-11 at 1e5
    spin = pauli_structure()
    bad = StructureConstants(2.0 * np.eye(3), spin.beta)
    scaled = StructureConstants(2.0 * c * c * np.eye(3), c * spin.beta)
    good = StructureConstants(c * c * np.eye(3), c * spin.beta)
    want = _associativity_defect(_product_table(bad))
    assert _associativity_defect(_product_table(scaled)) == pytest.approx(want, rel=1e-12)
    assert _associativity_defect(_product_table(good)) <= 1e-15


def test_guard_accepts_associative_constants():
    spin = pauli_structure()
    rescaled = StructureConstants(4.0 * np.eye(3), 2.0 * spin.beta)  # X' = 2X
    for system in (_spin_couplings(spin, 32), _spin_couplings(rescaled, 33),
                   _composite_case()[0], _qubit_qutrit_case()[0], _qutrit_pair()[0]):
        prop = Propagator(system)
        prop._require_closure()
        assert prop._defect <= 1e-13
        zero = np.zeros(system.n)
        for mu in _probe_means(system.n):
            assert _closure_against_sandwich(system, mu) <= 1e-14
            # the isolated part beta . (A0 mu) - A0 S - S A0^T vanishes
            form, size = prop._closure_form(prop.co.A0, zero, mu)
            assert np.abs(form).max() / max(1.0, size) <= 1e-14


def test_setup_memory_at_n35():
    # no array of order n^4: the sandwich tensor alone took 24 MB here
    system, init = _qubit_qutrit_case()
    system = dataclasses.replace(system)
    weights = weighting_from_sigma(np.eye(system.n))
    tracemalloc.start()
    try:
        Propagator.of(system)
        rk_matrices(system, init, weights)
        lambda_matrix(system, init.mu0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
