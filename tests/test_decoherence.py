import dataclasses
import math

import numpy as np
import pytest

from qmemtime import decoherence, moments
from qmemtime.algebra import StructureConstants
from qmemtime.decoherence import (CrossingOptions, decoherence_time,
                                  tau_expansion, tau_hat)
from qmemtime.errors import (InconclusiveCrossingError, IntegrationError,
                             StructureDefectError, TrivialWeightError,
                             ZeroDiffusionError)
from qmemtime.model import SystemParams
from qmemtime.moments import (deviation_delta, initial_moments,
                              weighting_from_sigma)
from qmemtime.propagate import Propagator

from dense import fit_structure_constants
from oracles import first_crossing_scan, gell_mann_representation


def test_frozen_system_never_decoheres(pauli):
    sys = SystemParams(sc=pauli, E=np.zeros(3), M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.array([0.2, -0.1, 0.3]))
    w = weighting_from_sigma(np.eye(3))
    for eps in (1e-3, 0.5, 10.0):
        result = decoherence_time(sys, init, w, eps)
        assert result.is_infinite
        assert result.bracket is None


def test_crossing_search_skips_second_derivative(worked, monkeypatch):
    # the frozen-dynamics test needs only the first derivative of Delta
    calls = []
    for module in (moments, decoherence):
        monkeypatch.setattr(module, "delta_derivatives0",
                            lambda *a, f=module.delta_derivatives0: calls.append(a) or f(*a))
    result = decoherence_time(dataclasses.replace(worked.sys), worked.init,
                              worked.weights, 0.05)
    assert calls == []
    assert result.value == pytest.approx(0.009509216904640197, rel=1e-14)
    assert result.bracket == pytest.approx((0.009509216785430909, 0.009509217023849487),
                                           rel=1e-14)


def test_certificate_derives_no_diffusion(worked, monkeypatch):
    # the certificate needs the steady mean alone, not Lambda_inf or P_inf
    calls = []
    monkeypatch.setattr(Propagator, "lam",
                        lambda self, *a, f=Propagator.lam: calls.append(a) or f(self, *a))
    result = decoherence_time(dataclasses.replace(worked.sys), worked.init,
                              worked.weights, 2.5)
    assert result.is_infinite
    assert calls == []


def test_worked_crossing_against_dense_scan(worked):
    eps = 0.01
    result = decoherence_time(worked.sys, worked.init, worked.weights, eps)
    assert not result.is_infinite
    lo, hi = result.bracket
    assert hi - lo <= 1e-8
    assert lo <= result.value <= hi
    # dense scan of the deviation around the crossing, step 1e-6
    grid = np.arange(0.0, hi + 2e-4, 1e-6)
    grid[0] = 0.0
    delta = deviation_delta(worked.sys, worked.init, worked.weights, grid)
    scanned = first_crossing_scan(grid, delta, result.threshold)
    assert scanned is not None
    assert abs(result.value - scanned) <= 1e-8 + 1e-6


def test_bracket_invariant_holds(worked):
    result = decoherence_time(worked.sys, worked.init, worked.weights, 0.05)
    lo, hi = result.bracket
    d = deviation_delta(worked.sys, worked.init, worked.weights,
                        np.array([0.0, lo, hi]))
    assert d[1] <= result.threshold < d[2]


def test_tau_monotone_in_eps(worked):
    t1 = decoherence_time(worked.sys, worked.init, worked.weights, 0.01)
    t2 = decoherence_time(worked.sys, worked.init, worked.weights, 0.02)
    assert t1.value <= t2.value


def test_certified_infinite_above_limit_deviation(worked):
    # threshold 2.5 * 3 = 7.5 sits above the marched supremum (limit 6);
    # the dense-scan oracle agrees that no crossing occurs
    grid = np.linspace(0.0, 10.0, 4001)
    delta = deviation_delta(worked.sys, worked.init, worked.weights, grid)
    assert first_crossing_scan(grid, delta, 7.5) is None
    result = decoherence_time(worked.sys, worked.init, worked.weights, 2.5)
    assert result.is_infinite


def test_threshold_at_limit_is_inconclusive(worked):
    # threshold 2.0 * 3 = 6 equals the limit deviation: the steady-state
    # certificate cannot clear its margin and the deviation approaches the
    # threshold from below, so a bounded search must admit inconclusiveness
    with pytest.raises(InconclusiveCrossingError) as err:
        decoherence_time(worked.sys, worked.init, worked.weights, 2.0,
                         opts=CrossingOptions(horizon=20.0))
    assert err.value.sup_delta <= 6.0


def test_linear_rate_recovered_for_small_eps(worked):
    expn = tau_expansion(worked.sys, worked.init, worked.weights)
    for eps in (1e-3, 1e-4):
        result = decoherence_time(worked.sys, worked.init, worked.weights, eps)
        assert abs(result.value / eps - expn.tau_prime0) <= 0.02 * expn.tau_prime0


def test_rotation_crossing_closed_form(pauli):
    # isolated rotation: deviation 4(1 - cos 2t), so the crossing of
    # eps * 3 solves cos 2t = 1 - 3 eps / 4
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    w = weighting_from_sigma(np.eye(3))
    eps = 0.1
    result = decoherence_time(sys, init, w, eps)
    closed = 0.5 * math.acos(1.0 - 3.0 * eps / 4.0)
    assert abs(result.value - closed) <= 1e-8


def test_rotation_without_crossing_is_inconclusive(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    w = weighting_from_sigma(np.eye(3))
    with pytest.raises(InconclusiveCrossingError) as err:
        decoherence_time(sys, init, w, 3.0, opts=CrossingOptions(horizon=15.0))
    assert abs(err.value.sup_delta - 8.0) <= 1e-6  # oscillation peak


def test_near_tangent_threshold_has_no_finite_tau(pauli):
    # from mu0 = (0.5, 0, 0) the isolated spin has Delta = 4 - 4 cos 2t <= 8;
    # a march whose maps over 2^i steps are squares of the one-step map
    # drifts above 8 + 1e-10 and finds tau = 2822.72, and one that pushes
    # its state across every 2^i steps by their own map drifts above
    # 8 + 1e-11 and finds tau = 9536.30
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.array([0.5, 0.0, 0.0]))
    w = weighting_from_sigma(np.eye(3))
    for threshold in (8.0 + 1e-10, 8.0 + 1e-11):
        with pytest.raises(InconclusiveCrossingError) as err:
            decoherence_time(sys, init, w, threshold / 3.0)
        assert abs(err.value.sup_delta - 8.0) <= 1e-10


@pytest.mark.parametrize("scale", [1e40, 1e100, 1e300])
def test_tau_follows_energy_scaling_at_huge_drifts(worked, scale):
    # tau |E| does not depend on |E| along E = (|E|, 0, 0); unscaled Taylor
    # rows overflowed from |E| = 1e40 on, and gave tau = 1.95e-41 there
    def tau_times(e):
        sys = worked.sys.with_energy(np.array([e, 0.0, 0.0]))
        return decoherence_time(sys, worked.init, worked.weights, 0.1).value * e

    # the bracket is 2.5e-9 of tau wide
    assert tau_times(scale) == pytest.approx(tau_times(1e16), rel=1e-8)


def test_expansion_with_overflowing_curvature_raises(worked):
    # Delta''(0) is about 1e600 here
    sys = worked.sys.with_energy(np.array([1e300, 0.0, 0.0]))
    with pytest.raises(IntegrationError, match="overflows"):
        tau_expansion(sys, worked.init, worked.weights)


def test_expansion_worked_values(worked):
    expn = tau_expansion(worked.sys, worked.init, worked.weights)
    assert expn.delta_dot0 == pytest.approx(16.0, abs=1e-12)
    assert expn.delta_ddot0 == pytest.approx(-48.0, abs=1e-12)
    assert expn.tau_prime0 == pytest.approx(3.0 / 16.0, abs=1e-14)
    assert expn.tau_second0 == pytest.approx(27.0 / 256.0, abs=1e-14)
    assert expn.ref_norm == pytest.approx(3.0, abs=1e-14)


def test_expansion_invariant_under_weight_scaling(worked):
    w2 = weighting_from_sigma(2.0 * np.eye(3))
    e1 = tau_expansion(worked.sys, worked.init, worked.weights)
    e2 = tau_expansion(worked.sys, worked.init, w2)
    assert e2.tau_prime0 == pytest.approx(e1.tau_prime0, rel=1e-12)


def test_expansion_requires_diffusion(pauli):
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=np.zeros((2, 3)), N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    w = weighting_from_sigma(np.eye(3))
    with pytest.raises(ZeroDiffusionError):
        tau_expansion(sys, init, w)


@pytest.mark.parametrize("case", ["uncoupled", "uncoupled, |E| = 1e3", "orthogonal weighting",
                                  "uncoupled qutrit, |E| = 1e3"])
def test_zero_diffusion_is_exact(pauli, worked, case):
    # Lambda is read off the coupling drift alone, so an uncoupled system
    # has no diffusion at any energy, not a roundoff one (with the drift A,
    # the qutrit's Re beta leaves -6e-15); the weighting diag(0, 0, 1) at
    # the pole mean sees none of Re Lambda = diag(4, 4, 0)
    if case == "orthogonal weighting":
        sys = worked.sys.with_energy(np.array([0.0, 0.0, 1.0]))
        init = initial_moments(pauli, np.array([0.0, 0.0, 1.0]))
        w = weighting_from_sigma(np.diag([0.0, 0.0, 1.0]))
    elif case.startswith("uncoupled qutrit"):
        sc = fit_structure_constants(gell_mann_representation(3)).constants
        rng = np.random.default_rng(1)
        sys = SystemParams(sc=sc, E=1e3 * rng.standard_normal(8) / np.sqrt(8),
                           M=np.zeros((2, 8)), N=np.zeros(2))
        init = initial_moments(sc, 0.1 * rng.standard_normal(8))
        w = weighting_from_sigma(np.eye(8))
    else:
        E = np.zeros(3) if case == "uncoupled" else 1e3 * np.array([0.6, -0.48, 0.64])
        sys = SystemParams(sc=pauli, E=E, M=np.zeros((2, 3)), N=np.zeros(2))
        init = initial_moments(pauli, np.array([0.2, -0.1, 0.3]))
        w = weighting_from_sigma(np.eye(3))
    assert moments.delta_derivatives0(sys, init, w)[0] == 0.0
    with pytest.raises(ZeroDiffusionError):
        tau_expansion(sys, init, w)
    if case == "uncoupled":  # frozen dynamics
        assert decoherence_time(sys, init, w, 0.01).is_infinite


def test_trivial_weighting_rejected():
    # a rank-deficient initial size: alpha = diag(1, 1, 0) with the spin
    # commutation sections; weighting supported on the null direction
    theta = np.zeros((3, 3, 3))
    theta[2, 0, 1], theta[2, 1, 0] = 1.0, -1.0
    theta[0, 1, 2], theta[0, 2, 1] = 1.0, -1.0
    theta[1, 2, 0], theta[1, 0, 2] = 1.0, -1.0
    sc = StructureConstants(np.diag([1.0, 1.0, 0.0]), 1j * theta)
    sys = SystemParams(sc=sc, E=np.zeros(3), M=np.array([[1.0, 0.0, 0.0],
                                                         [0.0, 1.0, 0.0]]),
                       N=np.zeros(2))
    init = initial_moments(sc, np.zeros(3))
    w = weighting_from_sigma(np.diag([0.0, 0.0, 1.0]))
    with pytest.raises(TrivialWeightError):
        decoherence_time(sys, init, w, 0.1)
    with pytest.raises(TrivialWeightError):
        tau_expansion(sys, init, w)


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-14, 1e-20])
def test_weight_scale_invariance(worked, scale):
    # tau, tau'(0) and tau''(0) do not see the scale of Sigma, and neither
    # do the floors on tr(Sigma P), Delta'(0) and the PSD check of Sigma
    w = weighting_from_sigma(scale * np.eye(3))
    weighting_from_sigma(scale * np.diag([1.0, 1.0, -1e-11]))
    with pytest.raises(ValueError, match="not PSD"):
        weighting_from_sigma(scale * np.diag([1.0, 1.0, -1e-9]))
    args = (worked.sys, worked.init)
    for eps in (0.01, 0.05):
        want = decoherence_time(*args, worked.weights, eps).value
        assert decoherence_time(*args, w, eps).value == pytest.approx(want, rel=1e-12)
    assert decoherence_time(*args, w, 2.5).is_infinite
    e1, e2 = tau_expansion(*args, worked.weights), tau_expansion(*args, w)
    assert e2.tau_prime0 == pytest.approx(e1.tau_prime0, rel=1e-12)
    assert e2.tau_second0 == pytest.approx(e1.tau_second0, rel=1e-12)


def test_zero_weighting_rejected(worked):
    w = weighting_from_sigma(np.zeros((3, 3)))
    with pytest.raises(TrivialWeightError):
        decoherence_time(worked.sys, worked.init, w, 0.1)
    with pytest.raises(TrivialWeightError):
        tau_expansion(worked.sys, worked.init, w)


def test_trivial_weighting_raises_before_structure_defect(pauli):
    # alpha = 2I with the spin beta is not associative (see
    # test_non_associative_table_raises_structure_defect); a weighting of
    # zero is checked first, by tau and by its expansion
    bad = StructureConstants(2.0 * np.eye(3), pauli.beta)
    system = SystemParams(sc=bad, E=np.array([0.3, -0.2, 0.5]),
                          M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), N=np.zeros(2))
    init = initial_moments(bad, np.array([0.2, 0.0, 0.1]))
    for _ in range(2):
        with pytest.raises(TrivialWeightError):
            decoherence_time(system, init, weighting_from_sigma(np.zeros((3, 3))), 0.1)
        with pytest.raises(TrivialWeightError):
            tau_expansion(system, init, weighting_from_sigma(np.zeros((3, 3))))
    with pytest.raises(StructureDefectError):
        decoherence_time(system, init, weighting_from_sigma(np.eye(3)), 0.1)


def test_tau_hat_values(worked):
    expn = tau_expansion(worked.sys, worked.init, worked.weights)
    assert tau_hat(expn, 0.0) == 0.0
    expected = 3.0 / 1600.0 + 0.5 * (27.0 / 256.0) * 1e-4
    assert tau_hat(expn, 0.01) == pytest.approx(expected, abs=1e-15)
    assert tau_hat(expn, 0.01) == pytest.approx(0.0018803, abs=1e-7)


def test_tau_hat_cubic_agreement(worked):
    expn = tau_expansion(worked.sys, worked.init, worked.weights)
    ratios = []
    for eps in (1e-2, 5e-3):
        tau = decoherence_time(worked.sys, worked.init, worked.weights, eps).value
        ratios.append(abs(tau - tau_hat(expn, eps)) / eps ** 3)
    assert max(ratios) <= 10.0 * max(min(ratios), 1e-6)


def test_monotone_over_random_instances(make_instance):
    rng = np.random.default_rng(42)
    w = weighting_from_sigma(np.eye(3))
    for _ in range(8):
        sys, init = make_instance(rng)
        values = [decoherence_time(sys, init, w, eps).value
                  for eps in (0.05, 0.1, 0.2)]
        assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12


def test_positive_eps_required(worked):
    for eps in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="fidelity"):
            decoherence_time(worked.sys, worked.init, worked.weights, eps)
    for field, val in (("step", 0.0), ("step", math.nan), ("tol", -1e-9),
                       ("horizon", math.nan), ("horizon", math.inf),
                       ("margin", 0.0), ("margin", math.nan)):
        with pytest.raises(ValueError, match=f"CrossingOptions.{field} "):
            decoherence_time(worked.sys, worked.init, worked.weights, 0.01,
                             opts=CrossingOptions(**{field: val}))
    with pytest.raises(TypeError, match="settle"):
        CrossingOptions(settle=20.0)


def test_options_are_honored(worked):
    opts = CrossingOptions(step=1e-4, tol=1e-10)
    result = decoherence_time(worked.sys, worked.init, worked.weights, 0.01,
                              opts=opts)
    lo, hi = result.bracket
    assert hi - lo <= 1e-10
    assert abs(result.value - 0.00188029) <= 1e-6
