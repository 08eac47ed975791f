import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmemtime import moments, propagate
from qmemtime.algebra import StructureConstants
from qmemtime.decoherence import (CrossingOptions, DecoherenceTime, decoherence_time,
                                  tau_expansion, tau_hat)
from qmemtime.errors import (InconclusiveCrossingError, IntegrationError, QmemtimeError,
                             StructureDefectError, TrivialWeightError,
                             ZeroDiffusionError)
from qmemtime.model import SystemParams
from qmemtime.moments import (deviation_delta, initial_moments, moment_trajectory,
                              steady_state, weighting_from_sigma)
from qmemtime.optimize import optimal_energy, rk_matrices
from qmemtime.propagate import Propagator

from dense import fit_structure_constants
from oracles import (closed_form_delta, closed_form_system, exact_first_crossing,
                     first_crossing_scan, first_hump, gell_mann_representation)


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
    monkeypatch.setattr(propagate.Deviation, "ddot0",
                        property(lambda self, f=propagate.Deviation.ddot0.func:
                                 calls.append(self) or f(self)))
    result = decoherence_time(dataclasses.replace(worked.sys), worked.init,
                              worked.weights, 0.05)
    assert calls == []
    # the root of <L, expm(t Ahat)^T> = 0.15 to 40 digits (mpmath.findroot)
    assert result.value == pytest.approx(0.00950921686406664, rel=1e-14)
    assert result.bracket == pytest.approx((0.009509216801566642, 0.009509216926566642),
                                           rel=1e-14)


def _counted_evaluations(monkeypatch):
    calls = []
    monkeypatch.setattr(propagate, "_horner",
                        lambda *a, f=propagate._horner: calls.append(a) or f(*a))
    return calls


def test_worked_crossings_take_few_evaluations(worked, monkeypatch):
    # Newton from the midpoint with a confirmed bracket: a fall back to
    # bisection would take about 20 evaluations of the interval polynomial
    system = dataclasses.replace(worked.sys)
    calls = _counted_evaluations(monkeypatch)
    for eps in (1e-3, 0.01, 0.05, 0.2, 1.0, 1.9):
        calls.clear()
        result = decoherence_time(system, worked.init, worked.weights, eps)
        assert result.bracket is not None and 1 <= len(calls) <= 6


@pytest.mark.parametrize("delta", [1e-6, 1e-8])
def test_near_tangent_crossing_keeps_bracket(pauli, delta):
    # Delta = 4 - 4 cos 2t peaks at 8 at t = pi / 2; the node 1000 lies
    # 1e-5 past the peak, so the step before it holds the hump top, and
    # the crossing of 8 - delta sits where Delta' is 16 sqrt(delta / 8)
    system = closed_form_system(pauli, "rotation", (0.0, 0.0, 1.0))
    init = initial_moments(pauli, np.array([0.5, 0.0, 0.0]))
    w = weighting_from_sigma(np.eye(3))
    tol = 1e-9 / 2.0
    opts = CrossingOptions(step=(0.5 * math.pi + 1e-5) / 1000.0, tol=tol)
    result = decoherence_time(system, init, w, (8.0 - delta) / 3.0, opts)
    lo, hi = result.bracket
    assert lo <= result.value <= hi and hi - lo <= tol
    assert 999 * opts.step <= lo and hi <= 1000 * opts.step * (1.0 + 1e-15)
    d = deviation_delta(system, init, w, np.array([0.0, lo, hi]))
    assert d[1] <= result.threshold < d[2]


@pytest.mark.parametrize("power, tol_steps", [(3, 1e-6), (9, 0.25)])
def test_refine_falls_back_to_bisection(worked, monkeypatch, power, tol_steps):
    # Delta = s^power on the first interval crosses 0 at t = 0, where
    # Newton converges linearly, by (power - 1) / power a step: s^3 from
    # h / 2 reaches no step of tol / 8 in 16 iterates, and the iterate that
    # s^9 stops at lies more than tol / 4 past the root, so its bracket is
    # not confirmed.  Both bisect on from the narrowed bracket.
    march = Propagator.of(worked.sys).deviation(worked.init, worked.weights).march(1e-3)
    coef, tol = np.eye(power + 1)[power], tol_steps * march.h
    calls = _counted_evaluations(monkeypatch)
    lo, hi = march._refine(coef, 0, 0.0, tol)
    assert 0.0 <= lo < hi <= march.h and hi - lo <= tol
    assert lo ** power <= 0.0 < hi ** power
    if power == 3:  # 16 iterates, then bisection
        assert len(calls) > 16


def test_deviation_matches_closed_forms(pauli):
    # the rotation about a unit axis and dephasing, to t = 20
    rng = np.random.default_rng(5)
    w, grid = weighting_from_sigma(np.eye(3)), np.linspace(0.0, 20.0, 2001)
    for family in ("rotation", "dephasing"):
        for _ in range(5):
            axis = rng.standard_normal(3)
            params = (axis / np.linalg.norm(axis) if family == "rotation"
                      else (rng.uniform(0.1, 1.0), rng.uniform(-2.0, 2.0)))
            mu0 = rng.uniform(-0.5, 0.5, 3)
            delta = deviation_delta(closed_form_system(pauli, family, params),
                                    initial_moments(pauli, mu0), w, grid)
            assert np.abs(delta - closed_form_delta(family, params, grid)).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["rotation", "dephasing"]), size=st.floats(0.1, 10.0),
       axis=st.tuples(*3 * [st.floats(-1.0, 1.0)]), mean=st.tuples(*3 * [st.floats(-0.5, 0.5)]),
       frac=st.floats(1e-3, 0.9))
def test_tau_is_the_exact_first_crossing(pauli, family, size, axis, mean, frac):
    # below the first hump maximum, Delta rises to the crossing without a
    # tangent; the answer is the root, not a point of a tol-wide bracket
    norm = float(np.linalg.norm(axis))
    assume(norm >= 0.1)
    params = size * np.array(axis) / norm if family == "rotation" else (axis[0], size)
    threshold = frac * first_hump(family, params)[1]
    result = decoherence_time(closed_form_system(pauli, family, params),
                              initial_moments(pauli, np.array(mean)),
                              weighting_from_sigma(np.eye(3)), threshold / 3.0)
    exact = exact_first_crossing(family, params, threshold)
    assert result.value == pytest.approx(exact, rel=1e-12)


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


_M = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.2]])
_N = np.array([0.3, 0.1])
_MU0 = np.array([0.3, 0.1, 0.2])
#: (E, M) whose drift, or the march's node count, overflows a double: numpy
#: raised LinAlgError or OverflowError on each before they were typed
_OVERFLOWS = {"E=1e307": (np.array([1e307, 0.0, 0.0]), _M),
              "E=1e308,1e308": (np.array([1e308, 1e308, 0.0]), _M),
              "M*1e154": (np.zeros(3), 1e154 * _M),
              "M*1e160": (np.zeros(3), 1e160 * _M)}


def _entry_points(system, init, w, opts=None):
    grid = np.linspace(0.0, 1.0, 5)
    return {"decoherence_time": lambda: decoherence_time(system, init, w, 0.1, opts=opts),
            "tau_expansion": lambda: tau_expansion(system, init, w),
            "steady_state": lambda: steady_state(system, init, w),
            "moment_trajectory": lambda: moment_trajectory(system, init, w, grid),
            "optimal_energy": lambda: optimal_energy(*rk_matrices(system, init, w))}


def _finite(result):
    """Every number in ``result`` is finite, but for an infinite tau without
    a bracket."""
    if isinstance(result, DecoherenceTime) and result.is_infinite:
        return result.bracket is None and math.isfinite(result.threshold)
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return all(_finite(value) for value in result)
    return result is None or bool(np.isfinite(result).all())


@pytest.mark.parametrize("case", list(_OVERFLOWS))
def test_overflowing_inputs_raise_typed_errors(pauli, case):
    E, M = _OVERFLOWS[case]
    system = SystemParams(sc=pauli, E=E, M=M, N=_N)
    init, w = initial_moments(pauli, _MU0), weighting_from_sigma(np.eye(3))
    for name, call in _entry_points(system, init, w).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call()
            except QmemtimeError as err:
                assert name != "decoherence_time" or isinstance(err, IntegrationError)
                continue
        assert name != "decoherence_time" and _finite(result), name


@settings(max_examples=40, deadline=None)
@given(scales=st.tuples(*[st.floats(-300.0, 300.0)] * 3))
@example(scales=(0.0, 154.0, 0.0))  # the drift overflows
@example(scales=(300.0, -300.0, 300.0))  # the trajectory overflows
@example(scales=(105.0, 0.0, 105.25))  # the drift is singular to working precision
@example(scales=(100.0, -6.655059397910975, 160.0))  # tau''(0) overflows
@example(scales=(-117.73367326799553, 37.4945491511553, 270.3112727617872))  # K overflows
def test_every_finite_scale_answers_or_raises_typed(pauli, scales):
    # Any E, M and N from 1e-300 to 1e300 give a finite answer or a
    # QmemtimeError; the march spans 1000 steps of 1 / (100 rho)
    e, m, n = (10.0 ** s for s in scales)
    system = SystemParams(sc=pauli, E=e * np.array([0.3, -0.2, 0.5]), M=m * _M, N=n * _N)
    init, w = initial_moments(pauli, _MU0), weighting_from_sigma(np.eye(3))
    try:
        rho = Propagator.of(system).rho
    except IntegrationError:
        rho = 1.0
    opts = CrossingOptions(step=1e-2 / rho, horizon=10.0 / rho)
    for name, call in _entry_points(system, init, w, opts).items():
        try:
            result = call()
        except QmemtimeError:
            continue
        assert _finite(result), name


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
