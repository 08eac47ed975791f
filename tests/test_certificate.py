"""The infinite-tau certificate: identity (e), Delta_inf read off the
functional, and the Lyapunov-norm bound |Delta(s) - Delta_inf| <= B0
e^{-rate s} that ends the march at a closed-form time."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st
from scipy.linalg import expm as sexpm, solve_continuous_lyapunov, sqrtm

from qmemtime import propagate
from qmemtime.decoherence import CrossingOptions, decoherence_time
from qmemtime.errors import InconclusiveCrossingError
from qmemtime.interconnect import compose, product_mean
from qmemtime.linalg import decay_gramian
from qmemtime.model import SystemParams
from qmemtime.moments import (deviation_delta, initial_moments, reference_norm,
                              steady_state, weighting_from_sigma)
from qmemtime.propagate import Propagator

from dense import fit_structure_constants
from oracles import first_crossing_scan, gell_mann_representation


def _cases(worked, make_instance, count, seed):
    """The worked system and ``count`` random Hurwitz spins, each with a
    random positive definite weighting."""
    rng = np.random.default_rng(seed)
    out = [(worked.sys, worked.init, worked.weights)]
    while len(out) <= count:
        sys, init = make_instance(rng)
        if Propagator.of(sys).margin < -1e-3:
            G = rng.standard_normal((3, 3))
            out.append((sys, init, weighting_from_sigma(G @ G.T / 3 + 0.1 * np.eye(3))))
    return out


def test_identity_e_against_trajectory(worked, make_instance):
    # Delta(t) - Delta_inf = tr(K E_t) with K = L11 - mu_inf g^T
    grid = np.linspace(0.0, 3.0, 61)
    for sys, init, w in _cases(worked, make_instance, 5, 11):
        prop = Propagator.of(sys)
        L = prop.functional(init, w.Sigma)
        mu_inf = prop.limits[0]
        K = L[:-1, :-1] - np.outer(mu_inf, L[-1, :-1])
        d_inf = float(L[-1, :-1] @ mu_inf + L[-1, -1])
        delta = deviation_delta(sys, init, w, grid)
        form = np.array([np.sum(K * sexpm(t * prop.A).T) for t in grid]) + d_inf
        assert np.abs(form - delta).max() <= 1e-12 * max(1.0, np.abs(delta).max())


def test_limit_read_off_functional(worked, make_instance):
    for sys, init, w in _cases(worked, make_instance, 5, 12):
        march = Propagator.of(sys).deviation(init, w).march(1e-3)
        want = steady_state(sys, init, w).Delta_inf
        assert march.dev.limit == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_lyapunov_norm_against_scipy(worked, make_instance):
    # X of scipy's Bartels-Stewart solver and its square root by sqrtm give
    # the contraction bound and B0 = ||X^{1/2} K X^{-1/2}||_* independently
    for sys, init, w in _cases(worked, make_instance, 6, 14):
        prop = Propagator.of(sys)
        Xh, Xih, rate, kappa = prop.contraction
        X = solve_continuous_lyapunov(prop.A.T, -np.eye(3))
        root = sqrtm(X).real
        assert np.abs(Xh - root).max() <= 1e-10 * np.abs(root).max()
        assert np.abs(Xih @ root - np.eye(3)).max() <= 1e-10
        for t in np.linspace(0.0, 4.0, 41):
            E = sexpm(t * prop.A)
            norm = np.linalg.norm(root @ E @ np.linalg.inv(root), 2)
            assert norm <= np.exp(-rate * t) * (1 + 1e-12)
        march = prop.deviation(init, w).march(1e-3)
        L, mu_inf = march.dev.L, prop.limits[0]
        K = L[:-1, :-1] - np.outer(mu_inf, L[-1, :-1])
        nuclear = np.linalg.svd(root @ K @ np.linalg.inv(root), compute_uv=False).sum()
        b0 = march.dev.decay_bound[0]
        assert nuclear <= b0 <= nuclear * (1 + 1e-10)


def test_bound_holds_on_dense_scan(worked, make_instance):
    checked = 0
    for sys, init, w in _cases(worked, make_instance, 8, 13):
        march = Propagator.of(sys).deviation(init, w).march(1e-3)
        bound = march.dev.decay_bound
        if bound is None:
            continue
        b0, rate = bound
        grid = np.linspace(0.0, 8.0 / rate, 4001)
        gap = np.abs(deviation_delta(sys, init, w, grid) - march.dev.limit)
        assert np.all(gap <= b0 * np.exp(-rate * grid) + 1e-12 * max(1.0, b0))
        checked += 1
    assert checked >= 6


def test_weakly_damped_spin_certified_without_march(pauli, marched_nodes):
    # Delta_inf + B0 = 6 + 6 < 30: certified at t = 0; the settle-time rule
    # needed 20 / 0.0018 time units, past the horizon
    sys = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]),
                       M=0.03 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                       N=np.zeros(2))
    init = initial_moments(pauli, np.zeros(3))
    result = decoherence_time(sys, init, weighting_from_sigma(np.eye(3)), 10.0)
    assert result.is_infinite and result.bracket is None
    assert marched_nodes == [0]


def _spin(pauli, a, c, ratio, tilt, n1, r, seed):
    """A coupled spin whose drift has the block [[0, -2 om], [2 om, -2 a^2]]
    for ``c`` = 0 and ``tilt`` = 0: defective at om = a^2 / 2, that is
    ``ratio`` = 1, and near it for ``ratio`` close to 1.  ``c`` couples the
    second axis, ``tilt`` tips the field, and a seeded rotation turns the
    whole instance."""
    q, rr = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    R = q * np.sign(np.diag(rr))
    om = 0.5 * a * a * ratio
    E = R @ np.array([tilt, 0.0, om])
    M = np.array([[a, 0.0, 0.0], [0.0, c, 0.0]]) @ R.T
    mu0 = R @ np.array([r, 0.0, 0.5 * r])
    return (SystemParams(sc=pauli, E=E, M=M, N=np.array([n1, 0.0])),
            initial_moments(pauli, mu0 / max(1.0, np.linalg.norm(mu0))))


@settings(max_examples=25, deadline=None)
@example(a=1.0, c=0.0, ratio=1.0, tilt=0.0, n1=0.0, r=0.9, frac=0.5, seed=1)
@example(a=1.0, c=0.05, ratio=1.0 + 1e-6, tilt=0.01, n1=0.3, r=0.8, frac=0.9, seed=2)
@example(a=1.5, c=0.0, ratio=0.999999, tilt=0.0, n1=0.0, r=0.9, frac=1.5, seed=3)
@given(a=st.floats(0.6, 2.0), c=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       ratio=st.one_of(st.floats(0.999, 1.001), st.floats(0.05, 5.0)),
       tilt=st.floats(-0.3, 0.3), n1=st.floats(-0.5, 0.5), r=st.floats(0.0, 1.0),
       frac=st.floats(0.02, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_never_skips_a_scanned_crossing(pauli, a, c, ratio, tilt, n1, r,
                                                    frac, seed):
    # a threshold a share ``frac`` of the way from Delta_inf to the scanned
    # peak: frac < 1 is crossed (possibly long before t_c), frac > 1 is not
    sys, init = _spin(pauli, a, c, ratio, tilt, n1, r, seed)
    weights = weighting_from_sigma(np.eye(3))
    prop = Propagator.of(sys)
    assume(prop.margin < -1e-2)
    step = 1e-3 / max(1.0, prop.norm_a)
    march = prop.deviation(init, weights).march(step)
    bound = march.dev.decay_bound
    assume(bound is not None)
    b0, rate = bound
    kappa = prop.contraction[3]
    target(math.log10(kappa), label="log10 kappa(X)")

    d_inf = march.dev.limit
    grid = np.arange(int(12.0 / rate / step)) * step
    scan = deviation_delta(sys, init, weights, grid)
    assert np.all(np.abs(scan - d_inf) <= b0 * np.exp(-rate * grid) + 1e-12 * max(1.0, b0))
    # without an overshoot, thresholds above Delta_inf are never crossed
    threshold = d_inf + frac * max(scan.max() - d_inf, 0.05 * abs(d_inf) + 1e-3)
    assume(threshold > d_inf + 1e-6 and np.abs(scan - threshold).min() > 1e-9)
    clear = (1.0 - 1e-6) * threshold - d_inf
    t_c = math.log(b0 / clear) / rate if b0 > clear else 0.0
    assume(t_c < grid[-1] / 2)

    eps = threshold / reference_norm(init, weights)
    result = decoherence_time(sys, init, weights, eps, opts=CrossingOptions(step=step))
    crossing = first_crossing_scan(grid, scan, threshold)
    assert result.is_infinite == (crossing is None)
    if crossing is not None:
        assert abs(result.value - crossing) <= step


@pytest.mark.parametrize("fault", ["kappa", "residual", "no X"])
def test_no_certificate_without_a_checked_lyapunov_norm(worked, monkeypatch, fault):
    # The worked X = diag(1, 1, 1/2) / 4 has kappa(X) = 2, and 2X leaves the
    # residual A^T (2X) + (2X) A + I = -I, so r = 1 > 1/2; the doubling may
    # also reach no X.  Without a norm, eps = 2.5 is not certified by t_c =
    # ln(4) / 2, which is within the horizon
    args, opts = (worked.init, worked.weights, 2.5), CrossingOptions(horizon=2.0)
    assert decoherence_time(dataclasses.replace(worked.sys), *args, opts=opts).is_infinite
    if fault == "kappa":
        monkeypatch.setattr(propagate, "KAPPA_MAX", 1.0)
    elif fault == "residual":
        monkeypatch.setattr(propagate, "decay_gramian",
                            lambda A, h, f=propagate.decay_gramian: 2.0 * f(A, h))
    else:
        monkeypatch.setattr(propagate, "decay_gramian", lambda A, h: None)
    system = dataclasses.replace(worked.sys)
    with pytest.raises(InconclusiveCrossingError):
        decoherence_time(system, *args, opts=opts)
    prop = Propagator.of(system)
    assert prop.contraction is None and prop._deviation.decay_bound is None


@pytest.mark.parametrize("case", ["jordan", "damped rotation", "random n=35"])
def test_decay_gramian_against_scipy(case):
    # a defective drift, a rotation damped at 1e-3, which takes 16
    # doublings, and a generic drift, each from s = 1 / (2 ||A||_2)
    if case == "jordan":
        A = -np.eye(4) + np.diag(np.ones(3), 1)
    elif case == "damped rotation":
        A = np.array([[-1e-3, 1.0], [-1.0, -1e-3]])
    else:
        M = np.random.default_rng(35).standard_normal((35, 35)) / np.sqrt(35)
        A = M - (np.linalg.eigvals(M).real.max() + 0.3) * np.eye(35)
    X = decay_gramian(A, 0.5 / max(1.0, np.linalg.norm(A, 2)))
    want = solve_continuous_lyapunov(A.T, -np.eye(len(A)))
    assert np.abs(X - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(X, X.T)


@pytest.mark.parametrize("case", ["not negligible", "E overflows", "X overflows"])
def test_decay_gramian_none_without_warning(case):
    # e^{-1e-19 s} rounds to 1, so E stays I through 64 doublings.  With
    # N the shift of order 60, the nilpotent part of -I + 1e6 N drives E_s
    # past the largest double before e^{-s} brings it back; that of -I +
    # 3000 N peaks near 1e204, so E_s decays in 11 doublings but X overflows
    if case == "not negligible":
        A = -1e-19 * np.eye(3)
    else:
        A = -np.eye(60) + (1e6 if case == "E overflows" else 3000.0) * np.diag(np.ones(59), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decay_gramian(A, 0.5) is None


def _qutrit_pair():
    # n = 80: two coupled qutrits, each driven by two fields
    rng = np.random.default_rng(5)
    qutrit = fit_structure_constants(gell_mann_representation(3)).constants
    subs = [SystemParams(sc=qutrit, E=0.5 * rng.standard_normal(8),
                         M=0.5 * rng.standard_normal((2, 8)), N=np.zeros(2)) for _ in range(2)]
    system = compose(*subs, 0.2 * rng.standard_normal(64)).as_system()
    init = initial_moments(system.sc, product_mean(0.1 * rng.standard_normal(8),
                                                   0.1 * rng.standard_normal(8)))
    return system, init


def test_qutrit_pair_certified_infinite():
    # Delta_inf + B0 = 159 is above the threshold 97.8 and Delta_inf = 78.4
    # below it, so the march runs to t_c = 6.7 and certifies tau = inf there
    system, init = _qutrit_pair()
    weights = weighting_from_sigma(np.eye(80))
    assert decoherence_time(system, init, weights, 2.5).is_infinite
    prop = Propagator.of(system)
    root = sqrtm(solve_continuous_lyapunov(prop.A.T, -np.eye(80))).real
    assert np.abs(prop.contraction[0] - root).max() <= 1e-10 * np.abs(root).max()
    d_inf, threshold = prop._deviation.limit, 2.5 * reference_norm(init, weights)
    assert d_inf < threshold < d_inf + prop._deviation.decay_bound[0]
