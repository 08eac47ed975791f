import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmemtime import model, propagate
from qmemtime.decoherence import (CrossingOptions, decoherence_time,
                                  tau_expansion)
from qmemtime.interconnect import compose, product_mean
from qmemtime.model import SystemParams
from qmemtime.moments import (deviation_delta, initial_moments,
                              moment_trajectory, reference_norm,
                              steady_state, weighting_from_sigma)
from qmemtime.optimize import gradient_check, rk_matrices
from qmemtime.propagate import DeviationMarch, Propagator

from oracles import first_crossing_scan


def _march(system, init, weights, step):
    return DeviationMarch(Propagator(system), init, weights.Sigma, step)


def test_march_reports_bracket_state(worked):
    h = 1e-3
    march = _march(worked.sys, worked.init, worked.weights, h)
    res = march.run(march.x0, 0.0, 1000, 0.05)
    assert res.crossed
    assert res.delta <= 0.05 < res.delta_next
    assert res.t / h == pytest.approx(round(res.t / h), abs=1e-9)
    # the returned state reproduces the left deviation value
    assert march.delta(res.state) == pytest.approx(res.delta, abs=1e-12)
    d = deviation_delta(worked.sys, worked.init, worked.weights,
                        np.array([0.0, res.t, res.t + h]))
    assert d[1] <= 0.05 < d[2]


def test_march_no_crossing_returns_final_state(worked):
    h = 1e-3
    march = _march(worked.sys, worked.init, worked.weights, h)
    res = march.run(march.x0, 0.0, 50, 1e9)
    assert not res.crossed
    assert res.t == pytest.approx(50 * h)
    assert math.isnan(res.delta_next)
    traj = moment_trajectory(worked.sys, worked.init, worked.weights,
                             np.array([0.0, 50 * h]))
    assert march.delta(res.state) == pytest.approx(traj.Delta[-1], abs=1e-12)
    assert res.delta == pytest.approx(traj.Delta[-1], abs=1e-12)
    n = worked.sys.n
    assert np.abs(res.state[2 * n * n:-1] - traj.mu[-1]).max() <= 1e-12


def _two_qubit_composite(pauli):
    sub = SystemParams(sc=pauli, E=np.array([0.1, 0.0, 0.2]),
                       M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                       N=np.array([0.0, 0.1]))
    system = compose(sub, sub, 0.3 * np.ones(9)).as_system()
    init = initial_moments(system.sc, product_mean([0.1, 0.0, 0.2], [0.0, -0.1, 0.3]))
    return system, init


@pytest.mark.parametrize("case", [0, 1, "composite"])
def test_chunked_delta_matches_stepwise(make_instance, pauli, case):
    if case == "composite":
        system, init = _two_qubit_composite(pauli)
    else:
        system, init = make_instance(np.random.default_rng(case))
    weights = weighting_from_sigma(np.eye(system.n))
    prop = Propagator(system)
    h = 1e-3 / max(1.0, prop.norm_a)
    nodes = 700
    march = DeviationMarch(prop, init, weights.Sigma, h)
    chunked = march.deltas_ahead(march.x0, nodes)

    stepwise, x = [], march.x0
    for k in range(nodes):
        x = march.run(x, k * h, 1, math.inf).state
        stepwise.append(march.delta(x))
    assert np.abs(chunked - stepwise).max() <= 1e-10

    grid = np.arange(nodes + 1) * h
    traj = deviation_delta(system, init, weights, grid)
    assert np.abs(chunked - traj[1:]).max() <= 1e-10


def test_refine_long_step_matches_default(worked):
    # a step of 0.5 spans four Taylor pieces of the worked drift (||A|| = 4)
    ref = decoherence_time(worked.sys, worked.init, worked.weights, 0.05)
    long = decoherence_time(worked.sys, worked.init, worked.weights, 0.05,
                            opts=CrossingOptions(step=0.5))
    lo, hi = long.bracket
    assert hi - lo <= 1e-9 / 4.0
    assert abs(long.value - ref.value) <= 1e-9
    d = deviation_delta(worked.sys, worked.init, worked.weights,
                        np.array([0.0, lo, hi]))
    assert d[1] <= long.threshold < d[2]


@settings(max_examples=20, deadline=None)
@given(omega=st.floats(0.5, 2.0), gamma=st.floats(0.05, 0.25),
       r=st.floats(0.3, 0.9), frac=st.floats(0.2, 0.98),
       step=st.floats(0.004, 0.02))
def test_march_brackets_scanned_first_node(pauli, omega, gamma, r, frac, step):
    # weakly damped precession: Delta oscillates, so the first crossing of
    # a threshold below its peak need not be the last
    system = SystemParams(sc=pauli, E=np.array([0.0, 0.0, omega]),
                          M=gamma * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                          N=np.zeros(2))
    init = initial_moments(pauli, np.array([r, 0.0, 0.0]))
    weights = weighting_from_sigma(np.eye(3))
    horizon = 4.0
    grid = np.arange(int(horizon / step)) * step
    scan = deviation_delta(system, init, weights, grid)
    threshold = frac * scan.max()
    assume(np.abs(scan - threshold).min() > 1e-9)
    i = int(np.argmax(scan > threshold))
    assert first_crossing_scan(grid, scan, threshold) is not None

    eps = threshold / reference_norm(init, weights)
    result = decoherence_time(system, init, weights, eps,
                              opts=CrossingOptions(step=step, horizon=horizon))
    lo, hi = result.bracket
    assert grid[i - 1] <= lo < hi <= grid[i]
    assert grid[i - 1] <= result.value <= grid[i]


def test_public_calls_share_one_propagator(worked, monkeypatch):
    system = dataclasses.replace(worked.sys)  # the fixture's may be built already
    built = []
    init = Propagator.__init__
    monkeypatch.setattr(Propagator, "__init__",
                        lambda self, sys: built.append(sys) or init(self, sys))
    args = (system, worked.init, worked.weights)
    tau_expansion(*args)
    assert decoherence_time(*args, 0.05).bracket is not None
    assert decoherence_time(*args, 5.0).is_infinite  # certified by the steady state
    steady_state(*args)
    rk_matrices(*args)
    moment_trajectory(*args, np.linspace(0.0, 1.0, 11))
    assert built == [system]


def test_with_energy_derives_afresh(worked):
    system = dataclasses.replace(worked.sys)
    args = (worked.init, worked.weights, 0.05)
    before = decoherence_time(system, *args).value
    E2 = np.array([0.3, -0.2, 0.5])
    moved = system.with_energy(E2)
    assert Propagator.of(moved) is not Propagator.of(system)
    fresh = SystemParams(sc=system.sc, E=E2, M=system.M, N=system.N)
    tau = decoherence_time(moved, *args).value
    assert tau == decoherence_time(fresh, *args).value
    assert tau != before


def test_with_energy_reuses_energy_independent_parts(pauli, monkeypatch):
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(system.n))
    calls = []
    for module in (propagate, model):
        monkeypatch.setattr(module, "lambda_affine",
                            lambda sys, f=module.lambda_affine: calls.append(sys) or f(sys))
    report = gradient_check(system, init, weights, np.linspace(-0.3, 0.4, system.n))
    assert len(calls) <= 1
    assert report.max_rel_dev <= 1e-6

    E2 = np.linspace(0.5, -0.2, system.n)
    moved = system.with_energy(E2)
    fresh = SystemParams(sc=system.sc, E=E2, M=system.M, N=system.N)
    prop, fresh_prop = Propagator.of(moved), Propagator(fresh)
    assert len(calls) == 2
    for name in ("A", "b", "lam0", "lam_mu", "norm_a", "margin", "rho"):
        assert np.array_equal(getattr(prop, name), getattr(fresh_prop, name)), name
    assert np.array_equal(prop.s_source[1], fresh_prop.s_source[1])

    # the march maps of the parent's drift are not carried over
    opts = CrossingOptions(step=0.01)
    decoherence_time(system, init, weights, 0.1, opts=opts)
    tau = decoherence_time(system.with_energy(E2), init, weights, 0.1, opts=opts)
    assert tau == decoherence_time(fresh, init, weights, 0.1, opts=opts)


def test_decoherence_times_share_doubling_maps(worked, monkeypatch):
    system = dataclasses.replace(worked.sys)
    args = (worked.init, worked.weights)
    decoherence_time(system, *args, 0.5)
    calls = []
    step_map, then = Propagator.step_map, propagate.StepMap.then
    monkeypatch.setattr(Propagator, "step_map",
                        lambda self, h, *a: calls.append("step_map") or step_map(self, h, *a))
    monkeypatch.setattr(propagate.StepMap, "then",
                        lambda self, nxt: calls.append("then") or then(self, nxt))

    shared = decoherence_time(system, *args, 0.05)
    assert calls == []
    fresh = decoherence_time(dataclasses.replace(system), *args, 0.05)
    assert calls.count("step_map") == 1
    assert (shared.value, shared.bracket) == (fresh.value, fresh.bracket)

    # another step derives its own maps, once
    opts = CrossingOptions(step=1e-3)
    calls.clear()
    own = decoherence_time(system, *args, 0.05, opts=opts)
    assert calls.count("step_map") == 1
    calls.clear()
    assert decoherence_time(system, *args, 0.05, opts=opts) == own
    assert calls == []
    fresh = decoherence_time(dataclasses.replace(system), *args, 0.05, opts=opts)
    assert (own.value, own.bracket) == (fresh.value, fresh.bracket)


def test_uniform_grid_builds_one_step_map(pauli, monkeypatch):
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(15))
    grid = np.linspace(0.0, 0.5, 501)
    assert len(set(np.diff(grid).tolist())) > 1

    steps = []
    step_map = Propagator.step_map
    monkeypatch.setattr(Propagator, "step_map",
                        lambda self, h, *a: steps.append(h) or step_map(self, h, *a))
    shared = deviation_delta(system, init, weights, grid)
    assert len(steps) == 1

    # one map per distinct float spacing, as without the shared rule
    monkeypatch.setattr(propagate, "step_spacings", np.diff)
    per_spacing = deviation_delta(system, init, weights, grid)
    assert len(steps) == 1 + len(set(np.diff(grid).tolist()))
    assert np.abs(shared - per_spacing).max() <= 1e-12 * np.abs(per_spacing).max()
