import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmemtime import propagate
from qmemtime.decoherence import (CrossingOptions, decoherence_time,
                                  tau_expansion)
from qmemtime.interconnect import compose, product_mean
from qmemtime.model import SystemParams
from qmemtime.moments import (deviation_delta, initial_moments,
                              moment_trajectory, reference_norm,
                              steady_state, weighting_from_sigma)
from qmemtime.optimize import rk_matrices
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


@pytest.mark.parametrize("seed", [0, 1])
def test_chunked_delta_matches_stepwise(make_instance, seed):
    system, init = make_instance(np.random.default_rng(seed))
    weights = weighting_from_sigma(np.eye(3))
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


def test_uniform_grid_builds_one_step_map(pauli, monkeypatch):
    sub = SystemParams(sc=pauli, E=np.array([0.1, 0.0, 0.2]),
                       M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                       N=np.array([0.0, 0.1]))
    system = compose(sub, sub, 0.3 * np.ones(9)).as_system()
    init = initial_moments(system.sc, product_mean([0.1, 0.0, 0.2], [0.0, -0.1, 0.3]))
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
