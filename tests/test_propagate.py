import dataclasses
import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmemtime import model, propagate
from qmemtime.algebra import StructureConstants, pauli_structure
from qmemtime.decoherence import (CrossingOptions, decoherence_time,
                                  tau_expansion)
from qmemtime.errors import (InconclusiveCrossingError, IntegrationError,
                             StructureDefectError)
from qmemtime.interconnect import compose, product_mean
from qmemtime.linalg import solve_lyapunov
from qmemtime.model import SystemParams
from qmemtime.moments import (deviation_delta, initial_moments,
                              moment_trajectory, reference_norm,
                              steady_state, weighting_from_sigma)
from qmemtime.optimize import gradient_check, rk_matrices
from qmemtime.propagate import DeviationMarch, Propagator

from conftest import random_instance
from dense import fit_structure_constants
from oracles import (first_crossing_scan, forward_taylor, gell_mann_representation,
                     stepwise_trajectory)


def _march(system, init, weights, step):
    return Propagator(system).march(init, weights.Sigma, step)


def test_march_reports_bracket_state(worked):
    h = 1e-3
    march, x0 = _march(worked.sys, worked.init, worked.weights, h)
    res = march.run(x0, 0.0, 1000, 0.05)
    assert res.crossed
    assert res.delta <= 0.05 < res.delta_next
    assert res.t / h == pytest.approx(round(res.t / h), abs=1e-9)
    # the returned state reproduces the left deviation value
    assert march.delta(res.state) == pytest.approx(res.delta, abs=1e-12)
    d = deviation_delta(worked.sys, worked.init, worked.weights,
                        np.array([0.0, res.t, res.t + h]))
    assert d[1] <= 0.05 < d[2]


def test_march_raises_on_non_finite_deviation(worked):
    # NaN <= threshold is false, so a NaN node counts as a crossing, and raises
    prop = Propagator(worked.sys)
    L = prop.functional(worked.init, worked.weights.Sigma)
    L[1, 2] = math.nan
    march = DeviationMarch(prop, L, 1e-3)
    with pytest.raises(IntegrationError, match="non-finite"):
        march.run(np.eye(4).ravel(), 0.0, 100, 1e9)


def test_march_no_crossing_returns_final_state(worked):
    h = 1e-3
    march, x0 = _march(worked.sys, worked.init, worked.weights, h)
    res = march.run(x0, 0.0, 50, 1e9)
    assert not res.crossed
    assert res.t == pytest.approx(50 * h)
    assert math.isnan(res.delta_next)
    traj = moment_trajectory(worked.sys, worked.init, worked.weights,
                             np.array([0.0, 50 * h]))
    assert march.delta(res.state) == pytest.approx(traj.Delta[-1], abs=1e-12)
    assert res.delta == pytest.approx(traj.Delta[-1], abs=1e-12)
    # the state is Phi_t^T, and Phi_t maps (mu0, 1) to (mu_t, 1)
    n = worked.sys.n
    Phi = res.state.reshape(n + 1, n + 1).T
    assert np.abs(Phi[:n] @ np.r_[worked.init.mu0, 1.0] - traj.mu[-1]).max() <= 1e-12


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
    march, x0 = prop.march(init, weights.Sigma, h)
    chunked = march.deltas_ahead(x0, nodes)

    stepwise, x = [], x0
    for k in range(nodes):
        x = march.run(x, k * h, 1, math.inf).state
        stepwise.append(march.delta(x))
    assert np.abs(chunked - stepwise).max() <= 1e-10

    grid = np.arange(nodes + 1) * h
    traj = deviation_delta(system, init, weights, grid)
    assert np.abs(chunked - traj[1:]).max() <= 1e-10


def test_refine_long_step_matches_default(worked):
    # a step of 0.5 spans three Taylor pieces of the worked generator
    # [[A, b], [0, 0]] (norm bound hypot(||A||, |b|) = hypot(4, 4));
    # tau(0.05) lies in the first and tau(1.0) = 0.27 in the second
    prop = Propagator.of(worked.sys)
    Ahat = np.zeros((4, 4))
    Ahat[:3, :3], Ahat[:3, 3] = prop.A, prop.b
    assert np.linalg.norm(Ahat, 2) <= prop.rho * (1.0 + 1e-12)
    assert math.ceil(0.5 * prop.rho) == 3
    for eps in (0.05, 1.0):
        ref = decoherence_time(worked.sys, worked.init, worked.weights, eps)
        long = decoherence_time(worked.sys, worked.init, worked.weights, eps,
                                opts=CrossingOptions(step=0.5))
        lo, hi = long.bracket
        assert hi - lo <= 1e-9 / 4.0
        assert abs(long.value - ref.value) <= 1e-9
        d = deviation_delta(worked.sys, worked.init, worked.weights,
                            np.array([0.0, lo, hi]))
        assert d[1] <= long.threshold < d[2]


def _damped_spin(pauli, omega, gamma):
    return SystemParams(sc=pauli, E=np.array([0.0, 0.0, omega]),
                        M=gamma * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                        N=np.zeros(2))


@settings(max_examples=20, deadline=None)
@given(omega=st.floats(0.5, 2.0), gamma=st.floats(0.05, 0.25),
       r=st.floats(0.3, 0.9), frac=st.floats(0.2, 0.98),
       step=st.floats(0.004, 0.02))
def test_march_brackets_scanned_first_node(pauli, omega, gamma, r, frac, step):
    # weakly damped precession: Delta oscillates, so the first crossing of
    # a threshold below its peak need not be the last
    system = _damped_spin(pauli, omega, gamma)
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
    assert decoherence_time(*args, 5.0).is_infinite  # certified infinite
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
    # the sandwich is evaluated at the two probe means, once per system
    calls = []
    monkeypatch.setattr(propagate, "lambda_sandwich",
                        lambda sys, mu, f=model.lambda_sandwich: calls.append(sys) or f(sys, mu))
    report = gradient_check(system, init, weights, np.linspace(-0.3, 0.4, system.n))
    assert len(calls) == 2
    assert report.max_rel_dev <= 1e-6

    E2 = np.linspace(0.5, -0.2, system.n)
    moved = system.with_energy(E2)
    fresh = SystemParams(sc=system.sc, E=E2, M=system.M, N=system.N)
    parent, prop, fresh_prop = Propagator.of(system), Propagator.of(moved), Propagator(fresh)
    assert len(calls) == 4
    for name in ("A", "b", "Ahat", "D", "alpha", "re_beta", "norm_a", "margin", "rho",
                 "noiseless", "_coupling_defect"):
        assert np.array_equal(getattr(prop, name), getattr(fresh_prop, name)), name
    assert prop.co.Atilde is parent.co.Atilde and prop.D is parent.D

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
    monkeypatch.setattr(propagate, "expm_psi",
                        lambda A, t, f=propagate.expm_psi: calls.append(t) or f(A, t))

    shared = decoherence_time(system, *args, 0.05)
    assert calls == []
    fresh = decoherence_time(dataclasses.replace(system), *args, 0.05)
    assert len(calls) == 1  # Phi over one step; its powers are products
    assert (shared.value, shared.bracket) == (fresh.value, fresh.bracket)

    # another step derives its own maps, once
    opts = CrossingOptions(step=1e-3)
    calls.clear()
    own = decoherence_time(system, *args, 0.05, opts=opts)
    assert calls == [1e-3]
    calls.clear()
    assert decoherence_time(system, *args, 0.05, opts=opts) == own
    assert calls == []
    fresh = decoherence_time(dataclasses.replace(system), *args, 0.05, opts=opts)
    assert (own.value, own.bracket) == (fresh.value, fresh.bracket)


def _outcome(system, init, eps, opts):
    weights = weighting_from_sigma(np.eye(system.n))
    try:
        res = decoherence_time(system, init, weights, eps, opts=opts)
    except InconclusiveCrossingError as exc:
        return "inconclusive", exc.sup_delta
    return res.value, res.bracket


@settings(max_examples=10, deadline=None)
@example(case="composite", calls=[("main", 0.2), ("main", 0.05), ("init", 0.1),
                                  ("main", 0.1), ("step", 0.1), ("main", 0.3)],
         other_step=0.01)
@given(case=st.one_of(st.tuples(st.floats(0.5, 2.0), st.floats(0.05, 0.25),
                                st.floats(0.3, 0.9)),
                      st.just("composite")),
       calls=st.lists(st.tuples(st.sampled_from(["main", "main", "init", "step"]),
                                st.floats(0.02, 1.0)), min_size=2, max_size=6),
       other_step=st.floats(0.004, 0.02))
def test_decoherence_times_independent_of_history(pauli, case, calls, other_step):
    # One system object answers a sequence of eps, with another init and
    # another step in between, exactly as a fresh copy answers each call.
    if case == "composite":
        system, init = _composite_case()
        other = initial_moments(system.sc, product_mean([0.0, 0.2, 0.1], [0.3, 0.0, -0.1]))
    else:
        omega, gamma, r = case
        system = _damped_spin(pauli, omega, gamma)
        init = initial_moments(pauli, np.array([r, 0.0, 0.0]))
        other = initial_moments(pauli, np.array([0.0, 0.5 * r, 0.3]))
    system = dataclasses.replace(system)
    opts = CrossingOptions(horizon=4.0)
    for kind, eps in calls:
        args = {"main": (init, eps, opts), "init": (other, eps, opts),
                "step": (init, eps, CrossingOptions(step=other_step, horizon=4.0))}[kind]
        assert _outcome(system, *args) == _outcome(dataclasses.replace(system), *args)


def test_second_eps_reuses_kept_rows(worked, monkeypatch):
    system = dataclasses.replace(worked.sys)
    args = (worked.init, worked.weights)
    decoherence_time(system, *args, 1.2)
    calls = []
    for name in ("_grow", "_taylor_rows"):
        monkeypatch.setattr(DeviationMarch, name,
                            lambda self, *a, f=getattr(DeviationMarch, name), name=name:
                            calls.append(name) or f(self, *a))
    for eps in (0.6, 0.05, 1.2):
        assert decoherence_time(system, *args, eps).bracket is not None
    assert calls == []

    # the rows belong to the initial moments: another init rebuilds them
    other = initial_moments(system.sc, np.array([0.1, 0.2, -0.3]))
    decoherence_time(system, other, worked.weights, 0.6)
    assert calls.count("_grow") >= 1 and calls.count("_taylor_rows") == 1


def test_threads_share_kept_march(worked):
    # Threads on one system grow and replace its kept march at once; each
    # answer equals that of a fresh copy.
    system = dataclasses.replace(worked.sys)
    other = initial_moments(system.sc, np.array([0.1, 0.2, -0.3]))
    jobs = [(init, eps) for init in (worked.init, other) for eps in (1.6, 0.05, 0.6, 1.2)]
    want = [_outcome(dataclasses.replace(system), init, eps, None) for init, eps in jobs]
    got = {}

    def work(order):
        for j in order:
            got.setdefault(j, set()).add(_outcome(system, *jobs[j], None))

    rng = np.random.default_rng(3)
    threads = [threading.Thread(target=work, args=(rng.permutation(len(jobs)).tolist(),))
               for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [got[j] for j in range(len(jobs))] == [{w} for w in want]


def test_uncertified_march_is_one_run_to_the_horizon(worked, marched_nodes):
    # Delta_inf = 6 sits just below the threshold, inside the margin: no
    # certificate and no crossing, so one run marches to the horizon
    with pytest.raises(InconclusiveCrossingError):
        decoherence_time(worked.sys, worked.init, worked.weights, 2.0 * (1.0 + 1e-7),
                         opts=CrossingOptions(horizon=12.0))
    assert marched_nodes == [48000]  # 12 / 2.5e-4, the default step 1e-3 / ||A||


def test_certificate_ends_the_march_at_its_closed_form_time(worked, marched_nodes):
    # threshold 7.5 clears Delta_inf = 6 by 1.5, and B0 = 6 decays at rate
    # 2 (X = diag(1, 1, 1/2) / 4), so t_c = ln(4) / 2; the settle-time rule
    # marched 20 / 2 time units, 40,000 nodes
    assert decoherence_time(worked.sys, worked.init, worked.weights, 2.5).is_infinite
    march = Propagator.of(worked.sys)._march
    b0, rate = march.decay_bound()
    assert b0 == pytest.approx(6.0, rel=1e-12) and rate == pytest.approx(2.0, rel=1e-12)
    t_c = math.log(b0 / ((1.0 - 1e-6) * 7.5 - 6.0)) / rate
    assert marched_nodes == [math.ceil(t_c / march.step)] == [2773]


def test_march_keeps_maps_and_rows_of_one_step(pauli):
    # the propagator holds one march, and that march the maps of its own
    # step: Phi over one step, then its repeated squares
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(system.n))
    prop = Propagator.of(system)
    for step in np.geomspace(2e-4, 2e-3, 20):
        decoherence_time(system, init, weights, 0.05, opts=CrossingOptions(step=step))
        march = prop._march
        assert march.step == step and len(march.rows) <= march.cap
        assert np.array_equal(march.maps[0], prop.transition(step))
        for short, long in zip(march.maps, march.maps[1:]):
            assert np.array_equal(long, short @ short)
        assert prop._traj_maps == {}

    # a march for another weighting on the same step takes over the maps
    decoherence_time(system, init, weighting_from_sigma(2.0 * np.eye(system.n)), 0.05,
                     opts=CrossingOptions(step=step))
    assert prop._march is not march and prop._march.maps[0] is march.maps[0]


@pytest.mark.parametrize("case", [0, 1, "composite"])
def test_taylor_rows_match_forward_series(make_instance, case):
    if case == "composite":
        system, init = _composite_case()
    else:
        system, init = make_instance(np.random.default_rng(case))
    prop = Propagator(system)
    Sigma = weighting_from_sigma(np.eye(system.n)).Sigma
    march, x0 = prop.march(init, Sigma, 0.01)
    rows = march._taylor_rows(10)
    n1 = system.n + 1
    # a generic transition matrix too: the closure holds for every mean
    rng = np.random.default_rng(5)
    generic = np.vstack([rng.standard_normal((n1 - 1, n1)), np.eye(n1)[-1]])
    for x in (x0, march.run(x0, 0.0, 37, math.inf).state, generic.T.ravel()):
        want = forward_taylor(system, init, Sigma, x.reshape(n1, n1).T, 10)
        # relative to the size of each sum: at n = 15 its terms cancel to
        # within 1e-5 of it
        assert (np.abs(rows @ x - want) <= 1e-12 * (np.abs(rows) @ np.abs(x))).all()


def test_uniform_grid_builds_one_step_map(pauli, monkeypatch):
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(15))
    grid = np.linspace(0.0, 0.5, 501)
    assert len(set(np.diff(grid).tolist())) > 1

    steps = []
    monkeypatch.setattr(propagate, "expm_psi",
                        lambda A, h, f=propagate.expm_psi: steps.append(h) or f(A, h))
    shared = deviation_delta(system, init, weights, grid)
    assert len(steps) == 1

    # one map per distinct float spacing, as without the shared rule; a
    # fresh system, since the first call's map is kept on this one
    monkeypatch.setattr(propagate, "step_spacings", np.diff)
    per_spacing = deviation_delta(dataclasses.replace(system), init, weights, grid)
    assert len(steps) == 1 + len(set(np.diff(grid).tolist()))
    assert np.abs(shared - per_spacing).max() <= 1e-12 * np.abs(per_spacing).max()


def _grid(kind, nodes, t_max):
    if kind == "uniform":
        return np.linspace(0.0, t_max, nodes)
    if kind == "two runs":  # two linspace pieces of different spacing
        cut = nodes // 3 + 1
        return np.concatenate([np.linspace(0.0, 0.2 * t_max, cut),
                               np.linspace(0.2 * t_max, t_max, nodes - cut + 1)[1:]])
    return np.concatenate([[0.0], np.geomspace(1e-3 * t_max, t_max, nodes - 1)])


@functools.lru_cache(maxsize=None)
def _composite_case():
    return _two_qubit_composite(pauli_structure())


@settings(max_examples=30, deadline=None)
@example(case="composite", kind="uniform", nodes=40, t_max=0.5, wseed=1)
@example(case="composite", kind="two runs", nodes=40, t_max=2.0, wseed=2)
@example(case="composite", kind="geometric", nodes=40, t_max=1.0, wseed=3)
@example(case="rescaled", kind="two runs", nodes=60, t_max=2.0, wseed=4)
@example(case="qubit-qutrit", kind="uniform", nodes=40, t_max=0.5, wseed=5)
@example(case="qubit-qutrit", kind="two runs", nodes=40, t_max=2.0, wseed=6)
@example(case="qubit-qutrit", kind="geometric", nodes=20, t_max=1.0, wseed=7)
@example(case="qubit-qutrit", kind="geometric", nodes=2, t_max=0.05078125, wseed=0)
@example(case=1, kind="geometric", nodes=2, t_max=0.5, wseed=2)
@given(case=st.one_of(st.integers(0, 2 ** 32 - 1),
                      st.sampled_from(["rescaled", "composite", "qubit-qutrit"])),
       kind=st.sampled_from(["uniform", "two runs", "geometric"]),
       nodes=st.integers(2, 80), t_max=st.floats(0.05, 3.0),
       wseed=st.integers(0, 2 ** 32 - 1))
def test_blocked_trajectory_matches_stepwise(make_instance, case, kind, nodes, t_max, wseed):
    # V is read off the product closure; the oracle integrates the
    # Lyapunov ODE of V node by node
    system, init = _closure_case(make_instance, case)
    if system.n > 3:
        nodes = min(nodes, 40)  # the oracle builds a step map per distinct spacing
    grid = _grid(kind, nodes, t_max)
    Sigma = _random_weights(system.n, wseed).Sigma
    mu, V, delta = Propagator.of(system).trajectory(init, Sigma, grid)
    want = stepwise_trajectory(system, init, Sigma, grid)
    # V = alpha + beta . mu - U cancels O(1) terms, whose roundoff it keeps
    # even where it is small (short times)
    S = system.sc.alpha + np.tensordot(want[0], system.sc.beta, 1)
    scales = (np.abs(want[0]).max(), max(np.abs(want[1]).max(), np.abs(S).max()),
              np.abs(want[2]).max())
    for got, ref, scale in zip((mu, V, delta), want, scales):
        assert np.abs(got - ref).max() <= 1e-12 * scale
    assert np.abs(V - V.conj().transpose(0, 2, 1)).max() <= 1e-12 * scales[1]
    assert not V[0].any() and delta[0] == 0.0


def test_trajectory_reuses_kept_maps(pauli, monkeypatch):
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(system.n))
    grid = np.linspace(0.0, 0.5, 501)
    first = moment_trajectory(system, init, weights, grid)
    calls = []
    monkeypatch.setattr(propagate, "expm_psi",
                        lambda A, h, f=propagate.expm_psi: calls.append(h) or f(A, h))
    monkeypatch.setattr(Propagator, "transition",
                        lambda self, h, f=Propagator.transition: calls.append(h) or f(self, h))
    second = moment_trajectory(system, init, weights, grid)
    assert calls == []
    for name in ("mu", "V", "Delta"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


def test_trajectory_keeps_maps_of_one_step(pauli):
    system, init = _two_qubit_composite(pauli)
    prop = Propagator.of(system)
    for grid in (np.linspace(0.0, 0.3, 101), np.linspace(0.0, 0.7, 301),
                 _grid("two runs", 200, 1.0)):
        moment_trajectory(system, init, None, grid)
        [(step, maps)] = prop._traj_maps.items()
        assert step == propagate.step_spacings(grid)[-1]
    assert sum(Phi.nbytes for Phi in maps) <= 5 * 16 * 16 * 8  # Phi over 1, ..., 16 steps
    moment_trajectory(system, init, None, _grid("geometric", 30, 1.0))
    assert prop._traj_maps == {}

    # a march and a trajectory each keep their own maps, whatever ran between
    weights = weighting_from_sigma(np.eye(system.n))
    grid = np.linspace(0.0, 0.5, 501)
    for _ in range(2):
        moment_trajectory(system, init, weights, grid)
        decoherence_time(system, init, weights, 0.05)
        assert list(prop._traj_maps) == [propagate.step_spacings(grid)[-1]]
        assert np.array_equal(prop._march.maps[0], prop.transition(prop._march.step))


@functools.lru_cache(maxsize=None)
def _qubit_qutrit_case():
    # n = 35; the Gell-Mann constants have a nonzero Re beta, unlike spin
    rng = np.random.default_rng(11)
    qutrit = fit_structure_constants(gell_mann_representation(3)).constants
    sub1 = SystemParams(sc=pauli_structure(), E=rng.standard_normal(3),
                        M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), N=np.array([0.0, 0.1]))
    sub2 = SystemParams(sc=qutrit, E=0.5 * rng.standard_normal(8),
                        M=0.5 * rng.standard_normal((2, 8)), N=np.zeros(2))
    system = compose(sub1, sub2, 0.2 * rng.standard_normal(24)).as_system()
    mu2 = 0.1 * rng.standard_normal(8)
    return system, initial_moments(system.sc, product_mean([0.3, 0.0, 0.2], mu2))


def _closure_case(make_instance, case):
    if case == "composite":
        return _composite_case()
    if case == "qubit-qutrit":
        return _qubit_qutrit_case()
    rng = np.random.default_rng(case if case != "rescaled" else 7)
    if case == "rescaled":  # X' = 2X: associative, not the spin algebra
        spin = pauli_structure()
        return random_instance(StructureConstants(4.0 * np.eye(3), 2.0 * spin.beta), rng)
    return make_instance(rng)


def _random_weights(n, seed):
    F = np.random.default_rng(seed).standard_normal((n, n))
    return weighting_from_sigma(F.T @ F / n)


@settings(max_examples=15, deadline=None)
@example(case="rescaled", wseed=1, frac=0.5)
@example(case="composite", wseed=2, frac=0.5)
@example(case="qubit-qutrit", wseed=3, frac=0.7)
@given(case=st.one_of(st.integers(0, 2 ** 32 - 1),
                      st.sampled_from(["rescaled", "composite", "qubit-qutrit"])),
       wseed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.2, 0.95))
def test_march_delta_matches_trajectory(make_instance, case, wseed, frac):
    # The march reads Delta = <L, Phi_t^T> off rows pulled back by powers
    # of Phi_step and by pushes of its state; the trajectory reads it off
    # Phi_t^T moved block by block.  Both share L, so they agree to
    # roundoff; the trajectory's Delta is checked against the Lyapunov ODE
    # in test_blocked_trajectory_matches_stepwise.  A generic weighting:
    # <I, Re beta_l> vanishes for spin and Gell-Mann composites, so
    # Sigma = I would not see the Re beta part of S.
    system, init = _closure_case(make_instance, case)
    weights = _random_weights(system.n, wseed)
    ref = reference_norm(init, weights)
    prop = Propagator.of(system)
    step, nodes = 1e-3 / max(1.0, prop.norm_a), 300
    march, x0 = prop.march(init, weights.Sigma, step)
    grid = np.arange(nodes + 1) * step
    want = prop.trajectory(init, weights.Sigma, grid)[2]
    got = np.r_[march.delta(x0), march.deltas_ahead(x0, nodes)]
    assert np.abs(got - want).max() <= 1e-13 * ref
    end = march.run(x0, 0.0, nodes, math.inf).state
    assert abs(march.delta(end) - want[-1]) <= 1e-13 * ref

    threshold = frac * want.max()
    assume(np.abs(want - threshold).min() > 1e-9 * ref)
    t_scan = first_crossing_scan(grid, want, threshold)
    i = int(np.searchsorted(grid, t_scan))
    result = decoherence_time(system, init, weights, threshold / ref,
                              opts=CrossingOptions(step=step, horizon=grid[-1]))
    lo, hi = result.bracket
    assert grid[i - 1] <= lo < hi <= grid[i]
    assert grid[i - 1] <= result.value <= grid[i]


@pytest.mark.parametrize("case", [1, 2, 3, "rescaled", "composite", "qubit-qutrit"])
def test_limits_match_lyapunov_oracle(make_instance, case):
    # P_inf is read off the product closure; the vectorized Lyapunov solve
    # of A P + P A^T + Re Lambda_inf = 0 is the independent oracle
    system, init = _closure_case(make_instance, case)
    prop = Propagator.of(system)
    assert prop.margin < -1e-3
    mu_inf, lam_inf, P_inf = prop.limits()
    want = solve_lyapunov(prop.A, lam_inf.real)
    assert np.abs(P_inf - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
    ss = steady_state(system, init, _random_weights(system.n, 4))
    assert ss.P_inf is P_inf


def test_non_associative_table_raises_structure_defect(pauli):
    # alpha = 2I with the spin beta: (X_1 X_2) X_2 = X_1 but X_1 (X_2 X_2) = 2 X_1,
    # so S = Re E[X X^T] leaves alpha + Re beta . mu
    bad = StructureConstants(2.0 * np.eye(3), pauli.beta)
    system = SystemParams(sc=bad, E=np.array([0.3, -0.2, 0.5]),
                          M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), N=np.zeros(2))
    init = initial_moments(bad, np.array([0.2, 0.0, 0.1]))
    weights = weighting_from_sigma(np.eye(3))
    for _ in range(2):  # the defect is kept, the error raised again
        with pytest.raises(StructureDefectError, match="not associative"):
            decoherence_time(system, init, weights, 0.1)
    assert Propagator.of(system).margin < 0.0
    with pytest.raises(StructureDefectError):
        steady_state(system, init, weights)
    with pytest.raises(StructureDefectError):
        moment_trajectory(system, init, weights, np.linspace(0.0, 1.0, 11))
