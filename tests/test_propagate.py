import dataclasses
import functools
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmemtime import moments, propagate
from qmemtime.algebra import StructureConstants, pauli_structure
from qmemtime.decoherence import (CrossingOptions, decoherence_time,
                                  tau_expansion)
from qmemtime.errors import (InconclusiveCrossingError, IntegrationError, NotHurwitzError,
                             StructureDefectError, TrivialWeightError, ZeroDiffusionError)
from qmemtime.interconnect import compose, product_mean
from qmemtime.model import SystemParams
from qmemtime.moments import (deviation_delta, initial_moments,
                              moment_trajectory, reference_norm,
                              steady_state, weighting_from_sigma)
from qmemtime.optimize import rk_matrices
from qmemtime.propagate import DeviationMarch, Propagator

from conftest import random_instance
from dense import fit_structure_constants
from oracles import (first_crossing_scan, forward_taylor, gell_mann_representation,
                     gradient_check, solve_lyapunov, stepwise_trajectory)


def _march(system, init, weights, step):
    return Propagator(system).deviation(init, weights).march(step)


def _delta_at(march, node):
    """Delta at ``node`` of the march's grid, off an exponential of its own."""
    return float(np.sum(march.dev.L * march.prop.transition(node * march.h).T))


def test_first_crossing_brackets_a_grid_step(worked):
    h, tol = 1e-3, 1e-12
    march = _march(worked.sys, worked.init, worked.weights, h)
    (lo, hi), sup = march.first_crossing(1000, 0.05, tol)
    k = math.floor(lo / h)  # the left node of the bracketed step
    assert k * h <= lo < hi <= (k + 1) * h and hi - lo <= tol
    r = march.table[0]  # the running maximum of Delta at the nodes 1 ... K
    assert r[k] <= 0.05 < r[k + 1]
    # Delta at the nodes up to the right one reproduces it
    direct = [_delta_at(march, i) for i in range(1, k + 2)]
    assert np.abs(r[1:k + 2] - np.maximum.accumulate(direct)).max() <= 1e-12
    ends = deviation_delta(worked.sys, worked.init, worked.weights, np.array([0.0, lo, hi]))
    assert ends[1] <= 0.05 < ends[2]
    # Delta rises, so the largest value below the threshold is the left
    # node's; read off the kept table, the result is the same, bitwise
    assert sup == r[k]
    assert march.first_crossing(1000, 0.05, tol) == ((lo, hi), sup)


def test_march_raises_on_non_finite_deviation(worked):
    # A NaN node, carried on by the running maximum, and an infinite one sort
    # above every threshold, so each counts as a crossing, and raises, read
    # off the kept table or marched past ``last``.  A bad row 12 of the
    # powers makes node 13 of the first interval the first bad one.
    for bad in (math.nan, math.inf):
        for kept in (True, False):
            march = _march(worked.sys, worked.init, worked.weights, 1e-3)
            march.powers = march.powers.copy()
            march.powers[12, 1] = bad  # times the positive width Delta'(0) = 16 width
            march.last = march.last if kept else 0
            bracket, sup = march.first_crossing(12, 1e9, 1e-9)
            assert bracket is None and math.isfinite(sup)
            assert len(march.table[0]) - 1 == (propagate.CHUNK * march.m if kept else 0)
            with pytest.raises(IntegrationError, match="non-finite values near t=0.012 "):
                march.first_crossing(100, 1e9, 1e-9)


def test_march_no_crossing_returns_supremum(worked):
    h = 1e-3
    march = _march(worked.sys, worked.init, worked.weights, h)
    bracket, sup = march.first_crossing(50, 1e9, 1e-9)
    assert bracket is None
    traj = moment_trajectory(worked.sys, worked.init, worked.weights,
                             np.arange(51) * h)
    assert sup == pytest.approx(traj.Delta.max(), abs=1e-12)
    # the kept state is Phi_t at the table's end, and Phi_t maps (mu0, 1)
    # to (mu_t, 1)
    r, _, state = march.table
    t = (len(r) - 1) * h
    traj = moment_trajectory(worked.sys, worked.init, worked.weights, np.array([0.0, t]))
    n = worked.sys.n
    Phi = state.reshape(n + 1, n + 1)
    assert np.sum(march.dev.L * Phi.T) == pytest.approx(traj.Delta[-1], abs=1e-12)
    assert np.abs(Phi[:n] @ np.r_[worked.init.mu0, 1.0] - traj.mu[-1]).max() <= 1e-12


@pytest.mark.parametrize("eps, horizon", [(2.5, 1e4), (2.0 * (1.0 + 1e-7), 0.5)])
def test_no_crossing_pushes_no_state(worked, monkeypatch, eps, horizon):
    # A march that ends below the threshold (certified at eps 2.5, then
    # inconclusive on a short horizon) needs no state: read off the kept
    # table, it marches no chunk and refines nothing
    system, opts = dataclasses.replace(worked.sys), CrossingOptions(horizon=horizon)
    args = (worked.init, eps, opts)
    before = _outcome(system, *args)
    calls = []
    for name in ("_chunk", "_refine"):
        monkeypatch.setattr(DeviationMarch, name,
                            lambda self, *a, f=getattr(DeviationMarch, name), name=name:
                            calls.append(name) or f(self, *a))
    assert _outcome(system, *args) == before
    assert calls == []
    assert before[0] == (math.inf if horizon > 1.0 else "inconclusive")


def test_running_maximum_finds_first_crossing_of_oscillation(pauli):
    # The isolated spin precesses: Delta = 4 - 4 cos 2t peaks at 8 at the
    # odd multiples of pi / 2.  On a step of 0.02 the largest node value of
    # each hump rises from hump to hump, so a threshold between two of them
    # first crosses in the later hump, and one below them in the first.
    system, init = _isolated_spin(pauli)
    weights = weighting_from_sigma(np.eye(3))
    step, nodes = 0.02, 500  # t = 10, past three peaks
    grid = np.arange(nodes + 1) * step
    dense = deviation_delta(system, init, weights, grid)
    assert np.abs(dense - (4.0 - 4.0 * np.cos(2.0 * grid))).max() <= 1e-12
    kept = Propagator(system).deviation(init, weights).march(step)
    kept.first_crossing(nodes, math.inf, 1e-9)
    assert len(kept.table[0]) - 1 >= nodes
    assert np.abs(kept.table[0][:nodes + 1] - np.maximum.accumulate(dense)).max() <= 1e-10

    peaks = [dense[(grid >= i * math.pi) & (grid < (i + 1) * math.pi)].max() for i in range(3)]
    assert peaks[0] < peaks[1] < peaks[2]
    for threshold in (1.0, 4.0, 7.99, *(0.5 * (a + b) for a, b in zip(peaks, peaks[1:]))):
        i = int(np.argmax(dense > threshold))  # the first node above
        fresh, past = (Propagator(system).deviation(init, weights).march(step)
                       for _ in range(2))
        past.last = 0  # marches every chunk past the table
        for march in (kept, fresh, past):
            (lo, hi), sup = march.first_crossing(nodes, threshold, 1e-12)
            assert grid[i - 1] <= lo < hi <= grid[i]
            assert sup == pytest.approx(dense[:i].max(), abs=1e-10)
        assert (i * step > math.pi) == (threshold > peaks[0])


def test_warm_call_derives_nothing_per_input(worked, monkeypatch):
    # The kept march holds the reference norm and the functional of its
    # init and weights objects: a further eps derives neither, and answers
    # as a fresh copy of the system does, which derives each once
    system = dataclasses.replace(worked.sys)
    args = (worked.init, worked.weights)
    decoherence_time(system, *args, 1.2)
    calls = []
    monkeypatch.setattr(Propagator, "functional", lambda self, *a, f=Propagator.functional:
                        calls.append("functional") or f(self, *a))
    monkeypatch.setattr(moments, "reference_norm", lambda *a, f=moments.reference_norm:
                        calls.append("reference_norm") or f(*a))
    eps_list = (0.6, 0.05, 2.5, 1.2)
    got = [decoherence_time(system, *args, eps) for eps in eps_list]
    assert calls == []
    assert got == [decoherence_time(dataclasses.replace(system), *args, eps) for eps in eps_list]
    assert calls == ["reference_norm", "functional"] * len(eps_list)


def test_new_input_objects_build_their_own_march(worked):
    # The march is kept for the init and weights objects, not their values:
    # equal copies build their own, and so does an init with another mean,
    # whose answers are those of a fresh propagator
    system = dataclasses.replace(worked.sys)
    prop = Propagator.of(system)
    first = decoherence_time(system, worked.init, worked.weights, 0.05)
    for init, weights in ((dataclasses.replace(worked.init), worked.weights),
                          (worked.init, dataclasses.replace(worked.weights))):
        march = prop._deviation._march
        assert decoherence_time(system, init, weights, 0.05) == first
        assert prop._deviation._march is not march
        assert prop._deviation.init is init and prop._deviation.weights is weights
    moved = dataclasses.replace(worked.init, mu0=np.array([0.1, 0.2, -0.3]))
    assert not moved.mu0.flags.writeable
    for eps in (0.05, 0.6):
        got = decoherence_time(system, moved, worked.weights, eps)
        assert prop._deviation.init is moved
        assert got == decoherence_time(dataclasses.replace(system), moved, worked.weights, eps)
    assert got != decoherence_time(system, worked.init, worked.weights, 0.6)


def test_one_deviation_record_serves_every_reader(worked, monkeypatch):
    # The expansion, the steady state, tau at three eps and (R, K) on one
    # triple derive L and Lambda(mu0) once, and answer as fresh systems do
    system = dataclasses.replace(worked.sys)
    args = (worked.init, worked.weights)
    Propagator.of(system).limits  # the system's own Lambda(mu_inf)
    calls = []
    for name in ("functional", "lam"):
        monkeypatch.setattr(Propagator, name, lambda self, *a, f=getattr(Propagator, name),
                            name=name: calls.append(name) or f(self, *a))
    readers = (lambda s: tau_expansion(s, *args), lambda s: steady_state(s, *args).Delta_inf,
               *(lambda s, e=eps: decoherence_time(s, *args, e) for eps in (0.05, 0.6, 2.5)),
               lambda s: rk_matrices(s, *args))
    got = [read(system) for read in readers]
    assert sorted(calls) == ["functional", "lam"]
    for a, b in zip(got, (read(dataclasses.replace(system)) for read in readers)):
        assert pickle.dumps(a) == pickle.dumps(b)


def test_new_step_reuses_the_record(worked, monkeypatch):
    # A second step builds a march of its own, but Delta_inf and the decay
    # bound stay those of the record: no second singular values
    system = dataclasses.replace(worked.sys)
    prop = Propagator.of(system)
    first = decoherence_time(system, worked.init, worked.weights, 2.5,
                             opts=CrossingOptions(step=1e-3))
    dev, march = prop._deviation, prop._deviation._march
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, f=np.linalg.svd, **k:
                        calls.append(a) or f(*a, **k))
    again = decoherence_time(system, worked.init, worked.weights, 2.5,
                             opts=CrossingOptions(step=2e-3))
    assert first.is_infinite and again.is_infinite and calls == []
    assert prop._deviation is dev and dev._march is not march and dev._march.step == 2e-3


def _raising_cases(pauli, worked):
    """(call, error, record attribute) for every error a deviation record
    raises, on fixed objects."""
    zero = weighting_from_sigma(np.zeros((3, 3)))
    bad = StructureConstants(2.0 * np.eye(3), pauli.beta)
    defect = SystemParams(sc=bad, E=np.array([0.3, -0.2, 0.5]),
                          M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), N=np.zeros(2))
    defect_init = initial_moments(bad, np.array([0.2, 0.0, 0.1]))
    uncoupled = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]), M=np.zeros((2, 3)),
                             N=np.zeros(2))
    huge = worked.sys.with_energy(np.array([1e300, 0.0, 0.0]))
    w = worked.weights
    return {
        "trivial": (lambda: tau_expansion(worked.sys, worked.init, zero),
                    TrivialWeightError, (worked.sys, worked.init, zero), "ref"),
        "structure": (lambda: steady_state(defect, defect_init, w),
                      StructureDefectError, (defect, defect_init, w), "L"),
        "zero-diffusion": (lambda: tau_expansion(uncoupled, worked.init, w),
                           ZeroDiffusionError, None, None),
        "curvature": (lambda: tau_expansion(huge, worked.init, w),
                      IntegrationError, (huge, worked.init, w), "ddot0"),
        "not-hurwitz": (lambda: Propagator.of(uncoupled).deviation(worked.init, w).limit,
                        NotHurwitzError, (uncoupled, worked.init, w), "limit"),
    }


@pytest.mark.parametrize("case", ["trivial", "structure", "zero-diffusion", "curvature",
                                  "not-hurwitz"])
def test_record_keeps_no_raise(pauli, worked, case):
    # Each error is raised again on the same objects: the record keeps the
    # quantities it derived, never a raise
    call, error, triple, attr = _raising_cases(pauli, worked)[case]
    for _ in range(2):
        with pytest.raises(error):
            call()
    if triple is not None:
        system, init, w = triple
        dev = Propagator.of(system).deviation(init, w)
        assert attr not in vars(dev)
        with pytest.raises(error):
            getattr(dev, attr)
        assert Propagator.of(system).deviation(init, w) is dev


def test_equal_objects_build_their_own_record(worked):
    # The record is kept for the objects, not their values; its L is read-only
    prop = Propagator.of(dataclasses.replace(worked.sys))
    dev = prop.deviation(worked.init, worked.weights)
    assert prop.deviation(worked.init, worked.weights) is dev
    for init, weights in ((dataclasses.replace(worked.init), worked.weights),
                          (worked.init, dataclasses.replace(worked.weights))):
        other = prop.deviation(init, weights)
        assert other is not dev and other.init is init and other.weights is weights
        assert np.array_equal(other.L, dev.L) and other.L is not dev.L
        assert prop.deviation(init, weights) is other
    assert not dev.L.flags.writeable
    with pytest.raises(ValueError):
        dev.L[0, 0] = 1.0


def _two_qubit_composite(pauli):
    sub = SystemParams(sc=pauli, E=np.array([0.1, 0.0, 0.2]),
                       M=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                       N=np.array([0.0, 0.1]))
    system = compose(sub, sub, 0.3 * np.ones(9)).as_system()
    init = initial_moments(system.sc, product_mean([0.1, 0.0, 0.2], [0.0, -0.1, 0.3]))
    return system, init


@pytest.mark.parametrize("case", [0, 1, "composite"])
def test_chunked_delta_matches_stepwise(make_instance, pauli, case):
    # the node table, filled chunk by chunk, against one push by the map
    # over one step per node and the dense trajectory: Delta rises over
    # these nodes, but the table holds its running maximum
    if case == "composite":
        system, init = _two_qubit_composite(pauli)
    else:
        system, init = make_instance(np.random.default_rng(case))
    weights = weighting_from_sigma(np.eye(system.n))
    prop = Propagator(system)
    h = 1e-3 / max(1.0, prop.norm_a)
    nodes = 700
    march = prop.deviation(init, weights).march(h)
    march.first_crossing(nodes, math.inf, 1e-9)
    d, coef, state = march.table
    end = len(d) - 1
    assert end >= nodes and end == len(coef) * march.m

    stepwise, Phi, step_map = [], np.eye(system.n + 1), prop.transition(h)
    for _ in range(end):
        Phi = step_map @ Phi
        stepwise.append(np.sum(march.dev.L * Phi.T))
    assert np.abs(state - Phi.ravel()).max() <= 1e-10
    # the table keeps the running maximum of Delta at the nodes
    assert np.abs(d[1:] - np.maximum.accumulate(stepwise)).max() <= 1e-10

    grid = np.arange(nodes + 1) * h
    traj = deviation_delta(system, init, weights, grid)
    assert np.abs(d[1:nodes + 1] - np.maximum.accumulate(traj[1:])).max() <= 1e-10


def test_refine_long_step_matches_default(worked):
    # a step of 0.5 is longer than 1 / (2 rho) of the worked generator
    # [[A, b], [0, 0]] (norm bound hypot(||A||, |b|) = hypot(4, 4)), so it
    # is cut into six spacings; tau(0.05) lies in the first and tau(1.0) =
    # 0.27 in the fourth
    prop = Propagator.of(worked.sys)
    Ahat = np.zeros((4, 4))
    Ahat[:3, :3], Ahat[:3, 3] = prop.A, prop.b
    assert np.linalg.norm(Ahat, 2) <= prop.rho * (1.0 + 1e-12)
    assert prop.deviation(worked.init, worked.weights).march(0.5).h == 0.5 / 6
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


def _isolated_spin(pauli):
    # Delta = 4 - 4 cos 2t from mu0 = (0.5, 0, 0), with peaks of 8 at the
    # odd multiples of pi / 2
    system = SystemParams(sc=pauli, E=np.array([0.0, 0.0, 1.0]), M=np.zeros((2, 3)),
                          N=np.zeros(2))
    return system, initial_moments(pauli, np.array([0.5, 0.0, 0.0]))


def test_long_step_hides_no_hump(pauli):
    # Every node k pi of a step pi has Delta = 0, under the threshold 6 of
    # eps 2; cut into spacings of at most 1 / (2 rho), the step finds the
    # first crossing at pi / 3
    system, init = _isolated_spin(pauli)
    got = decoherence_time(system, init, weighting_from_sigma(np.eye(3)), 2.0,
                           opts=CrossingOptions(step=math.pi, horizon=50.0))
    tol = 1e-9 / Propagator.of(system).norm_a
    assert abs(got.value - math.pi / 3.0) <= tol


def test_tiny_step_stays_bounded(worked):
    # A step of 1e-7 asks for about 880,000 nodes per interval of width
    # 1 / (2 rho); capped, the powers and the table stay within their budget
    system = dataclasses.replace(worked.sys)
    args = (worked.init, worked.weights, 0.05)
    want = decoherence_time(worked.sys, *args)
    tracemalloc.start()
    try:
        got = decoherence_time(system, *args, opts=CrossingOptions(step=1e-7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * propagate.ROW_BUDGET
    assert abs(got.value - want.value) <= 2e-9 / Propagator.of(system).norm_a


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


def test_gradient_check_on_composite(pauli):
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(system.n))
    report = gradient_check(system, init, weights, np.linspace(-0.3, 0.4, system.n))
    assert report.max_rel_dev <= 1e-6


def test_decoherence_times_share_chunk_maps(worked, monkeypatch):
    system = dataclasses.replace(worked.sys)
    args = (worked.init, worked.weights)
    decoherence_time(system, *args, 0.5)
    calls = []
    monkeypatch.setattr(propagate, "expm",
                        lambda A, t, f=propagate.expm: calls.append(t) or f(A, t))

    shared = decoherence_time(system, *args, 0.05)
    assert calls == []
    copy = dataclasses.replace(system)
    fresh = decoherence_time(copy, *args, 0.05)
    # Phi over one interval and over a chunk, each its own exponential
    width = Propagator.of(copy)._deviation._march.width
    assert calls == [width, propagate.CHUNK * width]
    assert (shared.value, shared.bracket) == (fresh.value, fresh.bracket)

    # another step derives its own maps, once
    opts = CrossingOptions(step=1e-3)
    calls.clear()
    own = decoherence_time(system, *args, 0.05, opts=opts)
    width = Propagator.of(system)._deviation._march.width
    assert width == 1e-3 * Propagator.of(system)._deviation._march.m
    assert calls == [width, propagate.CHUNK * width]
    calls.clear()
    assert decoherence_time(system, *args, 0.05, opts=opts) == own
    assert calls == []
    fresh = decoherence_time(dataclasses.replace(system), *args, 0.05, opts=opts)
    assert (own.value, own.bracket) == (fresh.value, fresh.bracket)


@functools.lru_cache(maxsize=None)
def _identity_weights(n):
    # one object per size, so calls on one system share its kept march
    return weighting_from_sigma(np.eye(n))


def _outcome(system, init, eps, opts):
    weights = _identity_weights(system.n)
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


#: Nodes at and next to the ends of the worked system's intervals (353
#: nodes at its default step) and of its chunks of 16 intervals, where a
#: node table can end.
_CHUNK_ENDS = [k * 353 + d for k in (1, 2, 16, 32, 48) for d in (-1, 0, 1)]


@settings(max_examples=10, deadline=None)
@example(calls=[(1000, None), (5648, None), (500, 0.5), (5000, None), (300, None),
                (16944, 0.9), (5649, 0.999), (353, None)], data=None)
@given(calls=st.lists(st.tuples(st.one_of(st.integers(1, 20000), st.sampled_from(_CHUNK_ENDS)),
                                st.one_of(st.none(), st.floats(0.05, 0.999))),
                      min_size=2, max_size=6),
       data=st.data())
def test_tau_curve_bitwise_independent_of_node_table(worked, calls, data):
    # A tau(eps) curve on the worked system, whose Delta rises at every
    # node, so a threshold between the values at the nodes b - 1 and b
    # first crosses at b.  Whatever the table holds when a call comes, the
    # crossing lies inside it, at its end or past it, and a horizon that
    # is a share of b * step stops the march inside the table or past it.
    # Each outcome (value and bracket, or the supremum of an inconclusive
    # march) equals, bitwise, that of a fresh copy of the system, in the
    # drawn order and in a shuffled one.
    prop = Propagator(worked.sys)
    step = 1e-3 / prop.norm_a
    march = prop.deviation(worked.init, worked.weights).march(step)
    march.first_crossing(20000, math.inf, 1e-9)
    d = march.table[0]
    assert march.m == 353
    ref = reference_norm(worked.init, worked.weights)
    jobs = [(0.5 * (d[b - 1] + d[b]) / ref,
             CrossingOptions() if share is None else CrossingOptions(horizon=share * b * step))
            for b, share in calls]
    want = [_outcome(dataclasses.replace(worked.sys), worked.init, *job) for job in jobs]
    for (b, share), got in zip(calls, want):
        if share is None:
            assert (b - 1) * step <= got[1][0] < got[1][1] <= b * step
    drawn = range(len(jobs))
    shuffled = drawn[::-1] if data is None else data.draw(st.permutations(drawn))
    for order in (drawn, shuffled):
        system = dataclasses.replace(worked.sys)
        assert {j: _outcome(system, worked.init, *jobs[j]) for j in order} == dict(enumerate(want))


def test_march_past_the_table_budget(worked, marched_nodes):
    # Horizon 40 is 160,000 nodes of the default step 2.5e-4, past the
    # 124,256 node values (22 chunks of 16 intervals of 353 nodes) that fit
    # in ROW_BUDGET with the coefficients of their intervals.  Delta_inf = 6
    # sits inside the margin below the threshold, so the march runs to the
    # horizon: cold, it fills the table and goes on without storing; warm,
    # it goes on from the full table.
    system = dataclasses.replace(worked.sys)
    eps, opts = 2.0 * (1.0 + 1e-7), CrossingOptions(horizon=40.0)
    cold = _outcome(system, worked.init, eps, opts)
    march = Propagator.of(system)._deviation._march
    d, coef, state = table = march.table
    assert len(d) - 1 == march.last == 124256 < marched_nodes[0] == 160000
    assert d.nbytes + coef.nbytes + state.nbytes <= propagate.ROW_BUDGET
    assert _outcome(system, worked.init, eps, opts) == cold and march.table is table
    assert cold[0] == "inconclusive" and cold[1] == pytest.approx(6.0, rel=1e-12)

    # On a step of 2e-5, the threshold 5.99 crosses near t = 3.0, past the
    # table's end near t = 2.4; the threshold 3 crosses inside it.
    opts = CrossingOptions(step=2e-5)
    for eps in (5.99 / 3.0, 1.0, 5.99 / 3.0):
        got = _outcome(system, worked.init, eps, opts)
        assert got == _outcome(dataclasses.replace(system), worked.init, eps, opts)
    assert got[0] > 2.9 and (len(Propagator.of(system)._deviation._march.table[0]) - 1) * 2e-5 < 2.5


def test_second_eps_reuses_kept_rows(worked, monkeypatch):
    # A crossing inside the kept table is one binary search of its running
    # maximum and a refinement on the kept coefficients of its interval: no
    # rows, no chunk, no exponential and no state
    system = dataclasses.replace(worked.sys)
    args = (worked.init, worked.weights)
    decoherence_time(system, *args, 1.9)
    march = Propagator.of(system)._deviation._march
    calls, refined = [], []
    for owner, name in ((DeviationMarch, "_chunk"), (DeviationMarch, "_taylor_rows"),
                        (Propagator, "transition")):
        monkeypatch.setattr(owner, name, lambda self, *a, f=getattr(owner, name), name=name:
                            calls.append(name) or f(self, *a))
    monkeypatch.setattr(DeviationMarch, "_refine", lambda self, coef, *a, f=DeviationMarch._refine:
                        refined.append(coef) or f(self, coef, *a))
    eps_list = (0.6, 0.05, 1.2)
    got = [decoherence_time(system, *args, eps) for eps in eps_list]
    assert calls == [] and Propagator.of(system)._deviation._march is march
    assert len(refined) == 3 and all(coef.base is march.table[1] for coef in refined)
    assert got == [decoherence_time(dataclasses.replace(system), *args, eps) for eps in eps_list]

    # the rows belong to the initial moments: another init rebuilds them
    calls.clear()
    other = initial_moments(system.sc, np.array([0.1, 0.2, -0.3]))
    decoherence_time(system, other, worked.weights, 0.6)
    assert calls.count("_chunk") >= 1 and calls.count("_taylor_rows") == 1


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
    march = Propagator.of(worked.sys)._deviation._march
    b0, rate = march.dev.decay_bound
    assert b0 == pytest.approx(6.0, rel=1e-12) and rate == pytest.approx(2.0, rel=1e-12)
    t_c = math.log(b0 / ((1.0 - 1e-6) * 7.5 - 6.0)) / rate
    assert marched_nodes == [math.ceil(t_c / march.step)] == [2773]


def test_march_keeps_maps_and_rows_of_one_step(pauli):
    # the propagator holds one march, and that march the maps of its own
    # step: Phi over 0 ... CHUNK intervals, products of the map over one but
    # the map over a chunk, which is its own exponential
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(system.n))
    prop = Propagator.of(system)
    chunk, n1 = propagate.CHUNK, system.n + 1
    for step in np.geomspace(2e-4, 2e-3, 20):
        decoherence_time(system, init, weights, 0.05, opts=CrossingOptions(step=step))
        march = prop._deviation._march
        assert march.step == step == march.h and march.width * prop.rho <= 0.5
        assert march.powers.nbytes + chunk * march.m * 8 <= propagate.ROW_BUDGET
        d, coef, state = march.table
        assert d.nbytes + coef.nbytes + state.nbytes <= propagate.ROW_BUDGET
        maps = march.jumps.reshape(chunk + 1, n1, n1)
        assert np.array_equal(maps[0], np.eye(n1))
        assert np.array_equal(maps[1], prop.transition(march.width))
        assert np.array_equal(maps[chunk], prop.transition(chunk * march.width))
        for k in range(2, chunk + 1):
            assert np.abs(maps[k] - prop.transition(k * march.width)).max() <= 1e-13
        # the maps are the propagator's one kept stack, read-only
        stack, key = prop._maps
        assert key == (march.width, chunk) and np.shares_memory(march.jumps, stack)
        assert not march.jumps.flags.writeable

    # a march for another weighting on the same step reads the kept stack
    decoherence_time(system, init, weighting_from_sigma(2.0 * np.eye(system.n)), 0.05,
                     opts=CrossingOptions(step=step))
    assert prop._deviation._march is not march
    assert np.shares_memory(prop._deviation._march.jumps, march.jumps)


@pytest.mark.parametrize("case", [0, 1, "composite"])
def test_taylor_rows_match_forward_series(make_instance, case):
    if case == "composite":
        system, init = _composite_case()
    else:
        system, init = make_instance(np.random.default_rng(case))
    prop = Propagator(system)
    weights = weighting_from_sigma(np.eye(system.n))
    Sigma = weights.Sigma
    march = prop.deviation(init, weights).march(0.01)
    rows = march._taylor_rows(10)
    n1 = system.n + 1
    # a generic transition matrix too: the closure holds for every mean
    rng = np.random.default_rng(5)
    generic = np.vstack([rng.standard_normal((n1 - 1, n1)), np.eye(n1)[-1]])
    for Phi in (np.eye(n1), prop.transition(37 * march.h), generic):
        # the rows give the coefficients in the time over the interval width
        x = Phi.ravel()
        want = forward_taylor(system, init, Sigma, Phi, 10) * march.width ** np.arange(11)
        # relative to the size of each sum: at n = 15 its terms cancel to
        # within 1e-5 of it
        assert (np.abs(rows @ x - want) <= 1e-12 * (np.abs(rows) @ np.abs(x))).all()


def test_uniform_grid_builds_one_step_map(pauli, monkeypatch):
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(15))
    grid = np.linspace(0.0, 0.5, 501)
    assert len(set(np.diff(grid).tolist())) > 1

    steps = []
    monkeypatch.setattr(propagate, "expm",
                        lambda A, h, f=propagate.expm: steps.append(h) or f(A, h))
    shared = deviation_delta(system, init, weights, grid)
    # n = 15 marches in chunks of 2 CHUNK nodes: the maps over one shared
    # spacing and over each multiple of CHUNK of them are their own
    # exponentials; the maps between are products
    h, chunk = propagate.step_spacings(grid)[0], propagate.CHUNK
    assert steps == [h, chunk * h, 2 * chunk * h]
    prop = Propagator.of(system)
    stack, key = prop._maps
    assert key == (h, 2 * chunk)
    for k in (1, chunk, 2 * chunk):
        assert np.array_equal(stack[k], prop.transition(k * h))
    assert np.array_equal(stack[chunk + 1], stack[1] @ stack[chunk])

    # one map over a spacing per distinct float spacing, as without the
    # shared rule, though most recur in runs that are not next to each
    # other; a fresh system, since the first call's maps are kept on this one
    del steps[:]
    monkeypatch.setattr(propagate, "step_spacings", np.diff)
    per_spacing = deviation_delta(dataclasses.replace(system), init, weights, grid)
    assert sorted(s for s in steps if s < 1.5e-3) == sorted(set(np.diff(grid).tolist()))
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


@pytest.mark.parametrize("case", ["composite", "qubit-qutrit"])
@pytest.mark.parametrize("run", [1, 15, 16, 17, 31, 32, 33])
def test_runs_about_the_chunk_span_match_stepwise(make_instance, case, run):
    # runs of ``run`` spacings 3/256, then 5/256, then 3/256 again, each
    # split into chunks of 2 CHUNK nodes at n = 15 and of CHUNK at n = 35;
    # the spacings are dyadic, so each run has one float spacing
    system, init = _closure_case(make_instance, case)
    grid = np.r_[0.0, np.cumsum(np.repeat([3.0, 5.0, 3.0], run) / 256)]
    assert len(set(np.diff(grid).tolist())) == 2
    Sigma = _random_weights(system.n, run).Sigma
    mu, V, delta = Propagator.of(system).trajectory(init, Sigma, grid)
    # the kept stack is the last spacing's, over its run up to the span
    span = propagate.CHUNK * (2 if case == "composite" else 1)
    assert Propagator.of(system)._maps[1] == (5.0 / 256, min(run, span))
    # the checks of test_blocked_trajectory_matches_stepwise
    want = stepwise_trajectory(system, init, Sigma, grid)
    S = system.sc.alpha + np.tensordot(want[0], system.sc.beta, 1)
    scales = (np.abs(want[0]).max(), max(np.abs(want[1]).max(), np.abs(S).max()),
              np.abs(want[2]).max())
    for got, ref, scale in zip((mu, V, delta), want, scales):
        assert np.abs(got - ref).max() <= 1e-12 * scale


def test_trajectory_reuses_kept_maps(pauli, monkeypatch):
    system, init = _two_qubit_composite(pauli)
    weights = weighting_from_sigma(np.eye(system.n))
    grid = np.linspace(0.0, 0.5, 501)
    first = moment_trajectory(system, init, weights, grid)
    calls = []
    monkeypatch.setattr(propagate, "expm",
                        lambda A, h, f=propagate.expm: calls.append(h) or f(A, h))
    monkeypatch.setattr(Propagator, "transition",
                        lambda self, h, f=Propagator.transition: calls.append(h) or f(self, h))
    second = moment_trajectory(system, init, weights, grid)
    assert calls == []
    for name in ("mu", "V", "Delta"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


def test_trajectory_keeps_maps_of_one_step(pauli):
    system, init = _two_qubit_composite(pauli)
    prop, n1, span = Propagator.of(system), system.n + 1, 2 * propagate.CHUNK
    for grid in (np.linspace(0.0, 0.3, 101), np.linspace(0.0, 0.7, 301),
                 _grid("two runs", 200, 1.0)):
        moment_trajectory(system, init, None, grid)
        stack, key = prop._maps
        assert key == (propagate.step_spacings(grid)[-1], span)
        assert stack.nbytes <= (span + 1) * n1 * n1 * 8
    moment_trajectory(system, init, None, _grid("geometric", 30, 1.0))
    assert prop._maps[0].shape == (2, n1, n1)

    # a march keeps the stack it read, whatever a trajectory built since
    weights = weighting_from_sigma(np.eye(system.n))
    grid = np.linspace(0.0, 0.5, 501)
    for _ in range(2):
        moment_trajectory(system, init, weights, grid)
        assert prop._maps[1] == (propagate.step_spacings(grid)[-1], span)
        decoherence_time(system, init, weights, 0.05)
        march = prop._deviation._march
        assert np.array_equal(march.jumps[n1:2 * n1], prop.transition(march.width))


def test_geometric_grid_builds_one_map_per_spacing(pauli, monkeypatch):
    # every run is one node, which reads Phi over its own spacing and
    # builds no stack over a chunk
    system, init = _two_qubit_composite(pauli)
    grid = _grid("geometric", 30, 1.0)
    steps = []
    monkeypatch.setattr(propagate, "expm",
                        lambda A, h, f=propagate.expm: steps.append(h) or f(A, h))
    moment_trajectory(system, init, None, grid)
    assert steps == np.diff(grid).tolist()
    stack, key = Propagator.of(system)._maps
    assert key == (steps[-1], 1) and stack.shape == (2, system.n + 1, system.n + 1)


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
    # The march reads Delta = <L, Phi_t^T> off the Taylor polynomial of each
    # interval; the trajectory reads it off Phi_t^T moved chunk by chunk.
    # Both share L, so they agree to roundoff; the trajectory's Delta is
    # checked against the Lyapunov ODE in
    # test_blocked_trajectory_matches_stepwise.  A generic weighting:
    # <I, Re beta_l> vanishes for spin and Gell-Mann composites, so
    # Sigma = I would not see the Re beta part of S.
    system, init = _closure_case(make_instance, case)
    weights = _random_weights(system.n, wseed)
    ref = reference_norm(init, weights)
    prop = Propagator.of(system)
    step, nodes = 1e-3 / max(1.0, prop.norm_a), 300
    march = prop.deviation(init, weights).march(step)
    grid = np.arange(nodes + 1) * step
    want = prop.trajectory(init, weights.Sigma, grid)[2]
    sup = march.first_crossing(nodes, math.inf, 1e-9)[1]
    # Delta at the kept nodes, read off the kept coefficients chunk by chunk
    # as the march read it; the table keeps its running maximum
    r, coef, _ = march.table
    chunks = np.split(coef, len(coef) // propagate.CHUNK)
    d = np.concatenate([r[:1], *((c @ march.powers.T).ravel() for c in chunks)])
    assert np.array_equal(r[1:], np.maximum.accumulate(d[1:]))
    assert np.abs(d[:nodes + 1] - want).max() <= 1e-13 * ref
    # each interval's polynomial starts where the one before ends
    assert np.abs(coef[1:, 0] - d[march.m:-1:march.m]).max() <= 1e-13 * ref
    assert sup == d[:nodes + 1].max()

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
    mu_inf, lam_inf, P_inf = prop.limits
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
