"""Per-layer tracing from outside the package.

Each layer is a module of ``qmemtime``.  Modules import each other's
functions with ``from .x import y``, so a function is traced by rebinding
every module attribute that refers to it (its call sites), not only the
attribute of its home module.  A function that no longer exists is skipped:
its metrics read 0 and its name is listed in ``Tracer.absent``.

A span is one call of a wrapped function.  Its self time is its duration
minus the time covered by the spans it caused, taken as a union of
intervals, because the CLI sweep runs child spans on a thread pool.  A span
opened on a worker thread with no open span of its own belongs to the
innermost open span of the main thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "interconnect", "dense", "model", "linalg", "kernels",
          "moments", "decoherence", "optimize")

TARGETS = {
    "cli": ("main", "load_config"),
    "interconnect": ("compose", "partition_rk", "optimal_direct_coupling"),
    "dense": ("fit_structure_constants", "check_algebra"),
    "model": ("coefficients", "lambda_matrix", "lambda_dot0", "lambda_affine"),
    "linalg": ("expm_psi", "solve_lyapunov"),
    "kernels": ("march_first_crossing", "integrate_grid"),
    "moments": ("moment_trajectory", "steady_state"),
    "decoherence": ("decoherence_time", "tau_expansion"),
    "optimize": ("rk_matrices", "optimal_energy"),
}

LAMBDA_FUNCS = ("lambda_matrix", "lambda_dot0", "lambda_affine")

#: Per-layer metric name -> unit, in report order.
METRICS = {
    "kernels.march_calls": "count",
    "kernels.march_steps": "count",
    "kernels.march_s": "s",
    "kernels.refine_evals": "count",
    "kernels.refine_s": "s",
    "kernels.integrate_grid_s": "s",
    "linalg.expm_psi_calls": "count",
    "linalg.expm_psi_s": "s",
    "linalg.solve_lyapunov_s": "s",
    "moments.moment_trajectory_s": "s",
    "moments.steady_state_calls": "count",
    "moments.steady_state_s": "s",
    "decoherence.outcome_crossing": "count",
    "decoherence.outcome_certified": "count",
    "decoherence.outcome_inconclusive": "count",
    "decoherence.decoherence_time_self_s": "s",
    "model.coefficients_calls": "count",
    "model.lambda_calls": "count",
    "model.lambda_s": "s",
    "dense.fit_structure_constants_s": "s",
    "dense.check_algebra_s": "s",
    "interconnect.compose_s": "s",
    "interconnect.partition_rk_s": "s",
    "optimize.rk_matrices_s": "s",
    "optimize.optimal_energy_s": "s",
    "cli.load_config_s": "s",
    "cli.main_self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


class _Span:
    __slots__ = ("start", "parent", "children")

    def __init__(self, start, parent):
        self.start = start
        self.parent = parent
        self.children = []


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _threshold_index(fn):
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return names.index("threshold") if "threshold" in names else None


class Tracer:
    """Wraps the layer functions of a loaded ``qmemtime`` and aggregates
    their spans; ``install()`` patches, ``uninstall()`` restores."""

    def __init__(self):
        self.absent = []
        self._patched = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self.reset()

    def reset(self):
        with self._lock:
            self.totals = defaultdict(float)

    # -- patching ----------------------------------------------------------

    def install(self):
        importlib.import_module("qmemtime")
        for layer in LAYERS:
            try:
                importlib.import_module(f"qmemtime.{layer}")
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qmemtime" or name.startswith("qmemtime."))]
        self.absent = []
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"qmemtime.{layer}")
            for name in names:
                fn = getattr(home, name, None) if home is not None else None
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn):
        tracer = self
        classify = getattr(self, f"_classify_{name}", None)
        thr_idx = _threshold_index(fn) if name == "march_first_crossing" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = _Span(time.perf_counter(), parent)
            stack.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    if parent is not None:
                        parent.children.append((span.start, end))
                    dur = end - span.start
                    t = tracer.totals
                    t[f"{layer}.{name}_calls"] += 1
                    t[f"{layer}.{name}_s"] += dur
                    t[f"{layer}.{name}_self_s"] += dur - _covered(span.children, span.start, end)
                    if exc is not None:
                        t[f"{layer}.errors"] += 1
                    if classify is not None:
                        classify(t, dur, args, kwargs, result, exc, thr_idx)
        return wrapper

    @staticmethod
    def _classify_march_first_crossing(t, dur, args, kwargs, result, exc, thr_idx):
        thr = kwargs.get("threshold")
        if thr is None and thr_idx is not None and len(args) > thr_idx:
            thr = args[thr_idx]
        if thr is not None and math.isinf(thr):
            t["kernels.refine_evals"] += 1
            t["kernels.refine_s"] += dur
            return
        t["kernels.march_calls"] += 1
        t["kernels.march_s"] += dur
        if isinstance(result, tuple) and len(result) > 1:
            t["kernels.march_steps"] += int(result[1])

    @staticmethod
    def _classify_decoherence_time(t, dur, args, kwargs, result, exc, thr_idx):
        if exc is not None:
            if type(exc).__name__ == "InconclusiveCrossingError":
                t["decoherence.outcome_inconclusive"] += 1
        elif math.isinf(result.value):
            t["decoherence.outcome_certified"] += 1
        else:
            t["decoherence.outcome_crossing"] += 1

    # -- metrics -----------------------------------------------------------

    def metrics(self):
        """The per-layer metrics of everything traced since ``reset()``."""
        with self._lock:
            t = dict(self.totals)
        get = lambda key: t.get(key, 0.0)  # noqa: E731
        out = {key: get(key) for key in METRICS}
        out["model.lambda_calls"] = sum(get(f"model.{f}_calls") for f in LAMBDA_FUNCS)
        out["model.lambda_s"] = sum(get(f"model.{f}_s") for f in LAMBDA_FUNCS)
        return out
