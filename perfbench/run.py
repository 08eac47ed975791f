#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of qmemtime (numpy/scipy only).

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --steadiness 10 [--workload NAME ...] [--seed N]

A run measures set-up in fresh interpreters, then repeats passes over the
workload's operations for about ``--seconds`` seconds, checks every answer
outside the timed region, and prints a report whose last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1`` passes alternate between untraced and traced (functions
of every layer wrapped, see ``tracing.py``); the metrics are the per-layer
ones of one traced pass, which includes a traced set-up, plus the tracing
overhead.  Each run stores its result under ``perfbench/results/`` and
prints the change against the previous result of the same workload.

``--smoke`` runs one pass of every workload in both modes.  ``--steadiness
K`` runs every workload with K seeds and prints each end-to-end metric's
spread (interquartile range over median) against its bound.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: One BLAS thread in this process and in the interpreters it starts, set
#: before numpy loads.  With the default of one thread per vCPU, the n = 15
#: operations ran 1.4x slower at the median, used twice the CPU time and
#: had a tail up to 10x the median on the 2-vCPU host, whose second vCPU is
#: shared with other tenants; with one thread they vary by a few percent.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

from calibration import Calibration, scale_child  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fresh-interpreter set-ups timed per run (after one untimed warm-up).
SETUP_REPS = 7

HOST_LIMITS = (
    "2 CPUs shared with other tenants; no system-wide profiling or tracing; "
    "peak RSS covers the benchmark's own process and its children only")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Statistics.


def percentile(values, p):
    """Percentile with linear interpolation; p = 50 is the median."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it,
    and never below the median."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def spread(values):
    """Interquartile range over median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# Machine facts.


def machine_facts():
    import scipy
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
        if deps.get("openblas configuration"):
            blas += f" ({deps['openblas configuration']})"
    except (TypeError, KeyError, ValueError):
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "platform": platform.platform(),
            "limits": HOST_LIMITS}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Set-up.


def time_setups(workload, inputs_path, env):
    """Wall times, as measured and scaled, of fresh interpreters that
    import qmemtime and build the workload's systems.  Each then runs the
    calibration kernel, whose time is taken out of its wall time.  The
    first interpreter may compile bytecode and is dropped."""
    code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import qmemtime; "
    if workload.has_setup:
        code += (f"import workloads; workloads.probe_setup({workload.name!r}, "
                 f"{str(inputs_path)!r}); ")
    code += "import calibration; calibration.report()"
    raw, scaled = [], []
    for _ in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                              capture_output=True, text=True, timeout=170)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()[-500:]}")
        scaled.append(scale_child(raw[-1], proc.stdout.strip().splitlines()[-1]))
    return raw[1:], scaled[1:]


# ---------------------------------------------------------------------------
# Passes.


class Tally:
    """Latencies per kind, as measured and scaled, and failed checks across
    the measured passes."""

    def __init__(self):
        self.latency = {}
        self.raw = {}
        self.cal = Calibration()
        self.attempted = 0
        self.failures = []

    def run_pass(self, ops):
        """Run the ops with the calibration kernel between them, then check
        them; returns the pass time, the sum of the ops' latencies, scaled
        and as measured."""
        outcomes = []
        self.cal.start()
        for op in ops:
            t0 = time.perf_counter()
            try:
                result, exc = op.call(), None
            except Exception as e:  # a failed operation, reported below
                result, exc = None, e
            dt = time.perf_counter() - t0
            outcomes.append((op, dt, self.cal.scaled(dt), result, exc))
        for op, dt, scaled, result, exc in outcomes:
            self.attempted += 1
            self.raw.setdefault(op.kind, []).append(dt)
            self.latency.setdefault(op.kind, []).append(scaled)
            problem = op.check(result, exc)
            if problem is not None:
                self.failures.append(f"{op.label}: {problem}")
        return sum(o[2] for o in outcomes), sum(o[1] for o in outcomes)


def measure(seconds, one_pass):
    """Repeat ``one_pass`` while another pass of median length still fits
    in ``seconds``; always at least once.  Returns what the passes return."""
    results, lengths = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return results


def latency_summary(values):
    p = tail_percentile(len(values))
    return {"p50": statistics.median(values), "tail": percentile(values, p),
            "tail_pct": p, "n": len(values)}


# ---------------------------------------------------------------------------
# One run.


def run(args):
    if not (SRC / "qmemtime" / "__init__.py").is_file():
        fail(f"no qmemtime sources under {SRC.name}/ next to {BENCH_DIR.name}/; "
             "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    # The package runs with its defaults: no QMEMTIME_* setting from the caller.
    for key in [k for k in os.environ if k.startswith("QMEMTIME_")]:
        del os.environ[key]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    import workloads as W

    if args.workload not in W.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    ref = W.load_reference()
    inputs = wl.make_inputs(args.seed, ref)

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT)))
    try:
        inputs_path = tmp / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        if "configs" in inputs:
            inputs["paths"] = {}
            for key, tree in inputs["configs"].items():
                path = tmp / f"{key}.json"
                path.write_text(json.dumps(tree))
                inputs["paths"][key] = str(path)
        setup = time_setups(wl, inputs_path, env)
        return run_passes(args, W, wl, ref, inputs, env, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_passes(args, W, wl, ref, inputs, env, setup):
    import qmemtime as q
    import qmemtime.cli  # noqa: F401  (in-process CLI runs and tracing)
    if not Path(q.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported qmemtime from {q.__file__}, not from this checkout")

    # Warm-up, not measured: first calls into scipy and numpy's einsum.
    warm = W.build_spin(q, W.WORKED)
    q.tau_expansion(*warm)
    q.decoherence_time(*warm, 0.6)

    run_cli = (W.run_cli_inprocess if args.trace else
               functools.partial(W.run_cli_subprocess, sys.executable, env, str(ROOT)))
    setup_raw, setup_scaled = setup
    tally = Tally()
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
              "machine": machine_facts()}

    systems = wl.build(q, inputs)
    if not args.trace:
        ops = wl.ops(q, systems, inputs, ref, run_cli)
        walls = [scaled for scaled, _ in measure(args.seconds, lambda: tally.run_pass(ops))]
        primary = latency_summary(tally.latency[wl.primary])
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s", len(setup_scaled)),
            "wall_s": (statistics.median(walls), "s", len(walls)),
            "call_p50_s": (primary["p50"], "s", primary["n"]),
            "call_tail_s": (primary["tail"], "s", primary["n"]),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            "ok_frac": (1.0 - len(tally.failures) / tally.attempted, "fraction",
                        tally.attempted),
        }
        report["passes"] = len(walls)
    else:
        from tracing import METRICS, Tracer
        tracer = Tracer()
        untraced_ops = wl.ops(q, systems, inputs, ref, run_cli)
        plain, traced, layers = [], [], []

        def traced_pass():
            tracer.install()
            try:
                tracer.reset()
                traced_systems = wl.build(q, inputs)
                scaled, raw = tally.run_pass(wl.ops(q, traced_systems, inputs, ref, run_cli))
                traced.append(scaled)
                # Layer times were taken inside the pass: scale them by its factor.
                layers.append({name: v * scaled / raw if METRICS[name] == "s" else v
                               for name, v in tracer.metrics().items()})
            finally:
                tracer.uninstall()

        def cycle():
            # Alternate which side runs first, so warming favours neither.
            if len(plain) % 2:
                traced_pass()
                plain.append(tally.run_pass(untraced_ops)[0])
            else:
                plain.append(tally.run_pass(untraced_ops)[0])
                traced_pass()

        measure(args.seconds, cycle)
        metrics = {name: (statistics.median(m[name] for m in layers), unit, len(layers))
                   for name, unit in METRICS.items()}
        metrics["bench.trace_overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s", len(traced))
        report["passes"] = len(plain)
        report["untraced_wall_s"] = statistics.median(plain)
        report["traced_wall_s"] = statistics.median(traced)
        report["absent"] = tracer.absent

    report["calibrations"] = tally.cal.runs
    report["setup_raw"] = setup_raw
    report["setup_scaled"] = setup_scaled
    report["latency"] = {kind: latency_summary(v) for kind, v in tally.latency.items()}
    report["latency_raw"] = {kind: latency_summary(v) for kind, v in tally.raw.items()}
    report["failures"] = tally.failures
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}
    report["samples"] = {name: n for name, (_, _, n) in metrics.items()}
    print_report(report)
    store(report)
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": report["metrics"]}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Report.


def print_report(r):
    m = r["machine"]
    print(f"qmemtime benchmark: workload={r['workload']} seed={r['seed']} "
          f"seconds={r['seconds']} trace={r['trace']} passes={r['passes']}")
    print(f"machine: nproc={m['nproc']} usable_cpus={m['usable_cpus']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"numba_importable={m['numba_importable']}")
    print(f"blas: {m['blas']}, {m['blas_threads']} thread")
    print(f"limits: {m['limits']}")
    print("speed: each time is scaled by the reference time of the calibration kernel "
          "over its mean time right before and after it "
          f"({r['calibrations']} kernel runs); times as measured follow in brackets")
    print(f"setup: {len(r['setup_raw'])} fresh interpreters, "
          + " ".join(f"{t:.4f} ({raw:.4f})" for t, raw in zip(r["setup_scaled"], r["setup_raw"]))
          + " s")
    for name, s in sorted(r["latency"].items()):
        raw = r["latency_raw"][name]
        if name in ("tau", "cli"):
            print(f"  {name}_p50_s = {s['p50']:.6f} ({raw['p50']:.6f}) s   "
                  f"{name}_tail_s = {s['tail']:.6f} ({raw['tail']:.6f}) s "
                  f"(p{s['tail_pct']}, n={s['n']})")
        else:
            print(f"  {name}_s = {s['p50']:.6f} ({raw['p50']:.6f}) s (median, n={s['n']})")
    attempted = sum(s["n"] for s in r["latency"].values())
    print(f"  fail_frac = {len(r['failures']) / attempted:.6f} "
          f"({len(r['failures'])} of {attempted} operations)")
    for failure in r["failures"][:20]:
        print(f"  FAILED {failure}")
    if r["trace"]:
        print(f"  tracing overhead: traced wall {r['traced_wall_s']:.6f} s - "
              f"untraced wall {r['untraced_wall_s']:.6f} s per pass")
        if r["absent"]:
            print("  not found, metrics read 0: " + ", ".join(r["absent"]))
    for name, v in r["metrics"].items():
        print(f"{name} = {v['value']:.6g} {v['unit']} (n={r['samples'][name]})")


def store(report):
    """Save this result and print the change against the previous one."""
    path = RESULTS_DIR / f"{report['workload']}-trace{report['trace']}.json"
    if path.is_file():
        try:
            prev = json.loads(path.read_text())
            print(f"change against the stored result of {prev['time']} (seed {prev['seed']}):")
            for name, v in report["metrics"].items():
                old = prev["metrics"].get(name, {}).get("value")
                if old:
                    print(f"  {name}: {old:.6g} -> {v['value']:.6g} "
                          f"({100.0 * (v['value'] - old) / abs(old):+.1f}%)")
        except (ValueError, KeyError, TypeError):
            print(f"stored result {path.name} is unreadable; replacing it")
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Smoke and steadiness modes.


def run_child(workload, seed, seconds, trace):
    """One run in a child interpreter; returns (exit code, last-line JSON)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]), proc
    except (IndexError, ValueError):
        return proc.returncode, None, proc


def spec():
    return json.loads(SPEC_PATH.read_text())


def smoke(args):
    """One pass of each workload, untraced and traced, with answer checks."""
    ok = True
    for name in args.workload or [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            t0 = time.perf_counter()
            code, result, proc = run_child(name, args.seed, 0, trace)
            good = code == 0 and result is not None and result["correct"]
            ok &= good
            print(f"{name:14s} trace={trace} {'ok' if good else 'FAILED'} "
                  f"({time.perf_counter() - t0:.1f} s, "
                  f"{result['attempted'] if result else '?'} operations)")
            if not good:
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 0 if ok else 1


def steadiness(args):
    """K seeds per workload; each end-to-end metric's spread against its bound."""
    s = spec()
    seconds = args.seconds if args.seconds is not None else s["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    ok = True
    for name in args.workload or [w["name"] for w in s["workloads"]]:
        values = {m: [] for m in bounds}
        for i in range(args.steadiness):
            code, result, proc = run_child(name, args.seed + i, seconds, 0)
            if code != 0 or result is None or not result["correct"]:
                print(f"{name} seed {args.seed + i}: run failed\n"
                      + proc.stdout[-2000:] + proc.stderr[-2000:])
                ok = False
                continue
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"{name}: {args.steadiness} seeds from {args.seed}, {seconds} s each")
        for m, bound in bounds.items():
            vals = values[m]
            if len(vals) < 2:
                continue
            sp = spread(vals)
            verdict = ("ok" if sp <= bound / 3 else "within bound" if sp <= bound
                       else "OVER BOUND")
            if sp > bound and m != "setup_s":
                ok = False
            print(f"  {m:12s} median {statistics.median(vals):.6g}  spread {sp:.4f}  "
                  f"bound {bound} ({verdict})  values "
                  + " ".join(f"{v:.6g}" for v in vals))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable in --smoke/--steadiness)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of every workload, untraced and traced")
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="run each workload with K seeds and print spreads")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    args.workload = args.workload[0]
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
