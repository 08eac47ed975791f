"""Benchmark workloads: seeded inputs, the systems built from them, the
timed operations of one pass, and the check each answer must pass.

Inputs.  ``reference.json`` holds a pool of base instances, drawn once from
the distribution of ``random_instance`` in ``tests/conftest.py``, together
with the answers the package gave for them when the benchmark was frozen
(see ``freeze.py``).  A run seed draws, for every instance, a rotation R of
the three spin variables and a rotation Q of each quadrature channel pair.
Both are exact symmetries: the spin structure constants are SO(3)-invariant
and Q^T J Q = J for the Ito matrix, and the weighting is the identity.  So
tau, Delta and Delta_inf are the same for every seed, as is the work each
call does, while energies, couplings, means and optimal energies rotate.
The checks rotate the frozen answers the same way.

Only the public API of ``qmemtime`` is called, with default
``CrossingOptions`` except the explicit horizon of the inconclusive case,
no ``backend=`` argument and no ``QMEMTIME_*`` variable.  Every call goes
through the ``qmemtime`` namespace at call time, so the wrappers of
``tracing.py`` see it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# A finite tau must match its frozen value to this relative tolerance.  It
# admits a different propagator (Delta moves by ~1e-10) or refinement (the
# value moves within the 1e-9 bracket), and it rejects a wrong or skipped
# first crossing, which moves tau by a sizeable share of the march.
TAU_RTOL = 1e-6
TAU_ATOL = 1e-9
# Integrated quantities (trajectories, CLI numbers) use the same tolerance.
NUM_RTOL = 1e-6
NUM_ATOL = 1e-9
# Closed-form quantities (expansion, steady state, optima) are tighter.
CLOSED_RTOL = 1e-8
CLOSED_ATOL = 1e-10

# Worked three-variable system: goldens from the acceptance suite.
WORKED = {"E": [0.0, 0.0, 0.0], "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
          "N": [0.0, 0.0], "mu0": [0.0, 0.0, 0.0]}
WORKED_TAU_PRIME0 = 0.1875
WORKED_TAU_SECOND0 = 0.10546875
WORKED_DELTA_INF = 6.0
# tr(Sigma P) with Sigma = I is 3 for every admissible spin mean.
SPIN_REF_NORM = 3.0

# Thresholds as shares f of Delta_inf: f < 1 always crosses, f > 1 never.
CROSS_FRACTIONS = (0.3, 0.6, 0.8)
NOCROSS_FRACTION = 1.5
WORKED_NOCROSS_EPS = 2.5
# Isolated spin precessing about E: Delta oscillates below 8 < 10 * 3 forever.
OSCILLATOR = {"E": [0.0, 0.0, 1.0], "M": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
              "N": [0.0, 0.0], "mu0": [0.5, 0.0, 0.0]}
OSCILLATOR_EPS = 10.0
OSCILLATOR_HORIZON = 20.0

COMPOSITE_GRID = (0.0, 0.5, 501)
COMPOSITE_EPS = (0.05, 0.1, 0.2)

CLI_ENTRY = "import sys; from qmemtime.cli import main; sys.exit(main())"


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Seeded symmetries.


def random_rotation(rng):
    """A uniformly random 3x3 rotation (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def channel_rotation(rng):
    a = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def rotate(base, R, Q):
    """The instance seen in variables R X and channels Q L."""
    M = np.asarray(base["M"], dtype=float)
    return {"E": (R @ np.asarray(base["E"])).tolist(),
            "M": (Q @ M @ R.T).tolist(),
            "N": (Q @ np.asarray(base["N"])).tolist(),
            "mu0": (R @ np.asarray(base["mu0"])).tolist(),
            "R": R.tolist()}


def seeded_instance(rng, base):
    return rotate(base, random_rotation(rng), channel_rotation(rng))


def composite_rotation(R1, R2):
    """Orthogonal map of the 15 composite variables under local rotations."""
    T = np.zeros((15, 15))
    T[:3, :3] = R1
    T[3:6, 3:6] = R2
    T[6:, 6:] = np.kron(R1, R2)
    return T


# ---------------------------------------------------------------------------
# Operations and checks.


@dataclass
class Op:
    """One timed call and the check its outcome must pass.

    ``check(result, exc)`` returns None when the answer is right, otherwise
    a one-line reason.  ``kind`` groups latencies: tau, expansion, steady,
    traj, optimize or cli; a workload's ``primary`` kind gives its
    ``call_*`` metrics.
    """

    kind: str
    label: str
    call: object
    check: object


def _close(got, want, rtol, atol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def _no_exc(check):
    def wrapped(result, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        return check(result)
    return wrapped


def check_finite_tau(want, norm_a):
    """A crossing inside a bracket of width <= tol that matches ``want``."""
    tol = 1e-9 / max(1.0, norm_a)

    def check(res):
        if not math.isfinite(res.value):
            return f"tau is {res.value}, expected a crossing near {want:.9g}"
        lo, hi = res.bracket
        if not (lo <= res.value <= hi):
            return f"tau {res.value!r} outside its bracket [{lo!r}, {hi!r}]"
        if hi - lo > tol * (1.0 + 1e-6):
            return f"bracket width {hi - lo:.3e} exceeds tol {tol:.3e}"
        if not _close(res.value, want, TAU_RTOL, TAU_ATOL):
            return f"tau {res.value!r} differs from reference {want!r}"
        return None
    return _no_exc(check)


def check_infinite(res):
    if not math.isinf(res.value):
        return f"tau is {res.value!r}, expected a certified infinite answer"
    return None


def check_expansion(tau1, tau2):
    def check(ex):
        if not (_close(ex.tau_prime0, tau1, CLOSED_RTOL, CLOSED_ATOL)
                and _close(ex.tau_second0, tau2, CLOSED_RTOL, CLOSED_ATOL)):
            return (f"expansion ({ex.tau_prime0!r}, {ex.tau_second0!r}) != "
                    f"({tau1!r}, {tau2!r})")
        return None
    return _no_exc(check)


def check_delta_inf(want):
    def check(ss):
        if not _close(ss.Delta_inf, want, CLOSED_RTOL, CLOSED_ATOL):
            return f"Delta_inf {ss.Delta_inf!r} != {want!r}"
        return None
    return _no_exc(check)


def check_inconclusive(threshold):
    def check(result, exc):
        if exc is None:
            return f"returned {result!r}, expected InconclusiveCrossingError"
        if type(exc).__name__ != "InconclusiveCrossingError":
            return f"raised {type(exc).__name__}: {exc}"
        if not 0.0 < exc.sup_delta < threshold:
            return f"sup_delta {exc.sup_delta!r} outside (0, {threshold!r})"
        return None
    return check


# ---------------------------------------------------------------------------
# Spin workloads.


def build_spin(q, inst):
    sc = q.pauli_structure()
    sys_ = q.SystemParams(sc=sc, E=np.asarray(inst["E"]), M=np.asarray(inst["M"]),
                          N=np.asarray(inst["N"]))
    init = q.initial_moments(sc, np.asarray(inst["mu0"]))
    return sys_, init, q.weighting_from_sigma(np.eye(3))


def _tau_op(q, label, system, eps, check, opts=None):
    sys_, init, w = system
    return Op("tau", label, lambda: q.decoherence_time(sys_, init, w, eps, opts=opts), check)


class SpinCrossing:
    """Worked system plus pool instances at thresholds f * Delta_inf, f < 1."""

    name = "spin-crossing"
    has_setup = True
    primary = "tau"

    def make_inputs(self, seed, ref):
        rng = np.random.default_rng(seed)
        return {"worked": seeded_instance(rng, WORKED),
                "pool": [seeded_instance(rng, p["instance"]) for p in ref["spin_cross"]]}

    def build(self, q, inputs):
        return {"worked": build_spin(q, inputs["worked"]),
                "pool": [build_spin(q, inst) for inst in inputs["pool"]]}

    def ops(self, q, systems, inputs, ref, run_cli=None):
        w = systems["worked"]
        ops = [Op("expansion", "worked tau_expansion",
                  lambda: q.tau_expansion(*w),
                  check_expansion(WORKED_TAU_PRIME0, WORKED_TAU_SECOND0)),
               Op("steady", "worked steady_state", lambda: q.steady_state(*w),
                  check_delta_inf(WORKED_DELTA_INF))]
        for f, want in zip(CROSS_FRACTIONS, ref["worked_cross_tau"]):
            eps = f * WORKED_DELTA_INF / SPIN_REF_NORM
            ops.append(_tau_op(q, f"worked f={f}", w, eps,
                               check_finite_tau(want, ref["worked_norm_a"])))
        for i, (system, p) in enumerate(zip(systems["pool"], ref["spin_cross"])):
            ops.append(Op("expansion", f"pool[{i}] tau_expansion",
                          lambda s=system: q.tau_expansion(*s),
                          check_expansion(p["tau_prime0"], p["tau_second0"])))
            for f, want in zip(CROSS_FRACTIONS, p["tau"]):
                eps = f * p["delta_inf"] / p["ref_norm"]
                ops.append(_tau_op(q, f"pool[{i}] f={f}", system, eps,
                                   check_finite_tau(want, p["norm_a"])))
        return ops


class SpinNoCross:
    """Marches that never cross: certified infinite, and one inconclusive."""

    name = "spin-nocross"
    has_setup = True
    primary = "tau"

    def make_inputs(self, seed, ref):
        rng = np.random.default_rng(seed)
        return {"worked": seeded_instance(rng, WORKED),
                "oscillator": seeded_instance(rng, OSCILLATOR),
                "pool": [seeded_instance(rng, p["instance"]) for p in ref["spin_nocross"]]}

    def build(self, q, inputs):
        return {"worked": build_spin(q, inputs["worked"]),
                "oscillator": build_spin(q, inputs["oscillator"]),
                "pool": [build_spin(q, inst) for inst in inputs["pool"]]}

    def ops(self, q, systems, inputs, ref, run_cli=None):
        ops = [_tau_op(q, f"worked eps={WORKED_NOCROSS_EPS}", systems["worked"],
                       WORKED_NOCROSS_EPS, _no_exc(check_infinite))]
        ops.append(_tau_op(q, "oscillator", systems["oscillator"], OSCILLATOR_EPS,
                           check_inconclusive(OSCILLATOR_EPS * SPIN_REF_NORM),
                           opts=q.CrossingOptions(horizon=OSCILLATOR_HORIZON)))
        for i, (system, p) in enumerate(zip(systems["pool"], ref["spin_nocross"])):
            eps = NOCROSS_FRACTION * p["delta_inf"] / p["ref_norm"]
            ops.append(_tau_op(q, f"pool[{i}] f={NOCROSS_FRACTION}", system, eps,
                               _no_exc(check_infinite)))
        return ops


# ---------------------------------------------------------------------------
# Two-qubit composite (n = 15).


COMPOSITE_BASE = {
    # Shaped like the composite of the original kernel benchmark: the second
    # coupling matrix is 0.7 * standard_normal((2, 3)) from default_rng(0).
    "sub1": {"E": [0.1, 0.0, 0.2], "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "N": [0.0, 0.1], "mu0": [0.1, 0.0, 0.2]},
    "sub2": {"E": [0.0, 0.3, 0.0],
             "M": (0.7 * np.random.default_rng(0).standard_normal((2, 3))).tolist(),
             "N": [0.2, 0.0], "mu0": [0.0, -0.1, 0.3]},
}


class Composite:
    """Two coupled qubits: trajectory, tau at several eps, steady state and
    both optima.  ``compose()`` runs in set-up."""

    name = "composite"
    has_setup = True
    primary = "tau"

    def make_inputs(self, seed, ref):
        rng = np.random.default_rng(seed)
        return {"sub1": seeded_instance(rng, COMPOSITE_BASE["sub1"]),
                "sub2": seeded_instance(rng, COMPOSITE_BASE["sub2"])}

    def build(self, q, inputs):
        sc = q.pauli_structure()
        subs = [q.SystemParams(sc=sc, E=np.asarray(inputs[k]["E"]),
                               M=np.asarray(inputs[k]["M"]), N=np.asarray(inputs[k]["N"]))
                for k in ("sub1", "sub2")]
        comp = q.compose(subs[0], subs[1], np.zeros(9))
        system = comp.as_system()
        init = q.initial_moments(system.sc, q.product_mean(inputs["sub1"]["mu0"],
                                                           inputs["sub2"]["mu0"]))
        return {"comp": comp, "system": system, "init": init,
                "weights": q.weighting_from_sigma(np.eye(system.n))}

    def ops(self, q, systems, inputs, ref, run_cli=None):
        cref = ref["composite"]
        comp, system = systems["comp"], systems["system"]
        init, w = systems["init"], systems["weights"]
        R1, R2 = np.asarray(inputs["sub1"]["R"]), np.asarray(inputs["sub2"]["R"])
        T, T12 = composite_rotation(R1, R2), np.kron(R1, R2)
        grid = np.linspace(*COMPOSITE_GRID)
        nodes = cref["traj_nodes"]

        def check_traj(tr):
            if not _close(tr.Delta[nodes], cref["traj_delta"], NUM_RTOL, NUM_ATOL):
                return "trajectory Delta differs from reference"
            if not _close(tr.mu[-1] @ T, cref["traj_mu_last"], NUM_RTOL, NUM_ATOL):
                return "trajectory mean differs from reference"
            return None

        def energy():
            R, K = q.rk_matrices(system, init, w)
            return q.optimal_energy(R, K)

        def check_energy(od):
            if not od.unique or not _close(T.T @ od.E_star, cref["E_star"],
                                           CLOSED_RTOL, CLOSED_ATOL):
                return "optimal energy differs from reference"
            return None

        def coupling():
            blocks = q.partition_rk(comp, init, w)
            return q.optimal_direct_coupling(blocks, comp.E1, comp.E2)

        def check_coupling(sol):
            if not sol.unique or not _close(T12.T @ sol.E12_star, cref["E12_star"],
                                            CLOSED_RTOL, CLOSED_ATOL):
                return "optimal direct coupling differs from reference"
            return None

        ops = [Op("traj", "moment_trajectory",
                  lambda: q.moment_trajectory(system, init, w, grid), _no_exc(check_traj))]
        for eps, want in zip(COMPOSITE_EPS, cref["tau"]):
            ops.append(_tau_op(q, f"eps={eps}", (system, init, w), eps,
                               check_finite_tau(want, cref["norm_a"])))
        ops.append(Op("steady", "steady_state", lambda: q.steady_state(system, init, w),
                      check_delta_inf(cref["delta_inf"])))
        ops.append(Op("optimize", "rk_matrices+optimal_energy", energy,
                      _no_exc(check_energy)))
        ops.append(Op("optimize", "partition_rk+optimal_direct_coupling", coupling,
                      _no_exc(check_coupling)))
        return ops


# ---------------------------------------------------------------------------
# Command line.


def worked_config(inst):
    return {"system": "pauli", "energy": {"E": inst["E"]},
            "coupling": {"M": inst["M"], "N": inst["N"]},
            "init": {"mu0": inst["mu0"]},
            "weights": {"Sigma": np.eye(3).tolist()},
            "analysis": {"grid": {"t_max": 5.0, "points": 501}, "eps": [0.01, 0.5]},
            "output": {"path": None, "format": "csv"}}


def sweep_config(inst, kind):
    cfg = worked_config(inst)
    values = [0.05, 0.1, 0.2, 0.4] if kind == "eps" else [0.5, 1.0, 1.5, 2.0]
    cfg["analysis"]["sweep"] = {"kind": kind, "values": values, "eps": 0.1}
    return cfg


def composite_config(sub1, sub2):
    return {"system": {"composite": {"sub1": "pauli", "sub2": "pauli"}},
            "energy": {"E1": sub1["E"], "E2": sub2["E"], "E12": [0.0] * 9},
            "coupling": {"M1": sub1["M"], "N1": sub1["N"],
                         "M2": sub2["M"], "N2": sub2["N"]},
            "init": {"mu0_1": sub1["mu0"], "mu0_2": sub2["mu0"]},
            "analysis": {"eps": [0.05]}}


CLI_COMMANDS = (
    # (label, command, config key)
    ("tau", "tau", "worked"),
    ("simulate", "simulate", "worked"),
    ("sweep-eps", "sweep", "sweep_eps"),
    ("sweep-gain", "sweep", "sweep_gain"),
    ("validate-composite", "validate", "composite"),
    ("optimize-coupling", "optimize-coupling", "composite"),
)

CLI_COMPOSITE_BASE = {
    # The composite config of tests/test_cli.py.
    "sub1": {"E": [0.1, 0.0, 0.2], "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "N": [0.0, 0.1], "mu0": [0.1, 0.0, 0.2]},
    "sub2": {"E": [0.0, 0.3, 0.0], "M": [[0.5, 0.2, 0.0], [0.0, 0.4, 0.3]],
             "N": [0.2, 0.0], "mu0": [0.0, -0.1, 0.3]},
}


def cli_configs(worked, sub1, sub2):
    return {"worked": worked_config(worked),
            "sweep_eps": sweep_config(worked, "eps"),
            "sweep_gain": sweep_config(worked, "gain"),
            "composite": composite_config(sub1, sub2)}


_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def split_numbers(text):
    """(text with every number replaced by '#', the numbers)."""
    nums = [float(m) for m in _NUM.findall(text)]
    return _NUM.sub("#", text), nums


def canonical_output(label, text, R, T12):
    """Rotate seed-dependent numbers of a command's output back to the
    unrotated frame; the remaining numbers do not depend on the seed."""
    if label == "simulate":
        rows = [ln.split(",") for ln in text.strip().splitlines()]
        head, data = rows[0], np.array(rows[1:], dtype=float)
        n = (len(head) - 2) // 2
        mu = data[:, 1:1 + n] @ R
        trace_v = data[:, 2 + n:].sum(axis=1, keepdims=True)
        data = np.hstack([data[:, :1], mu, data[:, 1 + n:2 + n], trace_v])
        return ",".join(head[:2 + n]) + ",trReV", data.ravel().tolist()
    if label == "optimize-coupling":
        lines = []
        for ln in text.splitlines():
            key, sep, val = ln.partition(" = ")
            if key in ("Q", "E12_star"):
                vec = np.array(json.loads(val)) @ T12
                ln = f"{key}{sep}{json.dumps(vec.tolist())}"
            lines.append(ln)
        text = "\n".join(lines) + "\n"
    return split_numbers(text)


def check_cli(label, want, R, T12):
    def check(res):
        code, out, err = res
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        try:
            skeleton, nums = canonical_output(label, out, R, T12)
        except (ValueError, IndexError) as exc:
            return f"unparseable output: {exc}"
        if skeleton != want["skeleton"]:
            return "output text differs from reference"
        if not _close(nums, want["numbers"], NUM_RTOL, NUM_ATOL):
            return "output numbers differ from reference"
        return None
    return _no_exc(check)


def run_cli_subprocess(python, env, cwd, argv):
    """One run of the entry point in a fresh interpreter."""
    proc = subprocess.run([python, "-c", CLI_ENTRY, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv):
    """One call of ``qmemtime.cli.main`` with stdout and stderr captured."""
    cli = importlib.import_module("qmemtime.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class Cli:
    """Sequential runs of the command-line entry point, one process each.

    ``inputs["paths"]`` maps each config to the file the runner wrote, and
    ``run_cli(argv)`` runs one command line and returns (code, out, err).
    """

    name = "cli"
    has_setup = False
    primary = "cli"

    def make_inputs(self, seed, ref):
        rng = np.random.default_rng(seed)
        worked = seeded_instance(rng, WORKED)
        sub1 = seeded_instance(rng, CLI_COMPOSITE_BASE["sub1"])
        sub2 = seeded_instance(rng, CLI_COMPOSITE_BASE["sub2"])
        return {"configs": cli_configs(worked, sub1, sub2),
                "R": worked["R"], "R1": sub1["R"], "R2": sub2["R"]}

    def build(self, q, inputs):
        return {}

    def ops(self, q, systems, inputs, ref, run_cli=None):
        R = np.asarray(inputs["R"])
        T12 = np.kron(np.asarray(inputs["R1"]), np.asarray(inputs["R2"]))
        ops = []
        for label, command, key in CLI_COMMANDS:
            argv = (command, "--config", inputs["paths"][key])
            ops.append(Op("cli", label, lambda a=argv: run_cli(a),
                          check_cli(label, ref["cli"][label], R, T12)))
        return ops


WORKLOADS = {w.name: w for w in (SpinCrossing(), SpinNoCross(), Composite(), Cli())}


def probe_setup(name, inputs_path):
    """Set-up body timed in a fresh interpreter: build the workload's systems."""
    import qmemtime
    WORKLOADS[name].build(qmemtime, json.loads(Path(inputs_path).read_text()))
