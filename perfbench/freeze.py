#!/usr/bin/env python3
"""Draw the instance pool and freeze the reference answers.

Writes ``perfbench/reference.json``.  It was run once, on the commit that
introduced the benchmark, and must not be re-run to make a later version of
the package pass: the answers it stores are the yardstick.

    python3 perfbench/freeze.py

Pool.  Candidates are drawn from the distribution of ``random_instance`` in
``tests/conftest.py`` with a fixed seed.  The crossing pool is the first
``N_CROSS`` candidates (all random spin drifts drawn are Hurwitz).  The
no-crossing pool takes the ``N_NOCROSS`` candidates, among the next
``NOCROSS_CANDIDATES``, whose settle march is shortest, that is with the
smallest ||A||_2 / |max Re eig(A)|, so that one pass stays near 10 s.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import qmemtime as q  # noqa: E402
import workloads as W  # noqa: E402

POOL_SEED = 2311
N_CROSS = 6
N_NOCROSS = 2
NOCROSS_CANDIDATES = 12


def random_instance(rng, n=3, m=2, coupling_scale=1.0, mean_scale=0.8):
    """Same draws, in the same order, as ``random_instance`` in the tests."""
    E = rng.standard_normal(n)
    M = coupling_scale * rng.standard_normal((m, n))
    N = 0.5 * rng.standard_normal(m)
    mu0 = rng.standard_normal(n)
    mu0 *= mean_scale / max(1.0, np.linalg.norm(mu0))
    return {"E": E.tolist(), "M": M.tolist(), "N": N.tolist(), "mu0": mu0.tolist()}


def drift(sys_):
    """(||A||_2, max Re eig(A)) of the drift."""
    A = q.coefficients(sys_).A
    return np.linalg.norm(A, 2), float(np.linalg.eigvals(A).real.max())


def describe(inst):
    system = W.build_spin(q, inst)
    norm_a, margin = drift(system[0])
    ss = q.steady_state(*system)
    ex = q.tau_expansion(*system)
    return system, {"instance": inst, "norm_a": norm_a, "margin": margin,
                    "ref_norm": q.reference_norm(system[1], system[2]),
                    "delta_inf": ss.Delta_inf,
                    "tau_prime0": ex.tau_prime0, "tau_second0": ex.tau_second0}


def spin_pools():
    rng = np.random.default_rng(POOL_SEED)
    cross = []
    while len(cross) < N_CROSS:
        system, entry = describe(random_instance(rng))
        if entry["margin"] >= -1e-10:
            continue
        entry["tau"] = []
        for f in W.CROSS_FRACTIONS:
            res = q.decoherence_time(*system, f * entry["delta_inf"] / entry["ref_norm"])
            assert math.isfinite(res.value)
            entry["tau"].append(res.value)
        cross.append(entry)

    candidates = []
    for _ in range(NOCROSS_CANDIDATES):
        system, entry = describe(random_instance(rng))
        if entry["margin"] < -1e-10:
            candidates.append((entry["norm_a"] / -entry["margin"], system, entry))
    nocross = []
    for _, system, entry in sorted(candidates, key=lambda c: c[0]):
        eps = W.NOCROSS_FRACTION * entry["delta_inf"] / entry["ref_norm"]
        if math.isinf(q.decoherence_time(*system, eps).value):
            nocross.append(entry)
        if len(nocross) == N_NOCROSS:
            break
    return cross, nocross


def composite_reference():
    inputs = {k: W.rotate(v, np.eye(3), np.eye(2)) for k, v in W.COMPOSITE_BASE.items()}
    s = W.WORKLOADS["composite"].build(q, inputs)
    system, init, w = s["system"], s["init"], s["weights"]
    grid = np.linspace(*W.COMPOSITE_GRID)
    tr = q.moment_trajectory(system, init, w, grid)
    nodes = list(range(0, grid.size, 50))
    R, K = q.rk_matrices(system, init, w)
    blocks = q.partition_rk(s["comp"], init, w)
    norm_a, _ = drift(system)
    return {"norm_a": norm_a,
            "traj_nodes": nodes,
            "traj_delta": tr.Delta[nodes].tolist(),
            "traj_mu_last": tr.mu[-1].tolist(),
            "tau": [q.decoherence_time(system, init, w, eps).value for eps in W.COMPOSITE_EPS],
            "delta_inf": q.steady_state(system, init, w).Delta_inf,
            "E_star": q.optimal_energy(R, K).E_star.tolist(),
            "E12_star": q.optimal_direct_coupling(
                blocks, s["comp"].E1, s["comp"].E2).E12_star.tolist()}


def cli_reference(tmp):
    ident = {k: W.rotate(v, np.eye(3), np.eye(2)) for k, v in W.CLI_COMPOSITE_BASE.items()}
    worked = W.rotate(W.WORKED, np.eye(3), np.eye(2))
    configs = W.cli_configs(worked, ident["sub1"], ident["sub2"])
    out = {}
    for label, command, key in W.CLI_COMMANDS:
        path = tmp / f"{key}.json"
        path.write_text(json.dumps(configs[key]))
        code, text, err = W.run_cli_inprocess((command, "--config", str(path)))
        assert code == 0, err
        skeleton, numbers = W.canonical_output(label, text, np.eye(3), np.eye(9))
        out[label] = {"skeleton": skeleton, "numbers": numbers}
    return out


def main():
    import tempfile
    worked = W.build_spin(q, W.WORKED)
    worked_norm_a, _ = drift(worked[0])
    cross, nocross = spin_pools()
    with tempfile.TemporaryDirectory(dir=str(BENCH_DIR.parent)) as tmp:
        cli = cli_reference(Path(tmp))
    ref = {
        "about": "Answers of qmemtime 0.1.0 (numpy path) frozen with perfbench/freeze.py",
        "pool_seed": POOL_SEED,
        "worked_norm_a": worked_norm_a,
        "worked_cross_tau": [
            q.decoherence_time(*worked, f * W.WORKED_DELTA_INF / W.SPIN_REF_NORM).value
            for f in W.CROSS_FRACTIONS],
        "spin_cross": cross,
        "spin_nocross": nocross,
        "composite": composite_reference(),
        "cli": cli,
    }
    W.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {W.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
