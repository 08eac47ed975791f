"""Command-line front end: config ingestion, dispatch, and emission.

``qmemtime <command> --config <file>`` with commands

* ``validate``          -- structure-constant and product-table checks
* ``simulate``          -- moment trajectory to CSV (t, mu_*, Delta, ReV_kk)
* ``tau``               -- decoherence time and its quadratic expansion
* ``optimize-energy``   -- stationary energy vector (R, K, E*)
* ``optimize-coupling`` -- stationary direct-coupling vector (Q, E12*)
* ``sweep``             -- tau and tau-hat over an eps or coupling-gain grid

Configs are a single JSON tree; complex constants enter as paired
real/imaginary matrices.  Exit status: 0 success, 1 domain errors
(preconditions of the analysis), 2 config errors.  ``--dump-config``
echoes the normalized config, which re-parses to an identical value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys as _sys

import numpy as np

from .algebra import (StructureConstants, _product_table, _table_defects,
                      pauli_structure, validate_structure)
from .decoherence import (CrossingOptions, decoherence_time, tau_expansion,
                          tau_hat)
from .errors import ConfigError, DomainError, QmemtimeError
from .interconnect import (_joint_table, compose, optimal_direct_coupling,
                           partition_rk, product_mean)
from .model import SystemParams
from .moments import (initial_moments, moment_trajectory,
                      weighting_from_factor, weighting_from_sigma)
from .optimize import optimal_energy, rk_matrices

_COMMANDS = ("validate", "simulate", "tau", "optimize-energy",
             "optimize-coupling", "sweep")


def _fmt(x):
    """Fixed 17-significant-digit formatting for reproducible output."""
    return f"{float(x):.17g}"


def _fmt_vec(v):
    return "[" + ", ".join(_fmt(x) for x in np.asarray(v).ravel()) + "]"


# ---------------------------------------------------------------------------
# Config parsing.  Every reader carries the field path for located errors.


def _want(node, path, kind):
    if not isinstance(node, kind):
        raise ConfigError(f"expected {kind.__name__}, got {type(node).__name__}",
                          field=path)
    return node


def _finite_scalar(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError("expected a number", field=path)
    x = float(node)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite value {node}", field=path)
    return x


def _positive_scalar(node, path):
    x = _finite_scalar(node, path)
    if x <= 0:
        raise ConfigError("must be positive", field=path)
    return x


def _vector(node, path, length=None):
    _want(node, path, list)
    out = np.array([_finite_scalar(v, f"{path}[{i}]") for i, v in enumerate(node)])
    if length is not None and out.size != length:
        raise ConfigError(f"expected {length} entries, got {out.size}", field=path)
    return out


def _matrix(node, path, shape=None):
    _want(node, path, list)
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(node)]
    widths = {r.size for r in rows}
    if len(widths) != 1:
        raise ConfigError("ragged matrix rows", field=path)
    out = np.vstack(rows)
    if shape is not None and out.shape != shape:
        raise ConfigError(f"expected shape {shape}, got {out.shape}", field=path)
    return out


def _structure(node, path):
    if node == "pauli":
        return pauli_structure(), "pauli"
    _want(node, path, dict)
    for key in ("alpha", "beta_real", "beta_imag"):
        if key not in node:
            raise ConfigError(f"missing key {key!r}", field=path)
    alpha = _matrix(node["alpha"], f"{path}.alpha")
    n = alpha.shape[0]
    br = np.stack([_matrix(s, f"{path}.beta_real[{i}]", (n, n))
                   for i, s in enumerate(_want(node["beta_real"], f"{path}.beta_real", list))])
    bi = np.stack([_matrix(s, f"{path}.beta_imag[{i}]", (n, n))
                   for i, s in enumerate(_want(node["beta_imag"], f"{path}.beta_imag", list))])
    if br.shape != (n, n, n) or bi.shape != (n, n, n):
        raise ConfigError(f"need {n} sections of shape ({n}, {n})", field=path)
    try:
        sc = StructureConstants(alpha, br + 1j * bi)
    except (ValueError, QmemtimeError) as exc:
        raise ConfigError(str(exc), field=path) from exc
    norm = {"alpha": alpha.tolist(),
            "beta_real": [s.tolist() for s in br],
            "beta_imag": [s.tolist() for s in bi]}
    return sc, norm


def _params(node, energy, coupling, key, path):
    """The system of the structure ``node`` at ``path``, with the energy
    ``E<key>`` and the coupling ``M<key>``, ``N<key>``, and its normalized
    ``system``, ``energy`` and ``coupling`` entries."""
    sc, norm = _structure(node, path)
    n = sc.n
    e = _vector(energy.get(f"E{key}", [0.0] * n), f"energy.E{key}", n)
    m = (_matrix(coupling[f"M{key}"], f"coupling.M{key}") if f"M{key}" in coupling
         else np.zeros((2, n)))
    nv = _vector(coupling.get(f"N{key}", [0.0] * m.shape[0]), f"coupling.N{key}", m.shape[0])
    try:
        params = SystemParams(sc=sc, E=e, M=m, N=nv)
    except ValueError as exc:
        raise ConfigError(str(exc), field="coupling") from exc
    return params, norm, {f"E{key}": e.tolist()}, {f"M{key}": m.tolist(), f"N{key}": nv.tolist()}


#: The search controls, each an ``analysis`` key and a flag of its own name.
_CROSSING = dataclasses.fields(CrossingOptions)

_ANALYSIS_DEFAULTS = {
    "grid": {"t_max": 1.0, "points": 201},
    "eps": [0.01],
    **{f.name: f.default for f in _CROSSING},
    "sweep": None,
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed configuration plus its normalized JSON tree.  ``system`` is
    the analysed system, and ``composite`` the composite it is, or None."""

    system: SystemParams
    composite: object
    init: object
    weights: object
    grid_times: np.ndarray
    eps: list
    crossing: CrossingOptions
    sweep: dict
    out_path: str
    tree: dict


def parse_config(tree):
    """Validate a config tree and build the module-level values."""
    _want(tree, "<config>", dict)
    sys_node = tree.get("system")
    if sys_node is None:
        raise ConfigError("missing key", field="system")

    energy = _want(tree.get("energy", {}), "energy", dict)
    coupling = _want(tree.get("coupling", {}), "coupling", dict)
    init_node = _want(tree.get("init", {}), "init", dict)

    composite = None
    if isinstance(sys_node, dict) and "composite" in sys_node:
        comp_node = _want(sys_node["composite"], "system.composite", dict)
        (sub1, norm1, energy1, coupling1), (sub2, norm2, energy2, coupling2) = (
            _params(comp_node.get(f"sub{k}", "pauli"), energy, coupling, k,
                    f"system.composite.sub{k}") for k in "12")
        e12 = _vector(energy.get("E12", [0.0] * (sub1.n * sub2.n)), "energy.E12",
                      sub1.n * sub2.n)
        composite = compose(sub1, sub2, e12)
        system = composite.system
        norm_system = {"composite": {"sub1": norm1, "sub2": norm2}}
        norm_energy = {**energy1, **energy2, "E12": e12.tolist()}
        norm_coupling = {**coupling1, **coupling2}
    else:
        system, norm_system, norm_energy, norm_coupling = _params(
            sys_node, energy, coupling, "", "system")
    n = system.n
    if composite is None or "mu0" in init_node:
        mu0 = _vector(init_node.get("mu0", [0.0] * n), "init.mu0", n)
    else:
        mu0 = product_mean(*(_vector(init_node.get(f"mu0_{k}", [0.0] * sub.n),
                                     f"init.mu0_{k}", sub.n)
                             for k, sub in zip("12", (composite.sub1, composite.sub2))))
    init = initial_moments(system.sc, mu0)

    w_node = _want(tree.get("weights", {}), "weights", dict)
    if "F" in w_node:
        F = _matrix(w_node["F"], "weights.F")
        if F.shape[1] != n:
            raise ConfigError(f"factor has {F.shape[1]} columns, expected {n}",
                              field="weights.F")
        try:
            weights = weighting_from_factor(F)
        except ValueError as exc:
            raise ConfigError(str(exc), field="weights.F") from exc
        norm_weights = {"F": F.tolist()}
    else:
        Sigma = (_matrix(w_node["Sigma"], "weights.Sigma", (n, n))
                 if "Sigma" in w_node else np.eye(n))
        try:
            weights = weighting_from_sigma(Sigma)
        except ValueError as exc:
            raise ConfigError(str(exc), field="weights.Sigma") from exc
        norm_weights = {"Sigma": Sigma.tolist()}

    a_node = _want(tree.get("analysis", {}), "analysis", dict)
    unknown = set(a_node) - set(_ANALYSIS_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", field="analysis")
    analysis = {**_ANALYSIS_DEFAULTS, **a_node}

    grid_node = _want(analysis["grid"], "analysis.grid", dict)
    if "times" in grid_node:
        grid_times = _vector(grid_node["times"], "analysis.grid.times")
        if grid_times.size < 2 or grid_times[0] != 0.0 or np.any(np.diff(grid_times) <= 0):
            raise ConfigError("need at least 2 strictly increasing nodes starting at 0",
                              field="analysis.grid.times")
        norm_grid = {"times": grid_times.tolist()}
    else:
        t_max = _finite_scalar(grid_node.get("t_max", 1.0), "analysis.grid.t_max")
        points = grid_node.get("points", 201)
        if not isinstance(points, int) or points < 2:
            raise ConfigError("points must be an integer >= 2", field="analysis.grid.points")
        if t_max <= 0:
            raise ConfigError("t_max must be positive", field="analysis.grid.t_max")
        grid_times = np.linspace(0.0, t_max, points)
        norm_grid = {"t_max": t_max, "points": points}

    eps_node = analysis["eps"]
    if isinstance(eps_node, (int, float)):
        eps_node = [eps_node]
    eps = [_positive_scalar(v, f"analysis.eps[{i}]") for i, v in enumerate(
        _want(eps_node, "analysis.eps", list))]

    # An absent or null control takes its default.
    crossing = CrossingOptions(**{
        f.name: f.default if analysis[f.name] is None
        else _positive_scalar(analysis[f.name], f"analysis.{f.name}") for f in _CROSSING})

    sweep = analysis["sweep"]
    if sweep is not None:
        _want(sweep, "analysis.sweep", dict)
        s_kind = sweep.get("kind")
        if s_kind not in ("eps", "gain"):
            raise ConfigError("sweep kind must be 'eps' or 'gain'",
                              field="analysis.sweep.kind")
        # eps values are fidelities; gain values may take either sign.
        value_reader = _positive_scalar if s_kind == "eps" else _finite_scalar
        values = [value_reader(v, f"analysis.sweep.values[{i}]")
                  for i, v in enumerate(_want(sweep.get("values", []),
                                              "analysis.sweep.values", list))]
        if not values:
            raise ConfigError("sweep values are empty", field="analysis.sweep.values")
        s_eps = _positive_scalar(sweep.get("eps", eps[0]), "analysis.sweep.eps")
        sweep = {"kind": s_kind, "values": values, "eps": s_eps}

    o_node = _want(tree.get("output", {}), "output", dict)
    out_path = o_node.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("path must be a string", field="output.path")
    if o_node.get("format", "csv") != "csv":
        raise ConfigError(f"unsupported format {o_node['format']!r}", field="output.format")

    norm_tree = {
        "system": norm_system,
        "energy": norm_energy,
        "coupling": norm_coupling,
        "init": {"mu0": mu0.tolist()},
        "weights": norm_weights,
        "analysis": {"grid": norm_grid, "eps": list(eps),
                     **dataclasses.asdict(crossing), "sweep": sweep},
        "output": {"path": out_path, "format": "csv"},
    }
    return RunConfig(system=system, composite=composite, init=init, weights=weights,
                     grid_times=grid_times, eps=eps, crossing=crossing,
                     sweep=sweep, out_path=out_path, tree=norm_tree)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(tree)


# ---------------------------------------------------------------------------
# Commands.


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _cmd_validate(cfg, args):
    lines = []
    sc = cfg.system.sc
    T = _product_table(sc)
    if cfg.composite is not None:
        tol = 1e-10
        subs = (cfg.composite.sub1, cfg.composite.sub2)
        joint = _joint_table(*(_product_table(sub.sc) for sub in subs))
        lines.append(f"joint fit residual = {_fmt(np.abs(T - joint).max())}")
    else:
        tol = 1e-12
        # Measure the constants as given: parsing repaired (and bounded) them.
        node = cfg.tree["system"]
        raw = ((sc.alpha, sc.beta) if node == "pauli" else
               (node["alpha"], np.add(node["beta_real"], 1j * np.array(node["beta_imag"]))))
        report = validate_structure(*raw)
        lines.append(f"structure ok (worst defect {_fmt(report.worst_defect)})")
    assoc, ccr = _table_defects(T, sc.theta)
    lines.append(f"algebra {'ok' if assoc <= tol else 'FAIL'} (error {_fmt(assoc)})")
    lines.append(f"CCR {'ok' if ccr <= tol else 'FAIL'} (error {_fmt(ccr)})")
    _emit("".join(f"{ln}\n" for ln in lines), args.out or cfg.out_path)
    if max(assoc, ccr) > tol:
        raise DomainError("algebra table checks failed")


def _csv_trajectory(traj):
    n = traj.mu.shape[1]
    header = (["t"] + [f"mu_{k + 1}" for k in range(n)] + ["Delta"]
              + [f"ReV_{k + 1}{k + 1}" for k in range(n)])
    rows = [",".join(header)]
    for i, t in enumerate(traj.grid):
        cells = [t, *traj.mu[i], traj.Delta[i], *np.diag(traj.V[i].real)]
        rows.append(",".join(_fmt(c) for c in cells))
    return "\n".join(rows) + "\n"


def _cmd_simulate(cfg, args):
    traj = moment_trajectory(cfg.system, cfg.init, cfg.weights, cfg.grid_times)
    _emit(_csv_trajectory(traj), args.out or cfg.out_path)


def _cmd_tau(cfg, args):
    expn = tau_expansion(cfg.system, cfg.init, cfg.weights)
    lines = [
        f"ref_norm = {_fmt(expn.ref_norm)}",
        f"delta_dot0 = {_fmt(expn.delta_dot0)}",
        f"delta_ddot0 = {_fmt(expn.delta_ddot0)}",
        f"tau_prime0 = {_fmt(expn.tau_prime0)}",
        f"tau_second0 = {_fmt(expn.tau_second0)}",
    ]
    for eps in cfg.eps:
        lines.append(f"eps = {_fmt(eps)}")
        lines.append(f"  tau_hat = {_fmt(tau_hat(expn, eps))}")
        result = decoherence_time(cfg.system, cfg.init, cfg.weights, eps,
                                  opts=cfg.crossing)
        lines.append(f"  threshold = {_fmt(result.threshold)}")
        if result.is_infinite:
            lines.append("  tau = inf (certified)")
        else:
            lo, hi = result.bracket
            lines.append(f"  tau = {_fmt(result.value)}")
            lines.append(f"  bracket = [{_fmt(lo)}, {_fmt(hi)}]")
    _emit("".join(f"{ln}\n" for ln in lines), args.out or cfg.out_path)


def _cmd_optimize_energy(cfg, args):
    R, K = rk_matrices(cfg.system, cfg.init, cfg.weights)
    od = optimal_energy(R, K)
    lines = ["R:"]
    lines += [f"  {_fmt_vec(row)}" for row in od.R]
    lines.append(f"K = {_fmt_vec(od.K)}")
    lines.append(f"E_star = {_fmt_vec(od.E_star)}")
    lines.append(f"residual = {_fmt(od.residual)}")
    lines.append(f"zero_energy_optimal = {str(od.zero_energy_optimal).lower()}")
    uniq = "unique" if od.unique else f"nonunique (null dimension {od.null_dim})"
    lines.append(f"solution = {uniq}")
    _emit("".join(f"{ln}\n" for ln in lines), args.out or cfg.out_path)


def _cmd_optimize_coupling(cfg, args):
    comp = cfg.composite
    if comp is None:
        raise ConfigError("optimize-coupling requires a composite system config",
                          field="system")
    e1 = _cli_vector(args.e1, comp.n1, "--e1") if args.e1 is not None else comp.E1
    e2 = _cli_vector(args.e2, comp.n2, "--e2") if args.e2 is not None else comp.E2
    blocks = partition_rk(comp, cfg.init, cfg.weights)
    sol = optimal_direct_coupling(blocks, e1, e2)
    lines = [
        f"Q = {_fmt_vec(sol.Q)}",
        f"E12_star = {_fmt_vec(sol.E12_star)}",
        f"residual = {_fmt(sol.residual)}",
    ]
    uniq = "unique" if sol.unique else f"nonunique (null dimension {sol.null_dim})"
    lines.append(f"solution = {uniq}")
    _emit("".join(f"{ln}\n" for ln in lines), args.out or cfg.out_path)


def _sweep_point(cfg, kind, value, eps):
    system = cfg.system
    if kind == "gain":
        system = dataclasses.replace(system, M=value * system.M)
    expn = tau_expansion(system, cfg.init, cfg.weights)
    point_eps = value if kind == "eps" else eps
    t_hat = tau_hat(expn, point_eps)
    tau = decoherence_time(system, cfg.init, cfg.weights, point_eps,
                           opts=cfg.crossing).value
    return tau, t_hat


def _cmd_sweep(cfg, args):
    if cfg.sweep is None:
        raise ConfigError("missing analysis.sweep block for the sweep command",
                          field="analysis.sweep")
    kind = cfg.sweep["kind"]
    if kind == "gain" and cfg.composite is not None:
        raise ConfigError("gain sweeps are defined for single systems only",
                          field="analysis.sweep.kind")
    values = cfg.sweep["values"]
    eps = cfg.sweep["eps"]

    rows = [f"{kind},tau,tau_hat"]
    for value in values:
        tau, t_hat = _sweep_point(cfg, kind, value, eps)
        rows.append(f"{_fmt(value)},{_fmt(tau)},{_fmt(t_hat)}")
    _emit("\n".join(rows) + "\n", args.out or cfg.out_path)


def _cli_vector(text, length, flag):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated number list") from exc
    if len(vals) != length:
        raise ConfigError(f"{flag} expects {length} entries, got {len(vals)}")
    return np.array([_finite_scalar(v, flag) for v in vals])


# ---------------------------------------------------------------------------
# Entry point.


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qmemtime",
        description="Decoherence-time analysis for finite-level open quantum "
                    "systems with quasilinear moment dynamics.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output path (default: config output.path or stdout)")
    parser.add_argument("--eps", default=None,
                        help="comma-separated fidelity values, overriding analysis.eps")
    for f in _CROSSING:
        parser.add_argument(f"--{f.name}", type=float, default=None)
    parser.add_argument("--e1", default=None, help="override subsystem-1 energy (optimize-coupling)")
    parser.add_argument("--e2", default=None, help="override subsystem-2 energy (optimize-coupling)")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the normalized config and exit")
    return parser


def _apply_overrides(cfg, args):
    """``cfg`` with the analysis entries that flags override: each flag is
    checked under its own name, and the merged tree is parsed again."""
    updates = {}
    if args.eps is not None:
        try:
            eps = [float(v) for v in args.eps.split(",")]
        except ValueError as exc:
            raise ConfigError("--eps must be a comma-separated number list") from exc
        updates["eps"] = [_positive_scalar(e, "--eps") for e in eps]
    for f in _CROSSING:
        val = getattr(args, f.name)
        if val is not None:
            updates[f.name] = _positive_scalar(val, f"--{f.name}")
    if not updates:
        return cfg
    return parse_config({**cfg.tree, "analysis": {**cfg.tree["analysis"], **updates}})


_DISPATCH = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "tau": _cmd_tau,
    "optimize-energy": _cmd_optimize_energy,
    "optimize-coupling": _cmd_optimize_coupling,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.dump_config:
            _sys.stdout.write(json.dumps(cfg.tree, indent=2, sort_keys=True) + "\n")
            return 0
        _DISPATCH[args.command](cfg, args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except QmemtimeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
