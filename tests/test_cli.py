import json
import subprocess
import sys

import numpy as np
import pytest

from qmemtime.algebra import StructureConstants, pauli_structure
from qmemtime.cli import main, parse_config
from qmemtime.decoherence import CrossingOptions, decoherence_time
from qmemtime.moments import weighting_from_factor

from dense import fit_structure_constants
from oracles import gell_mann_representation

PAULI_WORKED = {
    "system": "pauli",
    "energy": {"E": [0.0, 0.0, 0.0]},
    "coupling": {"M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "N": [0.0, 0.0]},
    "init": {"mu0": [0.0, 0.0, 0.0]},
    "weights": {"Sigma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "analysis": {"grid": {"t_max": 2.0, "points": 21}, "eps": [0.01]},
    "output": {"path": None, "format": "csv"},
}

COMPOSITE = {
    "system": {"composite": {"sub1": "pauli", "sub2": "pauli"}},
    "energy": {"E1": [0.1, 0.0, 0.2], "E2": [0.0, 0.3, 0.0],
               "E12": [0.0] * 9},
    "coupling": {"M1": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "N1": [0.0, 0.1],
                 "M2": [[0.5, 0.2, 0.0], [0.0, 0.4, 0.3]], "N2": [0.2, 0.0]},
    "init": {"mu0_1": [0.1, 0.0, 0.2], "mu0_2": [0.0, -0.1, 0.3]},
    "analysis": {"eps": [0.05]},
}


def _write(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def test_validate_pauli_preset(tmp_path, capsys):
    code = main(["validate", "--config", _write(tmp_path, PAULI_WORKED)])
    out = capsys.readouterr().out
    assert code == 0
    assert "structure ok" in out
    assert "algebra ok" in out
    assert "CCR ok" in out


def test_validate_reports_defect_of_given_constants(tmp_path, capsys):
    sc = pauli_structure()
    alpha = np.eye(3)
    alpha[0][1] += 5e-13  # below the repair tolerance, so the config parses
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["system"] = {"alpha": alpha.tolist(),
                      "beta_real": sc.beta.real.tolist(),
                      "beta_imag": sc.beta.imag.tolist()}
    assert main(["validate", "--config", _write(tmp_path, tree)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("structure ok (worst defect ")
    assert float(first[len("structure ok (worst defect "):-1]) == 5e-13


def test_validate_composite(tmp_path, capsys):
    code = main(["validate", "--config", _write(tmp_path, COMPOSITE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "algebra ok" in out and "CCR ok" in out


def _inline(sc):
    return {"alpha": sc.alpha.tolist(), "beta_real": sc.beta.real.tolist(),
            "beta_imag": sc.beta.imag.tolist()}


def test_validate_rescaled_spin_composite(tmp_path, capsys):
    c = 2.0  # rescaled spin variables X' = cX: associative, not the spin algebra
    scaled = StructureConstants(c * c * np.eye(3), c * pauli_structure().beta)
    tree = json.loads(json.dumps(COMPOSITE))
    tree["system"] = {"composite": {"sub1": _inline(scaled), "sub2": "pauli"}}
    code = main(["validate", "--config", _write(tmp_path, tree)])
    assert code == 0
    assert capsys.readouterr().out == ("joint fit residual = 0\n"
                                       "algebra ok (error 0)\n"
                                       "CCR ok (error 0)\n")


def test_validate_non_associative_structure_fails(tmp_path, capsys):
    # alpha = 2I with the spin theta: (X_1 X_2) X_2 = X_1 but X_1 (X_2 X_2) = 2 X_1.
    bad = StructureConstants(2.0 * np.eye(3), pauli_structure().beta)
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["system"] = _inline(bad)
    code = main(["validate", "--config", _write(tmp_path, tree)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ("structure ok (worst defect 0)\n"
                            "algebra FAIL (error 1)\n"
                            "CCR ok (error 0)\n")
    assert captured.err.startswith("error: ")


def test_validate_qubit_qutrit_composite(tmp_path, capsys):
    qutrit = fit_structure_constants(gell_mann_representation(3)).constants
    tree = {"system": {"composite": {"sub1": "pauli", "sub2": _inline(qutrit)}}}
    code = main(["validate", "--config", _write(tmp_path, tree)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [ln.split(" (")[0].split(" = ")[0] for ln in lines] == [
        "joint fit residual", "algebra ok", "CCR ok"]
    assert max(float(ln.rstrip(")").split()[-1]) for ln in lines) <= 1e-12


def test_tau_worked_output(tmp_path, capsys):
    code = main(["tau", "--config", _write(tmp_path, PAULI_WORKED)])
    out = capsys.readouterr().out
    assert code == 0
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    assert float(values["tau_prime0"]) == pytest.approx(0.1875, abs=1e-12)
    assert float(values["tau_second0"]) == pytest.approx(27.0 / 256.0, abs=1e-10)
    assert float(values["tau_hat"]) == pytest.approx(0.0018803, abs=1e-7)
    assert float(values["tau"]) == pytest.approx(0.00188029, abs=1e-6)


def test_simulate_frozen_system_writes_zero_deviation(tmp_path):
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["coupling"] = {"M": [[0.0] * 3, [0.0] * 3], "N": [0.0, 0.0]}
    out_file = tmp_path / "traj.csv"
    code = main(["simulate", "--config", _write(tmp_path, tree),
                 "--out", str(out_file)])
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[0] == "t" and "Delta" in header
    d_col = header.index("Delta")
    assert all(float(r.split(",")[d_col]) == 0.0 for r in rows[1:])
    assert len(rows) == 22


def test_simulate_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = _write(tmp_path, PAULI_WORKED)
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dump_config_round_trip(tmp_path, capsys):
    code = main(["tau", "--config", _write(tmp_path, PAULI_WORKED),
                 "--eps", "0.02,0.04", "--dump-config"])
    assert code == 0
    dumped = json.loads(capsys.readouterr().out)
    reparsed = parse_config(dumped)
    assert reparsed.tree == dumped
    assert reparsed.eps == [0.02, 0.04]


def test_optimize_energy_output(tmp_path, capsys):
    code = main(["optimize-energy", "--config", _write(tmp_path, PAULI_WORKED)])
    out = capsys.readouterr().out
    assert code == 0
    assert "zero_energy_optimal = true" in out
    assert "E_star = [0, 0, 0]" in out or "E_star = [-0, -0, -0]" in out


def test_optimize_coupling_with_overrides(tmp_path, capsys):
    code = main(["optimize-coupling", "--config", _write(tmp_path, COMPOSITE),
                 "--e1", "0,0,0", "--e2", "0,0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "E12_star" in out and "Q =" in out
    residual = float(out.split("residual =")[1].splitlines()[0])
    assert residual <= 1e-10


def test_optimize_coupling_requires_composite(tmp_path, capsys):
    code = main(["optimize-coupling", "--config", _write(tmp_path, PAULI_WORKED)])
    assert code == 2


def test_sweep_eps_csv(tmp_path):
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["analysis"]["sweep"] = {"kind": "eps", "values": [0.01, 0.02, 0.04]}
    out_file = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", _write(tmp_path, tree),
                 "--out", str(out_file)])
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[0] == "eps,tau,tau_hat"
    taus = [float(r.split(",")[1]) for r in rows[1:]]
    assert taus == sorted(taus)
    assert len(taus) == 3


def test_sweep_gain_csv(tmp_path):
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["analysis"]["sweep"] = {"kind": "gain", "values": [0.8, 1.0, 1.25],
                                 "eps": 0.01}
    out_file = tmp_path / "gain.csv"
    code = main(["sweep", "--config", _write(tmp_path, tree),
                 "--out", str(out_file)])
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[0] == "gain,tau,tau_hat"
    # stronger coupling decoheres faster
    taus = [float(r.split(",")[1]) for r in rows[1:]]
    assert taus[0] > taus[1] > taus[2]


def test_infinite_tau_in_output(tmp_path, capsys):
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["analysis"]["eps"] = [2.5]
    code = main(["tau", "--config", _write(tmp_path, tree)])
    out = capsys.readouterr().out
    assert code == 0
    assert "tau = inf" in out


@pytest.mark.parametrize("command", ["tau", "simulate"])
def test_overflowing_drift_prints_an_error_line(tmp_path, capsys, command):
    # the drift of E = (1e308, 1e308, 0) overflows a double; numpy raised
    # LinAlgError with a traceback before it was typed
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["energy"]["E"] = [1e308, 1e308, 0.0]
    tree["coupling"] = {"M": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.2]], "N": [0.3, 0.1]}
    tree["init"]["mu0"] = [0.3, 0.1, 0.2]
    code = main([command, "--config", _write(tmp_path, tree)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: the drift overflows")
    assert "Traceback" not in captured.err


def test_config_error_exit_codes(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["tau", "--config", str(bad_json)]) == 2

    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["energy"]["E"] = [0.0, float("nan"), 0.0]
    # json forbids NaN literals, so inject via string replacement
    text = json.dumps(tree).replace("NaN", "1e999")
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(text)
    assert main(["tau", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err

    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["coupling"]["M"] = [[1.0, 0.0], [0.0, 1.0, 0.0]]
    assert main(["tau", "--config", _write(tmp_path, tree, "ragged.json")]) == 2

    worked = _write(tmp_path, PAULI_WORKED, "worked.json")
    capsys.readouterr()
    for flag, val in (("--eps", "nan"), ("--eps", "0.01,-0.02"), ("--step", "nan"),
                      ("--tol", "nan"), ("--horizon", "nan"), ("--margin", "0"),
                      ("--margin", "nan"), ("--step", "0")):
        assert main(["tau", "--config", worked, flag, val]) == 2
        assert f"config error: {flag}: " in capsys.readouterr().err
    # the settle-time option is gone: an infinite tau is certified by a bound
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--config", worked, "--settle", "20"])
    assert exc.value.code == 2
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["analysis"]["settle"] = 20.0
    assert main(["tau", "--config", _write(tmp_path, tree, "settle.json")]) == 2
    assert "config error: analysis: unknown keys ['settle']" in capsys.readouterr().err

    for sweep, field in (
            ({"kind": "eps", "values": [0.01, 0.0]}, "analysis.sweep.values[1]"),
            ({"kind": "eps", "values": [-0.01]}, "analysis.sweep.values[0]"),
            ({"kind": "gain", "values": [1.0], "eps": 0.0}, "analysis.sweep.eps"),
            ({"kind": "gain", "values": [1.0], "eps": -0.01}, "analysis.sweep.eps")):
        tree = json.loads(json.dumps(PAULI_WORKED))
        tree["analysis"]["sweep"] = sweep
        assert main(["sweep", "--config", _write(tmp_path, tree, "sweep.json")]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    for times in ([0.0], [0.5, 1.0], [0.0, 0.5, 0.2, 1.0], [0.0, 0.5, 0.5]):
        tree = json.loads(json.dumps(PAULI_WORKED))
        tree["analysis"]["grid"] = {"times": times}
        assert main(["simulate", "--config", _write(tmp_path, tree, "grid.json")]) == 2
        assert "config error: analysis.grid.times: " in capsys.readouterr().err

    composite = _write(tmp_path, COMPOSITE, "composite.json")
    for flag, val in (("--e1", "nan,0,0"), ("--e2", "0,inf,0"), ("--e1", "0,0"),
                      ("--e2", "0,x,0")):
        assert main(["optimize-coupling", "--config", composite, flag, val]) == 2
        assert f"config error: {flag}: " in capsys.readouterr().err

    # an empty value is rejected, not taken for a missing flag
    for command, config, flag in (("tau", worked, "--eps"),
                                  ("optimize-coupling", composite, "--e1"),
                                  ("optimize-coupling", composite, "--e2")):
        assert main([command, "--config", config, flag, ""]) == 2
        assert f"config error: {flag}: " in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    """scipy is a test oracle only: the package and its CLI run without it."""
    code = ("import sys, qmemtime, qmemtime.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_domain_error_exit_code(tmp_path, capsys):
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["coupling"] = {"M": [[0.0] * 3, [0.0] * 3], "N": [0.0, 0.0]}
    tree["energy"] = {"E": [0.0, 0.0, 1.0]}
    code = main(["tau", "--config", _write(tmp_path, tree)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_located_field_error_message(tmp_path, capsys):
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["init"] = {"mu0": [0.0, 0.0]}
    code = main(["tau", "--config", _write(tmp_path, tree)])
    err = capsys.readouterr().err
    assert code == 2
    assert "init.mu0" in err


def test_crossing_flags_reach_the_search(tmp_path, capsys):
    worked = _write(tmp_path, PAULI_WORKED)
    flags = {"step": 1e-4, "tol": 1e-10, "horizon": 50.0, "margin": 1e-3}
    argv = [a for key, val in flags.items() for a in (f"--{key}", repr(val))]
    assert main(["tau", "--config", worked, *argv, "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert {key: dumped["analysis"][key] for key in flags} == flags
    assert parse_config(dumped).crossing == CrossingOptions(**flags)

    cfg = parse_config(PAULI_WORKED)
    want = decoherence_time(cfg.system, cfg.init, cfg.weights, 0.01,
                            opts=CrossingOptions(step=1e-4))
    assert main(["tau", "--config", worked, "--step", "1e-4"]) == 0
    lo, hi = want.bracket
    assert capsys.readouterr().out.endswith(
        f"  tau = {want.value:.17g}\n  bracket = [{lo:.17g}, {hi:.17g}]\n")

    # eps = 2.5 is certified at t_c = ln(4) / 2; a horizon short of t_c, or
    # a margin that leaves the bound no clearance, is inconclusive
    for extra, code in (([], 0), (["--horizon", "0.5"], 1),
                        (["--margin", "0.5", "--horizon", "2"], 1)):
        assert main(["tau", "--config", worked, "--eps", "2.5", *extra]) == code
        captured = capsys.readouterr()
        assert ("  tau = inf (certified)\n" in captured.out) == (code == 0)
        assert captured.err.startswith("error: ") == (code == 1)


def test_weights_factor_config(tmp_path, capsys):
    F = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.2]]
    tree = json.loads(json.dumps(PAULI_WORKED))
    tree["weights"] = {"F": F}
    path = _write(tmp_path, tree)
    assert main(["tau", "--config", path]) == 0
    cfg = parse_config(PAULI_WORKED)
    want = decoherence_time(cfg.system, cfg.init, weighting_from_factor(np.array(F)), 0.01)
    assert f"  tau = {want.value:.17g}\n" in capsys.readouterr().out
    assert main(["tau", "--config", path, "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out)["weights"] == {"F": F}

    tree["weights"] = {"F": [[1.0, 0.5], [0.0, 1.0]]}
    assert main(["tau", "--config", _write(tmp_path, tree, "columns.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: weights.F: ")
