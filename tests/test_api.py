"""The public surface of the package, pinned so that any change to it is a
visible edit here."""

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import pytest

import qmemtime

PUBLIC = {
    # algebra
    "StructureConstants", "col", "pauli_structure", "sections_diamond",
    "sections_dot", "stack_mho", "validate_structure",
    # decoherence
    "INFINITE", "CrossingOptions", "DecoherenceExpansion", "DecoherenceTime",
    "decoherence_time", "tau_expansion", "tau_hat",
    # errors
    "AdmissibilityError", "ConfigError", "DomainError",
    "InconclusiveCrossingError", "IntegrationError", "InternalConsistencyError",
    "NotHurwitzError", "QmemtimeError", "RepresentationError",
    "StationarityError", "StructureDefectError", "TrivialWeightError",
    "ZeroDiffusionError",
    # interconnect
    "BlockOptimality", "CompositeSystem", "compose", "optimal_direct_coupling",
    "partition_rk", "product_mean",
    # model
    "CoefficientSet", "SystemParams", "coefficients", "ito_matrix",
    "lambda_matrix",
    # moments
    "InitialMoments", "MomentTrajectory", "SteadyState", "WeightingSpec",
    "delta_derivatives0", "deviation_delta", "initial_moments",
    "moment_trajectory", "reference_norm", "steady_state",
    "weighting_from_factor", "weighting_from_sigma",
    # optimize
    "OptimalityData", "optimal_energy", "rk_matrices",
}

#: Names that no analysis reached and that were removed, by module (a
#: dotted name is an attribute of a class there).
REMOVED = [
    ("qmemtime", "mean_limit"),
    ("qmemtime", "mean_trajectory"),
    ("qmemtime", "DegenerateBasisError"),
    ("qmemtime.moments", "mean_limit"),
    ("qmemtime.moments", "mean_trajectory"),
    ("qmemtime.errors", "DegenerateBasisError"),
    ("qmemtime.linalg", "require_hurwitz"),
    *(("qmemtime", name) for name in ("lambda_dot0", "psi_matrix", "second_moment_V",
                                      "suboptimal_tau_report", "SuboptimalityReport")),
    ("qmemtime.model", "lambda_dot0"),
    ("qmemtime.model", "_isolated_drift"),
    ("qmemtime.moments", "psi_matrix"),
    ("qmemtime.moments", "second_moment_V"),
    ("qmemtime.optimize", "suboptimal_tau_report"),
    ("qmemtime.optimize", "SuboptimalityReport"),
    ("qmemtime.propagate", "Propagator._with_energy"),
    ("qmemtime.propagate", "Propagator._set_drift"),
    ("qmemtime.propagate", "MarchResult"),
    ("qmemtime.propagate", "DeviationMarch.run"),
    ("qmemtime.propagate", "DeviationMarch.refine"),
    ("qmemtime.propagate", "Propagator._lyapunov_norm"),
    *((module, name) for module in ("qmemtime", "qmemtime.optimize")
      for name in ("gradient_check", "GradientReport")),
    ("qmemtime.moments", "RANK_TOL"),
    ("qmemtime.interconnect", "CompositeSystem.E12"),
    ("qmemtime.propagate", "_doubled"),
    *(("qmemtime.propagate", f"DeviationMarch.{name}")
      for name in ("_grow", "_state", "_maps", "_piece", "_taylor", "_push", "delta")),
    ("qmemtime.propagate", "bisect"),
    *(("qmemtime.propagate", name) for name in ("Propagator.march", "Propagator.deviation_limit",
                                                "DeviationMarch.limit",
                                                "DeviationMarch.decay_bound")),
    ("qmemtime.moments", "_delta_rate0"),
    *(("qmemtime.linalg", name) for name in ("expm_psi", "solve_lyapunov", "_require_margin")),
    ("qmemtime.model", "lambda_sandwich"),
    *(("qmemtime.propagate", name) for name in ("_defect", "CLOSURE_TOL")),
]


def test_public_names_are_pinned():
    names = {name for name, value in vars(qmemtime).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_cannot_be_imported(module, name):
    owner, *path = [importlib.import_module(module), *name.split(".")]
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    assert not hasattr(owner, path[-1])


def test_modules_use_every_name_they_import():
    # The package's own imports re-export its public surface, pinned above.
    unused = {}
    for path in Path(qmemtime.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_removed_fields_are_gone():
    assert [f.name for f in dataclasses.fields(qmemtime.SystemParams)] == ["sc", "E", "M", "N"]
    assert [f.name for f in dataclasses.fields(qmemtime.CoefficientSet)] == ["A0", "Atilde", "A", "b"]
    assert [f.name for f in dataclasses.fields(qmemtime.WeightingSpec)] == ["Sigma"]
    assert [f.name for f in dataclasses.fields(qmemtime.algebra.StructureReport)] == [
        "alpha_asymmetry", "beta_nonhermiticity", "worst_defect", "worst_index", "tol"]
