"""The public surface of the package, pinned so that any change to it is a
visible edit here."""

import dataclasses
import importlib
import types

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
    "lambda_dot0", "lambda_matrix",
    # moments
    "InitialMoments", "MomentTrajectory", "SteadyState", "WeightingSpec",
    "delta_derivatives0", "deviation_delta", "initial_moments",
    "moment_trajectory", "psi_matrix", "reference_norm", "second_moment_V",
    "steady_state", "weighting_from_factor", "weighting_from_sigma",
    # optimize
    "GradientReport", "OptimalityData", "SuboptimalityReport", "gradient_check",
    "optimal_energy", "rk_matrices", "suboptimal_tau_report",
}

#: Names that no analysis reached and that were removed, by module.
REMOVED = [
    ("qmemtime", "mean_limit"),
    ("qmemtime", "mean_trajectory"),
    ("qmemtime", "DegenerateBasisError"),
    ("qmemtime.moments", "mean_limit"),
    ("qmemtime.moments", "mean_trajectory"),
    ("qmemtime.errors", "DegenerateBasisError"),
    ("qmemtime.linalg", "require_hurwitz"),
]


def test_public_names_are_pinned():
    names = {name for name, value in vars(qmemtime).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_cannot_be_imported(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_removed_fields_are_gone():
    assert [f.name for f in dataclasses.fields(qmemtime.SystemParams)] == ["sc", "E", "M", "N"]
    assert [f.name for f in dataclasses.fields(qmemtime.CoefficientSet)] == ["A0", "Atilde", "A", "b"]
