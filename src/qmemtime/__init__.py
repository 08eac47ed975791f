"""Decoherence-time analysis for finite-level open quantum systems.

Finite families of system variables with an algebraically closed product
structure evolve under quasilinear stochastic dynamics whose first and
second moments are exactly computable.  This package assembles those
moment dynamics from structure constants and coupling parameters,
evaluates the memory decoherence time (the first instant the weighted
mean-square deviation from the initial variables exceeds a relative
threshold), and solves the closed-form quadratic problems of maximizing
its small-threshold expansion over the energy vector of one system or
the direct coupling vector of two.
"""

from .algebra import (StructureConstants, col, pauli_structure, sections_diamond,
                      sections_dot, stack_mho, validate_structure)
from .decoherence import (INFINITE, CrossingOptions, DecoherenceExpansion,
                          DecoherenceTime, decoherence_time, tau_expansion,
                          tau_hat)
from .errors import (AdmissibilityError, ConfigError, DomainError,
                     InconclusiveCrossingError, IntegrationError,
                     InternalConsistencyError, NotHurwitzError, QmemtimeError,
                     RepresentationError, StationarityError,
                     StructureDefectError, TrivialWeightError,
                     ZeroDiffusionError)
from .interconnect import (BlockOptimality, CompositeSystem, compose,
                           optimal_direct_coupling, partition_rk, product_mean)
from .model import (CoefficientSet, SystemParams, coefficients, ito_matrix,
                    lambda_matrix)
from .moments import (InitialMoments, MomentTrajectory, SteadyState,
                      WeightingSpec, delta_derivatives0, deviation_delta,
                      initial_moments, moment_trajectory, reference_norm,
                      steady_state, weighting_from_factor, weighting_from_sigma)
from .optimize import OptimalityData, optimal_energy, rk_matrices

__version__ = "0.1.0"
