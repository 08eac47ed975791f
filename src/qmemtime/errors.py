"""Exception types shared across the package.

Two broad families matter for the CLI exit codes: configuration problems
(bad input files, malformed vectors) and domain problems (a computation
that is mathematically undefined or uncertifiable for the given system).
"""


class QmemtimeError(Exception):
    """Base class for all package errors."""


class ConfigError(QmemtimeError):
    """A run configuration failed to parse or validate (CLI exit code 2).

    ``field`` locates the offending entry, e.g. ``"coupling.M[1][2]"``.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class DomainError(QmemtimeError):
    """A well-formed request hit a mathematical precondition (exit code 1)."""


class StructureDefectError(DomainError):
    """Structure-constant input breaks a symmetry beyond repair tolerance."""


class RepresentationError(DomainError):
    """No matrix family realizes the algebra (products not closed, or not associative)."""


class AdmissibilityError(DomainError):
    """An initial mean produces an indefinite second-moment matrix."""


class NotHurwitzError(DomainError):
    """A steady-state quantity was requested but the drift is not Hurwitz."""


class TrivialWeightError(DomainError):
    """The weighted reference norm tr(Sigma P) vanishes; the relative
    deviation threshold is undefined."""


class ZeroDiffusionError(DomainError):
    """The weighted initial diffusion rate tr(Sigma Re Lambda(0)) vanishes,
    so the linear decoherence-time coefficient is undefined."""


class StationarityError(DomainError):
    """The stationarity system 2 R E + K = 0 is inconsistent (K outside the
    range of a singular R), which contradicts convexity of the objective."""


class InconclusiveCrossingError(DomainError):
    """No threshold crossing was found and no decay certificate applies
    within the marched horizon."""

    def __init__(self, message, sup_delta, horizon):
        self.sup_delta = sup_delta
        self.horizon = horizon
        super().__init__(f"{message} (sup Delta = {sup_delta:.6g} over [0, {horizon:g}])")


class IntegrationError(DomainError):
    """The moment dynamics produced non-finite values."""


class InternalConsistencyError(QmemtimeError):
    """A quantity violated an identity it satisfies by construction
    (e.g. a mean-square deviation significantly below zero)."""
