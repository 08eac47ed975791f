"""Memory decoherence time: first threshold crossing of the deviation.

The decoherence time tau(eps) is the first time the weighted mean-square
deviation Delta(t) exceeds eps times the reference <Sigma, P> (the
weighted size of the initial variables), with +infinity when no crossing
ever occurs.  Delta may be non-monotone, so the search tests every node
of a fixed-step grid in order, brackets the *first* up-crossing, and
refines it by safeguarded Newton on the exact Taylor expansion of Delta,
in one call: to the root to roundoff where a bracket about it is
confirmed, otherwise to a bracket of width at most tol.  Only the
threshold depends on eps: the :class:`~qmemtime.propagate.Deviation` that
:meth:`Propagator.deviation <qmemtime.propagate.Propagator.deviation>`
keeps for one initial moments and weighting object holds the reference
norm, Delta_inf, the decay bound, the derivatives of Delta at t = 0 and
one march, whose table keeps the running maximum of Delta at the nodes
and its Taylor coefficients on the intervals of the grid from t = 0 (see
:mod:`qmemtime.propagate`).  So every eps of a curve is one binary search
and one refinement there, with the answer of a fresh search, and a
further expansion derives nothing.

An infinite answer is certified by a provable bound.  For a Hurwitz drift
Delta(s) - Delta_inf = tr(K E_s), and the Lyapunov norm of the drift
bounds that by B0 e^{-rate s} (see
:attr:`Deviation.decay_bound <qmemtime.propagate.Deviation.decay_bound>`).
When the threshold clears Delta_inf, Delta stays below the threshold from
the closed-form time t_c at which Delta_inf + B0 e^{-rate t_c} meets it
less a relative margin, so the march ends at t_c.  The quadratic small-eps
expansion tau_hat is read off the derivatives of Delta at t = 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InconclusiveCrossingError, IntegrationError, ZeroDiffusionError
from .linalg import HURWITZ_TOL
from .propagate import Propagator

INFINITE = math.inf

#: Below this, the linear deviation rate counts as zero.
DIFFUSION_TOL = 1e-14


@dataclass(frozen=True)
class CrossingOptions:
    """Search controls for :func:`decoherence_time`.

    ``step`` and ``tol`` default to 1e-3 and 1e-9 over max(1, ||A||_2), and
    a step longer than 1 / (2 rho), with rho = max(1, ||[A b]||_2), is cut
    into ceil(2 step rho) equal node spacings; ``horizon`` caps the marched
    time; and ``margin`` is the relative clearance that the bound Delta_inf
    + B0 e^{-rate t} on the deviation must keep below the threshold from the
    time t at which the march ends with an infinite answer.  Every field
    that is given must be finite and positive.
    """

    step: float = None
    tol: float = None
    horizon: float = 1e4
    margin: float = 1e-6

    def __post_init__(self):
        for field in dataclasses.fields(self):
            val = getattr(self, field.name)
            if val is not None and not (math.isfinite(val) and val > 0):
                raise ValueError(f"CrossingOptions.{field.name} must be finite "
                                 f"and positive, got {val}")


#: The controls of a search given no options, built once.
_DEFAULT_OPTS = CrossingOptions()


@dataclass(frozen=True)
class DecoherenceTime:
    """A located first crossing, or a certified infinite answer."""

    epsilon: float
    value: float
    threshold: float
    bracket: tuple = None

    @property
    def is_infinite(self):
        return math.isinf(self.value)


@dataclass(frozen=True)
class DecoherenceExpansion:
    """Small-eps expansion data: tau(eps) ~ tau'(0) eps + tau''(0) eps^2 / 2."""

    delta_dot0: float
    delta_ddot0: float
    tau_prime0: float
    tau_second0: float
    ref_norm: float


def tau_expansion(sys, init, weights):
    """Expansion coefficients of the decoherence time at eps = 0.

    tau'(0) is the ratio of the weighted initial size to the initial
    deviation rate; tau''(0) = -Delta''(0) tau'(0)^2 / Delta'(0) follows
    from matching the quadratic expansions of Delta and tau.
    """
    dev = Propagator.of(sys).deviation(init, weights)
    ref, d2, d1 = dev.ref, dev.ddot0, dev.rate0
    if d1 <= DIFFUSION_TOL * ref:
        raise ZeroDiffusionError(
            f"weighted initial deviation rate tr(Sigma Re Lambda(0)) = {d1:.3e}; "
            "the linear decoherence-time coefficient is undefined (uncoupled "
            "system, or weighting orthogonal to the initial diffusion)"
        )
    tau1 = ref / d1
    tau2 = -d2 * tau1 * tau1 / d1
    if not math.isfinite(tau2):
        raise IntegrationError(f"tau''(0) overflows (Delta''(0) = {d2:.3e}, Delta'(0) = {d1:.3e})")
    return DecoherenceExpansion(delta_dot0=d1, delta_ddot0=d2,
                                tau_prime0=tau1, tau_second0=tau2,
                                ref_norm=ref)


def tau_hat(expansion, epsilon):
    """Quadratic approximation tau'(0) eps + tau''(0) eps^2 / 2."""
    return expansion.tau_prime0 * epsilon + 0.5 * expansion.tau_second0 * epsilon ** 2


def decoherence_time(sys, init, weights, epsilon, opts=None):
    """First time the deviation exceeds ``epsilon`` times the reference.

    One crossing call per eps finds the first node above the threshold on
    the grid of ``opts.step``, off the march's node table and past it (so
    the first crossing of a non-monotone Delta is bracketed), and refines
    its crossing by safeguarded Newton: the value is the root to roundoff,
    or where no bracket about it is confirmed, the midpoint of a bracket of
    width at most ``opts.tol``.  When the threshold clears Delta_inf and
    the drift has a Lyapunov norm, the march ends at the certification
    time t_c past which Delta stays below the threshold, and finding no
    crossing returns an infinite result.  Otherwise exhausting the horizon
    raises :class:`InconclusiveCrossingError` carrying the marched supremum.
    Non-associative constants raise :class:`StructureDefectError`, and an
    ``epsilon`` that is not finite and positive raises ValueError.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"fidelity parameter must be finite and positive, got {epsilon}")
    opts = opts or _DEFAULT_OPTS
    prop = Propagator.of(sys)
    step = opts.step if opts.step is not None else 1e-3 / max(1.0, prop.norm_a)
    tol = opts.tol if opts.tol is not None else 1e-9 / max(1.0, prop.norm_a)
    dev = prop.deviation(init, weights)
    threshold = epsilon * dev.ref
    march = dev.march(step)

    # Frozen dynamics: the variables are conserved and Delta stays at zero.
    if prop.frozen and dev.rate0 <= DIFFUSION_TOL * dev.ref:
        return DecoherenceTime(epsilon=epsilon, value=INFINITE,
                               threshold=threshold, bracket=None)

    # Past t_c, Delta(s) <= Delta_inf + B0 e^{-rate s} <= (1 - margin) threshold.
    t_c = INFINITE
    if prop.margin < -HURWITZ_TOL:
        clear = (1.0 - opts.margin) * threshold - dev.limit
        bound = dev.decay_bound if clear > 0.0 else None
        if bound is not None:
            b0, rate = bound
            t_c = math.log(b0 / clear) / rate if b0 > clear else 0.0

    horizon = float(opts.horizon)
    nodes = min(horizon, t_c) / march.h
    if not math.isfinite(nodes):
        raise IntegrationError(f"the march to t = {min(horizon, t_c):.6g} in steps of "
                               f"{march.h:.3e} overflows the node count")
    nodes = max(0, int(math.ceil(nodes - 1e-12)))
    bracket, sup = march.first_crossing(nodes, threshold, tol)
    if bracket is None:
        if t_c <= horizon:
            return DecoherenceTime(epsilon=epsilon, value=INFINITE,
                                   threshold=threshold, bracket=None)
        raise InconclusiveCrossingError(
            "no threshold crossing found and no decay certificate applies "
            "within the horizon", sup_delta=sup, horizon=horizon)
    return DecoherenceTime(epsilon=epsilon, value=0.5 * (bracket[0] + bracket[1]),
                           threshold=threshold, bracket=bracket)
