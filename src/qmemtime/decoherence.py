"""Memory decoherence time: first threshold crossing of the deviation.

The decoherence time tau(eps) is the first time the weighted mean-square
deviation Delta(t) exceeds eps times the reference <Sigma, P> (the
weighted size of the initial variables), with +infinity when no crossing
ever occurs.  Delta may be non-monotone, so the search tests every node
of a fixed-step grid in order, chunk by chunk with exact step maps (see
:mod:`qmemtime.propagate`), brackets the *first* up-crossing, and refines
it by bisection on the exact Taylor expansion of Delta.  An infinite
answer is certified only through a steady state: the drift must be
Hurwitz, the march must pass the settling horizon, and the limit
deviation must clear the threshold by a margin.  The quadratic small-eps
expansion tau_hat is computed from the derivatives of Delta at t = 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (InconclusiveCrossingError, TrivialWeightError,
                     ZeroDiffusionError)
from .linalg import HURWITZ_TOL
from .moments import (_delta_rate0, delta_derivatives0, reference_norm,
                      steady_state)
from .propagate import DeviationMarch, Propagator

INFINITE = math.inf

#: Below this, the linear deviation rate counts as zero.
DIFFUSION_TOL = 1e-14


@dataclass(frozen=True)
class CrossingOptions:
    """Search controls for :func:`decoherence_time`.

    ``step`` and ``tol`` default to 1e-3 and 1e-9 over max(1, ||A||_2);
    ``horizon`` caps the marched time; ``settle`` multiplies the slowest
    decay time constant to decide when a Hurwitz system has settled; and
    ``margin`` is the relative clearance the limit deviation must keep
    below the threshold to certify an infinite answer.  Every field that
    is given must be finite and positive.
    """

    step: float = None
    tol: float = None
    horizon: float = 1e4
    settle: float = 20.0
    margin: float = 1e-6

    def __post_init__(self):
        for field in dataclasses.fields(self):
            val = getattr(self, field.name)
            if val is not None and not (math.isfinite(val) and val > 0):
                raise ValueError(f"CrossingOptions.{field.name} must be finite "
                                 f"and positive, got {val}")


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
    ref = reference_norm(init, weights)
    _require_nontrivial(ref, init, weights)
    d1, d2 = delta_derivatives0(sys, init, weights)
    if d1 <= DIFFUSION_TOL:
        raise ZeroDiffusionError(
            f"weighted initial deviation rate tr(Sigma Re Lambda(0)) = {d1:.3e}; "
            "the linear decoherence-time coefficient is undefined (uncoupled "
            "system, or weighting orthogonal to the initial diffusion)"
        )
    tau1 = ref / d1
    tau2 = -d2 * tau1 * tau1 / d1
    return DecoherenceExpansion(delta_dot0=d1, delta_ddot0=d2,
                                tau_prime0=tau1, tau_second0=tau2,
                                ref_norm=ref)


def tau_hat(expansion, epsilon):
    """Quadratic approximation tau'(0) eps + tau''(0) eps^2 / 2."""
    return expansion.tau_prime0 * epsilon + 0.5 * expansion.tau_second0 * epsilon ** 2


def _require_nontrivial(ref, init, weights):
    scale = max(1.0, float(np.abs(weights.Sigma).max()) * float(np.abs(init.P).max()))
    if ref <= 1e-12 * scale:
        raise TrivialWeightError(
            "the weighted reference norm tr(Sigma P) vanishes; the relative "
            "deviation threshold is undefined (F sqrt(P) = 0)"
        )


def decoherence_time(sys, init, weights, epsilon, opts=None):
    """First time the deviation exceeds ``epsilon`` times the reference.

    Tests Delta at every node of the grid k * ``opts.step`` in order (so
    the first crossing of a non-monotone Delta is the one bracketed), then
    bisects the bracketing step to ``opts.tol``.  Returns an infinite
    result only with a steady-state certificate; otherwise, exhausting the
    horizon raises :class:`InconclusiveCrossingError` carrying the marched
    supremum.
    """
    if not epsilon > 0:
        raise ValueError(f"fidelity parameter must be positive, got {epsilon}")
    opts = opts or CrossingOptions()
    ref = reference_norm(init, weights)
    _require_nontrivial(ref, init, weights)
    threshold = epsilon * ref

    prop = Propagator.of(sys)
    step = opts.step if opts.step is not None else 1e-3 / max(1.0, prop.norm_a)
    tol = opts.tol if opts.tol is not None else 1e-9 / max(1.0, prop.norm_a)

    # Frozen dynamics: the variables are conserved and Delta stays at zero.
    if (np.abs(prop.A).max() <= 1e-14 and np.abs(prop.b).max() <= 1e-14
            and _delta_rate0(prop, init, weights.Sigma)[0]
            <= DIFFUSION_TOL * max(1.0, ref)):
        return DecoherenceTime(epsilon=epsilon, value=INFINITE,
                               threshold=threshold, bracket=None)

    hurwitz = prop.margin < -HURWITZ_TOL
    t_settle = opts.settle / (-prop.margin) if hurwitz else INFINITE
    march = DeviationMarch(prop, init, weights.Sigma, step)

    def _nodes(t_from, t_to):
        return max(0, int(math.ceil((t_to - t_from) / step - 1e-12)))

    horizon = float(opts.horizon)
    first_leg = min(horizon, t_settle)
    leg = march.run(march.x0, 0.0, _nodes(0.0, first_leg), threshold)
    sup_d = leg.sup_delta
    if not leg.crossed and hurwitz and t_settle <= horizon:
        ss = steady_state(sys, init, weights)
        if ss.Delta_inf <= (1.0 - opts.margin) * threshold:
            return DecoherenceTime(epsilon=epsilon, value=INFINITE,
                                   threshold=threshold, bracket=None)
    if not leg.crossed and first_leg < horizon:
        leg = march.run(leg.state, leg.t, _nodes(leg.t, horizon), threshold)
        sup_d = max(sup_d, leg.sup_delta)
    if not leg.crossed:
        del march  # the error's traceback holds this frame; free the row table
        raise InconclusiveCrossingError(
            "no threshold crossing found and no steady-state certificate "
            "applies", sup_delta=sup_d, horizon=horizon)

    t_lo, t_hi = march.refine(leg.state, leg.t, threshold, tol)
    return DecoherenceTime(epsilon=epsilon, value=0.5 * (t_lo + t_hi),
                           threshold=threshold, bracket=(t_lo, t_hi))
