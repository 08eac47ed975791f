"""Exact propagation of the moment dynamics.

For a closed algebra the mean obeys mu' = A mu + b, so (mu_t, 1) =
Phi_t (mu0, 1) with the transition matrix Phi_t = exp(t [[A, b], [0, 0]])
of order n + 1, Van Loan's block exponential ("Computing integrals
involving the matrix exponential", IEEE TAC 23(3), 1978) by
:func:`~qmemtime.linalg.expm`.  Products close, X_j X_k = alpha_jk +
beta_jk . X, and the flow preserves them, so the full complex second
moment S = alpha + beta . mu_t at every t.  Its equation S' = A S + S A^T
+ Lambda + b mu^T + mu b^T then gives the diffusion matrix Lambda in
O(n^3) (:meth:`Propagator.lam`) where the product table is associative,
which :func:`~qmemtime.algebra._associativity_defect` checks; the paper's
O(n^4) sandwich is a test oracle.  Both the second moment of the noise
response and the deviation follow from Phi_t alone:

    V_t = alpha + beta . mu_t - [Phi_t Z Phi_t^T]_{:n,:n},   Delta(t) = <L, Phi_t^T>,

with Z = [[Pi, mu0], [mu0^T, 1]] the second moment of (X_0, 1) and L the
functional of :meth:`Propagator.functional`.

The march and a trajectory both advance Phi in chunks with one stack of
maps, :meth:`Propagator.maps`: Phi over 0 ... ``count`` spacings, products
of the map over one but for each map over a multiple of ``CHUNK``, which is
its own exponential.  A march's chunks are ``CHUNK`` intervals, and a
trajectory's 2 ``CHUNK`` nodes where their stacks fit ``ROW_BUDGET`` (n <=
31), else ``CHUNK``.  So the map over a chunk, which they chain, is its own
exponential, whose roundoff does not build up chunk after chunk, and no
map is more than ``CHUNK`` - 1 products.

:meth:`DeviationMarch.first_crossing` cuts the node grid into intervals
of width at most 1 / (2 rho), rho a norm bound of the generator, on each
of which Delta is one polynomial whose coefficients are the product of
the interval's starting state with Taylor rows.  It marches chunks of
``CHUNK`` intervals from Phi_0 = I: their states are one product with the
maps over 0 ... ``CHUNK`` intervals, their coefficients a second and the
node values a third, with a table of powers.  The crossing before the
first node above the threshold is refined by safeguarded Newton on the
polynomial of its interval.  Maps, rows and powers depend only on the
system, the functional and the step, so the march keeps the running
maximum of Delta at the nodes and the coefficients of the intervals in a
table, where the first crossing of a threshold is one binary search and
a Newton refinement.  A :class:`Propagator` keeps one :class:`Deviation`
for the frozen initial moments and weighting objects it serves, with
what depends on them alone, such as L and Delta_inf, and one march:
every eps of a tau(eps) curve reads its crossing off the table, with the
answer of a fresh search, and the powers and the table a system keeps
are bounded by ``ROW_BUDGET``.  The propagator keeps the last stack of
maps; a trajectory builds the stack of each of its spacings once a call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .algebra import ASSOCIATIVITY_TOL, _associativity_defect, _product_table
from .errors import IntegrationError, NotHurwitzError, StructureDefectError, TrivialWeightError
from .linalg import HURWITZ_TOL, _taylor_terms, decay_gramian, expm, hurwitz_margin, spectral_norm
from .model import coefficients

#: Bytes allowed for a march's table of powers with the node values of one
#: chunk, which caps the nodes per interval, and again for its kept table.
ROW_BUDGET = 1 << 20

#: Work allowed for the intervals that one crossing search adds to a march,
#: each counted as (n + 1)^2 units for its state and 1000 for its overhead.
WORK_BUDGET = 10 ** 9

#: Spacings, the intervals of a march or the steps of a trajectory, that
#: one stack of maps spans.
CHUNK = 16

#: Largest condition number of the Lyapunov solution X whose norm certifies
#: decay (see :meth:`Propagator.contraction`).
KAPPA_MAX = 1e8


def _horner(coef, s):
    """The polynomial with the coefficients ``coef`` and its derivative at s."""
    p = dp = 0.0
    for c in reversed(coef):
        dp = dp * s + p
        p = p * s + c
    return p, dp


def step_spacings(grid):
    """The spacings of ``grid``, where those within 4 eps grid[-1] above
    the smallest of a group are all replaced by the group's first in grid
    order: roundoff splits the one true spacing of a uniform grid into
    several floats, which then share one transition matrix."""
    h = np.diff(grid)
    tol = 4.0 * np.finfo(float).eps * grid[-1]
    order = np.argsort(h, kind="stable")
    ascending = h[order]
    out = np.empty_like(h)
    lo = 0
    while lo < h.size:
        hi = np.searchsorted(ascending, ascending[lo] + tol, side="right")
        out[order[lo:hi]] = h[order[lo:hi].min()]
        lo = hi
    return out


class Propagator:
    """The moment dynamics of one system, derived once, by the constructor:
    its coefficient set ``co`` with drift A, offset b and generator
    ``Ahat`` = [[A, b], [0, 0]] of Phi, ||A||_2, the Hurwitz margin
    (largest eigenvalue real part), the isolated drifts ``D`` with A0 =
    sum_l E_l D_l, the closure alpha + beta . mu and the associativity
    defect of the product table that guards it, whether the diffusion
    vanishes and whether A and b do; a drift that overflows a double
    raises IntegrationError.  Kept as used: the last
    :meth:`deviation` record, with its march, and the last stack of
    :meth:`maps`, which a march or a trajectory built; the steady state
    (:attr:`mean_limit`, :attr:`limits`) and the Lyapunov norm
    (:attr:`contraction`) are cached properties, derived on first read.
    :meth:`of` shares one per system."""

    def __init__(self, sys):
        self.n = n = sys.n
        with np.errstate(over="ignore", invalid="ignore"):
            self.co = co = coefficients(sys)
            self.Ahat = np.zeros((n + 1, n + 1))
            self.Ahat[:-1, :-1], self.Ahat[:-1, -1] = co.A, co.b
            self.norm_a = spectral_norm(co.A) if np.isfinite(self.Ahat).all() else math.inf
            #: Norm bound of Ahat: ||[A b]||_2 <= sqrt(||A||_2^2 + |b|^2).
            self.rho = max(1.0, math.hypot(self.norm_a, float(np.linalg.norm(co.b))))
        if not math.isfinite(self.rho):
            raise IntegrationError(f"the drift overflows a double (||A||_2 = {self.norm_a:.3e})")
        sc = sys.sc
        self.alpha, self.beta, self.re_beta = sc.alpha, sc.beta, sc.re_beta
        self.D = np.ascontiguousarray(2.0 * sc.theta.transpose(2, 1, 0))  # 2 Theta <> e_l
        #: The full second moment alpha + beta . mu is (mu, 1) @ moment_f on
        #: a real view: rows beta_l, then alpha.
        moment = np.concatenate([self.beta, self.alpha[None] + 0j])
        self.moment_f = np.ascontiguousarray(moment).view(float).reshape(n + 1, -1)
        self.A, self.b = co.A, co.b
        self.margin = hurwitz_margin(co.A)
        #: Neither drift nor offset, so the mean stays at mu0.
        self.frozen = bool(np.abs(co.A).max() <= 1e-14 and np.abs(co.b).max() <= 1e-14)
        self._deviation = None
        self._maps = None, None  # the last stack of maps and its (h, count)
        self._defect = _associativity_defect(_product_table(sc))
        # Lambda is affine in mu, so it vanishes at every mean if it does at 0
        # and at a fixed pseudo-random Weyl sequence (no numpy.random import).
        probes = (np.zeros(n), 2.0 * (np.arange(1, n + 1) * 0.6180339887498949 % 1.0) - 1.0)
        #: No diffusion at any mean, so V is identically zero.
        self.noiseless = not any(self._closure_form(co.Atilde, co.b, mu)[0].any() for mu in probes)

    @classmethod
    def of(cls, sys):
        """The propagator of ``sys``, built on first use and kept on it.

        A ``SystemParams`` is frozen with read-only arrays, so the kept
        dynamics cannot go stale; ``replace`` and ``with_energy`` make new
        instances, which derive their own.
        """
        prop = sys.__dict__.get("_propagator")
        if prop is None:
            prop = sys.__dict__["_propagator"] = cls(sys)
        return prop

    def _closure_form(self, A, b, mu):
        """The closure form t - X - X^H, with t = beta . (A mu + b), X = A S
        + b mu^T and S = alpha + beta . mu, and the largest of its terms."""
        beta = self.beta.reshape(self.n, -1)
        t = ((A @ mu + b) @ beta).reshape(self.alpha.shape)
        X = A @ (self.alpha + (mu @ beta).reshape(t.shape)) + np.outer(b, mu)
        return t - X - X.conj().T, max(np.abs(t).max(), np.abs(X).max())

    def _require_closure(self):
        """Raise :class:`StructureDefectError` unless the product table is
        associative, so that the second moment stays alpha + beta . mu."""
        if self._defect > ASSOCIATIVITY_TOL:
            raise StructureDefectError(
                f"the second moment leaves the product closure alpha + beta . mu "
                f"(relative associativity defect {self._defect:.3e} > {ASSOCIATIVITY_TOL:g}); "
                f"the structure constants are not associative")

    @functools.cached_property
    def mean_limit(self):
        """The steady-state mean mu_inf = -A^{-1} b of a Hurwitz drift,
        read-only; a drift that is not Hurwitz raises
        :class:`NotHurwitzError` on every read."""
        if self.margin >= -HURWITZ_TOL:
            raise NotHurwitzError(f"drift matrix is not Hurwitz for the steady-state mean: "
                                  f"max Re(eig) = {self.margin:.3e}")
        try:
            mu_inf = -np.linalg.solve(self.A, self.b)
        except np.linalg.LinAlgError as err:
            raise NotHurwitzError(f"the drift is singular to working precision ({err})") from err
        mu_inf.setflags(write=False)
        return mu_inf

    @functools.cached_property
    def limits(self):
        """Steady-state mean, diffusion matrix and second moment
        (mu_inf, Lambda_inf, P_inf) of a Hurwitz drift, read off the closure:
        P_inf = alpha + Re beta . mu_inf - mu_inf mu_inf^T, which solves A P
        + P A^T + Re Lambda_inf = 0 since S' = 0 at A mu_inf + b = 0.
        Read-only like :attr:`mean_limit`, which alone serves the march.
        """
        mu_inf = self.mean_limit
        lam_inf = self.lam(mu_inf)
        P_inf = self.alpha + np.tensordot(mu_inf, self.re_beta, 1) - np.outer(mu_inf, mu_inf)
        P_inf = (P_inf + P_inf.T) / 2.0
        for arr in (lam_inf, P_inf):
            arr.setflags(write=False)
        return mu_inf, lam_inf, P_inf

    @functools.cached_property
    def contraction(self):
        """The Lyapunov norm |x|_X = |X^{1/2} x| in which E_s = e^{sA}
        decays at a known rate, or None.

        X solves A^T X + X A = -I: it is the decay Gramian, the integral of
        E_s^T E_s over s >= 0, which :func:`~qmemtime.linalg.decay_gramian`
        finds by squared Smith doubling from s = 1 / (2 rho).  If X > 0
        and r = ||A^T X + X A + I||_2 <= 1/2, then d/ds |E_s x|_X^2 <= -(1 -
        r) |E_s x|^2 <= -(1 - r) / lambda_max(X) |E_s x|_X^2, so for every
        s >= 0

            ||X^{1/2} E_s X^{-1/2}||_2 <= exp(-rate s),   rate = (1 - r) / (2 lambda_max(X))

        (Trefethen & Embree, "Spectra and Pseudospectra", 2005).  It is
        (X^{1/2}, X^{-1/2}, rate, kappa(X)), derived once per drift; r
        includes a bound on the roundoff of the residual.  A drift that is
        not Hurwitz, or an X that the doubling does not reach, fails the
        check or has kappa(X) > ``KAPPA_MAX``, has none.
        """
        X = decay_gramian(self.A, 0.5 / self.rho) if self.margin < -HURWITZ_TOL else None
        if X is None:
            return None
        A, n = self.A, self.n
        w, v = np.linalg.eigh(X)
        if not w[0] > 0.0 or w[-1] > KAPPA_MAX * w[0]:
            return None
        res = A.T @ X + X @ A + np.eye(n)
        r = spectral_norm(res) + 4.0 * n * np.finfo(float).eps * (self.norm_a * w[-1] + 1.0)
        if r > 0.5:
            return None
        root = np.sqrt(w)
        return v * root @ v.T, v / root @ v.T, (1.0 - r) / (2.0 * w[-1]), w[-1] / w[0]

    def lam(self, mu):
        """Diffusion matrix Lambda(mu), Hermitian: the closure form with the
        coupling drift Atilde.  The form with the drift A adds the isolated part, which
        vanishes as the isolated flow preserves products; without it Lambda
        is exactly zero without coupling, at any energy."""
        self._require_closure()
        return self._closure_form(self.co.Atilde, self.b, mu)[0]

    def transition(self, h):
        """The transition matrix Phi_h = exp(h [[A, b], [0, 0]]), which
        maps (mu, 1) at t to (mu, 1) at t + h."""
        return expm(self.Ahat, h)

    def maps(self, h, count=CHUNK):
        """Phi over 0, 1, ..., ``count`` spacings ``h``, stacked, read-only
        and kept for an equal (h, count): products of the map over one, but
        each map over a multiple of ``CHUNK``, which may be chained, is its
        own exponential, so no map is more than CHUNK - 1 products."""
        stack, key = self._maps
        if key != (h, count):
            n1 = self.n + 1
            one, stack = self.transition(h), np.empty((count + 1, n1, n1))
            stack[0] = np.eye(n1)
            for k in range(1, count + 1):
                stack[k] = self.transition(k * h) if k % CHUNK == 0 else one @ stack[k - 1]
            stack.setflags(write=False)
            self._maps = stack, (h, count)
        return stack

    def functional(self, init, Sigma):
        """The matrix L with Delta(t) = <L, Phi_t^T> for the initial
        moments ``init`` and the weighting ``Sigma``.

        On the closure S_t = Re E[X_t X_t^T] = alpha + Re beta . mu_t, so
        with mu_t = E_t mu0 + w_t and Pd = P - mu0 mu0^T,
        Delta = <Sigma, S> - 2 <Sigma Pd, E_t> - 2 mu_t^T Sigma mu0 + <Sigma, P>
        = <Sigma, alpha + P> + g . mu_t - 2 <Sigma Pd, E_t> with g_l =
        <Sigma, Re beta_l> - 2 (Sigma mu0)_l, which is <L, Phi_t^T>.
        Constants that are not associative raise StructureDefectError.
        """
        self._require_closure()
        n, mu0 = self.n, init.mu0
        Pd = init.P - np.outer(mu0, mu0)
        g = self.re_beta.reshape(n, n * n) @ Sigma.ravel() - 2.0 * Sigma @ mu0
        L = np.zeros((n + 1, n + 1))
        L[:n, :n] = np.outer(mu0, g) - 2.0 * Pd @ Sigma
        L[n, :n], L[n, n] = g, np.sum(Sigma * (self.alpha + init.P))
        return L

    def deviation(self, init, weights):
        """The :class:`Deviation` of ``init`` and ``weights``, kept for these objects."""
        dev = self._deviation
        if not (dev and dev.init is init and dev.weights is weights):
            dev = self._deviation = Deviation(self, init, weights)
        return dev

    def trajectory(self, init, Sigma, grid):
        """(mu, V, Delta) at the nodes of ``grid``.

        U_t = Phi_t Z Phi_t^T has the last column (mu_t, 1), so mu and V are
        read off U_t.  The spacings of :func:`step_spacings` split the grid
        into runs of equal steps, and a run into chunks of up to ``span``
        nodes: 2 ``CHUNK`` where the chunk's stack J^T kron I_2 fits
        ``ROW_BUDGET``, which holds for n <= 31, else ``CHUNK``.  A chunk
        comes from the node before it by the maps J_j of :meth:`maps` over j
        = 1 ... min(run, span) steps: U_t by the sandwich J_j U_t J_j^T, and
        Delta = <L, Phi_t^T> by the rise <L (J_j - I), Phi_t^T>, a sum free
        of the O(|L|) terms that cancel in Delta at short times; Phi_t^T
        moves to the chunk's last node by one product with J_j^T.  U_t is
        kept for one chunk only, so the output is the only array the size
        of the grid.  The maps of a spacing are built once per call, however
        many runs it has.
        """
        n, n1, N = self.n, self.n + 1, grid.size
        # chunks of 2 CHUNK nodes where their stack J^T kron I_2 fits ROW_BUDGET
        span = 2 * CHUNK if 2 * CHUNK * (2 * n1) ** 2 * 8 <= ROW_BUDGET else CHUNK
        L = self.functional(init, Sigma)
        h = step_spacings(grid)
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]]).tolist()
        ends = starts[1:] + [h.size]
        h = h.tolist()
        # Each distinct spacing's maps over its longest run, up to span, are
        # built once, before the output exists, so their work arrays do not
        # add to its size.
        count = {}
        for s, e in zip(starts, ends):
            count[h[s]] = max(count.get(h[s], 0), min(e - s, span))
        maps = {step: self.maps(step, c)[1:] for step, c in count.items()}

        mu = np.empty((N, n))
        V = np.zeros((N, n, n), dtype=complex) if self.noiseless else np.empty((N, n, n), complex)
        Vf = V.view(float).reshape(N, 2 * n * n)
        delta = np.empty(N)
        mu[0], V[0], delta[0] = init.mu0, 0.0, 0.0
        # Phi_t^T at a chunk's first node, U_t there (slot 0) and at its nodes
        PhiT, U = np.eye(n1), np.empty((span + 1, n1, n1), dtype=complex)
        U[0, :n, :n], U[0, :n, n], U[0, n, :n], U[0, n, n] = init.Pi, init.mu0, init.mu0, 1.0
        for s, e in zip(starts, ends):
            c = min(e - s, span)
            J = maps[h[s]][:c]
            J2 = np.zeros((c, 2 * n1, 2 * n1))  # J^T kron I_2, on float views
            J2[:, ::2, ::2] = J2[:, 1::2, 1::2] = J.transpose(0, 2, 1)
            rises = (L @ (J - np.eye(n1))).reshape(c, -1)  # L (J - I)
            for k in range(s, e, c):
                b = min(c, e - k)
                dst = slice(k + 1, k + 1 + b)
                delta[dst] = delta[k] + rises[:b] @ PhiT.ravel()
                PhiT = PhiT @ J[b - 1].T
                # J U J^T, both products on real views of the stack U
                np.matmul((J[:b].reshape(b * n1, n1) @ U[0].view(float)).reshape(b, n1, 2 * n1),
                          J2[:b], out=U[1:b + 1].view(float))
                mu[dst] = U[1:b + 1, :n, n].real
                if not self.noiseless:
                    np.matmul(U[1:b + 1, :, n].real, self.moment_f, out=Vf[dst])
                    V[dst] -= U[1:b + 1, :n, :n]
                U[0] = U[b]
        return mu, V, delta


class Deviation:
    """What Delta has for the frozen ``init`` and ``weights`` objects (others,
    equal or not, build their own) that depends on neither eps nor the
    step, each cached on first read: :attr:`ref`, :attr:`L`, :attr:`rate0`,
    :attr:`ddot0`, :attr:`limit` (Delta_inf), :attr:`decay_bound` and one
    :meth:`march`.  A read that raises keeps nothing, so it raises again."""

    def __init__(self, prop, init, weights):
        self.prop, self.init, self.weights = prop, init, weights
        self._march = None

    @functools.cached_property
    def ref(self):
        """The reference norm <Sigma, P>; TrivialWeightError where it vanishes."""
        from .moments import reference_norm  # moments builds on this module
        ref, P, Sigma = reference_norm(self.init, self.weights), self.init.P, self.weights.Sigma
        if ref <= 1e-12 * float(np.abs(Sigma).max()) * float(np.abs(P).max()):
            raise TrivialWeightError("the weighted reference norm tr(Sigma P) vanishes; the "
                                     "relative deviation threshold is undefined (F sqrt(P) = 0)")
        return ref

    @functools.cached_property
    def L(self):
        """The functional of :meth:`Propagator.functional`, read-only."""
        L = self.prop.functional(self.init, self.weights.Sigma)
        L.setflags(write=False)
        return L

    @functools.cached_property
    def rate0(self):
        """Delta'(0) = <Sigma, Re Lambda(mu0)>, the first right-hand derivative."""
        return float(np.sum(self.weights.Sigma * self.prop.lam(self.init.mu0).real))

    @functools.cached_property
    def ddot0(self):
        """Delta''(0) = <L, (Ahat^2)^T>; IntegrationError where it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = float(np.sum(self.L * (self.prop.Ahat @ self.prop.Ahat).T))
        if not math.isfinite(d2):
            raise IntegrationError(f"the second deviation derivative at t = 0 overflows "
                                   f"(drift norm {self.prop.norm_a:.3e})")
        return d2

    @functools.cached_property
    def limit(self):
        """Delta_inf = <L, Phi_inf^T> = g . mu_inf + L_nn of a Hurwitz drift,
        g the last row of L; otherwise NotHurwitzError."""
        return float(self.L[-1, :-1] @ self.prop.mean_limit + self.L[-1, -1])

    @functools.cached_property
    def decay_bound(self):
        """(B0, rate) with |Delta(s) - Delta_inf| <= B0 e^{-rate s} for
        every s >= 0, or None where :attr:`Propagator.contraction` has no
        Lyapunov norm.

        Phi_s^T = [[E_s^T, 0], [w_s^T, 1]] with w_s = (I - E_s) mu_inf, so
        Delta(s) - Delta_inf = tr(K E_s) with K = L11 - mu_inf g^T, and
        tr(K E_s) = tr(M X^{1/2} E_s X^{-1/2}) with M = X^{1/2} K X^{-1/2}
        is at most ||M||_* e^{-rate s}.  B0 is that nuclear norm, raised
        by a relative allowance of 16 n^2 kappa(X) eps for its roundoff.
        """
        root = self.prop.contraction
        if root is None:
            return None
        (Xh, Xih, rate, kappa), n = root, self.prop.n
        K = self.L[:n, :n] - np.outer(self.prop.mean_limit, self.L[n, :n])
        nuclear = float(np.linalg.svd(Xh @ K @ Xih, compute_uv=False).sum())
        return nuclear * (1.0 + 16.0 * n * n * kappa * np.finfo(float).eps), rate

    def march(self, step):
        """The :class:`DeviationMarch` on the grid k * ``step``, kept for an equal step."""
        march = self._march
        if not (march and march.step == step):
            march = self._march = DeviationMarch(self, step)
        return march


class DeviationMarch:
    """Delta = <L, Phi_t^T> on the node grid k * ``h`` for the functional L
    of the :class:`Deviation` record ``dev``, marched from Phi_0 = I at t =
    0 by :meth:`first_crossing`.

    The spacing ``h`` is the ``step``, cut into ceil(2 step rho) equal
    spacings where it is longer than 1 / (2 rho).  The grid is cut into
    intervals of ``m`` nodes, of ``width`` m h <= 1 / (2 rho), with m capped
    so that ``powers`` and the node values of one chunk fit ``ROW_BUDGET``.
    On an interval from a with state x = Phi_a, flattened, Delta(a + s
    width) for s in [0, 1] is the polynomial with the coefficients ``T``
    @ x, T holding the rows (L (width Ahat)^k / k!)^T for k up to
    _taylor_terms(width rho): scaled by the width, no row outgrows L at any
    drift.  Row j of ``powers`` holds ((j + 1) / m)^k, so the nodes of an
    interval are one product with its coefficients.  ``jumps`` stacks Phi
    over 0 ... ``CHUNK`` intervals, the :meth:`Propagator.maps` of the width.

    ``table`` = (r, coef, x) keeps Delta(0) in r[0], the largest Delta at
    the nodes 1 ... k in r[k] for k = 1 ... K, the coefficients of the
    intervals up to K, and Phi at K; it grows by whole chunks up to the node
    ``last``, within ``ROW_BUDGET``, and is replaced whole, never written
    once kept.  Nothing in it depends on a threshold or on earlier calls,
    so it serves every call.
    """

    def __init__(self, dev, step):
        self.dev, self.prop, self.step = dev, dev.prop, step
        prop, rho = dev.prop, dev.prop.rho
        self.n1 = n1 = prop.n + 1
        spacings = 2.0 * step * rho
        if not math.isfinite(spacings):
            raise IntegrationError(f"the step {step:.3e} overflows the count of its spacings "
                                   f"(norm bound {rho:.3e})")
        self.h = h = step / max(1, math.ceil(spacings))
        cap = ROW_BUDGET // (8 * (_taylor_terms(0.5) + 1 + CHUNK))
        self.m = m = max(1, int(min(0.5 / (h * rho), cap)))
        self.width = width = m * h
        self.T = self._taylor_rows(_taylor_terms(width * rho))
        self.powers = np.vander(np.arange(1, m + 1) / m, len(self.T), increasing=True)
        self.jumps = prop.maps(width).reshape(-1, n1)
        x0 = np.eye(n1).ravel()
        self.table = (np.array([float(self.T[0] @ x0)]), np.empty((0, len(self.T))), x0)
        # the chunks that fit the table with Delta(0) and the end state
        fit = (ROW_BUDGET // 8 - 1 - x0.size) // (CHUNK * (m + len(self.T)))
        self.last = max(0, fit) * CHUNK * m

    def _taylor_rows(self, terms):
        """The rows (L (width Ahat)^k / k!)^T, flattened, k = 0 ... ``terms``:
        row k times the state Phi_a, flattened, is the coefficient of s^k of
        Delta(a + s width), Ahat = [[A, b], [0, 0]] the generator of Phi."""
        rows, scaled = [self.dev.L.T], self.width * self.prop.Ahat.T
        for k in range(1, terms + 1):
            rows.append(scaled @ rows[-1] / k)
        return np.array(rows).reshape(terms + 1, -1)

    def _chunk(self, x):
        """The coefficients of the ``CHUNK`` intervals from the state x, and
        the state at their end: two products."""
        n1 = self.n1
        states = (self.jumps @ x.reshape(n1, n1)).reshape(CHUNK + 1, -1)
        return states[:-1] @ self.T.T, states[-1].copy()

    def first_crossing(self, nodes, threshold, tol):
        """The first node of 1 ... ``nodes`` above ``threshold``, as the
        bracket (t_lo, t_hi) of its crossing refined to width ``tol`` (see
        :meth:`_refine`), or None when no node is above; and the largest
        Delta at the nodes marched below the threshold, t = 0 included.

        The first node above is the first whose running maximum r is: one
        binary search of the kept nodes, then of each chunk from the
        table's end.  The chunks up to ``last`` extend the table, one copy
        per call, unless a longer one is kept by then.  r carries a NaN
        on, which sorts above every threshold as an infinity does, so a
        non-finite node raises IntegrationError.
        """
        r, coef, x = table = self.table
        m, lo, k = self.m, 0, min(nodes, len(r) - 1)
        vals, top = r[1:k + 1], -math.inf  # r at the nodes lo + 1 ... k, and at lo (-inf at 0)
        new, bracket = [], None
        while True:
            j = int(vals.searchsorted(threshold, side="right"))  # node lo + j + 1 is above
            top = float(vals[j - 1]) if j else top
            if j < len(vals):
                if not math.isfinite(vals[j]):
                    raise IntegrationError(
                        f"deviation march produced non-finite values near "
                        f"t={(lo + j) * self.h:.6g} (step {self.h:.3e})")
                bracket = self._refine(coef[j // m], lo + j, threshold, tol)
                break
            if k == nodes:
                break
            coef, x = self._chunk(x)
            run = (coef @ self.powers.T).ravel()
            run = np.maximum(np.maximum.accumulate(run, out=run), top, out=run)
            lo, k = k, min(k + run.size, nodes)
            vals = run[:k - lo]
            if lo + run.size <= self.last:
                new.append((run, coef, x))
        if new and len(table[1]) + len(new) * CHUNK > len(self.table[1]):
            runs, coefs, xs = zip(*new)
            self.table = (np.concatenate([r, *runs]), np.concatenate([table[1], *coefs]), xs[-1])
        return bracket, max(float(r[0]), top)

    def _refine(self, coef, node, threshold, tol):
        """Shrink the bracket [t_lo, t_lo + h] of a crossing from ``node`` to
        width at most ``tol`` on Delta, the polynomial ``coef`` of its
        interval, keeping Delta(lo) <= threshold < Delta(hi): safeguarded
        Newton (rtsafe, Press et al., "Numerical Recipes" 9.4) from the
        midpoint, each iterate narrowing [lo, hi] by its sign and a step out
        of it a bisection.  Once a step is at most tol / 8, at most two
        evaluations confirm [x - tol / 4, x + tol / 4] about the iterate x,
        clipped to the step; else, or after 16 iterates, [lo, hi] is
        bisected."""
        W, lo = self.width, node * self.h
        hi, a, coef = lo + self.h, node // self.m * W, coef.tolist()
        start, end, x = lo, hi, 0.5 * (lo + hi)
        for _ in range(16):
            f, df = _horner(coef, (x - a) / W)
            f -= threshold
            lo, hi = (lo, x) if f > 0 else (x, hi)
            xn = x - f * W / df if df else math.nan
            if not lo <= xn <= hi:
                xn = 0.5 * (lo + hi)
            if abs(xn - x) <= tol / 8:
                b0, b1 = max(start, xn - tol / 4), min(end, xn + tol / 4)
                if ((b0 == start or _horner(coef, (b0 - a) / W)[0] <= threshold)
                        and (b1 == end or _horner(coef, (b1 - a) / W)[0] > threshold)):
                    return b0, b1
                break
            x = xn
        for _ in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _horner(coef, (mid - a) / W)[0] > threshold else (mid, hi)
        return lo, hi
