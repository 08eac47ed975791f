"""Exact propagation of the moment dynamics.

For a closed algebra the mean obeys mu' = A mu + b, so (mu_t, 1) =
Phi_t (mu0, 1) with the transition matrix Phi_t = exp(t [[A, b], [0, 0]])
of order n + 1, Van Loan's block exponential ("Computing integrals
involving the matrix exponential", IEEE TAC 23(3), 1978) from
:func:`~qmemtime.linalg.expm_psi`.  Products close, X_j X_k = alpha_jk +
beta_jk . X, and the flow preserves them, so the full complex second
moment S = alpha + beta . mu_t at every t.  Its equation S' = A S + S A^T
+ Lambda + b mu^T + mu b^T then gives the diffusion matrix Lambda in
O(n^3) (:meth:`Propagator.lam`); the paper's O(n^4) sandwich is evaluated
at two means only, to check that the constants close.  Both the second
moment of the noise response and the deviation follow from Phi_t alone:

    V_t = alpha + beta . mu_t - [Phi_t Z Phi_t^T]_{:n,:n},   Delta(t) = <L, Phi_t^T>,

with Z = [[Pi, mu0], [mu0^T, 1]] the second moment of (X_0, 1) and L the
functional of :meth:`Propagator.functional`.

A trajectory moves a whole block of grid nodes at once: within a run of
equal spacings, the nodes [k, k + m) follow from the nodes [k - m, k) by
the power of Phi over m steps, for m = 1, 2, 4, ... up to ``BLOCK`` and
then m = ``BLOCK`` (see :meth:`Propagator.trajectory`).

:class:`DeviationMarch` tests a chunk of grid nodes with one product
against adjoint rows (the functional pulled back over 1, 2, ... steps),
jumps across it by a power of Phi_step, and refines a bracketed node with
one product against Taylor rows.  Those powers depend only on the system
and the step, and the rows only on the functional and the step, so a
:class:`Propagator` keeps one march, with its powers and rows: every eps
of a tau(eps) curve reuses them, within ``ROW_BUDGET`` of rows per
system.  A march still tests chunks of 1, 2, 4, ... nodes in every call,
so its answer does not depend on which rows an earlier call left.  A
trajectory keeps the powers of its longest run for the next one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError, StructureDefectError
from .linalg import (HURWITZ_TOL, _require_margin, _taylor_terms, expm_psi, hurwitz_margin,
                     solve_lyapunov, spectral_norm)
from .model import _isolated_drift, coefficients, lambda_sandwich

#: Bytes allowed for a march's table of adjoint rows; this fixes the
#: longest chunk of nodes tested at once.
ROW_BUDGET = 1 << 20

#: Most grid nodes a trajectory advances by one map (a power of two).
BLOCK = 16

#: Largest defect of the closure form of Lambda, relative to the size of
#: its terms, that the propagator accepts.
CLOSURE_TOL = 1e-10

#: Largest condition number of the Lyapunov solution X whose norm certifies
#: decay (see :meth:`Propagator.contraction`).
KAPPA_MAX = 1e8


def _horner(coef, s):
    acc = 0.0
    for c in reversed(coef):
        acc = acc * s + c
    return acc


def _defect(form, size, sandwich=0.0):
    """|``form`` - ``sandwich``| relative to the size of their terms."""
    return np.abs(form - sandwich).max() / max(1.0, size, np.abs(sandwich).max())


def _doubled(maps, count, first):
    """The transition matrices over 1, 2, 4, ... steps: ``maps`` extended to
    ``count`` of them by squaring, where ``first()`` is the one over one
    step.  A new tuple, so a reader of the old one is not disturbed."""
    while len(maps) < count:
        maps += (maps[-1] @ maps[-1] if maps else first(),)
    return maps


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
    """The moment dynamics of one system, derived once: its coefficient
    set ``co`` with drift A, offset b and generator ``Ahat`` = [[A, b],
    [0, 0]] of Phi, ||A||_2, the Hurwitz margin (largest eigenvalue real
    part), the isolated drifts ``D`` with A0 = sum_l E_l D_l, the closure
    alpha + beta . mu and its defect, whether the diffusion vanishes, the
    last :meth:`march` built, the maps of the last :meth:`trajectory`'s
    longest run, the steady state of :meth:`mean_limit` and :meth:`limits`
    and the Lyapunov norm of :meth:`contraction`.  :meth:`of` shares one
    per system."""

    def __init__(self, sys):
        co = coefficients(sys)
        self.n = n = sys.n
        sc = sys.sc
        self.alpha, self.beta, self.re_beta = sc.alpha, sc.beta, sc.re_beta
        self.D = np.ascontiguousarray(2.0 * sc.theta.transpose(2, 1, 0))  # 2 Theta <> e_l
        #: The full second moment alpha + beta . mu is (mu, 1) @ moment_f on
        #: a real view: rows beta_l, then alpha.
        moment = np.concatenate([self.beta, self.alpha[None] + 0j])
        self.moment_f = np.ascontiguousarray(moment).view(float).reshape(n + 1, -1)
        self._set_drift(co)
        # Both forms of Lambda are affine in mu: agreement at 0 and at a fixed pseudo-
        # random Weyl sequence (no numpy.random import) is a randomized test (Freivalds 1977)
        self._probes = (np.zeros(n), 2.0 * (np.arange(1, n + 1) * 0.6180339887498949 % 1.0) - 1.0)
        sandwiches = [lambda_sandwich(sys, mu) for mu in self._probes]
        #: No diffusion at any mean, so V is identically zero.
        self.noiseless = not any(s.any() for s in sandwiches)
        self._coupling_defect = max(_defect(*self._closure_form(co.Atilde, co.b, mu), s)
                                    for mu, s in zip(self._probes, sandwiches))

    def _set_drift(self, co):
        """Take the coefficient set ``co`` and derive what depends on A."""
        self.co = co
        self.A, self.b = co.A, co.b
        self.Ahat = np.zeros((self.n + 1, self.n + 1))
        self.Ahat[:-1, :-1], self.Ahat[:-1, -1] = co.A, co.b
        self.norm_a = spectral_norm(co.A)
        self.margin = hurwitz_margin(co.A)
        #: Norm bound of Ahat: ||[A b]||_2 <= sqrt(||A||_2^2 + |b|^2).
        self.rho = max(1.0, math.hypot(self.norm_a, float(np.linalg.norm(co.b))))
        self._march = None
        self._traj_maps = {}  # {spacing: maps over 2^i spacings}, one entry at most
        self._mu_inf = self._limits = None
        self._contraction = None
        self._defect = None

    def _with_energy(self, sys):
        """The dynamics of ``sys``, this system at another energy vector.

        Only the isolated drift A0 depends on the energy, so the new
        instance shares the coupling drift, the offset, the isolated drifts
        and the sandwich part of the closure check, and derives the rest.
        """
        prop = copy.copy(self)
        A0 = _isolated_drift(sys)
        prop._set_drift(replace(self.co, A0=A0, A=A0 + self.co.Atilde))
        return prop

    @classmethod
    def of(cls, sys):
        """The propagator of ``sys``, built on first use and kept on it.

        A ``SystemParams`` is frozen with read-only arrays, so the kept
        dynamics cannot go stale; ``replace`` and ``with_energy`` make new
        instances with their own, where ``with_energy`` of a system whose
        dynamics exist reuses the energy-independent parts.
        """
        prop = sys.__dict__.get("_propagator")
        if prop is None:
            prop = sys.__dict__["_propagator"] = cls(sys)
        return prop

    def _closure_form(self, A, b, mu, c=1.0):
        """The closure form t - X - X^H, with t = beta . (A mu + c b), X = A S
        + b mu^T and S = c alpha + beta . mu, and the largest of its terms."""
        beta = self.beta.reshape(self.n, -1)
        t = ((A @ mu + c * b) @ beta).reshape(self.alpha.shape)
        X = A @ (c * self.alpha + (mu @ beta).reshape(t.shape)) + np.outer(b, mu)
        return t - X - X.conj().T, max(np.abs(t).max(), np.abs(X).max())

    def _require_closure(self):
        """Raise :class:`StructureDefectError` unless the closure form of
        Lambda (see :meth:`lam`) matches the sandwich at the probe means,
        checked once per system, and its isolated part beta . (A0 mu) - A0
        S - S A0^T vanishes there, checked once per drift."""
        if self._defect is None:
            zero = self._probes[0]
            self._defect = max(self._coupling_defect,
                               *(_defect(*self._closure_form(self.co.A0, zero, mu))
                                 for mu in self._probes))
        if self._defect > CLOSURE_TOL:
            raise StructureDefectError(
                f"the second moment leaves the product closure alpha + beta . mu "
                f"(relative defect {self._defect:.3e} > {CLOSURE_TOL:g}); the "
                f"structure constants are not associative")

    def mean_limit(self):
        """The steady-state mean mu_inf = -A^{-1} b of a Hurwitz drift,
        derived by the first call that succeeds and kept read-only; a drift
        that is not Hurwitz raises :class:`NotHurwitzError` on every call."""
        _require_margin(self.margin, context="the steady-state mean")
        if self._mu_inf is None:
            self._mu_inf = -np.linalg.solve(self.A, self.b)
            self._mu_inf.setflags(write=False)
        return self._mu_inf

    def limits(self):
        """Steady-state mean, diffusion matrix and second moment
        (mu_inf, Lambda_inf, P_inf) of a Hurwitz drift, read off the closure:
        P_inf = alpha + Re beta . mu_inf - mu_inf mu_inf^T, which solves A P
        + P A^T + Re Lambda_inf = 0 since S' = 0 at A mu_inf + b = 0.
        Kept like :meth:`mean_limit`, which alone serves the march.
        """
        mu_inf = self.mean_limit()
        if self._limits is None:
            lam_inf = self.lam(mu_inf)
            P_inf = self.alpha + np.tensordot(mu_inf, self.re_beta, 1) - np.outer(mu_inf, mu_inf)
            P_inf = (P_inf + P_inf.T) / 2.0
            for arr in (lam_inf, P_inf):
                arr.setflags(write=False)
            self._limits = (mu_inf, lam_inf, P_inf)
        return self._limits

    def contraction(self):
        """The Lyapunov norm |x|_X = |X^{1/2} x| in which E_s = e^{sA}
        decays at a known rate, or None.

        X solves A^T X + X A = -I.  If X > 0 and r = ||A^T X + X A + I||_2
        <= 1/2, then d/ds |E_s x|_X^2 <= -(1 - r) |E_s x|^2 <= -(1 - r) /
        lambda_max(X) |E_s x|_X^2, so for every s >= 0

            ||X^{1/2} E_s X^{-1/2}||_2 <= exp(-rate s),   rate = (1 - r) / (2 lambda_max(X))

        (Trefethen & Embree, "Spectra and Pseudospectra", 2005).  Returns
        (X^{1/2}, X^{-1/2}, rate, kappa(X)), derived once per drift; r
        includes a bound on the roundoff of the residual.  A drift that is
        not Hurwitz, or an X that fails the check or has kappa(X) >
        ``KAPPA_MAX``, has none.
        """
        if self._contraction is None:
            self._contraction = self._lyapunov_norm() or ()
        return self._contraction or None

    def _lyapunov_norm(self):
        if self.margin >= -HURWITZ_TOL:
            return None
        A, n = self.A, self.n
        X = solve_lyapunov(A.T, np.eye(n))
        w, v = np.linalg.eigh(X)
        if not w[0] > 0.0 or w[-1] > KAPPA_MAX * w[0]:
            return None
        res = A.T @ X + X @ A + np.eye(n)
        r = spectral_norm(res) + 4.0 * n * np.finfo(float).eps * (self.norm_a * w[-1] + 1.0)
        if r > 0.5:
            return None
        root = np.sqrt(w)
        return v * root @ v.T, v / root @ v.T, (1.0 - r) / (2.0 * w[-1]), w[-1] / w[0]

    def lam(self, mu, c=1.0):
        """Diffusion matrix Lambda(mu), Hermitian, or with ``c`` = 0 its
        linear part at ``mu``: the closure form with the coupling drift
        Atilde.  The form with the drift A adds the isolated part, which
        vanishes as the isolated flow preserves products; without it Lambda
        is exactly zero without coupling, at any energy."""
        self._require_closure()
        return self._closure_form(self.co.Atilde, self.b, mu, c)[0]

    def transition(self, h):
        """The transition matrix Phi_h = exp(h [[A, b], [0, 0]]), which
        maps (mu, 1) at t to (mu, 1) at t + h."""
        n = self.n
        E, psi = expm_psi(self.A, h)
        Phi = np.zeros((n + 1, n + 1))
        Phi[:n, :n], Phi[:n, n], Phi[n, n] = E, psi @ self.b, 1.0
        return Phi

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

    def march(self, init, Sigma, step):
        """The :class:`DeviationMarch` of Delta = <L, Phi_t^T>, L of
        :meth:`functional`, on the grid k * ``step``, and its state x0 =
        Phi_0 = I at t = 0.

        The last march built is kept, with its maps and rows, and a later
        call with the same L and step (another eps) reuses it; a new L on
        the same step reuses its maps.  So a system keeps one row table and
        the march maps of one step.
        """
        L = self.functional(init, Sigma)
        march = self._march
        if march is None or march.step != step or not np.array_equal(march.L, L):
            maps = march.maps if march is not None and march.step == step else ()
            march = self._march = DeviationMarch(self, L, step, maps)
        return march, np.eye(self.n + 1).ravel()

    def trajectory(self, init, Sigma, grid):
        """(mu, V, Delta) at the nodes of ``grid``.

        U_t = Phi_t Z Phi_t^T has the last column (mu_t, 1), so mu and V are
        read off U_t.  The spacings of :func:`step_spacings` split the grid
        into runs of equal steps.  Within a run the nodes [k, k + m) come
        from the nodes [k - m, k) by the map M over m = 1, 2, 4, ... steps
        up to ``BLOCK``, then ``BLOCK``: Phi_t^T moves by one product with
        M^T, U_t by a sandwich, and Delta = <L, Phi_t^T> by <L (M - I),
        Phi_t^T>, a sum free of the O(|L|) terms that cancel in Delta at
        short times.  Phi_t^T and U_t are kept for the last ``BLOCK`` nodes
        only, so the output is the only array the size of the grid.  The
        maps over 2^i spacings are built once per spacing in a call; those
        of the longest run are kept for the next call.
        """
        n, n1, N = self.n, self.n + 1, grid.size
        L = self.functional(init, Sigma)
        h = step_spacings(grid)
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]]).tolist()
        ends = starts[1:] + [h.size]
        h = h.tolist()
        levels = BLOCK.bit_length()  # maps over 1, 2, 4, ..., BLOCK steps
        # The maps are built before the output exists, so their work arrays
        # do not add to its size.
        built, runs = dict(self._traj_maps), []
        for s, e in zip(starts, ends):
            built[h[s]] = _doubled(built.get(h[s], ()), min((e - s).bit_length(), levels),
                                   lambda: self.transition(h[s]))
            runs.append((s, e, built[h[s]]))
        s, e, _ = max(runs, key=lambda run: run[1] - run[0])
        self._traj_maps = {h[s]: built[h[s]]} if e - s > 1 else {}

        mu = np.empty((N, n))
        V = np.zeros((N, n, n), dtype=complex) if self.noiseless else np.empty((N, n, n), complex)
        Vf = V.view(float).reshape(N, 2 * n * n)
        delta = np.empty(N)
        mu[0], V[0], delta[0] = init.mu0, 0.0, 0.0
        # Phi_t^T and U_t at the node s + r of a run, in slot r % BLOCK
        PhiT = np.empty((BLOCK, n1, n1))
        U = np.empty((BLOCK, n1, n1), dtype=complex)
        Uf = U.view(float).reshape(BLOCK * n1, 2 * n1)
        PhiT[0] = np.eye(n1)
        U[0, :n, :n], U[0, :n, n], U[0, n, :n], U[0, n, n] = init.Pi, init.mu0, init.mu0, 1.0
        for s, e, maps in runs:
            maps2 = np.zeros((len(maps), 2 * n1, 2 * n1))  # M^T kron I_2, on float views
            maps2[:, ::2, ::2] = maps2[:, 1::2, 1::2] = np.transpose(maps, (0, 2, 1))
            rises = (L @ (maps - np.eye(n1))).reshape(len(maps), -1)  # L (M - I)
            k, i = s + 1, 0  # the node k comes from the node k - 2^i, in slot 0
            while k <= e:
                M, m = maps[i], 1 << i
                b = min(m, e + 1 - k)
                j, dst = (k - s) % BLOCK, slice(k, k + b)
                delta[dst] = delta[k - m:k - m + b] + PhiT[:b].reshape(b, n1 * n1) @ rises[i]
                PhiT[j:j + b] = (PhiT[:b].reshape(b * n1, n1) @ M.T).reshape(b, n1, n1)
                # Phi U Phi^T, both products on real views of the stack U
                np.matmul(np.matmul(M, U[:b].view(float)).reshape(b * n1, 2 * n1), maps2[i],
                          out=Uf[j * n1:(j + b) * n1])
                mu[dst] = U[j:j + b, :n, n].real
                if not self.noiseless:
                    np.matmul(U[j:j + b, :, n].real, self.moment_f, out=Vf[dst])
                    V[dst] -= U[j:j + b, :n, :n]
                k, i = k + b, min(i + 1, levels - 1)
            PhiT[0], U[0] = PhiT[(e - s) % BLOCK], U[(e - s) % BLOCK]
        return mu, V, delta


@dataclass(frozen=True)
class MarchResult:
    """Outcome of marching Delta over the nodes t0 + k * step.

    If ``crossed``, Delta(t) = ``delta`` <= threshold < ``delta_next`` =
    Delta(t + step) and ``state`` belongs to t; otherwise t is the final
    node.  ``sup_delta`` is the largest Delta at the nodes marched below
    the threshold, the starting node included.
    """

    crossed: bool
    t: float
    delta: float
    delta_next: float
    state: np.ndarray
    sup_delta: float


class DeviationMarch:
    """Delta = <L, Phi_t^T> on the node grid k * step, for one functional L.

    The state x is Phi_t^T = [[E_t^T, 0], [w_t^T, 1]], flattened; kept
    transposed, it moves over s steps, and a row is pulled back over
    them, by a product from the right (with Phi_s^T and Phi_s).  Row j of
    the table holds L Phi_step^(j + 1), so Delta at the next nodes is one
    product of the table with the state.  The rows double, by one matrix
    product, when a run needs more; ``cap``, fixed by ``ROW_BUDGET``,
    bounds the nodes tested at once and so the rows.

    The maps over 2^i steps, the rows and the Taylor rows of
    :meth:`refine` are built once for every call that shares the march; a
    run still tests chunks of 1, 2, 4, ... nodes however many rows are
    kept.  The limit Delta_inf and the bound of :meth:`decay_bound` on the
    approach to it are kept the same way.
    """

    def __init__(self, prop, L, step, maps=()):
        self.prop, self.step, self.L, self.n1 = prop, step, L, len(L)
        self.cap = 2 ** max(0, int(math.log2(ROW_BUDGET / (8 * L.size))))
        self.maps = maps  # Phi over 1, 2, 4, ... steps, grown by _maps
        self.rows = (L @ self._maps(1)[0]).reshape(1, -1)
        self._taylor = self._piece = self._limit = self._bound = None

    def _taylor_rows(self, terms):
        """The rows L Ahat^k / k!, k = 0 ... ``terms``, with Ahat =
        [[A, b], [0, 0]] the generator of Phi: their product with a state x
        gives the Taylor coefficients of Delta in time about x."""
        rows = [self.L]
        for k in range(1, terms + 1):
            rows.append(rows[-1] @ self.prop.Ahat / k)
        return np.array(rows).reshape(terms + 1, -1)

    def _maps(self, count):
        """The first ``count`` transition matrices over 2^i steps."""
        maps = self.maps = _doubled(self.maps, count, lambda: self.prop.transition(self.step))
        return maps

    def _push(self, Phi, x):
        """The state x moved by the transition matrix Phi."""
        return (x.reshape(self.n1, self.n1) @ Phi.T).ravel()

    def _advance(self, x, nodes):
        maps = self._maps(nodes.bit_length())
        for i in range(nodes.bit_length()):
            if nodes >> i & 1:
                x = self._push(maps[i], x)
        return x

    def _grow(self, rows):
        """The rows for twice as many nodes as ``rows``, kept for later
        calls unless longer ones are."""
        k, n1 = len(rows), self.n1
        i = k.bit_length() - 1  # the rows span 2^i steps
        ahead = rows.reshape(k * n1, n1) @ self._maps(i + 1)[i]
        rows = np.concatenate([rows, ahead.reshape(k, -1)])
        if len(rows) > len(self.rows):
            self.rows = rows
        return rows

    def delta(self, x):
        return float(self.L.ravel() @ x)

    def limit(self):
        """Delta_inf = <L, Phi_inf^T> = g . mu_inf + L_nn of a Hurwitz
        drift, with g the last row of L; otherwise NotHurwitzError."""
        if self._limit is None:
            self._limit = float(self.L[-1, :-1] @ self.prop.mean_limit() + self.L[-1, -1])
        return self._limit

    def decay_bound(self):
        """(B0, rate) with |Delta(s) - Delta_inf| <= B0 e^{-rate s} for
        every s >= 0, or None where :meth:`Propagator.contraction` has no
        Lyapunov norm.

        Phi_s^T = [[E_s^T, 0], [w_s^T, 1]] with w_s = (I - E_s) mu_inf, so
        Delta(s) - Delta_inf = tr(K E_s) with K = L11 - mu_inf g^T, and
        tr(K E_s) = tr(M X^{1/2} E_s X^{-1/2}) with M = X^{1/2} K X^{-1/2}
        is at most ||M||_* e^{-rate s}.  B0 is that nuclear norm, raised
        by a relative allowance of 16 n^2 kappa(X) eps for its roundoff.
        """
        if self._bound is None:
            root = self.prop.contraction()
            if root is None:
                self._bound = ()
            else:
                Xh, Xih, rate, kappa = root
                n = self.n1 - 1
                K = self.L[:n, :n] - np.outer(self.prop.mean_limit(), self.L[n, :n])
                nuclear = float(np.linalg.svd(Xh @ K @ Xih, compute_uv=False).sum())
                self._bound = (nuclear * (1.0 + 16.0 * n * n * kappa * np.finfo(float).eps), rate)
        return self._bound or None

    def deltas_ahead(self, x, nodes):
        """Delta at the next ``nodes`` nodes after the state x."""
        rows = self.rows
        while len(rows) < nodes:
            rows = self._grow(rows)
        return rows[:nodes] @ x

    def run(self, x, t0, nsteps, threshold):
        """March ``nsteps`` nodes from the node t0 (state x) to the first
        node above ``threshold``; non-finite values raise
        :class:`IntegrationError`.

        The nodes are tested in chunks of 1, 2, 4, ... nodes, a chunk
        twice as long after each full one, up to ``cap``.
        """
        done, chunk = 0, 1
        sup = d_prev = self.delta(x)
        while done < nsteps:
            m = min(chunk, nsteps - done)
            d = self.deltas_ahead(x, m)
            above = ~(d <= threshold)
            if above.any():
                j = int(np.argmax(above))
                if not math.isfinite(d[j]):
                    raise IntegrationError(
                        f"deviation march produced non-finite values near "
                        f"t={t0 + (done + j) * self.step:.6g} (step {self.step:.3e})")
                if j:
                    sup, d_prev = max(sup, float(d[:j].max())), float(d[j - 1])
                return MarchResult(True, t0 + (done + j) * self.step, d_prev,
                                   float(d[j]), self._advance(x, j), sup)
            sup, d_prev = max(sup, float(d.max())), float(d[-1])
            x = self._advance(x, m)
            done += m
            if m == chunk < self.cap:
                chunk *= 2
        return MarchResult(False, t0 + nsteps * self.step, d_prev, math.nan, x, sup)

    def refine(self, x, t_lo, threshold, tol):
        """Shrink the bracket [t_lo, t_lo + step] of a crossing to width
        ``tol`` by bisection on the exact Taylor expansion of Delta about
        the left node (state x), keeping Delta(lo) <= threshold < Delta(hi).

        A step longer than 1 / rho is cut into pieces that are searched in
        order, so the series is only summed where it converges fast; the
        state crosses a piece by the exact map over it.
        """
        t_end = t_lo + self.step
        pieces = max(1, math.ceil(self.step * self.prop.rho))
        width = self.step / pieces
        if self._taylor is None:
            self._taylor = self._taylor_rows(_taylor_terms(width * self.prop.rho))
        a = t_lo
        for i in range(pieces):
            coef = (self._taylor @ x).tolist()
            if i == pieces - 1:
                hi = t_end
            elif _horner(coef, width) > threshold:
                hi = a + width
            else:
                if self._piece is None:
                    self._piece = self.prop.transition(width)
                x = self._push(self._piece, x)
                a += width
                continue
            lo = a
            for _ in range(200):
                if hi - lo <= tol:
                    break
                mid = 0.5 * (lo + hi)
                if _horner(coef, mid - a) > threshold:
                    hi = mid
                else:
                    lo = mid
            return lo, hi
