"""Exact propagation of the moment dynamics.

For a closed algebra the mean obeys mu' = A mu + b, so (mu_t, 1) =
Phi_t (mu0, 1) with the transition matrix Phi_t = exp(t [[A, b], [0, 0]])
of order n + 1, Van Loan's block exponential ("Computing integrals
involving the matrix exponential", IEEE TAC 23(3), 1978) from
:func:`~qmemtime.linalg.expm_psi`.  Products close, X_j X_k = alpha_jk +
beta_jk . X, and the flow preserves them, so the full complex second
moment is alpha + beta . mu_t at every t (checked once per drift).  Both
the second moment of the noise response and the deviation then follow
from Phi_t alone:

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
:class:`Propagator` keeps them for one step and one functional at a time:
every eps of a tau(eps) curve reuses them, within ``ROW_BUDGET`` of rows
per system.  A march still tests chunks of 1, 2, 4, ... nodes in every
call, so its answer does not depend on which rows an earlier call left.
The powers that trajectories use are kept the same way.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (IntegrationError, InternalConsistencyError,
                     StructureDefectError)
from .linalg import _require_margin, _taylor_terms, expm_psi, hurwitz_margin, spectral_norm
from .model import _isolated_drift, coefficients, lambda_affine

#: Bytes allowed for a march's table of adjoint rows; this fixes the
#: longest chunk of nodes tested at once.
ROW_BUDGET = 1 << 20

#: Most grid nodes a trajectory advances by one map (a power of two).
BLOCK = 16

#: Largest defect of the closure S = alpha + Re beta . mu under the
#: dynamics, relative to the size of its terms, that a march accepts.
CLOSURE_TOL = 1e-10


def _horner(coef, s):
    acc = 0.0
    for c in reversed(coef):
        acc = acc * s + c
    return acc


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
    set ``co`` with drift A and offset b, ||A||_2, the Hurwitz margin
    (largest eigenvalue real part), the affine parts Lambda(mu) = lam0
    + sum_l mu_l lam_mu[l] and whether they vanish (no coupling), the
    closure alpha + beta . mu of the second moment, the maps of
    :meth:`doubling_maps`, the last :meth:`march` built, and the
    steady-state :meth:`limits`.  :meth:`of` shares one instance per
    system."""

    def __init__(self, sys):
        co = coefficients(sys)
        self.n = n = sys.n
        self.lam0, self.lam_mu = lambda_affine(sys)
        #: No diffusion at any mean, so V is identically zero.
        self.noiseless = not (self.lam0.any() or self.lam_mu.any())
        self.alpha, self.re_beta = sys.sc.alpha, sys.sc.re_beta.sections
        #: The full second moment alpha + beta . mu is (mu, 1) @ moment_f on
        #: a real view: rows beta_l, then alpha.
        moment = np.concatenate([sys.sc.beta.sections, self.alpha[None] + 0j])
        self.moment_f = np.ascontiguousarray(moment).view(float).reshape(n + 1, -1)
        self._set_drift(co)

    def _set_drift(self, co):
        """Take the coefficient set ``co`` and derive what depends on A."""
        self.co = co
        self.A, self.b = co.A, co.b
        self.norm_a = spectral_norm(co.A)
        self.margin = hurwitz_margin(co.A)
        #: Norm bound of the generator [[A, b], [0, 0]] of Phi:
        #: ||[A b]||_2 <= sqrt(||A||_2^2 + |b|^2).
        self.rho = max(1.0, math.hypot(self.norm_a, float(np.linalg.norm(co.b))))
        self._doubling = {}
        self._march = None
        self._traj_step = None
        self._limits = None
        self._closure = None

    def _with_energy(self, sys):
        """The dynamics of ``sys``, this system at another energy vector.

        Only the isolated drift A0 depends on the energy, so the new
        instance shares the coupling drift, the offset and the affine
        parts of Lambda, and derives A0 and what depends on A.
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

    def _require_closure(self):
        """Raise :class:`StructureDefectError` unless the dynamics keep S on
        the closure alpha + Re beta . mu: S' = A S + S A^T + Re Lambda(mu)
        + b mu^T + mu b^T minus sum_l mu_l' Re beta_l has a constant and a
        linear part in mu, both zero for associative constants.  Their
        size relative to that of the terms is derived once per drift."""
        if self._closure is None:
            A, b, alpha, rb, n = self.A, self.b, self.alpha, self.re_beta, self.n
            const = A @ alpha + alpha @ A.T + self.lam0.real - np.tensordot(b, rb, 1)
            b_el = b[None, :, None] * np.eye(n)[:, None, :]  # b e_l^T, for each l
            lin = (A @ rb + rb @ A.T + self.lam_mu.real + b_el + b_el.transpose(0, 2, 1)
                   - np.tensordot(A.T, rb, 1))
            scale = max(1.0, self.norm_a * max(np.abs(alpha).max(), np.abs(rb).max()),
                        np.abs(self.lam0).max(), np.abs(self.lam_mu).max(), np.abs(b).max())
            self._closure = max(np.abs(const).max(), np.abs(lin).max()) / scale
        if self._closure > CLOSURE_TOL:
            raise StructureDefectError(
                f"the second moment leaves the product closure alpha + Re beta . mu "
                f"(relative defect {self._closure:.3e} > {CLOSURE_TOL:g}); the "
                f"structure constants are not associative")

    def limits(self):
        """Steady-state mean, diffusion matrix and second moment
        (mu_inf, Lambda_inf, P_inf) of a Hurwitz drift.  P_inf = alpha +
        Re beta . mu_inf - mu_inf mu_inf^T is read off the closure and
        checked against A P_inf + P_inf A^T + Re Lambda_inf = 0.

        They depend only on the system, so the first call that succeeds
        derives them and keeps them, read-only; a drift that is not
        Hurwitz raises :class:`NotHurwitzError` on every call.
        """
        _require_margin(self.margin, context="the steady-state mean")
        if self._limits is None:
            self._require_closure()
            A = self.A
            mu_inf = -np.linalg.solve(A, self.b)
            lam_inf = self.lam(mu_inf)
            P_inf = self.alpha + np.tensordot(mu_inf, self.re_beta, 1) - np.outer(mu_inf, mu_inf)
            P_inf = (P_inf + P_inf.T) / 2.0
            resid = np.abs(A @ P_inf + P_inf @ A.T + lam_inf.real).max()
            if resid > 1e-10 * max(1.0, np.abs(lam_inf.real).max()):
                raise InternalConsistencyError(
                    f"algebraic Lyapunov residual {resid:.3e} exceeds 1e-10"
                )
            for arr in (mu_inf, lam_inf, P_inf):
                arr.setflags(write=False)
            self._limits = (mu_inf, lam_inf, P_inf)
        return self._limits

    def lam(self, mu):
        """Diffusion matrix Lambda(mu), Hermitian."""
        return self.lam0 + (mu @ self.lam_mu.reshape(self.n, -1)).reshape(self.n, self.n)

    def transition(self, h):
        """The transition matrix Phi_h = exp(h [[A, b], [0, 0]]), which
        maps (mu, 1) at t to (mu, 1) at t + h."""
        n = self.n
        E, psi = expm_psi(self.A, h)
        Phi = np.zeros((n + 1, n + 1))
        Phi[:n, :n], Phi[:n, n], Phi[n, n] = E, psi @ self.b, 1.0
        return Phi

    def doubling_maps(self, step, count):
        """The first ``count`` transition matrices of :meth:`transition`
        over 2^i steps of length ``step``.

        They depend only on the system and the step, so they are derived
        once and kept, for the step of the kept :meth:`march` and that of
        the longest run of the last :meth:`trajectory`.  Kept tuples are
        never modified, so a caller reads correct maps from the one it
        holds even if the kept entry is replaced or dropped meanwhile.
        """
        maps = self._doubling.get(step, ())
        while len(maps) < count:
            maps += (maps[-1] @ maps[-1] if maps else self.transition(step),)
            self._doubling[step] = maps
        return maps

    def _drop_maps(self):
        """Drop the doubling maps of every step but the kept march's and
        the one a trajectory keeps."""
        march = self._march
        keep = (self._traj_step, march.step if march else None)
        for step in list(self._doubling):
            if step not in keep:
                self._doubling.pop(step, None)

    def functional(self, init, Sigma):
        """The matrix L with Delta(t) = <L, Phi_t^T> for the initial
        moments ``init`` and the weighting ``Sigma``.

        On the closure S_t = Re E[X_t X_t^T] = alpha + Re beta . mu_t, so
        with mu_t = E_t mu0 + w_t and Pd = P - mu0 mu0^T,
        Delta = <Sigma, S> - 2 <Sigma Pd, E_t> - 2 mu_t^T Sigma mu0 + <Sigma, P>
        = <Sigma, alpha + P> + g . mu_t - 2 <Sigma Pd, E_t> with g_l =
        <Sigma, Re beta_l> - 2 (Sigma mu0)_l, which is <L, Phi_t^T>.
        """
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

        The last march built is kept, and a later call with the same L and
        step (another eps) reuses it.  Building another drops the maps of
        every step but its own and a trajectory's, so a system keeps one
        row table and the march maps of one step.
        """
        self._require_closure()
        L = self.functional(init, Sigma)
        march = self._march
        if march is None or march.step != step or not np.array_equal(march.L, L):
            march = self._march = DeviationMarch(self, L, step)
            self._drop_maps()
        return march, np.eye(self.n + 1).ravel()

    def trajectory(self, init, Sigma, grid):
        """(mu, V, Delta) at the nodes of ``grid``.

        U_t = Phi_t Z Phi_t^T has the last column (mu_t, 1), so mu, V and
        Delta are read off U_t and Phi_t^T (see the module docstring).
        The spacings of :func:`step_spacings` split the grid into runs of
        equal steps.  Within a run the nodes [k, k + m) come from the nodes
        [k - m, k) by the map over m steps, with m = 1, 2, 4, ... up to
        ``BLOCK`` and then m = ``BLOCK`` to the end of the run, so a block
        of nodes moves by a few matrix products: Phi_t^T by one product
        from the right, U_t by a sandwich.  Both are kept for the last
        ``BLOCK`` nodes only, so the output is the only array the size of
        the grid.  The maps are those of :meth:`doubling_maps`; those of
        the longest run stay kept for later calls, the others are dropped
        when they are built.
        """
        self._require_closure()
        n, n1, N = self.n, self.n + 1, grid.size
        L = self.functional(init, Sigma).ravel()
        h = step_spacings(grid)
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]]).tolist()
        ends = starts[1:] + [h.size]
        h = h.tolist()
        levels = BLOCK.bit_length()  # maps over 1, 2, 4, ..., BLOCK steps
        # The maps are built before the output exists, so their work arrays
        # do not add to its size.
        runs = [(s, e, self.doubling_maps(h[s], min((e - s).bit_length(), levels)))
                for s, e in zip(starts, ends)]
        s, e, _ = max(runs, key=lambda run: run[1] - run[0])
        self._traj_step = h[s] if e - s > 1 else None
        self._drop_maps()

        mu = np.empty((N, n))
        V = np.zeros((N, n, n), dtype=complex) if self.noiseless else np.empty((N, n, n), complex)
        Vf = V.view(float).reshape(N, 2 * n * n)
        delta = np.empty(N)
        mu[0], V[0], delta[0] = init.mu0, 0.0, 0.0
        # Phi_t^T and U_t at the node s + r of a run, in slot r % BLOCK
        PhiT = np.empty((BLOCK, n1, n1))
        U = np.empty((BLOCK, n1, n1), dtype=complex)
        PhiT[0] = np.eye(n1)
        U[0, :n, :n], U[0, :n, n], U[0, n, :n], U[0, n, n] = init.Pi, init.mu0, init.mu0, 1.0
        for s, e, maps in runs:
            k, i = s + 1, 0  # the node k comes from the node k - 2^i, in slot 0
            while k <= e:
                M, m = maps[i], 1 << i
                b = min(m, e + 1 - k)
                j, dst = (k - s) % BLOCK, slice(k, k + b)
                PhiT[j:j + b] = (PhiT[:b].reshape(b * n1, n1) @ M.T).reshape(b, n1, n1)
                # Phi U Phi^T, with Phi U taken on a real view of the stack U
                np.matmul(np.matmul(M, U[:b].view(float)).view(complex).reshape(b * n1, n1),
                          M.T, out=U[j:j + b].reshape(b * n1, n1))
                delta[dst] = PhiT[j:j + b].reshape(b, n1 * n1) @ L
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
    the threshold, the starting node included.  ``chunk`` is the size of
    the next chunk of nodes to test, for a run that continues this one.
    """

    crossed: bool
    t: float
    delta: float
    delta_next: float
    state: np.ndarray
    sup_delta: float
    chunk: int


class DeviationMarch:
    """Delta = <L, Phi_t^T> on the node grid k * step, for one functional L.

    The state x is Phi_t^T = [[E_t^T, 0], [w_t^T, 1]], flattened; kept
    transposed, it moves over s steps, and a row is pulled back over
    them, by a product from the right (with Phi_s^T and Phi_s).  Row j of
    the table holds L Phi_step^(j + 1), so Delta at the next nodes is one
    product of the table with the state.  The rows double, by one matrix
    product, when a run needs more, up to ``ROW_BUDGET``; the table's
    storage is taken once at that cap, so growing it copies nothing.

    The rows and the Taylor rows of :meth:`refine` are built once for
    every call that shares the march; a run still tests chunks of 1, 2,
    4, ... nodes however many rows are kept.
    """

    def __init__(self, prop, L, step):
        self.prop, self.step, self.L, self.n1 = prop, step, L, len(L)
        self.cap = 2 ** max(0, int(math.log2(ROW_BUDGET / (8 * L.size))))
        self._table = np.empty((self.cap, L.size))
        self.rows = self._table[:1]
        np.matmul(L, prop.doubling_maps(step, 1)[0], out=self.rows.reshape(L.shape))
        self._taylor = self._piece = None

    def _taylor_rows(self, terms):
        """The rows L Ahat^k / k!, k = 0 ... ``terms``, with Ahat =
        [[A, b], [0, 0]] the generator of Phi: their product with a state x
        gives the Taylor coefficients of Delta in time about x."""
        Ahat = np.zeros_like(self.L)
        Ahat[:-1, :-1], Ahat[:-1, -1] = self.prop.A, self.prop.b
        rows = [self.L]
        for k in range(1, terms + 1):
            rows.append(rows[-1] @ Ahat / k)
        return np.array(rows).reshape(terms + 1, -1)

    def _push(self, Phi, x):
        """The state x moved by the transition matrix Phi."""
        return (x.reshape(self.n1, self.n1) @ Phi.T).ravel()

    def _advance(self, x, nodes):
        maps = self.prop.doubling_maps(self.step, nodes.bit_length())  # 2^i steps
        for i in range(nodes.bit_length()):
            if nodes >> i & 1:
                x = self._push(maps[i], x)
        return x

    def _grow(self, rows):
        """The rows for twice as many nodes as ``rows``, kept for later
        calls unless longer ones are.  Calls that share this march may grow
        it at once: each reads only the rows it built or found, and all of
        them write equal values."""
        k, n1 = len(rows), self.n1
        i = k.bit_length() - 1  # the rows span 2^i steps
        table = self._table
        if 2 * k > len(table):  # more nodes at once than the cap
            table = self._table = np.concatenate([rows, np.empty_like(rows)])
        np.matmul(rows.reshape(k * n1, n1), self.prop.doubling_maps(self.step, i + 1)[i],
                  out=table[k:2 * k].reshape(k * n1, n1))
        if 2 * k > len(self.rows):
            self.rows = table[:2 * k]
        return table[:2 * k]

    def delta(self, x):
        return float(self.L.ravel() @ x)

    def deltas_ahead(self, x, nodes):
        """Delta at the next ``nodes`` nodes after the state x."""
        rows = self.rows
        while len(rows) < nodes:
            rows = self._grow(rows)
        return rows[:nodes] @ x

    def run(self, x, t0, nsteps, threshold, chunk=1):
        """March ``nsteps`` nodes from the node t0 (state x) to the first
        node above ``threshold``; non-finite values raise
        :class:`IntegrationError`.

        The nodes are tested in chunks of ``chunk`` nodes, a chunk twice
        as long after each full one, up to ``cap``; the result's ``chunk``
        continues that schedule.
        """
        done = 0
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
                                   float(d[j]), self._advance(x, j), sup, chunk)
            sup, d_prev = max(sup, float(d.max())), float(d[-1])
            x = self._advance(x, m)
            done += m
            if m == chunk < self.cap:
                chunk *= 2
        return MarchResult(False, t0 + nsteps * self.step, d_prev, math.nan, x, sup, chunk)

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
