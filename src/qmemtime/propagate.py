"""Exact propagation of the moment dynamics by affine step maps.

For a closed algebra the mean and the second moment obey a linear affine
ODE, mu' = A mu + b and V' = A V + V A^T + Lambda(mu) with Lambda affine in
mu, so over a step h they move by an exact affine map

    mu -> E mu + w,    V -> E V E^T + sum_l mu_l G_l + G_0,

with E = e^{hA} and w = psi(h) b.  The map is the exponential of the
generator of the augmented state (V, mu, 1), as in Van Loan, "Computing
integrals involving the matrix exponential", IEEE TAC 23(3), 1978.  That
generator has order n^2 + n + 1 and is never formed: its action on the n
unit means and the constant state is summed as a Taylor series over a
short step, and the map is scaled back up by composition.

A trajectory moves a whole block of grid nodes at once: within a run of
equal spacings, the nodes [k, k + m) follow from the nodes [k - m, k) by
the map over m steps, for m = 1, 2, 4, ... up to ``BLOCK`` and then m =
``BLOCK`` (see :meth:`Propagator.trajectory`).

The deviation Delta(t) is a *linear* functional of the real state
(S, E_t, mu, 1), with S = Re E[X_t X_t^T] the full second moment and
E_t = e^{tA}.  :class:`DeviationMarch` uses that to test a whole chunk of
grid nodes with one matrix-vector product against precomputed adjoint
rows, to jump across the chunk with a composed map, and to refine a
bracketed node on the exact Taylor expansion of Delta.  The maps of that
state over 2^i steps depend only on the system and the step, so a
:class:`Propagator` derives them once per step and every march with that
step shares them; the rows depend on the initial moments and the
weighting, and each march builds its own.  The maps of (V, mu) that
trajectories use are kept the same way, for one step per system.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError, InternalConsistencyError
from .linalg import (_require_margin, _taylor_terms, hurwitz_margin,
                     solve_lyapunov, spectral_norm)
from .model import _isolated_drift, coefficients, lambda_affine

#: Bytes allowed for a march's table of adjoint rows; this fixes the
#: longest chunk of nodes tested at once.
ROW_BUDGET = 1 << 20

#: Most grid nodes a trajectory advances by one map (a power of two).
BLOCK = 16


def _horner(coef, s):
    acc = 0.0
    for c in reversed(coef):
        acc = acc * s + c
    return acc


def step_spacings(grid):
    """The spacings of ``grid``, where those within 4 eps grid[-1] above
    the smallest of a group are all replaced by the group's first in grid
    order: roundoff splits the one true spacing of a uniform grid into
    several floats, which then share one step map."""
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


@dataclass(frozen=True)
class StepMap:
    """Exact affine map of the moments over one step:
    mu -> E mu + w and V -> E V E^T + sum_l mu_l G[l] + G0."""

    E: np.ndarray
    w: np.ndarray
    G: np.ndarray
    G0: np.ndarray

    def then(self, nxt):
        """This step followed by ``nxt``."""
        E2, n = nxt.E, nxt.E.shape[0]
        Gn = nxt.G.reshape(n, n * n)
        return StepMap(E=E2 @ self.E, w=E2 @ self.w + nxt.w,
                       G=E2 @ self.G @ E2.T + (self.E.T @ Gn).reshape(n, n, n),
                       G0=E2 @ self.G0 @ E2.T + (self.w @ Gn).reshape(n, n) + nxt.G0)


class Propagator:
    """The moment dynamics of one system, derived once: its coefficient
    set ``co`` with drift A and offset b, ||A||_2, the Hurwitz margin
    (largest eigenvalue real part), the affine parts Lambda(mu) = lam0
    + sum_l mu_l lam_mu[l], the maps of :meth:`doubling_maps` for each
    step asked for, and the steady-state :meth:`limits`.  :meth:`of`
    shares one instance per system."""

    def __init__(self, sys):
        co = coefficients(sys)
        n = sys.n
        self.n = n
        self.lam0, self.lam_mu = lambda_affine(sys)
        # S = Re E[X X^T] has the source Re Lambda(mu) + b mu^T + mu b^T.
        b_el = co.b[None, :, None] * np.eye(n)[:, None, :]
        self.s_source = (self.lam0.real,
                         self.lam_mu.real + b_el + b_el.transpose(0, 2, 1))
        self._sources = {"S": self.s_source, "V": (self.lam0, self.lam_mu)}
        self._set_drift(co)

    def _set_drift(self, co):
        """Take the coefficient set ``co`` and derive what depends on A."""
        self.co = co
        self.A, self.b = co.A, co.b
        self.norm_a = spectral_norm(co.A)
        self.margin = hurwitz_margin(co.A)
        #: Growth-rate bound of the generator (A kron I + I kron A).
        self.rho = 2.0 * max(1.0, self.norm_a)
        self._doubling = {}
        self._limits = None

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

    def limits(self):
        """Steady-state mean, diffusion matrix and second moment
        (mu_inf, Lambda_inf, P_inf) of a Hurwitz drift, where
        A P_inf + P_inf A^T + Re Lambda_inf = 0.

        They depend only on the system, so the first call that succeeds
        derives them and keeps them, read-only; a drift that is not
        Hurwitz raises :class:`NotHurwitzError` on every call.
        """
        _require_margin(self.margin, context="the steady-state mean")
        if self._limits is None:
            A = self.A
            mu_inf = -np.linalg.solve(A, self.b)
            lam_inf = self.lam(mu_inf)
            P_inf = solve_lyapunov(A, lam_inf.real)
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

    def generate(self, V, mu, c, source):
        """Generator of the augmented dynamics at the state (V, mu, c), or at
        a batch of them: (A V + V A^T + c Q0 + sum_l mu_l Q[l], A mu + c b)
        for the source (Q0, Q); the constant c does not move."""
        Q0, Q = source
        A, n = self.A, self.n
        return (A @ V + V @ A.T + (mu @ Q.reshape(n, n * n)).reshape(V.shape)
                + np.multiply.outer(c, Q0),
                mu @ A.T + np.multiply.outer(c, self.b))

    def step_map(self, h, source=None):
        """Exact map over a step h of the second moment with the source
        Q0 + sum_l mu_l Q[l] (default: Lambda(mu), which moves V)."""
        source = source if source is not None else (self.lam0, self.lam_mu)
        n = self.n
        halvings = max(0, math.ceil(math.log2(h * self.rho / 0.5)))
        hs = h / 2 ** halvings
        # Taylor terms of e^{hs G} on the states (V=0, mu=e_l) and (V=0, mu=0, 1).
        X = np.zeros((n + 1, n, n), dtype=source[1].dtype)
        m = np.eye(n + 1, n)
        c = np.eye(n + 1)[n]
        sum_X, sum_m = X.copy(), m.copy()
        for k in range(1, _taylor_terms(hs * self.rho) + 1):
            X, m = self.generate(X, m, c, source)
            X *= hs / k
            m *= hs / k
            c = 0.0 * c
            sum_X += X
            sum_m += m
        M = StepMap(E=np.ascontiguousarray(sum_m[:n].T), w=sum_m[n],
                    G=sum_X[:n], G0=sum_X[n])
        for _ in range(halvings):
            M = M.then(M)
        return M

    def doubling_maps(self, step, count, source="S"):
        """The first ``count`` maps over 2^i steps of length ``step``: of
        the march state (S, E_t, mu, 1) for ``source`` "S", or of the
        moments (V, mu), whose source is Lambda(mu), for ``source`` "V".

        They depend only on the system, the source and the step, so they
        are derived once and kept: every :class:`DeviationMarch` with that
        step shares the "S" maps, and a :meth:`trajectory` keeps the "V"
        maps of one step only.  Kept tuples are never modified, so a caller
        reads correct maps from the one it holds even if the kept entry is
        replaced or dropped meanwhile.
        """
        key = (source, step)
        maps = self._doubling.get(key, ())
        while len(maps) < count:
            maps += (maps[-1].then(maps[-1]) if maps
                     else self.step_map(step, self._sources[source]),)
            self._doubling[key] = maps
        return maps

    def trajectory(self, init, Sigma, grid):
        """(mu, V, Delta) at the nodes of ``grid``.

        The spacings of :func:`step_spacings` split the grid into runs of
        equal steps.  Within a run the nodes [k, k + m) come from the nodes
        [k - m, k) by the map over m steps, with m = 1, 2, 4, ... up to
        ``BLOCK`` and then m = ``BLOCK`` to the end of the run, so a block
        of nodes moves by a few matrix products.  The maps are the "V"
        maps of :meth:`doubling_maps`; those of the longest run stay kept
        for later calls, the others are dropped when they are built.

        Delta = <Sigma, Re V> + |F(mu - mu0)|^2
        + <Sigma, (E_t - I)(P - mu0 mu0^T)(E_t - I)^T>.  E_t is kept for
        the last ``BLOCK`` nodes only, and the last two parts are summed
        block by block.
        """
        n, nn = self.n, self.n * self.n
        mu0 = init.mu0
        Pd = init.P - np.outer(mu0, mu0)
        eye = np.eye(n)
        h = step_spacings(grid)
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]]).tolist()
        ends = starts[1:] + [h.size]
        h = h.tolist()
        levels = BLOCK.bit_length()  # maps over 1, 2, 4, ..., BLOCK steps
        # The maps are built before the output exists, so their work arrays
        # do not add to its size.
        runs = [(s, e, self.doubling_maps(h[s], min((e - s).bit_length(), levels), "V"))
                for s, e in zip(starts, ends)]
        s, e, _ = max(runs, key=lambda run: run[1] - run[0])
        kept = ("V", h[s]) if e - s > 1 else None
        for key in list(self._doubling):
            if key[0] == "V" and key != kept:
                self._doubling.pop(key, None)

        mu = np.empty((grid.size, n))
        V = np.empty((grid.size, n, n), dtype=complex)
        delta = np.zeros(grid.size)
        mu[0], V[0] = mu0, 0.0
        EtT = np.empty((BLOCK, n, n))  # E_t^T at the node s + r of a run, in slot r % BLOCK
        EtT[0] = eye
        for s, e, maps in runs:
            k, i = s + 1, 0  # the node k comes from the node k - 2^i
            while k <= e:
                M, m = maps[i], 1 << i
                b = min(m, e + 1 - k)
                src, dst = slice(k - m, k - m + b), slice(k, k + b)
                # E V E^T, with E V taken on a real view of the stack V
                np.matmul(np.matmul(M.E, V[src].view(float)).view(complex).reshape(b * n, n),
                          M.E.T, out=V[dst].reshape(b * n, n))
                G = M.G.view(float).reshape(n, 2 * nn)
                V[dst] += (mu[src] @ G).view(complex).reshape(b, n, n)
                V[dst] += M.G0
                np.matmul(mu[src], M.E.T, out=mu[dst])
                mu[dst] += M.w
                j = (k - s) % BLOCK
                EtT[j:j + b] = (EtT[:b].reshape(b * n, n) @ M.E.T).reshape(b, n, n)
                Q, dm = EtT[j:j + b] - eye, mu[dst] - mu0  # Q = (E_t - I)^T
                delta[dst] = (np.einsum("kij,kij->k",
                                        (Q.reshape(b * n, n) @ Sigma).reshape(b, n, n),
                                        np.matmul(Pd, Q))
                              + np.einsum("ki,ij,kj->k", dm, Sigma, dm))
                k, i = k + b, min(i + 1, levels - 1)
            EtT[0] = EtT[(e - s) % BLOCK]
        delta += (V.reshape(grid.size, nn) @ Sigma.ravel()).real
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
    """Delta on the node grid k * step for one initial mean and weighting.

    The state is the flat vector x = (S, E_t^T, mu, 1), on which

        Delta = <Sigma, S> - 2 <Pd Sigma, E_t^T> - 2 mu^T Sigma mu0 + <Sigma, P>

    with Pd = P - mu0 mu0^T.  E_t is kept transposed, so that a map acts on
    it, and a row is pulled back over it, by a product from the right.
    Row j of the table holds this functional pulled back over j + 1 steps,
    so Delta at the next nodes is one product of the table with the state.
    The table's rows double after each full chunk, up to ``ROW_BUDGET``, so
    short marches build few rows; its storage is taken once at that cap,
    so growing it copies nothing and the march's memory peaks at the
    table itself.  The maps over 2^i steps come from
    :meth:`Propagator.doubling_maps` and are shared with every march of
    the same system and step; the rows are this march's own.
    """

    def __init__(self, prop, init, Sigma, step):
        n = prop.n
        self.prop, self.n, self.step = prop, n, step
        mu0, P = init.mu0, init.P
        Pd = P - np.outer(mu0, mu0)
        self.x0 = np.concatenate([P.ravel(), np.eye(n).ravel(), mu0, [1.0]])
        self.ell = np.concatenate([Sigma.ravel(), -2.0 * (Pd @ Sigma).ravel(),
                                   -2.0 * Sigma @ mu0, [np.sum(Sigma * P)]])
        self.maps = prop.doubling_maps(step, 1)  # maps[i]: 2^i steps
        self.cap = 2 ** max(0, int(math.log2(ROW_BUDGET / (8 * self.ell.size))))
        self._table = np.empty((self.cap, self.ell.size))
        self.rows = self._pull(self.maps[0], self.ell[None, :], self._table[:1])

    def _split(self, x):
        n, nn = self.n, self.n * self.n
        return (x[..., :nn].reshape(x.shape[:-1] + (n, n)),
                x[..., nn:2 * nn].reshape(x.shape[:-1] + (n, n)),
                x[..., 2 * nn:-1], x[..., -1])

    def _push(self, M, x):
        """The state x moved by the map M."""
        S, EtT, mu, c = self._split(x)
        n = self.n
        return np.concatenate([(M.E @ S @ M.E.T).ravel() + mu @ M.G.reshape(n, n * n)
                               + c * M.G0.ravel(),
                               (EtT @ M.E.T).ravel(), M.E @ mu + c * M.w, [c]])

    def _pull(self, M, L, out):
        """Write to ``out`` the rows of functionals L composed with the map
        M, each block by one matrix product over all rows."""
        n, nn, k = self.n, self.n * self.n, len(L)
        Ls, lm = L[:, :nn], L[:, 2 * nn:-1]
        # S is symmetric, so only the symmetric part of a row's S block
        # counts, and (Ls E)^T E = E^T Ls^T E pulls it back as E^T Ls E does.
        LsE = (Ls.reshape(k * n, n) @ M.E).reshape(k, n, n)
        out[:, :nn] = (LsE.transpose(0, 2, 1).reshape(k * n, n) @ M.E).reshape(k, nn)
        out[:, nn:2 * nn] = (L[:, nn:2 * nn].reshape(k * n, n) @ M.E).reshape(k, nn)
        out[:, 2 * nn:-1] = lm @ M.E + Ls @ M.G.reshape(n, nn).T
        out[:, -1] = L[:, -1] + Ls @ M.G0.ravel() + lm @ M.w
        return out

    def _advance(self, x, nodes):
        for i in range(nodes.bit_length()):
            if nodes >> i & 1:
                x = self._push(self.maps[i], x)
        return x

    def _grow(self):
        k = len(self.rows)
        i = k.bit_length() - 1  # the rows span 2^i steps
        self.maps = self.prop.doubling_maps(self.step, i + 2)
        if 2 * k > len(self._table):  # more nodes at once than the cap
            self._table = np.concatenate([self.rows, np.empty_like(self.rows)])
        self.rows = self._table[:2 * k]
        self._pull(self.maps[i], self.rows[:k], self.rows[k:])

    def delta(self, x):
        return float(self.ell @ x)

    def deltas_ahead(self, x, nodes):
        """Delta at the next ``nodes`` nodes after the state x."""
        while len(self.rows) < nodes:
            self._grow()
        return self.rows[:nodes] @ x

    def run(self, x, t0, nsteps, threshold):
        """March ``nsteps`` nodes from the node t0 (state x) to the first
        node above ``threshold``; non-finite values raise
        :class:`IntegrationError`."""
        done = 0
        sup = d_prev = self.delta(x)
        while done < nsteps:
            chunk = min(len(self.rows), nsteps - done)
            d = self.deltas_ahead(x, chunk)
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
            x = self._advance(x, chunk)
            done += chunk
            if chunk == len(self.rows) < self.cap:
                self._grow()
        return MarchResult(False, t0 + nsteps * self.step, d_prev, math.nan, x, sup)

    def _series(self, x, width):
        """Taylor terms G^k x / k! of the state about x, enough for |s| <= width."""
        prop = self.prop
        terms = [x]
        for k in range(1, _taylor_terms(width * prop.rho) + 1):
            S, EtT, mu, c = self._split(terms[-1])
            dS, dmu = prop.generate(S, mu, c, prop.s_source)
            terms.append(np.concatenate([dS.ravel(), (EtT @ prop.A.T).ravel(), dmu, [0.0]]) / k)
        return terms

    def refine(self, x, t_lo, threshold, tol):
        """Shrink the bracket [t_lo, t_lo + step] of a crossing to width
        ``tol`` by bisection on the exact Taylor expansion of Delta about
        the left node (state x), keeping Delta(lo) <= threshold < Delta(hi).

        A step longer than 1 / rho is cut into pieces that are searched in
        order, so the series is only summed where it converges fast.
        """
        t_end = t_lo + self.step
        pieces = max(1, math.ceil(self.step * self.prop.rho))
        width = self.step / pieces
        a = t_lo
        for i in range(pieces):
            terms = self._series(x, width)
            coef = [float(self.ell @ z) for z in terms]
            if i == pieces - 1:
                hi = t_end
            elif _horner(coef, width) > threshold:
                hi = a + width
            else:
                x = sum(z * width ** k for k, z in enumerate(terms))
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
