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

The deviation Delta(t) is a *linear* functional of the real state
(S, E_t, mu, 1), with S = Re E[X_t X_t^T] the full second moment and
E_t = e^{tA}.  :class:`DeviationMarch` uses that to test a whole chunk of
grid nodes with one matrix-vector product against precomputed adjoint
rows, to jump across the chunk with a composed map, and to refine a
bracketed node on the exact Taylor expansion of Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .linalg import _taylor_terms, hurwitz_margin, spectral_norm
from .model import coefficients, lambda_affine

#: Bytes allowed for a march's table of adjoint rows; this fixes the
#: longest chunk of nodes tested at once.
ROW_BUDGET = 1 << 20


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
        E2 = nxt.E
        return StepMap(E=E2 @ self.E, w=E2 @ self.w + nxt.w,
                       G=E2 @ self.G @ E2.T + np.tensordot(self.E, nxt.G, axes=(0, 0)),
                       G0=E2 @ self.G0 @ E2.T + np.tensordot(self.w, nxt.G, axes=1) + nxt.G0)


class Propagator:
    """The moment dynamics of one system, derived once: its coefficient
    set ``co`` with drift A and offset b, ||A||_2, the Hurwitz margin
    (largest eigenvalue real part) and the affine parts Lambda(mu) = lam0
    + sum_l mu_l lam_mu[l].  :meth:`of` shares one instance per system."""

    def __init__(self, sys):
        co = coefficients(sys)
        n = sys.n
        self.n = n
        self.co = co
        self.A, self.b = co.A, co.b
        self.norm_a = spectral_norm(co.A)
        self.margin = hurwitz_margin(co.A)
        #: Growth-rate bound of the generator (A kron I + I kron A).
        self.rho = 2.0 * max(1.0, self.norm_a)
        self.lam0, self.lam_mu = lambda_affine(sys)
        # S = Re E[X X^T] has the source Re Lambda(mu) + b mu^T + mu b^T.
        b_el = co.b[None, :, None] * np.eye(n)[:, None, :]
        self.s_source = (self.lam0.real,
                         self.lam_mu.real + b_el + b_el.transpose(0, 2, 1))

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

    def lam(self, mu):
        """Diffusion matrix Lambda(mu), Hermitian."""
        return self.lam0 + np.tensordot(mu, self.lam_mu, axes=1)

    def generate(self, V, mu, c, source):
        """Generator of the augmented dynamics at the state (V, mu, c), or at
        a batch of them: (A V + V A^T + c Q0 + sum_l mu_l Q[l], A mu + c b)
        for the source (Q0, Q); the constant c does not move."""
        Q0, Q = source
        A = self.A
        return (A @ V + V @ A.T + np.tensordot(mu, Q, axes=1) + np.multiply.outer(c, Q0),
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

    def trajectory(self, init, Sigma, grid):
        """(mu, V, Delta) at the nodes of ``grid``, one map per distinct
        spacing of :func:`step_spacings`.  Delta = <Sigma, Re V>
        + |F(mu - mu0)|^2 + <Sigma, (E_t - I)(P - mu0 mu0^T)(E_t - I)^T>."""
        n = self.n
        mu0 = init.mu0
        Pd = init.P - np.outer(mu0, mu0)
        eye = np.eye(n)
        mu_out = np.empty((grid.size, n))
        V_out = np.empty((grid.size, n, n), dtype=complex)
        d_out = np.empty(grid.size)
        mu, V, Et = mu0, np.zeros((n, n), dtype=complex), eye
        mu_out[0], V_out[0], d_out[0] = mu, V, 0.0
        maps = {}
        for k, h in enumerate(step_spacings(grid).tolist(), start=1):
            M = maps.get(h)
            if M is None:
                M = maps[h] = self.step_map(h)
            V = M.E @ V @ M.E.T + np.tensordot(mu, M.G, axes=1) + M.G0
            mu = M.E @ mu + M.w
            Et = M.E @ Et
            q, dm = Et - eye, mu - mu0
            mu_out[k], V_out[k] = mu, V
            d_out[k] = np.sum(Sigma * (V.real + q @ Pd @ q.T)) + dm @ Sigma @ dm
        return mu_out, V_out, d_out


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

    The state is the flat vector x = (S, E_t, mu, 1), on which

        Delta = <Sigma, S> - 2 <Sigma Pd, E_t> - 2 mu^T Sigma mu0 + <Sigma, P>

    with Pd = P - mu0 mu0^T.  Row j of the table holds this functional
    pulled back over j steps, so Delta at the next j nodes is one product
    with the state.  The table doubles after each full chunk, up to
    ``ROW_BUDGET``, so short marches build few rows.
    """

    def __init__(self, prop, init, Sigma, step):
        n = prop.n
        self.prop, self.n, self.step = prop, n, step
        mu0, P = init.mu0, init.P
        Pd = P - np.outer(mu0, mu0)
        self.x0 = np.concatenate([P.ravel(), np.eye(n).ravel(), mu0, [1.0]])
        self.ell = np.concatenate([Sigma.ravel(), -2.0 * (Sigma @ Pd).ravel(),
                                   -2.0 * Sigma @ mu0, [np.sum(Sigma * P)]])
        self.maps = [prop.step_map(step, prop.s_source)]  # maps[i]: 2^i steps
        self.rows = self._pull(self.maps[0], self.ell[None, :])
        self.cap = 2 ** max(0, int(math.log2(ROW_BUDGET / (8 * self.ell.size))))

    def _split(self, x):
        n, nn = self.n, self.n * self.n
        return (x[..., :nn].reshape(x.shape[:-1] + (n, n)),
                x[..., nn:2 * nn].reshape(x.shape[:-1] + (n, n)),
                x[..., 2 * nn:-1], x[..., -1])

    def _push(self, M, x):
        """The state x moved by the map M."""
        S, Et, mu, c = self._split(x)
        return np.concatenate([(M.E @ S @ M.E.T + np.tensordot(mu, M.G, axes=1)
                                + c * M.G0).ravel(),
                               (M.E @ Et).ravel(), M.E @ mu + c * M.w, [c]])

    def _pull(self, M, L):
        """Rows of functionals L composed with the map M."""
        Ls, Le, lm, l1 = self._split(L)
        k = L.shape[0]
        return np.concatenate([
            (M.E.T @ Ls @ M.E).reshape(k, -1),
            (M.E.T @ Le).reshape(k, -1),
            lm @ M.E + np.tensordot(Ls, M.G, axes=([1, 2], [1, 2])),
            (l1 + np.tensordot(Ls, M.G0, axes=2) + lm @ M.w)[:, None]], axis=1)

    def _advance(self, x, nodes):
        for i in range(nodes.bit_length()):
            if nodes >> i & 1:
                x = self._push(self.maps[i], x)
        return x

    def _grow(self):
        self.rows = np.concatenate([self.rows, self._pull(self.maps[-1], self.rows)])
        self.maps.append(self.maps[-1].then(self.maps[-1]))

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
            S, Et, mu, c = self._split(terms[-1])
            dS, dmu = prop.generate(S, mu, c, prop.s_source)
            terms.append(np.concatenate([dS.ravel(), (prop.A @ Et).ravel(), dmu, [0.0]]) / k)
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
