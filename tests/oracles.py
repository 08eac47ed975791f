"""Independent reference computations used to check the package.

Everything here deliberately takes a different route from the library:
explicit index loops instead of einsum, Kronecker products instead of
section double sums, Simpson quadrature of integral forms instead of ODE
stepping, and dense scans instead of bisection.
"""

import numpy as np
from scipy.linalg import expm as sexpm

from qmemtime.model import coefficients, ito_matrix

from dense import Representation


def dot_loop(stack, u):
    """gamma . u by plain summation over sections."""
    n = stack.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for ell in range(n):
        out = out + stack[ell] * u[ell]
    return out


def diamond_loop(stack, u):
    """gamma <> u column by column."""
    n = stack.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        out[:, k] = stack[k] @ u
    return out


def col_loop(S):
    """Column-major vectorization by explicit stacking."""
    S = np.asarray(S)
    return np.concatenate([S[:, k] for k in range(S.shape[1])])


def mho_loop(theta_stack):
    """Vertical section stack by explicit concatenation."""
    return np.vstack([theta_stack[ell] for ell in range(theta_stack.shape[0])])


def lambda_kron(sys, mu):
    """Diffusion matrix via the materialized Kronecker sandwich."""
    from qmemtime.algebra import sections_dot, stack_mho

    Omega, _ = ito_matrix(sys.m)
    G = sys.M.T @ Omega @ sys.M
    Pi = sys.sc.alpha + sections_dot(sys.sc.beta, mu)
    mho = stack_mho(sys.sc.theta)
    return 4.0 * mho.T @ np.kron(Pi, G) @ mho


def k_kron(sys, init, weights):
    """The vector K of the stationarity system 2RE + K = 0 by the
    materialized Kronecker route: mho^T col(Sigma (Atilde P + Re Lambda/2
    + b mu0^T)) plus, entry by entry, the pairing of mho Sigma mho^T with
    Re((beta . (Theta . mu0)_col_k) kron M^T Omega M)."""
    from qmemtime.algebra import sections_dot, stack_mho

    co = coefficients(sys)
    Sigma, P, mu0 = weights.Sigma, init.P, init.mu0
    mho = stack_mho(sys.sc.theta)
    S = Sigma @ (co.Atilde @ P + 0.5 * lambda_kron(sys, mu0).real + np.outer(co.b, mu0))
    K = mho.T @ col_loop(S)
    Omega, _ = ito_matrix(sys.m)
    G = sys.M.T @ Omega @ sys.M
    msm = mho @ Sigma @ mho.T
    theta_mu = sections_dot(sys.sc.theta, mu0)
    for k in range(sys.n):
        bv = sections_dot(sys.sc.beta, theta_mu[:, k])
        K[k] += np.sum(msm * np.kron(bv, G).real)
    return K.real


def psi_simpson(A, t, n_intervals=400):
    """Integral of e^{sA} over [0, t] by composite Simpson."""
    ns = n_intervals + (n_intervals % 2)
    if t == 0.0:
        return np.zeros_like(np.asarray(A, dtype=float))
    s = np.linspace(0.0, t, ns + 1)
    w = np.ones(ns + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (t / ns) / 3.0
    out = np.zeros_like(np.asarray(A, dtype=float))
    for sj, wj in zip(s, w):
        out = out + wj * sexpm(A * sj)
    return out


def mean_closed(co, mu0, t):
    """Mean at time t from the matrix exponential (scipy route)."""
    return sexpm(co.A * t) @ mu0 + psi_simpson(co.A, t) @ co.b


def mean_rk4(co, mu0, t, steps=4000):
    """Mean at time t by integrating mu' = A mu + b with plain RK4."""
    h = t / steps
    mu = np.array(mu0, dtype=float)
    for _ in range(steps):
        k1 = co.A @ mu + co.b
        k2 = co.A @ (mu + 0.5 * h * k1) + co.b
        k3 = co.A @ (mu + 0.5 * h * k2) + co.b
        k4 = co.A @ (mu + h * k3) + co.b
        mu = mu + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return mu


def v_quadrature(sys, init, t, n_half_steps):
    """Second moment V(t) from its integral form by composite Simpson.

    The integrand e^{(t-s)A} Lambda(mu(s)) e^{(t-s)A^T} uses scipy
    exponentials, the Kronecker-path diffusion matrix, and a mean curve
    marched by plain RK4 between quadrature nodes.
    """
    co = coefficients(sys)
    ns = n_half_steps + (n_half_steps % 2)
    s = np.linspace(0.0, t, ns + 1)
    w = np.ones(ns + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (t / ns) / 3.0

    mus = np.empty((ns + 1, sys.n))
    mus[0] = init.mu0
    h = t / ns
    for j in range(ns):  # four RK4 substeps per quadrature interval
        mu = mus[j]
        hh = h / 4.0
        for _ in range(4):
            k1 = co.A @ mu + co.b
            k2 = co.A @ (mu + 0.5 * hh * k1) + co.b
            k3 = co.A @ (mu + 0.5 * hh * k2) + co.b
            k4 = co.A @ (mu + hh * k3) + co.b
            mu = mu + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        mus[j + 1] = mu

    out = np.zeros((sys.n, sys.n), dtype=complex)
    for sj, wj, muj in zip(s, w, mus):
        Ets = sexpm(co.A * (t - sj))
        out = out + wj * (Ets @ lambda_kron(sys, muj) @ Ets.T)
    return out


def delta_upsilon(sys, init, weights, t, V_t):
    """Deviation at time t assembled from the second-moment expansion.

    Builds Re Upsilon(t) from its four deterministic pieces plus the
    supplied V(t) and pairs it with Sigma; independent of the closed-form
    expressions used by the library's propagator.
    """
    co = coefficients(sys)
    q = sexpm(co.A * t) - np.eye(sys.n)
    psi = psi_simpson(co.A, t, 800)
    ups = (q @ init.Pi @ q.T
           + np.outer(q @ init.mu0, psi @ co.b)
           + np.outer(psi @ co.b, q @ init.mu0)
           + np.outer(psi @ co.b, psi @ co.b)
           + V_t)
    return float(np.sum(weights.Sigma * ups.real))


def stepwise_trajectory(prop, init, Sigma, grid):
    """(mu, V, Delta) along ``grid``, one node after the other, each by the
    single-step map of its own float spacing from ``prop.step_map``."""
    n = prop.n
    mu0 = init.mu0
    Pd = init.P - np.outer(mu0, mu0)
    mu = np.empty((grid.size, n))
    V = np.empty((grid.size, n, n), dtype=complex)
    delta = np.zeros(grid.size)
    mu[0], V[0], Et = mu0, 0.0, np.eye(n)
    maps = {}
    for k in range(1, grid.size):
        h = grid[k] - grid[k - 1]
        if h not in maps:
            maps[h] = prop.step_map(h)
        M = maps[h]
        V[k] = M.E @ V[k - 1] @ M.E.T + np.tensordot(mu[k - 1], M.G, axes=1) + M.G0
        mu[k] = M.E @ mu[k - 1] + M.w
        Et = M.E @ Et
        q = Et - np.eye(n)
        dm = mu[k] - mu0
        delta[k] = np.sum(Sigma * (V[k].real + q @ Pd @ q.T)) + dm @ Sigma @ dm
    return mu, V, delta


def first_crossing_scan(grid, delta_vals, threshold):
    """First up-crossing on a dense grid, refined by linear interpolation.

    Returns None when the sampled values never exceed the threshold.
    """
    above = delta_vals > threshold
    if not above.any():
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(grid[0])
    t0, t1 = grid[i - 1], grid[i]
    d0, d1 = delta_vals[i - 1], delta_vals[i]
    return float(t0 + (threshold - d0) / (d1 - d0) * (t1 - t0))


def gell_mann_representation(d):
    """Generalized Gell-Mann matrices of su(d), from Bertlmann & Krammer,
    "Bloch vectors for qudits", J. Phys. A 41 (2008): the symmetric and
    antisymmetric off-diagonal pairs, then the d - 1 diagonal ones."""
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k], anti[k, j] = -1.0j, 1.0j
            mats += [sym, anti]
    for ell in range(1, d):
        diag = np.zeros(d)
        diag[:ell], diag[ell] = 1.0, -float(ell)
        mats.append(np.sqrt(2.0 / (ell * (ell + 1))) * np.diag(diag).astype(complex))
    return Representation(tuple(mats), label=f"su({d})")
