"""Independent reference computations used to check the package.

Everything here deliberately takes a different route from the library:
explicit index loops instead of einsum, Kronecker products instead of
section double sums, Simpson quadrature of integral forms instead of ODE
stepping, dense scans and closed forms instead of the crossing search.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as sexpm
from scipy.optimize import brentq

from qmemtime.decoherence import CrossingOptions, decoherence_time
from qmemtime.linalg import _taylor_terms
from qmemtime.model import SystemParams, coefficients, ito_matrix
from qmemtime.moments import delta_derivatives0
from qmemtime.optimize import rk_matrices
from qmemtime.propagate import Propagator

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


def lambda_sandwich(sys, mu):
    """The Kronecker sandwich Lambda(mu) at one mean, by the double sum 4
    sum_j Theta_j^T G (sum_k Pi_jk Theta_k) with G = M^T Omega M and Pi =
    alpha + beta . mu, in O(n^4) flops and O(n^3) memory: the paper's
    definition, which holds for any constants, associative or not."""
    n = sys.n
    Omega, _ = ito_matrix(sys.m)
    G = sys.M.T @ Omega @ sys.M
    th = sys.sc.theta
    Pi = sys.sc.alpha + (mu @ sys.sc.beta.reshape(n, n * n)).reshape(n, n)
    W = G @ (Pi @ th.reshape(n, n * n)).reshape(n, n, n)  # G sum_k Pi_jk Theta_k, for each j
    return 4.0 * th.reshape(n * n, n).T @ W.reshape(n * n, n)


def lambda_affine(sys):
    """Affine decomposition Lambda(mu) = C0 + sum_l mu_l Cmu[l] of the
    Kronecker sandwich, as the double sums 4 sum_jk Pi_jk Theta_j^T G
    Theta_k with G = M^T Omega M and Pi = alpha for C0 or Pi = beta_l for
    Cmu[l], through the n^4 tensor of the products Theta_j^T G Theta_k.
    Holds for any constants, associative or not."""
    Omega, _ = ito_matrix(sys.m)
    G = sys.M.T @ Omega @ sys.M
    th = sys.sc.theta
    T = np.einsum("jba,bc,kcd->jkad", th, G, th, optimize=True)
    C0 = 4.0 * np.einsum("jk,jkad->ad", sys.sc.alpha, T)
    Cmu = 4.0 * np.einsum("ljk,jkad->lad", sys.sc.beta, T, optimize=True)
    C0 = (C0 + C0.conj().T) / 2.0
    Cmu = (Cmu + np.conj(np.transpose(Cmu, (0, 2, 1)))) / 2.0
    return C0, Cmu


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


def r_kron(sys, init, weights):
    """The matrix R = mho^T (P kron Sigma) mho of the stationarity system
    2RE + K = 0, by the materialized Kronecker product."""
    from qmemtime.algebra import stack_mho

    mho = stack_mho(sys.sc.theta)
    return mho.T @ np.kron(init.P, weights.Sigma) @ mho


def delta_derivatives_affine(sys, init, weights):
    """The first two right-hand derivatives of Delta at t = 0 from the
    moment equations: <Sigma, Re Lambda(mu0)>, and <Sigma, 2 A P A^T +
    2 A (Re Lambda(mu0) + 2 mu0 b^T) + Re Lambda'(0)> + 2 b^T Sigma b, with
    Lambda from :func:`lambda_affine`."""
    co = coefficients(sys)
    A, b, mu0, Sigma = co.A, co.b, init.mu0, weights.Sigma
    C0, Cmu = lambda_affine(sys)
    lam = (C0 + np.tensordot(mu0, Cmu, axes=1)).real
    lamd = np.tensordot(A @ mu0 + b, Cmu, axes=1).real
    inner = 2.0 * A @ init.P @ A.T + 2.0 * A @ (lam + 2.0 * np.outer(mu0, b)) + lamd
    return float(np.sum(Sigma * lam)), float(np.sum(Sigma * inner) + 2.0 * b @ Sigma @ b)


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


def solve_lyapunov(A, Q):
    """Solve A P + P A^T + Q = 0 by vectorizing to a dense n^2-by-n^2
    linear system, with the column-major identities col(AP) = (I kron A)
    col(P) and col(P A^T) = (A kron I) col(P)."""
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    lin = np.kron(eye, A) + np.kron(A, eye)
    vec = np.linalg.solve(lin, -Q.reshape(-1, order="F"))
    P = vec.reshape(n, n, order="F")
    return (P + P.T) / 2.0


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


def step_map(co, parts, h):
    """The exact affine map mu -> E mu + w, V -> E V E^T + sum_l mu_l G[l]
    + G0 of the Lyapunov ODE V' = A V + V A^T + Lambda(mu) over a step h,
    as (E, w, G, G0), for the coefficient set ``co`` and the parts
    (C0, Cmu) of :func:`lambda_affine`: the exponential of the generator
    of the augmented state (V, mu, 1), of order n^2 + n + 1, summed as a
    Taylor series of its action on the unit means and the constant state
    over a short step and scaled back up by composition.  Independent of
    the product closure."""
    A, b = co.A, co.b
    n = len(A)
    C0, Cmu = parts
    rho = 2.0 * max(1.0, np.linalg.norm(A, 2))  # growth bound of A kron I + I kron A
    halvings = max(0, math.ceil(math.log2(h * rho / 0.5)))
    hs = h / 2 ** halvings
    # Taylor terms of e^{hs G} on the states (V=0, mu=e_l) and (V=0, mu=0, 1),
    # with G (V, mu, c) = (A V + V A^T + c C0 + sum_l mu_l Cmu[l], A mu + c b).
    X = np.zeros((n + 1, n, n), dtype=complex)
    m = np.eye(n + 1, n)
    c = np.eye(n + 1)[n]
    sum_X, sum_m = X.copy(), m.copy()
    for k in range(1, _taylor_terms(hs * rho) + 1):
        X, m = (A @ X + X @ A.T + (m @ Cmu.reshape(n, n * n)).reshape(X.shape)
                + np.multiply.outer(c, C0), m @ A.T + np.multiply.outer(c, b))
        X *= hs / k
        m *= hs / k
        c = 0.0 * c
        sum_X += X
        sum_m += m
    M = (np.ascontiguousarray(sum_m[:n].T), sum_m[n], sum_X[:n], sum_X[n])
    for _ in range(halvings):
        M = _then(M, M)
    return M


def _then(first, nxt):
    """The step map ``first`` followed by ``nxt``."""
    E1, w1, G1, G01 = first
    E2, w2, G2, G02 = nxt
    n = E2.shape[0]
    Gn = G2.reshape(n, n * n)
    return (E2 @ E1, E2 @ w1 + w2,
            E2 @ G1 @ E2.T + (E1.T @ Gn).reshape(n, n, n),
            E2 @ G01 @ E2.T + (w1 @ Gn).reshape(n, n) + G02)


def stepwise_trajectory(sys, init, Sigma, grid):
    """(mu, V, Delta) along ``grid``, one node after the other, each by the
    :func:`step_map` of its own float spacing: V integrates the Lyapunov
    ODE without the product closure."""
    co, parts = coefficients(sys), lambda_affine(sys)
    n = sys.n
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
            maps[h] = step_map(co, parts, h)
        E, w, G, G0 = maps[h]
        V[k] = E @ V[k - 1] @ E.T + np.tensordot(mu[k - 1], G, axes=1) + G0
        mu[k] = E @ mu[k - 1] + w
        Et = E @ Et
        q = Et - np.eye(n)
        dm = mu[k] - mu0
        delta[k] = np.sum(Sigma * (V[k].real + q @ Pd @ q.T)) + dm @ Sigma @ dm
    return mu, V, delta


def forward_taylor(sys, init, Sigma, Phi, terms):
    """Taylor coefficients d^k Delta / dt^k / k!, k = 0 ... ``terms``, at the
    transition matrix Phi = Phi_t of the deviation march, from the full
    second-moment dynamics: the state (S, E_t, mu, 1) at t, with S on the
    product closure alpha + Re beta . mu, is moved term by term by
    S' = A S + S A^T + Re Lambda(mu) + b mu^T + mu b^T, E' = A E,
    mu' = A mu + b, with Lambda from :func:`lambda_affine`, without using
    the closure again."""
    co = coefficients(sys)
    C0, Cmu = lambda_affine(sys)
    n, A, b = sys.n, co.A, co.b
    mu0 = init.mu0
    Pd = init.P - np.outer(mu0, mu0)
    mu = Phi[:n] @ np.r_[mu0, 1.0]
    S = sys.sc.alpha + np.tensordot(mu, sys.sc.re_beta, axes=1)
    E, c = Phi[:n, :n], 1.0
    out = []
    for k in range(terms + 1):
        if k:
            lam = c * C0.real + np.tensordot(mu, Cmu.real, axes=1)
            S, E, mu, c = ((A @ S + S @ A.T + lam + np.outer(b, mu) + np.outer(mu, b)) / k,
                           A @ E / k, (A @ mu + c * b) / k, 0.0)
        out.append(np.sum(Sigma * S) - 2.0 * np.sum(Sigma @ Pd * E)
                   - 2.0 * mu @ Sigma @ mu0 + c * np.sum(Sigma * init.P))
    return np.array(out)


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


def closed_form_system(sc, family, params):
    """The Pauli-structure system of a closed-form family (see
    :func:`closed_form_delta`): the rotation has the energy ``params`` and
    no coupling, dephasing the energy (0, 0, Ez) and the coupling row (0,
    0, g) for ``params`` = (g, Ez)."""
    if family == "rotation":
        return SystemParams(sc=sc, E=np.asarray(params, float), M=np.zeros((2, 3)),
                            N=np.zeros(2))
    g, ez = params
    return SystemParams(sc=sc, E=np.array([0.0, 0.0, ez]),
                        M=np.array([[0.0, 0.0, g], [0.0, 0.0, 0.0]]), N=np.zeros(2))


def _rates(family, params):
    """(gamma, omega) of Delta = 4 - 4 e^{-gamma t} cos(omega t)."""
    if family == "rotation":
        return 0.0, 2.0 * float(np.linalg.norm(params))
    g, ez = params
    return 2.0 * g * g, 2.0 * abs(ez)


def closed_form_delta(family, params, t):
    """Delta(t) = 4 - 4 e^{-gamma t} cos(omega t) of a closed-form family on
    the Pauli structure with Sigma = I, for every admissible mean: the
    rotation (no coupling), gamma = 0 and omega = 2|E|; dephasing,
    gamma = 2 g^2 and omega = 2 |Ez|.  Summed as 4 (1 - e^{-gamma t}) +
    8 e^{-gamma t} sin^2(omega t / 2), whose terms do not cancel."""
    gamma, omega = _rates(family, params)
    t = np.asarray(t, dtype=float)
    return 4.0 * (-np.expm1(-gamma * t) + 2.0 * np.exp(-gamma * t) * np.sin(0.5 * omega * t) ** 2)


def first_hump(family, params):
    """The time and value of the first maximum of :func:`closed_form_delta`,
    the largest: Delta' = 4 e^{-gamma t} (gamma cos omega t + omega sin
    omega t) first vanishes from above at omega t = pi - atan(gamma / omega)."""
    gamma, omega = _rates(family, params)
    t1 = (math.pi - math.atan2(gamma, omega)) / omega
    return t1, float(closed_form_delta(family, params, t1))


def exact_first_crossing(family, params, threshold):
    """The first time :func:`closed_form_delta` exceeds ``threshold`` > 0, or
    +inf: Delta rises from 0 to its largest value on [0, t1], t1 the first
    maximum, so the crossing is the one root there (Brent), to a relative
    4 eps."""
    t1, top = first_hump(family, params)
    if threshold >= top:
        return math.inf
    return brentq(lambda t: float(closed_form_delta(family, params, t)) - threshold,
                  0.0, t1, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


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


def gksl_moments(rep, E, M, N, mu0, Sigma, grid):
    """(mu, S, Delta) along ``grid`` from the matrices of ``rep`` and the
    Hudson-Parthasarathy model alone, with no structure constants.

    The Heisenberg-picture GKSL generator of H = E . X and the coupling
    operators L = M X + N, with the Ito matrix Omega = I + iJ, is

        G(xi) = i[H, xi] + 1/2 sum_jk Omega_jk (L_j [xi, L_k] + [L_j, xi] L_k),

    a d^2 x d^2 matrix on row-major vec(xi), vec(A xi B) = (A kron B^T)
    vec(xi); scipy's expm gives T_t = e^{tG}.  rho0 is the trace-one
    Hermitian matrix in the span of (I, X) with tr(rho0 X) = mu0, which
    need not be positive, since every identity used is linear.  Then mu_j
    = tr(rho0 T_t(X_j)) and S_jk = tr(rho0 T_t(X_j X_k)); the quantum
    regression theorem, exact for vacuum fields, gives E[X_j(t) X_k] =
    tr(rho0 T_t(X_j) X_k) and its mirror, and Delta = <Sigma, Re E[(X_t -
    X_0)(X_t - X_0)^T]>.
    """
    X = np.array(rep.X)
    n, d = rep.n, rep.d
    eye = np.eye(d)
    Omega, _ = ito_matrix(len(N))
    H = np.tensordot(E, X, axes=1)
    Ls = np.tensordot(M, X, axes=1) + np.multiply.outer(N, eye)
    G = 1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for j in range(len(N)):
        for k in range(len(N)):
            LL = Ls[j] @ Ls[k]
            G += 0.5 * Omega[j, k] * (2.0 * np.kron(Ls[j], Ls[k].T)
                                      - np.kron(LL, eye) - np.kron(eye, LL.T))
    basis = np.concatenate([eye[None], X])
    gram = np.einsum("aij,bji->ab", basis, basis).real
    rho0 = np.tensordot(np.linalg.solve(gram, np.r_[1.0, mu0]), basis, axes=1)
    XX = np.einsum("jab,kbc->jkac", X, X)
    Pi = np.einsum("ab,jkba->jk", rho0, XX)
    mu = np.empty((grid.size, n))
    S = np.empty((grid.size, n, n), dtype=complex)
    delta = np.empty(grid.size)
    for i, t in enumerate(grid):
        T = sexpm(t * G)
        Xt = (X.reshape(n, d * d) @ T.T).reshape(n, d, d)
        St = (XX.reshape(n * n, d * d) @ T.T).reshape(n, n, d, d)
        mu[i] = np.einsum("ab,jba->j", rho0, Xt).real
        S[i] = np.einsum("ab,jkba->jk", rho0, St)
        C = np.einsum("ab,jbc,kca->jk", rho0, Xt, X)  # E[X_j(t) X_k]
        Cm = np.einsum("ab,jbc,kca->jk", rho0, X, Xt)  # E[X_j X_k(t)]
        delta[i] = np.sum(Sigma * (S[i] - C - Cm + Pi).real)
    return mu, S, delta


@dataclass(frozen=True)
class GradientReport:
    """Analytic vs central-difference gradient of the quadratic growth."""

    E_probe: np.ndarray
    analytic: np.ndarray
    numeric: np.ndarray
    max_abs_dev: float
    max_rel_dev: float


def gradient_check(sys, init, weights, E_probe):
    """Compare 8(2RE + K) with central differences of the second
    deviation derivative; report-only."""
    E_probe = np.asarray(E_probe, dtype=float)
    R, K = rk_matrices(sys, init, weights)
    analytic = 8.0 * (2.0 * R @ E_probe + K)

    h = 1e-5 * (1.0 + float(np.abs(E_probe).max(initial=0.0)))
    numeric = np.empty_like(analytic)
    for k in range(E_probe.size):
        bump = np.zeros_like(E_probe)
        bump[k] = h
        _, up = delta_derivatives0(sys.with_energy(E_probe + bump), init, weights)
        _, dn = delta_derivatives0(sys.with_energy(E_probe - bump), init, weights)
        numeric[k] = (up - dn) / (2.0 * h)

    max_abs = float(np.abs(analytic - numeric).max())
    scale = max(1.0, float(np.abs(analytic).max()))
    return GradientReport(E_probe=E_probe, analytic=analytic, numeric=numeric,
                          max_abs_dev=max_abs, max_rel_dev=max_abs / scale)


def tau_energy_gradient(sys, init, weights, eps):
    """The exact gradient dtau/dE of the decoherence time tau(eps) over the
    energy vector, at a transversal first crossing.

    Delta(t) = tr(L Phi_t) with Phi_t = exp(t Ahat), and only the block A0 =
    sum_l E_l D_l of Ahat depends on E, so dDelta(t)/dE_l = tr(W_t D_l)
    over the upper-left block of W_t = int_0^t Phi_{t-s} L Phi_s ds, the
    upper-right block of exp(t [[Ahat, L], [0, Ahat]]) (Van Loan, IEEE TAC
    23(3), 1978).  At the crossing dtau/dE = -dDelta(tau)/dE / Delta'(tau),
    with Delta'(tau) = tr(L Ahat Phi_tau).  tau is located to 1e-14.
    """
    tau = decoherence_time(sys, init, weights, eps, CrossingOptions(tol=1e-14)).value
    prop = Propagator.of(sys)
    n, n1, Ahat = sys.n, sys.n + 1, prop.Ahat
    L = prop.functional(init, weights.Sigma)
    block = np.zeros((2 * n1, 2 * n1))
    block[:n1, :n1] = block[n1:, n1:] = Ahat
    block[:n1, n1:] = L
    Z = sexpm(tau * block)
    W11, Phi = Z[:n, n1:n1 + n], Z[:n1, :n1]
    partials = np.einsum("ij,lji->l", W11, prop.D)
    return -partials / np.trace(L @ Ahat @ Phi)
