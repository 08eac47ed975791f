import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemtime.algebra import (StructureConstants, _product_table, _table_defects, col,
                              pauli_structure, sections_diamond, sections_dot, stack_mho,
                              validate_structure)
from qmemtime.errors import StructureDefectError
from qmemtime.interconnect import compose
from qmemtime.model import SystemParams

from dense import (check_algebra, fit_structure_constants, qubit_representation,
                   tensor_representation)
from oracles import (col_loop, diamond_loop, dot_loop, gell_mann_representation,
                     mho_loop)

THETA1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
THETA2 = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
THETA3 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_pauli_structure_constants(pauli):
    assert np.array_equal(pauli.alpha, np.eye(3))
    assert np.array_equal(pauli.theta[0], THETA1)
    assert np.array_equal(pauli.theta[1], THETA2)
    assert np.array_equal(pauli.theta[2], THETA3)
    assert np.array_equal(pauli.beta, 1j * pauli.theta)


def test_constants_are_read_only_arrays(pauli):
    # a propagator keeps what it derives from the constants of its system
    for name, ndim in (("alpha", 2), ("beta", 3), ("theta", 3), ("re_beta", 3)):
        arr = getattr(pauli, name)
        assert type(arr) is np.ndarray and arr.shape == (3,) * ndim
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_theta_and_re_beta_are_parts_of_beta():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    a = rng.standard_normal((4, 4))
    sc = StructureConstants(a + a.T, g + np.conj(np.transpose(g, (0, 2, 1))))
    assert sc.theta.dtype == sc.re_beta.dtype == float
    assert sc.theta.tobytes() == sc.beta.imag.tobytes()
    assert sc.re_beta.tobytes() == sc.beta.real.tobytes()


def test_structure_constants_equal_by_value(pauli):
    same = StructureConstants(pauli.alpha.copy(), pauli.beta.copy())
    assert same is not pauli and same == pauli
    assert StructureConstants(2.0 * pauli.alpha, pauli.beta) != pauli
    assert StructureConstants(pauli.alpha, 2.0 * pauli.beta) != pauli
    assert (pauli == pauli.beta) is False


def test_sections_dot_zero(pauli):
    assert np.all(sections_dot(pauli.beta, np.zeros(3)) == 0)


def test_sections_dot_basis_vector_picks_section(pauli):
    assert np.array_equal(sections_dot(pauli.theta, np.array([0.0, 0.0, 1.0])), THETA3)


def test_sections_dot_matches_loop_oracle(pauli):
    out = sections_dot(pauli.beta, np.array([0.0, 0.0, 4.0]))
    assert np.abs(out - 4j * THETA3).max() == 0.0
    assert np.abs(out - dot_loop(pauli.beta, [0, 0, 4])).max() == 0.0


def test_sections_diamond_zero(pauli):
    assert np.all(sections_diamond(pauli.theta, np.zeros(3)) == 0)


def test_diamond_is_cross_product_generator(pauli):
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        lhs = sections_diamond(pauli.theta, u) @ v
        assert np.abs(lhs - np.cross(u, v)).max() <= 1e-12
    u = np.array([1.0, 2.0, 3.0])
    expected = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    assert np.array_equal(sections_diamond(pauli.theta, u), expected)


def test_dot_diamond_kron_identity():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        g = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        lhs = dot_loop(g, u) @ v
        mid = diamond_loop(g, v) @ u
        flat = np.hstack([g[ell] for ell in range(n)]) @ np.kron(u, v)
        assert np.abs(lhs - mid).max() <= 1e-12
        assert np.abs(lhs - flat).max() <= 1e-12
        assert np.abs(sections_dot(g, u) @ v - lhs).max() <= 1e-12
        assert np.abs(sections_diamond(g, v) @ u - lhs).max() <= 1e-12


def test_products_linear_in_u():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((5, 5, 5)) + 1j * rng.standard_normal((5, 5, 5))
    u, v = rng.standard_normal(5), rng.standard_normal(5)
    a, bcoef = 0.7, -1.3
    for op in (sections_dot, sections_diamond):
        lhs = op(g, a * u + bcoef * v)
        rhs = a * op(g, u) + bcoef * op(g, v)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_stack_mho_zero():
    assert np.all(stack_mho(np.zeros((3, 3, 3))) == 0)


def test_stack_mho_pauli_rows(pauli):
    mho = stack_mho(pauli.theta)
    assert mho.shape == (9, 3)
    assert np.array_equal(mho, mho_loop(pauli.theta))
    assert np.array_equal(mho[0:3], THETA1)
    assert np.array_equal(mho[3:6], THETA2)
    assert np.array_equal(mho[6:9], THETA3)


def test_mho_vectorization_contract(pauli):
    rng = np.random.default_rng(4)
    mho = stack_mho(pauli.theta)
    for _ in range(20):
        E = rng.standard_normal(3)
        lhs = col(2.0 * sections_diamond(pauli.theta, E))
        assert np.abs(np.asarray(lhs) - 2.0 * mho @ E).max() <= 1e-14
        S = rng.standard_normal((3, 3))
        back = sum(pauli.theta[k].T @ S[:, k] for k in range(3))
        assert np.abs(mho.T @ col_loop(S) - back).max() <= 1e-14


def test_mho_sandwich_kron_identity(pauli):
    rng = np.random.default_rng(5)
    mho = stack_mho(pauli.theta)
    th = pauli.theta
    for _ in range(10):
        P = rng.standard_normal((3, 3))
        P = P + P.T
        S = rng.standard_normal((3, 3))
        S = S + S.T
        lhs = mho.T @ np.kron(P, S) @ mho
        rhs = sum(P[j, k] * th[j].T @ S @ th[k] for j in range(3) for k in range(3))
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_validate_structure_pauli_passes(pauli):
    report = validate_structure(pauli.alpha, pauli.beta, tol=1e-14)
    assert report.passed
    assert report.worst_defect == 0.0


def test_validate_structure_locates_alpha_defect(pauli):
    alpha = pauli.alpha.copy()
    alpha[0, 2] += 1e-3
    report = validate_structure(alpha, pauli.beta, tol=1e-12)
    assert not report.passed
    assert report.worst_index[0] == "alpha"
    assert set(report.worst_index[1:]) == {0, 2}
    assert report.alpha_asymmetry == pytest.approx(1e-3)


def test_validate_structure_flags_nonhermitian_section(pauli):
    beta = pauli.beta.copy()
    beta[1, 0, 2] += 1e-6
    report = validate_structure(pauli.alpha, beta, tol=1e-9)
    assert not report.passed
    assert report.worst_index[0] == "beta"


def test_construction_rejects_large_defects(pauli):
    alpha = pauli.alpha.copy()
    alpha[1, 0] += 5e-3
    with pytest.raises(StructureDefectError):
        StructureConstants(alpha, pauli.beta)


def test_construction_repairs_roundoff_defects(pauli):
    alpha = pauli.alpha.copy()
    alpha[1, 0] += 1e-14
    sc = StructureConstants(alpha, pauli.beta)
    assert np.array_equal(sc.alpha, sc.alpha.T)
    th = sc.theta
    assert np.array_equal(th, -np.transpose(th, (0, 2, 1)))


@pytest.mark.parametrize("qutrit", [False, True])
def test_theta_exactly_antisymmetric_after_repair(pauli, qutrit):
    # Im of each Hermitized section is antisymmetric to the last bit, for
    # constants with a non-Hermitian perturbation of 5e-13
    sc = fit_structure_constants(gell_mann_representation(3)).constants if qutrit else pauli
    beta = sc.beta + 5e-13j * np.random.default_rng(4).uniform(0.0, 1.0, (sc.n,) * 3)
    assert validate_structure(sc.alpha, beta, tol=1e-13).beta_nonhermiticity > 1e-13
    th = StructureConstants(sc.alpha, beta).theta
    assert np.array_equal(th, -np.transpose(th, (0, 2, 1)))
    assert np.abs(th - sc.theta).max() <= 5e-13


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-300, 1e-13, 1.0, 1e300]))
def test_theta_defect_never_exceeds_beta_defect(seed, scale):
    # Im(beta - conj(beta^T)) is Im beta + Im beta^T to the last bit, so the
    # report's beta defect bounds the symmetry defect of theta entry by entry
    rng = np.random.default_rng(seed)
    beta = scale * (rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
    d_theta = np.abs(beta.imag + np.transpose(beta.imag, (0, 2, 1)))
    d_beta = np.abs(beta - np.conj(np.transpose(beta, (0, 2, 1))))
    assert (d_beta >= d_theta).all()
    assert validate_structure(np.eye(3), beta).beta_nonhermiticity == d_beta.max()


def test_dimension_mismatch_rejected(pauli):
    with pytest.raises(ValueError):
        sections_dot(pauli.beta, np.zeros(4))
    with pytest.raises(ValueError):
        sections_diamond(pauli.beta, np.zeros(2))


def _table_passes(sc, tol):
    return max(_table_defects(_product_table(sc), sc.theta)) <= tol


def _joint_constants(sc1, sc2):
    subs = [SystemParams(sc=sc, E=np.zeros(sc.n), M=np.zeros((2, sc.n)), N=np.zeros(2))
            for sc in (sc1, sc2)]
    return compose(*subs, np.zeros(sc1.n * sc2.n)).as_system().sc


def _qutrit():
    gm = gell_mann_representation(3)
    return gm, fit_structure_constants(gm).constants


def _scaled_spin(alpha_scale, theta_scale):
    theta = pauli_structure().theta
    return StructureConstants(alpha_scale * np.eye(3), 1j * theta_scale * theta)


def _table_cases():
    q = qubit_representation()
    gm, qutrit = _qutrit()
    pauli = pauli_structure()
    flipped = pauli.theta.copy()
    flipped[2, 0, 1], flipped[2, 1, 0] = -1.0, 1.0  # one orientation pair reversed
    return {
        "spin": (q, pauli, True),
        "spin-flipped-pair": (q, StructureConstants(pauli.alpha, 1j * flipped), False),
        "spin-theta-x3": (q, _scaled_spin(1.0, 3.0), False),
        "spin-alpha-x2": (q, _scaled_spin(2.0, 1.0), False),
        "spin(x)spin": (tensor_representation(q, q), _joint_constants(pauli, pauli), True),
        "qubit(x)qutrit": (tensor_representation(q, gm), _joint_constants(pauli, qutrit), True),
    }


@pytest.mark.parametrize("case", ["spin", "spin-flipped-pair", "spin-theta-x3",
                                  "spin-alpha-x2", "spin(x)spin", "qubit(x)qutrit"])
def test_table_defects_agree_with_dense_oracle(case):
    rep, sc, valid = _table_cases()[case]
    assert check_algebra(rep, sc, tol=1e-10).passed == valid
    assert _table_passes(sc, 1e-10) == valid


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), qutrit=st.booleans())
def test_rotated_basis_passes_table_checks(seed, qutrit):
    """X' = R X with R orthogonal realizes alpha' = R alpha R^T and
    beta'_m = sum_l R_ml R beta_l R^T, so its table checks pass."""
    sc = _qutrit()[1] if qutrit else pauli_structure()
    R, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((sc.n, sc.n)))
    beta = np.einsum("ml,ja,kb,lab->mjk", R, R, R, sc.beta)
    rotated = StructureConstants(R @ sc.alpha @ R.T, beta)
    assert max(_table_defects(_product_table(rotated), rotated.theta)) <= 1e-12


@pytest.mark.parametrize("c", [0.0, 0.5, -2.0, 3.0])
def test_scaled_theta_fails_table_checks(pauli, c):
    T = _product_table(pauli)
    assoc, ccr = _table_defects(T, c * pauli.theta)
    assert assoc == 0.0
    assert ccr == pytest.approx(2.0 * abs(1.0 - c))
    # Scaling the constants themselves: X_j X_k X_k = c^2 X_j, not X_j.
    scaled = _scaled_spin(1.0, c)
    assoc, ccr = _table_defects(_product_table(scaled), scaled.theta)
    assert assoc == pytest.approx(abs(c * c - 1.0)) and ccr == 0.0


def test_sign_flipped_spin_passes_table_checks():
    """X' = -X realizes theta' = -theta."""
    assert _table_passes(_scaled_spin(1.0, -1.0), 0.0)
