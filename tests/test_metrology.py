import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import dense_density, dense_qfi, dense_sld, random_hermitian, random_state
from qfiroof import (
    DensityMatrix,
    HermitianOperator,
    PureState,
    UnestimableParameterError,
    VanishingSignalError,
    check_sld_saturation,
    commutator_i,
    cramer_rao,
    error_propagation,
    expectation,
    make_spin_algebra,
    qfi,
    sld,
    spin_coherent_polar,
    variance,
    variance_qfi_gap,
)


def _diag_qubit():
    return DensityMatrix(np.diag([0.75, 0.25]))


def _sigma_x():
    return HermitianOperator([[0, 1], [1, 0]])


def _z_polar_mixture(j):
    spin = make_spin_algebra(j)
    mat = np.zeros((spin.dim, spin.dim), dtype=complex)
    mat[0, 0] = mat[-1, -1] = 0.5
    return DensityMatrix(mat), spin


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def test_qfi_pure_state_equals_four_variances():
    spin = make_spin_algebra(1.5)
    psi = spin_coherent_polar(1.5, 1.1, 0.3)
    assert abs(qfi(psi, spin.jz) - 4 * variance(psi, spin.jz)) < 1e-10
    # rank-one density matrices go through the spectral formula and must agree
    assert abs(qfi(psi.density(), spin.jz) - 4 * variance(psi, spin.jz)) < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_qfi_matches_full_spectrum_pair_sum_at_every_rank(dim):
    rng = np.random.default_rng(dim)
    for rank in range(1, dim + 1):
        for seed in range(3):
            b = random_hermitian(dim, seed=31 + seed)
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            states = [random_state(dim, seed=2000 * dim + 10 * rank + seed, rank=rank),
                      DensityMatrix.from_factor(g / np.linalg.norm(g))]
            if rank == 1:
                states.append(PureState(g[:, 0] / np.linalg.norm(g)))
            for state in states:
                oracle = dense_qfi(dense_density(state), b.mat)
                assert qfi(state, b) == pytest.approx(oracle, rel=1e-10, abs=1e-14)


def test_qfi_diagonal_qubit_sigma_x():
    # direct spectral-sum evaluation: 2 * (1/2)^2 / 1 * 2 off-diagonal terms = 1
    assert abs(qfi(_diag_qubit(), _sigma_x()) - 1.0) < 1e-12


def test_qfi_diagonal_qubit_brute_force_decomposition_oracle():
    """Scan all two-component pure decompositions of the qubit via Bloch geometry.

    rho = p |n1><n1| + (1-p) |n2><n2| with unit Bloch vectors n1, n2;
    given n1, the weight follows from |b - p n1| = 1 - p.  The minimum of
    4 sum p_k Var_k over the scan must match the Fisher information.
    """
    rho = _diag_qubit()
    op = _sigma_x()
    b = np.array([0.0, 0.0, 0.5])  # Bloch vector of diag(3/4, 1/4)

    def bloch_state(n):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        mat = 0.5 * (np.eye(2) + n[0] * sx + n[1] * sy + n[2] * sz)
        vals, vecs = np.linalg.eigh(mat)
        return PureState(vecs[:, np.argmax(vals)])

    best = np.inf
    for theta in np.linspace(0, np.pi, 181):
        for phi in np.linspace(0, 2 * np.pi, 73):
            n1 = np.array([np.sin(theta) * np.cos(phi),
                           np.sin(theta) * np.sin(phi), np.cos(theta)])
            # |b - p n1|^2 = (1-p)^2  ->  quadratic in p
            a2 = float(n1 @ n1) - 1.0  # zero: linear equation
            lin = -2.0 * float(b @ n1) + 2.0
            const = float(b @ b) - 1.0
            if abs(lin) < 1e-12:
                continue
            p = -const / lin
            if not (1e-9 < p < 1 - 1e-9):
                continue
            n2 = (b - p * n1) / (1 - p)
            if abs(n2 @ n2 - 1.0) > 1e-9:
                continue
            psi1, psi2 = bloch_state(n1), bloch_state(n2)
            avg = p * variance(psi1, op) + (1 - p) * variance(psi2, op)
            best = min(best, 4 * avg)
    assert abs(best - qfi(rho, op)) < 2e-2 * qfi(rho, op)


def test_qfi_vanishes_for_commuting_generator():
    rho, spin = _z_polar_mixture(1.5)
    assert qfi(rho, spin.jz) == 0.0


def test_qfi_spin_coherent_maximum():
    for j in (0.5, 1, 2.5):
        spin = make_spin_algebra(j)
        psi = spin_coherent_polar(j, np.pi / 2, 0.0)  # fully x-polarized
        assert abs(qfi(psi, spin.jz) - 2 * j) < 1e-10


# ---------------------------------------------------------------------------
# symmetric logarithmic derivative
# ---------------------------------------------------------------------------

def test_sld_pure_state():
    spin = make_spin_algebra(1)
    psi = spin_coherent_polar(1, 0.7, 0.2)
    res = sld(psi, spin.jz)
    assert abs(res.mean_sld) < 1e-10
    assert abs(res.qfi - 4 * variance(psi, spin.jz)) < 1e-9


def test_sld_diagonal_qubit_structure():
    # off-diagonal magnitude 2 * (1/2) / 1 = 1, i.e. a sigma_y-like operator
    res = sld(_diag_qubit(), _sigma_x())
    assert abs(abs(res.sld.mat[0, 1]) - 1.0) < 1e-12
    assert abs(res.sld.mat[0, 0]) < 1e-12
    assert abs(res.qfi - 1.0) < 1e-12


def test_sld_commuting_case_vanishes():
    rho, spin = _z_polar_mixture(1)
    res = sld(rho, spin.jz)
    assert np.max(np.abs(res.sld.mat)) < 1e-12
    assert res.qfi == 0.0


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_sld_identities(seed, dim):
    rho = random_state(dim, seed)
    op = random_hermitian(dim, seed + 17)
    res = sld(rho, op)
    assert abs(res.mean_sld) < 1e-10
    assert abs(res.qfi - qfi(rho, op)) < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_sld_matches_the_eigenbasis_reference_at_every_rank(dim):
    # L from the support against the full-eigenbasis formula, on dense-built,
    # factor-built and pure states
    rng = np.random.default_rng(60 + dim)
    for rank in range(1, dim + 1):
        v = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        v /= np.linalg.norm(v)
        states = [random_state(dim, seed=70 * dim + rank, rank=rank), DensityMatrix.from_factor(v)]
        if rank == 1:
            states.append(PureState(v[:, 0]))
        b = random_hermitian(dim, 80 * dim + rank)
        for state in states:
            ell = sld(state, b).sld.mat
            assert np.max(np.abs(ell - dense_sld(dense_density(state), b.mat))) < 1e-12


# ---------------------------------------------------------------------------
# error propagation and the Cramer-Rao chain
# ---------------------------------------------------------------------------

def test_error_propagation_spin_coherent():
    for j in (0.5, 1, 3):
        spin = make_spin_algebra(j)
        psi = spin_coherent_polar(j, np.pi / 2, 0.0)
        err = error_propagation(psi, spin.jy, spin.jz)
        assert abs(err - 1 / (2 * j)) < 1e-10
        assert abs(err - 1 / qfi(psi, spin.jz)) < 1e-10


def test_error_propagation_with_sld_reaches_fisher_limit():
    rho = random_state(3, seed=77)
    op = random_hermitian(3, 78)
    ell = sld(rho, op).sld
    assert abs(error_propagation(rho, ell, op) - 1 / qfi(rho, op)) < 1e-9


def test_error_propagation_vanishing_signal():
    spin = make_spin_algebra(1)
    psi = spin_coherent_polar(1, np.pi / 2, 0.0)
    with pytest.raises(VanishingSignalError):
        error_propagation(psi, spin.jz, spin.jz)


def test_cramer_rao_values():
    spin = make_spin_algebra(2)
    psi = spin_coherent_polar(2, np.pi / 2, 0.0)
    report = cramer_rao(psi, spin.jz, m=1)
    assert abs(report.cramer_rao - 1 / 4) < 1e-10  # 1/(2j) with j = 2
    assert report.error_propagation is None
    report100 = cramer_rao(psi, spin.jz, m=100)
    assert abs(report100.cramer_rao - report.cramer_rao / 100) < 1e-12
    with_obs = cramer_rao(psi, spin.jz, m=1, a=spin.jy)
    assert with_obs.error_propagation == pytest.approx(1 / 4, abs=1e-10)


def test_cramer_rao_unestimable():
    rho, spin = _z_polar_mixture(1)
    with pytest.raises(UnestimableParameterError):
        cramer_rao(rho, spin.jz, m=1)


def test_cramer_rao_takes_a_positive_integer_count():
    spin = make_spin_algebra(1)
    psi = spin_coherent_polar(1, np.pi / 2, 0.0)
    for bad in (0, -3, float("nan"), 2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            cramer_rao(psi, spin.jz, m=bad)
    assert cramer_rao(psi, spin.jz, m=np.int64(4)).cramer_rao == pytest.approx(1 / 8, abs=1e-12)


@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_error_propagation_dominates_cramer_rao(seed, dim):
    rho = random_state(dim, seed)
    a = random_hermitian(dim, seed + 1)
    b = random_hermitian(dim, seed + 2)
    c = commutator_i(a, b)
    if abs(expectation(rho, c)) <= 1e-6:
        return
    assert error_propagation(rho, a, b) >= 1 / qfi(rho, b) - 1e-9


# ---------------------------------------------------------------------------
# variance-Fisher gap
# ---------------------------------------------------------------------------

def test_variance_qfi_gap_pure_is_zero():
    spin = make_spin_algebra(1)
    psi = spin_coherent_polar(1, 0.4, 1.2)
    assert variance_qfi_gap(psi, spin.jx) == 0.0


def test_variance_qfi_gap_extremes():
    rho, spin = _z_polar_mixture(2)
    assert abs(variance_qfi_gap(rho, spin.jz) - 4.0) < 1e-12  # j^2 with j = 2
    mixed = DensityMatrix.maximally_mixed(2)
    sz = HermitianOperator([[1, 0], [0, -1]])
    assert abs(variance_qfi_gap(mixed, sz) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# saturation diagnostics
# ---------------------------------------------------------------------------

def test_sld_saturation_detected():
    rho = random_state(3, seed=5)
    b = random_hermitian(3, 6)
    ell = sld(rho, b).sld
    saturated, c = check_sld_saturation(rho, ell, b)
    assert saturated
    assert abs(c - 1.0) < 1e-8
    saturated2, c2 = check_sld_saturation(rho, 2.0 * ell, b)
    assert saturated2
    assert abs(c2 - 0.5) < 1e-8


def test_sld_saturation_commuting_state_and_generator():
    # [rho, B] = 0: Var(A) F_Q[rho, B] = 0 = |<i[A,B]>|^2, so the relation is
    # saturated whatever A is, with scale 0
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    b = HermitianOperator(np.diag([1.0, -1.0, 0.5]))
    a = random_hermitian(3, 18)
    assert variance(rho, a) > 0.1
    assert check_sld_saturation(rho, a, b) == (True, 0.0)


def test_sld_saturation_generic_triple_fails():
    rho = random_state(3, seed=15)
    a = random_hermitian(3, 16)
    b = random_hermitian(3, 17)
    saturated, _ = check_sld_saturation(rho, a, b)
    assert not saturated
    # the product relation is strict for this triple
    lhs = variance(rho, a) * qfi(rho, b)
    rhs = expectation(rho, commutator_i(a, b)) ** 2
    assert lhs > rhs + 1e-6


# ---------------------------------------------------------------------------
# global properties
# ---------------------------------------------------------------------------

@given(st.integers(0, 10**6), st.integers(0, 10**6), st.floats(0.05, 0.95),
       st.sampled_from([2, 3, 4]))
def test_qfi_convexity(seed1, seed2, p, dim):
    rho1 = random_state(dim, seed1)
    rho2 = random_state(dim, seed2)
    op = random_hermitian(dim, seed1 ^ (seed2 << 1) ^ 0x55)
    mix = DensityMatrix(p * rho1.mat + (1 - p) * rho2.mat)
    assert qfi(mix, op) <= p * qfi(rho1, op) + (1 - p) * qfi(rho2, op) + 1e-9


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_qfi_bounded_by_variance(seed, dim):
    rho = random_state(dim, seed)
    op = random_hermitian(dim, seed + 99)
    assert qfi(rho, op) <= 4 * variance(rho, op) + 1e-9


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_qfi_unitary_invariance(seed, dim):
    rho = random_state(dim, seed)
    op = random_hermitian(dim, seed + 5)
    h = random_hermitian(dim, seed + 6)
    vals, vecs = np.linalg.eigh(h.mat)
    u = (vecs * np.exp(1j * vals)) @ vecs.conj().T
    rho_u = DensityMatrix(u @ rho.mat @ u.conj().T)
    op_u = HermitianOperator(u @ op.mat @ u.conj().T)
    assert abs(qfi(rho_u, op_u) - qfi(rho, op)) < 1e-9


def test_improved_hr_holds_on_random_triples():
    for dim in (2, 3, 4):
        for s in range(200):
            rho = random_state(dim, 10_000 + s)
            a = random_hermitian(dim, 20_000 + s)
            b = random_hermitian(dim, 30_000 + s)
            lhs = variance(rho, a) * qfi(rho, b)
            rhs = expectation(rho, commutator_i(a, b)) ** 2
            assert lhs >= rhs - 1e-9
