import numpy as np
import pytest

from conftest import random_hermitian, random_state
from qfiroof import (
    DensityMatrix,
    HermitianOperator,
    InfeasibleTargetError,
    OptimizerConfig,
    PureState,
    bfq_bound,
    check_improved_hr,
    check_improved_rs,
    check_robertson_schrodinger,
    check_weighted_sum,
    coherent_state,
    fj_curve,
    make_fock_algebra,
    make_spin_algebra,
    minvar_constrained,
    planar_squeezed_state,
    qfi,
    rs_lower_bound_L,
    sld,
    spin_coherent_polar,
    spin_length_bound,
    su_d_bound,
    tensor,
    variance,
)

FAST = OptimizerConfig(seed=19, restarts=4, local_steps=250)


def _bell_pair_setup():
    sz = HermitianOperator([[1, 0], [0, -1]])
    eye = HermitianOperator(np.eye(2))
    return tensor(sz, eye), tensor(eye, sz)


# ---------------------------------------------------------------------------
# the bound L itself
# ---------------------------------------------------------------------------

def test_L_neither_convex_nor_concave():
    # product bound: Var(A) Var(B) = 1 >= L^2/4 saturates at L = 2
    a, b = _bell_pair_setup()
    # mixing |00> and |11> raises L above the component average ...
    psi00 = PureState([1, 0, 0, 0])
    psi11 = PureState([0, 0, 0, 1])
    rho = DensityMatrix(0.5 * (psi00.density().mat + psi11.density().mat))
    assert rs_lower_bound_L(psi00, a, b) < 1e-12
    assert rs_lower_bound_L(psi11, a, b) < 1e-12
    assert abs(rs_lower_bound_L(rho, a, b) - 2.0) < 1e-12
    assert abs(variance(rho, a) * variance(rho, b) - 1.0) < 1e-12
    # ... while mixing the two Bell states lowers it below the average
    phi = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    psi = PureState(np.array([0, 1, 1, 0]) / np.sqrt(2))
    rho2 = DensityMatrix(0.5 * (phi.density().mat + psi.density().mat))
    assert abs(rs_lower_bound_L(phi, a, b) - 2.0) < 1e-12
    assert abs(rs_lower_bound_L(psi, a, b) - 2.0) < 1e-12
    assert rs_lower_bound_L(rho2, a, b) < 1e-12


def test_L_squared_equals_variance_product_for_pure_qubits():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = PureState(v / np.linalg.norm(v))
        alpha = rng.uniform(0, 2 * np.pi)
        a = HermitianOperator(sx)
        b = HermitianOperator(np.cos(alpha) * sx + np.sin(alpha) * sy)
        l_val = rs_lower_bound_L(psi, a, b)
        assert abs(0.25 * l_val**2 - variance(psi, a) * variance(psi, b)) < 1e-12


# ---------------------------------------------------------------------------
# plain and improved product bounds
# ---------------------------------------------------------------------------

def test_nan_slack_is_indeterminate_not_satisfied():
    from qfiroof import BoundReport

    report = BoundReport(name="probe", lhs=float("nan"), rhs=1.0)
    assert report.violated is None
    assert report.to_dict()["violated"] is None
    assert BoundReport(name="probe", lhs=0.5, rhs=1.0).violated is True
    assert BoundReport(name="probe", lhs=1.0, rhs=1.0).violated is False


def test_improved_rs_report_holds_python_scalars():
    rho = random_state(3, seed=33)
    spin = make_spin_algebra(1)
    rep = check_improved_rs(rho, spin.jx, spin.jy, cfg=FAST)
    assert type(rep.meta["roof_L"]) is float
    assert type(rep.meta["K"]) is float
    assert type(rep.violated) is bool


def test_rs_check_random_states_never_violated():
    for seed in range(100):
        dim = 2 + seed % 3
        rho = random_state(dim, 400 + seed)
        rep = check_robertson_schrodinger(rho, random_hermitian(dim, 500 + seed),
                                          random_hermitian(dim, 600 + seed))
        assert rep.slack >= -1e-9
        assert not rep.violated


def test_rs_check_coherent_state_saturates():
    fock = make_fock_algebra(40)
    psi = coherent_state(0.8, 40)
    rep = check_robertson_schrodinger(psi, fock.x, fock.p)
    assert abs(rep.lhs - 0.25) < 1e-8
    assert abs(rep.slack) < 1e-8


def test_rs_check_maximally_mixed_qubit_is_loose():
    sx = HermitianOperator([[0, 1], [1, 0]])
    sy = HermitianOperator([[0, -1j], [1j, 0]])
    rep = check_robertson_schrodinger(DensityMatrix.maximally_mixed(2), sx, sy)
    assert abs(rep.lhs - 1.0) < 1e-12
    assert abs(rep.rhs) < 1e-12


def test_improved_rs_closes_the_qubit_gap():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    rho = random_state(2, seed=9)
    a = HermitianOperator(sx)
    b = HermitianOperator(np.cos(0.7) * sx + np.sin(0.7) * sy)
    rep = check_improved_rs(rho, a, b, cfg=FAST)
    assert abs(rep.slack) < 1e-8
    assert rep.rhs >= 0.25 * rep.meta["L"] ** 2 - 1e-9


def test_improved_rs_qutrit_beats_plain_bound():
    spin = make_spin_algebra(1)
    rho = DensityMatrix.maximally_mixed(3)
    rep = check_improved_rs(rho, spin.jx, spin.jy, cfg=FAST)
    assert rep.rhs >= 1 / 9 - 1e-9     # from the partition bound of 2/3
    assert rep.meta["K"] >= 2 / 3 - 1e-10
    assert rs_lower_bound_L(rho, spin.jx, spin.jy) < 1e-10


def test_improved_rs_dominates_partition_bound_on_random_qutrits():
    spin = make_spin_algebra(1)
    for seed in range(10):
        rho = random_state(3, 800 + seed)
        rep = check_improved_rs(rho, spin.jx, spin.jy, cfg=FAST)
        assert rep.slack >= -1e-9
        assert rep.rhs >= 0.25 * rep.meta["K"] ** 2 - 1e-9
        assert rep.rhs >= 0.25 * rep.meta["L"] ** 2 - 1e-9


def test_improved_hr_spin_coherent_saturation():
    for j in (0.5, 1, 2):
        spin = make_spin_algebra(j)
        psi = spin_coherent_polar(j, np.pi / 2, 0.0)
        rep = check_improved_hr(psi, spin.jy, spin.jz)
        assert abs(rep.lhs - j**2) < 1e-9
        assert abs(rep.slack) < 1e-9


def test_improved_hr_never_exceeds_plain_heisenberg_lhs():
    for seed in range(50):
        dim = 2 + seed % 3
        rho = random_state(dim, 900 + seed)
        a = random_hermitian(dim, 1000 + seed)
        b = random_hermitian(dim, 1100 + seed)
        rep = check_improved_hr(rho, a, b)
        assert rep.slack >= -1e-9
        assert rep.lhs <= variance(rho, a) * 4 * variance(rho, b) + 1e-9


def test_improved_hr_sld_saturates():
    rho = random_state(3, seed=12)
    b = random_hermitian(3, 13)
    ell = sld(rho, b).sld
    rep = check_improved_hr(rho, ell, b)
    assert abs(rep.slack) <= 1e-8 * max(rep.lhs, 1.0)


# ---------------------------------------------------------------------------
# weighted sums
# ---------------------------------------------------------------------------

def test_weighted_sum_coherent_state_saturates():
    fock = make_fock_algebra(40)
    psi = coherent_state(0.6, 40)
    rep = check_weighted_sum(psi, fock.x, fock.p, 1.0, 1.0, cfg=FAST)
    assert abs(rep.lhs - 1.0) < 1e-8
    assert abs(rep.rhs - 1.0) < 1e-8
    assert abs(rep.slack) < 1e-8


def test_weighted_sum_zero_alpha_trivial():
    rho = random_state(3, seed=14)
    rep = check_weighted_sum(rho, random_hermitian(3, 15), random_hermitian(3, 16),
                             0.0, 2.0)
    assert rep.rhs == 0.0
    assert rep.lhs >= 0.0


def test_weighted_sum_random_qutrits_hold():
    spin = make_spin_algebra(1)
    for seed in range(8):
        rho = random_state(3, 1200 + seed)
        rep = check_weighted_sum(rho, spin.jx, spin.jy, 1.0, 1.0,
                                 cfg=OptimizerConfig(seed=seed))
        assert rep.slack >= -1e-9


def test_weighted_sum_verdict_does_not_rest_on_the_roof_witness():
    # with no search the min witness sits well above the convex roof of L; the
    # verdict tests only the certified |<i[A,B]>| side, so the theorem holds
    spin = make_spin_algebra(1)
    cfg = OptimizerConfig(restarts=1, local_steps=0)
    for seed in range(9000, 9200):
        rho = random_state(3, seed)
        rep = check_weighted_sum(rho, spin.jx, spin.jy, 1.0, 1.0, cfg=cfg)
        assert rep.rhs == rep.meta["commutator_mean_abs"]
        assert rep.meta["roof_witness"] >= rep.rhs - 1e-12
        assert rep.slack > 0.07 and not rep.violated


def test_weighted_sum_rejects_negative_weights():
    rho = random_state(2, seed=17)
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        check_weighted_sum(rho, random_hermitian(2, 18), random_hermitian(2, 19),
                           -1.0, 1.0)


@pytest.mark.parametrize("alpha, beta, message", [
    (float("nan"), 1.0, "weight alpha must be finite"),
    (1.0, float("inf"), "weight beta must be finite"),
    (-float("inf"), 1.0, "weight alpha must be finite"),
])
def test_weighted_sum_rejects_non_finite_weights(alpha, beta, message):
    rho = random_state(2, seed=17)
    with pytest.raises(ValueError, match=message):
        check_weighted_sum(rho, random_hermitian(2, 18), random_hermitian(2, 19), alpha, beta)


# ---------------------------------------------------------------------------
# spin bounds
# ---------------------------------------------------------------------------

def test_bfq_z_polar_mixture_saturates():
    for j in (0.5, 1, 2):
        spin = make_spin_algebra(j)
        mat = np.zeros((spin.dim, spin.dim), dtype=complex)
        mat[0, 0] = mat[-1, -1] = 0.5
        rep = bfq_bound(DensityMatrix(mat))
        assert abs(rep.lhs) < 1e-12
        assert abs(rep.rhs) < 1e-12


def test_bfq_rejects_spin_zero():
    # a dim-1 state has lhs = rhs = 0: an input error, not a verdict
    with pytest.raises(ValueError, match="spin 0"):
        bfq_bound(PureState([1.0]))


def test_bfq_x_polarized_saturates():
    for j in (0.5, 1.5, 4):
        psi = spin_coherent_polar(j, np.pi / 2, 0.0)
        rep = bfq_bound(psi)
        assert abs(rep.lhs - 2 * j) < 1e-9
        assert abs(rep.rhs - 2 * j) < 1e-9
        assert rep.meta["su2_mixture_reference"] == 2 * j


def test_bfq_planar_squeezed_bound_value():
    res = planar_squeezed_state(1.0)
    rep = bfq_bound(res.state)
    assert abs(rep.rhs - 4 * (1.0 - res.var_sum)) < 1e-9
    assert rep.slack >= -1e-9


def test_variance_fisher_three_operator_chain():
    # Var(Jx) + Var(Jy) + F_Q[Jz]/4 >= j, and the lhs never exceeds the
    # plain three-variance sum
    for seed in range(60):
        dim = 2 + seed % 3
        j = (dim - 1) / 2
        spin = make_spin_algebra(j)
        rho = random_state(dim, 1300 + seed)
        fisher_side = variance(rho, spin.jx) + variance(rho, spin.jy) + qfi(rho, spin.jz) / 4
        plain = sum(variance(rho, op) for op in spin.as_tuple())
        assert fisher_side >= j - 1e-9
        assert fisher_side <= plain + 1e-9


def test_bfq_holds_on_random_spin_states():
    for seed in range(100):
        dim = 2 + seed % 3
        rep = bfq_bound(random_state(dim, 1600 + seed))
        assert rep.slack >= -1e-9


def test_su_d_bound_pure_qutrit_saturates():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = PureState(v / np.linalg.norm(v))
    rep = su_d_bound(psi)
    assert abs(rep.lhs - 4.0) < 1e-9
    assert abs(rep.slack) < 1e-9


def test_su_d_bound_maximally_mixed_strictly_loose():
    rep = su_d_bound(DensityMatrix.maximally_mixed(3))
    assert rep.slack > 0.1


def test_su_d_bound_random_qutrits():
    for seed in range(100):
        rep = su_d_bound(random_state(3, 1400 + seed))
        assert rep.slack >= -1e-9


# ---------------------------------------------------------------------------
# spin-length curve and bound
# ---------------------------------------------------------------------------

def test_fj_half_matches_bloch_ball_oracle():
    grid = np.linspace(0, 1, 21)
    curve = fj_curve(0.5, grid)

    def oracle(x):
        # brute-force over Bloch vectors with <sigma_z> = x
        best = np.inf
        r_cap = np.sqrt(max(1 - x * x, 0.0))
        for rx in np.linspace(-r_cap, r_cap, 2001):
            best = min(best, (1 - rx * rx) / 4)
        return best / 0.5

    for x, val in zip(grid, curve.values):
        assert abs(val - oracle(x)) < 1e-6


@pytest.mark.parametrize("j", [0.5, 1, 2])
def test_fj_shape(j):
    grid = np.linspace(0, 1, 21)
    curve = fj_curve(j, grid)
    assert curve.values[0] == 0.0
    assert abs(curve.values[-1] - 0.5) < 1e-9
    assert np.all(curve.values >= 0)
    assert np.all(np.diff(curve.values) >= -1e-12)
    assert np.all(np.diff(curve.values, 2) >= -1e-8)


def test_fj_rejects_bad_grid():
    with pytest.raises(ValueError):
        fj_curve(1, [])
    with pytest.raises(ValueError):
        fj_curve(1, [1.5])
    # NaN compares false against both ends of the interval
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fj_curve(1, [0.5, float("nan")])


def test_spin_length_bound_holds_on_random_states():
    curve = fj_curve(1, np.linspace(0, 1, 51))
    for seed in range(30):
        rho = random_state(3, 1500 + seed)
        rep = spin_length_bound(rho, curve)
        assert rep.slack >= -1e-9


def test_spin_length_bound_x_polarized():
    # fully z-polarized spin: X = 1, F_Q[J_x] = 2j, bound = j * 1/2
    j = 1.0
    psi = spin_coherent_polar(j, 0.0, 0.0)
    rep = spin_length_bound(psi)
    assert abs(rep.lhs - j / 2) < 1e-9
    assert abs(rep.rhs - j / 2) < 1e-9


def test_spin_length_bound_rejects_spin_zero():
    with pytest.raises(ValueError, match="spin"):
        spin_length_bound(PureState([1.0]))


def test_fj_rejects_spin_zero():
    with pytest.raises(ValueError, match="spin"):
        fj_curve(0, np.linspace(0, 1, 11))


def test_spin_length_bound_rejects_foreign_curve():
    curve = fj_curve(0.5, np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        spin_length_bound(DensityMatrix.maximally_mixed(3), curve)


# ---------------------------------------------------------------------------
# constrained variance minimization
# ---------------------------------------------------------------------------

def test_minvar_reproduces_spin_length_curve():
    spin = make_spin_algebra(1)
    mu_grid = np.concatenate([-np.logspace(3, -3, 80), [0.0], np.logspace(-3, 3, 80)])
    curve = fj_curve(1, np.linspace(0, 1, 51))
    for x in (0.0, 0.3, 0.6, 0.9):
        v = minvar_constrained([spin.jx], [spin.jz], [x],
                               lambda_grid=[0.0], mu_grid=mu_grid)
        assert abs(v - 1.0 * curve(x)) < 5e-3


def test_minvar_unconstrained_commuting():
    spin = make_spin_algebra(1)
    v = minvar_constrained([spin.jz], lambda_grid=np.linspace(-2, 2, 21))
    assert abs(v) < 1e-12


def test_minvar_two_operator_sum_below_planar_constant():
    spin = make_spin_algebra(1)
    grid = np.concatenate([-np.logspace(1, -3, 30), [0.0], np.logspace(-3, 1, 30)])
    v = minvar_constrained([spin.jx, spin.jy], lambda_grid=grid)
    assert v <= 7 / 16 + 5e-3


def test_minvar_two_constraints_dominates_single():
    # pinning <Jy> = 0 on top of <Jz> can only raise the constrained minimum
    spin = make_spin_algebra(1)
    grid = np.concatenate([-np.logspace(1, -2, 10), [0.0], np.logspace(-2, 1, 10)])
    both = minvar_constrained([spin.jx], [spin.jz, spin.jy], [0.3, 0.0],
                              lambda_grid=[0.0], mu_grid=grid)
    single = minvar_constrained([spin.jx], [spin.jz], [0.3],
                                lambda_grid=[0.0], mu_grid=grid)
    assert both >= single - 1e-9


def test_minvar_infeasible_target():
    spin = make_spin_algebra(1)
    with pytest.raises(InfeasibleTargetError):
        minvar_constrained([spin.jx], [spin.jz], [5.0],
                           lambda_grid=[0.0], mu_grid=np.linspace(-2, 2, 11))


def test_minvar_validates_arguments():
    spin = make_spin_algebra(1)
    with pytest.raises(ValueError):
        minvar_constrained([], [], [])
    with pytest.raises(ValueError):
        minvar_constrained([spin.jx], [spin.jz], [])
    # a NaN target would pass the range check and interpolate to NaN
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="targets must be finite"):
            minvar_constrained([spin.jx], [spin.jz], [bad],
                               lambda_grid=[0.0], mu_grid=np.linspace(-2, 2, 11))
