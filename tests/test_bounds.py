import numpy as np
import pytest

from conftest import random_hermitian, random_state
from qfiroof import (
    DensityMatrix,
    DimensionMismatchError,
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
from qfiroof.bounds import _beyond_joint_range, _fj

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
    rho = DensityMatrix(0.5 * (psi00.mat + psi11.mat))
    assert rs_lower_bound_L(psi00, a, b) < 1e-12
    assert rs_lower_bound_L(psi11, a, b) < 1e-12
    assert abs(rs_lower_bound_L(rho, a, b) - 2.0) < 1e-12
    assert abs(variance(rho, a) * variance(rho, b) - 1.0) < 1e-12
    # ... while mixing the two Bell states lowers it below the average
    phi = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    psi = PureState(np.array([0, 1, 1, 0]) / np.sqrt(2))
    rho2 = DensityMatrix(0.5 * (phi.mat + psi.mat))
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


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5])
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
    with pytest.raises(ValueError):
        fj_curve(1, [[0.2, 0.5]])
    # NaN compares false against both ends of the interval
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fj_curve(1, [0.5, float("nan")])
    # so a curve's own call rejects a non-finite X before its dual divides by it
    curve = fj_curve(1, [0.5])
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="X must be finite"):
            curve(bad)


def test_spin_length_bound_holds_on_random_states():
    for seed in range(30):
        rho = random_state(3, 1500 + seed)
        rep = spin_length_bound(rho)
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


def test_spin_length_bound_holds_on_its_own_witness():
    # a pure spin-3/2 state within 1e-6 of j F_j at its X = 0.6: for a pure
    # state F_Q/4 = Var(J_x) >= j F_j(X), so the certified rhs may not pass it
    psi = PureState([0.8322915737, -0.3458011241, -0.2876027845, 0.3240323398])
    rep = spin_length_bound(psi)
    assert rep.violated is False
    assert rep.rhs <= variance(psi, make_spin_algebra(1.5).jx)


@pytest.mark.parametrize("j", [1, 1.5, 2, 2.5, 5])
def test_fj_certified_value_meets_its_witness(j):
    lower, upper = _fj(j, np.linspace(0.05, 0.95, 19))
    assert np.all(lower <= upper)
    assert np.all(upper - lower <= 1e-8)


@pytest.mark.parametrize("j", [1.5, 5])
def test_fj_just_inside_the_end_is_not_snapped_to_it(j):
    # F_j(1 - d) falls below 1/2 by about sqrt(d) for j >= 1, so at d = 1e-14 a
    # certified value must sit at least 5e-8 below F_j(1) = 1/2, and near it
    (lower,), (upper,) = _fj(j, [1 - 1e-14])
    assert 0.4999 < lower <= upper
    assert lower < 0.5 - 5e-8


# ---------------------------------------------------------------------------
# constrained variance minimization
# ---------------------------------------------------------------------------

def test_minvar_reproduces_spin_length_curve():
    spin = make_spin_algebra(1)
    curve = fj_curve(1, np.linspace(0, 1, 51))
    for x in (0.0, 0.3, 0.6, 0.9):
        v = minvar_constrained([spin.jx], [spin.jz], [x])
        assert abs(v - 1.0 * curve(x)) < 5e-3


def test_minvar_unconstrained_commuting():
    spin = make_spin_algebra(1)
    v = minvar_constrained([spin.jz])
    assert abs(v) < 1e-12


def test_minvar_two_operator_sum_below_planar_constant():
    spin = make_spin_algebra(1)
    v = minvar_constrained([spin.jx, spin.jy])
    assert v <= 7 / 16 + 5e-3


def test_minvar_two_constraints_dominates_single():
    # pinning <Jy> = 0 on top of <Jz> can only raise the constrained minimum
    spin = make_spin_algebra(1)
    both = minvar_constrained([spin.jx], [spin.jz, spin.jy], [0.3, 0.0])
    single = minvar_constrained([spin.jx], [spin.jz], [0.3])
    assert both >= single - 1e-9


def test_minvar_infeasible_target():
    spin = make_spin_algebra(1)
    with pytest.raises(InfeasibleTargetError):
        minvar_constrained([spin.jx], [spin.jz], [5.0])


def test_minvar_validates_arguments():
    spin = make_spin_algebra(1)
    with pytest.raises(ValueError):
        minvar_constrained([], [], [])
    with pytest.raises(ValueError):
        minvar_constrained([spin.jx], [spin.jz], [])
    # a NaN target would pass the range check and interpolate to NaN
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="targets must be finite"):
            minvar_constrained([spin.jx], [spin.jz], [bad])


def test_minvar_edge_target_is_the_extreme_eigenstate():
    # <J_z> = 1 at j = 1 leaves only |1,1>, where Var(J_x) = 1/2
    spin = make_spin_algebra(1)
    assert abs(minvar_constrained([spin.jx], [spin.jz], [1.0]) - 0.5) < 1e-9
    with pytest.raises(InfeasibleTargetError):
        minvar_constrained([spin.jx], [spin.jz], [1.0 + 5e-7])


def test_minvar_rejects_mixed_dimensions():
    one, two = make_spin_algebra(1), make_spin_algebra(2)
    with pytest.raises(DimensionMismatchError, match="3.*5"):
        minvar_constrained([one.jx], [two.jz], [0.3])
    with pytest.raises(DimensionMismatchError, match="3.*5"):
        minvar_constrained([one.jx, two.jx])


def test_minvar_jointly_unreachable_targets():
    # each target lies in its own operator's range, but |<J>| <= 1 at j = 1
    spin = make_spin_algebra(1)
    with pytest.raises(InfeasibleTargetError):
        minvar_constrained([spin.jx], [spin.jz, spin.jy], [0.3, 0.99])


def test_minvar_joint_range_test_catches_targets_just_outside():
    # |<J>| <= 2 at j = 2: (1.44, 1.4) lies 0.008 outside, where the sweeps
    # used to return a finite value; a feasible pair keeps its value
    spin = make_spin_algebra(2)
    for targets in ([1.44, 1.4], [0.6, 1.98], [1.8, -1.8]):
        with pytest.raises(InfeasibleTargetError, match="joint range"):
            minvar_constrained([spin.jx], [spin.jz, spin.jy], targets)
    inside = minvar_constrained([spin.jx], [spin.jz, spin.jy], [0.5, 0.5])
    assert abs(inside - 0.04338741008883888) < 1e-12
    # on the boundary of the range, |<J>| = 2, the test lets the targets pass
    assert np.isfinite(minvar_constrained([spin.jx], [spin.jz, spin.jy], [2 ** 0.5] * 2))


def test_minvar_joint_range_test_catches_targets_off_the_constraint_planes():
    # |<J>| = 1.005 > 1 at j = 1 only along (1, 1, 1): no direction in a plane of
    # two constraint axes proves it, the direction of the targets does
    spin = make_spin_algebra(1)
    ops = [spin.jx, spin.jy, spin.jz]
    with pytest.raises(InfeasibleTargetError, match="joint range"):
        minvar_constrained([spin.jx], ops, [0.58] * 3)
    # targets of random non-commuting constraints 0.01 beyond a boundary
    # point along its normal u, which the direction of the targets from the
    # maximally mixed means is not: the supergradient steps prove almost all
    # of them out of reach (39 of these 40, against 14 for the plane
    # directions alone; the test is one-sided, so not every one), and no
    # boundary point
    rng = np.random.default_rng(5)
    caught = 0
    for case in range(40):
        b = np.array([random_hermitian(4, 6000 + 3 * case + k).mat for k in range(3)])
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        top = np.linalg.eigh(np.einsum("y,yde->de", u, b))[1][:, -1]
        edge = np.einsum("d,yde,e->y", top.conj(), b, top).real
        assert not _beyond_joint_range(b, edge[None])[0]
        caught += _beyond_joint_range(b, (edge + 0.01 * u)[None])[0]
    assert caught >= 36
