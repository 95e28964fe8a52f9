import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_hermitian, random_state, scalar_reference_roof
from qfiroof import (
    DensityMatrix,
    HermitianOperator,
    OptimizerConfig,
    PureState,
    RobertsonSchrodingerBound,
    VarianceSum,
    concave_roof_L,
    convex_roof_variance,
    eigen_partition_bound_K,
    extract_decomposition,
    make_spin_algebra,
    optimize_roof,
    purify,
    qfi,
    qubit_z_line_decomposition,
    roof_sum_I,
    roof_sum_R,
    rs_lower_bound_L,
    singlet_state,
    variance,
)
from qfiroof.core import haar_random_unitary
from qfiroof.roofs import (
    CallableFunctional,
    Decomposition,
    Purification,
    _objective,
    _Plan,
    decomposition_average,
    default_mixed_partitions,
    set_partitions,
    singleton_partition,
    trivial_partition,
)

FAST = OptimizerConfig(seed=13, restarts=4, local_steps=250)


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

def test_purify_pure_state_single_schmidt_coefficient():
    psi = PureState([0.6, 0.8j])
    pur = purify(psi.density())
    m = pur.psi_p.vec.reshape(2, 2)
    schmidt = np.linalg.svd(m, compute_uv=False)
    assert abs(schmidt[0] - 1.0) < 1e-10
    assert schmidt[1] < 1e-10


def test_purify_maximally_mixed_qubit():
    pur = purify(DensityMatrix.maximally_mixed(2))
    m = pur.psi_p.vec.reshape(2, 2)
    schmidt = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(schmidt, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_purify_reconstructs_random_qutrit():
    rho = random_state(3, seed=21)
    pur = purify(rho, ancilla_dim=3)
    recon = pur.system_columns() @ pur.system_columns().conj().T
    assert np.max(np.abs(recon - rho.mat)) < 1e-12


def test_purify_rejects_small_ancilla():
    rho = random_state(3, seed=22)
    with pytest.raises(ValueError):
        purify(rho, ancilla_dim=2)


def test_purify_enlarged_ancilla():
    rho = random_state(2, seed=23)
    pur = purify(rho, ancilla_dim=5)
    dec = extract_decomposition(pur)
    assert dec.reconstructs(rho, tol=1e-10)


# ---------------------------------------------------------------------------
# decomposition extraction
# ---------------------------------------------------------------------------

def test_extract_identity_unitary_gives_eigendecomposition():
    rho = random_state(3, seed=31)
    dec = extract_decomposition(purify(rho))
    weights = sorted((p for p, _ in dec.components), reverse=True)
    assert np.allclose(weights, rho.eigenvalues[rho.eigenvalues > 1e-14], atol=1e-10)
    assert dec.reconstructs(rho, tol=1e-10)


def test_extract_trivial_partition_returns_state_itself():
    rho = random_state(3, seed=32)
    base = purify(rho)
    pur = Purification(target=rho, ancilla_dim=3, psi_p=base.psi_p,
                       u_a=base.u_a, partition=trivial_partition(3))
    dec = extract_decomposition(pur)
    assert len(dec) == 1
    p, comp = dec.components[0]
    assert abs(p - 1.0) < 1e-12
    assert np.max(np.abs(comp.mat - rho.mat)) < 1e-10


def test_extract_random_unitary_reconstructs():
    rho = DensityMatrix.maximally_mixed(2)
    base = purify(rho)
    u = haar_random_unitary(2, np.random.default_rng(4))
    pur = Purification(target=rho, ancilla_dim=2, psi_p=base.psi_p,
                       u_a=u, partition=singleton_partition(2))
    dec = extract_decomposition(pur)
    assert len(dec) == 2
    assert all(isinstance(s, PureState) for _, s in dec.components)
    assert abs(sum(p for p, _ in dec.components) - 1.0) < 1e-12
    assert dec.reconstructs(rho, tol=1e-10)


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
@settings(max_examples=25)
def test_extract_always_reconstructs(seed, dim):
    rho = random_state(dim, seed)
    base = purify(rho)
    rng = np.random.default_rng(seed + 1)
    parts = list(set_partitions(dim)) if dim <= 3 else [singleton_partition(dim)]
    pur = Purification(target=rho, ancilla_dim=dim, psi_p=base.psi_p,
                       u_a=haar_random_unitary(dim, rng),
                       partition=parts[seed % len(parts)])
    assert extract_decomposition(pur).reconstructs(rho, tol=1e-8)


def test_set_partitions_count():
    assert len(list(set_partitions(3))) == 5
    assert len(list(set_partitions(4))) == 15


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimize_min_respects_fisher_floor():
    rho = random_state(3, seed=41)
    op = random_hermitian(3, 42)
    res = optimize_roof(rho, VarianceSum([op]), "min", cfg=FAST)
    assert res.value >= qfi(rho, op) / 4 - 1e-9


def test_optimize_max_respects_variance_ceiling():
    rho = random_state(3, seed=43)
    op = random_hermitian(3, 44)
    res = optimize_roof(rho, VarianceSum([op]), "max", cfg=FAST)
    assert res.value <= variance(rho, op) + 1e-9


def test_optimize_two_operator_concave_roof_equals_variance_sum():
    rho = random_state(2, seed=45)
    a = random_hermitian(2, 46)
    b = random_hermitian(2, 47)
    res = optimize_roof(rho, VarianceSum([a, b]), "max", cfg=OptimizerConfig(seed=2))
    target = variance(rho, a) + variance(rho, b)
    assert abs(res.value - target) <= 0.01 * target


def test_optimize_rejects_bad_direction():
    rho = random_state(2, seed=48)
    with pytest.raises(ValueError):
        optimize_roof(rho, VarianceSum([random_hermitian(2, 49)]), "upward")


def test_optimizer_deterministic():
    rho = random_state(3, seed=51)
    op = random_hermitian(3, 52)
    r1 = convex_roof_variance(rho, op, cfg=FAST)
    r2 = convex_roof_variance(rho, op, cfg=FAST)
    assert r1.value == r2.value
    assert r1.evaluations == r2.evaluations


def test_callable_functional_adapter():
    rho = random_state(2, seed=53)
    op = random_hermitian(2, 54)
    res = optimize_roof(rho, lambda s: variance(s, op), "max",
                        cfg=OptimizerConfig(seed=1, restarts=2, local_steps=60))
    assert res.value <= variance(rho, op) + 1e-9


def _functionals(dim, seed):
    a, b = random_hermitian(dim, seed), random_hermitian(dim, seed + 1)
    return [VarianceSum([a]), VarianceSum([a, b]), RobertsonSchrodingerBound(a, b),
            CallableFunctional(lambda s: variance(s, a) + 0.5 * variance(s, b))]


@pytest.mark.parametrize("dim, ancilla", [(2, 2), (3, 3), (3, 4), (4, 4)])
def test_batched_objective_matches_extracted_decompositions(dim, ancilla):
    rho = random_state(dim, seed=110 + ancilla)
    base = purify(rho, ancilla)
    m = base.psi_p.vec.reshape(dim, ancilla)
    rng = np.random.default_rng(ancilla)
    pairs = [(part, haar_random_unitary(ancilla, rng))
             for part in set_partitions(ancilla) for _ in range(3)]
    plan = _Plan.build([part for part, _ in pairs], ancilla)
    us = np.array([u for _, u in pairs])
    for functional in _functionals(dim, 120 + ancilla):
        batched = _objective(m, us, plan, functional)
        for (part, u), value in zip(pairs, batched):
            pur = Purification(target=rho, ancilla_dim=ancilla, psi_p=base.psi_p,
                               u_a=u, partition=part)
            expected = decomposition_average(extract_decomposition(pur), functional)
            assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_mixed_values_stack_matches_on_state(dim):
    mats = np.array([random_state(dim, seed=130 + k, rank=1 + k % dim).mat for k in range(5)])
    for functional in _functionals(dim, 140 + dim):
        stacked = functional.mixed_values(mats)
        assert stacked.shape == (5,)
        for mat, value in zip(mats, stacked):
            rho = DensityMatrix(mat)
            assert abs(value - functional.on_state(rho)) < 1e-12
            if rho.rank() == 1:
                # the pure-state path is independent code
                assert abs(value - functional.pure_values(rho.eigenvectors[:, :1])[0]) < 1e-12


REFERENCE_CASES = [(dim, direction, kind, seed) for dim in (2, 3) for direction in ("min", "max")
                   for kind in ("variance", "rs") for seed in (0, 1)]


@pytest.mark.parametrize("dim, direction, kind, seed", REFERENCE_CASES)
def test_lockstep_search_matches_scalar_reference(dim, direction, kind, seed):
    rho = random_state(dim, seed=150 + seed)
    a, b = random_hermitian(dim, 160 + seed), random_hermitian(dim, 170 + seed)
    if kind == "variance":
        functional, partitions = VarianceSum([a]), None
    else:
        functional, partitions = RobertsonSchrodingerBound(a, b), default_mixed_partitions(dim)
    cfg = OptimizerConfig(seed=seed, restarts=3, local_steps=120)
    res = optimize_roof(rho, functional, direction, partitions=partitions, cfg=cfg)
    ref = scalar_reference_roof(rho, functional, direction, partitions=partitions, cfg=cfg)
    assert type(res.value) is float
    assert abs(res.value - ref.value) < 1e-9
    assert abs(decomposition_average(res.decomposition, functional) - res.value) < 1e-12
    trivial = sum(len(part) == 1 for part in partitions or [])
    saved = trivial * (cfg.restarts * (cfg.local_steps + 1) - 1)
    assert res.evaluations == ref.evaluations - saved


def test_lockstep_search_matches_scalar_reference_through_tolerance_stops():
    # at the default budget some climbs stop on the step-size tolerance while
    # others keep going, so the stack shrinks mid-search
    rho = random_state(2, seed=181)
    a, b = _alpha_pair(0.7)
    functional = RobertsonSchrodingerBound(a, b)
    partitions = [singleton_partition(2), trivial_partition(2)]
    cfg = OptimizerConfig(seed=4)
    res = optimize_roof(rho, functional, "max", partitions=partitions, cfg=cfg)
    ref = scalar_reference_roof(rho, functional, "max", partitions=partitions, cfg=cfg)
    assert abs(res.value - ref.value) < 1e-9
    assert res.converged == ref.converged
    assert res.evaluations < 1 + cfg.restarts * (cfg.local_steps + 1)


def test_trivial_only_search_is_one_evaluation_of_the_state():
    rho = random_state(3, seed=191)
    functional = RobertsonSchrodingerBound(random_hermitian(3, 192), random_hermitian(3, 193))
    res = optimize_roof(rho, functional, "max", partitions=[trivial_partition(3)], cfg=FAST)
    assert res.value == functional.on_state(rho)
    assert res.evaluations == 1
    assert res.converged
    assert len(res.decomposition) == 1
    assert res.decomposition.reconstructs(rho, tol=1e-12)


# ---------------------------------------------------------------------------
# named roofs
# ---------------------------------------------------------------------------

def test_convex_roof_pure_state_is_plain_variance():
    spin = make_spin_algebra(1)
    psi = PureState(np.array([0.6, 0.48j, 0.64]))
    res = convex_roof_variance(psi, spin.jz, cfg=FAST)
    assert abs(res.value - variance(psi, spin.jz)) < 1e-9


def test_convex_roof_diagonal_qubit_reaches_quarter():
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    op = HermitianOperator([[0, 1], [1, 0]])
    res = convex_roof_variance(rho, op, cfg=OptimizerConfig(seed=3))
    assert res.value >= 0.25 - 1e-9
    assert res.value <= 0.25 * 1.02


def test_sandwich_inequality_on_witnesses():
    for seed in range(6):
        rho = random_state(3, 60 + seed)
        op = random_hermitian(3, 70 + seed)
        for direction in ("min", "max"):
            res = optimize_roof(rho, VarianceSum([op]), direction, cfg=FAST)
            avg = decomposition_average(res.decomposition, VarianceSum([op]))
            assert qfi(rho, op) / 4 - 1e-9 <= avg <= variance(rho, op) + 1e-9


def test_roof_sum_single_operator_identities():
    rho = random_state(3, seed=81)
    op = random_hermitian(3, 82)
    cfg = OptimizerConfig(seed=6)
    assert abs(roof_sum_I(rho, [op], cfg).value - qfi(rho, op) / 4) <= 0.02 * qfi(rho, op) / 4
    r = roof_sum_R(rho, [op], cfg)
    assert abs(r.value - variance(rho, op)) <= 0.01 * variance(rho, op)


def test_roof_sum_I_dominates_fisher_sum():
    rho = random_state(3, seed=83)
    ops = [random_hermitian(3, 84), random_hermitian(3, 85)]
    res = roof_sum_I(rho, ops, FAST)
    fisher_sum = sum(qfi(rho, op) for op in ops) / 4
    assert res.value >= fisher_sum - 1e-9


def test_roof_sum_I_singlet_collective_vanishes():
    from qfiroof.entanglement import collective_spin_ops
    psi = singlet_state(0.5)
    ops = collective_spin_ops(0.5, 2)
    res = roof_sum_I(psi, ops, FAST)
    assert res.value < 1e-9


def test_roof_sum_R_three_operators_bounded_by_variance_sum():
    rho = random_state(3, seed=86)
    ops = [random_hermitian(3, 87 + k) for k in range(3)]
    res = roof_sum_R(rho, ops, FAST)
    assert res.value <= sum(variance(rho, op) for op in ops) + 1e-9


# ---------------------------------------------------------------------------
# concave roof of the uncertainty bound
# ---------------------------------------------------------------------------

def _alpha_pair(alpha):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return (HermitianOperator(sx),
            HermitianOperator(np.cos(alpha) * sx + np.sin(alpha) * sy))


def test_concave_roof_L_qubit_saturation():
    rho = random_state(2, seed=91)
    a, b = _alpha_pair(0.9)
    res = concave_roof_L(rho, a, b, cfg=FAST)
    assert abs(0.25 * res.value**2 - variance(rho, a) * variance(rho, b)) < 1e-6


def test_concave_roof_L_pure_state():
    psi = PureState([0.8, 0.6j])
    a, b = _alpha_pair(0.4)
    res = concave_roof_L(psi, a, b, cfg=FAST)
    assert abs(res.value - rs_lower_bound_L(psi, a, b)) < 1e-8


def test_concave_roof_L_maximally_mixed_qubit():
    rho = DensityMatrix.maximally_mixed(2)
    a, b = _alpha_pair(1.3)
    res = concave_roof_L(rho, a, b, cfg=FAST)
    # saturation: value^2 / 4 = Var(A) Var(B) = 1
    assert abs(0.25 * res.value**2 - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# z-line decomposition
# ---------------------------------------------------------------------------

def test_z_line_weights_and_variances():
    bx, bz = 0.3, 0.2
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    rho = DensityMatrix(0.5 * (np.eye(2) + bx * sx + bz * sz))
    dec = qubit_z_line_decomposition(rho)
    t = np.sqrt(1 - bx**2)
    expected = sorted([(1 + bz / t) / 2, (1 - bz / t) / 2])
    assert np.allclose(sorted(p for p, _ in dec.components), expected, atol=1e-10)
    for _, comp in dec.components:
        assert abs(variance(comp, HermitianOperator(sx)) - variance(rho, HermitianOperator(sx))) < 1e-10
    assert dec.reconstructs(rho, tol=1e-10)


def test_z_line_center_of_ball():
    dec = qubit_z_line_decomposition(DensityMatrix.maximally_mixed(2))
    assert len(dec) == 2
    assert np.allclose([p for p, _ in dec.components], [0.5, 0.5])
    vecs = sorted(np.abs(s.vec[0]) for _, s in dec.components)
    assert np.allclose(vecs, [0, 1], atol=1e-10)  # the two z poles


def test_z_line_rejects_non_qubit():
    with pytest.raises(ValueError):
        qubit_z_line_decomposition(DensityMatrix.maximally_mixed(3))


@given(st.integers(0, 10**6), st.floats(0.0, 2 * np.pi))
@settings(max_examples=60)
def test_z_line_saturates_concave_bound(seed, alpha):
    rho = random_state(2, seed)
    a, b = _alpha_pair(alpha)
    dec = qubit_z_line_decomposition(rho)
    lsum = decomposition_average(dec, RobertsonSchrodingerBound(a, b))
    assert abs(0.25 * lsum**2 - variance(rho, a) * variance(rho, b)) < 1e-10


# ---------------------------------------------------------------------------
# eigenvector-partition bound
# ---------------------------------------------------------------------------

def test_partition_bound_maximally_mixed_qutrit():
    spin = make_spin_algebra(1)
    rho = DensityMatrix.maximally_mixed(3)
    k = eigen_partition_bound_K(rho, spin.jx, spin.jy)
    assert abs(k - 2 / 3) < 1e-10
    assert rs_lower_bound_L(rho, spin.jx, spin.jy) < 1e-10


def test_partition_bound_pure_qutrit_is_plain_L():
    psi = PureState(np.array([0.6, 0.0, 0.8]))
    rho = psi.density()
    spin = make_spin_algebra(1)
    k = eigen_partition_bound_K(rho, spin.jx, spin.jy)
    assert abs(k - rs_lower_bound_L(psi, spin.jx, spin.jy)) < 1e-9


def test_partition_bound_dominates_plain_bound():
    spin = make_spin_algebra(1)
    for seed in range(50):
        rho = random_state(3, 700 + seed)
        k = eigen_partition_bound_K(rho, spin.jx, spin.jy)
        assert k >= rs_lower_bound_L(rho, spin.jx, spin.jy) - 1e-12


def test_partition_bound_rejects_non_qutrit():
    spin = make_spin_algebra(0.5)
    with pytest.raises(ValueError):
        eigen_partition_bound_K(DensityMatrix.maximally_mixed(2), spin.jx, spin.jy)


def test_rank_deficient_state_with_matching_ancilla():
    # rank-2 qutrit purifies into a 2-level ancilla
    rho = random_state(3, seed=95, rank=2)
    pur = purify(rho, ancilla_dim=2)
    dec = extract_decomposition(pur)
    assert len(dec) == 2
    assert dec.reconstructs(rho, tol=1e-10)
    res = optimize_roof(rho, VarianceSum([random_hermitian(3, 96)]), "min",
                        cfg=OptimizerConfig(seed=1, restarts=2, local_steps=100),
                        ancilla_dim=2)
    assert res.decomposition.reconstructs(rho, tol=1e-8)


def test_user_supplied_mixed_partition_dim4():
    from qfiroof.roofs import default_mixed_partitions
    parts = default_mixed_partitions(4, extra=[((0, 1), (2, 3))])
    assert ((0, 1), (2, 3)) in parts
    rho = random_state(4, seed=97)
    a = random_hermitian(4, 98)
    b = random_hermitian(4, 99)
    res = concave_roof_L(rho, a, b, cfg=OptimizerConfig(seed=3, restarts=2,
                                                        local_steps=100),
                         partitions=parts)
    assert res.value >= rs_lower_bound_L(rho, a, b) - 1e-9
    assert res.decomposition.reconstructs(rho, tol=1e-8)


def test_partition_validation():
    rho = random_state(2, seed=101)
    base = purify(rho)
    with pytest.raises(ValueError):
        Purification(target=rho, ancilla_dim=2, psi_p=base.psi_p,
                     u_a=base.u_a, partition=((0,),))  # does not cover index 1
    with pytest.raises(ValueError):
        Purification(target=rho, ancilla_dim=2, psi_p=base.psi_p,
                     u_a=base.u_a, partition=((0, 1), (1,)))  # overlap
    with pytest.raises(ValueError):
        Purification(target=random_state(2, seed=102), ancilla_dim=2,
                     psi_p=base.psi_p, u_a=base.u_a,
                     partition=((0,), (1,)))  # traces back to the wrong state


def test_decomposition_validation():
    psi = PureState([1, 0])
    with pytest.raises(ValueError):
        Decomposition(((0.4, psi), (0.4, psi)))  # weights sum to 0.8
    with pytest.raises(ValueError):
        Decomposition(((-0.5, psi), (1.5, psi)))


# ---------------------------------------------------------------------------
# the component-product inequality behind the roof bounds
# ---------------------------------------------------------------------------

@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_product_inequality_on_produced_decompositions(seed):
    # (sum p a)(sum p b) >= (sum p |c|)^2 whenever a_k b_k >= c_k^2 per component
    rho = random_state(3, seed)
    a = random_hermitian(3, seed + 1)
    b = random_hermitian(3, seed + 2)
    res = optimize_roof(rho, RobertsonSchrodingerBound(a, b), "max",
                        cfg=OptimizerConfig(seed=seed % 1000, restarts=2, local_steps=80))
    avg_a = decomposition_average(res.decomposition, VarianceSum([a]))
    avg_b = decomposition_average(res.decomposition, VarianceSum([b]))
    avg_c = 0.5 * decomposition_average(res.decomposition, RobertsonSchrodingerBound(a, b))
    assert avg_a * avg_b >= avg_c**2 - 1e-9
