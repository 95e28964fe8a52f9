import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    closed_form_K,
    dense_density,
    dense_qfi,
    dense_rs_bound,
    dense_variance,
    dense_variance_sum,
    random_hermitian,
    random_state,
    scalar_reference_roof,
)
from qfiroof import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    OptimizerConfig,
    PureState,
    RandomStateConfig,
    RobertsonSchrodingerBound,
    VarianceSum,
    check_robertson_schrodinger,
    collective_spin_ops,
    concave_roof_L,
    convex_roof_variance,
    eigen_partition_bound_K,
    extract_decomposition,
    make_spin_algebra,
    optimize_roof,
    purify,
    qfi,
    qubit_z_line_decomposition,
    random_density_matrix,
    roof_sum_I,
    roof_sum_R,
    rs_lower_bound_L,
    singlet_state,
    spin_coherent_mixture,
    variance,
)
from qfiroof import roofs
from qfiroof.core import _support, haar_random_unitary
from qfiroof.roofs import (
    BFGS_MEMORY,
    WEIGHT_DROP,
    Decomposition,
    RoofFunctional,
    _eigen_groupings,
    _gram_stack,
    _lbfgs_direction,
    _objective,
    _split_block,
    _split_start,
    decomposition_average,
)

FAST = OptimizerConfig(seed=13, restarts=4, local_steps=250)


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

def test_purify_pure_state_single_schmidt_coefficient():
    psi = PureState([0.6, 0.8j])
    m = purify(psi.density())
    schmidt = np.linalg.svd(m, compute_uv=False)
    assert abs(schmidt[0] - 1.0) < 1e-10
    assert schmidt[1] < 1e-10


def test_purify_maximally_mixed_qubit():
    m = purify(DensityMatrix.maximally_mixed(2))
    schmidt = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(schmidt, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_purify_reconstructs_random_qutrit():
    rho = random_state(3, seed=21)
    m = purify(rho, ancilla_dim=3)
    assert m.shape == (3, 3)
    recon = m @ m.conj().T
    assert np.max(np.abs(recon - rho.mat)) < 1e-12


def test_purify_rejects_small_ancilla():
    rho = random_state(3, seed=22)
    with pytest.raises(ValueError):
        purify(rho, ancilla_dim=2)


def test_purify_enlarged_ancilla():
    rho = random_state(2, seed=23)
    m = purify(rho, ancilla_dim=5)
    assert m.shape == (2, 5) and not np.any(m[:, 2:])
    dec = extract_decomposition(m, np.eye(5))
    assert dec.reconstructs(rho, tol=1e-10)


# ---------------------------------------------------------------------------
# decomposition extraction
# ---------------------------------------------------------------------------

def test_extract_identity_unitary_gives_eigendecomposition():
    rho = random_state(3, seed=31)
    dec = extract_decomposition(purify(rho), np.eye(3))
    weights = sorted((p for p, _ in dec.components), reverse=True)
    assert np.allclose(weights, _support(rho)[0], atol=1e-10)
    assert dec.reconstructs(rho, tol=1e-10)


def test_extract_random_unitary_reconstructs():
    rho = DensityMatrix.maximally_mixed(2)
    u = haar_random_unitary(2, np.random.default_rng(4))
    dec = extract_decomposition(purify(rho), u)
    assert len(dec) == 2
    assert all(isinstance(s, PureState) for _, s in dec.components)
    assert abs(sum(p for p, _ in dec.components) - 1.0) < 1e-12
    assert dec.reconstructs(rho, tol=1e-10)


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
@settings(max_examples=25)
def test_extract_always_reconstructs(seed, dim):
    rho = random_state(dim, seed)
    rng = np.random.default_rng(seed + 1)
    dec = extract_decomposition(purify(rho), haar_random_unitary(dim, rng))
    assert dec.reconstructs(rho, tol=1e-8)


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


def test_optimize_rejects_operators_of_another_dimension():
    # a spin-1/2 functional on a qutrit fails before any Gram stack is built
    spin = make_spin_algebra(0.5)
    for rho in (random_state(3, seed=44), PureState([0.6, 0.0, 0.8])):
        with pytest.raises(ValueError, match="dimension 2.*dimension 3"):
            optimize_roof(rho, VarianceSum([spin.jz]), "min", cfg=FAST)
        with pytest.raises(ValueError, match="dimension 2.*dimension 3"):
            concave_roof_L(rho, spin.jx, spin.jy, cfg=FAST)


def test_moment_functionals_reject_operators_of_another_dimension():
    # the typed error that variance and qfi raise, not a numpy matmul error
    half, one = make_spin_algebra(0.5), make_spin_algebra(1)
    qutrit = random_state(3, seed=47)
    dec = Decomposition(((0.5, PureState([1, 0, 0])), (0.5, PureState([0, 1, 0]))))
    for call in (lambda: rs_lower_bound_L(qutrit, half.jx, half.jy),
                 lambda: check_robertson_schrodinger(qutrit, half.jx, half.jy),
                 lambda: decomposition_average(dec, RobertsonSchrodingerBound(half.jx, half.jy)),
                 lambda: decomposition_average(dec, VarianceSum([half.jz])),
                 lambda: VarianceSum([half.jz, one.jz]),
                 lambda: RobertsonSchrodingerBound(half.jx, one.jy)):
        with pytest.raises(DimensionMismatchError):
            call()
    with pytest.raises(DimensionMismatchError, match="dimension 2.*dimension 3"):
        rs_lower_bound_L(qutrit, half.jx, half.jy)


def test_optimizer_config_validation():
    for bad in (dict(restarts=0), dict(local_steps=-1), dict(tolerance=-1e-5),
                dict(tolerance=0.0), dict(tolerance=float("nan")),
                dict(tolerance=float("inf"))):
        with pytest.raises(ValueError):
            OptimizerConfig(**bad)
    # budgets and the seed are counts: a non-integral value would fail later inside
    # range() or the Haar draw
    for bad in (dict(restarts=2.5), dict(local_steps=2.5), dict(restarts=2.0),
                dict(local_steps="10"), dict(restarts=True), dict(seed=1.5), dict(seed="3"),
                dict(seed=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            OptimizerConfig(**bad)
    # a negative seed would fail only inside the first Haar draw
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        OptimizerConfig(seed=-1, restarts=1)
    cfg = OptimizerConfig(seed=np.uint32(9), restarts=np.int64(2), local_steps=np.int32(5))
    res = convex_roof_variance(random_state(2, seed=45), random_hermitian(2, 46), cfg=cfg)
    assert res.evaluations <= 2 * (5 + 1)


def test_optimizer_deterministic():
    rho = random_state(3, seed=51)
    op = random_hermitian(3, 52)
    r1 = convex_roof_variance(rho, op, cfg=FAST)
    r2 = convex_roof_variance(rho, op, cfg=FAST)
    assert r1.value == r2.value
    assert r1.evaluations == r2.evaluations


def test_roof_entry_points_take_only_roof_functionals():
    rho = random_state(2, seed=53)
    op = random_hermitian(2, 54)
    dec = Decomposition(((1.0, rho),))
    for bad in (lambda s: variance(s, op), VarianceSum, None):
        with pytest.raises(TypeError, match="RoofFunctional"):
            optimize_roof(rho, bad, "max", cfg=FAST)
        with pytest.raises(TypeError, match="RoofFunctional"):
            decomposition_average(dec, bad)


class _SquaredMean(RoofFunctional):
    """<A>^2 on a component: a functional of a single moment operator."""

    def __init__(self, a):
        self.ops = a.mat[None]

    def from_moments(self, p, mom):
        mean = mom[..., 0].real
        return mean * mean / p

    def moment_grad(self, p, mom):
        ratio = mom[..., 0].real / p
        return self.from_moments(p, mom), -ratio * ratio, (2.0 * ratio)[..., None] + 0j


def _functionals(dim, seed):
    """The functional kinds, each with its dense formula of a density matrix."""
    a, b = random_hermitian(dim, seed), random_hermitian(dim, seed + 1)
    return [
        (VarianceSum([a]), lambda s: dense_variance_sum(s, [a.mat])),
        (VarianceSum([a, b]), lambda s: dense_variance_sum(s, [a.mat, b.mat])),
        (RobertsonSchrodingerBound(a, b), lambda s: dense_rs_bound(s, a.mat, b.mat)),
        (_SquaredMean(a), lambda s: np.trace(s @ a.mat).real ** 2),
    ]


def _max_start(rho, functional, ancilla=None):
    """Restart 0 of a maximization and the number of groupings scored to choose it."""
    return _split_start(_gram_stack(purify(rho, ancilla), functional.ops), functional)


@pytest.mark.parametrize("dim, ancilla", [(2, 2), (3, 3), (3, 4), (4, 4)])
def test_batched_objective_matches_extracted_decompositions(dim, ancilla):
    # a (4, 3) stack of Haar unitaries evaluated as one against re-evaluating
    # the extracted witness decomposition component by component
    rho = random_state(dim, seed=110 + ancilla)
    m = purify(rho, ancilla)
    rng = np.random.default_rng(ancilla)
    us = np.array([[haar_random_unitary(ancilla, rng) for _ in range(3)] for _ in range(4)])
    for functional, _ in _functionals(dim, 120 + ancilla):
        batched = _objective(_gram_stack(m, functional.ops), us, functional)
        assert batched.shape == (4, 3)
        for u, value in zip(us.reshape(-1, ancilla, ancilla), batched.ravel()):
            expected = decomposition_average(extract_decomposition(m, u), functional)
            assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_from_moments_stack_matches_dense_formulas(dim):
    # a stack of states of every rank, with unnormalised moments p Tr(sigma X)
    states = [random_state(dim, seed=130 + k, rank=1 + k % dim) for k in range(5)]
    weights = np.linspace(0.2, 0.9, len(states))
    for functional, dense in _functionals(dim, 140 + dim):
        ops = functional.ops
        mom = np.array([p * np.einsum("xij,ji->x", ops, rho.mat)
                        for p, rho in zip(weights, states)])
        stacked = functional.from_moments(weights, mom)
        assert stacked.shape == (len(states),)
        for p, rho, value in zip(weights, states, stacked):
            assert abs(value - p * dense(rho.mat)) < 1e-12
            assert abs(functional.on_state(rho) - dense(rho.mat)) < 1e-12
            if rho.rank() == 1:
                psi = PureState(_support(rho)[1][:, 0])
                assert abs(functional.on_state(psi) - dense(rho.mat)) < 1e-12


def test_rank_deficient_qutrit_search_raises_no_floating_point_error():
    # at the identity the null eigenvector's ancilla column carries weight 0,
    # and the split groupings that start a maximization rotate it into their
    # blocks; the search reads moments, gradients and line-search moments of both
    rho = random_state(3, seed=201, rank=2)
    a, b = random_hermitian(3, 202), random_hermitian(3, 203)
    cfg = OptimizerConfig(seed=5, restarts=3, local_steps=120)
    m = purify(rho)
    eye = np.eye(3, dtype=complex)
    assert np.sum(np.abs(m[:, 2]) ** 2) < WEIGHT_DROP
    with np.errstate(all="raise"):
        for functional, dense in _functionals(3, 204):
            at_identity = _objective(_gram_stack(m, functional.ops), eye[None], functional)[0]
            expected = decomposition_average(extract_decomposition(m, eye), functional)
            assert abs(at_identity - expected) < 1e-12
            res = optimize_roof(rho, functional, "max", cfg=cfg)
            ref = scalar_reference_roof(rho, functional, "max",
                                        start=_max_start(rho, functional)[0], cfg=cfg)
            assert abs(res.value - ref.value) < 1e-9
            assert abs(_dense_average(res.decomposition, dense) - res.value) < 1e-12
        functional = RobertsonSchrodingerBound(a, b)
        roof = concave_roof_L(rho, a, b, cfg=cfg)
        ref = scalar_reference_roof(rho, functional, "max", start=_max_start(rho, functional)[0],
                                    cfg=cfg)
        k = eigen_partition_bound_K(rho, a, b)
    assert abs(roof.value - ref.value) < 1e-9
    assert abs(k - closed_form_K(rho, a.mat, b.mat)) < 1e-12
    assert roof.value >= k - 1e-12


def _dense_average(dec, dense):
    """sum_k p_k dense(sigma_k) of a witness, every component as a dense matrix."""
    return sum(p * dense(dense_density(state)) for p, state in dec.components)


def _random_hermitian_stack(rng, count, n):
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    h = 0.5 * (g + g.conj().swapaxes(-1, -2))
    return h / np.linalg.norm(h, axis=(-2, -1), keepdims=True)


def _rotated(h, mus, us):
    """exp(i mu H) U for every mu of each stack row, shape (C, T, n, n)."""
    lam, vecs = np.linalg.eigh(h)
    phases = np.exp(1j * mus[:, :, None] * lam[:, None, :])
    rot = (vecs[:, None] * phases[:, :, None, :]) @ vecs.conj().swapaxes(-1, -2)[:, None]
    return rot @ us[:, None]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_moment_grad_matches_central_differences(dim):
    # every functional kind at components of every rank, against central
    # differences of from_moments along paths P(t) = (1 + tE) P (1 + tE)^dag
    # of the unnormalised component P = p sigma, which keep its rank and
    # move its weight and all its moments
    states = [random_state(dim, seed=250 + k, rank=1 + k % dim) for k in range(5)]
    weights = np.linspace(0.2, 0.9, len(states))
    comps = weights[:, None, None] * np.array([rho.mat for rho in states])
    rng = np.random.default_rng(dim)
    h = 1e-5
    for functional, _ in _functionals(dim, 260 + dim):
        ops = functional.ops

        def at(path):
            return functional.from_moments(np.trace(path, axis1=1, axis2=2).real,
                                           np.einsum("xij,kji->kx", ops, path))

        mom = np.einsum("xij,kji->kx", ops, comps)
        value, dp, dmom = functional.moment_grad(weights, mom)
        # the value from the gradient's pass is from_moments' own, bit for bit
        assert np.array_equal(value, functional.from_moments(weights, mom))
        for _ in range(3):
            e = rng.standard_normal((len(states), dim, dim)) + 1j * rng.standard_normal(
                (len(states), dim, dim))
            tangent = e @ comps + comps @ e.conj().swapaxes(-1, -2)

            def moved(t):
                step = np.eye(dim) + t * e
                return step @ comps @ step.conj().swapaxes(-1, -2)

            numeric = (at(moved(h)) - at(moved(-h))) / (2 * h)
            analytic = (dp * np.trace(tangent, axis1=1, axis2=2).real
                        + np.sum((dmom.conj() * np.einsum("xij,kji->kx", ops, tangent)).real,
                                 axis=1))
            assert np.max(np.abs(numeric - analytic)) < 1e-8 * (1 + np.max(np.abs(analytic)))


GRADIENT_CASES = [(2, 2), (3, 3), (4, 4), (3, 4)]


@pytest.mark.parametrize("dim, ancilla", GRADIENT_CASES)
def test_riemannian_gradient_matches_central_differences(dim, ancilla):
    # Haar unitaries of the ancilla, every functional kind: the
    # directional derivative Tr(Gamma H) along exp(i eps H) U against a
    # central difference of the objective of explicitly rotated unitaries
    rho = random_state(dim, seed=270 + ancilla)
    m = purify(rho, ancilla)
    rng = np.random.default_rng(280 + dim + ancilla)
    count = 5
    us = np.array([haar_random_unitary(ancilla, rng) for _ in range(count)])
    eps = 1e-5
    for functional, _ in _functionals(dim, 290 + ancilla):
        gram = _gram_stack(m, functional.ops)
        values, grad = _objective(gram, us, functional, gradient=True)
        assert grad.shape == (count, ancilla, ancilla)
        assert np.max(np.abs(grad - grad.conj().swapaxes(-1, -2))) == 0.0
        assert np.array_equal(values, _objective(gram, us, functional))
        for _ in range(3):
            h = _random_hermitian_stack(rng, count, ancilla)
            moved = _rotated(h, np.array([[eps, -eps]] * count), us)
            ends = _objective(gram, moved, functional)
            numeric = (ends[:, 0] - ends[:, 1]) / (2 * eps)
            analytic = np.einsum("iab,iba->i", grad, h).real
            assert np.max(np.abs(numeric - analytic)) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_geodesic_candidates_match_the_matrix_exponential(n):
    # the line search's candidates V e^{i mu lam} (V^dag U) against expm(i mu D) U
    from scipy.linalg import expm
    rng = np.random.default_rng(330 + n)
    count = 3
    us = np.array([haar_random_unitary(n, rng) for _ in range(count)])
    d = _random_hermitian_stack(rng, count, n) * 4.0
    lam, vecs = np.linalg.eigh(d)
    mus = rng.uniform(0.0, 2.0, (count, 5))
    formed = roofs._geodesic(vecs, lam, vecs.conj().swapaxes(-1, -2) @ us, mus)
    assert formed.shape == (count, 5, n, n)
    for i in range(count):
        for t in range(5):
            assert np.max(np.abs(formed[i, t] - expm(1j * mus[i, t] * d[i]) @ us[i])) < 1e-12


def _oracle_case(dim, kind, seed):
    """The state, operators, functional and dense formula of one search case;
    qubit pairs lie in the xy plane, where the z line saturates the bound."""
    rho = random_state(dim, seed=150 + seed)
    if kind == "variance":
        a = random_hermitian(dim, 160 + seed)
        return rho, a, None, VarianceSum([a]), lambda s: dense_variance_sum(s, [a.mat])
    a, b = (_alpha_pair(0.3 + seed) if dim == 2 else
            (random_hermitian(dim, 160 + seed), random_hermitian(dim, 170 + seed)))
    return rho, a, b, RobertsonSchrodingerBound(a, b), lambda s: dense_rs_bound(s, a.mat, b.mat)


def _searched(rho, functional, direction, cfg, ancilla):
    """The roof under test and the restart-0 unitary and the evaluations that
    chose it: the best split grouping of a maximization, the identity of a
    minimization."""
    res = optimize_roof(rho, functional, direction, cfg=cfg, ancilla_dim=ancilla)
    if direction == "max":
        return res, *_max_start(rho, functional, ancilla)
    return res, None, 1


def _eigen_average(mat, dense):
    """sum_k lambda_k f(v_k) over the eigendecomposition of a density matrix."""
    lam, vecs = np.linalg.eigh(mat)
    return sum(p * dense(np.outer(v, v.conj())) for p, v in zip(lam, vecs.T))


def _assert_oracles(rho, a, b, direction, kind, res, steps):
    """The certified side of every case, and its known value where the search converges."""
    mat, am = rho.mat, a.mat
    if kind == "variance":
        fisher, var = dense_qfi(mat, am) / 4, dense_variance(mat, am)
        assert fisher - 1e-9 <= res.value <= var + 1e-9
        if steps >= 100:
            target = fisher if direction == "min" else var
            assert abs(res.value - target) <= 1e-7 * target
        return
    l_rho = dense_rs_bound(mat, am, b.mat)
    if direction == "min":
        # restart 0 starts at the eigendecomposition; every component obeys
        # L >= |<i[A, B]>|
        comm = abs(np.trace(mat @ (1j * (am @ b.mat - b.mat @ am))).real)
        eigen = _eigen_average(mat, lambda s: dense_rs_bound(s, am, b.mat))
        assert comm - 1e-9 <= res.value <= eigen + 1e-12
        return
    ceiling = 2.0 * np.sqrt(dense_variance(mat, am) * dense_variance(mat, b.mat))
    assert l_rho - 1e-12 <= res.value <= ceiling + 1e-9
    if rho.dim == 3:
        assert res.value >= closed_form_K(rho, am, b.mat) - 1e-12
    if rho.dim == 2:
        # the split trivial grouping is the z-line decomposition, which
        # attains the ceiling for pairs in the xy plane
        assert res.value >= ceiling - 1e-12


REFERENCE_CASES = [pytest.param(dim, direction, kind, seed, 120, None,
                                id=f"{dim}-{direction}-{kind}-{seed}")
                   for dim in (2, 3) for direction in ("min", "max")
                   for kind in ("variance", "rs") for seed in (0, 1)]
# iteration budgets from none to past the point where every start has stopped
REFERENCE_CASES += [pytest.param(3, "max", "rs", 2, steps, None, id=f"3-max-rs-2-steps{steps}")
                    for steps in (0, 1, 15, 16, 17, 129)]
# a four-level system in its own ancilla and in one twice as large
REFERENCE_CASES += [pytest.param(4, direction, kind, 0, steps, ancilla,
                                 id=f"4-{direction}-{kind}-0-ancilla{ancilla}")
                    for ancilla, steps in ((4, 257), (8, 120))
                    for direction, kind in (("min", "variance"), ("max", "rs"))]


@pytest.mark.parametrize("dim, direction, kind, seed, local_steps, ancilla", REFERENCE_CASES)
def test_lockstep_search_matches_scalar_reference(dim, direction, kind, seed, local_steps,
                                                  ancilla):
    rho, a, b, functional, dense = _oracle_case(dim, kind, seed)
    cfg = OptimizerConfig(seed=seed, restarts=3, local_steps=local_steps)
    res, start, scored = _searched(rho, functional, direction, cfg, ancilla)
    assert type(res.value) is float
    # the witness is exact: its dense re-evaluation is the reported value
    assert res.decomposition.reconstructs(rho, tol=1e-9)
    assert abs(_dense_average(res.decomposition, dense) - res.value) < 1e-12
    _assert_oracles(rho, a, b, direction, kind, res, local_steps)
    assert res.evaluations <= scored - 1 + cfg.restarts * (local_steps + 1)
    # each start run on its own takes the same steps
    ref = scalar_reference_roof(rho, functional, direction, start=start, cfg=cfg,
                                ancilla_dim=ancilla)
    assert abs(res.value - ref.value) < 1e-9
    assert res.evaluations == ref.evaluations + scored - 1
    assert res.converged == ref.converged


def test_lockstep_search_matches_scalar_reference_through_tolerance_stops():
    # starts stop on the gradient tolerance at different iterations, so the
    # stack shrinks mid-search: a qubit at the default budget, and a qutrit
    # with a coarse tolerance in its own ancilla and in one of dimension 5
    a, b = _alpha_pair(0.7)
    qubit = (random_state(2, seed=181), a, b, OptimizerConfig(seed=4), 2)
    qutrit = (random_state(3, seed=181), random_hermitian(3, 182), random_hermitian(3, 183),
              OptimizerConfig(seed=6, restarts=3, local_steps=400, tolerance=0.01), 3)
    in_five = (*qutrit[:3], OptimizerConfig(seed=6, restarts=3, local_steps=400, tolerance=0.05), 5)
    for rho, a, b, cfg, ancilla in (qubit, qutrit, in_five):
        functional = RobertsonSchrodingerBound(a, b)
        res, start, scored = _searched(rho, functional, "max", cfg, ancilla)
        ref = scalar_reference_roof(rho, functional, "max", start=start, cfg=cfg,
                                    ancilla_dim=ancilla)
        assert abs(res.value - ref.value) < 1e-9
        assert res.converged and ref.converged
        assert res.evaluations == ref.evaluations + scored - 1
        assert res.evaluations < scored - 1 + cfg.restarts * (cfg.local_steps + 1)


def test_lockstep_search_matches_scalar_reference_through_mixed_iterations(monkeypatch):
    # within one stack iteration some starts accept and others reject, some
    # push no pair while others do, and some fall back from a downhill
    # direction, so _ascend leaves its every-start shortcuts for per-start
    # selects (_select) and pushes (_push), counted here.  A direction from
    # positive-curvature pairs ascends up to rounding, so every start whose
    # memory holds exactly two pairs is handed its negated direction: a
    # rule local to the start, the same in the stack and on its own.
    rho, a, b, functional, _ = _oracle_case(4, "rs", 1)
    cfg = OptimizerConfig(seed=1, restarts=3, local_steps=120)
    lbfgs, select, push = roofs._lbfgs_direction, roofs._select, roofs._push
    mixed = {"accept": 0, "uphill": 0, "push": 0}

    def downhill_at_two(grad, steps, changes, inv, count):
        d = lbfgs(grad, steps, changes, inv, count)
        d[count == 2] *= -1.0
        return d

    def counted_select(mask, new, old):
        if mask.any() and not mask.all():
            # the direction is (C, k), of the accepted stacks only vals is (C,)
            if new.ndim == 1:
                mixed["accept"] += 1
            elif new.ndim == 2:
                mixed["uphill"] += 1
        return select(mask, new, old)

    def counted_push(memory, newest, rows=None):
        if rows is not None:
            mixed["push"] += 1
        push(memory, newest, rows)

    monkeypatch.setattr(roofs, "_lbfgs_direction", downhill_at_two)
    monkeypatch.setattr(roofs, "_select", counted_select)
    monkeypatch.setattr(roofs, "_push", counted_push)
    res = optimize_roof(rho, functional, "min", cfg=cfg)
    assert min(mixed.values()) > 0, mixed
    ref = scalar_reference_roof(rho, functional, "min", cfg=cfg)
    assert res.value == ref.value
    assert res.evaluations == ref.evaluations
    assert res.converged == ref.converged


def test_default_convex_roof_converges_to_fisher_information(caplog):
    # the ascent stops on the gradient tolerance, not on the budget, and
    # logs one line per roof
    with caplog.at_level(logging.DEBUG, logger="qfiroof.roofs"):
        for s in range(10):
            rho = random_state(3, 330 + s)
            op = random_hermitian(3, 340 + s)
            res = convex_roof_variance(rho, op)
            target = qfi(rho, op) / 4
            assert res.converged
            assert target - 1e-12 <= res.value <= target * (1 + 1e-8)
    lines = [r.getMessage() for r in caplog.records if r.name == "qfiroof.roofs"]
    assert len(lines) == 10
    for line in lines:
        assert line.startswith("optimize_roof: 8 starts, ")
        assert "evaluations, stopped on tolerance" in line
        assert "no_ascent" in line and "budget 0," in line and line.endswith(" s")


def _bfgs_inverse_hessian(steps, changes, k):
    """Dense inverse Hessian of the textbook BFGS recursion from H_0 = gamma I,
    gamma = (s.y)/(y.y) of the newest pair, over ``steps``/``changes`` given
    newest first and applied oldest first."""
    if not steps:
        return np.eye(k)
    s0, y0 = steps[0], changes[0]
    h = (s0 @ y0) / (y0 @ y0) * np.eye(k)
    for s, y in zip(reversed(steps), reversed(changes)):
        rho = 1.0 / (s @ y)
        left = np.eye(k) - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
    return h


def test_lbfgs_direction_matches_dense_bfgs_recursion():
    # count 0, partial memory, full memory and mixed counts in one stack;
    # slots past a start's count hold stale pairs that must not contribute
    rng = np.random.default_rng(17)
    k, memory = 8, BFGS_MEMORY
    count = np.array([0, 2, memory, 1, 4, memory, 3, 0])
    c = len(count)
    steps = rng.standard_normal((memory, c, k))
    changes = np.empty_like(steps)
    for j in range(memory):
        for i in range(c):
            # y = A s with A symmetric positive definite keeps s.y > 0
            a = rng.standard_normal((k, k))
            changes[j, i] = (a @ a.T + np.eye(k)) @ steps[j, i]
    curvature = np.einsum("mck,mck->mc", steps, changes)
    inv = np.where(np.arange(memory)[:, None] < count, 1.0 / curvature, 0.0)
    grad = rng.standard_normal((c, k))
    d = _lbfgs_direction(grad, steps, changes, inv, count)
    for i in range(c):
        h = _bfgs_inverse_hessian(list(steps[:count[i], i]), list(changes[:count[i], i]), k)
        expected = h @ grad[i]
        assert np.linalg.norm(d[i] - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.array_equal(d[count == 0], grad[count == 0])


def test_starts_draw_from_their_own_streams():
    # with no iterations the search returns the best of its starts: restart
    # 0 at the best split eigenvector grouping of a maximization and at the
    # identity of a minimization, restart r > 0 at the Haar unitary of
    # default_rng([seed, 0, r]).  The split start is the exact roof of one
    # variance, so the variance maximization sums four variances
    cases = [("max", random_state(3, 5),
              VarianceSum([random_hermitian(3, 300 + k) for k in range(4)]), 3)]
    for direction, kind, ancilla in (("max", "rs", None), ("min", "rs", None),
                                     ("min", "variance", 4)):
        rho, _, _, functional, _ = _oracle_case(3, kind, 5)
        cases.append((direction, rho, functional, ancilla))
    winners = set()
    for direction, rho, functional, ancilla in cases:
        n = ancilla or 3
        m = purify(rho, n)
        sign = 1.0 if direction == "max" else -1.0
        for seed in range(29, 45):
            cfg = OptimizerConfig(seed=seed, restarts=4, local_steps=0)
            res, start, scored = _searched(rho, functional, direction, cfg, ancilla)
            values = []
            for r_idx in range(cfg.restarts):
                u = (np.eye(n) if start is None else start) if r_idx == 0 else \
                    haar_random_unitary(n, np.random.default_rng([seed, 0, r_idx]))
                values.append(decomposition_average(extract_decomposition(m, u), functional))
            best = int(np.argmax(sign * np.array(values)))
            winners.add(best)
            assert abs(res.value - values[best]) < 1e-12
            assert res.evaluations == scored - 1 + len(values)
            assert abs(decomposition_average(res.decomposition, functional) - res.value) < 1e-12
    # the cases are won by starts of every restart index
    assert winners == {0, 1, 2, 3}


def test_concave_roof_L_makes_one_start_per_restart():
    # with no iterations a qutrit roof scores its five split groupings in
    # one call, climbs from the best, and evaluates R - 1 Haar starts; in a
    # five-level ancilla it scores seven groupings
    rho = random_state(3, seed=211)
    a, b = random_hermitian(3, 212), random_hermitian(3, 213)
    for restarts, ancilla, evaluations in ((4, None, 8), (8, None, 12), (4, 5, 10)):
        cfg = OptimizerConfig(seed=3, restarts=restarts, local_steps=0)
        assert concave_roof_L(rho, a, b, cfg=cfg, ancilla_dim=ancilla).evaluations == evaluations
    assert [len(g) for g in _eigen_groupings(3)] == [3, 1, 2, 2, 2]


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
    # with no search the split trivial grouping, whose pure components keep
    # the means of one or two operators, is already the concave roof sum Var
    start_only = OptimizerConfig(seed=6, restarts=1, local_steps=0)
    for ops in ([op], [op, random_hermitian(3, 83)]):
        r = roof_sum_R(rho, ops, start_only)
        assert abs(r.value - sum(variance(rho, o) for o in ops)) <= 1e-12


def test_roof_sum_I_dominates_fisher_sum():
    rho = random_state(3, seed=83)
    ops = [random_hermitian(3, 84), random_hermitian(3, 85)]
    res = roof_sum_I(rho, ops, FAST)
    fisher_sum = sum(qfi(rho, op) for op in ops) / 4
    assert res.value >= fisher_sum - 1e-9


def test_roof_sum_I_singlet_collective_vanishes():
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


def test_concave_roof_L_saturates_the_qubit_ceiling_without_iterations():
    # for a pair in the xy plane the split trivial grouping is the z-line
    # decomposition, which attains 2 sqrt(Var(A) Var(B))
    for seed in range(100):
        rho = random_state(2, 1200 + seed)
        a, b = _alpha_pair(0.1 + 0.06 * seed)
        res = concave_roof_L(rho, a, b, cfg=OptimizerConfig(seed=seed, restarts=1, local_steps=0))
        ceiling = 2.0 * np.sqrt(variance(rho, a) * variance(rho, b))
        assert abs(res.value - ceiling) < 1e-12


# ---------------------------------------------------------------------------
# mixed components split into pure ones with the same means
# ---------------------------------------------------------------------------

def _random_grouping(rng, n):
    labels = rng.integers(0, n, n)
    return [list(np.flatnonzero(labels == label)) for label in np.unique(labels)]


SPLIT_CASES = [(dim, rank, ancilla) for dim in range(2, 6) for rank in range(1, dim + 1)
               for ancilla in sorted({rank, dim, dim + 2})]


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3, 1.0])
def test_split_components_keep_their_block_means_and_never_lower_L(eps):
    # a random grouping of the components of a Haar unitary, every block split
    # by _split_block: the pure components reconstruct rho, share their
    # block's means of A and B = A + eps H, and score at least the block's L
    for case, (dim, rank, ancilla) in enumerate(SPLIT_CASES):
        rng = np.random.default_rng([case, int(100 * eps)])
        rho = random_state(dim, seed=400 + case, rank=rank)
        a = random_hermitian(dim, 500 + case)
        b = HermitianOperator(a.mat + eps * random_hermitian(dim, 600 + case).mat)
        functional = RobertsonSchrodingerBound(a, b)
        m = purify(rho, ancilla)
        u0 = haar_random_unitary(ancilla, rng)
        grams = _gram_stack(m, functional.ops).reshape(ancilla, -1, ancilla).swapaxes(0, 1)
        q = u0.conj() @ grams[:3] @ u0.T        # G_I, G_A, G_B of the components of u0
        grouping = _random_grouping(rng, ancilla)
        w = np.eye(ancilla, dtype=complex)
        for block in grouping:
            w[np.ix_(block, block)] = _split_block(q[:, block][:, :, block])
        u = w @ u0
        assert extract_decomposition(m, u).reconstructs(rho, tol=1e-12)
        mixed, split = m @ u0.T, m @ u.T
        for block in grouping:
            weight = np.sum(np.abs(mixed[:, block]) ** 2)
            if weight < WEIGHT_DROP:
                continue
            sigma = mixed[:, block] @ mixed[:, block].conj().T / weight
            means = [np.trace(sigma @ op.mat).real for op in (a, b)]
            average = 0.0
            for vec in split[:, block].T:
                p = np.vdot(vec, vec).real
                if p < WEIGHT_DROP:
                    continue
                pure = np.outer(vec, vec.conj()) / p
                for op, mean in zip((a, b), means):
                    assert abs(np.trace(pure @ op.mat).real - mean) < 1e-9
                average += p * dense_rs_bound(pure, a.mat, b.mat)
            assert average >= weight * dense_rs_bound(sigma, a.mat, b.mat) - 1e-12


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


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
def test_z_line_weights_near_the_sphere_match_mpmath(gap):
    # equatorial qubits at 1 - r = gap: the exact z-line weights of the float
    # matrix, (1 +- b_z / sqrt(1 - b_x^2 - b_y^2)) / 2, in 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for phi in np.linspace(0.0, 2 * np.pi, 13):
        bx, by = (1 - gap) * np.cos(phi), (1 - gap) * np.sin(phi)
        mat = 0.5 * np.array([[1, bx - 1j * by], [bx + 1j * by, 1]])
        dec = qubit_z_line_decomposition(DensityMatrix(mat))
        bz = mpmath.mpf(mat[0, 0].real) - mpmath.mpf(mat[1, 1].real)
        z_top = mpmath.sqrt(1 - (2 * mpmath.mpf(mat[1, 0].real)) ** 2
                            - (2 * mpmath.mpf(mat[1, 0].imag)) ** 2)
        assert len(dec) == 2
        for p, comp in dec.components:
            up = abs(comp.vec[0]) > abs(comp.vec[1])
            exact = (1 + bz / z_top) / 2 if up else (1 - bz / z_top) / 2
            assert abs(p - float(exact)) < 1e-11


def test_z_line_center_of_ball():
    dec = qubit_z_line_decomposition(DensityMatrix.maximally_mixed(2))
    assert len(dec) == 2
    assert np.allclose([p for p, _ in dec.components], [0.5, 0.5])
    vecs = sorted(np.abs(s.vec[0]) for _, s in dec.components)
    assert np.allclose(vecs, [0, 1], atol=1e-10)  # the two z poles


def test_z_line_pure_qubit_is_its_own_decomposition():
    for psi in (PureState([1, 0]), PureState([0.6, 0.8j])):
        dec = qubit_z_line_decomposition(psi)
        assert len(dec) == 1
        assert abs(dec.components[0][0] - 1.0) < 1e-12
        assert dec.reconstructs(psi, tol=1e-12)


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
    # a PureState input is the same state
    assert eigen_partition_bound_K(psi, spin.jx, spin.jy) == k


def test_partition_bound_dominates_plain_bound():
    spin = make_spin_algebra(1)
    for seed in range(50):
        rho = random_state(3, 700 + seed)
        k = eigen_partition_bound_K(rho, spin.jx, spin.jy)
        assert k >= rs_lower_bound_L(rho, spin.jx, spin.jy) - 1e-12


def test_partition_bound_matches_closed_form():
    spin = make_spin_algebra(1)
    degenerate = DensityMatrix(np.diag([0.5, 0.25, 0.25]))
    rotated = haar_random_unitary(3, np.random.default_rng(211))
    states = [random_state(3, 212 + k, rank=1 + k % 3) for k in range(12)]
    states += [degenerate, DensityMatrix(rotated @ degenerate.mat @ rotated.conj().T),
               DensityMatrix.maximally_mixed(3)]
    for rho in states:
        for a, b in ((spin.jx, spin.jy), (random_hermitian(3, 230), random_hermitian(3, 231))):
            k = eigen_partition_bound_K(rho, a, b)
            assert abs(k - closed_form_K(rho, a.mat, b.mat)) < 1e-12


def test_partition_bound_is_the_roof_start():
    # restart 0 of the roof starts at K's groupings, each split into pure
    # components that score at least as much: with no iterations the roof
    # is at least K and L on criterion 5's states
    spin = make_spin_algebra(1)
    for s in range(50):
        rho = random_density_matrix(RandomStateConfig(dim=3, rank=3, seed=50_000 + s))
        roof = concave_roof_L(rho, spin.jx, spin.jy,
                              cfg=OptimizerConfig(seed=51_000 + s, restarts=1, local_steps=0))
        assert roof.value >= eigen_partition_bound_K(rho, spin.jx, spin.jy) - 1e-12
        assert roof.value >= rs_lower_bound_L(rho, spin.jx, spin.jy) - 1e-12


def test_roof_search_and_K_leave_a_factor_built_state_unformed():
    # both read only the support (lambda_S, V_S) of a factor-built state
    spin = make_spin_algebra(1)
    rho = spin_coherent_mixture(1, [(0.6, (0.3, 0.9, -0.2)), (0.4, (1.2, -0.4, 0.5))])
    res = concave_roof_L(rho, spin.jx, spin.jy, cfg=FAST, ancilla_dim=2)
    assert rho._mat is None
    assert res.value >= eigen_partition_bound_K(rho, spin.jx, spin.jy) - 1e-12
    assert rho._mat is None
    assert res.decomposition.reconstructs(rho, tol=1e-9)


def test_partition_bound_rejects_non_qutrit():
    spin = make_spin_algebra(0.5)
    with pytest.raises(ValueError):
        eigen_partition_bound_K(DensityMatrix.maximally_mixed(2), spin.jx, spin.jy)


def test_rank_deficient_state_with_matching_ancilla():
    # rank-2 qutrit purifies into a 2-level ancilla
    rho = random_state(3, seed=95, rank=2)
    dec = extract_decomposition(purify(rho, ancilla_dim=2), np.eye(2))
    assert len(dec) == 2
    assert dec.reconstructs(rho, tol=1e-10)
    res = optimize_roof(rho, VarianceSum([random_hermitian(3, 96)]), "min",
                        cfg=OptimizerConfig(seed=1, restarts=2, local_steps=100),
                        ancilla_dim=2)
    assert res.decomposition.reconstructs(rho, tol=1e-8)


def test_concave_roof_L_above_ancilla_three():
    # no ancilla cap: a random two-qubit state in its own ancilla and in one
    # twice as large, for its collective spin pair and a random pair
    rho = random_density_matrix(RandomStateConfig(dim=4, rank=4, seed=97))
    jx, jy = collective_spin_ops(0.5, 2)[:2]
    cfg = OptimizerConfig(seed=3, restarts=2, local_steps=100)
    for a, b in ((jx, jy), (random_hermitian(4, 98), random_hermitian(4, 99))):
        for ancilla in (4, 8):
            res = concave_roof_L(rho, a, b, cfg=cfg, ancilla_dim=ancilla)
            assert res.decomposition.reconstructs(rho, tol=1e-10)
            assert res.value >= rs_lower_bound_L(rho, a, b) - 1e-12
            assert abs(decomposition_average(res.decomposition,
                                             RobertsonSchrodingerBound(a, b)) - res.value) < 1e-12


def test_extract_rejects_a_non_unitary_or_misshapen_ancilla_matrix():
    # u u^dag = 1 is what makes the components mix back to m m^dag
    m = purify(random_state(3, seed=103))
    u = haar_random_unitary(3, np.random.default_rng(104))
    for bad in (1.001 * u, u[:, [0, 0, 2]], np.full((3, 3), np.nan)):
        with pytest.raises(ValueError, match="not unitary"):
            extract_decomposition(m, bad)
    for bad in (np.eye(2), np.eye(4), u[:2], u[0]):
        with pytest.raises(ValueError, match="must be 3 x 3"):
            extract_decomposition(m, bad)


def test_decomposition_validation():
    psi = PureState([1, 0])
    with pytest.raises(ValueError):
        Decomposition(((0.4, psi), (0.4, psi)))  # weights sum to 0.8
    with pytest.raises(ValueError):
        Decomposition(((-0.5, psi), (1.5, psi)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Decomposition(((bad, psi),))
        with pytest.raises(ValueError, match="positive and finite"):
            Decomposition(((0.5, psi), (bad, psi)))
    with pytest.raises(DimensionMismatchError, match="different dimensions"):
        Decomposition(((0.5, psi), (0.5, PureState([1, 0, 0]))))


def test_reconstructs_rejects_target_of_another_dimension():
    dec = Decomposition(((1.0, PureState([1, 0])),))
    for target in (PureState([1, 0, 0]), DensityMatrix.maximally_mixed(3)):
        with pytest.raises(DimensionMismatchError, match="dimension 2.*dimension 3"):
            dec.reconstructs(target)


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
