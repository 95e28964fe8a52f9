import logging
import tracemalloc

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
    padded_factor,
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
    variance_qfi_gap,
)
from qfiroof import roofs
from qfiroof.core import _support, haar_random_unitary
from qfiroof.roofs import (
    BFGS_MEMORY,
    WEIGHT_DROP,
    Decomposition,
    RoofFunctional,
    _eigen_groupings,
    _fisher_start,
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
    m = purify(psi)
    assert m.shape == (2, 1)
    schmidt = np.linalg.svd(m, compute_uv=False)
    assert abs(schmidt[0] - 1.0) < 1e-10


def test_purify_maximally_mixed_qubit():
    m = purify(DensityMatrix.maximally_mixed(2))
    schmidt = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(schmidt, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_purify_reconstructs_random_qutrit():
    rho = random_state(3, seed=21)
    m = purify(rho)
    assert m.shape == (3, 3)
    recon = m @ m.conj().T
    assert np.max(np.abs(recon - rho.mat)) < 1e-12


def test_roof_rejects_an_ancilla_below_the_rank():
    # a rank-3 state has no decomposition into two components
    rho = random_state(3, seed=22)
    with pytest.raises(ValueError, match="ancilla_dim must be an integer >= 3, got 2"):
        optimize_roof(rho, VarianceSum([random_hermitian(3, 23)]), "min", cfg=FAST, ancilla_dim=2)


def test_ancilla_dim_must_be_an_integer():
    rho = random_state(3, seed=22)
    spin = make_spin_algebra(1)
    for ancilla in (4.0, True):
        with pytest.raises(ValueError, match="ancilla_dim must be an integer"):
            concave_roof_L(rho, spin.jx, spin.jy, cfg=FAST, ancilla_dim=ancilla)


def test_pure_state_roof_checks_ancilla_dim():
    # a rank-1 state is its own decomposition and needs no purification, but
    # its ancilla_dim is still checked
    spin = make_spin_algebra(1)
    for ancilla in (4.0, 0, True):
        with pytest.raises(ValueError, match="ancilla_dim must be an integer"):
            optimize_roof(PureState([1, 0, 0]), VarianceSum([spin.jz]), "min", ancilla_dim=ancilla)


def test_purify_enlarged_ancilla():
    # the support factor serves every ancilla of n >= r levels unpadded: the
    # identity isometry's extra components weigh nothing, a Haar isometry's are kept
    rho = random_state(2, seed=23)
    m = purify(rho)
    assert m.shape == (2, 2)
    dec = extract_decomposition(m, np.eye(5, 2))
    assert len(dec) == 2 and dec.reconstructs(rho, tol=1e-10)
    dec = extract_decomposition(m, haar_random_unitary(5, np.random.default_rng(24))[:, :2])
    assert len(dec) == 5 and dec.reconstructs(rho, tol=1e-10)


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
    functional = RobertsonSchrodingerBound(random_hermitian(2, 46), random_hermitian(2, 47))
    res = optimize_roof(random_state(2, seed=45), functional, "min", cfg=cfg)
    assert res.evaluations <= 2 * (5 + 1)


def test_optimizer_deterministic():
    # a sum of two variances climbs; the convex roof of one does not
    rho = random_state(3, seed=51)
    ops = [random_hermitian(3, 52), random_hermitian(3, 53)]
    r1 = roof_sum_I(rho, ops, FAST)
    r2 = roof_sum_I(rho, ops, FAST)
    assert r1.evaluations > FAST.restarts
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


class _SquaredVariance(RoofFunctional):
    """Var(A)^2 on a component: one operator and its one product, A A, in a
    functional that is not a sum of variances."""

    def __init__(self, a):
        self.ops = a.mat[None]
        self.left = self.right = np.arange(1)

    def terms(self, p, mom, gradient=False):
        # v = p Var(A) = p<A^2> - (p<A>)^2 / p, and p Var(A)^2 = v^2 / p
        mean = mom[..., 0].real
        v = mom[..., 1].real - mean * mean / p
        value = v * v / p
        if not gradient:
            return value
        ratio, scale = mean / p, 2.0 * v / p
        return value, np.stack([scale * ratio * ratio - value / p, -2.0 * scale * ratio,
                                scale], axis=-1) + 0j


def _functionals(dim, seed):
    """The functional kinds, each with its dense formula of a density matrix."""
    a, b = random_hermitian(dim, seed), random_hermitian(dim, seed + 1)
    return [
        (VarianceSum([a]), lambda s: dense_variance_sum(s, [a.mat])),
        (VarianceSum([a, b]), lambda s: dense_variance_sum(s, [a.mat, b.mat])),
        (RobertsonSchrodingerBound(a, b), lambda s: dense_rs_bound(s, a.mat, b.mat)),
        (_SquaredVariance(a), lambda s: dense_variance_sum(s, [a.mat]) ** 2),
    ]


def _max_start(rho, functional, ancilla=None):
    """Restart 0 of a maximization and the number of groupings scored to choose it."""
    return _split_start(_gram_stack(purify(rho), functional), functional,
                        ancilla or rho.dim)[:2]


def _min_start(rho, functional, ancilla=None):
    """Restart 0 of a variance-sum minimization, the number of Fisher witnesses
    scored to choose it, and its value."""
    return _fisher_start(_gram_stack(purify(rho), functional), functional,
                         ancilla or rho.dim)


@pytest.mark.parametrize("dim, ancilla", [(2, 2), (3, 3), (3, 4), (4, 4)])
def test_batched_objective_matches_extracted_decompositions(dim, ancilla):
    # a (4, 3) stack of Haar unitaries evaluated as one against re-evaluating
    # the extracted witness decomposition component by component
    rho = random_state(dim, seed=110 + ancilla)
    m = purify(rho)
    rng = np.random.default_rng(ancilla)
    us = np.array([[haar_random_unitary(ancilla, rng) for _ in range(3)] for _ in range(4)])
    us = us[..., :dim]
    for functional, _ in _functionals(dim, 120 + ancilla):
        batched = _objective(_gram_stack(m, functional), us, functional)
        assert batched.shape == (4, 3)
        for u, value in zip(us.reshape(-1, ancilla, dim), batched.ravel()):
            expected = decomposition_average(extract_decomposition(m, u), functional)
            assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_from_moments_stack_matches_dense_formulas(dim):
    # a stack of states of every rank, with unnormalised moments p Tr(sigma X)
    # of the operators and of their named products, none of them centred
    states = [random_state(dim, seed=130 + k, rank=1 + k % dim) for k in range(5)]
    weights = np.linspace(0.2, 0.9, len(states))
    for functional, dense in _functionals(dim, 140 + dim):
        ops = np.concatenate([functional.ops,
                              functional.ops[functional.left] @ functional.ops[functional.right]])
        mom = np.array([p * np.einsum("xij,ji->x", ops, rho.mat)
                        for p, rho in zip(weights, states)])
        stacked = functional.terms(weights, mom)
        assert stacked.shape == (len(states),)
        for p, rho, value in zip(weights, states, stacked):
            assert abs(value - p * dense(rho.mat)) < 1e-12
            assert abs(functional.on_state(rho) - dense(rho.mat)) < 1e-12
            if rho.rank() == 1:
                psi = PureState(_support(rho)[1][:, 0])
                assert abs(functional.on_state(psi) - dense(rho.mat)) < 1e-12


def test_rank_deficient_qutrit_search_raises_no_floating_point_error():
    # at the identity isometry the third component meets no support vector
    # and carries weight 0; the search reads moments, gradients and line-search
    # moments of it, and the scalar reference does so on the zero-padded factor
    rho = random_state(3, seed=201, rank=2)
    a, b = random_hermitian(3, 202), random_hermitian(3, 203)
    cfg = OptimizerConfig(seed=5, restarts=3, local_steps=120)
    m = purify(rho)
    eye = np.eye(3, 2, dtype=complex)
    assert m.shape == (3, 2)
    with np.errstate(all="raise"):
        for functional, dense in _functionals(3, 204):
            gram = _gram_stack(m, functional)
            at_identity = _objective(gram, eye[None], functional)[0]
            # the gradient pass drops the light component as the plain pass does
            assert _objective(gram, eye[None], functional, gradient=True)[0][0] == at_identity
            expected = decomposition_average(extract_decomposition(m, eye), functional)
            assert abs(at_identity - expected) < 1e-12
            res = optimize_roof(rho, functional, "max", cfg=cfg)
            ref, _ = scalar_reference_roof(rho, functional, "max",
                                           start=_max_start(rho, functional)[0], cfg=cfg)
            assert abs(res.value - ref.value) < 1e-9
            assert abs(_dense_average(res.decomposition, dense) - res.value) < 1e-12
        functional = RobertsonSchrodingerBound(a, b)
        roof = concave_roof_L(rho, a, b, cfg=cfg)
        ref, _ = scalar_reference_roof(rho, functional, "max",
                                       start=_max_start(rho, functional)[0], cfg=cfg)
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
    # differences of terms along paths P(t) = (1 + tE) P (1 + tE)^dag
    # of the unnormalised component P = p sigma, which keep its rank and
    # move its weight and all its moments
    states = [random_state(dim, seed=250 + k, rank=1 + k % dim) for k in range(5)]
    weights = np.linspace(0.2, 0.9, len(states))
    comps = weights[:, None, None] * np.array([rho.mat for rho in states])
    rng = np.random.default_rng(dim)
    h = 1e-5
    for functional, _ in _functionals(dim, 260 + dim):
        ops = np.concatenate([functional.ops,
                              functional.ops[functional.left] @ functional.ops[functional.right]])

        def at(path):
            return functional.terms(np.trace(path, axis1=1, axis2=2).real,
                                    np.einsum("xij,kji->kx", ops, path))

        mom = np.einsum("xij,kji->kx", ops, comps)
        value, coef = functional.terms(weights, mom, gradient=True)
        dp, dmom = coef[:, 0].real, coef[:, 1:]
        # the value from the gradient's pass is the plain pass's own, bit for bit
        assert np.array_equal(value, functional.terms(weights, mom))
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
    # Haar isometries of the ancilla, every functional kind: the
    # directional derivative Tr(Gamma H) along exp(i eps H) W against a
    # central difference of the objective of explicitly rotated isometries
    rho = random_state(dim, seed=270 + ancilla)
    m = purify(rho)
    rng = np.random.default_rng(280 + dim + ancilla)
    count = 5
    us = np.array([haar_random_unitary(ancilla, rng)[:, :dim] for _ in range(count)])
    eps = 1e-5
    for functional, _ in _functionals(dim, 290 + ancilla):
        gram = _gram_stack(m, functional)
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


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_objective_on_the_support_gram_matches_the_padded_formula(rank):
    # the r x (x+1)r stack of the support factor on U's first r columns
    # against the n x (x+1)n stack of the factor padded with n - r zero
    # columns, every column of U read: values and gradients agree to
    # round-off.  They are not bit for bit in general: the GEMMs over (x+1)r
    # and (x+1)n columns may round the same dot products differently (seen
    # at r = 2 and 3, and at r = 4, n = 5)
    dim = rank + 2
    rho = random_state(dim, seed=360 + rank, rank=rank)
    a, b = random_hermitian(dim, 361), random_hermitian(dim, 362)
    m = purify(rho)
    rng = np.random.default_rng(363 + rank)
    for n in (rank + 1, 2 * rank, rank * rank):
        us = np.array([haar_random_unitary(n, rng) for _ in range(6)])
        for functional in (VarianceSum([a]), VarianceSum([a, b]), RobertsonSchrodingerBound(a, b)):
            gram = _gram_stack(m, functional)
            padded = _gram_stack(padded_factor(rho, n), functional)
            blocks = 1 + len(functional.ops) + len(functional.left)
            assert gram.shape == (rank, blocks * rank)
            assert padded.shape == (n, blocks * n)
            values, grad = _objective(gram, us[..., :rank], functional, gradient=True)
            ref_values, ref_grad = _objective(padded, us, functional, gradient=True)
            scale = 1.0 + np.max(np.abs(ref_values))
            assert np.max(np.abs(values - ref_values)) <= 1e-13 * scale
            assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * scale
            plain = _objective(gram, us[..., :rank].reshape(2, 3, n, rank), functional)
            assert np.max(np.abs(plain - ref_values.reshape(2, 3))) <= 1e-13 * scale


def test_split_start_scores_the_support_groupings_only():
    # a rank-r state in an n > r ancilla: restart 0 splits the groupings of the
    # r support indices, K's groupings, and embeds the best as [U; 0]; its
    # value is that of diag(U, I) on the padded formula and of its extracted witness
    for dim, rank, n in ((3, 2, 3), (4, 2, 6), (5, 3, 5), (5, 3, 9)):
        rho = random_state(dim, seed=370 + dim + n, rank=rank)
        m = purify(rho)
        for functional, dense in _functionals(dim, 380 + dim):
            gram = _gram_stack(m, functional)
            start, count, value = _split_start(gram, functional, n)
            assert count == len(_eigen_groupings(rank)) == (2 if rank == 2 else 5)
            assert start.shape == (n, rank)
            assert not start[rank:].any()
            assert _objective(gram, start[None], functional)[0] == value
            full = np.eye(n, dtype=complex)
            full[:, :rank] = start
            padded = _gram_stack(padded_factor(rho, n), functional)
            assert abs(_objective(padded, full[None], functional)[0] - value) < 1e-12
            dec = extract_decomposition(m, start)
            assert dec.reconstructs(rho, tol=1e-12)
            assert abs(_dense_average(dec, dense) - value) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_newton_hessian_matches_second_differences(n):
    # Haar unitaries of the ancilla, every functional kind: the Hessian's
    # quadratic form c^T h c of a gauge-free direction H = sum_l c_l E_l
    # against the second central difference of the objective along exp(itH) U
    rho = random_state(n, seed=300 + n)
    m = purify(rho)
    rng = np.random.default_rng(310 + n)
    count = 5
    us = np.array([haar_random_unitary(n, rng) for _ in range(count)])
    frame, lift = roofs._newton_frame(n)
    k = n * (n - 1)
    assert frame.shape == (k, 2 * n * n) and lift.shape == (1 + k, n, n)
    assert np.allclose(frame @ frame.T, np.eye(k), atol=1e-15)
    t = 1e-4
    for functional, _ in _functionals(n, 320 + n):
        gram = _gram_stack(m, functional)
        values, grad = _objective(gram, us, functional, gradient=True)
        # Newton steps are taken only for maximizations (_takes_newton_steps),
        # so the Newton pass is unsigned
        scored, (formed, hess) = roofs._scores(gram, us.copy(), functional, 1.0, frame, lift)
        assert formed.shape == (count, k) and hess.shape == (count, k, k)
        assert np.array_equal(hess, hess.swapaxes(-1, -2))
        assert np.max(np.abs(scored - values)) < 1e-12
        # the frame spans the gradient: its diagonal generators are gauge
        g = grad.view(float).reshape(count, -1)
        coords = g @ frame.T
        assert np.max(np.abs(formed - coords)) < 1e-12
        assert np.max(np.abs(formed @ frame - g)) < 1e-12
        for _ in range(6):
            h = _random_hermitian_stack(rng, count, n)
            h[:, np.arange(n), np.arange(n)] = 0.0
            c = h.view(float).reshape(count, -1) @ frame.T
            quadratic = np.einsum("il,ilm,im->i", c, hess, c)
            ends = _objective(gram, _rotated(h, np.array([[t, -t]] * count), us), functional)
            second = (ends[:, 0] - 2.0 * values + ends[:, 1]) / t ** 2
            assert np.max(np.abs(quadratic - second)) <= 1e-5 * np.max(np.abs(second))


@pytest.mark.parametrize("dim, ancilla", [(2, 2), (2, 3), (3, 3)])
def test_newton_stop_reads_the_frame_norm_of_the_gradient(dim, ancilla):
    # Haar isometries, every functional kind: the Riemannian gradient's
    # diagonal is exactly zero, so the norm of its frame coordinates g_E,
    # which the Newton stop test reads, is its Frobenius norm
    rho = random_state(dim, seed=360 + ancilla)
    m = purify(rho)
    rng = np.random.default_rng(370 + dim + ancilla)
    count = 5
    us = np.array([haar_random_unitary(ancilla, rng)[:, :dim] for _ in range(count)])
    frame, lift = roofs._newton_frame(ancilla)
    for functional, _ in _functionals(dim, 380 + ancilla):
        gram = _gram_stack(m, functional)
        _, grad = _objective(gram, us, functional, gradient=True)
        assert np.all(grad.diagonal(axis1=1, axis2=2) == 0.0)
        _, (coords, _) = roofs._scores(gram, us, functional, 1.0, frame, lift)
        frobenius = np.sum(np.abs(grad) ** 2, axis=(1, 2))
        assert np.max(np.abs(np.vecdot(coords, coords) - frobenius) / frobenius) <= 1e-15


def test_newton_steps_only_for_maximizations_on_small_ancillas(monkeypatch, caplog):
    # a qubit or qutrit maximization never takes an L-BFGS direction; a
    # qutrit minimization and a maximization on four levels still do, and
    # each roof's debug line names its direction rule
    calls = []

    def counted(grad, steps, changes, inv):
        calls.append(len(grad))
        return _lbfgs_direction(grad, steps, changes, inv)

    monkeypatch.setattr(roofs, "_lbfgs_direction", counted)
    cfg = OptimizerConfig(seed=3, restarts=3, local_steps=60)
    cases = [(2, None, "max", "newton"), (3, None, "max", "newton"), (3, None, "min", "lbfgs"),
             (3, 4, "max", "lbfgs"), (4, None, "max", "lbfgs")]
    for dim, ancilla, direction, rule in cases:
        rho = random_state(dim, seed=340 + dim)
        functional = RobertsonSchrodingerBound(random_hermitian(dim, 341), random_hermitian(dim, 342))
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="qfiroof.roofs"):
            res = optimize_roof(rho, functional, direction, cfg=cfg, ancilla_dim=ancilla)
        assert res.evaluations > cfg.restarts + 5
        assert (len(calls) > 0) == (rule == "lbfgs"), (dim, ancilla, direction)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "qfiroof.roofs"]
        assert line.startswith(f"optimize_roof: 3 starts, {rule} directions, ")


def test_each_iteration_makes_two_scoring_passes(monkeypatch):
    # a qutrit maximization from one start scores its split groupings once
    # and takes one gradient pass, then per iteration one pass over the line
    # search's candidates and one gradient pass at the winner; every line
    # search scores the direction's unit step mu = 1 with the angle grid
    rho = random_state(3, seed=350)
    a, b = random_hermitian(3, 351), random_hermitian(3, 352)
    roofs._newton_frame(3)      # built, and cached, before the count starts
    objective, geodesic = roofs._objective, roofs._geodesic
    passes, searched = [], []

    def counted(*args, **kwargs):
        passes.append(1)
        return objective(*args, **kwargs)

    def recorded(vecs, lam, back, mus):
        searched.append(mus.copy())
        return geodesic(vecs, lam, back, mus)

    monkeypatch.setattr(roofs, "_objective", counted)
    monkeypatch.setattr(roofs, "_geodesic", recorded)
    res = concave_roof_L(rho, a, b, cfg=OptimizerConfig(seed=5, restarts=1, local_steps=60))
    iterations = res.evaluations - len(_eigen_groupings(3))
    assert iterations > 0
    assert len(passes) == 1 + 1 + 2 * iterations
    assert len(searched) == iterations
    for mus in searched:
        assert mus.shape == (1, len(roofs.LINE_ANGLES) + 1)
        assert np.any(mus == 1.0)


def test_newton_frame_is_built_once_and_read_only():
    frame, lift = roofs._newton_frame(3)
    again = roofs._newton_frame(3)
    assert again[0] is frame and again[1] is lift
    assert not frame.flags.writeable and not lift.flags.writeable
    with pytest.raises(ValueError):
        lift[0] = 0.0
    # [I; exp(i eps E_l)]: slice 0 is exactly the identity, every slice unitary
    assert np.array_equal(lift[0], np.eye(3))
    products = lift @ lift.conj().swapaxes(-1, -2)
    assert np.max(np.abs(products - np.eye(3))) <= 1e-15


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
    qubit pairs lie in the xy plane, where the z line saturates the bound.
    The ``"variance"`` kind sums two variances: the Fisher witness of one
    variance is its convex roof, so a minimization of one never climbs."""
    rho = random_state(dim, seed=150 + seed)
    if kind == "variance":
        a, b = random_hermitian(dim, 160 + seed), random_hermitian(dim, 170 + seed)
        return (rho, a, b, VarianceSum([a, b]),
                lambda s: dense_variance_sum(s, [a.mat, b.mat]))
    a, b = (_alpha_pair(0.3 + seed) if dim == 2 else
            (random_hermitian(dim, 160 + seed), random_hermitian(dim, 170 + seed)))
    return rho, a, b, RobertsonSchrodingerBound(a, b), lambda s: dense_rs_bound(s, a.mat, b.mat)


def _searched(rho, functional, direction, cfg, ancilla):
    """The roof under test and the restart-0 isometry and the evaluations that
    chose it: the best split grouping of a maximization, the best Fisher
    witness of a variance-sum minimization, the identity of any other."""
    res = optimize_roof(rho, functional, direction, cfg=cfg, ancilla_dim=ancilla)
    if direction == "max":
        return res, *_max_start(rho, functional, ancilla)
    if isinstance(functional, VarianceSum):
        return res, *_min_start(rho, functional, ancilla)[:2]
    return res, None, 1


def _eigen_average(mat, dense):
    """sum_k lambda_k f(v_k) over the eigendecomposition of a density matrix."""
    lam, vecs = np.linalg.eigh(mat)
    return sum(p * dense(np.outer(v, v.conj())) for p, v in zip(lam, vecs.T))


def _assert_oracles(rho, a, b, direction, kind, res, cfg, ancilla):
    """The certified side of every case, and its known value where the search converges."""
    mat, am = rho.mat, a.mat
    if kind == "variance":
        fisher = (dense_qfi(mat, am) + dense_qfi(mat, b.mat)) / 4
        var = dense_variance(mat, am) + dense_variance(mat, b.mat)
        assert fisher - 1e-9 <= res.value <= var + 1e-9
        if direction == "min":
            # restart 0 is the best Fisher witness, and no climb ends above it
            assert res.value <= _min_start(rho, VarianceSum([a, b]))[2]
            if cfg.local_steps >= 100:
                # one variance climbs from the identity and the Haar starts to F_Q/4
                one, _ = scalar_reference_roof(rho, VarianceSum([a]), "min", cfg=cfg,
                                               ancilla_dim=ancilla)
                target = dense_qfi(mat, am) / 4
                assert abs(one.value - target) <= 1e-7 * target
        elif cfg.local_steps >= 100:
            assert abs(res.value - var) <= 1e-7 * var
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
    _assert_oracles(rho, a, b, direction, kind, res, cfg, ancilla)
    assert res.evaluations <= scored - 1 + cfg.restarts * (local_steps + 1)
    # each start run on its own takes the same steps
    ref, _ = scalar_reference_roof(rho, functional, direction, start=start, cfg=cfg,
                                   ancilla_dim=ancilla)
    assert abs(res.value - ref.value) < 1e-9
    if direction == "max" and kind == "variance":
        # restart 0 meets the ceiling sum Var(rho), so no start climbs
        assert res.evaluations == scored and res.converged
    else:
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
        ref, _ = scalar_reference_roof(rho, functional, "max", start=start, cfg=cfg,
                                       ancilla_dim=ancilla)
        assert abs(res.value - ref.value) < 1e-9
        assert res.converged and ref.converged
        assert res.evaluations == ref.evaluations + scored - 1
        assert res.evaluations < scored - 1 + cfg.restarts * (cfg.local_steps + 1)


def test_lockstep_search_matches_scalar_reference_through_mixed_iterations(monkeypatch):
    # within one stack iteration some starts accept and others reject, some
    # push no pair while others do, and some fall back from a downhill
    # direction, each through its per-start mask: the selects (_select) and
    # pushes (_push) whose masks are mixed are counted here.  A direction
    # from positive-curvature pairs ascends up to rounding, so every start
    # whose memory holds exactly two pairs (two nonzero inverse curvatures)
    # is handed its negated direction: a rule local to the start, the same
    # in the stack and on its own.
    rho, a, b, functional, _ = _oracle_case(4, "rs", 1)
    cfg = OptimizerConfig(seed=1, restarts=3, local_steps=120)
    lbfgs, select, push = roofs._lbfgs_direction, roofs._select, roofs._push
    mixed = {"accept": 0, "uphill": 0, "push": 0}
    handed, held = [], []

    def downhill_at_two(grad, steps, changes, inv):
        d = lbfgs(grad, steps, changes, inv)
        held.append(np.count_nonzero(inv, axis=1))
        d[held[-1] == 2] *= -1.0
        handed[:] = [d]
        return d

    def counted_select(mask, new, old):
        if mask.any() and not mask.all():
            # the uphill select takes the direction just handed out; of the
            # accepted stacks only vals is (C,)
            if handed and new is handed[0]:
                mixed["uphill"] += 1
            elif new.ndim == 1:
                mixed["accept"] += 1
        return select(mask, new, old)

    def counted_push(memory, newest, rows):
        if rows.any() and not rows.all():
            mixed["push"] += 1
        push(memory, newest, rows)

    monkeypatch.setattr(roofs, "_lbfgs_direction", downhill_at_two)
    monkeypatch.setattr(roofs, "_select", counted_select)
    monkeypatch.setattr(roofs, "_push", counted_push)
    res = optimize_roof(rho, functional, "min", cfg=cfg)
    assert min(mixed.values()) > 0, mixed
    # between two iterations in which no start stopped, the rows match: a
    # downhill direction cleared its start's memory (its gradient step then
    # pushed at most one pair), and a rejected step taken with a nonempty
    # memory cleared it without stopping the start
    cleared = kept = 0
    for before, after in zip(held, held[1:]):
        if len(before) == len(after):
            assert np.all(after[before == 2] <= 1)
            cleared += np.sum(before == 2)
            kept += np.sum((before > 0) & (before != 2) & (after == 0))
    assert cleared > 0 and kept > 0
    ref, _ = scalar_reference_roof(rho, functional, "min", cfg=cfg)
    assert res.value == ref.value
    assert res.evaluations == ref.evaluations
    assert res.converged == ref.converged


def test_default_convex_roof_converges_to_fisher_information(caplog):
    # the climb from the identity and the Haar restarts, at the default
    # config, stops on the gradient tolerance, not on the budget, at F_Q/4;
    # convex_roof_variance returns the Fisher witness without climbing, and
    # a two-variance roof still climbs: each roof logs one line
    with caplog.at_level(logging.DEBUG, logger="qfiroof.roofs"):
        for s in range(10):
            rho = random_state(3, 330 + s)
            op = random_hermitian(3, 340 + s)
            target = qfi(rho, op) / 4
            res, reason = scalar_reference_roof(rho, VarianceSum([op]), "min")
            assert len(reason) == 8 and not np.any(reason == roofs.BUDGET)
            assert np.any(reason == roofs.TOLERANCE)
            assert res.converged
            assert target - 1e-12 <= res.value <= target * (1 + 1e-8)
            closed = convex_roof_variance(rho, op)
            assert closed.converged and closed.evaluations == 1
            assert target - 1e-12 <= closed.value <= res.value
            roof_sum_I(rho, [op, random_hermitian(3, 350 + s)])
    lines = [r.getMessage() for r in caplog.records if r.name == "qfiroof.roofs"]
    assert len(lines) == 20
    for floor, search in zip(lines[::2], lines[1::2], strict=True):
        assert floor.startswith("optimize_roof: restart 0 meets the floor sum F_Q/4, "
                                "no start climbs, 1 evaluations, ")
        assert search.startswith("optimize_roof: 8 starts, ")
        assert "evaluations, stopped on tolerance" in search
        assert "no_ascent" in search and "budget 0," in search
        assert floor.endswith(" s") and search.endswith(" s")


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
    # empty, partial, full and mixed memories in one start-first stack; an
    # empty slot is one whose inverse curvature is 0, and it holds a stale
    # pair that must not contribute
    rng = np.random.default_rng(17)
    k, memory = 8, BFGS_MEMORY
    count = np.array([0, 2, memory, 1, 4, memory, 3, 0])
    c = len(count)
    steps = rng.standard_normal((c, memory, k))
    changes = np.empty_like(steps)
    for i in range(c):
        for j in range(memory):
            # y = A s with A symmetric positive definite keeps s.y > 0
            a = rng.standard_normal((k, k))
            changes[i, j] = (a @ a.T + np.eye(k)) @ steps[i, j]
    curvature = np.einsum("cmk,cmk->cm", steps, changes)
    inv = np.where(np.arange(memory) < count[:, None], 1.0 / curvature, 0.0)
    assert np.array_equal(np.count_nonzero(inv, axis=1), count)
    grad = rng.standard_normal((c, k))
    d = _lbfgs_direction(grad, steps, changes, inv)
    for i in range(c):
        h = _bfgs_inverse_hessian(list(steps[i, :count[i]]), list(changes[i, :count[i]]), k)
        expected = h @ grad[i]
        assert np.linalg.norm(d[i] - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.array_equal(d[count == 0], grad[count == 0])
    # a stack whose every memory is empty returns its gradients
    assert np.array_equal(_lbfgs_direction(grad, steps, changes, np.zeros_like(inv)), grad)


def test_starts_draw_from_their_own_streams():
    # with no iterations the search returns the best of its starts: restart
    # 0 at the best split eigenvector grouping of a maximization, at the best
    # Fisher witness of a variance-sum minimization and at the identity of
    # any other, restart r > 0 at the Haar unitary of default_rng([seed, 0,
    # r]).  The split start is the exact roof of one variance, so the
    # variance maximization sums four variances
    cases = [("max", random_state(3, 5),
              VarianceSum([random_hermitian(3, 300 + k) for k in range(4)]), 3)]
    for direction, kind, ancilla in (("max", "rs", None), ("min", "rs", None),
                                     ("min", "variance", 4)):
        rho, _, _, functional, _ = _oracle_case(3, kind, 5)
        cases.append((direction, rho, functional, ancilla))
    winners = set()
    for direction, rho, functional, ancilla in cases:
        n = ancilla or 3
        m = purify(rho)
        sign = 1.0 if direction == "max" else -1.0
        for seed in range(29, 45):
            cfg = OptimizerConfig(seed=seed, restarts=4, local_steps=0)
            res, start, scored = _searched(rho, functional, direction, cfg, ancilla)
            values = []
            for r_idx in range(cfg.restarts):
                u = (np.eye(n) if start is None else start) if r_idx == 0 else \
                    haar_random_unitary(n, np.random.default_rng([seed, 0, r_idx]))
                values.append(decomposition_average(extract_decomposition(m, u[:, :m.shape[1]]),
                                                    functional))
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
    # five-level ancilla it scores the same five, the groupings of its rank
    rho = random_state(3, seed=211)
    a, b = random_hermitian(3, 212), random_hermitian(3, 213)
    for restarts, ancilla, evaluations in ((4, None, 8), (8, None, 12), (4, 5, 8)):
        cfg = OptimizerConfig(seed=3, restarts=restarts, local_steps=0)
        assert concave_roof_L(rho, a, b, cfg=cfg, ancilla_dim=ancilla).evaluations == evaluations
    assert [len(g) for g in _eigen_groupings(3)] == [3, 1, 2, 2, 2]
    # each grouping once: one index alone with the rest merged repeats the
    # singletons of a qubit, and a single index has one grouping
    assert _eigen_groupings(2) == [[(0,), (1,)], [(0, 1)]]
    assert _eigen_groupings(1) == [[(0,)]]
    # a rank-2 state on four levels scores its two groupings, at any ancilla
    rho = random_state(4, seed=214, rank=2)
    jx, jy = make_spin_algebra(1.5).jx, make_spin_algebra(1.5).jy
    for ancilla in (None, 2, 7):
        res = concave_roof_L(rho, jx, jy, cfg=OptimizerConfig(seed=3, restarts=1, local_steps=0),
                             ancilla_dim=ancilla)
        assert res.evaluations == 2


# ---------------------------------------------------------------------------
# named roofs
# ---------------------------------------------------------------------------

def _fisher_cases(dim):
    """(name, state, operator, F_Q = 0) of the Fisher-witness oracle at one dimension:
    full rank, ranks 2 and 4, degenerate spectra and an operator that commutes
    with the state.  Round-off at a zero roof scales with <B^2>, so the
    operators of the zero cases have unit norm."""
    rng = np.random.default_rng(400 + dim)
    b = random_hermitian(dim, 410 + dim)
    u = haar_random_unitary(dim, rng)
    # eigenvalues 3 and 1, normalized: both repeat from d = 4, 3 at d = 3
    repeated = np.where(np.arange(dim) < (dim + 1) // 2, 3.0, 1.0)
    degenerate = DensityMatrix(u @ np.diag(repeated / repeated.sum()) @ u.conj().T)
    unit = HermitianOperator(b.mat / np.linalg.norm(b.mat, 2))
    commuting = HermitianOperator(u @ np.diag(rng.uniform(-1.0, 1.0, dim)) @ u.conj().T)
    cases = [("full", random_state(dim, 420 + dim), b, False)]
    cases += [(f"rank{rank}", random_state(dim, 430 + dim, rank=rank), b, False)
              for rank in (2, 4) if rank < dim]
    return cases + [("mixed", DensityMatrix.maximally_mixed(dim), unit, True),
                    ("repeated", degenerate, b, False),
                    ("commuting", degenerate, commuting, True)]


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_convex_roof_variance_is_the_fisher_witness(dim, caplog):
    # restart 0 is the Fisher witness, which meets the floor F_Q/4: it
    # reconstructs rho, its value is F_Q/4 to round-off, no start climbs,
    # and the stop logs one line; equal inputs give bit-identical output
    for name, rho, b, zero in _fisher_cases(dim):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="qfiroof.roofs"):
            res = convex_roof_variance(rho, b)
        target = qfi(rho, b) / 4
        assert np.max(np.abs(res.decomposition.mixture() - rho.mat)) <= 1e-12, name
        if zero:
            assert target <= 1e-15 and abs(res.value - target) <= 1e-15, name
        else:
            assert abs(res.value - target) <= 1e-12 * target, name
        assert res.converged and res.evaluations == 1, name
        (line,) = [r.getMessage() for r in caplog.records if r.name == "qfiroof.roofs"]
        assert line.startswith("optimize_roof: restart 0 meets the floor sum F_Q/4, "
                               "no start climbs, 1 evaluations, "), line
        again = convex_roof_variance(rho, b)
        assert again.value == res.value
        assert all(p == q and np.array_equal(x.vec, y.vec) for (p, x), (q, y)
                   in zip(res.decomposition.components, again.decomposition.components,
                          strict=True))


def test_roof_sum_I_never_exceeds_its_fisher_start():
    # restart 0 of a variance-sum minimization is its best per-operator
    # Fisher witness, and the search only keeps what scores below it
    spin = make_spin_algebra(1)
    cases = [(random_state(3, 440 + s),
              [random_hermitian(3, 450 + s + k) for k in range(s % 3 + 2)]) for s in range(6)]
    cases += [(random_state(3, 446), [spin.jx, spin.jy, spin.jz]),
              (random_state(8, 447, rank=4), collective_spin_ops(0.5, 3)),
              (random_state(4, 448), collective_spin_ops(0.5, 2))]
    for rho, ops in cases:
        *_, start = _min_start(rho, VarianceSum(ops))
        res = roof_sum_I(rho, ops, FAST)
        assert sum(qfi(rho, op) for op in ops) / 4 - 1e-12 <= res.value <= start


def test_convex_roof_pure_state_is_plain_variance():
    spin = make_spin_algebra(1)
    psi = PureState(np.array([0.6, 0.48j, 0.64]))
    res = convex_roof_variance(psi, spin.jz)
    assert abs(res.value - variance(psi, spin.jz)) < 1e-9


def test_convex_roof_diagonal_qubit_reaches_quarter():
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    op = HermitianOperator([[0, 1], [1, 0]])
    res = convex_roof_variance(rho, op)
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


def test_variance_sum_maximization_stops_at_its_ceiling(caplog):
    # the criterion-3 cases: restart 0 of a sum of two variances meets sum
    # Var(rho), which no decomposition exceeds, so no start climbs and only
    # the scored groupings count; three operators still climb
    for s in range(20):
        dim = 2 if s % 2 == 0 else 3
        rho = random_state(dim, 45_000 + s)
        ops = [random_hermitian(dim, 46_000 + s), random_hermitian(dim, 47_000 + s)]
        ceiling = sum(variance(rho, op) for op in ops)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="qfiroof.roofs"):
            res = roof_sum_R(rho, ops, cfg=OptimizerConfig(seed=s))
        assert abs(res.value - ceiling) <= 1e-12 * ceiling
        assert res.evaluations == len(_eigen_groupings(dim)) and res.converged
        assert abs(_dense_average(res.decomposition, lambda m: dense_variance_sum(
            m, [op.mat for op in ops])) - res.value) < 1e-12
        (line,) = [r.getMessage() for r in caplog.records if r.name == "qfiroof.roofs"]
        assert line.startswith("optimize_roof: restart 0 meets the ceiling sum Var(rho), ")
    rho = random_state(3, seed=86)
    res = roof_sum_R(rho, [random_hermitian(3, 87 + k) for k in range(3)], FAST)
    assert res.evaluations > len(_eigen_groupings(3)) + FAST.restarts - 1


def test_variance_sum_roofs_build_one_gram_stack(monkeypatch):
    # the ceiling sum Var(rho) and the floor sum F_Q/4 are read off the stack
    # that the search scores on: one _gram_stack per roof, whether restart 0
    # meets its bound or every start climbs
    shapes = []
    build = roofs._gram_stack

    def counted(m, functional):
        shapes.append(m.shape)
        return build(m, functional)

    monkeypatch.setattr(roofs, "_gram_stack", counted)
    rho = random_state(3, seed=88)
    ops = [random_hermitian(3, 89 + k) for k in range(3)]
    for roof, count in ((roof_sum_R, 2), (roof_sum_R, 3), (roof_sum_I, 1), (roof_sum_I, 3)):
        shapes.clear()
        res = roof(rho, ops[:count], cfg=FAST)
        assert shapes == [(3, 3)], (roof.__name__, count)
        stopped = res.evaluations == (len(_eigen_groupings(3)) if roof is roof_sum_R else 1)
        assert stopped == (count < 3), (roof.__name__, count)
    ceiling = VarianceSum(ops[:2]).on_state(rho)
    assert roof_sum_R(rho, ops[:2], cfg=FAST).value == pytest.approx(ceiling, rel=1e-12)


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
        m = purify(rho)
        u0 = haar_random_unitary(ancilla, rng)
        grams = _gram_stack(m, functional).reshape(rank, -1, rank).swapaxes(0, 1)
        # G_I, G_A, G_B of the components of u0, from its first r columns
        q = u0[:, :rank].conj() @ grams[:3] @ u0[:, :rank].T
        grouping = _random_grouping(rng, ancilla)
        w = np.eye(ancilla, dtype=complex)
        for block in grouping:
            w[np.ix_(block, block)] = _split_block(q[:, block][:, :, block])
        u = w @ u0
        assert extract_decomposition(m, u[:, :rank]).reconstructs(rho, tol=1e-12)
        mixed, split = m @ u0[:, :rank].T, m @ u[:, :rank].T
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
    rho = DensityMatrix(psi.mat)
    spin = make_spin_algebra(1)
    k = eigen_partition_bound_K(rho, spin.jx, spin.jy)
    assert abs(k - rs_lower_bound_L(psi, spin.jx, spin.jy)) < 1e-9
    # a PureState is its own only decomposition: its one grouping scores its L
    l_val = rs_lower_bound_L(psi, spin.jx, spin.jy)
    assert eigen_partition_bound_K(psi, spin.jx, spin.jy) == l_val


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
    # both read only the support (lambda_S, V_S) of a factor-built state, and
    # the witness mixes back to it
    spin = make_spin_algebra(1)
    rho = spin_coherent_mixture(1, [(0.6, (0.3, 0.9, -0.2)), (0.4, (1.2, -0.4, 0.5))])
    res = concave_roof_L(rho, spin.jx, spin.jy, cfg=FAST, ancilla_dim=2)
    assert res.value >= eigen_partition_bound_K(rho, spin.jx, spin.jy) - 1e-12
    assert res.decomposition.reconstructs(rho, tol=1e-9)


def test_partition_bound_rejects_non_qutrit():
    spin = make_spin_algebra(0.5)
    with pytest.raises(ValueError):
        eigen_partition_bound_K(DensityMatrix.maximally_mixed(2), spin.jx, spin.jy)


def test_rank_deficient_state_with_matching_ancilla():
    # rank-2 qutrit purifies into a 2-level ancilla
    rho = random_state(3, seed=95, rank=2)
    dec = extract_decomposition(purify(rho), np.eye(2))
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
    # w^dag w = 1 is what makes the components mix back to m m^dag
    rho = random_state(3, seed=103)
    m = purify(rho)
    u = haar_random_unitary(3, np.random.default_rng(104))
    u5 = haar_random_unitary(5, np.random.default_rng(105))
    for bad in (1.001 * u, u[:, [0, 0, 2]], np.full((3, 3), np.nan), np.eye(4)[[0, 1, 2, 2], :3],
                u5[:, [0, 1, 1]]):
        with pytest.raises(ValueError, match="not an isometry"):
            extract_decomposition(m, bad)
    # an ancilla needs at least the rank's r levels and meets the factor's r
    # columns; any larger ancilla serves, through an n x r isometry
    for bad in (np.eye(2), u[:2], u[0], np.eye(4)[:3], np.eye(4), u5):
        with pytest.raises(ValueError, match="must be n x 3 with n >= 3"):
            extract_decomposition(m, bad)
    with pytest.raises(ValueError, match=r"pass u\[:, :3\]"):
        extract_decomposition(m, u5)
    assert extract_decomposition(m, np.eye(4, 3)).reconstructs(rho, tol=1e-12)
    assert extract_decomposition(m, u5[:, :3]).reconstructs(rho, tol=1e-12)


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
# operators shifted by c 1, and the memory of the operator stack
# ---------------------------------------------------------------------------

def _shifted(op, c):
    return HermitianOperator(op.mat + c * np.eye(op.dim))


@pytest.mark.parametrize("c", [1e3, 1e6])
def test_every_quantity_is_unchanged_when_the_operators_are_shifted(c):
    # Var, L, K, F_Q, the Var - F_Q/4 gap and the concave roof of L do not
    # move when A and B are shifted by c 1: every moment is read centred on
    # the state, so no <A>^2 cancels against a <A^2> of order c^2
    rho = random_state(3, 7)
    a, b = random_hermitian(3, 8), random_hermitian(3, 9)
    cfg = OptimizerConfig(seed=3, restarts=4, local_steps=250)

    def quantities(a, b):
        return [variance(rho, a), rs_lower_bound_L(rho, a, b), eigen_partition_bound_K(rho, a, b),
                qfi(rho, a), variance_qfi_gap(rho, a), concave_roof_L(rho, a, b, cfg=cfg).value]

    for value, shifted in zip(quantities(a, b), quantities(_shifted(a, c), _shifted(b, c))):
        assert abs(shifted - value) <= 1e-9 * (1.0 + abs(value))


@pytest.mark.parametrize("c", [1e4, 1e6])
def test_convex_roof_of_a_shifted_variance_meets_its_floor_at_once(c):
    # the Fisher witness of B + c 1 meets F_Q[rho, B]/4, so no start climbs,
    # and the roof never reads below that floor by more than round-off
    rho = random_state(2, 5)
    b = random_hermitian(2, 6)
    res = convex_roof_variance(rho, _shifted(b, c))
    assert res.evaluations == 1 and res.converged
    assert abs(res.value - qfi(rho, b) / 4.0) <= 1e-10


def test_fisher_floor_from_the_gram_stack_matches_qfi():
    # tr G_AA - sum_kl 2|G_A,kl|^2 / (lambda_k + lambda_l) is F_Q[rho, A]/4,
    # on full-rank and rank-deficient states
    for dim in range(2, 17):
        for rank in sorted({1, max(1, dim // 2), dim}):
            rho = random_state(dim, 700 + dim, rank=rank)
            ops = [random_hermitian(dim, 710 + dim), random_hermitian(dim, 720 + dim)]
            functional = VarianceSum(ops)
            floor = roofs._fisher_floor(_gram_stack(purify(rho), functional), functional)
            expected = sum(qfi(rho, op) for op in ops) / 4.0
            assert abs(floor - expected) <= 1e-14 * expected


def test_variance_sum_stores_only_its_operators():
    # nine qubits: the three collective spins take 12.6 MB, and no squared
    # operator is formed next to them
    ops = collective_spin_ops(0.5, 9)
    tracemalloc.start()
    try:
        functional = VarianceSum(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert functional.ops.shape == (3, 512, 512)
    assert peak <= 16e6
    pair = RobertsonSchrodingerBound(*ops[:2])
    assert pair.ops.shape == (2, 512, 512)


def test_nine_qubit_variance_sum_roof_memory_stays_bounded():
    # a rank-4 state of nine qubits on a 16-level ancilla, the collective
    # spins built inside the traced call: the Gram stack reads their support
    # images, O(d r) each, and never a d x d product
    rho = random_state(512, seed=3, rank=4)
    tracemalloc.start()
    try:
        ops = collective_spin_ops(0.5, 9)
        res = roof_sum_I(rho, ops, cfg=OptimizerConfig(seed=100, restarts=2, local_steps=100),
                         ancilla_dim=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
    assert res.value >= sum(qfi(rho, op) for op in ops) / 4.0 - 1e-9


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
