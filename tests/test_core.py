import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import dense_qfi, dense_rs_bound, dense_variance, random_hermitian, random_state
from qfiroof import (
    CutoffTooSmallError,
    Decomposition,
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    OptimizerConfig,
    PureState,
    RandomStateConfig,
    coherent_state,
    commutator_i,
    concave_roof_L,
    duan_report,
    eigen_partition_bound_K,
    expectation,
    extract_decomposition,
    ground_state,
    make_fock_algebra,
    make_spin_algebra,
    make_su_d_generators,
    purify,
    qfi,
    random_density_matrix,
    rs_lower_bound_L,
    spin_coherent_polar,
    spin_coherent_state,
    tensor,
    two_mode_squeezed_vacuum,
    two_spin_report,
    variance,
)
from qfiroof.io import state_from_json, state_to_json
from qfiroof.core import _support, _support_qfi, _support_variance, haar_random_unitary


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianOperator([[0, 1], [0, 0]])


def test_density_matrix_invariants():
    rho = random_state(4, seed=3)
    lam, vs = _support(rho)
    assert abs(np.trace(rho.mat) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-10
    recon = (vs * lam) @ vs.conj().T
    assert np.max(np.abs(recon - rho.mat)) < 1e-10
    assert np.all(np.diff(lam) <= 0)  # descending


def test_density_matrix_rejects_bad_inputs():
    # the trace is quoted as a plain float, not a numpy repr
    with pytest.raises(ValueError, match=r"^trace 2\.0 differs from 1"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def _spoiled(arr, bad):
    arr = np.array(arr, dtype=complex)
    arr.flat[0] = bad
    return arr


# A NaN used to pass every "dev > tol" check (False for NaN): eye(3)/3 with a
# NaN in [0, 0] gave a non-violated Robertson-Schrodinger verdict with NaN slack.
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda bad: HermitianOperator(_spoiled(np.eye(2), bad)),
    lambda bad: PureState(_spoiled([1.0, 0.0], bad)),
    lambda bad: DensityMatrix(_spoiled(np.eye(3) / 3, bad)),
    lambda bad: DensityMatrix.from_factor(_spoiled(np.eye(3, 2) / np.sqrt(2), bad)),
], ids=["HermitianOperator", "PureState", "DensityMatrix", "from_factor"])
def test_constructors_reject_non_finite_entries(build, bad):
    with pytest.raises(ValueError, match="non-finite"):
        build(bad)


def _assert_same_eigensystem(rho, dense):
    """Equal support eigenvalues, and support eigenvectors equal up to a
    phase (nondegenerate in these tests)."""
    (vals, vecs), (dense_vals, dense_vecs) = _support(rho), _support(dense)
    dim, rank = rho.dim, rho.rank()
    assert vecs.shape == (dim, rank) and vals.shape == dense_vals.shape == (rank,)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(rank))) < 1e-12
    assert np.all(np.diff(vals) <= 0)
    assert np.max(np.abs(vals - dense_vals)) < 1e-12
    overlaps = np.abs(np.sum(vecs.conj() * dense_vecs, axis=0))
    assert np.max(np.abs(overlaps - 1.0)) < 1e-12


@pytest.mark.parametrize("dim,rank", [(d, r) for d in (2, 4, 6) for r in range(1, d + 1)]
                         + [(3, 5)])
def test_from_factor_eigensystem(dim, rank):
    rng = np.random.default_rng(100 * dim + rank)
    v = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_factor(v)
    vals, vecs = _support(rho)
    assert rho.rank() == min(dim, rank)
    assert np.max(np.abs(rho.mat - v @ v.conj().T)) < 1e-12
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - rho.mat)) < 1e-12
    _assert_same_eigensystem(rho, DensityMatrix(v @ v.conj().T))


def test_from_factor_rejects_bad_factors():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix.from_factor(np.ones((3, 2)))
    with pytest.raises(ValueError, match="factor"):
        DensityMatrix.from_factor(np.ones(3) / np.sqrt(3))  # not 2-d


def _factor_with_spectrum(dim, cols, vals, seed):
    """A dim x cols factor whose v v^dag has the given nonzero eigenvalues."""
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(dim, rng)[:, :len(vals)]
    w = haar_random_unitary(cols, rng)[:len(vals)]
    return (u * np.sqrt(vals)) @ w


@pytest.mark.parametrize("dim", [5, 3])
def test_from_factor_floors_an_eigenvalue_like_the_dense_constructor(dim):
    v = _factor_with_spectrum(dim, 3, [0.6, 0.4 - 1e-14, 1e-14], seed=dim)
    rho = DensityMatrix.from_factor(v)
    dense = DensityMatrix(v @ v.conj().T)
    assert rho.rank() == dense.rank() == 2
    assert rho.purity() == pytest.approx(dense.purity(), abs=1e-12)
    assert np.max(np.abs(rho.mat - dense.mat)) < 1e-12
    _assert_same_eigensystem(rho, dense)


@pytest.mark.parametrize("spoil", ["vectors", "values"])
def test_from_factor_rejects_an_inaccurate_svd(monkeypatch, spoil):
    v = _factor_with_spectrum(6, 3, [0.5, 0.3, 0.2], seed=5)
    svd = np.linalg.svd

    def inaccurate_svd(a, *args, **kwargs):
        u, s, wh = svd(a, *args, **kwargs)
        if spoil == "vectors":
            u = u + 1e-9 * np.ones_like(u)
        else:   # moves 1e-9 between two eigenvalues, keeping the trace
            s = np.sqrt(s * s + 1e-9 * np.array([1.0, -1.0, 0.0]))
        return u, s, wh

    DensityMatrix.from_factor(v)
    monkeypatch.setattr(np.linalg, "svd", inaccurate_svd)
    with pytest.raises(ValueError, match="reconstruct"):
        DensityMatrix.from_factor(v)


def test_pure_state_density_is_rank_one():
    rho = psi = spin_coherent_polar(2, 0.8, -0.4)
    lam, vs = _support(rho)
    assert rho.rank() == 1 and lam[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(abs(np.vdot(vs[:, 0], psi.vec)) - 1.0) < 1e-12
    assert np.max(np.abs(rho.mat - np.outer(psi.vec, psi.vec.conj()))) < 1e-15


def test_unit_state_vector_is_kept_bit_for_bit():
    # a vector whose norm is within four ulps of 1 is not divided by it, so
    # a pure state's JSON round trip returns its vector unchanged; a vector
    # further from unit norm is still normalised
    for seed in range(200):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        psi = PureState(v / np.linalg.norm(v))
        back = state_from_json(state_to_json(psi))
        assert np.array_equal(back.vec, psi.vec)
        assert np.array_equal(PureState(psi.vec).vec, psi.vec)
    v = np.array([0.6, 0.8j]) * (1.0 + 1e-7)
    psi = PureState(v)
    assert abs(np.linalg.norm(psi.vec) - 1.0) <= 4.0 * np.finfo(float).eps
    assert np.max(np.abs(psi.vec - [0.6, 0.8j])) <= 1e-15
    # the amplitudes are copied: the state neither aliases nor freezes them
    w = np.array([0.6, 0.8j])
    assert not np.shares_memory(PureState(w).vec, w) and w.flags.writeable


def test_pure_state_is_its_rank_one_density_matrix():
    # a PureState is the DensityMatrix whose support is its vector with weight
    # 1, so every function of a density matrix reads it as it is, with the
    # values of that support held by a plain DensityMatrix ("twin")
    fock = make_fock_algebra(40)
    eye = HermitianOperator(np.eye(40))
    cases = []
    for dim in (2, 3, 9):
        rng = np.random.default_rng(40 + dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        cases.append((PureState(v / np.linalg.norm(v)),
                      random_hermitian(dim, 50 + dim), random_hermitian(dim, 60 + dim)))
    cases.append((two_mode_squeezed_vacuum(0.5, 40), tensor(fock.x, eye), tensor(eye, fock.p)))
    mixed = random_state(3, seed=70, rank=2)
    for psi, a, b in cases:
        assert isinstance(psi, DensityMatrix)
        assert psi.rank() == 1 and psi.purity() == 1.0
        lam, vs = _support(psi)
        assert lam.tolist() == [1.0] and vs.shape == (psi.dim, 1)
        assert np.array_equal(vs[:, 0], psi.vec) and np.shares_memory(vs, psi.vec)
        assert not psi.vec.flags.writeable
        assert type(PureState.from_factor(psi.vec[:, None])) is DensityMatrix
        twin = DensityMatrix._from_support(np.ones(1), psi.vec[:, None])
        for value in (variance, qfi):
            assert value(psi, a) == value(twin, a)
        l_val = rs_lower_bound_L(psi, a, b)
        assert l_val == rs_lower_bound_L(twin, a, b)
        roof = concave_roof_L(psi, a, b)
        assert roof.evaluations == 1 and roof.converged and len(roof.decomposition) == 1
        assert abs(roof.value - l_val) <= 1e-14 * l_val
        assert state_to_json(psi) == {"dim": psi.dim, "kind": "pure",
                                      "re": psi.vec.real.tolist(), "im": psi.vec.imag.tolist()}
        back = state_from_json(state_to_json(psi))
        assert type(back) is PureState and np.array_equal(back.vec, psi.vec)
        if psi.dim == fock.cutoff**2:
            report = duan_report(psi, fock)
            assert report == duan_report(twin, fock)
            assert abs(report.duan_lhs - 2.0 * np.exp(-1.0)) <= 1e-6 * report.duan_lhs
            continue
        outer = np.outer(psi.vec, psi.vec.conj())
        assert np.max(np.abs(psi.mat - outer)) <= 1e-15
        assert variance(psi, a) == pytest.approx(dense_variance(outer, a.mat), rel=1e-10)
        assert qfi(psi, a) == pytest.approx(dense_qfi(outer, a.mat), rel=1e-10, abs=1e-12)
        assert l_val == pytest.approx(dense_rs_bound(outer, a.mat, b.mat), rel=1e-10)
        # pure (x) mixed and mixed (x) pure compose through their supports
        for product, dense in ((tensor(psi, mixed), np.kron(outer, mixed.mat)),
                               (tensor(mixed, psi), np.kron(mixed.mat, outer))):
            assert type(product) is DensityMatrix and product.rank() == 2
            assert np.max(np.abs(product.mat - dense)) < 1e-12
    # a witness of 16 pure components on nine qubits mixes as one product of
    # its stacked vectors: one 512 x 512 array, and no component forms its own
    rho = random_state(512, seed=3, rank=4)
    dec = extract_decomposition(purify(rho),
                                haar_random_unitary(16, np.random.default_rng(5))[:, :4])
    assert len(dec) == 16
    tracemalloc.start()
    try:
        mix = dec.mixture()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * mix.nbytes
    assert np.max(np.abs(mix - rho.mat)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_variance_matches_trace_formula_at_every_rank(dim):
    for rank in range(1, dim + 1):
        for seed in range(3):
            rho = random_state(dim, seed=1000 * dim + 10 * rank + seed, rank=rank)
            a = random_hermitian(dim, seed=7 + seed)
            oracle = dense_variance(rho.mat, a.mat)
            assert variance(rho, a) == pytest.approx(oracle, rel=1e-10, abs=1e-14)
            psi = PureState(_support(rho)[1][:, 0])
            oracle = dense_variance(np.outer(psi.vec, psi.vec.conj()), a.mat)
            assert variance(psi, a) == pytest.approx(oracle, rel=1e-10, abs=1e-14)


def test_support_kernels_broadcast_over_a_stack_of_images():
    rho = random_state(12, seed=4242, rank=3)
    lam, vs = _support(rho)
    images = np.stack([random_hermitian(12, seed).mat @ vs for seed in (11, 12, 13)])
    assert images.shape == (3, 12, 3)
    for kernel in (_support_variance, _support_qfi):
        stacked = kernel(lam, vs, images)
        assert stacked.shape == (3,)
        single = [kernel(lam, vs, w) for w in images]
        assert np.max(np.abs(stacked - single)) < 1e-12
        # a single (d, r) image still gives one scalar
        assert np.ndim(single[0]) == 0 and float(single[0]) == single[0]


def test_pure_state_normalization():
    psi = PureState([1 / np.sqrt(2), 1j / np.sqrt(2)])
    assert abs(np.linalg.norm(psi.vec) - 1) < 1e-12
    with pytest.raises(ValueError):
        PureState([1, 1])  # norm sqrt(2), not a state


# ---------------------------------------------------------------------------
# spin algebra
# ---------------------------------------------------------------------------

def test_spin_half_matrices():
    spin = make_spin_algebra(0.5)
    assert np.allclose(spin.jz.mat, np.diag([0.5, -0.5]))
    assert np.allclose(spin.jx.mat, [[0, 0.5], [0.5, 0]])


def test_spin_one_trace_of_jx_squared():
    # eigenvalues of J_x are {1, 0, -1}; squares sum to 2
    spin = make_spin_algebra(1)
    evals = np.linalg.eigvalsh(spin.jx.mat)
    assert np.allclose(sorted(evals), [-1, 0, 1], atol=1e-12)
    assert abs(np.trace(spin.jx.mat @ spin.jx.mat) - 2.0) < 1e-12


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 3.5, 5, 10, 50])
def test_spin_casimir_and_commutators(j):
    spin = make_spin_algebra(j)
    casimir = spin.jx.mat @ spin.jx.mat + spin.jy.mat @ spin.jy.mat + spin.jz.mat @ spin.jz.mat
    assert np.max(np.abs(casimir - j * (j + 1) * np.eye(spin.dim))) < 1e-10
    for a, b, c in ((spin.jx, spin.jy, spin.jz), (spin.jy, spin.jz, spin.jx),
                    (spin.jz, spin.jx, spin.jy)):
        comm = a.mat @ b.mat - b.mat @ a.mat
        assert np.max(np.abs(comm - 1j * c.mat)) < 1e-10


def test_spin_rejects_non_half_integer():
    with pytest.raises(ValueError):
        make_spin_algebra(0.7)


@pytest.mark.parametrize("j", [np.inf, -np.inf, np.nan])
def test_spin_rejects_non_finite_spin(j):
    with pytest.raises(ValueError, match="j must be finite"):
        make_spin_algebra(j)


# ---------------------------------------------------------------------------
# SU(d) generators
# ---------------------------------------------------------------------------

def test_su2_generators_are_paulis(paulis):
    gens = make_su_d_generators(2)
    assert len(gens) == 3
    for g, p in zip(gens, paulis):
        assert np.allclose(g.mat, p.mat)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_su_d_orthogonality(d):
    gens = make_su_d_generators(d)
    assert len(gens) == d * d - 1
    for k, gk in enumerate(gens):
        assert abs(np.trace(gk.mat)) < 1e-12
        for l, gl in enumerate(gens):
            hs = np.trace(gk.mat @ gl.mat)
            assert abs(hs - (2.0 if k == l else 0.0)) < 1e-12


def test_su_d_pure_state_variance_sum():
    # for any pure qutrit the generator variances add up to 4j with j = 1
    rng = np.random.default_rng(8)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = PureState(v / np.linalg.norm(v))
    total = sum(variance(psi, g) for g in make_su_d_generators(3))
    assert abs(total - 4.0) < 1e-10


def test_su_d_rejects_small_d():
    with pytest.raises(ValueError):
        make_su_d_generators(1)


@pytest.mark.parametrize("d", [2.0, True])
def test_su_d_takes_only_integer_d(d):
    with pytest.raises(ValueError, match="d must be an integer"):
        make_su_d_generators(d)


# ---------------------------------------------------------------------------
# Fock space and coherent states
# ---------------------------------------------------------------------------

def test_fock_two_level_truncation():
    fock = make_fock_algebra(2)
    assert np.allclose(fock.x.mat, [[0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0]])


def test_fock_cutoff_is_an_integer_of_at_least_two():
    for bad in (1, 2.5, 3.0, True, float("nan")):
        with pytest.raises(ValueError, match="cutoff must be an integer >= 2"):
            make_fock_algebra(bad)
    assert make_fock_algebra(np.int64(3)).x.dim == 3


def test_fock_canonical_commutator_off_the_edge():
    fock = make_fock_algebra(12)
    comm = fock.x.mat @ fock.p.mat - fock.p.mat @ fock.x.mat
    body = comm[:-1, :-1]
    assert np.max(np.abs(body - 1j * np.eye(11))) < 1e-12


def test_vacuum_quadrature_variances():
    fock = make_fock_algebra(40)
    vac = coherent_state(0.0, 40)
    assert abs(variance(vac, fock.x) - 0.5) < 1e-12
    assert abs(variance(vac, fock.p) - 0.5) < 1e-12


def test_coherent_state_moments():
    # analytic: <x> = sqrt(2) Re(alpha), Var(x) = Var(p) = 1/2
    fock = make_fock_algebra(40)
    psi = coherent_state(1.0, 40)
    assert abs(expectation(psi, fock.x) - np.sqrt(2)) < 1e-8
    assert abs(variance(psi, fock.x) - 0.5) < 1e-8
    psi2 = coherent_state(0.5, 40)
    assert abs(variance(psi2, fock.x) - 0.5) < 1e-8


def test_coherent_state_saturates_position_momentum_uncertainty():
    fock = make_fock_algebra(40)
    psi = coherent_state(0.7 + 0.4j, 40)
    prod = variance(psi, fock.x) * variance(psi, fock.p)
    assert abs(prod - 0.25) < 1e-8


@pytest.mark.parametrize("alpha, cutoff", [(0.0, 1), (1e-3, 2), (0.7 + 0.4j, 40)],
                         ids=["vacuum-cutoff-1", "cutoff-2", "cutoff-40"])
def test_coherent_state_amplitudes_match_the_closed_form(alpha, cutoff):
    # e^{-|alpha|^2/2} alpha^n / sqrt(n!), renormalised after truncation
    closed = np.array([np.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
                       for n in range(cutoff)], dtype=complex)
    closed /= np.linalg.norm(closed)
    assert np.max(np.abs(coherent_state(alpha, cutoff).vec - closed)) < 1e-14


def test_coherent_state_tail_rejection():
    with pytest.raises(CutoffTooSmallError):
        coherent_state(3.0, 12)


# ---------------------------------------------------------------------------
# spin-coherent states
# ---------------------------------------------------------------------------

def test_spin_coherent_identity_rotation():
    psi = spin_coherent_state(1.5, (0.0, 0.0, 0.0))
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(psi.vec, expected)


def test_spin_coherent_state_rejects_nonfinite_rotations():
    for bad in ((float("nan"), 0.0, 0.0), (0.0, float("inf"), 0.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="3-vector|non-finite"):
            spin_coherent_state(1, bad)


def test_spin_coherent_x_direction():
    spin = make_spin_algebra(0.5)
    psi = spin_coherent_polar(0.5, np.pi / 2, 0.0)
    assert abs(variance(psi, spin.jx)) < 1e-12
    assert abs(variance(psi, spin.jy) - 0.25) < 1e-12
    assert abs(expectation(psi, spin.jx) - 0.5) < 1e-12


@pytest.mark.parametrize("j,c", [(0.5, (0.3, -0.2, 1.0)), (1, (1.0, 0.5, 0.0)),
                                 (2.5, (-0.4, 0.9, 0.3))])
def test_spin_coherent_variance_sum(j, c):
    spin = make_spin_algebra(j)
    psi = spin_coherent_state(j, c)
    total = sum(variance(psi, op) for op in spin.as_tuple())
    assert abs(total - j) < 1e-10


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def test_random_rank_one_is_pure():
    rho = random_density_matrix(RandomStateConfig(dim=3, rank=1, seed=5))
    assert rho.rank() == 1 and abs(_support(rho)[0][0] - 1.0) < 1e-12


def test_random_density_matrix_reproducible():
    cfg = RandomStateConfig(dim=3, rank=3, seed=123)
    a = random_density_matrix(cfg)
    b = random_density_matrix(cfg)
    assert np.array_equal(a.mat, b.mat)


def test_random_density_matrix_mean_purity():
    # Monte-Carlo check of the induced-measure mean purity 2d/(d^2+1)
    for dim, expected in ((2, 4 / 5), (3, 3 / 5)):
        n = 10_000 if dim == 2 else 4_000
        mean = np.mean([
            random_density_matrix(RandomStateConfig(dim=dim, rank=dim, seed=s)).purity()
            for s in range(n)])
        assert abs(mean - expected) < 0.02 * expected


@pytest.mark.parametrize("fields", [dict(dim=3.0), dict(rank=True), dict(seed=-1),
                                    dict(seed=1.5), dict(dim=0, rank=0)],
                         ids=["dim-float", "rank-bool", "seed-negative", "seed-float", "dim-zero"])
def test_random_state_config_takes_only_integer_counts(fields):
    with pytest.raises(ValueError, match="must be an integer"):
        RandomStateConfig(**{"dim": 3, "rank": 3, "seed": 1, **fields})


def test_maximally_mixed_rejects_dimension_zero():
    for dim in (0, 2.0):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            DensityMatrix.maximally_mixed(dim)


def test_random_state_config_validation():
    with pytest.raises(ValueError):
        RandomStateConfig(dim=2, rank=3, seed=0)


# ---------------------------------------------------------------------------
# tensor products, expectations, ground states
# ---------------------------------------------------------------------------

def test_tensor_identity():
    eye2 = HermitianOperator(np.eye(2))
    assert np.allclose(tensor(eye2, eye2).mat, np.eye(4))


def test_tensor_expectations_on_product_state(paulis):
    sx, sy, sz = paulis
    eye = HermitianOperator(np.eye(2))
    up = PureState([1, 0])
    both = tensor(up, up)
    assert abs(expectation(both, tensor(sz, eye)) - 1.0) < 1e-12
    assert abs(expectation(both, tensor(eye, sz)) - 1.0) < 1e-12


@pytest.mark.parametrize("dims, ranks", [((2, 2), (2, 2)), ((3, 2), (1, 2)), ((3, 4), (3, 2))])
def test_tensor_density_matrices_matches_dense_kron(dims, ranks):
    a = random_state(dims[0], seed=310 + dims[0], rank=ranks[0])
    b = random_state(dims[1], seed=320 + dims[1], rank=ranks[1])
    product = tensor(a, b)
    dense = DensityMatrix(np.kron(a.mat, b.mat))
    assert np.max(np.abs(product.mat - dense.mat)) < 1e-12
    assert np.max(np.abs(_support(product)[0] - _support(dense)[0])) < 1e-12
    assert product.rank() == ranks[0] * ranks[1]


def test_tensor_density_matrices_at_cutoff_40_makes_no_dense_eigensolve(monkeypatch):
    def mixture(alphas):
        factor = np.stack([coherent_state(alpha, 40).vec for alpha in alphas], axis=1)
        return DensityMatrix.from_factor(factor / np.sqrt(len(alphas)))

    a, b = mixture([0.5, -0.4j]), mixture([0.3 + 0.2j, -0.6])
    eigh = np.linalg.eigh

    def small_eigh(mat, *args, **kwargs):
        if np.shape(mat)[-1] > 100:
            raise AssertionError(f"dense eigensolve of a {np.shape(mat)} matrix")
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    product = tensor(a, b)
    assert product.dim == 1600 and product.rank() == 4
    assert abs(np.trace(product.mat).real - 1.0) < 1e-12


def test_tensor_kind_mismatch():
    with pytest.raises(TypeError):
        tensor(PureState([1, 0]), HermitianOperator(np.eye(2)))


def test_collective_jx_spectrum_two_qubits():
    # direct diagonalization oracle for J_x^(1) + J_x^(2)
    spin = make_spin_algebra(0.5)
    eye = HermitianOperator(np.eye(2))
    total = tensor(spin.jx, eye) + tensor(eye, spin.jx)
    evals = np.sort(np.linalg.eigvalsh(total.mat))
    assert np.allclose(evals, [-1, 0, 0, 1], atol=1e-12)


def test_eigenstate_has_zero_variance(paulis):
    assert variance(PureState([1, 0]), paulis[2]) == 0.0


def test_z_polar_mixture_moments():
    # equal mixture of the two extremal J_z states
    for j in (0.5, 1, 2.5):
        spin = make_spin_algebra(j)
        mat = np.zeros((spin.dim, spin.dim), dtype=complex)
        mat[0, 0] = mat[-1, -1] = 0.5
        rho = DensityMatrix(mat)
        assert abs(variance(rho, spin.jz) - j**2) < 1e-12
        assert abs(variance(rho, spin.jx) - j / 2) < 1e-12


def test_maximally_mixed_spin_one_variance():
    spin = make_spin_algebra(1)
    rho = DensityMatrix.maximally_mixed(3)
    assert abs(variance(rho, spin.jx) - 2 / 3) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_expectation_matches_trace_formula(dim):
    for seed in range(3):
        rho = random_state(dim, seed=900 + seed, rank=1 + seed % dim)
        op = random_hermitian(dim, 910 + seed)
        assert abs(expectation(rho, op) - np.trace(rho.mat @ op.mat).real) < 1e-12


def test_expectation_coherent_mixture_matches_trace_formula():
    from qfiroof import coherent_mixture

    cutoff = 40
    rho = coherent_mixture([(0.6, 0.3, -0.2), (0.4, -0.5, 0.4j)], cutoff)
    fock = make_fock_algebra(cutoff)
    x1 = tensor(fock.x, HermitianOperator(np.eye(cutoff)))
    assert abs(expectation(rho, x1) - np.trace(rho.mat @ x1.mat).real) < 1e-12


def test_no_call_but_a_read_of_mat_forms_the_state_matrix(monkeypatch):
    # moments, bounds, K, roofs, composition, decompositions and reports read
    # the support (lambda_S, V_S) alone: with ``mat`` made to raise, all run
    # on a factor-built cutoff-40 mixture, a 1600-level TMSV and a dense qutrit
    from qfiroof import coherent_mixture

    cutoff = 40
    fock = make_fock_algebra(cutoff)
    eye = HermitianOperator(np.eye(cutoff))
    x1, p2 = tensor(fock.x, eye), tensor(eye, fock.p)
    spin = make_spin_algebra(1)
    qutrit = random_density_matrix(RandomStateConfig(dim=3, rank=3, seed=5))
    cases = [(coherent_mixture([(0.5, 0.2, 0.1j), (0.5, -0.3, 0.4)], cutoff), x1, p2),
             (two_mode_squeezed_vacuum(0.5, cutoff), x1, p2),
             (qutrit, spin.jx, spin.jy)]

    def unformed(state):
        raise AssertionError(f"{state!r} formed its d x d matrix")

    monkeypatch.setattr(DensityMatrix, "mat", property(unformed))
    rng = np.random.default_rng(9)
    for state, a, b in cases:
        lam, vs = _support(state)
        for value in (expectation, variance, qfi):
            assert np.isfinite(value(state, a))
        l_val = rs_lower_bound_L(state, a, b)
        roof = concave_roof_L(state, a, b, cfg=OptimizerConfig(seed=3, restarts=2, local_steps=20),
                              ancilla_dim=3)
        assert roof.value >= l_val - 1e-9
        product = tensor(state, qutrit)
        assert product.rank() == 3 * state.rank()
        assert abs(product.purity() - state.purity() * qutrit.purity()) < 1e-12
        dec = extract_decomposition(purify(state),
                                    haar_random_unitary(3, rng)[:, :state.rank()])
        mix = dec.mixture()
        assert abs(np.trace(mix).real - 1.0) < 1e-12
        assert np.max(np.abs(mix @ vs - vs * lam)) < 1e-12
        if state.dim == cutoff**2:
            assert np.isfinite(duan_report(state, fock).duan_lhs)
            assert np.isfinite(two_spin_report(state, 19.5, 19.5).lhs)
        else:
            k = eigen_partition_bound_K(state, a, b)
            assert l_val - 1e-12 <= k <= roof.value + 1e-9


def test_a_state_keeps_only_its_support():
    # the dense constructor keeps the support of its input, not the input,
    # and a read of ``mat``, here by ``Decomposition.reconstructs`` on a
    # cutoff-40 mixture, leaves nothing on the state
    from qfiroof import coherent_mixture

    assert DensityMatrix.__slots__ == ("_lam", "_vs") and PureState.__slots__ == ()
    cfg = RandomStateConfig(dim=512, rank=2, seed=1)
    random_density_matrix(cfg)   # the first call makes numpy's one-time allocations, 0.8 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        narrow = random_density_matrix(cfg)
        held = tracemalloc.get_traced_memory()[0] - before
        rng = np.random.default_rng(2)
        g = rng.standard_normal((512, 2)) @ rng.standard_normal((2, 513))
        before = tracemalloc.get_traced_memory()[0]
        wide = DensityMatrix.from_factor(g / np.linalg.norm(g))   # its SVD's U is 512 x 512
        held_wide = tracemalloc.get_traced_memory()[0] - before
        rho = coherent_mixture([(0.6, 0.3, -0.2), (0.4, -0.5, 0.4j)], 40)
        dec = Decomposition(((1.0, rho),))
        before = tracemalloc.get_traced_memory()[0]
        assert dec.reconstructs(rho)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert narrow.rank() == 2 and held < 64_000      # its 512 x 512 input is 4.2 MB
    assert wide.rank() == 2 and held_wide < 64_000
    assert retained < 1_000_000                      # the 1600 x 1600 matrix is 41 MB


def test_expectation_dimension_mismatch(paulis):
    with pytest.raises(DimensionMismatchError):
        expectation(PureState([1, 0, 0]), paulis[0])


def test_ground_state_jz():
    spin = make_spin_algebra(1)
    energy, psi, degenerate = ground_state(spin.jz)
    assert abs(energy + 1.0) < 1e-12
    assert not degenerate
    assert abs(abs(psi.vec[-1]) - 1.0) < 1e-12  # m = -1 lives in the last slot


def test_ground_state_degeneracy_flag():
    _, _, degenerate = ground_state(HermitianOperator(np.diag([0.0, 0.0, 1.0])))
    assert degenerate


def test_squeezing_hamiltonian_ground_state_j1():
    # direct 3x3 diagonalization: the lam = 1 ground state is y-squeezed
    spin = make_spin_algebra(1)
    h = HermitianOperator(spin.jy.mat @ spin.jy.mat - 1.0 * spin.jx.mat)
    _, psi, degenerate = ground_state(h)
    assert not degenerate
    assert variance(psi, spin.jy) < 0.5


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(0, 10**6), st.integers(0, 10**6), st.floats(0.01, 0.99),
       st.sampled_from([2, 3, 4]))
def test_variance_concave_under_mixing(seed1, seed2, p, dim):
    rho1 = random_state(dim, seed1)
    rho2 = random_state(dim, seed2)
    op = random_hermitian(dim, seed1 ^ seed2 ^ 0xABC)
    mix = DensityMatrix(p * rho1.mat + (1 - p) * rho2.mat)
    assert variance(mix, op) >= p * variance(rho1, op) + (1 - p) * variance(rho2, op) - 1e-10


_ENTRY = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _valid_inputs(draw):
    """A finite complex d x d matrix g, drawn entry by entry, and the four
    constructor inputs made from it: a Hermitian matrix, a unit vector, a
    unit-trace PSD matrix and a unit-norm d x r factor."""
    dim = draw(st.integers(1, 4))
    parts = draw(st.lists(_ENTRY, min_size=2 * dim * dim, max_size=2 * dim * dim))
    g = np.reshape(parts[::2], (dim, dim)) + 1j * np.reshape(parts[1::2], (dim, dim))
    rank = draw(st.integers(1, dim))
    assume(np.linalg.norm(g[:, :rank]) > 1e-3 and np.linalg.norm(g[:, 0]) > 1e-3)
    gram = g @ g.conj().T
    return {
        "HermitianOperator": (HermitianOperator, 0.5 * (g + g.conj().T)),
        "PureState": (PureState, g[:, 0] / np.linalg.norm(g[:, 0])),
        "DensityMatrix": (DensityMatrix, gram / np.trace(gram).real),
        "from_factor": (DensityMatrix.from_factor, g[:, :rank] / np.linalg.norm(g[:, :rank])),
    }


KINDS = ["HermitianOperator", "PureState", "DensityMatrix", "from_factor"]


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_constructors_accept_valid_finite_inputs(kind, data):
    build, entries = _valid_inputs(data.draw)[kind]
    build(entries)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       imaginary=st.booleans())
def test_constructors_reject_a_non_finite_entry_anywhere(kind, data, bad, imaginary):
    build, entries = _valid_inputs(data.draw)[kind]
    entries = entries.copy()
    flat = entries.reshape(-1)
    k = data.draw(st.integers(0, flat.size - 1))
    flat[k] = complex(flat[k].real, bad) if imaginary else complex(bad, flat[k].imag)
    with pytest.raises(ValueError, match="non-finite"):
        build(entries)


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 5]))
def test_eigensystem_roundtrip(seed, dim):
    rho = random_state(dim, seed)
    lam, vs = _support(rho)
    recon = (vs * lam) @ vs.conj().T
    assert np.max(np.abs(recon - rho.mat)) < 1e-10


def test_commutator_i_is_hermitian():
    a = random_hermitian(3, 11)
    b = random_hermitian(3, 12)
    c = commutator_i(a, b)
    assert np.max(np.abs(c.mat - c.mat.conj().T)) < 1e-12
