import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import dense_variance, random_hermitian, random_state
from qfiroof import (
    CutoffTooSmallError,
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    PureState,
    RandomStateConfig,
    coherent_state,
    commutator_i,
    expectation,
    ground_state,
    make_fock_algebra,
    make_spin_algebra,
    make_su_d_generators,
    random_density_matrix,
    spin_coherent_polar,
    spin_coherent_state,
    tensor,
    variance,
)
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
    psi = spin_coherent_polar(2, 0.8, -0.4)
    rho = psi.density()
    lam, vs = _support(rho)
    assert rho.rank() == 1 and lam[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(abs(np.vdot(vs[:, 0], psi.vec)) - 1.0) < 1e-12
    assert np.max(np.abs(rho.mat - np.outer(psi.vec, psi.vec.conj()))) < 1e-15


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


def test_expectation_of_a_factor_built_state_forms_no_dense_matrix():
    from qfiroof import coherent_mixture

    cutoff = 40
    rho = coherent_mixture([(0.5, 0.2, 0.1j), (0.5, -0.3, 0.4)], cutoff)
    fock = make_fock_algebra(cutoff)
    x1 = tensor(fock.x, HermitianOperator(np.eye(cutoff)))
    mean = expectation(rho, x1)
    assert rho._mat is None
    assert abs(mean - np.trace(rho.mat @ x1.mat).real) < 1e-12


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
