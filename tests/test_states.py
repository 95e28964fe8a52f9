import warnings

import numpy as np
import pytest

from qfiroof import (
    CutoffTooSmallError,
    DensityMatrix,
    HermitianOperator,
    coherent_mixture,
    coherent_state,
    expectation,
    make_fock_algebra,
    make_spin_algebra,
    planar_squeezed_state,
    qfi,
    singlet_state,
    spin_coherent_mixture,
    spin_coherent_product_mixture,
    spin_squeezed_state,
    tensor,
    two_mode_squeezed_vacuum,
    variance,
)
from qfiroof.core import _support

# ---------------------------------------------------------------------------
# spin squeezing
# ---------------------------------------------------------------------------

def test_spin_squeezed_large_lambda_limit():
    spin = make_spin_algebra(5)
    psi = spin_squeezed_state(5, 1e7)
    assert abs(expectation(psi, spin.jx) - 5) < 1e-4
    assert variance(psi, spin.jx) < 1e-4
    assert abs(variance(psi, spin.jy) - 2.5) < 1e-3


def test_spin_squeezed_reduces_y_variance():
    spin = make_spin_algebra(3)
    psi = spin_squeezed_state(3, 2.0)
    assert variance(psi, spin.jy) < 3 / 2  # below the coherent level j/2


def test_spin_squeezed_monotone_approach_to_polarized_limit():
    spin = make_spin_algebra(4)
    lams = np.logspace(0, 5, 12)
    var_y = [variance(spin_squeezed_state(4, lam), spin.jy) for lam in lams]
    var_x = [variance(spin_squeezed_state(4, lam), spin.jx) for lam in lams]
    assert np.all(np.diff(var_y) >= -1e-10)   # climbs back to j/2
    assert np.all(np.diff(var_x) <= 1e-10)    # x-deviation dies off
    assert abs(var_y[-1] - 2.0) < 1e-3


def test_spin_squeezed_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        spin_squeezed_state(2, 0.0)


def test_spin_squeezed_bound_tracks_fisher_information():
    # sweep: the variance-based lower bound never exceeds F_Q itself
    spin = make_spin_algebra(6)
    for lam in np.logspace(-1, 4, 8):
        psi = spin_squeezed_state(6, lam)
        b_fq = 4 * 6 - 4 * variance(psi, spin.jx) - 4 * variance(psi, spin.jy)
        assert b_fq <= qfi(psi, spin.jz) + 1e-9


# ---------------------------------------------------------------------------
# planar squeezing
# ---------------------------------------------------------------------------

def test_planar_exact_anchors():
    assert abs(planar_squeezed_state(0.5).var_sum - 0.25) < 1e-10
    assert abs(planar_squeezed_state(1.0).var_sum - 7 / 16) < 1e-10


def test_planar_constant_small_against_j():
    res = planar_squeezed_state(10)
    assert res.var_sum < 0.3 * 10
    assert np.linalg.norm(res.mean_spin) > 1e-3


def test_planar_descent_is_monotone():
    # re-run the iteration by hand and check the variance sum never rises
    spin = make_spin_algebra(2)
    from qfiroof import spin_coherent_state
    psi = spin_coherent_state(2, (0.0, np.pi / 2, 0.0))
    quad = spin.jx.mat @ spin.jx.mat + spin.jy.mat @ spin.jy.mat
    prev = variance(psi, spin.jx) + variance(psi, spin.jy)
    for _ in range(40):
        mx, my = expectation(psi, spin.jx), expectation(psi, spin.jy)
        h = HermitianOperator(quad - 2 * mx * spin.jx.mat - 2 * my * spin.jy.mat)
        vals, vecs = np.linalg.eigh(h.mat)
        from qfiroof import PureState
        psi = PureState(vecs[:, 0])
        cur = variance(psi, spin.jx) + variance(psi, spin.jy)
        assert cur <= prev + 1e-12
        prev = cur
    assert abs(planar_squeezed_state(2).var_sum - prev) < 1e-6


def test_planar_result_reports_iteration_count():
    res = planar_squeezed_state(1.5)
    assert res.iterations >= 1


# ---------------------------------------------------------------------------
# two-mode squeezed vacuum
# ---------------------------------------------------------------------------

def _two_mode_ops(cutoff):
    fock = make_fock_algebra(cutoff)
    eye = HermitianOperator(np.eye(cutoff))
    return (tensor(fock.x, eye), tensor(eye, fock.x),
            tensor(fock.p, eye), tensor(eye, fock.p))


def test_tmsv_zero_squeezing_is_vacuum():
    psi = two_mode_squeezed_vacuum(0.0, 10)
    expected = np.zeros(100)
    expected[0] = 1.0
    assert np.allclose(psi.vec, expected)


def test_tmsv_squeezed_pair_variances():
    x1, x2, p1, p2 = _two_mode_ops(40)
    psi = two_mode_squeezed_vacuum(0.5, 40)
    total = variance(psi, x1 + x2) + variance(psi, p1 - p2)
    assert abs(total - 2 * np.exp(-1.0)) < 1e-3
    anti = variance(psi, x1 - x2) + variance(psi, p1 + p2)
    assert abs(anti - 2 * np.exp(1.0)) < 1e-3


def test_tmsv_fisher_information_of_antisqueezed_quadrature():
    x1, x2, _, _ = _two_mode_ops(40)
    psi = two_mode_squeezed_vacuum(0.5, 40)
    assert abs(qfi(psi, x1 - x2) - 4 * np.exp(1.0)) < 1e-2


def test_tmsv_diagonal_matches_the_closed_form():
    r, cutoff = 0.5, 40
    closed = (-np.tanh(r)) ** np.arange(cutoff)
    closed /= np.linalg.norm(closed)
    vec = two_mode_squeezed_vacuum(r, cutoff).vec.reshape(cutoff, cutoff)
    assert np.max(np.abs(np.diag(vec) - closed)) < 1e-14
    assert not np.any(vec[~np.eye(cutoff, dtype=bool)])


def test_tmsv_cutoff_guard():
    with pytest.raises(CutoffTooSmallError):
        two_mode_squeezed_vacuum(2.0, 10)


# ---------------------------------------------------------------------------
# singlets and mixtures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", [0.5, 1, 1.5])
def test_singlet_collective_moments_vanish(j):
    spin = make_spin_algebra(j)
    eye = HermitianOperator(np.eye(spin.dim))
    psi = singlet_state(j)
    for op in spin.as_tuple():
        coll = tensor(op, eye) + tensor(eye, op)
        sq = HermitianOperator(coll.mat @ coll.mat)
        assert abs(expectation(psi, sq)) < 1e-10


def test_spin_coherent_mixture_fisher_cap():
    spin = make_spin_algebra(1.5)
    rho = spin_coherent_mixture(1.5, [(0.4, (0.1, 0.9, -0.3)),
                                      (0.35, (1.2, 0.0, 0.4)),
                                      (0.25, (-0.6, 0.5, 2.0))])
    total = sum(qfi(rho, op) for op in spin.as_tuple())
    assert total <= 4 * 1.5 + 1e-9


def test_spin_coherent_product_mixture_class_bound():
    spin1 = make_spin_algebra(0.5)
    spin2 = make_spin_algebra(1)
    eye1 = HermitianOperator(np.eye(2))
    eye2 = HermitianOperator(np.eye(3))
    rho = spin_coherent_product_mixture(
        0.5, 1, [(0.5, (0.2, 0.4, 0.0), (0.0, 1.0, 0.5)),
                 (0.5, (1.0, 0.0, 0.3), (0.7, -0.2, 0.0))])
    total = 0.0
    for op1, op2 in zip(spin1.as_tuple(), spin2.as_tuple()):
        diff = tensor(op1, eye2) - tensor(eye1, op2)
        total += qfi(rho, diff)
    assert total <= 4 * (0.5 + 1) + 1e-9


def test_coherent_mixture_single_mode_class_bounds():
    fock = make_fock_algebra(25)
    rho = coherent_mixture([(0.3, 0.5), (0.4, -0.2 + 0.3j), (0.3, 0.8j)], cutoff=25)
    assert variance(rho, fock.x) >= 0.5 - 1e-9
    assert variance(rho, fock.p) >= 0.5 - 1e-9
    assert qfi(rho, fock.x) <= 2 + 1e-9
    assert qfi(rho, fock.p) <= 2 + 1e-9


def test_coherent_mixture_spectrum_matches_dense_eigensolve():
    rho = coherent_mixture([(0.5, 0.3, -0.6j), (0.3, -0.4, 0.1), (0.2, 0.7j, 0.5)], cutoff=20)
    dense = DensityMatrix(rho.mat)
    assert rho.rank() == 3
    assert np.max(np.abs(_support(rho)[0] - _support(dense)[0])) < 1e-12


def test_mixture_constructors_yield_valid_density_matrices():
    rho = coherent_mixture([(2.0, 0.1, 0.2j), (1.0, -0.3, 0.0)], cutoff=20)
    assert isinstance(rho, DensityMatrix)
    assert abs(np.trace(rho.mat) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-10


@pytest.mark.parametrize("build", [
    lambda: coherent_state(0.0, 12.5),
    lambda: coherent_state(0.1, 40.0),
    lambda: coherent_state(1.0, 12.5),
    lambda: coherent_state(0.0, 0),
    lambda: coherent_state(0.0, True),
    lambda: two_mode_squeezed_vacuum(0.5, 40.0),
    lambda: two_mode_squeezed_vacuum(0.5, 12.5),
    lambda: two_mode_squeezed_vacuum(0.0, 0),
    lambda: two_mode_squeezed_vacuum(0.0, True),
], ids=["coherent-12.5", "coherent-40.0", "coherent-12.5-tail", "coherent-0", "coherent-True",
        "tmsv-40.0", "tmsv-12.5", "tmsv-0", "tmsv-True"])
def test_fock_cutoffs_are_validated_before_any_array_is_built(build):
    with pytest.raises(ValueError, match="cutoff must be an integer >= 1"):
        build()


@pytest.mark.parametrize("build", [
    lambda: coherent_state(np.nan, 10),
    lambda: coherent_state(complex(0.1, np.inf), 10),
    lambda: two_mode_squeezed_vacuum(np.nan, 10),
    lambda: two_mode_squeezed_vacuum(np.inf, 10),
    lambda: coherent_mixture([(np.inf, 0.1), (0.5, 0.2)], 10),
    lambda: coherent_mixture([(np.nan, 0.1), (0.5, 0.2)], 10),
    lambda: coherent_mixture([], 10),
    lambda: spin_coherent_mixture(1, []),
], ids=["alpha-nan", "alpha-inf", "r-nan", "r-inf", "weight-inf", "weight-nan",
        "no-entries", "no-spin-entries"])
def test_invalid_parameters_raise_before_any_arithmetic(build):
    # a RuntimeWarning from the arithmetic would surface instead of the typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite|at least one component"):
            build()
