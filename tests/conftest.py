import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qfiroof import HermitianOperator, RandomStateConfig, random_density_matrix

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * 0.5 * (g + g.conj().T))


def random_state(dim, seed, rank=None):
    return random_density_matrix(RandomStateConfig(dim=dim, rank=rank or dim, seed=seed))


@pytest.fixture(scope="session")
def paulis():
    sx = HermitianOperator([[0, 1], [1, 0]])
    sy = HermitianOperator([[0, -1j], [1j, 0]])
    sz = HermitianOperator([[1, 0], [0, -1]])
    return sx, sy, sz


# ---------------------------------------------------------------------------
# dense reference formulas: the library takes these moments from the support
# of the state; the tests compare against the full-matrix definitions
# ---------------------------------------------------------------------------

def dense_density(state) -> np.ndarray:
    """The d x d density matrix of a PureState or DensityMatrix."""
    if hasattr(state, "vec"):
        return np.outer(state.vec, state.vec.conj())
    return state.mat


def dense_variance(rho: np.ndarray, a: np.ndarray) -> float:
    """Tr(rho A^2) - Tr(rho A)^2."""
    mean = np.trace(rho @ a).real
    return float(np.trace(rho @ a @ a).real - mean * mean)


def dense_qfi(rho: np.ndarray, b: np.ndarray) -> float:
    """2 sum_{k,l} (l_k - l_l)^2 / (l_k + l_l) |B_kl|^2 over the full spectrum of rho,
    eigenvalues below 1e-12 set to zero and pairs with l_k + l_l < 1e-12 skipped."""
    lam, vecs = np.linalg.eigh(rho)
    lam = np.where(lam < 1e-12, 0.0, lam)
    bmat = vecs.conj().T @ b @ vecs
    s = lam[:, None] + lam[None, :]
    d = lam[:, None] - lam[None, :]
    w = np.where(s < 1e-12, 0.0, d * d / np.where(s < 1e-12, 1.0, s))
    return float(2.0 * np.sum(w * np.abs(bmat) ** 2))


def dense_two_mode_quadratures(fock) -> dict:
    """x1 +- x2 and p1 +- p2 as dense Kronecker-built c^2 x c^2 matrices."""
    eye = np.eye(fock.cutoff)
    x1, x2 = np.kron(fock.x.mat, eye), np.kron(eye, fock.x.mat)
    p1, p2 = np.kron(fock.p.mat, eye), np.kron(eye, fock.p.mat)
    return {"x1+x2": x1 + x2, "x1-x2": x1 - x2, "p1+p2": p1 + p2, "p1-p2": p1 - p2}
