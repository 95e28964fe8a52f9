import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qfiroof import (
    HermitianOperator,
    OptimizerConfig,
    RandomStateConfig,
    RoofResult,
    extract_decomposition,
    purify,
    random_density_matrix,
)
from qfiroof.core import haar_random_unitary, state_density
from qfiroof.roofs import (
    BUDGET,
    WEIGHT_DROP,
    _ascend,
    _gram_stack,
)

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


def dense_sld(rho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L = sum_{k,l} 2i (l_k - l_l) / (l_k + l_l) B_kl |k><l| in the full
    eigenbasis of rho, eigenvalues below 1e-12 set to zero and pairs with
    l_k + l_l < 1e-12 skipped."""
    lam, vecs = np.linalg.eigh(rho)
    lam = np.where(lam < 1e-12, 0.0, lam)
    bmat = vecs.conj().T @ b @ vecs
    s = lam[:, None] + lam[None, :]
    ratio = np.where(s < 1e-12, 0.0, (lam[:, None] - lam[None, :]) / np.where(s < 1e-12, 1.0, s))
    return vecs @ (2j * ratio * bmat) @ vecs.conj().T


def dense_variance_sum(rho: np.ndarray, ops) -> float:
    """sum_n Var(A_n) from full-matrix traces, clamped at zero like ``VarianceSum``."""
    return max(sum(dense_variance(rho, a) for a in ops), 0.0)


def dense_rs_bound(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """L = sqrt(|Tr(rho {A,B}) - 2<A><B>|^2 + |Tr(rho i[A,B])|^2)."""
    ea, eb = np.trace(rho @ a).real, np.trace(rho @ b).real
    cov = np.trace(rho @ (a @ b + b @ a)).real - 2.0 * ea * eb
    comm = np.trace(rho @ (1j * (a @ b - b @ a))).real
    return float(np.hypot(cov, comm))


def closed_form_K(rho, a: np.ndarray, b: np.ndarray) -> float:
    """The eigenvector-partition bound of a qutrit from its spectrum: the
    eigendecomposition average, the three one-pure-two-merged groupings
    (the merged component is rho minus the pure one, renormalised) and L."""
    lam, vecs = np.linalg.eigh(rho.mat)
    lam = np.where(lam < 1e-12, 0.0, lam)
    pure = [np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(3)]
    l_pure = np.array([dense_rs_bound(proj, a, b) for proj in pure])
    candidates = [float(lam @ l_pure)]
    for k in range(3):
        p_rest = 1.0 - lam[k]
        if p_rest < WEIGHT_DROP:
            candidates.append(float(lam[k] * l_pure[k]))
            continue
        sigma = (rho.mat - lam[k] * pure[k]) / p_rest
        candidates.append(float(lam[k] * l_pure[k] + p_rest * dense_rs_bound(sigma, a, b)))
    candidates.append(dense_rs_bound(rho.mat, a, b))
    return max(candidates)


def p_plus_eigenstate(fock) -> np.ndarray:
    """The lowest eigenvector of the truncated p1 + p2 on two modes: its
    Fisher information for p1 + p2 vanishes while Var(x1 + x2) does not."""
    eye = np.eye(fock.cutoff)
    return np.linalg.eigh(np.kron(fock.p.mat, eye) + np.kron(eye, fock.p.mat))[1][:, 0]


def dense_two_mode_quadratures(fock) -> dict:
    """x1 +- x2 and p1 +- p2 as dense Kronecker-built c^2 x c^2 matrices."""
    eye = np.eye(fock.cutoff)
    x1, x2 = np.kron(fock.x.mat, eye), np.kron(eye, fock.x.mat)
    p1, p2 = np.kron(fock.p.mat, eye), np.kron(eye, fock.p.mat)
    return {"x1+x2": x1 + x2, "x1-x2": x1 - x2, "p1+p2": p1 + p2, "p1-p2": p1 - p2}


# ---------------------------------------------------------------------------
# scalar reference roof search: one start at a time; the library advances
# every start together as one compacted stack
# ---------------------------------------------------------------------------

def scalar_reference_roof(rho, functional, direction, start=None, cfg=None, ancilla_dim=None):
    """The roof search with every start run on its own as a stack of one:
    restart 0 at the unitary ``start`` (the identity by default), restart r
    > 0 at the Haar unitary of ``default_rng([seed, 0, r])``, like
    ``optimize_roof``.  Returns a ``RoofResult`` whose ``evaluations``
    count one per start plus one per iteration."""
    cfg = cfg or OptimizerConfig()
    rho = state_density(rho)
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    m = purify(rho, ancilla_dim)
    gram = _gram_stack(m, functional.ops)
    if start is None:
        start = np.eye(ancilla_dim, dtype=complex)

    sign = 1.0 if direction == "max" else -1.0
    best_value, best_u, best_converged = -np.inf, None, True
    evaluations = 0
    for r_idx in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, 0, r_idx])
        u = (start if r_idx == 0 else haar_random_unitary(ancilla_dim, rng))[None].copy()
        vals, reason, iterations = _ascend(gram, u, functional, sign, cfg)
        evaluations += 1 + iterations
        if vals[0] > best_value:
            best_value, best_u, best_converged = vals[0], u[0], bool(reason[0] != BUDGET)
    return RoofResult(value=float(sign * best_value),
                      decomposition=extract_decomposition(m, best_u),
                      converged=best_converged, evaluations=evaluations)
