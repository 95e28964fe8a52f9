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
from qfiroof.core import _support, haar_random_unitary
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
    eigendecomposition average, the one-pure-rest-merged groupings (the
    merged component is rho minus the pure one, renormalised) and L.

    The eigenvectors are the state's support (lambda_S, V_S), the basis K
    reads: on a degenerate spectrum the bound depends on it.  An eigenvector
    outside the support has weight 0, so its grouping scores L, and it is
    left out."""
    lam, vecs = _support(rho)
    mat = rho.mat
    pure = [np.outer(v, v.conj()) for v in vecs.T]
    l_pure = np.array([dense_rs_bound(proj, a, b) for proj in pure])
    candidates = [float(lam @ l_pure)]
    for k in range(len(lam)):
        p_rest = 1.0 - lam[k]
        if p_rest < WEIGHT_DROP:
            candidates.append(float(lam[k] * l_pure[k]))
            continue
        sigma = (mat - lam[k] * pure[k]) / p_rest
        candidates.append(float(lam[k] * l_pure[k] + p_rest * dense_rs_bound(sigma, a, b)))
    candidates.append(dense_rs_bound(mat, a, b))
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

def padded_factor(rho, n):
    """The support factor of ``purify`` padded with n - r zero columns: the
    d x n purification of the former formulation, whose Gram stack is n x
    (x+k+1)n and zero outside its leading r x r blocks."""
    m = purify(rho)
    return np.concatenate([m, np.zeros((rho.dim, n - m.shape[1]), dtype=complex)], axis=1)


def padded_gram(gram, n):
    """The r x (x+k+1)r Gram stack ``gram`` with each r x r block padded by
    zeros to n x n: the stack of ``padded_factor``, its leading blocks the
    library's own to the bit."""
    r = gram.shape[0]
    blocks = gram.reshape(r, -1, r)
    padded = np.zeros((n, blocks.shape[1], n), dtype=complex)
    padded[:r, :, :r] = blocks
    return padded.reshape(n, -1)


def scalar_reference_roof(rho, functional, direction, start=None, cfg=None, ancilla_dim=None):
    """The roof search with every start run on its own as a stack of one:
    restart 0 at the n x n unitary diag(U, I) that completes the n x r
    isometry ``start`` = [U; 0] (``_split_start``; the identity by default),
    restart k > 0 at the Haar unitary of ``default_rng([seed, 0, k])``, like
    ``optimize_roof``.  It scores on the library's r x (x+k+1)r support
    Gram stack padded with zero blocks to n x (x+k+1)n (``padded_gram``),
    so the library's search of n x r isometries is checked against the
    padded formulation on the same numbers.
    Returns a ``RoofResult`` whose ``evaluations`` count one per start plus
    one per iteration, and every start's stop reason."""
    cfg = cfg or OptimizerConfig()
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    m = padded_factor(rho, ancilla_dim)
    gram = padded_gram(_gram_stack(purify(rho), functional), ancilla_dim)
    full = np.eye(ancilla_dim, dtype=complex)
    if start is not None:
        full[:, :start.shape[1]] = start
    start = full

    sign = 1.0 if direction == "max" else -1.0
    best_value, best_u, best_converged = -np.inf, None, True
    evaluations, reasons = 0, []
    for r_idx in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, 0, r_idx])
        u = (start if r_idx == 0 else haar_random_unitary(ancilla_dim, rng))[None].copy()
        vals, reason, iterations = _ascend(gram, u, functional, sign, cfg)
        evaluations += 1 + iterations
        reasons.append(reason[0])
        if vals[0] > best_value:
            best_value, best_u, best_converged = vals[0], u[0], bool(reason[0] != BUDGET)
    return RoofResult(value=float(sign * best_value),
                      decomposition=extract_decomposition(m, best_u),
                      converged=best_converged, evaluations=evaluations), np.array(reasons)
