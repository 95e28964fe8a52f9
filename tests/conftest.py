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
from qfiroof.core import haar_random_unitary
from qfiroof.metrology import state_density
from qfiroof.roofs import (
    REJECTION_STREAK,
    WEIGHT_DROP,
    Purification,
    _as_functional,
    singleton_partition,
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


def dense_two_mode_quadratures(fock) -> dict:
    """x1 +- x2 and p1 +- p2 as dense Kronecker-built c^2 x c^2 matrices."""
    eye = np.eye(fock.cutoff)
    x1, x2 = np.kron(fock.x.mat, eye), np.kron(eye, fock.x.mat)
    p1, p2 = np.kron(fock.p.mat, eye), np.kron(eye, fock.p.mat)
    return {"x1+x2": x1 + x2, "x1-x2": x1 - x2, "p1+p2": p1 + p2, "p1-p2": p1 - p2}


# ---------------------------------------------------------------------------
# scalar reference roof search: one restart at a time, one unitary per step;
# the library advances every climb together as one batch
# ---------------------------------------------------------------------------

def _random_unit_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (g + g.conj().T)
    return h / np.linalg.norm(h)


def _expm_i(h, eps):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T


class _PartitionEvaluator:
    """Objective sum_l p_l f(component_l) for a fixed partition."""

    def __init__(self, m, partition, functional):
        self.m = m
        self.functional = functional
        self.singles = [block[0] for block in partition if len(block) == 1]
        self.groups = [list(block) for block in partition if len(block) > 1]

    def value(self, u):
        v = self.m @ u.T
        weights = np.sum(np.abs(v) ** 2, axis=0)
        total = 0.0
        if self.singles:
            w = weights[self.singles]
            keep = w > WEIGHT_DROP
            if np.any(keep):
                cols = v[:, np.array(self.singles)[keep]] / np.sqrt(w[keep])
                total += float(w[keep] @ self.functional.pure_values(cols))
        for block in self.groups:
            p = float(np.sum(weights[block]))
            if p < WEIGHT_DROP:
                continue
            sub = v[:, block]
            total += p * self.functional.mixed_values((sub @ sub.conj().T / p)[None])[0]
        return total


def scalar_reference_roof(rho, functional, direction, partitions=None, cfg=None,
                          ancilla_dim=None):
    """The roof search with every restart of every partition run on its own,
    the trivial partition included: same streams, starts, proposals and
    acceptance as ``optimize_roof``.  Returns a ``RoofResult``."""
    cfg = cfg or OptimizerConfig()
    functional = _as_functional(functional)
    rho = state_density(rho)
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    base = purify(rho, ancilla_dim)
    m = base.psi_p.vec.reshape(rho.dim, ancilla_dim)
    if partitions is None:
        partitions = [singleton_partition(ancilla_dim)]
    partitions = [tuple(tuple(b) for b in part) for part in partitions]

    sign = 1.0 if direction == "max" else -1.0
    best_value = -np.inf
    best_u = None
    best_partition = None
    best_converged = False
    evaluations = 0

    for p_idx, part in enumerate(partitions):
        ev = _PartitionEvaluator(m, part, functional)
        for r_idx in range(cfg.restarts):
            rng = np.random.default_rng([cfg.seed, p_idx, r_idx])
            u = (np.eye(ancilla_dim, dtype=complex) if r_idx == 0
                 else haar_random_unitary(ancilla_dim, rng))
            val = sign * ev.value(u)
            evaluations += 1
            eps = cfg.step_scale
            rejects = 0
            hit_tolerance = False
            for _ in range(cfg.local_steps):
                if eps < cfg.tolerance:
                    hit_tolerance = True
                    break
                h = _random_unit_hermitian(rng, ancilla_dim)
                cand = _expm_i(h, eps) @ u
                cand_val = sign * ev.value(cand)
                evaluations += 1
                if cand_val > val:
                    u, val = cand, cand_val
                    rejects = 0
                else:
                    rejects += 1
                    if rejects % REJECTION_STREAK == 0:
                        eps *= cfg.shrink
            if val > best_value:
                best_value = val
                best_u = u
                best_partition = part
                best_converged = hit_tolerance

    winner = Purification(target=rho, ancilla_dim=ancilla_dim, psi_p=base.psi_p,
                          u_a=best_u, partition=best_partition)
    return RoofResult(value=sign * best_value,
                      decomposition=extract_decomposition(winner),
                      converged=best_converged,
                      evaluations=evaluations)
