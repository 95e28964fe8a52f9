"""Convex and concave roofs of variance-like functionals over decompositions.

A mixed state has infinitely many decompositions into weighted components.
Every decomposition is reachable from a fixed purification by a unitary on
the ancilla, optionally followed by grouping the ancilla basis indices into
blocks (which yields mixed components).  The optimizer below climbs that
unitary manifold from seeded starts with a limited-memory BFGS ascent in
the Hermitian Lie algebra, driven by the analytic Riemannian gradient, and
an exact line search along each geodesic exp(i mu D) U.

One-sidedness contract: every candidate decomposition is itself a witness,
so a minimization always returns a value >= the true convex roof and a
maximization always returns a value <= the true concave roof.  Downstream
bound evaluations consume only the certified side.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    EIG_FLOOR,
    DensityMatrix,
    HermitianOperator,
    PureState,
    State,
    _support,
    haar_random_unitary,
    state_matrix,
)
from .metrology import state_density

log = logging.getLogger(__name__)

WEIGHT_DROP = 1e-14       # decomposition components lighter than this are discarded
FD_STEP = 1e-5            # central-difference step of a moment, relative to its block weight
UNITARY_TOL = 1e-9        # largest entry of u u^dag - 1 an ancilla unitary may carry

Partition = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# decompositions and purifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Weighted components whose mixture reconstructs a target state."""

    components: tuple[tuple[float, State], ...]

    def __post_init__(self):
        weights = [p for p, _ in self.components]
        if any(p <= 0.0 for p in weights):
            raise ValueError("decomposition weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {sum(weights)!r}, not 1")

    def mixture(self) -> np.ndarray:
        out = np.zeros((self.components[0][1].dim,) * 2, dtype=complex)
        for p, state in self.components:
            out += p * state_matrix(state)
        return out

    def reconstructs(self, target: State, tol: float = 1e-8) -> bool:
        return bool(np.max(np.abs(self.mixture() - state_matrix(target))) <= tol)

    def __len__(self) -> int:
        return len(self.components)


def _check_partition(partition: Partition, n: int) -> None:
    seen: set[int] = set()
    for block in partition:
        if not block:
            raise ValueError("partition blocks must be nonempty")
        for k in block:
            if k in seen:
                raise ValueError(f"index {k} appears in two partition blocks")
            seen.add(k)
    if seen != set(range(n)):
        raise ValueError(f"partition must cover 0..{n - 1}")


def singleton_partition(n: int) -> Partition:
    return tuple((k,) for k in range(n))


def trivial_partition(n: int) -> Partition:
    return (tuple(range(n)),)


def set_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {0, .., n-1} into nonempty blocks (Bell-number many)."""
    blocks: list[list[int]] = []

    def rec(k: int) -> Iterator[Partition]:
        if k == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(k)
            yield from rec(k + 1)
            b.pop()
        blocks.append([k])
        yield from rec(k + 1)
        blocks.pop()

    return rec(0)


def purify(rho: DensityMatrix, ancilla_dim: int | None = None) -> np.ndarray:
    """Purification matrix m = [V_S sqrt(lambda_S), 0] of rho, d x ancilla_dim.

    m m^dag = rho, and column a of m U^T is the unnormalised component
    vector a of the decomposition that ancilla unitary U induces.  The
    ancilla defaults to the system size and may be enlarged; richer
    decompositions (more components) need a bigger ancilla.
    """
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    if ancilla_dim < rho.rank():
        raise ValueError(f"ancilla dim {ancilla_dim} smaller than rank {rho.rank()}")
    lam, vs = _support(rho)
    m = np.zeros((rho.dim, ancilla_dim), dtype=complex)
    m[:, :len(lam)] = vs * np.sqrt(lam)
    return m


def extract_decomposition(m: np.ndarray, u: np.ndarray, partition: Partition) -> Decomposition:
    """Decomposition of m m^dag induced by the ancilla unitary ``u`` and ``partition``.

    Block b of the partition groups columns of v = m u^T into one component
    of weight p_b, the squared norm of those columns: a pure one for a
    one-index block, else the mixed state with factor v_b / sqrt(p_b).  An
    n x n unitary ``u`` (n the columns of m) keeps v v^dag = m m^dag, so
    the components mix back to the purified state.
    """
    n = m.shape[1]
    _check_partition(partition, n)
    u = np.asarray(u)
    if u.shape != (n, n):
        raise ValueError(f"ancilla unitary must be {n} x {n}, got shape {u.shape}")
    if not np.max(np.abs(u @ u.conj().T - np.eye(n))) <= UNITARY_TOL:
        raise ValueError("ancilla matrix is not unitary")
    v = m @ u.T
    comps: list[tuple[float, State]] = []
    for block in partition:
        sub = v[:, list(block)]
        p = float(np.sum(np.abs(sub) ** 2))
        if p < WEIGHT_DROP:
            continue
        if len(block) == 1:
            comps.append((p, PureState(sub[:, 0] / np.sqrt(p))))
        else:
            comps.append((p, DensityMatrix.from_factor(sub / np.sqrt(p))))
    return Decomposition(components=tuple(comps))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

class RoofFunctional:
    """Functional of a decomposition component that reads only linear moments.

    ``moment_ops(dim)`` returns an ``(x, dim, dim)`` stack of operators X_j
    whose moments Tr(sigma X_j) determine f(sigma); by default the fixed
    stack ``_ops`` a subclass builds from its operators.  ``from_moments(p, mom)``
    receives block weights ``p`` (shape ``(K,)``, each at least
    ``WEIGHT_DROP``) and the unnormalised moments ``mom[k, j] = p_k
    Tr(sigma_k X_j)`` (shape ``(K, x)``, complex) and returns p_k f(sigma_k)
    for every k; ``moment_grad(p, mom)`` returns its derivatives, from which
    the optimizer builds the Riemannian gradient.  The optimizer never forms
    sigma: it takes every start's moments from one Gram stack of the
    purification (see ``optimize_roof``).
    """

    _ops: np.ndarray

    def moment_ops(self, dim: int) -> np.ndarray:
        return self._ops

    def from_moments(self, p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def moment_grad(self, p: np.ndarray, mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of ``from_moments`` in ``p`` (shape ``(K,)``) and in ``mom``.

        The moment derivative is complex, d/dRe + i d/dIm, so a change dM of
        the moments changes the value by Re(conj(grad) dM).
        """
        raise NotImplementedError

    def check_dim(self, dim: int) -> None:
        """Raise ``ValueError`` unless the functional's operators act on ``dim``."""
        op_dim = self.moment_ops(dim).shape[-1]
        if op_dim != dim:
            raise ValueError(f"the functional's operators act on dimension {op_dim}, "
                             f"the state on dimension {dim}")

    def on_state(self, state: State) -> float:
        """f(state): the one-block objective of its support purification V_S sqrt(lambda_S)."""
        lam, vs = _support(state)
        r = len(lam)
        gram = _gram_stack(vs * np.sqrt(lam), self.moment_ops(state.dim))
        identity = np.eye(r, dtype=complex)[None, None]
        return float(_objective(gram, identity, _block_tensor([trivial_partition(r)], r),
                                self)[0, 0])


class VarianceSum(RoofFunctional):
    """sum_n Var(A_n) on a component, from the moments of [A_1.., A_1^2..]."""

    def __init__(self, ops: Sequence[HermitianOperator]):
        if not ops:
            raise ValueError("need at least one operator")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise ValueError("operators act on different dimensions")
        mats = np.array([op.mat for op in ops])
        self._ops = np.concatenate([mats, mats @ mats])

    def from_moments(self, p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        # p sum_n Var(A_n) = sum_n (p<A_n^2> - (p<A_n>)^2 / p)
        half = mom.shape[1] // 2
        means = mom[:, :half].real
        total = np.sum(mom[:, half:].real - means * means / p[:, None], axis=1)
        return np.maximum(total, 0.0)

    def moment_grad(self, p: np.ndarray, mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        half = mom.shape[1] // 2
        ratio = mom[:, :half].real / p[:, None]
        grad = np.ones(mom.shape, dtype=complex)
        grad[:, :half] = -2.0 * ratio
        return np.sum(ratio * ratio, axis=1), grad


class RobertsonSchrodingerBound(RoofFunctional):
    """The strengthened uncertainty bound L on a component.

    L = sqrt( |<{A,B}> - 2<A><B>|^2 + |<i[A,B]>|^2 ), computed from the
    moments of [A, B, AB]: the covariance term is twice the real part of
    <AB> minus 2<A><B> and the commutator mean is minus twice its imaginary
    part.
    """

    def __init__(self, a: HermitianOperator, b: HermitianOperator):
        if a.dim != b.dim:
            raise ValueError("operators act on different dimensions")
        self._ops = np.array([a.mat, b.mat, a.mat @ b.mat])

    def from_moments(self, p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        ea, eb, eab = mom[:, 0].real, mom[:, 1].real, mom[:, 2]
        return 2.0 * np.hypot(eab.real - ea * eb / p, eab.imag)

    def moment_grad(self, p: np.ndarray, mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # L is not differentiable where both of its terms vanish; there the
        # zero subgradient is returned
        ea, eb, eab = mom[:, 0].real, mom[:, 1].real, mom[:, 2]
        cov, comm = eab.real - ea * eb / p, eab.imag
        norm = np.hypot(cov, comm)
        smooth = norm > 0.0
        dcov = np.divide(2.0 * cov, norm, out=np.zeros_like(norm), where=smooth)
        dcomm = np.divide(2.0 * comm, norm, out=np.zeros_like(norm), where=smooth)
        grad = np.stack([-dcov * eb / p, -dcov * ea / p, dcov + 1j * dcomm], axis=1)
        return dcov * ea * eb / (p * p), grad


class CallableFunctional(RoofFunctional):
    """Adapter for plain ``state -> float`` callables (slower, fully general).

    Its moments are those of the matrix units |j><i|, which are the entries
    p sigma_ij themselves; each component reaches the callable as a
    ``DensityMatrix``.
    """

    def __init__(self, fn: Callable[[State], float]):
        self.fn = fn

    def moment_ops(self, dim: int) -> np.ndarray:
        return np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim).swapaxes(-1, -2)

    def check_dim(self, dim: int) -> None:
        pass      # the callable receives states of any dimension

    def from_moments(self, p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        # moments of a light block carry round-off of order 1e-16 / p, so the
        # negative eigenvalues it leaves are dropped; one stacked eigensolve
        # gives every component's eigensystem
        dim = math.isqrt(mom.shape[1])
        p_sigma = mom.reshape(-1, dim, dim)
        lam, vecs = np.linalg.eigh(0.5 * (p_sigma + p_sigma.conj().swapaxes(-1, -2)))
        lam = np.maximum(lam[:, ::-1], 0.0)
        lam /= np.sum(lam, axis=1, keepdims=True)
        lam[lam < EIG_FLOOR] = 0.0
        vecs = vecs[..., ::-1]
        mats = (vecs * lam[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        return np.array([pk * self.fn(DensityMatrix._assemble(mat, vals, basis))
                         for pk, mat, vals, basis in zip(p, mats, lam, vecs)])

    def moment_grad(self, p: np.ndarray, mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the value is p f(sigma) with sigma the Hermitian part of the moments
        # over its trace, so d/dp is f, and the d^2 Hermitian directions
        # E_aa, E_ab + E_ba and i(E_ab - E_ba) (a < b) give a Hermitian
        # moment derivative W: 2 Re W_ab and 2 Im W_ab are the last two slopes
        dim = math.isqrt(mom.shape[1])
        a, b = np.triu_indices(dim, 1)
        units = np.eye(dim * dim)                    # row i dim + j is the matrix unit E_ij
        upper, lower = units[a * dim + b], units[b * dim + a]
        directions = np.concatenate([units[np.arange(dim) * (dim + 1)], upper + lower,
                                     1j * (upper - lower)])
        slopes = self._slopes(p, mom, directions)
        diagonal, real, imag = np.split(slopes, [dim, dim + len(a)])
        grad = np.zeros((len(p), dim, dim), dtype=complex)
        grad[:, np.arange(dim), np.arange(dim)] = diagonal.T
        grad[:, a, b] = 0.5 * (real + 1j * imag).T
        grad[:, b, a] = grad[:, a, b].conj()
        return self.from_moments(p, mom) / p, grad.reshape(len(p), -1)

    def _slopes(self, p: np.ndarray, mom: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Derivatives of ``from_moments`` along moment directions ``directions[r]``.

        Central differences at steps h and h/2, h proportional to each block
        weight, combined as 2 D(h/2) - D(h): that cancels the error linear in
        h which a rank-deficient component leaves, whose perturbed spectrum
        is clipped at zero.  Returns ``(r, K)``.
        """
        step = FD_STEP * np.array([1.0, -1.0, 0.5, -0.5])[:, None] * p     # (4, K)
        moved = mom + directions[:, None, None, :] * step[..., None]
        values = self.from_moments(np.broadcast_to(p, moved.shape[:-1]).ravel(),
                                   moved.reshape(-1, mom.shape[1]))
        values = values.reshape(len(directions), 4, len(p))
        coarse = (values[:, 0] - values[:, 1]) / (2.0 * step[0])
        fine = (values[:, 2] - values[:, 3]) / step[0]
        return 2.0 * fine - coarse

    def on_state(self, state: State) -> float:
        return float(self.fn(state))


def _as_functional(functional) -> RoofFunctional:
    if isinstance(functional, RoofFunctional):
        return functional
    if callable(functional):
        return CallableFunctional(functional)
    raise TypeError("functional must be a RoofFunctional or a callable")


# ---------------------------------------------------------------------------
# quasi-Newton ascent over ancilla unitaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start roof ascent settings; equal seeds reproduce results.

    ``restarts`` starts per searched partition, an iteration budget of
    ``local_steps`` per start, and ``tolerance`` on the Frobenius norm of
    the Riemannian gradient at which a start stops.
    """

    seed: int = 7
    restarts: int = 8
    local_steps: int = 600
    tolerance: float = 1e-5

    def __post_init__(self):
        for name in ("restarts", "local_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1 or self.local_steps < 0:
            raise ValueError("restarts must be >= 1 and local_steps >= 0")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")


@dataclass(frozen=True)
class RoofResult:
    value: float
    decomposition: Decomposition
    converged: bool
    evaluations: int


def _gram_stack(m: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """G = m^dag [I, X_1, .., X_x] m as one n x (x+1)n matrix.

    Column a of v = m U^T is component vector a of unitary U, so its moments
    v_a^dag X_j v_a = (conj(U) G_j U^T)_aa with G_j = m^dag X_j m.
    """
    mh = m.conj().T
    grams = np.concatenate([(mh @ m)[None], mh @ ops @ m])
    return grams.transpose(1, 0, 2).reshape(m.shape[1], -1)


def _block_tensor(partitions: Sequence[Partition], n: int) -> np.ndarray:
    """0/1 tensor summing each climb's ancilla rows into its blocks.

    Entry [i, b, a] is 1 when ancilla index a lies in block b of climb i's
    partition.  The block axis is as wide as the largest block count in the
    stack; a climb with fewer blocks leaves its last rows zero (padded
    blocks, weight exactly 0).
    """
    width = max(len(part) for part in partitions)
    s = np.zeros((len(partitions), width, n))
    for i, part in enumerate(partitions):
        for b, block in enumerate(part):
            s[i, b, list(block)] = 1.0
    return s


def _block_terms(mom: np.ndarray, functional: RoofFunctional) -> np.ndarray:
    """p f(component) of every block from its moments ``mom[..., j]`` (j = 0 the weight).

    Blocks lighter than ``WEIGHT_DROP`` (padded ones included) give 0.
    """
    p = mom[..., 0].real
    keep = p >= WEIGHT_DROP
    terms = np.zeros(p.shape)
    terms[keep] = functional.from_moments(p[keep], mom[..., 1:][keep])
    return terms


def _objective(gram: np.ndarray, us: np.ndarray, blocks: np.ndarray,
               functional: RoofFunctional, gradient: bool = False):
    """sum_l p_l f(component_l) for every unitary ``us[i, k]`` of a ``(C, K, n, n)`` stack.

    Climb i's K unitaries share its partition, ``blocks[i]`` (see
    ``_block_tensor``).  Two GEMMs give the full Q_j = conj(U) G_j U^T of
    every unitary, whose diagonals are the row moments.  Returns the
    ``(C, K)`` objectives; with ``gradient``, also the Riemannian gradients
    (Hermitian, ``(C, K, n, n)``) and the Q stack ``(C, K, n, x+1, n)``.

    The gradient: U <- exp(i eps H) U moves Q_j by i eps [Q_j, H^T], so with
    c_aj the moment derivative (``moment_grad``) of row a's block and
    Y = sum_j (conj(c_j) Q_j - Q_j conj(c_j)) (c_j diagonal), the objective
    moves by eps Re Tr(i Y H^T) = eps Tr(Gamma H) with Gamma the Hermitian
    part of conj(i Y).
    """
    c, k, n = us.shape[:3]
    big = gram.shape[1] // n
    w = (us.conj().reshape(-1, n) @ gram).reshape(c * k, n * big, n)
    q = (w @ us.reshape(c * k, n, n).swapaxes(-1, -2)).reshape(c, k, n, big, n)
    mom = blocks[:, None] @ np.diagonal(q, axis1=2, axis2=4).swapaxes(-1, -2)   # (C, K, w, x+1)
    terms = _block_terms(mom, functional)
    values = terms.sum(axis=-1)
    if not gradient:
        return values
    p = mom[..., 0].real
    keep = p >= WEIGHT_DROP
    coef = np.zeros(mom.shape, dtype=complex)
    coef[..., 0][keep], coef[..., 1:][keep] = functional.moment_grad(p[keep], mom[..., 1:][keep])
    row_coef = (blocks.swapaxes(-1, -2)[:, None] @ coef).conj()      # (C, K, n, x+1)
    y = (row_coef[..., None, :] @ q)[..., 0, :] - np.einsum("ikajb,ikbj->ikab", q, row_coef)
    return values, 0.5j * (y.swapaxes(-1, -2) - y.conj()), q


def _line_coefficients(q: np.ndarray, vecs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Coefficients of every block moment along U(mu) = exp(i mu D) U.

    With D = V diag(lam) V^dag, P_j = V^T Q_j conj(V) and S_b = V^dag
    diag(1_b) V, block b's moment j is M_bj(mu) = sum_kl S_b[k, l] P_j[k, l]
    e^{i mu (lam_l - lam_k)}.  ``q`` is ``(C, n, x+1, n)`` at U and ``vecs``
    the ``(C, n, n)`` eigenvectors V; returns the ``(C, w, x+1, n^2)``
    products S_b[k, l] P_j[k, l].
    """
    c, n, big = q.shape[:3]
    p = (vecs.swapaxes(-1, -2) @ q.reshape(c, n, big * n)).reshape(c, n * big, n) @ vecs.conj()
    s = vecs.conj().swapaxes(-1, -2)[:, None] @ (blocks[..., None] * vecs[:, None])
    coef = s[:, :, None] * p.reshape(c, n, big, n).transpose(0, 2, 1, 3)[:, None]
    return coef.reshape(c, blocks.shape[1], big, n * n)


def _line_values(coef: np.ndarray, lam: np.ndarray, mus: np.ndarray,
                 functional: RoofFunctional) -> np.ndarray:
    """Objective at U(mu) for every step ``mus[i, t]`` of a ``(C, T)`` grid.

    ``coef`` comes from ``_line_coefficients`` and ``lam`` is the ``(C, n)``
    spectrum of the direction; one product with the phases e^{i mu (lam_l -
    lam_k)} gives every block moment, and no unitary is formed.  Returns
    ``(C, T)``.
    """
    c, width, big, nn = coef.shape
    turn = np.exp(1j * lam[:, :, None] * mus[:, None, :])              # (C, n, T)
    phase = (turn.conj()[:, :, None] * turn[:, None]).reshape(c, nn, -1)
    mom = coef.reshape(c, width * big, nn) @ phase
    mom = mom.reshape(c, width, big, -1).transpose(0, 3, 1, 2)       # (C, T, w, x+1)
    return _block_terms(mom, functional).sum(axis=-1)


BFGS_MEMORY = 6           # (step, gradient change) pairs kept per start
# rotation angles mu max|lam| tried along each direction: pi / 4 down to pi / 4^12
LINE_ANGLES = np.pi / 4.0 ** np.arange(12, 0, -1)
TOLERANCE, NO_ASCENT, BUDGET = range(3)          # why a start stopped
STOP_REASONS = ("tolerance", "no_ascent", "budget")


def _lbfgs_direction(grad: np.ndarray, steps: np.ndarray, changes: np.ndarray,
                     count: np.ndarray) -> np.ndarray:
    """Limited-memory BFGS ascent directions of a stack of starts.

    ``grad`` is ``(C, k)`` (Hermitian matrices as real vectors, whose dot
    product is Re Tr(A B)); ``steps`` and ``changes`` are ``(C, m, k)``, the
    newest pair first, of which the first ``count[i]`` are valid for start
    i.  A change is g_old - g_new, the gradient change of the negated
    objective, so every stored pair has positive curvature.
    """
    valid = np.arange(steps.shape[1]) < count[:, None]
    inv = np.divide(1.0, np.einsum("imk,imk->im", steps, changes),
                    out=np.zeros(valid.shape), where=valid)
    r = grad.copy()
    alpha = np.zeros(valid.shape)
    for j in range(int(count.max(initial=0))):
        alpha[:, j] = inv[:, j] * np.einsum("ik,ik->i", steps[:, j], r)
        r -= alpha[:, j, None] * changes[:, j]
    yy = np.einsum("ik,ik->i", changes[:, 0], changes[:, 0])
    r *= np.divide(1.0, inv[:, 0] * yy, out=np.ones(len(r)), where=valid[:, 0])[:, None]
    for j in reversed(range(int(count.max(initial=0)))):
        beta = inv[:, j] * np.einsum("ik,ik->i", changes[:, j], r)
        r += (alpha[:, j] - beta)[:, None] * steps[:, j]
    return r


def _ascend(gram: np.ndarray, partitions: Sequence[Partition], us: np.ndarray,
            functional: RoofFunctional, sign: float,
            cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Quasi-Newton ascents of ``sign`` times the objective, all starts in one stack.

    Start i searches ``partitions[i]`` from ``us[i]``, which receives its
    final unitary.  Each iteration takes, for every live start, a limited-
    memory BFGS direction D in the Hermitian Lie algebra (the Riemannian
    gradient when its memory is empty), scores the geodesic exp(i mu D) U
    on the angle grid ``LINE_ANGLES`` through the moments' trigonometric
    polynomials (``_line_values``), takes the vertex of the parabola
    through the best grid point and its neighbours where the polynomials
    score it higher, and forms and evaluates only the chosen unitary, with
    its gradient.  A step that does not ascend
    clears the memory, or, from the gradient direction, stops the start.
    A start also stops once its gradient norm falls below ``cfg.tolerance``
    or after ``cfg.local_steps`` iterations.  Starts never read each other's
    state, and a stopped start leaves the stack.  Returns the signed
    objectives of the final unitaries, why each start stopped (``TOLERANCE``,
    ``NO_ASCENT`` or ``BUDGET``) and the number of iterations.
    """
    c, n = len(us), us.shape[-1]
    live = np.arange(c)
    blocks = _block_tensor(partitions, n)
    u = us.copy()
    vals, grad, q = _objective(gram, u[:, None], blocks, functional, gradient=True)
    vals, grad, q = sign * vals[:, 0], sign * grad[:, 0], q[:, 0]
    steps = np.zeros((c, BFGS_MEMORY, 2 * n * n))
    changes = np.zeros_like(steps)
    count = np.zeros(c, dtype=int)
    failed = np.zeros(c, dtype=bool)
    final = np.empty(c)
    reason = np.full(c, BUDGET)
    iterations = 0
    for it in range(cfg.local_steps + 1):
        g = grad.view(float).reshape(len(live), -1)
        small = np.einsum("ik,ik->i", g, g) < cfg.tolerance ** 2
        stop = small | failed
        if np.any(stop):
            reason[live[stop]] = np.where(small[stop], TOLERANCE, NO_ASCENT)
            us[live[stop]], final[live[stop]] = u[stop], vals[stop]
            go = ~stop
            live, u, vals, grad, q, g = live[go], u[go], vals[go], grad[go], q[go], g[go]
            blocks, steps, changes, count = blocks[go], steps[go], changes[go], count[go]
            if not len(live):
                return final, reason, iterations
        if it == cfg.local_steps:
            break
        iterations += len(live)
        d = _lbfgs_direction(g, steps, changes, count)
        # a direction that does not ascend to first order falls back to the gradient
        uphill = np.einsum("ik,ik->i", d, g) > 0.0
        d = np.where(uphill[:, None], d, g)
        count = np.where(uphill, count, 0)
        steepest = count == 0
        lam, vecs = np.linalg.eigh(d.view(complex).reshape(-1, n, n))
        coef = _line_coefficients(q, vecs, blocks)
        mus = np.zeros((len(live), len(LINE_ANGLES) + 1))
        mus[:, 1:] = LINE_ANGLES / np.max(np.abs(lam), axis=1)[:, None]
        line = np.empty(mus.shape)
        line[:, 0] = vals
        line[:, 1:] = sign * _line_values(coef, lam, mus[:, 1:], functional)
        best = np.argmax(line, axis=1)
        # vertex of the parabola through the best grid point and its neighbours
        near = np.clip(best[:, None] + np.arange(-1, 2), 0, len(LINE_ANGLES))
        (x0, x1, x2), (y0, y1, y2) = (np.take_along_axis(grid, near, axis=1).T
                                      for grid in (mus, line))
        num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
        den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        inner = (best > 0) & (best < len(LINE_ANGLES)) & (den > 0.0)
        vertex = x1 - 0.5 * np.divide(num, den, out=np.zeros(len(live)), where=inner)
        at_vertex = sign * _line_values(coef, lam, vertex[:, None], functional)[:, 0]
        mu = np.where(at_vertex > y1, vertex, x1)
        rotation = (vecs * np.exp(1j * mu[:, None] * lam)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        new_u = rotation @ u
        new_vals, new_grad, new_q = _objective(gram, new_u[:, None], blocks, functional,
                                               gradient=True)
        new_vals, new_grad = sign * new_vals[:, 0], sign * new_grad[:, 0]
        accept = (best > 0) & (new_vals > vals)
        new_g = new_grad.view(float).reshape(len(live), -1)
        step, change = mu[:, None] * d, g - new_g
        curved = accept & (np.einsum("ik,ik->i", step, change) > 0.0)
        steps[curved] = np.concatenate([step[curved, None], steps[curved, :-1]], axis=1)
        changes[curved] = np.concatenate([change[curved, None], changes[curved, :-1]], axis=1)
        count = np.where(curved, np.minimum(count + 1, BFGS_MEMORY), np.where(accept, count, 0))
        failed = ~accept & steepest
        u = np.where(accept[:, None, None], new_u, u)
        vals = np.where(accept, new_vals, vals)
        grad = np.where(accept[:, None, None], new_grad, grad)
        q = np.where(accept[:, None, None, None], new_q[:, 0], q)
    us[live], final[live] = u, vals
    return final, reason, iterations


def optimize_roof(rho: State,
                  functional,
                  direction: str,
                  partitions: Iterable[Partition] | None = None,
                  cfg: OptimizerConfig | None = None,
                  ancilla_dim: int | None = None) -> RoofResult:
    """Best weighted component average of ``functional`` over decompositions.

    ``direction`` is ``"min"`` or ``"max"``.  For each partition the search
    runs ``cfg.restarts`` ascents over ancilla unitaries: restart 0 starts
    from the identity (so the eigendecomposition and its groupings are
    always among the candidates), the others start Haar random; restart r
    of partition p draws its start from ``default_rng([seed, p, r])``.
    Every start of every partition advances in one stack (``_ascend``): a
    limited-memory BFGS direction in the Hermitian Lie algebra, built from
    the analytic Riemannian gradient, and an exact line search along the
    geodesic exp(i mu D) U.  A start stops on the gradient tolerance
    ``cfg.tolerance``, when a step along the gradient finds no ascent, or
    after ``cfg.local_steps`` iterations, and then leaves the stack.

    No component is formed: the Gram stack G = m^dag [I, X_1, ..] m of the
    purification matrix m and the functional's ``moment_ops`` is built
    once, and each iteration takes every start's moments and gradient from
    one GEMM with G (``_objective``) and scores its line-search grid from
    the same moments.  ``evaluations`` counts one per start plus one per
    iteration.  ``converged`` says that the winning start stopped on the
    tolerance or on no ascent, not on the budget.  A one-block partition
    yields rho itself, whatever the unitary, so it gets a single start, at
    the identity; its Riemannian gradient vanishes, so that start stops on
    the tolerance before any iteration.  The winner is the best start, the
    first of equals.  A functional whose operators act on another
    dimension than rho raises ``ValueError``.  Each call logs one debug
    line with its starts, iterations, evaluations, stop reasons and wall
    time.

    The returned value is that of the witness unitary, evaluated after its
    last step, so it is exact for the witness decomposition and always on
    the certified side of the true roof.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    started = time.perf_counter()
    cfg = cfg or OptimizerConfig()
    functional = _as_functional(functional)
    rho = state_density(rho)
    functional.check_dim(rho.dim)
    if rho.rank() == 1:
        # every decomposition of a pure state is the state itself
        psi = PureState(_support(rho)[1][:, 0])
        return RoofResult(value=functional.on_state(psi),
                          decomposition=Decomposition(((1.0, psi),)),
                          converged=True, evaluations=1)
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    m = purify(rho, ancilla_dim)
    gram = _gram_stack(m, functional.moment_ops(rho.dim))
    if partitions is None:
        partitions = [singleton_partition(ancilla_dim)]
    partitions = [tuple(tuple(b) for b in part) for part in partitions]
    if not partitions:
        raise ValueError("need at least one partition")
    for part in partitions:
        _check_partition(part, ancilla_dim)

    sign = 1.0 if direction == "max" else -1.0
    climbs = [(p_idx, r_idx) for p_idx, part in enumerate(partitions)
              for r_idx in range(cfg.restarts if len(part) > 1 else 1)]
    us = np.empty((len(climbs), ancilla_dim, ancilla_dim), dtype=complex)
    for i, (p_idx, r_idx) in enumerate(climbs):
        us[i] = (np.eye(ancilla_dim) if r_idx == 0 else
                 haar_random_unitary(ancilla_dim, np.random.default_rng([cfg.seed, p_idx, r_idx])))
    vals, reason, iterations = _ascend(
        gram, [partitions[p_idx] for p_idx, _ in climbs], us, functional, sign, cfg)
    evaluations = len(climbs) + iterations
    best = int(np.argmax(vals))
    log.debug("optimize_roof: %d starts, %d iterations, %d evaluations, stopped on %s, %.4f s",
              len(climbs), iterations, evaluations,
              ", ".join(f"{name} {np.sum(reason == code)}"
                        for code, name in enumerate(STOP_REASONS)),
              time.perf_counter() - started)
    return RoofResult(value=float(sign * vals[best]),
                      decomposition=extract_decomposition(m, us[best], partitions[climbs[best][0]]),
                      converged=bool(reason[best] != BUDGET),
                      evaluations=evaluations)


def decomposition_average(dec: Decomposition, functional) -> float:
    """sum_k p_k f(component_k); re-evaluates a witness decomposition."""
    functional = _as_functional(functional)
    return float(sum(p * functional.on_state(state) for p, state in dec.components))


# ---------------------------------------------------------------------------
# named roofs
# ---------------------------------------------------------------------------

def convex_roof_variance(rho: State, b: HermitianOperator,
                         cfg: OptimizerConfig | None = None,
                         ancilla_dim: int | None = None) -> RoofResult:
    """Minimized average variance of B over pure-state decompositions.

    Converges (from above) to one quarter of the quantum Fisher information.
    """
    return optimize_roof(rho, VarianceSum([b]), "min", cfg=cfg, ancilla_dim=ancilla_dim)


def roof_sum_I(rho: State, ops: Sequence[HermitianOperator],
               cfg: OptimizerConfig | None = None,
               ancilla_dim: int | None = None) -> RoofResult:
    """Convex roof of a sum of variances over pure-state decompositions."""
    return optimize_roof(rho, VarianceSum(ops), "min", cfg=cfg, ancilla_dim=ancilla_dim)


def roof_sum_R(rho: State, ops: Sequence[HermitianOperator],
               cfg: OptimizerConfig | None = None,
               ancilla_dim: int | None = None) -> RoofResult:
    """Concave roof of a sum of variances over pure-state decompositions."""
    return optimize_roof(rho, VarianceSum(ops), "max", cfg=cfg, ancilla_dim=ancilla_dim)


def default_mixed_partitions(ancilla_dim: int) -> list[Partition]:
    """Partition list for mixed-component roofs.

    Up to three ancilla indices this is the full set-partition lattice; the
    Bell number explodes beyond that, so larger ancillas fall back to the
    pure-state partition plus the trivial one.
    """
    if ancilla_dim <= 3:
        return list(set_partitions(ancilla_dim))
    return [singleton_partition(ancilla_dim), trivial_partition(ancilla_dim)]


def concave_roof_L(rho: State, a: HermitianOperator, b: HermitianOperator,
                   cfg: OptimizerConfig | None = None,
                   partitions: Iterable[Partition] | None = None,
                   ancilla_dim: int | None = None) -> RoofResult:
    """Maximized average Robertson-Schrodinger bound over mixed-state decompositions.

    Single-qubit inputs additionally evaluate the closed-form decomposition
    along the Bloch z line, which is the known maximizer there.
    """
    rho = state_density(rho)
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    if partitions is None:
        partitions = default_mixed_partitions(ancilla_dim)
    functional = RobertsonSchrodingerBound(a, b)
    result = optimize_roof(rho, functional, "max", partitions=partitions,
                           cfg=cfg, ancilla_dim=ancilla_dim)
    if rho.dim == 2:
        witness = qubit_z_line_decomposition(rho)
        wv = decomposition_average(witness, functional)
        if wv > result.value:
            result = RoofResult(value=wv, decomposition=witness,
                                converged=result.converged,
                                evaluations=result.evaluations + len(witness))
    return result


# ---------------------------------------------------------------------------
# closed-form constructions
# ---------------------------------------------------------------------------

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def qubit_z_line_decomposition(rho: DensityMatrix) -> Decomposition:
    """Two-point decomposition of a qubit along the Bloch z direction.

    Both components sit where the vertical line through the Bloch vector
    pierces the sphere, so they share every x/y moment with the mixture;
    this makes the decomposition saturate the concave-roof uncertainty bound
    for operator pairs in the xy plane.
    """
    if rho.dim != 2:
        raise ValueError("z-line decomposition is defined for qubits only")
    bloch = np.array([np.real(np.trace(rho.mat @ s)) for s in _PAULIS])
    bx, by, bz = bloch
    planar_sq = bx * bx + by * by
    t_sq = 1.0 - planar_sq
    if t_sq < 1e-24:
        # Bloch vector on the equator boundary: rho is already pure.
        return Decomposition(((1.0, _pure_from_bloch(bx, by, 0.0)),))
    t = np.sqrt(t_sq)
    p_up = 0.5 * (1.0 + bz / t)
    p_dn = 0.5 * (1.0 - bz / t)
    comps: list[tuple[float, State]] = []
    if p_up > WEIGHT_DROP:
        comps.append((p_up, _pure_from_bloch(bx, by, t)))
    if p_dn > WEIGHT_DROP:
        comps.append((p_dn, _pure_from_bloch(bx, by, -t)))
    total = sum(p for p, _ in comps)
    comps = [(p / total, s) for p, s in comps]
    return Decomposition(tuple(comps))


def _pure_from_bloch(bx: float, by: float, bz: float) -> PureState:
    mat = 0.5 * (np.eye(2, dtype=complex) + bx * _PAULIS[0] + by * _PAULIS[1] + bz * _PAULIS[2])
    vals, vecs = np.linalg.eigh(mat)
    return PureState(vecs[:, int(np.argmax(vals))])


def eigen_partition_bound_K(rho: State, a: HermitianOperator,
                            b: HermitianOperator) -> float:
    """Best uncertainty bound over eigenvector groupings of a qutrit.

    Candidates: the full eigendecomposition average, the three mixed
    decompositions that keep one eigenvector pure and merge the other two,
    and the trivial decomposition (the plain Robertson-Schrodinger bound).
    They are the roof objective at the identity unitary over all five set
    partitions, which is where restart 0 of ``concave_roof_L`` starts, so
    the roof is never below K.  Degenerate spectra use the eigenbasis
    exactly as the solver returns it, which keeps runs reproducible at the
    cost of possible suboptimality.  A ``PureState`` is its own only
    decomposition, so its K is its L.
    """
    rho = state_density(rho)
    if rho.dim != 3:
        raise ValueError("the eigenvector-partition bound is defined for qutrits")
    functional = RobertsonSchrodingerBound(a, b)
    functional.check_dim(3)
    partitions = list(set_partitions(3))
    identities = np.broadcast_to(np.eye(3, dtype=complex), (len(partitions), 1, 3, 3))
    values = _objective(_gram_stack(purify(rho), functional.moment_ops(3)), identities,
                        _block_tensor(partitions, 3), functional)
    return float(np.max(values))
