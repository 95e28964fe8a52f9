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
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    PureState,
    State,
    _ginibre,
    _haar_from_ginibre,
    _support,
    state_density,
    state_matrix,
)

log = logging.getLogger(__name__)

WEIGHT_DROP = 1e-14       # decomposition components lighter than this are discarded
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
        if not all(0.0 < p < np.inf for p in weights):
            raise ValueError(f"decomposition weights must be positive and finite, got {weights!r}")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {sum(weights)!r}, not 1")
        if len({state.dim for _, state in self.components}) > 1:
            raise DimensionMismatchError("decomposition components act on different dimensions")

    def mixture(self) -> np.ndarray:
        out = np.zeros((self.components[0][1].dim,) * 2, dtype=complex)
        for p, state in self.components:
            out += p * state_matrix(state)
        return out

    def reconstructs(self, target: State, tol: float = 1e-8) -> bool:
        dim = self.components[0][1].dim
        if target.dim != dim:
            raise DimensionMismatchError(f"the components act on dimension {dim}, "
                                         f"the target on dimension {target.dim}")
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

    ``ops`` is the ``(x, d, d)`` stack of operators X_j whose moments
    Tr(sigma X_j) determine f(sigma); each subclass builds it from its
    operators.  ``from_moments(p, mom)`` receives block weights ``p``
    (any shape ``(...)``, each positive) and the unnormalised moments
    ``mom[..., j] = p Tr(sigma X_j)`` (shape ``(..., x)``, complex) and
    returns p f(sigma) for every block; ``moment_grad(p, mom)`` returns its
    derivatives, from which the optimizer builds the Riemannian gradient.
    The optimizer never forms sigma: it takes every start's moments from
    one Gram stack of the purification (see ``optimize_roof``).
    """

    ops: np.ndarray

    def from_moments(self, p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def moment_grad(self, p: np.ndarray, mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of ``from_moments`` in ``p`` (shape ``(...)``) and in ``mom``.

        The moment derivative is complex, d/dRe + i d/dIm, so a change dM of
        the moments changes the value by Re(conj(grad) dM).
        """
        raise NotImplementedError

    def check_dim(self, dim: int) -> None:
        """Raise ``DimensionMismatchError`` unless the functional's operators act on ``dim``."""
        op_dim = self.ops.shape[-1]
        if op_dim != dim:
            raise DimensionMismatchError(f"the functional's operators act on dimension {op_dim}, "
                                         f"the state on dimension {dim}")

    def on_state(self, state: State) -> float:
        """f(state): the one-block objective of its support purification V_S sqrt(lambda_S)."""
        self.check_dim(state.dim)
        lam, vs = _support(state)
        r = len(lam)
        gram = _gram_stack(vs * np.sqrt(lam), self.ops)
        identity = np.eye(r, dtype=complex)[None]
        return float(_objective(gram, identity, _block_tensor([trivial_partition(r)], r),
                                self)[0])


class VarianceSum(RoofFunctional):
    """sum_n Var(A_n) on a component, from the moments of [A_1.., A_1^2..]."""

    def __init__(self, ops: Sequence[HermitianOperator]):
        if not ops:
            raise ValueError("need at least one operator")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise DimensionMismatchError("operators act on different dimensions")
        mats = np.array([op.mat for op in ops])
        self.ops = np.concatenate([mats, mats @ mats])

    def from_moments(self, p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        # p sum_n Var(A_n) = sum_n (p<A_n^2> - (p<A_n>)^2 / p)
        half = mom.shape[-1] // 2
        means = mom[..., :half].real
        total = np.sum(mom[..., half:].real - means * means / p[..., None], axis=-1)
        return np.maximum(total, 0.0)

    def moment_grad(self, p: np.ndarray, mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        half = mom.shape[-1] // 2
        ratio = mom[..., :half].real / p[..., None]
        grad = np.ones(mom.shape, dtype=complex)
        grad[..., :half] = -2.0 * ratio
        return np.sum(ratio * ratio, axis=-1), grad


class RobertsonSchrodingerBound(RoofFunctional):
    """The strengthened uncertainty bound L on a component.

    L = sqrt( |<{A,B}> - 2<A><B>|^2 + |<i[A,B]>|^2 ), computed from the
    moments of [A, B, AB]: the covariance term is twice the real part of
    <AB> minus 2<A><B> and the commutator mean is minus twice its imaginary
    part.
    """

    def __init__(self, a: HermitianOperator, b: HermitianOperator):
        if a.dim != b.dim:
            raise DimensionMismatchError("operators act on different dimensions")
        self.ops = np.array([a.mat, b.mat, a.mat @ b.mat])

    def from_moments(self, p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        return 2.0 * np.abs(self._centred(p, mom))

    def moment_grad(self, p: np.ndarray, mom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # with z = p<AB> - p<A> p<B> / p the value is 2|z| and its derivative
        # in p<AB> is 2z/|z|; L is not differentiable where z = 0, and there
        # the zero subgradient is returned
        ea, eb = mom[..., 0].real, mom[..., 1].real
        z = self._centred(p, mom)
        norm = np.abs(z)
        dz = 2.0 * z / np.where(norm > 0.0, norm, np.inf)
        dcov = dz.real
        grad = np.empty(mom.shape, dtype=complex)
        grad[..., 0] = -dcov * eb / p
        grad[..., 1] = -dcov * ea / p
        grad[..., 2] = dz
        return dcov * ea * eb / (p * p), grad

    @staticmethod
    def _centred(p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        """z = p(<AB> - <A><B>): 2 Re z is the covariance term and -2 Im z the commutator mean."""
        return mom[..., 2] - mom[..., 0].real * mom[..., 1].real / p


def _require_functional(functional) -> None:
    if not isinstance(functional, RoofFunctional):
        raise TypeError(f"functional must be a RoofFunctional, got {type(functional).__name__}")


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


def _block_terms(mom: np.ndarray, functional: RoofFunctional, gradient: bool = False):
    """p f(component) of every block from its moments ``mom[..., j]`` (j = 0 the weight).

    Blocks lighter than ``WEIGHT_DROP`` (padded ones included) give 0: the
    functional scores them at weight 1, so that it never divides by a
    vanishing weight, and the score is dropped.  With ``gradient``, also
    returns the derivatives in every moment, the weight included (shape of
    ``mom``, 0 on the light blocks).
    """
    p = mom[..., 0].real
    keep = p >= WEIGHT_DROP
    p = np.where(keep, p, 1.0)
    terms = np.where(keep, functional.from_moments(p, mom[..., 1:]), 0.0)
    if not gradient:
        return terms
    dp, dmom = functional.moment_grad(p, mom[..., 1:])
    return terms, keep[..., None] * np.concatenate([dp[..., None], dmom], axis=-1)


def _objective(gram: np.ndarray, us: np.ndarray, blocks: np.ndarray,
               functional: RoofFunctional, gradient: bool = False):
    """sum_l p_l f(component_l) for every unitary ``us[i]`` of a ``(C, n, n)`` stack.

    Unitary i groups the ancilla by its partition, ``blocks[i]`` (see
    ``_block_tensor``).  Two GEMMs give the full Q_j = conj(U) G_j U^T of
    every unitary, whose diagonals are the row moments.  Returns the
    ``(C,)`` objectives; with ``gradient``, also the Riemannian gradients
    (Hermitian, ``(C, n, n)``) and the Q stack ``(C, n, x+1, n)``.

    The gradient: U <- exp(i eps H) U moves Q_j by i eps [Q_j, H^T], so with
    c_aj the moment derivative (``moment_grad``) of row a's block and
    Y = sum_j (conj(c_j) Q_j - Q_j conj(c_j)) (c_j diagonal), the objective
    moves by eps Re Tr(i Y H^T) = eps Tr(Gamma H) with Gamma the Hermitian
    part of conj(i Y).
    """
    c, n = us.shape[:2]
    big = gram.shape[1] // n
    w = (us.conj().reshape(-1, n) @ gram).reshape(c, n * big, n)
    q = (w @ us.swapaxes(-1, -2)).reshape(c, n, big, n)
    mom = blocks @ q.diagonal(axis1=1, axis2=3).swapaxes(-1, -2)   # (C, w, x+1)
    if not gradient:
        return _block_terms(mom, functional).sum(axis=-1)
    terms, coef = _block_terms(mom, functional, gradient=True)
    row_coef = (blocks.swapaxes(-1, -2) @ coef).conj()      # (C, n, x+1)
    # Y_ab = sum_j Q_j[a, b] (conj(c_aj) - conj(c_bj))
    y = (q * (row_coef[..., None] - row_coef.swapaxes(-1, -2)[..., None, :, :])).sum(axis=-2)
    return terms.sum(axis=-1), 0.5j * (y.swapaxes(-1, -2) - y.conj()), q


def _line_coefficients(q: np.ndarray, vecs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Coefficients of every block moment along U(mu) = exp(i mu D) U.

    With D = V diag(lam) V^dag, P_j = V^T Q_j conj(V) and S_b = V^dag
    diag(1_b) V, block b's moment j is M_bj(mu) = sum_kl S_b[k, l] P_j[k, l]
    e^{i mu (lam_l - lam_k)}.  ``q`` is ``(C, n, x+1, n)`` at U and ``vecs``
    the ``(C, n, n)`` eigenvectors V; returns the ``(C, n^2, w, x+1)``
    products S_b[k, l] P_j[k, l], indexed by (k, l), b and j.
    """
    c, n, big = q.shape[:3]
    p = (vecs.swapaxes(-1, -2) @ q.reshape(c, n, big * n)).reshape(c, n * big, n) @ vecs.conj()
    s = vecs.conj().swapaxes(-1, -2)[:, None] @ (blocks[..., None] * vecs[:, None])
    coef = (s.transpose(0, 2, 3, 1)[..., None]
            * p.reshape(c, n, big, n).swapaxes(-1, -2)[:, :, :, None])
    return coef.reshape(c, n * n, blocks.shape[1], big)


def _line_values(coef: np.ndarray, lam: np.ndarray, mus: np.ndarray,
                 functional: RoofFunctional) -> np.ndarray:
    """Objective at U(mu) for every step ``mus[i, t]`` of a ``(C, T)`` grid.

    ``coef`` comes from ``_line_coefficients`` and ``lam`` is the ``(C, n)``
    spectrum of the direction; one product with the phases e^{i mu (lam_l -
    lam_k)} gives every block moment, and no unitary is formed.  Returns
    ``(C, T)``.
    """
    c, nn, width, big = coef.shape
    turn = np.exp(1j * mus[:, :, None] * lam[:, None, :])              # (C, T, n)
    phase = (turn.conj()[..., None] * turn[..., None, :]).reshape(c, -1, nn)
    mom = (phase @ coef.reshape(c, nn, width * big)).reshape(c, -1, width, big)   # (C, T, w, x+1)
    return _block_terms(mom, functional).sum(axis=-1)


BFGS_MEMORY = 6           # (step, gradient change) pairs kept per start
# rotation angles mu max|lam| tried along each direction: pi / 4 down to pi / 4^12
LINE_ANGLES = np.pi / 4.0 ** np.arange(12, 0, -1)
TOLERANCE, NO_ASCENT, BUDGET = range(3)          # why a start stopped
STOP_REASONS = ("tolerance", "no_ascent", "budget")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(C, k)`` stacks."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lbfgs_direction(grad: np.ndarray, pairs: np.ndarray, inv: np.ndarray,
                     count: np.ndarray) -> np.ndarray:
    """Limited-memory BFGS ascent directions of a stack of starts.

    ``grad`` is ``(C, k)`` (Hermitian matrices as real vectors, whose dot
    product is Re Tr(A B)).  ``pairs`` is ``(m, 2, C, k)``, newest pair
    first: ``pairs[j]`` holds the step and the gradient change of every
    start's j-th pair, of which the first ``count[i]`` are valid for start
    i.  ``inv`` is ``(m, C)``, 1 / (step . change) of each valid pair and 0
    past them.  A change is g_old - g_new, the gradient change of the
    negated objective, so every stored pair has positive curvature.  The
    two-loop recursion scales by (s . y) / (y . y) of the newest pair.
    """
    r = grad.copy()
    alpha = []
    for j in range(count.max(initial=0)):
        step, change = pairs[j]
        alpha.append(inv[j] * _dots(step, r))
        r -= alpha[j][:, None] * change
    if alpha:
        newest = pairs[0, 1]
        r *= np.divide(1.0, inv[0] * _dots(newest, newest), out=np.ones(len(r)),
                       where=count > 0)[:, None]
    for j in reversed(range(len(alpha))):
        step, change = pairs[j]
        beta = inv[j] * _dots(change, r)
        r += (alpha[j] - beta)[:, None] * step
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
    its gradient.  An accepted step with positive curvature is pushed onto
    the start's memory in place, the oldest pair dropping out.  A step that
    does not ascend clears the memory, or, from the gradient direction,
    stops the start.  A start also stops once its gradient norm falls below
    ``cfg.tolerance`` or after ``cfg.local_steps`` iterations.  Starts never
    read each other's state, and a stopped start leaves the stack.  Returns
    the signed objectives of the final unitaries, why each start stopped
    (``TOLERANCE``, ``NO_ASCENT`` or ``BUDGET``) and the number of
    iterations.
    """
    c, n = len(us), us.shape[-1]
    live = np.arange(c)
    blocks = _block_tensor(partitions, n)
    u = us.copy()
    vals, grad, q = _objective(gram, u, blocks, functional, gradient=True)
    vals, grad = sign * vals, sign * grad
    # every start's memory, newest pair first (see _lbfgs_direction)
    pairs = np.zeros((BFGS_MEMORY, 2, c, 2 * n * n))
    inv = np.zeros((BFGS_MEMORY, c))
    count = np.zeros(c, dtype=int)
    failed = np.zeros(c, dtype=bool)
    final = np.empty(c)
    reason = np.full(c, BUDGET)
    iterations = 0
    top = len(LINE_ANGLES)
    grid = np.concatenate([[0.0], LINE_ANGLES])
    for it in range(cfg.local_steps + 1):
        g = grad.view(float).reshape(len(live), -1)
        small = _dots(g, g) < cfg.tolerance ** 2
        stop = small | failed
        if stop.any():
            done, go = stop.nonzero()[0], (~stop).nonzero()[0]
            reason[live[done]] = np.where(small[done], TOLERANCE, NO_ASCENT)
            us[live[done]], final[live[done]] = u[done], vals[done]
            live, u, vals, grad, q, g = live[go], u[go], vals[go], grad[go], q[go], g[go]
            blocks, pairs, inv, count = blocks[go], pairs[:, :, go], inv[:, go], count[go]
            if not len(live):
                return final, reason, iterations
        if it == cfg.local_steps:
            break
        iterations += len(live)
        d = _lbfgs_direction(g, pairs, inv, count)
        # a direction that does not ascend to first order falls back to the
        # gradient and clears the memory
        uphill = _dots(d, g) > 0.0
        d = np.where(uphill[:, None], d, g)
        count *= uphill
        inv *= uphill
        steepest = count == 0
        lam, vecs = np.linalg.eigh(d.view(complex).reshape(-1, n, n))
        coef = _line_coefficients(q, vecs, blocks)
        mus = grid / np.abs(lam).max(axis=1)[:, None]
        line = np.concatenate(
            [vals[:, None], sign * _line_values(coef, lam, mus[:, 1:], functional)], axis=1)
        best = line.argmax(axis=1)
        # vertex of the parabola through the best grid point and its
        # neighbours, where that point lies inside the grid
        rows = np.arange(len(live))
        near = np.minimum(np.maximum(best, 1), top - 1)[:, None] + (-1, 0, 1)
        (x0, x1, x2), (y0, y1, y2) = mus[rows[:, None], near].T, line[rows[:, None], near].T
        num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
        den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        inner = (best > 0) & (best < top) & (den > 0.0)
        vertex = x1 - 0.5 * np.divide(num, den, out=np.zeros(len(live)), where=inner)
        at_vertex = sign * _line_values(coef, lam, vertex[:, None], functional)[:, 0]
        mu = np.where(inner & (at_vertex > y1), vertex, mus[rows, best])
        rotation = (vecs * np.exp(1j * mu[:, None] * lam)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        new_u = rotation @ u
        new_vals, new_grad, new_q = _objective(gram, new_u, blocks, functional, gradient=True)
        new_vals, new_grad = sign * new_vals, sign * new_grad
        accept = (best > 0) & (new_vals > vals)
        pair = np.array([mu[:, None] * d, g - new_grad.view(float).reshape(len(live), -1)])
        curvature = _dots(*pair)
        curved = accept & (curvature > 0.0)
        push = curved.nonzero()[0]
        if len(push):
            pairs[1:, :, push], inv[1:, push] = pairs[:-1, :, push], inv[:-1, push]
            # not pairs[0, :, push], whose split integer indices put the push axis first
            pairs[0][:, push], inv[0, push] = pair[:, push], 1.0 / curvature[push]
        # a rejected step clears the memory; a pushed pair lengthens it
        count = np.minimum(count + curved, BFGS_MEMORY) * accept
        inv *= accept
        failed = ~accept & steepest
        u = np.where(accept[:, None, None], new_u, u)
        vals = np.where(accept, new_vals, vals)
        grad = np.where(accept[:, None, None], new_grad, grad)
        q = np.where(accept[:, None, None, None], new_q, q)
    us[live], final[live] = u, vals
    return final, reason, iterations


def optimize_roof(rho: State,
                  functional: RoofFunctional,
                  direction: str,
                  partitions: Iterable[Partition] | None = None,
                  cfg: OptimizerConfig | None = None,
                  ancilla_dim: int | None = None) -> RoofResult:
    """Best weighted component average of ``functional`` over decompositions.

    ``direction`` is ``"min"`` or ``"max"``.  For each partition the search
    runs ``cfg.restarts`` ascents over ancilla unitaries: restart 0 starts
    from the identity (so the eigendecomposition and its groupings are
    always among the candidates), the others start Haar random; restart r
    of partition p draws its Ginibre matrix from ``default_rng([seed, p,
    r])``, and one batched QR turns every draw into the unitary that
    ``haar_random_unitary`` gives on that generator.
    Every start of every partition advances in one stack (``_ascend``): a
    limited-memory BFGS direction in the Hermitian Lie algebra, built from
    the analytic Riemannian gradient, and an exact line search along the
    geodesic exp(i mu D) U.  A start stops on the gradient tolerance
    ``cfg.tolerance``, when a step along the gradient finds no ascent, or
    after ``cfg.local_steps`` iterations, and then leaves the stack.

    No component is formed: the Gram stack G = m^dag [I, X_1, ..] m of the
    purification matrix m and the functional's ``ops`` is built
    once, and each iteration takes every start's moments and gradient from
    one GEMM with G (``_objective``) and scores its line-search grid from
    the same moments.  ``evaluations`` counts one per start plus one per
    iteration.  ``converged`` says that the winning start stopped on the
    tolerance or on no ascent, not on the budget.  A one-block partition
    yields rho itself, whatever the unitary, so it gets a single start, at
    the identity; its Riemannian gradient vanishes, so that start stops on
    the tolerance before any iteration.  The winner is the best start, the
    first of equals.  A functional that is not a ``RoofFunctional`` raises
    ``TypeError``, one whose operators act on another dimension than rho
    ``DimensionMismatchError``.  Each call logs one debug
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
    _require_functional(functional)
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
    gram = _gram_stack(m, functional.ops)
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
    us = np.tile(np.eye(ancilla_dim, dtype=complex), (len(climbs), 1, 1))
    haar = [i for i, (_, r_idx) in enumerate(climbs) if r_idx > 0]
    if haar:
        us[haar] = _haar_from_ginibre(np.array([
            _ginibre(ancilla_dim, np.random.default_rng([cfg.seed, *climbs[i]])) for i in haar]))
    vals, reason, iterations = _ascend(
        gram, [partitions[p_idx] for p_idx, _ in climbs], us, functional, sign, cfg)
    evaluations = len(climbs) + iterations
    best = int(np.argmax(vals))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("optimize_roof: %d starts, %d iterations, %d evaluations, stopped on %s, %.4f s",
                  len(climbs), iterations, evaluations,
                  ", ".join(f"{name} {np.sum(reason == code)}"
                            for code, name in enumerate(STOP_REASONS)),
                  time.perf_counter() - started)
    return RoofResult(value=float(sign * vals[best]),
                      decomposition=extract_decomposition(m, us[best], partitions[climbs[best][0]]),
                      converged=bool(reason[best] != BUDGET),
                      evaluations=evaluations)


def decomposition_average(dec: Decomposition, functional: RoofFunctional) -> float:
    """sum_k p_k f(component_k); re-evaluates a witness decomposition."""
    _require_functional(functional)
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


def qubit_z_line_decomposition(rho: State) -> Decomposition:
    """Two-point decomposition of a qubit along the Bloch z direction.

    Both components sit where the vertical line through the Bloch vector
    pierces the sphere, so they share every x/y moment with the mixture;
    this makes the decomposition saturate the concave-roof uncertainty bound
    for operator pairs in the xy plane.  A pure qubit is its own one-point
    decomposition.
    """
    rho = state_density(rho)
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
    identities = np.broadcast_to(np.eye(3, dtype=complex), (len(partitions), 3, 3))
    values = _objective(_gram_stack(purify(rho), functional.ops), identities,
                        _block_tensor(partitions, 3), functional)
    return float(np.max(values))
