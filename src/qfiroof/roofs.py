"""Convex and concave roofs of variance-like functionals over decompositions.

A mixed state has infinitely many decompositions into weighted components.
Every decomposition is reachable from a fixed purification by a unitary on
the ancilla, optionally followed by grouping the ancilla basis indices into
blocks (which yields mixed components).  The optimizer below walks that
unitary manifold with a seeded stochastic local search.

One-sidedness contract: every candidate decomposition is itself a witness,
so a minimization always returns a value >= the true convex roof and a
maximization always returns a value <= the true concave roof.  Downstream
bound evaluations consume only the certified side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    EIG_FLOOR,
    DensityMatrix,
    HermitianOperator,
    PureState,
    State,
    haar_random_unitary,
    state_matrix,
)
from .metrology import state_density

WEIGHT_DROP = 1e-14       # decomposition components lighter than this are discarded
REJECTION_STREAK = 20     # consecutive rejections before the step size shrinks

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


@dataclass(frozen=True)
class Purification:
    """Joint pure state on system x ancilla tracing back to the target.

    ``partition`` groups ancilla basis indices; each block contributes one
    (possibly mixed) component to the induced decomposition.
    """

    target: DensityMatrix
    ancilla_dim: int
    psi_p: PureState
    u_a: np.ndarray
    partition: Partition

    def __post_init__(self):
        _check_partition(self.partition, self.ancilla_dim)
        recon = self.system_columns() @ self.system_columns().conj().T
        if np.max(np.abs(recon - self.target.mat)) > 1e-9:
            raise ValueError("ancilla trace of the purification does not match the target")

    def system_columns(self) -> np.ndarray:
        """d x ancilla_dim matrix whose column a is <a|_A U_A |Psi_p>."""
        m = self.psi_p.vec.reshape(self.target.dim, self.ancilla_dim)
        return m @ self.u_a.T


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


def purify(rho: DensityMatrix, ancilla_dim: int | None = None) -> Purification:
    """Eigendecomposition purification sum_k sqrt(lambda_k) |k>_S |k>_A.

    The ancilla defaults to the system size and may be enlarged; richer
    decompositions (more components) need a bigger ancilla.
    """
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    if ancilla_dim < rho.rank():
        raise ValueError(f"ancilla dim {ancilla_dim} smaller than rank {rho.rank()}")
    m = np.zeros((rho.dim, ancilla_dim), dtype=complex)
    cols = min(rho.dim, ancilla_dim)
    m[:, :cols] = rho.eigenvectors[:, :cols] * np.sqrt(rho.eigenvalues[:cols])
    return Purification(target=rho,
                        ancilla_dim=ancilla_dim,
                        psi_p=PureState(m.ravel()),
                        u_a=np.eye(ancilla_dim, dtype=complex),
                        partition=singleton_partition(ancilla_dim))


def extract_decomposition(pur: Purification) -> Decomposition:
    """Decomposition induced by the purification's ancilla unitary and partition."""
    v = pur.system_columns()
    comps: list[tuple[float, State]] = []
    for block in pur.partition:
        sub = v[:, list(block)]
        p = float(np.sum(np.abs(sub) ** 2))
        if p < WEIGHT_DROP:
            continue
        if len(block) == 1:
            comps.append((p, PureState(sub[:, 0] / np.sqrt(p))))
        else:
            sigma = sub @ sub.conj().T
            comps.append((p, DensityMatrix(sigma / p)))
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
    for every k.  The optimizer never forms sigma: it takes every climb's
    moments from one Gram stack of the purification (see ``optimize_roof``).
    """

    _ops: np.ndarray

    def moment_ops(self, dim: int) -> np.ndarray:
        return self._ops

    def from_moments(self, p: np.ndarray, mom: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check_dim(self, dim: int) -> None:
        """Raise ``ValueError`` unless the functional's operators act on ``dim``."""
        op_dim = self.moment_ops(dim).shape[-1]
        if op_dim != dim:
            raise ValueError(f"the functional's operators act on dimension {op_dim}, "
                             f"the state on dimension {dim}")

    def on_state(self, state: State) -> float:
        mom = np.einsum("xij,ji->x", self.moment_ops(state.dim), state_matrix(state))
        return float(self.from_moments(np.ones(1), mom[None])[0])


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

    def on_state(self, state: State) -> float:
        return float(self.fn(state))


def _as_functional(functional) -> RoofFunctional:
    if isinstance(functional, RoofFunctional):
        return functional
    if callable(functional):
        return CallableFunctional(functional)
    raise TypeError("functional must be a RoofFunctional or a callable")


# ---------------------------------------------------------------------------
# stochastic search over ancilla unitaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    """Random-restart local search settings; equal seeds reproduce results."""

    seed: int = 7
    restarts: int = 8
    local_steps: int = 600
    step_scale: float = 0.5
    shrink: float = 0.5
    tolerance: float = 1e-5

    def __post_init__(self):
        for name in ("restarts", "local_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1 or self.local_steps < 0:
            raise ValueError("restarts must be >= 1 and local_steps >= 0")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must lie in (0, 1)")
        if self.step_scale <= 0.0 or self.tolerance <= 0.0:
            raise ValueError("step_scale and tolerance must be positive")


@dataclass(frozen=True)
class RoofResult:
    value: float
    decomposition: Decomposition
    converged: bool
    evaluations: int


def _gram_stack(m: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """G = m^dag [I, X_1, .., X_x] m as one n x (x+1)n matrix.

    Column a of v = m U^T is component vector a of unitary U, so its moments
    v_a^dag X_j v_a = (conj(U) G_j U^T)_aa with G_j = m^dag X_j m: row a of
    conj(U) @ G contracted with row a of U gives all of them at once.
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


def _objective(gram: np.ndarray, us: np.ndarray, blocks: np.ndarray,
               functional: RoofFunctional) -> np.ndarray:
    """sum_l p_l f(component_l) for every unitary ``us[i, k]`` of a ``(C, K, n, n)`` stack.

    Climb i's K candidate unitaries share its partition, ``blocks[i]`` (see
    ``_block_tensor``).  One GEMM of every unitary row with the Gram stack,
    one row contraction, one block sum per climb; blocks lighter than
    ``WEIGHT_DROP`` (padded ones included) contribute nothing.  Returns the
    ``(C, K)`` objectives.  A stack that is a ``swapaxes(1, 2)`` view of a
    contiguous ``(C, n, K, n)`` array is read without a copy.
    """
    c, k, n = us.shape[0], us.shape[1], us.shape[-1]
    rows = us.swapaxes(1, 2).reshape(-1, n)      # row a of us[i, k] is row (i, a, k)
    w = (rows.conj() @ gram).reshape(len(rows), -1, n)
    mom = np.einsum("rjc,rc->rj", w, rows).view(float).reshape(c, n, -1)
    # the block tensor is real, so it sums the (re, im) pairs as one real GEMM per climb
    mom = (blocks @ mom).reshape(c, blocks.shape[1], k, -1).view(complex)
    p = mom[..., 0].real
    keep = p >= WEIGHT_DROP
    terms = np.zeros(p.shape)
    terms[keep] = functional.from_moments(p[keep], mom[..., 1:][keep])
    return terms.sum(axis=1)


PROPOSAL_BLOCK = 128  # steps of a climb whose proposals are drawn and diagonalised at once
WINDOW = 16           # steps of one climb tried per windowed iteration (<= REJECTION_STREAK)
WINDOWED_MAX_DIM = 4  # largest ancilla searched in windows


def _pick(first: np.ndarray, second: np.ndarray, options):
    """options[0] where ``first``, else options[1] where ``second``, else options[2]."""
    return np.where(first, options[0], np.where(second, options[1], options[2]))


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _eigh3(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unitary eigenvectors of 3 x 3 Hermitian matrices.

    Every matrix entry is one array over the stack (struct of arrays).  The
    eigenvalues of the traceless K = H - tr(H)/3 come from the trigonometric
    solution of its characteristic cubic (Smith, CACM 4, 168 (1961)).  Of the
    largest and the smallest, the one farther from the middle eigenvalue has
    an eigenvector that is the longest cross product of two rows of K - lam I
    (Kopp, Int. J. Mod. Phys. C 19, 523 (2008)).  The other two eigenpairs
    come from the exact 2 x 2 problem of K on the orthogonal complement of
    that vector, so the basis stays unitary to round-off at exact and near
    degeneracies, where the cubic alone loses accuracy.
    """
    shape = h.shape[:-2]
    h = h.reshape(-1, 3, 3)
    m = (h[:, 0, 0].real + h[:, 1, 1].real + h[:, 2, 2].real) / 3.0
    a0, a1, a2 = h[:, 0, 0].real - m, h[:, 1, 1].real - m, h[:, 2, 2].real - m
    f, g, e = h[:, 0, 1], h[:, 0, 2], h[:, 1, 2]
    fc, gc, ec = f.conj(), g.conj(), e.conj()
    ff, gg, ee = _abs2(f), _abs2(g), _abs2(e)
    p = (a0 * a0 + a1 * a1 + a2 * a2 + 2.0 * (ff + gg + ee)) / 6.0
    det = a0 * a1 * a2 + 2.0 * (f * e * gc).real - a0 * ee - a1 * gg - a2 * ff
    sp = np.sqrt(p)
    cos3 = np.clip(0.5 * det / np.where(p > 0.0, p * sp, 1.0), -1.0, 1.0)
    phi = np.arccos(cos3) / 3.0
    top = 2.0 * sp * np.cos(phi)
    bot = 2.0 * sp * np.cos(phi + 2.0 * np.pi / 3.0)
    use_top = top + bot >= 0.0            # the middle eigenvalue -top-bot is nearer bot
    lam = np.where(use_top, top, bot)

    b0, b1, b2 = a0 - lam, a1 - lam, a2 - lam
    crosses = ((f * e - g * b1, g * fc - b0 * e, b0 * b1 - ff),
               (b1 * b2 - ee, e * gc - fc * b2, fc * ec - b1 * gc),
               (ec * g - b2 * f, b2 * b0 - gg, gc * f - ec * b0))
    n01, n12, n20 = (_abs2(c[0]) + _abs2(c[1]) + _abs2(c[2]) for c in crosses)
    first, second = n01 >= np.maximum(n12, n20), n12 >= n20
    norm2 = _pick(first, second, (n01, n12, n20))
    flat = norm2 == 0.0                   # K = lam I: every basis is an eigenbasis
    scale = 1.0 / np.sqrt(np.where(flat, 1.0, norm2))
    v = [np.where(flat, float(i == 0), _pick(first, second, opts) * scale)
         for i, opts in enumerate(zip(*crosses))]

    # u: conj(v x e_k) for the smallest |v_k|; w = conj(v x u)
    w2 = [_abs2(x) for x in v]
    first, second = w2[0] <= np.minimum(w2[1], w2[2]), w2[1] <= w2[2]
    zero = np.zeros_like(v[0])
    scale = 1.0 / np.sqrt(_pick(first, second, (w2[1] + w2[2], w2[0] + w2[2], w2[0] + w2[1])))
    u = [(_pick(first, second, opts) * scale).conj()
         for opts in zip((zero, -v[2], v[1]), (v[2], zero, -v[0]), (-v[1], v[0], zero))]
    w = [(v[1] * u[2] - v[2] * u[1]).conj(), (v[2] * u[0] - v[0] * u[2]).conj(),
         (v[0] * u[1] - v[1] * u[0]).conj()]

    def k_times(x):
        return (a0 * x[0] + f * x[1] + g * x[2], fc * x[0] + a1 * x[1] + e * x[2],
                gc * x[0] + ec * x[1] + a2 * x[2])

    def inner(x, y):
        return x[0].conj() * y[0] + x[1].conj() * y[1] + x[2].conj() * y[2]

    kw = k_times(w)
    k00, k11, k01 = inner(u, k_times(u)).real, inner(w, kw).real, inner(u, kw)
    alpha = m + inner(v, k_times(v)).real
    mean, delta = m + 0.5 * (k00 + k11), 0.5 * (k00 - k11)
    rad = np.hypot(delta, np.abs(k01))
    lo, hi = mean - rad, mean + rad
    alpha = np.where(use_top, np.maximum(alpha, hi), np.minimum(alpha, lo))
    # eigenvector (x, y) of the 2 x 2 block for hi, from whichever row is longer
    pos = delta >= 0.0
    x, y = np.where(pos, rad + delta, k01), np.where(pos, k01.conj(), rad - delta)
    norm = np.sqrt(_abs2(x) + _abs2(y))
    flat = norm == 0.0
    scale = 1.0 / np.where(flat, 1.0, norm)
    x, y = np.where(flat, 1.0, x * scale), y * scale
    e_hi = [ui * x + wi * y for ui, wi in zip(u, w)]
    e_lo = [wi * x.conj() - ui * y.conj() for ui, wi in zip(u, w)]

    vals = np.empty((len(m), 3))
    vals[:, 0] = np.where(use_top, lo, alpha)
    vals[:, 1] = np.where(use_top, hi, lo)
    vals[:, 2] = np.where(use_top, alpha, hi)
    vecs = np.empty((len(m), 3, 3), dtype=complex)
    for i in range(3):
        vecs[:, i, 0] = np.where(use_top, e_lo[i], v[i])
        vecs[:, i, 1] = np.where(use_top, e_hi[i], e_lo[i])
        vecs[:, i, 2] = np.where(use_top, v[i], e_hi[i])
    return vals.reshape(shape + (3,)), vecs.reshape(shape + (3, 3))


def _proposal_eigensystems(rngs: Sequence[np.random.Generator], n: int,
                           sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of the next ``sizes[i]`` unit-norm Hermitian proposals of
    each stream ``rngs[i]``, concatenated along the first axis.

    Every step draws the real and then the imaginary part of an n x n
    Ginibre matrix; bulk draws give the same numbers.
    """
    z = np.concatenate([rng.standard_normal((size, 2, n, n)) for rng, size in zip(rngs, sizes)])
    g = z[:, 0] + 1j * z[:, 1]
    h = 0.5 * (g + g.conj().swapaxes(-1, -2))
    h /= np.linalg.norm(h, axis=(-2, -1), keepdims=True)
    if n == 3:
        return _eigh3(h)
    return np.linalg.eigh(h)


def _rotate(vecs: np.ndarray, phase: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Candidates V_k diag(phase_k) V_k^dag U of each climb, shape ``(C, K, n, n)``.

    ``vecs`` is ``(C, K, n, n)``, ``phase`` ``(C, K, n)`` and ``u`` ``(C, n, n)``.
    V^dag U is one product per climb.  The K products with V run as n
    broadcast terms, which avoids numpy's per-matrix cost on stacks of tiny
    matrices, and give a view of a contiguous ``(C, n, K, n)`` array, the
    layout ``_objective`` reads without a copy.
    """
    c, k, n = vecs.shape[:3]
    z = (vecs.conj().swapaxes(-1, -2).reshape(c, k * n, n) @ u).reshape(c, k, n, n)
    z *= phase[..., None]
    out = vecs[..., :, 0].swapaxes(1, 2)[..., None] * z[:, None, :, 0]
    for l in range(1, n):
        out += vecs[..., :, l].swapaxes(1, 2)[..., None] * z[:, None, :, l]
    return out.swapaxes(1, 2)


def _lockstep_climb(gram: np.ndarray, partitions: Sequence[Partition],
                    us: np.ndarray, rngs: Sequence[np.random.Generator],
                    functional: RoofFunctional, sign: float,
                    cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Hill climbs i = 0..B-1 over ancilla unitaries, advanced together.

    Climb i searches ``partitions[i]`` from ``us[i]``, which receives its
    final unitary, and draws its proposals from ``rngs[i]`` only; each keeps
    its own value, rejection streak and step size, so the climbs never read
    each other's state.  A climb whose step size falls below
    ``cfg.tolerance`` stops and leaves the stack.  Every iteration takes one
    step of every climb.  Returns the signed objectives of the final
    unitaries, which climbs stopped on the tolerance, and the number of
    objective evaluations.
    """
    if not len(us):
        return np.empty(0), np.zeros(0, dtype=bool), 0
    n = us.shape[-1]
    live = np.arange(len(us))        # climb index of each row of the stack
    u = us.copy()
    blocks = _block_tensor(partitions, n)
    vals = sign * _objective(gram, u[:, None], blocks, functional)[:, 0]
    evaluations = len(us)
    eps = np.full(len(us), cfg.step_scale)
    rejects = np.zeros(len(us), dtype=int)
    final = np.empty(len(us))
    hit_tolerance = np.zeros(len(us), dtype=bool)
    for step in range(cfg.local_steps):
        stop = eps < cfg.tolerance
        if np.any(stop):
            hit_tolerance[live[stop]] = True
            us[live[stop]], final[live[stop]] = u[stop], vals[stop]
            go = ~stop
            live, u, vals, eps, rejects = live[go], u[go], vals[go], eps[go], rejects[go]
            if not len(live):
                return final, hit_tolerance, evaluations
            blocks = blocks[go]
            if step % PROPOSAL_BLOCK:
                lam, vecs, vecs_h = lam[go], vecs[go], vecs_h[go]
        k = step % PROPOSAL_BLOCK
        if k == 0:
            # the proposals do not depend on eps, so their eigensolves run ahead
            size = min(PROPOSAL_BLOCK, cfg.local_steps - step)
            lam, vecs = _proposal_eigensystems([rngs[i] for i in live], n, [size] * len(live))
            lam, vecs = lam.reshape(len(live), size, n), vecs.reshape(len(live), size, n, n)
            vecs_h = vecs.conj().swapaxes(-1, -2)
        phase = np.exp((1j * eps)[:, None] * lam[:, k])
        cand = (vecs[:, k] * phase[:, None, :]) @ vecs_h[:, k] @ u
        cand_vals = sign * _objective(gram, cand[:, None], blocks, functional)[:, 0]
        evaluations += len(live)
        accept = cand_vals > vals
        u = np.where(accept[:, None, None], cand, u)
        vals = np.where(accept, cand_vals, vals)
        rejects = np.where(accept, 0, rejects + 1)
        eps = np.where(~accept & (rejects % REJECTION_STREAK == 0), eps * cfg.shrink, eps)
    us[live], final[live] = u, vals
    return final, hit_tolerance, evaluations


def _windowed_climb(gram: np.ndarray, partitions: Sequence[Partition],
                    us: np.ndarray, rngs: Sequence[np.random.Generator],
                    functional: RoofFunctional, sign: float,
                    cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """The climbs of ``_lockstep_climb``, with the same steps and results.

    Each iteration tries, for every climb, a window of its next steps at
    once: while a climb rejects, each of its candidates is exp(i eps_t H_t) U
    with the same U, and eps_t shrinks at most once inside a window no
    longer than ``REJECTION_STREAK``.  The climb then takes its first
    improving candidate, or all the window's rejections; candidates after an
    acceptance are discarded, so every climb passes through the same steps
    as one taking a single step at a time.  The evaluation count is the
    steps taken, not the discarded candidates.
    """
    if not len(us):
        return np.empty(0), np.zeros(0, dtype=bool), 0
    n = us.shape[-1]
    live = np.arange(len(us))        # climb index of each row of the stack
    rows = np.arange(len(us))
    u = us.copy()
    blocks = _block_tensor(partitions, n)
    vals = sign * _objective(gram, u[:, None], blocks, functional)[:, 0]
    evaluations = len(us)
    eps = np.full(len(us), cfg.step_scale)
    left = np.full(len(us), REJECTION_STREAK)     # rejections until the next shrink
    steps = np.zeros(len(us), dtype=int)
    final = np.empty(len(us))
    hit_tolerance = np.zeros(len(us), dtype=bool)
    # ring buffers: slot t % capacity of climb i holds the eigensystem of its
    # proposal of step t for steps[i] <= t < drawn[i]; a window past a climb's
    # last step reads slots it never uses
    capacity = PROPOSAL_BLOCK + PROPOSAL_BLOCK // 2
    lam = np.zeros((len(us), capacity, n))
    vecs = np.zeros((len(us), capacity, n, n), dtype=complex)
    drawn = np.zeros(len(us), dtype=int)
    due = np.zeros(len(us), dtype=int)      # step at which a climb must refill or stop
    offsets = np.arange(WINDOW + 1)
    while True:
        if np.any((steps >= due) | (eps < cfg.tolerance)):
            stop = (steps >= cfg.local_steps) | (eps < cfg.tolerance)
            if np.any(stop):
                hit_tolerance[live[stop]] = steps[stop] < cfg.local_steps
                us[live[stop]], final[live[stop]] = u[stop], vals[stop]
                go = ~stop
                if not np.any(go):
                    return final, hit_tolerance, evaluations
                live, u, vals, eps, left = live[go], u[go], vals[go], eps[go], left[go]
                steps, drawn, blocks = steps[go], drawn[go], blocks[go]
                lam, vecs = lam[go], vecs[go]
                rows = rows[:len(live)]
            # the proposals do not depend on eps, so their eigensolves run ahead;
            # every climb half through its block refills in the same call
            refill = np.flatnonzero((drawn - steps < PROPOSAL_BLOCK // 2)
                                    & (drawn < cfg.local_steps))
            if len(refill):
                sizes = np.minimum(PROPOSAL_BLOCK, cfg.local_steps - drawn[refill])
                new_lam, new_vecs = _proposal_eigensystems([rngs[live[i]] for i in refill],
                                                           n, sizes)
                climb = np.repeat(refill, sizes)
                slot = np.arange(len(climb)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
                slot = (slot + drawn[climb]) % capacity
                lam[climb, slot], vecs[climb, slot] = new_lam, new_vecs
                drawn[refill] += sizes
            due = np.where(drawn < cfg.local_steps, drawn - WINDOW + 1, cfg.local_steps)
        # eps_t[i, t] is climb i's step size after t rejections in the window
        eps_t = np.where(offsets < left[:, None], eps[:, None], eps[:, None] * cfg.shrink)
        valid = ((offsets[:-1] < (cfg.local_steps - steps)[:, None])
                 & (eps_t[:, :-1] >= cfg.tolerance))
        slot = (steps[:, None] + offsets[:-1]) % capacity
        phase = np.exp(1j * eps_t[:, :-1, None] * lam[rows[:, None], slot])
        cand = _rotate(vecs[rows[:, None], slot], phase, u)
        cand_vals = sign * _objective(gram, cand, blocks, functional)
        improve = valid & (cand_vals > vals[:, None])
        first = np.argmax(improve, axis=1)
        accept = improve[rows, first]
        # a climb takes its first improving candidate, or every valid one
        # (the valid candidates are a prefix of the window)
        taken = np.where(accept, first + 1, np.sum(valid, axis=1))
        evaluations += int(np.sum(taken))
        steps += taken
        u = np.where(accept[:, None, None], cand[rows, first], u)
        vals = np.where(accept, cand_vals[rows, first], vals)
        eps = eps_t[rows, taken - accept]
        left = np.where(accept, REJECTION_STREAK, (left - taken - 1) % REJECTION_STREAK + 1)


def optimize_roof(rho: State,
                  functional,
                  direction: str,
                  partitions: Iterable[Partition] | None = None,
                  cfg: OptimizerConfig | None = None,
                  ancilla_dim: int | None = None) -> RoofResult:
    """Best weighted component average of ``functional`` over decompositions.

    ``direction`` is ``"min"`` or ``"max"``.  For each partition the search
    runs ``cfg.restarts`` hill climbs over ancilla unitaries: restart 0
    starts from the identity (so the eigendecomposition and its groupings are
    always among the candidates), the others start Haar random.  Proposals
    are U <- exp(i eps H) U with H a random unit-norm Hermitian; eps starts
    at ``step_scale``, shrinks by ``shrink`` after every 20 consecutive
    rejections, and the climb stops once eps < ``tolerance``.  Restart r of
    partition p draws from its own generator ``default_rng([seed, p, r])``.

    All climbs of all partitions advance in lockstep as one stack of
    unitaries; a climb that stops leaves the stack.  No component is
    formed: the Gram stack G = m^dag [I, X_1, ..] m of the purification
    matrix m and the functional's ``moment_ops`` is built once, and each
    iteration takes the block moments of every climb's candidates from one
    GEMM with G (``_objective``).  On an ancilla of dimension up to 4 an
    iteration tries a window of each climb's next 16 proposals against its
    current unitary and keeps the first that improves, so every climb takes
    the same steps as one that tries a single proposal at a time; larger
    ancillas and plain callables take one step per iteration.
    ``evaluations`` counts those steps only, not the candidates of a window
    that come after an acceptance.  The climbs never
    read each other's state, so the result equals that of running them one
    after another.  The trivial partition (one block) always yields rho
    itself, whatever the unitary, so it is evaluated once, without a
    search; if it wins, the result reports ``converged=True``.  A functional
    whose operators act on another dimension than rho raises ``ValueError``.

    The returned value is exact for the witness decomposition, hence always
    on the certified side of the true roof.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    cfg = cfg or OptimizerConfig()
    functional = _as_functional(functional)
    rho = state_density(rho)
    functional.check_dim(rho.dim)
    if rho.rank() == 1:
        # every decomposition of a pure state is the state itself
        psi = PureState(rho.eigenvectors[:, 0])
        return RoofResult(value=functional.on_state(psi),
                          decomposition=Decomposition(((1.0, psi),)),
                          converged=True, evaluations=1)
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    base = purify(rho, ancilla_dim)
    gram = _gram_stack(base.psi_p.vec.reshape(rho.dim, ancilla_dim),
                       functional.moment_ops(rho.dim))
    if partitions is None:
        partitions = [singleton_partition(ancilla_dim)]
    partitions = [tuple(tuple(b) for b in part) for part in partitions]
    for part in partitions:
        _check_partition(part, ancilla_dim)

    sign = 1.0 if direction == "max" else -1.0
    climbs = [(p_idx, r_idx) for p_idx, part in enumerate(partitions) if len(part) > 1
              for r_idx in range(cfg.restarts)]
    rngs = [np.random.default_rng([cfg.seed, p_idx, r_idx]) for p_idx, r_idx in climbs]
    us = np.empty((len(climbs), ancilla_dim, ancilla_dim), dtype=complex)
    for i, ((_, r_idx), rng) in enumerate(zip(climbs, rngs)):
        us[i] = np.eye(ancilla_dim) if r_idx == 0 else haar_random_unitary(ancilla_dim, rng)
    # a window pays on small ancillas; on larger ones its discarded
    # candidates cost more than the iterations it saves, and a callable's
    # would call the user's function for nothing
    windowed = ancilla_dim <= WINDOWED_MAX_DIM and not isinstance(functional, CallableFunctional)
    climb = _windowed_climb if windowed else _lockstep_climb
    vals, hit_tolerance, evaluations = climb(
        gram, [partitions[p_idx] for p_idx, _ in climbs], us, rngs, functional, sign, cfg)

    best_value = -np.inf
    best: int | None = None      # index of the winning climb; None for the trivial partition
    climb = 0
    for part in partitions:
        if len(part) == 1:
            evaluations += 1
            val = sign * functional.on_state(rho)
            if val > best_value:
                best_value, best = val, None
            continue
        for _ in range(cfg.restarts):
            if vals[climb] > best_value:
                best_value, best = vals[climb], climb
            climb += 1

    if best is None:
        return RoofResult(value=float(sign * best_value),
                          decomposition=Decomposition(((1.0, rho),)),
                          converged=True, evaluations=evaluations)
    winner = Purification(target=rho, ancilla_dim=ancilla_dim, psi_p=base.psi_p,
                          u_a=us[best], partition=partitions[climbs[best][0]])
    return RoofResult(value=float(sign * best_value),
                      decomposition=extract_decomposition(winner),
                      converged=bool(hit_tolerance[best]),
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


def default_mixed_partitions(ancilla_dim: int,
                             extra: Iterable[Partition] = ()) -> list[Partition]:
    """Partition list for mixed-component roofs.

    Up to three ancilla indices this is the full set-partition lattice; the
    Bell number explodes beyond that, so larger ancillas fall back to the
    pure-state partition plus the trivial one plus anything user-supplied.
    """
    if ancilla_dim <= 3:
        parts = list(set_partitions(ancilla_dim))
    else:
        parts = [singleton_partition(ancilla_dim), trivial_partition(ancilla_dim)]
    for part in extra:
        cand = tuple(tuple(b) for b in part)
        if cand not in parts:
            parts.append(cand)
    return parts


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
    The first four are the roof objective at the identity unitary, which is
    where restart 0 of ``concave_roof_L`` starts, so the roof is never below
    K.  Degenerate spectra use the eigenbasis exactly as the solver returns
    it, which keeps runs reproducible at the cost of possible suboptimality.
    A ``PureState`` is its own only decomposition, so its K is its L.
    """
    rho = state_density(rho)
    if rho.dim != 3:
        raise ValueError("the eigenvector-partition bound is defined for qutrits")
    functional = RobertsonSchrodingerBound(a, b)
    functional.check_dim(3)
    gram = _gram_stack(purify(rho).psi_p.vec.reshape(3, 3), functional.moment_ops(3))
    groupings = [part for part in set_partitions(3) if len(part) > 1]
    identities = np.broadcast_to(np.eye(3, dtype=complex), (len(groupings), 1, 3, 3))
    values = _objective(gram, identities, _block_tensor(groupings, 3), functional)
    return max(float(np.max(values)), functional.on_state(rho))
