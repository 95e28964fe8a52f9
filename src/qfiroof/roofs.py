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

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
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
    """Functional evaluated on decomposition components.

    ``pure_values`` receives normalized component vectors as matrix columns
    and returns one value per column; ``mixed_values`` receives a stack of
    normalized density matrices, shape ``(J, d, d)``, and returns one value
    per matrix.  Both paths must agree for rank-one inputs.  The optimizer
    hands every climb's components to one call of each per step.
    """

    def pure_values(self, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mixed_values(self, mats: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def on_state(self, state: State) -> float:
        if isinstance(state, PureState):
            return float(self.pure_values(state.vec[:, None])[0])
        return float(self.mixed_values(state.mat[None])[0])


def _traces(mats: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Tr(rho_j A) for every matrix rho_j of the stack ``mats``."""
    return np.einsum("jkl,lk->j", mats, a)


class VarianceSum(RoofFunctional):
    """sum_n Var(A_n) on a component."""

    def __init__(self, ops: Sequence[HermitianOperator]):
        if not ops:
            raise ValueError("need at least one operator")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise ValueError("operators act on different dimensions")
        self.mats = [op.mat for op in ops]
        self.squares = [m @ m for m in self.mats]

    def pure_values(self, cols: np.ndarray) -> np.ndarray:
        total = np.zeros(cols.shape[1])
        for m in self.mats:
            mc = m @ cols
            means = np.real(np.sum(cols.conj() * mc, axis=0))
            seconds = np.real(np.sum(mc.conj() * mc, axis=0))
            total += seconds - means**2
        return np.maximum(total, 0.0)

    def mixed_values(self, mats: np.ndarray) -> np.ndarray:
        total = np.zeros(len(mats))
        for m, sq in zip(self.mats, self.squares):
            means = np.real(_traces(mats, m))
            total += np.real(_traces(mats, sq)) - means**2
        return np.maximum(total, 0.0)


class RobertsonSchrodingerBound(RoofFunctional):
    """The strengthened uncertainty bound L on a component.

    L = sqrt( |<{A,B}> - 2<A><B>|^2 + |<i[A,B]>|^2 ), computed from the single
    complex moment <AB>: the covariance term is twice its real part minus
    2<A><B> and the commutator mean is minus twice its imaginary part.
    """

    def __init__(self, a: HermitianOperator, b: HermitianOperator):
        if a.dim != b.dim:
            raise ValueError("operators act on different dimensions")
        self.a = a.mat
        self.b = b.mat
        self.ab = a.mat @ b.mat

    def pure_values(self, cols: np.ndarray) -> np.ndarray:
        ea = np.real(np.sum(cols.conj() * (self.a @ cols), axis=0))
        eb = np.real(np.sum(cols.conj() * (self.b @ cols), axis=0))
        eab = np.sum(cols.conj() * (self.ab @ cols), axis=0)
        return 2.0 * np.hypot(np.real(eab) - ea * eb, np.imag(eab))

    def mixed_values(self, mats: np.ndarray) -> np.ndarray:
        ea = np.real(_traces(mats, self.a))
        eb = np.real(_traces(mats, self.b))
        eab = _traces(mats, self.ab)
        return 2.0 * np.hypot(eab.real - ea * eb, eab.imag)


class CallableFunctional(RoofFunctional):
    """Adapter for plain ``state -> float`` callables (slower, fully general)."""

    def __init__(self, fn: Callable[[State], float]):
        self.fn = fn

    def pure_values(self, cols: np.ndarray) -> np.ndarray:
        return np.array([self.fn(PureState(cols[:, k])) for k in range(cols.shape[1])])

    def mixed_values(self, mats: np.ndarray) -> np.ndarray:
        return np.array([self.fn(DensityMatrix(mat)) for mat in mats])


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


@dataclass(frozen=True)
class _Plan:
    """Where the components of a stack of climbs sit in their unitaries.

    Climb ``i`` of the stack searches ``partitions[i]``.  Each singleton
    block is one (climb, ancilla column) pair; each larger block is one
    (climb, 0/1 column mask) pair.
    """

    single_climb: np.ndarray
    single_col: np.ndarray
    group_climb: np.ndarray
    group_mask: np.ndarray

    @classmethod
    def build(cls, partitions: Sequence[Partition], n: int) -> "_Plan":
        single_climb, single_col, group_climb, group_mask = [], [], [], []
        for i, part in enumerate(partitions):
            for block in part:
                if len(block) == 1:
                    single_climb.append(i)
                    single_col.append(block[0])
                else:
                    group_climb.append(i)
                    mask = np.zeros(n)
                    mask[list(block)] = 1.0
                    group_mask.append(mask)
        return cls(np.array(single_climb, dtype=int), np.array(single_col, dtype=int),
                   np.array(group_climb, dtype=int), np.reshape(group_mask, (-1, n)))


def _objective(m: np.ndarray, us: np.ndarray, plan: _Plan,
               functional: RoofFunctional) -> np.ndarray:
    """sum_l p_l f(component_l) for each unitary of the stack ``us``."""
    v = m @ us.swapaxes(-1, -2)                  # column a of v[i] is <a|_A U_i |Psi_p>
    weights = np.sum(np.abs(v) ** 2, axis=-2)
    w = weights[plan.single_climb, plan.single_col]
    keep = w > WEIGHT_DROP
    climbs = plan.single_climb[keep]
    cols = v[climbs, :, plan.single_col[keep]].T / np.sqrt(w[keep])
    terms = w[keep] * functional.pure_values(cols)
    if len(plan.group_climb):
        p = np.sum(weights[plan.group_climb] * plan.group_mask, axis=-1)
        keep = p >= WEIGHT_DROP
        sub = v[plan.group_climb[keep]] * plan.group_mask[keep, None, :]
        sigma = sub @ sub.conj().swapaxes(-1, -2) / p[keep, None, None]
        climbs = np.concatenate([climbs, plan.group_climb[keep]])
        terms = np.concatenate([terms, p[keep] * functional.mixed_values(sigma)])
    return np.bincount(climbs, weights=terms, minlength=len(us))


PROPOSAL_BLOCK = 32   # steps whose proposals are drawn and eigendecomposed at once


def _proposal_block(rngs: Sequence[np.random.Generator], n: int,
                    steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigensystems of the next ``steps`` unit-norm Hermitian proposals of each stream.

    Every step draws the real and then the imaginary part of an n x n
    Ginibre matrix from its climb's stream; bulk draws give the same numbers.
    """
    z = np.stack([rng.standard_normal((steps, 2, n, n)) for rng in rngs])
    g = z[:, :, 0] + 1j * z[:, :, 1]
    h = 0.5 * (g + g.conj().swapaxes(-1, -2))
    h /= np.linalg.norm(h, axis=(-2, -1), keepdims=True)
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs, vecs.conj().swapaxes(-1, -2)


def _lockstep_climb(m: np.ndarray, partitions: Sequence[Partition],
                    us: np.ndarray, rngs: Sequence[np.random.Generator],
                    functional: RoofFunctional, sign: float,
                    cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Hill climbs i = 0..B-1 over ancilla unitaries, advanced together.

    Climb i searches ``partitions[i]`` from ``us[i]``, which it overwrites
    with every accepted move, and draws its proposals from ``rngs[i]`` only;
    each keeps its own value, rejection streak and step size, so the climbs
    never read each other's state.  A climb whose step size falls below
    ``cfg.tolerance`` stops.  Returns the signed objectives of the final
    unitaries, which climbs stopped on the tolerance, and the number of
    objective evaluations.
    """
    n = m.shape[1]
    plan = _Plan.build(partitions, n)
    vals = sign * _objective(m, us, plan, functional)
    evaluations = len(us)
    eps = np.full(len(us), cfg.step_scale)
    rejects = np.zeros(len(us), dtype=int)
    hit_tolerance = np.zeros(len(us), dtype=bool)
    live = np.arange(len(us))
    for step in range(cfg.local_steps):
        stop = eps[live] < cfg.tolerance
        if np.any(stop):
            hit_tolerance[live[stop]] = True
            live = live[~stop]
            plan = _Plan.build([partitions[i] for i in live], n)
        if not len(live):
            break
        k = step % PROPOSAL_BLOCK
        if k == 0:
            # the proposals do not depend on eps, so their eigensolves run ahead
            count = min(PROPOSAL_BLOCK, cfg.local_steps - step)
            lam = np.zeros((len(us), count, n))
            vecs = np.zeros((len(us), count, n, n), dtype=complex)
            vecs_h = np.zeros_like(vecs)
            lam[live], vecs[live], vecs_h[live] = _proposal_block(
                [rngs[i] for i in live], n, count)
        phase = np.exp((1j * eps[live])[:, None] * lam[live, k])
        cand = (vecs[live, k] * phase[:, None, :]) @ vecs_h[live, k] @ us[live]
        cand_vals = sign * _objective(m, cand, plan, functional)
        evaluations += len(live)
        accept = cand_vals > vals[live]
        us[live[accept]] = cand[accept]
        vals[live[accept]] = cand_vals[accept]
        rejects[live] = np.where(accept, 0, rejects[live] + 1)
        shrink = live[~accept & (rejects[live] % REJECTION_STREAK == 0)]
        eps[shrink] *= cfg.shrink
    return vals, hit_tolerance, evaluations


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
    unitaries: each step exponentiates every climb's proposal at once and
    evaluates every climb's components in one ``pure_values`` and one
    ``mixed_values`` call.  The climbs never read each other's state, so the
    result equals that of running them one after another.  The trivial
    partition (one block) always yields rho itself, whatever the unitary, so
    it is evaluated once, without a search; if it wins, the result reports
    ``converged=True``.

    The returned value is exact for the witness decomposition, hence always
    on the certified side of the true roof.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    cfg = cfg or OptimizerConfig()
    functional = _as_functional(functional)
    rho = state_density(rho)
    if rho.rank() == 1:
        # every decomposition of a pure state is the state itself
        psi = PureState(rho.eigenvectors[:, 0])
        return RoofResult(value=functional.on_state(psi),
                          decomposition=Decomposition(((1.0, psi),)),
                          converged=True, evaluations=1)
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    base = purify(rho, ancilla_dim)
    m = base.psi_p.vec.reshape(rho.dim, ancilla_dim)
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
    vals, hit_tolerance, evaluations = _lockstep_climb(
        m, [partitions[p_idx] for p_idx, _ in climbs], us, rngs, functional, sign, cfg)

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


def eigen_partition_bound_K(rho: DensityMatrix, a: HermitianOperator,
                            b: HermitianOperator) -> float:
    """Best uncertainty bound over eigenvector groupings of a qutrit.

    Candidates: the full eigendecomposition average, the three mixed
    decompositions that keep one eigenvector pure and merge the other two,
    and the trivial decomposition (the plain Robertson-Schrodinger bound).
    Degenerate spectra use the eigenbasis exactly as the solver returns it,
    which keeps runs reproducible at the cost of possible suboptimality.
    """
    if rho.dim != 3:
        raise ValueError("the eigenvector-partition bound is defined for qutrits")
    functional = RobertsonSchrodingerBound(a, b)
    lam = rho.eigenvalues
    vecs = rho.eigenvectors
    l_pure = functional.pure_values(vecs)
    candidates = [float(lam @ l_pure)]
    for k in range(3):
        p_rest = 1.0 - lam[k]
        if p_rest < WEIGHT_DROP:
            candidates.append(float(lam[k] * l_pure[k]))
            continue
        sigma = (rho.mat - lam[k] * np.outer(vecs[:, k], vecs[:, k].conj())) / p_rest
        candidates.append(float(lam[k] * l_pure[k] + p_rest * functional.mixed_values(sigma[None])[0]))
    candidates.append(float(functional.mixed_values(rho.mat[None])[0]))
    return max(candidates)
