"""Convex and concave roofs of variance-like functionals over decompositions.

A mixed state has infinitely many decompositions into weighted pure
components.  Every one with at most n components is reachable from a fixed
purification by a unitary on an n-level ancilla.  The optimizer below climbs
that unitary manifold from seeded starts along directions in the Hermitian
Lie algebra, driven by the analytic Riemannian gradient, with a line search
along each geodesic exp(i mu D) U that scores the formed candidate unitaries
of an angle grid and of the direction's own unit step mu = 1 with the same
objective as every other step.  A maximization on an ancilla
of at most three levels takes saddle-free Newton directions from the exact
Riemannian Hessian; every other search takes limited-memory BFGS directions.

Mixed components are never searched.  Convex roofs are defined over pure
decompositions, and for the concave roofs of the uncertainty bound L and of
a sum of at most two variances a rotation inside any mixed component splits
it into pure ones that share its means and together score at least as much
(``_split_block``); groupings of the eigenvectors, split this way, enter
only as the first start of every maximization.

One-sidedness contract: every candidate decomposition is itself a witness,
so a minimization always returns a value >= the true convex roof and a
maximization always returns a value <= the true concave roof.  Downstream
bound evaluations consume only the certified side.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    PureState,
    State,
    _ginibre,
    _require_count,
    _haar_from_ginibre,
    _support,
    state_density,
    state_matrix,
)

log = logging.getLogger(__name__)

WEIGHT_DROP = 1e-14       # decomposition components lighter than this are discarded
UNITARY_TOL = 1e-9        # largest entry of u u^dag - 1 an ancilla unitary may carry


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


def purify(rho: DensityMatrix, ancilla_dim: int | None = None) -> np.ndarray:
    """Purification matrix m = [V_S sqrt(lambda_S), 0] of rho, d x ancilla_dim.

    m m^dag = rho, and column a of m U^T is the unnormalised component
    vector a of the decomposition that ancilla unitary U induces.  The
    ancilla defaults to the system size and may be enlarged; richer
    decompositions (more components) need a bigger ancilla.
    """
    if ancilla_dim is None:
        ancilla_dim = rho.dim
    _require_count(ancilla_dim, "ancilla_dim", 1)
    if ancilla_dim < rho.rank():
        raise ValueError(f"ancilla dim {ancilla_dim} smaller than rank {rho.rank()}")
    lam, vs = _support(rho)
    m = np.zeros((rho.dim, ancilla_dim), dtype=complex)
    m[:, :len(lam)] = vs * np.sqrt(lam)
    return m


def extract_decomposition(m: np.ndarray, u: np.ndarray) -> Decomposition:
    """Pure-state decomposition of m m^dag induced by the ancilla unitary ``u``.

    Column a of v = m u^T is the unnormalised vector of component a: its
    weight p_a is the squared norm of the column and its state v_a /
    sqrt(p_a); components lighter than ``WEIGHT_DROP`` are dropped.  An
    n x n unitary ``u`` (n the columns of m) keeps v v^dag = m m^dag, so
    the components mix back to the purified state.
    """
    n = m.shape[1]
    u = np.asarray(u)
    if u.shape != (n, n):
        raise ValueError(f"ancilla unitary must be {n} x {n}, got shape {u.shape}")
    if not np.max(np.abs(u @ u.conj().T - np.eye(n))) <= UNITARY_TOL:
        raise ValueError("ancilla matrix is not unitary")
    v = m @ u.T
    weights = np.sum(np.abs(v) ** 2, axis=0)
    return Decomposition(tuple((float(p), PureState(v[:, a] / np.sqrt(p)))
                               for a, p in enumerate(weights) if p >= WEIGHT_DROP))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

class RoofFunctional:
    """Functional of a decomposition component that reads only linear moments.

    ``ops`` is the ``(x, d, d)`` stack of operators X_j whose moments
    Tr(sigma X_j) determine f(sigma); each subclass builds it from its
    operators.  ``terms`` maps component weights and moments to p f(sigma)
    and, for the optimizer's Riemannian gradient, to its derivatives.
    The optimizer never forms sigma: it takes every start's moments from
    one Gram stack of the purification (see ``optimize_roof``).
    """

    ops: np.ndarray

    def terms(self, p: np.ndarray, mom: np.ndarray, gradient: bool = False):
        """p f(sigma) of every component, and with ``gradient`` its derivatives.

        ``p`` holds the component weights (shape ``(...)``, each positive)
        and ``mom`` the unnormalised moments ``mom[..., j] = p Tr(sigma X_j)``
        (shape ``(..., x)``, complex).  With ``gradient``, also returns the
        ``(..., x+1)`` coefficient row: the derivative in p, then those in
        the moments.  A moment derivative is complex, d/dRe + i d/dIm, so a
        change dM of the moments changes the value by Re(conj(grad) dM).
        Both passes compute the value before they branch, so it is bit for
        bit the same.
        """
        raise NotImplementedError

    def check_dim(self, dim: int) -> None:
        """Raise ``DimensionMismatchError`` unless the functional's operators act on ``dim``."""
        op_dim = self.ops.shape[-1]
        if op_dim != dim:
            raise DimensionMismatchError(f"the functional's operators act on dimension {op_dim}, "
                                         f"the state on dimension {dim}")

    def _support_moments(self, state: State) -> np.ndarray:
        """Weight and moments of every support vector of ``state``, shape ``(r, x+1)``.

        Row k is lambda_k and lambda_k <v_k|X_j|v_k>: the diagonal of the
        Gram stack m^dag [I, X_1, ..] m of the support purification m =
        V_S sqrt(lambda_S), whose blocks sum to the moments of any grouping
        of the eigenvectors.
        """
        self.check_dim(state.dim)
        lam, vs = _support(state)
        mom = np.einsum("ik,xik->kx", vs.conj(), self.ops @ vs) * lam[:, None]
        return np.concatenate([lam[:, None], mom], axis=1)

    def on_state(self, state: State) -> float:
        """f(state), from the summed moments of its support vectors."""
        return float(_block_terms(self._support_moments(state).sum(axis=0), self))


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

    def terms(self, p: np.ndarray, mom: np.ndarray, gradient: bool = False):
        # p sum_n Var(A_n) = sum_n (p<A_n^2> - (p<A_n>)^2 / p)
        half = mom.shape[-1] // 2
        means = mom[..., :half].real
        total = np.sum(mom[..., half:].real - means * means / p[..., None], axis=-1)
        value = np.maximum(total, 0.0)
        if not gradient:
            return value
        ratio = means / p[..., None]
        coef = np.ones((*mom.shape[:-1], mom.shape[-1] + 1), dtype=complex)
        coef[..., 0] = np.sum(ratio * ratio, axis=-1)
        coef[..., 1:half + 1] = -2.0 * ratio
        return value, coef


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

    def terms(self, p: np.ndarray, mom: np.ndarray, gradient: bool = False):
        # z = p(<AB> - <A><B>): 2 Re z is the covariance term and -2 Im z the
        # commutator mean, so the value is 2|z|
        ea, eb = mom[..., 0].real, mom[..., 1].real
        z = mom[..., 2] - ea * eb / p
        norm = np.abs(z)
        if not gradient:
            return 2.0 * norm
        # the derivative in p<AB> is 2z/|z|; L is not differentiable where
        # z = 0, and there the zero subgradient is returned
        dz = 2.0 * z / np.where(norm > 0.0, norm, np.inf)
        dcov = dz.real
        coef = np.empty((*mom.shape[:-1], 4), dtype=complex)
        coef[..., 0] = dcov * ea * eb / (p * p)
        coef[..., 1] = -dcov * eb / p
        coef[..., 2] = -dcov * ea / p
        coef[..., 3] = dz
        return 2.0 * norm, coef


def _require_functional(functional) -> None:
    if not isinstance(functional, RoofFunctional):
        raise TypeError(f"functional must be a RoofFunctional, got {type(functional).__name__}")


# ---------------------------------------------------------------------------
# Newton and quasi-Newton ascent over ancilla unitaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start roof ascent settings; equal seeds reproduce results.

    ``restarts`` starts per roof search, an iteration budget of
    ``local_steps`` per start, and ``tolerance`` on the Frobenius norm of
    the Riemannian gradient at which a start stops.
    """

    seed: int = 7
    restarts: int = 8
    local_steps: int = 600
    tolerance: float = 1e-5

    def __post_init__(self):
        for name, least in (("seed", 0), ("restarts", 1), ("local_steps", 0)):
            _require_count(getattr(self, name), name, least)
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


def _block_terms(mom: np.ndarray, functional: RoofFunctional, gradient: bool = False):
    """p f(component) of every component from its moments ``mom[..., j]`` (j = 0 the weight).

    ``functional.terms`` of the weights and moments, with or without its
    coefficient rows.  Components lighter than ``WEIGHT_DROP`` give 0: the
    functional scores them at weight 1, so that it never divides by a
    vanishing weight, and their values and coefficients are dropped.  When
    every component is heavy enough, as it almost always is, no select or
    mask runs.
    """
    p = mom[..., 0].real
    keep = p >= WEIGHT_DROP
    whole = keep.all()
    out = functional.terms(p if whole else np.where(keep, p, 1.0), mom[..., 1:], gradient)
    if whole:
        return out
    if not gradient:
        return np.where(keep, out, 0.0)
    return np.where(keep, out[0], 0.0), keep[..., None] * out[1]


def _objective(gram: np.ndarray, us: np.ndarray, functional: RoofFunctional,
               gradient: bool = False):
    """sum_a p_a f(component_a) for every unitary of a ``(..., n, n)`` stack ``us``.

    One GEMM gives W = conj(U) G, and one batched mat-vec the component
    moments (W_j U^T)_aa = W_j[a] . U[a] of every unitary, in both modes,
    and ``functional.terms`` computes the values before it branches on
    ``gradient``, so a plain pass scores bit for bit like a gradient pass.
    ``gram`` may hold only the first r rows of the Gram stack when the
    others are zero (a purification of rank r padded with zero columns);
    then W takes only the first r columns of conj(U).  Returns the
    ``(...)`` objectives; with ``gradient`` (a ``(C, n, n)`` stack), also
    the Riemannian gradients (Hermitian, ``(C, n, n)``), for which a second
    GEMM forms the full Q_j = W_j U^T.

    The gradient: U <- exp(i eps H) U moves Q_j by i eps [Q_j, H^T], so with
    c_aj the coefficient row of component a (``terms``; j = 0 the weight) and
    Y = sum_j (conj(c_j) Q_j - Q_j conj(c_j)) (c_j diagonal), the objective
    moves by eps Re Tr(i Y H^T) = eps Tr(Gamma H) with Gamma the Hermitian
    part of conj(i Y).
    """
    n, r = us.shape[-1], gram.shape[0]
    w = (us[..., :r].conj().reshape(-1, r) @ gram).reshape(*us.shape[:-1], -1, n)  # (..., n, x+1, n)
    mom = (w @ us[..., None])[..., 0]                                      # (..., n, x+1)
    if not gradient:
        return _block_terms(mom, functional).sum(axis=-1)
    terms, coef = _block_terms(mom, functional, gradient=True)
    c, big = len(us), w.shape[2]
    q = (w.reshape(c, n * big, n) @ us.swapaxes(-1, -2)).reshape(c, n, big, n)
    row_coef = coef.conj()
    # Y_ab = sum_j Q_j[a, b] (conj(c_aj) - conj(c_bj))
    y = (q * (row_coef[..., None] - row_coef.swapaxes(-1, -2)[..., None, :, :])).sum(axis=-2)
    return terms.sum(axis=-1), 0.5j * (y.swapaxes(-1, -2) - y.conj())


def _geodesic(vecs: np.ndarray, lam: np.ndarray, back: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """exp(i mu D) U = V e^{i mu lam} (V^dag U) for every step ``mus[i, t]`` of a ``(C, T)`` grid.

    ``vecs`` and ``lam`` are the ``(C, n, n)`` eigenvectors and ``(C, n)``
    spectra of the directions D, ``back`` the ``(C, n, n)`` products V^dag U;
    returns the ``(C, T, n, n)`` candidate unitaries.
    """
    turn = np.exp(1j * mus[:, :, None] * lam[:, None, :])                 # (C, T, n)
    return (vecs[:, None] * turn[:, :, None, :]) @ back[:, None]


BFGS_MEMORY = 6           # (step, gradient change) pairs kept per start
HESSIAN_STEP = 1e-8       # rotation eps of the gradient differences that give a Newton Hessian
CURVATURE_FLOOR = 1e-8    # Hessian eigenvalues smaller in magnitude are inverted as this
# rotation angles mu max|lam| tried along each direction, besides the unit step
# mu = 1: pi / 4 down to pi / 4^12
LINE_ANGLES = np.pi / 4.0 ** np.arange(12, 0, -1)
TOLERANCE, NO_ASCENT, BUDGET = range(3)          # why a start stopped
STOP_REASONS = ("tolerance", "no_ascent", "budget")


def _lbfgs_direction(grad: np.ndarray, steps: np.ndarray, changes: np.ndarray,
                     inv: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Limited-memory BFGS ascent directions of a stack of starts.

    ``grad`` is ``(C, k)`` (Hermitian matrices as real vectors, whose dot
    product is Re Tr(A B)).  ``steps`` and ``changes`` are ``(m, C, k)``,
    newest pair first: ``steps[j]`` and ``changes[j]`` hold the step and the
    gradient change of every start's j-th pair, of which the first
    ``count[i]`` are valid for start i.  ``inv`` is ``(m, C)``, 1 / (step .
    change) of each valid pair and 0 past them.  A change is g_old - g_new,
    the gradient change of the negated objective, so every stored pair has
    positive curvature.  The two-loop recursion scales by (s . y) / (y . y)
    of the newest pair.
    """
    r = grad.copy()
    depth = count.max(initial=0)
    alpha = []
    for j in range(depth):
        alpha.append(inv[j] * np.vecdot(steps[j], r))
        r -= alpha[j][:, None] * changes[j]
    if depth:
        newest = changes[0]
        r *= np.divide(1.0, inv[0] * np.vecdot(newest, newest), out=np.ones(len(r)),
                       where=count > 0)[:, None]
    for j in reversed(range(depth)):
        beta = inv[j] * np.vecdot(changes[j], r)
        r += (alpha[j] - beta)[:, None] * steps[j]
    return r


def _takes_newton_steps(sign: float, n: int) -> bool:
    """Whether ``_ascend`` climbs by Newton directions: a maximization on an
    ancilla whose n(n - 1) gauge-free generators are no more than the L-BFGS
    memory, that is n <= 3."""
    return sign > 0 and n * (n - 1) <= BFGS_MEMORY


@functools.cache
def _newton_frame(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The off-diagonal Hermitian generators E_l of the n-level ancilla and their rotations.

    Returns the k = n(n - 1) generators (e_ab + e_ba) / sqrt 2 and i(e_ab -
    e_ba) / sqrt 2, a < b, orthonormal under Re Tr(AB), as the rows of a
    ``(k, 2n^2)`` real matrix, and the ``(k, n, n)`` unitaries exp(i eps
    E_l), eps = ``HESSIAN_STEP``.  The diagonal generators are left out:
    they only rephase the components, so every Riemannian gradient is zero
    on them.  Built once per n and shared by every roof, so both arrays are
    read-only.
    """
    a, b = np.triu_indices(n, 1)
    pairs = np.arange(len(a))
    gens = np.zeros((2, len(a), n, n), dtype=complex)
    gens[0, pairs, a, b] = gens[0, pairs, b, a] = math.sqrt(0.5)
    gens[1, pairs, a, b], gens[1, pairs, b, a] = 1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
    gens = gens.reshape(-1, n, n)
    lam, vecs = np.linalg.eigh(gens)
    moves = _geodesic(vecs, lam, vecs.conj().swapaxes(-1, -2),
                      np.full((len(gens), 1), HESSIAN_STEP))[:, 0]
    frame = gens.view(float).reshape(len(gens), -1)
    frame.flags.writeable = moves.flags.writeable = False
    return frame, moves


def _scores(gram: np.ndarray, u: np.ndarray, functional: RoofFunctional, sign: float,
            frame: np.ndarray | None, moves: np.ndarray | None):
    """Signed objectives, Riemannian gradients and, for Newton steps, Hessians of a stack.

    ``u`` is a ``(C, n, n)`` stack.  Without ``frame`` (L-BFGS steps) this
    is one gradient pass of ``_objective`` and the Hessians are None.  With
    ``frame`` and ``moves`` of ``_newton_frame`` the same pass also scores
    the k rotated unitaries exp(i eps E_l) U, and the ``(C, k, k)`` Hessian
    in the frame is the one-sided difference h_lm = Re Tr((Gamma_l - Gamma)
    E_m) / eps, symmetrized, with Gamma the gradient at U and Gamma_l those
    at the rotated unitaries: for the bi-invariant metric, the Riemannian
    Hessian along the geodesics exp(itH) U.
    """
    if frame is None:
        vals, grad = _objective(gram, u, functional, gradient=True)
        return sign * vals, sign * grad, None
    c, n = u.shape[:2]
    k = len(frame)
    stack = np.concatenate([u[:, None], moves @ u[:, None]], axis=1).reshape(-1, n, n)
    vals, grad = _objective(gram, stack, functional, gradient=True)
    grad = sign * grad.reshape(c, 1 + k, n, n)
    coords = grad.view(float).reshape(c, 1 + k, -1) @ frame.T
    hess = (coords[:, 1:] - coords[:, :1]) / HESSIAN_STEP
    return sign * vals.reshape(c, -1)[:, 0], grad[:, 0], 0.5 * (hess + hess.swapaxes(-1, -2))


def _newton_direction(grad: np.ndarray, hess: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Saddle-free Newton ascent directions of a stack of starts.

    ``grad`` is ``(C, 2n^2)`` (see ``_lbfgs_direction``) and ``hess`` the
    ``(C, k, k)`` Hessians in the generators of ``frame``.  With g_E the
    gradient's coordinates and V diag(w) V^T the Hessian, the direction is
    sum_l c_l E_l with c = V diag(1 / max(|w|, CURVATURE_FLOOR)) V^T g_E: the
    Newton step where the Hessian is negative definite, and an ascent
    direction wherever the gradient is not zero.
    """
    w, v = np.linalg.eigh(hess)
    turned = (grad @ frame.T)[:, None, :] @ v / np.maximum(np.abs(w), CURVATURE_FLOOR)[:, None, :]
    return (turned @ v.swapaxes(-1, -2))[:, 0] @ frame


def _select(mask: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Rows of the ``(C, ...)`` stack ``new`` where ``mask``, of ``old`` elsewhere."""
    return np.where(mask.reshape(-1, *(1,) * (new.ndim - 1)), new, old)


def _push(memory: tuple[np.ndarray, ...], newest: tuple[np.ndarray, ...],
          rows: np.ndarray | None = None) -> None:
    """Shift the ``(m, C, ...)`` stacks of ``memory`` one slot older and put
    ``newest`` first, for the starts ``rows`` (``newest`` holds their rows
    only) or for every start."""
    for stack, new in zip(memory, newest):
        if rows is None:
            stack[1:], stack[0] = stack[:-1], new
        else:
            stack[1:, rows], stack[0, rows] = stack[:-1, rows], new


def _ascend(gram: np.ndarray, us: np.ndarray, functional: RoofFunctional, sign: float,
            cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton or quasi-Newton ascents of ``sign`` times the objective, all starts in one stack.

    Start i climbs from ``us[i]``, which receives its final unitary.  Each
    iteration takes, for every live start, a direction D in the Hermitian
    Lie algebra and makes two scoring passes.  The first scores the
    geodesic exp(i mu D) U at the angle grid ``LINE_ANGLES`` and at the
    direction's own unit step mu = 1, formed as one stack of unitaries
    (``_geodesic``), with ``_objective``; the second evaluates the winning
    candidate once more, with its gradient (``_scores``).

    The direction rule is fixed before the loop (``_takes_newton_steps``).
    A maximization on an ancilla of n <= 3 takes saddle-free Newton
    directions (``_newton_direction``) from the exact Riemannian Hessian,
    whose n(n - 1) x n(n - 1) entries the gradient pass at each accepted
    point gives from n(n - 1) rotated unitaries in the same stack; such a
    direction always ascends, and a step that does not stops the start.
    The rule has two conditions.  Newton directions at n >= 4 wait on a
    large-ancilla workload to measure them (a prototype was faster at n = 4
    and 6 but slower at 8), so L-BFGS keeps those searches.  And L = 2|z|
    has a kink at z = 0: a maximization moves components away from it, a
    minimization drives them into it, where the curvature is unbounded and
    Newton steps were measured slower than L-BFGS ones.

    Every other search takes limited-memory BFGS directions (the
    Riemannian gradient when the memory is empty).  An accepted step with
    positive curvature is pushed onto the start's memory, two
    ``(BFGS_MEMORY, C, 2n^2)`` stacks of steps and gradient changes, newest
    first, the oldest pair dropping out.  A step that does not ascend
    clears the memory, or, from the gradient direction, stops the start.

    A start also stops once its gradient norm falls below
    ``cfg.tolerance`` or after ``cfg.local_steps`` iterations.  Starts never
    read each other's state, and a stopped start leaves the stack.  When
    every live start is uphill, or every one is accepted, the iteration
    skips the per-start selects (``_select``), which leaves every start's
    arithmetic unchanged.  Returns the signed objectives of the final
    unitaries, why each start stopped (``TOLERANCE``, ``NO_ASCENT`` or
    ``BUDGET``) and the number of iterations.
    """
    c, n = len(us), us.shape[-1]
    newton = _takes_newton_steps(sign, n)
    frame, moves = _newton_frame(n) if newton else (None, None)
    live = np.arange(c)
    u = us.copy()
    vals, grad, hess = _scores(gram, u, functional, sign, frame, moves)
    if not newton:
        # every start's memory, newest pair first (see _lbfgs_direction)
        steps = np.zeros((BFGS_MEMORY, c, 2 * n * n))
        changes = np.zeros((BFGS_MEMORY, c, 2 * n * n))
        inv = np.zeros((BFGS_MEMORY, c))
        count = np.zeros(c, dtype=int)
    failed = np.zeros(c, dtype=bool)
    final = np.empty(c)
    reason = np.full(c, BUDGET)
    iterations = 0
    for it in range(cfg.local_steps + 1):
        g = grad.view(float).reshape(len(live), -1)
        small = np.vecdot(g, g) < cfg.tolerance ** 2
        stop = small | failed
        if stop.any():
            done, go = stop.nonzero()[0], (~stop).nonzero()[0]
            reason[live[done]] = np.where(small[done], TOLERANCE, NO_ASCENT)
            us[live[done]], final[live[done]] = u[done], vals[done]
            live, u, vals, grad, g = live[go], u[go], vals[go], grad[go], g[go]
            if newton:
                hess = hess[go]
            else:
                steps, changes, inv, count = steps[:, go], changes[:, go], inv[:, go], count[go]
            if not len(live):
                return final, reason, iterations
        if it == cfg.local_steps:
            break
        iterations += len(live)
        if newton:
            d = _newton_direction(g, hess, frame)
        else:
            d = _lbfgs_direction(g, steps, changes, inv, count)
            # a direction that does not ascend to first order falls back to
            # the gradient and clears the memory
            uphill = np.vecdot(d, g) > 0.0
            if not uphill.all():
                d = _select(uphill, d, g)
                count *= uphill
                inv *= uphill
        lam, vecs = np.linalg.eigh(d.view(complex).reshape(-1, n, n))
        back = vecs.conj().swapaxes(-1, -2) @ u
        # the grid's angles, then the direction's own unit step
        mus = np.concatenate([LINE_ANGLES / np.abs(lam).max(axis=1)[:, None],
                              np.ones((len(live), 1))], axis=1)
        line = _geodesic(vecs, lam, back, mus)
        scores = np.concatenate([vals[:, None], sign * _objective(gram, line, functional)], axis=1)
        best = scores.argmax(axis=1)
        # the winning candidate; at best = 0, the current point, the step is
        # rejected whatever it is
        rows, pick = np.arange(len(live)), np.maximum(best, 1) - 1
        new_u, mu = line[rows, pick], mus[rows, pick]
        new_vals, new_grad, new_hess = _scores(gram, new_u, functional, sign, frame, moves)
        accept = (best > 0) & (new_vals > vals)
        if newton:
            # a rejected start stops before its Hessian is read again
            failed, hess = ~accept, new_hess
        else:
            step, change = mu[:, None] * d, g - new_grad.view(float).reshape(len(live), -1)
            curvature = np.vecdot(step, change)
            curved = accept & (curvature > 0.0)
            if curved.all():
                _push((steps, changes, inv), (step, change, 1.0 / curvature))
            elif curved.any():
                push = curved.nonzero()[0]
                _push((steps, changes, inv), (step[push], change[push], 1.0 / curvature[push]),
                      push)
            # a rejected step clears the memory, and stops a start that took
            # it along the gradient
            failed = ~accept & (count == 0)
            count = np.minimum(count + curved, BFGS_MEMORY)
            if not accept.all():
                count *= accept
                inv *= accept
        if accept.all():
            u, vals, grad = new_u, new_vals, new_grad
        else:
            u, vals = _select(accept, new_u, u), _select(accept, new_vals, vals)
            grad = _select(accept, new_grad, grad)
    us[live], final[live] = u, vals
    return final, reason, iterations


def optimize_roof(rho: State,
                  functional: RoofFunctional,
                  direction: str,
                  cfg: OptimizerConfig | None = None,
                  ancilla_dim: int | None = None) -> RoofResult:
    """Best weighted component average of ``functional`` over pure decompositions.

    ``direction`` is ``"min"`` or ``"max"``, and it alone picks restart 0.
    A maximization ascends from the best eigenvector grouping split into
    pure components that keep each block's means (``_split_start``), so its
    value is never below that of any grouping it scores; a minimization
    ascends from the identity, so the eigendecomposition is always a
    candidate.  Restart r > 0 ascends from the Haar random unitary that
    ``haar_random_unitary`` gives on ``default_rng([seed, 0, r])`` (one
    batched QR makes them all).  All starts advance in one stack
    (``_ascend``) by steps in the Hermitian Lie algebra, with a line search
    along the geodesic exp(i mu D) U: saddle-free Newton steps from the
    exact Riemannian Hessian for a maximization on an ancilla of n <= 3,
    limited-memory BFGS steps for every other search.  A start stops on the
    gradient tolerance ``cfg.tolerance``, when a step along the gradient
    (or a Newton step) finds no ascent, or after ``cfg.local_steps``
    iterations, and then leaves the stack.  A pure state is its own only
    decomposition.

    No component is formed: every moment, gradient, Hessian and line-search
    score comes from ``_objective`` on the Gram stack G = m^dag [I, X_1, ..]
    m of the purification matrix m and the functional's ``ops``, built once;
    the search reads only its first r rows (r the rank of rho), since m's
    padding columns make the others zero.  ``evaluations`` counts one per
    start plus one per iteration, and for a maximization also every scored
    grouping but the one climbed.  The winner
    is the best start, the first of equals, and ``converged`` says that it
    stopped on the tolerance or on no ascent, not on the budget.  A
    functional that is not a ``RoofFunctional`` raises ``TypeError``, one
    whose operators act on another dimension than rho
    ``DimensionMismatchError``, and an ``ancilla_dim`` that is not an
    integer >= 1 ``ValueError``, on a pure state too.  Each call logs one
    debug line with its starts, direction rule (``newton`` or ``lbfgs``),
    iterations, evaluations, stop reasons and wall time.

    The returned value is that of the witness unitary, evaluated after its
    last step, so it is exact for the witness decomposition and always on
    the certified side of the true roof.
    """
    started = time.perf_counter()
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    _require_functional(functional)
    rho = state_density(rho)
    functional.check_dim(rho.dim)
    if ancilla_dim is not None:
        _require_count(ancilla_dim, "ancilla_dim", 1)
    if rho.rank() == 1:
        psi = PureState(_support(rho)[1][:, 0])
        return RoofResult(value=functional.on_state(psi), decomposition=Decomposition(((1.0, psi),)),
                          converged=True, evaluations=1)
    cfg = cfg or OptimizerConfig()
    m = purify(rho, ancilla_dim)
    gram = _gram_stack(m, functional.ops)
    n = m.shape[1]
    us = np.empty((cfg.restarts, n, n), dtype=complex)
    if direction == "max":
        sign = 1.0
        us[0], scored = _split_start(gram, functional)
    else:
        sign, scored = -1.0, 1
        us[0] = np.eye(n)
    if cfg.restarts > 1:
        us[1:] = _haar_from_ginibre(np.array([
            _ginibre(n, np.random.default_rng([cfg.seed, 0, r])) for r in range(1, cfg.restarts)]))
    # rows past the rank are zero: m's padding columns
    vals, reason, iterations = _ascend(gram[:rho.rank()], us, functional, sign, cfg)
    evaluations = scored + cfg.restarts - 1 + iterations
    best = int(np.argmax(vals))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("optimize_roof: %d starts, %s directions, %d iterations, %d evaluations, "
                  "stopped on %s, %.4f s", cfg.restarts,
                  "newton" if _takes_newton_steps(sign, n) else "lbfgs", iterations, evaluations,
                  ", ".join(f"{name} {np.sum(reason == code)}"
                            for code, name in enumerate(STOP_REASONS)),
                  time.perf_counter() - started)
    return RoofResult(value=float(sign * vals[best]),
                      decomposition=extract_decomposition(m, us[best]),
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


def concave_roof_L(rho: State, a: HermitianOperator, b: HermitianOperator,
                   cfg: OptimizerConfig | None = None,
                   ancilla_dim: int | None = None) -> RoofResult:
    """Maximized average Robertson-Schrodinger bound L over decompositions.

    Mixed components never score more than pure ones: a rotation inside a
    mixed component splits it into pure components that share its means
    <A> and <B> (``_split_block``), their values of z = <AB> - <A><B>
    average to the component's, and L = 2|z|, so by the triangle inequality
    they score at least the component's L (see the README).  So the search
    of ``optimize_roof`` over pure decompositions is the roof, and its
    restart 0, the best split eigenvector grouping, keeps the value never
    below K (qutrits) nor below L(rho), at any ancilla dimension.
    """
    return optimize_roof(rho, RobertsonSchrodingerBound(a, b), "max", cfg=cfg,
                         ancilla_dim=ancilla_dim)


# ---------------------------------------------------------------------------
# mixed components split into pure ones with the same means
# ---------------------------------------------------------------------------

def _eigen_groupings(n: int) -> list[list[tuple[int, ...]]]:
    """Groupings of n eigenvector indices: every index alone, all merged, and
    each index alone with the rest merged (for a qutrit, all five)."""
    every = tuple(range(n))
    return ([[(k,) for k in every], [every]]
            + [[(k,), every[:k] + every[k + 1:]] for k in every])


def _split_block(g: np.ndarray) -> np.ndarray:
    """Unitary w on one block of ancilla indices that splits its component into pure ones.

    ``g`` holds the block's Gram matrices G_I, G_A, G_B (``(3, k, k)``).
    With the block's means a = Tr G_A / Tr G_I and b = Tr G_B / Tr G_I,
    X = conj(w) zeroes the diagonals of X H X^dag for the traceless H_1 =
    G_A - a G_I and H_2 = G_B - b G_I (Fillmore, Amer. Math. Monthly 76, 167
    (1969)), so every component of the block's rows of w has means a and b.
    Without G_B (a functional of one moment operator) only H_1 is zeroed.
    Two passes of k - 1 rotations of indices (i, j), the largest positive
    and the most negative diagonal entry, build X: real ones zero diag H_1,
    then ones of phase e^{i phi} with Re(e^{-i phi} H_1[i, j]) = 0, which
    keep those zeros, zero diag H_2.  Each angle t solves alpha + beta cos 2t
    + gamma sin 2t = 0 for entry i.  A block lighter than ``WEIGHT_DROP`` is
    left as it is.
    """
    k = g.shape[-1]
    weight = float(g[0].trace().real)
    if weight < WEIGHT_DROP:
        return np.eye(k, dtype=complex)
    # scalar rotations of nested lists: at these sizes numpy's per-call cost dominates
    h = (g[1:] - (g[1:].trace(axis1=1, axis2=2).real / weight)[:, None, None] * g[0]).tolist()
    # diag H_t = p_l sum_m p_m (mu_l - mu_m) / W with p = diag G_I and the component
    # means mu_l = G_t[l, l] / p_l: differences of means, so that no O(1) terms
    # cancel in a nearly pure block
    p_diag = g[0].diagonal().real.tolist()
    for target, moments in zip(h, g[1:].diagonal(axis1=1, axis2=2).real.tolist()):
        mu = [m / q if q > 0.0 else 0.0 for m, q in zip(moments, p_diag)]
        for a in range(k):
            spread = sum([q * (mu[a] - nu) for q, nu in zip(p_diag, mu)])
            target[a][a] = p_diag[a] * spread / weight
    x = np.eye(k, dtype=complex).tolist()
    for target in h:
        for _ in range(k - 1):
            d = [target[a][a].real for a in range(k)]
            i, j = d.index(max(d)), d.index(min(d))
            if not d[i] > 0.0 > d[j]:
                break
            h1_ij = h[0][i][j]
            phase = 1j * h1_ij / abs(h1_ij) if target is not h[0] and h1_ij else 1.0
            alpha, beta = 0.5 * (d[i] + d[j]), 0.5 * (d[i] - d[j])
            gamma = (phase.conjugate() * target[i][j]).real
            cosine = max(-1.0, min(1.0, -alpha / math.hypot(beta, gamma)))
            t = 0.5 * (math.atan2(gamma, beta) + math.acos(cosine))
            c, s = math.cos(t), math.sin(t)
            sp, sm = s * phase, -s * phase.conjugate()
            # rows i and j of H_1, H_2 and X, then columns i and j of H_1 and H_2
            for mat in (*h, x):
                ri, rj = mat[i], mat[j]
                mat[i] = [c * p + sp * q for p, q in zip(ri, rj)]
                mat[j] = [sm * p + c * q for p, q in zip(ri, rj)]
            for row in [line for mat in h for line in mat]:
                p, q = row[i], row[j]
                row[i] = c * p + sp.conjugate() * q
                row[j] = sm.conjugate() * p + c * q
    return np.array(x).conj()


def _split_start(gram: np.ndarray, functional: RoofFunctional) -> tuple[np.ndarray, int]:
    """Restart 0 of a maximization and the number of groupings scored to choose it.

    Every grouping of ``_eigen_groupings``, each block split by
    ``_split_block`` on the first two moment operators of ``functional``
    ([A, B] of the bound L and of a sum of two or more variances, [A, A^2]
    of one variance), is a block-diagonal unitary and a pure decomposition
    whose components keep their block's two means; all are scored in one
    ``_objective`` call.  ``gram`` is the functional's Gram stack.  For L
    and for a sum of at most two variances, every split scores at least its
    grouping (see the README); for such a sum the split trivial grouping
    scores sum_n Var_rho(A_n), the concave roof itself.
    """
    n = gram.shape[0]
    grams = gram.reshape(n, -1, n).swapaxes(0, 1)[:3]
    groupings = _eigen_groupings(n)
    us = np.tile(np.eye(n, dtype=complex), (len(groupings), 1, 1))
    for u, grouping in zip(us, groupings):
        for block in grouping:
            if len(block) > 1:
                u[np.ix_(block, block)] = _split_block(grams[:, block][:, :, block])
    return us[int(np.argmax(_objective(gram, us, functional)))], len(us)


# ---------------------------------------------------------------------------
# closed-form constructions
# ---------------------------------------------------------------------------

def qubit_z_line_decomposition(rho: State) -> Decomposition:
    """Two-point decomposition of a qubit along the Bloch z direction.

    Both components sit where the vertical line through the Bloch vector
    pierces the sphere, so they share every x/y moment with the mixture;
    this makes the decomposition saturate the concave-roof uncertainty bound
    for operator pairs in the xy plane.  It is the trivial grouping split by
    ``_split_block`` on sigma_x and sigma_y.  A pure qubit is its own
    one-point decomposition.
    """
    rho = state_density(rho)
    if rho.dim != 2:
        raise ValueError("z-line decomposition is defined for qubits only")
    m = purify(rho)
    one_x_y = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
    return extract_decomposition(m, _split_block(m.conj().T @ one_x_y @ m))


def eigen_partition_bound_K(rho: State, a: HermitianOperator,
                            b: HermitianOperator) -> float:
    """Best uncertainty bound over eigenvector groupings of a qutrit.

    Candidates: the full eigendecomposition average, the three mixed
    decompositions that keep one eigenvector pure and merge the other two,
    and the trivial decomposition (the plain Robertson-Schrodinger bound);
    each block's moments are the sums of its eigenvectors' moments.  These
    are the groupings from which ``_split_start`` picks restart 0 of every
    maximization, ``concave_roof_L`` included, each split into pure
    components that score at least as much, so the roof is never below K.
    Degenerate spectra use the eigenbasis exactly as the solver returns it,
    which keeps runs reproducible at the cost of possible suboptimality.  A
    ``PureState`` is its own only decomposition, so its K is its L.
    """
    rho = state_density(rho)
    if rho.dim != 3:
        raise ValueError("the eigenvector-partition bound is defined for qutrits")
    functional = RobertsonSchrodingerBound(a, b)
    mom = functional._support_moments(rho)
    groupings = _eigen_groupings(len(mom))
    blocks = [block for grouping in groupings for block in grouping]
    owner = [g for g, grouping in enumerate(groupings) for _ in grouping]
    terms = _block_terms(np.array([mom[list(block)].sum(axis=0) for block in blocks]), functional)
    return float(np.max(np.bincount(owner, weights=terms)))
