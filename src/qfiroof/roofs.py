"""Convex and concave roofs of variance-like functionals over decompositions.

A mixed state of rank r has infinitely many decompositions into weighted
pure components.  Every one with at most n >= r components is m W^T for its
support factor m = V_S sqrt(lambda_S) and an n x r isometry W (W^dag W = 1;
Hughston, Jozsa & Wootters, Phys. Lett. A 183, 14 (1993)).  The optimizer
climbs those isometries from seeded starts along directions in the Hermitian
Lie algebra of the n-level ancilla, driven by the analytic Riemannian
gradient, with a line search along each geodesic exp(i mu D) W that scores
the formed candidate isometries of an angle grid and of the direction's own
unit step mu = 1 with the same objective as every other step.  A
maximization on an ancilla of at most three levels takes saddle-free Newton
directions from the exact Riemannian Hessian; every other search takes
limited-memory BFGS directions.

Mixed components are never searched.  Convex roofs are defined over pure
decompositions, and for the concave roofs of the uncertainty bound L and of
a sum of at most two variances a rotation inside any mixed component splits
it into pure ones that share its means and together score at least as much
(``_split_block``); groupings of the eigenvectors, split this way, enter
only as the first start of every maximization.

A functional carries only its operators A_j and names the products A_l A_r
it reads (``RoofFunctional``).  Every score comes from one Gram stack of the
support images (A_j - <A_j>) m, centred on the state (``_gram_stack``): the
search depends on d only through it, no operator product is formed, and a
shift A_j + c 1 leaves every score unchanged.

The convex roof of one variance, F_Q[rho, B]/4, needs no search: its
Fisher decomposition (``_fisher_start``) attains it, and starts every
variance-sum minimization.

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
    _ginibre,
    _require_count,
    _haar_from_ginibre,
    _support,
)

log = logging.getLogger(__name__)

WEIGHT_DROP = 1e-14       # decomposition components lighter than this are discarded
UNITARY_TOL = 1e-9        # largest entry of w^dag w - 1 an ancilla isometry may carry


# ---------------------------------------------------------------------------
# decompositions and purifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Weighted components whose mixture reconstructs a target state."""

    components: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        weights = [p for p, _ in self.components]
        if not all(0.0 < p < np.inf for p in weights):
            raise ValueError(f"decomposition weights must be positive and finite, got {weights!r}")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {sum(weights)!r}, not 1")
        if len({state.dim for _, state in self.components}) > 1:
            raise DimensionMismatchError("decomposition components act on different dimensions")

    def mixture(self) -> np.ndarray:
        """sum_a p_a rho_a as one product V diag(w) V^dag of the components' stacked
        supports V, with weights w = p_a lambda_a: no d x d array per component."""
        vs = np.concatenate([_support(state)[1] for _, state in self.components], axis=1)
        weights = np.concatenate([p * _support(state)[0] for p, state in self.components])
        return (vs * weights) @ vs.conj().T

    def reconstructs(self, target: DensityMatrix, tol: float = 1e-8) -> bool:
        dim = self.components[0][1].dim
        if target.dim != dim:
            raise DimensionMismatchError(f"the components act on dimension {dim}, "
                                         f"the target on dimension {target.dim}")
        return bool(np.max(np.abs(self.mixture() - target.mat)) <= tol)

    def __len__(self) -> int:
        return len(self.components)


def purify(rho: DensityMatrix) -> np.ndarray:
    """Support factor m = V_S sqrt(lambda_S) of rho, d x r for rank r, so m m^dag = rho.

    It purifies rho for every ancilla of n >= r levels through an n x r
    isometry, with no zero padding: see ``extract_decomposition``.
    """
    lam, vs = _support(rho)
    return (vs * np.sqrt(lam)).astype(complex, copy=False)


def extract_decomposition(m: np.ndarray, w: np.ndarray) -> Decomposition:
    """Pure-state decomposition of m m^dag induced by the ancilla isometry ``w``.

    ``w`` is any n x r isometry (w^dag w = 1) with n >= r, the columns of the
    support factor m (``purify``); of an n x n unitary u, pass u[:, :r].
    Column a of v = m w^T is the unnormalised vector of component a, of weight
    p_a its squared norm; components lighter than ``WEIGHT_DROP`` are dropped.
    w's columns are orthonormal, so v v^dag = m m^dag.
    """
    r = m.shape[1]
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[1] != r or len(w) < r:
        raise ValueError(f"ancilla isometry must be n x {r} with n >= {r} (of an n x n unitary u, "
                         f"pass u[:, :{r}]), got shape {w.shape}")
    if not np.max(np.abs(w.conj().T @ w - np.eye(r))) <= UNITARY_TOL:
        raise ValueError("ancilla matrix is not an isometry")
    v = m @ w.T
    weights = np.sum(np.abs(v) ** 2, axis=0)
    return Decomposition(tuple((float(p), PureState(v[:, a] / np.sqrt(p)))
                               for a, p in enumerate(weights) if p >= WEIGHT_DROP))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

class RoofFunctional:
    """Functional of a decomposition component that reads only its moments.

    ``ops`` is the ``(x, d, d)`` stack of the functional's operators A_j,
    and the index arrays ``left`` and ``right`` name the products whose
    moments it also reads: A_l A_r for every pair (l, r) of ``zip(left,
    right)``.  f(sigma) must not change when an operator is shifted by c 1,
    as Var, L and their roofs do not (Toth & Petz, PRA 87, 032324 (2013)):
    every moment is read with each A_j centred on the state being
    decomposed (``_centred_images``), so that no mean is ever subtracted from a
    much larger second moment.  ``terms`` maps component weights and moments
    to p f(sigma) and, for the optimizer's Riemannian gradient, to its
    derivatives.  The optimizer never forms sigma: it takes every start's
    moments from one Gram stack of the support factor (see ``optimize_roof``).
    """

    ops: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def terms(self, p: np.ndarray, mom: np.ndarray, gradient: bool = False):
        """p f(sigma) of every component, and with ``gradient`` its derivatives.

        ``p`` holds the component weights (shape ``(...)``, each positive)
        and ``mom`` the unnormalised moments, p Tr(sigma A_j) for every
        operator and then p Tr(sigma A_l A_r) for every named product (shape
        ``(..., x + k)``, complex).  With ``gradient``, also returns the
        ``(..., x+k+1)`` coefficient row: the derivative in p, then those in
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

    def on_state(self, state: DensityMatrix) -> float:
        """f(state) from the moments of its support, summed over its eigenvectors
        (``_support_moments``)."""
        self.check_dim(state.dim)
        return float(_block_terms(_support_moments(purify(state), self).sum(axis=0), self))


class VarianceSum(RoofFunctional):
    """sum_n Var(A_n) on a component, from the moments of the A_n and of every A_n A_n."""

    def __init__(self, ops: Sequence[HermitianOperator]):
        if not ops:
            raise ValueError("need at least one operator")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise DimensionMismatchError("operators act on different dimensions")
        self.ops = np.array([op.mat for op in ops])
        self.left = self.right = np.arange(len(ops))

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
    moments of A, B and their product AB: the covariance term is twice the
    real part of <AB> minus 2<A><B> and the commutator mean is minus twice
    its imaginary part.
    """

    def __init__(self, a: HermitianOperator, b: HermitianOperator):
        if a.dim != b.dim:
            raise DimensionMismatchError("operators act on different dimensions")
        self.ops = np.array([a.mat, b.mat])
        self.left, self.right = np.array([0]), np.array([1])

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
# Newton and quasi-Newton ascent over ancilla isometries
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


def _centred_images(m: np.ndarray, functional: RoofFunctional) -> np.ndarray:
    """The ``(x, d, r)`` support images Y_j = (A_j - <A_j>) m, centred on m m^dag."""
    y = functional.ops @ m
    y -= (m.conj().T @ y).trace(axis1=1, axis2=2).real[:, None, None] * m
    return y


def _gram_stack(m: np.ndarray, functional: RoofFunctional) -> np.ndarray:
    """G = [m^dag m, m^dag Y_j, Y_l^dag Y_r] as one r x (x+k+1)r matrix, r the columns of m.

    Y_j are the centred images (``_centred_images``) and (l, r) the k products
    ``functional`` names.  Isometry W gives component a the moments (conj(W) G_j W^T)_aa.
    """
    mh, y = m.conj().T, _centred_images(m, functional)
    grams = np.concatenate([(mh @ m)[None], mh @ y,
                            y[functional.left].conj().swapaxes(-1, -2) @ y[functional.right]])
    return grams.transpose(1, 0, 2).reshape(m.shape[1], -1)


def _support_moments(m: np.ndarray, functional: RoofFunctional) -> np.ndarray:
    """The ``(r, x+k+1)`` moments of the columns m_k of m, by column contractions:
    lambda_k = m_k^dag m_k, m_k^dag Y_jk and Y_lk^dag Y_rk (``_centred_images``)."""
    y = _centred_images(m, functional)
    return np.concatenate([np.vecdot(m, m, axis=0)[None], np.vecdot(m, y, axis=-2),
                           np.vecdot(y[functional.left], y[functional.right], axis=-2)]).T


def _state_value(gram: np.ndarray, functional: RoofFunctional) -> float:
    """f(rho) of the state whose Gram stack is ``gram``, from its block traces."""
    r = gram.shape[0]
    traces = gram.reshape(r, -1, r).diagonal(axis1=0, axis2=2).T.sum(axis=0)
    return float(_block_terms(traces, functional))


def _fisher_floor(gram: np.ndarray, functional: VarianceSum) -> float:
    """sum_n F_Q[rho, A_n]/4 of a variance sum from its Gram stack: each term is
    tr G_{AA} - sum_kl 2 |G_{A,kl}|^2 / (lambda_k + lambda_l), lambda = diag G_0."""
    r, x = gram.shape[0], len(functional.ops)
    grams = gram.reshape(r, -1, r).swapaxes(0, 1)
    lam = grams[0].diagonal().real
    inside = (np.abs(grams[1:x + 1]) ** 2 / (lam[:, None] + lam[None, :])).sum()
    return float(grams[x + 1:].trace(axis1=1, axis2=2).real.sum() - 2.0 * inside)


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


def _objective(gram: np.ndarray, ws: np.ndarray, functional: RoofFunctional,
               gradient: bool = False):
    """sum_a p_a f(component_a) for every isometry of a ``(..., n, r)`` stack ``ws``.

    Each W meets the r x (x+k+1)r ``gram`` (``_gram_stack``).  One GEMM gives
    conj(W) G, and one batched mat-vec the component moments (conj(W) G_j
    W^T)_aa of every isometry, in both modes, and ``functional.terms``
    computes the values before it branches on ``gradient``, so a plain pass
    scores bit for bit like a gradient pass.  Returns the ``(...)``
    objectives; with ``gradient`` (a ``(C, n, r)`` stack), also the
    Riemannian gradients (Hermitian, ``(C, n, n)``), for which a second GEMM
    forms the n x n Q_j = conj(W) G_j W^T.

    The gradient: W <- exp(i eps H) W moves Q_j by i eps [Q_j, H^T], so with
    c_aj the coefficient row of component a (``terms``; j = 0 the weight) and
    Y = sum_j (conj(c_j) Q_j - Q_j conj(c_j)) (c_j diagonal), the objective
    moves by eps Re Tr(i Y H^T) = eps Tr(Gamma H) with Gamma the Hermitian
    part of conj(i Y).
    """
    n, r = ws.shape[-2:]
    wg = (ws.conj().reshape(-1, r) @ gram).reshape(*ws.shape[:-1], -1, r)  # (..., n, x+1, r)
    mom = (wg @ ws[..., None])[..., 0]                                      # (..., n, x+1)
    if not gradient:
        return _block_terms(mom, functional).sum(axis=-1)
    terms, coef = _block_terms(mom, functional, gradient=True)
    c, big = len(ws), wg.shape[2]
    q = (wg.reshape(c, n * big, r) @ ws.swapaxes(-1, -2)).reshape(c, n, big, n)
    row_coef = coef.conj()
    # Y_ab = sum_j Q_j[a, b] (conj(c_aj) - conj(c_bj))
    y = (q * (row_coef[..., None] - row_coef.swapaxes(-1, -2)[..., None, :, :])).sum(axis=-2)
    return terms.sum(axis=-1), 0.5j * (y.swapaxes(-1, -2) - y.conj())


def _geodesic(vecs: np.ndarray, lam: np.ndarray, back: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """exp(i mu D) W = V e^{i mu lam} (V^dag W) for every step ``mus[i, t]`` of a ``(C, T)`` grid.

    ``vecs`` and ``lam`` are the ``(C, n, n)`` eigenvectors and ``(C, n)``
    spectra of the directions D, ``back`` the ``(C, n, r)`` products V^dag W;
    returns the ``(C, T, n, r)`` candidate isometries, formed by one ``(C,
    T n, n) @ (C, n, r)`` product.
    """
    turn = np.exp(1j * mus[:, :, None] * lam[:, None, :])                 # (C, T, n)
    c, t, n = turn.shape
    return ((vecs[:, None] * turn[:, :, None, :]).reshape(c, t * n, n) @ back).reshape(c, t, n, -1)


BFGS_MEMORY = 6           # (step, gradient change) pairs kept per start
HESSIAN_STEP = 1e-8       # rotation eps of the gradient differences that give a Newton Hessian
CURVATURE_FLOOR = 1e-8    # Hessian eigenvalues smaller in magnitude are inverted as this
# rotation angles mu max|lam| tried along each direction, besides the unit step
# mu = 1: pi / 4 down to pi / 4^12
LINE_ANGLES = np.pi / 4.0 ** np.arange(12, 0, -1)
_LINE_ROW = np.append(LINE_ANGLES, 0.0)   # the grid and a slot for the unit step
TOLERANCE, NO_ASCENT, BUDGET = range(3)          # why a start stopped
# round-off, relative to sum_n Var_rho(A_n), within which restart 0 of a variance-sum
# roof meets its bound sum Var(rho) or sum F_Q[A_n]/4, and no start climbs (measured up
# to 6e-14 on qubits); a shift A_n + c 1 moves neither bound nor scale
BOUND_RTOL = 1e-12
STOP_REASONS = ("tolerance", "no_ascent", "budget")


def _lbfgs_direction(grad: np.ndarray, steps: np.ndarray, changes: np.ndarray,
                     inv: np.ndarray) -> np.ndarray:
    """Limited-memory BFGS ascent directions of a stack of starts.

    ``grad`` is ``(C, k)`` (Hermitian matrices as real vectors, whose dot
    product is Re Tr(A B)).  ``steps`` and ``changes`` are ``(C, m, k)``,
    start first and newest pair first, and ``inv`` is ``(C, m)``, 1 / (step
    . change) of each stored pair and 0 in an empty slot, whatever stale
    pair it holds.  A start's pairs fill its leading slots, so ``inv`` gives
    the depth (the deepest start's), the scaling and the empty memories,
    which return the gradient.  A change is g_old - g_new, the gradient
    change of the negated objective, so every stored pair has positive
    curvature.  The two-loop recursion scales by (s . y) / (y . y) of the
    newest pair.
    """
    r = grad.copy()
    depth = np.count_nonzero(inv.any(axis=0))
    alpha = []
    for j in range(depth):
        alpha.append(inv[:, j] * np.vecdot(steps[:, j], r))
        r -= alpha[j][:, None] * changes[:, j]
    if depth:
        newest = changes[:, 0]
        r *= np.divide(1.0, inv[:, 0] * np.vecdot(newest, newest), out=np.ones(len(r)),
                       where=inv[:, 0] > 0.0)[:, None]
    for j in reversed(range(depth)):
        beta = inv[:, j] * np.vecdot(changes[:, j], r)
        r += (alpha[j] - beta)[:, None] * steps[:, j]
    return r


def _takes_newton_steps(sign: float, n: int) -> bool:
    """Whether ``_ascend`` climbs by Newton directions: a maximization on an
    ancilla whose n(n - 1) gauge-free generators are no more than the L-BFGS
    memory, that is n <= 3."""
    return sign > 0 and n * (n - 1) <= BFGS_MEMORY


@functools.cache
def _newton_frame(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The off-diagonal Hermitian generators E_l of the n-level ancilla and their lift stack.

    Returns the k = n(n - 1) generators (e_ab + e_ba) / sqrt 2 and i(e_ab -
    e_ba) / sqrt 2, a < b, orthonormal under Re Tr(AB), as the rows of a
    ``(k, 2n^2)`` real matrix, and the ``(1 + k, n, n)`` lift stack [I;
    exp(i eps E_l)], eps = ``HESSIAN_STEP``, whose one product with an
    isometry W gives W and its k rotations (I W is exact).  The diagonal
    generators are left out: they only rephase the components, so every
    Riemannian gradient is zero on them.  Built once per n and shared by
    every roof, so both arrays are read-only.
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
    lift = np.concatenate([np.eye(n, dtype=complex)[None], moves])
    frame = gens.view(float).reshape(len(gens), -1)
    frame.flags.writeable = lift.flags.writeable = False
    return frame, lift


def _scores(gram: np.ndarray, u: np.ndarray, functional: RoofFunctional, sign: float,
            frame: np.ndarray | None, lift: np.ndarray | None):
    """Signed objectives of a stack of isometries and the state its direction rule reads there.

    ``u`` is a ``(C, n, r)`` stack of isometries; the state is a tuple of
    ``(C, ...)`` arrays, the gradients' real coordinates first.  Without
    ``frame`` (L-BFGS steps) this is one gradient pass of ``_objective``,
    and the state is the signed gradients as ``(C, 2n^2)`` real vectors.
    With ``frame`` and ``lift`` of ``_newton_frame`` the same pass scores
    ``lift @ W``, W and its k rotations exp(i eps E_l) W (Newton steps only
    maximize, so ``sign`` is +1), and one product gives all ``(C, 1 + k)``
    gradients' frame coordinates.  The state is then the ``(C, k)`` g_E at W
    and the ``(C, k, k)`` Hessians h_lm = Re Tr((Gamma_l - Gamma) E_m) /
    eps, symmetrized, with Gamma the gradient at W and Gamma_l at the
    rotations: for the bi-invariant metric, the Riemannian Hessian along
    the geodesics exp(itH) W.  A gradient's diagonal is exactly zero
    (``_objective``), so |g_E| is its Frobenius norm.
    """
    if frame is None:
        vals, grad = _objective(gram, u, functional, gradient=True)
        return sign * vals, ((sign * grad).view(float).reshape(len(u), -1),)
    c = len(u)
    vals, grad = _objective(gram, (lift @ u[:, None]).reshape(-1, *u.shape[1:]), functional,
                            gradient=True)
    coords = grad.view(float).reshape(c, len(lift), -1) @ frame.T
    hess = (coords[:, 1:] - coords[:, :1]) / HESSIAN_STEP
    return vals.reshape(c, -1)[:, 0], (coords[:, 0], 0.5 * (hess + hess.swapaxes(-1, -2)))


def _newton_direction(coords: np.ndarray, hess: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Saddle-free Newton ascent directions of a stack of starts.

    ``coords`` holds the ``(C, k)`` coordinates g_E of the gradients in the
    generators of ``frame`` and ``hess`` the ``(C, k, k)`` Hessians in
    them, both from ``_scores``.  With V diag(w) V^T the Hessian, the
    direction is sum_l c_l E_l with c = V diag(1 / max(|w|,
    CURVATURE_FLOOR)) V^T g_E, returned as ``(C, 2n^2)`` real vectors (see
    ``_lbfgs_direction``): the Newton step where the Hessian is negative
    definite, and an ascent direction wherever the gradient is not zero.
    """
    w, v = np.linalg.eigh(hess)
    turned = coords[:, None, :] @ v / np.maximum(np.abs(w), CURVATURE_FLOOR)[:, None, :]
    return (turned @ v.swapaxes(-1, -2))[:, 0] @ frame


def _select(mask: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Rows of the ``(C, ...)`` stack ``new`` where ``mask``, of ``old`` elsewhere."""
    return np.where(mask.reshape(-1, *(1,) * (new.ndim - 1)), new, old)


def _push(memory: tuple[np.ndarray, ...], newest: tuple[np.ndarray, ...],
          rows: np.ndarray) -> None:
    """Shift the memory of the starts ``rows`` (a ``(C,)`` mask) one slot
    older in every ``(C, m, ...)`` stack of ``memory``, the oldest pair
    dropping out, and put ``newest``, which holds their rows only, first."""
    for stack, new in zip(memory, newest):
        stack[rows, 1:], stack[rows, 0] = stack[rows, :-1], new


def _ascend(gram: np.ndarray, us: np.ndarray, functional: RoofFunctional, sign: float,
            cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton or quasi-Newton ascents of ``sign`` times the objective, all starts in one stack.

    Start i climbs from the n x r isometry ``us[i]``, which receives its
    final isometry.  Each iteration takes, for every live start, a direction
    D in the Hermitian Lie algebra of the ancilla and makes two scoring
    passes.  The first scores the geodesic exp(i mu D) W at the angle grid
    ``LINE_ANGLES`` and at the direction's own unit step mu = 1, formed as
    one stack (``_geodesic``), with ``_objective``; the second evaluates the
    best candidate once more, with its gradient (``_scores``), and the step
    is accepted only if both passes score it above the current point.

    The direction rule is fixed before the loop (``_takes_newton_steps``).
    A maximization on an ancilla of n <= 3 takes saddle-free Newton
    directions (``_newton_direction``) from the exact Riemannian Hessian,
    whose n(n - 1) x n(n - 1) entries the gradient pass at each accepted
    point gives from n(n - 1) rotated isometries in the same stack; such a
    direction always ascends, and a step that does not stops the start.
    The rule has two conditions.  Newton directions at n >= 4 wait on a
    large-ancilla workload to measure them (a prototype was faster at n = 4
    and 6 but slower at 8), so L-BFGS keeps those searches.  And L = 2|z|
    has a kink at z = 0: a maximization moves components away from it, a
    minimization drives them into it, where the curvature is unbounded and
    Newton steps were measured slower than L-BFGS ones.

    Every other search takes limited-memory BFGS directions (the
    Riemannian gradient when the memory is empty).  A start's memory is its
    start-first rows of steps, gradient changes and inverse curvatures,
    newest pair first, a slot empty where its inverse curvature is 0
    (``_lbfgs_direction``).  An accepted step with positive curvature is
    pushed (``_push``); a direction that does not ascend to first order, or
    a rejected step, clears the memory by zeroing those inverses, and a
    rejected step along the gradient stops the start.

    Each start carries its isometry, value, rule state (``_scores``: the
    Newton g_E and Hessian, or the L-BFGS gradient) and L-BFGS memory.  It
    stops once the norm of its gradient coordinates falls below
    ``cfg.tolerance``, on a rejected step as above, or after
    ``cfg.local_steps`` iterations.  That norm bounds no value gap: at the
    default config the seven Haar starts of one qutrit convex roof of a
    variance stopped on it 6.6e-8 to 8.3e-6 (relative) above F_Q/4, so
    ``TOLERANCE`` names a stop reason and nothing more.  Starts never read
    each other's state: a stop compacts the whole carry at once, and every
    update is masked per start.  Returns the signed objectives of the final
    isometries, why each start stopped (``TOLERANCE``, ``NO_ASCENT`` or
    ``BUDGET``) and the number of iterations.
    """
    c, n = len(us), us.shape[1]
    newton = _takes_newton_steps(sign, n)
    frame, lift = _newton_frame(n) if newton else (None, None)
    # a live start's carry: its isometry, its value, its rule's state (the
    # gradient's coordinates first) and, for L-BFGS, its memory, empty at first
    vals, state = _scores(gram, us, functional, sign, frame, lift)
    carry = [us.copy(), vals, *state]
    moved = len(carry)                  # the arrays an accepted step replaces
    if not newton:
        carry += [np.zeros((c, BFGS_MEMORY, 2 * n * n)), np.zeros((c, BFGS_MEMORY, 2 * n * n)),
                  np.zeros((c, BFGS_MEMORY))]
    live, failed = np.arange(c), np.zeros(c, dtype=bool)
    final, reason, iterations = np.empty(c), np.full(c, BUDGET), 0
    for it in range(cfg.local_steps + 1):
        small = np.vecdot(carry[2], carry[2]) < cfg.tolerance ** 2
        stop = small | failed
        if stop.any():
            done, go = stop.nonzero()[0], (~stop).nonzero()[0]
            reason[live[done]] = np.where(small[done], TOLERANCE, NO_ASCENT)
            us[live[done]], final[live[done]] = carry[0][done], carry[1][done]
            live, carry = live[go], [a[go] for a in carry]
            if not len(live):
                return final, reason, iterations
        if it == cfg.local_steps:
            break
        iterations += len(live)
        u, vals, g = carry[:3]
        if newton:
            d = _newton_direction(g, carry[3], frame)
        else:
            steps, changes, inv = carry[3:]
            d = _lbfgs_direction(g, steps, changes, inv)
            # a direction that does not ascend to first order falls back to
            # the gradient and clears the memory
            uphill = np.vecdot(d, g) > 0.0
            d = _select(uphill, d, g)
            inv *= uphill[:, None]
        lam, vecs = np.linalg.eigh(d.view(complex).reshape(-1, n, n))
        back = vecs.conj().swapaxes(-1, -2) @ u
        # the grid's angles, then the direction's own unit step
        mus = _LINE_ROW / np.abs(lam).max(axis=1)[:, None]
        mus[:, -1] = 1.0
        line = _geodesic(vecs, lam, back, mus)
        scores = sign * _objective(gram, line, functional)
        # the winning candidate, accepted only if it beats the current point
        rows, pick = np.arange(len(live)), scores.argmax(axis=1)
        new_u = line[rows, pick]
        new_vals, state = _scores(gram, new_u, functional, sign, frame, lift)
        accept = (scores[rows, pick] > vals) & (new_vals > vals)
        # a rejected step stops a Newton start
        failed = ~accept
        if not newton:
            step = mus[rows, pick][:, None] * d
            change = g - state[0]
            curvature = np.vecdot(step, change)
            curved = accept & (curvature > 0.0)
            # a rejected step clears the memory, and stops a start that took
            # it along the gradient
            failed &= (inv[:, 0] == 0.0)
            inv *= accept[:, None]
            _push((steps, changes, inv), (step[curved], change[curved], 1.0 / curvature[curved]),
                  curved)
        new = (new_u, new_vals, *state)
        # every live start accepts on most iterations, and then no select runs
        if accept.all():
            carry[:moved] = new
        else:
            carry[:moved] = [_select(accept, a, b) for a, b in zip(new, carry)]
    us[live], final[live] = carry[0], carry[1]
    return final, reason, iterations


def optimize_roof(rho: DensityMatrix,
                  functional: RoofFunctional,
                  direction: str,
                  cfg: OptimizerConfig | None = None,
                  ancilla_dim: int | None = None) -> RoofResult:
    """Best weighted component average of ``functional`` over pure decompositions.

    ``direction`` and the functional pick restart 0.  A maximization
    ascends from the best eigenvector grouping split into pure components
    that keep each block's means (``_split_start``), a ``VarianceSum``
    minimization from its best Fisher witness (``_fisher_start``), and any
    other minimization from ``np.eye(n, r)``, the eigendecomposition; so the
    roof is never worse than restart 0.  Restart k > 0 ascends from the
    first r columns of the Haar random unitary that ``haar_random_unitary``
    gives on ``default_rng([seed, 0, k])`` (one batched QR makes them all).
    All starts climb in one ``(R, n, r)`` stack (``_ascend``, which gives
    the step rules and stops).  A pure state is its own only decomposition.

    No decomposition average of a ``VarianceSum`` exceeds sum_n
    Var_rho(A_n) (``_state_value``) or falls below sum_n F_Q[rho, A_n]/4
    (``_fisher_floor``).  A roof whose restart 0 meets its direction's bound within
    ``BOUND_RTOL`` returns it without climbing: ``converged``, and
    ``evaluations`` the starts scored.  The split trivial grouping meets
    the ceiling of at most two operators, and the Fisher witness the floor
    of one.

    No component is formed: every score comes from ``_objective`` on the
    Gram stack of the support factor (``purify``) and its centred images
    under the functional's operators (``_gram_stack``), built once, which
    also gives both bounds.  ``evaluations`` counts one per start plus one per
    iteration, and also every scored grouping or Fisher witness but the one
    climbed.  The winner is the best start, the first of equals, and
    ``converged`` says that it stopped on the tolerance or on no ascent, not
    on the budget.  A functional that is not a ``RoofFunctional`` raises
    ``TypeError``, one whose operators act on another dimension than rho
    ``DimensionMismatchError``, and an ``ancilla_dim`` (default the
    dimension of rho) that is not an integer >= the rank of rho
    ``ValueError``, on a pure state too.  Each call logs one debug line
    with its starts, direction rule (``newton`` or ``lbfgs``), iterations,
    evaluations, stop reasons and wall time, or, for a search stopped at its
    bound, with that bound, its evaluations and wall time.

    The returned value is that of the witness isometry, evaluated after its
    last step, so it is exact for the witness decomposition and always on
    the certified side of the true roof.
    """
    started = time.perf_counter()
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    _require_functional(functional)
    functional.check_dim(rho.dim)
    n = rho.dim if ancilla_dim is None else ancilla_dim
    _require_count(n, "ancilla_dim", rho.rank())
    if rho.rank() == 1:
        psi = PureState(_support(rho)[1][:, 0])
        return RoofResult(value=functional.on_state(psi), decomposition=Decomposition(((1.0, psi),)),
                          converged=True, evaluations=1)
    cfg = cfg or OptimizerConfig()
    m = purify(rho)
    gram, r = _gram_stack(m, functional), m.shape[1]
    us = np.empty((cfg.restarts, n, r), dtype=complex)
    if direction == "max":
        sign = 1.0
        us[0], scored, start = _split_start(gram, functional, n)
    elif isinstance(functional, VarianceSum):
        sign = -1.0
        us[0], scored, start = _fisher_start(gram, functional, n)
    else:
        sign, scored = -1.0, 1
        us[0] = np.eye(n, r)
    if isinstance(functional, VarianceSum):
        ceiling = _state_value(gram, functional)
        if sign > 0:
            which, bound = "ceiling sum Var(rho)", ceiling
        else:
            which, bound = "floor sum F_Q/4", _fisher_floor(gram, functional)
        if sign * start >= sign * bound - BOUND_RTOL * abs(ceiling):
            log.debug("optimize_roof: restart 0 meets the %s, no start climbs, %d evaluations, "
                      "%.4f s", which, scored, time.perf_counter() - started)
            return RoofResult(value=start, decomposition=extract_decomposition(m, us[0]),
                              converged=True, evaluations=scored)
    if cfg.restarts > 1:
        us[1:] = _haar_from_ginibre(np.array([_ginibre(n, np.random.default_rng([cfg.seed, 0, k]))
                                              for k in range(1, cfg.restarts)]))[..., :r]
    vals, reason, iterations = _ascend(gram, us, functional, sign, cfg)
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

def convex_roof_variance(rho: DensityMatrix, b: HermitianOperator) -> RoofResult:
    """Minimized average variance of B over pure-state decompositions: B's Fisher witness
    (``_fisher_start``), which equals F_Q[rho, B]/4 to round-off, in one evaluation."""
    return optimize_roof(rho, VarianceSum([b]), "min")


def roof_sum_I(rho: DensityMatrix, ops: Sequence[HermitianOperator],
               cfg: OptimizerConfig | None = None,
               ancilla_dim: int | None = None) -> RoofResult:
    """Convex roof of a sum of variances over pure-state decompositions."""
    return optimize_roof(rho, VarianceSum(ops), "min", cfg=cfg, ancilla_dim=ancilla_dim)


def roof_sum_R(rho: DensityMatrix, ops: Sequence[HermitianOperator],
               cfg: OptimizerConfig | None = None,
               ancilla_dim: int | None = None) -> RoofResult:
    """Concave roof of a sum of variances over pure-state decompositions."""
    return optimize_roof(rho, VarianceSum(ops), "max", cfg=cfg, ancilla_dim=ancilla_dim)


def concave_roof_L(rho: DensityMatrix, a: HermitianOperator, b: HermitianOperator,
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
    """Groupings of n eigenvector indices, each listed once: every index
    alone, all merged, and for n >= 3 each index alone with the rest merged
    (for a qutrit, all five; for a qubit, two)."""
    every = tuple(range(n))
    if n <= 2:
        # one index alone with the one or none left repeats the singletons
        return [[(k,) for k in every], [every]][:n]
    return ([[(k,) for k in every], [every]]
            + [[(k,), every[:k] + every[k + 1:]] for k in every])


def _split_block(g: np.ndarray) -> np.ndarray:
    """Unitary w on one block of ancilla indices that splits its component into pure ones.

    ``g`` holds the block's Gram matrices G_I, G_A, G_B (``(3, k, k)``).
    With the block's means a = Tr G_A / Tr G_I and b = Tr G_B / Tr G_I,
    X = conj(w) zeroes the diagonals of X H X^dag for the traceless H_1 =
    G_A - a G_I and H_2 = G_B - b G_I (Fillmore, Amer. Math. Monthly 76, 167
    (1969)), so every component of the block's rows of w has means a and b.
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


@functools.cache
def _grouping_table(n: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``_eigen_groupings(n)`` as one read-only table, built once per n for K and
    restart 0 of every maximization: each block's grouping (``owner``), the
    block incidence matrix (a row per block, 1 on its indices) and, for each
    block of two or more indices, its grouping and ``np.ix_`` rows and columns."""
    pairs = [(g, block) for g, grouping in enumerate(_eigen_groupings(n)) for block in grouping]
    owner = np.array([g for g, _ in pairs])
    incidence = np.array([[k in block for k in range(n)] for _, block in pairs], dtype=float)
    owner.flags.writeable = incidence.flags.writeable = False
    return owner, incidence, tuple((g, *np.ix_(block, block)) for g, block in pairs if len(block) > 1)


def _split_start(gram: np.ndarray, functional: RoofFunctional,
                 n: int) -> tuple[np.ndarray, int, float]:
    """Restart 0 of a maximization, the number of groupings scored to choose it, and its value.

    Every grouping of the r support indices (``_eigen_groupings(r)``, K's),
    each block split by ``_split_block`` on the first two moment operators
    of ``functional`` ([A, B] of L and of a sum of variances, [A, A A] of
    one variance), is a block-diagonal r x r unitary and a pure
    decomposition whose components keep their block's two means.  All are
    scored in one ``_objective`` call on the r x (x+k+1)r ``gram``, and the
    best U is returned as the n x r isometry [U; 0].  For L and for a sum
    of at most two variances every split scores at least its grouping (see
    the README), and for such a sum the split trivial grouping scores
    sum_n Var_rho(A_n), the concave roof itself.
    """
    r = gram.shape[0]
    grams = gram.reshape(r, -1, r).swapaxes(0, 1)[:3]
    owner, _, splits = _grouping_table(r)
    us = np.tile(np.eye(r, dtype=complex), (owner[-1] + 1, 1, 1))
    for g, rows, cols in splits:
        us[g, rows, cols] = _split_block(grams[:, rows, cols])
    values = _objective(gram, us, functional)
    best = int(np.argmax(values))
    return np.concatenate([us[best], np.zeros((n - r, r))]), len(us), float(values[best])


def _fisher_start(gram: np.ndarray, functional: VarianceSum,
                  n: int) -> tuple[np.ndarray, int, float]:
    """Restart 0 of a variance-sum minimization, the number of witnesses scored to choose it,
    and its value.

    The Fisher witness of A_j, whose average Var(A_j) is F_Q[rho, A_j]/4
    (see the README), is E_j^dag for the eigenvectors E_j of H_j = 2 G_j^T
    / (lambda_k + lambda_l), G_j the first-moment blocks of ``gram`` and
    lambda = diag G_0.  All are scored in one ``_objective`` call, and the
    lowest is returned as the n x r isometry [E^dag; 0].
    """
    r = gram.shape[0]
    grams = gram.reshape(r, -1, r).swapaxes(0, 1)
    lam = grams[0].diagonal().real
    _, vecs = np.linalg.eigh(2.0 * grams[1:len(functional.ops) + 1].swapaxes(-1, -2)
                             / (lam[:, None] + lam[None, :]))
    ws = vecs.conj().swapaxes(-1, -2)
    values = _objective(gram, ws, functional)
    best = int(np.argmin(values))
    return np.concatenate([ws[best], np.zeros((n - r, r))]), len(ws), float(values[best])


# ---------------------------------------------------------------------------
# closed-form constructions
# ---------------------------------------------------------------------------

def qubit_z_line_decomposition(rho: DensityMatrix) -> Decomposition:
    """Two-point decomposition of a qubit along the Bloch z direction.

    Both components sit where the vertical line through the Bloch vector
    pierces the sphere, so they share every x/y moment with the mixture;
    this makes the decomposition saturate the concave-roof uncertainty bound
    for operator pairs in the xy plane.  It is the trivial grouping split by
    ``_split_block`` on sigma_x and sigma_y.  A pure qubit is its own
    one-point decomposition.
    """
    if rho.dim != 2:
        raise ValueError("z-line decomposition is defined for qubits only")
    m = purify(rho)
    one_x_y = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
    return extract_decomposition(m, _split_block(m.conj().T @ one_x_y @ m))


def eigen_partition_bound_K(rho: DensityMatrix, a: HermitianOperator,
                            b: HermitianOperator) -> float:
    """Best uncertainty bound over eigenvector groupings of a qutrit.

    Candidates: the full eigendecomposition average, the three mixed
    decompositions that keep one eigenvector pure and merge the other two,
    and the trivial decomposition (the plain Robertson-Schrodinger bound);
    each block's moments are the sums of its eigenvectors' moments.  These
    are the groupings from which ``_split_start`` picks restart 0 of every
    maximization, ``concave_roof_L`` included, each split into pure
    components that score at least as much, so the roof is never below K.
    Degenerate spectra use the support V_S exactly as the state's solver
    returned it, which keeps runs reproducible at the cost of possible
    suboptimality.  A pure state is its own only decomposition, so its K is its L.
    """
    if rho.dim != 3:
        raise ValueError("the eigenvector-partition bound is defined for qutrits")
    functional = RobertsonSchrodingerBound(a, b)
    mom = _support_moments(purify(rho), functional)
    owner, incidence, _ = _grouping_table(len(mom))
    return float(np.bincount(owner, weights=_block_terms(incidence @ mom, functional)).max())
