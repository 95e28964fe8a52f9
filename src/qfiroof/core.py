"""Finite-dimensional states, observables, and the algebras built from them.

Conventions used throughout the package:

* spin operators live in the J_z eigenbasis with m descending from +j to -j,
* Fock bases are ordered by ascending occupation number,
* hbar = 1, all operators dimensionless unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = 1e-12          # eigenvalues below this are treated as exactly zero
MIN_EIG_TOL = -1e-10       # most negative eigenvalue a density matrix may carry
DEGENERACY_REL_TOL = 1e-9  # relative gap below which a ground state counts as degenerate


class DimensionMismatchError(ValueError):
    """Operands act on Hilbert spaces of different dimension."""


class CutoffTooSmallError(ValueError):
    """A truncated Fock expansion would leave too much probability in the tail."""


def _require_finite(arr: np.ndarray, what: str) -> None:
    # the tolerance tests below compare with ">", which is False for NaN
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")


def _require_count(value, what: str, least: int) -> None:
    # bool is an int subclass, and a float such as 2.0 or 2.5 is no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def _as_complex_matrix(entries) -> np.ndarray:
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    _require_finite(mat, "matrix")
    return mat


def _hermitian_matrix(entries, what: str) -> np.ndarray:
    """The Hermitian part of a square matrix that deviates from it by at most
    ``HERMITICITY_TOL``, so that eigensolves see an exactly Hermitian input."""
    mat = _as_complex_matrix(entries)
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")
    return 0.5 * (mat + mat.conj().T)


class HermitianOperator:
    """Dense complex square matrix certified Hermitian at construction."""

    __slots__ = ("mat",)

    def __init__(self, entries):
        self.mat = _hermitian_matrix(entries, "matrix")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._require_same_dim(other)
        return HermitianOperator(self.mat + other.mat)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._require_same_dim(other)
        return HermitianOperator(self.mat - other.mat)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self.mat * float(scalar))

    __rmul__ = __mul__

    def _require_same_dim(self, other: "HermitianOperator") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim} differ")

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def commutator_i(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """i[A, B], which is Hermitian whenever A and B are."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} and {b.dim} differ")
    return HermitianOperator(1j * (a.mat @ b.mat - b.mat @ a.mat))


class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian matrix, held by its support alone.

    A state is its support (lambda_S, V_S): the positive eigenvalues in
    descending order and, as the columns of a d x r matrix, their
    orthonormal eigenvectors.  Eigenvalues below ``EIG_FLOOR`` are clamped
    to exactly zero and so lie outside the support; every moment, variance
    and Fisher information reads only the support.

    The constructor takes a dense d x d matrix, pays one full O(d^3)
    eigensolve to validate it and keeps only its support; ``from_factor``
    finds the support of a d x r factor at O(d r^2) cost, and ``PureState``
    is the rank-one case.  ``mat`` forms V_S Lambda V_S^dag on every read, at
    O(d^2 r) cost, and no d x d matrix is ever kept on a state.
    """

    __slots__ = ("_lam", "_vs")

    def __init__(self, entries):
        mat = _hermitian_matrix(entries, "density matrix")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond tolerance")
        vals, vecs = np.linalg.eigh(mat)
        if vals[0] < MIN_EIG_TOL:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {vals[0]:.3e})")
        order = np.argsort(vals)[::-1]
        vals = vals[order]
        vecs = vecs[:, order]
        vals = np.where(vals < EIG_FLOOR, 0.0, vals)
        recon = (vecs * vals) @ vecs.conj().T
        if np.max(np.abs(recon - mat)) > 1e-10:
            raise ValueError("eigendecomposition does not reconstruct the matrix")
        r = int(np.count_nonzero(vals > 0.0))
        # copied, as in from_factor, so that a support narrower than d keeps no d x d array alive
        self._lam, self._vs = vals[:r], np.ascontiguousarray(vecs[:, :r])

    @property
    def mat(self) -> np.ndarray:
        """The d x d matrix V_S Lambda V_S^dag, formed from the support on every read."""
        return (self._vs * self._lam) @ self._vs.conj().T

    @property
    def dim(self) -> int:
        return self._vs.shape[0]

    def rank(self) -> int:
        """The size of the support: the number of eigenvalues not below ``EIG_FLOOR``."""
        return len(self._lam)

    def purity(self) -> float:
        return float(np.sum(self._lam**2))

    @staticmethod
    def _from_support(lam: np.ndarray, vs: np.ndarray) -> "DensityMatrix":
        """The state of a valid support: descending weights ``lam``, orthonormal columns ``vs``."""
        rho = DensityMatrix.__new__(DensityMatrix)
        rho._lam, rho._vs = lam, vs
        return rho

    @staticmethod
    def from_factor(v) -> "DensityMatrix":
        """rho = v v^dag for a d x r factor v, keeping only its support.

        A thin SVD v = U S W^dag gives the support: the squared singular
        values above ``EIG_FLOOR`` (already descending) and their columns of
        U.  The finiteness and trace checks of the dense constructor apply,
        and its reconstruction check becomes a factored bound at O(d r^2):
        with B = U^dag v, E = v - U B and Lambda the floored squared singular
        values, v v^dag - U Lambda U^dag = U (B B^dag - Lambda) U^dag
        + U B E^dag + E B^dag U^dag + E E^dag, so its largest entry is at
        most ||B B^dag - Lambda||_F + 2 ||B||_F ||E||_F + ||E||_F^2.
        No d x d array is formed here.
        """
        v = np.asarray(v, dtype=complex)
        if v.ndim != 2 or 0 in v.shape:
            raise ValueError(f"expected a nonempty d x r factor, got shape {v.shape}")
        _require_finite(v, "factor")
        u, s, _ = np.linalg.svd(v, full_matrices=False)
        vals = s * s
        tr = float(np.sum(vals))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond tolerance")
        vals = np.where(vals < EIG_FLOOR, 0.0, vals)
        b = u.conj().T @ v
        e = v - u @ b
        gram = b @ b.conj().T
        gram[np.diag_indices_from(gram)] -= vals
        e_norm = np.linalg.norm(e)
        bound = np.linalg.norm(gram) + (2.0 * np.linalg.norm(b) + e_norm) * e_norm
        if not bound <= 1e-10:
            raise ValueError("eigendecomposition does not reconstruct the matrix")
        r = int(np.count_nonzero(vals))
        return DensityMatrix._from_support(vals[:r], np.ascontiguousarray(u[:, :r]))

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityMatrix":
        _require_count(dim, "dim", 1)
        return DensityMatrix(np.eye(dim) / dim)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, rank={self.rank()})"


_UNIT_WEIGHT = np.ones(1)
_UNIT_WEIGHT.setflags(write=False)


class PureState(DensityMatrix):
    """Normalized state vector psi, the rank-one density matrix psi psi^dag:
    its support is psi (``vec``, read-only) with the weight 1 all share, and
    ``mat`` forms psi psi^dag on every read, like every state's.

    The amplitudes are copied, and their norm must be within 1e-6 of 1.
    They are divided by it only when it differs from 1 by more than four
    units in the last place (4 eps, about 8.9e-16), above the rounding of
    the norm of an already normalized vector (measured at most 2.5 eps up
    to d = 1600): so a unit vector, such as the ``vec`` of another state or
    its JSON, is kept bit for bit.
    """

    __slots__ = ()

    def __init__(self, amplitudes):
        vec = np.array(amplitudes, dtype=complex).ravel()
        _require_finite(vec, "state vector")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state vector norm {norm:.6f} is not 1")
        if abs(norm - 1.0) > 4.0 * np.finfo(float).eps:
            vec /= norm
        vec.setflags(write=False)
        self._lam, self._vs = _UNIT_WEIGHT, vec[:, None]

    @property
    def vec(self) -> np.ndarray:
        return self._vs[:, 0]


def _support(state: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_S, V_S): the positive eigenvalues of a state and, as columns, their eigenvectors."""
    return state._lam, state._vs


def _support_image(state: DensityMatrix, op: HermitianOperator
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_S, V_S, B V_S): the support of a state and its image under an
    operator on the same dimension, O(d^2 r) for rank r."""
    if state.dim != op.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != operator dim {op.dim}")
    lam, vs = _support(state)
    return lam, vs, op.mat @ vs


def _support_mean(lam: np.ndarray, vs: np.ndarray, w: np.ndarray) -> np.ndarray | float:
    """<B> = sum_k lam_k Re<v_k|W_k> from the support and its image W = B V_S."""
    return np.vecdot(vs, w, axis=-2).real @ lam


def expectation(state: DensityMatrix, op: HermitianOperator) -> float:
    """<A> = Tr(rho A) over the support of the state; O(d^2 r) for rank r."""
    return float(_support_mean(*_support_image(state, op)))


def _support_variance(lam: np.ndarray, vs: np.ndarray, w: np.ndarray) -> np.ndarray | float:
    """Var(B) = sum_k lam_k ||W_k - <B> v_k||^2 from the support and its image W = B V_S.

    It reads the image of B - <B> 1, centred on the state, at O(d r) cost:
    a sum of squares, never negative, that a shift B + c 1 moves only by
    the rounding of W itself, where <B^2> - <B>^2 would lose c^2 times the
    machine epsilon to cancellation.  A stack of images (..., d, r) gives a
    stack of values.
    """
    centred = w - np.asarray(_support_mean(lam, vs, w))[..., None, None] * vs
    return np.vecdot(centred, centred, axis=-2).real @ lam


def _support_qfi(lam: np.ndarray, vs: np.ndarray, w: np.ndarray) -> np.ndarray | float:
    """F_Q[rho, B] from the support and its image W = B V_S, at O(d r^2) cost.

    With B_S = V_S^dag W (Toth & Apellaniz, J. Phys. A 47, 424006 (2014)):
    F = 4 sum_k lam_k ||W_k - (V_S B_S)_k||^2
        + 2 sum_{k,l in S} (lam_k - lam_l)^2 / (lam_k + lam_l) |(B_S)_kl|^2.
    The first sum collects the pairs of a support vector with the kernel,
    where the pair weight reduces to lam_k.  Both sums are unchanged by a
    shift B + c 1, the residual W - V_S B_S and the off-diagonal B_S term by
    term, so no mean is subtracted.  Broadcasts like ``_support_variance``.
    """
    b_s = vs.conj().T @ w
    resid = vs @ b_s
    resid -= w  # the residual negated, in place: only its norm is read
    outside = np.vecdot(resid, resid, axis=-2).real @ lam
    diff = lam[:, None] - lam[None, :]
    inside = (diff * diff / (lam[:, None] + lam[None, :]) * np.abs(b_s) ** 2).sum((-2, -1))
    return 4.0 * outside + 2.0 * inside


def variance(state: DensityMatrix, op: HermitianOperator) -> float:
    """(Delta A)^2 = <(A - <A>)^2> over the support of the state; O(d^2 r) for rank r."""
    return float(_support_variance(*_support_image(state, op)))


# ---------------------------------------------------------------------------
# spin algebra
# ---------------------------------------------------------------------------

def _check_half_integer(j) -> float:
    if not np.isfinite(j):
        raise ValueError(f"j must be finite, got {j!r}")
    two_j = 2 * j
    if abs(two_j - round(two_j)) > 1e-12 or round(two_j) < 0:
        raise ValueError(f"j={j} is not a nonnegative half-integer")
    return round(two_j) / 2.0


@dataclass(frozen=True)
class SpinAlgebra:
    """Angular momentum matrices for a single spin j, J_z eigenbasis, m descending."""

    j: float
    dim: int
    jx: HermitianOperator
    jy: HermitianOperator
    jz: HermitianOperator

    def as_tuple(self) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
        return (self.jx, self.jy, self.jz)


def make_spin_algebra(j) -> SpinAlgebra:
    """Standard angular-momentum matrices satisfying [J_x, J_y] = i J_z (cyclic)."""
    j = _check_half_integer(j)
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)  # descending +j .. -j
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        # raises m[k] to m[k] + 1 = m[k - 1]
        jplus[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return SpinAlgebra(j=j, dim=dim,
                       jx=HermitianOperator(jx),
                       jy=HermitianOperator(jy),
                       jz=HermitianOperator(jz))


def make_su_d_generators(d: int) -> list[HermitianOperator]:
    """Traceless Hermitian generator basis with Tr(G_k G_l) = 2 delta_kl.

    For d = 2 this is exactly the three Pauli matrices.  Ordering: the
    symmetric and antisymmetric off-diagonal pair for (k, l), pairs in
    lexicographic order, followed by the diagonal generators.
    """
    _require_count(d, "d", 2)
    gens: list[HermitianOperator] = []
    for k in range(d):
        for l in range(k + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[k, l] = sym[l, k] = 1.0
            gens.append(HermitianOperator(sym))
            asym = np.zeros((d, d), dtype=complex)
            asym[k, l] = -1j
            asym[l, k] = 1j
            gens.append(HermitianOperator(asym))
    for m in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:m] = 1.0
        diag[m] = -m
        diag *= np.sqrt(2.0 / (m * (m + 1)))
        gens.append(HermitianOperator(np.diag(diag)))
    return gens


# ---------------------------------------------------------------------------
# truncated bosonic mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockAlgebra:
    """Truncated single-mode ladder and quadrature operators.

    The canonical commutator [x, p] = i holds exactly on the subspace that
    excludes the top Fock level; the truncation corner is unavoidable in a
    finite basis.
    """

    cutoff: int
    x: HermitianOperator
    p: HermitianOperator


def make_fock_algebra(cutoff: int) -> FockAlgebra:
    _require_count(cutoff, "cutoff", 2)
    a = np.diag(np.sqrt(np.arange(1, cutoff)), k=1).astype(complex)
    x = HermitianOperator((a + a.conj().T) / np.sqrt(2.0))
    p = HermitianOperator((a - a.conj().T) / (1j * np.sqrt(2.0)))
    return FockAlgebra(cutoff=cutoff, x=x, p=p)


def coherent_state(alpha: complex, cutoff: int) -> PureState:
    """Truncated coherent-state expansion, renormalized after truncation.

    Rejects the construction when the Poisson tail beyond the cutoff exceeds
    1e-10, since quadrature moments would then be visibly distorted.
    """
    from scipy.special import gammainc

    _require_count(cutoff, "cutoff", 1)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha = {alpha!r} is not finite")
    mu = abs(alpha) ** 2
    tail = float(gammainc(cutoff, mu)) if mu > 0 else 0.0
    if tail > 1e-10:
        raise CutoffTooSmallError(
            f"tail mass {tail:.3e} beyond cutoff {cutoff} for |alpha|^2 = {mu:.3f}")
    # alpha^n / sqrt(n!) as the running product of the steps alpha / sqrt(n)
    steps = np.concatenate(([1.0], alpha / np.sqrt(np.arange(1, cutoff))))
    amps = np.cumprod(steps) * np.exp(-mu / 2.0)
    return PureState(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# spin-coherent states
# ---------------------------------------------------------------------------

def spin_coherent_state(j, c) -> PureState:
    """exp(-i c.J) applied to the maximal-weight state |+j>_z.

    ``c`` is a real 3-vector; the rotation convention is the bare exponent,
    no extra global phase.
    """
    spin = make_spin_algebra(j)
    c = np.asarray(c, dtype=float)
    if c.shape != (3,):
        raise ValueError("c must be a real 3-vector")
    _require_finite(c, "rotation vector c")
    gen = c[0] * spin.jx.mat + c[1] * spin.jy.mat + c[2] * spin.jz.mat
    vals, vecs = np.linalg.eigh(gen)
    u = (vecs * np.exp(-1j * vals)) @ vecs.conj().T
    return PureState(u[:, 0])


def spin_coherent_polar(j, theta: float, phi: float) -> PureState:
    """Spin-coherent state pointing along (theta, phi) in polar angles.

    Convenience wrapper: rotates the +z state by ``theta`` about the axis
    (-sin phi, cos phi, 0), taking z to the requested direction.
    """
    axis = np.array([-np.sin(phi), np.cos(phi), 0.0])
    return spin_coherent_state(j, theta * axis)


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomStateConfig:
    """Induced-measure sampling parameters; equal seeds give bitwise-equal states."""

    dim: int
    rank: int
    seed: int

    def __post_init__(self):
        for name, least in (("dim", 1), ("rank", 1), ("seed", 0)):
            _require_count(getattr(self, name), name, least)
        if self.rank > self.dim:
            raise ValueError(f"rank {self.rank} outside [1, {self.dim}]")


def random_density_matrix(cfg: RandomStateConfig) -> DensityMatrix:
    """rho = G G^dag / Tr(G G^dag) with G a dim x rank complex Ginibre matrix."""
    rng = np.random.default_rng(cfg.seed)
    g = rng.standard_normal((cfg.dim, cfg.rank)) + 1j * rng.standard_normal((cfg.dim, cfg.rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fixing."""
    return _haar_from_ginibre(_ginibre(dim, rng))


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Q of G = QR with the phases of diag(R) moved into Q, for a stack of matrices G.

    A stack gives each matrix the same LAPACK factorization as on its own.
    """
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


# ---------------------------------------------------------------------------
# composition and spectra
# ---------------------------------------------------------------------------

def tensor(a, b):
    """Kronecker composite of two operators or two states, system-1 indices first.

    Two pure states give a ``PureState``.  Any other two density matrices
    compose through their supports in closed form: the products
    lambda_k mu_l of their weights, sorted descending, those below
    ``EIG_FLOOR`` dropped, on the columns v_k (x) w_l, which are orthonormal
    because each factor's are; no decomposition of the product is made.
    """
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.mat, b.mat))
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState((a.vec[:, None] * b.vec).ravel())  # np.kron's products, C-level
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        (lam_a, vs_a), (lam_b, vs_b) = _support(a), _support(b)
        lam = np.outer(lam_a, lam_b).ravel()
        keep = np.argsort(-lam, kind="stable")[:np.count_nonzero(lam >= EIG_FLOOR)]
        ka, kb = np.divmod(keep, len(lam_b))
        vs = (vs_a[:, None, ka] * vs_b[:, kb]).reshape(-1, len(keep))
        return DensityMatrix._from_support(lam[keep], vs)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def ground_state(h: HermitianOperator) -> tuple[float, PureState, bool]:
    """Lowest eigenpair of a Hermitian operator.

    Returns (energy, state, degenerate); the flag is set when the gap to the
    second eigenvalue is below 1e-9 of the spectral range.
    """
    vals, vecs = np.linalg.eigh(h.mat)
    spread = max(vals[-1] - vals[0], 1e-300)
    degenerate = bool(len(vals) > 1 and (vals[1] - vals[0]) < DEGENERACY_REL_TOL * spread)
    return float(vals[0]), PureState(vecs[:, 0]), degenerate

