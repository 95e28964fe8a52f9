"""Constructors for the benchmark state families used by the figure commands
and the entanglement checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CutoffTooSmallError,
    DensityMatrix,
    HermitianOperator,
    PureState,
    _require_count,
    coherent_state,
    ground_state,
    make_spin_algebra,
    spin_coherent_state,
    tensor,
    variance,
    expectation,
)


class DegenerateGroundStateError(ValueError):
    """The squeezing Hamiltonian has a degenerate ground level."""


class ConvergenceError(RuntimeError):
    """A self-consistent iteration failed to settle within the step budget."""


def spin_squeezed_state(j, lam: float) -> PureState:
    """Ground state of J_y^2 - lam J_x: polarized along x, squeezed along y.

    Large lam recovers the fully polarized state; finite lam trades x
    polarization for reduced Var(J_y).
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    spin = make_spin_algebra(j)
    if spin.j == 0.0:
        raise ValueError("spin_squeezed_state needs spin j > 0; spin 0 has no spin to squeeze")
    h = HermitianOperator(spin.jy.mat @ spin.jy.mat - lam * spin.jx.mat)
    _, psi, degenerate = ground_state(h)
    if degenerate:
        raise DegenerateGroundStateError(f"degenerate ground level at j={j}, lam={lam}")
    return psi


@dataclass(frozen=True)
class PlanarSqueezedResult:
    """Pure state minimizing Var(J_x) + Var(J_y) at nonzero mean spin."""

    j: float
    state: PureState
    var_sum: float
    mean_spin: np.ndarray
    iterations: int


PLANAR_TOL = 1e-12         # variance-sum decrease at which the iteration has settled
PLANAR_MAX_ITERATIONS = 500


def planar_squeezed_state(j) -> PlanarSqueezedResult:
    """Minimize Var(J_x) + Var(J_y) by self-consistent Lagrangian iteration.

    Each round takes the ground state of
    J_x^2 + J_y^2 - 2<J_x> J_x - 2<J_y> J_y with the means of the previous
    iterate; this never increases the variance sum.  Seeding with the fully
    x-polarized state keeps the mean spin away from zero, which
    distinguishes these states from plain second-moment minimizers.
    """
    spin = make_spin_algebra(j)
    j = spin.j
    if j == 0.0:
        raise ValueError("planar_squeezed_state needs spin j > 0; spin 0 has no mean spin")
    jx, jy = spin.jx.mat, spin.jy.mat
    quad = jx @ jx + jy @ jy
    psi = spin_coherent_state(j, (0.0, np.pi / 2.0, 0.0))  # |j>_x seed
    var_sum = variance(psi, spin.jx) + variance(psi, spin.jy)
    iterations = 0
    for iterations in range(1, PLANAR_MAX_ITERATIONS + 1):
        mx = expectation(psi, spin.jx)
        my = expectation(psi, spin.jy)
        h = HermitianOperator(quad - 2.0 * mx * jx - 2.0 * my * jy)
        _, psi_next, _ = ground_state(h)
        next_sum = variance(psi_next, spin.jx) + variance(psi_next, spin.jy)
        if next_sum > var_sum + 1e-12:
            raise ConvergenceError(
                f"variance sum increased from {var_sum!r} to {next_sum!r}")
        psi = psi_next
        done = var_sum - next_sum < PLANAR_TOL
        var_sum = next_sum
        if done:
            break
    else:
        raise ConvergenceError(f"no convergence after {PLANAR_MAX_ITERATIONS} iterations")
    mean_spin = np.array([expectation(psi, op) for op in spin.as_tuple()])
    if np.linalg.norm(mean_spin) < 1e-8:
        raise ConvergenceError("iteration collapsed onto a zero-mean-spin state")
    return PlanarSqueezedResult(j=j, state=psi, var_sum=var_sum, mean_spin=mean_spin,
                                iterations=iterations)


def two_mode_squeezed_vacuum(r: float, cutoff: int) -> PureState:
    """Truncated two-mode squeezed vacuum with (x1 + x2, p1 - p2) squeezed.

    The alternating sign in the Schmidt coefficients anti-correlates the
    positions, which puts the squeezing into the operator combinations used
    by the pair-variance entanglement criterion.
    """
    _require_count(cutoff, "cutoff", 1)
    if not (np.isfinite(r) and r >= 0):
        raise ValueError(f"squeezing parameter r = {r!r} must be finite and nonnegative")
    th = np.tanh(r)
    if th > 0 and th ** (2 * cutoff) >= 1e-12:
        raise CutoffTooSmallError(
            f"tanh(r)^(2 cutoff) = {th ** (2 * cutoff):.3e} too large at cutoff {cutoff}")
    vec = np.zeros(cutoff * cutoff, dtype=complex)
    vec[::cutoff + 1] = (-th) ** np.arange(cutoff)   # the diagonal |n>|n>
    vec *= np.sqrt(1.0 - th * th)
    return PureState(vec / np.linalg.norm(vec))


def singlet_state(j) -> PureState:
    """Total-spin-zero state of two spin-j particles.

    For spin 1/2 this is (|01> - |10>)/sqrt(2) in the m-descending basis.
    """
    spin = make_spin_algebra(j)
    dim = spin.dim
    vec = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        # basis index k holds m = j - k; the partner index holds -m
        vec[k * dim + (dim - 1 - k)] = (-1.0) ** k
    return PureState(vec / np.linalg.norm(vec))


def _mixture(components: list[tuple[float, PureState]]) -> DensityMatrix:
    if not components:
        raise ValueError("a mixture needs at least one component")
    weights = np.array([p for p, _ in components], dtype=float)
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise ValueError("mixture weights must be finite and positive")
    weights = weights / weights.sum()
    factor = np.stack([psi.vec for _, psi in components], axis=1) * np.sqrt(weights)
    return DensityMatrix.from_factor(factor)


def coherent_mixture(entries, cutoff: int) -> DensityMatrix:
    """Mixture of coherent-state products, one mode per alpha in each entry.

    ``entries`` is a list of (weight, alpha) for a single mode or
    (weight, alpha_1, alpha_2) for two modes.  These states have a
    nonnegative Glauber-Sudarshan P function by construction.
    """
    comps = []
    for entry in entries:
        weight, alphas = entry[0], entry[1:]
        psi = coherent_state(alphas[0], cutoff)
        for alpha in alphas[1:]:
            psi = tensor(psi, coherent_state(alpha, cutoff))
        comps.append((float(weight), psi))
    return _mixture(comps)


def spin_coherent_mixture(j, entries) -> DensityMatrix:
    """Mixture of spin-coherent states of one spin j; entries are (weight, c-vector)."""
    comps = [(float(w), spin_coherent_state(j, c)) for w, c in entries]
    return _mixture(comps)


def spin_coherent_product_mixture(j1, j2, entries) -> DensityMatrix:
    """Mixture of products of spin-coherent states; entries are (weight, c1, c2)."""
    comps = [(float(w), tensor(spin_coherent_state(j1, c1), spin_coherent_state(j2, c2)))
             for w, c1, c2 in entries]
    return _mixture(comps)
