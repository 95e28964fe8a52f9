"""Quantum Fisher information, symmetric logarithmic derivative, and
estimation-error diagnostics for unitary phase imprinting exp(-i B theta)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    HermitianOperator,
    _require_count,
    _support_image,
    _support_qfi,
    commutator_i,
    expectation,
    variance,
)


class VanishingSignalError(ValueError):
    """|<i[A,B]>| is numerically zero, so error propagation is undefined."""


class UnestimableParameterError(ValueError):
    """The Fisher information vanishes; the phase leaves no trace on the state."""


def qfi(state: DensityMatrix, b: HermitianOperator) -> float:
    """Quantum Fisher information F_Q[rho, B].

    Computed from the support of rho alone (the eigenvectors of its r
    positive eigenvalues) at O(d^2 r) cost and O(d r) memory beyond B; no
    d x d basis change is made.  A pure state is the rank-1 case, where the
    formula is four times the variance of B.
    """
    return float(_support_qfi(*_support_image(state, b)))


@dataclass(frozen=True)
class SldResult:
    """Symmetric logarithmic derivative of exp(-i B theta) dynamics at theta = 0."""

    sld: HermitianOperator
    qfi: float
    mean_sld: float


def sld(state: DensityMatrix, b: HermitianOperator) -> SldResult:
    """Symmetric logarithmic derivative L with i[rho, B] = {rho, L}/2.

    Assembled from the support (lambda_S, V_S) alone.  With W = B V_S,
    B_S = V_S^dag W and R = W - V_S B_S, the part of W in the kernel:
    L = 2i [V_S (r o B_S) V_S^dag + V_S R^dag - R V_S^dag], with
    r_kl = (lam_k - lam_l) / (lam_k + lam_l).  A support-kernel pair has
    ratio +-1, and the kernel-kernel block of L is zero; inside the support
    lam_k + lam_l >= 2 EIG_FLOOR, so no pair is skipped.  Its mean vanishes
    and Tr(rho L^2) equals F_Q.  The defining equation is checked on
    ``state.mat``, which is formed on this read and kept nowhere.
    """
    lam, vs, w = _support_image(state, b)
    vs_dag = vs.conj().T
    b_s = vs_dag @ w
    resid = w - vs @ b_s
    ratio = (lam[:, None] - lam[None, :]) / (lam[:, None] + lam[None, :])
    l_mat = 2j * (vs @ (ratio * b_s) @ vs_dag + vs @ resid.conj().T - resid @ vs_dag)
    ell = HermitianOperator(l_mat)

    rho = state.mat
    lhs = 1j * (rho @ b.mat - b.mat @ rho)
    rhs = 0.5 * (rho @ l_mat + l_mat @ rho)
    residual = np.linalg.norm(lhs - rhs)
    scale = max(np.linalg.norm(lhs), 1.0)
    if residual > 1e-8 * scale:
        raise ArithmeticError(
            f"SLD defining equation violated: residual {residual:.3e} vs scale {scale:.3e}")

    lv = l_mat @ vs
    f = float(lam @ np.einsum("ik,ik->k", lv.conj(), lv).real)   # sum_k lam_k ||L v_k||^2
    return SldResult(sld=ell, qfi=f, mean_sld=expectation(state, ell))


@dataclass(frozen=True)
class EstimationReport:
    """Cramer-Rao bound 1/(m F_Q) next to the error-propagation variance, if any."""

    cramer_rao: float
    error_propagation: float | None = None


def error_propagation(state: DensityMatrix, a: HermitianOperator, b: HermitianOperator) -> float:
    """(Delta theta)^2_A = Var(A) / |<i[A, B]>|^2 for the dynamics generated by B."""
    c = commutator_i(a, b)
    signal = abs(expectation(state, c))
    if signal <= 1e-12:
        raise VanishingSignalError(
            f"|<i[A,B]>| = {signal:.3e}; A carries no first-order signal of the phase")
    return variance(state, a) / signal**2


def cramer_rao(state: DensityMatrix, b: HermitianOperator, m: int,
               a: HermitianOperator | None = None) -> EstimationReport:
    """Best precision allowed by the Fisher information for m repetitions."""
    _require_count(m, "m", 1)
    f = qfi(state, b)
    if f <= 1e-12:
        raise UnestimableParameterError(f"F_Q = {f:.3e}; the parameter is unestimable")
    err = error_propagation(state, a, b) if a is not None else None
    return EstimationReport(cramer_rao=1.0 / (m * f), error_propagation=err)


def variance_qfi_gap(state: DensityMatrix, a: HermitianOperator) -> float:
    """Var(A) - F_Q[rho, A]/4; zero for pure states, clamped against round-off."""
    gap = variance(state, a) - 0.25 * qfi(state, a)
    if gap < 0.0:
        if gap < -1e-10:
            raise ArithmeticError(f"variance/Fisher gap {gap:.3e} below round-off band")
        gap = 0.0
    return float(gap)


def check_sld_saturation(state: DensityMatrix, a: HermitianOperator,
                         b: HermitianOperator) -> tuple[bool, float]:
    """Test whether cA equals the symmetric logarithmic derivative of (rho, B).

    Fits the single scale c by least squares in the Hilbert-Schmidt inner
    product, which is robust to near-zero matrix entries.  When the fit
    residual vanishes, Var(A) F_Q[rho, B] = |<i[A,B]>|^2 is saturated; the
    product identity is verified as well before reporting saturation.  rho
    is ``state.mat``, formed on this read and kept nowhere.  An operator on
    another dimension than the state raises ``DimensionMismatchError``.
    """
    var_a = variance(state, a)
    if var_a <= 0.0:
        raise ValueError("A has zero variance on this state; rescaling is meaningless")
    lhs = var_a * qfi(state, b)
    rho = state.mat
    m = 1j * (rho @ b.mat - b.mat @ rho)
    n = 0.5 * (rho @ a.mat + a.mat @ rho)
    rhs = abs(expectation(state, commutator_i(a, b))) ** 2
    m_norm = np.linalg.norm(m)
    if m_norm < 1e-14:
        # [rho, B] = 0: both sides of the product relation vanish.
        return (lhs < 1e-12 and rhs < 1e-12), 0.0
    n_sq = np.real(np.vdot(n, n))
    c = float(np.real(np.vdot(n, m)) / n_sq) if n_sq > 0 else 0.0
    residual = np.linalg.norm(m - c * n)
    if residual >= 1e-8 * m_norm:
        return False, c
    saturated = abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-30)
    return saturated, c
