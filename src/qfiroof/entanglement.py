"""Entanglement and metrological-usefulness criteria for two bosonic modes
and for collections of spins.

CV usefulness flags compare against the class of two-mode states with a
nonnegative Glauber-Sudarshan P function (mixtures of products of coherent
states).  That class is a strict subset of the separable states, so the
flags never claim "more useful than all separable states".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport
from .core import (
    DimensionMismatchError,
    FockAlgebra,
    HermitianOperator,
    State,
    _support,
    _support_qfi,
    _support_variance,
    make_spin_algebra,
    tensor,
    variance,
)
from .metrology import qfi
from .roofs import OptimizerConfig, roof_sum_I

USEFULNESS_TOL = 1e-9
QFI_DEGENERATE = 1e-12


def _quadrature_image(psi: np.ndarray, q: np.ndarray, sign: int) -> np.ndarray:
    """W = (Q (x) 1 + sign 1 (x) Q) V_S without forming the d x d operator.

    ``psi`` holds the r support vectors reshaped to (r, c, c), mode 1 first;
    Q (x) 1 acts as Q Psi and 1 (x) Q as Psi Q^T, at O(r c^3) cost.
    """
    w = q @ psi + sign * (psi @ q.T)
    return w.reshape(psi.shape[0], -1).T


def _two_mode_support(state: State, fock: FockAlgebra):
    """(lambda_S, V_S, Psi): the support, and each support vector as a c x c matrix."""
    if state.dim != fock.cutoff**2:
        raise DimensionMismatchError(
            f"state dim {state.dim} is not cutoff^2 = {fock.cutoff ** 2}")
    lam, vs = _support(state)
    return lam, vs, vs.T.reshape(-1, fock.cutoff, fock.cutoff)


@dataclass(frozen=True)
class TwoModeReport:
    """Pair-variance entanglement criterion and its Fisher-information side."""

    duan_lhs: float
    duan_rhs: float
    qfi_x_minus: float
    qfi_p_plus: float
    fisher_pair_slack: float
    fisher_pair_status: str
    entangled: bool
    useful_flags: dict = field(default_factory=dict)

    @property
    def more_useful_than_p_nonnegative(self) -> bool:
        return any(self.useful_flags.values())


def duan_report(state: State, fock: FockAlgebra) -> TwoModeReport:
    """Var(x1+x2) + Var(p1-p2) against both its entanglement and QFI bounds.

    Violating the separability threshold 2 witnesses entanglement; the
    Fisher-information relation
    lhs >= 4/F_Q[rho, p1+p2] + 4/F_Q[rho, x1-x2] holds for every state.
    A vanishing Fisher term would make that bound degenerate; it is treated
    as zero contribution only when the matching variance also vanishes,
    otherwise the check is reported as numerically indeterminate.

    Every moment is taken over the support of the state (its r eigenvectors
    of positive eigenvalue), with the single-mode quadratures applied to
    each support vector reshaped to c x c.  No d x d operator (d = c^2) is
    built: the cost is O(r c^3 + d r^2) time and O(d r) memory.
    """
    lam, vs, psi = _two_mode_support(state, fock)
    x, p = fock.x.mat, fock.p.mat
    var_x_plus = _support_variance(lam, vs, _quadrature_image(psi, x, +1))
    var_p_minus = _support_variance(lam, vs, _quadrature_image(psi, p, -1))
    lhs = var_x_plus + var_p_minus
    f_p_plus = _support_qfi(lam, vs, _quadrature_image(psi, p, +1))
    f_x_minus = _support_qfi(lam, vs, _quadrature_image(psi, x, -1))

    status = "ok"
    fisher_pair_rhs = 0.0
    for f, var in ((f_p_plus, var_x_plus), (f_x_minus, var_p_minus)):
        if f < QFI_DEGENERATE:
            if var > QFI_DEGENERATE:
                status = "indeterminate"
            # matching variance is zero too: the term contributes nothing
        else:
            fisher_pair_rhs += 4.0 / f
    fisher_pair_gap = lhs - fisher_pair_rhs if status == "ok" else np.nan

    flags = coherent_mixture_usefulness(state, fock)
    return TwoModeReport(
        duan_lhs=lhs,
        duan_rhs=2.0,
        qfi_x_minus=f_x_minus,
        qfi_p_plus=f_p_plus,
        fisher_pair_slack=float(fisher_pair_gap),
        fisher_pair_status=status,
        entangled=lhs < 2.0 - USEFULNESS_TOL,
        useful_flags=flags,
    )


def coherent_mixture_usefulness(state: State, fock: FockAlgebra) -> dict:
    """Flag quadrature combinations whose QFI exceeds the P-nonnegative cap of 4.

    Reads only the support of the state; builds no d x d operator.
    """
    lam, vs, psi = _two_mode_support(state, fock)
    combos = {
        "x1+x2": (fock.x.mat, +1),
        "x1-x2": (fock.x.mat, -1),
        "p1+p2": (fock.p.mat, +1),
        "p1-p2": (fock.p.mat, -1),
    }
    return {name: bool(_support_qfi(lam, vs, _quadrature_image(psi, op, sign))
                       > 4.0 + USEFULNESS_TOL)
            for name, (op, sign) in combos.items()}


@dataclass(frozen=True)
class TwoSpinReport:
    """Collective-variance criterion and Fisher usefulness for two spins.

    ``three_axis_lhs`` is the combination 8 sum_l Var(J_l^(1) + J_l^(2)) +
    sum_l F_Q[rho, J_l^(1) - J_l^(2)] and ``three_axis_rhs`` is 12(j1 + j2).
    ``three_axis_lhs >= three_axis_rhs`` is not a theorem: the singlet
    saturates it, but over pure two-qubit states the left side has minimum 11.
    """

    j1: float
    j2: float
    collective_var_sum: float
    separable_floor: float
    fq_sum_minus: float
    spin_coherent_fisher_cap: float
    three_axis_lhs: float
    three_axis_rhs: float
    entangled: bool
    more_useful_than_spin_coherent: bool


def two_spin_report(state: State, j1, j2,
                    sign_var: int = +1, sign_fq: int = -1) -> TwoSpinReport:
    """Evaluate the two-spin variance criterion and its usefulness companion.

    ``sign_var`` and ``sign_fq`` pick the relative sign inside the collective
    variance and Fisher operators; the default pairs summed variances with
    differential Fisher terms, which is the combination a singlet maximizes.
    ``three_axis_lhs``/``three_axis_rhs`` are 8 sum Var(J^+) + sum F_Q[J^-]
    and 12(j1 + j2); lhs >= rhs is not a theorem (the pure two-qubit minimum
    of lhs is 11).  With the sum Var(J^-) of a ``sign_var=-1`` call, the
    relation 12 sum Var(J^+) + 8 sum Var(J^-) + sum F_Q[J^-] >= 24(j1 + j2)
    holds for every state.
    """
    spin1 = make_spin_algebra(j1)
    spin2 = make_spin_algebra(j2)
    dim = spin1.dim * spin2.dim
    if state.dim != dim:
        raise DimensionMismatchError(f"state dim {state.dim}, expected {dim}")
    if sign_var not in (-1, 1) or sign_fq not in (-1, 1):
        raise ValueError("signs must be +1 or -1")
    eye1 = HermitianOperator(np.eye(spin1.dim))
    eye2 = HermitianOperator(np.eye(spin2.dim))

    var_sum = 0.0
    fq_sum = 0.0
    for op1, op2 in zip(spin1.as_tuple(), spin2.as_tuple()):
        a = tensor(op1, eye2)
        b = tensor(eye1, op2)
        var_sum += variance(state, a + sign_var * b)
        fq_sum += qfi(state, a + sign_fq * b)

    j_total = spin1.j + spin2.j
    return TwoSpinReport(
        j1=spin1.j, j2=spin2.j,
        collective_var_sum=var_sum,
        separable_floor=j_total,
        fq_sum_minus=fq_sum,
        spin_coherent_fisher_cap=4.0 * j_total,
        three_axis_lhs=8.0 * var_sum + fq_sum,
        three_axis_rhs=12.0 * j_total,
        entangled=var_sum < j_total - USEFULNESS_TOL,
        more_useful_than_spin_coherent=fq_sum > 4.0 * j_total + USEFULNESS_TOL,
    )


def collective_spin_ops(j, n_parties: int) -> tuple[HermitianOperator, ...]:
    """Collective J_x, J_y, J_z for n spin-j parties, built as tensor sums."""
    spin = make_spin_algebra(j)
    if n_parties < 1:
        raise ValueError("need at least one party")
    eye = np.eye(spin.dim)
    out = []
    for op in spin.as_tuple():
        total = np.zeros((spin.dim**n_parties,) * 2, dtype=complex)
        for site in range(n_parties):
            factors = [eye] * n_parties
            factors[site] = op.mat
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            total += term
        out.append(HermitianOperator(total))
    return tuple(out)


def vxyz_criterion(state: State, j, n_parties: int,
                   cfg: OptimizerConfig | None = None,
                   ancilla_dim: int | None = None) -> BoundReport:
    """Separability test on the collective variance sum, with its convex roof.

    Separable states of N spin-j parties obey sum_n Var(J_n) >= N j (Toth,
    Knapp, Guhne & Briegel, PRL 99, 250405 (2007)), so ``lhs`` is the
    state's variance sum and a violation proves entanglement.  ``meta``
    also carries ``roof``, the best decomposition average of the variance
    sum that the convex-roof search finds (``ancilla_dim`` as in
    ``roof_sum_I``).  It is a witness: an upper bound on the true convex
    roof, which lies between sum_n F_Q[rho, J_n] / 4 and ``lhs``.  The
    roof is no separability test: a separable state can be decomposed into
    entangled components, and the maximally mixed state of three qubits has
    a basis of them averaging 9/8 < 3/2.
    """
    ops = collective_spin_ops(j, n_parties)
    if state.dim != ops[0].dim:
        raise DimensionMismatchError(
            f"state dim {state.dim}, expected {ops[0].dim}")
    roof = roof_sum_I(state, ops, cfg=cfg, ancilla_dim=ancilla_dim)
    spin = make_spin_algebra(j)
    return BoundReport(
        name="collective_variance",
        lhs=sum(variance(state, op) for op in ops),
        rhs=float(n_parties) * spin.j,
        meta={"n_parties": n_parties, "j": spin.j,
              "roof": roof.value,
              "converged": roof.converged,
              "witness_is_upper_bound": True},
    )
