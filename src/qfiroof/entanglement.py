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
    variance,
)
from .roofs import OptimizerConfig, roof_sum_I

USEFULNESS_TOL = 1e-9
QFI_DEGENERATE = 1e-12


def _pair_image(psi: np.ndarray, q1: np.ndarray, q2: np.ndarray, sign: int) -> np.ndarray:
    """W = (Q1 (x) 1 + sign 1 (x) Q2) V_S without forming the d x d operator.

    ``psi`` holds the r support vectors reshaped to (r, d1, d2), system 1
    first; Q1 (x) 1 acts as Q1 Psi and 1 (x) Q2 as Psi Q2^T, at
    O(r d1 d2 (d1 + d2)) cost.
    """
    w = q1 @ psi + sign * (psi @ q2.T)
    return w.reshape(psi.shape[0], -1).T


def _quadrature_pairs(state: State, fock: FockAlgebra):
    """The support (lambda_S, V_S) and, for each of x1+x2, x1-x2, p1+p2 and
    p1-p2, its image W = (Q (x) 1 +- 1 (x) Q) V_S and its Fisher
    information F_Q[rho, Q1 +- Q2], each computed once.  Each support
    vector is reshaped to a c x c matrix, mode 1 first."""
    if state.dim != fock.cutoff**2:
        raise DimensionMismatchError(
            f"state dim {state.dim} is not cutoff^2 = {fock.cutoff ** 2}")
    lam, vs = _support(state)
    psi = vs.T.reshape(-1, fock.cutoff, fock.cutoff)
    x, p = fock.x.mat, fock.p.mat
    images = {name: _pair_image(psi, q, q, sign) for name, q, sign in (
        ("x1+x2", x, +1), ("x1-x2", x, -1), ("p1+p2", p, +1), ("p1-p2", p, -1))}
    return lam, vs, images, {name: _support_qfi(lam, vs, w) for name, w in images.items()}


def _above_p_nonnegative_cap(fisher: dict) -> dict:
    """Which combinations have a Fisher information above the P-nonnegative cap of 4."""
    return {name: bool(f > 4.0 + USEFULNESS_TOL) for name, f in fisher.items()}


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
    lam, vs, images, fisher = _quadrature_pairs(state, fock)
    var_x_plus = _support_variance(lam, vs, images["x1+x2"])
    var_p_minus = _support_variance(lam, vs, images["p1-p2"])
    lhs = var_x_plus + var_p_minus
    f_p_plus, f_x_minus = fisher["p1+p2"], fisher["x1-x2"]

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

    return TwoModeReport(
        duan_lhs=lhs,
        duan_rhs=2.0,
        qfi_x_minus=f_x_minus,
        qfi_p_plus=f_p_plus,
        fisher_pair_slack=float(fisher_pair_gap),
        fisher_pair_status=status,
        entangled=lhs < 2.0 - USEFULNESS_TOL,
        useful_flags=_above_p_nonnegative_cap(fisher),
    )


def coherent_mixture_usefulness(state: State, fock: FockAlgebra) -> dict:
    """Flag quadrature combinations whose QFI exceeds the P-nonnegative cap of 4.

    Reads only the support of the state; builds no d x d operator.
    """
    return _above_p_nonnegative_cap(_quadrature_pairs(state, fock)[3])


def two_spin_report(state: State, j1, j2) -> BoundReport:
    """Collective-variance separability test for two spins, with its Fisher side.

    With J_l^+- = J_l^(1) +- J_l^(2), separable states obey
    sum_l Var(J_l^+) >= j1 + j2, so ``lhs`` is that variance sum and a
    violation proves entanglement.  ``meta`` also carries sum_l Var(J_l^-),
    sum_l F_Q[rho, J_l^-] against the cap 4(j1 + j2) of mixtures of products
    of spin-coherent states, and ``summed_relation_slack``, the slack of
    12 sum Var(J^+) + 8 sum Var(J^-) + sum F_Q[J^-] >= 24(j1 + j2), which
    holds for every state (derivation in the README).

    Every moment is taken over the support of the state, with the
    single-spin operators applied to each support vector reshaped to
    d1 x d2; no d x d operator (d = d1 d2) is built.
    """
    spin1 = make_spin_algebra(j1)
    spin2 = make_spin_algebra(j2)
    dim = spin1.dim * spin2.dim
    if state.dim != dim:
        raise DimensionMismatchError(f"state dim {state.dim}, expected {dim}")
    lam, vs = _support(state)
    psi = vs.T.reshape(-1, spin1.dim, spin2.dim)

    var_plus = var_minus = fq_minus = 0.0
    for op1, op2 in zip(spin1.as_tuple(), spin2.as_tuple()):
        minus = _pair_image(psi, op1.mat, op2.mat, -1)
        var_plus += _support_variance(lam, vs, _pair_image(psi, op1.mat, op2.mat, +1))
        var_minus += _support_variance(lam, vs, minus)
        fq_minus += _support_qfi(lam, vs, minus)

    j_total = spin1.j + spin2.j
    return BoundReport(
        name="two_spin",
        lhs=var_plus,
        rhs=j_total,
        meta={"j1": spin1.j, "j2": spin2.j,
              "var_sum_minus": var_minus,
              "fq_sum_minus": fq_minus,
              "spin_coherent_fisher_cap": 4.0 * j_total,
              "more_useful_than_spin_coherent": fq_minus > 4.0 * j_total + USEFULNESS_TOL,
              "summed_relation_slack": (12.0 * var_plus + 8.0 * var_minus + fq_minus
                                        - 24.0 * j_total)},
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
