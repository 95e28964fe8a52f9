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
# each Duan combination's place in the (sign, quadrature) stack of _two_party_images
_PAIRS = {"x1+x2": (0, 0), "x1-x2": (1, 0), "p1+p2": (0, 1), "p1-p2": (1, 1)}


def _two_party_images(psi: np.ndarray, ops1: np.ndarray, ops2: np.ndarray) -> np.ndarray:
    """The (2, n, d, r) stack of the images W = (Q1_l (x) 1 +- 1 (x) Q2_l) V_S,
    plus first, of the n operator pairs (Q1_l, Q2_l) in ``ops1``, ``ops2``.

    ``psi`` holds the r support vectors reshaped to (r, d1, d2), system 1
    first; Q1 (x) 1 acts as Q1 Psi and 1 (x) Q2 as Psi Q2^T, so each party's
    images take one batched matmul, O(n r d1 d2 (d1 + d2)), and no d x d
    operator is formed."""
    pairs = np.empty((2, len(ops1), *psi.shape), dtype=complex)
    np.matmul(ops1[:, None], psi, out=pairs[0])
    twos = psi @ ops2[:, None].swapaxes(-1, -2)
    np.subtract(pairs[0], twos, out=pairs[1])
    pairs[0] += twos
    return pairs.reshape(*pairs.shape[:3], -1).swapaxes(-1, -2)


def _quadrature_pairs(state: State, fock: FockAlgebra):
    """The support (lambda_S, V_S), the (2, 2, d, r) stack of the images of
    x1 +- x2 and p1 +- p2 (placed as in ``_PAIRS``) and their four Fisher
    informations.  The four single-mode images x (x) 1, 1 (x) x, p (x) 1 and
    1 (x) p of the support, reshaped to c x c, are made once; the pair images
    are their sums and differences."""
    if state.dim != fock.cutoff**2:
        raise DimensionMismatchError(
            f"state dim {state.dim} is not cutoff^2 = {fock.cutoff ** 2}")
    lam, vs = _support(state)
    quads = np.array([fock.x.mat, fock.p.mat])
    images = _two_party_images(vs.T.reshape(-1, fock.cutoff, fock.cutoff), quads, quads)
    return lam, vs, images, _support_qfi(lam, vs, images)


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
    ``useful_flags`` marks each of x1+-x2 and p1+-p2 whose Fisher
    information exceeds 4, the cap of the P-nonnegative states.

    Every moment is taken over the support of the state (its r eigenvectors
    of positive eigenvalue): four single-mode images, each made once, and one
    support pass over their sums and differences (``_quadrature_pairs``).
    No d x d operator (d = c^2) is built: O(r c^3 + d r^2) time, O(d r) memory.
    """
    lam, vs, images, fisher = _quadrature_pairs(state, fock)
    # the Duan pair x1+x2, p1-p2 is the diagonal of the (sign, quadrature) stack
    duan_pair = images.diagonal().transpose(2, 0, 1)
    var_x_plus, var_p_minus = map(float, _support_variance(lam, vs, duan_pair))
    lhs = var_x_plus + var_p_minus
    f_x_minus, f_p_plus = float(fisher[_PAIRS["x1-x2"]]), float(fisher[_PAIRS["p1+p2"]])

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
        useful_flags={name: bool(fisher[at] > 4.0 + USEFULNESS_TOL)
                      for name, at in _PAIRS.items()},
    )


def two_spin_report(state: State, j1, j2) -> BoundReport:
    """Collective-variance separability test for two spins, with its Fisher side.

    With J_l^+- = J_l^(1) +- J_l^(2), separable states obey
    sum_l Var(J_l^+) >= j1 + j2, so ``lhs`` is that variance sum and a
    violation proves entanglement.  ``meta`` also carries sum_l Var(J_l^-),
    sum_l F_Q[rho, J_l^-] against the cap 4(j1 + j2) of mixtures of products
    of spin-coherent states, and ``summed_relation_slack``, the slack of
    12 sum Var(J^+) + 8 sum Var(J^-) + sum F_Q[J^-] >= 24(j1 + j2), which
    holds for every state (derivation in the README).

    Every moment is taken over the support of the state from the six
    single-spin images, each made once: one support pass over the J_l^+-
    images gives the variances, one over the J_l^- images the Fisher
    informations.  No d x d operator (d = d1 d2) is built.
    """
    spin1 = make_spin_algebra(j1)
    spin2 = make_spin_algebra(j2)
    dim = spin1.dim * spin2.dim
    if state.dim != dim:
        raise DimensionMismatchError(f"state dim {state.dim}, expected {dim}")
    lam, vs = _support(state)
    images = _two_party_images(vs.T.reshape(-1, spin1.dim, spin2.dim),
                               *[np.array([op.mat for op in spin.as_tuple()])
                                 for spin in (spin1, spin2)])
    var_plus, var_minus = map(float, _support_variance(lam, vs, images).sum(axis=-1))
    fq_minus = float(_support_qfi(lam, vs, images[1]).sum())

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
