"""Uncertainty-bound catalog: evaluate each inequality, report slack and
intermediate quantities, and compute the roof-improved variants."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    commutator_i,
    expectation,
    make_spin_algebra,
    make_su_d_generators,
    variance,
)
from .metrology import qfi
from .roofs import (
    OptimizerConfig,
    RobertsonSchrodingerBound,
    concave_roof_L,
    eigen_partition_bound_K,
    optimize_roof,
)

VIOLATION_TOL = -1e-9  # slack below this marks a bound as violated


class InfeasibleTargetError(ValueError):
    """A constraint target lies outside the range of its operator's expectation values."""


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluation: lhs >= rhs expected, slack = lhs - rhs."""

    name: str
    lhs: float
    rhs: float
    meta: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def violated(self) -> bool | None:
        """True or False for a finite slack; None (indeterminate) for a NaN or infinite one."""
        if not np.isfinite(self.slack):
            return None
        return bool(self.slack < VIOLATION_TOL)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "violated": self.violated,
            "meta": dict(self.meta),
        }


def rs_lower_bound_L(state: DensityMatrix, a: HermitianOperator, b: HermitianOperator) -> float:
    """The strengthened uncertainty bound combining covariance and commutator mean.

    L = sqrt(|<{A,B}> - 2<A><B>|^2 + |<i[A,B]>|^2); the plain product
    uncertainty relation reads Var(A) Var(B) >= L^2 / 4.
    """
    return RobertsonSchrodingerBound(a, b).on_state(state)


def check_robertson_schrodinger(state: DensityMatrix, a: HermitianOperator,
                                b: HermitianOperator) -> BoundReport:
    """Var(A) Var(B) >= L^2 / 4 with the covariance-strengthened bound."""
    l_val = rs_lower_bound_L(state, a, b)
    return BoundReport(
        name="robertson_schrodinger",
        lhs=variance(state, a) * variance(state, b),
        rhs=0.25 * l_val**2,
        meta={"L": l_val},
    )


def check_improved_rs(state: DensityMatrix, a: HermitianOperator, b: HermitianOperator,
                      cfg: OptimizerConfig | None = None) -> BoundReport:
    """Variance product against the concave roof of the uncertainty bound.

    The right-hand side maximizes the weighted average of L over pure
    decompositions; it dominates the plain bound because one of the search's
    candidate starts splits rho into pure components with its means, which
    score at least L(rho) (see ``concave_roof_L``).  Qutrits also report the
    closed-form eigenvector-partition bound K in the metadata.
    """
    roof = concave_roof_L(state, a, b, cfg=cfg)
    meta = {
        "L": rs_lower_bound_L(state, a, b),
        "roof_L": roof.value,
        "roof_converged": roof.converged,
    }
    if state.dim == 3:
        meta["K"] = eigen_partition_bound_K(state, a, b)
    return BoundReport(
        name="improved_robertson_schrodinger",
        lhs=variance(state, a) * variance(state, b),
        rhs=0.25 * roof.value**2,
        meta=meta,
    )


def check_improved_hr(state: DensityMatrix, a: HermitianOperator,
                      b: HermitianOperator) -> BoundReport:
    """Var(A) F_Q[rho, B] >= |<i[A,B]>|^2, the Fisher-sharpened product relation."""
    c_mean = expectation(state, commutator_i(a, b))
    return BoundReport(
        name="improved_heisenberg_robertson",
        lhs=variance(state, a) * qfi(state, b),
        rhs=c_mean**2,
        meta={"commutator_mean": c_mean},
    )


def check_weighted_sum(state: DensityMatrix, a: HermitianOperator, b: HermitianOperator,
                       alpha: float, beta: float,
                       cfg: OptimizerConfig | None = None) -> BoundReport:
    """alpha Var(A) + beta F_Q[rho, B]/4 >= sqrt(alpha beta) * (convex roof of L).

    The reported bound is sqrt(alpha beta) |<i[A,B]>|, which never exceeds the
    roof: |<i[A,B]>| bounds every decomposition average of L from below.  The
    optimizer's witness approaches the roof from above, so a verdict against
    it could flag the theorem itself; it goes to ``meta["roof_witness"]``.
    """
    for name, weight in (("alpha", alpha), ("beta", beta)):
        if not np.isfinite(weight):
            raise ValueError(f"weight {name} must be finite, got {weight!r}")
    if alpha < 0 or beta < 0:
        raise ValueError("weights must be nonnegative")
    c_abs = abs(expectation(state, commutator_i(a, b)))
    meta: dict = {"commutator_mean_abs": c_abs}
    if alpha * beta > 0:
        witness = optimize_roof(state, RobertsonSchrodingerBound(a, b), "min", cfg=cfg)
        meta["roof_witness"] = witness.value
    return BoundReport(
        name="weighted_variance_fisher_sum",
        lhs=alpha * variance(state, a) + beta * qfi(state, b) / 4.0,
        rhs=float(np.sqrt(alpha * beta)) * c_abs,
        meta=meta,
    )


def bfq_bound(state: DensityMatrix) -> BoundReport:
    """F_Q[rho, J_z] >= 4j - 4 Var(J_x) - 4 Var(J_y) for a single spin j.

    The metadata carries the reference level 2j that mixtures of
    spin-coherent states cannot exceed.
    """
    j = (state.dim - 1) / 2.0
    if j == 0.0:
        raise ValueError("bfq_bound needs spin j > 0; a dim-1 state is spin 0")
    spin = make_spin_algebra(j)
    var_x = variance(state, spin.jx)
    var_y = variance(state, spin.jy)
    return BoundReport(
        name="variance_fisher_spin",
        lhs=qfi(state, spin.jz),
        rhs=4.0 * j - 4.0 * var_x - 4.0 * var_y,
        meta={"j": j, "var_jx": var_x, "var_jy": var_y,
              "su2_mixture_reference": 2.0 * j},
    )


def su_d_bound(state: DensityMatrix) -> BoundReport:
    """F_Q[rho, G_1]/4 + sum_{n>=2} Var(G_n) >= 4j over the orthogonal generator basis."""
    d = state.dim
    gens = make_su_d_generators(d)
    lhs = qfi(state, gens[0]) / 4.0 + sum(variance(state, g) for g in gens[1:])
    j = (d - 1) / 2.0
    return BoundReport(
        name="generator_variance_sum",
        lhs=float(lhs),
        rhs=4.0 * j,
        meta={"d": d, "j": j, "n_generators": len(gens)},
    )


# ---------------------------------------------------------------------------
# constrained minimum of a variance sum by Legendre duality, and the spin-length bound
# ---------------------------------------------------------------------------

GAP_TOL = 1e-10       # a target is done once its certified value is this close to its dual value
MAX_BOXES = 2000      # boxes per target at most; sums of two or more variances stop here
MU_STEPS = 100        # multiplier iterations, and sweeps over the multipliers, per box at most
ROUND_OFF = 64 * np.finfo(float).eps   # relative round-off of a target and of a lowest eigenvalue
JOINT_ANGLES = 128    # directions u per plane of two constraints in the joint-range test
JOINT_STEPS = 8       # projected supergradient steps per target in the joint-range test


def _multiplier(base, op, target, mu):
    """Maximize the concave g(mu) = lambda_min(base - mu op) + mu target per row.

    Newton steps from the perturbative g'' run inside a bracket whose ground
    states have supergradients s = target - <op> of both signs, bisection
    where they leave it; min(s_lo, -s_hi) (hi - lo) bounds the duality gap.
    Returns the mu with the best g less its round-off margin, that g, and the
    bracketing ground states with the lower one's weight in their mixture
    that meets the target."""
    k, d = base.shape[:2]
    lo, hi, s_lo, s_hi = np.full((4, k), np.nan)
    lo[:], hi[:] = -np.inf, np.inf
    v_lo, v_hi = np.zeros((k, d), complex), np.zeros((k, d), complex)
    rows, best, best_mu, mu = np.arange(k), np.full(k, -np.inf), mu.copy(), mu.copy()
    for _ in range(MU_STEPS):
        m, t = mu[rows], target[rows]
        mats = base[rows] - m[:, None, None] * op
        e, v = np.linalg.eigh(mats)
        coupling = (v[:, None, :, 0].conj() @ op @ v)[:, 0]  # <v_0|op|v_f>
        s = t - coupling[:, 0].real
        # rank mu by g less its round-off margin, which outgrows g as |mu| runs off near an end
        g = e[:, 0] + m * t - ROUND_OFF * np.linalg.norm(mats, axis=(1, 2))
        gain = g > best[rows]
        best[rows[gain]], best_mu[rows[gain]] = g[gain], m[gain]
        up = s >= 0
        lo[rows[up]], s_lo[rows[up]], v_lo[rows[up]] = m[up], s[up], v[up, :, 0]
        hi[rows[~up]], s_hi[rows[~up]], v_hi[rows[~up]] = m[~up], s[~up], v[~up, :, 0]
        left, right = lo[rows], hi[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            curvature = 2.0 * (np.abs(coupling[:, 1:]) ** 2 / (e[:, 1:] - e[:, :1])).sum(1)
            step = m + s / curvature
            slack = np.fmin(s_lo[rows], -s_hi[rows]) * (right - left)
        outward = m + np.where(up, 1.0, -1.0) * np.maximum(1.0, np.abs(m))
        step = np.where((step > left) & (step < right), step,
                        np.where(np.isfinite(right - left), 0.5 * (left + right), outward))
        done = (s == 0) | (slack <= 1e-3 * GAP_TOL) | (right - left <= 4 * np.spacing(np.abs(m)))
        mu[rows] = step
        rows = rows[~done]
        if rows.size == 0:
            break
    return best_mu, best, v_lo, v_hi, np.where(s_lo == 0, 1.0, s_hi / (s_hi - s_lo))


def _dual(base, ops, targets, mu, ceiling):
    """Sweep ``_multiplier`` over the constraints from ``mu`` until each row gains
    under 1e-3 ``GAP_TOL`` or passes ``ceiling``; the witness weight is NaN for y >= 2."""
    mu, g = mu.copy(), np.full(len(base), -np.inf)
    for _ in range(MU_STEPS):
        last = g
        for m in range(len(ops)):
            rest = np.arange(len(ops)) != m
            fixed = base - np.einsum("ky,yde->kde", mu[:, rest], ops[rest])
            mu[:, m], g, v_lo, v_hi, p = _multiplier(fixed, ops[m], targets[:, m], mu[:, m])
        g = g + (mu[:, rest] * targets[:, rest]).sum(1)
        if len(ops) == 1 or np.all((g - last <= 1e-3 * GAP_TOL) | (g > ceiling)):
            break
    return g, mu, v_lo, v_hi, p if len(ops) == 1 else np.full(len(base), np.nan)


def _branch_and_bound(sq, a, b, targets):
    """``_minvar_dual`` for targets inside the range of every constraint."""
    if len(b) == 0:  # no constraint is the constraint <0> = 0
        b, targets = np.zeros((1,) + sq.shape), np.zeros((len(targets), 1))
    k, spec = len(targets), np.linalg.eigvalsh(a)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=len(a))))
    owner, mu, boxes = np.arange(k), np.zeros((k, len(b))), np.zeros(k, int)
    lo, hi = np.repeat(spec[None, :, 0], k, 0), np.repeat(spec[None, :, -1], k, 0)
    floor, best, witness = np.full((3, k), np.inf)
    # no variance sum exceeds cap, and no box bound falls below it once the dual passes ceiling
    spread = spec[:, -1] - spec[:, 0]
    cap = np.linalg.eigvalsh(sq)[-1]
    ceiling = cap + 2.0 * spread @ np.abs(spec).max(1)
    while owner.size:
        t = targets[owner]
        centre = 0.5 * (lo + hi)
        g, mu, v_lo, v_hi, p = _dual(sq - 2.0 * np.einsum("kn,nde->kde", centre, a),
                                     b, t, mu, ceiling)
        np.minimum.at(best, owner, g + (centre ** 2).sum(1))
        moments = sum(q[:, None] * np.einsum("nkd,kd->kn", v.conj() @ np.stack([sq, *a]), v).real
                      for q, v in ((p, v_lo), (1 - p, v_hi)))
        np.fmin.at(witness, owner, moments[:, 0] - (moments[:, 1:] ** 2).sum(1))

        # phi(c) = lambda_min(sq - 2c.A - mu.B) + mu.t is concave in c, so for
        # every w, |c|^2 + phi(c) >= -|w|^2 + 2w.c + phi(c) >= -|w|^2 +
        # min over corners of (2w.v + phi(v)) on the box; w is the minimizer of
        # |c|^2 plus the least-squares affine fit of phi over the corners
        width = hi - lo
        verts = lo[:, None] + corners * width[:, None]
        mats = (sq - 2.0 * np.einsum("kvn,nde->kvde", verts, a)
                - np.einsum("ky,yde->kde", mu, b)[:, None])
        margin = ROUND_OFF * np.linalg.norm(mats, axis=(-2, -1))
        phi = np.linalg.eigvalsh(mats)[..., 0] + (mu * t).sum(1)[:, None] - margin
        slope = np.divide(4.0 * phi @ (corners - 0.5) / len(corners), width,
                          out=np.zeros_like(width), where=width > 0)
        w = np.clip(-0.5 * slope, lo, hi)
        bound = (2.0 * np.einsum("kvn,kn->kv", verts, w) + phi).min(1) - (w ** 2).sum(1)

        np.add.at(boxes, owner, 1)
        split = ((bound + margin.max(1) < best[owner] - GAP_TOL) & (width.max(1) > 0)
                 & (boxes[owner] < MAX_BOXES))
        np.minimum.at(floor, owner[~split], bound[~split])
        # halve the widest side of every box left open
        owner, lo, hi, mu, width = owner[split], lo[split], hi[split], mu[split], width[split]
        side, mid = np.arange(len(a)) == width.argmax(1)[:, None], lo + 0.5 * width
        owner, mu = np.concatenate([owner, owner]), np.concatenate([mu, mu])
        lo = np.concatenate([lo, np.where(side, mid, lo)])
        hi = np.concatenate([np.where(side, mid, hi), hi])
    if np.any(floor > cap):
        raise InfeasibleTargetError(f"no state meets the targets {targets[floor > cap][0]}: "
                                    "the certified minimum exceeds every variance sum")
    return np.maximum(floor, 0.0), np.maximum(witness, 0.0)


def _beyond_joint_range(b, t):
    """Rows of the targets ``t`` that a unit direction u proves out of the
    joint range of the y >= 2 constraints ``b``: every state has u.<B> <=
    lambda_max(u.B), so u.t above that, beyond the round-off margin, is out
    of reach.  The u tried are ``JOINT_ANGLES`` evenly spaced angles on the
    circle of every plane of two constraint axes and, per row, the direction
    of t from the maximally mixed means Tr B / d and ``JOINT_STEPS``
    projected supergradient steps from it of the concave u.t -
    lambda_max(u.B) over the unit ball, step s of length 1 / (s + 2) along
    t - <v|B|v>, v a top eigenvector of u.B."""
    angles = 2.0 * np.pi * np.arange(JOINT_ANGLES) / JOINT_ANGLES
    planes = list(itertools.combinations(range(len(b)), 2))
    u = np.zeros((len(planes), JOINT_ANGLES, len(b)))
    for i, (m, n) in enumerate(planes):
        u[i, :, m], u[i, :, n] = np.cos(angles), np.sin(angles)
    u = u.reshape(-1, len(b))
    lam = np.linalg.eigvalsh(np.einsum("uy,yde->ude", u, b))
    margin = ROUND_OFF * (1.0 + np.abs(lam).max(1) + np.abs(t).sum(1)[:, None])
    beyond = (t @ u.T > lam[:, -1] + margin).any(1)
    tiny = np.finfo(float).tiny
    u = t - np.trace(b, axis1=1, axis2=2).real / b.shape[-1]
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), tiny)
    for s in range(JOINT_STEPS + 1):
        lam, vecs = np.linalg.eigh(np.einsum("ky,yde->kde", u, b))
        margin = ROUND_OFF * (1.0 + np.abs(lam).max(1) + np.abs(t).sum(1))
        beyond |= np.vecdot(u, t) > lam[:, -1] + margin
        if s == JOINT_STEPS:
            return beyond
        top = vecs[:, :, -1]
        g = t - np.einsum("kd,yde,ke->ky", top.conj(), b, top).real
        u += g / (np.maximum(np.linalg.norm(g, axis=1, keepdims=True), tiny) * (s + 2))
        u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1.0)


def _minvar_dual(sq, a, b, targets):
    """Certified lower and witness upper values of min sum_n Var(A_n) s.t. <B_m> = t_m.

    ``sq`` = sum_n A_n^2, ``a`` and ``b`` stack the A_n and B_m, and each row
    of ``targets`` is one problem.  As Var(A) = min_c <(A - c)^2>, the minimum
    is min_c [|c|^2 + max_mu (lambda_min(sq - 2c.A - mu.B) + mu.t)] by LP
    duality (Toth, Moroder & Guehne, PRL 114, 160501 (2015)).  A branch and
    bound over boxes of c stops within ``GAP_TOL`` of the best dual value or
    at ``MAX_BOXES``, certified either way.  The upper value is the variance
    sum of a state that meets the targets, or infinite for two or more.  A
    target at an end of B_m's range restricts the problem to that eigenspace;
    one outside it raises ``InfeasibleTargetError``.  So do two or more
    targets t that no state meets jointly, wherever a direction u that
    ``_beyond_joint_range`` tries proves it: every state has u.<B> <=
    lambda_max(u.B), so u.t above that, beyond the round-off margin, is out
    of reach.  Targets that pass this test and are still out of reach raise
    once the certified minimum passes every variance sum.
    """
    lower, upper = np.empty(len(targets)), np.empty(len(targets))
    open_rows = np.arange(len(targets))
    for m in range(len(b)):
        spec, vecs = np.linalg.eigh(b[m])
        tol = ROUND_OFF * max(1.0, np.abs(spec).max())
        t = targets[open_rows, m]
        outside = (t < spec[0] - tol) | (t > spec[-1] + tol)
        if outside.any():
            raise InfeasibleTargetError(f"target {t[outside][0]} of constraint {m} "
                                        f"outside its range [{spec[0]}, {spec[-1]}]")
        # a target just inside an end stays inside: F can rise like the root of the distance
        edge = (t <= spec[0]) | (t >= spec[-1])
        rest = np.arange(len(b)) != m
        for i, ti in zip(open_rows[edge], t[edge]):
            end = spec[0] if ti <= spec[0] else spec[-1]
            face = vecs[:, np.abs(spec - end) <= tol]
            (lower[i],), (upper[i],) = _minvar_dual(
                face.conj().T @ sq @ face, face.conj().T @ a @ face,
                face.conj().T @ b[rest] @ face, targets[i:i + 1, rest])
        open_rows = open_rows[~edge]
    if len(b) >= 2 and open_rows.size:
        t = targets[open_rows]
        beyond = _beyond_joint_range(b, t)
        if beyond.any():
            raise InfeasibleTargetError(f"no state meets the targets {t[beyond][0]}: "
                                        "they leave the joint range of the constraints")
    if open_rows.size:
        lower[open_rows], upper[open_rows] = _branch_and_bound(sq, a, b, targets[open_rows])
    return lower, upper


def minvar_constrained(a_ops, b_ops=(), targets=()) -> float:
    """Certified minimum of sum_n Var(A_n) over states whose <B_m> equal the targets.

    The lower value of ``_minvar_dual``: no state that meets the targets has a
    smaller variance sum, and for at most one constraint a state that does
    lies within ``GAP_TOL`` above it.  Mixed dimensions raise
    ``DimensionMismatchError``.
    """
    a_ops, b_ops, targets = list(a_ops), list(b_ops), [float(t) for t in targets]
    if not a_ops:
        raise ValueError("need at least one variance operator")
    if len(b_ops) != len(targets):
        raise ValueError("one target per constraint operator required")
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"targets must be finite, got {targets!r}")
    dims = sorted({op.dim for op in a_ops + b_ops})
    if len(dims) > 1:
        raise DimensionMismatchError(f"operators act on dimensions {dims}; they must agree")
    a = np.array([op.mat for op in a_ops])
    b = np.array([op.mat for op in b_ops]).reshape(len(b_ops), dims[0], dims[0])
    lower, _ = _minvar_dual((a @ a).sum(0), a, b, np.array([targets]).reshape(1, -1))
    return float(lower[0])


def _fj(j: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """Certified lower and witness upper values of F_j at each X in ``xs``."""
    spin = make_spin_algebra(j)
    jx, jz = spin.jx.mat.real, spin.jz.mat.real  # real in the J_z basis: real eigensolves
    lower, upper = _minvar_dual(jx @ jx, jx[None], jz[None],
                                spin.j * np.asarray(xs, dtype=float).reshape(-1, 1))
    return lower / spin.j, upper / spin.j


@dataclass(frozen=True)
class FjCurve:
    """Certified lower values of F_j(X) = min Var(J_x)/j at <J_z> = jX on a grid of X.

    F_j is convex (Soerensen & Moelmer, PRL 86, 4431 (2001)), so the dual's
    minimum over mixed states is the one over pure states.  A call evaluates
    the dual at X: a chord between lower values of a convex curve can pass
    above it, so the grid is never interpolated."""

    j: float
    grid: np.ndarray
    values: np.ndarray

    def __call__(self, x: float) -> float:
        if not np.isfinite(x):
            raise ValueError(f"X must be finite, got {x!r}")
        return float(_fj(self.j, [x])[0][0])


def fj_curve(j, grid) -> FjCurve:
    """Certified lower values of F_j on a 1-D grid of X in [0, 1], one dual per point."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"grid must be a non-empty 1-D array, got shape {grid.shape}")
    if not np.all((grid >= 0) & (grid <= 1)):
        raise ValueError("grid values must lie in [0, 1]")
    spin = make_spin_algebra(j)
    if spin.j == 0.0:
        raise ValueError("fj_curve needs spin j > 0; spin 0 has no polarization")
    return FjCurve(j=spin.j, grid=grid, values=_fj(spin.j, grid)[0])


def spin_length_bound(state: DensityMatrix) -> BoundReport:
    """F_Q[rho, J_x]/4 >= j F_j(<J_z>/j): polarization certifies usefulness.

    The right-hand side is the certified lower value of F_j at the state's
    own X, and ``meta["Fj_witness"]`` Var(J_x)/j of an explicit state that
    meets X (see ``_minvar_dual``).
    """
    j = (state.dim - 1) / 2.0
    if j == 0.0:
        raise ValueError("spin_length_bound needs spin j > 0; a dim-1 state is spin 0")
    spin = make_spin_algebra(j)
    x = float(np.clip(expectation(state, spin.jz) / j, -1.0, 1.0))  # a state's X is in [-1, 1]
    fj, witness = (float(v[0]) for v in _fj(j, [x]))
    return BoundReport(
        name="spin_length_fisher",
        lhs=qfi(state, spin.jx) / 4.0,
        rhs=j * fj,
        meta={"j": j, "X": x, "Fj": fj, "Fj_witness": witness},
    )
