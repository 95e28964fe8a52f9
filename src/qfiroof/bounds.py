"""Uncertainty-bound catalog: evaluate each inequality, report slack and
intermediate quantities, and compute the roof-improved variants."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    HermitianOperator,
    State,
    commutator_i,
    expectation,
    ground_state,
    make_spin_algebra,
    make_su_d_generators,
    state_density,
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
    """No scanned ground state reaches the requested constraint targets."""


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


def rs_lower_bound_L(state: State, a: HermitianOperator, b: HermitianOperator) -> float:
    """The strengthened uncertainty bound combining covariance and commutator mean.

    L = sqrt(|<{A,B}> - 2<A><B>|^2 + |<i[A,B]>|^2); the plain product
    uncertainty relation reads Var(A) Var(B) >= L^2 / 4.
    """
    return RobertsonSchrodingerBound(a, b).on_state(state)


def check_robertson_schrodinger(state: State, a: HermitianOperator,
                                b: HermitianOperator) -> BoundReport:
    """Var(A) Var(B) >= L^2 / 4 with the covariance-strengthened bound."""
    l_val = rs_lower_bound_L(state, a, b)
    return BoundReport(
        name="robertson_schrodinger",
        lhs=variance(state, a) * variance(state, b),
        rhs=0.25 * l_val**2,
        meta={"L": l_val},
    )


def check_improved_rs(state: State, a: HermitianOperator, b: HermitianOperator,
                      cfg: OptimizerConfig | None = None) -> BoundReport:
    """Variance product against the concave roof of the uncertainty bound.

    The right-hand side maximizes the weighted average of L over pure
    decompositions; it dominates the plain bound because one of the search's
    candidate starts splits rho into pure components with its means, which
    score at least L(rho) (see ``concave_roof_L``).  Qutrits also report the
    closed-form eigenvector-partition bound K in the metadata.
    """
    rho = state_density(state)
    roof = concave_roof_L(rho, a, b, cfg=cfg)
    meta = {
        "L": rs_lower_bound_L(rho, a, b),
        "roof_L": roof.value,
        "roof_converged": roof.converged,
    }
    if rho.dim == 3:
        meta["K"] = eigen_partition_bound_K(rho, a, b)
    return BoundReport(
        name="improved_robertson_schrodinger",
        lhs=variance(rho, a) * variance(rho, b),
        rhs=0.25 * roof.value**2,
        meta=meta,
    )


def check_improved_hr(state: State, a: HermitianOperator,
                      b: HermitianOperator) -> BoundReport:
    """Var(A) F_Q[rho, B] >= |<i[A,B]>|^2, the Fisher-sharpened product relation."""
    c_mean = expectation(state, commutator_i(a, b))
    return BoundReport(
        name="improved_heisenberg_robertson",
        lhs=variance(state, a) * qfi(state, b),
        rhs=c_mean**2,
        meta={"commutator_mean": c_mean},
    )


def check_weighted_sum(state: State, a: HermitianOperator, b: HermitianOperator,
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


def bfq_bound(state: State) -> BoundReport:
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


def su_d_bound(state: State) -> BoundReport:
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
# spin-length bound via constrained variance minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FjCurve:
    """Minimal Var(J_x)/j as a function of X = <J_z>/j, convex on [0, 1]."""

    j: float
    grid: np.ndarray
    values: np.ndarray
    hull_x: np.ndarray
    hull_y: np.ndarray

    def __call__(self, x: float) -> float:
        x = abs(float(x))
        if x > 1.0 + 1e-12:
            raise ValueError(f"|X| = {x} outside [0, 1]")
        return float(np.interp(min(x, 1.0), self.hull_x, self.hull_y))


def _lower_hull_indices(points: list[tuple[float, float]]) -> list[int]:
    """Indices of the lower convex hull (monotone chain), sorted by x."""
    order = sorted(range(len(points)), key=lambda i: (points[i][0], points[i][1]))
    dedup: list[int] = []
    for i in order:
        if dedup and abs(points[dedup[-1]][0] - points[i][0]) < 1e-14:
            if points[i][1] < points[dedup[-1]][1]:
                dedup[-1] = i
        else:
            dedup.append(i)
    hull: list[int] = []
    for i in dedup:
        px, py = points[i]
        while len(hull) >= 2:
            x1, y1 = points[hull[-2]]
            x2, y2 = points[hull[-1]]
            if (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _lower_hull(points: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex hull of 2-D points as (x, y) arrays sorted in x."""
    idx = _lower_hull_indices(points)
    return (np.array([points[i][0] for i in idx]),
            np.array([points[i][1] for i in idx]))


FJ_LAM_POINTS = 200       # logarithmic grid of the J_z multiplier, 1e-3 .. 1e3
FJ_LAM2_POINTS = 41       # logarithmic grid of the J_x multiplier (half-integer j only)
FJ_GAP_TOL = 1.5e-3       # hull vertices further apart in X than this are refined
FJ_MAX_REFINE = 12        # refinement rounds at most


def fj_curve(j, grid) -> FjCurve:
    """Scan Lagrangian ground states and hull the resulting (X, Var/j) cloud.

    The Hamiltonian family is J_x^2 - lam J_z - lam2 J_x with lam on a
    logarithmic grid; lam2 is needed only for half-integer j, where the
    minimizing states carry a nonzero <J_x>.  Degenerate ground states are
    skipped.  After the base scan the hull is refined adaptively: wherever
    two neighboring hull vertices are further apart than ``FJ_GAP_TOL`` in X,
    the geometric midpoint of their multipliers is scanned as well, until
    the hull is resolved.  The achievable anchor points (0, 0) and (1, 1/2)
    are always included, and the lower convex hull is taken in X.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty evaluation grid")
    if not np.all((grid >= 0) & (grid <= 1)):
        raise ValueError("grid values must lie in [0, 1]")
    spin = make_spin_algebra(j)
    j = spin.j
    if j == 0.0:
        raise ValueError("fj_curve needs spin j > 0; spin 0 has no polarization to scan")
    jx2 = spin.jx.mat @ spin.jx.mat
    half_integer = (int(round(2 * j)) % 2) == 1
    lam_grid = np.logspace(-3, 3, FJ_LAM_POINTS)
    lam2_grid = np.logspace(-3, 3, FJ_LAM2_POINTS) if half_integer else np.array([0.0])

    def scan(lam: float, lam2: float) -> tuple[float, float] | None:
        h = HermitianOperator(jx2 - lam * spin.jz.mat - lam2 * spin.jx.mat)
        _, psi, degenerate = ground_state(h)
        if degenerate:
            return None
        x = min(abs(expectation(psi, spin.jz)) / j, 1.0)
        return x, variance(psi, spin.jx) / j

    # point cloud entries: (X, V, lam, lam2); anchors carry lam = nan
    cloud: list[tuple[float, float, float, float]] = [
        (0.0, 0.0, np.nan, np.nan), (1.0, 0.5, np.nan, np.nan)]
    for lam in lam_grid:
        for lam2 in lam2_grid:
            pt = scan(lam, lam2)
            if pt is not None:
                cloud.append((pt[0], pt[1], lam, lam2))

    lam2_floor = lam2_grid[0] if half_integer else 0.0
    for _ in range(FJ_MAX_REFINE):
        hull_idx = _lower_hull_indices([(c[0], c[1]) for c in cloud])
        new_points: list[tuple[float, float, float, float]] = []
        for i, k in zip(hull_idx, hull_idx[1:]):
            xa, _, la, l2a = cloud[i]
            xb, _, lb, l2b = cloud[k]
            if xb - xa <= FJ_GAP_TOL:
                continue
            if np.isnan(la) and np.isnan(lb):
                continue  # nothing but anchors survived the scan
            # anchors have no multipliers; push the neighbor's lam outward
            if np.isnan(la):
                la, l2a = (lb / 10.0, l2b) if xa < xb else (lb * 10.0, l2b)
            if np.isnan(lb):
                lb, l2b = (la * 10.0, l2a) if xb > xa else (la / 10.0, l2a)
            lam = float(np.sqrt(la * lb))
            lam2 = float(np.sqrt(max(l2a, lam2_floor) * max(l2b, lam2_floor))
                         ) if half_integer else 0.0
            pt = scan(lam, lam2)
            if pt is not None:
                new_points.append((pt[0], pt[1], lam, lam2))
        if not new_points:
            break
        cloud.extend(new_points)

    hull_x, hull_y = _lower_hull([(c[0], c[1]) for c in cloud])
    values = np.interp(grid, hull_x, hull_y)
    return FjCurve(j=j, grid=grid, values=values, hull_x=hull_x, hull_y=hull_y)


def spin_length_bound(state: State, curve: FjCurve | None = None) -> BoundReport:
    """F_Q[rho, J_x]/4 >= j F_j(<J_z>/j): polarization certifies usefulness."""
    j = (state.dim - 1) / 2.0
    if j == 0.0:
        raise ValueError("spin_length_bound needs spin j > 0; a dim-1 state is spin 0")
    spin = make_spin_algebra(j)
    if curve is None:
        curve = fj_curve(j, np.linspace(0.0, 1.0, 201))
    elif abs(curve.j - j) > 1e-12:
        raise ValueError(f"curve for j={curve.j} used with a spin-{j} state")
    x = expectation(state, spin.jz) / j
    return BoundReport(
        name="spin_length_fisher",
        lhs=qfi(state, spin.jx) / 4.0,
        rhs=j * curve(x),
        meta={"j": j, "X": x, "Fj": curve(x)},
    )


# ---------------------------------------------------------------------------
# constrained minimum of a variance sum
# ---------------------------------------------------------------------------

_SIDE = np.logspace(-3, 3, 20)
MULTIPLIER_GRID = np.concatenate([-_SIDE[::-1], [0.0], _SIDE])   # default multiplier scan
TARGET_TOL = 1e-6         # a target this far outside the scanned constraint values is still feasible


def minvar_constrained(a_ops, b_ops=(), targets=(),
                       lambda_grid=None, mu_grid=None) -> float:
    """Minimal sum of Var(A_n) over states whose <B_n> hit the targets.

    Scans ground states of sum_n (A_n^2 - lambda_n A_n) - sum_n mu_n B_n over
    the multiplier grids, then takes the lower convex hull of the variance
    sum in the constraint coordinates and evaluates it at the targets.  The
    hull step extends the pure-state scan soundly to mixtures; targets that
    no mixture of scanned states can reach raise ``InfeasibleTargetError``.
    """
    a_ops = list(a_ops)
    b_ops = list(b_ops)
    targets = [float(t) for t in targets]
    if not a_ops:
        raise ValueError("need at least one variance operator")
    if len(b_ops) != len(targets):
        raise ValueError("one target per constraint operator required")
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"targets must be finite, got {targets!r}")
    if lambda_grid is None:
        lambda_grid = MULTIPLIER_GRID
    if mu_grid is None:
        mu_grid = MULTIPLIER_GRID
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    mu_grid = np.asarray(mu_grid, dtype=float)

    a_sq = sum(op.mat @ op.mat for op in a_ops)
    coords: list[list[float]] = []
    sums: list[float] = []
    for lams in itertools.product(lambda_grid, repeat=len(a_ops)):
        h = a_sq.copy()
        for lam, op in zip(lams, a_ops):
            h = h - lam * op.mat
        for mus in itertools.product(mu_grid, repeat=len(b_ops)):
            h_full = h.copy()
            for mu, op in zip(mus, b_ops):
                h_full = h_full - mu * op.mat
            _, psi, degenerate = ground_state(HermitianOperator(h_full))
            if degenerate:
                continue
            coords.append([expectation(psi, op) for op in b_ops])
            sums.append(sum(variance(psi, op) for op in a_ops))
    if not sums:
        raise InfeasibleTargetError("every scanned ground state was degenerate")

    if not b_ops:
        return float(min(sums))
    if len(b_ops) == 1:
        xs = np.array([c[0] for c in coords])
        target = targets[0]
        if target < xs.min() - TARGET_TOL or target > xs.max() + TARGET_TOL:
            raise InfeasibleTargetError(
                f"target {target} outside scanned range [{xs.min():.6f}, {xs.max():.6f}]")
        hull_x, hull_y = _lower_hull(list(zip(xs.tolist(), sums)))
        return float(np.interp(np.clip(target, hull_x[0], hull_x[-1]), hull_x, hull_y))
    return _lower_envelope_nd(np.asarray(coords), np.asarray(sums), np.asarray(targets))


def _lower_envelope_nd(coords: np.ndarray, values: np.ndarray, target: np.ndarray) -> float:
    """Evaluate the lower convex envelope of scattered values at one point.

    The envelope is the pointwise maximum of the lower-facet planes of the
    hull of (coords, value) points; the target must lie inside the convex
    hull of the scanned coordinates to be feasible.
    """
    from scipy.spatial import ConvexHull, Delaunay, QhullError

    try:
        tri = Delaunay(coords)
    except QhullError:
        exact = values[np.all(np.abs(coords - target) <= TARGET_TOL, axis=1)]
        if exact.size:
            return float(exact.min())
        raise InfeasibleTargetError("constraint coordinates are degenerate")
    if tri.find_simplex(target) < 0:
        raise InfeasibleTargetError(f"targets {target.tolist()} outside the scanned region")
    hull = ConvexHull(np.column_stack([coords, values]))
    best = -np.inf
    for eq in hull.equations:
        normal, offset = eq[:-1], eq[-1]
        if normal[-1] >= -1e-12:
            continue  # not a lower facet
        # plane: normal . (x, v) + offset = 0, solved for v at the target
        v = -(offset + normal[:-1] @ target) / normal[-1]
        best = max(best, v)
    if not np.isfinite(best):
        raise InfeasibleTargetError("no lower facet covers the targets")
    return float(best)
