"""Benchmark workloads: inputs made from a seed, the library calls one item
makes, the checks its outputs must pass, and the reference computation its
item times are measured against.

Every library call goes through the ``qfiroof`` package namespace at call
time (``q.name(...)``), never through a name bound at import, so the traced
run can substitute its wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import qfiroof as q

CONCAVE_RESTARTS = 4        # the criterion-5 / figure-rs optimizer budget
CONCAVE_LOCAL_STEPS = 250
K_TOL = 1e-12               # K >= L - K_TOL
ROOF_TOL = 1e-9             # roof >= K and bound-slack tolerance
TMSV_R = 0.5
TMSV_REL_TOL = 1e-6         # Duan lhs and QFI(x1-x2) of the TMSV against 2e^{-2r}, 4e^{2r}


@dataclass(frozen=True)
class Size:
    """How much one pass over the item list computes."""

    concave_items: int
    cutoff: int
    setup_probes: int


FULL = Size(concave_items=6, cutoff=40, setup_probes=7)
TINY = Size(concave_items=1, cutoff=20, setup_probes=1)
SIZES = {"full": FULL, "tiny": TINY}


def child_seed(seed: int, *path: int) -> int:
    """Independent 32-bit seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _random_qudit(dim: int, seed: int) -> q.DensityMatrix:
    return q.random_density_matrix(q.RandomStateConfig(dim=dim, rank=dim, seed=seed))


def _rel_close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * abs(target)


# ---------------------------------------------------------------------------
# qutrit_concave_rs: the figure-rs / criterion-5 loop
# ---------------------------------------------------------------------------

def _concave_setup(seed: int, size: Size):
    spin = q.make_spin_algebra(1)
    items = [(_random_qudit(3, child_seed(seed, 1, i)), child_seed(seed, 2, i))
             for i in range(size.concave_items)]
    return (spin.jx, spin.jy), items


def _concave_run(ops, item) -> dict:
    rho, opt_seed = item
    a, b = ops
    roof = q.concave_roof_L(rho, a, b, cfg=q.OptimizerConfig(
        seed=opt_seed, restarts=CONCAVE_RESTARTS, local_steps=CONCAVE_LOCAL_STEPS))
    return {
        "var_product": q.variance(rho, a) * q.variance(rho, b),
        "L": q.rs_lower_bound_L(rho, a, b),
        "K": q.eigen_partition_bound_K(rho, a, b),
        "roof": roof.value,
        "evaluations": float(roof.evaluations),
        "witness": roof.decomposition,
    }


def _concave_check(ops, item, out: dict) -> list[str]:
    rho, _ = item
    bad = []
    if not out["K"] >= out["L"] - K_TOL:
        bad.append("K < L")
    if not out["roof"] >= out["K"] - ROOF_TOL:
        bad.append("roof < K")
    if not out["var_product"] >= 0.25 * out["roof"] ** 2 - ROOF_TOL:
        bad.append("Var(A)Var(B) < roof^2/4")
    if not out["witness"].reconstructs(rho):
        bad.append("witness does not reconstruct rho")
    return bad


def _concave_quality(outs: list[dict]) -> dict[str, float]:
    return {"roofs.concave_gain_over_k_mean":
            float(np.mean([o["roof"] - o["K"] for o in outs]))}


# ---------------------------------------------------------------------------
# two_mode_duan_c40: dense two-mode operators at Fock cutoff 40
# ---------------------------------------------------------------------------

def _duan_setup(seed: int, size: Size):
    rng = np.random.default_rng(child_seed(seed, 6))
    weight = float(rng.uniform(0.3, 0.7))
    alphas = [complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(4)]
    mixture = [(weight, alphas[0], alphas[1]), (1.0 - weight, alphas[2], alphas[3])]
    return q.make_fock_algebra(size.cutoff), [("tmsv", TMSV_R), ("mixture", mixture)]


def _duan_run(fock, item) -> dict:
    kind, params = item
    if kind == "tmsv":
        state = q.two_mode_squeezed_vacuum(params, fock.cutoff)
    else:
        state = q.coherent_mixture(params, fock.cutoff)
    rep = q.duan_report(state, fock)
    return {
        "duan_lhs": rep.duan_lhs,
        "qfi_x_minus": rep.qfi_x_minus,
        "qfi_p_plus": rep.qfi_p_plus,
        "fisher_pair_slack": rep.fisher_pair_slack,
        "report": rep,
    }


def _duan_check(fock, item, out: dict) -> list[str]:
    kind, params = item
    rep = out["report"]
    bad = []
    if rep.fisher_pair_status != "ok" or not rep.fisher_pair_slack >= -ROOF_TOL:
        bad.append("Fisher-pair relation not ok")
    if kind == "tmsv":
        if not _rel_close(rep.duan_lhs, 2.0 * math.exp(-2.0 * params), TMSV_REL_TOL):
            bad.append("TMSV Duan lhs differs from 2 exp(-2r)")
        if not _rel_close(rep.qfi_x_minus, 4.0 * math.exp(2.0 * params), TMSV_REL_TOL):
            bad.append("TMSV QFI(x1-x2) differs from 4 exp(2r)")
        if not rep.entangled:
            bad.append("TMSV not flagged entangled")
    elif rep.entangled or rep.more_useful_than_p_nonnegative:
        # a mixture of coherent products is separable with a nonnegative P function
        bad.append("coherent mixture flagged entangled or useful")
    return bad


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------
# Each item's time is divided by the time of its workload's reference: fixed
# numpy work of the same kind as the item's, timed right before and right
# after it in the same process, never calling qfiroof.  The shared host runs
# the same code up to 1.7x faster or slower for seconds to minutes, and the
# reference slows with the item, so the ratio follows the library's cost and
# not the host's state.  A reference is the unit of its workload's timings:
# changing it changes every normalised time.

_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.normal(size=(3, 3)) + 1j * _REF_RNG.normal(size=(3, 3))
_REF_SMALL = _REF_SMALL + _REF_SMALL.conj().T
_REF_DENSE = _REF_RNG.normal(size=(640, 640)) + 1j * _REF_RNG.normal(size=(640, 640))
_REF_BLOCK = _REF_DENSE[:40, :40].copy()
_REF_DENSE = _REF_DENSE + _REF_DENSE.conj().T


def _small_reference() -> float:
    """1200 steps of a 3x3 eigendecomposition, unitary conjugation and traces:
    the interpreter-bound mix of the roof search's inner loop."""
    h, rho, acc = _REF_SMALL, np.eye(3) / 3.0, 0.0
    for _ in range(1200):
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(0.1j * w)) @ v.conj().T
        r = u @ rho @ u.conj().T
        acc += float(np.trace(r @ h).real) + float(np.sum(np.abs(r)))
        h = h + 1e-3 * np.trace(h).real * np.eye(3)
    return acc


def _dense_reference() -> float:
    """A 640-dim Hermitian eigensolve and matrix product, then a 1600x1600
    Kronecker product, its Hermitian part and a Hermiticity test: the
    BLAS- and memory-bound mix of a cutoff-40 Duan report."""
    w, v = np.linalg.eigh(_REF_DENSE)
    acc = float(np.trace((v * w) @ v.conj().T).real)
    x = np.kron(_REF_BLOCK, _REF_BLOCK)
    y = x + x.conj().T
    return acc + float(np.abs(y).sum()) + float(np.allclose(y, y.conj().T))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Size], tuple[Any, list]]   # -> (context, items)
    run: Callable[[Any, Any], dict]                 # one timed item
    check: Callable[[Any, Any, dict], list[str]]    # failed checks of one output
    quality: Callable[[list[dict]], dict[str, float]]  # accuracy over one pass
    reference: Callable[[], float]                  # the unit of the item times


WORKLOADS = {w.name: w for w in (
    Workload("qutrit_concave_rs", _concave_setup, _concave_run, _concave_check,
             _concave_quality, _small_reference),
    Workload("two_mode_duan_c40", _duan_setup, _duan_run, _duan_check,
             lambda outs: {}, _dense_reference),
)}


def fingerprint(out: dict) -> bytes:
    """Bytes of every float output, for the bitwise determinism check."""
    return np.array([v for v in out.values() if isinstance(v, float)]).tobytes()


def checked(workload: Workload, ctx, item, out: dict) -> list[str]:
    """All failed checks of one output; a non-finite float fails on its own."""
    bad = [f"{k} is not finite" for k, v in out.items()
           if isinstance(v, float) and not math.isfinite(v)]
    return bad or workload.check(ctx, item, out)
