"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test also asserts its criterion so failures surface in CI either way.
"""

import time

import numpy as np

from conftest import random_hermitian, random_state
from qfiroof import (
    OptimizerConfig,
    RandomStateConfig,
    bfq_bound,
    check_improved_hr,
    check_robertson_schrodinger,
    coherent_mixture,
    coherent_state,
    concave_roof_L,
    convex_roof_variance,
    duan_report,
    eigen_partition_bound_K,
    fj_curve,
    make_fock_algebra,
    make_spin_algebra,
    planar_squeezed_state,
    qfi,
    qubit_z_line_decomposition,
    random_density_matrix,
    rs_lower_bound_L,
    roof_sum_R,
    singlet_state,
    sld,
    spin_coherent_state,
    spin_squeezed_state,
    su_d_bound,
    tensor,
    two_mode_squeezed_vacuum,
    two_spin_report,
    variance,
)
from qfiroof.cli import main as cli_main
from qfiroof.core import HermitianOperator
from qfiroof.roofs import RobertsonSchrodingerBound, decomposition_average


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_qfi_correctness():
    t0 = time.perf_counter()
    worst_bound = np.inf
    worst_pure = 0.0
    worst_sld = 0.0
    for dim in (2, 3, 4):
        for s in range(100):
            rank = 1 if s % 10 == 0 else dim
            rho = random_state(dim, 41_000 + 100 * dim + s, rank=rank)
            op = random_hermitian(dim, 42_000 + 100 * dim + s)
            f = qfi(rho, op)
            var4 = 4 * variance(rho, op)
            worst_bound = min(worst_bound, var4 + 1e-9 - f)
            if rank == 1:
                worst_pure = max(worst_pure, abs(f - var4))
            worst_sld = max(worst_sld, abs(f - sld(rho, op).qfi))
    elapsed = time.perf_counter() - t0
    ok = worst_bound >= 0 and worst_pure <= 1e-10 and worst_sld <= 1e-9 and elapsed < 10
    _verdict(1, ok, f"QFI vs variance/SLD on 300 states: bound margin {worst_bound:.2e}, "
                    f"pure gap {worst_pure:.2e}, SLD gap {worst_sld:.2e}, {elapsed:.1f}s")
    assert worst_bound >= 0
    assert worst_pure <= 1e-10
    assert worst_sld <= 1e-9
    assert elapsed < 10


def test_criterion_02_roof_convergence():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_floor = np.inf
    worst_concave = 0.0
    for s in range(50):
        rho = random_state(3, 43_000 + s)
        op = random_hermitian(3, 44_000 + s)
        target = qfi(rho, op) / 4
        res = convex_roof_variance(rho, op, cfg=OptimizerConfig())
        worst_rel = max(worst_rel, (res.value - target) / target)
        worst_floor = min(worst_floor, res.value - target + 1e-9)
        if s < 10:
            v = variance(rho, op)
            conc = roof_sum_R(rho, [op], cfg=OptimizerConfig())
            worst_concave = max(worst_concave, abs(conc.value - v) / v)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.02 and worst_floor >= 0 and worst_concave <= 0.01 and elapsed < 300
    _verdict(2, ok, f"roof convergence on 50 qutrits: worst rel err {worst_rel:.2e}, "
                    f"floor margin {worst_floor:.2e}, concave err {worst_concave:.2e}, "
                    f"{elapsed:.0f}s")
    assert worst_rel <= 0.02
    assert worst_floor >= 0
    assert worst_concave <= 0.01
    assert elapsed < 300


def test_criterion_03_two_operator_concave_identity():
    worst = 0.0
    for s in range(20):
        dim = 2 if s % 2 == 0 else 3
        rho = random_state(dim, 45_000 + s)
        a = random_hermitian(dim, 46_000 + s)
        b = random_hermitian(dim, 47_000 + s)
        target = variance(rho, a) + variance(rho, b)
        res = roof_sum_R(rho, [a, b], cfg=OptimizerConfig(seed=s))
        worst = max(worst, abs(res.value - target) / target)
    ok = worst <= 0.01
    _verdict(3, ok, f"two-operator concave roof identity on 20 cases: worst rel err {worst:.2e}")
    assert worst <= 0.01


def test_criterion_04_qubit_z_line_saturation():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    worst = 0.0
    for s in range(100):
        rho = random_state(2, 48_000 + s)
        alpha = np.random.default_rng(49_000 + s).uniform(0, 2 * np.pi)
        a = HermitianOperator(sx)
        b = HermitianOperator(np.cos(alpha) * sx + np.sin(alpha) * sy)
        dec = qubit_z_line_decomposition(rho)
        lsum = decomposition_average(dec, RobertsonSchrodingerBound(a, b))
        gap = abs(0.25 * lsum**2 - variance(rho, a) * variance(rho, b))
        worst = max(worst, gap)
    ok = worst <= 1e-8
    _verdict(4, ok, f"z-line saturation on 100 qubits: worst gap {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_05_partition_and_roof_improvements():
    spin = make_spin_algebra(1)
    a, b = spin.jx, spin.jy
    n = 200
    k_ok = True
    roof_ok = True
    improved = 0
    for s in range(n):
        rho = random_density_matrix(RandomStateConfig(dim=3, rank=3, seed=50_000 + s))
        l_val = rs_lower_bound_L(rho, a, b)
        k_val = eigen_partition_bound_K(rho, a, b)
        roof = concave_roof_L(rho, a, b,
                              cfg=OptimizerConfig(seed=51_000 + s, restarts=4,
                                                  local_steps=250))
        k_ok = k_ok and (k_val >= l_val - 1e-12)
        roof_ok = roof_ok and (roof.value >= k_val - 1e-9)
        if k_val > l_val + 1e-6:
            improved += 1
    fraction = improved / n
    ok = k_ok and roof_ok and fraction > 0.5
    _verdict(5, ok, f"partition bound on {n} qutrits: K>=L {k_ok}, roof>=K {roof_ok}, "
                    f"strict improvement fraction {fraction:.3f}")
    assert k_ok
    assert roof_ok
    assert fraction > 0.5


def test_criterion_06_planar_anchors():
    res_half = planar_squeezed_state(0.5)
    res_one = planar_squeezed_state(1.0)
    bfq_half = bfq_bound(res_half.state)
    bfq_one = bfq_bound(res_one.state)
    ok = (abs(res_half.var_sum - 0.25) < 1e-6 and abs(res_one.var_sum - 0.4375) < 1e-6
          and abs(bfq_half.rhs - 1.0) < 1e-6 and abs(bfq_one.rhs - 2.25) < 1e-6)
    _verdict(6, ok, f"planar anchors: c(1/2)={res_half.var_sum:.8f}, c(1)={res_one.var_sum:.8f}, "
                    f"bounds {bfq_half.rhs:.6f}, {bfq_one.rhs:.6f}")
    assert abs(res_half.var_sum - 0.25) < 1e-6
    assert abs(res_one.var_sum - 0.4375) < 1e-6
    assert abs(bfq_half.rhs - 1.0) < 1e-6
    assert abs(bfq_one.rhs - 2.25) < 1e-6


def test_criterion_07_spin_squeezing_sweep_limits():
    t0 = time.perf_counter()
    j = 50
    pointwise = True
    for lam in np.logspace(-2, 6, 12):
        psi = spin_squeezed_state(j, lam)
        rep = bfq_bound(psi)
        pointwise = pointwise and (rep.rhs <= rep.lhs + 1e-9)
    final = bfq_bound(spin_squeezed_state(j, 1e6))
    elapsed = time.perf_counter() - t0
    near = abs(final.lhs - 2 * j) <= 0.01 * 2 * j and abs(final.rhs - 2 * j) <= 0.01 * 2 * j
    ok = pointwise and near and elapsed < 120
    _verdict(7, ok, f"j=50 sweep: bound below Fisher {pointwise}, limits "
                    f"({final.lhs:.2f}, {final.rhs:.2f}) vs 100, {elapsed:.1f}s")
    assert pointwise
    assert near
    assert elapsed < 120


def test_criterion_08_continuous_variable_checks():
    fock = make_fock_algebra(40)
    product = tensor(coherent_state(0.4, 40), coherent_state(-0.7 + 0.2j, 40))
    rep_prod = duan_report(product, fock)
    tmsv = two_mode_squeezed_vacuum(0.5, 40)
    rep_tmsv = duan_report(tmsv, fock)
    fock20 = make_fock_algebra(20)
    mixture = coherent_mixture([(0.6, 0.3, -0.2), (0.4, -0.5, 0.4j)], cutoff=20)
    rep_mix = duan_report(mixture, fock20)
    vacuum = tensor(coherent_state(0.0, 40), coherent_state(0.0, 40))
    rep_vac = duan_report(vacuum, fock)

    duan_ok = abs(rep_prod.duan_lhs - 2.0) < 1e-6
    tmsv_ok = (abs(rep_tmsv.duan_lhs - 2 * np.exp(-1.0)) < 1e-3
               and abs(rep_tmsv.qfi_x_minus - 4 * np.exp(1.0)) < 1e-2)
    slack_ok = all(r.fisher_pair_status == "ok" and r.fisher_pair_slack >= -1e-9
                   for r in (rep_prod, rep_tmsv, rep_mix, rep_vac))
    ok = duan_ok and tmsv_ok and slack_ok
    _verdict(8, ok, f"CV checks: product lhs {rep_prod.duan_lhs:.8f}, TMSV lhs "
                    f"{rep_tmsv.duan_lhs:.6f} and QFI {rep_tmsv.qfi_x_minus:.4f}, "
                    f"Fisher-pair relation slacks all >= -1e-9: {slack_ok}")
    assert duan_ok
    assert tmsv_ok
    assert slack_ok


def test_criterion_09_two_spin_checks():
    rep_singlet = two_spin_report(singlet_state(0.5), 0.5, 0.5)
    singlet_ok = (abs(rep_singlet.meta["fq_sum_minus"] - 12.0) < 1e-9
                  and abs(rep_singlet.lhs) < 1e-12)
    product = tensor(spin_coherent_state(0.5, (0.4, 1.0, -0.3)),
                     spin_coherent_state(0.5, (0.9, -0.2, 0.6)))
    rep_prod = two_spin_report(product, 0.5, 0.5)
    product_ok = abs(rep_prod.meta["fq_sum_minus"] - 4.0) < 1e-9

    # 12 sumVar(J+) + 8 sumVar(J-) + sumF_Q[J-] >= 24(j1+j2), J+- = J^(1) +- J^(2), holds for every
    # state: Var(A+B) + Var(A-B) = 2Var(A) + 2Var(B) and sumVar(J^(i)) >= j_i give 4 sumVar(J+) +
    # 4 sumVar(J-) >= 8(j1+j2); averaged over the decomposition with mean Var(J_m-) = F_Q[J_m-]/4,
    # concavity of Var swaps 4Var(J_m-) for F_Q[J_m-]; then sum over m.
    def summed_slack(rep):
        lhs = 12.0 * rep.lhs + 8.0 * rep.meta["var_sum_minus"] + rep.meta["fq_sum_minus"]
        return lhs - 24.0 * (rep.meta["j1"] + rep.meta["j2"])

    product_slack = summed_slack(rep_prod)
    saturation_ok = abs(product_slack) < 1e-9

    worst = np.inf
    violations = 0
    combination_violations = 0
    for s in range(100):
        rep = two_spin_report(random_state(4, 52_000 + s), 0.5, 0.5)
        slack = summed_slack(rep)
        worst = min(worst, slack)
        if slack < -1e-9:
            violations += 1
        # The 8/12 combination 8 sumVar(J+) + sumF_Q[J-] >= 12(j1+j2) is not a bound; its
        # count is only reported.
        if 8.0 * rep.lhs + rep.meta["fq_sum_minus"] - 12.0 * rep.rhs < -1e-9:
            combination_violations += 1
    relation_ok = worst >= -1e-9

    ok = singlet_ok and product_ok and saturation_ok and relation_ok
    _verdict(9, ok, f"two-spin checks: singlet {singlet_ok}, product cap {product_ok}, "
                    f"summed three-axis relation worst slack {worst:.4f} "
                    f"({violations}/100 below -1e-9), product saturation "
                    f"{product_slack:.1e}; 8/12 combination below 12(j1+j2) on "
                    f"{combination_violations}/100")
    assert singlet_ok
    assert product_ok
    assert saturation_ok, f"product state slack {product_slack:.3e}, expected 0"
    assert relation_ok, (
        f"summed three-axis relation violated on {violations}/100 random states, "
        f"worst slack {worst:.4f}")


def test_criterion_10_spin_length_curve_oracle():
    grid = np.linspace(0, 1, 21)
    curve_half = fj_curve(0.5, grid)

    def bloch_oracle(x):
        r_cap = np.sqrt(max(1 - x * x, 0.0))
        best = np.inf
        for rx in np.linspace(-r_cap, r_cap, 2001):
            best = min(best, (1 - rx * rx) / 4)
        return best / 0.5

    worst = max(abs(val - bloch_oracle(x)) for x, val in zip(grid, curve_half.values))
    shapes_ok = True
    for j in (0.5, 1, 2):
        c = fj_curve(j, grid)
        shapes_ok = shapes_ok and abs(c.values[-1] - 0.5) < 1e-9
        shapes_ok = shapes_ok and np.all(np.diff(c.values, 2) >= -1e-8)
    ok = worst <= 1e-6 and shapes_ok
    _verdict(10, ok, f"spin-length curve: oracle deviation {worst:.2e}, "
                     f"convexity and endpoint checks {shapes_ok}")
    assert worst <= 1e-6
    assert shapes_ok


def test_criterion_11_theorem_sweeps():
    worst = {"product": np.inf, "fisher_product": np.inf,
             "three_variance_fisher": np.inf, "generator_sum": np.inf}
    for s in range(1000):
        dim = 2 + s % 3
        j = (dim - 1) / 2
        spin = make_spin_algebra(j)
        rho = random_state(dim, 53_000 + s)
        a = random_hermitian(dim, 54_000 + s)
        b = random_hermitian(dim, 55_000 + s)
        worst["product"] = min(worst["product"],
                               check_robertson_schrodinger(rho, a, b).slack)
        worst["fisher_product"] = min(worst["fisher_product"],
                                      check_improved_hr(rho, a, b).slack)
        chain = (variance(rho, spin.jx) + variance(rho, spin.jy)
                 + qfi(rho, spin.jz) / 4 - j)
        worst["three_variance_fisher"] = min(worst["three_variance_fisher"], chain)
        worst["generator_sum"] = min(worst["generator_sum"], su_d_bound(rho).slack)
    ok = all(v >= -1e-9 for v in worst.values())
    _verdict(11, ok, "theorem sweeps over 1000 samples each: worst slacks "
                     + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    for name, value in worst.items():
        assert value >= -1e-9, name


def test_criterion_12_deterministic_outputs(tmp_path, capsys):
    import json

    args_csv = ["figure-rs", "--samples", "2", "--seed", "33",
                "--restarts", "2", "--local-steps", "60"]
    assert cli_main(args_csv) == 0
    out1 = capsys.readouterr().out
    assert cli_main(args_csv) == 0
    out2 = capsys.readouterr().out

    spec = json.dumps({"constructor": "random", "params": {"dim": 3, "seed": 3}})
    args_json = ["check", "improved-rs", "--state", spec, "--seed", "9",
                 "--restarts", "2", "--local-steps", "60"]
    assert cli_main(args_json) == 0
    j1 = capsys.readouterr().out
    assert cli_main(args_json) == 0
    j2 = capsys.readouterr().out

    ok = out1 == out2 and j1 == j2
    _verdict(12, ok, f"bitwise determinism: CSV {out1 == out2}, JSON {j1 == j2}")
    assert out1 == out2
    assert j1 == j2
