import tracemalloc

import numpy as np
import pytest

from conftest import (dense_density, dense_qfi, dense_two_mode_quadratures, dense_variance,
                      p_plus_eigenstate, random_state)
from qfiroof import (
    DensityMatrix,
    DimensionMismatchError,
    OptimizerConfig,
    PureState,
    coherent_mixture,
    collective_spin_ops,
    duan_report,
    make_fock_algebra,
    make_spin_algebra,
    singlet_state,
    spin_coherent_product_mixture,
    spin_coherent_state,
    tensor,
    two_mode_squeezed_vacuum,
    two_spin_report,
    vxyz_criterion,
)
from qfiroof import coherent_state, entanglement

FAST = OptimizerConfig(seed=23, restarts=4, local_steps=250)


# ---------------------------------------------------------------------------
# two bosonic modes
# ---------------------------------------------------------------------------

def test_duan_product_coherent_sits_on_threshold():
    fock = make_fock_algebra(40)
    psi = tensor(coherent_state(0.4, 40), coherent_state(-0.2 + 0.5j, 40))
    rep = duan_report(psi, fock)
    assert abs(rep.duan_lhs - 2.0) < 1e-6
    assert not rep.entangled
    assert abs(rep.qfi_x_minus - 4.0) < 1e-6
    assert abs(rep.qfi_p_plus - 4.0) < 1e-6
    assert rep.fisher_pair_status == "ok"
    assert rep.fisher_pair_slack >= -1e-9
    assert not rep.more_useful_than_p_nonnegative


def test_duan_tmsv_violates_and_flags_usefulness():
    fock = make_fock_algebra(40)
    psi = two_mode_squeezed_vacuum(0.5, 40)
    rep = duan_report(psi, fock)
    assert abs(rep.duan_lhs - 2 * np.exp(-1.0)) < 1e-3
    assert rep.entangled
    assert rep.qfi_x_minus > 4 + 1e-9
    assert rep.fisher_pair_slack >= -1e-9
    flags = rep.useful_flags
    assert flags["x1-x2"] and flags["p1+p2"]
    assert not flags["x1+x2"] and not flags["p1-p2"]


def test_duan_two_mode_coherent_mixture_obeys_everything():
    fock = make_fock_algebra(20)
    rho = coherent_mixture([(0.5, 0.4, -0.3), (0.5, -0.2, 0.5j)], cutoff=20)
    rep = duan_report(rho, fock)
    assert rep.duan_lhs >= 2.0 - 1e-9
    assert not rep.entangled
    assert rep.fisher_pair_slack >= -1e-9
    assert not rep.more_useful_than_p_nonnegative


@pytest.mark.parametrize("make_state", [
    lambda c: two_mode_squeezed_vacuum(0.5, c),
    lambda c: tensor(coherent_state(0.4, c), coherent_state(-0.2 + 0.5j, c)),
    lambda c: coherent_mixture([(0.6, 0.4, -0.3), (0.4, -0.2, 0.5j)], cutoff=c),
], ids=["tmsv", "coherent_product", "coherent_mixture"])
def test_duan_report_matches_dense_kron_operators(make_state):
    fock = make_fock_algebra(20)
    state = make_state(20)
    rho = dense_density(state)
    ops = dense_two_mode_quadratures(fock)
    rep = duan_report(state, fock)
    lhs = dense_variance(rho, ops["x1+x2"]) + dense_variance(rho, ops["p1-p2"])
    fq = {name: dense_qfi(rho, op) for name, op in ops.items()}
    assert rep.duan_lhs == pytest.approx(lhs, rel=1e-10)
    assert rep.qfi_x_minus == pytest.approx(fq["x1-x2"], rel=1e-10)
    assert rep.qfi_p_plus == pytest.approx(fq["p1+p2"], rel=1e-10)
    assert rep.fisher_pair_status == "ok"
    assert rep.fisher_pair_slack == pytest.approx(
        lhs - 4 / fq["x1-x2"] - 4 / fq["p1+p2"], rel=1e-10, abs=1e-10)
    assert rep.useful_flags == {name: f > 4 + 1e-9 for name, f in fq.items()}


def test_duan_report_memory_stays_bounded_at_cutoff_80():
    # d = 6400: one dense two-mode operator alone would take 655 MB
    fock = make_fock_algebra(80)
    psi = two_mode_squeezed_vacuum(0.5, 80)
    tracemalloc.start()
    try:
        rep = duan_report(psi, fock)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert rep.duan_lhs == pytest.approx(2 * np.exp(-1.0), rel=1e-6)
    assert rep.qfi_x_minus == pytest.approx(4 * np.exp(1.0), rel=1e-6)


MIXTURE = [(0.4, 0.3 + 0.2j, -0.5), (0.6, 0.1j, 0.6 - 0.3j)]


def test_duan_report_of_a_mixture_stays_bounded_at_cutoff_80():
    # a mixed state keeps only its d x 2 support: its d x d matrix alone
    # would take 655 MB at d = 6400
    reference = duan_report(coherent_mixture(MIXTURE, 40), make_fock_algebra(40))
    fock = make_fock_algebra(80)
    tracemalloc.start()
    try:
        rep = duan_report(coherent_mixture(MIXTURE, 80), fock)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    for name in ("duan_lhs", "qfi_x_minus", "qfi_p_plus", "fisher_pair_slack"):
        assert getattr(rep, name) == pytest.approx(getattr(reference, name), abs=1e-9)
    assert rep.useful_flags == reference.useful_flags


def test_vxyz_roof_memory_stays_bounded_at_six_qubits(monkeypatch):
    # a rank-4 state of six qubits at the default 64-level ancilla: a line
    # search array of n^3 entries per component moment would take 180 MB
    import qfiroof.entanglement
    from qfiroof import roof_sum_I
    roofs = []

    def recording(*args, **kwargs):
        roofs.append(roof_sum_I(*args, **kwargs))
        return roofs[-1]

    monkeypatch.setattr(qfiroof.entanglement, "roof_sum_I", recording)
    rho = random_state(64, seed=3, rank=4)
    tracemalloc.start()
    try:
        rep = vxyz_criterion(rho, 0.5, 6, cfg=OptimizerConfig(seed=7, restarts=2, local_steps=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48e6
    (roof,) = roofs
    fisher_floor = sum(dense_qfi(rho.mat, op.mat) for op in collective_spin_ops(0.5, 6)) / 4
    assert rep.meta["roof"] == roof.value >= fisher_floor - 1e-9
    assert roof.decomposition.reconstructs(rho, tol=1e-9)


def test_vxyz_roof_memory_stays_bounded_at_seven_qubits():
    # a rank-4 state of seven qubits at the default 128-level ancilla: the
    # line search forms its (C, 13, n, r) candidates as n x r isometries, and
    # their moment array conj(W) G holds (C 13 n, (x+1) r) entries, about
    # 1.5 MB. The whole roof peaked at 70 MB on a zero-padded factor, at
    # 33 MB on n x n candidate unitaries, and peaks at about 20 MB
    rho = random_state(128, seed=3, rank=4)
    tracemalloc.start()
    try:
        rep = vxyz_criterion(rho, 0.5, 7, cfg=OptimizerConfig(seed=7, restarts=2, local_steps=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24e6
    fisher_floor = sum(dense_qfi(rho.mat, op.mat) for op in collective_spin_ops(0.5, 7)) / 4
    assert rep.lhs + 1e-9 >= rep.meta["roof"] >= fisher_floor - 1e-9


def test_mixed_states_at_cutoff_40_need_no_qr_or_eigh(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("d x d factorization of a support-held state")

    monkeypatch.setattr(np.linalg, "qr", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    fock = make_fock_algebra(40)
    a = coherent_mixture([(0.5, 0.5), (0.5, -0.4j)], 40)
    b = coherent_mixture([(0.5, 0.3 + 0.2j), (0.5, -0.6)], 40)
    product = tensor(a, b)
    assert product.dim == 1600 and product.rank() == 4
    for state in (product, coherent_mixture(MIXTURE, 40)):
        rep = duan_report(state, fock)
        assert rep.fisher_pair_status == "ok" and not rep.entangled


def test_duan_vanishing_fisher_term_with_nonzero_variance_is_indeterminate():
    fock = make_fock_algebra(6)
    rep = duan_report(PureState(p_plus_eigenstate(fock)), fock)
    assert rep.qfi_p_plus < 1e-20
    assert rep.duan_lhs > 1.0  # Var(x1 + x2) does not vanish with F_Q[p1 + p2]
    assert rep.fisher_pair_status == "indeterminate"
    assert np.isnan(rep.fisher_pair_slack)


def test_duan_dimension_check():
    fock = make_fock_algebra(40)
    with pytest.raises(DimensionMismatchError):
        duan_report(coherent_state(0.1, 40), fock)


def test_duan_report_computes_each_quadrature_fisher_information_once(monkeypatch):
    # the four combinations' Fisher informations serve both the Fisher-pair
    # relation and the usefulness flags, from one batched support pass
    calls = []
    support_qfi = entanglement._support_qfi
    monkeypatch.setattr(entanglement, "_support_qfi",
                        lambda *args: calls.append(args) or support_qfi(*args))
    fock = make_fock_algebra(20)
    for state in (two_mode_squeezed_vacuum(0.5, 20),
                  coherent_mixture([(0.6, 0.4, -0.3), (0.4, -0.2, 0.5j)], cutoff=20)):
        calls.clear()
        rep = duan_report(state, fock)
        assert len(calls) == 1
        (_, vs, images), = calls
        assert images.shape == (2, 2, 400, vs.shape[1])  # x1+-x2 and p1+-p2
        # the flags read the same Fisher informations as the Fisher-pair relation
        assert rep.useful_flags["x1-x2"] == (rep.qfi_x_minus > 4 + 1e-9)
        assert rep.useful_flags["p1+p2"] == (rep.qfi_p_plus > 4 + 1e-9)


def test_usefulness_flags_vacuum_product():
    fock = make_fock_algebra(30)
    psi = tensor(coherent_state(0.0, 30), coherent_state(0.0, 30))
    flags = duan_report(psi, fock).useful_flags
    assert not any(flags.values())


# ---------------------------------------------------------------------------
# two spins
# ---------------------------------------------------------------------------

def test_two_spin_singlet_report():
    rep = two_spin_report(singlet_state(0.5), 0.5, 0.5)
    assert rep.name == "two_spin"
    assert abs(rep.lhs) < 1e-12
    assert rep.rhs == 1.0
    assert rep.violated
    # differential variances are 1 each, so sum Var(J^-) = 3
    assert abs(rep.meta["var_sum_minus"] - 3.0) < 1e-9
    assert abs(rep.meta["fq_sum_minus"] - 12.0) < 1e-9
    assert rep.meta["more_useful_than_spin_coherent"]
    # 12 * 0 + 8 * 3 + 12 - 24 = 12
    assert abs(rep.meta["summed_relation_slack"] - 12.0) < 1e-9


def test_two_spin_product_coherent_hits_class_cap_exactly():
    psi = tensor(spin_coherent_state(0.5, (0.3, 0.7, -0.1)),
                 spin_coherent_state(0.5, (1.0, -0.4, 0.2)))
    rep = two_spin_report(psi, 0.5, 0.5)
    assert abs(rep.meta["fq_sum_minus"] - 4.0) < 1e-9
    assert rep.meta["spin_coherent_fisher_cap"] == 4.0
    assert not rep.meta["more_useful_than_spin_coherent"]
    assert rep.slack >= -1e-9
    assert rep.violated is False


def test_two_spin_maximally_mixed():
    rep = two_spin_report(DensityMatrix.maximally_mixed(4), 0.5, 0.5)
    assert abs(rep.lhs - 1.5) < 1e-12
    assert abs(rep.meta["var_sum_minus"] - 1.5) < 1e-12
    assert not rep.violated


def test_two_spin_mixed_spins():
    rho = spin_coherent_product_mixture(
        0.5, 1.0, [(0.6, (0.1, 0.2, 0.3), (0.9, 0.0, -0.4)),
                   (0.4, (1.1, -0.5, 0.0), (0.0, 0.6, 0.8))])
    rep = two_spin_report(rho, 0.5, 1.0)
    assert (rep.meta["j1"], rep.meta["j2"], rep.rhs) == (0.5, 1.0, 1.5)
    assert rep.meta["fq_sum_minus"] <= rep.meta["spin_coherent_fisher_cap"] + 1e-9
    summed = (12.0 * rep.lhs + 8.0 * rep.meta["var_sum_minus"] + rep.meta["fq_sum_minus"]
              - 24.0 * rep.rhs)
    assert abs(rep.meta["summed_relation_slack"] - summed) < 1e-12
    assert summed >= -1e-9


def test_two_spin_eight_twelve_combination_is_not_a_bound():
    """8 sum Var(J^+) + sum F_Q[J^-] is NOT bounded below by 12(j1+j2).

    Pure product states satisfy the would-be bound (their value is
    12 * (sum of single-party variance sums) >= 12(j1+j2)) and the singlet
    saturates it exactly, but generic entangled states dip below: the
    minimum over pure two-qubit states is 11 < 12.  So the report carries
    the valid summed relation instead.
    """
    def combination_slack(state):
        rep = two_spin_report(state, 0.5, 0.5)
        return 8.0 * rep.lhs + rep.meta["fq_sum_minus"] - 12.0 * rep.rhs

    assert abs(combination_slack(singlet_state(0.5))) < 1e-9
    psi = tensor(spin_coherent_state(0.5, (0.4, -0.2, 0.9)),
                 spin_coherent_state(0.5, (0.0, 1.3, 0.2)))
    assert combination_slack(psi) >= -1e-9
    # seed 123012 is a reproducible counterexample that still meets the summed relation
    from qfiroof import RandomStateConfig, random_density_matrix
    violator = random_density_matrix(RandomStateConfig(dim=4, rank=4, seed=123_012))
    assert combination_slack(violator) < -1e-3
    assert two_spin_report(violator, 0.5, 0.5).meta["summed_relation_slack"] >= -1e-9


@pytest.mark.parametrize("j1, j2, make_state", [
    (0.5, 0.5, lambda: random_state(4, seed=61)),
    (0.5, 1.0, lambda: random_state(6, seed=62, rank=2)),
    (1.0, 0.5, lambda: tensor(spin_coherent_state(1.0, (0.2, 0.8, -0.5)),
                              spin_coherent_state(0.5, (1.1, 0.0, 0.3)))),
    (0.5, 1.0, lambda: spin_coherent_product_mixture(
        0.5, 1.0, [(0.6, (0.1, 0.2, 0.3), (0.9, 0.0, -0.4)),
                   (0.4, (1.1, -0.5, 0.0), (0.0, 0.6, 0.8))])),
], ids=["qubits", "qubit_qutrit_rank2", "qutrit_qubit_product", "product_mixture"])
def test_two_spin_report_matches_dense_kron_operators(j1, j2, make_state):
    state = make_state()
    rho = dense_density(state)
    spin1, spin2 = make_spin_algebra(j1), make_spin_algebra(j2)
    var_plus = var_minus = fq_minus = 0.0
    for op1, op2 in zip(spin1.as_tuple(), spin2.as_tuple()):
        a, b = np.kron(op1.mat, np.eye(spin2.dim)), np.kron(np.eye(spin1.dim), op2.mat)
        var_plus += dense_variance(rho, a + b)
        var_minus += dense_variance(rho, a - b)
        fq_minus += dense_qfi(rho, a - b)
    rep = two_spin_report(state, j1, j2)
    assert abs(rep.lhs - var_plus) < 1e-12
    assert rep.rhs == j1 + j2
    expected = {"j1": j1, "j2": j2, "var_sum_minus": var_minus, "fq_sum_minus": fq_minus,
                "spin_coherent_fisher_cap": 4.0 * (j1 + j2),
                "more_useful_than_spin_coherent": fq_minus > 4.0 * (j1 + j2) + 1e-9,
                "summed_relation_slack": (12.0 * var_plus + 8.0 * var_minus + fq_minus
                                          - 24.0 * (j1 + j2))}
    assert rep.meta.keys() == expected.keys()
    for key, value in expected.items():
        assert abs(rep.meta[key] - value) < 1e-12, key


def test_two_spin_dimension_check():
    with pytest.raises(DimensionMismatchError):
        two_spin_report(DensityMatrix.maximally_mixed(4), 0.5, 1.0)


def test_two_spin_rejects_spin_zero():
    for j1, j2 in ((0, 0.5), (0.5, 0)):
        with pytest.raises(ValueError, match="spin 0"):
            two_spin_report(DensityMatrix.maximally_mixed(2), j1, j2)


# ---------------------------------------------------------------------------
# collective variance roof criterion
# ---------------------------------------------------------------------------

def test_collective_spin_ops_reject_spin_zero_and_non_integer_parties():
    with pytest.raises(ValueError, match="spin 0"):
        vxyz_criterion(PureState([1.0]), 0, 2, cfg=FAST)
    for parties in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="n_parties must be an integer"):
            collective_spin_ops(0.5, parties)


def test_vxyz_singlet_flags_entanglement():
    rep = vxyz_criterion(singlet_state(0.5), 0.5, 2, cfg=FAST)
    assert rep.lhs < 1e-9
    assert rep.rhs == 1.0
    assert rep.violated


def test_vxyz_product_state_not_flagged():
    psi = tensor(spin_coherent_state(0.5, (0.2, 0.1, 0.0)),
                 spin_coherent_state(0.5, (0.0, 0.8, 0.4)))
    rep = vxyz_criterion(psi, 0.5, 2, cfg=FAST)
    assert rep.lhs >= rep.rhs - 1e-9
    assert not rep.violated


def test_vxyz_witness_is_upper_bound():
    # for any state the reported value dominates the sum of Fisher terms / 4
    from qfiroof import qfi
    rho = random_state(4, seed=303)
    ops = collective_spin_ops(0.5, 2)
    rep = vxyz_criterion(rho, 0.5, 2, cfg=FAST)
    fisher_floor = sum(qfi(rho, op) for op in ops) / 4
    assert rep.lhs >= fisher_floor - 1e-9
    assert rep.meta["witness_is_upper_bound"]


def test_collective_ops_match_casimir_for_single_party():
    ops = collective_spin_ops(1.5, 1)
    spin = make_spin_algebra(1.5)
    for built, ref in zip(ops, spin.as_tuple()):
        assert np.allclose(built.mat, ref.mat)


def test_vxyz_three_parties():
    # pure product of three spin-1/2: variance sum meets the separable floor
    psi = tensor(tensor(spin_coherent_state(0.5, (0.1, 0.4, 0.0)),
                        spin_coherent_state(0.5, (0.9, 0.0, 0.2))),
                 spin_coherent_state(0.5, (0.0, 0.0, 1.1)))
    rep = vxyz_criterion(psi, 0.5, 3, cfg=OptimizerConfig(seed=1, restarts=2,
                                                          local_steps=50))
    assert rep.rhs == 1.5
    assert rep.lhs >= rep.rhs - 1e-9
    # fully mixed three-qubit state: separable, so no flag may be raised
    rep_mm = vxyz_criterion(DensityMatrix.maximally_mixed(8), 0.5, 3,
                            cfg=OptimizerConfig(seed=2, restarts=2, local_steps=50))
    assert not rep_mm.violated


def test_vxyz_ancilla_reaches_the_roof_search(monkeypatch):
    # a rank-4 state of four qubits searched in a four-level ancilla
    import qfiroof.entanglement
    from qfiroof import roof_sum_I
    calls = []

    def recording(*args, **kwargs):
        calls.append((kwargs, roof_sum_I(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(qfiroof.entanglement, "roof_sum_I", recording)
    rho = random_state(16, seed=305, rank=4)
    rep = vxyz_criterion(rho, 0.5, 4, cfg=FAST, ancilla_dim=4)
    (kwargs, roof), = calls
    assert kwargs["ancilla_dim"] == 4
    assert roof.decomposition.reconstructs(rho, tol=1e-9)
    assert len(roof.decomposition) <= 4
    fisher_floor = sum(dense_qfi(rho.mat, op.mat) for op in collective_spin_ops(0.5, 4)) / 4
    assert rep.meta["roof"] == roof.value
    assert fisher_floor - 1e-9 <= roof.value <= rep.lhs + 1e-9


def test_vxyz_roof_of_a_separable_state_can_fall_below_the_floor():
    # the maximally mixed three-qubit state is separable, yet it has
    # decompositions into entangled states averaging below N j, so the
    # verdict reads the state's own variance sum, not the roof
    rep = vxyz_criterion(DensityMatrix.maximally_mixed(8), 0.5, 3,
                         cfg=OptimizerConfig(seed=2, restarts=2, local_steps=50))
    assert abs(rep.lhs - 2.25) < 1e-12
    assert rep.meta["roof"] < rep.rhs - 0.3
    assert not rep.violated
