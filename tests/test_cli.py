import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import p_plus_eigenstate
from qfiroof import make_fock_algebra
from qfiroof.cli import (CHECKS, STATES, _child_seed, build_operator, build_parser, build_state,
                         main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# figure commands
# ---------------------------------------------------------------------------

def test_figure_rs_rows_and_summary(capsys):
    code, out, err = run_cli(capsys, "figure-rs", "--samples", "4", "--seed", "11",
                             "--restarts", "2", "--local-steps", "80")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "sample,lhs_minus_rhs_rs,lhs_minus_rhs_k,lhs_minus_rhs_roof"
    assert len(lines) == 6  # header + 4 samples + summary
    assert lines[-1].startswith("summary,4,")
    for line in lines[1:-1]:
        fields = line.split(",")
        rs, k, roof = map(float, fields[1:])
        # tighter bounds leave less slack, never negative beyond tolerance
        assert roof <= k + 1e-9
        assert k <= rs + 1e-9
        assert roof >= -1e-9


def test_figure_rs_deterministic(capsys):
    args = ("figure-rs", "--samples", "2", "--seed", "7",
            "--restarts", "2", "--local-steps", "60")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_figure_planar_anchor_rows(capsys):
    code, out, _ = run_cli(capsys, "figure-planar", "--j-list", "0.5,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,fq_jz,b_fq,reference_2j"
    row_half = lines[1].split(",")
    assert float(row_half[2]) == pytest.approx(1.0, abs=1e-9)
    row_one = lines[2].split(",")
    assert float(row_one[2]) == pytest.approx(9 / 4, abs=1e-9)
    for line in lines[1:]:
        _, fq, bfq, _ = map(float, line.split(","))
        assert bfq <= fq + 1e-9


def test_figure_spinsq_limits(capsys):
    code, out, _ = run_cli(capsys, "figure-spinsq", "--j", "10",
                           "--lambda-min", "0.1", "--lambda-max", "1e6",
                           "--lambda-points", "7")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    for _, fq, bfq, ref in rows:
        assert bfq <= fq + 1e-9
        assert ref == 20.0
    # at the stiffest pinning both sides sit at the 2j reference
    assert rows[-1][1] == pytest.approx(20.0, rel=0.01)
    assert rows[-1][2] == pytest.approx(20.0, rel=0.01)


def test_figure_json_format(capsys):
    code, out, _ = run_cli(capsys, "figure-planar", "--j-list", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["j"] == "0.5"


# ---------------------------------------------------------------------------
# check / roof / state-factory
# ---------------------------------------------------------------------------

def test_check_duan_product_coherent(capsys):
    spec = json.dumps({"constructor": "coherent_product",
                       "params": {"alpha1": [0.3, 0.0], "alpha2": [0.0, 0.4]}})
    code, out, _ = run_cli(capsys, "check", "duan", "--state", spec, "--cutoff", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == pytest.approx(2.0, abs=1e-6)
    assert payload["violated"] is False


def test_check_rs_on_random_qutrit(capsys):
    spec = json.dumps({"constructor": "random", "params": {"dim": 3, "seed": 4}})
    code, out, _ = run_cli(capsys, "check", "rs", "--state", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["slack"] >= -1e-9
    assert set(payload) == {"name", "lhs", "rhs", "slack", "violated", "meta"}


def test_check_two_spin_singlet(capsys):
    spec = json.dumps({"constructor": "singlet", "params": {"j": 0.5}})
    code, out, _ = run_cli(capsys, "check", "two-spin", "--state", spec,
                           "--j1", "0.5", "--j2", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "two_spin"
    assert payload["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert payload["rhs"] == 1.0
    assert payload["violated"] is True
    assert set(payload["meta"]) == {"j1", "j2", "var_sum_minus", "fq_sum_minus",
                                    "spin_coherent_fisher_cap",
                                    "more_useful_than_spin_coherent", "summed_relation_slack"}
    assert payload["meta"]["fq_sum_minus"] == pytest.approx(12.0, abs=1e-9)
    assert payload["meta"]["summed_relation_slack"] == pytest.approx(12.0, abs=1e-9)


QUTRIT = {"constructor": "random", "params": {"dim": 3, "seed": 4}}
FAST_ROOF = ("--restarts", "2", "--local-steps", "60")
# a small state each check accepts, and the extra arguments it needs
CHECK_CASES = {
    "rs": (QUTRIT, ()),
    "improved-rs": (QUTRIT, FAST_ROOF),
    "improved-hr": (QUTRIT, ()),
    "weighted-sum": (QUTRIT, ("--alpha", "2", "--beta", "0.5", *FAST_ROOF)),
    "bfq": ({"constructor": "spin_squeezed", "params": {"j": 2, "lam": 1.0}}, ()),
    "sud": (QUTRIT, ()),
    "spin-length": ({"constructor": "spin_coherent_polar",
                     "params": {"j": 1, "theta": 0.4, "phi": 0.1}}, ()),
    "duan": ({"constructor": "tmsv", "params": {"r": 0.1}}, ("--cutoff", "8")),
    "two-spin": ({"constructor": "singlet", "params": {"j": 0.5}}, ()),
    "vxyz": ({"constructor": "singlet", "params": {"j": 0.5}}, FAST_ROOF),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_check_prints_a_bound_report(capsys, name):
    spec, extra = CHECK_CASES[name]
    code, out, err = run_cli(capsys, "check", name, "--state", json.dumps(spec), *extra)
    assert code == 0 and err == ""
    payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in output"))
    assert set(payload) == {"name", "lhs", "rhs", "slack", "violated", "meta"}
    assert payload["slack"] == pytest.approx(payload["lhs"] - payload["rhs"], abs=1e-12)


def test_check_weighted_sum_rejects_nan_weight(capsys):
    code, out, err = run_cli(capsys, "check", "weighted-sum", "--state", json.dumps(QUTRIT),
                             "--alpha", "nan")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "weight alpha must be finite" in payload["message"]


def test_roof_pure_state_min_is_variance(capsys):
    spec = json.dumps({"constructor": "spin_coherent_polar",
                       "params": {"j": 1.0, "theta": 0.8, "phi": 0.3}})
    code, out, _ = run_cli(capsys, "roof", "--state", spec, "--ops", "jz",
                           "--direction", "min")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert len(payload["decomposition"]) == 1
    # pure state: roof equals the plain variance
    from qfiroof import make_spin_algebra, spin_coherent_polar, variance
    psi = spin_coherent_polar(1.0, 0.8, 0.3)
    assert payload["value"] == pytest.approx(variance(psi, make_spin_algebra(1).jz), abs=1e-12)


def test_roof_rs_bound_matches_the_library_search(capsys):
    from qfiroof import (OptimizerConfig, RobertsonSchrodingerBound, concave_roof_L,
                         make_spin_algebra, optimize_roof)
    code, out, err = run_cli(capsys, "roof", "--state", json.dumps(QUTRIT), "--ops", "jx", "jy",
                             "--functional", "rs-bound", "--direction", "max", "--seed", "3",
                             *FAST_ROOF)
    assert code == 0 and err == ""
    payload = json.loads(out)
    spin = make_spin_algebra(1)
    cfg = OptimizerConfig(seed=_child_seed(3, 0xD0), restarts=2, local_steps=60)
    rho = build_state(QUTRIT, 40)
    expected = optimize_roof(rho, RobertsonSchrodingerBound(spin.jx, spin.jy), "max", cfg=cfg)
    assert payload["value"] == expected.value
    assert payload["evaluations"] == expected.evaluations
    assert len(payload["decomposition"]) == len(expected.decomposition)
    # the roof of `check improved-rs` is the same search
    named = concave_roof_L(rho, spin.jx, spin.jy, cfg=cfg)
    assert payload["value"] == named.value
    assert payload["evaluations"] == named.evaluations


def test_roof_rs_bound_rejects_three_operators(capsys):
    code, out, err = run_cli(capsys, "roof", "--state", json.dumps(QUTRIT), "--ops", "jx", "jy",
                             "jz", "--functional", "rs-bound", "--direction", "max")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "exactly two operators" in payload["message"]


def test_state_factory_roundtrip(capsys):
    spec = json.dumps({"constructor": "maximally_mixed", "params": {"dim": 3}})
    code, out, _ = run_cli(capsys, "state-factory", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "mixed"
    assert payload["dim"] == 3
    mat = np.array(payload["re"]).reshape(3, 3)
    assert np.allclose(mat, np.eye(3) / 3)


def test_state_factory_rejects_spin_zero_polar_mixture(capsys):
    spec = json.dumps({"constructor": "z_polar_mixture", "params": {"j": 0}})
    code, out, err = run_cli(capsys, "state-factory", spec)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "z_polar_mixture needs spin j > 0; at spin 0 its two J_z states coincide"}


def test_check_json_determinism(capsys):
    spec = json.dumps({"constructor": "random", "params": {"dim": 3, "seed": 21}})
    args = ("check", "improved-rs", "--state", spec, "--seed", "5",
            "--restarts", "2", "--local-steps", "60")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_unknown_constructor_gives_json_error(capsys):
    code, out, err = run_cli(capsys, "check", "rs", "--state",
                             json.dumps({"constructor": "nope"}))
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"] == "unknown state constructor 'nope'"


def test_non_string_constructor_gives_json_error(capsys):
    code, out, err = run_cli(capsys, "check", "rs", "--state",
                             json.dumps({"constructor": ["nope"]}))
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"] == "unknown state constructor ['nope']"


def test_check_rs_rejects_nan_state(capsys):
    re = [1 / 3, 0, 0, 0, 1 / 3, 0, 0, 0, 1 / 3]
    re[0] = float("nan")
    spec = json.dumps({"matrix": {"dim": 3, "kind": "mixed", "re": re, "im": [0] * 9}})
    code, out, err = run_cli(capsys, "check", "rs", "--state", spec, "--op-a", "jx", "--op-b", "jy")
    assert code == 1 and out == ""
    assert "non-finite" in json.loads(err)["message"]


def test_check_duan_indeterminate_slack_is_json_null(capsys):
    psi = p_plus_eigenstate(make_fock_algebra(6))
    spec = json.dumps({"matrix": {"dim": 36, "kind": "pure",
                                  "re": psi.real.tolist(), "im": psi.imag.tolist()}})
    code, out, _ = run_cli(capsys, "check", "duan", "--state", spec, "--cutoff", "6")
    assert code == 0
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in output"))
    assert payload["meta"]["fisher_pair_status"] == "indeterminate"
    assert payload["meta"]["fisher_pair_slack"] is None


def test_non_finite_outputs_exit_through_error_path(capsys, monkeypatch):
    import qfiroof.cli
    from qfiroof import BoundReport, Decomposition, PureState, RoofResult

    nan_report = BoundReport(name="robertson_schrodinger", lhs=float("nan"), rhs=1.0)
    monkeypatch.setattr(qfiroof.cli, "check_robertson_schrodinger", lambda s, a, b: nan_report)
    nan_roof = RoofResult(value=float("nan"), converged=False, evaluations=1,
                          decomposition=Decomposition(((1.0, PureState([1, 0, 0])),)))
    monkeypatch.setattr(qfiroof.cli, "optimize_roof", lambda *args, **kwargs: nan_roof)
    spec = json.dumps({"constructor": "random", "params": {"dim": 3, "seed": 4}})
    for argv in (("check", "rs", "--state", spec),
                 ("roof", "--state", spec, "--ops", "jz", "--direction", "min")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"


def test_non_finite_figure_row_exits_through_error_path(capsys, monkeypatch):
    import qfiroof.cli
    from qfiroof import BoundReport

    nan_report = BoundReport(name="bfq", lhs=float("nan"), rhs=1.0)
    monkeypatch.setattr(qfiroof.cli, "bfq_bound", lambda state: nan_report)
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, "figure-planar", "--j-list", "0.5", "--format", fmt)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_figure_rs_rejects_sample_counts_below_one(capsys, samples):
    code, out, err = run_cli(capsys, "figure-rs", "--samples", samples)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"samples must be an integer >= 1, got {samples}"}


@pytest.mark.parametrize("argv,message", [
    (("figure-spinsq", "--lambda-points", "0"), "lambda_points must be an integer >= 1, got 0"),
    (("figure-spinsq", "--lambda-min", "-1"), "lambda_min must be finite and > 0, got -1.0"),
    (("figure-spinsq", "--lambda-min", "0"), "lambda_min must be finite and > 0, got 0.0"),
    (("figure-spinsq", "--lambda-max", "inf"), "lambda_max must be finite and > 0, got inf"),
    (("figure-spinsq", "--lambda-max", "nan"), "lambda_max must be finite and > 0, got nan"),
    (("figure-planar", "--j-list", ","), "j_list must name at least one spin"),
    (("figure-planar", "--j-list", "0.5,0"),
     "planar_squeezed_state needs spin j > 0; spin 0 has no mean spin"),
    (("figure-planar", "--j-list", "inf"), "j must be finite, got inf"),
    (("figure-planar", "--j-list", "0.5,nan"), "j must be finite, got nan"),
    (("figure-spinsq", "--j", "0", "--lambda-points", "2"),
     "spin_squeezed_state needs spin j > 0; spin 0 has no spin to squeeze"),
])
def test_figure_grids_are_validated_before_any_row(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


# flags that the subcommand's command never reads are not accepted
UNREAD_FLAGS = [
    ("figure-rs", "--cutoff", "40"),
    *[(cmd, flag, value) for cmd in ("figure-planar", "figure-spinsq")
      for flag, value in (("--seed", "1"), ("--cutoff", "40"),
                          ("--restarts", "2"), ("--local-steps", "50"))],
    ("check", "--format", "csv"),
    ("roof", "--format", "csv"),
    *[("state-factory", flag, value) for flag, value in
      (("--seed", "5"), ("--format", "json"), ("--restarts", "2"), ("--local-steps", "50"))],
]
REQUIRED_ARGS = {
    "check": ["rs", "--state", json.dumps(QUTRIT)],
    "roof": ["--state", json.dumps(QUTRIT), "--ops", "jz", "--direction", "min"],
    "state-factory": [json.dumps(QUTRIT)],
}


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS])
def test_unread_flag_is_a_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main([command, *REQUIRED_ARGS.get(command, []), flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


# the flags each check reads besides --state, --cutoff and --out
CHECK_FLAGS = {
    "rs": {"--op-a", "--op-b"},
    "improved-rs": {"--op-a", "--op-b", "--seed", "--restarts", "--local-steps"},
    "improved-hr": {"--op-a", "--op-b"},
    "weighted-sum": {"--op-a", "--op-b", "--alpha", "--beta", "--seed", "--restarts",
                     "--local-steps"},
    "bfq": set(),
    "sud": set(),
    "spin-length": set(),
    "duan": set(),
    "two-spin": {"--j1", "--j2"},
    "vxyz": {"--spin", "--parties", "--seed", "--restarts", "--local-steps"},
}
# a valid value for every flag that some check reads
CHECK_FLAG_VALUES = {"--op-a": "jx", "--op-b": "jy", "--alpha": "2", "--beta": "0.5",
                     "--j1": "0.5", "--j2": "1", "--parties": "2", "--spin": "0.5",
                     "--seed": "3", "--restarts": "2", "--local-steps": "50"}
UNREAD_CHECK_FLAGS = [(name, flag) for name, flags in CHECK_FLAGS.items()
                      for flag in CHECK_FLAG_VALUES if flag not in flags]


def test_unread_check_flags_cover_every_check():
    assert set(CHECK_FLAGS) == set(CHECKS)
    assert len(UNREAD_CHECK_FLAGS) == 87


@pytest.mark.parametrize("name,flag", UNREAD_CHECK_FLAGS,
                         ids=[f"{name}{flag}" for name, flag in UNREAD_CHECK_FLAGS])
def test_unread_check_flag_is_a_usage_error(capsys, name, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", name, "--state", json.dumps(QUTRIT), flag, CHECK_FLAG_VALUES[flag]])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_malformed_state_spec(capsys):
    code, _, err = run_cli(capsys, "check", "rs", "--state", "{not json")
    assert code == 1
    assert json.loads(err)["error"] == "JSONDecodeError"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "figure-planar", "--j-list", "0.5",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("j,fq_jz")


# ---------------------------------------------------------------------------
# spec helpers
# ---------------------------------------------------------------------------

def test_build_operator_named_spin():
    op = build_operator("jz", dim=3, cutoff=40)
    assert np.allclose(np.diag(op.mat).real, [1, 0, -1])


def test_build_operator_inline_matrix():
    op = build_operator(json.dumps({"dim": 2, "re": [0, 1, 1, 0], "im": [0, 0, 0, 0]}),
                        dim=2, cutoff=40)
    assert np.allclose(op.mat, [[0, 1], [1, 0]])


def test_build_operator_two_mode_quadratures():
    op = build_operator("x2", dim=16, cutoff=4)
    assert op.dim == 16
    with pytest.raises(ValueError):
        build_operator("x", dim=16, cutoff=4)


# one sample params dict per README constructor
STATE_SAMPLES = {
    "coherent": {"alpha": [0.3, 0.1], "cutoff": 12},
    "coherent_product": {"alpha1": [0.3, 0.0], "alpha2": 0.2, "cutoff": 12},
    "vacuum": {},  # no params cutoff: the cutoff argument applies
    "tmsv": {"r": 0.1, "cutoff": 8},
    "spin_coherent": {"j": 1, "c": [0.1, 0.2, 0.3]},
    "spin_coherent_polar": {"j": 1.5, "theta": 0.4, "phi": 0.2},
    "spin_squeezed": {"j": 2, "lam": 1.0},
    "planar_squeezed": {"j": 1},
    "singlet": {"j": 0.5},
    "random": {"dim": 4, "rank": 2, "seed": 9},
    "maximally_mixed": {"dim": 3},
    "z_polar_mixture": {"j": 1},
    "coherent_mixture": {"entries": [[0.5, [0.3, 0], [0, 0.2]], [0.5, [-0.3, 0], [0, -0.2]]],
                         "cutoff": 12},
    "spin_coherent_mixture": {"j": 1, "entries": [[0.5, [0.1, 0.2, 0.3]], [0.5, [0, -0.4, 0]]]},
}
STATE_DIMS = {"coherent": 12, "coherent_product": 144, "vacuum": 40, "tmsv": 64,
              "spin_coherent": 3, "spin_coherent_polar": 4, "spin_squeezed": 5,
              "planar_squeezed": 3, "singlet": 4, "random": 4, "maximally_mixed": 3,
              "z_polar_mixture": 3, "coherent_mixture": 144, "spin_coherent_mixture": 3}


def test_readme_constructor_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| constructor | params |", 1)[1].split("\n\n", 1)[0]
    names = set(re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE))
    assert names == set(STATES) == set(STATE_SAMPLES)


def _accepted_flags(parser, command=""):
    """The flags of every leaf subcommand, a nested one named like 'check rs'."""
    subparsers = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    if not subparsers:
        return {command: {flag for action in parser._actions for flag in action.option_strings
                          if flag.startswith("--") and flag != "--help"}}
    return {leaf: flags for name, child in subparsers[0].choices.items()
            for leaf, flags in _accepted_flags(child, f"{command} {name}".strip()).items()}


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | flags |", 1)[1].split("\n\n", 1)[0]
    documented = {command: set(re.findall(r"`(--[\w-]+)", flags))
                  for command, flags in re.findall(r"^\| `([\w -]+)` \|(.*)\|$", table,
                                                   flags=re.MULTILINE)}
    accepted = _accepted_flags(build_parser())
    assert documented == accepted
    assert sum(map(len, accepted.values())) == 79
    assert sum(len(flags) for command, flags in accepted.items()
               if command.startswith("check ")) == 53
    assert {command: flags - {"--state", "--cutoff", "--out"}
            for command, flags in accepted.items() if command.startswith("check ")} == {
        f"check {name}": flags for name, flags in CHECK_FLAGS.items()}


def test_readme_python_example_runs(capsys):
    # the library quick start: the convex roof of Var(J_z) against F_Q/4
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    quarter_fisher, roof, converged = capsys.readouterr().out.split()
    assert abs(float(roof) - float(quarter_fisher)) < 1e-6
    assert converged == "True"


@pytest.mark.parametrize("name", list(STATES))
def test_every_constructor_builds(name):
    state = build_state({"constructor": name, "params": STATE_SAMPLES[name]}, cutoff=40)
    assert state.dim == STATE_DIMS[name]


def test_build_state_inline_matrix():
    state = build_state({"matrix": {"dim": 2, "kind": "pure",
                                    "re": [1, 0], "im": [0, 0]}}, cutoff=40)
    assert np.allclose(state.vec, [1, 0])
