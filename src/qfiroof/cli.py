"""Command-line front end: figure data generation, bound checks, roofs, and
state construction.

Each subcommand accepts only the flags it reads.  All commands are
deterministic (for a fixed ``--seed`` where they take one); numeric CSV
fields use 12 significant digits so identical runs produce identical bytes.
A command line that argparse rejects exits 2 with a usage message on stderr;
every other error exits 1 with a JSON payload on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as qio
from .bounds import (
    BoundReport,
    bfq_bound,
    check_improved_hr,
    check_improved_rs,
    check_robertson_schrodinger,
    check_weighted_sum,
    eigen_partition_bound_K,
    rs_lower_bound_L,
    spin_length_bound,
    su_d_bound,
)
from .core import (
    DensityMatrix,
    HermitianOperator,
    RandomStateConfig,
    coherent_state,
    make_fock_algebra,
    make_spin_algebra,
    random_density_matrix,
    spin_coherent_polar,
    spin_coherent_state,
    tensor,
    variance,
    _require_count,
)
from .entanglement import duan_report, two_spin_report, vxyz_criterion
from .roofs import (
    OptimizerConfig,
    RobertsonSchrodingerBound,
    VarianceSum,
    concave_roof_L,
    optimize_roof,
)
from .states import (
    coherent_mixture,
    planar_squeezed_state,
    singlet_state,
    spin_coherent_mixture,
    spin_squeezed_state,
    two_mode_squeezed_vacuum,
)

CSV_FMT = "{:.12g}"


def _fmt(x) -> str:
    """A figure value as text; a non-finite one is an error, not a row."""
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"non-finite figure value {x!r}")
    return CSV_FMT.format(x)


def _child_seed(seed: int, *indices: int) -> int:
    return int(np.random.SeedSequence([seed, *indices]).generate_state(1)[0])


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_json(payload, out: str | None) -> None:
    _write_output(json.dumps(payload, indent=2, allow_nan=False) + "\n", out)


def _emit(rows: list[list[str]], header: list[str], args) -> None:
    if args.format == "json":
        _write_json([dict(zip(header, row)) for row in rows], args.out)
    else:
        lines = [",".join(header)] + [",".join(row) for row in rows]
        _write_output("\n".join(lines) + "\n", args.out)


# ---------------------------------------------------------------------------
# state and operator mini-format
# ---------------------------------------------------------------------------

def _parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise ValueError(f"cannot read complex number from {value!r}")


def _z_polar_mixture(j) -> DensityMatrix:
    """Equal mixture of the two extremal J_z states of a spin j > 0."""
    spin = make_spin_algebra(j)
    if spin.j == 0.0:
        raise ValueError("z_polar_mixture needs spin j > 0; at spin 0 its two J_z states coincide")
    weights = np.zeros(spin.dim)
    weights[[0, -1]] = 0.5
    return DensityMatrix(np.diag(weights))


# Each constructor takes the spec's params and the Fock cutoff (the params'
# own "cutoff" if given, else --cutoff); the README's constructor table lists
# the params each one reads.
STATES = {
    "coherent": lambda p, c: coherent_state(_parse_complex(p["alpha"]), c),
    "coherent_product": lambda p, c: tensor(coherent_state(_parse_complex(p["alpha1"]), c),
                                            coherent_state(_parse_complex(p["alpha2"]), c)),
    "vacuum": lambda p, c: coherent_state(0.0, c),
    "tmsv": lambda p, c: two_mode_squeezed_vacuum(p["r"], c),
    "spin_coherent": lambda p, c: spin_coherent_state(p["j"], p["c"]),
    "spin_coherent_polar": lambda p, c: spin_coherent_polar(p["j"], p["theta"], p["phi"]),
    "spin_squeezed": lambda p, c: spin_squeezed_state(p["j"], p["lam"]),
    "planar_squeezed": lambda p, c: planar_squeezed_state(p["j"]).state,
    "singlet": lambda p, c: singlet_state(p["j"]),
    "random": lambda p, c: random_density_matrix(RandomStateConfig(
        dim=p["dim"], rank=p.get("rank", p["dim"]), seed=p["seed"])),
    "maximally_mixed": lambda p, c: DensityMatrix.maximally_mixed(p["dim"]),
    "z_polar_mixture": lambda p, c: _z_polar_mixture(p["j"]),
    "coherent_mixture": lambda p, c: coherent_mixture(
        [(e[0], *map(_parse_complex, e[1:])) for e in p["entries"]], c),
    "spin_coherent_mixture": lambda p, c: spin_coherent_mixture(
        p["j"], [(e[0], e[1]) for e in p["entries"]]),
}


def build_state(spec: dict, cutoff: int):
    """Build a state from the JSON mini-format.

    Either {"matrix": {...}} with an inline serialized state, or
    {"constructor": name, "params": {...}} naming an entry of ``STATES``.
    """
    if "matrix" in spec:
        return qio.state_from_json(spec["matrix"])
    name = spec.get("constructor")
    if not isinstance(name, str) or name not in STATES:
        raise ValueError(f"unknown state constructor {name!r}")
    params = spec.get("params", {})
    return STATES[name](params, params.get("cutoff", cutoff))


def _load_spec(arg: str) -> dict:
    if arg.startswith("@"):
        return json.loads(Path(arg[1:]).read_text())
    return json.loads(arg)


def build_operator(arg: str, dim: int, cutoff: int) -> HermitianOperator:
    """A named spin/quadrature operator sized to the state, or an inline matrix."""
    if arg.startswith("{") or arg.startswith("@"):
        return qio.operator_from_json(_load_spec(arg))
    name = arg.lower()
    if name in ("jx", "jy", "jz"):
        return getattr(make_spin_algebra((dim - 1) / 2.0), name)
    if name in ("x", "p"):
        fock = make_fock_algebra(cutoff)
        if dim != cutoff:
            raise ValueError(
                f"single-mode quadrature for dim {dim} does not match cutoff {cutoff};"
                " two-mode states use x1/x2/p1/p2")
        return fock.x if name == "x" else fock.p
    if name in ("x1", "x2", "p1", "p2"):
        fock = make_fock_algebra(cutoff)
        if dim != cutoff**2:
            raise ValueError(f"two-mode operator needs dim = cutoff^2 = {cutoff ** 2}")
        eye = HermitianOperator(np.eye(cutoff))
        base = fock.x if name[0] == "x" else fock.p
        return tensor(base, eye) if name[1] == "1" else tensor(eye, base)
    raise ValueError(f"unknown operator spec {arg!r}")


def _optimizer_config(args, path: tuple[int, ...] = (0xD0,)) -> OptimizerConfig:
    return OptimizerConfig(seed=_child_seed(args.seed, *path),
                           restarts=args.restarts,
                           local_steps=args.local_steps)


# ---------------------------------------------------------------------------
# figure commands
# ---------------------------------------------------------------------------

def cmd_figure_rs(args) -> None:
    """Random qutrits against the plain, eigenvector-partition, and roof bounds."""
    _require_count(args.samples, "samples", 1)
    spin = make_spin_algebra(1)
    a, b = spin.jx, spin.jy
    header = ["sample", "lhs_minus_rhs_rs", "lhs_minus_rhs_k", "lhs_minus_rhs_roof"]
    rows = []
    improved_k = 0
    improved_roof = 0
    for i in range(args.samples):
        rho = random_density_matrix(RandomStateConfig(
            dim=3, rank=3, seed=_child_seed(args.seed, 1, i)))
        lhs = variance(rho, a) * variance(rho, b)
        l_val = rs_lower_bound_L(rho, a, b)
        k_val = eigen_partition_bound_K(rho, a, b)
        roof = concave_roof_L(rho, a, b, cfg=_optimizer_config(args, (2, i)))
        if k_val > l_val + 1e-6:
            improved_k += 1
        if roof.value > l_val + 1e-6:
            improved_roof += 1
        rows.append([str(i), _fmt(lhs - 0.25 * l_val**2),
                     _fmt(lhs - 0.25 * k_val**2), _fmt(lhs - 0.25 * roof.value**2)])
    rows.append(["summary", str(args.samples), str(improved_k), str(improved_roof)])
    _emit(rows, header, args)


def _bfq_row(x, state) -> list[str]:
    """A sweep point x, F_Q[J_z], its variance bound b_fq, and the reference 2j."""
    report = bfq_bound(state)
    return [_fmt(x), _fmt(report.lhs), _fmt(report.rhs),
            _fmt(report.meta["su2_mixture_reference"])]


def cmd_figure_planar(args) -> None:
    """Fisher information and its variance-based lower bound for planar squeezing."""
    if not args.j_list:
        raise ValueError("j_list must name at least one spin")
    rows = [_bfq_row(j, planar_squeezed_state(j).state) for j in args.j_list]
    _emit(rows, ["j", "fq_jz", "b_fq", "reference_2j"], args)


def cmd_figure_spinsq(args) -> None:
    """Same comparison along a one-axis-squeezing sweep at fixed j."""
    _require_count(args.lambda_points, "lambda_points", 1)
    for name in ("lambda_min", "lambda_max"):
        if not 0.0 < getattr(args, name) < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {getattr(args, name)!r}")
    lam_grid = np.logspace(np.log10(args.lambda_min), np.log10(args.lambda_max),
                           args.lambda_points)
    rows = [_bfq_row(lam, spin_squeezed_state(args.j, lam)) for lam in lam_grid]
    _emit(rows, ["lambda", "fq_jz", "b_fq", "reference_2j"], args)


# ---------------------------------------------------------------------------
# check / roof / state-factory
# ---------------------------------------------------------------------------

def _operator_pair(state, args) -> tuple[HermitianOperator, HermitianOperator]:
    return (build_operator(args.op_a, state.dim, args.cutoff),
            build_operator(args.op_b, state.dim, args.cutoff))


def _duan_check(state, args) -> BoundReport:
    report = duan_report(state, make_fock_algebra(args.cutoff))
    return BoundReport(
        name="duan",
        lhs=report.duan_lhs,
        rhs=report.duan_rhs,
        meta={
            "qfi_x_minus": report.qfi_x_minus,
            "qfi_p_plus": report.qfi_p_plus,
            # an indeterminate relation has a NaN slack, which JSON cannot carry
            "fisher_pair_slack": (report.fisher_pair_slack
                                  if report.fisher_pair_status == "ok" else None),
            "fisher_pair_status": report.fisher_pair_status,
            "useful_flags": report.useful_flags,
        },
    )


_PAIR_FLAGS = ("--op-a", "--op-b")
_OPTIMIZER_FLAGS = ("--seed", "--restarts", "--local-steps")

# Each check maps (state, args) to a BoundReport and names the flags it reads
# besides --state, --cutoff and --out; the names are the subcommands of
# ``qfiroof check``.
CHECKS = {
    "rs": (lambda state, args: check_robertson_schrodinger(
        state, *_operator_pair(state, args)), _PAIR_FLAGS),
    "improved-rs": (lambda state, args: check_improved_rs(
        state, *_operator_pair(state, args), cfg=_optimizer_config(args)),
        (*_PAIR_FLAGS, *_OPTIMIZER_FLAGS)),
    "improved-hr": (lambda state, args: check_improved_hr(
        state, *_operator_pair(state, args)), _PAIR_FLAGS),
    "weighted-sum": (lambda state, args: check_weighted_sum(
        state, *_operator_pair(state, args), args.alpha, args.beta,
        cfg=_optimizer_config(args)), (*_PAIR_FLAGS, "--alpha", "--beta", *_OPTIMIZER_FLAGS)),
    "bfq": (lambda state, args: bfq_bound(state), ()),
    "sud": (lambda state, args: su_d_bound(state), ()),
    "spin-length": (lambda state, args: spin_length_bound(state), ()),
    "duan": (_duan_check, ()),
    "two-spin": (lambda state, args: two_spin_report(state, args.j1, args.j2),
                 ("--j1", "--j2")),
    "vxyz": (lambda state, args: vxyz_criterion(state, args.spin, args.parties,
                                                cfg=_optimizer_config(args)),
             ("--spin", "--parties", *_OPTIMIZER_FLAGS)),
}


def cmd_check(args) -> None:
    state = build_state(_load_spec(args.state), args.cutoff)
    check, _ = CHECKS[args.name]
    _write_json(check(state, args).to_dict(), args.out)


def _rs_bound(ops: list[HermitianOperator]) -> RobertsonSchrodingerBound:
    if len(ops) != 2:
        raise ValueError("the rs-bound functional needs exactly two operators")
    return RobertsonSchrodingerBound(*ops)


# Each functional maps the parsed operators to a RoofFunctional; the names are
# the choices of ``qfiroof roof --functional``.
FUNCTIONALS = {"variance-sum": VarianceSum, "rs-bound": _rs_bound}


def cmd_roof(args) -> None:
    state = build_state(_load_spec(args.state), args.cutoff)
    ops = [build_operator(spec, state.dim, args.cutoff) for spec in args.ops]
    functional = FUNCTIONALS[args.functional](ops)
    result = optimize_roof(state, functional, args.direction, cfg=_optimizer_config(args))
    _write_json(qio.roof_result_to_json(result), args.out)


def cmd_state_factory(args) -> None:
    state = build_state(_load_spec(args.spec), args.cutoff)
    _write_json(qio.state_to_json(state), args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# Every flag's argparse settings, state-factory's positional spec included;
# COMMANDS and CHECKS name the flags each command reads.
FLAGS = {
    "spec": dict(help="state spec JSON or @file"),
    "--state": dict(required=True, help="state spec JSON or @file"),
    "--out": dict(default=None, help="output path, '-' or omitted for stdout"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--cutoff": dict(type=int, default=40, help="Fock truncation (default 40)"),
    "--seed": dict(type=int, default=1, help="master seed (default 1)"),
    "--restarts": dict(type=int, default=8, help="optimizer restarts"),
    "--local-steps": dict(type=int, default=600, help="optimizer iteration budget per start"),
    "--samples": dict(type=int, default=200),
    "--j-list": dict(type=_float_list, default=[0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5]),
    "--j": dict(type=float, default=50),
    "--lambda-min": dict(type=float, default=1e-2),
    "--lambda-max": dict(type=float, default=1e6),
    "--lambda-points": dict(type=int, default=25),
    "--ops": dict(nargs="+", required=True, help="operator specs"),
    "--direction": dict(choices=("min", "max"), required=True),
    "--functional": dict(choices=tuple(FUNCTIONALS), default="variance-sum"),
    "--op-a": dict(default="jx"),
    "--op-b": dict(default="jy"),
    "--alpha": dict(type=float, default=1.0),
    "--beta": dict(type=float, default=1.0),
    "--j1": dict(type=float, default=0.5),
    "--j2": dict(type=float, default=0.5),
    "--parties": dict(type=int, default=2),
    "--spin": dict(type=float, default=0.5),
}

# Each subcommand: (function, help, the flags it reads); ``check`` has one
# subcommand of its own per entry of CHECKS.
COMMANDS = {
    "figure-rs": (cmd_figure_rs, "random-qutrit bound comparison data",
                  ("--samples", *_OPTIMIZER_FLAGS, "--format", "--out")),
    "figure-planar": (cmd_figure_planar, "planar-squeezed bound sweep over j",
                      ("--j-list", "--format", "--out")),
    "figure-spinsq": (cmd_figure_spinsq, "one-axis-squeezing sweep at fixed j",
                      ("--j", "--lambda-min", "--lambda-max", "--lambda-points", "--format",
                       "--out")),
    "check": (cmd_check, "evaluate a named inequality on a state", ()),
    "roof": (cmd_roof, "optimize a functional over decompositions",
             ("--state", "--ops", "--direction", "--functional", "--cutoff",
              *_OPTIMIZER_FLAGS, "--out")),
    "state-factory": (cmd_state_factory, "construct and serialize a state",
                      ("spec", "--cutoff", "--out")),
}


def _add_command(sub, name: str, func, help_text: str | None, flags) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    for flag in flags:
        p.add_argument(flag, **FLAGS[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfiroof",
        description="Fisher-information and variance-roof uncertainty toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: _add_command(sub, name, *entry) for name, entry in COMMANDS.items()}
    checks = parsers["check"].add_subparsers(dest="name", required=True)
    for name, (_, flags) in CHECKS.items():
        _add_command(checks, name, cmd_check, None, ("--state", *flags, "--cutoff", "--out"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
