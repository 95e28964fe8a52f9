"""JSON exchange formats for matrices, states, and result records.

Matrices travel as {dim, re, im} with row-major real and imaginary parts;
states carry an additional "kind" tag ("pure" states serialize their
amplitude vector, "mixed" states their density matrix).
"""

from __future__ import annotations

import numpy as np

from .core import DensityMatrix, HermitianOperator, PureState, _require_count
from .roofs import Decomposition, RoofResult


def operator_to_json(op: HermitianOperator) -> dict:
    return {
        "dim": op.dim,
        "re": op.mat.real.ravel().tolist(),
        "im": op.mat.imag.ravel().tolist(),
    }


def operator_from_json(data: dict) -> HermitianOperator:
    dim = data["dim"]
    _require_count(dim, "dim", 1)
    mat = (np.asarray(data["re"], dtype=float)
           + 1j * np.asarray(data["im"], dtype=float)).reshape(dim, dim)
    return HermitianOperator(mat)


def state_to_json(state: DensityMatrix) -> dict:
    if isinstance(state, PureState):
        return {
            "dim": state.dim,
            "kind": "pure",
            "re": state.vec.real.tolist(),
            "im": state.vec.imag.tolist(),
        }
    return {
        "dim": state.dim,
        "kind": "mixed",
        "re": state.mat.real.ravel().tolist(),
        "im": state.mat.imag.ravel().tolist(),
    }


def state_from_json(data: dict) -> DensityMatrix:
    dim = data["dim"]
    _require_count(dim, "dim", 1)
    kind = data.get("kind", "mixed")
    arr = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    if kind == "pure":
        if arr.size != dim:
            raise ValueError(f"pure state needs {dim} amplitudes, got {arr.size}")
        return PureState(arr)
    if kind == "mixed":
        return DensityMatrix(arr.reshape(dim, dim))
    raise ValueError(f"unknown state kind {kind!r}")


def decomposition_to_json(dec: Decomposition) -> list[dict]:
    return [{"p": p, "state": state_to_json(state)} for p, state in dec.components]


def roof_result_to_json(result: RoofResult) -> dict:
    return {
        "value": result.value,
        "converged": result.converged,
        "evaluations": result.evaluations,
        "decomposition": decomposition_to_json(result.decomposition),
    }
