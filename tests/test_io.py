import json

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from qfiroof import convex_roof_variance
from qfiroof.io import (
    operator_from_json,
    operator_to_json,
    roof_result_to_json,
    state_from_json,
    state_to_json,
)
from qfiroof.core import PureState


def test_operator_roundtrip():
    op = random_hermitian(3, 71)
    data = operator_to_json(op)
    assert set(data) == {"dim", "re", "im"}
    back = operator_from_json(json.loads(json.dumps(data)))
    assert np.allclose(back.mat, op.mat, atol=1e-15)


def test_mixed_state_roundtrip():
    rho = random_state(4, 72)
    data = state_to_json(rho)
    assert data["kind"] == "mixed"
    back = state_from_json(json.loads(json.dumps(data)))
    assert np.allclose(back.mat, rho.mat, atol=1e-15)


def test_pure_state_roundtrip():
    psi = PureState(np.array([0.6, 0.0, 0.8j]))
    data = state_to_json(psi)
    assert data["kind"] == "pure"
    assert len(data["re"]) == 3
    back = state_from_json(data)
    assert np.allclose(back.vec, psi.vec)


def test_state_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        state_from_json({"dim": 2, "kind": "thermal", "re": [1, 0], "im": [0, 0]})
    with pytest.raises(ValueError):
        state_from_json({"dim": 3, "kind": "pure", "re": [1, 0], "im": [0, 0]})


def test_json_rejects_a_dim_that_is_not_a_positive_integer():
    # int() would read 2.9 as 2, true as 1 and "2" as 2
    for dim in (2.9, True, "2", 0):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            state_from_json({"dim": dim, "kind": "pure", "re": [1, 0], "im": [0, 0]})
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            state_from_json({"dim": dim, "kind": "mixed", "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]})
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            operator_from_json({"dim": dim, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]})


def test_roof_result_serialization_schema():
    rho = random_state(2, 73)
    op = random_hermitian(2, 74)
    res = convex_roof_variance(rho, op)
    data = roof_result_to_json(res)
    assert set(data) == {"value", "converged", "evaluations", "decomposition"}
    assert all(set(item) == {"p", "state"} for item in data["decomposition"])
    total = sum(item["p"] for item in data["decomposition"])
    assert abs(total - 1.0) < 1e-10
    json.dumps(data)  # fully serializable
