"""Smoke test of the benchmark itself, kept out of the repository's test suite.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
every metric BENCHMARK.json declares is reported with its unit; that an
injected wrong library result counts as a failure; and that the benchmark
refuses to run without the library's source.
"""

import shutil
import subprocess
import sys

import pytest

import run

run.import_library()
from workloads import WORKLOADS  # noqa: E402  (needs the library on the path)

SEED = 3
SPEC = run.benchmark_spec()


def test_registry_matches_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_declared_metric(workload, trace, tmp_path):
    result, details = run.measure(workload, SEED, 0.0, trace, size_name="tiny",
                                  out_dir=tmp_path)
    group = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and details["failed_frac"] == 0.0
    assert result["attempted"] >= 1
    if trace:
        assert list(tmp_path.glob("spans-*.json"))
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_injected_wrong_result_raises_failed_frac(monkeypatch):
    import qfiroof

    # a K below L breaks the K >= L check on every item
    monkeypatch.setattr(qfiroof, "eigen_partition_bound_K", lambda rho, a, b: -1.0)
    result, details = run.measure("qutrit_concave_rs", SEED, 0.0, False, size_name="tiny")
    assert not result["correct"]
    assert details["failed_frac"] > 0.0
    assert "K < L" in details["failures"][0]


def test_exits_nonzero_without_library_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qutrit_concave_rs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
