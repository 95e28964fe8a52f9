"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qutrit_concave_rs --seed 1 --seconds 55 --trace 0

One process, one closed loop: a single caller runs the workload's fixed
item list, made from ``--seed``, pass after pass, calling the library
directly.  Another pass starts only if, taking as long as the last one, it
ends within ``--seconds``; at least two passes run (with ``--trace 1``,
passes alternate untraced and traced).  Every item is timed against the
workload's reference computation (``workloads.py``), run right before and
right after it: the item's normalised time is its time over the mean of the
two.  A shared host's speed can vary by 1.7x for seconds to minutes (seen on
a 2-vCPU Xeon VM) and the reference varies with it, so the ratio measures
the library's cost rather than the host's state.  Each item's normalised
time is its median over the untraced passes; ``wall_norm`` sums these over
the item list and ``item_p50_norm`` is their median.
Set-up time is the median over fresh probe processes (``probe.py``).
After the timed loop the first item runs again and must reproduce its
outputs bit for bit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it record the environment and a readable
summary.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20211        # differs from every seed the test suite uses
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Limit BLAS to at most one thread per usable CPU; call before importing numpy."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= ncpu:
            os.environ[var] = str(ncpu)


def import_library():
    """Import ``qfiroof`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qfiroof
    if Path(qfiroof.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qfiroof imported from {qfiroof.__file__}, not from {SRC}")
    return qfiroof


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfiroof").glob("*.py")):
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def probe_setup_s(workload: str, seed: int, size_name: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    library and built the workload's operators and inputs."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed), size_name],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            size_name: str = "full", out_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result line, extra details for the summary)."""
    import_library()
    import workloads as wl
    from tracing import FIELDS, Tracer, layer_metrics

    size = wl.SIZES[size_name]
    workload = wl.WORKLOADS[workload_name]
    if not trace:
        setup_s = statistics.median(probe_setup_s(workload_name, seed, size_name)
                                    for _ in range(size.setup_probes))
    ctx, items = workload.setup(seed, size)

    tracer = Tracer() if trace else None
    # per traced flag and item: time over the reference's time, one per pass
    norm: dict[bool, list[list[float]]] = {flag: [[] for _ in items] for flag in (False, True)}
    raw_times: list[list[float]] = [[] for _ in items]   # untraced passes only
    ref_times: list[float] = []
    per_pass_layers: list[dict[str, float]] = []
    failures: list[str] = []
    attempted = 0
    first_pass: list[dict | None] = []

    def run_item(item):
        try:
            return workload.run(ctx, item), None
        except Exception as exc:  # a failing item is counted, the run goes on
            return None, f"{type(exc).__name__}: {exc}"

    def check(item, out, err) -> list[str]:
        if err is not None:
            return [err]
        try:
            return wl.checked(workload, ctx, item, out)
        except Exception as exc:
            return [f"check raised {type(exc).__name__}: {exc}"]

    def time_reference() -> float:
        t0 = time.perf_counter()
        workload.reference()
        ref_times.append(time.perf_counter() - t0)
        return ref_times[-1]

    workload.reference()                                  # warm-up, untimed
    started = time.perf_counter()
    for passes in itertools.count(1):
        pass_started = time.perf_counter()
        traced = tracer is not None and len(norm[False][0]) > len(norm[True][0])
        first_span = len(tracer.spans) if tracer else 0
        results = []
        ref_before = time_reference()
        with tracer if traced else contextlib.nullcontext():
            for idx, item in enumerate(items):
                if tracer:
                    tracer.item = (passes, idx)
                t0 = time.perf_counter()
                results.append(run_item(item))
                dt = time.perf_counter() - t0
                ref_after = time_reference()
                norm[traced][idx].append(dt / (0.5 * (ref_before + ref_after)))
                ref_before = ref_after
                if not traced:
                    raw_times[idx].append(dt)
        if traced:
            per_pass_layers.append(layer_metrics(tracer.spans[first_span:], first_span))
        for item, (out, err) in zip(items, results):
            attempted += 1
            bad = check(item, out, err)
            if bad:
                failures.append("; ".join(bad))
        if not first_pass:
            first_pass = [out for out, _ in results]
        now = time.perf_counter()
        if passes >= 2 and now + (now - pass_started) - started > seconds:
            break

    # determinism: the first item again, outside the timed loop
    attempted += 1
    again, err = run_item(items[0])
    if err is not None or first_pass[0] is None \
            or wl.fingerprint(again) != wl.fingerprint(first_pass[0]):
        failures.append(f"first item not reproduced bit for bit ({err or 'outputs differ'})")

    quality = workload.quality(first_pass) if None not in first_pass else {}
    item_norm = {flag: [statistics.median(ts) for ts in times]
                 for flag, times in norm.items() if times[0]}
    if trace:
        values = {key: statistics.median(m[key] for m in per_pass_layers)
                  for key in per_pass_layers[0]}
        values["trace.overhead_frac"] = sum(item_norm[True]) / sum(item_norm[False]) - 1.0
        values["roofs.concave_gain_over_k_mean"] = 0.0
        values.update(quality)
        group = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "wall_norm": sum(item_norm[False]),
            "item_p50_norm": statistics.median(item_norm[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        group = "end_to_end"
    env = environment(workload_name, seed)
    if trace and out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"spans-{workload_name}-{seed}.json").write_text(json.dumps(
            {"environment": env,
             "fields": FIELDS,
             "spans": tracer.spans}))
    units = {m["name"]: m["unit"] for m in benchmark_spec()[group]}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    details = {"environment": env,
               "passes": passes, "items": len(items),
               "wall_s": sum(statistics.median(ts) for ts in raw_times),
               "reference_s": statistics.median(ref_times),
               "failed_frac": len(failures) / attempted, "quality": quality,
               "failures": failures[:10]}
    return result, details


def main(argv=None) -> int:
    cap_blas_threads()
    import_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              out_dir=HERE / "out")
    print("# environment " + json.dumps(details.pop("environment")))
    print("# " + json.dumps(details))
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
