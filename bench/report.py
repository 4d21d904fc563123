"""Benchmark report: every metric of every workload, with a machine record.

Usage:
    python3 bench/report.py [--seeds 1,2,3,4,5,6,7,8,9,10]

For each workload, runs bench/run.py untraced once per seed and prints each
end-to-end metric's median, quartiles, spread (quartile distance over the
median) and sample count, then runs it once traced (first seed) and prints
every per-layer metric and the tracing overhead (traced wall time over the
untraced median, minus one). Operations attempted and failed are summed
over all runs. The run length is `run_seconds` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def machine_record() -> dict:
    import numpy as np
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads": None,
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    # the thread count OpenBLAS chose, asked from the library numpy loaded
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                record["blas_threads"] = fn()
                break
    return record


def bench_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise SystemExit(f"bench/run.py failed on {workload} seed {seed}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def report_workload(name: str, seeds: list[int], seconds: float) -> dict:
    runs = [bench_run(name, seed, seconds, trace=False) for seed in seeds]
    traced = bench_run(name, seeds[0], seconds, trace=True)
    everything = runs + [traced]
    metrics = {}
    for key, entry in runs[0]["metrics"].items():
        metrics[key] = dict(summarize([r["metrics"][key]["value"] for r in runs]),
                            unit=entry["unit"])
    wall = metrics["wall_s"]["median"]
    return {
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "correct": all(r["correct"] for r in everything),
        "end_to_end": metrics,
        "per_layer": traced["metrics"],
        "tracing_overhead": traced["metrics"]["trace.wall_s"]["value"] / wall - 1.0,
    }


def print_report(machine: dict, seeds: list[int], seconds: float, results: dict) -> None:
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    print(f"seeds {','.join(map(str, seeds))}; run length {seconds:g} s")
    for name, res in results.items():
        print(f"\n== {name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'n':>3}")
        for key, m in res["end_to_end"].items():
            print(f"  {key:<14} {m['unit']:<6} {m['median']:>12.5g} {m['q1']:>12.5g} "
                  f"{m['q3']:>12.5g} {m['spread']:>8.4f} {m['n']:>3}")
        print(f"  tracing overhead: {res['tracing_overhead']:+.1%} of wall_s")
        print("  per-layer (traced run):")
        for key, m in res["per_layer"].items():
            print(f"    {key:<52} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="print the benchmark report")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    machine = machine_record()
    results = {name: report_workload(name, seeds, seconds) for name in WORKLOADS}
    print_report(machine, seeds, seconds, results)
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
