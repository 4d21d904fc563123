"""ionstrobe benchmark: run one workload through the CLI and print its metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each command of the workload runs in a
fresh process (bench/child.py) with a fresh output directory, one at a
time, as a CLI user runs it; the workload seed goes to every command as
`--seed`. A run first makes set-up rounds, whole rounds of the workload
in which each command stops where its physics would start (at least
SETUP_PROBE_COMMANDS commands in all), then makes whole rounds of the
workload until S seconds have passed (at least one). Every command of
both kinds counts in `attempted`, and in `failed` if it exits nonzero or,
in the measured rounds, its output fails a check (checks.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, each the median over the run's rounds:

    wall_s        spawn to exit of the round's commands, summed
    setup_s       spawn to command-handler entry, summed over the round's
                  commands (median over set-up and measured rounds)
    cpu_s         user + system CPU of the round's command processes
    peak_rss_mib  largest per-process peak RSS among the round's commands

With `--trace 1` the commands run under tracer.py and the metrics are the
per-layer ones, summed over a round's commands, plus `trace.wall_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

SETUP_PROBE_COMMANDS = 6
COMMAND_TIMEOUT_S = 150.0
WORK = ROOT / ".bench_work"


def check_checkout() -> None:
    """Exit with an error unless the checkout holds the package and the configs."""
    for need in (ROOT / "src" / "ionstrobe" / "cli.py", ROOT / "configs"):
        if not need.exists():
            sys.exit(f"bench: {need.relative_to(ROOT)} is missing; run from a full checkout")


def run_command(cmd: Command, out_dir: Path, seed: int, *, setup_only: bool = False,
                trace: bool = False) -> dict:
    """Spawn one CLI command, wait for it, and return what it measured.

    Keys: ok, wall_s, setup_s, cpu_s, rss_mib, layers (traced only), error.
    """
    meta = out_dir / f"{cmd.config}.meta.json"
    argv = [sys.executable, str(BENCH / "child.py"), "--meta", str(meta)]
    argv += ["--setup-only"] if setup_only else []
    argv += ["--trace"] if trace else []
    argv += ["--", cmd.command, "--config", str(ROOT / "configs" / f"{cmd.config}.yaml"),
             "--out", str(out_dir / f"{cmd.config}.txt"), "--seed", str(seed)]
    with open(out_dir / f"{cmd.config}.stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=out_dir, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "ok": False,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    info = json.loads(meta.read_text()) if meta.exists() else {}
    if proc.returncode != 0 or info.get("physics_start") is None:
        tail = (out_dir / f"{cmd.config}.stderr").read_text(errors="replace")[-400:]
        result["error"] = f"{cmd.command} {cmd.config}: exit {proc.returncode}: {tail.strip()}"
        return result
    result["ok"] = True
    result["setup_s"] = info["physics_start"] - t0
    if trace:
        result["layers"] = info["layers"]
    return result


def run_round(workload, out_dir: Path, seed: int, *, trace: bool = False,
              setup_only: bool = False) -> dict:
    """One pass over the workload's commands, each output checked.

    With `setup_only` each command stops at the end of set-up, so only
    `setup_s` means anything and there is no output to check.
    """
    out_dir.mkdir(parents=True)
    rnd = {"attempted": 0, "failed": 0, "wall_s": 0.0, "setup_s": 0.0, "cpu_s": 0.0,
           "peak_rss_mib": 0.0, "layers": {}, "errors": [], "wrong": []}
    for cmd in workload.commands:
        res = run_command(cmd, out_dir, seed, trace=trace, setup_only=setup_only)
        rnd["attempted"] += 1
        rnd["wall_s"] += res["wall_s"]
        rnd["cpu_s"] += res["cpu_s"]
        rnd["peak_rss_mib"] = max(rnd["peak_rss_mib"], res["rss_mib"])
        if not res["ok"]:
            rnd["failed"] += 1
            rnd["errors"].append(res["error"])
            continue
        rnd["setup_s"] += res["setup_s"]
        for key, value in res.get("layers", {}).items():
            rnd["layers"][key] = rnd["layers"].get(key, 0) + value
        if setup_only:
            continue
        wrong = cmd.check(out_dir / f"{cmd.config}.txt",
                          ROOT / "configs" / f"{cmd.config}.yaml")
        if wrong:
            rnd["failed"] += 1
            rnd["wrong"] += wrong
    return rnd


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[name]
    probes = []
    if not trace:
        for k in range(-(-SETUP_PROBE_COMMANDS // len(workload.commands))):
            probes.append(run_round(workload, work / f"setup-{k}", seed, setup_only=True))
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run_round(workload, work / f"round-{len(rounds)}", seed, trace=trace))
    clean = [r for r in rounds if not r["errors"]]
    errors = [e for r in probes + rounds for e in r["errors"]]
    wrong = [w for r in rounds for w in r["wrong"]]
    result = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in probes + rounds),
        "failed": sum(r["failed"] for r in probes + rounds),
        "metrics": {},
    }
    if not clean:
        result["correct"] = False
        errors.append("no round ran every command to its end")
    elif trace:
        layers = {key: statistics.median(r["layers"].get(key, 0) for r in clean)
                  for key in tracer.metric_names()}
        zero = [key for key in workload.expect_nonzero if not layers[key]]
        if zero:
            result["correct"] = False
            errors.append(f"counters expected nonzero read 0: {', '.join(zero)}")
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in clean)
        units = {key: _unit(key) for key in layers}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        setups = [r["setup_s"] for r in probes + clean if not r["errors"]]
        result["metrics"] = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in clean), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in clean), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in clean),
                             "unit": "MiB"},
        }
    for line in errors + wrong:
        print(f"bench: {line}", file=sys.stderr)
    return result


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if "bytes" in key:
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ionstrobe CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    work = WORK / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        # the CLI's seeds feed numpy generators, which need a non-negative int
        seed = args.seed % (1 << 31)
        result = run_workload(args.workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
