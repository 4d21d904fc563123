"""Output comparison: this tree's workload tables against a git revision's.

Usage:
    python3 bench/compare.py [--rev HEAD~1]

Extracts REV with `git archive` into a scratch directory, regenerates the
tables of every workload with both trees' own CLI and configs (seed SEED,
one fresh process per command), and prints the maximum absolute difference
of every numeric column, and of every numeric summary line, of every table.
Exits 1 when any difference exceeds TOL, the same-output gate, or a table's
shape differs. Run it inside a git clone of the repository.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import read_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".bench_work"
SEED = 1
TOL = 1e-12


def extract(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def generate(tree: Path, out_dir: Path, commands) -> None:
    """Run each command with `tree`'s package and configs, writing into out_dir."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for cmd in commands:
        subprocess.run(
            [sys.executable, "-m", "ionstrobe.cli", cmd.command,
             "--config", str(tree / "configs" / f"{cmd.config}.yaml"),
             "--out", str(out_dir / f"{cmd.config}.txt"), "--seed", str(SEED)],
            cwd=out_dir, env=env, check=True, stdin=subprocess.DEVNULL,
        )


def _numeric(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None


def diff_tables(ours: Path, theirs: Path) -> list[tuple[str, float]]:
    """(column, max |difference|) for every numeric column and summary line."""
    a, a_sum = read_table(ours)
    b, b_sum = read_table(theirs)
    rows = []
    for col in sorted(set(a) | set(b)):
        if col not in a or col not in b or a[col].shape != b[col].shape:
            rows.append((col, math.inf))
        else:
            rows.append((col, float(abs(a[col] - b[col]).max(initial=0.0))))
    for key in sorted(set(a_sum) | set(b_sum)):
        x, y = _numeric(a_sum.get(key, "")), _numeric(b_sum.get(key, ""))
        if key in ("seed", "config_hash") or (x is None and y is None):
            continue
        rows.append((f"# {key}", math.inf if x is None or y is None else abs(x - y)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare workload tables with a revision")
    parser.add_argument("--rev", default="HEAD~1")
    args = parser.parse_args(argv)
    commands = [c for workload in WORKLOADS.values() for c in workload.commands]
    work = SCRATCH / f"compare-{os.getpid()}"
    try:
        extract(args.rev, work / "tree")
        generate(ROOT, work / "ours", commands)
        generate(work / "tree", work / "theirs", commands)
        worst = 0.0
        print(f"{'table':<28} {'column':<28} max |this tree - {args.rev}|")
        names = {p.name for d in ("ours", "theirs") for p in (work / d).glob("*.txt")}
        for name in sorted(names):
            ours, theirs = work / "ours" / name, work / "theirs" / name
            if not (ours.exists() and theirs.exists()):
                print(f"{name:<28} {'(written by one tree only)':<28} inf")
                worst = math.inf
                continue
            for col, diff in diff_tables(ours, theirs):
                print(f"{name:<28} {col:<28} {diff:.3g}")
                worst = max(worst, diff)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    print(f"largest difference {worst:.3g} (tolerance {TOL:g})")
    return 0 if worst <= TOL else 1


if __name__ == "__main__":
    sys.exit(main())
