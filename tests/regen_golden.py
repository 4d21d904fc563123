"""Rewrite the golden demo outputs in tests/golden/.

Usage:
    PYTHONPATH=src python tests/regen_golden.py [OUT_DIR]

Runs every demo of DEMOS at seed SEED, in this one process, at one OpenBLAS
thread, and writes its tables (with the sibling tables some commands add)
into OUT_DIR. test_golden.py runs this script into a temporary directory
and compares the result with the committed files. With no argument it
rewrites tests/golden/: it runs the demos into a temporary directory, prints
one line per column that moved from the committed files (table, column,
worst row, digit units, max |difference|), moves of one unit or less and
those within test_golden.py's ALLOWANCE included, and then copies the new
tables over them. A change that moves a demo output lists every printed
line in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: the goldens' sum order

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SEED = 1
# (command, config stem): every config in configs/, the output named after it
DEMOS = (
    ("ramsey-scan", "fig2b"),
    ("pattern-scan", "fig2c"),
    ("ramsey-scan", "fig3b"),
    ("ramsey-scan", "fig3c"),
    ("trace-phase-space", "fig4"),
    ("ramsey-scan", "figS2"),
    ("ramsey-scan", "figS3-compare"),
    ("squeeze-scan", "figS4"),
    ("stability", "table-stability-ac"),
    ("stability", "table-stability-mw"),
)


def run_demos(out_dir: Path) -> None:
    from ionstrobe.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    for command, stem in DEMOS:
        args = [command, "--config", str(ROOT / "configs" / f"{stem}.yaml"),
                "--out", str(out_dir / f"{stem}.txt"), "--seed", str(SEED)]
        if main(args) != 0:
            raise SystemExit(f"{command} on {stem}.yaml failed")


def regenerate(golden: Path = GOLDEN) -> None:
    """Rewrite `golden` from a fresh run of the demos, printing every column
    that moved, by test_golden.py's comparator, before it is overwritten."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_golden import report

    with tempfile.TemporaryDirectory() as tmp:
        new_dir = Path(tmp)
        run_demos(new_dir)
        moved = report(golden, new_dir, every_move=True)
        print("\n".join(moved) if moved else "no demo output moved")
        for table in sorted(new_dir.glob("*.txt")):
            shutil.copyfile(table, golden / table.name)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run_demos(Path(sys.argv[1]))
    else:
        regenerate()
