"""The ten demo outputs against the committed golden files in tests/golden/.

regen_golden.py runs every demo at seed 1 in one subprocess at one OpenBLAS
thread. Every numeric value is compared in units of its last printed
digit, counted exactly from the printed decimals: a table row prints 12
significant digits, and a footer value as many as the longer of its two
printings. A move of up to MAX_DIGITS such units, one rounding flip,
passes; ALLOWANCE widens that for ill-conditioned columns. Every other
token is compared exactly. Rows pair by position and comment lines by
difflib, so a footer line on one side only is reported as such. A failure
names the table, the column, the worst row and its size in digit units,
for every column that moved.
"""

import difflib
import importlib
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
ROW_DIGITS = 12  # write_table's significant digits
MAX_DIGITS = 1.0
# (table, column): an absolute move that passes whatever its digit units. fig4's
# P_zNus decodes the contrast through the momentum map, steepest near P = 0,
# where a last-bit move of rabi_scale moves it by about 1e-9 zN s
ALLOWANCE = {("fig4.txt", "P_zNus"): 1e-8}
NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def significant_digits(token: str) -> int:
    mantissa = re.split("[eE]", token)[0].lstrip("+-").replace(".", "")
    return max(len(mantissa.lstrip("0")), 1)


def digit_unit(value: Decimal, digits: int) -> Decimal:
    """The place of the last of `digits` significant digits of `value`."""
    if value == 0:
        return Decimal("Infinity")
    return Decimal(1).scaleb(value.adjusted() - digits + 1)


def compare_tokens(old: str, new: str, digits: int | None) -> tuple[float, float]:
    """(digit units, |difference|) of the move from `old` to `new`, with
    `digits` significant digits (None: the longer printing's); a changed
    text token is (inf, inf). Both are counted exactly from the printed
    decimals, so a one-unit flip reads 1."""
    if not (NUMBER.match(old) and NUMBER.match(new)):
        return (0.0, 0.0) if old == new else (math.inf, math.inf)
    a, b = Decimal(old), Decimal(new)
    if a == b:
        return 0.0, 0.0
    digits = digits or max(significant_digits(old), significant_digits(new))
    size = abs(a - b)
    return float(size / min(digit_unit(a, digits), digit_unit(b, digits))), float(size)


def split_table(text: str) -> tuple[list[str], list[str]]:
    """(rows, notes): a table's data rows, and its comment lines above and below them."""
    lines = text.splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    return rows, [line for line in lines if line.startswith("#")]


def line_pairs(old_text: str, new_text: str):
    """(where, old line, new line) of every line pair that differs: rows by
    position, comment lines aligned by difflib, a line on one side only
    paired with ''."""
    (old_rows, old_notes), (new_rows, new_notes) = split_table(old_text), split_table(new_text)
    pairs = [(f"row {i}", a, b) for i, (a, b) in enumerate(zip(old_rows, new_rows)) if a != b]
    if len(old_rows) != len(new_rows):
        pairs.append((f"rows {len(old_rows)} -> {len(new_rows)}", "", "(row count)"))
    matcher = difflib.SequenceMatcher(None, old_notes, new_notes, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "replace" and i2 - i1 == j2 - j1:
            pairs += [("footer", a, b) for a, b in zip(old_notes[i1:i2], new_notes[j1:j2])]
        elif tag != "equal":
            pairs += [("footer", a, "") for a in old_notes[i1:i2]]
            pairs += [("footer", "", b) for b in new_notes[j1:j2]]
    return pairs


def table_moves(name: str, old_text: str, new_text: str, allowance: dict = ALLOWANCE) -> dict:
    """{column: (worst digit units, its place, largest |difference|, values
    moved)} of one table, leaving out moves within `allowance`. A footer value
    is keyed by its footer key, and a changed text token by the changed line."""
    columns = next((line.split(":", 1)[1].split() for line in old_text.splitlines()
                    if line.startswith("# columns:")), [])
    moves = {}
    for where, old, new in line_pairs(old_text, new_text):
        in_row = where.startswith("row ")
        old_tokens, new_tokens = old.split(), new.split()
        if len(old_tokens) != len(new_tokens):
            old_tokens, new_tokens = [old], [new]
        for i, (a, b) in enumerate(zip(old_tokens, new_tokens)):
            units, size = compare_tokens(a, b, ROW_DIGITS if in_row else None)
            if in_row and len(old_tokens) == len(columns):
                column = columns[i]
            elif units < math.inf:
                column = (old or new).split(":")[0].lstrip("# ")
            else:
                column = f"'{old}' -> '{new}'"
            if units == 0.0 or size <= allowance.get((name, column), 0.0):
                continue
            worst = moves.get(column, (0.0, None, 0.0, 0))
            place = (units, where) if units > worst[0] else worst[:2]
            moves[column] = (*place, max(size, worst[2]), worst[3] + 1)
    return moves


def report(old_dir: Path, new_dir: Path, every_move: bool = False) -> list[str]:
    """One line per moved column: table, column, worst place, its digit units,
    and the largest |difference|; a changed text line as it changed. Moves of
    up to MAX_DIGITS, or within ALLOWANCE, are left out unless every_move."""
    floor, allowance = (0.0, {}) if every_move else (MAX_DIGITS, ALLOWANCE)
    lines = []
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.txt")})
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            lines.append(f"{name}: written by one tree only")
            continue
        for column, (units, at, size, count) in table_moves(
                name, old.read_text(), new.read_text(), allowance).items():
            if units == math.inf:
                lines.append(f"{name} {at}: {column}")
            elif units > floor:
                lines.append(f"{name} {column} {at}: {units:.3g} digit units "
                             f"(max |difference| {size:.3g}; {count} values moved)")
    return lines


def test_demo_outputs_match_golden(tmp_path):
    # regen_golden.py sets one OpenBLAS thread itself
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, str(TESTS / "regen_golden.py"), str(tmp_path)],
                   env=env, check=True, cwd=tmp_path, stdin=subprocess.DEVNULL)
    moved = report(GOLDEN, tmp_path)
    assert not moved, "demo outputs moved from tests/golden:\n" + "\n".join(moved)


def test_a_last_digit_move_is_reported():
    old = "# t\n# columns: a b\n0.816050394176 3.46910981355\n# fit: 138.124\n"
    assert table_moves("x.txt", old, old) == {}
    new = old.replace("0.816050394176", "0.816050394185").replace("138.124", "138.125")
    moves = table_moves("x.txt", old, new)
    assert set(moves) == {"a", "fit"}
    assert moves["a"][:2] == (pytest.approx(9.0, rel=1e-3), "row 0")
    assert moves["fit"][:2] == (pytest.approx(1.0, rel=1e-3), "footer")  # 138.124: 6 digits
    assert table_moves("x.txt", old, old.replace("t\n", "u\n")) == {
        "'# t' -> '# u'": (math.inf, "footer", math.inf, 1)}
    # a footer line on one side only, and a row more
    assert list(table_moves("x.txt", old, old.replace("# fit: 138.124\n", ""))) == [
        "'# fit: 138.124' -> ''"]
    assert list(table_moves("x.txt", old, old + "1 2\n")) == ["'' -> '(row count)'"]
    # within the allowance of fig4's P_zNus, not of any other column
    p_old, p_new = "# columns: P_zNus\n3.46910981355\n", "# columns: P_zNus\n3.46910981855\n"
    assert table_moves("fig4.txt", p_old, p_new) == {}
    assert table_moves("fig3b.txt", p_old, p_new)["P_zNus"][0] == pytest.approx(500.0, rel=1e-3)


def test_a_one_unit_flip_reads_exactly_one_unit(tmp_path):
    # fig3b's p_down at row 2: as floats the flip read 1.0000889 units, and so
    # failed the gate; counted from the printed decimals it is one unit
    old = "# columns: p_down\n0.852010761066\n"
    assert table_moves("fig3b.txt", old, old.replace("066", "065"))["p_down"][0] == 1.0
    assert table_moves("fig3b.txt", old, old.replace("066", "068"))["p_down"][0] == 2.0
    for side, text in (("old", old), ("new", old.replace("066", "065"))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "fig3b.txt").write_text(text)
    assert report(tmp_path / "old", tmp_path / "new") == []


def test_regeneration_prints_every_move_before_overwriting(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    golden.mkdir()
    old = "# columns: a b\n0.816050394176 3.46910981355\n# fit: 138.124\n"
    (golden / "x.txt").write_text(old)
    (golden / "y.txt").write_text(old)
    p_old, p_new = "# columns: P_zNus\n3.46910981355\n", "# columns: P_zNus\n3.46910981855\n"
    (golden / "fig4.txt").write_text(p_old)
    new = old.replace("0.816050394176", "0.816050394177").replace("138.124", "138.224")
    with monkeypatch.context() as m:
        m.setenv("OPENBLAS_NUM_THREADS", "1")  # regen_golden sets it on import
        regen_golden = importlib.import_module("regen_golden")

    def run_demos(out_dir):
        (out_dir / "x.txt").write_text(new)
        (out_dir / "y.txt").write_text(old)
        (out_dir / "fig4.txt").write_text(p_new)  # within the golden test's allowance

    monkeypatch.setattr(regen_golden, "run_demos", run_demos)
    regen_golden.regenerate(golden)
    assert capsys.readouterr().out.splitlines() == [
        "fig4.txt P_zNus row 0: 500 digit units (max |difference| 5e-09; 1 values moved)",
        "x.txt a row 0: 1 digit units (max |difference| 1e-12; 1 values moved)",
        "x.txt fit footer: 100 digit units (max |difference| 0.1; 1 values moved)",
    ]
    assert (golden / "x.txt").read_text() == new and (golden / "y.txt").read_text() == old
    regen_golden.regenerate(golden)
    assert capsys.readouterr().out == "no demo output moved\n"
