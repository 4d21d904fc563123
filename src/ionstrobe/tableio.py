"""Bit-stable tabular text output and decode-table serialization.

Every table is plain whitespace-separated text: a comment header naming
the columns (units embedded in the names), numeric rows at 12 significant
digits, and a comment footer carrying the seed, the config hash, and the
full effective config as a YAML block. Identical config and seed produce
byte-identical files. Decode tables are ordinary tables titled
DECODE_TABLE_FORMAT, one row per amplitude, written at 17 significant
digits so every value reads back bit for bit, and with no seed line.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import yaml

from .calibrate import DecodeTables
from .errors import ConfigError

DECODE_TABLE_NAME = "ionstrobe-decode-tables"
DECODE_TABLE_FORMAT = f"{DECODE_TABLE_NAME} v2"
DECODE_TABLE_COLUMNS = ["x_m", "phi_plus_rad", "phi_minus_rad", "p_kgms", "contrast"]


def format_number(value, digits: int = 12) -> str:
    return f"{float(value):.{digits}g}"


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def config_echo_lines(config: dict) -> list[str]:
    dumped = yaml.safe_dump(config, sort_keys=True, default_flow_style=False)
    return ["# config:"] + [f"#   {line}" for line in dumped.rstrip("\n").split("\n")]


def write_table(
    path,
    title: str,
    columns: list[str],
    rows,
    config: dict,
    seed: int | None,
    summary_lines: list[str] | None = None,
    digits: int = 12,
) -> None:
    """Write a table; rows at `digits` significant digits, no seed line for seed=None."""
    lines = [f"# {title}", f"# columns: {' '.join(columns)}"]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} does not match {len(columns)} columns")
        lines.append(" ".join(format_number(v, digits) for v in row))
    for extra in summary_lines or []:
        lines.append(f"# {extra}")
    lines.append(f"# config_hash: {config_hash(config)}")
    if seed is not None:
        lines.append(f"# seed: {seed:d}")
    lines.extend(config_echo_lines(config))
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path) -> tuple[list[str], np.ndarray, dict]:
    """Parse a table written by write_table: (columns, rows, metadata)."""
    columns: list[str] = []
    rows: list[list[float]] = []
    meta: dict = {"summary": []}
    config_lines: list[str] = []
    in_config = False
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if in_config:
                config_lines.append(line[len("#   ") :] if line.startswith("#   ") else body)
                continue
            if "title" not in meta:
                meta["title"] = body
            elif body.startswith("columns:"):
                columns = body.split(":", 1)[1].split()
            elif body.startswith("config_hash:"):
                meta["config_hash"] = body.split(":", 1)[1].strip()
            elif body.startswith("seed:"):
                meta["seed"] = int(body.split(":", 1)[1])
            elif body == "config:":
                in_config = True
            else:
                meta["summary"].append(body)
        elif line.strip():
            rows.append([float(v) for v in line.split()])
            if len(rows[-1]) != len(columns):
                raise ValueError(f"row of {len(rows[-1])} values under {len(columns)} columns")
    if config_lines:
        meta["config"] = yaml.safe_load("\n".join(config_lines))
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(columns)))
    return columns, data, meta


def write_decode_tables(tables: DecodeTables, path, config: dict) -> None:
    """Write decode tables as a DECODE_TABLE_FORMAT table hashing `config`."""
    rows = zip(tables.x, tables.phi_plus, tables.phi_minus, tables.p, tables.contrast)
    write_table(path, DECODE_TABLE_FORMAT, DECODE_TABLE_COLUMNS, rows, config, None, digits=17)


def read_decode_tables(path) -> tuple[DecodeTables | None, str]:
    """Load decode tables; returns (tables, stored config hash).

    A decode-table file of another format version gives tables None, so a
    cache treats it as a miss; any other file raises ConfigError.
    """
    columns, rows, meta = read_table(path)
    title, stored_hash = meta.get("title", ""), meta.get("config_hash", "")
    if title.startswith(f"{DECODE_TABLE_NAME} v") and title != DECODE_TABLE_FORMAT:
        return None, stored_hash
    if title != DECODE_TABLE_FORMAT or columns != DECODE_TABLE_COLUMNS or len(rows) < 3:
        raise ConfigError(
            f"{path} is not an {DECODE_TABLE_FORMAT} file with columns "
            f"{' '.join(DECODE_TABLE_COLUMNS)} over at least 3 amplitudes"
        )
    return DecodeTables(*rows.T), stored_hash
