"""Bit-stable tabular text output and decode-table serialization.

Every table is plain whitespace-separated text: a comment header naming
the columns (units embedded in the names), numeric rows at 12 significant
digits, and a comment footer carrying the seed, the config hash, and the
full effective config as a YAML block. Identical config and seed produce
byte-identical files. Decode tables export as ordinary tables titled
DECODE_TABLE_FORMAT, one row of DECODE_TABLE_COLUMNS per amplitude, at 17
significant digits so every value reads back bit for bit; no seed line.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import yaml

from .calibrate import DecodeTables
from .errors import ConfigError

DECODE_TABLE_FORMAT = "ionstrobe-decode-tables v3"
DECODE_TABLE_COLUMNS = ["x_m", "phi_plus_rad", "p_kgms", "contrast"]

# libyaml's emitter where PyYAML was built with it; both write the same text
_ECHO_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def format_number(value, digits: int = 12) -> str:
    """One table value as write_table prints it."""
    return f"{float(value):.{digits}g}"


def config_hash(config: dict) -> str:
    """First 16 hex digits of the SHA-256 of the config's canonical JSON."""
    # the interpreter's own SHA-256: hashlib loads OpenSSL's libcrypto, 3.5 MiB
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:16]


def config_echo_lines(config: dict) -> list[str]:
    dumped = yaml.dump(config, Dumper=_ECHO_DUMPER, sort_keys=True, default_flow_style=False)
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
    row_format = " ".join([f"%.{digits}g"] * len(columns))  # format_number of each value
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} does not match {len(columns)} columns")
        lines.append(row_format % tuple(map(float, row)))
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


def write_decode_tables(tables: DecodeTables, path, config: dict,
                        summary_lines: list[str] | None = None) -> None:
    """Write decode tables as a DECODE_TABLE_FORMAT table echoing `config`."""
    rows = zip(tables.x, tables.phi_plus, tables.p, tables.contrast)
    write_table(path, DECODE_TABLE_FORMAT, DECODE_TABLE_COLUMNS, rows, config, None,
                summary_lines=summary_lines, digits=17)


def read_decode_tables(path) -> DecodeTables:
    """Load decode tables written by write_decode_tables; any other file raises ConfigError."""
    columns, rows, meta = read_table(path)
    if meta.get("title") != DECODE_TABLE_FORMAT or columns != DECODE_TABLE_COLUMNS or len(rows) < 3:
        raise ConfigError(
            f"{path} is not an {DECODE_TABLE_FORMAT} file with columns "
            f"{' '.join(DECODE_TABLE_COLUMNS)} over at least 3 amplitudes"
        )
    return DecodeTables(*rows.T)
