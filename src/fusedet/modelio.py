"""Self-describing text container for learned model artifacts.

Layout, one item per line:

    fusedet-model 1 <kind>
    meta <key> <value>          (zero or more)
    array <name> <rows> <cols>  (then <rows> lines of <cols> decimals)
    end

Reals are written with 17 significant digits so a write/read round-trip is
bit-exact for float64.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

MAGIC = "fusedet-model"
VERSION = 1


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def parse_real(tok: str) -> float:
    """tok as a finite float; ValueError quoting tok otherwise."""
    try:
        v = float(tok)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"expected a finite real, got {tok!r}")
    return v


def is_count(tok: str) -> bool:
    """Whether tok is a non-negative integer in ASCII decimal digits, without sign or underscores."""
    return tok.isascii() and tok.isdigit()


def write_model(path, kind: str, meta: Dict[str, str], arrays: Dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{MAGIC} {VERSION} {kind}\n")
        for key, value in meta.items():
            if " " in key:
                raise ValueError(f"meta key {key!r} must not contain spaces")
            fh.write(f"meta {key} {value}\n")
        for name, arr in arrays.items():
            a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
            fh.write(f"array {name} {a.shape[0]} {a.shape[1]}\n")
            for row in a:
                fh.write(" ".join(fmt_float(v) for v in row) + "\n")
        fh.write("end\n")


def read_model(path, expected_kind: str) -> Tuple[Dict[str, str], Dict[str, np.ndarray]]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty model file")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != MAGIC:
        raise ValueError(f"{path}: bad magic line {lines[0]!r}")
    if not is_count(header[1]):
        raise ValueError(f"{path}: bad version {header[1]!r}")
    if int(header[1]) != VERSION:
        raise ValueError(f"{path}: unsupported version {header[1]}")
    if header[2] != expected_kind:
        raise ValueError(f"{path}: model kind is {header[2]!r}, expected {expected_kind!r}")

    meta: Dict[str, str] = {}
    arrays: Dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "end":
            return meta, arrays
        parts = line.split(" ")
        if parts[0] == "meta" and len(parts) >= 3:
            meta[parts[1]] = " ".join(parts[2:])
            i += 1
        elif parts[0] == "array" and len(parts) == 4:
            if not (is_count(parts[2]) and is_count(parts[3])):
                raise ValueError(f"{path}:{i + 1}: bad array header {line!r}")
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
            if i + rows >= len(lines):
                raise ValueError(f"{path}: truncated array {name!r}")
            data = np.empty((rows, cols), dtype=np.float64)
            for r in range(rows):
                # a zero-column row serializes as an empty line
                vals = lines[i + 1 + r].split(" ") if lines[i + 1 + r] else []
                if len(vals) != cols:
                    raise ValueError(
                        f"{path}: array {name!r} row {r} has {len(vals)} values, expected {cols}"
                    )
                try:
                    data[r] = [float(v) for v in vals]
                except ValueError as exc:
                    raise ValueError(f"{path}:{i + 2 + r}: {exc}") from None
            arrays[name] = data
            i += 1 + rows
        else:
            raise ValueError(f"{path}: unrecognized line {i + 1}: {line!r}")
    raise ValueError(f"{path}: missing end marker")
