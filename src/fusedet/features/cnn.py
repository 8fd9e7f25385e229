"""Ingestion of externally computed per-proposal feature vectors.

The interchange format is one record per line:

    image_id proposal_index v1 v2 ... vM

The vector width M is fixed by the first record; image_id must not contain
whitespace, and the values are finite reals written in ASCII without
underscores. Records are keyed by (image_id, proposal_index).

A text always comes from the user: `extract` stores its stand-in rows in
the split's features archive (`features_<tag>.npz`) and writes no text. A
text placed beside the archive is imported once: the archive keeps the
parsed rows with the sha256 of the text's bytes, and a stage parses the
text again only when its digest differs, so every error below is raised
from the text. A parse cuts the text into blocks by size;
`parallel.map_indices` decides how many workers share them.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import modelio
from ..parallel import map_indices, shared_empty

# the text a parse block holds: a worker takes about as long to start as
# half a megabyte takes to parse, so a text under two blocks is one block,
# parsed in the calling process
BLOCK_BYTES = 1 << 20


def _vector(line: str, width: int, path, lineno: int) -> Tuple[Tuple[str, int], np.ndarray]:
    """The key and vector of one stripped, non-blank record line; ValueError
    naming path and lineno when the line breaks a rule other than the
    uniqueness of its key. width is the width of the file's first record."""
    parts = line.split(None, 2)
    if len(parts) < 3:
        raise ValueError(f"{path}:{lineno}: expected 'image_id proposal_index v1 ...', got {len(parts)} fields")
    image_id, index, rest = parts
    if not modelio.is_count(index.removeprefix("-")):
        raise ValueError(f"{path}:{lineno}: bad proposal index {index!r}")
    proposal_index = int(index)
    if proposal_index < 0:
        raise ValueError(f"{path}:{lineno}: negative proposal index {proposal_index}")
    try:
        if not modelio.is_plain(rest):
            raise ValueError
        # numpy reads each str token with Python's float()
        vector = np.array(rest.split(), dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed feature value") from None
    if not np.all(np.isfinite(vector)):
        raise ValueError(f"{path}:{lineno}: non-finite feature value")
    if len(vector) != width:
        raise ValueError(f"{path}:{lineno}: vector has {len(vector)} values, expected {width}")
    return (image_id, proposal_index), vector


def load_cnn_features(path) -> Tuple[Dict[Tuple[str, int], int], np.ndarray]:
    """The records of a features file: a map from (image_id, proposal_index)
    to row, and the (records, M) float64 matrix of the vectors in file order.

    The non-blank lines are cut into contiguous blocks of about BLOCK_BYTES
    of text each, by the text's size alone, and `parallel.map_indices`
    spreads the blocks over its workers. Each block's task checks its lines,
    writes their vectors into the shared matrix, and returns the keys it
    read before its first bad line, with that line's error. Walking the
    blocks in order, this process checks that every key is new, so the
    error raised is that of the first bad line, whatever the worker count.
    """
    with open(path, "r") as fh:
        lines = fh.readlines()
        size = os.fstat(fh.fileno()).st_size
    records = [n for n, line in enumerate(lines) if not line.isspace()]
    if not records:
        raise ValueError(f"{path}: no feature records found")
    width = len(lines[records[0]].split()) - 2
    matrix = shared_empty((len(records), max(width, 0)), np.float64)
    blocks = max(1, min(len(records), size // BLOCK_BYTES))
    cuts = [len(records) * b // blocks for b in range(blocks + 1)]

    def parse_block(b: int) -> Tuple[List[Tuple[int, Tuple[str, int]]], Optional[ValueError]]:
        keys = []
        for row in range(cuts[b], cuts[b + 1]):
            lineno = records[row] + 1
            try:
                key, vector = _vector(lines[records[row]].strip(), width, path, lineno)
            except ValueError as exc:
                return keys, exc
            matrix[row] = vector
            keys.append((lineno, key))
        return keys, None

    index: Dict[Tuple[str, int], int] = {}
    for keys, error in map_indices(parse_block, blocks):
        for lineno, key in keys:
            if key in index:
                raise ValueError(f"{path}:{lineno}: duplicate key ({key[0]!r}, {key[1]})")
            index[key] = len(index)
        if error is not None:
            raise error
    return index, matrix


def write_cnn_features(
    path, records: Iterable[Tuple[str, int, np.ndarray]]
) -> None:
    """Writes records in the order given; floats use full round-trip precision."""
    with open(path, "w") as fh:
        for image_id, proposal_index, vector in records:
            if any(ch.isspace() for ch in image_id):
                raise ValueError(f"image id {image_id!r} contains whitespace")
            vals = " ".join(map(modelio.fmt_float, np.asarray(vector).ravel().tolist()))
            fh.write(f"{image_id} {proposal_index} {vals}\n")
