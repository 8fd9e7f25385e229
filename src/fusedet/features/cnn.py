"""Ingestion of externally computed per-proposal feature vectors.

The interchange format is one record per line:

    image_id proposal_index v1 v2 ... vM

The vector width M is fixed by the first record; image_id must not contain
whitespace. Records are keyed by (image_id, proposal_index).

The text is the interchange format and the only source of truth. The
pipeline parses each text once per content: the features archive of the
split (`features_<tag>.npz`) holds the parsed rows next to the HOG and
Fisher rows, together with the sha256 of the text's bytes, and a stage
parses the text again only when its digest differs, so every error below
is still raised from the text.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from .. import modelio


def load_cnn_features(path) -> Tuple[Dict[Tuple[str, int], int], np.ndarray]:
    """The records of a features file: a map from (image_id, proposal_index)
    to row, and the (records, M) float64 matrix of the vectors in file order."""
    index: Dict[Tuple[str, int], int] = {}
    rows: List[np.ndarray] = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'image_id proposal_index v1 ...', got {len(parts)} fields"
                )
            image_id = parts[0]
            if not modelio.is_count(parts[1].removeprefix("-")):
                raise ValueError(f"{path}:{lineno}: bad proposal index {parts[1]!r}")
            proposal_index = int(parts[1])
            if proposal_index < 0:
                raise ValueError(f"{path}:{lineno}: negative proposal index {proposal_index}")
            try:
                vector = np.array([float(tok) for tok in parts[2:]], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed feature value") from None
            if not np.all(np.isfinite(vector)):
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            if rows and len(vector) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: vector has {len(vector)} values, expected {len(rows[0])}"
                )
            key = (image_id, proposal_index)
            if key in index:
                raise ValueError(f"{path}:{lineno}: duplicate key ({image_id!r}, {proposal_index})")
            index[key] = len(rows)
            rows.append(vector)
    if not rows:
        raise ValueError(f"{path}: no feature records found")
    return index, np.stack(rows)


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
