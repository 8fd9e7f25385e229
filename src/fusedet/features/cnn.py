"""Ingestion of externally computed per-proposal feature vectors.

The interchange format is one record per line:

    image_id proposal_index v1 v2 ... vM

The vector width M is fixed by the first record; image_id must not contain
whitespace. Records are keyed by (image_id, proposal_index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

from .. import modelio


@dataclass
class CnnFeatureTable:
    dim: int
    _rows: Dict[Tuple[str, int], np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return key in self._rows

    def get(self, image_id: str, proposal_index: int) -> np.ndarray:
        key = (image_id, proposal_index)
        if key not in self._rows:
            raise KeyError(f"no feature vector for image {image_id!r} proposal {proposal_index}")
        return self._rows[key]

    def put(self, image_id: str, proposal_index: int, vector: np.ndarray) -> None:
        v = np.asarray(vector, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}, got shape {v.shape}")
        key = (image_id, proposal_index)
        if key in self._rows:
            raise ValueError(f"duplicate key ({image_id!r}, {proposal_index})")
        self._rows[key] = v

    def keys(self):
        return self._rows.keys()


def load_cnn_features(path) -> CnnFeatureTable:
    table = None
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
            try:
                proposal_index = int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad proposal index {parts[1]!r}") from None
            if proposal_index < 0:
                raise ValueError(f"{path}:{lineno}: negative proposal index {proposal_index}")
            try:
                vector = np.array([float(tok) for tok in parts[2:]], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed feature value") from None
            if not np.all(np.isfinite(vector)):
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            if table is None:
                table = CnnFeatureTable(dim=len(vector))
            elif len(vector) != table.dim:
                raise ValueError(
                    f"{path}:{lineno}: vector has {len(vector)} values, expected {table.dim}"
                )
            if (image_id, proposal_index) in table:
                raise ValueError(
                    f"{path}:{lineno}: duplicate key ({image_id!r}, {proposal_index})"
                )
            table.put(image_id, proposal_index, vector)
    if table is None:
        raise ValueError(f"{path}: no feature records found")
    return table


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
