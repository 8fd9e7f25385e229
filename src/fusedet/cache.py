"""Deterministic binary cache for large float arrays.

Dense per-proposal feature matrices are far too big for the text model
container, so they are cached as an uncompressed npz-compatible zip written
by hand with pinned member timestamps: identical arrays always produce
identical bytes. np.load reads these files directly, and nothing in them is
pickled. A file is written under a temporary name in its own directory and
then renamed over the target, so an interrupted write never leaves a
truncated archive behind. Each member is streamed into the archive as it
is serialized, so a write never holds the whole archive in memory;
np.lib.format.write_array copies each member in chunks of up to 16 MiB.

`file_sha256` is the digest that parsed copies of text files are keyed by:
the features archive stores the digest of each CNN text imported into it,
and the imported rows are used only while the text's digest still matches.
"""

from __future__ import annotations

import hashlib
import io
import os
import secrets
import zipfile
from pathlib import Path
from typing import Dict

import numpy as np

_EPOCH = (1980, 1, 1, 0, 0, 0)  # oldest timestamp zip can carry
_READ_BLOCK = 1 << 20


def save_arrays(path, arrays: Dict[str, np.ndarray]) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with zipfile.ZipFile(tmp, "x", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
            for name in sorted(arrays):
                array = np.asarray(arrays[name])
                info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
                info.external_attr = 0o600 << 16
                # zipfile picks zip64 from the size preset here, as writestr
                # would from its bytes, so streaming writes the same archive
                info.file_size = _npy_size(array)
                with zf.open(info, "w") as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _npy_size(array: np.ndarray) -> int:
    """Length of the .npy file np.lib.format.write_array makes of array."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    return header.tell() + array.nbytes


def load_arrays(path) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    # the file is opened here, not by np.load, so it is closed even when the
    # archive turns out to be damaged
    with open(path, "rb") as fh, np.load(fh) as data:
        for name in data.files:
            out[name] = data[name]
    return out


def file_sha256(path) -> str:
    """Hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BLOCK):
            digest.update(block)
    return digest.hexdigest()
