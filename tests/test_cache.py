"""Binary array cache with reproducible bytes."""

import hashlib
import io
import zipfile

import numpy as np
import pytest

from fusedet.cache import _npy_size, file_sha256, load_arrays, save_arrays


def test_round_trip_preserves_values_shapes_and_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "f64": rng.normal(size=(5, 3)),
        "f32": rng.normal(size=(2, 8)).astype(np.float32),
        "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
        "empty": np.zeros((0, 7), dtype=np.float32),
        "vec": rng.normal(size=9),
    }
    path = tmp_path / "c.npz"
    save_arrays(path, arrays)
    loaded = load_arrays(path)
    assert set(loaded) == set(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_files_are_plain_npz(tmp_path):
    path = tmp_path / "c.npz"
    save_arrays(path, {"a": np.ones(3), "b": np.zeros((2, 2))})
    with np.load(path) as data:
        assert sorted(data.files) == ["a", "b"]
        assert np.array_equal(data["a"], np.ones(3))


def test_identical_content_gives_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=6).astype(np.float32)
    save_arrays(tmp_path / "x.npz", {"a": a, "b": b})
    save_arrays(tmp_path / "y.npz", {"b": b, "a": a})  # insertion order differs
    assert (tmp_path / "x.npz").read_bytes() == (tmp_path / "y.npz").read_bytes()

    reloaded = load_arrays(tmp_path / "x.npz")
    save_arrays(tmp_path / "z.npz", reloaded)
    assert (tmp_path / "z.npz").read_bytes() == (tmp_path / "x.npz").read_bytes()


def _writestr_archive(path, arrays):
    """The archive as written by serializing each member to memory and
    handing the bytes to ZipFile.writestr."""
    with zipfile.ZipFile(path, "x", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o600 << 16
            zf.writestr(info, buf.getvalue())


def test_streamed_members_give_the_bytes_of_writestr(tmp_path):
    rng = np.random.default_rng(2)
    wide = rng.normal(size=(6, 9))
    arrays = {
        "f64": rng.normal(size=(7, 5)),
        "f32": rng.normal(size=(3, 4)).astype(np.float32),
        "i32": np.arange(-5, 7, dtype=np.int32).reshape(4, 3),
        "empty": np.zeros((0, 2048)),
        "digest": np.array(hashlib.sha256(b"text").hexdigest()),
        "fortran": np.asfortranarray(wide),
        "strided": wide[::2, 1::3],
    }
    assert arrays["digest"].dtype == np.dtype("<U64") and arrays["digest"].ndim == 0
    for name, array in arrays.items():
        # zipfile chooses zip64 from the preset size, so it must be exact
        buf = io.BytesIO()
        np.lib.format.write_array(buf, array, allow_pickle=False)
        assert _npy_size(array) == len(buf.getvalue()), name
    save_arrays(tmp_path / "streamed.npz", arrays)
    _writestr_archive(tmp_path / "writestr.npz", arrays)
    assert (tmp_path / "streamed.npz").read_bytes() == (tmp_path / "writestr.npz").read_bytes()


def test_a_failed_save_leaves_the_old_file_and_no_temporaries(tmp_path):
    path = tmp_path / "c.npz"
    save_arrays(path, {"a": np.arange(4.0)})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_arrays(path, {"a": np.ones(3), "b": np.array([{"pickled": 1}], dtype=object)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]


def test_a_damaged_archive_raises_and_closes_its_file(tmp_path):
    path = tmp_path / "c.npz"
    save_arrays(path, {"a": np.arange(1000.0)})
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(zipfile.BadZipFile):
        load_arrays(path)  # an unclosed file would fail the suite as an unraisable warning


def test_file_sha256_agrees_with_hashlib_across_read_blocks(tmp_path):
    path = tmp_path / "blob"
    for size in (0, 1, (1 << 20) - 1, (1 << 20) + 7):
        blob = np.random.default_rng(size).bytes(size)
        path.write_bytes(blob)
        assert file_sha256(path) == hashlib.sha256(blob).hexdigest()
