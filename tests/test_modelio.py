"""Text model container format and float formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fusedet.modelio import fmt_float, read_model, write_model


def test_fmt_float_round_trips_bits():
    rng = np.random.default_rng(0)
    samples = list(rng.normal(size=50))
    samples += list(rng.normal(size=20) * 1e-300)
    samples += list(rng.normal(size=20) * 1e300)
    samples += [0.0, 1.0, -1.0, np.pi, 2.0 / 3.0, 5e-324, 1.7976931348623157e308]
    for x in samples:
        assert float(fmt_float(float(x))) == float(x)


def test_fmt_float_handles_infinities():
    assert float(fmt_float(float("inf"))) == float("inf")
    assert float(fmt_float(float("-inf"))) == float("-inf")


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "weights": rng.normal(size=(3, 5)),
        "vector": rng.normal(size=7),  # written as one row
        "empty": np.zeros((0, 4)),
    }
    meta = {"dim": "5", "note": "two words here"}
    path = tmp_path / "m.txt"
    write_model(path, "svm-bank", meta, arrays)
    got_meta, got_arrays = read_model(path, "svm-bank")
    assert got_meta == meta
    assert set(got_arrays) == {"weights", "vector", "empty"}
    assert np.array_equal(got_arrays["weights"], arrays["weights"])
    assert np.array_equal(got_arrays["vector"], arrays["vector"][None, :])
    assert got_arrays["empty"].shape == (0, 4)


def test_header_is_human_readable(tmp_path):
    path = tmp_path / "m.txt"
    write_model(path, "gmm", {}, {})
    lines = path.read_text().splitlines()
    assert lines[0] == "fusedet-model 1 gmm"
    assert lines[-1] == "end"


def test_read_checks_magic_version_and_kind(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("")
    with pytest.raises(ValueError, match="empty model file"):
        read_model(p, "gmm")
    p.write_text("not-a-model 1 gmm\nend\n")
    with pytest.raises(ValueError, match="bad magic"):
        read_model(p, "gmm")
    p.write_text("fusedet-model 2 gmm\nend\n")
    with pytest.raises(ValueError, match="unsupported version 2"):
        read_model(p, "gmm")
    p.write_text("fusedet-model 1 gmm\nend\n")
    with pytest.raises(ValueError, match="kind is 'gmm', expected 'pca'"):
        read_model(p, "pca")


@pytest.mark.parametrize("version", ["x", "-1", "1.0", "", "+1"])
def test_read_names_the_file_for_a_bad_version(tmp_path, version):
    p = tmp_path / "m.txt"
    p.write_text(f"fusedet-model {version} gmm\nend\n")
    with pytest.raises(ValueError) as err:
        read_model(p, "gmm")
    assert str(err.value) == f"{p}: bad version {version!r}"


@pytest.mark.parametrize("counts", ["-1 3", "2 -3", "x 3", "2 3.0", "2 "])
def test_read_names_the_file_and_line_for_a_bad_array_header(tmp_path, counts):
    p = tmp_path / "m.txt"
    p.write_text(f"fusedet-model 1 gmm\nmeta k 2\narray w {counts}\n1 2 3\nend\n")
    with pytest.raises(ValueError) as err:
        read_model(p, "gmm")
    assert str(err.value) == f"{p}:3: bad array header 'array w {counts}'"


def test_read_rejects_malformed_bodies(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("fusedet-model 1 gmm\narray w 2 3\n1 2 3\n")
    with pytest.raises(ValueError, match="truncated array 'w'"):
        read_model(p, "gmm")
    p.write_text("fusedet-model 1 gmm\narray w 1 3\n1 2\nend\n")
    with pytest.raises(ValueError, match="row 0 has 2 values, expected 3"):
        read_model(p, "gmm")
    p.write_text("fusedet-model 1 gmm\narray w 2 2\n1 2\n3 x\nend\n")
    with pytest.raises(ValueError) as err:
        read_model(p, "gmm")
    assert str(err.value) == f"{p}:4: could not convert string to float: 'x'"
    p.write_text("fusedet-model 1 gmm\narray w 2 2\n1 -inf\n1_0 nan\nend\n")
    with pytest.raises(ValueError) as err:
        read_model(p, "gmm")  # float() reads 1_0 as 10
    assert str(err.value) == f"{p}:4: expected a real in ASCII without underscores, got '1_0'"
    p.write_text("fusedet-model 1 gmm\nbogus line\nend\n")
    with pytest.raises(ValueError, match="unrecognized line 2"):
        read_model(p, "gmm")
    p.write_text("fusedet-model 1 gmm\nmeta a 1\n")
    with pytest.raises(ValueError, match="missing end marker"):
        read_model(p, "gmm")


@pytest.mark.parametrize(
    "body, line, what",
    [
        ("meta k 1\nmeta k 2\n", 3, "meta key 'k'"),
        ("meta k 1\nmeta j 1\nmeta k 1\n", 4, "meta key 'k'"),
        ("array w 1 2\n1 2\narray w 1 2\n3 4\n", 4, "array 'w'"),
        ("array w 0 2\nmeta w 1\narray w 1 1\n5\n", 4, "array 'w'"),
    ],
)
def test_read_refuses_a_repeated_meta_key_or_array_name(tmp_path, body, line, what):
    # the reader kept the last of the two, silently
    p = tmp_path / "m.txt"
    p.write_text(f"fusedet-model 1 gmm\n{body}end\n")
    with pytest.raises(ValueError) as err:
        read_model(p, "gmm")
    assert str(err.value) == f"{p}:{line}: repeated {what}"


def test_write_rejects_meta_keys_with_spaces(tmp_path):
    with pytest.raises(ValueError, match="must not contain spaces"):
        write_model(tmp_path / "m.txt", "gmm", {"bad key": "1"}, {})


def test_extreme_values_survive_the_container(tmp_path):
    arr = np.array([[1e-300, -1e300, 5e-324, np.pi, -0.0, 2.0 / 3.0]])
    path = tmp_path / "m.txt"
    write_model(path, "gmm", {}, {"x": arr})
    _, arrays = read_model(path, "gmm")
    assert np.array_equal(arrays["x"], arr)


_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.just(-np.inf)
_ARRAYS = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6), elements=_VALUES)


@settings(max_examples=150, deadline=None)
@given(named=st.dictionaries(st.from_regex(r"[a-z_]{1,8}", fullmatch=True), _ARRAYS, max_size=4))
def test_any_finite_or_minus_infinite_array_round_trips_bit_for_bit(tmp_path_factory, named):
    path = tmp_path_factory.mktemp("model") / "m.txt"
    write_model(path, "gmm", {"dim": "3"}, named)
    meta, got = read_model(path, "gmm")
    assert meta == {"dim": "3"}
    assert list(got) == list(named)
    for name, arr in named.items():
        assert got[name].dtype == np.float64
        assert got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()


def _old_write_model(path, kind, meta, arrays):
    # the writer before rows were formatted as Python floats: one numpy
    # scalar per value
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"fusedet-model 1 {kind}\n")
        for key, value in meta.items():
            fh.write(f"meta {key} {value}\n")
        for name, arr in arrays.items():
            a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
            fh.write(f"array {name} {a.shape[0]} {a.shape[1]}\n")
            for row in a:
                fh.write(" ".join(fmt_float(v) for v in row) + "\n")
        fh.write("end\n")


def _same_text(tmp_path, arrays):
    write_model(tmp_path / "new.txt", "pca", {"dim": "3"}, arrays)
    _old_write_model(tmp_path / "old.txt", "pca", {"dim": "3"}, arrays)
    return (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_writer_text_matches_the_per_scalar_writer(tmp_path):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
    arrays = {
        "special": np.array(special),
        "normal": rng.normal(size=(40, 64)),
        "wide": rng.normal(size=(3, 50)) * 10.0 ** rng.integers(-320, 308, size=(3, 50)),
        "bits": rng.integers(0, 2**64, size=(20, 50), dtype=np.uint64).view(np.float64),
        "ints": np.arange(-5, 5).reshape(2, 5),
        "float32": rng.normal(size=(2, 7)).astype(np.float32),
        "empty": np.zeros((0, 3)),
    }
    assert _same_text(tmp_path, arrays)


@settings(max_examples=150, deadline=None)
@given(arr=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=6)))
def test_any_array_is_written_as_the_per_scalar_writer_wrote_it(tmp_path_factory, arr):
    assert _same_text(tmp_path_factory.mktemp("model"), {"x": arr})
