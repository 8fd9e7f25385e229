"""Text model container format and float formatting."""

import numpy as np
import pytest

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
    p.write_text("fusedet-model 1 gmm\nbogus line\nend\n")
    with pytest.raises(ValueError, match="unrecognized line 2"):
        read_model(p, "gmm")
    p.write_text("fusedet-model 1 gmm\nmeta a 1\n")
    with pytest.raises(ValueError, match="missing end marker"):
        read_model(p, "gmm")


def test_write_rejects_meta_keys_with_spaces(tmp_path):
    with pytest.raises(ValueError, match="must not contain spaces"):
        write_model(tmp_path / "m.txt", "gmm", {"bad key": "1"}, {})


def test_extreme_values_survive_the_container(tmp_path):
    arr = np.array([[1e-300, -1e300, 5e-324, np.pi, -0.0, 2.0 / 3.0]])
    path = tmp_path / "m.txt"
    write_model(path, "gmm", {}, {"x": arr})
    _, arrays = read_model(path, "gmm")
    assert np.array_equal(arrays["x"], arr)
