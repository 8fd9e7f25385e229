"""Ingestion and storage of externally computed feature vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedet.features.cnn import load_cnn_features, write_cnn_features


def test_load_two_record_fixture(tmp_path):
    p = tmp_path / "feat.txt"
    p.write_text("img_a 0 1.0 2.0 3.0\nimg_a 1 -0.5 0.25 8.0\n")
    index, matrix = load_cnn_features(p)
    assert matrix.shape == (2, 3)
    assert matrix.dtype == np.float64
    assert index == {("img_a", 0): 0, ("img_a", 1): 1}
    assert np.array_equal(matrix[index["img_a", 0]], [1.0, 2.0, 3.0])
    assert np.array_equal(matrix[index["img_a", 1]], [-0.5, 0.25, 8.0])
    assert ("img_b", 0) not in index


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "feat.txt"
    p.write_text("\nimg 0 1.0 2.0\n\n\nimg 1 3.0 4.0\n")
    index, matrix = load_cnn_features(p)
    assert len(index) == 2
    assert np.array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])


def test_write_then_load_round_trips_bits(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        ("im_0", 0, rng.normal(size=5)),
        ("im_0", 3, rng.normal(size=5) * 1e-7),
        ("im_1", 0, rng.normal(size=5) * 1e9),
    ]
    p = tmp_path / "feat.txt"
    write_cnn_features(p, records)
    index, matrix = load_cnn_features(p)
    assert matrix.shape == (3, 5)
    for image_id, idx, vec in records:
        assert np.array_equal(matrix[index[image_id, idx]], vec)


def test_load_rejects_width_mismatch_naming_line(tmp_path):
    p = tmp_path / "feat.txt"
    p.write_text("img 0 1.0 2.0 3.0\nimg 1 1.0 2.0\n")
    with pytest.raises(ValueError, match=r"feat.txt:2: vector has 2 values, expected 3"):
        load_cnn_features(p)


def test_load_rejects_short_records(tmp_path):
    p = tmp_path / "feat.txt"
    p.write_text("img 0\n")
    with pytest.raises(ValueError, match="got 2 fields"):
        load_cnn_features(p)


def test_load_rejects_bad_and_negative_indices(tmp_path):
    p = tmp_path / "feat.txt"
    p.write_text("img x 1.0\n")
    with pytest.raises(ValueError, match="bad proposal index 'x'"):
        load_cnn_features(p)
    p.write_text("img -2 1.0\n")
    with pytest.raises(ValueError, match="negative proposal index -2"):
        load_cnn_features(p)


@pytest.mark.parametrize("token", ["1_0", "+2", "\u0661"])
def test_load_rejects_an_index_not_in_plain_decimal_digits(tmp_path, token):
    # int() reads these as 10, 2 and 1; write_cnn_features never writes them
    p = tmp_path / "feat.txt"
    p.write_text(f"img 0 1.0\nimg {token} 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_cnn_features(p)
    assert str(err.value) == f"{p}:2: bad proposal index {token!r}"


def test_load_rejects_malformed_and_nonfinite_values(tmp_path):
    p = tmp_path / "feat.txt"
    p.write_text("img 0 1.0 oops\n")
    with pytest.raises(ValueError, match="malformed feature value"):
        load_cnn_features(p)
    p.write_text("img 0 1.0 nan\n")
    with pytest.raises(ValueError, match="non-finite feature value"):
        load_cnn_features(p)
    p.write_text("img 0 inf 1.0\n")
    with pytest.raises(ValueError, match="non-finite feature value"):
        load_cnn_features(p)


def test_load_rejects_duplicate_keys_naming_line(tmp_path):
    p = tmp_path / "feat.txt"
    p.write_text("img 0 1.0\nimg 0 2.0\n")
    with pytest.raises(ValueError, match=r"feat.txt:2: duplicate key"):
        load_cnn_features(p)


def test_load_rejects_empty_file(tmp_path):
    p = tmp_path / "feat.txt"
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="no feature records found"):
        load_cnn_features(p)


def test_write_rejects_whitespace_image_id(tmp_path):
    with pytest.raises(ValueError, match="whitespace"):
        write_cnn_features(tmp_path / "f.txt", [("bad id", 0, np.zeros(2))])


_IDS = st.text(alphabet="abcxyz_0123456789", min_size=1, max_size=6)
_VALUES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _records(draw):
    keys = draw(st.lists(st.tuples(_IDS, st.integers(0, 10**6)), min_size=1, max_size=12, unique=True))
    width = draw(st.integers(1, 6))
    return [(image_id, p, np.array(draw(st.lists(_VALUES, min_size=width, max_size=width)))) for image_id, p in keys]


@settings(max_examples=100, deadline=None)
@given(records=_records())
def test_write_then_load_round_trips_any_records(tmp_path_factory, records):
    p = tmp_path_factory.mktemp("cnn") / "feat.txt"
    write_cnn_features(p, records)
    index, matrix = load_cnn_features(p)
    assert index == {(image_id, idx): r for r, (image_id, idx, _) in enumerate(records)}
    expected = np.stack([v for _, _, v in records])
    assert matrix.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    records=_records(),
    at=st.integers(0, 12),
    bad=st.sampled_from(["img", "img x 1.0", "img -1 1.0", "img 0 oops", "img 0 nan", "img 0 -inf"]),
)
def test_a_malformed_record_anywhere_is_rejected_with_its_line(tmp_path_factory, records, at, bad):
    p = tmp_path_factory.mktemp("cnn") / "feat.txt"
    write_cnn_features(p, records)
    lines = p.read_text().splitlines(keepends=True)
    at = min(at, len(lines))
    lines.insert(at, bad + "\n")
    p.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"feat.txt:{at + 1}: "):
        load_cnn_features(p)
