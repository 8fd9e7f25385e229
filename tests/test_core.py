"""Geometry primitives, NMS, and the detection dump format."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedet.core import (
    Box,
    Detection,
    GroundTruth,
    clip_box,
    format_detection,
    iou,
    nms,
    parse_detection_line,
    read_detections,
    write_detections,
)


def _random_box(rng, span=20):
    x0, y0 = rng.integers(0, span, size=2)
    w, h = rng.integers(1, span, size=2)
    return Box(float(x0), float(y0), float(x0 + w), float(y0 + h))


def test_box_rejects_non_positive_area():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 10)
    with pytest.raises(ValueError):
        Box(0, 5, 10, 5)
    with pytest.raises(ValueError):
        Box(3, 0, 1, 4)


def test_detection_and_ground_truth_reject_negative_category():
    b = Box(0, 0, 1, 1)
    with pytest.raises(ValueError):
        Detection("a", b, -1, 0.5)
    with pytest.raises(ValueError):
        GroundTruth("a", b, -3)


def test_iou_identity_and_disjoint():
    a = Box(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Box(20, 20, 30, 30)) == 0.0


def test_iou_half_overlap_is_one_third():
    a = Box(0, 0, 10, 10)
    b = Box(5, 0, 15, 10)
    assert iou(a, b) == 1 / 3


def test_iou_shared_edge_is_zero():
    assert iou(Box(0, 0, 5, 5), Box(5, 0, 10, 5)) == 0.0
    assert iou(Box(0, 0, 5, 5), Box(0, 5, 5, 10)) == 0.0


def _pixel_count_iou(a: Box, b: Box) -> float:
    # rasterize integer-cornered boxes onto a unit grid and count cells
    size = int(max(a.x_max, b.x_max, a.y_max, b.y_max)) + 1
    ga = np.zeros((size, size), dtype=bool)
    gb = np.zeros((size, size), dtype=bool)
    ga[int(a.y_min) : int(a.y_max), int(a.x_min) : int(a.x_max)] = True
    gb[int(b.y_min) : int(b.y_max), int(b.x_min) : int(b.x_max)] = True
    inter = int((ga & gb).sum())
    union = int((ga | gb).sum())
    if union == 0:
        return 0.0
    return float(Fraction(inter, union))


def test_iou_matches_pixel_counting_on_integer_boxes():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = _random_box(rng)
        b = _random_box(rng)
        assert iou(a, b) == _pixel_count_iou(a, b)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = _random_box(rng)
        b = _random_box(rng)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
    assert iou(Box(1.5, 2.5, 3.25, 7.0), Box(1.5, 2.5, 3.25, 7.0)) == 1.0


def _oracle_nms(detections, threshold):
    # independent greedy formulation: explicit max scan instead of sorting
    pool = list(detections)
    kept = []
    while pool:
        best = pool[0]
        for d in pool[1:]:
            if (d.score, -d.box.x_min, -d.box.y_min) > (
                best.score,
                -best.box.x_min,
                -best.box.y_min,
            ):
                best = d
        kept.append(best)
        pool = [d for d in pool if d is not best and iou(best.box, d.box) <= threshold]
    return kept


def test_nms_single_detection_passes_through():
    d = Detection("img", Box(0, 0, 10, 10), 0, 0.7)
    assert nms([d], 0.5) == [d]
    assert nms([], 0.5) == []


def test_nms_duplicate_box_keeps_higher_score():
    b = Box(0, 0, 10, 10)
    hi = Detection("img", b, 0, 0.9)
    lo = Detection("img", b, 0, 0.8)
    assert nms([lo, hi], 0.5) == [hi]


def test_nms_disjoint_boxes_all_kept():
    d1 = Detection("img", Box(0, 0, 10, 10), 0, 0.9)
    d2 = Detection("img", Box(50, 50, 60, 60), 0, 0.2)
    assert nms([d2, d1], 0.01) == [d1, d2]


def test_nms_rejects_bad_threshold():
    d = Detection("img", Box(0, 0, 10, 10), 0, 0.7)
    with pytest.raises(ValueError):
        nms([d], 0.0)
    with pytest.raises(ValueError):
        nms([d], 1.5)


def _random_detections(rng, max_boxes=6):
    n = int(rng.integers(1, max_boxes + 1))
    # scores drawn from a small set so ties exercise the x/y tie-break
    return [
        Detection("img", _random_box(rng, span=12), 0, float(rng.choice([0.25, 0.5, 0.75, 1.0])))
        for _ in range(n)
    ]


def test_nms_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    for _ in range(400):
        dets = _random_detections(rng)
        thr = float(rng.choice([0.1, 0.3, 0.5, 0.9]))
        assert nms(dets, thr) == _oracle_nms(dets, thr)


def test_nms_output_is_antichain_and_idempotent():
    rng = np.random.default_rng(29)
    for _ in range(200):
        dets = _random_detections(rng)
        kept = nms(dets, 0.3)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert iou(kept[i].box, kept[j].box) <= 0.3
        assert nms(kept, 0.3) == kept


def test_clip_box_clamps_at_origin():
    assert clip_box(Box(-5, -5, 5, 5), 100, 100) == Box(0, 0, 5, 5)


def test_clip_box_inside_is_unchanged():
    b = Box(0, 0, 10, 10)
    assert clip_box(b, 100, 100) == b


def test_clip_box_fully_outside_errors():
    with pytest.raises(ValueError):
        clip_box(Box(150, 150, 160, 160), 100, 100)


def test_detection_dump_round_trip():
    dets = [
        Detection("img_0001", Box(1.25, 2.5, 30.75, 42.125), 2, 0.875),
        Detection("img_0002", Box(0.0, 0.0, 5.0, 5.0), 0, -1.5),
    ]
    buf = io.StringIO()
    write_detections(dets, buf)
    buf.seek(0)
    assert read_detections(buf) == dets


def test_detection_dump_uses_six_decimal_places():
    d = Detection("a", Box(0, 0, 1, 1), 0, 0.5)
    line = format_detection(d)
    assert line == "a 0 0.500000 0.000000 0.000000 1.000000 1.000000"


def test_parse_detection_line_reports_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_detection_line("a 0 0.5 0 0", 3)
    with pytest.raises(ValueError, match="line 9"):
        parse_detection_line("a zero 0.5 0 0 1 1", 9)


def test_read_detections_skips_blank_lines():
    buf = io.StringIO("a 0 0.500000 0.000000 0.000000 1.000000 1.000000\n\n")
    assert len(read_detections(buf)) == 1


_IMAGE_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda s: not any(c.isspace() for c in s)
)
_MICROS = st.integers(-(10**12), 10**12).map(lambda k: k / 1_000_000)  # exact at six decimals


@st.composite
def _dumped_detections(draw):
    x0, y0 = draw(_MICROS), draw(_MICROS)
    w, h = (draw(st.integers(1, 10**9)) / 1_000_000 for _ in range(2))
    box = Box(x0, y0, float(f"{x0 + w:.6f}"), float(f"{y0 + h:.6f}"))
    return Detection(draw(_IMAGE_IDS), box, draw(st.integers(0, 10**6)), draw(_MICROS))


@settings(max_examples=200, deadline=None)
@given(dets=st.lists(_dumped_detections(), max_size=8))
def test_write_then_read_detections_round_trips_any_dump(dets):
    buf = io.StringIO()
    write_detections(dets, buf)
    buf.seek(0)
    assert read_detections(buf) == dets


_GOOD = "a 0 0.500000 0.000000 0.000000 1.000000 1.000000"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("a 0 0.5 0 0", "expected 7 fields, got 5"),
        ("a 0 0.5 0 0 1 1 1", "expected 7 fields, got 8"),
        ("a  0 0.5 0 0 1 1", "expected 7 fields, got 8"),
        (" 0 0.5 0 0 1 1", "empty image id"),
        ("a zero 0.5 0 0 1 1", "invalid literal for int"),
        ("a 0 high 0 0 1 1", "could not convert string to float"),
        ("a 0 nan 0 0 1 1", "non-finite score or coordinate"),
        ("a 0 inf 0 0 1 1", "non-finite score or coordinate"),
        ("a 0 0.5 0 0 inf 1", "non-finite score or coordinate"),
        ("a 0 0.5 -inf 0 1 1", "non-finite score or coordinate"),
        ("a 0 0.5 0 nan 1 1", "non-finite score or coordinate"),
        ("a 0 0.5 1 0 1 1", "box must have positive area"),
        ("a 0 0.5 0 2 1 1", "box must have positive area"),
        ("a -1 0.5 0 0 1 1", "category_id must be non-negative"),
        # int() reads these three as 10, 2 and 1; write_detections never writes them
        ("a 1_0 0.5 0 0 1 1", "invalid literal for int() with base 10: '1_0'"),
        ("a +2 0.5 0 0 1 1", "invalid literal for int() with base 10: '+2'"),
        ("a \u0661 0.5 0 0 1 1", "invalid literal for int() with base 10: '\u0661'"),
    ],
)
def test_a_malformed_detection_line_names_the_file_and_line(tmp_path, bad, message):
    path = tmp_path / "dets.txt"
    path.write_text(f"{_GOOD}\n\n{bad}\n{_GOOD}\n", encoding="utf-8")
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as err:
        read_detections(fh)
    assert str(err.value).startswith(f"{path}:3: {message}")
