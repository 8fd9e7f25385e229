"""Greedy matching, exact-rational AP, mAP, win counts, and report files."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedet import modelio
from fusedet.core import Box, Detection, GroundTruth, iou
from fusedet.evaluation import (
    PerClassReport,
    average_precision,
    categories_won,
    match_detections,
    mean_ap,
    per_class_report,
    read_report,
    write_report,
)


def _det(image_id, cid, score, box):
    return Detection(image_id=image_id, box=box, category_id=cid, score=score)


def _gt(image_id, cid, box):
    return GroundTruth(image_id=image_id, box=box, category_id=cid)


def _grid_box(rng):
    x0 = int(rng.integers(0, 7))
    y0 = int(rng.integers(0, 7))
    return Box(x0, y0, x0 + int(rng.integers(1, 5)), y0 + int(rng.integers(1, 5)))


# ------------------------------------------------------------------- matching


def test_perfect_detection_is_a_true_positive():
    b = Box(0, 0, 10, 10)
    res = match_detections([_det("a", 0, 0.9, b)], [_gt("a", 0, b)])
    assert res.flags == [True]
    assert res.num_gt == {0: 1}


def test_second_detection_on_a_claimed_object_is_a_false_positive():
    b = Box(0, 0, 10, 10)
    dets = [_det("a", 0, 0.3, b), _det("a", 0, 0.8, b)]
    res = match_detections(dets, [_gt("a", 0, b)])
    assert res.flags == [False, True]  # input order; the higher score claims


def test_matching_respects_image_and_category():
    b = Box(0, 0, 10, 10)
    gts = [_gt("a", 0, b)]
    assert match_detections([_det("b", 0, 0.9, b)], gts).flags == [False]
    assert match_detections([_det("a", 1, 0.9, b)], gts).flags == [False]


def test_each_detection_claims_its_best_overlap():
    g1 = _gt("a", 0, Box(0, 0, 10, 10))
    g2 = _gt("a", 0, Box(20, 0, 30, 10))
    d1 = _det("a", 0, 0.9, Box(1, 0, 11, 10))  # overlaps g1 strongly
    d2 = _det("a", 0, 0.8, Box(2, 0, 11, 10))  # overlaps only g1, now claimed
    d3 = _det("a", 0, 0.7, Box(21, 0, 31, 10))  # overlaps g2
    res = match_detections([d1, d2, d3], [g1, g2], iou_threshold=0.5)
    assert res.flags == [True, False, True]


def test_iou_exactly_at_threshold_matches():
    gt_box = Box(0, 0, 10, 10)
    det_box = Box(0, 0, 10, 5)  # iou exactly 0.5
    assert iou(det_box, gt_box) == 0.5
    res = match_detections([_det("a", 0, 1.0, det_box)], [_gt("a", 0, gt_box)], 0.5)
    assert res.flags == [True]
    res = match_detections(
        [_det("a", 0, 1.0, det_box)], [_gt("a", 0, gt_box)], 0.5000001
    )
    assert res.flags == [False]


def _oracle_match(dets, gts, thr):
    """Re-derivation with explicit index bookkeeping."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].box.x_min, dets[i].box.y_min))
    taken = set()
    flags = [False] * len(dets)
    for i in order:
        d = dets[i]
        cands = [
            (j, iou(d.box, g.box))
            for j, g in enumerate(gts)
            if j not in taken and g.image_id == d.image_id and g.category_id == d.category_id
        ]
        cands = [(j, v) for j, v in cands if v > 0.0]
        if not cands:
            continue
        best_j, best_v = min(cands, key=lambda jv: (-jv[1], jv[0]))
        if best_v >= thr:
            taken.add(best_j)
            flags[i] = True
    return flags


def test_matching_agrees_with_index_bookkeeping_oracle():
    rng = np.random.default_rng(0)
    scores = [0.25, 0.5, 0.75, 1.0]
    for _ in range(150):
        n_det = int(rng.integers(0, 7))
        n_gt = int(rng.integers(0, 7))
        dets = [
            _det(str(rng.integers(2)), int(rng.integers(2)), scores[rng.integers(4)], _grid_box(rng))
            for _ in range(n_det)
        ]
        gts = [
            _gt(str(rng.integers(2)), int(rng.integers(2)), _grid_box(rng))
            for _ in range(n_gt)
        ]
        res = match_detections(dets, gts, iou_threshold=0.5)
        assert res.flags == _oracle_match(dets, gts, 0.5)
        for cid in res.num_gt:
            matched = sum(
                1 for i, f in enumerate(res.flags) if f and dets[i].category_id == cid
            )
            assert matched <= res.num_gt[cid]


# ------------------------------------------------------------------------- ap


def test_ap_simple_values():
    assert average_precision([True], 1) == 1.0
    assert average_precision([True, True], 2) == 1.0
    assert average_precision([False], 1) == 0.0
    assert average_precision([False, False, False], 2) == 0.0
    assert average_precision([True, False], 1) == 1.0
    assert average_precision([False, True], 1) == 0.5


def test_ap_tp_fp_tp_is_exactly_five_sixths():
    assert average_precision([True, False, True], 2) == 5.0 / 6.0


def test_ap_rejects_empty_categories():
    with pytest.raises(ValueError, match="num_gt"):
        average_precision([True], 0)


def _oracle_ap(flags, num_gt):
    """Per-object best-achievable precision, summed in exact arithmetic."""
    tp_at = []
    tp = 0
    for rank, f in enumerate(flags, start=1):
        if f:
            tp += 1
        tp_at.append(Fraction(tp, rank))
    total = Fraction(0)
    for rank, f in enumerate(flags, start=1):
        if f:
            total += max(tp_at[rank - 1 :])
    return float(total / num_gt)


def test_ap_matches_step_sum_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        flags = [bool(rng.random() < 0.5) for _ in range(n)]
        num_gt = sum(flags) + int(rng.integers(0, 4))
        if num_gt == 0:
            continue
        assert average_precision(flags, num_gt) == _oracle_ap(flags, num_gt)


def test_turning_a_tp_into_a_fp_never_raises_ap():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        flags = [bool(rng.random() < 0.6) for _ in range(n)]
        if not any(flags):
            continue
        num_gt = sum(flags) + int(rng.integers(0, 3))
        base = average_precision(flags, num_gt)
        k = [i for i, f in enumerate(flags) if f][int(rng.integers(sum(flags)))]
        worse = list(flags)
        worse[k] = False
        assert average_precision(worse, num_gt) <= base


# --------------------------------------------------------------- per-category


def _five_sixths_fixture():
    g = Box(0, 0, 10, 10)
    g2 = Box(30, 0, 40, 10)
    gts = [_gt("a", 0, g), _gt("a", 0, g2)]
    dets = [
        _det("a", 0, 0.9, g),  # TP
        _det("a", 0, 0.8, Box(60, 0, 70, 10)),  # FP
        _det("a", 0, 0.7, g2),  # TP
    ]
    return dets, gts


def test_per_class_report_ranks_globally_and_excludes_empty_categories():
    dets, gts = _five_sixths_fixture()
    dets.append(_det("a", 5, 0.99, Box(0, 20, 5, 25)))  # category with no gt
    report = per_class_report(dets, gts)
    assert set(report.aps) == {0}
    assert report.aps[0] == 5.0 / 6.0
    assert report.num_gt == {0: 2}


def test_undetected_objects_pull_ap_down():
    b = Box(0, 0, 10, 10)
    report = per_class_report(
        [_det("a", 0, 0.9, b)],
        [_gt("a", 0, b), _gt("b", 1, b)],
    )
    assert report.aps == {0: 1.0, 1: 0.0}


def test_report_is_invariant_to_monotone_score_rescaling():
    dets, gts = _five_sixths_fixture()
    rescaled = [
        _det(d.image_id, d.category_id, 10.0 + 3.0 * d.score, d.box) for d in dets
    ]
    r1 = per_class_report(dets, gts)
    r2 = per_class_report(rescaled, gts)
    assert r1.aps == r2.aps and r1.num_gt == r2.num_gt


def test_mean_ap_values_and_empty_error():
    assert mean_ap(PerClassReport(aps={0: 1.0, 1: 0.5}, num_gt={0: 1, 1: 1})) == 0.75
    with pytest.raises(ValueError, match="cannot average"):
        mean_ap(PerClassReport(aps={}, num_gt={}))


# --------------------------------------------------------------------- wins


def _report(aps):
    return PerClassReport(aps=aps, num_gt={cid: 1 for cid in aps})


def test_categories_won_strict_maxima_only():
    wins = categories_won(
        {
            "a": _report({0: 0.9, 1: 0.2, 2: 0.5}),
            "b": _report({0: 0.8, 1: 0.3, 2: 0.5}),
        }
    )
    assert wins == {"a": 1, "b": 1}  # category 2 ties, nobody wins it


def test_categories_won_matches_argmax_oracle():
    rng = np.random.default_rng(3)
    values = [0.0, 0.25, 0.5, 0.75, 1.0]
    for _ in range(50):
        names = ["m1", "m2", "m3"]
        reports = {
            name: _report({cid: values[rng.integers(5)] for cid in range(4)})
            for name in names
        }
        wins = categories_won(reports)
        expect = {name: 0 for name in names}
        for cid in range(4):
            vals = {name: reports[name].aps[cid] for name in names}
            top = max(vals.values())
            leaders = [n for n, v in vals.items() if v == top]
            if len(leaders) == 1:
                expect[leaders[0]] += 1
        assert wins == expect
        assert sum(wins.values()) <= 4


def test_categories_won_rejects_mismatched_categories_and_handles_empty():
    assert categories_won({}) == {}
    with pytest.raises(ValueError, match="covers different categories"):
        categories_won({"a": _report({0: 1.0}), "b": _report({1: 1.0})})


# ------------------------------------------------------------------- reports


def test_report_file_round_trip_and_recompute(tmp_path):
    dets, gts = _five_sixths_fixture()
    report = per_class_report(dets, gts)
    path = tmp_path / "report.txt"
    write_report(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "category ap num_gt"
    assert lines[-1] == f"mAP {modelio.fmt_float(mean_ap(report))}"
    loaded = read_report(path)
    assert loaded.aps == report.aps
    assert loaded.num_gt == report.num_gt
    assert mean_ap(loaded) == mean_ap(report)


@st.composite
def _reports(draw):
    categories = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    return PerClassReport(
        aps={cid: draw(st.floats(0.0, 1.0)) for cid in categories},
        num_gt={cid: draw(st.integers(1, 10**9)) for cid in categories},
    )


@settings(max_examples=150, deadline=None)
@given(report=_reports())
def test_any_report_round_trips(tmp_path_factory, report):
    path = tmp_path_factory.mktemp("report") / "r.txt"
    write_report(path, report)
    assert read_report(path) == report


def test_read_report_errors(tmp_path):
    p = tmp_path / "r.txt"
    p.write_text("bogus header\nmAP 1\n")
    with pytest.raises(ValueError, match="expected header"):
        read_report(p)
    p.write_text("category ap num_gt\n0 0.5 1\n")
    with pytest.raises(ValueError, match="missing trailing mAP"):
        read_report(p)
    p.write_text("category ap num_gt\n0 0.5\nmAP 0.5\n")
    with pytest.raises(ValueError, match=r"r.txt:2: expected"):
        read_report(p)
    p.write_text("category ap num_gt\n0 abc 1\nmAP 0.5\n")
    with pytest.raises(ValueError, match="malformed report row"):
        read_report(p)
    p.write_text("category ap num_gt\n0 0.5 1\n0 0.6 1\nmAP 0.55\n")
    with pytest.raises(ValueError, match="duplicate category 0"):
        read_report(p)


@pytest.mark.parametrize("ap", ["0.5_0", "nan", "inf", "\u0661"])
def test_read_report_rejects_an_ap_that_is_not_a_finite_ascii_real(tmp_path, ap):
    # float() reads these as 0.5, nan, inf and 1.0; write_report never writes them
    row = f"0 {ap} 1"
    p = tmp_path / "r.txt"
    p.write_text(f"category ap num_gt\n{row}\nmAP 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_report(p)
    assert str(err.value) == f"{p}:2: malformed report row {row!r}"


@pytest.mark.parametrize("token", ["1_0", "+2", "\u0661"])
@pytest.mark.parametrize("column", ["category", "num_gt"])
def test_read_report_rejects_counts_not_in_plain_decimal_digits(tmp_path, token, column):
    # int() reads these as 10, 2 and 1; write_report never writes them
    row = f"{token} 0.5 1" if column == "category" else f"0 0.5 {token}"
    p = tmp_path / "r.txt"
    p.write_text(f"category ap num_gt\n{row}\nmAP 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_report(p)
    assert str(err.value) == f"{p}:2: malformed report row {row!r}"
