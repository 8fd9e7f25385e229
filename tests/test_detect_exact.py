"""Refine, NMS and the presence gate on arrays give the object code's bytes.

`core.nms`, `regress.refine` and `context.filter_detections` work on arrays
inside. Each is checked here against a frozen copy of the object loop it
replaced: the same detections in the same order (untouched ones as the same
objects) and the same coordinate bits down to the sign of a zero. NMS and
the gate also raise the loop's error for the same first bad input. Where
the refine loop raised for a row (non-finite targets, an overflowing
`math.exp`, a box empty before or after the clip), refine keeps that row's
proposal box instead. detect still calls the three once per (image,
category) through their `fusedet.pipeline` names, which the benchmark's
tracer counts, and its run log counts what they did.
"""

import dataclasses
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusedet import core, pipeline
from fusedet.cache import load_arrays
from fusedet.classify import LinearBank
from fusedet.config import PipelineConfig
from fusedet.context import filter_detections, presence_scores
from fusedet.core import Box, Detection, box_corners, detection_sort_key, format_detection, nms
from fusedet.images import read_pnm
from fusedet.manifest import read_manifest
from fusedet.regress import BoxRegressor, BoxTargets, _predict_rows, refine

# ------------------------------------------------------------ frozen copies


def _frozen_iou(a, b):
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def _frozen_nms(detections, iou_threshold):
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    remaining = sorted(detections, key=detection_sort_key)
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if _frozen_iou(best.box, d.box) <= iou_threshold]
    return kept


def _frozen_predict(regressor, category_id, feature):
    if category_id not in regressor.coefficients:
        return None
    x = np.asarray(feature, dtype=np.float64)
    if x.shape != (regressor.dim,):
        raise ValueError(f"feature has shape {x.shape}, expected ({regressor.dim},)")
    t = regressor.coefficients[category_id] @ np.append(x, 1.0)
    return BoxTargets(tx=float(t[0]), ty=float(t[1]), tw=float(t[2]), th=float(t[3]))


def _frozen_apply_targets(proposal, t):
    px, py = proposal.center
    cx = proposal.width * t.tx + px
    cy = proposal.height * t.ty + py
    w = proposal.width * math.exp(t.tw)
    h = proposal.height * math.exp(t.th)
    return Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def _frozen_clip_box(b, width, height):
    x_min = min(max(b.x_min, 0.0), width)
    y_min = min(max(b.y_min, 0.0), height)
    x_max = min(max(b.x_max, 0.0), width)
    y_max = min(max(b.y_max, 0.0), height)
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(
            f"box ({b.x_min}, {b.y_min}, {b.x_max}, {b.y_max}) lies outside "
            f"a {width}x{height} image"
        )
    return Box(x_min, y_min, x_max, y_max)


def _fallback_row(corners, x, regressor, category_id, image_width, image_height):
    """One row by the frozen object forms: its corners, whether it kept its
    proposal (where the forms raise) and whether the clip changed its box."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # predict's product may overflow
            t = _frozen_predict(regressor, category_id, x)
        if t is None:
            return corners, False, False
        moved = _frozen_apply_targets(Box(*corners), t)
        box = _frozen_clip_box(moved, image_width, image_height)
    except OverflowError:
        return corners, True, False
    except ValueError as exc:
        if str(exc).startswith("feature has shape"):
            raise
        return corners, True, False
    refined = [box.x_min, box.y_min, box.x_max, box.y_max]
    return refined, False, refined != [moved.x_min, moved.y_min, moved.x_max, moved.y_max]


def _fallback_refine(corners, features, regressor, category_id, image_width, image_height):
    """What refine must return, row by row through `_fallback_row`."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(corners):
        raise ValueError("one feature row per detection required")
    rows = [
        _fallback_row(c, x, regressor, category_id, image_width, image_height)
        for c, x in zip(np.asarray(corners).tolist(), X)
    ]
    out = np.array([r[0] for r in rows], dtype=np.float64).reshape(-1, 4)
    return out, np.array([r[1] for r in rows], dtype=bool), np.array([r[2] for r in rows], dtype=bool)


def _frozen_filter(detections, presence, thresholds):
    presence = np.asarray(presence, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if presence.shape != thresholds.shape:
        raise ValueError("presence and thresholds must have the same length")
    n = presence.shape[0]
    out = []
    for det in detections:
        if not 0 <= det.category_id < n:
            raise ValueError(f"detection category {det.category_id} outside [0, {n})")
        if presence[det.category_id] >= thresholds[det.category_id]:
            out.append(det)
    return out


# ------------------------------------------------------------------ helpers


def _bits(v):
    return np.float64(v).tobytes()  # tells -0.0 from 0.0; 12 and 12.0 alike


def _key(d):
    b = d.box
    return (d.image_id, d.category_id, _bits(d.score), tuple(map(_bits, (b.x_min, b.y_min, b.x_max, b.y_max))))


def _outcome(fn, dets, *args):
    """What a call gives: its detections by bits and each one's position in
    dets when it is one of them (None when it is new), or its error."""
    try:
        out = fn(dets, *args)
    except (ValueError, OverflowError) as exc:
        return ("raised", type(exc), str(exc))
    position = {id(d): i for i, d in enumerate(dets)}
    return ("returned", [_key(d) for d in out], [position.get(id(d)) for d in out])


# half-unit corners: shared corners, equal boxes, boxes that only touch and
# IoUs that land exactly on a threshold
_HALVES = st.integers(-2, 24).map(lambda v: v / 2)


@st.composite
def _boxes(draw):
    if draw(st.booleans()):
        x, y = draw(_HALVES), draw(_HALVES)
        return Box(x, y, x + draw(st.integers(1, 10)) / 2, y + draw(st.integers(1, 10)) / 2)
    x, y = draw(st.floats(-3, 14)), draw(st.floats(-3, 14))
    return Box(x, y, x + draw(st.floats(0.01, 9)), y + draw(st.floats(0.01, 9)))


_SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-3, 3)
_THRESHOLDS = st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3, 1.0]) | st.floats(0.001, 1.0)


@st.composite
def _detections(draw, max_size=30, categories=(0,)):
    return draw(
        st.lists(
            st.builds(
                Detection,
                image_id=st.sampled_from(["a", "b"]),
                box=_boxes(),
                category_id=st.sampled_from(categories),
                score=_SCORES,
            ),
            max_size=max_size,
        )
    )


# ---------------------------------------------------------------------- nms


@settings(max_examples=300, deadline=None)
@given(dets=_detections(), thr=_THRESHOLDS, block=st.sampled_from([1, 2, 5, core.NMS_BLOCK]))
def test_nms_keeps_what_the_pairwise_loop_keeps(dets, thr, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NMS_BLOCK", block)
        assert _outcome(nms, dets, thr) == _outcome(_frozen_nms, dets, thr)


def test_nms_over_many_blocks_matches_the_pairwise_loop():
    rng = np.random.default_rng(19)
    for n, span in ((700, 60.0), (300, 15.0)):
        dets = []
        for _ in range(n):
            x, y = rng.integers(0, int(span), size=2) / 2
            w, h = rng.integers(1, 20, size=2) / 2
            box = Box(float(x), float(y), float(x + w), float(y + h))
            dets.append(Detection("a", box, 0, float(rng.choice([0.1, 0.2, 0.3]))))
        for thr in (0.1, 0.3, 0.5):
            assert _outcome(nms, dets, thr) == _outcome(_frozen_nms, dets, thr)


def test_nms_keeps_a_box_whose_iou_equals_the_threshold():
    a = Detection("a", Box(0.0, 0.0, 2.0, 1.0), 0, 0.9)
    b = Detection("a", Box(0.0, 0.0, 1.0, 1.0), 0, 0.8)  # IoU exactly 0.5
    touching = Detection("a", Box(2.0, 0.0, 3.0, 1.0), 0, 0.7)
    assert nms([b, touching, a], 0.5) == [a, b, touching]
    assert nms([b, touching, a], 0.4999) == [a, touching]


def test_nms_of_nothing_and_a_bad_threshold():
    assert nms([], 0.5) == []
    for thr in (0.0, -0.1, 1.5):
        assert _outcome(nms, [], thr) == _outcome(_frozen_nms, [], thr)


# ------------------------------------------------------------------- refine


def _regressor(rng, dim, trained, scale):
    return BoxRegressor(dim=dim, coefficients={cid: rng.normal(size=(4, dim + 1)) * scale for cid in trained})


def _result(fn, *args):
    """refine's or the oracle's corners by bits, and its two masks."""
    out, kept, clipped = fn(*args)
    return out.tobytes(), kept.tolist(), clipped.tolist()


@settings(max_examples=300, deadline=None)
@given(
    boxes=st.lists(_boxes(), max_size=10),
    category=st.sampled_from([0, 1, 2, 3]),
    trained=st.sets(st.sampled_from([0, 1, 2])),
    dim=st.integers(1, 5),
    scale=st.sampled_from([0.01, 0.3, 3.0, 300.0]),
    size=st.sampled_from([(12, 12), (20, 16), (7, 30)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_refine_gives_the_object_loops_bits_or_keeps_the_proposal(boxes, category, trained, dim, scale, size, seed):
    rng = np.random.default_rng(seed)
    reg = _regressor(rng, dim, trained, scale)
    X = rng.normal(size=(len(boxes), dim))
    corners = box_corners(boxes)
    got = _result(refine, corners, X, reg, category, *size)
    assert got == _result(_fallback_refine, corners, X, reg, category, *size)
    if category not in trained:  # untrained categories pass through
        assert got == (corners.tobytes(), [False] * len(boxes), [False] * len(boxes))


_BOX = Box(2.0, 2.0, 6.0, 6.0)


@pytest.mark.parametrize(
    "bias, why",
    [
        ((0.0, 0.0, 800.0, 0.0), "math.exp overflows"),
        ((0.0, 0.0, 709.5, 0.0), "just under the overflow: the object path computes it"),
        ((0.0, 0.0, -800.0, 0.0), "zero width before the clip"),
        ((1e308, 0.0, 0.0, 0.0), "centre overflows"),
        ((50.0, 0.0, 0.0, 0.0), "outside the image"),
        ((-0.75, 0.0, 0.0, 0.0), "clipped at the origin"),
        ((0.0, 0.0, 3.0, 3.0), "clipped to the image's int sides"),
    ],
)
def test_refine_edge_rows_match_the_object_loop(bias, why):
    coef = np.zeros((4, 2))
    coef[:, 1] = bias
    reg = BoxRegressor(dim=1, coefficients={0: coef})
    corners = box_corners([Box(0.0, 0.0, 4.0, 4.0), _BOX])
    X = np.zeros((2, 1))
    got = _result(refine, corners, X, reg, 0, 10, 10)
    assert got == _result(_fallback_refine, corners, X, reg, 0, 10, 10), why
    unplaceable = why in ("math.exp overflows", "zero width before the clip", "centre overflows", "outside the image")
    assert got[1] == [unplaceable] * 2 and got[2] == [not unplaceable] * 2


def test_refine_keeps_the_proposals_of_the_rows_the_loop_refuses():
    shift_x = np.zeros((4, 2))
    shift_x[0, 0] = 9.0  # tx = 9 * feature
    reg = BoxRegressor(dim=1, coefficients={1: shift_x})
    corners = box_corners([Box(1.0, 1.0, 2.0, 2.0), _BOX, Box(3.0, 3.0, 4.0, 4.0)])
    X = np.array([[50.0], [0.0], [90.0]])
    # the object forms refuse the first row
    t = _frozen_predict(reg, 1, X[0])
    with pytest.raises(ValueError, match=r"^box \(451\.0, 1\.0, 452\.0, 2\.0\) lies outside a 20x20 image$"):
        _frozen_clip_box(_frozen_apply_targets(Box(1.0, 1.0, 2.0, 2.0), t), 20, 20)
    got = _result(refine, corners, X, reg, 1, 20, 20)
    assert got == _result(_fallback_refine, corners, X, reg, 1, 20, 20)
    assert got == (corners.tobytes(), [True, False, True], [False, False, False])


def test_refine_keeps_non_finite_rows_and_refuses_a_width_mismatch():
    coef = np.zeros((4, 2))
    coef[2, 0] = 1e308  # tw = 1e308 * feature
    reg = BoxRegressor(dim=1, coefficients={0: coef})
    corners = box_corners([_BOX, _BOX])
    # the second row's tw overflows to inf; its box would span the image
    X = np.array([[0.0], [10.0]])
    with np.errstate(over="ignore"):
        assert _frozen_predict(reg, 0, X[0]) is not None
        with pytest.raises(ValueError, match="^targets must be finite"):
            _frozen_predict(reg, 0, X[1])
    got = _result(refine, corners, X, reg, 0, 10, 10)
    assert got == _result(_fallback_refine, corners, X, reg, 0, 10, 10)
    assert got[1] == [False, True]
    wide = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"^feature has shape \(3,\), expected \(1,\)$"):
        refine(corners, wide, reg, 0, 10, 10)
    assert _result(refine, corners, wide, reg, 5, 10, 10) == (corners.tobytes(), [False] * 2, [False] * 2)
    out, kept, clipped = refine(np.zeros((0, 4)), np.zeros((0, 1)), reg, 0, 10, 10)
    assert out.shape == (0, 4) and kept.shape == clipped.shape == (0,)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 2100), rows=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
@example(dim=2048, rows=100, seed=0)
@example(dim=2100, rows=120, seed=1)
def test_the_stacked_product_matches_predict_row_by_row(dim, rows, seed):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(4, dim + 1)) * 10.0 ** rng.integers(-3, 4)
    X = rng.normal(size=(rows, dim)).astype(np.float32).astype(np.float64)
    reg = BoxRegressor(dim=dim, coefficients={0: coef})
    per_row = np.stack([_frozen_predict(reg, 0, x).as_array() for x in X])
    assert _predict_rows(reg.coefficients[0], X).tobytes() == per_row.tobytes()


# ------------------------------------------------------------------- filter


_GATE_VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.0, -math.inf, math.inf, math.nan]) | st.floats(-2, 2)


@settings(max_examples=300, deadline=None)
@given(
    dets=_detections(max_size=12, categories=(0, 1, 2, 3)),
    presence=st.lists(_GATE_VALUES, min_size=0, max_size=4),
    data=st.data(),
)
def test_filter_removes_what_the_object_loop_removes(dets, presence, data):
    thresholds = data.draw(st.lists(_GATE_VALUES, min_size=len(presence), max_size=len(presence)))
    ties = data.draw(st.booleans())
    if ties:
        thresholds = presence
    got = _outcome(filter_detections, dets, presence, thresholds)
    assert got == _outcome(_frozen_filter, dets, presence, thresholds)


def _one(cid):
    return Detection("a", _BOX, cid, 0.5)


def test_filter_names_the_first_out_of_range_category():
    dets = [_one(cid=0), _one(cid=7), _one(cid=3)]
    with pytest.raises(ValueError, match=r"^detection category 7 outside \[0, 2\)$"):
        filter_detections(dets, np.zeros(2), np.zeros(2))
    assert filter_detections([], np.zeros(0), np.zeros(0)) == []


# ------------------------------------------------------------------- detect


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("detect")
    cfg = PipelineConfig(
        ifv_codebook_samples=1500, ifv_pca_dim=16, ifv_gmm_k=4, ifv_gmm_iters=20, svm_epochs=5, fusion_epochs=5
    )
    pipeline.stage_all(cfg, out, train_images=8, test_images=6, classes=3, max_shapes=2, noise=0.3, image_size=64)
    return cfg, out


def _record(mp, name, log):
    real = getattr(pipeline, name)

    def wrapper(*args):
        result = real(*args)
        log.append((name, args, result))
        return result

    mp.setattr(pipeline, name, wrapper)


def _copy(run, tmp_path):
    cfg, src = run
    out = tmp_path / "out"
    shutil.copytree(src, out)
    return cfg, out, out / "data" / "test" / "manifest.txt"


def _detect_logged(run, tmp_path, monkeypatch, thresholds=None):
    """detect on a copy of the run, with every call of refine, nms and the
    gate logged, and the gate's thresholds replaced when given: the config,
    the output directory, the path and the log."""
    cfg, out, manifest = _copy(run, tmp_path)
    if thresholds is not None:
        prior = LinearBank.load(pipeline.prior_path(out))
        dataclasses.replace(prior, thresholds=np.array(thresholds)).save(pipeline.prior_path(out))
    log = []
    for name in ("refine", "nms", "filter_detections"):
        _record(monkeypatch, name, log)
    return cfg, out, pipeline.stage_detect(cfg, manifest, out), log


def _run_log(path):
    return dict(line.split(" ", 1) for line in path.read_text().splitlines())


def test_detect_calls_refine_nms_and_the_gate_once_per_image_and_category(run, tmp_path, monkeypatch):
    cfg, out, path, log = _detect_logged(run, tmp_path, monkeypatch)
    man = read_manifest(out / "data" / "test" / "manifest.txt")
    feats = load_arrays(pipeline.features_path(out, "test"))
    prior_rows = feats["prior_" + cfg.prior_feature]
    prior = pipeline._load_bank(pipeline.prior_path(out), "train-prior", prior_rows.shape[1], 3)
    calls = iter(log)
    written = []
    for i, im in enumerate(man.images):
        rows = np.flatnonzero(feats["row_image"] == i)
        if not len(rows):
            continue
        img = read_pnm(man.resolved_path(im))
        for cid in range(3):
            name, (corners, X, _, category, width, height), (refined, _, _) = next(calls)
            assert name == "refine" and (category, width, height) == (cid, img.width, img.height)
            assert corners.tobytes() == feats["boxes"][rows].tobytes()
            assert X.tobytes() == feats[cfg.regress_channel][rows].astype(np.float64).tobytes()
            name, (given, thr), kept = next(calls)
            assert name == "nms" and thr == cfg.nms_iou
            assert [(d.image_id, d.category_id) for d in given] == [(im.image_id, cid)] * len(rows)
            assert [[d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max] for d in given] == refined.tolist()
            name, (given, presence, thresholds), gated = next(calls)
            assert name == "filter_detections" and given is kept
            assert presence.tobytes() == presence_scores(prior_rows[i], prior).tobytes()
            assert thresholds.tobytes() == prior.thresholds.tobytes()
            written.extend(gated)
    assert next(calls, None) is None
    assert path.read_text() == "".join(format_detection(d) + "\n" for d in written)


@pytest.mark.parametrize("thresholds", [None, [-math.inf, 1e300, -math.inf]], ids=["calibrated", "category 1 shut"])
def test_detect_run_log_counts_what_refine_nms_and_the_gate_did(run, tmp_path, monkeypatch, thresholds):
    cfg, out, path, log = _detect_logged(run, tmp_path, monkeypatch, thresholds)
    want = {"refine_kept_proposal": 0, "refine_clipped": 0, "nms_in": 0, "nms_out": 0}
    want.update({f"gate_removed_{cid}": 0 for cid in range(3)})
    for name, args, result in log:
        if name == "refine":
            want["refine_kept_proposal"] += int(result[1].sum())
            want["refine_clipped"] += int(result[2].sum())
        elif name == "nms":
            want["nms_in"] += len(args[0])
            want["nms_out"] += len(result)
        else:
            for d in args[0]:
                want[f"gate_removed_{d.category_id}"] += d not in result
    got = _run_log(out / "runlog_detect-fused_test.txt")
    assert {key: int(got[key]) for key in want} == want
    assert int(got["detections"]) == len(path.read_text().splitlines()) == want["nms_out"] - sum(
        want[f"gate_removed_{cid}"] for cid in range(3)
    )
    assert want["refine_clipped"] > 0 and want["nms_out"] < want["nms_in"]
    if thresholds is not None:
        assert want["gate_removed_1"] > 0 == want["gate_removed_0"] == want["gate_removed_2"]


def test_detect_writes_the_object_loops_bytes(run, tmp_path, monkeypatch):
    cfg, out, manifest = _copy(run, tmp_path)
    monkeypatch.setattr(pipeline, "refine", _fallback_refine)
    monkeypatch.setattr(pipeline, "nms", _frozen_nms)
    monkeypatch.setattr(pipeline, "filter_detections", _frozen_filter)
    frozen = pipeline.stage_detect(cfg, manifest, out).read_bytes()
    assert frozen == (run[1] / "detections_test.txt").read_bytes()


def test_detect_keeps_the_proposal_boxes_a_regressor_throws_off_the_image(run, tmp_path):
    cfg, out, manifest = _copy(run, tmp_path)
    feats = load_arrays(pipeline.features_path(out, "test"))
    dim = feats[cfg.regress_channel].shape[1]
    # a regressor that places no box writes what one without categories does
    BoxRegressor(dim=dim, coefficients={}).save(pipeline.regressor_path(out))
    untrained = pipeline.stage_detect(cfg, manifest, out).read_bytes()
    coef = np.zeros((4, dim + 1))
    coef[0, dim] = 50.0  # tx = 50: every box moves 50 of its widths right
    BoxRegressor(dim=dim, coefficients={cid: coef for cid in range(3)}).save(pipeline.regressor_path(out))
    # the object forms refuse the first row
    with pytest.raises(ValueError, match="lies outside a 64x64 image$"):
        _frozen_clip_box(_frozen_apply_targets(Box(*feats["boxes"][0].tolist()), BoxTargets(50.0, 0.0, 0.0, 0.0)), 64, 64)
    assert pipeline.stage_detect(cfg, manifest, out).read_bytes() == untrained
    rows = 3 * len(feats["row_image"])
    got = _run_log(out / "runlog_detect-fused_test.txt")
    assert (got["refine_kept_proposal"], got["refine_clipped"]) == (str(rows), "0")
