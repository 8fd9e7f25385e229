"""Box transform targets and the per-category ridge refinement."""

import tracemalloc

import numpy as np
import pytest

from fusedet.core import Box, GroundTruth, box_corners, iou
from fusedet.modelio import write_model
from fusedet.regress import (
    BoxRegressor,
    BoxTargets,
    apply_targets,
    bbox_targets,
    train_bbox_regressor,
    refine,
)


def _rand_box(rng, span=80.0):
    x0 = rng.uniform(0, span)
    y0 = rng.uniform(0, span)
    return Box(x0, y0, x0 + rng.uniform(5, 30), y0 + rng.uniform(5, 30))


def _corners(b):
    return (b.x_min, b.y_min, b.x_max, b.y_max)


# -------------------------------------------------------------------- targets


def test_identical_boxes_give_zero_targets():
    b = Box(3.0, 4.0, 13.0, 24.0)
    t = bbox_targets(b, b)
    assert (t.tx, t.ty, t.tw, t.th) == (0.0, 0.0, 0.0, 0.0)


def test_target_hand_values():
    t = bbox_targets(Box(0, 0, 10, 10), Box(5, 5, 15, 15))
    assert (t.tx, t.ty, t.tw, t.th) == (0.5, 0.5, 0.0, 0.0)
    t = bbox_targets(Box(0, 0, 10, 10), Box(0, 0, 20, 10))
    assert t.tx == 0.5 and t.ty == 0.0
    assert abs(t.tw - np.log(2.0)) <= 1e-15 and t.th == 0.0


def test_targets_apply_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = _rand_box(rng)
        g = _rand_box(rng)
        got = apply_targets(p, bbox_targets(p, g))
        for a, b in zip(_corners(got), _corners(g)):
            assert abs(a - b) <= 1e-9


def test_apply_targets_round_trip_in_target_space():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = _rand_box(rng)
        t = BoxTargets(*rng.uniform(-0.4, 0.4, size=4))
        back = bbox_targets(p, apply_targets(p, t))
        assert abs(back.tx - t.tx) <= 1e-9
        assert abs(back.ty - t.ty) <= 1e-9
        assert abs(back.tw - t.tw) <= 1e-9
        assert abs(back.th - t.th) <= 1e-9


def test_zero_targets_keep_the_box():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = _rand_box(rng)
        got = apply_targets(p, BoxTargets(0.0, 0.0, 0.0, 0.0))
        for a, b in zip(_corners(got), _corners(p)):
            assert abs(a - b) <= 1e-12


def test_targets_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        BoxTargets(float("nan"), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        BoxTargets(0.0, float("inf"), 0.0, 0.0)


# ------------------------------------------------------------------- training


def _linear_fixture(rng, n=40, dim=3, scale=0.02):
    """Pairs whose true transform is exactly linear in the feature."""
    W = rng.normal(size=(4, dim + 1)) * scale
    X = rng.normal(size=(n, dim))
    proposals, gts = [], []
    for i in range(n):
        p = Box(10.0 + 3.0 * i, 20.0, 110.0 + 3.0 * i, 120.0)
        t = W @ np.append(X[i], 1.0)
        g = apply_targets(p, BoxTargets(*t))
        proposals.append(p)
        gts.append(GroundTruth(image_id="im", category_id=0, box=g))
    return W, X, proposals, gts


def test_training_recovers_an_exactly_linear_transform():
    rng = np.random.default_rng(3)
    W, X, proposals, gts = _linear_fixture(rng)
    assert all(iou(p, g.box) >= 0.6 for p, g in zip(proposals, gts))
    reg = train_bbox_regressor(X, proposals, gts, ridge_lambda=1e-9)
    assert list(reg.coefficients) == [0]
    assert np.allclose(reg.coefficients[0], W, atol=1e-6)
    for i in range(10):
        pred = reg.coefficients[0] @ np.append(X[i], 1.0)
        true = W @ np.append(X[i], 1.0)
        assert np.allclose(pred, true, atol=1e-6)


def test_huge_ridge_collapses_predictions_to_target_mean():
    rng = np.random.default_rng(4)
    _, X, proposals, gts = _linear_fixture(rng)
    reg = train_bbox_regressor(X, proposals, gts, ridge_lambda=1e12)
    T = np.stack([bbox_targets(p, g.box).as_array() for p, g in zip(proposals, gts)])
    mean = T.mean(axis=0)
    for i in range(10):
        assert np.allclose(reg.coefficients[0] @ np.append(X[i], 1.0), mean, atol=1e-6)


def test_coefficients_satisfy_the_normal_equations():
    rng = np.random.default_rng(5)
    _, X, proposals, gts = _linear_fixture(rng)
    lam = 0.5
    reg = train_bbox_regressor(X, proposals, gts, ridge_lambda=lam)
    A = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    T = np.stack([bbox_targets(p, g.box).as_array() for p, g in zip(proposals, gts)])
    gram = A.T @ A + lam * np.diag(np.append(np.ones(X.shape[1]), 0.0))
    rhs = A.T @ T
    resid = np.linalg.norm(gram @ reg.coefficients[0].T - rhs)
    assert resid <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_constant_shift_is_learned_and_iou_improves():
    # every proposal sits 5 px right of its object; a constant feature can
    # only learn the bias, which suffices here
    proposals, gts = [], []
    for i in range(12):
        g = Box(10.0 + 11.0 * i, 30.0, 30.0 + 11.0 * i, 40.0)
        p = Box(g.x_min + 5.0, g.y_min, g.x_max + 5.0, g.y_max)
        proposals.append(p)
        gts.append(GroundTruth(image_id="im", category_id=0, box=g))
    X = np.ones((12, 1))
    reg = train_bbox_regressor(X, proposals, gts, ridge_lambda=1e-6)
    refined, kept, _ = refine(box_corners(proposals), X, reg, 0, image_width=200, image_height=100)
    assert not kept.any()
    for p, ref, g in zip(proposals, refined.tolist(), gts):
        for a, b in zip(ref, _corners(g.box)):
            assert abs(a - b) <= 0.1
        assert iou(Box(*ref), g.box) >= iou(p, g.box) - 1e-12


def _jittered_pairs(rng, n, dim, category_id=0):
    """n proposals, each with a ground truth a few pixels off, and random
    feature rows, so the targets are not linear in the features."""
    X = rng.normal(size=(n, dim))
    proposals, gts = [], []
    for i in range(n):
        p = Box(10.0 + 2.0 * i, 20.0, 90.0 + 2.0 * i, 100.0)
        dx0, dy0, dx1, dy1 = rng.uniform(-4.0, 4.0, size=4)
        g = Box(p.x_min + dx0, p.y_min + dy0, p.x_max + dx1, p.y_max + dy1)
        proposals.append(p)
        gts.append(GroundTruth(image_id="im", category_id=category_id, box=g))
    return X, proposals, gts


@pytest.mark.parametrize("lam", [1e-9, 0.5, 1e12])
@pytest.mark.parametrize("n, dim", [(40, 7), (9, 60)], ids=["tall", "wide"])
def test_normal_equations_hold_for_tall_and_wide_pairs(n, dim, lam):
    X, proposals, gts = _jittered_pairs(np.random.default_rng(n + dim), n, dim)
    reg = train_bbox_regressor(X, proposals, gts, ridge_lambda=lam)
    A = np.concatenate([X, np.ones((n, 1))], axis=1)
    T = np.stack([bbox_targets(p, g.box).as_array() for p, g in zip(proposals, gts)])
    gram = A.T @ A + lam * np.diag(np.append(np.ones(dim), 0.0))
    C = reg.coefficients[0].T
    resid = np.linalg.norm(gram @ C - A.T @ T)
    # the largest term the products sum, so the bound holds whatever lambda is
    assert resid <= 1e-9 * max(1.0, np.linalg.norm(A.T @ T), lam * np.linalg.norm(C[:dim]))
    if lam == 1e12:
        assert np.allclose(A @ C, T.mean(axis=0), atol=1e-9)


@pytest.mark.parametrize("lam", [1e-9, 1e12])
def test_a_category_of_one_pair_predicts_its_target_everywhere(lam):
    rng = np.random.default_rng(6)
    X, proposals, gts = _jittered_pairs(rng, 12, 5)
    x1, p1, g1 = _jittered_pairs(rng, 1, 5, category_id=2)
    reg = train_bbox_regressor(np.concatenate([X, x1]), proposals + p1, gts + g1, ridge_lambda=lam)
    coef = reg.coefficients[2]
    assert np.array_equal(coef[:, :5], np.zeros((4, 5)))
    assert np.array_equal(coef[:, 5], bbox_targets(p1[0], g1[0].box).as_array())
    assert sorted(reg.coefficients) == [0, 2]


def test_training_memory_follows_the_pairs_not_the_width():
    # 40 pairs of 4096-d rows: the rows take 1.3 MB, while a normal-equations
    # matrix of the bias-augmented width would alone take 134 MB
    X, proposals, gts = _jittered_pairs(np.random.default_rng(8), 40, 4096)
    tracemalloc.start()
    try:
        reg = train_bbox_regressor(X, proposals, gts, ridge_lambda=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reg.coefficients[0].shape == (4, 4097)
    assert peak < 16 * 2**20


def test_pairs_below_the_iou_gate_are_dropped():
    proposals = [Box(0, 0, 10, 10), Box(100, 100, 110, 110)]
    gts = [
        GroundTruth(image_id="a", category_id=0, box=Box(0, 0, 10, 10)),
        GroundTruth(image_id="a", category_id=1, box=Box(0, 0, 10, 10)),  # iou 0
    ]
    X = np.array([[1.0], [2.0]])
    reg = train_bbox_regressor(X, proposals, gts, ridge_lambda=1e-3)
    assert list(reg.coefficients) == [0]


def test_train_validates_inputs():
    with pytest.raises(ValueError, match="parallel"):
        train_bbox_regressor(np.zeros((2, 1)), [Box(0, 0, 1, 1)], [], 0.1)
    gts = [GroundTruth(image_id="a", category_id=0, box=Box(0, 0, 1, 1))]
    with pytest.raises(ValueError, match="positive"):
        train_bbox_regressor(np.zeros((1, 1)), [Box(0, 0, 1, 1)], gts, 0.0)


# ----------------------------------------------------------------- refinement


def _shift_x(tx):
    """A regressor of 1-d features whose category 0 moves every box by tx widths."""
    coef = np.zeros((4, 2))
    coef[0, 1] = tx
    return BoxRegressor(dim=1, coefficients={0: coef})


def _refine_box(box, reg, side, cid=0):
    """refine of one box: its corners and whether it kept its proposal and was clipped."""
    out, kept, clipped = refine(box_corners([box]), np.zeros((1, reg.dim)), reg, cid, side, side)
    return out[0].tolist(), bool(kept[0]), bool(clipped[0])


def test_untrained_category_passes_through():
    reg = BoxRegressor(dim=2, coefficients={})
    assert _refine_box(Box(0, 0, 10, 10), reg, 50, cid=3) == ([0.0, 0.0, 10.0, 10.0], False, False)


def test_refine_clips_to_the_image():
    # bias-only transform shifting the center by half a width
    assert _refine_box(Box(0, 0, 10, 10), _shift_x(0.5), 12) == ([5.0, 0.0, 12.0, 10.0], False, True)


def test_refine_propagates_clip_errors():
    # a box the regressor moves off the image cannot be clipped into it; refine
    # reports that through the kept-proposal mask and keeps the proposal box
    assert _refine_box(Box(0, 0, 10, 10), _shift_x(5.0), 20) == ([0.0, 0.0, 10.0, 10.0], True, False)


def test_refine_validates_feature_rows():
    reg = BoxRegressor(dim=1, coefficients={})
    with pytest.raises(ValueError, match="one feature row per detection"):
        refine(box_corners([Box(0, 0, 10, 10)]), np.zeros((2, 1)), reg, 0, image_width=20, image_height=20)


def test_refine_checks_the_feature_width_of_a_trained_category_only():
    reg = BoxRegressor(dim=2, coefficients={1: np.zeros((4, 3))})
    corners = box_corners([Box(0, 0, 4, 4)])
    with pytest.raises(ValueError, match=r"^feature has shape \(3,\), expected \(2,\)$"):
        refine(corners, np.zeros((1, 3)), reg, 1, 10, 10)
    out, kept, clipped = refine(corners, np.zeros((1, 3)), reg, 0, 10, 10)
    assert out.tolist() == corners.tolist() and not kept.any() and not clipped.any()


def test_regressor_validates_coefficient_shapes():
    with pytest.raises(ValueError, match=r"category 5: expected \(4, 3\)"):
        BoxRegressor(dim=2, coefficients={5: np.zeros((4, 4))})
    bad = np.zeros((4, 3))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="category 2: non-finite"):
        BoxRegressor(dim=2, coefficients={2: bad})


def test_save_load_round_trips_bits_including_empty(tmp_path):
    rng = np.random.default_rng(6)
    reg = BoxRegressor(
        dim=3,
        coefficients={0: rng.normal(size=(4, 4)), 4: rng.normal(size=(4, 4))},
    )
    path = tmp_path / "reg.txt"
    reg.save(path)
    loaded = BoxRegressor.load(path)
    assert loaded.dim == 3
    assert sorted(loaded.coefficients) == [0, 4]
    for cid in (0, 4):
        assert np.array_equal(loaded.coefficients[cid], reg.coefficients[cid])

    empty = BoxRegressor(dim=7, coefficients={})
    empty.save(tmp_path / "empty.txt")
    loaded = BoxRegressor.load(tmp_path / "empty.txt")
    assert loaded.dim == 7 and loaded.coefficients == {}


@pytest.mark.parametrize(
    "dim, ids, why",
    [
        ("2", [1.9], "category ids must be non-negative whole numbers, got 1.9"),
        ("2", [-1.0], "category ids must be non-negative whole numbers, got -1.0"),
        ("1_0", [1.0], "expected a non-negative integer, got '1_0'"),
        ("+2", [1.0], "expected a non-negative integer, got '+2'"),
        ("x", [1.0], "expected a non-negative integer, got 'x'"),
    ],
    ids=["id-1.9", "id-negative", "dim-1_0", "dim-plus", "dim-x"],
)
def test_load_takes_only_whole_category_ids_and_a_count_for_dim(tmp_path, dim, ids, why):
    # int() would read category 1.9 as 1, and dim 1_0 as 10
    path = tmp_path / "regressor.model"
    width = 11 if dim == "1_0" else 3
    arrays = {"category_ids": np.array([ids]), "category_1": np.zeros((4, width))}
    write_model(path, "bbox-regressor", {"dim": dim}, arrays)
    with pytest.raises(ValueError) as err:
        BoxRegressor.load(path)
    assert str(err.value) == f"{path}: not a valid box regressor: {why}"
