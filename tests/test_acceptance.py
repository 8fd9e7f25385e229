"""Release gates: end-to-end quality bars and exact-agreement oracles.

Each test prints one [PASS]/[FAIL] line so the verdicts can be read off a
verbose run directly. The system-level tests share a single full training
run on the standard synthetic benchmark (3 classes, 200 train / 50 test
images, 96 px).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fusedet import cli, pipeline
from fusedet.classify import fuse_scores, train_svm
from fusedet.config import PipelineConfig
from fusedet.context import PresencePrior, filter_detections, presence_scores
from fusedet.core import Box, Detection, GroundTruth, iou, nms, read_detections
from fusedet.evaluation import (
    average_precision,
    match_detections,
    mean_ap,
    per_class_report,
    read_report,
)
from fusedet.features import fisher_encode, fisher_length, gmm_fit
from fusedet.manifest import read_manifest
from fusedet.pipeline import (
    CHANNELS,
    read_proposals,
    report_path,
    stage_all,
    stage_detect,
    stage_eval,
)
from fusedet.regress import apply_targets, bbox_targets, train_bbox_regressor

RUNTIME_BUDGET_S = 1800.0


def _verdict(ok: bool, text: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    return ok


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    cfg = PipelineConfig()
    t0 = time.perf_counter()
    report = stage_all(cfg, out, train_images=200, test_images=50)
    elapsed = time.perf_counter() - t0
    man = read_manifest(out / "data" / "test" / "manifest.txt")
    return {"cfg": cfg, "out": out, "report": report, "elapsed": elapsed, "man": man}


# --------------------------------------------------------------- system bars


def test_primary_end_to_end_map_and_runtime(full_run):
    m = mean_ap(read_report(full_run["report"]))
    elapsed = full_run["elapsed"]
    ok = m >= 0.80 and elapsed <= RUNTIME_BUDGET_S
    assert _verdict(
        ok,
        f"end-to-end: test mAP {m:.4f} >= 0.80 and "
        f"runtime {elapsed:.1f}s <= {RUNTIME_BUDGET_S:.0f}s",
    )


def test_primary_proposal_recall(full_run):
    props = read_proposals(full_run["out"] / "proposals_test.txt")
    total = 0
    hit = 0
    for im in full_run["man"].images:
        boxes = props[im.image_id]
        for gt in im.ground_truths:
            total += 1
            if any(iou(b, gt.box) >= 0.5 for b in boxes):
                hit += 1
    recall = hit / total
    worst_budget = max(len(b) for b in props.values())
    ok = recall >= 0.90 and worst_budget <= 2000
    assert _verdict(
        ok,
        f"proposals: recall {recall:.4f} >= 0.90 at <= 2000 per image "
        f"(max used {worst_budget})",
    )


def test_primary_fusion_not_worse_than_best_channel(full_run):
    cfg, out = full_run["cfg"], full_run["out"]
    manifest = out / "data" / "test" / "manifest.txt"
    singles = {}
    for ch in CHANNELS:
        stage_detect(cfg, manifest, out, channel=ch)
        stage_eval(cfg, manifest, out, channel=ch)
        singles[ch] = mean_ap(read_report(report_path(out, "test", ch)))
    fused = mean_ap(read_report(full_run["report"]))
    best = max(singles.values())
    ok = fused >= best - 0.02
    detail = " ".join(f"{ch}={singles[ch]:.4f}" for ch in CHANNELS)
    assert _verdict(
        ok, f"fusion: fused mAP {fused:.4f} >= best single {best:.4f} - 0.02 ({detail})"
    )


def test_primary_context_gate_removes_planted_false_positives(full_run):
    cfg, out, man = full_run["cfg"], full_run["out"], full_run["man"]
    prior = PresencePrior.load(out / "prior.model")
    feats = pipeline._stage_inputs(None, out, "test", cfg.prior_feature, man).prior
    with open(out / "detections_test.txt") as fh:
        base = read_detections(fh)

    scores_by_image = {
        im.image_id: presence_scores(feats[i], prior) for i, im in enumerate(man.images)
    }
    target = None
    for im in man.images:
        absent = set(range(man.n_categories)) - {g.category_id for g in im.ground_truths}
        s = scores_by_image[im.image_id]
        for c in sorted(absent):
            if s[c] < prior.thresholds[c]:
                target = (im.image_id, c)
                break
        if target:
            break
    assert target is not None, "no image with a gated absent category in the test split"
    image_id, cat = target

    hi = max((d.score for d in base), default=0.0) + 5.0
    plants = [
        Detection(
            image_id=image_id,
            category_id=cat,
            score=hi + k,
            box=Box(4.0 + 8 * k, 4.0 + 8 * k, 40.0 + 8 * k, 40.0 + 8 * k),
        )
        for k in range(3)
    ]
    planted = base + plants

    by_image = {}
    for d in planted:
        by_image.setdefault(d.image_id, []).append(d)
    filtered = []
    for im in man.images:
        filtered.extend(
            filter_detections(
                by_image.get(im.image_id, []),
                scores_by_image[im.image_id],
                prior.thresholds,
            )
        )

    kept = {id(d) for d in filtered}
    plants_removed = all(id(p) not in kept for p in plants)
    legit_kept = all(id(d) in kept for d in base)
    gts = man.all_ground_truths()
    map_planted = mean_ap(per_class_report(planted, gts, cfg.eval_iou))
    map_filtered = mean_ap(per_class_report(filtered, gts, cfg.eval_iou))
    ok = plants_removed and legit_kept and map_filtered >= map_planted
    assert _verdict(
        ok,
        f"context gate: 3 planted class-{cat} false positives on {image_id} removed, "
        f"no real detection lost, mAP {map_planted:.4f} -> {map_filtered:.4f}",
    )


# -------------------------------------------------------- exactness oracles


def _rand_grid_box(rng) -> Box:
    x0 = int(rng.integers(0, 8))
    y0 = int(rng.integers(0, 8))
    return Box(
        float(x0),
        float(y0),
        float(x0 + int(rng.integers(1, 6))),
        float(y0 + int(rng.integers(1, 6))),
    )


def _cells(b: Box):
    return {
        (x, y)
        for x in range(int(b.x_min), int(b.x_max))
        for y in range(int(b.y_min), int(b.y_max))
    }


def _oracle_nms(dets, thr):
    rest = sorted(dets, key=lambda d: (-d.score, d.box.x_min, d.box.y_min))
    kept = []
    while rest:
        best = rest[0]
        kept.append(best)
        rest = [d for d in rest[1:] if iou(best.box, d.box) <= thr]
    return kept


def _oracle_match(dets, gts, thr):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].box.x_min, dets[i].box.y_min))
    taken = [False] * len(gts)
    flags = [False] * len(dets)
    for i in order:
        d = dets[i]
        best_j, best_v = -1, 0.0
        for j, g in enumerate(gts):
            if taken[j] or g.image_id != d.image_id or g.category_id != d.category_id:
                continue
            v = iou(d.box, g.box)
            if v > best_v:
                best_v, best_j = v, j
        if best_j >= 0 and best_v >= thr:
            taken[best_j] = True
            flags[i] = True
    num_gt = {}
    for g in gts:
        num_gt[g.category_id] = num_gt.get(g.category_id, 0) + 1
    return flags, num_gt


def _oracle_ap(flags, num_gt):
    tp = 0
    precisions = []
    for rank, f in enumerate(flags, start=1):
        if f:
            tp += 1
        precisions.append(Fraction(tp, rank))
    total = Fraction(0)
    tp = 0
    for rank, f in enumerate(flags, start=1):
        if f:
            tp += 1
            total += max(precisions[rank - 1 :])
    return float(total / num_gt)


def test_primary_geometry_matches_brute_force_oracles():
    rng = np.random.default_rng(1449)
    score_grid = (0.25, 0.5, 0.75, 1.0)
    for trial in range(1000):
        a, b = _rand_grid_box(rng), _rand_grid_box(rng)
        ca, cb = _cells(a), _cells(b)
        assert iou(a, b) == len(ca & cb) / len(ca | cb)

        n = int(rng.integers(1, 7))
        dets = [
            Detection(
                image_id=f"im{int(rng.integers(0, 2))}",
                category_id=int(rng.integers(0, 2)),
                score=float(rng.choice(score_grid)),
                box=_rand_grid_box(rng),
            )
            for _ in range(n)
        ]
        thr = float(rng.choice((0.3, 0.5)))
        got = nms(dets, thr)
        want = _oracle_nms(dets, thr)
        assert [id(d) for d in got] == [id(d) for d in want]

        m = int(rng.integers(0, 7))
        gts = [
            GroundTruth(
                image_id=f"im{int(rng.integers(0, 2))}",
                category_id=int(rng.integers(0, 2)),
                box=_rand_grid_box(rng),
            )
            for _ in range(m)
        ]
        result = match_detections(dets, gts, 0.5)
        flags, num_gt = _oracle_match(dets, gts, 0.5)
        assert result.flags == flags
        assert result.num_gt == num_gt

        k = int(rng.integers(1, 9))
        ap_flags = [bool(rng.integers(0, 2)) for _ in range(k)]
        denom = max(1, sum(ap_flags) + int(rng.integers(0, 3)))
        assert average_precision(ap_flags, denom) == _oracle_ap(ap_flags, denom)
    assert _verdict(
        True,
        "oracles: iou, nms, matching and ap each agreed exactly with brute force "
        "on 1000 random instances",
    )


def test_primary_ap_hand_value():
    got = average_precision([True, False, True], 2)
    ok = got == float(Fraction(5, 6))
    assert _verdict(ok, f"ap: ranked [tp, fp, tp] with 2 objects scores exactly 5/6 (got {got!r})")


# ----------------------------------------------------- numerical guarantees


def test_primary_numerical_guarantees():
    rng = np.random.default_rng(77)

    # EM never lowers the recorded mean log-likelihood
    for _ in range(100):
        n = int(rng.integers(12, 40))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 2.0)) + rng.normal(size=d) * 3.0
        g = gmm_fit(X, k, 15, 1e-12, int(rng.integers(2**31)), 1e-4)
        ll = g.log_likelihoods
        assert len(ll) >= 1
        for prev, cur in zip(ll, ll[1:]):
            assert cur >= prev - 1e-9 * max(1.0, abs(prev))

    # a single component is the closed-form Gaussian MLE
    X = rng.normal(size=(50, 3)) + np.array([2.0, -1.0, 0.5])
    g = gmm_fit(X, 1, 10, 1e-9, 123, 1e-6)
    assert np.all(np.abs(g.means[0] - X.mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(g.variances[0] - X.var(axis=0)) <= 1e-9)
    assert abs(g.weights[0] - 1.0) <= 1e-12

    # Fisher vectors: length, normalization, order independence
    d, k = 4, 3
    fit = np.concatenate([rng.normal(size=(60, d)) - 2.0, rng.normal(size=(60, d)) + 2.0])
    gmm = gmm_fit(fit, k, 25, 1e-9, 5, 1e-4)
    desc = rng.normal(size=(30, d)) * 1.3 + 0.2
    v = fisher_encode(desc, gmm)
    assert v.shape == (fisher_length(d, k),)
    assert fisher_length(d, k) == (2 * d + 1) * k
    assert abs(float(np.sqrt(v @ v)) - 1.0) <= 1e-6
    v2 = fisher_encode(desc[rng.permutation(len(desc))], gmm)
    assert np.allclose(v2, v, rtol=0.0, atol=1e-9)

    # box transforms invert each other
    def rand_box():
        x0 = float(rng.uniform(0, 50))
        y0 = float(rng.uniform(0, 50))
        return Box(x0, y0, x0 + float(rng.uniform(1, 40)), y0 + float(rng.uniform(1, 40)))

    for _ in range(200):
        p, gt = rand_box(), rand_box()
        back = apply_targets(p, bbox_targets(p, gt))
        assert abs(back.x_min - gt.x_min) <= 1e-9
        assert abs(back.y_min - gt.y_min) <= 1e-9
        assert abs(back.x_max - gt.x_max) <= 1e-9
        assert abs(back.y_max - gt.y_max) <= 1e-9

    # ridge coefficients satisfy their normal equations
    n, dim, lam = 30, 3, 0.5
    X = rng.normal(size=(n, dim))
    proposals = [Box(10.0 + 2 * i, 20.0, 110.0 + 2 * i, 120.0) for i in range(n)]
    gts = []
    for i, p in enumerate(proposals):
        shifted = Box(
            p.x_min + float(rng.uniform(-2, 2)),
            p.y_min + float(rng.uniform(-2, 2)),
            p.x_max + float(rng.uniform(-2, 2)),
            p.y_max + float(rng.uniform(-2, 2)),
        )
        assert iou(p, shifted) >= 0.6
        gts.append(GroundTruth(image_id=f"im{i}", category_id=0, box=shifted))
    reg = train_bbox_regressor(X, proposals, gts, lam, 0.6)
    C = reg.coefficients[0]
    A = np.hstack([X, np.ones((n, 1))])
    G = A.T @ A + lam * np.diag([1.0] * dim + [0.0])
    T = np.stack([bbox_targets(p, g.box).as_array() for p, g in zip(proposals, gts)])
    rhs = A.T @ T
    resid = float(np.linalg.norm(G @ C.T - rhs))
    assert resid <= 1e-8 * max(1.0, float(np.linalg.norm(rhs)))

    # a separable problem is classified perfectly
    half = 30
    pos = rng.normal(size=(half, 4)) * 0.3 + np.array([3.0, 0.0, 0.0, 0.0])
    neg = rng.normal(size=(half, 4)) * 0.3 - np.array([3.0, 0.0, 0.0, 0.0])
    Xs = np.vstack([pos, neg])
    ys = np.concatenate([np.ones(half), -np.ones(half)])
    model = train_svm(Xs, ys, 1e-3, 20, 42)
    pred = np.where(model.scores(Xs) > 0, 1.0, -1.0)
    accuracy = float((pred == ys).mean())
    assert accuracy == 1.0

    assert _verdict(
        True,
        "numerics: em monotone (100 fixtures), k=1 gmm = gaussian mle, fisher "
        "length/norm/permutation, box transform round-trip, ridge normal "
        "equations, separable svm accuracy 1.0",
    )


# ------------------------------------------------------------- repeatability


def test_primary_repeat_runs_are_byte_identical(tmp_path, capsys):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main(["all", "--out-dir", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0].startswith("report ")
        assert lines[1].startswith("mAP ")
        runs.append(
            {
                "map_line": lines[1],
                "report": (out / "report_test.txt").read_bytes(),
                "detections": (out / "detections_test.txt").read_bytes(),
            }
        )
    ok = (
        runs[0]["report"] == runs[1]["report"]
        and runs[0]["detections"] == runs[1]["detections"]
        and runs[0]["map_line"] == runs[1]["map_line"]
    )
    assert _verdict(
        ok,
        "determinism: two full runs produced byte-identical reports and "
        f"detection dumps ({runs[0]['map_line']})",
    )


def test_primary_fused_vector_length():
    n = 200
    cnn = np.arange(n, dtype=np.float64)
    hog = np.arange(n, dtype=np.float64) + 1000
    ifv = np.arange(n, dtype=np.float64) + 2000
    fused = fuse_scores(cnn, hog, ifv)
    ok = (
        fused.shape == (3 * n,)
        and np.array_equal(fused[:n], cnn)
        and np.array_equal(fused[n : 2 * n], hog)
        and np.array_equal(fused[2 * n :], ifv)
    )
    assert _verdict(ok, f"fusion layout: 3 channels of {n} scores concatenate to {fused.shape[0]}")
