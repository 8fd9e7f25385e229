"""Detection matching, per-category average precision, mAP, and cross-run
category win counts.

AP uses all-point interpolation (the precision-recall curve made
non-increasing from the right) computed in exact rational arithmetic and
rounded to float once, so fixture values like 5/6 come out bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

from . import modelio
from .core import Detection, GroundTruth, detection_sort_key, iou


@dataclass
class MatchResult:
    """flags[i] says whether detections[i] (input order) matched a ground truth."""

    flags: List[bool]
    num_gt: Dict[int, int]  # per category, over all images


@dataclass
class PerClassReport:
    """AP per category, restricted to categories with at least one ground truth."""

    aps: Dict[int, float]
    num_gt: Dict[int, int]


def match_detections(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    iou_threshold: float = 0.5,
) -> MatchResult:
    """Greedy TP/FP assignment per image and category.

    Detections are visited in descending score (ties as in core.nms); each
    claims its best-IoU not-yet-claimed ground truth of the same image and
    category if that IoU reaches the threshold, else it is a false positive.
    """
    gt_pool: Dict[tuple, List[GroundTruth]] = {}
    num_gt: Dict[int, int] = {}
    for gt in ground_truths:
        gt_pool.setdefault((gt.image_id, gt.category_id), []).append(gt)
        num_gt[gt.category_id] = num_gt.get(gt.category_id, 0) + 1

    order = sorted(range(len(detections)), key=lambda i: detection_sort_key(detections[i]))
    claimed: Dict[tuple, List[bool]] = {k: [False] * len(v) for k, v in gt_pool.items()}
    flags = [False] * len(detections)
    for i in order:
        det = detections[i]
        key = (det.image_id, det.category_id)
        candidates = gt_pool.get(key, [])
        best_j = -1
        best_iou = 0.0
        for j, gt in enumerate(candidates):
            if claimed[key][j]:
                continue
            v = iou(det.box, gt.box)
            if v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            claimed[key][best_j] = True
            flags[i] = True
    return MatchResult(flags=flags, num_gt=num_gt)


def average_precision(flags: Sequence[bool], num_gt: int) -> float:
    """Area under the interpolated precision-recall curve.

    flags must already be ranked by descending score. Recall steps use
    num_gt as denominator, so undetected objects pull AP down.
    """
    if num_gt < 1:
        raise ValueError("num_gt must be >= 1; exclude empty categories upstream")
    tp = 0
    # (recall, precision) after each detection, as exact rationals
    curve = []
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
        curve.append((Fraction(tp, num_gt), Fraction(tp, rank)))
    if tp == 0:
        return 0.0

    # envelope[i] = best precision at rank >= i; recall only grows with
    # rank, so this is the interpolated precision at curve[i]'s recall
    envelope = [Fraction(0)] * len(curve)
    best = Fraction(0)
    for i in range(len(curve) - 1, -1, -1):
        if curve[i][1] > best:
            best = curve[i][1]
        envelope[i] = best

    area = Fraction(0)
    prev_recall = Fraction(0)
    for i, (recall, _) in enumerate(curve):
        if recall > prev_recall:
            area += (recall - prev_recall) * envelope[i]
            prev_recall = recall
    return float(area)


def per_class_report(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    iou_threshold: float = 0.5,
) -> PerClassReport:
    """AP for every category that has at least one ground truth."""
    result = match_detections(detections, ground_truths, iou_threshold)
    order = sorted(range(len(detections)), key=lambda i: detection_sort_key(detections[i]))
    ranked: Dict[int, List[bool]] = {cid: [] for cid in result.num_gt}
    for i in order:
        cid = detections[i].category_id
        if cid in ranked:
            ranked[cid].append(result.flags[i])
    aps = {cid: average_precision(ranked[cid], result.num_gt[cid]) for cid in sorted(ranked)}
    return PerClassReport(aps=aps, num_gt=dict(result.num_gt))


def mean_ap(report: PerClassReport) -> float:
    if not report.aps:
        raise ValueError("no categories with ground truth; cannot average")
    return float(np.mean([report.aps[cid] for cid in sorted(report.aps)]))


def categories_won(reports: Dict[str, PerClassReport]) -> Dict[str, int]:
    """Per-name count of categories where that report's AP is strictly best.

    Exact ties award nobody. All reports must cover the same categories.
    """
    names = sorted(reports)
    if not names:
        return {}
    category_sets = {name: set(reports[name].aps) for name in names}
    base = category_sets[names[0]]
    for name in names[1:]:
        if category_sets[name] != base:
            raise ValueError(
                f"report {name!r} covers different categories than {names[0]!r}"
            )
    wins = {name: 0 for name in names}
    for cid in sorted(base):
        values = [(reports[name].aps[cid], name) for name in names]
        top = max(v for v, _ in values)
        leaders = [name for v, name in values if v == top]
        if len(leaders) == 1:
            wins[leaders[0]] += 1
    return wins


def write_report(path, report: PerClassReport) -> None:
    with open(path, "w") as fh:
        fh.write("category ap num_gt\n")
        for cid in sorted(report.aps):
            fh.write(f"{cid} {modelio.fmt_float(report.aps[cid])} {report.num_gt[cid]}\n")
        fh.write(f"mAP {modelio.fmt_float(mean_ap(report))}\n")


def read_report(path) -> PerClassReport:
    aps: Dict[int, float] = {}
    num_gt: Dict[int, int] = {}
    with open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0].split() != ["category", "ap", "num_gt"]:
        raise ValueError(f"{path}:1: expected header 'category ap num_gt'")
    if not lines[-1].startswith("mAP "):
        raise ValueError(f"{path}: missing trailing mAP line")
    for lineno, line in enumerate(lines[1:-1], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'category ap num_gt'")
        try:
            if not (modelio.is_count(parts[0]) and modelio.is_count(parts[2])):
                raise ValueError
            cid, ap, n = int(parts[0]), modelio.parse_real(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed report row {line!r}") from None
        if cid in aps:
            raise ValueError(f"{path}:{lineno}: duplicate category {cid}")
        aps[cid] = ap
        num_gt[cid] = n
    return PerClassReport(aps=aps, num_gt=num_gt)
