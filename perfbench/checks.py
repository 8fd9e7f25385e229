"""Output checks that do not trust the program's own readers.

The parsers here follow the documented text formats (manifest, proposals,
detections, report) and the AP below is an independent re-implementation of
the documented evaluation rule, so a detector that writes wrong numbers
fails the check instead of being timed as fast.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Tuple

Box = Tuple[float, float, float, float]


def file_digests(root: Path) -> Dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def read_ground_truth(manifest: Path) -> Tuple[int, Dict[str, List[Tuple[int, Box]]]]:
    """(category count, image id -> [(category, box)]) from a manifest."""
    lines = [ln.split() for ln in manifest.read_text().splitlines() if ln.strip()]
    n_categories = int(lines[0][0])
    images: Dict[str, List[Tuple[int, Box]]] = {}
    i = 1
    while i < len(lines):
        image_id, _, count = lines[i]
        rows = lines[i + 1 : i + 1 + int(count)]
        images[image_id] = [(int(r[0]), tuple(float(v) for v in r[1:5])) for r in rows]
        i += 1 + int(count)
    return n_categories, images


def read_proposals(path: Path) -> Dict[str, List[Box]]:
    lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    out: Dict[str, List[Box]] = {}
    i = 0
    while i < len(lines):
        image_id, count = lines[i][0], int(lines[i][1])
        out[image_id] = [tuple(float(v) for v in row) for row in lines[i + 1 : i + 1 + count]]
        i += 1 + count
    return out


def read_report(path: Path) -> Tuple[Dict[int, float], float]:
    """(per-category AP, mAP line) of an eval report."""
    rows = [ln.split() for ln in path.read_text().splitlines()]
    aps = {int(r[0]): float(r[1]) for r in rows[1:-1]}
    return aps, float(rows[-1][1])


def iou(a: Box, b: Box) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def proposal_recall(proposals: Dict[str, List[Box]], gts, threshold: float = 0.5) -> float:
    """Share of ground-truth boxes covered by some proposal at IoU >= threshold."""
    total = hit = 0
    for image_id, objects in gts.items():
        boxes = proposals.get(image_id, [])
        for _, gt in objects:
            total += 1
            hit += any(iou(p, gt) >= threshold for p in boxes)
    return hit / total


def check_detections(path: Path, n_categories: int, gts, size: int) -> List[str]:
    """Problems with a detection dump: unknown images or categories, boxes off the image."""
    problems = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        image_id, cid, score, x0, y0, x1, y1 = line.split(" ")
        box = tuple(float(v) for v in (x0, y0, x1, y1))
        if image_id not in gts or not 0 <= int(cid) < n_categories:
            problems.append(f"{path.name}:{lineno}: unknown image or category")
        elif not (0.0 <= box[0] < box[2] <= size and 0.0 <= box[1] < box[3] <= size):
            problems.append(f"{path.name}:{lineno}: box {box} not inside the {size}px image")
        elif float(score) != float(score):
            problems.append(f"{path.name}:{lineno}: score is NaN")
    return problems


def average_precisions(path: Path, gts, threshold: float = 0.5) -> Dict[int, float]:
    """Per-category AP of a detection dump, by the documented rule.

    Detections are ranked by (score desc, x_min, y_min), file order breaking
    remaining ties; each claims its best-IoU unclaimed ground truth of the
    same image and category if that IoU reaches the threshold. AP is the
    area under the precision envelope over recall steps.
    """
    dets = []
    for line in path.read_text().splitlines():
        image_id, cid, score, *coords = line.split(" ")
        dets.append((image_id, int(cid), float(score), tuple(float(v) for v in coords)))
    dets.sort(key=lambda d: (-d[2], d[3][0], d[3][1]))

    num_gt: Dict[int, int] = {}
    for objects in gts.values():
        for cid, _ in objects:
            num_gt[cid] = num_gt.get(cid, 0) + 1
    claimed = set()
    flags: Dict[int, List[bool]] = {cid: [] for cid in num_gt}
    for image_id, cid, _, box in dets:
        if cid not in flags:
            continue
        best, best_j = 0.0, -1
        for j, (gcid, gbox) in enumerate(gts.get(image_id, [])):
            if gcid == cid and (image_id, j) not in claimed:
                v = iou(box, gbox)
                if v > best:
                    best, best_j = v, j
        hit = best_j >= 0 and best >= threshold
        if hit:
            claimed.add((image_id, best_j))
        flags[cid].append(hit)

    aps = {}
    for cid, ranked in flags.items():
        tp, points = 0, []
        for rank, flag in enumerate(ranked, start=1):
            tp += flag
            points.append((tp / num_gt[cid], tp / rank))
        area, prev_recall, envelope = 0.0, 0.0, 0.0
        for i in range(len(points) - 1, -1, -1):
            envelope = max(envelope, points[i][1])
            points[i] = (points[i][0], envelope)
        for recall, precision in points:
            if recall > prev_recall:
                area += (recall - prev_recall) * precision
                prev_recall = recall
        aps[cid] = area
    return aps
