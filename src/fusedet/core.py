"""Geometry primitives and detection records shared by every pipeline stage.

Boxes are continuous (real-valued corners) in an image frame with the origin
at the top-left corner, x growing right and y growing down. A box must have
strictly positive area; degenerate boxes are rejected at construction so the
rest of the code never has to re-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, TextIO

import numpy as np

from . import modelio

# nms compares this many sorted rows with the later rows at a time, so an
# image of thousands of boxes never holds its whole pairwise IoU matrix
NMS_BLOCK = 128


@dataclass(frozen=True)
class Box:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"box must have positive area, got "
                f"({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


@dataclass(frozen=True)
class Detection:
    image_id: str
    box: Box
    category_id: int
    score: float

    def __post_init__(self):
        if self.category_id < 0:
            raise ValueError(f"category_id must be non-negative, got {self.category_id}")


@dataclass(frozen=True)
class GroundTruth:
    image_id: str
    box: Box
    category_id: int

    def __post_init__(self):
        if self.category_id < 0:
            raise ValueError(f"category_id must be non-negative, got {self.category_id}")


def box_corners(boxes: Sequence[Box]) -> np.ndarray:
    """(len(boxes), 4) float64 array of x_min, y_min, x_max, y_max rows."""
    return np.array(
        [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], dtype=np.float64
    ).reshape(-1, 4)


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes.

    Boxes that share only an edge have zero-area intersection and IoU 0.
    """
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) IoUs of two arrays of x_min, y_min, x_max, y_max
    rows, with `iou`'s operations in `iou`'s order, so each value has its
    bits. Boxes that share only an edge have IoU 0."""
    ax0, ay0, ax1, ay1 = (v[:, None] for v in a.T)
    bx0, by0, bx1, by1 = b.T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ix = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
        iy = np.minimum(ay1, by1) - np.maximum(ay0, by0)
        inter = ix * iy
        ratio = inter / (((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0)) - inter)
    return np.where((ix <= 0.0) | (iy <= 0.0), 0.0, ratio)


def detection_sort_key(d: Detection):
    # total order: score descending, then top-left corner ascending; shared
    # by nms and the evaluation matcher so both stay bit-reproducible
    return (-d.score, d.box.x_min, d.box.y_min)


def nms(detections: Sequence[Detection], iou_threshold: float) -> List[Detection]:
    """Greedy non-maximum suppression over one image and one category.

    Repeatedly keeps the highest-scoring remaining detection and discards
    every remaining detection overlapping it with IoU > iou_threshold.
    Ties are broken by (score desc, x_min asc, y_min asc) so runs are
    bit-reproducible. Output is sorted by that same key.

    The boxes are compared with `iou_array`, NMS_BLOCK sorted rows against
    every later row at a time, so each decision is the one the pairwise
    loop would make.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    n = len(detections)
    scores = np.array([d.score for d in detections], dtype=np.float64)
    corners = box_corners([d.box for d in detections])
    # lexsort is stable and its last key leads: the order of detection_sort_key
    order = np.lexsort((corners[:, 1], corners[:, 0], -scores))
    corners = corners[order]
    alive = np.ones(n, dtype=bool)
    for lo in range(0, n, NMS_BLOCK):
        rows = lo + np.flatnonzero(alive[lo : lo + NMS_BLOCK])
        if not rows.size:
            continue
        # iou's `<=`: a NaN ratio drops
        spared = iou_array(corners[rows], corners[lo:]) <= iou_threshold
        for k, r in enumerate(rows.tolist()):
            if alive[r]:
                alive[r + 1 :] &= spared[k, r + 1 - lo :]
    return [detections[i] for i in order[alive].tolist()]


def format_detection(d: Detection) -> str:
    """One dump line: image_id category_id score x_min y_min x_max y_max."""
    return (
        f"{d.image_id} {d.category_id} {d.score:.6f} "
        f"{d.box.x_min:.6f} {d.box.y_min:.6f} {d.box.x_max:.6f} {d.box.y_max:.6f}"
    )


def write_detections(detections: Iterable[Detection], stream: TextIO) -> None:
    for d in detections:
        stream.write(format_detection(d) + "\n")


def parse_detection_line(line: str, lineno: int = 0, source: Optional[str] = None) -> Detection:
    """One dump line as a Detection. Every error is a ValueError prefixed
    '<source>:<lineno>:', or 'line <lineno>:' when no source is named."""
    where = f"{source}:{lineno}" if source is not None else f"line {lineno}"
    parts = line.split(" ")
    if len(parts) != 7:
        raise ValueError(f"{where}: expected 7 fields, got {len(parts)}")
    image_id = parts[0]
    if not image_id:
        raise ValueError(f"{where}: empty image id")
    try:
        if not modelio.is_count(parts[1].removeprefix("-")):
            raise ValueError(f"invalid literal for int() with base 10: {parts[1]!r}")
        category_id = int(parts[1])
        score, *coords = modelio.parse_floats(parts[2:])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not all(math.isfinite(v) for v in [score, *coords]):
        raise ValueError(f"{where}: non-finite score or coordinate")
    try:
        return Detection(image_id, Box(*coords), category_id, score)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_detections(stream: TextIO) -> List[Detection]:
    """The detections of a dump; errors name the stream's file (its `name`,
    when it has one) and the line."""
    source = getattr(stream, "name", None)
    out = []
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        out.append(parse_detection_line(line, lineno, source))
    return out
