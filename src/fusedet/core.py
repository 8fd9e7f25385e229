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

from . import modelio


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
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    remaining = sorted(detections, key=detection_sort_key)
    kept: List[Detection] = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if iou(best.box, d.box) <= iou_threshold]
    return kept


def clip_box(b: Box, width: float, height: float) -> Box:
    """Clamp a box into [0, width] x [0, height].

    Raises ValueError if the clamped box has zero area (box entirely
    outside the image).
    """
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
        score = float(parts[2])
        coords = [float(p) for p in parts[3:]]
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
