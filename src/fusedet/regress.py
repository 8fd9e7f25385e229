"""Per-category bounding-box refinement.

Proposals that land near a ground-truth object rarely coincide with it, so a
per-category ridge regressor learns a corrective transform from appearance
features: normalized center offsets plus log size ratios. Categories that
never see a training pair stay untrained and pass boxes through unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.linalg

from . import modelio
from .core import Box, Detection, GroundTruth, clip_box, iou


@dataclass(frozen=True)
class BoxTargets:
    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self):
        vals = (self.tx, self.ty, self.tw, self.th)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"targets must be finite, got {vals}")

    def as_array(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tw, self.th])


def bbox_targets(proposal: Box, gt: Box) -> BoxTargets:
    px, py = proposal.center
    gx, gy = gt.center
    return BoxTargets(
        tx=(gx - px) / proposal.width,
        ty=(gy - py) / proposal.height,
        tw=math.log(gt.width / proposal.width),
        th=math.log(gt.height / proposal.height),
    )


def apply_targets(proposal: Box, t: BoxTargets) -> Box:
    px, py = proposal.center
    cx = proposal.width * t.tx + px
    cy = proposal.height * t.ty + py
    w = proposal.width * math.exp(t.tw)
    h = proposal.height * math.exp(t.th)
    return Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


@dataclass
class BoxRegressor:
    """4x(dim+1) ridge coefficients per trained category; last column is bias."""

    dim: int
    coefficients: Dict[int, np.ndarray]

    def __post_init__(self):
        for cid, coef in self.coefficients.items():
            coef = np.asarray(coef, dtype=np.float64)
            if coef.shape != (4, self.dim + 1):
                raise ValueError(
                    f"category {cid}: expected (4, {self.dim + 1}) coefficients, got {coef.shape}"
                )
            if not np.all(np.isfinite(coef)):
                raise ValueError(f"category {cid}: non-finite coefficients")
            self.coefficients[cid] = coef

    def is_trained(self, category_id: int) -> bool:
        return category_id in self.coefficients

    def predict(self, category_id: int, feature: np.ndarray) -> Optional[BoxTargets]:
        """Predicted transform, or None when the category is untrained."""
        if category_id not in self.coefficients:
            return None
        x = np.asarray(feature, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"feature has shape {x.shape}, expected ({self.dim},)")
        t = self.coefficients[category_id] @ np.append(x, 1.0)
        return BoxTargets(tx=float(t[0]), ty=float(t[1]), tw=float(t[2]), th=float(t[3]))

    def save(self, path) -> None:
        ids = sorted(self.coefficients)
        arrays = {"category_ids": np.asarray(ids, dtype=np.float64).reshape(1, -1)}
        if not ids:
            arrays["category_ids"] = np.zeros((1, 0))
        for cid in ids:
            arrays[f"category_{cid}"] = self.coefficients[cid]
        modelio.write_model(path, "bbox-regressor", {"dim": str(self.dim)}, arrays)

    @classmethod
    def load(cls, path) -> "BoxRegressor":
        """The regressor saved at path; ValueError naming the file if it holds none."""
        meta, arrays = modelio.read_model(path, "bbox-regressor")
        try:
            ids = [int(v) for v in arrays["category_ids"][0]]
            return cls(dim=int(meta["dim"]), coefficients={cid: arrays[f"category_{cid}"] for cid in ids})
        except (KeyError, IndexError, OverflowError, ValueError) as exc:
            raise ValueError(f"{path}: not a valid box regressor: {exc}") from None


def train_bbox_regressor(
    features: np.ndarray,
    proposals: Sequence[Box],
    gts: Sequence[GroundTruth],
    ridge_lambda: float,
    match_iou: float = 0.6,
) -> BoxRegressor:
    """Closed-form ridge fit of box transforms, grouped by category.

    The three sequences are parallel: gts[i] is the best-overlap ground truth
    for proposals[i]; pairs below match_iou are dropped here. Per category
    and per target coordinate the solution satisfies the normal equations
    (X'X + lambda*D) w = X't over the bias-augmented design matrix, with D
    the identity except a zero in the bias slot so the intercept is free
    (a very large lambda then drives predictions to the target mean).
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or not (X.shape[0] == len(proposals) == len(gts)):
        raise ValueError("features, proposals and gts must be parallel")
    if ridge_lambda <= 0:
        raise ValueError("ridge_lambda must be positive")
    dim = X.shape[1]

    by_category: Dict[int, List[int]] = {}
    for i, (p, g) in enumerate(zip(proposals, gts)):
        if iou(p, g.box) >= match_iou:
            by_category.setdefault(g.category_id, []).append(i)

    coefficients: Dict[int, np.ndarray] = {}
    reg = ridge_lambda * np.diag(np.append(np.ones(dim), 0.0))
    for cid, rows in sorted(by_category.items()):
        A = np.concatenate([X[rows], np.ones((len(rows), 1))], axis=1)
        T = np.stack([bbox_targets(proposals[i], gts[i].box).as_array() for i in rows])
        gram = A.T @ A + reg
        coefficients[cid] = scipy.linalg.solve(gram, A.T @ T, assume_a="pos").T
    return BoxRegressor(dim=dim, coefficients=coefficients)


def refine(
    detections: Sequence[Detection],
    features: np.ndarray,
    regressor: BoxRegressor,
    image_width: int,
    image_height: int,
) -> List[Detection]:
    """Applies each detection's predicted transform and clips to the image.

    features[i] belongs to detections[i]. Untrained categories pass through
    untouched; clip errors (refined box fully outside the image) propagate.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(detections):
        raise ValueError("one feature row per detection required")
    out = []
    for det, x in zip(detections, X):
        t = regressor.predict(det.category_id, x)
        if t is None:
            out.append(det)
            continue
        refined = clip_box(apply_targets(det.box, t), image_width, image_height)
        out.append(Detection(image_id=det.image_id, category_id=det.category_id, score=det.score, box=refined))
    return out
