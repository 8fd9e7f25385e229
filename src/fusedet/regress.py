"""Per-category bounding-box refinement.

Proposals that land near a ground-truth object rarely coincide with it, so a
per-category ridge regressor learns a corrective transform from appearance
features: normalized center offsets plus log size ratios. Each category's
ridge is solved through a thin SVD of its centered pairs, so its cost
follows the number of pairs rather than the feature width. Categories that
never see a training pair stay untrained and pass boxes through unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import modelio
from .core import Box, Detection, GroundTruth, box_corners, clip_box, iou


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
            ids = modelio.parse_ids(arrays["category_ids"][0])
            dim = modelio.parse_count(meta["dim"])
            return cls(dim=dim, coefficients={cid: arrays[f"category_{cid}"] for cid in ids})
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

    That minimizer is solved in centered form: with Xc = X - mean(X) and
    Tc = T - mean(T) over the category's n pairs and the thin SVD
    Xc = U S V', the weights are V diag(s / (s^2 + lambda)) U' Tc and the
    bias is mean(T) - mean(X) W. This costs O(n d min(n, d)) and holds
    arrays of n x d at most, where the normal equations would build and
    factor a (d+1) x (d+1) matrix for every category.
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
    for cid, rows in sorted(by_category.items()):
        A = X[rows]
        T = np.stack([bbox_targets(proposals[i], gts[i].box).as_array() for i in rows])
        x_mean, t_mean = A.mean(axis=0), T.mean(axis=0)
        U, s, Vt = np.linalg.svd(A - x_mean, full_matrices=False)
        W = Vt.T @ ((s / (s * s + ridge_lambda))[:, None] * (U.T @ (T - t_mean)))  # (dim, 4)
        coefficients[cid] = np.concatenate([W.T, (t_mean - x_mean @ W)[:, None]], axis=1)
    return BoxRegressor(dim=dim, coefficients=coefficients)


def _refine_one(
    det: Detection, x: np.ndarray, regressor: BoxRegressor, image_width: int, image_height: int
) -> Detection:
    """One detection refined through the object forms; raises what they raise."""
    t = regressor.predict(det.category_id, x)
    if t is None:
        return det
    refined = clip_box(apply_targets(det.box, t), image_width, image_height)
    return Detection(image_id=det.image_id, category_id=det.category_id, score=det.score, box=refined)


# math.exp overflows a little above 709.78; a row with a larger log size
# ratio takes the object path, which raises its OverflowError
_EXP_SAFE = 709.0


def _predict_rows(coef: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The (P, 4) targets `predict` gives each row of X, bit for bit: one
    matrix-vector product per row, stacked. A single (P, d+1) @ (d+1, 4)
    product would round differently."""
    P, d = X.shape
    Xa = np.empty((P, d + 1))  # each row is np.append(x, 1.0)
    Xa[:, :d] = X
    Xa[:, d] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows take the object path
        return (coef @ Xa[:, :, None])[:, :, 0]


def _refine_rows(
    corners: np.ndarray, X: np.ndarray, coef: np.ndarray, image_width: int, image_height: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The refined, clipped corners of boxes of one trained category, and
    whether each row is clean: its targets finite, its box non-empty before
    and after the clip. Each step repeats `predict`, `apply_targets` and
    `clip_box` on arrays, operation by operation, so a clean row has their
    bits; the values of other rows are meaningless."""
    t = _predict_rows(coef, X)
    clean = np.isfinite(t).all(axis=1) & (t[:, 2] <= _EXP_SAFE) & (t[:, 3] <= _EXP_SAFE)
    t[~clean] = 0.0
    x0, y0, x1, y1 = corners.T
    with np.errstate(over="ignore", invalid="ignore"):
        width, height = x1 - x0, y1 - y0
        cx = width * t[:, 0] + 0.5 * (x0 + x1)
        cy = height * t[:, 1] + 0.5 * (y0 + y1)
        # np.exp may differ from math.exp in the last bit
        w = width * np.array([math.exp(v) for v in t[:, 2].tolist()])
        h = height * np.array([math.exp(v) for v in t[:, 3].tolist()])
        box = (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
    clean &= (box[0] < box[2]) & (box[1] < box[3])
    # min(max(v, 0.0), side) as Python picks: the first argument unless the
    # other is strictly beyond it, so a -0.0 stays -0.0
    sides = (image_width, image_height, image_width, image_height)
    floored = [np.where(0.0 > v, 0.0, v) for v in box]
    clipped = np.stack([np.where(side < v, side, v) for v, side in zip(floored, sides)], axis=1)
    clean &= (clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3])
    return clipped, clean


def refine(
    detections: Sequence[Detection],
    features: np.ndarray,
    regressor: BoxRegressor,
    image_width: int,
    image_height: int,
) -> List[Detection]:
    """Applies each detection's predicted transform and clips to the image.

    features[i] belongs to detections[i]. Untrained categories pass through
    untouched; clip errors (refined box fully outside the image) propagate,
    the first row's in input order. Each trained category's rows are refined
    as arrays; a row that would raise goes through the object forms
    (`predict`, `apply_targets`, `clip_box`), so the error is theirs.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(detections):
        raise ValueError("one feature row per detection required")
    by_category: Dict[int, List[int]] = {}
    for i, det in enumerate(detections):
        if regressor.is_trained(det.category_id):
            by_category.setdefault(det.category_id, []).append(i)
    out = list(detections)
    unclean: List[int] = []
    for cid, rows in by_category.items():
        if X.shape[1] != regressor.dim:  # predict refuses the row
            unclean.extend(rows)
            continue
        corners = box_corners([detections[i].box for i in rows])
        clipped, clean = _refine_rows(corners, X[rows], regressor.coefficients[cid], image_width, image_height)
        for i, ok, box in zip(rows, clean.tolist(), clipped.tolist()):
            if not ok:
                unclean.append(i)
                continue
            det = out[i]
            out[i] = Detection(image_id=det.image_id, category_id=det.category_id, score=det.score, box=Box(*box))
    for i in sorted(unclean):
        out[i] = _refine_one(detections[i], X[i], regressor, image_width, image_height)
    return out
