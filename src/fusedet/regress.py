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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import modelio
from .core import Box, GroundTruth, iou


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


def _predict_rows(coef: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The (P, 4) targets of each row of X: one matrix-vector product
    `coef @ append(x, 1.0)` per row, stacked. A single (P, d+1) @ (d+1, 4)
    product would round differently."""
    P, d = X.shape
    Xa = np.empty((P, d + 1))
    Xa[:, :d] = X
    Xa[:, d] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows keep their proposal
        return (coef @ Xa[:, :, None])[:, :, 0]


def _exp(v: float) -> float:
    """math.exp(v), whose bits np.exp may miss in the last place; NaN where
    it overflows, so the row's box is empty and keeps its proposal."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.nan


def refine(
    corners: np.ndarray,
    features: np.ndarray,
    regressor: BoxRegressor,
    category_id: int,
    image_width: int,
    image_height: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One category's proposal boxes moved by their predicted transforms
    and clipped to the image.

    corners is a (P, 4) array of x_min, y_min, x_max, y_max rows and
    features[i] belongs to corners[i]. Returns the refined corners, a mask
    of the rows that kept their proposal box and a mask of the rows the
    clip changed. A row keeps its proposal when the regressor cannot place
    it: its targets are not finite, `math.exp` overflows, or its box is
    empty before or after the clip. An untrained category keeps every box
    as it is and counts no row in either mask.

    Each step is `apply_targets` and a clamp into [0, width] x [0, height]
    on arrays, operation by operation, so a placed row has their bits. The
    clamp picks as Python's `min(max(v, 0.0), side)` does, which keeps a
    -0.0 edge.
    """
    corners = np.asarray(corners, dtype=np.float64)
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(corners):
        raise ValueError("one feature row per detection required")
    none = np.zeros(len(corners), dtype=bool)
    coef = regressor.coefficients.get(category_id)
    if coef is None:
        return corners, none, none
    if X.shape[1] != regressor.dim:
        raise ValueError(f"feature has shape ({X.shape[1]},), expected ({regressor.dim},)")
    t = _predict_rows(coef, X)
    x0, y0, x1, y1 = corners.T
    with np.errstate(over="ignore", invalid="ignore"):
        width, height = x1 - x0, y1 - y0
        cx = width * t[:, 0] + 0.5 * (x0 + x1)
        cy = height * t[:, 1] + 0.5 * (y0 + y1)
        w = width * np.array([_exp(v) for v in t[:, 2].tolist()])
        h = height * np.array([_exp(v) for v in t[:, 3].tolist()])
        box = np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)
    sides = np.array([image_width, image_height, image_width, image_height], dtype=np.float64)
    floored = np.where(0.0 > box, 0.0, box)
    clipped = np.where(sides < floored, sides, floored)
    placed = (
        np.isfinite(t).all(axis=1)
        & (box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3])
        & (clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3])
    )
    changed = ((0.0 > box) | (sides < box)).any(axis=1)
    return np.where(placed[:, None], clipped, corners), ~placed, placed & changed
