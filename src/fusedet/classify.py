"""Linear SVM training, the linear bank every learned layer uses, and fusion.

Each feature channel gets one bank of N one-vs-rest classifiers. The three
N-score vectors are concatenated in CHANNELS order into a 3N-dim vector and
a second bank of N one-vs-rest classifiers is trained on those, after
per-dimension standardization whose constants travel with the model. The
channel banks, this fusion bank and the presence prior of `context` are all
one `LinearBank`: one model file layout, one validator and one scorer,
`LinearBank.scores`, which detect runs and the tests check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import modelio

_EPS = 1e-12

# the feature channels in the order of the fused layout, read by every channel list, fusion width and choice
CHANNELS = ("cnn", "hog", "ifv")


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = float(self.bias)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a 1-d vector")
        if not (np.all(np.isfinite(self.weights)) and np.isfinite(self.bias)):
            raise ValueError("model has non-finite entries")

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.weights.shape[0]:
            raise ValueError(f"feature matrix {X.shape} does not match model dim {self.weights.shape[0]}")
        return X @ self.weights + self.bias


def svm_objective(model: LinearModel, features: np.ndarray, labels: np.ndarray, lambda_: float) -> float:
    """lambda/2 * ||w||^2 + mean hinge loss. The bias is not regularized."""
    margins = labels * model.scores(features)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lambda_ * float(model.weights @ model.weights) + float(hinge.mean())


def _optimal_bias(margins_wo_bias: np.ndarray, y: np.ndarray) -> float:
    """Exact minimizer of the mean hinge loss over the bias alone.

    With w fixed the loss is convex piecewise linear in b; its subgradient
    gains +1 at every breakpoint (1 - s_i for positives, -1 - s_i for
    negatives) and starts at -n_pos, so the minimum sits at the n_pos-th
    smallest breakpoint.
    """
    pos = y > 0
    breakpoints = np.concatenate([1.0 - margins_wo_bias[pos], -1.0 - margins_wo_bias[~pos]])
    n_pos = int(pos.sum())
    return float(np.partition(breakpoints, n_pos - 1)[n_pos - 1])


def train_svm(
    features: np.ndarray,
    labels: Sequence[int],
    lambda_: float,
    epochs: int,
    seed: int,
) -> LinearModel:
    """Primal subgradient descent on the regularized hinge objective.

    Steps are 1/(lambda * t) with t counting updates across epochs; each
    epoch visits the samples in a fresh seeded shuffle, and after every step
    the weight vector is projected onto the ball of radius 1/sqrt(lambda)
    that must contain the optimum. The bias is not regularized; since plain
    subgradient steps move it sluggishly, it is reset at each epoch end to
    its exact 1-d minimizer given the current weights (a coordinate-descent
    step on the same objective). The returned model is the best of the
    epoch-end iterates and the initial zero model, by objective value, so
    the per-epoch objective trajectory is non-increasing and the result is
    never worse than the zero vector.

    The weights are held as w = a * v (Pegasos's scaled representation), so
    the shrink by 1 - 1/t and the projection only rescale the scalar a, and
    ||v||^2 is carried along from the v.x each step computes anyway and the
    precomputed ||x_i||^2. A step thus costs one d-long dot product, plus
    one d-long axpy when the sample violates its margin; the update rule is
    the same as scaling w itself, with rounding in another order. The first
    step's shrink factor is 0 and resets v outright, and each epoch end
    folds a into v and recomputes ||v||^2, so rounding cannot build up
    across epochs.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features and labels disagree on sample count")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("need at least one positive and one negative example")
    if lambda_ <= 0:
        raise ValueError("lambda must be positive")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    n, dim = X.shape
    rng = np.random.default_rng(seed)
    v = np.zeros(dim)
    b = 0.0
    best = LinearModel(weights=v.copy(), bias=b)
    best_obj = svm_objective(best, X, y, lambda_)

    rows = list(X)
    signs = y.tolist()
    row_sq = np.einsum("ij,ij->i", X, X).tolist()
    radius = 1.0 / math.sqrt(lambda_)
    radius_sq = 1.0 / lambda_
    a = 1.0  # w = a * v
    v_sq = 0.0  # ||v||^2
    t = 1
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            x, yi = rows[i], signs[i]
            vx = float(v @ x)
            eta = 1.0 / (lambda_ * t)
            margin = yi * (a * vx + b)
            if t == 1:
                v[:] = 0.0
                a, v_sq, vx = 1.0, 0.0, 0.0
            else:
                a *= 1.0 - eta * lambda_
            if margin < 1.0:
                k = eta * yi / a
                v += k * x
                v_sq += 2.0 * k * vx + k * k * row_sq[i]
                b += eta * yi
            if a * a * v_sq > radius_sq:
                a = radius / math.sqrt(v_sq)
            t += 1
        v *= a
        a = 1.0
        v_sq = float(v @ v)
        b = _optimal_bias(X @ v, y)
        candidate = LinearModel(weights=v.copy(), bias=b)
        obj = svm_objective(candidate, X, y, lambda_)
        if obj < best_obj:
            best, best_obj = candidate, obj
    return best


_OPTIONAL = ("feature_means", "feature_scales", "thresholds")


@dataclass
class LinearBank:
    """N linear scorers over one d-dim feature, one per category.

    A channel's one-vs-rest SVMs are a bank; the fusion bank also
    standardizes its input with feature_means and feature_scales, and the
    presence prior also carries one gate threshold per category (-inf
    disables the gate).
    """

    category_ids: List[int]
    weights: np.ndarray  # (N, d)
    biases: np.ndarray  # (N,)
    feature_means: Optional[np.ndarray] = None  # (d,)
    feature_scales: Optional[np.ndarray] = None  # (d,), strictly positive
    thresholds: Optional[np.ndarray] = None  # (N,), finite or -inf

    def __post_init__(self):
        self.category_ids = [int(c) for c in self.category_ids]
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        n = len(self.category_ids)
        if self.weights.ndim != 2 or self.weights.shape[0] != n:
            raise ValueError("one weight row per category required")
        if self.biases.shape != (n,):
            raise ValueError("one bias per category required")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("weights and biases must be finite")
        if (self.feature_means is None) != (self.feature_scales is None):
            raise ValueError("standardization needs both means and scales")
        if self.feature_means is not None:
            self.feature_means = np.asarray(self.feature_means, dtype=np.float64)
            self.feature_scales = np.asarray(self.feature_scales, dtype=np.float64)
            if self.feature_means.shape != (self.dim,) or self.feature_scales.shape != (self.dim,):
                raise ValueError(
                    f"standardization needs {self.dim} means and scales, got "
                    f"{self.feature_means.shape} and {self.feature_scales.shape}"
                )
            if not np.all(np.isfinite(self.feature_means)):
                raise ValueError("standardization means must be finite")
            if not np.all(self.feature_scales > 0):
                raise ValueError("standardization scales must be positive")
        if self.thresholds is not None:
            self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
            if self.thresholds.shape != (n,):
                raise ValueError("one threshold per category required")
            if np.any(np.isnan(self.thresholds)) or np.any(self.thresholds == np.inf):
                raise ValueError("thresholds must be finite or -inf")

    @property
    def n_categories(self) -> int:
        return len(self.category_ids)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def from_models(cls, models: Dict[int, LinearModel]) -> "LinearBank":
        ids = sorted(models)
        dims = {models[i].weights.shape[0] for i in ids}
        if len(dims) != 1:
            raise ValueError(f"models disagree on feature dim: {sorted(dims)}")
        return cls(
            category_ids=ids,
            weights=np.stack([models[i].weights for i in ids]),
            biases=np.array([models[i].bias for i in ids]),
        )

    def scores(self, X: np.ndarray) -> np.ndarray:
        """(m, N) scores of the m rows of X, in float64:
        ((X - means) / scales) @ weights.T + biases, standardized only when
        the bank has means and scales.

        A row's score can differ in the last bits with the number of rows
        scored together, so every caller keeps one grouping of its rows.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"feature matrix {X.shape} does not match bank dim {self.dim}")
        if self.feature_means is not None:
            X = (X - self.feature_means) / self.feature_scales
        return X @ self.weights.T + self.biases

    def save(self, path) -> None:
        arrays = {
            "category_ids": np.asarray(self.category_ids, dtype=np.float64)[None, :],
            "weights": self.weights,
            "biases": self.biases[None, :],
        }
        for name in _OPTIONAL:
            if getattr(self, name) is not None:
                arrays[name] = getattr(self, name)[None, :]
        modelio.write_model(path, "linear-bank", {}, arrays)

    @classmethod
    def load(cls, path) -> "LinearBank":
        """The bank saved at path; ValueError naming the file if it holds none."""
        _, arrays = modelio.read_model(path, "linear-bank")
        try:
            return cls(
                category_ids=modelio.parse_ids(arrays["category_ids"][0]),
                weights=arrays["weights"],
                biases=arrays["biases"][0],
                **{name: arrays[name][0] for name in _OPTIONAL if name in arrays},
            )
        except (KeyError, IndexError, OverflowError, ValueError) as exc:
            raise ValueError(f"{path}: not a valid linear bank: {exc}") from None


def fuse_scores(*scores: np.ndarray) -> np.ndarray:
    """The fused layout: the scores of N categories from each channel, given
    in CHANNELS order, side by side on the last axis, N scores giving 3N and
    (m, N) rows giving (m, 3N)."""
    if len(scores) != len(CHANNELS):
        raise ValueError(f"expected the scores of {len(CHANNELS)} channels, got {len(scores)}")
    parts = [np.asarray(v, dtype=np.float64) for v in scores]
    shapes = [p.shape for p in parts]
    if any(shape != shapes[0] for shape in shapes):
        raise ValueError(f"channel score lengths differ: {shapes}")
    if parts[0].ndim not in (1, 2):
        raise ValueError(f"channel scores must be 1-D or (m, N), got shape {shapes[0]}")
    return np.concatenate(parts, axis=-1)


def mine_hard_negatives(model: LinearModel, negatives: np.ndarray, count: int) -> np.ndarray:
    """Indices of the highest-scoring negatives (the confident mistakes)."""
    scores = model.scores(negatives)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return order[: max(0, count)]


def train_fusion(
    fused_vectors: np.ndarray,
    category_labels: Sequence[int],
    lambda_: float,
    epochs: int,
    seed: int,
    category_ids: Sequence[int] = None,
) -> LinearBank:
    """One train_svm per category on standardized fused score vectors.

    Labels are positions into category_ids (defaults to 0..N-1 with N read
    off the 3N-wide input); -1 marks background samples, negative for every
    category. Per-category trainer errors are re-raised with the category id.
    """
    X = np.asarray(fused_vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("fused_vectors must be a 2-d array")
    n_cat, rest = divmod(X.shape[1], len(CHANNELS))
    if rest:
        raise ValueError(f"fused dim {X.shape[1]} is not a multiple of {len(CHANNELS)}")
    if category_ids is None:
        category_ids = list(range(n_cat))
    if len(category_ids) != n_cat:
        raise ValueError(f"expected {n_cat} category ids, got {len(category_ids)}")
    labels = np.asarray(category_labels, dtype=np.int64)
    if labels.shape != (X.shape[0],):
        raise ValueError("one label per sample required")
    if labels.min() < -1 or labels.max() >= n_cat:
        raise ValueError(f"labels must lie in [-1, {n_cat})")

    means = X.mean(axis=0)
    stds = X.std(axis=0)
    scales = np.where(stds > _EPS, stds, 1.0)
    Z = (X - means) / scales

    weights = np.empty((n_cat, X.shape[1]))
    biases = np.empty(n_cat)
    for pos in range(n_cat):
        y = np.where(labels == pos, 1, -1)
        try:
            model = train_svm(Z, y, lambda_, epochs, seed)
        except ValueError as exc:
            raise ValueError(f"category {category_ids[pos]}: {exc}") from None
        weights[pos] = model.weights
        biases[pos] = model.bias
    return LinearBank(
        category_ids=list(category_ids),
        weights=weights,
        biases=biases,
        feature_means=means,
        feature_scales=scales,
    )
