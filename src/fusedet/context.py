"""Whole-image presence prior and detection gating.

The prior is a `classify.LinearBank` of one-vs-rest linear classifiers that
predicts which categories appear anywhere in an image, with one gate
threshold per category; `PresencePrior` is another name for that class.
Detections of a category whose presence score falls below that category's
threshold are removed (never re-scored). A threshold of -inf disables a gate
so it always passes.
"""

from __future__ import annotations

import logging
import math
from itertools import compress
from typing import List, Sequence, Set

import numpy as np

from .classify import LinearBank, train_svm
from .core import Detection

logger = logging.getLogger(__name__)


PresencePrior = LinearBank


def train_presence_prior(
    image_features: np.ndarray,
    label_sets: Sequence[Set[int]],
    image_ids: Sequence[str],
    n_categories: int,
    lambda_: float,
    epochs: int,
    seed: int,
) -> LinearBank:
    """One-vs-rest presence classifiers over a whole-image feature.

    Examples are sorted by image_id before training so the model does not
    depend on manifest order. Categories present in every image or absent
    from every image cannot be trained; they get a constant-sign stand-in
    model and a disabled gate (threshold -inf), with a warning for the
    absent case. All returned thresholds are -inf; calibrate them afterwards
    with select_thresholds.
    """
    X = np.asarray(image_features, dtype=np.float64)
    if X.ndim != 2 or not (X.shape[0] == len(label_sets) == len(image_ids)):
        raise ValueError("image_features, label_sets and image_ids must be parallel")
    if len(set(image_ids)) != len(image_ids):
        raise ValueError("image_ids must be unique")
    order = sorted(range(len(image_ids)), key=lambda i: image_ids[i])
    X = X[order]
    labels = [label_sets[i] for i in order]

    dim = X.shape[1]
    weights = np.zeros((n_categories, dim))
    biases = np.zeros(n_categories)
    for cid in range(n_categories):
        y = np.array([1 if cid in s else -1 for s in labels])
        if np.all(y > 0):
            logger.warning("category %d present in every training image; gate disabled", cid)
            biases[cid] = 1.0
            continue
        if np.all(y < 0):
            logger.warning("category %d absent from all training images; gate disabled", cid)
            biases[cid] = -1.0
            continue
        model = train_svm(X, y, lambda_, epochs, seed)
        weights[cid] = model.weights
        biases[cid] = model.bias
    return LinearBank(
        category_ids=list(range(n_categories)),
        weights=weights,
        biases=biases,
        thresholds=np.full(n_categories, -np.inf),
    )


def presence_scores(image_feature: np.ndarray, prior: LinearBank) -> np.ndarray:
    """Raw margins w_i . x + b_i of one image's feature for every category,
    scored as a batch of one row."""
    return prior.scores(np.asarray(image_feature, dtype=np.float64)[None, :])[0]


def select_thresholds(
    scores: np.ndarray,
    label_sets: Sequence[Set[int]],
    n_categories: int,
    recall: float = 0.95,
) -> np.ndarray:
    """Per-category gate values reaching the requested recall on held-out data.

    scores[i, c] is the presence score of category c on image i. For each
    category the threshold is the k-th largest score among images where the
    category is truly present, k = ceil(recall * positives), so keeping
    score >= threshold retains at least that fraction. Categories with no
    positive image get -inf (gate disabled).
    """
    S = np.asarray(scores, dtype=np.float64)
    if S.ndim != 2 or S.shape != (len(label_sets), n_categories):
        raise ValueError(f"scores must be ({len(label_sets)}, {n_categories}), got {S.shape}")
    if not 0.0 < recall <= 1.0:
        raise ValueError("recall must lie in (0, 1]")
    thresholds = np.full(n_categories, -np.inf)
    for cid in range(n_categories):
        positives = np.sort(S[[cid in s for s in label_sets], cid])[::-1]
        if len(positives) == 0:
            continue
        k = math.ceil(recall * len(positives))
        thresholds[cid] = positives[k - 1]
    return thresholds


def filter_detections(
    detections: Sequence[Detection],
    presence: np.ndarray,
    thresholds: np.ndarray,
) -> List[Detection]:
    """Keeps detections whose category's presence score clears its gate.

    Pure removal: output is a subsequence of the input, scores untouched.
    """
    presence = np.asarray(presence, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if presence.shape != thresholds.shape:
        raise ValueError("presence and thresholds must have the same length")
    n = presence.shape[0]
    cats = [det.category_id for det in detections]
    if cats and not (0 <= min(cats) and max(cats) < n):
        cid = next(c for c in cats if not 0 <= c < n)
        raise ValueError(f"detection category {cid} outside [0, {n})")
    passes = (presence >= thresholds)[np.array(cats, dtype=np.intp)]
    return list(compress(detections, passes.tolist()))
