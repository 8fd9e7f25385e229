"""Whole-image presence prior and detection gating.

The prior is a `classify.LinearBank` of one-vs-rest linear classifiers that
predicts which categories appear anywhere in an image, with one gate
threshold per category; `PresencePrior` is another name for that class.
Detections of a category whose presence score falls below that category's
threshold are removed (never re-scored). A threshold of -inf disables a gate
so it always passes.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from itertools import compress
from typing import List, Optional, Sequence, Set

import numpy as np

from .classify import LinearBank, train_svm
from .core import Detection

logger = logging.getLogger(__name__)


PresencePrior = LinearBank


def held_out_count(n: int) -> int:
    """Images held out of an n-image split to calibrate the gates: a fifth,
    one for 2 to 4 images, none below 2."""
    return n // 5 if n >= 5 else (1 if n >= 2 else 0)


def train_presence_prior(
    image_features: np.ndarray,
    label_sets: Sequence[Set[int]],
    image_ids: Sequence[str],
    n_categories: int,
    lambda_: float,
    epochs: int,
    seed: int,
    split_seed: Optional[int] = None,
    tau: Optional[float] = None,
    recall: float = 0.95,
) -> LinearBank:
    """One-vs-rest presence classifiers over a whole-image feature, with
    their gate thresholds; the one owner of the gate's policy.

    Examples are sorted by image_id, so nothing depends on input order.
    With split_seed, held_out_count(n) of them, drawn by that seed, are held
    out of training. Each gate is tau when given; otherwise the
    select_thresholds value at recall over the held-out images'
    presence_scores (each scored as a batch of one row), or -inf with none
    held out. Categories present in every training image or absent from
    every one cannot be trained: they get a constant-sign stand-in model
    and an open gate (-inf) whatever tau is, with a warning.
    """
    X = np.asarray(image_features, dtype=np.float64)
    if X.ndim != 2 or not (X.shape[0] == len(label_sets) == len(image_ids)):
        raise ValueError("image_features, label_sets and image_ids must be parallel")
    if len(set(image_ids)) != len(image_ids):
        raise ValueError("image_ids must be unique")
    order = sorted(range(len(image_ids)), key=lambda i: image_ids[i])
    X = X[order]
    labels = [label_sets[i] for i in order]
    held = np.zeros(len(order), dtype=bool)
    if split_seed is not None:
        held[np.random.default_rng(split_seed).permutation(len(order))[: held_out_count(len(order))]] = True
    X_train = X[~held]
    train_labels = list(compress(labels, (~held).tolist()))

    weights = np.zeros((n_categories, X.shape[1]))
    biases = np.zeros(n_categories)
    stand_in = np.zeros(n_categories, dtype=bool)
    for cid in range(n_categories):
        y = np.array([1 if cid in s else -1 for s in train_labels])
        if np.all(y > 0):
            logger.warning("category %d present in every training image; gate disabled", cid)
            biases[cid], stand_in[cid] = 1.0, True
        elif np.all(y < 0):
            logger.warning("category %d absent from all training images; gate disabled", cid)
            biases[cid], stand_in[cid] = -1.0, True
        else:
            model = train_svm(X_train, y, lambda_, epochs, seed)
            weights[cid] = model.weights
            biases[cid] = model.bias
    prior = LinearBank(list(range(n_categories)), weights, biases)
    if tau is None and held.any():
        scores = np.stack([presence_scores(x, prior) for x in X[held]])
        thresholds = select_thresholds(scores, list(compress(labels, held.tolist())), n_categories, recall)
    else:
        thresholds = np.full(n_categories, -np.inf if tau is None else tau)
    thresholds[stand_in] = -np.inf  # the one place an untrainable category's gate is opened
    return dataclasses.replace(prior, thresholds=thresholds)


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
