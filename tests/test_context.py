"""Image-level presence classifiers, threshold calibration, and gating."""

import logging
import math

import numpy as np
import pytest

from fusedet.context import (
    PresencePrior,
    filter_detections,
    held_out_count,
    presence_scores,
    select_thresholds,
    train_presence_prior,
)
from fusedet.core import Box, Detection


def _det(cid, score=0.5):
    return Detection(image_id="a", box=Box(0, 0, 10, 10), category_id=cid, score=score)


def _separable_setup(seed=0, n=24, dim=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim)) * 0.2
    label_sets = []
    for i in range(n):
        present = set()
        if i % 2 == 0:
            X[i, 0] += 2.0
            present.add(0)
        else:
            X[i, 0] -= 2.0
        if i % 4 < 2:
            X[i, 1] += 2.0
            present.add(1)
        else:
            X[i, 1] -= 2.0
        label_sets.append(present)
    ids = [f"im_{i:03d}" for i in range(n)]
    return X, label_sets, ids


def test_presence_training_separates_the_fixture():
    X, label_sets, ids = _separable_setup()
    prior = train_presence_prior(X, label_sets, ids, 2, lambda_=1e-3, epochs=20, seed=1)
    for i in range(len(ids)):
        s = presence_scores(X[i], prior)
        for cid in range(2):
            assert (s[cid] > 0) == (cid in label_sets[i])


def test_degenerate_categories_get_stand_ins_and_warnings(caplog):
    X, label_sets, ids = _separable_setup()
    sets3 = [s | {2} for s in label_sets]  # category 2 in every image, 3 nowhere
    with caplog.at_level(logging.WARNING, logger="fusedet.context"):
        prior = train_presence_prior(X, sets3, ids, 4, lambda_=1e-3, epochs=5, seed=1)
    assert "present in every training image" in caplog.text
    assert "absent from all training images" in caplog.text
    assert np.array_equal(prior.weights[2], np.zeros(3))
    assert prior.biases[2] == 1.0
    assert prior.biases[3] == -1.0
    assert prior.thresholds[2] == -np.inf and prior.thresholds[3] == -np.inf
    s = presence_scores(np.zeros(3), prior)
    assert s[2] == 1.0 and s[3] == -1.0


def test_training_is_invariant_to_example_order():
    X, label_sets, ids = _separable_setup(seed=3)
    p1 = train_presence_prior(X, label_sets, ids, 2, lambda_=1e-2, epochs=6, seed=7)
    rng = np.random.default_rng(9)
    perm = rng.permutation(len(ids))
    p2 = train_presence_prior(
        X[perm],
        [label_sets[i] for i in perm],
        [ids[i] for i in perm],
        2,
        lambda_=1e-2,
        epochs=6,
        seed=7,
    )
    assert np.array_equal(p1.weights, p2.weights)
    assert np.array_equal(p1.biases, p2.biases)


def test_training_validates_inputs():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError, match="parallel"):
        train_presence_prior(X, [set()] * 2, ["a", "b", "c"], 1, 0.1, 1, 0)
    with pytest.raises(ValueError, match="unique"):
        train_presence_prior(X, [set()] * 3, ["a", "a", "c"], 1, 0.1, 1, 0)


def _held_positions(n, split_seed):
    """Positions, in image-id order, of the images the seed holds out."""
    return sorted(np.random.default_rng(split_seed).permutation(n)[: held_out_count(n)].tolist())


def test_held_out_count_is_a_fifth_one_for_two_to_four_none_below_two():
    assert [held_out_count(n) for n in range(13)] == [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2]
    assert held_out_count(24) == 4 and held_out_count(200) == 40


@pytest.mark.parametrize("split_seed", [None, 4])
def test_a_fixed_tau_leaves_untrainable_categories_open(split_seed):
    X, label_sets, ids = _separable_setup()
    held = set(_held_positions(len(ids), split_seed)) if split_seed is not None else set()
    # 2 in every training image (absent from the held-out ones), 3 in none
    sets = [s | ({2} if i not in held else set()) for i, s in enumerate(label_sets)]
    for tau in (0.25, -1.5, -np.inf):
        prior = train_presence_prior(X, sets, ids, 4, 1e-3, 5, 1, split_seed=split_seed, tau=tau)
        assert prior.thresholds.tolist() == [tau, tau, -np.inf, -np.inf]
        assert prior.biases[2] == 1.0 and prior.biases[3] == -1.0


def test_unset_tau_calibrates_on_the_held_out_images_one_row_each():
    X, label_sets, ids = _separable_setup(seed=5)
    X[:, 2] += np.linspace(-1.0, 1.0, len(ids))  # scores differ from image to image
    sets = [s | {3} for s in label_sets]  # 3 is everywhere, so its gate stays open
    for split_seed, recall in ((4, 0.95), (8, 0.5), (21, 1.0)):
        prior = train_presence_prior(X, sets, ids, 5, 1e-3, 5, 1, split_seed=split_seed, recall=recall)
        held = _held_positions(len(ids), split_seed)
        assert len(held) == 4
        scores = np.stack([presence_scores(X[i], prior) for i in held])
        expect = select_thresholds(scores, [sets[i] for i in held], 5, recall)
        assert np.isfinite(expect[:2]).all() and expect[3] > -np.inf
        expect[[3, 4]] = -np.inf
        assert prior.thresholds.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", [5, 7, 12])
def test_the_held_out_images_are_drawn_by_the_seed_and_never_trained_on(n):
    X, label_sets, ids = _separable_setup(seed=n, n=n)
    perm = np.random.default_rng(n).permutation(n)
    shuffled = ([X[i] for i in perm], [label_sets[i] for i in perm], [ids[i] for i in perm])
    for split_seed in (None, 3, 11):
        base = train_presence_prior(X, label_sets, ids, 2, 1e-3, 5, 1, split_seed=split_seed)
        unchanged = []
        for i in range(n):
            # an outlier on either side of the boundary: a trained image
            # violates the margin with one of them and moves the weights
            for outlier in (1e6, -1e6):
                planted = X.copy()
                planted[i] = outlier
                prior = train_presence_prior(planted, label_sets, ids, 2, 1e-3, 5, 1, split_seed=split_seed)
                if not (np.array_equal(prior.weights, base.weights) and np.array_equal(prior.biases, base.biases)):
                    break
            else:
                unchanged.append(i)
        assert unchanged == ([] if split_seed is None else _held_positions(n, split_seed))
        again = train_presence_prior(np.array(shuffled[0]), *shuffled[1:], 2, 1e-3, 5, 1, split_seed=split_seed)
        assert again.weights.tobytes() == base.weights.tobytes()
        assert again.thresholds.tobytes() == base.thresholds.tobytes()


def test_presence_scores_hand_values_and_oracle():
    prior = PresencePrior(
        category_ids=[0, 1],
        weights=np.array([[1.0, 0.0], [0.0, 2.0]]),
        biases=np.array([0.5, -1.0]),
        thresholds=np.array([-np.inf, -np.inf]),
    )
    assert np.array_equal(presence_scores(np.array([3.0, 4.0]), prior), [3.5, 7.0])
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_cat = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        prior = PresencePrior(
            category_ids=list(range(n_cat)),
            weights=rng.normal(size=(n_cat, dim)),
            biases=rng.normal(size=n_cat),
            thresholds=np.full(n_cat, -np.inf),
        )
        x = rng.normal(size=dim)
        expect = [float(prior.weights[i] @ x) + prior.biases[i] for i in range(n_cat)]
        assert np.allclose(presence_scores(x, prior), expect, atol=1e-12)


def test_presence_scores_empty_prior_and_shape_check():
    empty = PresencePrior(
        category_ids=[],
        weights=np.zeros((0, 5)),
        biases=np.zeros(0),
        thresholds=np.zeros(0),
    )
    assert presence_scores(np.zeros(5), empty).shape == (0,)
    with pytest.raises(ValueError, match="does not match bank dim 5"):
        presence_scores(np.zeros(7), empty)
    prior = PresencePrior(
        category_ids=[0],
        weights=np.zeros((1, 2)),
        biases=np.zeros(1),
        thresholds=np.zeros(1),
    )
    with pytest.raises(ValueError, match="does not match bank dim 2"):
        presence_scores(np.zeros(3), prior)


def test_select_thresholds_hand_values():
    scores = np.array([[0.9, 0.0], [0.5, 0.0], [0.1, 0.0], [0.7, 0.3]])
    label_sets = [{0}, {0}, {0}, {1}]
    thr = select_thresholds(scores, label_sets, 2, recall=0.95)
    assert thr[0] == 0.1  # k = ceil(0.95 * 3) = 3
    assert thr[1] == 0.3
    thr = select_thresholds(scores, label_sets, 2, recall=0.4)
    assert thr[0] == 0.5  # k = ceil(0.4 * 3) = 2


def test_select_thresholds_matches_brute_force_and_hits_recall():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        n_cat = int(rng.integers(1, 4))
        S = np.round(rng.normal(size=(m, n_cat)), 1)  # encourage ties
        label_sets = [set(np.flatnonzero(rng.random(n_cat) < 0.5)) for _ in range(m)]
        recall = float(rng.uniform(0.05, 1.0))
        thr = select_thresholds(S, label_sets, n_cat, recall=recall)
        for cid in range(n_cat):
            pos = sorted((S[i, cid] for i in range(m) if cid in label_sets[i]), reverse=True)
            if not pos:
                assert thr[cid] == -np.inf
                continue
            k = math.ceil(recall * len(pos))
            assert thr[cid] == pos[k - 1]
            kept = sum(1 for v in pos if v >= thr[cid])
            assert kept / len(pos) >= recall - 1e-12


def test_select_thresholds_validates_inputs():
    with pytest.raises(ValueError, match="scores must be"):
        select_thresholds(np.zeros((2, 3)), [set()] * 2, 2)
    with pytest.raises(ValueError, match="recall"):
        select_thresholds(np.zeros((2, 2)), [set()] * 2, 2, recall=0.0)
    with pytest.raises(ValueError, match="recall"):
        select_thresholds(np.zeros((2, 2)), [set()] * 2, 2, recall=1.5)


def test_filter_keeps_cleared_gates_only():
    dets = [_det(0, 0.9), _det(1, 0.8), _det(0, 0.7)]
    out = filter_detections(dets, np.array([0.5, -0.2]), np.array([0.0, 0.0]))
    assert out == [dets[0], dets[2]]


def test_filter_keeps_scores_equal_to_the_threshold():
    dets = [_det(0)]
    assert filter_detections(dets, np.array([0.25]), np.array([0.25])) == dets


def test_filter_is_a_subsequence_idempotent_and_monotone():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n_cat = int(rng.integers(1, 4))
        dets = [_det(int(rng.integers(n_cat)), float(rng.random())) for _ in range(10)]
        presence = rng.normal(size=n_cat)
        thr = rng.normal(size=n_cat)
        out = filter_detections(dets, presence, thr)
        expect = [d for d in dets if presence[d.category_id] >= thr[d.category_id]]
        assert out == expect
        assert filter_detections(out, presence, thr) == out
        looser = filter_detections(dets, presence, thr - 1.0)
        assert set(id(d) for d in out) <= set(id(d) for d in looser)


def test_filter_never_rescoring_and_disabled_gate_passes_all():
    dets = [_det(0, 0.123), _det(0, 0.456)]
    out = filter_detections(dets, np.array([-99.0]), np.array([-np.inf]))
    assert out == dets
    assert out[0] is dets[0]


def test_filter_validates_category_range_and_shapes():
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        filter_detections([_det(2)], np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="same length"):
        filter_detections([_det(0)], np.zeros(2), np.zeros(3))


def test_prior_save_load_round_trips_bits_with_disabled_gates(tmp_path):
    rng = np.random.default_rng(19)
    prior = PresencePrior(
        category_ids=[0, 1, 2],
        weights=rng.normal(size=(3, 4)),
        biases=rng.normal(size=3),
        thresholds=np.array([-np.inf, 0.25, -1.5]),
    )
    path = tmp_path / "prior.txt"
    prior.save(path)
    loaded = PresencePrior.load(path)
    assert loaded.category_ids == [0, 1, 2]
    assert np.array_equal(loaded.weights, prior.weights)
    assert np.array_equal(loaded.biases, prior.biases)
    assert loaded.thresholds[0] == -np.inf
    assert np.array_equal(loaded.thresholds[1:], prior.thresholds[1:])


def test_prior_validates_thresholds():
    with pytest.raises(ValueError, match="finite or -inf"):
        PresencePrior(
            category_ids=[0],
            weights=np.zeros((1, 2)),
            biases=np.zeros(1),
            thresholds=np.array([np.nan]),
        )
    with pytest.raises(ValueError, match="finite or -inf"):
        PresencePrior(
            category_ids=[0],
            weights=np.zeros((1, 2)),
            biases=np.zeros(1),
            thresholds=np.array([np.inf]),
        )
