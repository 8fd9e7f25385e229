"""Linear SVM training, linear banks, fusion vectors, and the stacked model."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusedet.classify
from fusedet.classify import (
    CHANNELS,
    LinearBank,
    LinearModel,
    _optimal_bias,
    fuse_scores,
    mine_hard_negatives,
    svm_objective,
    train_svm,
    train_fusion,
)
from fusedet.modelio import write_model


def _blobs(rng, n_per, dim, center, spread):
    pos = rng.normal(size=(n_per, dim)) * spread + center
    neg = rng.normal(size=(n_per, dim)) * spread - center
    X = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(n_per), -np.ones(n_per)])
    return X, y


def _wide_blobs():
    rng = np.random.default_rng(0)
    offset = np.zeros(4)
    offset[0] = 3.0
    return _blobs(rng, 30, 4, offset, 0.5)


# ------------------------------------------------------------------ train_svm


def test_separable_data_is_classified_perfectly():
    X, y = _wide_blobs()
    model = train_svm(X, y, lambda_=1e-3, epochs=30, seed=1)
    assert np.all(np.sign(model.scores(X)) == y)


def test_flipping_labels_flips_every_prediction():
    X, y = _wide_blobs()
    m1 = train_svm(X, y, lambda_=1e-3, epochs=30, seed=1)
    m2 = train_svm(X, -y, lambda_=1e-3, epochs=30, seed=1)
    s1 = np.sign(m1.scores(X))
    s2 = np.sign(m2.scores(X))
    assert np.all(s1 == -s2)


def test_weights_stay_inside_regularization_ball():
    X, y = _wide_blobs()
    for lam in (1e-3, 1.0, 1e9):
        model = train_svm(X, y, lambda_=lam, epochs=5, seed=2)
        assert float(model.weights @ model.weights) <= 1.0 / lam + 1e-9


def test_objective_never_beats_zero_model_and_decreases_with_epochs():
    rng = np.random.default_rng(7)
    X, y = _blobs(rng, 25, 3, np.array([1.0, 0.0, 0.0]), 1.0)  # overlapping
    lam = 0.01
    objs = []
    for epochs in range(1, 9):
        model = train_svm(X, y, lambda_=lam, epochs=epochs, seed=5)
        objs.append(svm_objective(model, X, y, lam))
    assert all(o <= 1.0 + 1e-12 for o in objs)
    for prev, cur in zip(objs, objs[1:]):
        assert cur <= prev + 1e-12


def test_returned_bias_is_coordinate_optimal():
    rng = np.random.default_rng(11)
    X, y = _blobs(rng, 20, 3, np.array([0.8, 0.0, 0.0]), 1.0)
    lam = 0.05
    model = train_svm(X, y, lambda_=lam, epochs=6, seed=3)
    base = svm_objective(model, X, y, lam)
    for delta in (-0.5, -0.01, 0.01, 0.5):
        shifted = LinearModel(weights=model.weights, bias=model.bias + delta)
        assert svm_objective(shifted, X, y, lam) >= base - 1e-12


def test_training_is_bit_deterministic():
    X, y = _wide_blobs()
    m1 = train_svm(X, y, lambda_=1e-2, epochs=10, seed=42)
    m2 = train_svm(X, y, lambda_=1e-2, epochs=10, seed=42)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_train_svm_validates_inputs():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        train_svm(X, [1, 0, 1, -1], 0.1, 1, 0)
    with pytest.raises(ValueError, match="positive and one negative"):
        train_svm(X, [1, 1, 1, 1], 0.1, 1, 0)
    with pytest.raises(ValueError, match="sample count"):
        train_svm(X, [1, -1, 1], 0.1, 1, 0)
    with pytest.raises(ValueError, match="lambda"):
        train_svm(X, [1, -1, 1, -1], 0.0, 1, 0)
    with pytest.raises(ValueError, match="epochs"):
        train_svm(X, [1, -1, 1, -1], 0.1, 0, 0)


def _train_svm_per_step(X, y, lambda_, epochs, seed):
    """The trainer as first written, kept as the reference: it scales and
    projects w itself at every step. Returns the objective of the zero
    model and of every epoch-end iterate."""
    n, dim = X.shape
    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    b = 0.0
    objectives = [svm_objective(LinearModel(weights=w, bias=b), X, y, lambda_)]
    radius = 1.0 / np.sqrt(lambda_)
    t = 1
    for _ in range(epochs):
        for i in rng.permutation(n):
            eta = 1.0 / (lambda_ * t)
            margin = y[i] * (w @ X[i] + b)
            w *= 1.0 - eta * lambda_
            if margin < 1.0:
                w += eta * y[i] * X[i]
                b += eta * y[i]
            norm = np.sqrt(w @ w)
            if norm > radius:
                w *= radius / norm
            t += 1
        b = _optimal_bias(X @ w, y)
        objectives.append(svm_objective(LinearModel(weights=w, bias=b), X, y, lambda_))
    return objectives


@pytest.mark.parametrize("seed", range(24))
def test_scaled_trainer_follows_the_per_step_trajectory(seed, monkeypatch):
    # Gaussian rows leave no margin tied at exactly 1, where rounding in
    # another order may legitimately take the other branch
    rng = np.random.default_rng(1000 + seed)
    dim = int(np.linspace(2, 300, 24)[seed])
    n = int(rng.integers(20, 120))
    y = np.where(rng.random(n) < 0.3, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    X = rng.normal(size=(n, dim)) + 0.5 * y[:, None] * rng.normal(size=dim)
    lam = (1e-4, 1e-3, 1e-2, 0.1, 1.0)[seed % 5]
    epochs = 3 + seed % 3

    want = _train_svm_per_step(X, y, lam, epochs, seed)
    got = []
    objective = fusedet.classify.svm_objective

    def recorded(model, *args):
        got.append(objective(model, *args))
        return got[-1]

    monkeypatch.setattr(fusedet.classify, "svm_objective", recorded)
    model = train_svm(X, y, lam, epochs, seed)
    assert len(got) == len(want) == epochs + 1
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert objective(model, X, y, lam) == min(got)


def test_svm_objective_hand_value():
    model = LinearModel(weights=np.array([1.0, 0.0]), bias=-0.5)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0])
    # scores 0.5, -0.5, -1.5; hinges 0.5, 1.5, 0; reg 0.5*0.2*1
    assert abs(svm_objective(model, X, y, 0.2) - (0.1 + 2.0 / 3.0)) <= 1e-12


def test_linear_model_validation_and_scoring():
    with pytest.raises(ValueError, match="1-d"):
        LinearModel(weights=np.zeros((2, 2)), bias=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        LinearModel(weights=np.array([np.nan]), bias=0.0)
    m = LinearModel(weights=np.array([2.0, -1.0]), bias=0.25)
    bank = LinearBank.from_models({0: m})
    assert np.array_equal(bank.scores(np.array([[3.0, 1.0]])), [[5.25]])
    with pytest.raises(ValueError, match="does not match"):
        bank.scores(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="does not match"):
        m.scores(np.zeros((4, 3)))


# ----------------------------------------------------------- banks and fusion


def _toy_bank():
    return LinearBank(
        category_ids=[0, 1],
        weights=np.array([[1.0, 0.0], [0.0, 2.0]]),
        biases=np.array([0.5, -1.0]),
    )


def test_score_bank_hand_values():
    got = _toy_bank().scores(np.array([[3.0, 4.0]]))
    assert np.array_equal(got, [[3.5, 7.0]])


def test_score_bank_matches_per_model_loop():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n_cat = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 6))
        bank = LinearBank(
            category_ids=list(range(n_cat)),
            weights=rng.normal(size=(n_cat, dim)),
            biases=rng.normal(size=n_cat),
        )
        X = rng.normal(size=(int(rng.integers(1, 4)), dim))
        expect = [[float(bank.weights[i] @ x) + bank.biases[i] for i in range(n_cat)] for x in X]
        assert np.allclose(bank.scores(X), expect, atol=1e-12)


def test_score_bank_is_affine():
    rng = np.random.default_rng(17)
    bank = _toy_bank()
    a = rng.normal(size=(1, 2))
    b = rng.normal(size=(1, 2))
    lhs = bank.scores(a + b) + bank.biases
    rhs = bank.scores(a) + bank.scores(b)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_score_bank_checks_dimension():
    with pytest.raises(ValueError, match="does not match bank dim"):
        _toy_bank().scores(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="does not match bank dim"):
        _toy_bank().scores(np.zeros(2))


def test_bank_from_models_sorts_ids_and_checks_dims():
    models = {
        2: LinearModel(weights=np.array([1.0, 2.0]), bias=0.1),
        0: LinearModel(weights=np.array([3.0, 4.0]), bias=0.2),
    }
    bank = LinearBank.from_models(models)
    assert bank.category_ids == [0, 2]
    assert np.array_equal(bank.weights[0], [3.0, 4.0])
    assert bank.biases[1] == 0.1
    models[5] = LinearModel(weights=np.array([1.0]), bias=0.0)
    with pytest.raises(ValueError, match="disagree on feature dim"):
        LinearBank.from_models(models)


def test_bank_save_load_round_trips_bits(tmp_path):
    rng = np.random.default_rng(19)
    bank = LinearBank(
        category_ids=[0, 3, 7],
        weights=rng.normal(size=(3, 4)),
        biases=rng.normal(size=3),
    )
    path = tmp_path / "bank.txt"
    bank.save(path)
    loaded = LinearBank.load(path)
    assert loaded.category_ids == [0, 3, 7]
    assert np.array_equal(loaded.weights, bank.weights)
    assert np.array_equal(loaded.biases, bank.biases)
    assert loaded.feature_means is None and loaded.thresholds is None


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _banks(draw):
    n = draw(st.integers(0, 4))
    d = draw(st.integers(0, 6))

    def vector(size, elements):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=np.float64)

    optional = {}
    if draw(st.booleans()):
        optional["feature_means"] = vector(d, _finite)
        optional["feature_scales"] = vector(d, st.floats(min_value=5e-324))
    if draw(st.booleans()):
        optional["thresholds"] = vector(n, st.one_of(_finite, st.just(-np.inf)))
    return LinearBank(
        category_ids=draw(st.lists(st.integers(0, 2**31), min_size=n, max_size=n)),
        weights=vector(n * d, _finite).reshape(n, d),
        biases=vector(n, _finite),
        **optional,
    )


@settings(max_examples=150, deadline=None)
@given(bank=_banks())
def test_bank_save_load_is_bit_exact(tmp_path_factory, bank):
    path = tmp_path_factory.mktemp("bank") / "bank.model"
    bank.save(path)
    loaded = LinearBank.load(path)
    assert loaded.category_ids == bank.category_ids
    for name in ("weights", "biases", "feature_means", "feature_scales", "thresholds"):
        want, got = getattr(bank, name), getattr(loaded, name)
        if want is None:
            assert got is None, name
        else:
            assert got is not None and got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_bank_refuses_malformed_arrays():
    def bank(**changes):
        parts = dict(
            category_ids=[0, 1],
            weights=np.ones((2, 3)),
            biases=np.zeros(2),
            feature_means=np.zeros(3),
            feature_scales=np.ones(3),
            thresholds=np.zeros(2),
        )
        parts.update(changes)
        return LinearBank(**parts)

    bank()
    cases = [
        (dict(feature_means=np.zeros(2)), "3 means and scales"),
        (dict(feature_scales=np.ones(4)), "3 means and scales"),
        (dict(feature_scales=np.array([1.0, -2.0, 1.0])), "scales must be positive"),
        (dict(feature_scales=None), "both means and scales"),
        (dict(feature_means=np.array([0.0, np.nan, 0.0])), "means must be finite"),
        (dict(biases=np.zeros(3)), "one bias per category"),
        (dict(thresholds=np.zeros(1)), "one threshold per category"),
        (dict(weights=np.ones((3, 3))), "one weight row per category"),
        (dict(weights=np.array([[1.0, np.nan, 0.0], [0.0, 0.0, 0.0]])), "must be finite"),
        (dict(weights=np.array([[1.0, np.inf, 0.0], [0.0, 0.0, 0.0]])), "must be finite"),
        (dict(biases=np.array([0.0, -np.inf])), "must be finite"),
        (dict(thresholds=np.array([np.nan, 0.0])), "finite or -inf"),
        (dict(thresholds=np.array([0.0, np.inf])), "finite or -inf"),
    ]
    for changes, message in cases:
        with pytest.raises(ValueError, match=message):
            bank(**changes)


@pytest.mark.parametrize(
    "ids, bad", [([0, 1.5, 2], "1.5"), ([0, -0.5, 2], "-0.5"), ([0, -1, 2], "-1.0"), ([0, np.nan, 2], "nan")]
)
def test_bank_load_takes_only_whole_non_negative_category_ids(tmp_path, ids, bad):
    # int() would read 1.5 as 1 and -0.5 as 0, giving a bank that passes
    # detect's check for categories 0..N-1
    path = tmp_path / "svm_hog.model"
    arrays = {"category_ids": np.array([ids]), "weights": np.zeros((3, 2)), "biases": np.zeros((1, 3))}
    write_model(path, "linear-bank", {}, arrays)
    with pytest.raises(ValueError) as err:
        LinearBank.load(path)
    why = f"category ids must be non-negative whole numbers, got {bad}"
    assert str(err.value) == f"{path}: not a valid linear bank: {why}"
    arrays["category_ids"] = np.array([[0.0, -0.0, 2.0]])
    write_model(path, "linear-bank", {}, arrays)
    assert LinearBank.load(path).category_ids == [0, 0, 2]


def test_bank_load_names_the_file_of_a_malformed_bank(tmp_path):
    path = tmp_path / "fusion.model"
    write_model(
        path,
        "linear-bank",
        {},
        {
            "category_ids": np.array([[0.0, 1.0, 2.0]]),
            "weights": np.zeros((3, 9)),
            "biases": np.zeros((1, 3)),
            "feature_means": np.zeros((1, 8)),
            "feature_scales": np.ones((1, 9)),
        },
    )
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a valid linear bank: standardization needs 9 means"):
        LinearBank.load(path)


def test_fuse_scores_concatenates_in_channel_order():
    cnn = np.array([1.0, 2.0])
    hog = np.array([3.0, 4.0])
    ifv = np.array([5.0, 6.0])
    fused = fuse_scores(cnn, hog, ifv)
    assert fused.shape == (6,)
    assert np.array_equal(fused[:2], cnn)
    assert np.array_equal(fused[2:4], hog)
    assert np.array_equal(fused[4:], ifv)


def test_fuse_scores_single_category_and_mismatch():
    assert np.array_equal(fuse_scores([1.0], [2.0], [3.0]), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="lengths differ"):
        fuse_scores([1.0, 2.0], [3.0], [4.0])


def test_fuse_scores_of_score_rows_concatenates_on_the_last_axis():
    rng = np.random.default_rng(0)
    cnn, hog, ifv = (rng.standard_normal((4, 3)) for _ in range(3))
    fused = fuse_scores(cnn, hog, ifv)
    assert fused.shape == (4, 9)
    for r in range(4):
        assert np.array_equal(fused[r], fuse_scores(cnn[r], hog[r], ifv[r]))
    with pytest.raises(ValueError, match="lengths differ"):
        fuse_scores(cnn, hog, ifv[:, :2])
    with pytest.raises(ValueError, match="lengths differ"):
        fuse_scores(cnn, hog, ifv[:3])
    with pytest.raises(ValueError, match="must be 1-D or"):
        fuse_scores(cnn[None], hog[None], ifv[None])


def test_fuse_scores_takes_one_score_block_per_channel():
    assert CHANNELS == ("cnn", "hog", "ifv")
    with pytest.raises(ValueError, match="expected the scores of 3 channels, got 2"):
        fuse_scores([1.0], [2.0])
    with pytest.raises(ValueError, match="expected the scores of 3 channels, got 4"):
        fuse_scores([1.0], [2.0], [3.0], [4.0])


def test_mine_hard_negatives_hand_case_and_bounds():
    model = LinearModel(weights=np.array([1.0]), bias=0.0)
    negatives = np.array([[3.0], [1.0], [5.0], [5.0], [2.0]])
    assert list(mine_hard_negatives(model, negatives, 3)) == [2, 3, 0]
    assert list(mine_hard_negatives(model, negatives, 0)) == []
    assert len(mine_hard_negatives(model, negatives, 99)) == 5
    assert list(mine_hard_negatives(model, negatives, -1)) == []


def test_mine_hard_negatives_matches_sort_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        dim = int(rng.integers(1, 4))
        model = LinearModel(weights=rng.normal(size=dim), bias=float(rng.normal()))
        neg = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(n, dim))  # tie-prone
        count = int(rng.integers(0, n + 2))
        scores = neg @ model.weights + model.bias
        expect = sorted(range(n), key=lambda i: (-scores[i], i))[:count]
        assert list(mine_hard_negatives(model, neg, count)) == expect


# -------------------------------------------------------------- fusion model


def _fusion_fixture(seed=29):
    # two categories, six fused dims; columns 0/1 carry the category signal
    rng = np.random.default_rng(seed)
    n_per = 20
    rows, labels = [], []
    for label, col in ((0, 0), (1, 1), (-1, None)):
        for _ in range(n_per):
            v = rng.normal(size=6) * 0.1 - 1.0
            if col is not None:
                v[col] = 2.0 + rng.normal() * 0.1
            rows.append(v)
            labels.append(label)
    return np.array(rows), np.array(labels)


def test_train_fusion_separates_the_fixture():
    X, labels = _fusion_fixture()
    fusion = train_fusion(X, labels, lambda_=1e-3, epochs=20, seed=0)
    assert fusion.n_categories == 2
    for pos in range(2):
        scores = fusion.scores(X)[:, pos]
        want = np.where(labels == pos, 1.0, -1.0)
        assert np.all(np.sign(scores) == want)


def test_train_fusion_single_category_matches_train_svm_bits():
    # columns with equal +-1 counts have exactly zero mean and unit std, so
    # standardization is the identity and the stacked trainer must reproduce
    # a direct train_svm call bit for bit
    rng = np.random.default_rng(31)
    n = 40
    X = rng.permuted(
        np.concatenate([np.ones((n // 2, 3)), -np.ones((n // 2, 3))]), axis=0
    )
    labels = np.where(X[:, 0] > 0, 0, -1)
    fusion = train_fusion(X, labels, lambda_=0.01, epochs=7, seed=4)
    direct = train_svm(X, np.where(labels == 0, 1, -1), lambda_=0.01, epochs=7, seed=4)
    assert np.array_equal(fusion.feature_means, np.zeros(3))
    assert np.array_equal(fusion.feature_scales, np.ones(3))
    assert np.array_equal(fusion.weights[0], direct.weights)
    assert fusion.biases[0] == direct.bias


def test_train_fusion_is_equivariant_under_category_swap():
    X, labels = _fusion_fixture()
    swapped = np.where(labels == 0, 1, np.where(labels == 1, 0, -1))
    f1 = train_fusion(X, labels, lambda_=1e-3, epochs=5, seed=2)
    f2 = train_fusion(X, swapped, lambda_=1e-3, epochs=5, seed=2)
    assert np.array_equal(f1.weights[0], f2.weights[1])
    assert np.array_equal(f1.weights[1], f2.weights[0])
    assert f1.biases[0] == f2.biases[1]
    assert f1.biases[1] == f2.biases[0]


def test_train_fusion_errors_name_the_category():
    X, _ = _fusion_fixture()
    labels = np.full(X.shape[0], -1)
    with pytest.raises(ValueError, match="category 0: need at least one positive"):
        train_fusion(X, labels, lambda_=0.1, epochs=1, seed=0)
    with pytest.raises(ValueError, match="category 7: need at least one positive"):
        train_fusion(X, labels, lambda_=0.1, epochs=1, seed=0, category_ids=[7, 9])


def test_train_fusion_validates_shapes_and_labels():
    with pytest.raises(ValueError, match="not a multiple of 3"):
        train_fusion(np.zeros((4, 7)), [0, 0, -1, -1], 0.1, 1, 0)
    X = np.zeros((4, 6))
    with pytest.raises(ValueError, match=r"labels must lie in \[-1, 2\)"):
        train_fusion(X, [0, 1, 2, -1], 0.1, 1, 0)
    with pytest.raises(ValueError, match=r"labels must lie in \[-1, 2\)"):
        train_fusion(X, [0, -2, 1, -1], 0.1, 1, 0)
    with pytest.raises(ValueError, match="expected 2 category ids, got 3"):
        train_fusion(X, [0, 1, -1, -1], 0.1, 1, 0, category_ids=[1, 2, 3])
    with pytest.raises(ValueError, match="one label per sample"):
        train_fusion(X, [0, 1, -1], 0.1, 1, 0)


def _hand_fusion():
    return LinearBank(
        category_ids=[0],
        weights=np.array([[1.0, 2.0, 3.0]]),
        biases=np.array([0.5]),
        feature_means=np.array([1.0, 1.0, 1.0]),
        feature_scales=np.array([2.0, 2.0, 2.0]),
    )


def test_final_score_hand_value_with_standardization():
    fusion = _hand_fusion()
    # z = ([3,5,7] - 1) / 2 = [1,2,3]; score = 1 + 4 + 9 + 0.5
    assert np.array_equal(fusion.scores(np.array([[3.0, 5.0, 7.0]])), [[14.5]])


def test_final_score_of_one_row_agrees_with_a_batch():
    X, labels = _fusion_fixture()
    fusion = train_fusion(X, labels, lambda_=1e-3, epochs=5, seed=1)
    batch = fusion.scores(X[:10])
    for i, x in enumerate(X[:10]):
        alone = fusion.scores(x[None, :])[0]
        for c in range(fusion.n_categories):
            assert abs(alone[c] - batch[i, c]) <= 1e-12


def test_final_score_validates_shape():
    fusion = _hand_fusion()
    with pytest.raises(ValueError, match="does not match bank dim 3"):
        fusion.scores(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="does not match bank dim 3"):
        fusion.scores(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="does not match bank dim 3"):
        fusion.scores(np.zeros(3))


def test_fusion_model_validation():
    with pytest.raises(ValueError, match=r"standardization needs 5 means and scales, got \(6,\)"):
        LinearBank(
            category_ids=[0, 1],
            weights=np.zeros((2, 5)),
            biases=np.zeros(2),
            feature_means=np.zeros(6),
            feature_scales=np.ones(6),
        )
    with pytest.raises(ValueError, match="scales must be positive"):
        LinearBank(
            category_ids=[0],
            weights=np.zeros((1, 3)),
            biases=np.zeros(1),
            feature_means=np.zeros(3),
            feature_scales=np.array([1.0, 0.0, 1.0]),
        )


def test_fusion_save_load_round_trips_bits(tmp_path):
    X, labels = _fusion_fixture()
    fusion = train_fusion(X, labels, lambda_=1e-3, epochs=5, seed=3)
    path = tmp_path / "fusion.txt"
    fusion.save(path)
    loaded = LinearBank.load(path)
    assert loaded.category_ids == fusion.category_ids
    assert np.array_equal(loaded.weights, fusion.weights)
    assert np.array_equal(loaded.biases, fusion.biases)
    assert np.array_equal(loaded.feature_means, fusion.feature_means)
    assert np.array_equal(loaded.feature_scales, fusion.feature_scales)
