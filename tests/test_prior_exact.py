"""train-prior writes the bytes of the stage it replaced.

`context.train_presence_prior` owns the presence gate's whole policy: the
held-out draw, each category's fit or stand-in, the thresholds and the open
gate of a category no training image lacks or has. `stage_train_prior` only
reads the split, makes one call through its `fusedet.pipeline` name (the
benchmark's tracer times it there) and writes the model and run log. Here
the stage is checked against a frozen copy of the stage and trainer it
replaced, which split, calibrated and opened gates in the pipeline: the same
`prior.model` and run-log bytes, or the same error, on small splits.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusedet import pipeline
from fusedet.cache import save_arrays
from fusedet.classify import LinearBank, train_svm
from fusedet.config import PipelineConfig
from fusedet.context import presence_scores, select_thresholds
from fusedet.core import Box, GroundTruth
from fusedet.manifest import DatasetManifest, ManifestImage, write_manifest

# ------------------------------------------------------------ frozen copies


def _frozen_train_presence_prior(image_features, label_sets, image_ids, n_categories, lambda_, epochs, seed):
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
            biases[cid] = 1.0
            continue
        if np.all(y < 0):
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


def _frozen_stage_train_prior(cfg, manifest_path, out_dir, tag=None):
    data = pipeline._stage_inputs(manifest_path, out_dir, tag, cfg.prior_feature)
    man, F = data.man, data.prior
    n = len(man.images)
    ids = [im.image_id for im in man.images]
    label_sets = [{gt.category_id for gt in im.ground_truths} for im in man.images]

    by_id = sorted(range(n), key=lambda i: ids[i])
    n_held = n // 5 if n >= 5 else (1 if n >= 2 else 0)
    rng = np.random.default_rng(pipeline.derive_seed(cfg.seed, "prior-split"))
    perm = rng.permutation(n)
    held_positions = set(int(p) for p in perm[:n_held])
    train_idx = [by_id[p] for p in range(n) if p not in held_positions]
    held_idx = [by_id[p] for p in range(n) if p in held_positions]

    prior = _frozen_train_presence_prior(
        F[train_idx],
        [label_sets[i] for i in train_idx],
        [ids[i] for i in train_idx],
        man.n_categories,
        cfg.svm_lambda,
        cfg.svm_epochs,
        pipeline.derive_seed(cfg.seed, "prior"),
    )
    if cfg.prior_tau is not None:
        tau = np.full(man.n_categories, cfg.prior_tau)
    elif held_idx:
        scores = np.stack([presence_scores(F[i], prior) for i in held_idx])
        tau = select_thresholds(scores, [label_sets[i] for i in held_idx], man.n_categories, cfg.prior_recall)
    else:
        tau = np.full(man.n_categories, -np.inf)
    for cid in range(man.n_categories):
        present = sum(1 for i in train_idx if cid in label_sets[i])
        if present == 0 or present == len(train_idx):
            tau[cid] = -np.inf
    prior = dataclasses.replace(prior, thresholds=tau)
    path = pipeline.prior_path(data.out_dir)
    prior.save(path)
    pipeline._run_log(
        data.out_dir, "train-prior", data.tag, cfg, {"train_images": len(train_idx), "held_out": len(held_idx)}
    )
    return path


# ------------------------------------------------------------ a split on disk


def _write_split(folder: Path, label_sets, n_categories, seed) -> Path:
    """A manifest of len(label_sets) images (ids in shuffled order) and the
    features archive train-prior reads: whole-image IFV and CNN rows that
    carry each image's labels plus noise, and one proposal row per image."""
    rng = np.random.default_rng(seed)
    n = len(label_sets)
    names = [f"im{k:02d}" for k in rng.permutation(n).tolist()]
    images = [
        ManifestImage(name, f"{name}.ppm", [GroundTruth(name, Box(1, 1, 9, 9), cid) for cid in sorted(labels)])
        for name, labels in zip(names, label_sets)
    ]
    split = folder / "train"
    split.mkdir()
    manifest = split / "manifest.txt"
    write_manifest(manifest, DatasetManifest([f"c{c}" for c in range(n_categories)], images))
    onehot = np.array([[1.0 if c in labels else -1.0 for c in range(n_categories)] for labels in label_sets])
    onehot = onehot.reshape(n, n_categories)

    def rows(dim):
        return np.hstack([onehot, rng.normal(size=(n, dim))]) + rng.normal(scale=0.5, size=(n, n_categories + dim))

    save_arrays(
        folder / "features_train.npz",
        {
            "boxes": np.tile([1.0, 1.0, 9.0, 9.0], (n, 1)),
            "row_image": np.arange(n),
            "cnn": rng.normal(size=(n, 3)),
            "hog": rng.normal(size=(n, 2)),
            "ifv": rng.normal(size=(n, 2)),
            "prior_ifv": rows(2),
            "prior_cnn": rows(4),
        },
    )
    return manifest


def _outcome(stage, cfg, manifest, out: Path):
    """The bytes stage writes, or the error it raises."""
    try:
        stage(cfg, manifest, out)
    except Exception as exc:  # the oracle's error is part of the contract
        return type(exc).__name__, str(exc)
    return (out / "prior.model").read_bytes(), (out / "runlog_train-prior_train.txt").read_bytes()


def _label_sets(draw_modes, n, rng):
    """Per-image label sets with each category in every image, in none, or
    in a random subset."""
    labels = [set() for _ in range(n)]
    for cid, mode in enumerate(draw_modes):
        for i in range(n):
            if mode == "every" or (mode == "some" and rng.random() < 0.5):
                labels[i].add(cid)
    return labels


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(0, 4), st.integers(5, 12)),
    modes=st.lists(st.sampled_from(["every", "none", "some", "some"]), min_size=1, max_size=4),
    tau=st.one_of(st.none(), st.sampled_from([-math.inf, 0.0, 0.75, -2.5])),  # half of them calibrate
    recall=st.sampled_from([0.95, 0.5, 1.0]),
    feature=st.sampled_from(["ifv", "cnn"]),
    seed=st.integers(0, 2**16),
)
@example(n=12, modes=["some", "every", "none"], tau=None, recall=0.95, feature="ifv", seed=0)
@example(n=12, modes=["some", "some"], tau=0.75, recall=0.95, feature="cnn", seed=3)
@example(n=1, modes=["some"], tau=None, recall=0.95, feature="ifv", seed=1)
@example(n=0, modes=["some"], tau=None, recall=0.95, feature="ifv", seed=2)
def test_train_prior_writes_the_frozen_stages_bytes(n, modes, tau, recall, feature, seed):
    cfg = dataclasses.replace(
        PipelineConfig(), seed=seed, svm_epochs=3, prior_tau=tau, prior_recall=recall, prior_feature=feature
    )
    label_sets = _label_sets(modes, n, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = []
        for side, stage in (("frozen", _frozen_stage_train_prior), ("stage", pipeline.stage_train_prior)):
            folder = Path(tmp) / side
            folder.mkdir()
            manifest = _write_split(folder, label_sets, len(modes), seed)
            outcomes.append(_outcome(stage, cfg, manifest, folder))
    assert outcomes[0] == outcomes[1]


def test_train_prior_trains_through_the_pipeline_name_once(tmp_path, monkeypatch):
    calls = []
    real = pipeline.train_presence_prior

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_presence_prior", counted)
    label_sets = _label_sets(["some", "every", "some"], 12, np.random.default_rng(4))
    manifest = _write_split(tmp_path, label_sets, 3, 4)
    pipeline.stage_train_prior(PipelineConfig(), manifest, tmp_path)
    assert calls == [3]
    log = (tmp_path / "runlog_train-prior_train.txt").read_text()
    assert "held_out 2\n" in log and "train_images 10\n" in log
    thresholds = LinearBank.load(tmp_path / "prior.model").thresholds
    assert thresholds[1] == -np.inf and np.isfinite(thresholds[[0, 2]]).all()
