"""Stage orchestration over on-disk artifacts.

Every stage reads its inputs from a shared output directory, writes its
products there, and leaves a run log carrying the config digest and seed.
Artifacts for a dataset are tagged (by default with the name of the
directory holding its manifest), so one output directory can hold a train
and a test split side by side. All stage-level randomness comes from seeds
derived deterministically from the configured base seed, so reruns are
byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import zipfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import cache, modelio
from .classify import LinearBank, fuse_scores, mine_hard_negatives, train_fusion, train_svm
from .config import PipelineConfig, config_digest
from .context import (
    filter_detections,
    presence_scores,
    select_thresholds,
    train_presence_prior,
)
from .core import Box, Detection, GroundTruth, iou, nms, read_detections, write_detections
from .evaluation import mean_ap, per_class_report, read_report, write_report, categories_won
from .features import (
    dense_descriptors,
    fisher_encode,
    fisher_length,
    GmmModel,
    PcaModel,
    gmm_fit,
    hog,
    hog_length,
    load_cnn_features,
    pca_apply,
    pca_fit,
    write_cnn_features,
)
from .images import (
    Image,
    box_corners,
    draw_rect,
    float_pixels,
    read_pnm,
    sample_window_rgb,
    to_grayscale,
    write_pnm,
)
from .manifest import DatasetManifest, read_manifest
from .parallel import map_images, shared_empty
from .proposals import selective_search
from .regress import BoxRegressor, refine, train_bbox_regressor
from .synth import SynthSpec, generate_dataset

logger = logging.getLogger(__name__)

CHANNELS = ("cnn", "hog", "ifv")
CNN_EMBED_SIDE = 6  # stand-in embedding: 6x6 RGB thumbnail, 108 dims
# proposals per array pass in extract: each adds about 0.5 MB of float64
# temporaries, so a pass stays near 4.5 MB while removing most of the
# per-proposal Python work
EXTRACT_CHUNK = 8


class MissingArtifact(RuntimeError):
    """An upstream product is absent; the message names the stage to run."""


def derive_seed(base: int, *tokens) -> int:
    """Stable 64-bit child seed from the base seed and a token path."""
    blob = "|".join([str(base), *map(str, tokens)]).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def tag_for(manifest_path, override: Optional[str] = None) -> str:
    if override:
        return override
    return Path(manifest_path).resolve().parent.name


# ---------------------------------------------------------------------------
# artifact paths

def proposals_path(out_dir, tag):
    return Path(out_dir) / f"proposals_{tag}.txt"


def features_path(out_dir, tag):
    return Path(out_dir) / f"features_{tag}.npz"


def cnn_path(out_dir, tag):
    return Path(out_dir) / f"cnn_{tag}.txt"


def cnn_images_path(out_dir, tag):
    return Path(out_dir) / f"cnn_images_{tag}.txt"


def codebook_paths(out_dir):
    out = Path(out_dir)
    return out / "codebook_pca.model", out / "codebook_gmm.model"


def bank_path(out_dir, channel):
    return Path(out_dir) / f"svm_{channel}.model"


def fusion_path(out_dir):
    return Path(out_dir) / "fusion.model"


def regressor_path(out_dir):
    return Path(out_dir) / "regressor.model"


def prior_path(out_dir):
    return Path(out_dir) / "prior.model"


def _channel_path(out_dir, stem, tag, channel):
    """out_dir/<stem>_<tag>.txt for the fused system, <stem>_<tag>_<channel>.txt for one channel."""
    return Path(out_dir) / (f"{stem}_{tag}.txt" if channel == "fused" else f"{stem}_{tag}_{channel}.txt")


def detections_path(out_dir, tag, channel="fused"):
    return _channel_path(out_dir, "detections", tag, channel)


def report_path(out_dir, tag, channel="fused"):
    return _channel_path(out_dir, "report", tag, channel)


def _require(path: Path, stage: str) -> Path:
    if not Path(path).exists():
        raise MissingArtifact(f"{Path(path).name} not found; run '{stage}' first")
    return Path(path)


def _run_log(out_dir, stage: str, tag: str, cfg: PipelineConfig, extra: Dict[str, object]):
    path = Path(out_dir) / f"runlog_{stage}_{tag}.txt"
    with open(path, "w") as fh:
        fh.write(f"stage {stage}\n")
        fh.write(f"tag {tag}\n")
        fh.write(f"config {config_digest(cfg)}\n")
        fh.write(f"seed {cfg.seed}\n")
        for key in sorted(extra):
            fh.write(f"{key} {extra[key]}\n")


# ---------------------------------------------------------------------------
# proposals file

def write_proposals(path, per_image: Sequence[Tuple[str, Sequence[Box]]]) -> None:
    with open(path, "w") as fh:
        for image_id, boxes in per_image:
            fh.write(f"{image_id} {len(boxes)}\n")
            for b in boxes:
                coords = (b.x_min, b.y_min, b.x_max, b.y_max)
                fh.write(" ".join(modelio.fmt_float(v) for v in coords) + "\n")


def read_proposals(path) -> Dict[str, List[Box]]:
    """The boxes of every image in a proposals file; a malformed line raises
    ValueError prefixed with the file and line number."""
    out: Dict[str, List[Box]] = {}
    with open(path, "r") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    i = 0
    while i < len(lines):
        lineno, line = lines[i]
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'image_id count', got {line!r}")
        image_id, count = parts
        if not modelio.is_count(count):
            raise ValueError(f"{path}:{lineno}: bad box count {count!r}")
        count = int(count)
        if image_id in out:
            raise ValueError(f"{path}:{lineno}: duplicate image {image_id}")
        if i + count >= len(lines):
            raise ValueError(f"{path}:{lineno}: image {image_id} declares {count} boxes, file ends early")
        boxes = []
        for lineno, line in lines[i + 1 : i + 1 + count]:
            toks = line.split()
            if len(toks) != 4:
                raise ValueError(f"{path}:{lineno}: bad proposal line {line!r}")
            try:
                boxes.append(Box(*map(modelio.parse_real, toks)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        out[image_id] = boxes
        i += 1 + count
    return out


# ---------------------------------------------------------------------------
# stages

def stage_propose(cfg: PipelineConfig, manifest_path, out_dir, tag: Optional[str] = None) -> Path:
    tag = tag_for(manifest_path, tag)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    man = read_manifest(manifest_path)

    def image_boxes(i: int) -> List[Box]:
        img = read_pnm(man.resolved_path(man.images[i]))
        return selective_search(img, cfg.seg_k, cfg.seg_min_size, cfg.seg_sigma, cfg.proposals_max_per_image)

    boxes = map_images(image_boxes, len(man.images))
    path = proposals_path(out_dir, tag)
    write_proposals(path, [(im.image_id, b) for im, b in zip(man.images, boxes)])
    _run_log(out_dir, "propose", tag, cfg, {"images": len(man.images), "proposals": sum(map(len, boxes))})
    return path


def _embed_rows(px: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Stand-in for an external CNN: L2-normalized small RGB thumbnails, one
    row per window of an image's float pixels."""
    v = sample_window_rgb(px, windows, CNN_EMBED_SIDE, CNN_EMBED_SIDE).reshape(len(windows), -1)
    v /= 255.0
    v /= np.maximum(np.sqrt(np.vecdot(v, v)), 1e-12)[:, None]
    return v


def _fisher_rows(cfg: PipelineConfig, px: np.ndarray, windows: np.ndarray, pca: PcaModel, gmm: GmmModel) -> np.ndarray:
    """Fisher vectors of windows resampled to the canonical ifv.window square
    and rounded to 8-bit samples, as if each were an image of its own."""
    side = cfg.ifv_window
    rgb = sample_window_rgb(px, windows, side, side)
    np.clip(np.rint(rgb, out=rgb), 0, 255, out=rgb)
    descriptors = dense_descriptors(to_grayscale(rgb), cfg.ifv_stride, cfg.ifv_patch)
    return fisher_encode(pca_apply(pca, descriptors), gmm)


def extract_image(
    cfg: PipelineConfig, img: Image, windows: np.ndarray, pca: PcaModel, gmm: GmmModel, hog_out, ifv_out, cnn_out
) -> Tuple[np.ndarray, np.ndarray]:
    """Features of one image: writes the HOG, Fisher and embedding rows of
    every window (a (P, 4) corner array) into the matching rows of the three
    outputs, and returns the Fisher vector and embedding of the whole image.

    Windows go through the feature functions EXTRACT_CHUNK at a time, so the
    float64 temporaries of one pass stay a few megabytes however many
    proposals the image has.
    """
    px = float_pixels(img)
    gray = to_grayscale(px)
    for lo in range(0, len(windows), EXTRACT_CHUNK):
        rows = slice(lo, lo + EXTRACT_CHUNK)
        chunk = windows[rows]
        hog_out[rows] = hog(gray, chunk, cfg.hog_cells_x, cfg.hog_cells_y)
        ifv_out[rows] = _fisher_rows(cfg, px, chunk, pca, gmm)
        cnn_out[rows] = _embed_rows(px, chunk)
    full = box_corners([img.full_box])
    return _fisher_rows(cfg, px, full, pca, gmm)[0], _embed_rows(px, full)[0]


def _fit_codebook(cfg: PipelineConfig, man: DatasetManifest, out_dir) -> Tuple[PcaModel, GmmModel]:
    pca_file, gmm_file = codebook_paths(out_dir)
    refit = f"delete {pca_file.name} and {gmm_file.name} and rerun 'extract' on the training split"
    if pca_file.exists() and gmm_file.exists():
        try:
            pca, gmm = PcaModel.load(pca_file), GmmModel.load(gmm_file)
        except ValueError as exc:
            raise MissingArtifact(f"{exc}; {refit}") from None
        for path, what, saved, key, want in (
            (pca_file, "input dims", pca.basis.shape[0], "ifv.patch", 2 * cfg.ifv_patch**2),
            (pca_file, "output dims", pca.dim, "ifv.pca_dim", cfg.ifv_pca_dim),
            (gmm_file, "components", gmm.k, "ifv.gmm_k", cfg.ifv_gmm_k),
        ):
            if saved != want:
                raise MissingArtifact(
                    f"{path}: saved codebook has {saved} {what} where {key} asks for {want}; {refit}"
                )
        return pca, gmm

    chunks = []
    total = 0
    for im in man.images:
        img = read_pnm(man.resolved_path(im))
        d = dense_descriptors(to_grayscale(img), cfg.ifv_stride, cfg.ifv_patch)
        if len(d):
            chunks.append(d)
            total += len(d)
        if total >= 4 * cfg.ifv_codebook_samples:
            break
    if not chunks:
        raise ValueError("no descriptors available to fit the codebook")
    pool = np.concatenate(chunks)
    if len(pool) > cfg.ifv_codebook_samples:
        rng = np.random.default_rng(derive_seed(cfg.seed, "codebook-sample"))
        keep = np.sort(rng.choice(len(pool), size=cfg.ifv_codebook_samples, replace=False))
        pool = pool[keep]
    pca = pca_fit(pool, cfg.ifv_pca_dim)
    reduced = pca_apply(pca, pool)
    gmm = gmm_fit(
        reduced,
        cfg.ifv_gmm_k,
        cfg.ifv_gmm_iters,
        cfg.ifv_gmm_tol,
        derive_seed(cfg.seed, "gmm"),
        cfg.ifv_variance_floor,
    )
    pca.save(pca_file)
    gmm.save(gmm_file)
    logger.info("codebook fit on %d descriptors", len(pool))
    return pca, gmm


def _row_keys(man: DatasetManifest, row_image: np.ndarray, row_proposal: np.ndarray) -> List[Tuple[str, int]]:
    """The CNN record key (image_id, proposal_index) of each archive row."""
    ids = [im.image_id for im in man.images]
    return [(ids[i], p) for i, p in zip(row_image.tolist(), row_proposal.tolist())]


def stage_extract(cfg: PipelineConfig, manifest_path, out_dir, tag: Optional[str] = None) -> Path:
    tag = tag_for(manifest_path, tag)
    out_dir = Path(out_dir)
    man = read_manifest(manifest_path)
    props = read_proposals(_require(proposals_path(out_dir, tag), "propose"))
    for im in man.images:
        if im.image_id not in props:
            raise MissingArtifact(
                f"no proposals for image {im.image_id}; rerun 'propose' on this manifest"
            )

    pca, gmm = _fit_codebook(cfg, man, out_dir)

    counts = np.array([len(props[im.image_id]) for im in man.images], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    n = int(counts.sum())
    box_rows = box_corners([box for im in man.images for box in props[im.image_id]])
    # the first image fixes the split's channel count, and with it the
    # embedding width, before any worker starts
    first = read_pnm(man.resolved_path(man.images[0])) if man.images else None
    channels = 0 if first is None else first.channels
    ifv_length = fisher_length(pca.dim, gmm.k)
    cnn_width = channels * CNN_EMBED_SIDE**2
    hog_rows = shared_empty((n, hog_length(cfg.hog_cells_x, cfg.hog_cells_y)), np.float32)
    ifv_rows = shared_empty((n, ifv_length), np.float32)
    cnn_rows = shared_empty((n, cnn_width), np.float64)
    prior_rows = shared_empty((len(man.images), ifv_length), np.float32)
    prior_cnn = shared_empty((len(man.images), cnn_width), np.float64)

    def image_rows(i: int) -> None:
        im = man.images[i]
        img = first if i == 0 else read_pnm(man.resolved_path(im))
        if img.channels != channels:
            raise ValueError(
                f"{manifest_path}: image {man.images[0].image_id} has {channels} channels but image "
                f"{im.image_id} has {img.channels}; the images of one split must share a channel count"
            )
        rows = slice(starts[i], starts[i] + counts[i])
        prior_rows[i], prior_cnn[i] = extract_image(
            cfg, img, box_rows[rows], pca, gmm, hog_rows[rows], ifv_rows[rows], cnn_rows[rows]
        )

    map_images(image_rows, len(man.images))

    row_image = np.repeat(np.arange(len(counts)), counts).astype(np.int32)
    row_proposal = (np.arange(n) - np.repeat(starts, counts)).astype(np.int32)
    cnn_text, images_text = cnn_path(out_dir, tag), cnn_images_path(out_dir, tag)
    keys = _row_keys(man, row_image, row_proposal)
    write_cnn_features(cnn_text, ((image_id, p, v) for (image_id, p), v in zip(keys, cnn_rows)))
    write_cnn_features(images_text, ((im.image_id, 0, v) for im, v in zip(man.images, prior_cnn)))
    arrays = {
        "boxes": box_rows,
        "hog": hog_rows,
        "ifv": ifv_rows,
        "cnn": cnn_rows,
        "cnn_sha256": np.array(cache.file_sha256(cnn_text)),
        "prior_ifv": prior_rows,
        "prior_cnn": prior_cnn,
        "prior_cnn_sha256": np.array(cache.file_sha256(images_text)),
        "row_image": row_image,
        "row_proposal": row_proposal,
    }
    path = features_path(out_dir, tag)
    cache.save_arrays(path, arrays)
    _run_log(out_dir, "extract", tag, cfg, {"rows": n, "images": len(man.images)})
    return path


def _load_features(path: Path) -> Dict[str, np.ndarray]:
    """The features archive extract wrote at path. A missing, unreadable or
    boxless one raises MissingArtifact naming the file and 'extract'."""
    try:
        feats = cache.load_arrays(_require(path, "extract"))
    except (OSError, EOFError, ValueError, zipfile.BadZipFile):
        raise MissingArtifact(f"{path}: not a readable features archive; rerun 'extract'") from None
    if "boxes" not in feats:
        raise MissingArtifact(f"{path}: archive holds no proposal boxes; rerun 'extract'")
    return feats


def _import_cnn(feats: Dict[str, np.ndarray], name: str, text: Path, keys: Sequence[Tuple[str, int]]) -> bool:
    """Makes feats[name] the rows that hold the vectors of the CNN features
    file text for the (image_id, proposal_index) keys, in order. True when
    the text had to be parsed, so that feats no longer match the archive
    they were loaded from.

    The text is the source of truth. The archive keeps its parse with the
    sha256 of its bytes (feats[name + "_sha256"]) and serves the rows while
    that matches. Otherwise (replaced embeddings, or an archive older than
    its CNN rows) the text is parsed, checked to hold every key, and its rows
    and digest are stored in feats; errors thus come from the text, and a
    failed parse changes nothing.
    """
    digest = cache.file_sha256(_require(text, "extract"))
    if name in feats and str(feats.get(name + "_sha256")) == digest:
        return False
    index, matrix = load_cnn_features(text)
    for image_id, proposal_index in keys:
        if (image_id, proposal_index) not in index:
            raise MissingArtifact(
                f"{text}: no vector for image {image_id} proposal {proposal_index}; rerun 'extract'"
            )
    feats[name] = matrix[[index[key] for key in keys]]
    feats[name + "_sha256"] = np.array(digest)
    return True


class _StageInputs(NamedTuple):
    """What every stage after extract reads: the manifest, the features
    archive (one row per proposal, with the row's box, image and proposal
    index), the matrix of every channel and, for train-prior and detect, the
    whole-image prior rows."""

    tag: str
    out_dir: Path
    man: DatasetManifest
    feats: Dict[str, np.ndarray]
    channels: Dict[str, np.ndarray]
    prior: Optional[np.ndarray]


def _stage_inputs(
    manifest_path, out_dir, tag: Optional[str], prior_feature: Optional[str] = None, man: Optional[DatasetManifest] = None
) -> _StageInputs:
    """The inputs of a stage after extract, the one reader of a split's
    features archive; with prior_feature ('ifv' or 'cnn') also the prior
    rows of that feature. man, when given, is the manifest already read.

    When CNN texts must be parsed, the archive is rewritten once, after
    every text has been checked, so a failed parse or key check writes
    nothing."""
    tag = tag_for(manifest_path, tag)
    out_dir = Path(out_dir)
    if man is None:
        man = read_manifest(manifest_path)
    path = features_path(out_dir, tag)
    feats = _load_features(path)
    keys = _row_keys(man, feats["row_image"], feats["row_proposal"])
    imported = _import_cnn(feats, "cnn", cnn_path(out_dir, tag), keys)
    if prior_feature == "cnn":
        images = [(im.image_id, 0) for im in man.images]
        imported |= _import_cnn(feats, "prior_cnn", cnn_images_path(out_dir, tag), images)
    if imported:
        cache.save_arrays(path, feats)
    channels = {"cnn": feats["cnn"], "hog": feats["hog"], "ifv": feats["ifv"]}
    prior = None if prior_feature is None else feats["prior_" + prior_feature]
    return _StageInputs(tag, out_dir, man, feats, channels, prior)


def _label_rows(cfg, data: _StageInputs):
    """Training label per feature row: category id, -1 background, -2 ignored.

    Also returns, per row, the best-IoU ground truth (or None) and the box.
    """
    row_image = data.feats["row_image"]
    boxes = [Box(*c) for c in data.feats["boxes"].tolist()]
    labels = np.full(len(boxes), -1, dtype=np.int64)
    best_gts: List[Optional[GroundTruth]] = [None] * len(boxes)
    for r, box in enumerate(boxes):
        gts = data.man.images[row_image[r]].ground_truths
        if not gts:
            continue
        ious = [iou(box, gt.box) for gt in gts]
        j = int(np.argmax(ious))
        best_gts[r] = gts[j]
        if ious[j] >= cfg.train_pos_iou:
            labels[r] = gts[j].category_id
        elif ious[j] >= cfg.train_neg_iou:
            labels[r] = -2
    return labels, best_gts, boxes


def stage_train_svm(cfg: PipelineConfig, manifest_path, out_dir, tag: Optional[str] = None):
    data = _stage_inputs(manifest_path, out_dir, tag)
    man = data.man
    labels, _, _ = _label_rows(cfg, data)

    paths = []
    for channel in CHANNELS:
        X_all = data.channels[channel]
        models = {}
        for cid in range(man.n_categories):
            pos = np.nonzero(labels == cid)[0]
            neg = np.nonzero(labels == -1)[0]
            if len(pos) == 0:
                raise ValueError(
                    f"category {cid} ({man.categories[cid]}) has no positive proposals; "
                    "cannot train its classifier"
                )
            if len(neg) == 0:
                raise ValueError("no background proposals available for training")
            if len(neg) > cfg.svm_negative_cap:
                rng = np.random.default_rng(derive_seed(cfg.seed, "svm-neg", channel, cid))
                neg = np.sort(rng.choice(neg, size=cfg.svm_negative_cap, replace=False))
            X = np.concatenate([X_all[pos], X_all[neg]])
            y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
            model = train_svm(X, y, cfg.svm_lambda, cfg.svm_epochs, derive_seed(cfg.seed, "svm", channel, cid))
            if cfg.svm_hard_negatives and cfg.svm_hard_negative_count > 0:
                all_neg = np.nonzero(labels == -1)[0]
                picks = mine_hard_negatives(model, X_all[all_neg], cfg.svm_hard_negative_count)
                hard = all_neg[picks]
                neg = np.unique(np.concatenate([neg, hard]))
                X = np.concatenate([X_all[pos], X_all[neg]])
                y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
                model = train_svm(
                    X, y, cfg.svm_lambda, cfg.svm_epochs, derive_seed(cfg.seed, "svm-hard", channel, cid)
                )
            models[cid] = model
        path = bank_path(data.out_dir, channel)
        LinearBank.from_models(models).save(path)
        paths.append(path)
    _run_log(data.out_dir, "train-svm", data.tag, cfg, {"categories": man.n_categories, "rows": len(labels)})
    return paths


def _load_model(load, path: Path, stage: str, dim: int):
    """The model that stage saved at path, read by load and checked to take
    the dim-wide feature rows of the data. A missing, malformed or stale file
    raises MissingArtifact naming the stage to rerun."""
    try:
        model = load(_require(path, stage))
    except ValueError as exc:
        raise MissingArtifact(f"{exc}; rerun '{stage}'") from None
    if model.dim != dim:
        raise MissingArtifact(
            f"{path}: model scores {model.dim}-wide features but the data has {dim}; rerun '{stage}'"
        )
    return model


def _load_bank(path: Path, stage: str, dim: int, n_categories: int) -> LinearBank:
    """The bank that stage saved at path, checked against the data it is to
    score: dim-wide feature rows of categories 0..n_categories-1."""
    bank = _load_model(LinearBank.load, path, stage, dim)
    if bank.category_ids != list(range(n_categories)):
        raise MissingArtifact(
            f"{path}: model categories {bank.category_ids} are not the manifest's "
            f"0..{n_categories - 1}; rerun '{stage}'"
        )
    return bank


def _load_banks(data: _StageInputs) -> Dict[str, LinearBank]:
    n_cat = data.man.n_categories
    return {
        ch: _load_bank(bank_path(data.out_dir, ch), "train-svm", data.channels[ch].shape[1], n_cat)
        for ch in CHANNELS
    }


def _bank_scores(channels: Dict[str, np.ndarray], banks: Dict[str, LinearBank]) -> np.ndarray:
    """Fused (cnn, hog, ifv) score matrix for every feature row."""
    return fuse_scores(*(banks[ch].scores(channels[ch]) for ch in CHANNELS))


def stage_train_fusion(cfg: PipelineConfig, manifest_path, out_dir, tag: Optional[str] = None) -> Path:
    data = _stage_inputs(manifest_path, out_dir, tag)
    labels, _, _ = _label_rows(cfg, data)
    fused = _bank_scores(data.channels, _load_banks(data))
    keep = labels != -2
    fusion = train_fusion(
        fused[keep],
        labels[keep],
        cfg.fusion_lambda,
        cfg.fusion_epochs,
        derive_seed(cfg.seed, "fusion"),
        category_ids=list(range(data.man.n_categories)),
    )
    path = fusion_path(data.out_dir)
    fusion.save(path)
    _run_log(data.out_dir, "train-fusion", data.tag, cfg, {"rows": int(keep.sum())})
    return path


def stage_train_regressor(cfg: PipelineConfig, manifest_path, out_dir, tag: Optional[str] = None) -> Path:
    data = _stage_inputs(manifest_path, out_dir, tag)
    _, best_gts, boxes_per_row = _label_rows(cfg, data)

    rows = [r for r, gt in enumerate(best_gts) if gt is not None]
    X = data.channels[cfg.regress_channel][rows]
    regressor = train_bbox_regressor(
        X,
        [boxes_per_row[r] for r in rows],
        [best_gts[r] for r in rows],
        cfg.regress_lambda,
        cfg.regress_match_iou,
    )
    path = regressor_path(data.out_dir)
    regressor.save(path)
    _run_log(
        data.out_dir,
        "train-regressor",
        data.tag,
        cfg,
        {"pairs": len(rows), "trained_categories": len(regressor.coefficients)},
    )
    return path


def _prior_features(cfg, man, out_dir, tag) -> np.ndarray:
    """Whole-image prior feature of every image, in manifest order."""
    return _stage_inputs(None, out_dir, tag, cfg.prior_feature, man).prior


def stage_train_prior(cfg: PipelineConfig, manifest_path, out_dir, tag: Optional[str] = None) -> Path:
    data = _stage_inputs(manifest_path, out_dir, tag, cfg.prior_feature)
    man, F = data.man, data.prior
    n = len(man.images)
    ids = [im.image_id for im in man.images]
    label_sets = [{gt.category_id for gt in im.ground_truths} for im in man.images]

    # deterministic held-out split for threshold calibration, independent of
    # manifest order
    by_id = sorted(range(n), key=lambda i: ids[i])
    n_held = n // 5 if n >= 5 else (1 if n >= 2 else 0)
    rng = np.random.default_rng(derive_seed(cfg.seed, "prior-split"))
    perm = rng.permutation(n)
    held_positions = set(int(p) for p in perm[:n_held])
    train_idx = [by_id[p] for p in range(n) if p not in held_positions]
    held_idx = [by_id[p] for p in range(n) if p in held_positions]

    prior = train_presence_prior(
        F[train_idx],
        [label_sets[i] for i in train_idx],
        [ids[i] for i in train_idx],
        man.n_categories,
        cfg.svm_lambda,
        cfg.svm_epochs,
        derive_seed(cfg.seed, "prior"),
    )
    if cfg.prior_tau is not None:
        tau = np.full(man.n_categories, cfg.prior_tau)
    elif held_idx:
        scores = np.stack([presence_scores(F[i], prior) for i in held_idx])
        tau = select_thresholds(scores, [label_sets[i] for i in held_idx], man.n_categories, cfg.prior_recall)
    else:
        tau = np.full(man.n_categories, -np.inf)
    # categories without both labels in the training subset have stand-in
    # constant models; their gates stay open no matter the policy
    for cid in range(man.n_categories):
        present = sum(1 for i in train_idx if cid in label_sets[i])
        if present == 0 or present == len(train_idx):
            tau[cid] = -np.inf
    prior = dataclasses.replace(prior, thresholds=tau)
    path = prior_path(data.out_dir)
    prior.save(path)
    _run_log(data.out_dir, "train-prior", data.tag, cfg, {"train_images": len(train_idx), "held_out": len(held_idx)})
    return path


def stage_detect(
    cfg: PipelineConfig,
    manifest_path,
    out_dir,
    tag: Optional[str] = None,
    channel: str = "fused",
) -> Path:
    if channel not in ("fused",) + CHANNELS:
        raise ValueError(f"unknown detect channel {channel!r}")
    data = _stage_inputs(manifest_path, out_dir, tag, cfg.prior_feature)
    man, out_dir = data.man, data.out_dir
    n_cat = man.n_categories
    banks = _load_banks(data)
    fusion = _load_bank(fusion_path(out_dir), "train-fusion", 3 * n_cat, n_cat) if channel == "fused" else None
    regressor = _load_model(
        BoxRegressor.load, regressor_path(out_dir), "train-regressor", data.channels[cfg.regress_channel].shape[1]
    )
    prior = _load_bank(prior_path(out_dir), "train-prior", data.prior.shape[1], n_cat)

    results: List[Detection] = []
    for i, im in enumerate(man.images):
        rows = np.nonzero(data.feats["row_image"] == i)[0]
        if len(rows) == 0:
            continue
        boxes = [Box(*c) for c in data.feats["boxes"][rows].tolist()]
        img = read_pnm(man.resolved_path(im))
        per_channel = {ch: data.channels[ch][rows] for ch in CHANNELS}
        if channel == "fused":
            final = fusion.scores(_bank_scores(per_channel, banks))
        else:
            final = banks[channel].scores(per_channel[channel])

        X_reg = per_channel[cfg.regress_channel].astype(np.float64)
        presence = presence_scores(data.prior[i], prior)
        for cid in range(n_cat):
            dets = [
                Detection(image_id=im.image_id, category_id=cid, score=float(final[p, cid]), box=boxes[p])
                for p in range(len(boxes))
            ]
            dets = refine(dets, X_reg, regressor, img.width, img.height)
            dets = nms(dets, cfg.nms_iou)
            dets = filter_detections(dets, presence, prior.thresholds)
            results.extend(dets)

    path = detections_path(out_dir, data.tag, channel)
    with open(path, "w") as fh:
        write_detections(results, fh)
    _run_log(out_dir, f"detect-{channel}", data.tag, cfg, {"detections": len(results)})
    return path


def stage_eval(
    cfg: PipelineConfig,
    manifest_path,
    out_dir,
    tag: Optional[str] = None,
    channel: str = "fused",
    detections_file=None,
    report_file=None,
) -> Path:
    tag = tag_for(manifest_path, tag)
    out_dir = Path(out_dir)
    man = read_manifest(manifest_path)
    det_path = Path(detections_file) if detections_file else detections_path(out_dir, tag, channel)
    _require(det_path, "detect")
    with open(det_path, "r") as fh:
        dets = read_detections(fh)
    report = per_class_report(dets, man.all_ground_truths(), cfg.eval_iou)
    path = Path(report_file) if report_file else report_path(out_dir, tag, channel)
    write_report(path, report)
    _run_log(out_dir, f"eval-{channel}", tag, cfg, {"mAP": modelio.fmt_float(mean_ap(report))})
    return path


def stage_compare(report_files: Dict[str, Path], out_file) -> Dict[str, int]:
    reports = {}
    for name, path in sorted(report_files.items()):
        _require(path, "eval")
        reports[name] = read_report(path)
    wins = categories_won(reports)
    with open(out_file, "w") as fh:
        for name in sorted(wins):
            fh.write(f"{name} {wins[name]}\n")
    return wins


_PALETTE = (
    (255, 40, 40),
    (40, 255, 40),
    (60, 90, 255),
    (255, 220, 0),
    (255, 0, 255),
    (0, 255, 255),
)


def stage_render(
    cfg: PipelineConfig,
    manifest_path,
    out_dir,
    tag: Optional[str] = None,
    channel: str = "fused",
    min_score: float = 0.0,
) -> Path:
    tag = tag_for(manifest_path, tag)
    out_dir = Path(out_dir)
    man = read_manifest(manifest_path)
    det_path = _require(detections_path(out_dir, tag, channel), "detect")
    with open(det_path, "r") as fh:
        dets = read_detections(fh)
    by_image: Dict[str, List[Detection]] = {}
    for d in dets:
        if d.score >= min_score:
            by_image.setdefault(d.image_id, []).append(d)

    overlay_dir = out_dir / f"overlays_{tag}"
    overlay_dir.mkdir(parents=True, exist_ok=True)
    for im in man.images:
        img = read_pnm(man.resolved_path(im))
        pixels = img.pixels.copy()
        if pixels.shape[2] == 1:
            pixels = np.repeat(pixels, 3, axis=2)
        for d in by_image.get(im.image_id, []):
            draw_rect(pixels, d.box, _PALETTE[d.category_id % len(_PALETTE)])
        write_pnm(Image.from_array(pixels), overlay_dir / f"{im.image_id}.ppm")
    _run_log(out_dir, "render", tag, cfg, {"images": len(man.images), "drawn": len(dets)})
    return overlay_dir


def stage_all(
    cfg: PipelineConfig,
    out_dir,
    train_manifest=None,
    test_manifest=None,
    train_images: int = 200,
    test_images: int = 50,
    classes: int = 3,
    max_shapes: int = 3,
    noise: float = 0.3,
    image_size: int = 96,
) -> Path:
    """The whole graph in one call; returns the test split's report path.

    Without explicit manifests a synthetic train/test pair is generated
    under out_dir/data first.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if train_manifest is None or test_manifest is None:
        spec = SynthSpec(
            n_classes=classes, n_images=train_images, max_shapes=max_shapes, noise=noise, image_size=image_size
        )
        generate_dataset(out_dir / "data" / "train", spec, derive_seed(cfg.seed, "synth", "train"), prefix="tr")
        test_spec = dataclasses.replace(spec, n_images=test_images)
        generate_dataset(out_dir / "data" / "test", test_spec, derive_seed(cfg.seed, "synth", "test"), prefix="te")
        train_manifest = out_dir / "data" / "train" / "manifest.txt"
        test_manifest = out_dir / "data" / "test" / "manifest.txt"

    stage_propose(cfg, train_manifest, out_dir)
    stage_propose(cfg, test_manifest, out_dir)
    stage_extract(cfg, train_manifest, out_dir)
    stage_extract(cfg, test_manifest, out_dir)
    stage_train_svm(cfg, train_manifest, out_dir)
    stage_train_fusion(cfg, train_manifest, out_dir)
    stage_train_regressor(cfg, train_manifest, out_dir)
    stage_train_prior(cfg, train_manifest, out_dir)
    stage_detect(cfg, test_manifest, out_dir)
    return stage_eval(cfg, test_manifest, out_dir)
