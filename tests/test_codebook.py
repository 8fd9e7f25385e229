"""The codebook fit of extract against the concatenating fit it replaced,
its memory, and the run-log lines it writes.

The fit draws the rows it keeps before it computes a descriptor, fills one
pool array with them image by image, and centres it in place. The oracle
below is the earlier fit: per-image arrays joined by np.concatenate,
pool[keep], a copying PCA and pca_apply. The codebook files must match it
bit for bit.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fusedet import pipeline
from fusedet.config import PipelineConfig
from fusedet.features import GmmModel, PcaModel, dense_descriptors, gmm_fit
from fusedet.images import Image, float_pixels, read_pnm, to_grayscale, write_pnm
from fusedet.manifest import read_manifest, write_manifest
from fusedet.modelio import fmt_float
from fusedet.pipeline import codebook_paths, derive_seed, stage_extract, stage_propose
from fusedet.synth import SynthSpec, generate_dataset

# ---------------------------------------------------------------- the oracle


def _old_pca_fit(X, target_dim):
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / X.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    basis = eigvecs[:, ::-1][:, :target_dim].copy()
    for j in range(target_dim):
        pivot = np.argmax(np.abs(basis[:, j]))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    return PcaModel(mean=mean, basis=basis)


def _old_fit(cfg, man):
    chunks = []
    total = 0
    for im in man.images:
        plane = to_grayscale(float_pixels(read_pnm(man.resolved_path(im))))
        d = dense_descriptors(plane, cfg.ifv_stride, cfg.ifv_patch)
        if len(d):
            chunks.append(d)
            total += len(d)
        if total >= 4 * cfg.ifv_codebook_samples:
            break
    pool = np.concatenate(chunks)
    if len(pool) > cfg.ifv_codebook_samples:
        rng = np.random.default_rng(derive_seed(cfg.seed, "codebook-sample"))
        keep = np.sort(rng.choice(len(pool), size=cfg.ifv_codebook_samples, replace=False))
        pool = pool[keep]
    pca = _old_pca_fit(pool, cfg.ifv_pca_dim)
    reduced = (pool - pca.mean) @ pca.basis
    gmm = gmm_fit(
        reduced, cfg.ifv_gmm_k, cfg.ifv_gmm_iters, cfg.ifv_gmm_tol, derive_seed(cfg.seed, "gmm"), cfg.ifv_variance_floor
    )
    return pca, gmm, total, len(pool)


# ------------------------------------------------------------------ fixtures


def _cfg(samples):
    return dataclasses.replace(
        PipelineConfig(), ifv_codebook_samples=samples, ifv_pca_dim=16, ifv_gmm_k=4, ifv_gmm_iters=15
    )


def _split(root, images, size):
    """A synthetic split of that many size-px images; its manifest."""
    generate_dataset(root, SynthSpec(n_classes=2, n_images=images, max_shapes=2, noise=0.3, image_size=size), seed=3)
    return read_manifest(root / "manifest.txt")


def _cut(root, man, shapes):
    """man with image i cut to its top-left (height, width) = shapes[i]."""
    for i, (h, w) in shapes.items():
        im = man.images[i]
        img = read_pnm(man.resolved_path(im))
        im.path = f"{im.image_id}_cut.ppm"
        write_pnm(Image.from_array(img.pixels[:h, :w]), root / im.path)
    write_manifest(root / "manifest.txt", man)
    return read_manifest(root / "manifest.txt")


def _ragged_split(root):
    """Eight 96 px images, of which the second is cut too short for a patch
    (no descriptors) and the fourth to an odd 50 x 77."""
    return _cut(root, _split(root, 8, 96), {1: (10, 40), 3: (50, 77)})


def _without_provenance(path, cfg, tag):
    """The text of a codebook file without the meta lines of the settings
    and split tag a fit records, after checking that it holds them."""
    lines = path.read_text().splitlines(keepends=True)
    recorded = [ln for ln in lines if ln.startswith(("meta ifv.", "meta seed ", "meta tag "))]
    recorded_by_fit = {**pipeline._codebook_settings(cfg), "tag": tag}
    assert recorded == [f"meta {key} {value}\n" for key, value in recorded_by_fit.items()]
    return "".join(ln for ln in lines if ln not in recorded)


def _descriptors_per_image(man, cfg):
    planes = [to_grayscale(float_pixels(read_pnm(man.resolved_path(im)))) for im in man.images]
    return [len(dense_descriptors(plane, cfg.ifv_stride, cfg.ifv_patch)) for plane in planes]


# ------------------------------------------------------------------- the fit


@pytest.mark.parametrize(
    "samples, drawn, pool",
    # 6 images of 121 descriptors, one of 0 and one of 40: 766 in all, and
    # 403 by the fifth image
    [(5000, 766, 766), (500, 766, 500), (100, 403, 100)],
    ids=["whole-pool", "subsampled", "early-stop"],
)
def test_codebook_files_match_the_concatenating_fit(tmp_path, samples, drawn, pool):
    man = _ragged_split(tmp_path / "data")
    cfg = _cfg(samples)
    assert _descriptors_per_image(man, cfg) == [121, 0, 121, 40, 121, 121, 121, 121]
    out = tmp_path / "out"
    out.mkdir()
    pca, gmm, lines = pipeline._fit_codebook(cfg, man, out, "data")
    old_pca, old_gmm, old_drawn, old_pool = _old_fit(cfg, man)
    assert (old_drawn, old_pool) == (drawn, pool)
    assert lines == {
        "codebook": "fit",
        "codebook_drawn": drawn,
        "codebook_pool": pool,
        "codebook_em_iterations": len(old_gmm.log_likelihoods),
        "codebook_log_likelihood": fmt_float(old_gmm.log_likelihoods[-1]),
        "codebook_tag": "data",
    }
    old = tmp_path / "old"
    old.mkdir()
    old_pca_file, old_gmm_file = codebook_paths(old)
    old_pca.save(old_pca_file)
    old_gmm.save(old_gmm_file)
    for new_file, old_file in zip(codebook_paths(out), (old_pca_file, old_gmm_file)):
        assert _without_provenance(new_file, cfg, "data") == old_file.read_text(), new_file.name
    assert gmm.log_likelihoods == old_gmm.log_likelihoods
    assert pca.basis.tobytes() == old_pca.basis.tobytes()


@pytest.mark.parametrize("samples", [20000, 4000], ids=["whole-pool", "subsampled"])
def test_codebook_fit_holds_one_pool(tmp_path, samples):
    # 24 * 225 descriptors of 512 float64 are drawn (22.1 MB); the pool holds
    # those it keeps. The concatenating fit held the per-image arrays and
    # their join, then the pool and its centred copy, at once
    man = _split(tmp_path / "data", 24, 128)
    cfg = dataclasses.replace(_cfg(samples), ifv_gmm_iters=3)
    pool_bytes = min(sum(_descriptors_per_image(man, cfg)), samples) * 2 * cfg.ifv_patch**2 * 8
    out = tmp_path / "out"
    out.mkdir()
    tracemalloc.start()
    try:
        pipeline._fit_codebook(cfg, man, out, "data")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pool_bytes, (peak, pool_bytes)


def test_a_codebook_fit_with_no_descriptors_names_the_problem(tmp_path):
    root = tmp_path / "data"
    man = _cut(root, _split(root, 2, 48), {0: (10, 48), 1: (48, 15)})  # shorter than a 16 px patch
    with pytest.raises(ValueError, match="no descriptors available to fit the codebook"):
        pipeline._fit_codebook(_cfg(100), man, tmp_path, "data")


def test_extract_logs_the_codebook_it_fits_and_the_one_it_loads(tmp_path):
    cfg = _cfg(500)
    train = _split(tmp_path / "train", 4, 48)
    test = _split(tmp_path / "test", 2, 48)
    out = tmp_path / "out"
    for man in (train, test):
        stage_propose(cfg, man.base_dir / "manifest.txt", out)
        stage_extract(cfg, man.base_dir / "manifest.txt", out)
    gmm = GmmModel.load(codebook_paths(out)[1])
    _, old_gmm, _, _ = _old_fit(cfg, train)
    assert gmm.means.tobytes() == old_gmm.means.tobytes()

    def codebook_lines(tag):
        lines = (out / f"runlog_extract_{tag}.txt").read_text().splitlines()
        return [ln for ln in lines if ln.startswith("codebook")]

    assert codebook_lines("train") == [
        "codebook fit",
        "codebook_drawn 100",
        f"codebook_em_iterations {len(old_gmm.log_likelihoods)}",
        f"codebook_log_likelihood {fmt_float(old_gmm.log_likelihoods[-1])}",
        "codebook_pool 100",
        "codebook_tag train",
    ]
    assert codebook_lines("test") == ["codebook loaded", "codebook_tag train"]
