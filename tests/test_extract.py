"""The batched extract path against the per-proposal code it replaced.

The oracle below is the earlier one-window-at-a-time implementation of the
three proposal features (HOG, Fisher vector of the canonical window, stand-in
embedding). The batched path keeps every floating-point operation and its
order, so rows must match bit for bit, across chunk boundaries and for boxes
that touch or cross the image border or are narrower than a pixel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from fusedet.config import PipelineConfig
from fusedet.core import Box
from fusedet.features import GmmModel, PcaModel, fisher_length, hog_length
from fusedet.images import Image, box_corners
from fusedet.pipeline import CNN_EMBED_SIDE, EXTRACT_CHUNK, extract_image

# ---------------------------------------------------------------- the oracle


def _old_to_grayscale(img):
    px = img.pixels.astype(np.float64)
    if img.channels == 1:
        return px[:, :, 0]
    return 0.299 * px[:, :, 0] + 0.587 * px[:, :, 1] + 0.114 * px[:, :, 2]


def _old_sample_window(plane, window, out_w, out_h):
    h, w = plane.shape
    xs = window.x_min + (np.arange(out_w) + 0.5) * (window.width / out_w) - 0.5
    ys = window.y_min + (np.arange(out_h) + 0.5) * (window.height / out_h) - 0.5
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    top = plane[y0][:, x0] * (1 - fx)[None, :] + plane[y0][:, x1] * fx[None, :]
    bot = plane[y1][:, x0] * (1 - fx)[None, :] + plane[y1][:, x1] * fx[None, :]
    return top * (1 - fy)[:, None] + bot * fy[:, None]


def _old_sample_window_rgb(img, window, out_w, out_h):
    px = img.pixels.astype(np.float64)
    planes = [_old_sample_window(px[:, :, c], window, out_w, out_h) for c in range(img.channels)]
    return np.stack(planes, axis=-1)


def _old_hog(img, window, cells_x, cells_y):
    gray = _old_to_grayscale(img)
    out_w, out_h = cells_x * 8, cells_y * 8
    patch = _old_sample_window(gray, window, out_w, out_h)
    gy, gx = np.gradient(patch)
    mag = np.hypot(gx, gy)
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    pos = theta / np.pi * 9
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    lo = np.mod(lo, 9)
    hi = np.mod(lo + 1, 9)
    cy = np.arange(out_h) // 8
    cx = np.arange(out_w) // 8
    cell_idx = (cy[:, None] * cells_x + cx[None, :]).ravel()
    n_cells = cells_x * cells_y
    flat_lo = cell_idx * 9 + lo.ravel()
    flat_hi = cell_idx * 9 + hi.ravel()
    hist = np.bincount(flat_lo, weights=(mag * (1 - frac)).ravel(), minlength=n_cells * 9)
    hist += np.bincount(flat_hi, weights=(mag * frac).ravel(), minlength=n_cells * 9)
    cells = hist.reshape(cells_y, cells_x, 9)
    padded = np.zeros((cells_y + 1, cells_x + 1, 9))
    padded[:cells_y, :cells_x] = cells
    blocks = np.concatenate(
        [padded[:cells_y, :cells_x], padded[:cells_y, 1:], padded[1:, :cells_x], padded[1:, 1:]],
        axis=2,
    ).reshape(n_cells, 36)
    norms = np.sqrt((blocks**2).sum(axis=1, keepdims=True))
    blocks = np.minimum(blocks / np.where(norms > 1e-12, norms, 1.0), 0.2)
    norms = np.sqrt((blocks**2).sum(axis=1, keepdims=True))
    return (blocks / np.where(norms > 1e-12, norms, 1.0)).ravel()


def _old_dense_descriptors(img, window, stride, patch):
    w = max(1, int(round(window.width)))
    h = max(1, int(round(window.height)))
    if w < patch or h < patch:
        return np.zeros((0, patch * patch * 2))
    gray = _old_sample_window(_old_to_grayscale(img), window, w, h)
    gy, gx = np.gradient(gray)
    xs = range(0, w - patch + 1, stride)
    ys = range(0, h - patch + 1, stride)
    out = np.empty((len(ys) * len(xs), patch * patch * 2))
    i = 0
    for y0 in ys:
        for x0 in xs:
            d = np.stack(
                [gx[y0 : y0 + patch, x0 : x0 + patch], gy[y0 : y0 + patch, x0 : x0 + patch]],
                axis=-1,
            ).ravel()
            norm = np.sqrt(d @ d)
            if norm > 1e-12:
                d = d / norm
            out[i] = d
            i += 1
    return out


def _old_fisher_encode(X, gmm):
    inv_var = 1.0 / gmm.variances
    quad = (
        (X**2) @ inv_var.T
        - 2.0 * X @ (gmm.means * inv_var).T
        + ((gmm.means**2) * inv_var).sum(axis=1)[None, :]
    )
    log_norm = -0.5 * (gmm.dim * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1))
    logp = np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * quad
    gamma = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
    t = X.shape[0]
    s0 = gamma.sum(axis=0)
    s1 = gamma.T @ X
    s2 = gamma.T @ (X**2)
    w, mu, var = gmm.weights, gmm.means, gmm.variances
    sigma = np.sqrt(var)
    g_weight = (s0 - t * w) / (t * np.sqrt(w))
    g_mean = (s1 - mu * s0[:, None]) / (t * np.sqrt(w)[:, None] * sigma)
    g_var = (s2 - 2.0 * mu * s1 + (mu**2 - var) * s0[:, None]) / (t * np.sqrt(2.0 * w)[:, None] * var)
    raw = np.concatenate([g_weight, g_mean.ravel(), g_var.ravel()])
    raw = np.sign(raw) * np.sqrt(np.abs(raw))
    return raw / np.sqrt(raw @ raw)


def _old_window_fisher(cfg, img, box, pca, gmm):
    rgb = _old_sample_window_rgb(img, box, cfg.ifv_window, cfg.ifv_window)
    win = Image.from_array(np.clip(np.rint(rgb), 0, 255).astype(np.uint8))
    d = _old_dense_descriptors(win, win.full_box, cfg.ifv_stride, cfg.ifv_patch)
    return _old_fisher_encode((d - pca.mean) @ pca.basis, gmm)


def _old_embed_window(img, box):
    v = _old_sample_window_rgb(img, box, CNN_EMBED_SIDE, CNN_EMBED_SIDE).ravel() / 255.0
    return v / max(float(np.sqrt(v @ v)), 1e-12)


# ------------------------------------------------------------------ fixtures


def _codebook(cfg, seed):
    """A random PCA basis and mixture of the sizes cfg asks for."""
    rng = np.random.default_rng(seed)
    raw = cfg.ifv_patch * cfg.ifv_patch * 2
    basis, _ = np.linalg.qr(rng.normal(size=(raw, cfg.ifv_pca_dim)))
    pca = PcaModel(mean=rng.normal(scale=0.05, size=raw), basis=basis)
    w = rng.uniform(0.2, 1.0, size=cfg.ifv_gmm_k)
    gmm = GmmModel(
        weights=w / w.sum(),
        means=rng.normal(scale=0.3, size=(cfg.ifv_gmm_k, cfg.ifv_pca_dim)),
        variances=rng.uniform(0.05, 0.5, size=(cfg.ifv_gmm_k, cfg.ifv_pca_dim)),
    )
    return pca, gmm


def _check_against_oracle(cfg, img, boxes, pca, gmm):
    # float64 outputs, so that not even a difference float32 storage would
    # round away goes unseen
    n = len(boxes)
    hog_out = np.empty((n, hog_length(cfg.hog_cells_x, cfg.hog_cells_y)))
    ifv_out = np.empty((n, fisher_length(pca.dim, gmm.k)))
    cnn_out = np.empty((n, img.channels * CNN_EMBED_SIDE**2))
    prior, image_embedding = extract_image(cfg, img, box_corners(boxes), pca, gmm, hog_out, ifv_out, cnn_out)
    for p, box in enumerate(boxes):
        assert np.array_equal(hog_out[p], _old_hog(img, box, cfg.hog_cells_x, cfg.hog_cells_y))
        assert np.array_equal(ifv_out[p], _old_window_fisher(cfg, img, box, pca, gmm))
        assert np.array_equal(cnn_out[p], _old_embed_window(img, box))
    assert np.array_equal(prior, _old_window_fisher(cfg, img, img.full_box, pca, gmm))
    assert np.array_equal(image_embedding, _old_embed_window(img, img.full_box))


def _coordinate(lo, hi):
    """Floats in [lo, hi], with whole numbers drawn often."""
    return st.one_of(
        st.floats(lo, hi),
        st.integers(int(np.ceil(lo)), int(np.floor(hi))).map(float),
    )


@st.composite
def _image_and_boxes(draw):
    width, height = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    channels = draw(st.sampled_from([1, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    pixels = np.random.default_rng(seed).integers(0, 256, size=(height, width, channels), dtype=np.uint8)
    count = draw(
        st.one_of(
            st.sampled_from([0, 1, EXTRACT_CHUNK, EXTRACT_CHUNK + 1]),
            st.integers(0, 2 * EXTRACT_CHUNK + 1),
        )
    )
    boxes = []
    for _ in range(count):
        # every box overlaps the image; it may cross any border, and spans
        # from a hundredth of a pixel to one and a half image sides
        x0 = draw(_coordinate(-width / 2, width - 0.01))
        y0 = draw(_coordinate(-height / 2, height - 0.01))
        x1 = draw(_coordinate(max(x0, 0.0) + 0.01, 1.5 * width))
        y1 = draw(_coordinate(max(y0, 0.0) + 0.01, 1.5 * height))
        boxes.append(Box(x0, y0, x1, y1))
    return Image.from_array(pixels), boxes


# --------------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(
    _image_and_boxes(),
    st.sampled_from([(8, 4, 2), (12, 6, 3), (16, 8, 8), (16, 16, 8)]),  # ifv window, patch, stride
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_batched_rows_equal_the_per_proposal_oracle(case, ifv, cells_x, cells_y):
    img, boxes = case
    window, patch, stride = ifv
    cfg = PipelineConfig(
        hog_cells_x=cells_x,
        hog_cells_y=cells_y,
        ifv_window=window,
        ifv_patch=patch,
        ifv_stride=stride,
        ifv_pca_dim=5,
        ifv_gmm_k=3,
    )
    pca, gmm = _codebook(cfg, seed=window)
    _check_against_oracle(cfg, img, boxes, pca, gmm)


@pytest.mark.parametrize("count", [0, 1, EXTRACT_CHUNK, EXTRACT_CHUNK + 1])
def test_default_config_rows_equal_the_oracle_at_chunk_boundaries(count):
    cfg = PipelineConfig()
    pca, gmm = _codebook(cfg, seed=count)
    rng = np.random.default_rng(count)
    img = Image.from_array(rng.integers(0, 256, size=(72, 96, 3), dtype=np.uint8))
    corners = rng.uniform(-10, [90, 66], size=(count, 2))
    sizes = rng.uniform(0.5, 60, size=(count, 2))
    boxes = [Box(x, y, max(x, 0.0) + w, max(y, 0.0) + h) for (x, y), (w, h) in zip(corners, sizes)]
    _check_against_oracle(cfg, img, boxes, pca, gmm)
