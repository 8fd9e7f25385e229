"""Over-segmentation, region descriptors, similarity, and selective search."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedet.core import Box
from fusedet.images import Image, read_pnm, smooth
from fusedet.proposals import (
    COLOR_BINS,
    TEXTURE_BINS,
    Region,
    SelectiveSearchConfig,
    hierarchical_grouping,
    region_adjacency,
    region_descriptors,
    segment_graph,
    selective_search,
    similarity,
)
from fusedet.synth import SynthSpec, generate_dataset

# with this sigma the smoothing kernel degenerates to identity, so sharp
# synthetic color steps stay sharp
SHARP = 1e-6


def _uniform_image(w=64, h=64, value=128):
    return Image.from_array(np.full((h, w, 3), value, dtype=np.uint8))


def _half_split_image(w=64, h=64):
    arr = np.zeros((h, w), dtype=np.uint8)
    arr[:, w // 2 :] = 255
    return Image.from_array(arr)


def _equal_color_components(img: Image):
    """Connected components of exactly-equal color under 8-connectivity."""
    h, w = img.height, img.width
    labels = -np.ones((h, w), dtype=int)
    nxt = 0
    for sy in range(h):
        for sx in range(w):
            if labels[sy, sx] >= 0:
                continue
            labels[sy, sx] = nxt
            queue = deque([(sy, sx)])
            while queue:
                y, x = queue.popleft()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx_ = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx_ < w and labels[ny, nx_] < 0:
                            if np.array_equal(img.pixels[ny, nx_], img.pixels[y, x]):
                                labels[ny, nx_] = nxt
                                queue.append((ny, nx_))
            nxt += 1
    return labels


def test_segment_uniform_image_is_one_region():
    seg = segment_graph(_uniform_image(), k=300.0, min_size=50, sigma=0.8)
    assert seg.num_regions == 1
    assert np.all(seg.labels == 0)


def test_segment_half_split_gives_two_half_regions():
    img = _half_split_image()
    seg = segment_graph(img, k=1.0, min_size=1, sigma=SHARP)
    assert seg.num_regions == 2
    oracle = _equal_color_components(img)
    # same partition: the label pairing must be a bijection
    pairs = set(zip(seg.labels.ravel().tolist(), oracle.ravel().tolist()))
    assert len(pairs) == 2
    regions = region_descriptors(img, seg)
    boxes = sorted((r.bbox for r in regions), key=lambda b: b.x_min)
    assert boxes[0] == Box(0, 0, 32, 64)
    assert boxes[1] == Box(32, 0, 64, 64)


def test_segment_min_size_forces_single_region():
    rng = np.random.default_rng(31)
    img = Image.from_array(rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8))
    seg = segment_graph(img, k=10.0, min_size=24 * 24, sigma=0.8)
    assert seg.num_regions == 1


def test_segment_labels_form_contiguous_partition_and_are_deterministic():
    rng = np.random.default_rng(37)
    img = Image.from_array(rng.integers(0, 256, size=(20, 28, 3), dtype=np.uint8))
    seg1 = segment_graph(img, k=50.0, min_size=4, sigma=0.8)
    seg2 = segment_graph(img, k=50.0, min_size=4, sigma=0.8)
    assert np.array_equal(seg1.labels, seg2.labels)
    assert seg1.labels.shape == (20, 28)
    ids = np.unique(seg1.labels)
    assert ids[0] == 0 and ids[-1] == len(ids) - 1


# ----------------------------------------------- over-segmentation oracle


class _DisjointSet:
    """Union-find with path halving; tracks component size and the adaptive
    merge threshold of the over-segmentation."""

    def __init__(self, n: int, k: float):
        self.parent = list(range(n))
        self.size = [1] * n
        self.threshold = [k] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        if self.size[a] < self.size[b]:
            a, b = b, a
        self.parent[b] = a
        self.size[a] += self.size[b]
        return a


def _oracle_segment_labels(img: Image, k: float, min_size: int, sigma: float) -> np.ndarray:
    """The plain edge-by-edge Felzenszwalb-Huttenlocher loop: every edge is
    visited in both the merge and the fold sweep, and every pixel's root is
    found one at a time."""
    smoothed = np.stack(
        [smooth(img.pixels[:, :, c].astype(np.float64), sigma) for c in range(img.channels)],
        axis=-1,
    )
    flat = smoothed.reshape(-1, img.channels)
    idx = np.arange(img.width * img.height, dtype=np.int64).reshape(img.height, img.width)
    pairs = [
        (idx[:, :-1], idx[:, 1:]),
        (idx[:-1, :], idx[1:, :]),
        (idx[:-1, :-1], idx[1:, 1:]),
        (idx[:-1, 1:], idx[1:, :-1]),
    ]
    ea = np.concatenate([p[0].ravel() for p in pairs])
    eb = np.concatenate([p[1].ravel() for p in pairs])
    weights = np.sqrt(((flat[ea] - flat[eb]) ** 2).sum(axis=1))
    order = np.argsort(weights, kind="stable")
    ea, eb, weights = ea[order], eb[order], weights[order]

    n = img.width * img.height
    ds = _DisjointSet(n, k)
    find = ds.find
    size = ds.size
    thr = ds.threshold
    for i in range(len(weights)):
        ra = find(int(ea[i]))
        rb = find(int(eb[i]))
        if ra == rb:
            continue
        w = weights[i]
        if w <= thr[ra] and w <= thr[rb]:
            root = ds.union(ra, rb)
            thr[root] = w + k / size[root]
    for i in range(len(weights)):
        ra = find(int(ea[i]))
        rb = find(int(eb[i]))
        if ra != rb and (size[ra] < min_size or size[rb] < min_size):
            ds.union(ra, rb)

    roots = np.fromiter((find(i) for i in range(n)), dtype=np.int64, count=n)
    _, first_idx, labels = np.unique(roots, return_index=True, return_inverse=True)
    appearance_rank = np.argsort(np.argsort(first_idx, kind="stable"), kind="stable")
    return appearance_rank[labels].reshape(img.height, img.width).astype(np.int32)


def _assert_segmentation_matches_oracle(img, k, min_size, sigma):
    got = segment_graph(img, k, min_size, sigma).labels
    expect = _oracle_segment_labels(img, k, min_size, sigma)
    assert got.dtype == np.int32
    assert got.shape == expect.shape == (img.height, img.width)
    assert np.array_equal(got, expect)


@st.composite
def _small_images(draw):
    """Random, constant (every edge weight ties) and two-level uint8 images,
    1-24 px per side, gray or RGB."""
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    c = draw(st.sampled_from([1, 3]))
    kind = draw(st.sampled_from(["random", "constant", "two_level"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        arr = np.full((h, w, c), draw(st.integers(0, 255)), dtype=np.uint8)
    elif kind == "two_level":
        levels = np.array([draw(st.integers(0, 255)), draw(st.integers(0, 255))], dtype=np.uint8)
        mask = rng.random((h, w)) < draw(st.floats(0.0, 1.0))
        arr = np.repeat(levels[mask.astype(np.int64)][:, :, None], c, axis=2)
    else:
        arr = rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)
    return Image.from_array(arr)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_segment_labels_equal_the_edge_by_edge_oracle(data):
    img = data.draw(_small_images())
    k = data.draw(st.floats(0.5, 1000.0))
    # from no folding at all up to folding everything into one region
    min_size = data.draw(st.integers(1, img.width * img.height + 8))
    sigma = data.draw(st.sampled_from([SHARP, 0.8, 2.0]))
    _assert_segmentation_matches_oracle(img, k, min_size, sigma)


@pytest.mark.parametrize("k, min_size", [(300.0, 50), (20.0, 5)])  # default, dense
def test_segment_labels_equal_the_oracle_on_a_synth_image(tmp_path, k, min_size):
    manifest = generate_dataset(tmp_path, SynthSpec(n_images=1, image_size=96), seed=3)
    img = read_pnm(manifest.resolved_path(manifest.images[0]))
    assert (img.width, img.height) == (96, 96)
    _assert_segmentation_matches_oracle(img, k, min_size, 0.8)


def test_segment_rejects_bad_parameters():
    img = _uniform_image(8, 8)
    with pytest.raises(ValueError):
        segment_graph(img, k=0.0, min_size=1, sigma=0.8)
    with pytest.raises(ValueError):
        segment_graph(img, k=1.0, min_size=0, sigma=0.8)


def test_region_descriptors_single_region():
    img = _uniform_image(16, 12)
    seg = segment_graph(img, k=300.0, min_size=1, sigma=0.8)
    regions = region_descriptors(img, seg)
    assert len(regions) == 1
    r = regions[0]
    assert r.pixel_count == 16 * 12
    assert r.bbox == Box(0, 0, 16, 12)
    assert r.color_hist.sum() == pytest.approx(1.0, abs=1e-6)
    assert r.texture_hist.sum() == pytest.approx(1.0, abs=1e-6)


def test_region_descriptors_black_image_concentrates_color_bin_zero():
    img = _uniform_image(8, 8, value=0)
    seg = segment_graph(img, k=300.0, min_size=1, sigma=0.8)
    r = region_descriptors(img, seg)[0]
    bin_zero_mass = sum(r.color_hist[c * COLOR_BINS] for c in range(3))
    assert bin_zero_mass == pytest.approx(1.0, abs=1e-12)


def test_region_descriptors_half_split_counts():
    img = _half_split_image(32, 32)
    seg = segment_graph(img, k=1.0, min_size=1, sigma=SHARP)
    regions = region_descriptors(img, seg)
    assert sorted(r.pixel_count for r in regions) == [512, 512]


def _make_region(rng, rid, image_side=64):
    color = rng.random(3 * COLOR_BINS)
    texture = rng.random(3 * TEXTURE_BINS)
    x0, y0 = rng.integers(0, 30, size=2)
    w, h = rng.integers(4, 20, size=2)
    return Region(
        id=rid,
        pixel_count=int(rng.integers(10, 200)),
        bbox=Box(float(x0), float(y0), float(x0 + w), float(y0 + h)),
        color_hist=color / color.sum(),
        texture_hist=texture / texture.sum(),
    )


def _oracle_similarity(a, b, image_area):
    # spreadsheet-style recomputation of the four closed-form terms
    def clamp(v):
        return min(1.0, max(0.0, v))

    s_color = clamp(sum(min(x, y) for x, y in zip(a.color_hist, b.color_hist)))
    s_texture = clamp(sum(min(x, y) for x, y in zip(a.texture_hist, b.texture_hist)))
    s_size = clamp(1.0 - (a.pixel_count + b.pixel_count) / image_area)
    jx0 = min(a.bbox.x_min, b.bbox.x_min)
    jy0 = min(a.bbox.y_min, b.bbox.y_min)
    jx1 = max(a.bbox.x_max, b.bbox.x_max)
    jy1 = max(a.bbox.y_max, b.bbox.y_max)
    joint_area = (jx1 - jx0) * (jy1 - jy0)
    s_fill = clamp(1.0 - (joint_area - a.pixel_count - b.pixel_count) / image_area)
    return s_color + s_texture + s_size + s_fill


def test_similarity_matches_independent_computation():
    rng = np.random.default_rng(41)
    for _ in range(100):
        a = _make_region(rng, 0)
        b = _make_region(rng, 1)
        area = 64.0 * 64.0
        got = similarity(a, b, area)
        assert got == pytest.approx(_oracle_similarity(a, b, area), abs=1e-9)
        assert got == similarity(b, a, area)
        assert 0.0 <= got <= 4.0


def test_similarity_identical_histograms_score_one_each():
    rng = np.random.default_rng(43)
    a = _make_region(rng, 0)
    b = Region(
        id=1,
        pixel_count=a.pixel_count,
        bbox=a.bbox,
        color_hist=a.color_hist.copy(),
        texture_hist=a.texture_hist.copy(),
    )
    area = 64.0 * 64.0
    s_size = 1.0 - 2 * a.pixel_count / area
    s_fill = 1.0 - (a.bbox.area - 2 * a.pixel_count) / area
    expect = 1.0 + 1.0 + min(1.0, max(0.0, s_size)) + min(1.0, max(0.0, s_fill))
    assert similarity(a, b, area) == pytest.approx(expect, abs=1e-12)


def test_similarity_size_term_zero_when_regions_cover_image():
    rng = np.random.default_rng(47)
    a = _make_region(rng, 0)
    b = _make_region(rng, 1)
    a.pixel_count = 600
    b.pixel_count = 424
    area = 1024.0
    # joint bbox covers at most the image, so the fill term is also pinned
    got = similarity(a, b, area)
    s_color = float(np.minimum(a.color_hist, b.color_hist).sum())
    s_texture = float(np.minimum(a.texture_hist, b.texture_hist).sum())
    joint = a.bbox.union_bbox(b.bbox)
    s_fill = min(1.0, max(0.0, 1.0 - (joint.area - 1024) / area))
    assert got == pytest.approx(s_color + s_texture + 0.0 + s_fill, abs=1e-12)


def test_merge_bookkeeping_weighted_histograms():
    rng = np.random.default_rng(53)
    a = _make_region(rng, 0)
    b = _make_region(rng, 1)
    history = hierarchical_grouping([a, b], {(0, 1)}, 64.0 * 64.0)
    assert len(history) == 3
    merged = history[-1]
    n = a.pixel_count + b.pixel_count
    assert merged.pixel_count == n
    expect_color = (a.pixel_count * a.color_hist + b.pixel_count * b.color_hist) / n
    expect_texture = (a.pixel_count * a.texture_hist + b.pixel_count * b.texture_hist) / n
    assert np.allclose(merged.color_hist, expect_color, atol=1e-9)
    assert np.allclose(merged.texture_hist, expect_texture, atol=1e-9)
    assert merged.bbox == a.bbox.union_bbox(b.bbox)


def test_grouping_three_regions_makes_exactly_two_merges():
    # three vertical stripes of distinct flat colors
    arr = np.zeros((30, 30, 3), dtype=np.uint8)
    arr[:, 10:20] = (120, 120, 120)
    arr[:, 20:] = (250, 250, 250)
    img = Image.from_array(arr)
    seg = segment_graph(img, k=1.0, min_size=1, sigma=SHARP)
    assert seg.num_regions == 3
    regions = region_descriptors(img, seg)
    history = hierarchical_grouping(regions, region_adjacency(seg), 900.0)
    assert len(history) == 5  # r=3 initial plus exactly 2 merges
    boxes = selective_search(img, SelectiveSearchConfig(k=1.0, sigma=SHARP, min_size=1))
    assert 1 <= len(boxes) <= 5


def test_selective_search_uniform_image_single_full_box():
    img = _uniform_image(40, 24)
    boxes = selective_search(img, SelectiveSearchConfig())
    assert boxes == [Box(0, 0, 40, 24)]


def test_selective_search_emits_full_image_box_first():
    rng = np.random.default_rng(59)
    img = Image.from_array(rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8))
    boxes = selective_search(img, SelectiveSearchConfig(k=40.0, min_size=4))
    # the last merge spans every region, so the newest box is the whole frame
    assert boxes[0] == Box(0, 0, 32, 32)


def test_selective_search_count_bounds_and_dedup():
    rng = np.random.default_rng(61)
    for _ in range(5):
        img = Image.from_array(rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8))
        cfg = SelectiveSearchConfig(k=30.0, min_size=4)
        seg = segment_graph(img, cfg.k, cfg.min_size, cfg.sigma)
        boxes = selective_search(img, cfg)
        r = seg.num_regions
        assert 1 <= len(boxes) <= 2 * r - 1
        keys = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes]
        assert len(set(keys)) == len(keys)


def test_selective_search_respects_max_boxes():
    rng = np.random.default_rng(67)
    img = Image.from_array(rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8))
    boxes = selective_search(img, SelectiveSearchConfig(k=30.0, min_size=2, max_boxes=3))
    assert len(boxes) == 3


@pytest.mark.parametrize("shape", [(1, 20, 3), (20, 1, 3), (1, 1, 3)])
def test_selective_search_on_one_pixel_wide_or_tall_images(shape):
    rng = np.random.default_rng(71)
    img = Image.from_array(rng.integers(0, 256, size=shape, dtype=np.uint8))
    cfg = SelectiveSearchConfig(k=1.0, sigma=SHARP, min_size=1)
    regions = region_descriptors(img, segment_graph(img, cfg.k, cfg.min_size, cfg.sigma))
    for r in regions:
        assert r.texture_hist.sum() == pytest.approx(1.0, abs=1e-12)
    if shape[:2] == (1, 1):
        # no neighbor on either axis: the gradient is zero, and arctan2(0, 0)
        # = 0 puts all texture mass in the middle bin
        assert regions[0].texture_hist[TEXTURE_BINS // 2 :: TEXTURE_BINS].sum() == 1.0
    boxes = selective_search(img, cfg)
    assert boxes[0] == Box(0, 0, shape[1], shape[0])
    for b in boxes:
        assert 0 <= b.x_min < b.x_max <= shape[1] and 0 <= b.y_min < b.y_max <= shape[0]
