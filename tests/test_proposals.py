"""Over-segmentation, region descriptors, similarity, and selective search."""

from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedet.core import Box
from fusedet.images import Image, read_pnm, smooth
from fusedet.proposals import (
    COLOR_BINS,
    TEXTURE_BINS,
    Regions,
    SegmentationMap,
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
    boxes = sorted(region_descriptors(img, seg).boxes.tolist())
    assert boxes == [[0, 0, 32, 64], [32, 0, 64, 64]]


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


def _search(img, k=300.0, min_size=50, sigma=0.8, max_boxes=2000):
    # the pipeline's defaults, spelled out once
    return selective_search(img, k, min_size, sigma, max_boxes)


def test_region_descriptors_single_region():
    img = _uniform_image(16, 12)
    seg = segment_graph(img, k=300.0, min_size=1, sigma=0.8)
    table = region_descriptors(img, seg)
    assert len(table) == 1
    assert table.size[0] == 16 * 12
    assert table.boxes[0].tolist() == [0, 0, 16, 12]
    assert table.color[0].sum() == pytest.approx(1.0, abs=1e-6)
    assert table.texture[0].sum() == pytest.approx(1.0, abs=1e-6)


def test_region_descriptors_black_image_concentrates_color_bin_zero():
    img = _uniform_image(8, 8, value=0)
    seg = segment_graph(img, k=300.0, min_size=1, sigma=0.8)
    color = region_descriptors(img, seg).color[0]
    bin_zero_mass = sum(color[c * COLOR_BINS] for c in range(3))
    assert bin_zero_mass == pytest.approx(1.0, abs=1e-12)


def test_region_descriptors_half_split_counts():
    img = _half_split_image(32, 32)
    seg = segment_graph(img, k=1.0, min_size=1, sigma=SHARP)
    assert sorted(region_descriptors(img, seg).size.tolist()) == [512, 512]


def _random_table(rng, n, channels=3):
    """n regions with random sizes, integer boxes inside a 64 px frame and
    normalized histograms."""
    color = rng.random((n, channels * COLOR_BINS))
    texture = rng.random((n, channels * TEXTURE_BINS))
    corner = rng.integers(0, 30, size=(n, 2))
    extent = rng.integers(4, 20, size=(n, 2))
    return Regions(
        size=rng.integers(10, 200, size=n),
        boxes=np.concatenate([corner, corner + extent], axis=1).astype(np.float64),
        color=color / color.sum(axis=1, keepdims=True),
        texture=texture / texture.sum(axis=1, keepdims=True),
    )


def _spreadsheet_similarity(t, a, b, image_area):
    # spreadsheet-style recomputation of the four closed-form terms
    def clamp(v):
        return min(1.0, max(0.0, v))

    s_color = clamp(sum(min(x, y) for x, y in zip(t.color[a], t.color[b])))
    s_texture = clamp(sum(min(x, y) for x, y in zip(t.texture[a], t.texture[b])))
    pixels = int(t.size[a]) + int(t.size[b])
    s_size = clamp(1.0 - pixels / image_area)
    jx0 = min(t.boxes[a, 0], t.boxes[b, 0])
    jy0 = min(t.boxes[a, 1], t.boxes[b, 1])
    jx1 = max(t.boxes[a, 2], t.boxes[b, 2])
    jy1 = max(t.boxes[a, 3], t.boxes[b, 3])
    joint_area = (jx1 - jx0) * (jy1 - jy0)
    s_fill = clamp(1.0 - (joint_area - pixels) / image_area)
    return s_color + s_texture + s_size + s_fill


def test_similarity_matches_independent_computation():
    rng = np.random.default_rng(41)
    table = _random_table(rng, 200)
    a, b = np.arange(100), np.arange(100, 200)
    area = 64.0 * 64.0
    got = similarity(table, a, b, area)
    assert got.shape == (100,)
    for i in range(100):
        assert got[i] == pytest.approx(_spreadsheet_similarity(table, a[i], b[i], area), abs=1e-9)
        assert got[i] == similarity(table, int(a[i]), int(b[i]), area)
    assert np.array_equal(got, similarity(table, b, a, area))
    assert np.all((0.0 <= got) & (got <= 4.0))


def test_similarity_identical_histograms_score_one_each():
    rng = np.random.default_rng(43)
    one = _random_table(rng, 1)
    table = Regions(*(np.concatenate([col, col]) for col in (one.size, one.boxes, one.color, one.texture)))
    area = 64.0 * 64.0
    x0, y0, x1, y1 = table.boxes[0]
    s_size = 1.0 - 2 * table.size[0] / area
    s_fill = 1.0 - ((x1 - x0) * (y1 - y0) - 2 * table.size[0]) / area
    expect = 1.0 + 1.0 + min(1.0, max(0.0, s_size)) + min(1.0, max(0.0, s_fill))
    assert similarity(table, 0, 1, area) == pytest.approx(expect, abs=1e-12)


def test_similarity_size_term_zero_when_regions_cover_image():
    rng = np.random.default_rng(47)
    table = _random_table(rng, 2)
    table.size[:] = (600, 424)
    area = 1024.0
    # joint bbox covers at most the image, so the fill term is also pinned
    got = similarity(table, 0, 1, area)
    s_color = float(np.minimum(table.color[0], table.color[1]).sum())
    s_texture = float(np.minimum(table.texture[0], table.texture[1]).sum())
    (jx0, jy0), (jx1, jy1) = table.boxes[:, :2].min(axis=0), table.boxes[:, 2:].max(axis=0)
    s_fill = min(1.0, max(0.0, 1.0 - ((jx1 - jx0) * (jy1 - jy0) - 1024) / area))
    assert got == pytest.approx(s_color + s_texture + 0.0 + s_fill, abs=1e-12)


def test_merge_bookkeeping_weighted_histograms():
    rng = np.random.default_rng(53)
    table = _random_table(rng, 2)
    history = hierarchical_grouping(table, {(0, 1)}, 64.0 * 64.0)
    assert len(history) == 3
    size_a, size_b = table.size
    n = size_a + size_b
    assert history.size[2] == n
    expect_color = (size_a * table.color[0] + size_b * table.color[1]) / n
    expect_texture = (size_a * table.texture[0] + size_b * table.texture[1]) / n
    assert np.allclose(history.color[2], expect_color, atol=1e-9)
    assert np.allclose(history.texture[2], expect_texture, atol=1e-9)
    expect_box = np.concatenate([table.boxes[:, :2].min(axis=0), table.boxes[:, 2:].max(axis=0)])
    assert np.array_equal(history.boxes[2], expect_box)


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
    boxes = _search(img, k=1.0, sigma=SHARP, min_size=1)
    assert 1 <= len(boxes) <= 5


# --------------------------------------------------------- grouping oracle


@dataclass
class _Region:
    id: int
    pixel_count: int
    bbox: Box
    color_hist: np.ndarray
    texture_hist: np.ndarray


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def _union(a: Box, b: Box) -> Box:
    return Box(
        min(a.x_min, b.x_min), min(a.y_min, b.y_min), max(a.x_max, b.x_max), max(a.y_max, b.y_max)
    )


def _pair_similarity(a: _Region, b: _Region, image_area: float) -> float:
    s_color = _clamp01(float(np.minimum(a.color_hist, b.color_hist).sum()))
    s_texture = _clamp01(float(np.minimum(a.texture_hist, b.texture_hist).sum()))
    s_size = _clamp01(1.0 - (a.pixel_count + b.pixel_count) / image_area)
    joint = _union(a.bbox, b.bbox)
    s_fill = _clamp01(1.0 - (joint.area - a.pixel_count - b.pixel_count) / image_area)
    return s_color + s_texture + s_size + s_fill


def _merge_regions(a: _Region, b: _Region, new_id: int) -> _Region:
    n = a.pixel_count + b.pixel_count
    wa = a.pixel_count / n
    wb = b.pixel_count / n
    return _Region(
        id=new_id,
        pixel_count=n,
        bbox=_union(a.bbox, b.bbox),
        color_hist=wa * a.color_hist + wb * b.color_hist,
        texture_hist=wa * a.texture_hist + wb * b.texture_hist,
    )


def _oracle_grouping(table: Regions, adjacency, image_area):
    """Greedy grouping over one object per region: every step rescans all
    live pairs for the best one, and a merge eagerly drops its ids' pairs."""
    regions = [
        _Region(i, int(table.size[i]), Box(*table.boxes[i].tolist()), table.color[i], table.texture[i])
        for i in range(len(table))
    ]
    active = {r.id: r for r in regions}
    neighbors = {r.id: set() for r in regions}
    for a, b in adjacency:
        neighbors[a].add(b)
        neighbors[b].add(a)
    sims = {(a, b): _pair_similarity(active[a], active[b], image_area) for a, b in adjacency}
    history = list(regions)
    next_id = len(regions)
    while len(active) > 1:
        # highest similarity wins; ties favor the smallest id pair
        a, b = min(sims.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merged = _merge_regions(active[a], active[b], next_id)
        next_id += 1
        history.append(merged)
        new_neighbors = (neighbors[a] | neighbors[b]) - {a, b}
        for r in (a, b):
            for nb in neighbors[r]:
                sims.pop((min(r, nb), max(r, nb)), None)
                neighbors[nb].discard(r)
            del neighbors[r]
            del active[r]
        active[merged.id] = merged
        neighbors[merged.id] = new_neighbors
        for nb in new_neighbors:
            neighbors[nb].add(merged.id)
            sims[(nb, merged.id)] = _pair_similarity(active[nb], merged, image_area)
    return history


def _assert_table_equals_history(table: Regions, history):
    assert len(table) == len(history)
    for i, r in enumerate(history):
        assert table.size[i] == r.pixel_count
        assert table.boxes[i].tolist() == [r.bbox.x_min, r.bbox.y_min, r.bbox.x_max, r.bbox.y_max]
        # bit for bit, not approximately
        assert table.color[i].tobytes() == r.color_hist.tobytes()
        assert table.texture[i].tobytes() == r.texture_hist.tobytes()


@st.composite
def _grouping_inputs(draw):
    """A random region table whose rows repeat a few prototypes, so pair
    similarities tie exactly, plus a connected adjacency: a random spanning
    tree and some extra pairs."""
    r = draw(st.integers(1, 40))
    channels = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    protos = _random_table(rng, draw(st.integers(1, r)), channels)
    rows = rng.integers(0, len(protos), size=r)
    table = Regions(
        *(np.ascontiguousarray(col[rows]) for col in (protos.size, protos.boxes, protos.color, protos.texture))
    )
    adjacency = {(int(rng.integers(0, i)), i) for i in range(1, r)}
    for _ in range(draw(st.integers(0, 2 * r)) if r > 1 else 0):
        a, b = sorted(rng.choice(r, size=2, replace=False).tolist())
        adjacency.add((a, b))
    # small frames push the size and fill terms into their clamps
    area = draw(st.sampled_from([50.0, 1024.0, 4096.0]))
    return table, adjacency, area


@settings(max_examples=200, deadline=None)
@given(_grouping_inputs())
def test_grouping_table_equals_the_rescanning_oracle(inputs):
    table, adjacency, area = inputs
    got = hierarchical_grouping(table, adjacency, area)
    assert len(got) == 2 * len(table) - 1
    _assert_table_equals_history(got, _oracle_grouping(table, adjacency, area))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_region_adjacency_equals_the_pixel_by_pixel_oracle(data):
    h, w, k = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)), data.draw(st.integers(1, 6))
    drawn = data.draw(st.lists(st.integers(0, k - 1), min_size=h * w, max_size=h * w))
    labels = np.unique(drawn, return_inverse=True)[1].reshape(h, w).astype(np.int32)  # ids contiguous from 0
    expected = set()
    for y in range(h):
        for x in range(w):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if 0 <= y + dy < h and 0 <= x + dx < w and labels[y, x] != labels[y + dy, x + dx]:
                        a, b = int(labels[y, x]), int(labels[y + dy, x + dx])
                        expected.add((min(a, b), max(a, b)))
    assert region_adjacency(SegmentationMap(w, h, labels)) == expected


def _oracle_search(img, k, min_size, sigma, max_boxes):
    seg = segment_graph(img, k, min_size, sigma)
    history = _oracle_grouping(
        region_descriptors(img, seg), region_adjacency(seg), float(img.width * img.height)
    )
    boxes = []
    seen = set()
    for region in reversed(history):
        key = (region.bbox.x_min, region.bbox.y_min, region.bbox.x_max, region.bbox.y_max)
        if key in seen:
            continue
        seen.add(key)
        boxes.append(region.bbox)
    return boxes[:max_boxes]


@pytest.mark.parametrize(
    "size, k, min_size, max_boxes",
    [(96, 300.0, 50, 2000), (96, 20.0, 5, 100), (256, 20.0, 5, 100)],  # default, dense, dense
)
def test_selective_search_equals_the_oracle_on_a_synth_image(tmp_path, size, k, min_size, max_boxes):
    manifest = generate_dataset(tmp_path, SynthSpec(n_images=1, image_size=size), seed=3)
    img = read_pnm(manifest.resolved_path(manifest.images[0]))
    got = _search(img, k, min_size, 0.8, max_boxes)
    assert got == _oracle_search(img, k, min_size, 0.8, max_boxes)
    assert len(got) >= 10  # a real hierarchy, not one region


def test_selective_search_uniform_image_single_full_box():
    img = _uniform_image(40, 24)
    assert _search(img) == [Box(0, 0, 40, 24)]


def test_selective_search_emits_full_image_box_first():
    rng = np.random.default_rng(59)
    img = Image.from_array(rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8))
    boxes = _search(img, k=40.0, min_size=4)
    # the last merge spans every region, so the newest box is the whole frame
    assert boxes[0] == Box(0, 0, 32, 32)


def test_selective_search_count_bounds_and_dedup():
    rng = np.random.default_rng(61)
    for _ in range(5):
        img = Image.from_array(rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8))
        seg = segment_graph(img, 30.0, 4, 0.8)
        boxes = _search(img, k=30.0, min_size=4)
        r = seg.num_regions
        assert 1 <= len(boxes) <= 2 * r - 1
        keys = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes]
        assert len(set(keys)) == len(keys)


def test_selective_search_respects_max_boxes():
    rng = np.random.default_rng(67)
    img = Image.from_array(rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8))
    boxes = _search(img, k=30.0, min_size=2, max_boxes=3)
    assert len(boxes) == 3


@pytest.mark.parametrize("shape", [(1, 20, 3), (20, 1, 3), (1, 1, 3)])
def test_selective_search_on_one_pixel_wide_or_tall_images(shape):
    rng = np.random.default_rng(71)
    img = Image.from_array(rng.integers(0, 256, size=shape, dtype=np.uint8))
    table = region_descriptors(img, segment_graph(img, 1.0, 1, SHARP))
    assert np.allclose(table.texture.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    if shape[:2] == (1, 1):
        # no neighbor on either axis: the gradient is zero, and arctan2(0, 0)
        # = 0 puts all texture mass in the middle bin
        assert table.texture[0, TEXTURE_BINS // 2 :: TEXTURE_BINS].sum() == 1.0
    boxes = _search(img, k=1.0, sigma=SHARP, min_size=1)
    assert boxes[0] == Box(0, 0, shape[1], shape[0])
    for b in boxes:
        assert 0 <= b.x_min < b.x_max <= shape[1] and 0 <= b.y_min < b.y_max <= shape[0]
