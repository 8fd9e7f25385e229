"""Candidate box generation: graph-based over-segmentation followed by
hierarchical region grouping.

The over-segmentation merges an 8-connected pixel graph with the adaptive
threshold criterion (two components join when the edge between them is no
heavier than each side's internal maximum plus k/size), then folds regions
below min_size into their nearest neighbor. Both are sweeps over the edges in
ascending weight order on a union-find held in plain Python lists (parent,
size, threshold), with the edges read EDGE_SLICE at a time. The fold sweep
visits only edges that touch a component still below min_size after the
merge sweep: sizes only grow, so no other edge can fold. Every pixel's root
is then found at once by pointer jumping on the parent array.

Grouping then repeatedly merges the most similar adjacent region pair under
a four-term similarity (color, texture, size, fill) and emits the bounding
box of every region that ever existed. Regions live in one `Regions` table,
one row per id: each merge writes one new row, scores the new region
against all of its neighbours in one array pass, and pushes those pairs on
a heap; a popped pair whose id has already merged is stale and skipped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from .core import Box
from .images import Image, smooth

COLOR_BINS = 25
TEXTURE_BINS = 10
# edges are read into Python lists this many at a time during the merge sweeps
EDGE_SLICE = 4096


@dataclass(frozen=True)
class SegmentationMap:
    width: int
    height: int
    labels: np.ndarray  # (height, width) int32, region ids contiguous from 0

    @property
    def num_regions(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class Regions:
    """One row per region id; hierarchical grouping appends merged regions."""

    size: np.ndarray  # (n,) int64 pixel counts
    boxes: np.ndarray  # (n, 4) float64 x_min, y_min, x_max, y_max
    color: np.ndarray  # (n, channels * COLOR_BINS), rows sum to 1
    texture: np.ndarray  # (n, channels * TEXTURE_BINS), rows sum to 1

    def __len__(self) -> int:
        return len(self.size)


def _pixel_edges(width: int, height: int) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint index arrays for the 8-connected pixel graph: right, down,
    down-right, down-left."""
    idx = np.arange(width * height, dtype=np.int64).reshape(height, width)
    a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel(), idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()])
    b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel(), idx[1:, 1:].ravel(), idx[1:, :-1].ravel()])
    return a, b


def _edge_weights(smoothed: np.ndarray) -> np.ndarray:
    """Euclidean color distance along every edge of _pixel_edges, in its
    order, from shifted slices of the (height, width, channels) image."""
    diffs = [
        smoothed[:, :-1] - smoothed[:, 1:],  # right
        smoothed[:-1, :] - smoothed[1:, :],  # down
        smoothed[:-1, :-1] - smoothed[1:, 1:],  # down-right
        smoothed[:-1, 1:] - smoothed[1:, :-1],  # down-left
    ]
    d = np.concatenate([x.reshape(-1, smoothed.shape[2]) for x in diffs])
    return np.sqrt((d**2).sum(axis=1))


def _stable_order(weights: np.ndarray) -> np.ndarray:
    """np.argsort(weights, kind="stable") of non-negative weights, faster:
    the zero weights (flat areas) first in index order, then an unstable
    argsort of the rest with each run of equal weights put back in index
    order."""
    zero = weights == 0.0
    rest = np.flatnonzero(~zero)
    order = rest[np.argsort(weights[rest])]
    w = weights[order]
    tie = w[1:] == w[:-1]
    if tie.any():
        # one key run * n + edge per tied position sorts runs in place
        n = len(weights)
        run = np.concatenate([[0], np.cumsum(~tie)])
        tied = np.flatnonzero(np.concatenate([tie, [False]]) | np.concatenate([[False], tie]))
        order[tied] = np.sort(run[tied] * n + order[tied]) % n
    return np.concatenate([np.flatnonzero(zero), order])


def _flatten(parent: List[int]) -> np.ndarray:
    """Root of every node of a union-find forest, by pointer jumping."""
    p = np.array(parent, dtype=np.int64)
    q = p[p]
    while not np.array_equal(p, q):
        p, q = q, q[q]
    return p


def segment_graph(img: Image, k: float, min_size: int, sigma: float) -> SegmentationMap:
    """Felzenszwalb-Huttenlocher over-segmentation of an image.

    Edge weights are Euclidean color distances between 8-neighbors after
    per-channel Gaussian smoothing. Region ids are relabeled to be
    contiguous from 0 in row-major first-appearance order, so the result is
    deterministic for identical inputs.
    """
    if img.width <= 0 or img.height <= 0:
        raise ValueError("image must be non-empty")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")

    smoothed = np.stack(
        [smooth(img.pixels[:, :, c].astype(np.float64), sigma) for c in range(img.channels)],
        axis=-1,
    )
    ea, eb = _pixel_edges(img.width, img.height)
    weights = _edge_weights(smoothed)
    order = _stable_order(weights)
    ea, eb, weights = ea[order], eb[order], weights[order]

    # pass 1: Kruskal sweep over plain lists with the find inlined, so no
    # edge pays for numpy scalars or method calls. In the path-halving step
    # `parent[a] = a = parent[parent[a]]` the targets bind left to right:
    # parent[a] takes the grandparent first, then a moves to it.
    n = img.width * img.height
    parent = list(range(n))
    size = [1] * n
    thr = [k] * n
    for lo in range(0, len(weights), EDGE_SLICE):
        hi = lo + EDGE_SLICE
        for a, b, w in zip(ea[lo:hi].tolist(), eb[lo:hi].tolist(), weights[lo:hi].tolist()):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                continue
            if w <= thr[a] and w <= thr[b]:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                thr[a] = w + k / size[a]

    # fold undersized components into their nearest neighbor (edges ascend).
    # Sizes only grow, so an edge between two components that already reach
    # min_size after pass 1 can never fold: visit only the others.
    roots = _flatten(parent)
    small = np.array(size) < min_size
    ra, rb = roots[ea], roots[eb]
    fold = np.flatnonzero((ra != rb) & (small[ra] | small[rb]))
    if fold.size:
        fa, fb = ea[fold], eb[fold]
        for lo in range(0, len(fold), EDGE_SLICE):
            hi = lo + EDGE_SLICE
            for a, b in zip(fa[lo:hi].tolist(), fb[lo:hi].tolist()):
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b and (size[a] < min_size or size[b] < min_size):
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
        roots = _flatten(parent)

    _, first_idx, labels = np.unique(roots, return_index=True, return_inverse=True)
    # np.unique orders by root index; relabel in row-major first-appearance order
    appearance_rank = np.argsort(np.argsort(first_idx, kind="stable"), kind="stable")
    labels = appearance_rank[labels]
    return SegmentationMap(
        width=img.width,
        height=img.height,
        labels=labels.reshape(img.height, img.width).astype(np.int32),
    )


def _gradient(plane: np.ndarray) -> List[np.ndarray]:
    """Central-difference gradient (d/dy, d/dx) of a plane; zero along an
    axis of length 1, where there is no neighbor to difference."""
    return [
        np.gradient(plane, axis=axis) if plane.shape[axis] > 1 else np.zeros_like(plane)
        for axis in (0, 1)
    ]


def region_descriptors(img: Image, seg: SegmentationMap) -> Regions:
    """Table of each region's size, tight bounding box, and normalized color
    and texture histograms (similarity inputs for grouping), row = region id."""
    labels = seg.labels.ravel()
    n_regions = seg.num_regions
    c = img.channels

    counts = np.bincount(labels, minlength=n_regions)

    px = img.pixels.reshape(-1, c)
    color_bin = (px.astype(np.int64) * COLOR_BINS) // 256  # 0..24
    color_hist = np.zeros((n_regions, c * COLOR_BINS))
    for ch in range(c):
        flat_idx = labels * (c * COLOR_BINS) + ch * COLOR_BINS + color_bin[:, ch]
        color_hist += np.bincount(
            flat_idx, minlength=n_regions * c * COLOR_BINS
        ).reshape(n_regions, c * COLOR_BINS)
    color_hist /= color_hist.sum(axis=1, keepdims=True)

    texture_hist = np.zeros((n_regions, c * TEXTURE_BINS))
    for ch in range(c):
        plane = img.pixels[:, :, ch].astype(np.float64)
        gy, gx = _gradient(plane)
        theta = np.arctan2(gy, gx)  # [-pi, pi]
        tbin = np.minimum(
            ((theta + np.pi) / (2 * np.pi) * TEXTURE_BINS).astype(np.int64),
            TEXTURE_BINS - 1,
        ).ravel()
        flat_idx = labels * (c * TEXTURE_BINS) + ch * TEXTURE_BINS + tbin
        texture_hist += np.bincount(
            flat_idx, minlength=n_regions * c * TEXTURE_BINS
        ).reshape(n_regions, c * TEXTURE_BINS)
    texture_hist /= texture_hist.sum(axis=1, keepdims=True)

    ys, xs = np.divmod(np.arange(labels.size, dtype=np.int64), seg.width)
    x_min = np.full(n_regions, np.iinfo(np.int64).max, dtype=np.int64)
    y_min = np.full(n_regions, np.iinfo(np.int64).max, dtype=np.int64)
    x_max = np.full(n_regions, -1, dtype=np.int64)
    y_max = np.full(n_regions, -1, dtype=np.int64)
    np.minimum.at(x_min, labels, xs)
    np.minimum.at(y_min, labels, ys)
    np.maximum.at(x_max, labels, xs)
    np.maximum.at(y_max, labels, ys)

    boxes = np.stack([x_min, y_min, x_max + 1, y_max + 1], axis=1).astype(np.float64)
    return Regions(counts, boxes, color_hist, texture_hist)


def similarity(table: Regions, a, b, image_area: float) -> np.ndarray:
    """Four-term similarity in [0, 4] of regions a[i] and b[i] (index arrays
    or ints): histogram intersections for color and texture, plus size and
    fill terms that favor small regions and merges that fill their joint
    bounding box. Each term is clamped to [0, 1], then the four are added in
    that order."""
    s_color = np.clip(np.minimum(table.color[a], table.color[b]).sum(axis=-1), 0.0, 1.0)
    s_texture = np.clip(np.minimum(table.texture[a], table.texture[b]).sum(axis=-1), 0.0, 1.0)
    pixels = table.size[a] + table.size[b]
    s_size = np.clip(1.0 - pixels / image_area, 0.0, 1.0)
    # the areas and pixel counts are integers, so this arithmetic is exact
    wh = np.maximum(table.boxes[a, 2:], table.boxes[b, 2:]) - np.minimum(
        table.boxes[a, :2], table.boxes[b, :2]
    )
    s_fill = np.clip(1.0 - (wh[..., 0] * wh[..., 1] - pixels) / image_area, 0.0, 1.0)
    return s_color + s_texture + s_size + s_fill


def region_adjacency(seg: SegmentationMap) -> Set[Tuple[int, int]]:
    """Unordered pairs of region ids touching under 8-connectivity."""
    ea, eb = _pixel_edges(seg.width, seg.height)
    flat = seg.labels.ravel().astype(np.int64)
    la, lb = flat[ea], flat[eb]
    diff = la != lb
    # one key lo * n + hi per pair, deduplicated before Python sees it
    n = seg.num_regions
    keys = np.unique(np.minimum(la[diff], lb[diff]) * n + np.maximum(la[diff], lb[diff]))
    return set(zip((keys // n).tolist(), (keys % n).tolist()))


def hierarchical_grouping(
    regions: Regions, adjacency: Set[Tuple[int, int]], image_area: float
) -> Regions:
    """Merge the most similar adjacent pair until one region remains.

    Returns the table of every region ever created, 2R - 1 rows for R
    connected regions: the initial ones first, then merged regions in
    creation order. Ties in similarity are broken by the smallest
    (id_a, id_b) pair so the hierarchy is deterministic.
    """
    r = len(regions)
    n = max(2 * r - 1, 0)
    table = Regions(
        *(
            np.concatenate([col, np.zeros((n - r,) + col.shape[1:], col.dtype)])
            for col in (regions.size, regions.boxes, regions.color, regions.texture)
        )
    )
    neighbors: List[Set[int]] = [set() for _ in range(n)]
    for a, b in adjacency:
        neighbors[a].add(b)
        neighbors[b].add(a)
    # (-similarity, a, b) with a < b: the heap's minimum is the best pair
    ia, ib = np.array(sorted(adjacency), dtype=np.int64).reshape(-1, 2).T
    heap = list(zip((-similarity(table, ia, ib, image_area)).tolist(), ia.tolist(), ib.tolist()))
    heapq.heapify(heap)

    retired = [False] * n
    new = r
    while heap:
        _, a, b = heapq.heappop(heap)
        if retired[a] or retired[b]:
            continue
        retired[a] = retired[b] = True
        size_a, size_b = int(table.size[a]), int(table.size[b])
        size = size_a + size_b
        table.size[new] = size
        table.boxes[new, :2] = np.minimum(table.boxes[a, :2], table.boxes[b, :2])
        table.boxes[new, 2:] = np.maximum(table.boxes[a, 2:], table.boxes[b, 2:])
        wa, wb = size_a / size, size_b / size
        table.color[new] = wa * table.color[a] + wb * table.color[b]
        table.texture[new] = wa * table.texture[a] + wb * table.texture[b]

        joined = (neighbors[a] | neighbors[b]) - {a, b}
        neighbors[new] = joined
        for nb in joined:
            neighbors[nb] -= {a, b}
            neighbors[nb].add(new)
        ids = np.array(sorted(joined), dtype=np.int64)
        for s, nb in zip(similarity(table, ids, new, image_area).tolist(), ids.tolist()):
            heapq.heappush(heap, (-s, nb, new))
        new += 1
    return Regions(table.size[:new], table.boxes[:new], table.color[:new], table.texture[:new])


def selective_search(
    img: Image, k: float, min_size: int, sigma: float, max_boxes: int
) -> List[Box]:
    """Generate candidate object boxes for one image.

    Runs the over-segmentation, then hierarchical grouping, and emits the
    bounding box of every region ever created, deduplicated, most recently
    created first, truncated to max_boxes.
    """
    seg = segment_graph(img, k, min_size, sigma)
    table = hierarchical_grouping(
        region_descriptors(img, seg), region_adjacency(seg), float(img.width * img.height)
    )
    newest_first = dict.fromkeys(map(tuple, table.boxes[::-1].tolist()))
    return [Box(*key) for key in list(newest_first)[:max_boxes]]
