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
box of every region that ever existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

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


@dataclass
class Region:
    id: int
    pixel_count: int
    bbox: Box
    color_hist: np.ndarray  # channels * COLOR_BINS bins, sums to 1
    texture_hist: np.ndarray  # channels * TEXTURE_BINS bins, sums to 1


@dataclass
class SelectiveSearchConfig:
    k: float = 300.0
    sigma: float = 0.8
    min_size: int = 50
    max_boxes: int = 2000


def _pixel_edges(width: int, height: int) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint index arrays for the 8-connected pixel graph."""
    idx = np.arange(width * height, dtype=np.int64).reshape(height, width)
    pairs = []
    # right, down, down-right, down-left
    pairs.append((idx[:, :-1], idx[:, 1:]))
    pairs.append((idx[:-1, :], idx[1:, :]))
    pairs.append((idx[:-1, :-1], idx[1:, 1:]))
    pairs.append((idx[:-1, 1:], idx[1:, :-1]))
    a = np.concatenate([p[0].ravel() for p in pairs])
    b = np.concatenate([p[1].ravel() for p in pairs])
    return a, b


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
    flat = smoothed.reshape(-1, img.channels)
    ea, eb = _pixel_edges(img.width, img.height)
    weights = np.sqrt(((flat[ea] - flat[eb]) ** 2).sum(axis=1))
    order = np.argsort(weights, kind="stable")
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


def region_descriptors(img: Image, seg: SegmentationMap) -> List[Region]:
    """Per-region size, tight bounding box, and normalized color and texture
    histograms (similarity inputs for grouping)."""
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

    regions = []
    for rid in range(n_regions):
        regions.append(
            Region(
                id=rid,
                pixel_count=int(counts[rid]),
                bbox=Box(
                    float(x_min[rid]),
                    float(y_min[rid]),
                    float(x_max[rid] + 1),
                    float(y_max[rid] + 1),
                ),
                color_hist=color_hist[rid],
                texture_hist=texture_hist[rid],
            )
        )
    return regions


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def similarity(a: Region, b: Region, image_area: float) -> float:
    """Four-term region similarity in [0, 4]: histogram intersections for
    color and texture, plus size and fill terms that favor small regions and
    merges that fill their joint bounding box."""
    s_color = _clamp01(float(np.minimum(a.color_hist, b.color_hist).sum()))
    s_texture = _clamp01(float(np.minimum(a.texture_hist, b.texture_hist).sum()))
    s_size = _clamp01(1.0 - (a.pixel_count + b.pixel_count) / image_area)
    joint = a.bbox.union_bbox(b.bbox)
    s_fill = _clamp01(1.0 - (joint.area - a.pixel_count - b.pixel_count) / image_area)
    return s_color + s_texture + s_size + s_fill


def region_adjacency(seg: SegmentationMap) -> Set[Tuple[int, int]]:
    """Unordered pairs of region ids touching under 8-connectivity."""
    lab = seg.labels
    pairs: Set[Tuple[int, int]] = set()
    shifts = [
        (lab[:, :-1], lab[:, 1:]),
        (lab[:-1, :], lab[1:, :]),
        (lab[:-1, :-1], lab[1:, 1:]),
        (lab[:-1, 1:], lab[1:, :-1]),
    ]
    for la, lb in shifts:
        la = la.ravel()
        lb = lb.ravel()
        diff = la != lb
        lo = np.minimum(la[diff], lb[diff])
        hi = np.maximum(la[diff], lb[diff])
        pairs.update(zip(lo.tolist(), hi.tolist()))
    return pairs


def _merge_regions(a: Region, b: Region, new_id: int) -> Region:
    n = a.pixel_count + b.pixel_count
    wa = a.pixel_count / n
    wb = b.pixel_count / n
    return Region(
        id=new_id,
        pixel_count=n,
        bbox=a.bbox.union_bbox(b.bbox),
        color_hist=wa * a.color_hist + wb * b.color_hist,
        texture_hist=wa * a.texture_hist + wb * b.texture_hist,
    )


def hierarchical_grouping(
    regions: List[Region], adjacency: Set[Tuple[int, int]], image_area: float
) -> List[Region]:
    """Merge the most similar adjacent pair until one region remains.

    Returns every region ever created, initial ones first, then merged
    regions in creation order. Ties in similarity are broken by the smallest
    (id_a, id_b) pair so the hierarchy is deterministic.
    """
    active: Dict[int, Region] = {r.id: r for r in regions}
    neighbors: Dict[int, Set[int]] = {r.id: set() for r in regions}
    for a, b in adjacency:
        neighbors[a].add(b)
        neighbors[b].add(a)
    sims: Dict[Tuple[int, int], float] = {
        (a, b): similarity(active[a], active[b], image_area) for a, b in adjacency
    }

    history: List[Region] = list(regions)
    next_id = max(active) + 1 if active else 0
    while len(active) > 1:
        # highest similarity wins; ties favor the smallest id pair
        best_pair = min(sims.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        a, b = best_pair
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
            key = (nb, merged.id) if nb < merged.id else (merged.id, nb)
            sims[key] = similarity(active[nb], merged, image_area)
    return history


def selective_search(img: Image, cfg: SelectiveSearchConfig) -> List[Box]:
    """Generate candidate object boxes for one image.

    Runs the over-segmentation, then hierarchical grouping, and emits the
    bounding box of every region ever created, deduplicated, most recently
    created first, truncated to cfg.max_boxes.
    """
    seg = segment_graph(img, cfg.k, cfg.min_size, cfg.sigma)
    regions = region_descriptors(img, seg)
    adjacency = region_adjacency(seg)
    history = hierarchical_grouping(regions, adjacency, float(img.width * img.height))

    boxes: List[Box] = []
    seen = set()
    for region in reversed(history):
        key = (region.bbox.x_min, region.bbox.y_min, region.bbox.x_max, region.bbox.y_max)
        if key in seen:
            continue
        seen.add(key)
        boxes.append(region.bbox)
    return boxes[: cfg.max_boxes]
