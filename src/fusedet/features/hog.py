"""Root-filter HOG descriptor for the shape-template channel.

A window is resampled to a fixed cells_x*8 by cells_y*8 grayscale grid,
gradient orientations are voted into 9 unsigned bins per 8x8 cell, and each
cell block of 2x2 cells is L2-normalized with clamping at 0.2 followed by
renormalization, yielding cells_x * cells_y * 36 values.
"""

from __future__ import annotations

import numpy as np

from ..core import Box
from ..images import Image, box_corners, sample_window, to_grayscale

CELL = 8
ORIENTATIONS = 9
CLAMP = 0.2
_EPS = 1e-12


def hog_length(cells_x: int, cells_y: int) -> int:
    return cells_x * cells_y * 4 * ORIENTATIONS


def _normalize(blocks: np.ndarray) -> None:
    """L2-normalizes each block (last axis) in place; all-zero blocks stay zero."""
    norms = np.sqrt((blocks**2).sum(axis=-1, keepdims=True))
    blocks /= np.where(norms > _EPS, norms, 1.0)


def hog(image: Image | np.ndarray, windows: Box | np.ndarray, cells_x: int, cells_y: int) -> np.ndarray:
    """Block-normalized gradient orientation histograms of image windows.

    image is an Image or its to_grayscale plane (pass the plane to convert
    the image once for many calls). windows is one Box, giving a
    hog_length(cells_x, cells_y) vector, or a (P, 4) array of corners
    (box_corners), giving a (P, hog_length) array computed in one pass.

    The descriptor depends only on intensity differences, so it is invariant
    to a constant offset added to the window. A uniform window yields the
    all-zero descriptor.
    """
    if cells_x < 1 or cells_y < 1:
        raise ValueError("cell grid must be at least 1x1")
    gray = to_grayscale(image) if isinstance(image, Image) else image
    single = isinstance(windows, Box)
    corners = box_corners([windows]) if single else windows
    height, width = gray.shape
    outside = ~(
        (corners[:, 0] < width)
        & (corners[:, 1] < height)
        & (corners[:, 2] > 0)
        & (corners[:, 3] > 0)
    )
    if outside.any():
        window = windows if single else Box(*corners[int(np.argmax(outside))].tolist())
        raise ValueError(f"window {window} lies outside the {width}x{height} image")

    n = len(corners)
    out_w, out_h = cells_x * CELL, cells_y * CELL
    patches = sample_window(gray, corners, out_w, out_h)

    gy, gx = np.gradient(patches, axis=(1, 2))
    mag = np.hypot(gx, gy).reshape(n, -1)
    theta = np.mod(np.arctan2(gy, gx), np.pi)  # unsigned orientation

    # bilinear vote between the two nearest orientation bins
    pos = theta / np.pi * ORIENTATIONS
    lo = np.floor(pos).astype(np.int64)
    frac = (pos - lo).reshape(n, -1)
    lo = np.mod(lo, ORIENTATIONS).reshape(n, -1)
    hi = np.mod(lo + 1, ORIENTATIONS)

    # every window owns its own run of bins, so one bincount per vote
    # direction fills the histograms of all windows
    cy = np.arange(out_h) // CELL
    cx = np.arange(out_w) // CELL
    n_cells = cells_x * cells_y
    offsets = (np.arange(n) * n_cells)[:, None] + (cy[:, None] * cells_x + cx[None, :]).ravel()
    offsets *= ORIENTATIONS
    size = n * n_cells * ORIENTATIONS
    hist = np.bincount((offsets + lo).ravel(), weights=(mag * (1 - frac)).ravel(), minlength=size)
    hist += np.bincount((offsets + hi).ravel(), weights=(mag * frac).ravel(), minlength=size)
    cells = hist.reshape(n, cells_y, cells_x, ORIENTATIONS)

    # one 2x2 block per cell position; cells beyond the grid contribute zeros
    padded = np.zeros((n, cells_y + 1, cells_x + 1, ORIENTATIONS))
    padded[:, :cells_y, :cells_x] = cells
    blocks = np.concatenate(
        [
            padded[:, :cells_y, :cells_x],
            padded[:, :cells_y, 1:],
            padded[:, 1:, :cells_x],
            padded[:, 1:, 1:],
        ],
        axis=3,
    ).reshape(n, n_cells, 4 * ORIENTATIONS)

    _normalize(blocks)
    np.minimum(blocks, CLAMP, out=blocks)
    _normalize(blocks)
    out = blocks.reshape(n, -1)
    return out[0] if single else out
