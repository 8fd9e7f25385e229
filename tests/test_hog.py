"""Gradient-orientation descriptor for the shape-template channel."""

import numpy as np
import pytest

from fusedet.core import Box, box_corners
from fusedet.features.hog import hog, hog_length
from fusedet.images import Image, float_pixels, to_grayscale


def _gray(arr):
    """The grayscale plane of an 8-bit image."""
    return to_grayscale(float_pixels(Image.from_array(arr.astype(np.uint8))))


def _full(plane):
    """The window of the whole plane."""
    return Box(0, 0, plane.shape[1], plane.shape[0])


def _hog(plane, box, cells_x, cells_y):
    """The descriptor of one window."""
    return hog(plane, box_corners([box]), cells_x, cells_y)[0]


def test_length_formula():
    assert hog_length(4, 4) == 4 * 4 * 36
    assert hog_length(1, 1) == 36
    rng = np.random.default_rng(2)
    plane = _gray(rng.integers(0, 256, size=(64, 64)))
    for cx, cy in ((1, 1), (2, 3), (4, 4)):
        assert _hog(plane, _full(plane), cx, cy).shape == (hog_length(cx, cy),)


def test_uniform_window_gives_zero_descriptor():
    plane = _gray(np.full((48, 48), 77))
    desc = _hog(plane, Box(4, 4, 40, 40), 4, 4)
    assert np.all(desc == 0.0)


def test_vertical_edge_votes_land_in_bin_zero():
    # a left-dark right-bright step has a purely horizontal gradient, whose
    # unsigned orientation is exactly the first histogram bin
    arr = np.zeros((64, 64))
    arr[:, 32:] = 200
    plane = _gray(arr)
    desc = _hog(plane, _full(plane), 4, 4)
    assert desc.sum() > 0
    mask = np.arange(desc.size) % 9 == 0
    assert np.all(desc[~mask] == 0.0)
    assert np.any(desc[mask] > 0.0)


def test_horizontal_edge_splits_between_middle_bins():
    # vertical gradient sits at pi/2, exactly between bins 4 and 5
    arr = np.zeros((64, 64))
    arr[32:, :] = 200
    plane = _gray(arr)
    desc = _hog(plane, _full(plane), 4, 4)
    assert desc.sum() > 0
    bins = np.arange(desc.size) % 9
    hot = np.isin(bins, (4, 5))
    assert np.all(desc[~hot] == 0.0)
    assert np.any(desc[hot] > 0.0)


def test_descriptor_is_invariant_to_intensity_offset():
    rng = np.random.default_rng(7)
    base = rng.integers(0, 200, size=(40, 40))
    d1 = _hog(_gray(base), Box(2, 2, 38, 38), 3, 3)
    d2 = _hog(_gray(base + 30), Box(2, 2, 38, 38), 3, 3)
    assert np.allclose(d1, d2, atol=1e-12)


def test_entries_are_clamped_finite_and_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        plane = _gray(rng.integers(0, 256, size=(32, 32)))
        desc = _hog(plane, Box(1, 1, 30, 30), 2, 2)
        assert np.all(np.isfinite(desc))
        assert np.all(desc >= 0.0)
        # after clamping at 0.2 and renormalizing, no entry can exceed 1
        assert np.all(desc <= 1.0 + 1e-12)


def test_window_outside_image_errors():
    # windows wholly outside the image are refused by extract, before any
    # sampler runs (tests/test_extract.py); hog checks its cell grid
    plane = _gray(np.zeros((16, 16)))
    with pytest.raises(ValueError, match="cell grid must be at least 1x1"):
        _hog(plane, Box(0, 0, 8, 8), 0, 2)
