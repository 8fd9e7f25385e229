"""Image container, PNM round trips, and raster helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedet.core import Box, box_corners
from fusedet.images import (
    Image,
    draw_rect,
    float_pixels,
    gaussian_kernel,
    read_pnm,
    sample_window,
    sample_window_rgb,
    smooth,
    to_grayscale,
    write_pnm,
)


def test_image_validates_buffer_shape_and_dtype():
    with pytest.raises(ValueError):
        Image(width=2, height=2, channels=3, pixels=np.zeros((2, 2, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(width=2, height=2, channels=1, pixels=np.zeros((2, 2, 1), dtype=np.float64))
    with pytest.raises(ValueError):
        Image(width=0, height=2, channels=1, pixels=np.zeros((2, 0, 1), dtype=np.uint8))


def test_from_array_promotes_grayscale():
    img = Image.from_array(np.zeros((4, 6), dtype=np.uint8))
    assert (img.width, img.height, img.channels) == (6, 4, 1)
    assert img.full_box == Box(0, 0, 6, 4)


def test_ppm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    write_pnm(Image.from_array(arr), path)
    back = read_pnm(path)
    assert back.channels == 3
    assert np.array_equal(back.pixels, arr)


def test_pgm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 256, size=(9, 11, 1), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    write_pnm(Image.from_array(arr), path)
    back = read_pnm(path)
    assert back.channels == 1
    assert np.array_equal(back.pixels, arr)


def test_read_pnm_accepts_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
    img = read_pnm(path)
    assert img.pixels.ravel().tolist() == [0, 1, 2, 3]


def test_read_pnm_rejects_bad_files(tmp_path):
    p = tmp_path / "bad1.pnm"
    p.write_bytes(b"P4\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="magic"):
        read_pnm(p)
    p = tmp_path / "bad2.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        read_pnm(p)
    p = tmp_path / "bad3.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError, match="raster"):
        read_pnm(p)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"P6 4 x 255\n", "bad header field 'x' (want a decimal count)"),
        (b"P6 -4 4 255\n", "bad header field '-4' (want a decimal count)"),
        (b"P5 4 4 2.5\n", "bad header field '2.5' (want a decimal count)"),
        (b"P6 0 4 255\n", "image dimensions must be positive, got 0x4"),
        (b"P5 4 0 255\n", "image dimensions must be positive, got 4x0"),
    ],
)
def test_read_pnm_header_errors_name_the_file(tmp_path, header, message):
    p = tmp_path / "bad.pnm"
    p.write_bytes(header + bytes(48))
    with pytest.raises(ValueError) as err:
        read_pnm(p)
    assert str(err.value) == f"{p}: {message}"


def test_to_grayscale_matches_weights():
    arr = np.zeros((1, 1, 3), dtype=np.uint8)
    arr[0, 0] = (100, 50, 200)
    g = to_grayscale(float_pixels(Image.from_array(arr)))
    assert g[0, 0] == pytest.approx(0.299 * 100 + 0.587 * 50 + 0.114 * 200)
    gray = Image.from_array(np.full((2, 2), 37, dtype=np.uint8))
    assert np.all(to_grayscale(float_pixels(gray)) == 37.0)


def test_gaussian_kernel_is_normalized_and_symmetric():
    for sigma in (0.5, 0.8, 2.0):
        k = gaussian_kernel(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(k, k[::-1])
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)


def test_smooth_preserves_constant_planes():
    plane = np.full((12, 9), 42.0)
    out = smooth(plane, 1.3)
    assert np.allclose(out, 42.0, atol=1e-12)


def test_smooth_preserves_mean_roughly():
    rng = np.random.default_rng(9)
    plane = rng.normal(100.0, 20.0, size=(32, 32))
    out = smooth(plane, 1.0)
    # reflected borders keep the operator close to mean-preserving
    assert abs(out.mean() - plane.mean()) < 1.0
    assert out.std() < plane.std()


def test_sample_window_identity_on_full_box():
    rng = np.random.default_rng(13)
    plane = rng.uniform(0, 255, size=(10, 14))
    out = sample_window(plane, box_corners([Box(0, 0, 14, 10)]), 14, 10)[0]
    assert np.allclose(out, plane, atol=1e-12)


def test_sample_window_constant_region():
    plane = np.full((20, 20), 7.0)
    out = sample_window(plane, box_corners([Box(2.5, 3.5, 11.0, 17.0)]), 8, 8)[0]
    assert out.shape == (8, 8)
    assert np.allclose(out, 7.0)


def test_sample_window_interpolates_linear_ramp():
    # bilinear sampling reproduces an affine plane exactly away from borders
    xs = np.arange(16, dtype=np.float64)
    plane = np.tile(xs, (16, 1))
    out = sample_window(plane, box_corners([Box(4, 4, 12, 12)]), 16, 16)[0]
    expect = 4 + (np.arange(16) + 0.5) * 0.5 - 0.5
    assert np.allclose(out[8], expect, atol=1e-12)


def test_sample_window_clamps_outside_coordinates():
    plane = np.arange(9, dtype=np.float64).reshape(3, 3)
    out = sample_window(plane, box_corners([Box(-5, -5, 8, 8)]), 4, 4)[0]
    assert np.all(np.isfinite(out))
    assert out.min() >= plane.min() and out.max() <= plane.max()


def test_sample_window_rgb_shape():
    rng = np.random.default_rng(17)
    img = Image.from_array(rng.integers(0, 256, size=(20, 20, 3), dtype=np.uint8))
    out = sample_window_rgb(float_pixels(img), box_corners([Box(1, 2, 9, 12)]), 6, 5)[0]
    assert out.shape == (5, 6, 3)


def _frozen_float_pixels(img):
    return np.moveaxis(np.moveaxis(img.pixels, -1, 0).astype(np.float64), 0, -1)


def _frozen_sample_window(raster, windows, out_w, out_h):
    """sample_window as it gathered from one flat plane per channel."""
    single = isinstance(windows, Box)
    corners = box_corners([windows]) if single else windows
    h, w = raster.shape[:2]
    x_min, y_min = corners[:, 0:1], corners[:, 1:2]
    widths = corners[:, 2:3] - x_min
    heights = corners[:, 3:4] - y_min
    xs = np.clip(x_min + (np.arange(out_w) + 0.5) * (widths / out_w) - 0.5, 0.0, w - 1.0)
    ys = np.clip(y_min + (np.arange(out_h) + 0.5) * (heights / out_h) - 0.5, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    fx = (xs - x0)[:, None, :]
    fy = (ys - y0)[:, :, None]
    x1 = np.minimum(x0 + 1, w - 1)[:, None, :]
    row0 = (y0 * w)[:, :, None]
    row1 = (np.minimum(y0 + 1, h - 1) * w)[:, :, None]
    x0 = x0[:, None, :]
    if raster.ndim == 3:
        planes = np.moveaxis(raster, -1, 0).reshape(-1, h * w)
    else:
        planes = raster.reshape(1, -1)

    def blend(index_a, index_b, weight_b):
        a = planes.take(index_a, axis=1)
        a *= 1 - weight_b
        b = planes.take(index_b, axis=1)
        b *= weight_b
        a += b
        return a

    top = blend(row0 + x0, row0 + x1, fx)
    bot = blend(row1 + x0, row1 + x1, fx)
    top *= 1 - fy
    bot *= fy
    top += bot
    out = np.moveaxis(top, 0, -1) if raster.ndim == 3 else top[0]
    return out[0] if single else out


@st.composite
def _windows(draw, w, h):
    """Corners inside, touching or crossing the border of a w x h raster."""
    def edge(size):
        return draw(st.one_of(st.integers(-size, size), st.floats(-size, 2.0 * size)))

    x, y = edge(w), edge(h)
    return [x, y, x + draw(st.floats(0.25, 2.0 * w)), y + draw(st.floats(0.25, 2.0 * h))]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), w=st.integers(1, 12), h=st.integers(1, 12), channels=st.sampled_from([1, 3]))
def test_sample_window_gives_the_planar_gathers_bits(data, w, h, channels):
    pixels = np.random.default_rng(w * 100 + h).integers(0, 256, size=(h, w, channels), dtype=np.uint8)
    img = Image.from_array(pixels if channels == 3 else pixels[:, :, 0])
    px, frozen_px = float_pixels(img), _frozen_float_pixels(img)
    assert px.tobytes() == np.ascontiguousarray(frozen_px).tobytes()
    gray = data.draw(st.booleans())
    raster, frozen_raster = (to_grayscale(px), to_grayscale(frozen_px)) if gray else (px, frozen_px)
    corners = np.array(data.draw(st.lists(_windows(w, h), min_size=1, max_size=4)))
    out_w, out_h = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    # one window as a row of its own, where the frozen copy also took a Box
    for windows, single in ((corners, False), (corners[:1], True)):
        got = sample_window(raster, windows, out_w, out_h)
        want = _frozen_sample_window(frozen_raster, Box(*windows[0].tolist()) if single else windows, out_w, out_h)
        got = got[0] if single else got
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_draw_rect_paints_outline():
    pixels = np.zeros((10, 10, 3), dtype=np.uint8)
    draw_rect(pixels, Box(2, 3, 7, 8), (255, 0, 0))
    assert tuple(pixels[3, 2]) == (255, 0, 0)
    assert tuple(pixels[3, 6]) == (255, 0, 0)
    assert tuple(pixels[7, 2]) == (255, 0, 0)
    assert tuple(pixels[5, 4]) == (0, 0, 0)
