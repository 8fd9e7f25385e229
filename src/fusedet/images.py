"""8-bit image container, binary PPM/PGM reading and writing, and the small
set of raster helpers (grayscale, smoothing, window resampling, rectangle
drawing) the pipeline shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Box


@dataclass(frozen=True)
class Image:
    """Row-major 8-bit image, 1 (gray) or 3 (RGB) channels.

    pixels has shape (height, width, channels) and dtype uint8.
    """

    width: int
    height: int
    channels: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.pixels.shape != (self.height, self.width, self.channels):
            raise ValueError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x{self.channels}"
            )
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        if arr.ndim == 2:
            arr = arr[:, :, None]
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        h, w, c = arr.shape
        return cls(width=w, height=h, channels=c, pixels=arr)

    @property
    def full_box(self) -> Box:
        return Box(0.0, 0.0, float(self.width), float(self.height))


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines between header tokens
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated header")
    return data[start:pos], pos


def read_pnm(path) -> Image:
    """Read a binary PGM (P5) or PPM (P6) file, 8-bit samples only."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, pos = _read_token(data, 0)
        if magic == b"P5":
            channels = 1
        elif magic == b"P6":
            channels = 3
        else:
            raise ValueError(f"unsupported magic {magic!r} (want P5 or P6)")
        wtok, pos = _read_token(data, pos)
        htok, pos = _read_token(data, pos)
        mtok, pos = _read_token(data, pos)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    width, height, maxval = int(wtok), int(htok), int(mtok)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    need = width * height * channels
    raster = data[pos : pos + need]
    if len(raster) != need:
        raise ValueError(f"{path}: raster has {len(raster)} bytes, expected {need}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return Image(width=width, height=height, channels=channels, pixels=arr.copy())


def write_pnm(img: Image, path) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n" + f"{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())


def float_pixels(img: Image) -> np.ndarray:
    """(height, width, channels) float64 copy of an image's samples.

    Each channel's plane is stored whole, one after another, so that
    per-channel work (resampling, grayscale) reads contiguous memory.
    """
    return np.moveaxis(np.moveaxis(img.pixels, -1, 0).astype(np.float64), 0, -1)


def to_grayscale(img: Image | np.ndarray) -> np.ndarray:
    """Float64 grayscale in [0, 255] of an Image, or of a float pixel array
    whose last axis holds 1 or 3 channels (any leading shape)."""
    px = float_pixels(img) if isinstance(img, Image) else img
    if px.shape[-1] == 1:
        return px[..., 0]
    return 0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]


def gaussian_kernel(sigma: float) -> np.ndarray:
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = max(1, int(np.ceil(4.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def smooth(plane: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with reflected borders."""
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    padded = np.pad(plane.astype(np.float64), ((r, r), (0, 0)), mode="reflect")
    rows = np.zeros_like(plane, dtype=np.float64)
    for i, kv in enumerate(k):
        rows += kv * padded[i : i + plane.shape[0], :]
    padded = np.pad(rows, ((0, 0), (r, r)), mode="reflect")
    out = np.zeros_like(rows)
    for i, kv in enumerate(k):
        out += kv * padded[:, i : i + plane.shape[1]]
    return out


def box_corners(boxes: Sequence[Box]) -> np.ndarray:
    """(len(boxes), 4) float64 array of x_min, y_min, x_max, y_max rows."""
    return np.array(
        [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], dtype=np.float64
    ).reshape(-1, 4)


def sample_window(raster: np.ndarray, windows: Box | np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinearly resample windows of a float raster onto an out_h x out_w grid.

    raster is an (h, w) plane or an (h, w, channels) image (float_pixels
    layout is fastest). windows is one Box, giving an (out_h, out_w[,
    channels]) array, or a (P, 4) array of corners (box_corners), giving
    (P, out_h, out_w[, channels]) in one pass. Samples are taken at output
    pixel centers mapped into each window; source coordinates are clamped to
    the raster so windows touching or crossing the border stay well defined.
    """
    if out_w <= 0 or out_h <= 0:
        raise ValueError("output size must be positive")
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

    # gather from one flat plane per channel, (channels, P, out_h, out_w)
    if raster.ndim == 3:
        planes = np.moveaxis(raster, -1, 0).reshape(-1, h * w)
    else:
        planes = raster.reshape(1, -1)

    def blend(index_a, index_b, weight_b):
        """a * (1 - weight_b) + b * weight_b, formed in place."""
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


def sample_window_rgb(
    img: Image | np.ndarray, windows: Box | np.ndarray, out_w: int, out_h: int
) -> np.ndarray:
    """sample_window over every channel of an Image, or of its float_pixels
    array (pass the array to convert the image once for many calls)."""
    px = float_pixels(img) if isinstance(img, Image) else img
    return sample_window(px, windows, out_w, out_h)


def draw_rect(pixels: np.ndarray, box: Box, color, thickness: int = 1) -> None:
    """Draw a rectangle outline in place on a (h, w, 3) uint8 array."""
    h, w = pixels.shape[:2]
    x0 = int(np.clip(np.floor(box.x_min), 0, w - 1))
    y0 = int(np.clip(np.floor(box.y_min), 0, h - 1))
    x1 = int(np.clip(np.ceil(box.x_max) - 1, 0, w - 1))
    y1 = int(np.clip(np.ceil(box.y_max) - 1, 0, h - 1))
    col = np.asarray(color, dtype=np.uint8)
    for t in range(thickness):
        xa, ya = min(x0 + t, x1), min(y0 + t, y1)
        xb, yb = max(x1 - t, x0), max(y1 - t, y0)
        pixels[ya, xa : xb + 1] = col
        pixels[yb, xa : xb + 1] = col
        pixels[ya : yb + 1, xa] = col
        pixels[ya : yb + 1, xb] = col
