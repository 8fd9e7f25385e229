"""8-bit image container, binary PPM/PGM reading and writing, and the small
set of raster helpers (grayscale, smoothing, window resampling, rectangle
drawing) the pipeline shares.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        fields = []
        for _ in range(3):
            tok, pos = _read_token(data, pos)
            if not tok.isdigit():
                raise ValueError(f"bad header field {tok.decode('latin-1')!r} (want a decimal count)")
            fields.append(int(tok))
        width, height, maxval = fields
        if width == 0 or height == 0:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
    """(height, width, channels) float64 copy of an image's samples."""
    return img.pixels.astype(np.float64)


def to_grayscale(px: np.ndarray) -> np.ndarray:
    """Float64 grayscale in [0, 255] of a float pixel array (float_pixels)
    whose last axis holds 1 or 3 channels (any leading shape)."""
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


def sample_window(raster: np.ndarray, corners: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinearly resample windows of a float raster onto an out_h x out_w grid.

    raster is an (h, w) plane or an (h, w, channels) image; corners is a
    (P, 4) array of windows (box_corners), giving (P, out_h, out_w[,
    channels]) in one pass. Samples are taken at output pixel centers mapped
    into each window; source coordinates are clamped to the raster, so a
    window crossing the border stays well defined and one wholly outside it
    takes the border's values (extract refuses such windows).

    The blend is separable: each source row that a window's samples read is
    blended along x once, and each output row blends a pair of those rows
    along y. A sample is still (a * (1 - fx) + b * fx) * (1 - fy) +
    (c * (1 - fx) + d * fx) * fy of its four neighbours, formed in that
    order, so it has the bits of the four-neighbour gather; a window blends
    only the rows its samples read, never more than two per output row.
    """
    if out_w <= 0 or out_h <= 0:
        raise ValueError("output size must be positive")
    h, w = raster.shape[:2]
    x_min, y_min = corners[:, 0:1], corners[:, 1:2]
    widths = corners[:, 2:3] - x_min
    heights = corners[:, 3:4] - y_min
    xs = np.clip(x_min + (np.arange(out_w) + 0.5) * (widths / out_w) - 0.5, 0.0, w - 1.0)
    ys = np.clip(y_min + (np.arange(out_h) + 0.5) * (heights / out_h) - 0.5, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    pixels = raster.reshape(h * w, -1)  # one row of channel samples per pixel
    # the x weights are repeated over the channels, so that each product
    # runs over whole (out_w, channels) rows, not over runs of `channels`
    fx = np.repeat((xs - x0)[:, :, None], pixels.shape[1], axis=2)
    fy = (ys - y0)[:, :, None, None]

    # the source rows each window reads, numbered window * h + row; `line`
    # places each of them among the ones read, which are blended along x
    first = (np.arange(len(corners)) * h)[:, None]
    top = first + y0
    bottom = first + np.minimum(y0 + 1, h - 1)
    read = np.zeros(len(corners) * h, dtype=bool)
    read[top] = read[bottom] = True
    rows = np.flatnonzero(read)
    line = np.cumsum(read) - 1
    window = rows // h
    row_start = ((rows - window * h) * w)[:, None]
    x0 = x0[window]

    def blend(a, b, weight_b):
        """a * (1 - weight_b) + b * weight_b, formed in place in a."""
        a *= 1 - weight_b
        b *= weight_b
        a += b
        return a

    blended = blend(
        pixels.take(row_start + x0, axis=0),
        pixels.take(row_start + np.minimum(x0 + 1, w - 1), axis=0),
        fx[window],
    )
    out = blend(blended.take(line[top], axis=0), blended.take(line[bottom], axis=0), fy)
    return out if raster.ndim == 3 else out[..., 0]


def sample_window_rgb(px: np.ndarray, corners: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """sample_window over every channel of an image's float_pixels array:
    the name extract's Fisher and embedding channels resample by."""
    return sample_window(px, corners, out_w, out_h)


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
