"""Raster decoding, grayscale conversion, and patch/cell geometry.

Native support covers binary netpbm files (P5 graymaps, P6 pixmaps). Other
formats go through an optional adapter backed by Pillow when it is
installed. Color inputs become luminance with weights 0.299/0.587/0.114.
Patches come out as a `FeatureGrid`, one row per patch with its pixel
center; the encoder carries pooled features in the same form.
`unit_cells` labels points with the square coding unit and cell they lie
in, all points at once. Image files and the manifest, a file of
`hmpsearch.files` tab records, are read through that module.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, InvalidInputError
from .files import read_bytes, tab_records

LUMA_WEIGHTS = (0.299, 0.587, 0.114)
# full scale of each grayscale Pillow mode that is read without conversion
_GRAY_FULL_SCALE = {"L": 255.0, "I;16": 65535.0, "I": 65535.0}
# P5 or P6, then width, height and maxval: each 1 to 20 digits after any run
# of whitespace or `#` comments (a comment runs to the line's end and cannot
# stop early), each followed by one whitespace byte; the last ends the header
_NETPBM_HEADER = re.compile(rb"P[56]" + rb"(?:\s|#[^\r\n]*(?![^\r\n]))*(\d{1,20})\s" * 3)


@dataclass(frozen=True)
class IntensityImage:
    """Grayscale image; `pixels` is a row-major (height x width) array in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise InvalidInputError(f"pixels must be 2-D and nonempty, got shape {px.shape}")
        if not np.all(np.isfinite(px)) or px.min() < 0.0 or px.max() > 1.0:
            raise InvalidInputError("pixel values must lie in [0, 1]")
        px = px.copy()
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class FeatureGrid:
    """Feature vectors, one per row of `vectors`, with the pixel center of
    each in `centers` ((row, col) per row).

    `extent` is the (height, width) of the image plane the centers live in.
    The same form carries patches and pooled features.
    """

    centers: np.ndarray
    vectors: np.ndarray
    extent: tuple[int, int]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


def _parse_netpbm(raw: bytes, path) -> IntensityImage:
    header = _NETPBM_HEADER.match(raw)
    if header is None:
        raise DecodeError(f"{path}: malformed netpbm header")
    width, height, maxval = (int(field) for field in header.groups())
    pos = header.end()
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise DecodeError(f"{path}: invalid netpbm dimensions {width}x{height} maxval {maxval}")
    channels = 3 if raw[:2] == b"P6" else 1
    wide = maxval > 255
    sample_bytes = 2 if wide else 1
    need = width * height * channels * sample_bytes
    data = raw[pos : pos + need]
    if len(data) < need:
        raise DecodeError(f"{path}: truncated pixel data ({len(data)} of {need} bytes)")
    dtype = ">u2" if wide else np.uint8
    values = np.frombuffer(data, dtype=dtype).astype(np.float64) / float(maxval)
    if channels == 3:
        rgb = values.reshape(height, width, 3)
        r, g, b = LUMA_WEIGHTS
        gray = r * rgb[:, :, 0] + g * rgb[:, :, 1] + b * rgb[:, :, 2]
    else:
        gray = values.reshape(height, width)
    return IntensityImage(np.clip(gray, 0.0, 1.0))


def _pillow_decode(path) -> IntensityImage:
    try:
        from PIL import Image
    except ImportError:
        raise DecodeError(f"{path}: not a P5/P6 netpbm file and Pillow is not installed") from None
    try:
        with Image.open(path) as img:
            if img.mode in _GRAY_FULL_SCALE:
                gray = np.asarray(img, dtype=np.float64) / _GRAY_FULL_SCALE[img.mode]
            else:
                rgb = np.asarray(img.convert("RGB"), dtype=np.float64) / 255.0
                r, g, b = LUMA_WEIGHTS
                gray = r * rgb[:, :, 0] + g * rgb[:, :, 1] + b * rgb[:, :, 2]
    except Exception as exc:
        raise DecodeError(f"{path}: cannot decode image: {exc}") from exc
    return IntensityImage(np.clip(gray, 0.0, 1.0))


def load_image(path) -> IntensityImage:
    """Decode a raster file into intensities scaled to [0, 1]."""
    raw = read_bytes(path, "image file")
    if raw[:2] in (b"P5", b"P6"):
        return _parse_netpbm(raw, path)
    return _pillow_decode(path)


def resize_max_side(img: IntensityImage, max_side: int) -> IntensityImage:
    """Bilinear downscale so the longer side is at most `max_side` pixels."""
    if max_side < 1:
        raise InvalidInputError(f"max_side must be >= 1, got {max_side}")
    h, w = img.height, img.width
    longest = max(h, w)
    if longest <= max_side:
        return img
    scale = max_side / longest
    nh, nw = max(1, round(h * scale)), max(1, round(w * scale))
    rows = np.linspace(0, h - 1, nh)
    cols = np.linspace(0, w - 1, nw)
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (rows - r0)[:, None]
    fc = (cols - c0)[None, :]
    px = img.pixels
    top = px[np.ix_(r0, c0)] * (1 - fc) + px[np.ix_(r0, c1)] * fc
    bottom = px[np.ix_(r1, c0)] * (1 - fc) + px[np.ix_(r1, c1)] * fc
    return IntensityImage(np.clip(top * (1 - fr) + bottom * fr, 0.0, 1.0))


def extract_patches(img: IntensityImage, patch_size: int, stride: int = 1) -> FeatureGrid:
    """Slide a square window over the image; each patch is mean-subtracted,
    so a constant image yields all-zero patches.

    Returns one flattened patch per row of `vectors`, row-major over the
    floor((H - p) / stride + 1) x floor((W - p) / stride + 1) windows that
    fit inside the image, with the image's (height, width) as the extent.
    """
    if patch_size < 1 or stride < 1:
        raise InvalidInputError(
            f"patch_size and stride must be >= 1, got {patch_size}, {stride}"
        )
    if patch_size > min(img.height, img.width):
        raise InvalidInputError(
            f"patch_size {patch_size} exceeds image extent {img.height}x{img.width}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(img.pixels, (patch_size, patch_size))
    windows = windows[::stride, ::stride]
    rows, cols = windows.shape[:2]
    flat = windows.reshape(rows * cols, patch_size * patch_size)
    flat = flat - flat.mean(axis=1, keepdims=True)
    half = (patch_size - 1) / 2.0
    centers = np.empty((rows * cols, 2))
    centers[:, 0] = np.repeat(np.arange(rows) * stride + half, cols)
    centers[:, 1] = np.tile(np.arange(cols) * stride + half, rows)
    return FeatureGrid(centers, flat, (img.height, img.width))


def unit_cells(centers: np.ndarray, extent, unit_size: int, cell_grid: int):
    """Label points with their coding unit and cell.

    The extent (height, width) is tiled row-major by square units of side
    `unit_size`, each split into a cell_grid x cell_grid grid. Returns
    `inside`, which marks the points whose unit lies whole in the extent,
    and for those points in order their labels: the unit's row-major index
    times cell_grid**2 plus the row-major cell within the unit.
    """
    if cell_grid < 1:
        raise InvalidInputError(f"cell_grid must be >= 1, got {cell_grid}")
    if unit_size < 1 or unit_size % cell_grid != 0:
        raise InvalidInputError(
            f"region size {unit_size} is not divisible into a {cell_grid}x{cell_grid} cell grid"
        )
    units = np.array(extent) // unit_size
    with np.errstate(invalid="ignore"):  # a NaN center lies in no unit
        cell = np.asarray(centers, dtype=np.float64).reshape(-1, 2) // (unit_size // cell_grid)
        inside = np.all((cell >= 0) & (cell // cell_grid < units), axis=1)
    unit, within = np.divmod(cell[inside].astype(np.int64), cell_grid)
    return inside, np.ravel_multi_index((*unit.T, *within.T), (*units, cell_grid, cell_grid))


def read_manifest(path) -> list[tuple[str, str]]:
    """Parse a dataset manifest: one `<image-id><TAB><path>` record per line.

    Relative paths resolve against the manifest's own directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    return [(image_id, os.path.join(base, rel)) for _, image_id, rel in tab_records(path, "manifest")]
