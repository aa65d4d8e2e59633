"""Recursive multi-layer sparse coding with signed max pooling.

An image is turned into one descriptor by stacking one to three coding
layers. Layer 1 codes small mean-subtracted patches. Every interior layer
then tiles the image plane into square coding units and splits each unit
into a cell grid; every code gets one label naming its unit and cell, and
one `signed_max_pool` call pools all cells of the image at once. The rows of
the pooled matrix, read unit by unit, are the cell features concatenated
row-major; each unit feature is normalized and becomes one signal of the
next layer. The last layer's codes skip the unit machinery: they are pooled
over whole-image spatial pyramid regions and the concatenation is
normalized once, giving a descriptor of length
2 * K_final * sum(g^2 for g in pyramid).

Patches, codes and pooled unit features all travel as one form, the
`FeatureGrid` of `hmpsearch.images`: a matrix with one row per feature, the
pixel center of each row, and the image extent. All geometry lives in
original-image pixel coordinates: every feature carries the pixel center of
the area it summarizes, and units, cells, and pyramid regions claim
features by center. Units that do not fit whole at the border are dropped.
The architecture is configuration; the codebooks, one per layer in layer
order, are the trained model and are passed beside it as arguments.
Descriptor files are `HMPV` containers of `hmpsearch.files`, which also
reads the architecture file.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coding import Dictionary, l2_normalize, omp_encode_batch, vq_encode_batch
from .errors import ConfigError, DecodeError, ImageTooSmallError, InvalidInputError
from .files import read_config, read_container, write_container
from .images import FeatureGrid, IntensityImage, assign_to_cells, extract_patches

_DESC_MAGIC = b"HMPV"
_DESC_VERSION = 1
_ENTRY_DTYPE = np.dtype([("index", "<u4"), ("value", "<f8")])

DEFAULT_UNIT_SIZES = (16, 36)
DEFAULT_CELL_GRIDS = (4, 2)
DEFAULT_HIDDEN_SPARSITY = 4
DEFAULT_FINAL_SPARSITY = 10
MAX_LAYERS = 3
# the keys `load_architecture` reads in each section it knows
_LAYER_KEYS = {"codebook_size", "sparsity", "patch_size", "stride", "unit_size", "cell_grid"}
_ARCH_READERS = {f"layer{d}": _LAYER_KEYS for d in range(1, MAX_LAYERS + 1)} | {"pyramid": {"grids"}}


@dataclass
class LayerConfig:
    """Geometry of one coding layer; its codebook is passed beside it.

    `input_patch_size` and `stride` describe how layer-1 signals are cut from
    the image; higher layers code one inherited feature at a time, so there
    they must both be 1. `coding_unit_size` and `cell_grid` drive the pooling
    step of interior layers and are ignored on the final layer.
    """

    codebook_size: int
    sparsity: int
    input_patch_size: int = 1
    stride: int = 1
    coding_unit_size: int = 16
    cell_grid: int = 4

    def __post_init__(self):
        if self.codebook_size < 2:
            raise InvalidInputError(f"codebook_size must be >= 2, got {self.codebook_size}")
        if self.sparsity < 1:
            raise InvalidInputError(f"sparsity must be >= 1, got {self.sparsity}")
        if self.input_patch_size < 1 or self.stride < 1:
            raise InvalidInputError("input_patch_size and stride must be >= 1")
        if self.coding_unit_size < 1 or self.cell_grid < 1:
            raise InvalidInputError("coding_unit_size and cell_grid must be >= 1")

    @property
    def cells(self) -> int:
        return self.cell_grid * self.cell_grid

    @property
    def output_dim(self) -> int:
        """Length of one pooled coding-unit feature."""
        return 2 * self.codebook_size * self.cells


@dataclass
class ArchitectureConfig:
    """Ordered coding layers plus the whole-image pyramid grids."""

    layers: list[LayerConfig]
    pyramid: list[int] = field(default_factory=lambda: [1])

    def __post_init__(self):
        if not 1 <= len(self.layers) <= MAX_LAYERS:
            raise InvalidInputError(f"expected 1 to {MAX_LAYERS} layers, got {len(self.layers)}")
        if not self.pyramid:
            raise InvalidInputError("pyramid must not be empty")
        if len(set(self.pyramid)) != len(self.pyramid) or any(
            g not in (1, 2, 3) for g in self.pyramid
        ):
            raise InvalidInputError(
                f"pyramid grids must be distinct values from {{1, 2, 3}}, got {self.pyramid}"
            )
        for depth, layer in enumerate(self.layers[1:], start=2):
            if layer.input_patch_size != 1 or layer.stride != 1:
                raise InvalidInputError(
                    f"layer {depth} codes one inherited feature at a time;"
                    " input_patch_size and stride must be 1"
                )
        for layer in self.layers[:-1]:
            if layer.coding_unit_size % layer.cell_grid != 0:
                raise InvalidInputError(
                    f"coding_unit_size {layer.coding_unit_size} is not divisible by"
                    f" cell_grid {layer.cell_grid}"
                )

    @property
    def final_layer(self) -> LayerConfig:
        return self.layers[-1]

    def descriptor_length(self) -> int:
        return 2 * self.final_layer.codebook_size * sum(g * g for g in self.pyramid)

    def layer_input_dim(self, depth: int) -> int:
        """Signal dimension entering the layer at 1-based `depth`."""
        if depth == 1:
            p = self.layers[0].input_patch_size
            return p * p
        return self.layers[depth - 2].output_dim


def check_codebook(dictionary: Dictionary, layer: LayerConfig, dim: int, subject: str) -> None:
    """Raise a ConfigError naming `subject` unless `dictionary` has the
    atom count of `layer` and atoms of dimension `dim`."""
    size = layer.codebook_size
    if (dictionary.size, dictionary.signal_dim) != (size, dim):
        raise ConfigError(
            f"{subject} has {dictionary.size} atoms of dimension {dictionary.signal_dim};"
            f" the architecture expects {size} of dimension {dim}"
        )


@dataclass(frozen=True)
class ImageDescriptor:
    """Final unit-norm sparse vector of one image (all-zero when degenerate)."""

    image_id: str
    length: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise InvalidInputError("indices and values must be 1-D and parallel")
        if indices.size:
            if np.any(np.diff(indices) <= 0):
                raise InvalidInputError("descriptor indices must be strictly increasing")
            if indices[0] < 0 or indices[-1] >= self.length:
                raise InvalidInputError("descriptor indices out of range")
            if np.any(values == 0.0) or not np.all(np.isfinite(values)):
                raise InvalidInputError("descriptor values must be nonzero and finite")
            with np.errstate(over="ignore"):  # an infinite norm fails the unit check
                norm = float(np.linalg.norm(values))
            if abs(norm - 1.0) > 1e-9:
                raise InvalidInputError(f"descriptor norm {norm} is not 1 within 1e-9")
        indices.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.length)
        out[self.indices] = self.values
        return out


def descriptor_from_dense(image_id: str, dense: np.ndarray) -> ImageDescriptor:
    dense = np.asarray(dense, dtype=np.float64)
    nz = np.nonzero(dense)[0]
    return ImageDescriptor(image_id, int(dense.size), nz, dense[nz])


def signed_max_pool(codes: np.ndarray, labels: np.ndarray, count: int) -> np.ndarray:
    """Per-group maxima of the positive and negative code parts.

    Row i of `codes` (N x K) belongs to group `labels[i]` in [0, count).
    Row g of the count x 2K result holds at slot m the largest positive
    coefficient at dimension m among the group's codes, and at slot K + m
    the largest magnitude among negative ones; a group without codes pools
    to the zero vector.
    """
    codes = np.asarray(codes, dtype=np.float64)
    labels = np.asarray(labels)
    if codes.ndim != 2 or labels.shape != codes.shape[:1]:
        raise InvalidInputError(
            f"need one label per code row, got codes {codes.shape} and labels {labels.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= count):
        raise InvalidInputError(f"labels must lie in [0, {count})")
    # np.where, not np.maximum, so that no -0.0 enters the pooled features
    parts = np.hstack([np.where(codes > 0.0, codes, 0.0), np.where(codes < 0.0, -codes, 0.0)])
    out = np.zeros((count, parts.shape[1]))
    np.maximum.at(out, labels, parts)
    return out


def _code_grid(features: FeatureGrid, layer: LayerConfig, dictionary: Dictionary) -> FeatureGrid:
    sparsity = min(layer.sparsity, dictionary.signal_dim, dictionary.size)
    codes = omp_encode_batch(dictionary, features.vectors.T, sparsity)
    return FeatureGrid(features.centers, codes, features.extent)


def encode_layer(features: FeatureGrid, layer: LayerConfig, dictionary: Dictionary) -> FeatureGrid:
    """One interior coding layer: code against `dictionary`, pool per cell,
    concatenate, normalize.

    Returns one feature per whole coding unit that fits in the extent, in
    row-major unit order; its center is the unit's center so the next layer
    sees the coarser grid.
    """
    unit = layer.coding_unit_size
    grid = _code_grid(features, layer, dictionary)
    h, w = grid.extent
    units_r, units_c = h // unit, w // unit
    unit_rc = grid.centers // unit
    inside = np.all((unit_rc >= 0) & (unit_rc < (units_r, units_c)), axis=1)
    unit_rc = unit_rc[inside]
    cells = assign_to_cells(grid.centers[inside] - unit_rc * unit, unit, layer.cell_grid)
    units = (unit_rc[:, 0] * units_c + unit_rc[:, 1]).astype(np.int64)
    count = units_r * units_c
    pooled = signed_max_pool(grid.vectors[inside], units * layer.cells + cells, count * layer.cells)
    pooled = pooled.reshape(count, layer.cells * pooled.shape[1])
    vectors = np.array([l2_normalize(row) for row in pooled]).reshape(pooled.shape)
    ur, uc = np.meshgrid(np.arange(units_r), np.arange(units_c), indexing="ij")
    centers = (np.stack([ur.ravel(), uc.ravel()], axis=1) + 0.5) * unit
    return FeatureGrid(centers, vectors, grid.extent)


def _pyramid_bins(coords: np.ndarray, side: int, g: int) -> np.ndarray:
    """Row (or column) of each coordinate in a g-way split of `side`; the
    last bin keeps the remainder pixels."""
    if side < g:
        return np.full(coords.shape, g - 1)
    return np.minimum(coords // (side // g), g - 1).astype(np.int64)


def pyramid_pool(codes: FeatureGrid, pyramid, image_id: str = "") -> ImageDescriptor:
    """Pool final-layer codes over whole-image pyramid grids.

    Each grid size g splits the extent into g x g regions (remainder pixels
    go to the last row and column); regions pool independently, blocks
    concatenate grid by grid row-major, and the result is normalized once.
    """
    k = codes.vectors.shape[1]
    length = 2 * k * sum(int(g) * int(g) for g in pyramid)
    if codes.count == 0:
        warnings.warn(f"image {image_id!r}: no codes to pool; descriptor is all zeros")
        return ImageDescriptor(image_id, length, np.empty(0, dtype=np.int64), np.empty(0))
    h, w = codes.extent
    blocks = []
    for g in pyramid:
        g = int(g)
        rows = _pyramid_bins(codes.centers[:, 0], h, g)
        cols = _pyramid_bins(codes.centers[:, 1], w, g)
        blocks.append(signed_max_pool(codes.vectors, rows * g + cols, g * g).ravel())
    dense = l2_normalize(np.concatenate(blocks))
    return descriptor_from_dense(image_id, dense)


def minimum_image_side(arch: ArchitectureConfig) -> int:
    """Shorter image side below which some layer has no whole patch or unit."""
    units = [layer.coding_unit_size for layer in arch.layers[:-1]]
    return max([arch.layers[0].input_patch_size, *units])


def check_image_size(img: IntensityImage, arch: ArchitectureConfig, subject: str) -> None:
    """Raise an ImageTooSmallError naming `subject` unless the shorter side
    of `img` reaches `minimum_image_side(arch)`."""
    need = minimum_image_side(arch)
    if min(img.height, img.width) < need:
        raise ImageTooSmallError(
            f"{subject} is {img.height}x{img.width}; the pipeline needs at least"
            f" {need}x{need} pixels"
        )


def baseline_architecture(arch: ArchitectureConfig) -> ArchitectureConfig:
    """The bag-of-features baseline of `arch`: one layer that codes layer-1
    patches with one nearest-atom codebook the size of the final layer's."""
    first = arch.layers[0]
    layer = LayerConfig(arch.final_layer.codebook_size, 1, first.input_patch_size, first.stride)
    return ArchitectureConfig([layer])


def layer_inputs(img: IntensityImage, arch: ArchitectureConfig, codebooks) -> FeatureGrid:
    """Signals entering the layer above the given codebooks: layer-1 patches,
    coded and pooled by one layer per codebook, in layer order."""
    first = arch.layers[0]
    grid = extract_patches(img, first.input_patch_size, first.stride)
    for layer, dictionary in zip(arch.layers, codebooks):
        grid = encode_layer(grid, layer, dictionary)
    return grid


def _check_inputs(img: IntensityImage, arch: ArchitectureConfig, codebooks, image_id: str) -> None:
    """The checks both encoders make: one codebook per layer, each with its
    layer's atom count and input dimension, and an image large enough."""
    if len(codebooks) != len(arch.layers):
        raise ConfigError(f"{len(arch.layers)} layers need as many codebooks, got {len(codebooks)}")
    for depth, (layer, dictionary) in enumerate(zip(arch.layers, codebooks), start=1):
        check_codebook(dictionary, layer, arch.layer_input_dim(depth), f"layer {depth} codebook")
    check_image_size(img, arch, f"image {image_id!r}")


def encode_image(
    img: IntensityImage, arch: ArchitectureConfig, codebooks, image_id: str = ""
) -> ImageDescriptor:
    """Run the full layered pipeline on one image, coding each layer with
    its codebook from `codebooks` (one per layer, in layer order)."""
    _check_inputs(img, arch, codebooks, image_id)
    grid = layer_inputs(img, arch, codebooks[:-1])
    return pyramid_pool(_code_grid(grid, arch.final_layer, codebooks[-1]), arch.pyramid, image_id)


def encode_image_bof(
    img: IntensityImage, arch: ArchitectureConfig, codebooks, image_id: str = ""
) -> ImageDescriptor:
    """Bag-of-features encoding: nearest-atom histogram.

    Takes the arguments of `encode_image`, with the architecture that
    `baseline_architecture` gives: every mean-subtracted layer-1 patch is
    hard-assigned to its nearest atom, the one-hot codes are average-pooled
    over the whole image, and the histogram is normalized; the descriptor
    length equals the codebook size. Under a deeper architecture the
    signals entering the final layer take the place of the patches.
    """
    _check_inputs(img, arch, codebooks, image_id)
    grid = layer_inputs(img, arch, codebooks[:-1])
    nearest = vq_encode_batch(codebooks[-1], grid.vectors.T)
    hist = np.bincount(nearest, minlength=codebooks[-1].size) / grid.count
    return descriptor_from_dense(image_id, l2_normalize(hist))


def save_descriptor(desc: ImageDescriptor, path) -> None:
    """Write a descriptor file: magic, version, id length and UTF-8 id,
    little-endian u32 total length and nnz, then (u32 index, f64 value)
    pairs sorted by index."""
    ident = desc.image_id.encode("utf-8")
    entries = np.empty(desc.nnz, dtype=_ENTRY_DTYPE)
    entries["index"] = desc.indices
    entries["value"] = desc.values
    header = struct.pack("<I", len(ident)) + ident + struct.pack("<II", desc.length, desc.nnz)
    write_container(path, "descriptor file", _DESC_MAGIC, _DESC_VERSION, header, entries.tobytes())


def load_descriptor(path) -> ImageDescriptor:
    body = read_container(path, _DESC_MAGIC, _DESC_VERSION, 4, "descriptor file")
    (id_len,) = struct.unpack_from("<I", body)
    pos = 4 + id_len
    try:
        length, nnz = struct.unpack_from("<II", body, pos)
        if len(body) != pos + 8 + 12 * nnz:
            raise InvalidInputError(f"body of {len(body)} bytes, the header declares {pos + 8 + 12 * nnz}")
        entries = np.frombuffer(body, dtype=_ENTRY_DTYPE, count=nnz, offset=pos + 8)
        index, value = entries["index"].astype(np.int64), entries["value"].astype(np.float64)
        return ImageDescriptor(body[4:pos].decode("utf-8"), int(length), index, value)
    except (struct.error, ValueError) as exc:
        # ValueError covers bad UTF-8 and InvalidInputError
        raise DecodeError(f"{path}: truncated or corrupt descriptor: {exc}") from exc


def _layer_from_section(section, depth: int, total: int) -> LayerConfig:
    geti = section.getint
    is_final = depth == total
    default_unit = DEFAULT_UNIT_SIZES[min(depth, len(DEFAULT_UNIT_SIZES)) - 1]
    default_cells = DEFAULT_CELL_GRIDS[min(depth, len(DEFAULT_CELL_GRIDS)) - 1]
    default_sparsity = DEFAULT_FINAL_SPARSITY if is_final else DEFAULT_HIDDEN_SPARSITY
    if "codebook_size" not in section:
        raise ConfigError(f"layer {depth}: codebook_size is required")
    return LayerConfig(
        codebook_size=geti("codebook_size", 0),
        sparsity=geti("sparsity", default_sparsity),
        input_patch_size=geti("patch_size", 5 if depth == 1 else 1),
        stride=geti("stride", 1),
        coding_unit_size=geti("unit_size", default_unit),
        cell_grid=geti("cell_grid", default_cells),
    )


def load_architecture(path) -> ArchitectureConfig:
    """Read a layered architecture from a key/value config file with one
    [layerN] section per layer and an optional [pyramid] section; any bad
    value, a non-number included, is a ConfigError naming the file."""
    parser = read_config(path, "architecture config", _ARCH_READERS)
    layer_names = sorted(
        (name for name in parser.sections() if name.startswith("layer")),
        key=lambda name: name[5:],
    )
    try:
        if not layer_names:
            raise ConfigError("no [layerN] sections found")
        expected = [f"layer{i}" for i in range(1, len(layer_names) + 1)]
        if layer_names != expected:
            raise ConfigError(
                f"layer sections must be consecutive starting at [layer1], got {layer_names}"
            )
        text = parser.get("pyramid", "grids", fallback="1")
        pyramid = [int(tok) for tok in text.replace(",", " ").split()]
        layers = [
            _layer_from_section(parser[name], depth, len(layer_names))
            for depth, name in enumerate(layer_names, start=1)
        ]
        return ArchitectureConfig(layers, pyramid)
    except (ConfigError, ValueError) as exc:  # ValueError covers InvalidInputError
        raise ConfigError(f"{path}: {exc}") from exc
