"""Recursive multi-layer sparse coding with signed max pooling.

An image is turned into one descriptor by stacking one to three coding
layers. Layer 1 codes small mean-subtracted patches. Every interior layer
then tiles the image plane into square coding units and splits each unit
into a cell grid; every feature gets one label naming its unit and cell,
the features of whole units are coded, and one `signed_max_pool` call pools
all cells of the image at once. The rows of the pooled matrix, read unit by
unit, are the cell features concatenated row-major; each unit feature is
normalized and becomes one signal of the next layer. The last layer's
codes skip the unit machinery: they are pooled over whole-image spatial
pyramid regions and the concatenation is normalized once, giving a
descriptor of length 2 * K_final * sum(g^2 for g in pyramid).

Patches and pooled unit features travel as one form, the `FeatureGrid` of
`hmpsearch.images`: a matrix with one row per feature, the pixel center of
each row, and the image extent. Codes travel beside the grid they code as
the `(support, coef)` slots of `omp_encode_batch`, and pooling reads the
slots, so no N x K code matrix is built. All geometry lives in
original-image pixel coordinates: every feature carries the pixel center of
the area it summarizes, and units, cells, and pyramid regions claim
features by center. Features of units that do not fit whole at the border
are dropped before they are coded.
The architecture is configuration; the codebooks, one per layer in layer
order, are the trained model and are passed beside it as arguments.
Descriptor files are `HMPV` containers of `hmpsearch.files`, which also
reads the architecture file.
"""

from __future__ import annotations

import logging
import re
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .coding import UNIT_NORM_TOL, Dictionary, l2_normalize, omp_encode_batch, vq_encode_batch
from .errors import ConfigError, ImageTooSmallError, InvalidInputError
from .files import config_int, read_config, read_container, write_container
from .images import FeatureGrid, IntensityImage, extract_patches, unit_cells

_DESC_MAGIC = b"HMPV"
_DESC_VERSION = 1
_ENTRY_DTYPE = np.dtype([("index", "<u4"), ("value", "<f8")])

DEFAULT_UNIT_SIZES = (16, 36)
DEFAULT_CELL_GRIDS = (4, 2)
DEFAULT_HIDDEN_SPARSITY = 4
DEFAULT_FINAL_SPARSITY = 10
MAX_LAYERS = 3

log = logging.getLogger("hmpsearch")


@dataclass
class LayerConfig:
    """One coding layer, each field named after its architecture-file key;
    its codebook is passed beside it.

    `unit_size` and `cell_grid` drive the pooling step of interior layers;
    the final layer pools over the pyramid instead.
    """

    codebook_size: int
    sparsity: int
    unit_size: int = DEFAULT_UNIT_SIZES[0]
    cell_grid: int = DEFAULT_CELL_GRIDS[0]

    def __post_init__(self):
        if self.codebook_size < 2:
            raise InvalidInputError(f"codebook_size must be >= 2, got {self.codebook_size}")
        if self.sparsity < 1:
            raise InvalidInputError(f"sparsity must be >= 1, got {self.sparsity}")
        if self.unit_size < 1 or self.cell_grid < 1:
            raise InvalidInputError("unit_size and cell_grid must be >= 1")

    @property
    def cells(self) -> int:
        return self.cell_grid * self.cell_grid

    @property
    def output_dim(self) -> int:
        """Length of one pooled coding-unit feature."""
        return 2 * self.codebook_size * self.cells


@dataclass
class ArchitectureConfig:
    """Ordered coding layers, the whole-image pyramid grids, and how layer 1
    cuts its `patch_size` patches every `stride` pixels; each higher layer
    codes the pooled features of the layer below, one at a time."""

    layers: list[LayerConfig]
    pyramid: list[int] = field(default_factory=lambda: [1])
    patch_size: int = 5
    stride: int = 1

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
        if self.patch_size < 1 or self.stride < 1:
            raise InvalidInputError("patch_size and stride must be >= 1")
        for layer in self.layers[:-1]:
            if layer.unit_size % layer.cell_grid != 0:
                raise InvalidInputError(
                    f"unit_size {layer.unit_size} is not divisible by cell_grid {layer.cell_grid}"
                )

    @property
    def final_layer(self) -> LayerConfig:
        return self.layers[-1]

    def descriptor_length(self) -> int:
        return 2 * self.final_layer.codebook_size * sum(g * g for g in self.pyramid)

    def layer_input_dim(self, depth: int) -> int:
        """Signal dimension entering the layer at 1-based `depth`."""
        if depth == 1:
            return self.patch_size * self.patch_size
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
        if self.length < 1:
            raise InvalidInputError(f"descriptor length must be >= 1, got {self.length}")
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
            if abs(norm - 1.0) > UNIT_NORM_TOL:
                raise InvalidInputError(f"descriptor norm {norm} is not 1 within {UNIT_NORM_TOL}")
        indices.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def descriptor_from_dense(image_id: str, dense: np.ndarray) -> ImageDescriptor:
    dense = np.asarray(dense, dtype=np.float64)
    nz = np.nonzero(dense)[0]
    return ImageDescriptor(image_id, int(dense.size), nz, dense[nz])


def signed_max_pool(support, coef, labels, count: int, size: int) -> np.ndarray:
    """Per-group maxima of the positive and negative code parts.

    Code i, atoms `support[i]` with coefficients `coef[i]` (N x s slots over
    `size` atoms), belongs to group `labels[i]` in [0, count). Row g of the
    count x 2 `size` result holds at slot m the largest positive coefficient
    of atom m among the group's codes, and at slot `size` + m the largest
    magnitude among negative ones; a group without codes pools to zero.
    """
    support, coef, labels = np.asarray(support), np.asarray(coef, dtype=np.float64), np.asarray(labels)
    if coef.ndim != 2 or support.shape != coef.shape or labels.shape != coef.shape[:1]:
        raise InvalidInputError(
            f"need N x s support and coef and N labels, got {support.shape}, {coef.shape} and {labels.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= count):
        raise InvalidInputError(f"labels must lie in [0, {count})")
    if support.size and (support.min() < 0 or support.max() >= size):
        raise InvalidInputError(f"atoms must lie in [0, {size})")
    keep = (coef > 0.0) | (coef < 0.0)  # a NaN pools to nothing
    slots = np.where(coef > 0.0, support, support + size)[keep]
    out = np.zeros((count, 2 * size))
    np.maximum.at(out, (np.broadcast_to(labels[:, None], coef.shape)[keep], slots), np.abs(coef[keep]))
    return out


def _codes(vectors: np.ndarray, layer: LayerConfig, dictionary: Dictionary) -> tuple:
    sparsity = min(layer.sparsity, dictionary.signal_dim, dictionary.size)
    return omp_encode_batch(dictionary, vectors.T, sparsity)


def encode_layer(features: FeatureGrid, layer: LayerConfig, dictionary: Dictionary) -> FeatureGrid:
    """One interior coding layer: label each feature with its unit and cell,
    code the features of whole units against `dictionary`, pool per cell,
    concatenate, normalize.

    Returns one feature per whole coding unit that fits in the extent, in
    row-major unit order; its center is the unit's center so the next layer
    sees the coarser grid.
    """
    unit = layer.unit_size
    inside, labels = unit_cells(features.centers, features.extent, unit, layer.cell_grid)
    support, coef = _codes(features.vectors[inside], layer, dictionary)
    units_r, units_c = features.extent[0] // unit, features.extent[1] // unit
    count = units_r * units_c
    pooled = signed_max_pool(support, coef, labels, count * layer.cells, dictionary.size)
    pooled = pooled.reshape(count, layer.cells * pooled.shape[1])
    vectors = np.array([l2_normalize(row) for row in pooled]).reshape(pooled.shape)
    ur, uc = np.meshgrid(np.arange(units_r), np.arange(units_c), indexing="ij")
    centers = (np.stack([ur.ravel(), uc.ravel()], axis=1) + 0.5) * unit
    return FeatureGrid(centers, vectors, features.extent)


def _pyramid_bins(coords: np.ndarray, side: int, g: int) -> np.ndarray:
    """Row (or column) of each coordinate in a g-way split of `side`; the
    last bin keeps the remainder pixels."""
    if side < g:
        return np.full(coords.shape, g - 1)
    return np.minimum(coords // (side // g), g - 1).astype(np.int64)


def pyramid_pool(grid, support, coef, size: int, pyramid, image_id: str = "") -> ImageDescriptor:
    """Pool the final-layer codes of `grid`'s features, slots `(support,
    coef)` over `size` atoms, over whole-image pyramid grids.

    Each grid size g splits the extent into g x g regions (remainder pixels
    go to the last row and column); regions pool independently, blocks
    concatenate grid by grid row-major, and the result is normalized once.
    """
    length = 2 * size * sum(int(g) * int(g) for g in pyramid)
    if grid.count == 0:
        log.warning("image %r: no codes to pool; descriptor is all zeros", image_id)
        return ImageDescriptor(image_id, length, np.empty(0, dtype=np.int64), np.empty(0))
    h, w = grid.extent
    blocks = []
    for g in pyramid:
        g = int(g)
        rows = _pyramid_bins(grid.centers[:, 0], h, g)
        cols = _pyramid_bins(grid.centers[:, 1], w, g)
        blocks.append(signed_max_pool(support, coef, rows * g + cols, g * g, size).ravel())
    dense = l2_normalize(np.concatenate(blocks))
    return descriptor_from_dense(image_id, dense)


def minimum_image_side(arch: ArchitectureConfig) -> int:
    """Shorter image side below which some layer has no whole patch or unit."""
    return max([arch.patch_size, *(layer.unit_size for layer in arch.layers[:-1])])


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
    layer = LayerConfig(arch.final_layer.codebook_size, 1)
    return ArchitectureConfig([layer], patch_size=arch.patch_size, stride=arch.stride)


def layer_inputs(img: IntensityImage, arch: ArchitectureConfig, codebooks) -> FeatureGrid:
    """Signals entering the layer above the given codebooks: layer-1 patches,
    coded and pooled by one layer per codebook, in layer order."""
    grid = extract_patches(img, arch.patch_size, arch.stride)
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
    support, coef = _codes(grid.vectors, arch.final_layer, codebooks[-1])
    return pyramid_pool(grid, support, coef, codebooks[-1].size, arch.pyramid, image_id)


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
    with read_container(path, "descriptor file", _DESC_MAGIC, _DESC_VERSION) as body:
        (id_len,) = struct.unpack_from("<I", body)
        pos = 4 + id_len
        length, nnz = struct.unpack_from("<II", body, pos)
        if len(body) != pos + 8 + 12 * nnz:
            raise InvalidInputError(f"body of {len(body)} bytes, the header declares {pos + 8 + 12 * nnz}")
        entries = np.frombuffer(body, dtype=_ENTRY_DTYPE, count=nnz, offset=pos + 8)
        index, value = entries["index"].astype(np.int64), entries["value"].astype(np.float64)
        return ImageDescriptor(body[4:pos].decode("utf-8"), int(length), index, value)


# the [layer1] keys that set the architecture's patch geometry; above
# layer 1 they may only repeat the value 1
_PATCH_KEYS = ("patch_size", "stride")
# every numbered layer section is read, so one beyond MAX_LAYERS is an error
_LAYER_SECTION = "layer[0-9]+"
_ARCH_READERS = {
    _LAYER_SECTION: {f.name for f in fields(LayerConfig)} | set(_PATCH_KEYS),
    "pyramid": {"grids"},
}


def _layer_from_section(section, depth: int, total: int) -> LayerConfig:
    if "codebook_size" not in section:
        raise ConfigError(f"layer {depth}: codebook_size is required")
    values = dict(
        sparsity=DEFAULT_FINAL_SPARSITY if depth == total else DEFAULT_HIDDEN_SPARSITY,
        unit_size=DEFAULT_UNIT_SIZES[min(depth, len(DEFAULT_UNIT_SIZES)) - 1],
        cell_grid=DEFAULT_CELL_GRIDS[min(depth, len(DEFAULT_CELL_GRIDS)) - 1],
    )
    given = [f.name for f in fields(LayerConfig) if f.name in section]
    values.update((key, config_int(section.name, key, section[key])) for key in given)
    return LayerConfig(**values)


def load_architecture(path) -> ArchitectureConfig:
    """Read a layered architecture from a key/value config file with one
    [layerN] section per layer and an optional [pyramid] section; any bad
    value is a ConfigError naming the file, and a non-integer its key too."""
    with read_config(path, "architecture config", _ARCH_READERS) as parser:
        found = [name for name in parser.sections() if re.fullmatch(_LAYER_SECTION, name)]
        layer_names = [f"layer{i}" for i in range(1, len(found) + 1)]
        if not found:
            raise ConfigError("no [layerN] sections found")
        if set(found) != set(layer_names):
            raise ConfigError(f"layer sections must be consecutive starting at [layer1], got {found}")
        text = parser.get("pyramid", "grids", fallback="1")
        pyramid = [config_int("pyramid", "grids", tok) for tok in text.replace(",", " ").split()]
        layers = [
            _layer_from_section(parser[name], depth, len(layer_names))
            for depth, name in enumerate(layer_names, start=1)
        ]
        for name in layer_names[1:]:
            for key in _PATCH_KEYS:
                if config_int(name, key, parser[name].get(key, "1")) != 1:
                    raise ConfigError(f"[{name}] {key} must be 1: only layer 1 cuts patches")
        first = parser["layer1"]
        patch = {key: config_int("layer1", key, first[key]) for key in _PATCH_KEYS if key in first}
        arch = ArchitectureConfig(layers, pyramid, **patch)
    final = layer_names[-1]
    for key in ("unit_size", "cell_grid"):
        if key in parser[final] and key not in parser.defaults():
            log.warning("%s: ignoring [%s] key %r, which only interior layers read", path, final, key)
    return arch
