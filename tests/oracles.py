"""Loop-based reference implementations of the array pooling code.

These are the per-point, per-cell and per-region loops the encoder once ran
on lists of `SparseCode` objects. Tests hold the array implementations in
`hmpsearch.images` and `hmpsearch.encoder` to them bit for bit.
"""

import numpy as np

from hmpsearch import SparseCode, l2_normalize, omp_encode
from hmpsearch.encoder import FeatureGrid


def to_sparse(row) -> SparseCode:
    nz = np.flatnonzero(row)
    return SparseCode(len(row), nz, np.asarray(row, dtype=float)[nz])


def signed_max_pool(codes, code_length: int) -> np.ndarray:
    """Pool a list of sparse codes into one 2K vector, one code at a time."""
    out = np.zeros(2 * code_length)
    for code in codes:
        assert code.length == code_length
        pos = code.values > 0.0
        if pos.any():
            np.maximum.at(out, code.indices[pos], code.values[pos])
        if (~pos).any():
            np.maximum.at(out, code.indices[~pos] + code_length, -code.values[~pos])
    return out


def assign_to_cells(centers, region_size, cell_grid, origin=(0.0, 0.0)) -> list[list[int]]:
    """Index lists of the points in each row-major cell of the square region
    at `origin`; a point outside the region raises ValueError."""
    width = region_size / cell_grid
    cells: list[list[int]] = [[] for _ in range(cell_grid * cell_grid)]
    pts = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    for i in range(pts.shape[0]):
        rel_r = pts[i, 0] - origin[0]
        rel_c = pts[i, 1] - origin[1]
        if not (0 <= rel_r < region_size and 0 <= rel_c < region_size):
            raise ValueError(f"point {i} lies outside the region")
        cells[int(rel_r // width) * cell_grid + int(rel_c // width)].append(i)
    return cells


def encode_layer(features: FeatureGrid, layer) -> FeatureGrid:
    """Per-signal coding, unit buckets, per-cell pools, concatenation."""
    unit = layer.coding_unit_size
    d = layer.dictionary
    sparsity = min(layer.sparsity, d.signal_dim, d.size)
    codes = [omp_encode(d, features.vectors[i], sparsity) for i in range(features.count)]
    h, w = features.extent
    units_r, units_c = h // unit, w // unit
    vectors = np.zeros((units_r * units_c, 2 * d.size * layer.cells))
    centers = np.zeros((units_r * units_c, 2))
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(features.count):
        ur = int(features.centers[i, 0] // unit)
        uc = int(features.centers[i, 1] // unit)
        if 0 <= ur < units_r and 0 <= uc < units_c:
            buckets.setdefault((ur, uc), []).append(i)
    for ur in range(units_r):
        for uc in range(units_c):
            slot = ur * units_c + uc
            centers[slot] = ((ur + 0.5) * unit, (uc + 0.5) * unit)
            members = buckets.get((ur, uc), [])
            cells = assign_to_cells(
                features.centers[members], unit, layer.cell_grid, (ur * unit, uc * unit)
            )
            pooled = [signed_max_pool([codes[members[j]] for j in cell], d.size) for cell in cells]
            vectors[slot] = l2_normalize(np.concatenate(pooled))
    return FeatureGrid(centers, vectors, features.extent)


def pyramid_blocks(centers, codes, code_length: int, extent, pyramid) -> np.ndarray:
    """Unnormalized pyramid pool: one region list per grid cell, pooled in
    turn and concatenated grid by grid."""
    h, w = extent
    blocks = []
    for g in pyramid:
        base_r, base_c = h // g, w // g
        regions: list[list[SparseCode]] = [[] for _ in range(g * g)]
        for i, code in enumerate(codes):
            rr = min(int(centers[i][0] // base_r), g - 1) if base_r else g - 1
            cc = min(int(centers[i][1] // base_c), g - 1) if base_c else g - 1
            regions[rr * g + cc].append(code)
        blocks.extend(signed_max_pool(region, code_length) for region in regions)
    return np.concatenate(blocks)
