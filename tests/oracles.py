"""Loop-based reference implementations of the array coding, pooling and
index code.

Coding runs one signal at a time, as a batch of one column; `omp_pursuit`
is the per-signal greedy pursuit that re-solves the support by a fresh
Cholesky factorization at every step, the reference for the Batch-OMP
kernel, and `vq_exact` is nearest-atom coding without the BLAS screen.
Pooling loops over points, cells and regions, pooling dense code rows one
at a time. The inverted file is a dict of (id, value) posting lists grown
one descriptor at a time. Tests hold the array implementations
in `hmpsearch.coding`, `hmpsearch.images`, `hmpsearch.encoder` and
`hmpsearch.index` to them.
"""

import math
from bisect import insort

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from hmpsearch import FeatureGrid, l2_normalize, omp_encode_batch, vq_encode_batch
from hmpsearch.coding import RESIDUAL_STOP, _check_signals, _correlations


def omp_pursuit(atoms: np.ndarray, y: np.ndarray, sparsity: int):
    """Greedy pursuit of one signal: (support in pick order, coefficients).

    Correlations come from the explicit residual; the least-squares
    coefficients on the support are re-solved from scratch at each step,
    by minimum-norm least squares when the support Gram is singular.
    """
    support: list[int] = []
    coef = np.empty(0)
    residual = y
    for _ in range(sparsity):
        res_norm = np.linalg.norm(residual)
        if res_norm < RESIDUAL_STOP:
            break
        corr = np.abs(atoms.T @ residual)
        if support:
            corr[support] = -1.0
        best = int(np.argmax(corr))
        # residual orthogonal to every remaining atom: nothing left to add
        if corr[best] <= 1e-12 * res_norm:
            break
        support.append(best)
        sub = atoms[:, support]
        gram = sub.T @ sub
        rhs = sub.T @ y
        try:
            coef = cho_solve(cho_factor(gram, lower=True), rhs)
        except (LinAlgError, np.linalg.LinAlgError):
            coef = np.linalg.lstsq(sub, y, rcond=None)[0]
        residual = y - sub @ coef
    return support, coef


def omp_one(dictionary, signal, sparsity: int) -> np.ndarray:
    """Dense code of one signal: `omp_encode_batch` on a batch of one column."""
    return omp_encode_batch(dictionary, np.asarray(signal, dtype=float)[:, None], sparsity)[0]


def vq_one(dictionary, signal) -> int:
    """Nearest atom of one signal: `vq_encode_batch` on a batch of one column."""
    return int(vq_encode_batch(dictionary, np.asarray(signal, dtype=float)[:, None])[0])


def vq_exact(dictionary, signals) -> np.ndarray:
    """Nearest atom per column of `signals` (D x N): the argmax over all K
    atoms of the elementwise `_correlations` loop, ties toward the lowest
    index."""
    return np.argmax(_correlations(_check_signals(dictionary, signals), dictionary.atoms), axis=1)


def signed_max_pool(codes, code_length: int) -> np.ndarray:
    """Pool dense code rows into one 2K vector, one row and one nonzero at a
    time."""
    out = np.zeros(2 * code_length)
    for code in codes:
        assert len(code) == code_length
        for m in np.flatnonzero(code):
            value = float(code[m])
            slot = m if value > 0.0 else m + code_length
            out[slot] = max(out[slot], abs(value))
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


def encode_layer(features: FeatureGrid, layer, d) -> FeatureGrid:
    """Per-signal coding against `d`, unit buckets, per-cell pools,
    concatenation."""
    unit = layer.coding_unit_size
    sparsity = min(layer.sparsity, d.signal_dim, d.size)
    codes = [omp_one(d, features.vectors[i], sparsity) for i in range(features.count)]
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
        regions: list[list[np.ndarray]] = [[] for _ in range(g * g)]
        for i, code in enumerate(codes):
            rr = min(int(centers[i][0] // base_r), g - 1) if base_r else g - 1
            cc = min(int(centers[i][1] // base_c), g - 1) if base_c else g - 1
            regions[rr * g + cc].append(code)
        blocks.extend(signed_max_pool(region, code_length) for region in regions)
    return np.concatenate(blocks)


class DictIndex:
    """Posting lists as `{dimension: [(image id, value), ...]}`, each list
    kept sorted by id."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.postings: dict[int, list[tuple[str, float]]] = {}
        self.ids: list[str] = []
        self.idf = None


def postings_of(idx) -> dict[int, list[tuple[str, float]]]:
    """The rows of an array `InvertedIndex` in the `DictIndex.postings` layout."""
    bounds = idx.indptr.tolist()
    return {
        dim: [
            (idx.ids[doc], value)
            for doc, value in zip(idx.docs[lo:hi].tolist(), idx.values[lo:hi].tolist())
        ]
        for dim, lo, hi in zip(idx.dims.tolist(), bounds, bounds[1:])
    }


def index_add(idx: DictIndex, desc) -> DictIndex:
    assert desc.length == idx.dimension and desc.image_id not in idx.ids
    for i, v in zip(desc.indices, desc.values):
        insort(idx.postings.setdefault(int(i), []), (desc.image_id, float(v)))
    idx.ids.append(desc.image_id)
    return idx


def index_query(idx: DictIndex, q, top_k=None, self_exclude=False):
    """Scores accumulated posting by posting over the query's dimensions in
    ascending order, ranked by descending score then ascending id."""
    values = q.values
    if idx.idf is not None:
        values = values * idx.idf[q.indices]
        norm = np.linalg.norm(values)
        if norm != 0.0:
            values = values / norm
    scores: dict[str, float] = {}
    for i, v in zip(q.indices, values):
        for doc_id, stored in idx.postings.get(int(i), ()):
            scores[doc_id] = scores.get(doc_id, 0.0) + stored * float(v)
    exclude = q.image_id if self_exclude else None
    items = [(i, s) for i, s in scores.items() if i != exclude]
    items.sort(key=lambda entry: (-entry[1], entry[0]))
    if top_k is not None:
        items = items[: max(int(top_k), 0)]
    return items


def index_apply_idf(idx: DictIndex) -> DictIndex:
    """IDF weights and per-document renormalization, one posting at a time;
    squared norms are summed in insertion order of the dimensions."""
    weights = np.zeros(idx.dimension)
    for dim, plist in idx.postings.items():
        weights[dim] = math.log(len(idx.ids) / len(plist))
    norms: dict[str, float] = {}
    for dim, plist in idx.postings.items():
        for doc_id, value in plist:
            norms[doc_id] = norms.get(doc_id, 0.0) + (value * weights[dim]) ** 2
    out = DictIndex(idx.dimension)
    out.ids = list(idx.ids)
    for dim, plist in idx.postings.items():
        w = weights[dim]
        if w == 0.0:
            continue
        rescaled = []
        for doc_id, value in plist:
            norm = math.sqrt(norms.get(doc_id, 0.0))
            if norm > 0.0:
                rescaled.append((doc_id, value * w / norm))
        if rescaled:
            out.postings[dim] = rescaled
    out.idf = weights
    return out
