"""Loop-based reference implementations of the array coding, pooling and
index code.

`omp_encode_batch` returns each code as its slots, `(support, coef)`;
`dense` expands them into the N x K code matrix that the loops here read,
and `slots` takes dense code rows back to the canonical slots.
Coding runs one signal at a time, as a batch of one column; `omp_pursuit`
is the per-signal greedy pursuit that re-solves the support by a fresh
Cholesky factorization at every step, the reference for the Batch-OMP
kernel. `omp_exact` is that kernel without its screen: every correlation
and Gram entry comes from the elementwise `correlations` loop, and the
`dense` codes of `omp_encode_batch` must equal it bit for bit. `vq_exact`
is nearest-atom coding without the screen.
`ksvd_dense` is K-SVD training with dense K x N codes, each reconstruction
a BLAS product `atoms @ codes`; `dictionary.train` must equal it bit for
bit at sparsity 1, where each reconstruction has one nonzero term.
Pooling loops over points, cells and regions, pooling dense code rows one
at a time. The inverted file is a dict of (id, value) posting lists grown
one descriptor at a time, and `to_dense` expands a descriptor for dense
comparisons. Tests hold the array implementations
in `hmpsearch.coding`, `hmpsearch.dictionary`, `hmpsearch.images`,
`hmpsearch.encoder` and `hmpsearch.index` to them.
"""

import math
from bisect import insort

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from hmpsearch import Dictionary, FeatureGrid, l2_normalize, omp_encode_batch, vq_encode_batch
from hmpsearch.coding import PIVOT_STOP, RESIDUAL_STOP, _check_signals
from hmpsearch.dictionary import CODE_CHUNK, _random_unit, init_dictionary


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


def dense(slots, size: int) -> np.ndarray:
    """The N x `size` code matrix of the `(support, coef)` slots: each
    coefficient added onto zero at its atom, so a (0, 0.0) slot adds
    nothing, as `omp_exact` builds its codes."""
    support, coef = slots
    out = np.zeros((coef.shape[0], size))
    np.add.at(out, (np.arange(coef.shape[0])[:, None], support), coef)
    return out


def slots(codes, sparsity: int | None = None):
    """The canonical `(support, coef)` of dense code rows: each row's
    nonzeros by ascending atom, then (0, 0.0) slots, `sparsity` slots a row
    (by default as many as the fullest row needs). A -0.0 entry is no
    nonzero; a NaN is one."""
    codes = np.asarray(codes, dtype=np.float64)
    rows, atoms = np.nonzero(codes)
    width = int(np.bincount(rows, minlength=1).max()) if sparsity is None else sparsity
    support = np.zeros((codes.shape[0], width), dtype=np.intp)
    coef = np.zeros((codes.shape[0], width))
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    support[rows, slot], coef[rows, slot] = atoms, codes[rows, atoms]
    return support, coef


def omp_one(dictionary, signal, sparsity: int) -> np.ndarray:
    """Dense code of one signal: `omp_encode_batch` on a batch of one
    column, through `dense`."""
    batch = omp_encode_batch(dictionary, np.asarray(signal, dtype=float)[:, None], sparsity)
    return dense(batch, dictionary.size)[0]


def vq_one(dictionary, signal) -> int:
    """Nearest atom of one signal: `vq_encode_batch` on a batch of one column."""
    return int(vq_encode_batch(dictionary, np.asarray(signal, dtype=float)[:, None])[0])


def correlations(mat: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """N x K inner products of the rows of `mat` (N x D) with the atoms
    (columns of `atoms`, D x K), accumulated over the D signal rows in order
    so that a row's result never depends on the rest of the batch."""
    out = np.zeros((mat.shape[0], atoms.shape[1]))
    for d in range(mat.shape[1]):
        out += mat[:, d : d + 1] * atoms[d]
    return out


def vq_exact(dictionary, signals) -> np.ndarray:
    """Nearest atom per column of `signals` (D x N): the argmax over all K
    atoms of the elementwise `correlations` loop, ties toward the lowest
    index."""
    return np.argmax(correlations(_check_signals(dictionary, signals), dictionary.atoms), axis=1)


def _solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L x = rhs per row for lower-triangular L (N x t x t)."""
    x = np.empty_like(rhs)
    for i in range(rhs.shape[1]):
        x[:, i] = (rhs[:, i] - np.sum(chol[:, i, :i] * x[:, :i], axis=1)) / chol[:, i, i]
    return x


def _solve_upper(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L^T x = rhs per row for lower-triangular L (N x t x t)."""
    x = np.empty_like(rhs)
    for i in reversed(range(rhs.shape[1])):
        x[:, i] = (rhs[:, i] - np.sum(chol[:, i + 1 :, i] * x[:, i + 1 :], axis=1)) / chol[:, i, i]
    return x


def omp_exact(dictionary, signals: np.ndarray, sparsity: int) -> np.ndarray:
    """Batch-OMP over the columns of `signals` (D x N) with every
    correlation, Gram entry and residual taken elementwise: the full N x K
    correlations and the full K x K Gram matrix come from `correlations`,
    and each step recomputes the residual and the corrected correlations of
    every row still coding. Ties break toward the lowest atom index; a row
    stops on the same three tests as `omp_encode_batch`."""
    y = _check_signals(dictionary, signals)
    assert 1 <= sparsity <= min(dictionary.signal_dim, dictionary.size)
    n = y.shape[0]
    atoms_t = dictionary.atoms.T
    gram = correlations(atoms_t, dictionary.atoms)
    alpha = correlations(y, dictionary.atoms)
    # per signal: atoms in pick order, their coefficients (zero in unused
    # slots) and the Cholesky factor of the support's Gram matrix
    support = np.zeros((n, sparsity), dtype=np.intp)
    coef = np.zeros((n, sparsity))
    chol = np.zeros((n, sparsity, sparsity))
    rows = np.arange(n)  # signals still being coded; each holds t atoms
    for t in range(sparsity):
        sup, c = support[rows, :t], coef[rows, :t]
        residual, corr = y[rows], alpha[rows]
        for j in range(t):
            residual = residual - c[:, j : j + 1] * atoms_t[sup[:, j]]
            corr = corr - c[:, j : j + 1] * gram[sup[:, j]]
        res_norm = np.sqrt(np.sum(residual * residual, axis=1))
        mag = np.abs(corr)
        mag[np.arange(rows.size)[:, None], sup] = -1.0
        best = np.argmax(mag, axis=1)
        # stop once the residual is negligible or orthogonal to every
        # remaining atom
        go = (res_norm >= RESIDUAL_STOP) & (np.max(mag, axis=1) > 1e-12 * res_norm)
        # the new row of the Cholesky factor
        w = _solve_lower(chol[rows, :t, :t], gram[sup, best[:, None]])
        pivot = gram[best, best] - np.sum(w * w, axis=1)
        go &= pivot > PIVOT_STOP
        rows, best, w, pivot = rows[go], best[go], w[go], pivot[go]
        chol[rows, t, :t] = w
        chol[rows, t, t] = np.sqrt(pivot)
        support[rows, t] = best
        factor = chol[rows, : t + 1, : t + 1]
        z = _solve_lower(factor, alpha[rows[:, None], support[rows, : t + 1]])
        coef[rows, : t + 1] = _solve_upper(factor, z)
    codes = np.zeros((n, dictionary.size))
    # an unused slot adds zero to atom 0
    np.add.at(codes, (np.arange(n)[:, None], support), coef)
    return codes


def _code_pass(signals, atoms, codes, sparsity: int) -> None:
    """Greedy-code every signal, keeping the old code when it fits better."""
    dictionary = Dictionary(atoms)
    sparsity = min(sparsity, dictionary.signal_dim, dictionary.size)
    # fixed-size chunks bound the kernel's N x K work arrays; a code row
    # depends only on its own signal, whatever the chunk holds
    for lo in range(0, signals.shape[1], CODE_CHUNK):
        chunk = slice(lo, lo + CODE_CHUNK)
        new = dense(omp_encode_batch(dictionary, signals[:, chunk], sparsity), dictionary.size).T
        old_res = np.linalg.norm(signals[:, chunk] - atoms @ codes[:, chunk], axis=0)
        new_res = np.linalg.norm(signals[:, chunk] - atoms @ new, axis=0)
        better = new_res <= old_res
        codes[:, lo + np.flatnonzero(better)] = new[:, better]


def _worst_signal(signals, atoms, codes, skip: set[int]) -> int | None:
    residual_norms = np.linalg.norm(signals - atoms @ codes, axis=0)
    for idx in np.argsort(-residual_norms):
        i = int(idx)
        if i in skip:
            continue
        if np.linalg.norm(signals[:, i]) > 1e-12:
            return i
    return None


def _update_pass(signals, atoms, codes, rng) -> None:
    """Sequential atom updates; unused atoms take the worst-coded signal."""
    taken: set[int] = set()
    for k in range(atoms.shape[1]):
        users = np.nonzero(codes[k, :])[0]
        if users.size == 0:
            pick = _worst_signal(signals, atoms, codes, taken)
            if pick is None:
                atoms[:, k] = _random_unit(rng, atoms.shape[0])
            else:
                taken.add(pick)
                atoms[:, k] = signals[:, pick] / np.linalg.norm(signals[:, pick])
            continue
        restricted = (
            signals[:, users]
            - atoms @ codes[:, users]
            + np.outer(atoms[:, k], codes[k, users])
        )
        atom = np.linalg.svd(restricted, full_matrices=False)[0][:, 0]
        atoms[:, k] = atom
        codes[k, users] = atom @ restricted


def ksvd_dense(signals, layer, iterations: int, seed: int = 0) -> tuple[Dictionary, list[float]]:
    """`dictionary.train` with dense K x N codes and BLAS reconstructions
    `atoms @ codes`; returns the codebook and the objective trace."""
    rng = np.random.default_rng(seed)
    signals = np.asarray(signals, dtype=np.float64)
    atoms = np.array(init_dictionary(signals, layer.codebook_size, seed).atoms)
    codes = np.zeros((layer.codebook_size, signals.shape[1]))
    trace: list[float] = []
    for _ in range(iterations):
        _code_pass(signals, atoms, codes, layer.sparsity)
        _update_pass(signals, atoms, codes, rng)
        trace.append(float(np.linalg.norm(signals - atoms @ codes, "fro") ** 2))
    return Dictionary(atoms), trace


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
    unit = layer.unit_size
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


def to_dense(desc) -> np.ndarray:
    """The descriptor as a dense vector of its full length."""
    out = np.zeros(desc.length)
    out[desc.indices] = desc.values
    return out


class DictIndex:
    """Posting lists as `{dimension: [(image id, value), ...]}`, each list
    kept sorted by id."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.postings: dict[int, list[tuple[str, float]]] = {}
        self.ids: list[str] = []
        self.idf = None


def postings_of(idx) -> dict[int, list[tuple[str, float]]]:
    """The posting lists of an array `InvertedIndex` in the `DictIndex.postings` layout."""
    postings: dict[int, list[tuple[str, float]]] = {}
    dims = np.repeat(idx.rows[:-1], np.diff(idx.starts))
    for dim, doc, value in zip(dims.tolist(), idx.docs.tolist(), idx.values.tolist()):
        postings.setdefault(dim, []).append((idx.ids[doc], value))
    return postings


def dict_index_of(idx) -> DictIndex:
    """An array `InvertedIndex`, weighted or not, as a `DictIndex` with the
    same postings, ids and weights."""
    oracle = DictIndex(idx.dimension)
    oracle.postings, oracle.ids, oracle.idf = postings_of(idx), list(idx.ids), idx.idf
    return oracle


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
