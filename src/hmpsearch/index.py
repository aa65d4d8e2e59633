"""Inverted-file search over sparse descriptors.

The index is an immutable dimensions x documents sparse matrix in
compressed sparse row form. Documents are numbered in ascending id order;
`docs` and `values` hold the postings, one entry each, sorted by dimension
and then by document (`docs` are positions in `ids`). A row table names
each dimension's run of them: `rows`, the dimensions with postings, then
`dimension` as a sentinel, and `starts`, where each run begins, then the
posting count. Memory follows the postings, whatever dimension the index
claims, except that an IDF-weighted index keeps one weight per dimension.
From its first query an index about 3/8 dense or more also keeps a rows x
documents view of them, as 8 bytes a row and 9 a cell then take at most 24
a posting; the view scores a half-dense bag-of-features index three times
as fast as adding up its runs does. A query binary-searches `rows` for its
dimensions, then scores the view by `coding._products`, or a sparser index
by adding up the runs. Both sum each document's products from zero by
ascending dimension, a cell with no posting adding a zero that leaves the
sum as it is, so both give the same bits; as descriptors are unit vectors,
the sums are cosines. `exhaustive_scan` is the brute-force counterpart
that scores every stored document by the same sums, so it gives `query`'s
bits for every document that shares a dimension with the query, and 0 for
any other. An index file is an `HMPI` container of `hmpsearch.files` that
holds `rows`, the row lengths, `docs` and `values` as one run each.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_left

import numpy as np

from .coding import _products, l2_normalize
from .encoder import ImageDescriptor
from .errors import InvalidInputError
from .files import read_container, write_container

_INDEX_MAGIC = b"HMPI"
_INDEX_VERSION = 2


class InvertedIndex:
    """A dimensions x documents matrix in compressed sparse row form."""

    def __init__(self, dimension: int, ids: list[str], entry_dims, docs, values, idf=None):
        """Store postings given as parallel (dimension, position in `ids`,
        value) arrays in any order; a document may appear once per dimension."""
        if not 1 <= dimension < 2**32:  # the file's u32; bounds the sort key
            raise InvalidInputError(f"dimension must be in [1, 2**32), got {dimension}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.dimension, self.ids, self.idf = int(dimension), [ids[n] for n in order], idf
        repeated = sorted({a for a, b in zip(self.ids, self.ids[1:]) if a == b})
        if repeated:
            raise InvalidInputError(f"image id(s) {repeated} listed more than once")
        if np.any((entry_dims < 0) | (entry_dims >= dimension) | (docs < 0) | (docs >= len(ids))):
            raise InvalidInputError("a posting has a dimension or doc ordinal out of range")
        docs = np.argsort(order)[docs]  # the given ordinals, renumbered in id order
        # one uint64 key a posting, freed before the gathers; timsort passes once over keys in order
        order = np.argsort(entry_dims.astype(np.uint64) * len(ids) + docs.astype(np.uint64), kind="stable")
        dims, self.docs, self.values = entry_dims[order], docs[order], values[order]
        new = np.ones(dims.size, dtype=bool)  # where a dimension's postings begin
        np.not_equal(dims[1:], dims[:-1], out=new[1:])
        if np.any(~new[1:] & (self.docs[1:] == self.docs[:-1])):
            raise InvalidInputError("a posting list names a document twice")
        self.starts = np.append(np.flatnonzero(new), dims.size)
        self.rows = np.append(dims[self.starts[:-1]], self.dimension)

    @property
    def doc_count(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def _view(self):
        """`(values, present)`: rows x documents matrices of the posting values
        and of where they are, row r holding dimension `rows[r]`; None where
        they outweigh 24 bytes a posting, which no step of building exceeds."""
        shape = (self.rows.size - 1, self.doc_count)
        if shape[0] * (8 + 9 * shape[1]) > 24 * self.values.size:  # 8 a row, 9 a cell
            return None
        present = np.zeros(shape, dtype=bool)
        present[np.repeat(np.arange(shape[0]), np.diff(self.starts)), self.docs] = True
        values = np.zeros(shape)
        values[present] = self.values  # row-major order is the postings' order
        return values, present


def build_index(dimension: int, descriptors) -> InvertedIndex:
    """Index descriptors of length `dimension`; every nonzero becomes one
    posting in its dimension's list."""
    descriptors = list(descriptors)
    lengths = {desc.length for desc in descriptors} - {dimension}
    if lengths:
        raise InvalidInputError(
            f"descriptor lengths {sorted(lengths)} do not match index dimension {dimension}"
        )
    return InvertedIndex(
        dimension,
        [desc.image_id for desc in descriptors],
        np.concatenate([np.empty(0, np.int64)] + [desc.indices for desc in descriptors]),
        np.repeat(np.arange(len(descriptors)), [desc.nnz for desc in descriptors]),
        np.concatenate([np.empty(0)] + [desc.values for desc in descriptors]),
    )


def query(
    idx: InvertedIndex,
    q: ImageDescriptor,
    top_k: int | None = None,
    self_exclude: bool = False,
) -> list[tuple[str, float]]:
    """Rank candidates sharing at least one nonzero dimension with `q`.

    Scores are cosine similarities; ordering is by descending score with
    ties broken by ascending image id. With `self_exclude`, a stored
    document whose id equals the query's is dropped.
    """
    ranked, scores = _rank(idx, q, top_k, self_exclude)
    return [(idx.ids[n], score) for n, score in zip(ranked.tolist(), scores.tolist())]


def _rank(idx: InvertedIndex, q: ImageDescriptor, top_k, self_exclude: bool):
    """`query`'s ranking as positions in `idx.ids` and their scores."""
    if q.length != idx.dimension:
        raise InvalidInputError(
            f"query length {q.length} does not match index dimension {idx.dimension}"
        )
    indices, values = q.indices, q.values
    if idx.idf is not None:  # weight the query as the stored documents were
        values = l2_normalize(values * idx.idf[indices])
    at = np.searchsorted(idx.rows, indices)
    held = idx.rows[at] == indices
    at, values = at[held], values[held]
    if idx._view is not None:
        matrix, present = idx._view
        scores = _products(values[None], matrix[at])[0]
        candidates = np.flatnonzero(present[at].any(axis=0))
    else:
        lo = idx.starts[at]
        lengths = idx.starts[at + 1] - lo
        take = np.arange(lengths.sum()) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
        docs = idx.docs[take]
        # bincount adds in input order from 0.0: each score sums by ascending dimension
        scores = np.bincount(
            docs, weights=idx.values[take] * np.repeat(values, lengths), minlength=idx.doc_count
        )
        candidates = np.flatnonzero(np.bincount(docs, minlength=idx.doc_count))
    # ordinals ascend in id order, so a stable sort breaks score ties by id
    ranked = candidates[np.argsort(-scores[candidates], kind="stable")]
    n = bisect_left(idx.ids, q.image_id)
    if self_exclude and idx.ids[n : n + 1] == [q.image_id]:
        ranked = ranked[ranked != n]
    ranked = ranked[: None if top_k is None else max(int(top_k), 0)]
    return ranked, scores[ranked]


def exhaustive_scan(
    descriptors,
    q: ImageDescriptor,
    top_k: int | None = None,
    self_exclude: bool = False,
) -> list[tuple[str, float]]:
    """Brute-force oracle: every document's cosine, summed as `query` sums
    it, with the same ordering and tie rules. Documents sharing nothing score 0."""
    scores: dict[str, float] = {}
    for desc in descriptors:
        if desc.length != q.length:
            raise InvalidInputError(
                f"descriptor {desc.image_id!r} has length {desc.length}, query has {q.length}"
            )
        _, mine, theirs = np.intersect1d(q.indices, desc.indices, assume_unique=True, return_indices=True)
        products = np.concatenate(([0.0], q.values[mine] * desc.values[theirs]))
        scores[desc.image_id] = float(np.add.accumulate(products)[-1])
    items = [(i, s) for i, s in scores.items() if not (self_exclude and i == q.image_id)]
    items.sort(key=lambda entry: (-entry[1], entry[0]))
    return items[: None if top_k is None else max(int(top_k), 0)]


def apply_idf(idx: InvertedIndex) -> InvertedIndex:
    """Inverse-document-frequency weighting: w_i = ln(doc_count / df_i).

    Posting values are scaled by their dimension's weight and every stored
    document is renormalized to unit length so scores stay cosines; zero
    weighted entries (dimensions present in all documents) drop out. Query
    descriptors are reweighted the same way inside `query`.
    """
    if idx.doc_count < 1:
        raise InvalidInputError("cannot weight an empty index")
    if idx.idf is not None:
        raise InvalidInputError("the index is already IDF-weighted")
    weights = np.zeros(idx.dimension)
    weights[idx.rows[:-1]] = [math.log(idx.doc_count / df) for df in np.diff(idx.starts).tolist()]
    dims = np.repeat(idx.rows[:-1], np.diff(idx.starts))  # each posting's dimension
    scaled = idx.values * weights[dims]
    # each document's squared norm, summed in ascending dimension order
    norms = np.sqrt(np.bincount(idx.docs, weights=scaled * scaled, minlength=idx.doc_count))
    keep = (weights[dims] != 0.0) & (norms[idx.docs] > 0.0)
    docs = idx.docs[keep]
    return InvertedIndex(idx.dimension, idx.ids, dims[keep], docs, scaled[keep] / norms[docs], weights)


def save_index(idx: InvertedIndex, path) -> None:
    """Write the index as the matrix it holds: magic, version, u32
    dimension, doc count and row count, the id table in ascending id order,
    u32 `rows[:-1]`, u32 row lengths, u32 `docs`, f64 `values`, then the
    IDF flag and an optional weight trailer."""
    parts = [struct.pack("<III", idx.dimension, idx.doc_count, idx.rows.size - 1)]
    for image_id in idx.ids:
        encoded = image_id.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded]
    parts += [array.astype("<u4").tobytes() for array in (idx.rows[:-1], np.diff(idx.starts), idx.docs)]
    parts.append(idx.values.astype("<f8").tobytes())
    parts.append(struct.pack("<B", idx.idf is not None))
    if idx.idf is not None:
        parts.append(np.asarray(idx.idf, dtype="<f8").tobytes())
    write_container(path, "index file", _INDEX_MAGIC, _INDEX_VERSION, *parts)


def load_index(path) -> InvertedIndex:
    with read_container(path, "index file", _INDEX_MAGIC, _INDEX_VERSION) as body:
        dimension, doc_count, row_count = struct.unpack_from("<III", body)
        pos = 12
        ids = []
        for _ in range(doc_count):
            (id_len,) = struct.unpack_from("<I", body, pos)
            ids.append(body[pos + 4 : pos + 4 + id_len].decode("utf-8"))
            pos += 4 + id_len
        rows, lengths = np.frombuffer(body, dtype="<u4", count=2 * row_count, offset=pos).reshape(2, -1)
        pos += 8 * row_count
        if np.any(rows[1:] <= rows[:-1]):
            raise InvalidInputError("the row dimensions do not ascend")
        postings = int(lengths.sum())
        docs = np.frombuffer(body, dtype="<u4", count=postings, offset=pos)
        values = np.frombuffer(body, dtype="<f8", count=postings, offset=pos + 4 * postings)
        pos += 12 * postings
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("a posting has a non-finite value")
        (has_idf,) = struct.unpack_from("<B", body, pos)
        pos += 1
        idf = None
        if has_idf:
            idf = np.frombuffer(body, dtype="<f8", count=dimension, offset=pos).copy()
            pos += 8 * dimension
            # apply_idf writes ln(doc_count / df) with 1 <= df <= doc_count
            if not (doc_count and np.all((idf >= 0.0) & (idf <= math.log(doc_count)))):
                raise InvalidInputError(f"weights outside [0, ln {doc_count}], the range IDF weighting writes")
        if pos != len(body):
            raise InvalidInputError(f"{len(body) - pos} trailing bytes after the weight flag or weights")
        return InvertedIndex(dimension, ids, np.repeat(rows, lengths), docs, values, idf)
