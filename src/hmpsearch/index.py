"""Inverted-file search over sparse descriptors.

The index is an immutable dimensions x documents sparse matrix held as its
postings: parallel `dims`, `docs` and `values` arrays, one entry per
posting, sorted by dimension and then by document. Documents are numbered
in ascending id order (`docs` are positions in `ids`), so the posting list
of dimension d is the run of entries where `dims == d`. Memory follows the
postings, whatever dimension the index claims; from its first query an
index about 3/8 dense or more also keeps a rows x documents view of them,
as 8 bytes a row and 9 a cell then take at most the 24 of a posting. A
query scores the view by `coding._products`, and a sparser index by adding
up the runs of its dimensions, found by binary search. Both sum each
document's products from zero by ascending dimension, a cell with no
posting adding a zero that leaves the sum as it is, so both give the same
bits; as descriptors are unit vectors, the sums are cosines.
`exhaustive_scan` is the brute-force counterpart that scores every stored
document; on any corpus where each document shares at least one dimension
with the query the two return identical rankings. An index file is an
`HMPI` container of `hmpsearch.files`.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_left

import numpy as np

from .coding import _products, l2_normalize
from .encoder import ImageDescriptor
from .errors import DuplicateIdError, InvalidInputError
from .files import read_container, write_container

_INDEX_MAGIC = b"HMPI"
_INDEX_VERSION = 1
_POSTING_DTYPE = np.dtype([("doc", "<u4"), ("value", "<f8")])


class InvertedIndex:
    """Posting lists over a fixed descriptor dimension, as arrays."""

    def __init__(self, dimension: int, ids: list[str], entry_dims, docs, values, idf=None):
        """Store postings given as parallel (dimension, position in `ids`,
        value) arrays in any order; a document may appear once per dimension."""
        if dimension < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {dimension}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.dimension, self.ids, self.idf = int(dimension), [ids[n] for n in order], idf
        repeated = sorted({a for a, b in zip(self.ids, self.ids[1:]) if a == b})
        if repeated:
            raise DuplicateIdError(f"image id(s) {repeated} listed more than once")
        if np.any((entry_dims < 0) | (entry_dims >= dimension) | (docs < 0) | (docs >= len(ids))):
            raise InvalidInputError("a posting has a dimension or doc ordinal out of range")
        docs = np.argsort(order)[docs]  # the given ordinals, renumbered in id order
        order = np.lexsort((docs, entry_dims))
        self.dims, self.docs, self.values = entry_dims[order], docs[order], values[order]
        if np.any((np.diff(self.dims) == 0) & (np.diff(self.docs) == 0)):
            raise InvalidInputError("a posting list names a document twice")

    @property
    def doc_count(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def _view(self):
        """`(rows, values, present)`: the dimensions with postings and a
        sentinel, then rows x documents matrices of the posting values and of
        where postings are; None where they would outweigh the postings,
        whose bytes no step of building them exceeds."""
        new = np.diff(self.dims, prepend=-1) != 0  # np.unique would import numpy.ma
        rows = np.append(self.dims[new], self.dimension)
        postings = self.dims.nbytes + self.docs.nbytes + self.values.nbytes
        if (rows.size - 1) * (8 + 9 * self.doc_count) > postings:  # 8 a row, 9 a cell
            return None
        present = np.zeros((rows.size - 1, self.doc_count), dtype=bool)
        present[np.cumsum(new) - 1, self.docs] = True
        del new
        values = np.zeros(present.shape)
        values[present] = self.values  # row-major order is the postings' order
        return rows, values, present


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


def _ranked(scores: dict[str, float], top_k, exclude: str | None):
    items = [(i, s) for i, s in scores.items() if i != exclude]
    items.sort(key=lambda entry: (-entry[1], entry[0]))
    if top_k is not None:
        items = items[: max(int(top_k), 0)]
    return items


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
    if idx._view is not None:
        rows, matrix, present = idx._view
        at = np.searchsorted(rows, indices)
        held = rows[at] == indices
        scores = _products(values[held][None], matrix[at[held]])[0]
        candidates = np.flatnonzero(present[at[held]].any(axis=0))
    else:
        lo, hi = np.searchsorted(idx.dims, indices), np.searchsorted(idx.dims, indices, side="right")
        lengths = hi - lo
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
    """Brute-force oracle: exact cosine against every document, same ordering
    and tie rules as `query`. Documents sharing nothing score 0."""
    q_dense = np.zeros(q.length)
    q_dense[q.indices] = q.values
    scores: dict[str, float] = {}
    for desc in descriptors:
        if desc.length != q.length:
            raise InvalidInputError(
                f"descriptor {desc.image_id!r} has length {desc.length}, query has {q.length}"
            )
        scores[desc.image_id] = float(q_dense[desc.indices] @ desc.values)
    return _ranked(scores, top_k, q.image_id if self_exclude else None)


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
    rows, df = np.unique(idx.dims, return_counts=True)
    weights = np.zeros(idx.dimension)
    weights[rows] = [math.log(idx.doc_count / count) for count in df.tolist()]
    scaled = idx.values * weights[idx.dims]
    # each document's squared norm, summed in ascending dimension order
    norms = np.sqrt(np.bincount(idx.docs, weights=scaled * scaled, minlength=idx.doc_count))
    keep = (weights[idx.dims] != 0.0) & (norms[idx.docs] > 0.0)
    docs = idx.docs[keep]
    return InvertedIndex(
        idx.dimension, idx.ids, idx.dims[keep], docs, scaled[keep] / norms[docs], weights
    )


def save_index(idx: InvertedIndex, path) -> None:
    """Write the index: magic, version, u32 dimension and doc count, the id
    table in ascending id order, one (dimension, length, entries) block per
    dimension that has postings, then an optional weight trailer."""
    entries = np.rec.fromarrays([idx.docs, idx.values], dtype=_POSTING_DTYPE)
    parts = [struct.pack("<II", idx.dimension, idx.doc_count)]
    for image_id in idx.ids:
        encoded = image_id.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded]
    rows, starts = np.unique(idx.dims, return_index=True)
    bounds = starts.tolist() + [len(idx.dims)]
    parts.append(struct.pack("<I", len(rows)))
    for dim, lo, hi in zip(rows.tolist(), bounds, bounds[1:]):
        parts += [struct.pack("<II", dim, hi - lo), entries[lo:hi].tobytes()]
    parts.append(struct.pack("<B", idx.idf is not None))
    if idx.idf is not None:
        parts.append(np.asarray(idx.idf, dtype="<f8").tobytes())
    write_container(path, "index file", _INDEX_MAGIC, _INDEX_VERSION, *parts)


def load_index(path) -> InvertedIndex:
    with read_container(path, "index file", _INDEX_MAGIC, _INDEX_VERSION) as body:
        dimension, doc_count = struct.unpack_from("<II", body)
        pos = 8
        ids = []
        for _ in range(doc_count):
            (id_len,) = struct.unpack_from("<I", body, pos)
            ids.append(body[pos + 4 : pos + 4 + id_len].decode("utf-8"))
            pos += 4 + id_len
        (n_blocks,) = struct.unpack_from("<I", body, pos)
        pos += 4
        dims, blocks = [], [np.empty(0, dtype=_POSTING_DTYPE)]
        for _ in range(n_blocks):
            dim, n_entries = struct.unpack_from("<II", body, pos)
            if dims and dim <= dims[-1]:
                raise InvalidInputError(f"posting block for dimension {dim} is out of order")
            blocks.append(np.frombuffer(body, dtype=_POSTING_DTYPE, count=n_entries, offset=pos + 8))
            dims.append(dim)
            pos += 8 + 12 * n_entries
        entries = np.concatenate(blocks)
        if not np.all(np.isfinite(entries["value"])):
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
        entry_dims = np.repeat(np.array(dims, dtype=np.int64), [len(b) for b in blocks[1:]])
        return InvertedIndex(
            dimension, ids, entry_dims, entries["doc"].astype(np.int64), entries["value"], idf
        )
