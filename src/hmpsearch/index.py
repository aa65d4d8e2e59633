"""Inverted-file search over sparse descriptors.

The index is an immutable dimensions x documents sparse matrix stored by
dimension: row r is the posting list of dimension `dims[r]`, the document
ordinals `docs[indptr[r]:indptr[r + 1]]` (positions in `ids`) and their
`values`, ordered by image id. Only dimensions with postings have a row, as
in the index file. A query touches only the rows of its own nonzero
dimensions; because descriptors are unit vectors, its sums are cosines.
`exhaustive_scan` is the brute-force counterpart that scores every stored
document; on any corpus where each document shares at least one dimension
with the query the two return identical rankings.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

import numpy as np

from .encoder import ImageDescriptor
from .errors import DecodeError, DuplicateIdError, InvalidInputError

_INDEX_MAGIC = b"HMPI"
_INDEX_VERSION = 1
_POSTING_DTYPE = np.dtype([("doc", "<u4"), ("value", "<f8")])


class InvertedIndex:
    """Posting lists over a fixed descriptor dimension, as arrays."""

    def __init__(self, dimension: int, ids: list[str], entry_dims, docs, values, idf=None):
        """Store postings given as parallel (dimension, doc ordinal, value)
        arrays in any order; a document may appear once per dimension."""
        if dimension < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {dimension}")
        repeated = sorted(image_id for image_id, n in Counter(ids).items() if n > 1)
        if repeated:
            raise DuplicateIdError(f"image id(s) {repeated} listed more than once")
        self.dimension, self.ids, self.idf = int(dimension), ids, idf
        # position of each document in ascending id order, the tie rule of `query`
        self.id_rank = np.empty(len(ids), dtype=np.int64)
        self.id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        order = np.lexsort((self.id_rank[docs], entry_dims))
        entry_dims, self.docs, self.values = entry_dims[order], docs[order], values[order]
        if np.any((np.diff(entry_dims) == 0) & (np.diff(self.docs) == 0)):
            raise InvalidInputError("a posting list names a document twice")
        self.dims, counts = np.unique(entry_dims, return_counts=True)
        self.indptr = np.concatenate(([0], np.cumsum(counts)))

    @property
    def doc_count(self) -> int:
        return len(self.ids)


def build_index(dimension: int, descriptors) -> InvertedIndex:
    """Index descriptors of length `dimension`; every nonzero becomes one
    posting in its dimension's row."""
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
    if q.length != idx.dimension:
        raise InvalidInputError(
            f"query length {q.length} does not match index dimension {idx.dimension}"
        )
    indices, values = q.indices, q.values
    if idx.idf is not None:  # weight the query as the stored documents were
        values = values * idx.idf[indices]
        norm = np.linalg.norm(values)
        values = values if norm == 0.0 else values / norm
    # the rows of the query's dimensions in ascending order; no row, no range
    lo = idx.indptr[np.searchsorted(idx.dims, indices)]
    hi = idx.indptr[np.searchsorted(idx.dims, indices, side="right")]
    lengths = hi - lo
    take = np.arange(lengths.sum()) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
    docs = idx.docs[take]
    # bincount adds in input order from 0.0: each score sums by ascending dimension
    scores = np.bincount(
        docs, weights=idx.values[take] * np.repeat(values, lengths), minlength=idx.doc_count
    )
    candidates = np.flatnonzero(np.bincount(docs, minlength=idx.doc_count))
    order = candidates[np.lexsort((idx.id_rank[candidates], -scores[candidates]))]
    exclude = q.image_id if self_exclude else None
    ranked = [n for n in order.tolist() if idx.ids[n] != exclude]
    ranked = ranked[: None if top_k is None else max(int(top_k), 0)]
    return [(idx.ids[n], score) for n, score in zip(ranked, scores[ranked].tolist())]


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
    df = np.diff(idx.indptr)
    weights = np.zeros(idx.dimension)
    weights[idx.dims] = [math.log(idx.doc_count / count) for count in df.tolist()]
    entry_dims = np.repeat(idx.dims, df)
    scaled = idx.values * weights[entry_dims]
    # each document's squared norm, summed in ascending dimension order
    norms = np.sqrt(np.bincount(idx.docs, weights=scaled * scaled, minlength=idx.doc_count))
    keep = (weights[entry_dims] != 0.0) & (norms[idx.docs] > 0.0)
    docs = idx.docs[keep]
    return InvertedIndex(
        idx.dimension, idx.ids, entry_dims[keep], docs, scaled[keep] / norms[docs], weights
    )


def save_index(idx: InvertedIndex, path) -> None:
    """Write the index: magic, version, u32 dimension and doc count, an id
    table, one (dimension, length, entries) block per row, then an optional
    weight trailer."""
    entries = np.rec.fromarrays([idx.docs, idx.values], dtype=_POSTING_DTYPE)
    with open(path, "wb") as fh:
        fh.write(_INDEX_MAGIC)
        fh.write(struct.pack("<B", _INDEX_VERSION))
        fh.write(struct.pack("<II", idx.dimension, idx.doc_count))
        for image_id in idx.ids:
            encoded = image_id.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
        fh.write(struct.pack("<I", idx.dims.size))
        bounds = idx.indptr.tolist()
        for dim, lo, hi in zip(idx.dims.tolist(), bounds, bounds[1:]):
            fh.write(struct.pack("<II", dim, hi - lo))
            fh.write(entries[lo:hi].tobytes())
        fh.write(struct.pack("<B", idx.idf is not None))
        if idx.idf is not None:
            fh.write(np.asarray(idx.idf, dtype="<f8").tobytes())


def load_index(path) -> InvertedIndex:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DecodeError(f"cannot read index file {path}: {exc}") from exc
    if len(raw) < 13 or raw[:4] != _INDEX_MAGIC:
        raise DecodeError(f"{path} is not an index file (bad magic)")
    if raw[4] != _INDEX_VERSION:
        raise DecodeError(f"{path}: unsupported index version {raw[4]}")
    dimension, doc_count = struct.unpack_from("<II", raw, 5)
    pos = 13
    try:
        ids = []
        for _ in range(doc_count):
            (id_len,) = struct.unpack_from("<I", raw, pos)
            ids.append(raw[pos + 4 : pos + 4 + id_len].decode("utf-8"))
            pos += 4 + id_len
        (n_blocks,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        dims, blocks = [], [np.empty(0, dtype=_POSTING_DTYPE)]
        for _ in range(n_blocks):
            dim, n_entries = struct.unpack_from("<II", raw, pos)
            if dim >= dimension or (dims and dim <= dims[-1]):
                raise InvalidInputError(f"posting block for dimension {dim} is out of range or order")
            blocks.append(np.frombuffer(raw, dtype=_POSTING_DTYPE, count=n_entries, offset=pos + 8))
            dims.append(dim)
            pos += 8 + 12 * n_entries
        entries = np.concatenate(blocks)
        if np.any(entries["doc"] >= doc_count) or not np.all(np.isfinite(entries["value"])):
            raise InvalidInputError("a posting has a doc ordinal out of range or a non-finite value")
        (has_idf,) = struct.unpack_from("<B", raw, pos)
        pos += 1
        idf = None
        if has_idf:
            idf = np.frombuffer(raw, dtype="<f8", count=dimension, offset=pos).copy()
            pos += 8 * dimension
            if not np.all(np.isfinite(idf)):
                raise InvalidInputError("non-finite weights")
        if pos != len(raw):
            raise InvalidInputError(f"{len(raw) - pos} trailing bytes after the weight flag or weights")
        entry_dims = np.repeat(np.array(dims, dtype=np.int64), [len(b) for b in blocks[1:]])
        return InvertedIndex(
            dimension, ids, entry_dims, entries["doc"].astype(np.int64), entries["value"], idf
        )
    except (struct.error, ValueError) as exc:
        # ValueError covers bad UTF-8, blocks past the end and InvalidInputError
        raise DecodeError(f"{path}: truncated or corrupt index: {exc}") from exc
