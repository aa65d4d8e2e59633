"""Inverted-file search over sparse descriptors.

Posting lists map descriptor dimensions to the documents with a nonzero
value there, so a query touches only the lists of its own nonzero
dimensions. Because descriptors are unit vectors, accumulated dot products
are cosine similarities. `exhaustive_scan` is the brute-force counterpart
that scores every stored document; on any corpus where each document shares
at least one dimension with the query the two return identical rankings.

Building is single-writer; `freeze()` makes the index immutable, after which
concurrent queries are safe.
"""

from __future__ import annotations

import math
import struct
from bisect import insort

import numpy as np

from .encoder import ImageDescriptor
from .errors import DecodeError, DuplicateIdError, InvalidInputError

_INDEX_MAGIC = b"HMPI"
_INDEX_VERSION = 1
_POSTING_DTYPE = np.dtype([("doc", "<u4"), ("value", "<f8")])


class InvertedIndex:
    """Posting lists over a fixed descriptor dimension."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.postings: dict[int, list[tuple[str, float]]] = {}
        self.ids: list[str] = []
        self._id_set: set[str] = set()
        self.idf: np.ndarray | None = None
        self.frozen = False

    @property
    def doc_count(self) -> int:
        return len(self.ids)

    def freeze(self) -> "InvertedIndex":
        self.frozen = True
        return self

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._id_set


def index_add(idx: InvertedIndex, desc: ImageDescriptor) -> InvertedIndex:
    """Add one descriptor; every nonzero lands in its dimension's posting list."""
    if idx.frozen:
        raise InvalidInputError("index is frozen; no further additions allowed")
    if desc.length != idx.dimension:
        raise InvalidInputError(
            f"descriptor length {desc.length} does not match index dimension {idx.dimension}"
        )
    if desc.image_id in idx:
        raise DuplicateIdError(f"image id {desc.image_id!r} is already indexed")
    for i, v in zip(desc.indices, desc.values):
        insort(idx.postings.setdefault(int(i), []), (desc.image_id, float(v)))
    idx.ids.append(desc.image_id)
    idx._id_set.add(desc.image_id)
    return idx


def _weighted_query(idx: InvertedIndex, desc: ImageDescriptor):
    """Query-side values after any index weighting, renormalized."""
    values = desc.values
    if idx.idf is not None:
        values = values * idx.idf[desc.indices]
        norm = np.linalg.norm(values)
        if norm == 0.0:
            return desc.indices, values
        values = values / norm
    return desc.indices, values


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
    indices, values = _weighted_query(idx, q)
    scores: dict[str, float] = {}
    for i, v in zip(indices, values):
        for doc_id, stored in idx.postings.get(int(i), ()):
            scores[doc_id] = scores.get(doc_id, 0.0) + stored * float(v)
    return _ranked(scores, top_k, q.image_id if self_exclude else None)


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
    weights = np.zeros(idx.dimension)
    for dim, plist in idx.postings.items():
        weights[dim] = math.log(idx.doc_count / len(plist))
    norms: dict[str, float] = {}
    for dim, plist in idx.postings.items():
        w = weights[dim]
        for doc_id, value in plist:
            norms[doc_id] = norms.get(doc_id, 0.0) + (value * w) ** 2
    out = InvertedIndex(idx.dimension)
    out.ids = list(idx.ids)
    out._id_set = set(idx._id_set)
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


def save_index(idx: InvertedIndex, path) -> None:
    """Write the index: magic, version, u32 dimension and doc count, an id
    table, per-dimension posting blocks, then an optional weight trailer."""
    ordinal = {image_id: n for n, image_id in enumerate(idx.ids)}
    with open(path, "wb") as fh:
        fh.write(_INDEX_MAGIC)
        fh.write(struct.pack("<B", _INDEX_VERSION))
        fh.write(struct.pack("<II", idx.dimension, idx.doc_count))
        for image_id in idx.ids:
            encoded = image_id.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
        fh.write(struct.pack("<I", len(idx.postings)))
        for dim in sorted(idx.postings):
            plist = idx.postings[dim]
            fh.write(struct.pack("<II", dim, len(plist)))
            block = np.empty(len(plist), dtype=_POSTING_DTYPE)
            block["doc"] = [ordinal[doc_id] for doc_id, _ in plist]
            block["value"] = [value for _, value in plist]
            fh.write(block.tobytes())
        if idx.idf is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
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
        idx = InvertedIndex(dimension)
        for _ in range(doc_count):
            (id_len,) = struct.unpack_from("<I", raw, pos)
            idx.ids.append(raw[pos + 4 : pos + 4 + id_len].decode("utf-8"))
            pos += 4 + id_len
        idx._id_set = set(idx.ids)
        if len(idx._id_set) != doc_count:
            raise InvalidInputError("the id table lists an id twice")
        (n_blocks,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        for _ in range(n_blocks):
            dim, n_entries = struct.unpack_from("<II", raw, pos)
            block = np.frombuffer(raw, dtype=_POSTING_DTYPE, count=n_entries, offset=pos + 8)
            pos += 8 + 12 * n_entries
            if dim >= dimension or dim in idx.postings or not np.all(np.isfinite(block["value"])):
                raise InvalidInputError(f"bad posting block for dimension {dim}")
            idx.postings[dim] = [(idx.ids[doc], float(value)) for doc, value in block]
        (has_idf,) = struct.unpack_from("<B", raw, pos)
        pos += 1
        if has_idf:
            idx.idf = np.frombuffer(raw, dtype="<f8", count=dimension, offset=pos).copy()
            pos += 8 * dimension
            if not np.all(np.isfinite(idx.idf)):
                raise InvalidInputError("non-finite weights")
        if pos != len(raw):
            raise InvalidInputError(f"{len(raw) - pos} trailing bytes after the weight flag or weights")
    except (struct.error, IndexError, ValueError) as exc:
        # ValueError covers bad UTF-8, blocks past the end and InvalidInputError
        raise DecodeError(f"{path}: truncated or corrupt index: {exc}") from exc
    return idx
