"""Inverted-file tests: posting bookkeeping, oracle equality, persistence."""

import math
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmpsearch import (
    DecodeError,
    ImageDescriptor,
    InvalidInputError,
    InvertedIndex,
    apply_idf,
    build_index,
    exhaustive_scan,
    l2_normalize,
    load_index,
    query,
    save_index,
)
from oracles import postings_of, to_dense


def sparse_descriptor(image_id, length, pairs):
    idx, val = zip(*sorted(pairs))
    values = l2_normalize(np.array(val, dtype=float))
    return ImageDescriptor(image_id, length, np.array(idx), values)


def traced_peak(fn, *args):
    """`fn(*args)` and the peak memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_corpus(rng, count, length=32, nnz=10, prefix="doc"):
    """Random unit-norm sparse descriptors, all sharing dimension 0 so every
    document is a candidate for every query."""
    docs = []
    for n in range(count):
        dims = rng.choice(np.arange(1, length), size=nnz - 1, replace=False)
        dims = np.concatenate([[0], dims])
        vals = rng.standard_normal(nnz)
        vals[vals == 0.0] = 0.5
        docs.append(sparse_descriptor(f"{prefix}-{n:03d}", length, zip(dims, vals)))
    return docs


def indexed(docs):
    return build_index(docs[0].length, docs)


class TestIndexAdd:
    """Posting bookkeeping of `build_index`."""

    def test_three_nonzeros_make_three_postings(self):
        idx = build_index(8, [sparse_descriptor("a", 8, [(1, 1.0), (3, 2.0), (5, -1.0)])])
        assert sum(len(p) for p in postings_of(idx).values()) == 3
        assert sorted(postings_of(idx)) == [1, 3, 5]
        assert idx.doc_count == 1

    def test_total_postings_equal_total_nnz(self):
        rng = np.random.default_rng(0)
        docs = random_corpus(rng, 100)
        idx = indexed(docs)
        assert idx.docs.size == idx.values.size == sum(d.nnz for d in docs)
        assert idx.doc_count == 100

    def test_posting_lists_sorted_by_id(self):
        rng = np.random.default_rng(1)
        docs = random_corpus(rng, 30)
        rng.shuffle(docs)
        idx = indexed(docs)
        for plist in postings_of(idx).values():
            ids = [doc_id for doc_id, _ in plist]
            assert ids == sorted(ids)

    def test_duplicate_id_rejected(self):
        docs = [sparse_descriptor("a", 4, [(0, 1.0)]), sparse_descriptor("a", 4, [(1, 1.0)])]
        with pytest.raises(InvalidInputError, match=r"^image id\(s\) \['a'\] listed more than once$"):
            build_index(4, docs)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            build_index(4, [sparse_descriptor("a", 5, [(0, 1.0)])])

    @pytest.mark.parametrize(
        "dim, doc", [(4, 0), (-1, 0), (1, 2), (1, -1)], ids=["dim-4", "dim-neg", "doc-2", "doc-neg"]
    )
    def test_constructor_rejects_posting_out_of_range(self, dim, doc):
        with pytest.raises(InvalidInputError):
            InvertedIndex(4, ["a", "b"], np.array([dim]), np.array([doc]), np.array([1.0]))

    @pytest.mark.parametrize("dimension", [0, 2**32], ids=["zero", "past-u32"])
    def test_constructor_rejects_dimension_a_file_cannot_hold(self, dimension):
        empty = np.empty(0, np.int64)
        with pytest.raises(InvalidInputError, match="dimension"):
            InvertedIndex(dimension, [], empty, empty, np.empty(0))

    def test_build_weight_and_load_sort_without_lexsort(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(np, "lexsort", lambda *args, **kwargs: calls.append(args))
        docs = random_corpus(np.random.default_rng(4), 20)
        save_index(apply_idf(indexed(docs)), tmp_path / "idf.hmpi")
        assert postings_of(load_index(tmp_path / "idf.hmpi")) == postings_of(apply_idf(indexed(docs)))
        assert calls == []

    def test_descriptor_length_allocates_nothing(self):
        desc = ImageDescriptor("a", 2**32 - 1, np.array([2**32 - 2]), np.ones(1))
        idx, peak = traced_peak(build_index, 2**32 - 1, [desc])
        assert peak < 2**20
        assert postings_of(idx) == {2**32 - 2: [("a", 1.0)]}


@settings(max_examples=50, deadline=None)
@given(
    ids=st.lists(st.text("ab-_./", min_size=1, max_size=3), min_size=1, max_size=10, unique=True),
    data=st.data(),
)
def test_index_file_does_not_depend_on_descriptor_order(tmp_path_factory, ids, data):
    # "a" sorts before "a-b", but "a.hmpv" after "a-b.hmpv"
    rng = np.random.default_rng(len(ids))
    docs = [
        sparse_descriptor(image_id, 6, zip(rng.choice(6, 3, replace=False), rng.uniform(0.1, 1, 3)))
        for image_id in ids
    ]
    path = tmp_path_factory.mktemp("order") / "corpus.hmpi"
    files = []
    for order in (docs, data.draw(st.permutations(docs))):
        idx = build_index(6, order)
        assert idx.ids == sorted(ids)
        for weighted in (idx, apply_idf(idx)):
            save_index(weighted, path)
            files.append(path.read_bytes())
    assert files[:2] == files[2:]


class TestQuery:
    def test_indexed_descriptor_retrieves_itself_first(self):
        rng = np.random.default_rng(2)
        docs = random_corpus(rng, 25)
        idx = indexed(docs)
        hits = query(idx, docs[7], top_k=5)
        assert hits[0][0] == docs[7].image_id
        assert hits[0][1] == pytest.approx(1.0, abs=1e-9)
        assert all(hits[0][1] >= s for _, s in hits)

    def test_no_shared_dimension_gives_empty_result(self):
        idx = build_index(8, [sparse_descriptor("a", 8, [(0, 1.0), (1, 1.0)])])
        q = sparse_descriptor("q", 8, [(5, 1.0), (6, 1.0)])
        assert query(idx, q) == []

    def test_self_exclusion_drops_own_id(self):
        rng = np.random.default_rng(3)
        docs = random_corpus(rng, 10)
        idx = indexed(docs)
        hits = query(idx, docs[0], self_exclude=True)
        assert docs[0].image_id not in [doc_id for doc_id, _ in hits]
        assert query(idx, docs[0], top_k=3, self_exclude=True) == hits[:3]

    def test_dimension_mismatch_rejected(self):
        idx = build_index(8, [])
        with pytest.raises(InvalidInputError):
            query(idx, sparse_descriptor("q", 9, [(0, 1.0)]))

    def test_dimensions_past_the_last_row_match_nothing(self):
        idx = build_index(8, [sparse_descriptor("a", 8, [(0, 1.0), (2, 1.0)])])
        assert idx.rows.tolist() == [0, 2, 8]
        hits = query(idx, sparse_descriptor("q", 8, [(2, 1.0), (3, 1.0), (7, 1.0)]))
        assert hits == [("a", pytest.approx(0.5 / math.sqrt(1.5)))]

    def test_ties_break_by_ascending_id(self):
        # two identical documents tie exactly
        idx = build_index(4, [
            sparse_descriptor("zz", 4, [(0, 1.0), (1, 1.0)]),
            sparse_descriptor("aa", 4, [(0, 1.0), (1, 1.0)]),
        ])
        hits = query(idx, sparse_descriptor("q", 4, [(0, 1.0), (1, 1.0)]))
        assert [doc_id for doc_id, _ in hits] == ["aa", "zz"]

    def test_top_k_larger_than_corpus_returns_everything(self):
        rng = np.random.default_rng(4)
        docs = random_corpus(rng, 6)
        idx = indexed(docs)
        assert len(query(idx, docs[0], top_k=500)) == 6

    def test_scores_equal_full_cosine(self):
        rng = np.random.default_rng(5)
        docs = random_corpus(rng, 40)
        idx = indexed(docs)
        q = random_corpus(rng, 1, prefix="query")[0]
        dense_q = to_dense(q)
        for doc_id, score in query(idx, q):
            doc = next(d for d in docs if d.image_id == doc_id)
            npt.assert_allclose(score, float(dense_q @ to_dense(doc)), atol=1e-9)

    def test_score_bounds(self):
        rng = np.random.default_rng(6)
        docs = random_corpus(rng, 50)
        idx = indexed(docs)
        for q in random_corpus(rng, 5, prefix="query"):
            for _, score in query(idx, q):
                assert -1.0 - 1e-9 <= score <= 1.0 + 1e-9


class TestExhaustiveScan:
    def test_single_stored_descriptor(self):
        doc = sparse_descriptor("only", 8, [(1, 1.0), (2, 2.0)])
        hits = exhaustive_scan([doc], doc)
        assert hits[0][0] == "only"
        assert hits[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_store_scores_zero(self):
        docs = [
            sparse_descriptor("a", 8, [(0, 1.0)]),
            sparse_descriptor("b", 8, [(1, 1.0)]),
        ]
        q = sparse_descriptor("q", 8, [(5, 1.0)])
        hits = exhaustive_scan(docs, q)
        assert [s for _, s in hits] == [0.0, 0.0]
        assert [doc_id for doc_id, _ in hits] == ["a", "b"]

    def test_top_k_keeps_the_best(self):
        docs = [sparse_descriptor(f"d{n}", 8, [(n, 1.0), (7, 1.0 + n)]) for n in range(4)]
        q = sparse_descriptor("q", 8, [(7, 1.0)])
        assert exhaustive_scan(docs, q, top_k=2) == exhaustive_scan(docs, q)[:2]
        assert [doc_id for doc_id, _ in exhaustive_scan(docs, q, top_k=2)] == ["d3", "d2"]

    def test_descriptor_of_another_length_rejected(self):
        docs = [sparse_descriptor("a", 8, [(1, 1.0)]), sparse_descriptor("b", 16, [(1, 1.0)])]
        with pytest.raises(InvalidInputError, match="'b' has length 16, query has 8"):
            exhaustive_scan(docs, sparse_descriptor("q", 8, [(1, 1.0)]))

    def test_claimed_length_allocates_nothing(self):
        doc = ImageDescriptor("a", 2**32 - 1, np.array([5, 2**32 - 2]), np.full(2, math.sqrt(0.5)))
        q = ImageDescriptor("q", 2**32 - 1, np.array([2**32 - 2]), np.ones(1))
        hits, peak = traced_peak(exhaustive_scan, [doc], q)
        assert peak < 2**20
        assert hits == [("a", math.sqrt(0.5))]

    def test_matches_query_on_random_corpora(self):
        rng = np.random.default_rng(7)
        docs = random_corpus(rng, 200)
        idx = indexed(docs)
        for q in random_corpus(rng, 20, prefix="query"):
            via_index = query(idx, q)
            via_scan = exhaustive_scan(docs, q)
            assert [d for d, _ in via_index] == [d for d, _ in via_scan]
            npt.assert_allclose(
                [s for _, s in via_index], [s for _, s in via_scan], atol=1e-9
            )

    def test_general_corpus_query_equals_scan_on_candidates(self):
        # without a forced shared dimension the scan also lists zero-score
        # documents; the inverted file must agree on the candidate set
        rng = np.random.default_rng(8)
        docs = []
        for n in range(60):
            dims = rng.choice(16, size=3, replace=False)
            docs.append(sparse_descriptor(f"d{n:02d}", 16, zip(dims, rng.standard_normal(3))))
        idx = indexed(docs)
        for n in range(10):
            dims = rng.choice(16, size=3, replace=False)
            q = sparse_descriptor(f"q{n}", 16, zip(dims, rng.standard_normal(3)))
            q_dims = set(q.indices.tolist())
            candidates = {
                d.image_id for d in docs if q_dims & set(d.indices.tolist())
            }
            via_index = query(idx, q)
            assert {d for d, _ in via_index} == candidates
            scan = {d: s for d, s in exhaustive_scan(docs, q)}
            for doc_id, score in via_index:
                npt.assert_allclose(score, scan[doc_id], atol=1e-9)


class TestApplyIdf:
    def three_doc_index(self):
        return build_index(3, [
            sparse_descriptor("a", 3, [(0, 1.0), (1, 1.0), (2, 1.0)]),
            sparse_descriptor("b", 3, [(1, 1.0), (2, 1.0)]),
            sparse_descriptor("c", 3, [(2, 1.0)]),
        ])

    def test_weights_follow_log_formula(self):
        weighted = apply_idf(self.three_doc_index())
        npt.assert_allclose(
            weighted.idf, [math.log(3.0), math.log(1.5), 0.0], atol=1e-12
        )

    def test_ubiquitous_dimension_drops_out(self):
        weighted = apply_idf(self.three_doc_index())
        assert 2 not in postings_of(weighted)

    def test_documents_renormalized(self):
        weighted = apply_idf(self.three_doc_index())
        norms = {}
        for plist in postings_of(weighted).values():
            for doc_id, value in plist:
                norms[doc_id] = norms.get(doc_id, 0.0) + value * value
        for doc_id, sq in norms.items():
            npt.assert_allclose(math.sqrt(sq), 1.0, atol=1e-9)

    def test_document_with_underflowing_weighted_norm_drops_out(self):
        # "b" keeps only a value whose weighted square underflows to zero
        tiny = ImageDescriptor("b", 2, np.array([0, 1]), np.array([1.0, 1e-170]))
        weighted = apply_idf(build_index(2, [sparse_descriptor("a", 2, [(0, 1.0)]), tiny]))
        assert postings_of(weighted) == {}
        assert np.all(np.isfinite(weighted.values))

    def test_weighted_scores_stay_cosines(self):
        weighted = apply_idf(self.three_doc_index())
        q = sparse_descriptor("q", 3, [(0, 1.0), (1, 1.0)])
        for _, score in query(weighted, q):
            assert -1.0 - 1e-9 <= score <= 1.0 + 1e-9

    def test_empty_index_rejected(self):
        with pytest.raises(InvalidInputError):
            apply_idf(build_index(4, []))

    def test_second_weighting_rejected(self):
        # the documents would be weighted twice and queries once
        with pytest.raises(InvalidInputError):
            apply_idf(apply_idf(self.three_doc_index()))


class TestPersistence:
    def test_round_trip_preserves_query_results_bitwise(self, tmp_path):
        rng = np.random.default_rng(9)
        docs = random_corpus(rng, 80)
        idx = indexed(docs)
        queries = random_corpus(rng, 8, prefix="query")
        before = [query(idx, q, top_k=20) for q in queries]
        path = tmp_path / "corpus.hmpi"
        save_index(idx, path)
        loaded = load_index(path)
        after = [query(loaded, q, top_k=20) for q in queries]
        assert before == after

    def test_round_trip_preserves_idf(self, tmp_path):
        rng = np.random.default_rng(10)
        docs = random_corpus(rng, 30)
        idx = apply_idf(indexed(docs))
        path = tmp_path / "weighted.hmpi"
        save_index(idx, path)
        loaded = load_index(path)
        npt.assert_array_equal(loaded.idf, idx.idf)
        q = random_corpus(rng, 1, prefix="query")[0]
        assert query(loaded, q) == query(idx, q)

    def test_header_layout(self, tmp_path):
        idx = build_index(6, [sparse_descriptor("ab", 6, [(2, 1.0)])])
        path = tmp_path / "tiny.hmpi"
        save_index(idx, path)
        raw = path.read_bytes()
        assert raw[:4] == b"HMPI"
        assert raw[4] == 2
        assert struct.unpack_from("<III", raw, 5) == (6, 1, 1)  # dimension, doc count, row count
        assert int.from_bytes(raw[17:21], "little") == 2  # id length
        assert raw[21:23] == b"ab"
        # rows, row lengths, docs, values, then no weights
        assert struct.unpack("<IIId", raw[23:-1]) == (2, 1, 0, 1.0) and raw[-1] == 0

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.hmpi"
        path.write_bytes(b"HMPI" + bytes([2]) + b"\x01\x00\x00\x00\x05\x00\x00\x00")
        from hmpsearch import DecodeError

        with pytest.raises(DecodeError):
            load_index(path)


def index_bytes(dimension, ids, blocks, idf=None):
    """An index file: `blocks` maps a dimension to (doc ordinal, value) pairs,
    as a dict or as a list of (dimension, pairs) in file order, written as
    the rows, their lengths, the ordinals and the values; ids may be given
    as raw bytes."""
    rows = list(blocks.items()) if isinstance(blocks, dict) else blocks
    out = b"HMPI\x02" + struct.pack("<III", dimension, len(ids), len(rows))
    for image_id in ids:
        raw = image_id if isinstance(image_id, bytes) else image_id.encode()
        out += struct.pack("<I", len(raw)) + raw
    postings = [entry for _, entries in rows for entry in entries]
    out += struct.pack(f"<{len(rows)}I", *(dim for dim, _ in rows))
    out += struct.pack(f"<{len(rows)}I", *(len(entries) for _, entries in rows))
    out += struct.pack(f"<{len(postings)}I", *(doc for doc, _ in postings))
    out += struct.pack(f"<{len(postings)}d", *(value for _, value in postings))
    if idf is None:
        return out + b"\x00"
    return out + b"\x01" + np.asarray(idf, dtype="<f8").tobytes()


class TestMalformedIndexFile:
    def test_hand_built_file_loads(self, tmp_path):
        path = tmp_path / "ok.hmpi"
        path.write_bytes(index_bytes(4, ["a", "b"], {1: [(0, 0.6), (1, 0.8)]}, idf=[0.0, math.log(2.0), 0, 0]))
        idx = load_index(path)
        assert idx.ids == ["a", "b"]
        assert postings_of(idx) == {1: [("a", 0.6), ("b", 0.8)]}

    def test_file_with_unsorted_id_table_loads_in_id_order(self, tmp_path):
        # files written before documents were numbered in id order
        path = tmp_path / "old.hmpi"
        path.write_bytes(index_bytes(4, ["b", "a"], {1: [(0, 0.6), (1, 0.8)], 3: [(0, 1.0)]}))
        idx = load_index(path)
        assert idx.ids == ["a", "b"]
        assert postings_of(idx) == {1: [("a", 0.8), ("b", 0.6)], 3: [("b", 1.0)]}

    def test_claimed_dimension_allocates_nothing(self, tmp_path):
        # 18 bytes claiming 2^32 - 1 dimensions: memory follows the postings
        path = tmp_path / "wide.hmpi"
        path.write_bytes(index_bytes(2**32 - 1, [], {}))
        assert len(path.read_bytes()) == 18
        idx = load_index(path)
        assert (idx.dimension, idx.values.size) == (2**32 - 1, 0)
        assert query(idx, ImageDescriptor("q", 2**32 - 1, np.array([2**32 - 2]), np.ones(1))) == []
        path.write_bytes(index_bytes(2**32 - 1, ["a"], {2**32 - 2: [(0, 1.0)]}))
        assert len(path.read_bytes()) == 43
        idx, peak = traced_peak(load_index, path)
        assert peak < 2**20
        assert postings_of(idx) == {2**32 - 2: [("a", 1.0)]}
        q = ImageDescriptor("q", 2**32 - 1, np.array([3, 2**32 - 2]), np.full(2, math.sqrt(0.5)))
        assert query(idx, q) == [("a", math.sqrt(0.5))]

    @pytest.mark.parametrize(
        "raw",
        [
            index_bytes(4, ["a"], {1: [(0, 1.0)]})[:-5],
            index_bytes(4, ["a"], {1: [(0, 1.0)]}, idf=[1.0, 1.0, 1.0, 1.0])[:-8],
            index_bytes(0, ["a"], {}),
            index_bytes(4, ["a"], {1: [(0, 1.0)]}) + b"\x00\x00",
            index_bytes(4, ["a"], {4: [(0, 1.0)]}),
            index_bytes(4, ["a"], {1: [(0, float("nan"))]}),
            index_bytes(4, ["a"], {1: [(1, 1.0)]}),
            index_bytes(4, ["a", "a"], {}),
            index_bytes(4, ["a"], {}, idf=[1.0, float("inf"), 1.0, 1.0]),
            index_bytes(4, ["a", "b"], {1: [(0, 1.0)]}, idf=[0.0, 1e200, 0.0, 0.0]),
            index_bytes(4, ["a", "b"], {1: [(0, 1.0)]}, idf=[0.0, -3.0, 0.0, 0.0]),
            index_bytes(4, [], {}, idf=[0.0, 0.0, 0.0, 0.0]),
            index_bytes(4, [b"\xff"], {}),
            index_bytes(4, ["a", "b"], {1: [(0, 0.6), (0, 0.8)]}),
            index_bytes(4, ["a"], [(2, [(0, 0.6)]), (1, [(0, 0.8)])]),
            index_bytes(4, ["a", "b"], [(1, [(0, 0.6)]), (1, [(1, 0.8)])]),
            # row 1 claims 5 postings where the body holds 1
            b"HMPI\x02" + struct.pack("<IIII1sIIIdB", 4, 1, 1, 1, b"a", 1, 5, 0, 1.0, 0),
            b"HMPI\x02" + struct.pack("<IIII1sB", 4, 1, 0, 100, b"a", 0),
            b"HMPI\x02" + struct.pack("<IIIB", 4, 0, 2**32 - 1, 0),
        ],
        ids=[
            "block-past-end",
            "weights-past-end",
            "zero-dimension",
            "trailing-bytes",
            "dimension-out-of-range",
            "nan-value",
            "ordinal-out-of-range",
            "duplicate-id",
            "infinite-weight",
            "huge-weight",
            "negative-weight",
            "weights-without-documents",
            "id-not-utf8",
            "ordinal-repeated-in-block",
            "dimensions-descending",
            "dimension-repeated",
            "lengths-past-end",
            "id-length-past-end",
            "row-count-past-end",
        ],
    )
    def test_rejected_with_path(self, tmp_path, raw):
        path = tmp_path / "bad.hmpi"
        path.write_bytes(raw)

        def rejected():
            with pytest.raises(DecodeError, match="bad.hmpi"):
                load_index(path)

        # a count the body cannot hold fails before anything is allocated
        assert traced_peak(rejected)[1] < 2**20

