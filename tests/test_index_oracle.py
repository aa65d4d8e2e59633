"""The array inverted file against the dict-of-posting-lists oracle in `oracles`.

Corpora have ids in random order, exact duplicate documents (tied scores),
documents with no nonzeros, and queries on dimensions no document has.
Without IDF the two agree bit for bit; IDF renormalizes documents with a
sum in another order, so scores there agree within 1e-12, and bit for bit
against an oracle holding the weighted postings. `query` scores an index
about 3/8 dense or more on its dense view through `index._products`, and a sparser
one by `bincount` over its postings; `_view` set to None sends an index down
the `bincount` path instead, and both paths must give the oracle's bits.
The row table, which both paths, IDF weighting and the index file read,
must name the oracle's posting lists, and beside it an index holds only
`docs` and `values`, one entry a posting, and an IDF index its weights.
`exhaustive_scan` sums as `query` does and must give its bits.
"""

import copy
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from hmpsearch import (
    ImageDescriptor,
    InvertedIndex,
    apply_idf,
    build_index,
    coding,
    exhaustive_scan,
    l2_normalize,
    load_index,
    query,
    save_index,
)
import oracles
from oracles import postings_of
from test_index import index_bytes

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def random_descriptor(rng, image_id, dimension):
    nnz = int(rng.integers(0, min(dimension, 4) + 1))
    dims = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.standard_normal(nnz)
    values[values == 0.0] = 0.5
    return ImageDescriptor(image_id, dimension, dims, l2_normalize(values))


@st.composite
def corpora(draw, max_dimension=12):
    """(dimension, documents, queries); a third of the documents copy an
    earlier one, and the first query and about half of the others are
    stored documents."""
    dimension = draw(st.integers(1, max_dimension))
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=10, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    docs = []
    for image_id in ids:
        if docs and rng.uniform() < 0.3:
            twin = docs[rng.integers(len(docs))]
            docs.append(ImageDescriptor(image_id, dimension, twin.indices, twin.values))
        else:
            docs.append(random_descriptor(rng, image_id, dimension))
    queries = [docs[rng.integers(len(docs))]] + [
        docs[n] if n < len(docs) else random_descriptor(rng, f"query-{n}", dimension)
        for n in rng.permutation(2 * len(docs))[:3]
    ]
    return dimension, docs, queries


def dict_index(dimension, docs):
    idx = oracles.DictIndex(dimension)
    for doc in docs:
        oracles.index_add(idx, doc)
    return idx


def score_bits(ranked):
    return np.array([s for _, s in ranked], dtype=np.float64).view(np.int64).tolist()


@SETTINGS
@given(
    corpus=corpora(),
    top_k=st.one_of(st.none(), st.integers(0, 5)),
    self_exclude=st.booleans(),
)
def test_query_matches_oracle_bitwise(corpus, top_k, self_exclude):
    dimension, docs, queries = corpus
    idx = build_index(dimension, docs)
    oracle = dict_index(dimension, docs)
    assert postings_of(idx) == oracle.postings
    for q in queries:
        got = query(idx, q, top_k, self_exclude)
        want = oracles.index_query(oracle, q, top_k, self_exclude)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert score_bits(got) == score_bits(want)


@SETTINGS
@given(corpus=corpora(), self_exclude=st.booleans())
def test_idf_query_matches_oracle(corpus, self_exclude):
    dimension, docs, queries = corpus
    idx = apply_idf(build_index(dimension, docs))
    oracle = oracles.index_apply_idf(dict_index(dimension, docs))
    assert idx.idf.tolist() == oracle.idf.tolist()
    assert sorted(postings_of(idx)) == sorted(oracle.postings)
    for q in queries:
        got = dict(query(idx, q, None, self_exclude))
        want = dict(oracles.index_query(oracle, q, None, self_exclude))
        assert sorted(got) == sorted(want)
        np.testing.assert_allclose(
            [got[i] for i in sorted(got)], [want[i] for i in sorted(want)], rtol=0, atol=1e-12
        )


@SETTINGS
@given(corpus=corpora(), weighted=st.booleans())
def test_save_of_load_reproduces_file(tmp_path, corpus, weighted):
    dimension, docs, _ = corpus
    idx = build_index(dimension, docs)
    if weighted:
        idx = apply_idf(idx)
    first, second = tmp_path / "first.hmpi", tmp_path / "second.hmpi"
    save_index(idx, first)
    save_index(load_index(first), second)
    assert second.read_bytes() == first.read_bytes()


def built_and_weighted(dimension, docs):
    """The index of `docs` and its IDF weighting, each with its oracle."""
    idx, oracle = build_index(dimension, docs), dict_index(dimension, docs)
    return [(idx, oracle), (apply_idf(idx), oracles.index_apply_idf(oracle))]


def assert_row_table(idx, oracle):
    """`rows` and `starts` name the oracle's posting lists by ascending
    dimension, each with its sentinel."""
    dims = sorted(oracle.postings)
    assert idx.rows.tolist() == dims + [idx.dimension]
    assert idx.starts.tolist() == np.cumsum([0] + [len(oracle.postings[d]) for d in dims]).tolist()


@SETTINGS
@given(corpus=st.one_of(corpora(), corpora(max_dimension=48)))
def test_row_table_names_the_runs_of_the_postings(tmp_path, corpus):
    path = tmp_path / "table.hmpi"
    for idx, oracle in built_and_weighted(*corpus[:2]):
        save_index(idx, path)
        assert_row_table(idx, oracle)
        assert_row_table(load_index(path), oracle)


@SETTINGS
@given(corpus=st.one_of(corpora(), corpora(max_dimension=48)))
def test_index_holds_its_rows_and_postings_only(tmp_path, corpus):
    """Built, weighted or loaded, an index holds `docs` and `values`, one
    entry a posting, `rows` and `starts`, one entry a row and one for the
    sentinel, and a weighted index its weights: no dimension per posting."""
    path = tmp_path / "held.hmpi"
    for idx, oracle in built_and_weighted(*corpus[:2]):
        save_index(idx, path)
        postings, rows = sum(map(len, oracle.postings.values())), len(oracle.postings) + 1
        want = dict(docs=postings, values=postings, rows=rows, starts=rows)
        if idx.idf is not None:
            want["idf"] = idx.dimension
        for index in (idx, load_index(path)):
            held = {name: a.size for name, a in vars(index).items() if isinstance(a, np.ndarray)}
            assert held == want


@pytest.mark.parametrize(
    "docs, weighted, ranked",
    [
        ([], False, []),
        ([ImageDescriptor(i, 7, [], []) for i in "ab"], False, []),
        ([ImageDescriptor(i, 7, [3], [1.0]) for i in "ab"], True, []),
        ([ImageDescriptor("a", 7, [2, 6], [0.6, 0.8])], False, [("a", 0.6 * 0.6)]),
    ],
    ids=["no-documents", "empty-documents", "weighted-to-nothing", "one-document"],
)
def test_row_table_of_small_indexes(tmp_path, docs, weighted, ranked):
    idx, oracle = build_index(7, docs), dict_index(7, docs)
    if weighted:
        idx, oracle = apply_idf(idx), oracles.index_apply_idf(oracle)
    save_index(idx, tmp_path / "small.hmpi")
    loaded = load_index(tmp_path / "small.hmpi")
    q = ImageDescriptor("q", 7, [2, 3], [0.6, 0.8])
    for index in (idx, loaded, without_view(copy.copy(loaded))):
        assert_row_table(index, oracle)
        assert query(index, q) == ranked


index_module = importlib.import_module("hmpsearch.index")


def spy_products(monkeypatch):
    """The `atoms` shapes of every `_products` call that `query` makes."""
    shapes = []

    def spy(y, atoms):
        shapes.append(atoms.shape)
        return coding._products(y, atoms)

    monkeypatch.setattr(index_module, "_products", spy)
    return shapes


def without_view(idx):
    idx.__dict__["_view"] = None
    return idx


@pytest.mark.parametrize("strategy", [corpora(), corpora(max_dimension=48)], ids=["12-dims", "48-dims"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("dense", [True, False])
def test_corpora_reach_both_scoring_paths(strategy, weighted, dense):
    def takes(corpus):
        idx = build_index(*corpus[:2])
        return ((apply_idf(idx) if weighted else idx)._view is not None) == dense

    find(strategy, takes, settings=settings(database=None, derandomize=True, max_examples=1000))


@SETTINGS
@given(
    corpus=st.one_of(corpora(), corpora(max_dimension=48)),
    weighted=st.booleans(),
    top_k=st.one_of(st.none(), st.integers(0, 5)),
    self_exclude=st.booleans(),
)
def test_either_path_matches_oracle_bitwise(corpus, weighted, top_k, self_exclude):
    dimension, docs, queries = corpus
    idx, sparse = build_index(dimension, docs), without_view(build_index(dimension, docs))
    if weighted:
        idx, sparse = apply_idf(idx), without_view(apply_idf(sparse))
    oracle = oracles.dict_index_of(idx)
    for q in queries:
        want = oracles.index_query(oracle, q, top_k, self_exclude)
        for got in (query(idx, q, top_k, self_exclude), query(sparse, q, top_k, self_exclude)):
            assert [i for i, _ in got] == [i for i, _ in want]
            assert score_bits(got) == score_bits(want)


@SETTINGS
@given(corpus=st.one_of(corpora(), corpora(max_dimension=48)), self_exclude=st.booleans())
def test_exhaustive_scan_scores_as_query_bitwise(corpus, self_exclude):
    """On either scoring path, the scan ranks `query`'s candidates as it
    does, with its score bits, and scores every other document +0.0."""
    dimension, docs, queries = corpus
    for idx in (build_index(dimension, docs), without_view(build_index(dimension, docs))):
        for q in queries:
            got = query(idx, q, None, self_exclude)
            scan = exhaustive_scan(docs, q, None, self_exclude)
            candidates = {i for i, _ in got}
            shared = [hit for hit in scan if hit[0] in candidates]
            assert [i for i, _ in shared] == [i for i, _ in got]
            assert score_bits(shared) == score_bits(got)
            assert set(score_bits([hit for hit in scan if hit[0] not in candidates])) <= {0}


def textures(density, seed=31):
    """600 bag-of-features-like documents over 256 dimensions, each holding
    a dimension with probability `density`; a few are empty."""
    rng = np.random.default_rng(seed)
    docs = []
    for n in range(600):
        dims = np.flatnonzero(rng.uniform(size=256) < (density if n % 97 else 0.0))
        values = l2_normalize(rng.exponential(size=dims.size))
        docs.append(ImageDescriptor(f"img-{rng.integers(10**6):06d}-{n}", 256, dims, values))
    return docs


@pytest.mark.parametrize("density, dense", [(0.5, True), (0.06, False)])
@pytest.mark.parametrize("weighted", [False, True])
def test_large_corpus_matches_oracle_on_its_path(monkeypatch, density, dense, weighted):
    docs = textures(density)
    idx = build_index(256, docs)
    idx = apply_idf(idx) if weighted else idx
    assert (idx._view is not None) == dense
    oracle = oracles.dict_index_of(idx)
    shapes = spy_products(monkeypatch)
    queries = docs[::40] + textures(density, seed=32)[:5]
    for q in queries:
        got = query(idx, q, 10, self_exclude=True)
        want = oracles.index_query(oracle, q, 10, self_exclude=True)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert score_bits(got) == score_bits(want)
    assert len(shapes) == (len(queries) if dense else 0)
    assert all(docs_axis == 600 for _, docs_axis in shapes)


def at_the_rule(margin, rows=256, docs=600):
    """An index whose view would take `margin` postings fewer than the
    postings arrays' bytes (24 a posting): about 3/8 dense, every row held."""
    view_bytes = 8 * rows + 9 * rows * docs
    count = view_bytes // 24 + margin
    rng = np.random.default_rng(38)
    firsts = np.arange(rows) * docs
    others = np.setdiff1d(np.arange(rows * docs), firsts)
    cells = np.concatenate([firsts, rng.choice(others, count - rows, replace=False)])
    ids = [f"d{n:04d}" for n in range(docs)]
    return InvertedIndex(rows, ids, cells // docs, cells % docs, rng.uniform(size=count))


@pytest.mark.parametrize(
    "make, dense",
    [
        (lambda: apply_idf(build_index(256, textures(0.5))), True),
        (lambda: apply_idf(build_index(256, textures(0.06))), False),
        (lambda: at_the_rule(300), True),
        (lambda: at_the_rule(-300), False),
    ],
    ids=["50%", "6%", "just-above-3/8", "just-below-3/8"],
)
def test_view_allocates_at_most_the_postings_bytes(make, dense):
    idx = make()
    postings = 24 * idx.values.size
    tracemalloc.start()
    try:
        view = idx._view
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= postings
    assert (view is not None) == dense
    if view is not None:
        assert sum(part.nbytes for part in view) <= postings


def unit(image_id, dimension, pairs):
    dims, values = zip(*pairs)
    return ImageDescriptor(image_id, dimension, np.array(dims), l2_normalize(np.array(values)))


class TestDenseViewEdges:
    """Indexes that take the view, each scored as the oracle and the
    `bincount` path score it."""

    def check(self, monkeypatch, idx, q, self_exclude=False):
        """The ranking, after checking that the view scored it bit for bit
        as the oracle and the `bincount` path do."""
        assert idx._view is not None
        sparse = without_view(copy.copy(idx))
        shapes = spy_products(monkeypatch)
        got = query(idx, q, None, self_exclude)
        assert shapes == [(shapes[0][0], idx.doc_count)]
        want = oracles.index_query(oracles.dict_index_of(idx), q, None, self_exclude)
        for other in (want, query(sparse, q, None, self_exclude)):
            assert [i for i, _ in got] == [i for i, _ in other]
            assert score_bits(got) == score_bits(other)
        return got

    def test_one_document_takes_the_single_atom_pad(self, monkeypatch):
        idx = build_index(6, [unit("a", 6, [(1, 0.3), (4, -0.7)])])
        got = self.check(monkeypatch, idx, unit("q", 6, [(0, 1.0), (4, 0.2), (5, 0.1)]))
        assert [i for i, _ in got] == ["a"]

    def test_index_of_empty_documents_ranks_nothing(self, monkeypatch):
        idx = build_index(5, [ImageDescriptor(i, 5, [], []) for i in "abc"])
        assert idx._view[1].shape == (0, 3)
        assert self.check(monkeypatch, idx, unit("q", 5, [(2, 1.0)])) == []

    def test_query_with_no_row_in_the_index_ranks_nothing(self, monkeypatch):
        idx = build_index(9, [unit("a", 9, [(2, 1.0), (3, 1.0)]), unit("b", 9, [(3, 1.0)])])
        q = unit("q", 9, [(0, 0.5), (4, 0.5), (8, 0.5)])
        assert self.check(monkeypatch, idx, q) == []

    def test_zero_valued_postings_are_candidates(self, monkeypatch, tmp_path):
        path = tmp_path / "zeros.hmpi"
        blocks = {1: [(0, 0.0), (1, -0.0), (2, 0.6)], 3: [(1, -0.0), (2, 0.8)]}
        path.write_bytes(index_bytes(4, ["a", "b", "c"], blocks))
        idx = load_index(path)
        got = self.check(monkeypatch, idx, unit("q", 4, [(1, -0.6), (3, 0.8)]))
        assert [i for i, _ in got] == ["c", "a", "b"]
        assert score_bits(got[1:]) == score_bits([("a", 0.0), ("b", 0.0)])

    def test_self_exclusion_with_ties(self, monkeypatch):
        pairs = [(0, 0.5), (2, -0.25), (3, 1.0)]
        docs = [unit(i, 4, pairs) for i in ("m", "b", "z", "a")] + [unit("c", 4, [(2, 1.0)])]
        idx = build_index(4, docs)
        got = self.check(monkeypatch, idx, docs[0], self_exclude=True)
        assert [i for i, _ in got] == ["a", "b", "z", "c"]
        assert len(set(score_bits(got[:3]))) == 1
